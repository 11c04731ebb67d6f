// Tests for the cluster plane (src/cluster + the server integration):
// slot hashing, persisted slot-table recovery, the client's redirect rules
// (-MOVED refreshes the cache and retries, -ASK is one-shot and never
// cached, redirect loops are bounded), the REPLSYNC -BADCONFIG handshake
// guard, the STATS cluster line, and a live two-node slot migration with
// writes racing the handoff.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/cluster/cluster_client.h"
#include "src/cluster/meta.h"
#include "src/cluster/slot_map.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"

namespace jnvm {
namespace {

using cluster::ClusterClient;
using cluster::ClusterClientOptions;
using cluster::ClusterOptions;
using cluster::ClusterState;
using cluster::kNumSlots;
using cluster::MigState;
using cluster::SlotForKey;
using server::Client;
using server::RespReply;
using server::Server;
using server::ServerOptions;
using server::ShardOptions;

ShardOptions SmallShard() {
  ShardOptions o;
  o.device_bytes = 32ull << 20;
  o.map_capacity = 1 << 10;
  o.batch = 16;
  return o;
}

// ---- Slot hashing -----------------------------------------------------------

TEST(SlotMap, DeterministicAndInRange) {
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key:" + std::to_string(i);
    const uint16_t s = SlotForKey(key);
    EXPECT_LT(s, kNumSlots);
    EXPECT_EQ(s, SlotForKey(key));  // pure function of the key bytes
  }
  // Not all keys in one slot (the hash actually spreads).
  EXPECT_NE(SlotForKey("key:1"), SlotForKey("key:2"));
}

// A slot's keys must NOT all land on one shard: slot routing (cluster) and
// shard routing (within a node) are decorrelated, so moving a slot moves
// work from every shard, not one.
TEST(SlotMap, DecorrelatedFromShardRouting) {
  const uint16_t target = SlotForKey("key:0");
  std::vector<bool> shard_seen(4, false);
  int found = 0;
  for (int i = 0; i < 2000000 && found < 50; ++i) {
    const std::string key = "key:" + std::to_string(i);
    if (SlotForKey(key) == target) {
      shard_seen[server::ShardFor(key, 4)] = true;
      ++found;
    }
  }
  ASSERT_GE(found, 50);
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(shard_seen[s]) << "slot " << target << " never hit shard " << s;
  }
}

// ---- Persisted slot table ---------------------------------------------------

TEST(ClusterMeta, SlotTableSurvivesReopen) {
  const std::string image =
      (std::filesystem::path(::testing::TempDir()) / "cluster_meta.img")
          .string();
  std::remove(image.c_str());
  std::string err;
  {
    ClusterOptions o;
    o.image_path = image;
    o.self = 0;
    o.announce = "127.0.0.1:7000";
    auto cs = ClusterState::Open(o, &err);
    ASSERT_NE(cs, nullptr) << err;
    ASSERT_TRUE(cs->Meet(1, "127.0.0.1:7001", &err)) << err;
    ASSERT_TRUE(cs->AssignRange(0, 99, 0, &err)) << err;
    ASSERT_TRUE(cs->AssignRange(100, kNumSlots - 1, 1, &err)) << err;
    EXPECT_EQ(cs->epoch(), 2u);  // one bump per assignment
    ASSERT_TRUE(cs->Close());
  }
  {
    ClusterOptions o;
    o.image_path = image;
    o.self = 0;
    auto cs = ClusterState::Open(o, &err);
    ASSERT_NE(cs, nullptr) << err;
    EXPECT_EQ(cs->epoch(), 2u);
    EXPECT_EQ(cs->NodeAddr(1), "127.0.0.1:7001");
    EXPECT_EQ(cs->OwnerOf(0), 0u);
    EXPECT_EQ(cs->OwnerOf(99), 0u);
    EXPECT_EQ(cs->OwnerOf(100), 1u);
    EXPECT_EQ(cs->OwnerOf(kNumSlots - 1), 1u);
    EXPECT_EQ(cs->slots_owned(), 100u);
    EXPECT_EQ(cs->mig_state(), MigState::kNone);
  }
  std::remove(image.c_str());
}

// ---- Two-node fleet fixture -------------------------------------------------

struct Node {
  std::unique_ptr<Server> server;
  std::string addr;
  ClusterState* cs = nullptr;
};

class ClusterE2E : public ::testing::Test {
 protected:
  Node StartNode(uint32_t self) {
    ServerOptions o;
    o.nshards = 2;
    o.shard = SmallShard();
    o.cluster = true;
    o.cluster_meta.self = self;  // volatile meta heap: fine for tests
    std::string err;
    Node n;
    n.server = Server::Start(o, &err);
    EXPECT_NE(n.server, nullptr) << err;
    n.addr = "127.0.0.1:" + std::to_string(n.server->port());
    n.cs = n.server->cluster_state();
    return n;
  }

  // Bootstraps a two-node cluster with every slot owned by node 0.
  void Bootstrap(Node* n0, Node* n1) {
    *n0 = StartNode(0);
    *n1 = StartNode(1);
    std::string err;
    for (ClusterState* cs : {n0->cs, n1->cs}) {
      ASSERT_TRUE(cs->Meet(0, n0->addr, &err)) << err;
      ASSERT_TRUE(cs->Meet(1, n1->addr, &err)) << err;
      ASSERT_TRUE(cs->AssignRange(0, kNumSlots - 1, 0, &err)) << err;
    }
  }

  // A key whose slot falls in [lo, hi] and carries the given prefix.
  static std::string KeyInRange(const std::string& prefix, uint32_t lo,
                                uint32_t hi) {
    for (int i = 0;; ++i) {
      const std::string k = prefix + std::to_string(i);
      const uint16_t s = SlotForKey(k);
      if (s >= lo && s <= hi) {
        return k;
      }
    }
  }
};

TEST_F(ClusterE2E, MovedRefreshesSlotCacheAndRetriesOnce) {
  Node n0, n1;
  Bootstrap(&n0, &n1);

  ClusterClientOptions copts;
  copts.seeds = {n0.addr};
  std::string err;
  auto cc = ClusterClient::Connect(copts, &err);
  ASSERT_NE(cc, nullptr) << err;

  const std::string key = "moved:key";
  const uint16_t slot = SlotForKey(key);
  ASSERT_TRUE(cc->Set(key, "v1"));
  EXPECT_EQ(cc->stats().moved_redirects, 0u);
  EXPECT_EQ(cc->CachedOwner(slot), n0.addr);

  // Ownership flips underneath the client (both tables agree).
  ASSERT_TRUE(n0.cs->AssignRange(slot, slot, 1, &err)) << err;
  ASSERT_TRUE(n1.cs->AssignRange(slot, slot, 1, &err)) << err;

  // The stale cache sends the write to node 0; -MOVED teaches the client
  // the new owner and the retry lands on node 1 — one hop, then cached.
  ASSERT_TRUE(cc->Set(key, "v2"));
  EXPECT_EQ(cc->stats().moved_redirects, 1u);
  EXPECT_EQ(cc->CachedOwner(slot), n1.addr);
  ASSERT_TRUE(cc->Set(key, "v3"));  // cache hit: no further redirects
  EXPECT_EQ(cc->stats().moved_redirects, 1u);

  // The value really lives on node 1 now.
  auto direct = Client::Connect("127.0.0.1", n1.server->port(), &err);
  ASSERT_NE(direct, nullptr) << err;
  EXPECT_EQ(direct->Get(key).value_or("?"), "v3");
}

TEST_F(ClusterE2E, AskIsOneShotAndNeverCached) {
  Node n0, n1;
  Bootstrap(&n0, &n1);
  std::string err;
  // Source migrating [0, 8191] to node 1; destination importing.
  ASSERT_TRUE(n0.cs->StartMigrating(0, 8191, 1, &err)) << err;
  ASSERT_TRUE(n1.cs->StartImporting(0, 8191, 0, &err)) << err;

  ClusterClientOptions copts;
  copts.seeds = {n0.addr};
  auto cc = ClusterClient::Connect(copts, &err);
  ASSERT_NE(cc, nullptr) << err;

  const std::string key = KeyInRange("ask:", 0, 8191);
  const uint16_t slot = SlotForKey(key);
  ASSERT_EQ(cc->CachedOwner(slot), n0.addr);

  // Missing key at the migrating source → -ASK → ASKING write at the dest.
  ASSERT_TRUE(cc->Set(key, "v1"));
  EXPECT_EQ(cc->stats().ask_redirects, 1u);
  EXPECT_EQ(cc->CachedOwner(slot), n0.addr);  // ownership has NOT flipped

  // Every access re-pays the redirect: one-shot, never cached.
  EXPECT_EQ(cc->Get(key).value_or("?"), "v1");
  EXPECT_EQ(cc->stats().ask_redirects, 2u);
  EXPECT_EQ(cc->CachedOwner(slot), n0.addr);

  // The key lives only on the destination; a plain (non-ASKING) read there
  // still answers -MOVED back to the source — importing slots are gated.
  auto direct = Client::Connect("127.0.0.1", n1.server->port(), &err);
  ASSERT_NE(direct, nullptr) << err;
  RespReply r;
  ASSERT_TRUE(direct->Roundtrip({"GET", key}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError);
  EXPECT_EQ(r.str.rfind("MOVED ", 0), 0u) << r.str;
}

TEST_F(ClusterE2E, RedirectLoopsAreBounded) {
  Node n0, n1;
  Bootstrap(&n0, &n1);
  std::string err;
  const std::string key = "loop:key";
  const uint16_t slot = SlotForKey(key);
  // Conflicting tables: each node claims the other owns the slot.
  ASSERT_TRUE(n0.cs->AssignRange(slot, slot, 1, &err)) << err;
  // (node 1's table still says node 0 — the Bootstrap assignment.)

  ClusterClientOptions copts;
  copts.seeds = {n0.addr};
  copts.max_hops = 4;
  auto cc = ClusterClient::Connect(copts, &err);
  ASSERT_NE(cc, nullptr) << err;

  RespReply r;
  EXPECT_FALSE(cc->Roundtrip({"GET", key}, key, &r));
  EXPECT_NE(cc->last_error().find("redirect loop"), std::string::npos)
      << cc->last_error();
  EXPECT_EQ(cc->stats().moved_redirects, 4u);  // exactly max_hops, then stop
}

TEST_F(ClusterE2E, ReplsyncRejectsMismatchedConfig) {
  Node n0 = StartNode(0);
  std::string err;
  auto c = Client::Connect("127.0.0.1", n0.server->port(), &err);
  ASSERT_NE(c, nullptr) << err;

  // Shard-count mismatch: the server runs 2 shards.
  RespReply r;
  ASSERT_TRUE(c->Roundtrip({"REPLSYNC", "0", "1", "3"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError);
  EXPECT_EQ(r.str.rfind("BADCONFIG", 0), 0u) << r.str;
  EXPECT_NE(r.str.find("shard count"), std::string::npos);

  // Config-epoch mismatch (the fresh node is at epoch 0).
  ASSERT_TRUE(c->Roundtrip({"REPLSYNC", "0", "1", "2", "7"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kError);
  EXPECT_EQ(r.str.rfind("BADCONFIG", 0), 0u) << r.str;
  EXPECT_NE(r.str.find("epoch"), std::string::npos);
}

TEST_F(ClusterE2E, LiveMigrationMovesKeysExactlyOnce) {
  Node n0, n1;
  Bootstrap(&n0, &n1);
  std::string err;

  ClusterClientOptions copts;
  copts.seeds = {n0.addr};
  auto cc = ClusterClient::Connect(copts, &err);
  ASSERT_NE(cc, nullptr) << err;

  // Preload, then kick off a throttled live migration of half the space so
  // writes genuinely race the copy/catch-up/handoff phases.
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("mig:" + std::to_string(i));
    ASSERT_TRUE(cc->Set(keys.back(), "v0:" + keys.back()));
  }
  auto admin = Client::Connect("127.0.0.1", n0.server->port(), &err);
  ASSERT_NE(admin, nullptr) << err;
  RespReply r;
  ASSERT_TRUE(admin->Roundtrip(
      {"CLUSTER", "SETSLOT", "MIGRATE", "0", "8191", "1", "2"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kSimple) << r.str;

  // While the range is migrating, CLUSTER INFO reports the source's keys in
  // it, read from the per-slot counts. The throttled copy has not handed
  // anything off yet, so every preloaded in-range key is still counted.
  const auto in_range =
      std::count_if(keys.begin(), keys.end(),
                    [](const std::string& k) { return SlotForKey(k) <= 8191; });
  ASSERT_TRUE(admin->Roundtrip({"CLUSTER", "INFO"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kBulk) << r.str;
  EXPECT_NE(r.str.find("keys_in_mig_range:" + std::to_string(in_range) + "\n"),
            std::string::npos)
      << r.str;

  // Writes racing the migration; the client absorbs every redirect.
  for (const std::string& k : keys) {
    ASSERT_TRUE(cc->Set(k, "v1:" + k)) << cc->last_error();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (n0.server->migrator()->busy()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "migration stuck: " << n0.server->migrator()->status();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(n0.cs->OwnerOf(0), 1u);
  EXPECT_EQ(n1.cs->OwnerOf(0), 1u);
  EXPECT_EQ(n0.cs->mig_state(), MigState::kNone);
  EXPECT_GE(n0.cs->epoch(), 2u);
  ASSERT_TRUE(admin->Roundtrip({"CLUSTER", "INFO"}, &r));
  EXPECT_EQ(r.str.find("keys_in_mig_range:"), std::string::npos) << r.str;

  // Every acked key readable exactly once at its current owner; an
  // in-range read at the old owner answers -MOVED, never a value.
  auto src = Client::Connect("127.0.0.1", n0.server->port(), &err);
  auto dst = Client::Connect("127.0.0.1", n1.server->port(), &err);
  ASSERT_NE(src, nullptr);
  ASSERT_NE(dst, nullptr);
  for (const std::string& k : keys) {
    EXPECT_EQ(cc->Get(k).value_or("?"), "v1:" + k) << k;
    const bool in_range = SlotForKey(k) <= 8191;
    Client* owner = in_range ? dst.get() : src.get();
    Client* other = in_range ? src.get() : dst.get();
    EXPECT_EQ(owner->Get(k).value_or("?"), "v1:" + k) << k;
    ASSERT_TRUE(other->Roundtrip({"GET", k}, &r)) << k;
    ASSERT_EQ(r.type, RespReply::Type::kError) << k << ": " << r.str;
    EXPECT_EQ(r.str.rfind("MOVED ", 0), 0u) << r.str;
  }

  // The STATS cluster line carries the migration counters (asserted here
  // so the line's shape is pinned by a test).
  const auto stats0 = src->Stats();
  ASSERT_TRUE(stats0.has_value());
  EXPECT_NE(stats0->find("cluster: epoch="), std::string::npos) << *stats0;
  EXPECT_NE(stats0->find("migrations_out=1"), std::string::npos) << *stats0;
  EXPECT_NE(stats0->find("moved_replies="), std::string::npos) << *stats0;
  const auto stats1 = dst->Stats();
  ASSERT_TRUE(stats1.has_value());
  EXPECT_NE(stats1->find("migrations_in=1"), std::string::npos) << *stats1;
  EXPECT_NE(stats1->find("slots_owned=8192"), std::string::npos) << *stats1;
}

}  // namespace
}  // namespace jnvm
