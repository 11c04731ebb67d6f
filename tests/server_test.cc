// Tests for the network service layer (src/server): RESP parser edge cases,
// shard routing determinism, group-commit shard semantics, and an
// end-to-end loopback test with a shutdown → restart → recovery cycle.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/cluster/slot_map.h"
#include "src/common/clock.h"
#include "src/repl/frame.h"
#include "src/server/client.h"
#include "src/server/poller.h"
#include "src/server/server.h"
#include "src/server/shard.h"

namespace jnvm::server {
namespace {

// ---- I/O-plane parameterization ---------------------------------------------
// The e2e suites run under every loops × poller combination: the single-loop
// shapes that existed before the multi-core I/O plane, plus 2- and 4-loop
// pools where connections land on different loops and completions cross
// threads. io_uring joins the grid only when the kernel actually supports it
// (Poller::Create falls back to epoll otherwise, which would make the
// poller= stats assertion lie).

struct IoParam {
  uint32_t loops;
  // Spelled out and zeroed: gtest lists each case with a byte dump of its
  // param, and implicit padding here held leftover bytes of a randomized
  // address, so the head of each listed test name changed from run to run.
  // (The string's buffer pointer, later in the dump, still does.)
  uint32_t pad;
  std::string poller;
};

std::vector<IoParam> IoParams() {
  std::vector<std::string> pollers = {"epoll", "poll"};
  if (IoUringSupported()) {
    pollers.push_back("uring");
  }
  std::vector<IoParam> out;
  for (uint32_t loops : {1u, 2u, 4u}) {
    for (const std::string& p : pollers) {
      out.push_back({loops, 0, p});
    }
  }
  return out;
}

std::string IoParamName(const ::testing::TestParamInfo<IoParam>& info) {
  return "loops" + std::to_string(info.param.loops) + "_" + info.param.poller;
}

// ---- RESP command parser ----------------------------------------------------

std::string Frame(const std::vector<std::string>& args) {
  std::string out = "*" + std::to_string(args.size()) + "\r\n";
  for (const auto& a : args) {
    out += "$" + std::to_string(a.size()) + "\r\n" + a + "\r\n";
  }
  return out;
}

TEST(RespParser, ParsesWholeCommand) {
  RespParser p;
  const std::string wire = Frame({"SET", "k", "v"});
  p.Feed(wire.data(), wire.size());
  std::vector<std::string> args;
  std::string err;
  ASSERT_EQ(p.Next(&args, &err), RespParser::Status::kCommand);
  EXPECT_EQ(args, (std::vector<std::string>{"SET", "k", "v"}));
  EXPECT_EQ(p.Next(&args, &err), RespParser::Status::kNeedMore);
  EXPECT_EQ(p.buffered_bytes(), 0u);
}

TEST(RespParser, SplitReadsByteByByte) {
  // A command split across N one-byte reads must parse identically and
  // never re-scan (state survives Feed boundaries).
  RespParser p;
  const std::string wire = Frame({"HSET", "key:1", "3", "value bytes"});
  std::vector<std::string> args;
  std::string err;
  for (size_t i = 0; i < wire.size(); ++i) {
    const RespParser::Status st = p.Next(&args, &err);
    ASSERT_EQ(st, RespParser::Status::kNeedMore) << "at byte " << i;
    p.Feed(&wire[i], 1);
  }
  ASSERT_EQ(p.Next(&args, &err), RespParser::Status::kCommand);
  EXPECT_EQ(args, (std::vector<std::string>{"HSET", "key:1", "3", "value bytes"}));
}

TEST(RespParser, PipelinedCommandsDrainInOrder) {
  RespParser p;
  std::string wire;
  for (int i = 0; i < 10; ++i) {
    wire += Frame({"GET", "key:" + std::to_string(i)});
  }
  // Feed in two arbitrary chunks.
  p.Feed(wire.data(), wire.size() / 3);
  std::vector<std::string> args;
  std::string err;
  int got = 0;
  while (p.Next(&args, &err) == RespParser::Status::kCommand) {
    EXPECT_EQ(args[1], "key:" + std::to_string(got));
    ++got;
  }
  p.Feed(wire.data() + wire.size() / 3, wire.size() - wire.size() / 3);
  while (p.Next(&args, &err) == RespParser::Status::kCommand) {
    EXPECT_EQ(args[1], "key:" + std::to_string(got));
    ++got;
  }
  EXPECT_EQ(got, 10);
}

TEST(RespParser, BinaryValuesSurvive) {
  RespParser p;
  std::string blob;
  for (int i = 0; i < 256; ++i) {
    blob.push_back(static_cast<char>(i));  // includes \r, \n, \0
  }
  const std::string wire = Frame({"SET", "bin", blob});
  p.Feed(wire.data(), wire.size());
  std::vector<std::string> args;
  std::string err;
  ASSERT_EQ(p.Next(&args, &err), RespParser::Status::kCommand);
  EXPECT_EQ(args[2], blob);
}

TEST(RespParser, MalformedFramesAreTerminalErrors) {
  const std::vector<std::string> bad = {
      "GET k\r\n",          // inline command, not RESP array
      "*0\r\n",             // empty array
      "*2\r\nGET\r\n",      // missing bulk header
      "*1\r\n$-1\r\n",      // negative bulk length in a request
      "*1\r\n$3\r\nabcd\r\n",  // body longer than declared
      "*1\r\n$04\r\nabc\r\n",  // leading zero length
  };
  for (const std::string& wire : bad) {
    RespParser p;
    p.Feed(wire.data(), wire.size());
    std::vector<std::string> args;
    std::string err;
    RespParser::Status st = p.Next(&args, &err);
    // Some inputs need more bytes before the violation is visible; push junk.
    if (st == RespParser::Status::kNeedMore) {
      const std::string junk(8, 'x');
      p.Feed(junk.data(), junk.size());
      st = p.Next(&args, &err);
    }
    ASSERT_EQ(st, RespParser::Status::kError) << wire;
    EXPECT_FALSE(err.empty());
    // Terminal: stays broken.
    EXPECT_EQ(p.Next(&args, &err), RespParser::Status::kError);
  }
}

TEST(RespParser, OversizedFrameRejected) {
  RespParser p;
  const std::string wire = "*1\r\n$999999999\r\n";  // > kMaxBulkBytes
  p.Feed(wire.data(), wire.size());
  std::vector<std::string> args;
  std::string err;
  EXPECT_EQ(p.Next(&args, &err), RespParser::Status::kError);

  RespParser p2;
  const std::string wide = "*99999\r\n";  // > kMaxArgs
  p2.Feed(wide.data(), wide.size());
  EXPECT_EQ(p2.Next(&args, &err), RespParser::Status::kError);
}

TEST(RespReplyParser, AllReplyTypes) {
  RespReplyParser p;
  const std::string wire = "+OK\r\n-ERR boom\r\n:42\r\n$5\r\nhello\r\n$-1\r\n";
  p.Feed(wire.data(), wire.size());
  RespReply r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.type, RespReply::Type::kSimple);
  EXPECT_EQ(r.str, "OK");
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.type, RespReply::Type::kError);
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.integer, 42);
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.str, "hello");
  ASSERT_EQ(p.Next(&r, &err), RespParser::Status::kCommand);
  EXPECT_EQ(r.type, RespReply::Type::kNil);
  EXPECT_EQ(p.Next(&r, &err), RespParser::Status::kNeedMore);
}

// ---- Shard routing ----------------------------------------------------------

TEST(ShardRouting, DeterministicAndInRange) {
  for (uint32_t nshards : {1u, 2u, 4u, 7u, 16u}) {
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "key:" + std::to_string(i);
      const uint32_t a = ShardFor(key, nshards);
      EXPECT_LT(a, nshards);
      EXPECT_EQ(a, ShardFor(key, nshards));  // stable
    }
  }
}

TEST(ShardRouting, SpreadsKeys) {
  // FNV-1a over "key:N" must not collapse onto few shards.
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    counts[ShardFor("key:" + std::to_string(i), 8)]++;
  }
  for (const int c : counts) {
    EXPECT_GT(c, 500);  // perfectly uniform would be 1000
  }
}

// ---- Shard group commit -----------------------------------------------------

class CollectSink : public CompletionSink {
 public:
  void OnCompletion(Completion&& c) override {
    std::lock_guard<std::mutex> lk(mu_);
    got_.push_back(std::move(c));
  }
  size_t count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return got_.size();
  }
  std::vector<Completion> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(got_);
  }

 private:
  mutable std::mutex mu_;
  std::vector<Completion> got_;
};

ShardOptions SmallShard(uint32_t batch) {
  ShardOptions o;
  o.device_bytes = 32ull << 20;
  o.map_capacity = 1 << 10;
  o.batch = batch;
  return o;
}

TEST(Shard, BatchedWritesElideFencesAndAudit) {
  CollectSink sink;
  auto shard = Shard::Open(SmallShard(/*batch=*/16), 0, &sink);
  for (int i = 0; i < 200; ++i) {
    Request r;
    r.op = Request::Op::kSet;
    r.key = "k" + std::to_string(i);
    r.value = "v" + std::to_string(i);
    r.conn_id = 1;  // conn_id 0 marks internal requests: no completion
    r.seq = static_cast<uint64_t>(i);
    ASSERT_TRUE(shard->Submit(std::move(r)));
  }
  const ShardReport rep = shard->Quiesce();
  EXPECT_TRUE(rep.integrity_ok) << rep.violations.size() << " violations";
  EXPECT_EQ(rep.records, 200u);
  // Group commit elided per-op durability fences (one per put).
  EXPECT_GT(rep.elided_fences, 0u);
  EXPECT_EQ(sink.count(), 200u);
}

TEST(Shard, Batch1KeepsWriteThroughSemantics) {
  CollectSink sink;
  auto shard = Shard::Open(SmallShard(/*batch=*/1), 0, &sink);
  for (int i = 0; i < 50; ++i) {
    Request r;
    r.op = Request::Op::kSet;
    r.key = "k" + std::to_string(i);
    r.value = "v";
    ASSERT_TRUE(shard->Submit(std::move(r)));
  }
  const ShardReport rep = shard->Quiesce();
  EXPECT_TRUE(rep.integrity_ok);
  EXPECT_EQ(rep.elided_fences, 0u);  // no group commit at batch=1
  EXPECT_FALSE(shard->Submit(Request{}));  // terminal after quiesce
}

// Installs a snapshot of `entries` at `snap_seq` through the shard's queue
// and waits for the install's durability point.
bool InstallSnapshot(Shard& shard, const std::vector<repl::SnapshotEntry>& entries,
                     uint64_t snap_seq) {
  auto waiter = std::make_shared<ReplWaiter>();
  Request req;
  req.op = Request::Op::kSnapInstall;
  repl::EncodeSnapshot(snap_seq, entries, &req.value);
  req.waiter = waiter;
  return shard.Submit(std::move(req)) && waiter->Wait();
}

TEST(Shard, SlotCountsMatchAcrossDaxRestartAndSnapshotInstall) {
  // Per-slot key counts are seeded from the store's keys when a shard opens
  // and after a snapshot install; live writes adjust them one by one. All
  // three must agree.
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_slots_" + std::to_string(::getpid())))
          .string();
  ShardOptions o = SmallShard(/*batch=*/16);
  o.dax_base = base;
  constexpr uint16_t kAll = cluster::kNumSlots - 1;
  constexpr uint16_t kLo = 1000, kHi = 9000;
  std::set<std::string> live;
  const auto in_sub = [](const std::string& k) {
    const uint16_t s = cluster::SlotForKey(k);
    return s >= kLo && s <= kHi;
  };
  uint64_t all = 0, sub = 0;
  {
    CollectSink sink;
    auto shard = Shard::Open(o, 0, &sink);
    ASSERT_FALSE(shard->recovered());
    uint64_t seq = 0;
    const auto submit = [&](Request::Op op, const std::string& key) {
      Request r;
      r.op = op;
      r.key = key;
      r.value = "v:" + key;
      r.conn_id = 1;
      r.seq = seq++;
      ASSERT_TRUE(shard->Submit(std::move(r)));
    };
    for (int i = 0; i < 400; ++i) {
      live.insert("key:" + std::to_string(i));
      submit(Request::Op::kSet, "key:" + std::to_string(i));
    }
    for (int i = 0; i < 400; i += 5) {
      live.erase("key:" + std::to_string(i));
      submit(Request::Op::kDel, "key:" + std::to_string(i));
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (sink.count() < seq) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    all = shard->KeysInSlotRange(0, kAll);
    sub = shard->KeysInSlotRange(kLo, kHi);
    EXPECT_EQ(all, live.size());
    EXPECT_EQ(sub, static_cast<uint64_t>(std::count_if(live.begin(), live.end(), in_sub)));
    EXPECT_GT(sub, 0u);
    EXPECT_LT(sub, all);
    ASSERT_TRUE(shard->Quiesce().integrity_ok);
  }

  CollectSink sink;
  auto shard = Shard::Open(o, 0, &sink);  // recovers from the dax file
  ASSERT_TRUE(shard->recovered());
  EXPECT_EQ(shard->KeysInSlotRange(0, kAll), all);
  EXPECT_EQ(shard->KeysInSlotRange(kLo, kHi), sub);

  // The same keys with new values: the re-seeded counts do not move.
  std::vector<repl::SnapshotEntry> entries;
  for (const std::string& k : live) {
    entries.push_back({k, store::Record{{"snap:" + k}}});
  }
  ASSERT_TRUE(InstallSnapshot(*shard, entries, 100));
  EXPECT_EQ(shard->KeysInSlotRange(0, kAll), all);
  EXPECT_EQ(shard->KeysInSlotRange(kLo, kHi), sub);

  // Without the sub-range's keys: the install drops them.
  std::erase_if(entries, [&](const repl::SnapshotEntry& e) { return in_sub(e.key); });
  ASSERT_TRUE(InstallSnapshot(*shard, entries, 200));
  EXPECT_EQ(shard->KeysInSlotRange(0, kAll), all - sub);
  EXPECT_EQ(shard->KeysInSlotRange(kLo, kHi), 0u);
  const ShardReport rep = shard->Quiesce();
  EXPECT_TRUE(rep.integrity_ok);
  EXPECT_EQ(rep.records, all - sub);
  shard.reset();
  std::filesystem::remove(base + ".shard0.pmem");
}

// ---- Chunked output queue ---------------------------------------------------

TEST(ConnOutQueue, SmallAppendsCoalesceIntoTailChunk) {
  Conn c;
  c.AppendOut("+OK\r\n");
  c.AppendOut(":1\r\n");
  c.AppendOut("$3\r\nabc\r\n");
  EXPECT_EQ(c.outq.size(), 1u);  // one mutable tail, three replies
  EXPECT_EQ(c.pending_out_bytes(), 5u + 4u + 9u);
  EXPECT_EQ(std::string(c.outq.front().data(), c.outq.front().size()),
            "+OK\r\n:1\r\n$3\r\nabc\r\n");
}

TEST(ConnOutQueue, LargeAppendBecomesItsOwnChunkWithoutCopy) {
  Conn c;
  c.AppendOut("+OK\r\n");
  std::string big(Conn::kCoalesceMax + 1, 'x');
  const char* payload = big.data();
  c.AppendOut(std::move(big));
  ASSERT_EQ(c.outq.size(), 2u);  // coalesced tail + the big chunk
  EXPECT_EQ(c.outq[1].data(), payload);  // the buffer moved, not copied
  // The adopted chunk then becomes the tail: later small replies coalesce
  // into it (amortized growth) until it hits kTailChunkMax.
  c.AppendOut("+OK\r\n");
  EXPECT_EQ(c.outq.size(), 2u);
  EXPECT_EQ(c.outq[1].size(), Conn::kCoalesceMax + 1 + 5);
}

TEST(ConnOutQueue, SharedFrameChargesLogicalBytesWithoutCopy) {
  auto frame = std::make_shared<const std::string>(std::string(4096, 'f'));
  Conn a;
  Conn b;
  a.AppendFrame(frame);
  b.AppendFrame(frame);
  // Both connections point at the same bytes yet each is charged in full:
  // cap accounting sees the backlog a private copy would have produced.
  EXPECT_EQ(a.outq.front().data(), frame->data());
  EXPECT_EQ(b.outq.front().data(), frame->data());
  EXPECT_EQ(a.pending_out_bytes(), 4096u);
  EXPECT_EQ(b.pending_out_bytes(), 4096u);
  EXPECT_EQ(frame.use_count(), 3);  // local + two subscribers
  a.ConsumeOut(4096);
  EXPECT_EQ(frame.use_count(), 2);  // a's ref released on full consume
  EXPECT_EQ(b.pending_out_bytes(), 4096u);  // b unaffected
}

TEST(ConnOutQueue, ConsumeResumesMidChunkAcrossKinds) {
  // Mixed queue: coalesced tail, shared frame, another tail. Consume in
  // awkward increments and check the iovec view always resumes exactly
  // where the previous partial write stopped.
  Conn c;
  c.AppendOut("0123456789");
  c.AppendFrame(std::make_shared<const std::string>("ABCDEFGHIJ"));
  c.AppendOut("abcdefghij");
  const std::string want = "0123456789ABCDEFGHIJabcdefghij";
  std::string got;
  size_t step = 1;
  while (c.WantsWrite()) {
    struct iovec iov[4];
    const size_t n = c.BuildIovecs(iov, 4);
    ASSERT_GT(n, 0u);
    // Take `step` bytes from the scattered view, as a short writev would.
    size_t take = std::min(step, c.pending_out_bytes());
    size_t left = take;
    for (size_t i = 0; i < n && left > 0; ++i) {
      const size_t k = std::min(left, iov[i].iov_len);
      got.append(static_cast<const char*>(iov[i].iov_base), k);
      left -= k;
    }
    c.ConsumeOut(take);
    step = step * 2 + 1;  // 1, 3, 7, 15, ... crosses every chunk boundary
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(c.outq.empty());
  EXPECT_EQ(c.out_off, 0u);
}

TEST(ConnOutQueue, TailChunkStopsGrowingAtCap) {
  Conn c;
  const std::string fill(Conn::kCoalesceMax, 'y');
  size_t appends = 0;
  while (c.outq.size() < 2) {
    std::string s = fill;
    c.AppendOut(std::move(s));
    ++appends;
  }
  EXPECT_GT(appends * Conn::kCoalesceMax, Conn::kTailChunkMax);
  EXPECT_LE(c.outq.front().size(),
            Conn::kTailChunkMax + Conn::kCoalesceMax);
}

TEST(ConnOutQueue, CompleteMovesStagedReplies) {
  // Out-of-order completions stage in the reorder buffer; once the gap
  // fills, the staged strings must MOVE into the queue (large replies keep
  // their buffer identity — the reply-staging copy was a real regression).
  Conn c;
  std::string big(Conn::kCoalesceMax + 100, 'r');
  const char* payload = big.data();
  EXPECT_FALSE(c.Complete(1, std::move(big)));  // gap: seq 0 missing
  EXPECT_EQ(c.pending_out_bytes(), 0u);
  EXPECT_TRUE(c.Complete(0, "+OK\r\n"));
  ASSERT_EQ(c.outq.size(), 2u);
  EXPECT_EQ(c.outq[1].data(), payload);  // staged reply moved, not copied
  EXPECT_EQ(c.next_to_send, 2u);
}

// ---- End-to-end loopback ----------------------------------------------------

class ServerE2E : public ::testing::TestWithParam<IoParam> {
 protected:
  ServerOptions Opts() {
    ServerOptions o;
    o.nshards = 4;
    o.shard = SmallShard(16);
    o.loops = GetParam().loops;
    o.poller = GetParam().poller;
    return o;
  }
};

TEST_P(ServerE2E, CommandsRoundtrip) {
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;

  EXPECT_TRUE(c->Ping());
  EXPECT_TRUE(c->Set("alpha", "1"));
  EXPECT_EQ(c->Get("alpha").value_or("?"), "1");
  EXPECT_FALSE(c->Get("missing").has_value());
  EXPECT_TRUE(c->Hset("alpha", 0, "2"));
  EXPECT_EQ(c->Get("alpha").value_or("?"), "2");
  EXPECT_FALSE(c->Hset("missing", 0, "x"));
  EXPECT_TRUE(c->Mset({{"m1", "a"}, {"m2", "b"}, {"m3", "c"}}));
  EXPECT_EQ(c->Get("m2").value_or("?"), "b");
  EXPECT_TRUE(c->Del("alpha"));
  EXPECT_FALSE(c->Del("alpha"));
  EXPECT_TRUE(c->Touch("m1"));

  const auto stats = c->Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("shard0:"), std::string::npos);
  EXPECT_NE(stats->find("poller=" + GetParam().poller), std::string::npos);
  EXPECT_NE(stats->find("loops=" + std::to_string(GetParam().loops)),
            std::string::npos);

  EXPECT_TRUE(c->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST_P(ServerE2E, PipelinedRepliesKeepCommandOrder) {
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;

  // Interleave writes and reads across all shards in one pipeline; the
  // replies must come back in command order even though shard batches
  // complete independently.
  const int kN = 300;
  for (int i = 0; i < kN; ++i) {
    c->PipeSet("p" + std::to_string(i), std::to_string(i));
    c->PipeGet("p" + std::to_string(i));
  }
  std::vector<RespReply> replies;
  ASSERT_TRUE(c->Sync(&replies));
  ASSERT_EQ(replies.size(), 2u * kN);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(replies[2 * i].type, RespReply::Type::kSimple) << i;
    ASSERT_EQ(replies[2 * i + 1].type, RespReply::Type::kBulk) << i;
    EXPECT_EQ(replies[2 * i + 1].str, std::to_string(i)) << i;
  }
  EXPECT_TRUE(c->Shutdown());
  server->Wait();
}

TEST_P(ServerE2E, ProtocolErrorClosesOnlyOffendingConnection) {
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  ASSERT_TRUE(good->Set("stable", "yes"));

  // Raw-socket misbehaver: an inline (non-RESP) command is a protocol
  // violation — the server must reply -ERR and close only this connection.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const char junk[] = "NOT RESP\r\n";
    ASSERT_EQ(::write(fd, junk, sizeof(junk) - 1),
              static_cast<ssize_t>(sizeof(junk) - 1));
    std::string got;
    char buf[512];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) {
        break;  // server closed the connection after the error reply
      }
      got.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(got.rfind("-ERR", 0), 0u) << got;
  }

  // The well-behaved connection is unaffected.
  EXPECT_EQ(good->Get("stable").value_or("?"), "yes");
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(ServerE2E, ConcurrentClientsThenRestartRecoversEverything) {
  // The ISSUE acceptance test: 4 client threads write disjoint key ranges,
  // SHUTDOWN, restart a fresh Server on the same device images, verify
  // every key and a clean integrity audit (I1–I7 ran inside Quiesce on both
  // shutdowns; recovery ran on restart).
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_e2e_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam().loops) + GetParam().poller))
          .string();
  ServerOptions opts = Opts();
  opts.shard.image_base = base;
  const int kThreads = 4, kPerThread = 250;

  std::string err;
  {
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::string terr;
        auto c = Client::Connect("127.0.0.1", server->port(), &terr);
        if (c == nullptr) {
          ++failures;
          return;
        }
        for (int i = 0; i < kPerThread; ++i) {
          const std::string key = "t" + std::to_string(t) + ":" + std::to_string(i);
          if (!c->Set(key, "val:" + key)) {
            ++failures;
            return;
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    ASSERT_EQ(failures.load(), 0);
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    ASSERT_TRUE(c->Shutdown());  // quiesce + audit + save images
    server->Wait();
    ASSERT_TRUE(server->shutdown_report().ok);
  }

  {
    auto server = Server::Start(opts, &err);  // recovers from the images
    ASSERT_NE(server, nullptr) << err;
    EXPECT_TRUE(server->AnyShardRecovered());
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key = "t" + std::to_string(t) + ":" + std::to_string(i);
        ASSERT_EQ(c->Get(key).value_or("<missing>"), "val:" + key) << key;
      }
    }
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
    EXPECT_TRUE(server->shutdown_report().ok);  // audit clean after recovery
  }

  for (uint32_t i = 0; i < opts.nshards; ++i) {
    std::filesystem::remove(base + ".shard" + std::to_string(i) + ".img");
  }
}

// Field `name` (e.g. "records=") on the STATS line starting with `prefix`;
// nullopt when the line or the field is missing.
std::optional<uint64_t> StatsLineField(const std::string& stats,
                                       const std::string& prefix,
                                       const std::string& name) {
  // Searching "\n" + stats finds the line's start index in `stats`.
  const size_t line = ("\n" + stats).find("\n" + prefix);
  if (line == std::string::npos) {
    return std::nullopt;
  }
  const size_t end = stats.find('\n', line);
  const size_t pos = stats.find(" " + name, line);
  if (pos == std::string::npos || pos > end) {
    return std::nullopt;
  }
  return std::strtoull(stats.c_str() + pos + 1 + name.size(), nullptr, 10);
}

TEST(DaxRestart, StatsReportOpenPhasesAndRecords) {
  // Each shard times the phases of its restart: heap recovery, store-index
  // rebuild, log scan + redo, slot-count seed. After a dax restart all four
  // are on its STATS line and non-zero, and the store holds every record.
  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("jnvm_open_phases_" + std::to_string(::getpid())))
          .string();
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(16);
  opts.shard.dax_base = base;
  constexpr int kKeys = 300;
  std::string err;
  uint64_t records[2] = {0, 0};
  {
    auto server = Server::Start(opts, &err);
    ASSERT_NE(server, nullptr) << err;
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(c->Set("phase:" + std::to_string(i), std::string(64, 'v')));
    }
    const std::string stats = c->Stats().value_or("");
    for (uint32_t i = 0; i < opts.nshards; ++i) {
      const std::string shard = "shard" + std::to_string(i) + ":";
      records[i] = StatsLineField(stats, shard, "records=").value_or(0);
    }
    EXPECT_EQ(records[0] + records[1], static_cast<uint64_t>(kKeys)) << stats;
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
    ASSERT_TRUE(server->shutdown_report().ok);
  }
  {
    auto server = Server::Start(opts, &err);  // recovers from the dax files
    ASSERT_NE(server, nullptr) << err;
    EXPECT_TRUE(server->AnyShardRecovered());
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    const std::string stats = c->Stats().value_or("");
    for (uint32_t i = 0; i < opts.nshards; ++i) {
      const std::string shard = "shard" + std::to_string(i) + ":";
      EXPECT_EQ(StatsLineField(stats, shard, "records="), records[i]) << stats;
      for (const char* phase : {"open_heap_us=", "open_heap_reads=", "open_index_us=",
                                "open_log_us=", "open_slots_us="}) {
        const auto us = StatsLineField(stats, shard, phase);
        ASSERT_TRUE(us.has_value()) << shard << phase << "\n" << stats;
        EXPECT_GT(*us, 0u) << shard << phase;
      }
    }
    ASSERT_TRUE(c->Shutdown());
    server->Wait();
    EXPECT_TRUE(server->shutdown_report().ok);
  }
  for (uint32_t i = 0; i < opts.nshards; ++i) {
    std::filesystem::remove(base + ".shard" + std::to_string(i) + ".pmem");
  }
}

// ---- Wire-level protocol robustness ----------------------------------------
// The parser unit tests above prove the state machine; these drive the same
// inputs through a real socket against both pollers: the server must reply
// -ERR, close only the offending connection, and stay healthy.

// Minimal raw TCP helper (the Client class refuses to send malformed bytes).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  bool ok() const { return fd_ >= 0; }
  bool Send(const std::string& bytes) {
    return ::write(fd_, bytes.data(), bytes.size()) ==
           static_cast<ssize_t>(bytes.size());
  }
  // Reads until the peer closes (or `stop_at` bytes arrived, if non-zero).
  std::string ReadUntilClose(size_t stop_at = 0) {
    std::string got;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      got.append(buf, static_cast<size_t>(n));
      if (stop_at != 0 && got.size() >= stop_at) {
        break;
      }
    }
    return got;
  }

 private:
  int fd_ = -1;
};

TEST_P(ServerE2E, MalformedWireFramesGetErrorAndClose) {
  struct Case {
    const char* name;
    std::string wire;
  };
  const std::vector<Case> cases = {
      {"inline-command", "GET key\r\n"},
      {"empty-array", "*0\r\n"},
      {"negative-array", "*-1\r\n"},
      {"missing-bulk-header", "*2\r\nGET\r\n"},
      {"negative-bulk-len", "*1\r\n$-1\r\n"},
      {"leading-zero-len", "*1\r\n$04\r\nabcd\r\n"},
      {"body-overruns-len", "*1\r\n$3\r\nabcdef\r\n"},
      {"bad-bulk-terminator", "*1\r\n$3\r\nabcXY"},
      {"oversized-bulk", "*1\r\n$999999999\r\n"},
      {"oversized-arity", "*99999\r\n"},
      {"junk-after-arity", "*2x\r\n"},
  };
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;

  for (const Case& c : cases) {
    RawConn raw(server->port());
    ASSERT_TRUE(raw.ok()) << c.name;
    ASSERT_TRUE(raw.Send(c.wire)) << c.name;
    const std::string got = raw.ReadUntilClose();
    EXPECT_EQ(got.rfind("-ERR", 0), 0u) << c.name << ": " << got;
  }

  // After every abuse the server still serves well-formed traffic.
  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  ASSERT_TRUE(good->Set("still", "alive"));
  EXPECT_EQ(good->Get("still").value_or("?"), "alive");
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(ServerE2E, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  // A client that sends half a frame and vanishes must not wedge the loop
  // or leak the partial parse into another connection.
  const std::vector<std::string> partials = {
      "*2\r\n",                    // array header only
      "*2\r\n$3\r\nGET\r\n$10\r\n",  // waiting for bulk body
      "*2\r\n$3\r\nGE",            // mid-bulk-body
      "*",                         // single byte
  };
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  for (const std::string& w : partials) {
    RawConn raw(server->port());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw.Send(w));
  }  // destructor closes mid-frame
  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  EXPECT_TRUE(good->Ping());
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(ServerE2E, PipelinedCommandsSplitAcrossTinyWrites) {
  // A pipeline of SET/GET pairs dribbled onto the socket in 7-byte writes:
  // the parser state must survive arbitrary read boundaries end-to-end and
  // replies must come back complete and in order.
  std::string err;
  auto server = Server::Start(Opts(), &err);
  ASSERT_NE(server, nullptr) << err;
  RawConn raw(server->port());
  ASSERT_TRUE(raw.ok());

  const int kN = 20;
  std::string wire;
  std::string expect;
  for (int i = 0; i < kN; ++i) {
    const std::string v = "value-" + std::to_string(i);
    wire += Frame({"SET", "ck" + std::to_string(i), v});
    wire += Frame({"GET", "ck" + std::to_string(i)});
    expect += "+OK\r\n$" + std::to_string(v.size()) + "\r\n" + v + "\r\n";
  }
  for (size_t off = 0; off < wire.size(); off += 7) {
    ASSERT_TRUE(raw.Send(wire.substr(off, 7)));
  }
  EXPECT_EQ(raw.ReadUntilClose(expect.size()), expect);

  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  EXPECT_TRUE(c->Shutdown());
  server->Wait();
}

INSTANTIATE_TEST_SUITE_P(IoPlane, ServerE2E, ::testing::ValuesIn(IoParams()),
                         IoParamName);

// ---- Multi-loop-specific behavior -------------------------------------------
// These run once (not per-param): each pins the loops/poller shape it needs.

// With reuseport off the pool falls back to accept-and-hand-off: loop 0 owns
// the only listener and deals connections round-robin, so the Nth connect
// lands deterministically on loop N % loops. That determinism is what lets
// these tests place traffic on specific loops.
ServerOptions MultiLoopOpts(uint32_t loops) {
  ServerOptions o;
  o.nshards = 4;
  o.shard = SmallShard(16);
  o.loops = loops;
  o.reuseport = false;  // hand-off mode: deterministic conn → loop placement
  return o;
}

TEST(MultiLoop, CrossLoopSessionRead) {
  // The session-consistency contract must hold across loops: a SET on a
  // loop-0 connection, then a MINSEQ-gated GET on a loop-1 connection using
  // the writer's LASTSEQ token. The read either sees the write immediately
  // or parks on the shard until the write's sequence applies — its
  // completion must then find its way back to loop 1, not loop 0.
  std::string err;
  auto server = Server::Start(MultiLoopOpts(2), &err);
  ASSERT_NE(server, nullptr) << err;

  auto writer = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(writer, nullptr) << err;  // conn #1 → loop 0
  auto reader = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(reader, nullptr) << err;  // conn #2 → loop 1

  for (int i = 0; i < 50; ++i) {
    const std::string k = "xl:" + std::to_string(i);
    const uint32_t shard = ShardFor(k, 4);
    ASSERT_TRUE(writer->Set(k, "v" + std::to_string(i))) << i;
    const auto seq = writer->LastSeq(shard);
    ASSERT_TRUE(seq.has_value()) << i << ": " << writer->last_error();
    ASSERT_TRUE(reader->MinSeq(shard, *seq)) << i << ": "
                                             << reader->last_error();
    EXPECT_EQ(reader->Get(k).value_or("<missing>"), "v" + std::to_string(i))
        << i << ": " << reader->last_error();
  }

  EXPECT_TRUE(writer->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST(MultiLoop, StatsAggregateAcrossLoops) {
  // Server counters are per-loop (no cross-loop cache-line contention); the
  // STATS reply must present the aggregate. Spread clients across all four
  // loops, issue a known command count, and check the totals add up.
  std::string err;
  auto server = Server::Start(MultiLoopOpts(4), &err);
  ASSERT_NE(server, nullptr) << err;

  const int kClients = 4, kOpsEach = 25;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    clients.push_back(std::move(c));
  }
  for (int i = 0; i < kClients; ++i) {
    for (int j = 0; j < kOpsEach; ++j) {
      const std::string k = "agg:" + std::to_string(i) + ":" + std::to_string(j);
      ASSERT_TRUE(clients[i]->Set(k, "v"));
    }
  }

  const std::string stats = clients[0]->Stats().value_or("");
  const auto field = [&stats](const char* name) -> uint64_t {
    const size_t pos = stats.find(name);
    if (pos == std::string::npos) {
      return 0;
    }
    return std::strtoull(stats.c_str() + pos + std::strlen(name), nullptr, 10);
  };
  // accepted counts every client; commands counts at least every SET plus
  // the STATS itself; conns sees all four live connections. All of these
  // accumulated on different loops and must aggregate in one reply.
  EXPECT_GE(field("accepted="), static_cast<uint64_t>(kClients)) << stats;
  EXPECT_GE(field("commands="),
            static_cast<uint64_t>(kClients * kOpsEach) + 1)
      << stats;
  EXPECT_EQ(field("conns="), static_cast<uint64_t>(kClients)) << stats;
  EXPECT_NE(stats.find("loops=4"), std::string::npos) << stats;

  EXPECT_TRUE(clients[0]->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST(MultiLoop, ShutdownUnderCrossLoopLoad) {
  // Regression for the two-phase quiesce: SHUTDOWN arrives on one loop
  // while three other loops are mid-pipeline. Every loop must stop intake,
  // drain its in-flight completions, and the shards must pass the
  // integrity audit — no completion may arrive after its loop exited.
  std::string err;
  auto server = Server::Start(MultiLoopOpts(4), &err);
  ASSERT_NE(server, nullptr) << err;

  std::atomic<bool> stop{false};
  std::atomic<int> workers_up{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      std::string werr;
      auto c = Client::Connect("127.0.0.1", server->port(), &werr);
      if (c == nullptr) {
        return;
      }
      ++workers_up;
      for (int i = 0; !stop.load(); ++i) {
        // Failures are expected once intake stops; just keep the pressure
        // on until then.
        if (!c->Set("load:" + std::to_string(t) + ":" + std::to_string(i),
                    "v")) {
          break;
        }
      }
    });
  }
  while (workers_up.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // loops busy

  auto killer = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(killer, nullptr) << err;
  EXPECT_TRUE(killer->Shutdown()) << killer->last_error();
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok)
      << server->shutdown_report().Summary();
}

// ---- Backpressure and per-connection resource caps --------------------------

// First key at or after `salt` that routes to `shard`.
std::string ShardKey(uint32_t shard, uint32_t nshards, int salt = 0) {
  for (int i = salt;; ++i) {
    const std::string k = "bk:" + std::to_string(i);
    if (ShardFor(k, nshards) == shard) {
      return k;
    }
  }
}

// Sum of every `field` occurrence in a STATS dump (one per shard line).
uint64_t SumStats(const std::string& stats, const char* field) {
  uint64_t sum = 0;
  const size_t n = std::strlen(field);
  for (size_t pos = stats.find(field); pos != std::string::npos;
       pos = stats.find(field, pos + n)) {
    sum += std::strtoull(stats.c_str() + pos + n, nullptr, 10);
  }
  return sum;
}

class HardeningE2E : public ::testing::TestWithParam<IoParam> {
 protected:
  void ApplyIo(ServerOptions* o) {
    o->loops = GetParam().loops;
    o->poller = GetParam().poller;
  }
  static uint64_t StatsField(Client& c, const char* field) {
    const std::string stats = c.Stats().value_or("");
    const size_t pos = stats.find(field);
    if (pos == std::string::npos) {
      return 0;
    }
    return std::strtoull(stats.c_str() + pos + std::strlen(field), nullptr, 10);
  }
};

TEST_P(HardeningE2E, FloodedShardDoesNotBlockOtherShards) {
  // Regression for the event-loop stall: Shard::Submit blocked the loop
  // thread when one shard's queue filled, freezing every connection. With
  // TrySubmit + read-pause backpressure, a flood aimed at shard 0 must not
  // delay a GET on shard 1.
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(/*batch=*/1);
  opts.shard.queue_capacity = 4;
  opts.shard.fence_ns = 2'000'000;  // 2ms per fence: shard 0 drains slowly
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  auto flood = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(flood, nullptr) << err;
  auto other = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(other, nullptr) << err;
  const std::string hot = ShardKey(0, 2);
  const std::string cold = ShardKey(1, 2);
  ASSERT_TRUE(other->Set(cold, "cold-value"));

  // Fire-and-forget: several hundred SETs to shard 0 without reading
  // replies. The tiny queue fills immediately; the connection must be
  // read-paused, not the event loop.
  const int kFlood = 400;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(flood->SendCommand({"SET", hot, "v" + std::to_string(i)}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // queue full

  // Shard 1 is idle: this GET must complete long before the ~0.8s the
  // flood needs to drain (pre-fix it waited for the whole flood).
  const uint64_t t0 = NowNs();
  EXPECT_EQ(other->Get(cold).value_or("<missing>"), "cold-value");
  const double get_secs = static_cast<double>(NowNs() - t0) / 1e9;
  EXPECT_LT(get_secs, 0.5) << "other-shard GET stuck behind the flood";

  // No reply was lost to the backpressure: all flood SETs answer +OK.
  for (int i = 0; i < kFlood; ++i) {
    RespReply r;
    ASSERT_TRUE(flood->ReadOneReply(&r)) << i << ": " << flood->last_error();
    EXPECT_EQ(r.type, RespReply::Type::kSimple) << i << ": " << r.str;
  }

  EXPECT_TRUE(other->Shutdown());
  server->Wait();
}

TEST_P(HardeningE2E, InputBufferCapDisconnectsAndCounts) {
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(/*batch=*/8);
  opts.max_conn_in_bytes = 4096;
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  // An incomplete 1MB bulk dribbles 8KB of body: the unparsed buffer blows
  // the 4KB cap long before the frame completes. The connection gets -ERR
  // and is dropped; the abuse is counted separately from protocol errors.
  RawConn raw(server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw.Send("*1\r\n$1000000\r\n"));
  ASSERT_TRUE(raw.Send(std::string(8192, 'x')));
  const std::string got = raw.ReadUntilClose();
  EXPECT_EQ(got.rfind("-ERR", 0), 0u) << got;
  EXPECT_NE(got.find("cap"), std::string::npos) << got;

  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  EXPECT_EQ(StatsField(*good, "in_overflows="), 1u);
  EXPECT_TRUE(good->Ping());
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(HardeningE2E, OutputCapEvictsSlowReplicationSubscriber) {
  // The classic slow-subscriber OOM: a REPLSYNC connection that never
  // reads. Once the kernel socket buffers fill, the server-side pending
  // output grows with every sealed record; past max_conn_out_bytes the
  // subscriber must be evicted instead of buffering without bound.
  ServerOptions opts;
  opts.nshards = 1;
  opts.shard = SmallShard(/*batch=*/8);
  opts.shard.device_bytes = 128ull << 20;
  opts.max_conn_out_bytes = 8192;
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  RawConn subscriber(server->port());
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE(subscriber.Send(Frame({"REPLSYNC", "0", "1"})));
  // Never read a byte from `subscriber` again.

  auto good = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(good, nullptr) << err;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const std::string big(2048, 'z');
  uint64_t evictions = 0;
  for (int i = 0; evictions == 0; ++i) {
    ASSERT_TRUE(good->Set("ok:" + std::to_string(i), big))
        << good->last_error();
    if (i % 16 == 0 || i > 256) {
      evictions = StatsField(*good, "out_overflows=");
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "slow subscriber was never evicted";
  }
  EXPECT_GE(evictions, 1u);
  EXPECT_EQ(StatsField(*good, "subs="), 0u);  // the subscription is gone

  // The server is healthy and normal clients are untouched.
  EXPECT_TRUE(good->Ping());
  EXPECT_TRUE(good->Shutdown());
  server->Wait();
}

TEST_P(HardeningE2E, OutputPathCountersVisibleInStats) {
  // The chunked flush path surfaces its own counters: writev syscalls,
  // bytes the kernel accepted, and — once a REPLSYNC subscriber is fed —
  // zero-copy frame refs. All of them must be live, not placeholders.
  ServerOptions opts;
  opts.nshards = 1;
  opts.shard = SmallShard(/*batch=*/8);
  opts.shard.device_bytes = 128ull << 20;
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(c->Set("k" + std::to_string(i), "v" + std::to_string(i)));
  }
  EXPECT_GT(StatsField(*c, "flush_syscalls="), 0u);
  EXPECT_GT(StatsField(*c, "flushed_bytes="), 0u);
  EXPECT_EQ(StatsField(*c, "frame_refs="), 0u);  // no subscriber yet

  // A draining subscriber turns sealed batches into shared-frame refs.
  auto sub = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(sub, nullptr) << err;
  ASSERT_TRUE(sub->SendCommand({"REPLSYNC", "0", "1"}));
  RespReply r;
  ASSERT_TRUE(sub->ReadOneReply(&r));  // +SYNC handshake
  while (StatsField(*c, "subs=") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(c->Set("s" + std::to_string(i), "v"));
  }
  EXPECT_GT(StatsField(*c, "frame_refs="), 0u);
  EXPECT_GT(StatsField(*c, "stream_frames="), 0u);
  // chunks_per_flush renders as a decimal; just check the field exists.
  EXPECT_NE(c->Stats().value_or("").find("chunks_per_flush="),
            std::string::npos);

  sub->ShutdownSocket();
  EXPECT_TRUE(c->Shutdown());
  server->Wait();
}

TEST_P(HardeningE2E, PartialWritevResumesMidChunk) {
  // A reply far larger than the socket buffers forces the flush to stop
  // mid-chunk (EAGAIN) and resume across many poller wakeups; a reader
  // that drains slowly must still receive byte-exact data. This exercises
  // out_off resume + BuildIovecs offset math end to end.
  ServerOptions opts;
  opts.nshards = 1;
  opts.shard = SmallShard(/*batch=*/4);
  opts.shard.device_bytes = 128ull << 20;
  ApplyIo(&opts);
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  std::string big(6 << 20, '\0');  // 6MB >> any default socket buffer
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i * 131) % 26);
  }
  auto w = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(w, nullptr) << err;
  ASSERT_TRUE(w->Set("big", big)) << w->last_error();

  // Interleave small replies so the queue holds multiple chunks when the
  // big GET lands: PING replies coalesce, the big value rides alone.
  RawConn raw(server->port());
  ASSERT_TRUE(raw.ok());
  std::string wire;
  wire += Frame({"PING"});
  wire += Frame({"GET", "big"});
  wire += Frame({"PING"});
  ASSERT_TRUE(raw.Send(wire));
  std::string want = "+PONG\r\n$" + std::to_string(big.size()) + "\r\n" +
                     big + "\r\n+PONG\r\n";
  std::string got = raw.ReadUntilClose(want.size());
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(got, want);

  EXPECT_TRUE(w->Shutdown());
  server->Wait();
}

INSTANTIATE_TEST_SUITE_P(IoPlane, HardeningE2E,
                         ::testing::ValuesIn(IoParams()), IoParamName);

// ---- Run-to-completion on the home loop (DESIGN.md §7) ----------------------
// When shards <= loops, loop i runs shard i's batches inline. These pin the
// counters that show it, and the hazards an inline executor must avoid: a
// flooded home shard starving its loop-mates, a full WAIT-K park set
// blocking the loop, and control batches that must still reach the worker.

std::vector<std::string> HomeLoopPollers() {
  std::vector<std::string> pollers = {"epoll"};
  if (IoUringSupported()) {
    pollers.push_back("uring");
  }
  return pollers;
}

class HomeLoopE2E : public ::testing::TestWithParam<std::string> {
 protected:
  ServerOptions Opts(uint32_t loops, uint32_t nshards, uint32_t batch) {
    ServerOptions o;
    o.loops = loops;
    o.nshards = nshards;
    o.poller = GetParam();
    o.reuseport = false;  // hand-off: the Nth connect lands on loop N % loops
    o.shard = SmallShard(batch);
    return o;
  }
  static std::string Stats(Client& c) { return c.Stats().value_or(""); }
  // Pipelines `rounds` rounds of 64 alternating SET/GET; every reply is a
  // success.
  static void PipelinedLoad(Client& c, int rounds) {
    std::vector<RespReply> replies;
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < 64; ++i) {
        const std::string k = "rtc:" + std::to_string(i);
        if (i % 2 == 0) {
          c.PipeSet(k, "v" + std::to_string(round));
        } else {
          c.PipeGet(k);
        }
      }
      ASSERT_TRUE(c.Sync(&replies)) << c.last_error();
      for (const RespReply& r : replies) {
        ASSERT_NE(r.type, RespReply::Type::kError) << r.str;
      }
    }
  }
};

TEST_P(HomeLoopE2E, InlineBatchesAndCoalescedWakes) {
  std::string err;
  {
    // One loop, one shard: the loop is the shard's home, so the load runs
    // as inline group commits whose replies need no wake-up at all.
    auto server = Server::Start(Opts(1, 1, 16), &err);
    ASSERT_NE(server, nullptr) << err;
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    PipelinedLoad(*c, 20);
    const std::string stats = Stats(*c);
    const uint64_t commands = SumStats(stats, "commands=");
    EXPECT_GE(commands, 20u * 64u) << stats;
    EXPECT_GT(SumStats(stats, "inline_batches="), 0u) << stats;
    EXPECT_LT(SumStats(stats, "wake_writes=") * 10, commands) << stats;
    EXPECT_TRUE(c->Shutdown());
    server->Wait();
    EXPECT_TRUE(server->shutdown_report().ok);
  }
  {
    // More shards than loops: no loop is a home, every batch is a worker's.
    auto server = Server::Start(Opts(1, 2, 16), &err);
    ASSERT_NE(server, nullptr) << err;
    auto c = Client::Connect("127.0.0.1", server->port(), &err);
    ASSERT_NE(c, nullptr) << err;
    PipelinedLoad(*c, 20);
    const std::string stats = Stats(*c);
    EXPECT_EQ(SumStats(stats, "inline_batches="), 0u) << stats;
    EXPECT_GT(SumStats(stats, "worker_batches="), 0u) << stats;
    EXPECT_GT(SumStats(stats, "wake_writes="), 0u) << stats;
    EXPECT_TRUE(c->Shutdown());
    server->Wait();
    EXPECT_TRUE(server->shutdown_report().ok);
  }
}

TEST_P(HomeLoopE2E, FloodedHomeShardDoesNotBlockLoopMates) {
  // FloodedShardDoesNotBlockOtherShards with shards == loops, and the flood
  // and the other connection on the same loop — the loop that is the
  // flooded shard's home and runs its batches inline. The inline pass is
  // bounded by what was queued when it began, so the loop keeps polling
  // and the other connection's GET is not held behind the flood.
  ServerOptions opts = Opts(2, 2, /*batch=*/1);
  opts.shard.queue_capacity = 4;
  opts.shard.fence_ns = 2'000'000;  // 2ms per fence: shard 0 drains slowly
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  auto flood = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(flood, nullptr) << err;  // conn #1 → loop 0 (shard 0's home)
  auto filler = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(filler, nullptr) << err;  // conn #2 → loop 1
  auto other = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(other, nullptr) << err;  // conn #3 → loop 0, beside the flood
  const std::string hot = ShardKey(0, 2);
  const std::string cold = ShardKey(1, 2);
  ASSERT_TRUE(other->Set(cold, "cold-value"));

  const int kFlood = 400;
  for (int i = 0; i < kFlood; ++i) {
    ASSERT_TRUE(flood->SendCommand({"SET", hot, "v" + std::to_string(i)}));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // queue full

  const uint64_t t0 = NowNs();
  EXPECT_EQ(other->Get(cold).value_or("<missing>"), "cold-value");
  const double get_secs = static_cast<double>(NowNs() - t0) / 1e9;
  EXPECT_LT(get_secs, 0.5) << "loop-mate GET stuck behind the inline flood";

  for (int i = 0; i < kFlood; ++i) {
    RespReply r;
    ASSERT_TRUE(flood->ReadOneReply(&r)) << i << ": " << flood->last_error();
    EXPECT_EQ(r.type, RespReply::Type::kSimple) << i << ": " << r.str;
  }
  const std::string stats = Stats(*filler);
  EXPECT_GT(SumStats(stats, "inline_batches="), 0u) << stats;

  EXPECT_TRUE(other->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST_P(HomeLoopE2E, WaitKFullParkSetNeverBlocksTheLoop) {
  // WAIT-K with room for one parked batch: the loop's inline pass seals and
  // parks the first batch, then must hand the next one to the worker (whose
  // ParkBatch blocks until a release) rather than block itself — the acks
  // and the timeout ticks that release parked batches run on this loop.
  ServerOptions opts = Opts(1, 1, /*batch=*/4);
  opts.shard.wait_acks = 1;
  opts.shard.wait_max_parked = 1;
  opts.shard.wait_timeout_ms = 300;
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  // A slow replica: acks the first two records 20ms late, then goes silent.
  auto sub = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(sub, nullptr) << err;
  ASSERT_TRUE(sub->SendCommand({"REPLSYNC", "0", "1"}));
  RespReply handshake;
  ASSERT_TRUE(sub->ReadOneReply(&handshake));
  ASSERT_EQ(handshake.type, RespReply::Type::kSimple) << handshake.str;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  while (SumStats(Stats(*c), "subs=") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread acker([&sub] {
    RespReply frame;
    for (int acked = 0; acked < 2 && sub->ReadOneReply(&frame); ++acked) {
      uint64_t seq = 0;
      std::string_view batch;
      if (!repl::DecodeRecord(frame.str, &seq, &batch)) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (!sub->SendCommand({"REPLACK", "0", std::to_string(seq)})) {
        return;
      }
    }
  });

  const int kN = 32;  // 8 batches of 4
  for (int i = 0; i < kN; ++i) {
    c->PipeSet("wk:" + std::to_string(i), "v" + std::to_string(i));
  }
  const uint64_t t0 = NowNs();
  std::vector<RespReply> replies;
  ASSERT_TRUE(c->Sync(&replies)) << c->last_error();
  const double secs = static_cast<double>(NowNs() - t0) / 1e9;
  acker.join();
  EXPECT_LT(secs, 10.0) << "parked batches never released";

  // The contract: +OK only for an acked batch, otherwise -WAITTIMEOUT.
  int timeouts = 0;
  for (int i = 0; i < kN; ++i) {
    const RespReply& r = replies[i];
    if (r.type == RespReply::Type::kError) {
      EXPECT_EQ(r.str.rfind("WAITTIMEOUT", 0), 0u) << i << ": " << r.str;
      ++timeouts;
    } else {
      EXPECT_EQ(r.type, RespReply::Type::kSimple) << i << ": " << r.str;
    }
  }
  for (int i = 0; i < 4; ++i) {  // the first batch was acked in time
    EXPECT_EQ(replies[i].type, RespReply::Type::kSimple) << replies[i].str;
  }
  EXPECT_GT(timeouts, 0);  // the replica fell silent before the last batch
  // Degraded or not, every write is locally durable.
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(c->Get("wk:" + std::to_string(i)).value_or("<missing>"),
              "v" + std::to_string(i));
  }
  const std::string stats = Stats(*c);
  EXPECT_GT(SumStats(stats, "inline_batches="), 0u) << stats;
  EXPECT_GT(SumStats(stats, "worker_batches="), 0u) << stats;
  EXPECT_GT(SumStats(stats, "wait_timeouts="), 0u) << stats;

  sub->ShutdownSocket();
  EXPECT_TRUE(c->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST_P(HomeLoopE2E, ControlBatchesRunOnTheWorkerBesideInlineWrites) {
  // REPLSNAP (a control op the loop queues) and CKPT (batches the
  // checkpoint runner submits with a blocking Submit) while the home loop
  // pipelines writes: both complete, and both ran on the worker.
  std::string err;
  auto server = Server::Start(Opts(1, 1, 16), &err);
  ASSERT_NE(server, nullptr) << err;
  auto w = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(w, nullptr) << err;
  auto admin = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(admin, nullptr) << err;

  std::atomic<bool> stop{false};
  std::atomic<int> rounds{0};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    std::vector<RespReply> replies;
    for (int round = 0; !stop.load(); ++round) {
      for (int i = 0; i < 32; ++i) {
        w->PipeSet("cw:" + std::to_string(i), "r" + std::to_string(round));
      }
      if (!w->Sync(&replies)) {
        failures.fetch_add(1);
        return;
      }
      for (const RespReply& r : replies) {
        if (r.type != RespReply::Type::kSimple) {
          failures.fetch_add(1);
        }
      }
      rounds.fetch_add(1);
    }
  });
  while (rounds.load() < 5 && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t before = SumStats(Stats(*admin), "worker_batches=");

  RespReply r;
  ASSERT_TRUE(admin->Roundtrip({"REPLSNAP", "0"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kBulk) << r.str;
  uint64_t snap_seq = 0;
  std::vector<repl::SnapshotEntry> entries;
  EXPECT_TRUE(repl::DecodeSnapshot(r.str, &snap_seq, &entries));
  ASSERT_TRUE(admin->Roundtrip({"CKPT"}, &r));
  ASSERT_EQ(r.type, RespReply::Type::kSimple) << r.str;
  EXPECT_EQ(r.str.rfind("OK", 0), 0u) << r.str;

  const std::string stats = Stats(*admin);
  stop.store(true);
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  // REPLSNAP is one singleton batch, a checkpoint at least a walk and a
  // finalize: three worker batches at the least.
  EXPECT_GE(SumStats(stats, "worker_batches="), before + 3) << stats;
  EXPECT_GT(SumStats(stats, "inline_batches="), 0u) << stats;

  EXPECT_TRUE(admin->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok);
}

TEST_P(HomeLoopE2E, TxnPhasesRunInlineAndOnTheWorker) {
  // MULTI/EXEC on a loop that is shard 0's home: a single-shard txn's
  // kTxnExec and a cross-shard txn's shard-0 prepare run inline; the
  // decision and commit markers (singleton batches) and shard 1's parts
  // run on workers. Every phase join comes back to the owning loop.
  std::string err;
  auto server = Server::Start(Opts(2, 2, 16), &err);
  ASSERT_NE(server, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;  // conn #1 → loop 0, shard 0's home
  const std::string a = ShardKey(0, 2, 0);
  const std::string b = ShardKey(0, 2, 100);
  const std::string x = ShardKey(1, 2, 200);
  const auto queue = [&c](const std::vector<std::string>& args) {
    RespReply r;
    ASSERT_TRUE(c->Roundtrip(args, &r)) << c->last_error();
    ASSERT_EQ(r.str, "QUEUED");
  };
  std::vector<RespReply> replies;

  ASSERT_TRUE(c->Multi());
  queue({"SET", a, "a1"});
  queue({"SET", b, "b1"});
  ASSERT_TRUE(c->Exec(&replies)) << c->last_error();
  ASSERT_EQ(replies.size(), 2u);

  ASSERT_TRUE(c->Multi());
  queue({"SET", a, "a2"});
  queue({"SET", x, "x2"});
  queue({"GET", b});
  ASSERT_TRUE(c->Exec(&replies)) << c->last_error();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[2].str, "b1");

  EXPECT_EQ(c->Get(a).value_or("<missing>"), "a2");
  EXPECT_EQ(c->Get(b).value_or("<missing>"), "b1");
  EXPECT_EQ(c->Get(x).value_or("<missing>"), "x2");
  const std::string stats = Stats(*c);
  EXPECT_GT(SumStats(stats, "inline_batches="), 0u) << stats;
  EXPECT_EQ(SumStats(stats, "decision_records="), 1u) << stats;
  EXPECT_EQ(SumStats(stats, "aborted="), 0u) << stats;

  EXPECT_TRUE(c->Shutdown());
  server->Wait();
  EXPECT_TRUE(server->shutdown_report().ok)
      << server->shutdown_report().Summary();
}

INSTANTIATE_TEST_SUITE_P(RunToCompletion, HomeLoopE2E,
                         ::testing::ValuesIn(HomeLoopPollers()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---- Client-side latency stamps ---------------------------------------------

TEST(ClientPipeline, PipelinedGetAndSetGetTheirOwnLatency) {
  // jnvm_loadgen charges each pipelined op from the round's send to the
  // parse of its own reply. Pipeline a GET on an idle shard ahead of a SET
  // on a shard with 20ms fences: the GET's reply is parsed long before the
  // SET's, so the two ops get distinct latencies — an amortized
  // (round trip) / n would give both the same figure.
  ServerOptions opts;
  opts.nshards = 2;
  opts.shard = SmallShard(/*batch=*/1);
  opts.shard.fence_ns = 20'000'000;
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;

  c->PipeGet(ShardKey(1, 2));
  c->PipeSet(ShardKey(0, 2), "slow");
  const uint64_t t0 = NowNs();
  std::vector<RespReply> replies;
  std::vector<uint64_t> reply_ns;
  ASSERT_TRUE(c->Sync(&replies, &reply_ns)) << c->last_error();
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_EQ(reply_ns.size(), 2u);
  EXPECT_EQ(replies[0].type, RespReply::Type::kNil);
  EXPECT_EQ(replies[1].type, RespReply::Type::kSimple) << replies[1].str;
  const uint64_t get_ns = reply_ns[0] - t0;
  const uint64_t set_ns = reply_ns[1] - t0;
  EXPECT_GE(set_ns, 20'000'000u);                 // at least one 20ms fence
  EXPECT_GE(set_ns - get_ns, 10'000'000u) << get_ns << " vs " << set_ns;

  EXPECT_TRUE(c->Shutdown());
  server->Wait();
}

// ---- Loadgen smoke ----------------------------------------------------------
// Shells out to the real jnvm_loadgen binary (path injected by CMake)
// against in-process servers: a bounded session-consistency run where the
// tool's own oracle is the assertion — --expect-hits makes any miss fatal,
// and -STALE replies are fatal by default. A primary + replica pair driven
// with --read-from=replica proves the whole client-side routing stack
// (LASTSEQ capture, per-endpoint MINSEQ bookkeeping, stale accounting).

#ifdef JNVM_LOADGEN_BIN
TEST(LoadgenSmoke, SessionReplicaReadsExpectHits) {
  ServerOptions popts;
  popts.nshards = 2;
  popts.shard.device_bytes = 64ull << 20;
  popts.shard.map_capacity = 1 << 12;
  std::string err;
  auto primary = Server::Start(popts, &err);
  ASSERT_NE(primary, nullptr) << err;
  ServerOptions ropts = popts;
  ropts.replica_of = "127.0.0.1:" + std::to_string(primary->port());
  auto replica = Server::Start(ropts, &err);
  ASSERT_NE(replica, nullptr) << err;

  const std::string cmd =
      std::string(JNVM_LOADGEN_BIN) +
      " --port=" + std::to_string(primary->port()) +
      " --read-from=replica --read-endpoints=127.0.0.1:" +
      std::to_string(replica->port()) +
      " --consistency=session --shards=2 --ycsb=b --expect-hits" +
      " --threads=2 --keys=300 --ops=800 --pipeline=8 --seconds=30" +
      " >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;

  auto rc = Client::Connect("127.0.0.1", replica->port(), &err);
  ASSERT_NE(rc, nullptr) << err;
  ASSERT_TRUE(rc->Shutdown());
  replica->Wait();
  auto pc = Client::Connect("127.0.0.1", primary->port(), &err);
  ASSERT_NE(pc, nullptr) << err;
  ASSERT_TRUE(pc->Shutdown());
  primary->Wait();
}
// MULTI/EXEC load against a 4-shard primary: mixed single-shard (kTxnExec
// fast path) and cross-shard (2PC decision record) groups, then the built-in
// all-or-nothing sweep. The loadgen exits non-zero on any partial apply, any
// per-op error, or a group carrying a foreign value.
TEST(LoadgenSmoke, TxnModeCommitsAtomically) {
  ServerOptions opts;
  opts.nshards = 4;
  opts.shard.device_bytes = 64ull << 20;
  opts.shard.map_capacity = 1 << 12;
  std::string err;
  auto server = Server::Start(opts, &err);
  ASSERT_NE(server, nullptr) << err;

  const std::string cmd =
      std::string(JNVM_LOADGEN_BIN) +
      " --port=" + std::to_string(server->port()) +
      " --shards=4 --txn=4 --cross-shard-pct=50 --txn-verify" +
      " --threads=2 --keys=64 --ops=400 --seconds=30 >/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // The run actually exercised both commit paths: decisions sealed (cross-
  // shard) and more prepares than decisions (single-shard fast path never
  // seals one).
  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  ASSERT_NE(c, nullptr) << err;
  const std::string stats = c->Stats().value_or("");
  const auto field = [&stats](const char* name) -> uint64_t {
    const size_t pos = stats.find(name);
    if (pos == std::string::npos) {
      return 0;
    }
    return std::strtoull(stats.c_str() + pos + std::strlen(name), nullptr, 10);
  };
  EXPECT_GT(field("decision_records="), 0u) << stats;
  EXPECT_GT(field("committed="), field("decision_records=")) << stats;
  EXPECT_EQ(field("inflight="), 0u) << stats;
  ASSERT_TRUE(c->Shutdown());
  server->Wait();
}
#endif  // JNVM_LOADGEN_BIN

}  // namespace
}  // namespace jnvm::server
