// Ablation — multi-core I/O plane (DESIGN.md §7).
//
// One server, a grid of {conns × loops × shards × poller}: every client
// thread owns one connection and drives a pipelined 50/50 SET/GET mix, so
// the bottleneck under test is the event-loop plane itself (readiness
// notification, parse, submit, completion routing, flush) rather than the
// shards. With --loops=N connections spread across N event-loop threads via
// SO_REUSEPORT; the io_uring rows additionally exercise the batched-SENDMSG
// flush path (one ring submission flushes every dirty connection), reported
// as batch_flushes in the final column.
//
// Server and clients are pinned to disjoint halves of the CPUs this process
// may use: the main thread takes the server half before Server::Start, so
// every loop and shard worker thread inherits it, and each client thread
// pins itself to the other half. Each cell runs once to warm up, then
// kRepeats times; the table reports the median, min and max of the repeats.
//
// NOTE: loop scaling needs hardware parallelism. The server gets half the
// CPUs, so on a 4-CPU host 4 loops share 2 cores; on a single-CPU host the
// two halves cannot be separated and everything shares the one CPU.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bench_env.h"
#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/server/client.h"
#include "src/server/poller.h"
#include "src/server/server.h"
#include "src/server/shard.h"

using namespace jnvm;
using namespace jnvm::server;

namespace {

constexpr uint32_t kPipeline = 32;
constexpr int kRepeats = 5;

// Disjoint CPU sets for the server and the client threads.
struct CoreSplit {
  cpu_set_t server;
  cpu_set_t client;
  std::string desc;
};

CoreSplit SplitCores() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpus.push_back(c);
    }
  }
  CoreSplit split;
  CPU_ZERO(&split.server);
  CPU_ZERO(&split.client);
  if (cpus.size() < 2) {
    split.server = split.client = allowed;
    split.desc = "one CPU: server and clients share it";
    return split;
  }
  const size_t half = cpus.size() / 2;
  std::string server_cpus, client_cpus;
  for (size_t i = 0; i < cpus.size(); ++i) {
    const bool server = i < half;
    CPU_SET(cpus[i], server ? &split.server : &split.client);
    (server ? server_cpus : client_cpus) += " " + std::to_string(cpus[i]);
  }
  split.desc = "server CPUs" + server_cpus + ", client CPUs" + client_cpus;
  return split;
}

ServerOptions BaseOpts(uint32_t shards, uint32_t loops,
                       const std::string& poller) {
  ServerOptions o;
  o.nshards = shards;
  o.shard.device_bytes = 128ull << 20;
  o.shard.map_capacity = 1 << 14;
  o.shard.batch = 16;
  o.loops = loops;
  o.poller = poller;
  return o;
}

uint64_t StatsField(Client& c, const char* field) {
  const std::string stats = c.Stats().value_or("");
  const size_t pos = stats.find(field);
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(stats.c_str() + pos + std::strlen(field), nullptr, 10);
}

// One client thread: `rounds` pipelines of kPipeline mixed SET/GET ops.
void Worker(uint16_t port, uint64_t keys, uint64_t rounds, uint64_t seed,
            const cpu_set_t* cpus, uint64_t* ops_out) {
  pthread_setaffinity_np(pthread_self(), sizeof(*cpus), cpus);
  std::string err;
  auto c = Client::Connect("127.0.0.1", port, &err);
  if (c == nullptr) {
    std::fprintf(stderr, "worker connect: %s\n", err.c_str());
    std::exit(1);
  }
  Xorshift rng(seed);
  std::vector<RespReply> replies;
  uint64_t ops = 0;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < kPipeline; ++i) {
      const std::string k = "k:" + std::to_string(rng.NextBelow(keys));
      if (rng.NextBelow(2) == 0) {
        c->PipeSet(k, "v:" + std::to_string(r));
      } else {
        c->PipeGet(k);
      }
    }
    replies.clear();
    if (!c->Sync(&replies)) {
      std::fprintf(stderr, "worker sync: %s\n", c->last_error().c_str());
      std::exit(1);
    }
    for (const RespReply& rep : replies) {
      if (rep.type == RespReply::Type::kError) {
        std::fprintf(stderr, "worker reply: %s\n", rep.str.c_str());
        std::exit(1);
      }
    }
    ops += kPipeline;
  }
  *ops_out = ops;
}

struct RunResult {
  double ops_per_sec = 0;
  uint64_t batch_flushes = 0;
  std::string poller;  // backend actually in use (uring may fall back)
};

RunResult RunOnce(uint32_t conns, uint32_t loops, uint32_t shards,
                  const std::string& poller, uint64_t keys, uint64_t rounds,
                  const CoreSplit& cores) {
  // Threads inherit their creator's CPU mask: the server's threads start
  // while this (the only other) thread sits on the server CPUs.
  sched_setaffinity(0, sizeof(cores.server), &cores.server);
  std::string err;
  auto server = Server::Start(BaseOpts(shards, loops, poller), &err);
  sched_setaffinity(0, sizeof(cores.client), &cores.client);
  if (server == nullptr) {
    std::fprintf(stderr, "server: %s\n", err.c_str());
    std::exit(1);
  }

  std::vector<uint64_t> ops(conns, 0);
  Stopwatch sw;
  {
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < conns; ++t) {
      workers.emplace_back(Worker, server->port(), keys, rounds,
                           0xab1e + t, &cores.client, &ops[t]);
    }
    for (auto& th : workers) {
      th.join();
    }
  }
  const double secs = sw.ElapsedSec();

  RunResult res;
  res.poller = server->poller_name();
  uint64_t total = 0;
  for (uint64_t o : ops) {
    total += o;
  }
  res.ops_per_sec = secs > 0 ? static_cast<double>(total) / secs : 0;

  auto c = Client::Connect("127.0.0.1", server->port(), &err);
  if (c != nullptr) {
    res.batch_flushes = StatsField(*c, "batch_flushes=");
    c->Shutdown();
  }
  server->Wait();
  return res;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Ablation — multi-core I/O plane: conns x loops x shards x "
              "poller (§7)\n");
  std::printf("pipeline %u, 50/50 SET/GET; ops/s aggregated over conns\n",
              kPipeline);
  std::printf("JNVM_BENCH_SCALE=%g  hw_threads=%u\n", BenchScale(),
              std::thread::hardware_concurrency());
  std::printf("==============================================================\n");

  const CoreSplit cores = SplitCores();
  std::printf("pinned: %s; 1 warm-up + %d repeats per cell\n",
              cores.desc.c_str(), kRepeats);
  const uint64_t keys = Scaled(4'000);
  const uint64_t rounds = Scaled(200);

  std::vector<std::string> pollers = {"epoll"};
  if (IoUringSupported()) {
    pollers.push_back("uring");
  } else {
    std::printf("(io_uring unavailable: uring rows skipped, Poller::Create "
                "would fall back to epoll)\n");
  }

  double base = 0;  // median of the first row
  std::printf("\n%-7s %6s %6s %7s %11s %11s %11s %8s %14s\n", "poller",
              "conns", "loops", "shards", "median", "min", "max", "scale",
              "batch_flushes");
  for (const std::string& poller : pollers) {
    for (uint32_t shards : {1u, 4u}) {
      for (uint32_t loops : {1u, 2u, 4u}) {
        for (uint32_t conns : {2u, 8u}) {
          RunOnce(conns, loops, shards, poller, keys, rounds, cores);  // warm-up
          std::vector<double> rates;
          RunResult r;
          for (int i = 0; i < kRepeats; ++i) {
            r = RunOnce(conns, loops, shards, poller, keys, rounds, cores);
            rates.push_back(r.ops_per_sec);
          }
          std::sort(rates.begin(), rates.end());
          const double median = rates[rates.size() / 2];
          if (base == 0) {
            base = median;
          }
          std::printf("%-7s %6u %6u %7u %10.1fK %10.1fK %10.1fK %7.2fx %14llu%s\n",
                      r.poller.c_str(), conns, loops, shards, median / 1e3,
                      rates.front() / 1e3, rates.back() / 1e3,
                      base > 0 ? median / base : 0.0,
                      static_cast<unsigned long long>(r.batch_flushes),
                      r.poller != poller ? "  (fallback!)" : "");
        }
      }
    }
  }
  std::printf(
      "\n(ops/s over the repeats; scale is each median relative to the first\n"
      "row's. The loops dimension should climb with the server's cores;\n"
      "batch_flushes (last repeat) > 0 on uring rows proves the batched-\n"
      "SENDMSG flush path carried traffic. A `(fallback!)` marker means the\n"
      "requested poller was unavailable at runtime.)\n");
  return 0;
}
