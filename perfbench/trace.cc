// pb_trace — the benchmark's traced in-process replay, and its heap probe.
//
//   pb_trace --keys=N --value-bytes=B --get-frac=F --zipf=0|1 --seed=S
//            --ops=N --depth=D --dir=DIR
//
// Replays the first --ops ops of the generator's seeded stream through the
// public entry points of each layer, with spans recorded from this file
// around every call (the program itself is not instrumented):
//
//   protocol.parse   RespParser::Feed/Next, per command
//   shard.roundtrip  Shard::Submit → CompletionSink::OnCompletion
//   store.get/put    KvStore::Read / KvStore::Put (group-commit batches of
//                    min(16, depth) over a JpdtBackend, as the shard runs)
//   repl.append      repl::EncodeBatch + ReplLog::Append, per batch
//   core.boot        JnvmRuntime::Open after the store replay (recovery)
//   shard.open       Shard::Open on the replay's --dax-base heap, reopened
//
// Spans of one request share its index in the stream, so a shard round
// trip and the store call that executed it pair up: the round trip's self
// time (the cross-thread hand-offs) is the span minus its store child. Each
// section replays the same ops untraced and traced in turn; the time
// difference is trace.overhead_frac. Spans stay in memory and are written
// to DIR/spans.jsonl at exit. Device counters (DeviceStats), heap counters
// (HeapStats, Heap::GetUsage) and the RecoveryReport are read directly.
//
//   pb_trace --heap-usage=PATH
//
// Opens a stopped server's shard file (PmemDevice::MapFile), runs recovery,
// and prints the heap's in-use blocks and block size as JSON.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/pipeline.h"
#include "src/ckpt/ckpt_meta.h"
#include "src/common/clock.h"
#include "src/core/runtime.h"
#include "src/pdt/register_all.h"
#include "src/repl/frame.h"
#include "src/repl/repl_log.h"
#include "src/server/protocol.h"
#include "src/server/shard.h"
#include "src/store/jpdt_backend.h"
#include "src/store/jpfa_map.h"
#include "src/store/kvstore.h"
#include "src/store/precord.h"

namespace {

using jnvm::NowNs;

// Latency model of jnvm_server --optane (src/server/shard.cc).
constexpr uint32_t kReadNs = 80, kWriteNs = 60, kPwbNs = 10, kFenceNs = 150;

struct Args {
  perfbench::WorkloadSpec spec;
  uint64_t seed = 1;
  uint32_t ops = 50'000;
  uint32_t depth = 1;
  std::string dir;
  std::string heap_usage;
};

// ---- Spans -----------------------------------------------------------------------

enum SpanName : uint8_t {
  kParse, kRoundtrip, kStoreGet, kStorePut, kReplAppend, kCoreBoot, kShardOpen
};
const char* const kSpanNames[] = {"protocol.parse", "shard.roundtrip",
                                  "store.get",      "store.put",
                                  "repl.append",    "core.boot",
                                  "shard.open"};

struct Span {
  uint32_t req;  // index in the op stream (batch spans: the batch's first op)
  SpanName name;
  uint64_t start_ns, end_ns;
};

class Tracer {
 public:
  bool on = false;

  void Add(uint32_t req, SpanName name, uint64_t start, uint64_t end) {
    if (on) {
      spans_.push_back({req, name, start, end});
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Mean duration in µs of the spans named `name`, and their count.
  double MeanUs(SpanName name, uint64_t* count = nullptr) const {
    uint64_t sum = 0, n = 0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        sum += s.end_ns - s.start_ns;
        ++n;
      }
    }
    if (count != nullptr) {
      *count = n;
    }
    return n == 0 ? 0.0 : static_cast<double>(sum) / 1e3 / static_cast<double>(n);
  }

  // Writes every span as one JSON line. A store span's parent is the shard
  // round trip of the same request.
  void Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pb_trace: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    for (const Span& s : spans_) {
      const bool child = s.name == kStoreGet || s.name == kStorePut;
      std::fprintf(f,
                   "{\"req\": %u, \"name\": \"%s\", \"start_ns\": %" PRIu64
                   ", \"end_ns\": %" PRIu64 ", \"parent\": %s}\n",
                   s.req, kSpanNames[s.name], s.start_ns, s.end_ns,
                   child ? "\"shard.roundtrip\"" : "null");
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

// ---- The replayed requests -----------------------------------------------------

struct Req {
  perfbench::OpKind kind;
  std::string key, value;
};

// RESP bytes of the stream's first n ops; SETs carry stamped values with
// per-key versions, as the generator sends them (version 1 = preload).
std::string EncodeStream(const Args& a, std::vector<uint32_t>* versions) {
  perfbench::OpStream stream(a.spec, a.seed);
  std::string out;
  for (uint32_t i = 0; i < a.ops; ++i) {
    const perfbench::Op op = stream.Next();
    const std::string key = perfbench::KeyName(op.key);
    if (op.kind == perfbench::OpKind::kGet) {
      perfbench::AppendCommand(&out, "GET", key);
    } else {
      perfbench::AppendCommand(
          &out, "SET", key,
          perfbench::MakeValue(op.key, ++(*versions)[op.key],
                               a.spec.value_bytes));
    }
  }
  return out;
}

// Protocol section: parses the byte stream in 16 KiB reads.
std::vector<Req> Parse(const std::string& bytes, Tracer* tr) {
  std::vector<Req> reqs;
  jnvm::server::RespParser parser;
  std::vector<std::string> args;
  std::string err;
  uint64_t t = tr->on ? NowNs() : 0;
  for (size_t off = 0; off < bytes.size(); off += 16384) {
    parser.Feed(bytes.data() + off, std::min<size_t>(16384, bytes.size() - off));
    while (parser.Next(&args, &err) ==
           jnvm::server::RespParser::Status::kCommand) {
      if (tr->on) {
        const uint64_t now = NowNs();
        tr->Add(static_cast<uint32_t>(reqs.size()), kParse, t, now);
        t = now;
      }
      Req r;
      r.kind = args[0] == "GET" ? perfbench::OpKind::kGet
                                : perfbench::OpKind::kSet;
      r.key = std::move(args[1]);
      if (args.size() > 2) {
        r.value = std::move(args[2]);
      }
      reqs.push_back(std::move(r));
    }
  }
  return reqs;
}

// ---- Store + replication log section --------------------------------------------

struct StoreStack {
  explicit StoreStack(jnvm::nvm::PmemDevice* dev)
      : rt(jnvm::core::JnvmRuntime::Format(dev)),
        backend(rt.get(), "store", 1 << 16),
        kv(&backend, nullptr, StoreOpts()),
        log(jnvm::repl::ReplLog::OpenOrCreate(rt.get(), "server.repl", {})) {}

  static jnvm::store::StoreOptions StoreOpts() {
    jnvm::store::StoreOptions o;
    o.cache_ratio = 0.0;  // as the shard runs it (J-NVM backends uncached)
    o.expected_records = 1 << 16;
    return o;
  }

  std::unique_ptr<jnvm::core::JnvmRuntime> rt;
  jnvm::store::JpdtBackend backend;
  jnvm::store::KvStore kv;
  std::unique_ptr<jnvm::repl::ReplLog> log;
};

struct StoreTotals {
  uint64_t puts = 0;
  uint64_t append_bytes = 0;
};

// Executes reqs in group-commit batches of `batch` ops, the way the shard
// worker does: ops, one log record, Psync, deferred frees.
StoreTotals RunStore(StoreStack& s, const std::vector<Req>& reqs,
                     uint32_t batch, uint32_t value_bytes, Tracer* tr) {
  StoreTotals tot;
  std::vector<jnvm::repl::ReplOp> rops;
  for (size_t first = 0; first < reqs.size(); first += batch) {
    const size_t last = std::min(reqs.size(), first + batch);
    s.rt->heap().BeginGroupCommit();
    rops.clear();
    for (size_t i = first; i < last; ++i) {
      const Req& r = reqs[i];
      const uint64_t t0 = tr->on ? NowNs() : 0;
      if (r.kind == perfbench::OpKind::kGet) {
        jnvm::store::Record rec;
        const bool found = s.kv.Read(r.key, &rec);
        tr->Add(static_cast<uint32_t>(i), kStoreGet, t0, tr->on ? NowNs() : 0);
        const uint32_t key = static_cast<uint32_t>(
            std::strtoul(r.key.c_str() + 4, nullptr, 10));  // "user%08u"
        if (!found || rec.fields.size() != 1 ||
            perfbench::StampVersion(key, rec.fields[0], value_bytes) < 1) {
          std::fprintf(stderr, "pb_trace: wrong value for %s\n", r.key.c_str());
          std::exit(1);
        }
      } else {
        jnvm::store::Record rec;
        rec.fields.push_back(r.value);
        s.kv.Put(r.key, rec);
        tr->Add(static_cast<uint32_t>(i), kStorePut, t0, tr->on ? NowNs() : 0);
        jnvm::repl::ReplOp op;
        op.kind = jnvm::repl::ReplOp::Kind::kPut;
        op.key = r.key;
        op.record = std::move(rec);
        rops.push_back(std::move(op));
        ++tot.puts;
      }
    }
    if (!rops.empty()) {
      const uint64_t t0 = tr->on ? NowNs() : 0;
      std::string bf;
      jnvm::repl::EncodeBatch(rops, &bf);
      s.log->Append(s.log->next_seq(), bf);
      tr->Add(static_cast<uint32_t>(first), kReplAppend, t0,
              tr->on ? NowNs() : 0);
      tot.append_bytes += bf.size();
    }
    s.rt->heap().EndGroupCommit();
    s.rt->Psync();
    s.rt->DrainGroupFrees();
  }
  return tot;
}

// ---- Shard section ------------------------------------------------------------------

class Sink final : public jnvm::server::CompletionSink {
 public:
  explicit Sink(size_t n) : done_ns_(n, 0) {}

  void OnCompletion(jnvm::server::Completion&& c) override {
    const uint64_t now = NowNs();
    if (c.seq < done_ns_.size()) {
      done_ns_[c.seq] = now;
    }
    if (c.reply.empty() || c.reply[0] == '-' || c.reply == "$-1\r\n") {
      errors_.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++completed_;
    }
    cv_.notify_one();
  }

  // Blocks until at most `outstanding` of the `submitted` requests are
  // still in flight.
  void WaitUntil(uint64_t submitted, uint64_t outstanding) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return submitted - completed_ <= outstanding; });
  }

  void Reset() {
    std::lock_guard<std::mutex> lk(mu_);
    completed_ = 0;
  }
  uint64_t done_ns(size_t i) const { return done_ns_[i]; }
  uint64_t errors() const { return errors_.load(); }

 private:
  std::vector<uint64_t> done_ns_;
  std::atomic<uint64_t> errors_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t completed_ = 0;
};

jnvm::server::Request ToRequest(const Req& r, uint64_t seq) {
  jnvm::server::Request q;
  q.op = r.kind == perfbench::OpKind::kGet ? jnvm::server::Request::Op::kGet
                                           : jnvm::server::Request::Op::kSet;
  q.key = r.key;
  q.value = r.value;
  q.conn_id = 1;
  q.seq = seq;
  return q;
}

// Submits reqs keeping at most `depth` in flight; returns submit stamps.
std::vector<uint64_t> RunShard(jnvm::server::Shard& shard, Sink& sink,
                               const std::vector<Req>& reqs, uint32_t depth) {
  std::vector<uint64_t> sent(reqs.size());
  sink.Reset();
  for (size_t i = 0; i < reqs.size(); ++i) {
    sink.WaitUntil(i, depth - 1);
    sent[i] = NowNs();
    shard.Submit(ToRequest(reqs[i], i));
  }
  sink.WaitUntil(reqs.size(), 0);
  return sent;
}

std::unique_ptr<jnvm::server::Shard> OpenShard(const std::string& base,
                                               Sink* sink) {
  jnvm::server::ShardOptions o;  // jnvm_server --optane --batch=16 defaults
  o.batch = 16;
  o.optane_latency = true;
  o.dax_base = base;
  return jnvm::server::Shard::Open(o, 0, sink);
}

void RegisterClasses() {
  jnvm::pdt::RegisterStandardClasses();
  jnvm::store::PRecord::Class();
  jnvm::store::JpfaEntry::Class();
  jnvm::store::JpfaHashMap::Class();
  jnvm::repl::ReplLogRoot::Class();
  jnvm::repl::ReplLogSegment::Class();
  jnvm::ckpt::CkptMeta::Class();
}

std::vector<Req> PreloadReqs(const Args& a) {
  std::vector<Req> reqs(a.spec.keys);
  for (uint32_t k = 0; k < a.spec.keys; ++k) {
    reqs[k] = {perfbench::OpKind::kSet, perfbench::KeyName(k),
               perfbench::MakeValue(k, 1, a.spec.value_bytes)};
  }
  return reqs;
}

int HeapUsage(const std::string& path) {
  RegisterClasses();
  bool existed = false;
  std::string err;
  auto dev = jnvm::nvm::PmemDevice::MapFile(path, {}, &existed, &err);
  if (dev == nullptr || !existed) {
    std::fprintf(stderr, "pb_trace: cannot open %s: %s\n", path.c_str(),
                 err.c_str());
    return 1;
  }
  const uint64_t t0 = NowNs();
  auto rt = jnvm::core::JnvmRuntime::Open(dev.get());
  const auto u = rt->heap().GetUsage();
  std::printf("{\"in_use_blocks\": %" PRIu64 ", \"block_size\": %u, "
              "\"recovery_s\": %.9f}\n",
              u.in_use_blocks, rt->heap().block_size(),
              static_cast<double>(NowNs() - t0) / 1e9);
  return 0;
}

// Device, heap and log counters summed over the traced store passes.
struct StoreCounts {
  double reads = 0, writes = 0, bytes_written = 0, pwbs = 0, fences = 0;
  double blocks_allocated = 0, puts = 0, append_bytes = 0;
};

int Replay(const Args& a) {
  RegisterClasses();
  std::filesystem::create_directories(a.dir);
  Tracer tr;
  // Each section runs one warm-up pass, then untraced and traced passes in
  // turn over the same requests; only traced passes record spans, and their
  // extra time is the tracing overhead.
  double untraced_s = 0, traced_s = 0;
  auto passes = [&](auto&& pass) {
    pass();
    for (int round = 0; round < 2; ++round) {
      for (const bool on : {false, true}) {
        tr.on = on;
        const uint64_t t0 = NowNs();
        pass();
        (on ? traced_s : untraced_s) +=
            static_cast<double>(NowNs() - t0) / 1e9;
      }
    }
    tr.on = false;
  };

  // Protocol.
  std::vector<uint32_t> versions(a.spec.keys, 1);
  const std::string bytes = EncodeStream(a, &versions);
  std::vector<Req> reqs;
  passes([&] { reqs = Parse(bytes, &tr); });
  uint64_t ncmd = 0;
  const double parse_us = tr.MeanUs(kParse, &ncmd);
  if (ncmd != 2ull * a.ops) {
    std::fprintf(stderr, "pb_trace: parsed %" PRIu64 " of %u commands\n",
                 ncmd / 2, a.ops);
    return 1;
  }

  // Store + log, on an in-memory device with the server's latency model.
  const uint32_t batch = std::min<uint32_t>(16, a.depth);
  jnvm::nvm::DeviceOptions dopts;
  dopts.size_bytes = 256ull << 20;
  dopts.read_delay_ns = kReadNs;
  dopts.write_delay_ns = kWriteNs;
  dopts.pwb_delay_ns = kPwbNs;
  dopts.fence_delay_ns = kFenceNs;
  jnvm::nvm::PmemDevice dev(dopts);
  const std::vector<Req> preload = PreloadReqs(a);
  StoreCounts sc;
  {
    StoreStack s(&dev);
    RunStore(s, preload, 16, a.spec.value_bytes, &tr);
    passes([&] {
      const jnvm::nvm::DeviceStats d0 = dev.stats();
      const jnvm::heap::HeapStats h0 = s.rt->heap().stats();
      const StoreTotals t = RunStore(s, reqs, batch, a.spec.value_bytes, &tr);
      if (!tr.on) {
        return;
      }
      const jnvm::nvm::DeviceStats d1 = dev.stats();
      sc.reads += static_cast<double>(d1.reads - d0.reads);
      sc.writes += static_cast<double>(d1.writes - d0.writes);
      sc.bytes_written += static_cast<double>(d1.bytes_written - d0.bytes_written);
      sc.pwbs += static_cast<double>(d1.pwbs - d0.pwbs);
      sc.fences += static_cast<double>(d1.pfences - d0.pfences) +
                   static_cast<double>(d1.psyncs - d0.psyncs);
      sc.blocks_allocated += static_cast<double>(
          s.rt->heap().stats().blocks_allocated - h0.blocks_allocated);
      sc.puts += static_cast<double>(t.puts);
      sc.append_bytes += static_cast<double>(t.append_bytes);
    });
    s.rt->Abandon();  // a crash: the next open runs full recovery
  }
  tr.on = true;
  const uint64_t b0 = NowNs();
  auto rt = jnvm::core::JnvmRuntime::Open(&dev);
  tr.Add(0, kCoreBoot, b0, NowNs());
  tr.on = false;
  const jnvm::core::RecoveryReport rep = rt->recovery_report();
  rt.reset();

  // Shard, through its queue and worker thread, on a --dax-base heap.
  const std::string base = a.dir + "/trace";
  std::filesystem::remove(base + ".shard0.pmem");
  Sink sink(std::max<size_t>(reqs.size(), preload.size()));
  {
    auto shard = OpenShard(base, &sink);
    RunShard(*shard, sink, preload, 64);
    passes([&] {
      const std::vector<uint64_t> sent = RunShard(*shard, sink, reqs, a.depth);
      for (size_t i = 0; i < reqs.size(); ++i) {
        tr.Add(static_cast<uint32_t>(i), kRoundtrip, sent[i], sink.done_ns(i));
      }
    });
  }
  tr.on = true;
  const uint64_t o0 = NowNs();
  auto reopened = OpenShard(base, &sink);
  tr.Add(0, kShardOpen, o0, NowNs());
  tr.on = false;
  reopened.reset();
  std::filesystem::remove(base + ".shard0.pmem");

  // A round trip's self time is the span minus its store child; the two
  // replays cover the same requests, so the mean self time is the mean
  // round trip minus the mean store call.
  uint64_t ngets = 0, nputs = 0;
  const double get_us = tr.MeanUs(kStoreGet, &ngets);
  const double put_us = tr.MeanUs(kStorePut, &nputs);
  const double store_us =
      (get_us * static_cast<double>(ngets) + put_us * static_cast<double>(nputs)) /
      static_cast<double>(std::max<uint64_t>(ngets + nputs, 1));
  const double roundtrip_us = tr.MeanUs(kRoundtrip);

  const double ops = 2.0 * a.ops;  // two traced passes
  const double writes = std::max(sc.puts, 1.0);
  const double spin_ns = kReadNs * sc.reads + kWriteNs * sc.writes +
                         kPwbNs * sc.pwbs + kFenceNs * sc.fences;
  std::printf(
      "{\"protocol.parse_ns_per_cmd\": %.17g, \"store.get_us\": %.17g, "
      "\"store.put_us\": %.17g, \"shard.roundtrip_us\": %.17g, "
      "\"shard.handoff_us\": %.17g, \"nvm.reads_per_op\": %.17g, "
      "\"nvm.writes_per_op\": %.17g, \"nvm.bytes_written_per_op\": %.17g, "
      "\"nvm.pwbs_per_op\": %.17g, \"nvm.pfences_per_op\": %.17g, "
      "\"nvm.spin_us_per_op\": %.17g, \"repl.append_us\": %.17g, "
      "\"repl.append_bytes_per_write\": %.17g, \"heap.blocks_per_write\": "
      "%.17g, \"core.recovery_s\": %.17g, \"core.traversed_objects\": %.17g, "
      "\"core.swept_blocks\": %.17g, \"shard.open_s\": %.17g, "
      "\"trace.overhead_frac\": %.17g, \"trace.spans\": %zu, "
      "\"trace.errors\": %" PRIu64 "}\n",
      parse_us * 1e3, get_us, put_us, roundtrip_us, roundtrip_us - store_us,
      sc.reads / ops, sc.writes / ops, sc.bytes_written / ops, sc.pwbs / ops,
      sc.fences / ops, spin_ns / 1e3 / ops, tr.MeanUs(kReplAppend),
      sc.append_bytes / writes, sc.blocks_allocated / writes,
      tr.MeanUs(kCoreBoot) / 1e6, static_cast<double>(rep.traversed_objects),
      static_cast<double>(rep.sweep.scanned_blocks),
      tr.MeanUs(kShardOpen) / 1e6, traced_s / untraced_s - 1.0,
      tr.spans().size(), sink.errors());
  tr.Write(a.dir + "/spans.jsonl");
  return sink.errors() == 0 ? 0 : 3;
}

bool Flag(const char* arg, const char* name, const char** v) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *v = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (Flag(argv[i], "--keys", &v)) {
      a.spec.keys = static_cast<uint32_t>(std::atoi(v));
    } else if (Flag(argv[i], "--value-bytes", &v)) {
      a.spec.value_bytes = static_cast<uint32_t>(std::atoi(v));
    } else if (Flag(argv[i], "--get-frac", &v)) {
      a.spec.get_frac = std::atof(v);
    } else if (Flag(argv[i], "--zipf", &v)) {
      a.spec.zipf = std::atoi(v) != 0;
    } else if (Flag(argv[i], "--seed", &v)) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (Flag(argv[i], "--ops", &v)) {
      a.ops = static_cast<uint32_t>(std::atoi(v));
    } else if (Flag(argv[i], "--depth", &v)) {
      a.depth = static_cast<uint32_t>(std::atoi(v));
    } else if (Flag(argv[i], "--dir", &v)) {
      a.dir = v;
    } else if (Flag(argv[i], "--heap-usage", &v)) {
      a.heap_usage = v;
    } else {
      std::fprintf(stderr, "pb_trace: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!a.heap_usage.empty()) {
    return HeapUsage(a.heap_usage);
  }
  if (a.dir.empty() || a.ops == 0 || a.depth == 0 || a.spec.keys == 0) {
    std::fprintf(stderr, "pb_trace: --dir, --ops, --depth and --keys are "
                         "required\n");
    return 2;
  }
  return Replay(a);
}
