// Socket-free core of the benchmark's load generator: the seeded op
// stream, the value stamps, the per-connection in-flight queue with its
// latency accounting, and the open-loop arrival schedule.
//
// Kept apart from the sockets so latency_test.cc can drive it with an
// injected clock. The rules it implements:
//   * every op gets its own start stamp and its own end stamp, taken when
//     its reply is parsed — never a batch round trip divided by n;
//   * in the open loop an op starts when it was *due*, not when the
//     generator got round to sending it, so a stall is charged to every
//     op queued behind it (the coordinated-omission correction).
#ifndef JNVM_PERFBENCH_PIPELINE_H_
#define JNVM_PERFBENCH_PIPELINE_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/rand.h"
#include "src/server/protocol.h"

namespace perfbench {

using Clock = std::function<uint64_t()>;

enum class OpKind : uint8_t { kGet, kSet };

// ---- Workload and op stream ------------------------------------------------

struct WorkloadSpec {
  uint32_t keys = 100'000;
  uint32_t value_bytes = 100;
  double get_frac = 0.5;
  bool zipf = false;  // zipfian (theta 0.99, scrambled) vs uniform keys
};

struct Op {
  OpKind kind = OpKind::kGet;
  uint32_t key = 0;
};

// The seeded op stream. The same (spec, seed) yields the same sequence in
// the generator and in the traced in-process replay.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed) {
    if (spec.zipf) {
      zipf_ = std::make_unique<jnvm::ZipfianGenerator>(
          spec.keys, 0.99, seed ^ 0x5eed2f1full);
    }
  }

  Op Next() {
    Op op;
    op.kind = rng_.NextDouble() < spec_.get_frac ? OpKind::kGet : OpKind::kSet;
    op.key = static_cast<uint32_t>(zipf_ ? zipf_->NextScrambled()
                                         : rng_.NextBelow(spec_.keys));
    return op;
  }

 private:
  WorkloadSpec spec_;
  jnvm::Xorshift rng_;
  std::unique_ptr<jnvm::ZipfianGenerator> zipf_;
};

inline std::string KeyName(uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "user%08u", key);
  return buf;
}

// "<key>:<version>:" followed by filler derived from (key, version), padded
// to `bytes`. A GET is correct only when it returns exactly the value of the
// version it expects, so a stale record and a torn body are both caught.
inline std::string MakeValue(uint32_t key, uint32_t version, uint32_t bytes) {
  std::string v = KeyName(key) + ":" + std::to_string(version) + ":";
  uint64_t h = jnvm::Mix64((uint64_t{key} << 32) | version);
  while (v.size() < bytes) {
    v.push_back(static_cast<char>('a' + h % 26));
    h = h / 26 == 0 ? jnvm::Mix64(h + v.size()) : h / 26;
  }
  v.resize(bytes);
  return v;
}

// Version carried by a value's stamp, or -1 when the stamp is not this
// key's or the body does not match it.
inline int64_t StampVersion(uint32_t key, std::string_view value,
                            uint32_t bytes) {
  const std::string prefix = KeyName(key) + ":";
  if (value.substr(0, prefix.size()) != prefix) {
    return -1;
  }
  uint64_t v = 0;
  size_t i = prefix.size();
  for (; i < value.size() && value[i] >= '0' && value[i] <= '9'; ++i) {
    v = v * 10 + static_cast<uint64_t>(value[i] - '0');
    if (v > UINT32_MAX) {
      return -1;
    }
  }
  if (i == prefix.size() ||
      value != MakeValue(key, static_cast<uint32_t>(v), bytes)) {
    return -1;
  }
  return static_cast<int64_t>(v);
}

inline void AppendCommand(std::string* out, std::string_view a,
                          std::string_view b = {}, std::string_view c = {}) {
  const std::string_view parts[] = {a, b, c};
  const size_t n = c.empty() ? (b.empty() ? 1 : 2) : 3;
  *out += "*" + std::to_string(n) + "\r\n";
  for (size_t i = 0; i < n; ++i) {
    *out += "$" + std::to_string(parts[i].size()) + "\r\n";
    out->append(parts[i]);
    *out += "\r\n";
  }
}

// ---- One connection's ops in flight ------------------------------------------

struct InflightOp {
  OpKind kind = OpKind::kGet;
  uint32_t key = 0;
  uint32_t version = 0;   // SET: version written; GET: version expected
  uint64_t start_ns = 0;  // 0 until sent (closed loop) or the due time
};

// Requests queued for one connection and the replies coming back. RESP
// replies arrive in request order, so the oldest op in flight owns the next
// parsed reply; the clock is read once per parsed reply.
class Session {
 public:
  explicit Session(Clock clock) : clock_(std::move(clock)) {}

  // Queues one request. `op.start_ns` is the due time in the open loop;
  // left 0, the op is stamped by the Stamp() that precedes its send.
  void Enqueue(const InflightOp& op, std::string_view request) {
    inflight_.push_back(op);
    outbox_.append(request);
    if (op.start_ns == 0) {
      ++unstamped_;
    }
  }

  // Called right before the outbox is written to the socket: ops queued
  // since the last send leave now. Returns the stamp.
  uint64_t Stamp() {
    if (unstamped_ == 0) {
      return 0;
    }
    const uint64_t now = clock_();
    for (auto it = inflight_.rbegin(); unstamped_ > 0; ++it) {
      if (it->start_ns == 0) {
        it->start_ns = now;
        --unstamped_;
      }
    }
    return now;
  }

  std::string& outbox() { return outbox_; }
  bool has_output() const { return !outbox_.empty(); }
  size_t inflight() const { return inflight_.size(); }
  const std::deque<InflightOp>& ops() const { return inflight_; }

  // Feeds received bytes and calls on_reply(op, reply, latency_ns) for each
  // complete reply. False on a protocol error or a reply with no request.
  template <typename F>
  bool Feed(const char* data, size_t n, F&& on_reply) {
    parser_.Feed(data, n);
    for (;;) {
      jnvm::server::RespReply reply;
      std::string err;
      const auto st = parser_.Next(&reply, &err);
      if (st == jnvm::server::RespParser::Status::kNeedMore) {
        return true;
      }
      if (st == jnvm::server::RespParser::Status::kError ||
          inflight_.empty()) {
        return false;
      }
      const uint64_t now = clock_();
      const InflightOp op = inflight_.front();
      inflight_.pop_front();
      on_reply(op, reply, now - op.start_ns);
    }
  }

 private:
  Clock clock_;
  std::deque<InflightOp> inflight_;
  std::string outbox_;
  size_t unstamped_ = 0;
  jnvm::server::RespReplyParser parser_;
};

// ---- Open-loop schedule ---------------------------------------------------------

// Seeded Poisson arrivals at `rate` ops/s from `t0_ns`.
class Arrivals {
 public:
  Arrivals(double rate, uint64_t seed, uint64_t t0_ns)
      : mean_gap_ns_(1e9 / rate), rng_(seed), due_(t0_ns) {
    Advance();
  }

  uint64_t due() const { return due_; }

  void Advance() {
    const double u = 1.0 - rng_.NextDouble();  // (0, 1]
    due_ += static_cast<uint64_t>(-std::log(u) * mean_gap_ns_) + 1;
  }

 private:
  double mean_gap_ns_;
  jnvm::Xorshift rng_;
  uint64_t due_;
};

}  // namespace perfbench

#endif  // JNVM_PERFBENCH_PIPELINE_H_
