// pb_loadgen — the benchmark's single-threaded load generator.
//
// One process drives one benchmark run against a running jnvm_server:
//
//   1. preload  SET every key once (version 1), pipelined;
//   2. warm-up  the workload's own mix until the server's RSS and minor
//               faults per second level off;
//   3. measure  --seconds of the workload, closed loop (--depth ops in
//               flight per connection) or open loop (--rate ops/s, seeded
//               Poisson arrivals, latency charged from the due time);
//   4. tail     keeps the load running and prints "kill"; the caller
//               SIGKILLs the server mid-flight, the generator prints "down";
//   5. sweep    each time the caller restarts the server and writes
//               "sweep" on stdin: GET every key and check it holds a version
//               between its last acked and its last sent SET; "done" ends
//               the run.
//
// stdout carries "measure_start <CLOCK_MONOTONIC ns>", "kill", "down",
// "swept" and, last, one JSON object with every measurement. With --no-restart the run
// stops after step 3 (the caller measures several server instances per
// run and restarts only the last).
//
// Keys are bound to connections (key % conns). One connection's commands
// execute in order on the single shard, so every GET has one exact expected
// version: the last SET sent for its key before it.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/pipeline.h"

namespace {

using perfbench::InflightOp;
using perfbench::OpKind;
using perfbench::Session;

uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "pb_loadgen: %s\n", msg.c_str());
  std::exit(1);
}

struct Config {
  uint16_t port = 0;
  int server_pid = 0;
  std::vector<int> server_cpus;  // where the server is pinned
  perfbench::WorkloadSpec spec;
  uint32_t conns = 2;
  uint32_t depth = 64;   // closed loop: ops in flight per connection
  double rate = 0.0;     // open loop ops/s; 0 = closed loop
  double seconds = 10.0;
  uint64_t seed = 1;
  bool no_restart = false;
  double warmup_min_s = 1.0;
  double warmup_max_s = 8.0;
};

// ---- /proc readers -------------------------------------------------------------

std::string Slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

struct ProcSnap {
  uint64_t cpu_ns = 0;  // server CPU time, summed over its threads
  uint64_t minflt = 0;
  uint64_t rss_bytes = 0;
  uint64_t vol_ctxsw = 0;    // summed over the server's threads
  uint64_t invol_ctxsw = 0;
  uint64_t rw_syscalls = 0;  // syscr + syscw
  uint64_t host_total = 0;   // /proc/stat jiffies of the server's cpus
  uint64_t host_steal = 0;
  uint64_t gen_cpu_us = 0;   // this process
};

std::vector<std::string> StatFields(int pid) {
  // Fields after the parenthesised comm, which may contain spaces.
  const std::string s = Slurp("/proc/" + std::to_string(pid) + "/stat");
  const size_t close = s.rfind(')');
  if (close == std::string::npos) {
    Die("cannot read /proc/" + std::to_string(pid) + "/stat");
  }
  std::istringstream in(s.substr(close + 2));
  std::vector<std::string> f;
  std::string t;
  while (in >> t) {
    f.push_back(t);
  }
  return f;
}

uint64_t FieldAfter(const std::string& text, const std::string& name) {
  const size_t p = text.find(name);
  if (p == std::string::npos) {
    return 0;
  }
  return std::strtoull(text.c_str() + p + name.size(), nullptr, 10);
}

// Calls fn(path of /proc/<pid>/task/<tid>) for each of pid's threads.
template <typename F>
void ForEachTask(int pid, F&& fn) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* d = opendir(dir.c_str())) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') {
        fn(dir + "/" + e->d_name);
      }
    }
    closedir(d);
  }
}

// Server CPU time in ns: the threads' run time from schedstat. utime +
// stime carry the same time but are sampled at clock-tick granularity,
// which misattributes short bursts after idle.
uint64_t CpuNs(int pid) {
  uint64_t ns = 0;
  ForEachTask(pid, [&](const std::string& task) {
    ns += std::strtoull(Slurp(task + "/schedstat").c_str(), nullptr, 10);
  });
  return ns;
}

ProcSnap ReadProc(int pid, const std::vector<int>& cpus) {
  ProcSnap s;
  const auto f = StatFields(pid);
  // stat(5): state is field 3; minflt 10, rss 24.
  s.minflt = std::strtoull(f.at(10 - 3).c_str(), nullptr, 10);
  s.cpu_ns = CpuNs(pid);
  s.rss_bytes = std::strtoull(f.at(24 - 3).c_str(), nullptr, 10) *
                static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  ForEachTask(pid, [&](const std::string& task) {
    const std::string st = Slurp(task + "/status");
    s.vol_ctxsw += FieldAfter(st, "\nvoluntary_ctxt_switches:");
    s.invol_ctxsw += FieldAfter(st, "\nnonvoluntary_ctxt_switches:");
  });
  const std::string io = Slurp("/proc/" + std::to_string(pid) + "/io");
  s.rw_syscalls = FieldAfter(io, "syscr:") + FieldAfter(io, "syscw:");
  // Jiffies of the server's cpus: user nice system idle iowait irq softirq
  // steal.
  std::istringstream stat(Slurp("/proc/stat"));
  std::string line;
  while (std::getline(stat, line)) {
    int cpu = -1;
    if (std::sscanf(line.c_str(), "cpu%d ", &cpu) != 1 ||
        std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) {
      continue;
    }
    std::istringstream in(line.substr(line.find(' ')));
    for (int i = 0; i < 8; ++i) {
      uint64_t v = 0;
      in >> v;
      s.host_total += v;
      s.host_steal += i == 7 ? v : 0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.gen_cpu_us = static_cast<uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                     1'000'000ull +
                 static_cast<uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  return s;
}

// ---- Sockets ---------------------------------------------------------------------

int ConnectRetry(uint16_t port, double timeout_s) {
  const uint64_t deadline = MonoNs() + static_cast<uint64_t>(timeout_s * 1e9);
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    ::close(fd);
    if (MonoNs() > deadline) {
      Die("cannot connect to port " + std::to_string(port));
    }
    ::usleep(1000);
  }
}

// Blocking one-command round trip on the control connection.
std::string Roundtrip(int fd, const std::string& cmd) {
  std::string req;
  perfbench::AppendCommand(&req, cmd);
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    Die("control send failed");
  }
  jnvm::server::RespReplyParser p;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      Die("control connection closed");
    }
    p.Feed(buf, static_cast<size_t>(n));
    jnvm::server::RespReply r;
    std::string err;
    const auto st = p.Next(&r, &err);
    if (st == jnvm::server::RespParser::Status::kCommand) {
      return r.str;
    }
    if (st == jnvm::server::RespParser::Status::kError) {
      Die("control reply: " + err);
    }
  }
}

// "section.name" → value for every name=value token of a STATS dump.
std::map<std::string, double> ParseStats(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    const std::string section = line.substr(0, colon);
    std::istringstream toks(line.substr(colon + 1));
    std::string tok;
    while (toks >> tok) {
      const size_t eq = tok.find('=');
      if (eq != std::string::npos) {
        out[section + "." + tok.substr(0, eq)] =
            std::strtod(tok.c_str() + eq + 1, nullptr);
      }
    }
  }
  return out;
}

// ---- The generator ------------------------------------------------------------------

struct Conn {
  int fd = -1;
  Session session{MonoNs};
  bool dead = false;
  std::deque<perfbench::Op> backlog;  // closed loop: this conn's next ops
};

enum class Phase { kPreload, kWarmup, kMeasure, kTail, kSweep };

// Latency percentiles are taken per third of the window (over two seconds
// of a 6.7 s window: enough SETs at 5% of 10k ops/s for ten samples beyond
// the p99); the caller reports the median over parts.
constexpr size_t kLatencyParts = 3;

class Generator {
 public:
  explicit Generator(const Config& cfg)
      : cfg_(cfg),
        stream_(cfg.spec, cfg.seed),
        sent_(cfg.spec.keys, 0),
        acked_(cfg.spec.keys, 0) {}

  int Run();

 private:
  void OpenConns();
  void Preload();
  void Warmup();
  void Measure();
  void Tail();
  void Sweep();
  void PrintResult();

  // Runs the workload mix until `stop` returns true (checked each pass).
  template <typename Stop>
  void Pump(Stop&& stop);
  // Closed loop: tops up each connection that has half its ops answered.
  void Refill();
  // Open loop: enqueues every op due by now.
  void IssueDue(uint64_t now);
  void Issue(const perfbench::Op& op, uint64_t due_ns);
  void EnqueueGet(Conn& c, uint32_t key, uint64_t start_ns);
  void EnqueueSet(Conn& c, uint32_t key, uint32_t version, uint64_t start_ns);
  void FlushAll();
  // One poll() round: waits up to `timeout_ns` and handles every ready fd.
  void PollOnce(uint64_t timeout_ns);
  void OnReply(const InflightOp& op, const jnvm::server::RespReply& r,
               uint64_t latency_ns);
  void Fail(const char* what);
  bool AllDead() const;
  size_t InflightTotal() const;

  Config cfg_;
  perfbench::OpStream stream_;
  std::vector<uint32_t> sent_;   // last version sent per key
  std::vector<uint32_t> acked_;  // last version acknowledged per key
  std::vector<Conn> conns_;
  int ctl_ = -1;
  Phase phase_ = Phase::kPreload;
  std::unique_ptr<perfbench::Arrivals> arrivals_;

  // Accounting. An op belongs to the measured phase when it started
  // (was sent, or was due) inside [t_start_, t_end_).
  uint64_t t_start_ = 0, t_end_ = 0;
  uint64_t attempted_ = 0, failed_ = 0;
  uint64_t measured_done_ = 0;  // measured ops that completed in the window
  // Latencies of measured ops by the fifth of the window they started in.
  std::vector<std::vector<uint64_t>> get_lat_, set_lat_;
  std::vector<uint64_t> late_;
  std::vector<std::vector<uint64_t>> sweep_lat_;  // one entry per sweep
  std::vector<double> slice_rate_, slice_cpu_;  // per one-second slice
  std::map<std::string, uint64_t> fail_kinds_;

  uint64_t preload_ns_ = 0, warmup_ns_ = 0;
  bool warm_levelled_ = false;
  ProcSnap p0_, p1_;
  std::map<std::string, double> s0_, s1_;
  uint64_t sweep_keys_ = 0, sweep_bad_ = 0, sweep_newer_ = 0;
};

bool Generator::AllDead() const {
  for (const Conn& c : conns_) {
    if (!c.dead) {
      return false;
    }
  }
  return true;
}

size_t Generator::InflightTotal() const {
  size_t n = 0;
  for (const Conn& c : conns_) {
    n += c.dead ? 0 : c.session.inflight();
  }
  return n;
}

void Generator::Fail(const char* what) {
  ++failed_;
  ++fail_kinds_[what];
}

void Generator::OpenConns() {
  conns_.clear();
  conns_.resize(cfg_.conns);
  for (Conn& c : conns_) {
    c.fd = ConnectRetry(cfg_.port, 60.0);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
}

void Generator::EnqueueGet(Conn& c, uint32_t key, uint64_t start_ns) {
  std::string req;
  perfbench::AppendCommand(&req, "GET", perfbench::KeyName(key));
  InflightOp op;
  op.kind = OpKind::kGet;
  op.key = key;
  op.version = sent_[key];
  op.start_ns = start_ns;
  c.session.Enqueue(op, req);
}

void Generator::EnqueueSet(Conn& c, uint32_t key, uint32_t version,
                           uint64_t start_ns) {
  std::string req;
  perfbench::AppendCommand(
      &req, "SET", perfbench::KeyName(key),
      perfbench::MakeValue(key, version, cfg_.spec.value_bytes));
  InflightOp op;
  op.kind = OpKind::kSet;
  op.key = key;
  op.version = version;
  op.start_ns = start_ns;
  sent_[key] = version;
  c.session.Enqueue(op, req);
}

void Generator::Issue(const perfbench::Op& op, uint64_t due_ns) {
  Conn& c = conns_[op.key % conns_.size()];
  if (c.dead) {
    return;
  }
  if (op.kind == OpKind::kGet) {
    EnqueueGet(c, op.key, due_ns);
  } else {
    EnqueueSet(c, op.key, sent_[op.key] + 1, due_ns);
  }
}

void Generator::Refill() {
  for (Conn& c : conns_) {
    if (c.dead || c.session.inflight() > cfg_.depth / 2) {
      continue;
    }
    // Once half of a connection's ops are answered, the other half goes out
    // in one write: the server always holds queued work, and requests
    // arrive in bursts rather than one per reply.
    while (c.session.inflight() < cfg_.depth) {
      // Pull from the shared stream until this connection owns an op; ops
      // for other connections wait in their backlogs, in stream order.
      while (c.backlog.empty()) {
        const perfbench::Op op = stream_.Next();
        conns_[op.key % conns_.size()].backlog.push_back(op);
      }
      const perfbench::Op op = c.backlog.front();
      c.backlog.pop_front();
      Issue(op, 0);
    }
  }
}

void Generator::IssueDue(uint64_t now) {
  while (arrivals_->due() <= now) {
    const uint64_t due = arrivals_->due();
    if (phase_ == Phase::kMeasure && due >= t_start_ && due < t_end_) {
      late_.push_back(now - due);
    }
    Issue(stream_.Next(), due);
    arrivals_->Advance();
  }
}

void Generator::FlushAll() {
  for (Conn& c : conns_) {
    std::string& out = c.session.outbox();
    if (c.dead || out.empty()) {
      continue;
    }
    c.session.Stamp();
    const ssize_t n = ::send(c.fd, out.data(), out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out.erase(0, static_cast<size_t>(n));
    } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      c.dead = true;
    }
  }
}

void Generator::OnReply(const InflightOp& op, const jnvm::server::RespReply& r,
                        uint64_t latency_ns) {
  const bool counted = phase_ != Phase::kTail && phase_ != Phase::kSweep;
  const bool measured =
      op.start_ns >= t_start_ && op.start_ns < t_end_ && t_start_ != 0;
  if (counted) {
    ++attempted_;
  }
  bool ok = true;
  if (op.kind == OpKind::kSet) {
    if (r.type == jnvm::server::RespReply::Type::kSimple && r.str == "OK") {
      acked_[op.key] = std::max(acked_[op.key], op.version);
    } else {
      ok = false;
      if (counted) Fail("set_error_reply");
    }
  } else if (r.type != jnvm::server::RespReply::Type::kBulk) {
    ok = false;
    if (counted) Fail(r.type == jnvm::server::RespReply::Type::kNil
                          ? "get_missing_key"
                          : "get_error_reply");
  } else {
    const int64_t v =
        perfbench::StampVersion(op.key, r.str, cfg_.spec.value_bytes);
    if (v != static_cast<int64_t>(op.version)) {
      ok = false;
      if (counted) Fail("get_wrong_value");
    }
  }
  if (measured) {
    if (ok) {
      const size_t part = std::min<size_t>(
          kLatencyParts - 1,
          (op.start_ns - t_start_) * kLatencyParts / (t_end_ - t_start_));
      (op.kind == OpKind::kGet ? get_lat_ : set_lat_)[part].push_back(
          latency_ns);
    }
    if (op.start_ns + latency_ns < t_end_) {
      ++measured_done_;
    }
  }
}

void Generator::PollOnce(uint64_t timeout_ns) {
  std::vector<pollfd> pfds;
  for (const Conn& c : conns_) {
    pollfd p{};
    p.fd = c.dead ? -1 : c.fd;
    p.events = POLLIN;
    if (c.session.has_output()) {
      p.events |= POLLOUT;
    }
    pfds.push_back(p);
  }
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
  const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (rc <= 0) {
    return;
  }
  char buf[1 << 16];
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (c.dead || pfds[i].revents == 0) {
      continue;
    }
    if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        c.dead = true;
        continue;
      }
      if (n > 0) {
        const bool ok = c.session.Feed(
            buf, static_cast<size_t>(n),
            [&](const InflightOp& op, const jnvm::server::RespReply& r,
                uint64_t lat) { OnReply(op, r, lat); });
        if (!ok) {
          if (phase_ != Phase::kTail) {
            Fail("protocol_error");
          }
          c.dead = true;
        }
      }
    }
  }
}

template <typename Stop>
void Generator::Pump(Stop&& stop) {
  while (!stop() && !AllDead()) {
    uint64_t timeout = 1'000'000;  // 1 ms
    if (arrivals_ != nullptr) {
      const uint64_t now = MonoNs();
      IssueDue(now);
      const uint64_t due = arrivals_->due();
      timeout = due > now ? std::min<uint64_t>(due - now, timeout) : 0;
    } else {
      Refill();
    }
    FlushAll();
    PollOnce(timeout);
  }
}

void Generator::Preload() {
  const uint64_t t0 = MonoNs();
  phase_ = Phase::kPreload;
  uint32_t next = 0;
  while (next < cfg_.spec.keys || InflightTotal() > 0) {
    while (next < cfg_.spec.keys && InflightTotal() < 64 * conns_.size()) {
      EnqueueSet(conns_[next % conns_.size()], next, 1, 0);
      ++next;
    }
    FlushAll();
    PollOnce(1'000'000);
    if (AllDead()) {
      Die("server closed the connections during preload");
    }
  }
  preload_ns_ = MonoNs() - t0;
}

void Generator::Warmup() {
  phase_ = Phase::kWarmup;
  const uint64_t t0 = MonoNs();
  if (cfg_.rate > 0) {
    arrivals_ = std::make_unique<perfbench::Arrivals>(
        cfg_.rate, cfg_.seed ^ 0xa771ull, t0);
  }
  // Level-off test: 250 ms windows; two in a row with RSS within 1% and a
  // minor-fault rate within 20% (+2000/s) of the previous window's.
  ProcSnap prev = ReadProc(cfg_.server_pid, cfg_.server_cpus);
  double prev_rate = -1.0;
  int calm = 0;
  for (;;) {
    const uint64_t w0 = MonoNs();
    Pump([&] { return MonoNs() - w0 >= 250'000'000ull; });
    const ProcSnap cur = ReadProc(cfg_.server_pid, cfg_.server_cpus);
    const double secs = static_cast<double>(MonoNs() - w0) / 1e9;
    const double rate = static_cast<double>(cur.minflt - prev.minflt) / secs;
    const double rss_change =
        std::abs(static_cast<double>(cur.rss_bytes) -
                 static_cast<double>(prev.rss_bytes)) /
        static_cast<double>(std::max<uint64_t>(prev.rss_bytes, 1));
    const bool level =
        prev_rate >= 0 && rss_change < 0.01 &&
        std::abs(rate - prev_rate) <= 0.2 * std::max(rate, prev_rate) + 2000;
    calm = level ? calm + 1 : 0;
    prev = cur;
    prev_rate = rate;
    const double elapsed = static_cast<double>(MonoNs() - t0) / 1e9;
    if ((calm >= 2 && elapsed >= cfg_.warmup_min_s) ||
        elapsed >= cfg_.warmup_max_s) {
      warm_levelled_ = calm >= 2;
      break;
    }
    if (AllDead()) {
      Die("server closed the connections during warm-up");
    }
  }
  warmup_ns_ = MonoNs() - t0;
}

void Generator::Measure() {
  p0_ = ReadProc(cfg_.server_pid, cfg_.server_cpus);
  s0_ = ParseStats(Roundtrip(ctl_, "STATS"));
  phase_ = Phase::kMeasure;
  t_start_ = MonoNs();
  t_end_ = t_start_ + static_cast<uint64_t>(cfg_.seconds * 1e9);
  std::printf("measure_start %" PRIu64 "\n", t_start_);
  std::fflush(stdout);
  const size_t expect = static_cast<size_t>(
      (cfg_.rate > 0 ? cfg_.rate : 200'000.0) * cfg_.seconds * 1.2);
  get_lat_.assign(kLatencyParts, {});
  set_lat_.assign(kLatencyParts, {});
  for (size_t i = 0; i < kLatencyParts; ++i) {
    get_lat_[i].reserve(expect / kLatencyParts);
    set_lat_[i].reserve(expect / kLatencyParts);
  }
  // One-second slices: throughput and CPU per op are reported as the
  // median over slices, so a short stall of the host moves one slice, not
  // the result.
  const uint64_t slices =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(cfg_.seconds)));
  const uint64_t slice_ns = (t_end_ - t_start_) / slices;
  uint64_t done0 = 0, cpu0 = p0_.cpu_ns, t0 = t_start_;
  for (uint64_t k = 1; k <= slices; ++k) {
    const uint64_t slice_end = k == slices ? t_end_ : t_start_ + k * slice_ns;
    Pump([&] { return MonoNs() >= slice_end; });
    const uint64_t now = MonoNs();
    const uint64_t cpu = CpuNs(cfg_.server_pid);
    const double ops = static_cast<double>(measured_done_ - done0);
    slice_rate_.push_back(ops / (static_cast<double>(now - t0) / 1e9));
    slice_cpu_.push_back(static_cast<double>(cpu - cpu0) / 1e3 /
                         std::max(ops, 1.0));
    done0 = measured_done_;
    cpu0 = cpu;
    t0 = now;
  }
  p1_ = ReadProc(cfg_.server_pid, cfg_.server_cpus);
  s1_ = ParseStats(Roundtrip(ctl_, "STATS"));
  // Let the window's stragglers complete (bounded); anything still in
  // flight after that is an unfinished op.
  const uint64_t drain_deadline = MonoNs() + 5'000'000'000ull;
  auto window_ops_left = [&] {
    size_t n = 0;
    for (const Conn& c : conns_) {
      for (const InflightOp& op : c.session.ops()) {
        n += op.start_ns >= t_start_ && op.start_ns < t_end_ ? 1 : 0;
      }
    }
    return n;
  };
  Pump([&] { return window_ops_left() == 0 || MonoNs() > drain_deadline; });
  const size_t unfinished = window_ops_left();
  attempted_ += unfinished;
  for (size_t i = 0; i < unfinished; ++i) {
    Fail("unfinished");
  }
}

void Generator::Tail() {
  phase_ = Phase::kTail;
  std::printf("kill\n");
  std::fflush(stdout);
  const uint64_t deadline = MonoNs() + 30'000'000'000ull;
  Pump([&] { return MonoNs() > deadline; });
  if (!AllDead()) {
    Die("server still answering 30 s after the kill request");
  }
  for (Conn& c : conns_) {
    ::close(c.fd);
  }
  ::close(ctl_);
  std::printf("down\n");
  std::fflush(stdout);
}

void Generator::Sweep() {
  phase_ = Phase::kSweep;
  sweep_lat_.emplace_back();
  arrivals_.reset();
  OpenConns();
  const uint32_t nconn = static_cast<uint32_t>(conns_.size());
  // Per-conn cursors over its own keys; a reply is judged against the
  // window [acked, sent] of versions a restart may legitimately expose.
  std::vector<uint32_t> cursor(nconn);
  for (uint32_t i = 0; i < nconn; ++i) {
    cursor[i] = i;
  }
  auto on_reply = [&](const InflightOp& op, const jnvm::server::RespReply& r,
                      uint64_t latency_ns) {
    ++sweep_keys_;
    sweep_lat_.back().push_back(latency_ns);
    ++attempted_;
    const int64_t v =
        r.type == jnvm::server::RespReply::Type::kBulk
            ? perfbench::StampVersion(op.key, r.str, cfg_.spec.value_bytes)
            : -1;
    if (v < acked_[op.key] || v > sent_[op.key]) {
      ++sweep_bad_;
      Fail("lost_or_wrong_after_restart");
    } else if (v > acked_[op.key]) {
      ++sweep_newer_;  // unacked at the kill, but made durable
    }
  };
  for (;;) {
    bool more = false;
    for (uint32_t i = 0; i < nconn; ++i) {
      Conn& c = conns_[i];
      while (cursor[i] < cfg_.spec.keys && c.session.inflight() < 64) {
        EnqueueGet(c, cursor[i], 0);
        cursor[i] += nconn;
      }
      more |= cursor[i] < cfg_.spec.keys || c.session.inflight() > 0;
    }
    if (!more) {
      break;
    }
    FlushAll();
    std::vector<pollfd> pfds;
    for (const Conn& c : conns_) {
      pfds.push_back({c.fd, POLLIN, 0});
    }
    ::poll(pfds.data(), pfds.size(), 1000);
    char buf[1 << 16];
    for (uint32_t i = 0; i < nconn; ++i) {
      if (pfds[i].revents == 0) {
        continue;
      }
      const ssize_t n = ::recv(conns_[i].fd, buf, sizeof(buf), 0);
      if (n == 0 || (n < 0 && errno != EAGAIN)) {
        Die("server closed the connection during the sweep");
      }
      if (n > 0 && !conns_[i].session.Feed(buf, static_cast<size_t>(n),
                                           on_reply)) {
        Die("protocol error during the sweep");
      }
    }
  }
  for (Conn& c : conns_) {
    ::close(c.fd);
  }
}

double Quantile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) {
    return 0.0;
  }
  const size_t idx = std::min(
      v->size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(v->size()))) - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(idx),
                   v->end());
  return static_cast<double>((*v)[idx]) / 1000.0;
}

// Quantile q (µs) of each non-empty part.
std::vector<double> PartQuantiles(std::vector<std::vector<uint64_t>>* parts,
                                  double q) {
  std::vector<double> out;
  for (std::vector<uint64_t>& p : *parts) {
    if (!p.empty()) {
      out.push_back(Quantile(&p, q));
    }
  }
  return out;
}

void Generator::PrintResult() {
  const double window_s = static_cast<double>(t_end_ - t_start_) / 1e9;
  const double ops = static_cast<double>(std::max<uint64_t>(measured_done_, 1));
  auto d = [&](const char* k) { return s1_[k] - s0_[k]; };
  std::printf("{");
  bool first = true;
  auto kv = [&](const char* k, double v) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k, v);
    first = false;
  };
  // Per-slice and per-part figures; the caller takes medians over them.
  auto arr = [&](const char* k, const std::vector<double>& v) {
    std::printf("%s\"%s\": [", first ? "" : ", ", k);
    for (size_t i = 0; i < v.size(); ++i) {
      std::printf("%s%.17g", i == 0 ? "" : ", ", v[i]);
    }
    std::printf("]");
    first = false;
  };
  kv("attempted", static_cast<double>(attempted_));
  kv("failed", static_cast<double>(failed_));
  kv("preload_s", static_cast<double>(preload_ns_) / 1e9);
  kv("warmup_s", static_cast<double>(warmup_ns_) / 1e9);
  kv("warmup_levelled", warm_levelled_ ? 1 : 0);
  kv("window_s", window_s);
  kv("ops", static_cast<double>(measured_done_));
  size_t ngets = 0, nsets = 0;
  for (size_t i = 0; i < kLatencyParts; ++i) {
    ngets += get_lat_[i].size();
    nsets += set_lat_[i].size();
  }
  kv("gets", static_cast<double>(ngets));
  kv("sets", static_cast<double>(nsets));
  arr("slice_ops_s", slice_rate_);
  kv("window_ops_s", static_cast<double>(measured_done_) / window_s);
  // A mix without GETs reports the GET latency of the post-restart sweeps
  // (cold reads of the recovered heap) instead, one part per sweep.
  if (ngets == 0) {
    get_lat_ = sweep_lat_;
  }
  arr("get_p50_us", PartQuantiles(&get_lat_, 0.50));
  arr("get_p99_us", PartQuantiles(&get_lat_, 0.99));
  arr("set_p50_us", PartQuantiles(&set_lat_, 0.50));
  arr("set_p99_us", PartQuantiles(&set_lat_, 0.99));
  kv("gen.late_p99_us", Quantile(&late_, 0.99));
  const double cpu_s =
      static_cast<double>(p1_.cpu_ns - p0_.cpu_ns) / 1e9;
  kv("server_cpu_s", cpu_s);
  arr("slice_cpu_us_per_op", slice_cpu_);
  kv("window_cpu_us_per_op", cpu_s * 1e6 / ops);
  kv("server_rss_mb", static_cast<double>(p1_.rss_bytes) / (1 << 20));
  kv("proc.vol_ctxsw_per_op",
     static_cast<double>(p1_.vol_ctxsw - p0_.vol_ctxsw) / ops);
  kv("proc.invol_ctxsw_per_op",
     static_cast<double>(p1_.invol_ctxsw - p0_.invol_ctxsw) / ops);
  kv("proc.rw_syscalls_per_op",
     static_cast<double>(p1_.rw_syscalls - p0_.rw_syscalls) / ops);
  kv("proc.minflt_per_op", static_cast<double>(p1_.minflt - p0_.minflt) / ops);
  const double host = static_cast<double>(p1_.host_total - p0_.host_total);
  const double steal = host > 0 ? static_cast<double>(p1_.host_steal -
                                                      p0_.host_steal) /
                                      host
                                : 0.0;
  kv("host.steal_frac", steal);
  // Busy share of the time the hypervisor let the server's cores run.
  kv("proc.cpu_util",
     cpu_s / (window_s * static_cast<double>(cfg_.server_cpus.size()) *
              (1.0 - steal)));
  kv("gen.cpu_util",
     static_cast<double>(p1_.gen_cpu_us - p0_.gen_cpu_us) / 1e6 / window_s);
  const double cmds = std::max(d("server.commands"), 1.0);
  kv("server.flush_syscalls_per_op", d("output.flush_syscalls") / cmds);
  // STATS prints only the cumulative chunks/flush ratio; recover the
  // window's chunk count from the ratio at both ends.
  const double chunks =
      s1_["output.chunks_per_flush"] * s1_["output.flush_syscalls"] -
      s0_["output.chunks_per_flush"] * s0_["output.flush_syscalls"];
  kv("server.chunks_per_flush", d("output.flush_syscalls") > 0
                                    ? chunks / d("output.flush_syscalls")
                                    : 0.0);
  kv("shard.ops_per_batch",
     d("shard0.batches") > 0 ? cmds / d("shard0.batches") : 0.0);
  kv("shard.psyncs_per_op", d("shard0.psyncs") / cmds);
  kv("shard.pfences_per_op", d("shard0.pfences") / cmds);
  kv("shard.elided_fences_per_op", d("shard0.elided_fences") / cmds);
  kv("sweep_keys", static_cast<double>(sweep_keys_));
  kv("sweep_bad", static_cast<double>(sweep_bad_));
  kv("sweep_unacked_durable", static_cast<double>(sweep_newer_));
  std::printf("}\n");
  std::fflush(stdout);
  for (const auto& [k, n] : fail_kinds_) {
    std::fprintf(stderr, "pb_loadgen: %" PRIu64 " failures of kind %s\n", n,
                 k.c_str());
  }
}

int Generator::Run() {
  OpenConns();
  ctl_ = ConnectRetry(cfg_.port, 60.0);
  Preload();
  Warmup();
  Measure();
  if (cfg_.no_restart) {
    PrintResult();
    return failed_ == 0 ? 0 : 3;
  }
  Tail();
  // One sweep per restart of the server, until the caller says "done".
  for (std::string line; std::getline(std::cin, line) && line != "done";) {
    if (line != "sweep") {
      Die("expected 'sweep' or 'done' on stdin, got '" + line + "'");
    }
    Sweep();
    std::printf("swept\n");
    std::fflush(stdout);
  }
  PrintResult();
  return failed_ == 0 ? 0 : 3;
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
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (Flag(argv[i], "--port", &v)) {
      cfg.port = static_cast<uint16_t>(std::atoi(v));
    } else if (Flag(argv[i], "--server-pid", &v)) {
      cfg.server_pid = std::atoi(v);
    } else if (Flag(argv[i], "--server-cpus", &v)) {
      std::istringstream in(v);
      for (std::string cpu; std::getline(in, cpu, ',');) {
        cfg.server_cpus.push_back(std::atoi(cpu.c_str()));
      }
    } else if (Flag(argv[i], "--keys", &v)) {
      cfg.spec.keys = static_cast<uint32_t>(std::atoi(v));
    } else if (Flag(argv[i], "--value-bytes", &v)) {
      cfg.spec.value_bytes = static_cast<uint32_t>(std::atoi(v));
    } else if (Flag(argv[i], "--get-frac", &v)) {
      cfg.spec.get_frac = std::atof(v);
    } else if (Flag(argv[i], "--zipf", &v)) {
      cfg.spec.zipf = std::atoi(v) != 0;
    } else if (Flag(argv[i], "--conns", &v)) {
      cfg.conns = static_cast<uint32_t>(std::atoi(v));
    } else if (Flag(argv[i], "--depth", &v)) {
      cfg.depth = static_cast<uint32_t>(std::atoi(v));
    } else if (Flag(argv[i], "--rate", &v)) {
      cfg.rate = std::atof(v);
    } else if (Flag(argv[i], "--seconds", &v)) {
      cfg.seconds = std::atof(v);
    } else if (Flag(argv[i], "--seed", &v)) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-restart") == 0) {
      cfg.no_restart = true;
    } else {
      std::fprintf(stderr, "pb_loadgen: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (cfg.port == 0 || cfg.server_pid == 0 || cfg.server_cpus.empty() ||
      cfg.conns == 0 ||
      cfg.spec.keys == 0 || cfg.spec.value_bytes < 32) {
    std::fprintf(stderr, "pb_loadgen: --port, --server-pid, --server-cpus, "
                         "--keys, --conns and --value-bytes>=32 are "
                         "required\n");
    return 2;
  }
  // Sub-millisecond ppoll timeouts for the open-loop schedule.
  prctl(PR_SET_TIMERSLACK, 1000UL);
  return Generator(cfg).Run();
}
