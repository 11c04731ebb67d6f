#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>

#include "src/common/check.h"
#include "src/common/clock.h"

namespace jnvm::server {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string Upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

bool ParseU32(const std::string& s, uint32_t* out) {
  if (s.empty() || s.size() > 9) {
    return false;
  }
  uint32_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) {
    return false;
  }
  uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// "host:port" → (host, port). False on malformed input.
bool SplitHostPort(const std::string& s, std::string* host, uint16_t* port) {
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  uint32_t p = 0;
  if (!ParseU32(s.substr(colon + 1), &p) || p == 0 || p > 65535) {
    return false;
  }
  *host = s.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

// Relaxed counter bump: each LoopCounters slot is written by one loop thread
// (wake_writes: by whichever thread wakes the loop) and only read
// cross-thread by STATS aggregation.
inline void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

inline uint64_t Rd(const std::atomic<uint64_t>& c) {
  return c.load(std::memory_order_relaxed);
}

}  // namespace

thread_local Server::Loop* Server::current_loop_ = nullptr;

std::string ShutdownReport::Summary() const {
  std::string s;
  char line[256];
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardReport& r = shards[i];
    std::snprintf(line, sizeof(line),
                  "shard%zu: integrity=%s records=%llu elided_fences=%llu "
                  "psyncs=%llu image=%s\n",
                  i, r.integrity_ok ? "ok" : "VIOLATED",
                  static_cast<unsigned long long>(r.records),
                  static_cast<unsigned long long>(r.elided_fences),
                  static_cast<unsigned long long>(r.psyncs),
                  r.image_saved ? r.image_path.c_str() : "-");
    s += line;
    for (const std::string& v : r.violations) {
      s += "  violation: " + v + "\n";
    }
  }
  return s;
}

std::unique_ptr<Server> Server::Start(const ServerOptions& opts,
                                      std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg + ": " + std::strerror(errno);
    }
    return nullptr;
  };
  if (opts.nshards == 0 ||
      (opts.shard.backend != "jpdt" && opts.shard.backend != "jpfa")) {
    if (error != nullptr) {
      *error = "bad options: nshards must be > 0, backend jpdt|jpfa";
    }
    return nullptr;
  }
  if (opts.shard.wait_acks > 0 && !opts.shard.repl_log) {
    if (error != nullptr) {
      *error = "bad options: --wait-acks requires the replication log";
    }
    return nullptr;
  }
  PollerKind kind = PollerKind::kEpoll;
  if (opts.poller == "poll") {
    kind = PollerKind::kPoll;
  } else if (opts.poller == "uring") {
    kind = PollerKind::kUring;
  } else if (opts.poller.empty() ? opts.force_poll : opts.poller != "epoll") {
    if (opts.poller.empty()) {
      kind = PollerKind::kPoll;  // legacy force_poll spelling
    } else {
      if (error != nullptr) {
        *error = "bad poller '" + opts.poller + "' (epoll|poll|uring)";
      }
      return nullptr;
    }
  }

  // A flush to a peer that already closed must fail with EPIPE (the loop
  // then closes the connection), not kill the process with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  auto s = std::unique_ptr<Server>(new Server());
  s->opts_ = opts;
  s->opts_.loops = std::min(std::max(opts.loops, 1u), 64u);
  std::string primary_host;
  uint16_t primary_port = 0;
  if (!opts.replica_of.empty()) {
    if (!SplitHostPort(opts.replica_of, &primary_host, &primary_port)) {
      if (error != nullptr) {
        *error = "bad replica_of '" + opts.replica_of + "', expected host:port";
      }
      return nullptr;
    }
    // Replica role: followers with a (mirrored) replication log.
    s->opts_.shard.follower = true;
    s->opts_.shard.repl_log = true;
  }

  const uint32_t nloops = s->opts_.loops;
  for (uint32_t i = 0; i < nloops; ++i) {
    auto lp = std::make_unique<Loop>();
    lp->index = i;
    s->loops_.push_back(std::move(lp));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton(" + opts.host + ")");
  }
  // Opens one listener. `want_reuseport` failing to stick is reported via
  // *rp_ok so the caller can fall back to hand-off mode instead of dying.
  auto open_listener = [&](uint16_t port, bool want_reuseport,
                           bool* rp_ok) -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (want_reuseport) {
      bool ok = false;
#ifdef SO_REUSEPORT
      ok = ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) == 0;
#endif
      if (rp_ok != nullptr) {
        *rp_ok = ok;
      }
      if (!ok) {
        return fd;  // caller decides: single-listener hand-off still works
      }
    }
    sockaddr_in a = addr;
    a.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
        ::listen(fd, 128) != 0) {
      ::close(fd);
      return -1;
    }
    SetNonBlocking(fd);
    return fd;
  };

  // A pool wants one SO_REUSEPORT listener per loop so the kernel spreads
  // accepts; when the kernel (or the options) say no, loop 0 accepts alone
  // and hands fds off round-robin (AcceptPending → fd_inbox).
  bool want_rp = s->opts_.reuseport && nloops > 1;
  bool rp_ok = false;
  const int fd0 = open_listener(opts.port, want_rp, &rp_ok);
  if (fd0 < 0) {
    return fail("bind");
  }
  if (want_rp && !rp_ok) {
    want_rp = false;
    // The socket exists but was never bound; bind it plainly.
    sockaddr_in a = addr;
    a.sin_port = htons(opts.port);
    if (::bind(fd0, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
        ::listen(fd0, 128) != 0) {
      ::close(fd0);
      return fail("bind");
    }
    SetNonBlocking(fd0);
  }
  s->loops_[0]->listen_fd = fd0;
  socklen_t alen = sizeof(addr);
  ::getsockname(fd0, reinterpret_cast<sockaddr*>(&addr), &alen);
  s->port_ = ntohs(addr.sin_port);
  if (want_rp) {
    for (uint32_t i = 1; i < nloops; ++i) {
      bool ok = false;
      const int fd = open_listener(s->port_, /*want_reuseport=*/true, &ok);
      if (fd < 0 || !ok) {
        // Runtime fallback: tear the extra listeners down, loop 0 accepts
        // for everyone.
        if (fd >= 0) {
          ::close(fd);
        }
        for (uint32_t j = 1; j < i; ++j) {
          ::close(s->loops_[j]->listen_fd);
          s->loops_[j]->listen_fd = -1;
        }
        break;
      }
      s->loops_[i]->listen_fd = fd;
    }
  }

  for (auto& lp : s->loops_) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      return fail("pipe");
    }
    lp->wake_r = pipefd[0];
    lp->wake_w = pipefd[1];
    SetNonBlocking(lp->wake_r);
    SetNonBlocking(lp->wake_w);
    lp->poller = Poller::Create(kind);
    if (lp->listen_fd >= 0) {
      lp->poller->Watch(lp->listen_fd, true, false);
    }
    lp->poller->Watch(lp->wake_r, true, false);
  }

  if (opts.cluster) {
    // The slot table opens before the shards: recovery of a torn handoff
    // (RecoverLocked) must settle before any request can route.
    cluster::ClusterOptions copts = opts.cluster_meta;
    if (copts.announce.empty()) {
      copts.announce = opts.host + ":" + std::to_string(s->port_);
    }
    std::string cerr;
    s->cluster_ = cluster::ClusterState::Open(copts, &cerr);
    if (s->cluster_ == nullptr) {
      if (error != nullptr) {
        *error = "cluster meta: " + cerr;
      }
      return nullptr;
    }
  }
  for (uint32_t i = 0; i < opts.nshards; ++i) {
    s->shards_.push_back(Shard::Open(s->opts_.shard, i, s.get()));
  }
  if (opts.nshards <= nloops) {
    // Run-to-completion: loop i executes shard i's batches itself.
    for (uint32_t i = 0; i < opts.nshards; ++i) {
      s->loops_[i]->home = s->shards_[i].get();
    }
  }
  if (s->cluster_ != nullptr) {
    std::vector<Shard*> raw;
    raw.reserve(s->shards_.size());
    for (const auto& sh : s->shards_) {
      raw.push_back(sh.get());
    }
    s->migrator_ =
        std::make_unique<cluster::Migrator>(s->cluster_.get(), std::move(raw));
  }
  {
    std::vector<Shard*> raw;
    raw.reserve(s->shards_.size());
    for (const auto& sh : s->shards_) {
      raw.push_back(sh.get());
    }
    s->ckpt_runner_ =
        std::make_unique<ckpt::CheckpointRunner>(std::move(raw), s.get());
  }
  if (opts.replica_of.empty() && s->opts_.shard.repl_log) {
    // Primary crash recovery (DESIGN.md §9): commit-or-abort every
    // prepared-but-undecided cross-shard txn before the event loops serve
    // clients (single-threaded here: no loop thread has spawned yet).
    // Replicas resolve at PROMOTE instead, once the pull stops.
    s->ResolveCrossShardTxns(*s->loops_[0]);
  }

  for (auto& lp : s->loops_) {
    Loop* raw = lp.get();
    raw->thread = std::thread([s_raw = s.get(), raw] {
      s_raw->EventLoop(*raw);
    });
  }
  if (!opts.replica_of.empty()) {
    std::vector<Shard*> raw;
    raw.reserve(s->shards_.size());
    for (const auto& sh : s->shards_) {
      raw.push_back(sh.get());
    }
    s->repl_client_ = repl::ReplClient::Start(primary_host, primary_port, raw);
  }
  return s;
}

Server::~Server() {
  RequestShutdown();
  Wait();
  for (auto& lp : loops_) {
    if (lp->wake_r >= 0) ::close(lp->wake_r);
    if (lp->wake_w >= 0) ::close(lp->wake_w);
    if (lp->listen_fd >= 0) ::close(lp->listen_fd);
  }
}

bool Server::AnyShardRecovered() const {
  for (const auto& sh : shards_) {
    if (sh->recovered()) {
      return true;
    }
  }
  return false;
}

const char* Server::poller_name() const {
  return loops_.empty() ? "none" : loops_[0]->poller->name();
}

void Server::Wait() {
  for (auto& lp : loops_) {
    if (lp->thread.joinable()) {
      lp->thread.join();
    }
  }
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  // Wake every loop in case it is parked in Wait(); whichever notices first
  // claims coordination (shutdown_claimed_).
  for (auto& lp : loops_) {
    WakeLoop(*lp);
  }
}

uint32_t Server::LoopIndexFor(uint64_t conn_id) const {
  const uint64_t idx = conn_id >> kLoopShift;
  if (idx == 0 || idx > loops_.size()) {
    return 0;  // internal (conn_id 0) work homes on loop 0
  }
  return static_cast<uint32_t>(idx - 1);
}

void Server::WakeLoop(Loop& lp) {
  if (lp.wake_w < 0) {
    return;
  }
  // Self-pipe wakeup. EINTR is retried — a swallowed wake could strand a
  // completion for a full poll timeout. EAGAIN (pipe already full of wake
  // bytes) is fine: the pending byte already guarantees a drain.
  const char b = 'c';
  ssize_t n;
  do {
    n = ::write(lp.wake_w, &b, 1);
  } while (n < 0 && errno == EINTR);
  Bump(lp.counters.wake_writes);
}

void Server::SignalLoop(Loop& lp) {
  // Only the first completion after a drain pays the pipe write; the rest
  // find the wake already pending. seq_cst pairs with the drain's clear:
  // a completion pushed after the drain's swap sees the cleared flag.
  if (!lp.wake_pending.exchange(true)) {
    WakeLoop(lp);
  }
}

bool Server::PostsLocally(const Loop& lp) const {
  // A loop posting to itself skips the lock and the wake-up — unless a
  // cross-thread completion is already pending, which must drain first:
  // stream frames from successive batches keep their seal order whichever
  // executor sealed them.
  return &lp == current_loop_ && !lp.wake_pending.load();
}

void Server::OnCompletion(Completion&& c) {
  Loop& lp = LoopFor(c.conn_id);
  if (PostsLocally(lp)) {
    lp.local_completions.push_back(std::move(c));
    return;
  }
  {
    std::lock_guard<std::mutex> lk(lp.mu);
    lp.completions.push_back(std::move(c));
  }
  SignalLoop(lp);
}

void Server::OnCompletions(std::vector<Completion>& cs) {
  // Called from shard workers and from any loop (inline batches and joins).
  // The loop index rides in the conn id's high bits, so every completion
  // source — batch replies, released WAIT parks, released session reads,
  // stream frames, txn phase joins — lands on the loop owning the
  // connection, taking each destination's lock once per call.
  uint64_t targets = 0;  // bit i: loop i receives something (loops <= 64)
  for (const Completion& c : cs) {
    targets |= 1ull << LoopIndexFor(c.conn_id);
  }
  while (targets != 0) {
    const uint32_t li = static_cast<uint32_t>(__builtin_ctzll(targets));
    targets &= targets - 1;
    Loop& lp = *loops_[li];
    const auto take = [&](std::vector<Completion>& dst) {
      for (Completion& c : cs) {
        if (LoopIndexFor(c.conn_id) == li) {
          if (c.frame != nullptr) {
            // Counted at hand-off, not at drain: frames ship before their
            // batch's replies, so a STATS read after the ack includes them
            // even when the subscriber's loop has not drained yet.
            Bump(lp.counters.frame_refs);
            Bump(lp.counters.frame_bytes, c.frame->size());
          }
          dst.push_back(std::move(c));
        }
      }
    };
    if (PostsLocally(lp)) {
      take(lp.local_completions);
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(lp.mu);
      take(lp.completions);
    }
    SignalLoop(lp);
  }
  cs.clear();
}

void Server::EventLoop(Loop& lp) {
  current_loop_ = &lp;
  std::vector<Poller::Event> events;
  for (;;) {
    // Work this thread owes itself (a bounded pass left some, or posted
    // completions are undrained) only peeks at readiness.
    const bool busy = lp.home_work || !lp.local_completions.empty();
    lp.poller->Wait(&events, busy ? 0 : 100);
    // External shutdown request (RequestShutdown / ~Server): exactly one
    // loop claims coordination; the rest follow the phase variable.
    if (shutdown_requested_.load(std::memory_order_acquire) &&
        shutdown_phase_.load(std::memory_order_acquire) == 0 &&
        !shutdown_claimed_.exchange(true, std::memory_order_acq_rel)) {
      DoShutdown(lp, /*conn_id=*/0, /*seq=*/0);
    }
    const int phase = shutdown_phase_.load(std::memory_order_acquire);
    if (phase >= 1) {
      StopIntake(lp);
    }
    if (phase >= 2) {
      FinishLoop(lp);
    }
    if (lp.exiting) {
      return;
    }
    // Periodic work rides the wait timeout: expire WAIT-K parked batches
    // (degraded -WAITTIMEOUT delivery), expire parked session reads to
    // -STALE, and re-drive stalled submissions. One loop ticks the shared
    // shard timers; every loop re-drives its own stalled work.
    if (lp.index == 0 && phase == 0) {
      const uint64_t now_ms = NowNs() / 1000000ull;
      for (auto& sh : shards_) {
        sh->TickWait(now_ms);
        sh->TickReadStale(now_ms);
      }
      // Periodic fuzzy checkpoint (DESIGN.md §11). Primaries only: a
      // replica's log truncates when the primary's checkpoint streams
      // through. Trigger refuses (false) while a pass is still running —
      // the timer just retries next interval.
      if (opts_.ckpt_interval_ms > 0 && opts_.replica_of.empty() &&
          opts_.shard.repl_log) {
        if (last_ckpt_ms_ == 0) {
          last_ckpt_ms_ = now_ms;
        } else if (now_ms - last_ckpt_ms_ >= opts_.ckpt_interval_ms &&
                   ckpt_runner_->Trigger(/*conn_id=*/0, /*seq=*/0)) {
          last_ckpt_ms_ = now_ms;
        }
      }
    }
    RetryStalled(lp);
    RetryTxnPending(lp);
    for (const Poller::Event& ev : events) {
      if (lp.exiting) {
        break;
      }
      if (ev.fd == lp.listen_fd && lp.listen_fd >= 0) {
        AcceptPending(lp);
        continue;
      }
      if (ev.fd == lp.wake_r) {
        char buf[256];
        ssize_t n;
        do {
          n = ::read(lp.wake_r, buf, sizeof(buf));
        } while (n > 0 || (n < 0 && errno == EINTR));
        DrainFdInbox(lp);
        DrainCompletions(lp);
        continue;
      }
      const auto it = lp.by_fd.find(ev.fd);
      if (it == lp.by_fd.end()) {
        continue;  // closed earlier this round
      }
      const uint64_t id = it->second;
      if (ev.error) {
        CloseConn(lp, id);
        continue;
      }
      if (ev.writable) {
        HandleWritable(lp, *lp.conns[id]);
        if (lp.conns.find(id) == lp.conns.end()) {
          continue;
        }
      }
      if (ev.readable) {
        HandleReadable(lp, *lp.conns[id]);
      }
    }
    if (!lp.exiting) {
      RunHomeShard(lp);
    }
  }
}

void Server::RunHomeShard(Loop& lp) {
  if (lp.home_work) {
    // Everything this round queued on the home shard becomes its group
    // commit, executed here — no worker wake-up, no completion hand-off.
    lp.home_work = lp.home->RunInline();
  }
  if (!lp.local_completions.empty()) {
    DrainCompletions(lp);  // flushes in this same round
  }
}

Shard::SubmitResult Server::TrySubmitFrom(Loop& lp, uint32_t shard_idx,
                                          Request&& req) {
  Shard* sh = shards_[shard_idx].get();
  const bool inline_run = &lp == current_loop_ && lp.home == sh;
  const Shard::SubmitResult r = sh->TrySubmit(std::move(req), !inline_run);
  if (inline_run && r == Shard::SubmitResult::kOk) {
    lp.home_work = true;
  }
  return r;
}

void Server::AcceptPending(Loop& lp) {
  // Hand-off mode iff the pool has more than one loop but only loop 0 holds
  // a listener (no SO_REUSEPORT): loop 0 accepts and deals fds round-robin.
  const bool handoff = loops_.size() > 1 && loops_[1]->listen_fd < 0;
  for (;;) {
    const int fd = ::accept(lp.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;  // interrupted by a signal: the backlog is still there
      }
      if (errno == ECONNABORTED) {
        continue;  // peer gave up while queued; next one may be fine
      }
      return;  // EAGAIN or a real error: nothing more to accept now
    }
    if (!handoff) {
      RegisterConn(lp, fd);
      continue;
    }
    Loop& target = *loops_[rr_next_++ % loops_.size()];
    if (&target == &lp) {
      RegisterConn(lp, fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(target.mu);
      target.fd_inbox.push_back(fd);
    }
    WakeLoop(target);
  }
}

void Server::RegisterConn(Loop& lp, int fd) {
  SetNonBlocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  // Loop index in the high bits (loop 1 = pool index 0) so completions can
  // route home; id 0 keeps meaning "internal".
  conn->id = (static_cast<uint64_t>(lp.index + 1) << kLoopShift) |
             (lp.next_conn++ & ((1ull << kLoopShift) - 1));
  conn->parser.set_max_buffer(opts_.max_conn_in_bytes);
  lp.by_fd[fd] = conn->id;
  lp.poller->Watch(fd, true, false);
  Bump(lp.counters.accepted);
  lp.counters.open_conns.fetch_add(1, std::memory_order_relaxed);
  lp.conns.emplace(conn->id, std::move(conn));
}

void Server::DrainFdInbox(Loop& lp) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lk(lp.mu);
    fds.swap(lp.fd_inbox);
  }
  for (const int fd : fds) {
    if (lp.intake_stopped) {
      ::close(fd);  // arrived after quiesce began: never a client
      continue;
    }
    RegisterConn(lp, fd);
  }
}

void Server::CloseConn(Loop& lp, uint64_t id) {
  const auto it = lp.conns.find(id);
  if (it == lp.conns.end()) {
    return;
  }
  for (auto& sh : shards_) {
    sh->Unsubscribe(id);  // no-op unless `id` held a REPLSYNC stream
  }
  lp.poller->Forget(it->second->fd);
  lp.by_fd.erase(it->second->fd);
  ::close(it->second->fd);
  lp.conns.erase(it);
  lp.counters.open_conns.fetch_sub(1, std::memory_order_relaxed);
}

void Server::HandleReadable(Loop& lp, Conn& conn) {
  if (conn.closing) {
    return;  // draining replies; further input is ignored
  }
  if (conn.paused || lp.intake_stopped) {
    return;  // backpressure / quiesce: leave the bytes in the kernel buffer
  }
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.parser.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) {
        break;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(lp, conn.id);
      return;
    }
    if (errno == EINTR) {
      continue;  // interrupted by a signal, not a socket failure
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    CloseConn(lp, conn.id);
    return;
  }

  ProcessInput(lp, conn);
  if (lp.exiting || lp.conns.find(conn.id) == lp.conns.end()) {
    return;
  }
  if (conn.WantsWrite()) {
    HandleWritable(lp, conn);
  } else if (conn.closing && conn.inflight == 0) {
    CloseConn(lp, conn.id);
  }
}

void Server::ProcessInput(Loop& lp, Conn& conn) {
  std::vector<std::string> args;
  std::string perr;
  while (!conn.paused && !lp.intake_stopped) {
    const RespParser::Status st = conn.parser.Next(&args, &perr);
    if (st == RespParser::Status::kNeedMore) {
      return;
    }
    if (st == RespParser::Status::kError) {
      // Protocol violation (or input-cap overflow): this connection's
      // stream position is lost, so reply -ERR and close it once pending
      // replies drain. Other connections are unaffected.
      if (conn.parser.overflowed()) {
        Bump(lp.counters.in_overflows);
      } else {
        Bump(lp.counters.protocol_errors);
      }
      CompleteInline(conn, conn.next_seq++, [&] {
        std::string r;
        AppendError(&r, "protocol error: " + perr);
        return r;
      }());
      conn.closing = true;
      return;
    }
    Bump(lp.counters.commands);
    if (!Dispatch(lp, conn, args)) {
      conn.closing = true;
      return;
    }
    if (lp.exiting) {
      return;  // SHUTDOWN handled inside Dispatch; conns are gone
    }
  }
}

void Server::HandleWritable(Loop& lp, Conn& conn) {
  // Scatter-gather flush: up to kFlushIovecs chunks per writev() — shared
  // frames and coalesced tails alike go out in one syscall. A partial write
  // leaves the resume offset mid-chunk; ConsumeOut pops what the kernel
  // accepted (releasing owned buffers and shared-frame refs).
  static constexpr size_t kFlushIovecs = 64;
  struct iovec iov[kFlushIovecs];
  while (conn.WantsWrite()) {
    const size_t niov = conn.BuildIovecs(iov, kFlushIovecs);
    const ssize_t n = ::writev(conn.fd, iov, static_cast<int>(niov));
    if (n > 0) {
      Bump(lp.counters.flush_syscalls);
      Bump(lp.counters.flushed_bytes, static_cast<uint64_t>(n));
      Bump(lp.counters.flush_chunks, niov);
      conn.ConsumeOut(static_cast<size_t>(n));
      continue;
    }
    if (errno == EINTR) {
      continue;  // interrupted by a signal, not a socket failure
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      lp.poller->Watch(conn.fd, !conn.paused && !lp.intake_stopped, true);
      return;
    }
    CloseConn(lp, conn.id);
    return;
  }
  lp.poller->Watch(conn.fd, !conn.paused && !lp.intake_stopped, false);
  if (conn.closing && conn.inflight == 0 && conn.replies.empty()) {
    CloseConn(lp, conn.id);
  }
}

void Server::PauseReads(Loop& lp, Conn& conn) {
  if (conn.paused) {
    return;
  }
  conn.paused = true;
  lp.poller->Watch(conn.fd, false, conn.WantsWrite());
  lp.stalled_conns.push_back(conn.id);
}

bool Server::SubmitOrStall(Loop& lp, Conn& conn, uint32_t shard_idx,
                           Request&& req) {
  if (conn.stalled.empty()) {
    switch (TrySubmitFrom(lp, shard_idx, std::move(req))) {
      case Shard::SubmitResult::kOk:
        return true;
      case Shard::SubmitResult::kStopped:
        return false;
      case Shard::SubmitResult::kFull:
        break;  // kFull left req intact: stall it below
    }
  }
  // Either the shard is full or earlier requests of this connection are
  // already stalled (order must hold). Park the request and read-pause.
  conn.stalled.push_back(StalledRequest{shard_idx, std::move(req)});
  PauseReads(lp, conn);
  return true;
}

void Server::RetryStalled(Loop& lp) {
  if (lp.stalled_conns.empty()) {
    return;
  }
  // Swap out the list: PauseReads may append to stalled_conns while we
  // re-run ProcessInput below (a resumed connection can stall again).
  std::vector<uint64_t> work;
  work.swap(lp.stalled_conns);
  for (const uint64_t id : work) {
    const auto it = lp.conns.find(id);
    if (it == lp.conns.end()) {
      continue;  // connection closed while stalled
    }
    Conn& conn = *it->second;
    while (!conn.stalled.empty()) {
      StalledRequest& front = conn.stalled.front();
      const Shard::SubmitResult r =
          TrySubmitFrom(lp, front.shard, std::move(front.req));
      if (r == Shard::SubmitResult::kFull) {
        break;
      }
      if (r == Shard::SubmitResult::kStopped) {
        FailStalledRequest(lp, conn, front.req);
      }
      conn.stalled.pop_front();
    }
    if (!conn.stalled.empty()) {
      lp.stalled_conns.push_back(id);  // still blocked; stay paused
      continue;
    }
    if (lp.intake_stopped) {
      // Quiescing: the stall queue drained (or failed against stopping
      // shards) — flush what resolved but do not resume parsing.
      conn.paused = false;
      if (conn.WantsWrite()) {
        HandleWritable(lp, conn);
      }
      continue;
    }
    // Drained: resume reading and the commands buffered before the pause.
    conn.paused = false;
    lp.poller->Watch(conn.fd, true, conn.WantsWrite());
    ProcessInput(lp, conn);
    if (lp.exiting || lp.conns.find(id) == lp.conns.end()) {
      continue;
    }
    if (conn.WantsWrite()) {
      HandleWritable(lp, conn);
    } else if (conn.closing && conn.inflight == 0) {
      CloseConn(lp, conn.id);
    }
  }
}

// A stalled request met a stopping shard (shutdown). Resolve its reply slot
// so the connection does not hang on a reply that can never come.
void Server::FailStalledRequest(Loop& lp, Conn& conn, Request& req) {
  std::string r;
  AppendError(&r, "server shutting down");
  if (req.multi != nullptr) {
    req.multi->Fail("ERR server shutting down");
    if (req.multi->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Every part of a multi was submitted from the owning connection's
      // loop, so the join target lives here too.
      const auto target = lp.conns.find(req.multi->conn_id);
      if (target != lp.conns.end()) {
        JNVM_DCHECK(target->second->inflight > 0);
        --target->second->inflight;
        std::string joined;
        {
          std::lock_guard<std::mutex> lk(req.multi->err_mu);
          AppendErrorCode(&joined, req.multi->error);
        }
        CompleteInline(*target->second, req.multi->seq, std::move(joined));
      }
    }
    return;
  }
  if (req.conn_id != 0) {
    JNVM_DCHECK(conn.inflight > 0);
    --conn.inflight;
    CompleteInline(conn, req.seq, std::move(r));
  }
}

void Server::CompleteInline(Conn& conn, uint64_t seq, std::string&& reply) {
  // If this seq was next in line the bytes land in `out` now; they go out
  // in HandleReadable's tail flush or on the next POLLOUT.
  conn.Complete(seq, std::move(reply));
}

bool Server::Dispatch(Loop& lp, Conn& conn, std::vector<std::string>& args) {
  const std::string cmd = Upper(args[0]);
  if (cmd == "REPLACK") {
    // Ack frame from a REPLSYNC subscriber: REPLACK <shard> <seq> certifies
    // that the replica's log is durable through <seq>. One-way — it gets no
    // reply and consumes no command sequence, so it neither occupies the
    // reorder buffer nor corrupts the stream framing the follower reads.
    uint32_t idx = 0;
    uint64_t acked = 0;
    if (args.size() != 3 || !ParseU32(args[1], &idx) ||
        idx >= shards_.size() || !ParseU64(args[2], &acked)) {
      Bump(lp.counters.protocol_errors);
      return false;  // malformed ack: drop the stream connection
    }
    shards_[idx]->Ack(conn.id, acked);
    return true;
  }
  const uint64_t seq = conn.next_seq++;
  auto inline_error = [&](const std::string& msg) {
    std::string r;
    AppendError(&r, msg);
    CompleteInline(conn, seq, std::move(r));
    return true;
  };
  // Error replies whose first token IS the code (-MOVED, -ASK, -TRYAGAIN,
  // -CLUSTERDOWN, -BADCONFIG) rather than the generic -ERR prefix.
  auto inline_code = [&](const std::string& msg) {
    std::string r;
    AppendErrorCode(&r, msg);
    CompleteInline(conn, seq, std::move(r));
    return true;
  };

  // ---- Transactions (DESIGN.md §9): MULTI queues, EXEC runs, DISCARD drops.
  if (cmd == "MULTI") {
    if (conn.in_multi) {
      return inline_error("MULTI calls can not be nested");
    }
    conn.in_multi = true;
    conn.txn_dirty = false;
    conn.txn_cmds.clear();
    std::string r;
    AppendSimple(&r, "OK");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cmd == "DISCARD") {
    if (!conn.in_multi) {
      return inline_error("DISCARD without MULTI");
    }
    conn.in_multi = false;
    conn.txn_dirty = false;
    conn.txn_cmds.clear();
    std::string r;
    AppendSimple(&r, "OK");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cmd == "EXEC") {
    if (args.size() != 1) {
      return inline_error("wrong number of arguments for EXEC");
    }
    if (!conn.in_multi) {
      return inline_error("EXEC without MULTI");
    }
    return DispatchExec(lp, conn, seq);
  }
  if (conn.in_multi) {
    // Queue time: only the data subset (SET/GET/DEL) may ride in a txn, and
    // any queue-time error dirties it — EXEC then refuses the whole batch
    // with -TXNABORT rather than executing a half-valid txn.
    if (cmd == "SET" || cmd == "GET" || cmd == "DEL") {
      const size_t want = cmd == "SET" ? 3 : 2;
      if (args.size() != want) {
        conn.txn_dirty = true;
        return inline_error("wrong number of arguments for " + cmd);
      }
      if (conn.txn_cmds.size() >= kMaxArgs) {
        conn.txn_dirty = true;
        return inline_error("transaction exceeds " + std::to_string(kMaxArgs) +
                            " commands");
      }
      args[0] = cmd;  // canonical upper case for DispatchExec
      conn.txn_cmds.push_back(std::move(args));
      std::string r;
      AppendSimple(&r, "QUEUED");
      CompleteInline(conn, seq, std::move(r));
      return true;
    }
    conn.txn_dirty = true;
    return inline_error("command not allowed in MULTI: " + cmd);
  }

  if (cmd == "PING") {
    std::string r;
    AppendSimple(&r, "PONG");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cmd == "SET" || cmd == "GET" || cmd == "DEL" || cmd == "TOUCH" ||
      cmd == "HSET") {
    Request req;
    if (cmd == "SET") {
      if (args.size() != 3) {
        return inline_error("wrong number of arguments for SET");
      }
      req.op = Request::Op::kSet;
      req.value = std::move(args[2]);
    } else if (cmd == "HSET") {
      if (args.size() != 4) {
        return inline_error("wrong number of arguments for HSET");
      }
      uint32_t field;
      if (!ParseU32(args[2], &field)) {
        return inline_error("HSET field must be a decimal index");
      }
      req.op = Request::Op::kHset;
      req.field = field;
      req.value = std::move(args[3]);
    } else {
      if (args.size() != 2) {
        return inline_error("wrong number of arguments for " + cmd);
      }
      req.op = cmd == "GET"   ? Request::Op::kGet
               : cmd == "DEL" ? Request::Op::kDel
                              : Request::Op::kTouch;
    }
    req.key = std::move(args[1]);
    if (cluster_ != nullptr) {
      const bool asking = conn.asking;
      conn.asking = false;  // one-shot: ASKING covers exactly one command
      if (RouteClusterKey(lp, conn, seq, req.key, asking, &req)) {
        return true;  // redirect answered inline
      }
    }
    req.conn_id = conn.id;
    req.seq = seq;
    const uint32_t idx = ShardFor(req.key, static_cast<uint32_t>(shards_.size()));
    if (req.op == Request::Op::kGet || req.op == Request::Op::kTouch) {
      req.min_seq = conn.MinSeqFor(idx);
    }
    ++conn.inflight;
    if (req.min_seq > 0) {
      // Session read: when the shard's applied watermark is behind the
      // connection's MINSEQ token the shard parks the read (released by the
      // apply batch that catches up, or -STALE on timeout/overflow). kReady
      // leaves the request untouched and it submits like any other read.
      // The release routes back to this loop by conn id, wherever the
      // MINSEQ token was minted.
      switch (shards_[idx]->GateSessionRead(req, NowNs() / 1000000ull)) {
        case Shard::ReadGate::kReady:
          break;
        case Shard::ReadGate::kParked:
        case Shard::ReadGate::kStale:
          return true;  // the shard owns the completion now
      }
    }
    if (!SubmitOrStall(lp, conn, idx, std::move(req))) {
      --conn.inflight;
      return inline_error("server shutting down");
    }
    return true;
  }
  if (cmd == "MINSEQ" || cmd == "LASTSEQ") {
    // Session-consistency plane. MINSEQ <shard> <seq> raises this
    // connection's read floor for the shard (monotone; answered inline).
    // LASTSEQ <shard> runs as a singleton control batch on the shard worker
    // and replies the sealed watermark — on a primary that covers every
    // write the connection pipelined before it, which is exactly the token
    // a client needs for read-your-writes on a replica.
    const size_t want = cmd == "MINSEQ" ? 3 : 2;
    uint32_t idx = 0;
    if (args.size() != want || !ParseU32(args[1], &idx) ||
        idx >= shards_.size()) {
      return inline_error(cmd + " expects a shard index" +
                          (cmd == "MINSEQ" ? " and a sequence number" : ""));
    }
    if (cmd == "MINSEQ") {
      uint64_t mseq = 0;
      if (!ParseU64(args[2], &mseq)) {
        return inline_error("MINSEQ seq must be a decimal sequence number");
      }
      conn.RaiseMinSeq(idx, mseq);
      std::string r;
      AppendSimple(&r, "OK");
      CompleteInline(conn, seq, std::move(r));
      return true;
    }
    Request req;
    req.op = Request::Op::kLastSeq;
    req.conn_id = conn.id;
    req.seq = seq;
    ++conn.inflight;
    if (!SubmitOrStall(lp, conn, idx, std::move(req))) {
      --conn.inflight;
      return inline_error("server shutting down");
    }
    return true;
  }
  if (cmd == "MSET") {
    if (args.size() < 3 || (args.size() - 1) % 2 != 0) {
      return inline_error("wrong number of arguments for MSET");
    }
    const uint32_t pairs = static_cast<uint32_t>((args.size() - 1) / 2);
    if (cluster_ != nullptr) {
      // Multi-key commands cannot follow an -ASK (one redirect, many slots),
      // so every key's slot must be plainly local — owned here and not
      // mid-migration. The first offending key decides the refusal.
      conn.asking = false;
      for (uint32_t i = 0; i < pairs; ++i) {
        const uint16_t slot = cluster::SlotForKey(args[1 + 2 * i]);
        const cluster::Route rt = cluster_->Lookup(slot, /*asking=*/false);
        if (rt.action == cluster::Route::Action::kLocal && !rt.migrating) {
          continue;
        }
        if (rt.action == cluster::Route::Action::kMoved) {
          Bump(lp.counters.moved_replies);
          return inline_code("MOVED " + std::to_string(slot) + " " + rt.addr);
        }
        if (rt.action == cluster::Route::Action::kDown) {
          return inline_code("CLUSTERDOWN slot " + std::to_string(slot) +
                             " is unassigned");
        }
        return inline_code("TRYAGAIN slot " + std::to_string(slot) +
                           " is migrating; multi-key commands need stable "
                           "slots");
      }
    }
    auto multi = std::make_shared<MultiOp>();
    multi->remaining.store(pairs, std::memory_order_relaxed);
    multi->conn_id = conn.id;
    multi->seq = seq;
    ++conn.inflight;
    for (uint32_t i = 0; i < pairs; ++i) {
      Request req;
      req.op = Request::Op::kSet;
      req.key = std::move(args[1 + 2 * i]);
      req.value = std::move(args[2 + 2 * i]);
      req.multi = multi;
      const uint32_t idx =
          ShardFor(req.key, static_cast<uint32_t>(shards_.size()));
      if (!SubmitOrStall(lp, conn, idx, std::move(req))) {
        // Parts already queued still execute but the joined reply can no
        // longer be produced; fail the command now. The connection is
        // closing with the server anyway.
        --conn.inflight;
        return inline_error("server shutting down");
      }
    }
    return true;
  }
  if (cmd == "REPLSYNC" || cmd == "REPLSNAP" || cmd == "REPLDIFF") {
    // REPLSYNC <shard> <from> [nshards [epoch]]: the optional arguments let
    // the replica prove its configuration matches before the connection
    // becomes a one-way record feed. A mismatch is a hard, explicit
    // -BADCONFIG — a replica with a different shard count would route keys
    // to the wrong shards, and a different config epoch means the two nodes
    // disagree about slot ownership; silently streaming would corrupt it.
    //
    // REPLDIFF <shard> <from> <digests> [nshards [epoch]] (DESIGN.md §11)
    // is REPLSYNC plus proof: <digests> carries the follower's per-segment
    // CRC digests, verified against the retained log before the stream
    // starts. Divergence answers -DIFFBASE (take a REPLSNAP) instead of
    // silently feeding records onto mismatched history.
    const bool sync = cmd == "REPLSYNC";
    const bool diff = cmd == "REPLDIFF";
    const size_t lo = diff ? 4 : 3, hi = diff ? 6 : 5;
    if ((sync || diff) ? (args.size() < lo || args.size() > hi)
                       : args.size() != 2) {
      return inline_error("wrong number of arguments for " + cmd);
    }
    uint32_t idx = 0;
    if (!ParseU32(args[1], &idx) || idx >= shards_.size()) {
      return inline_error(cmd + " shard index out of range");
    }
    Request req;
    if (sync || diff) {
      uint64_t from = 0;
      if (!ParseU64(args[2], &from) || from == 0) {
        return inline_error(cmd + " from-seq must be >= 1");
      }
      const size_t opt = diff ? 4 : 3;  // first optional-arg index
      if (args.size() >= opt + 1) {
        uint32_t nshards = 0;
        if (!ParseU32(args[opt], &nshards)) {
          return inline_error(cmd + " nshards must be decimal");
        }
        if (nshards != shards_.size()) {
          return inline_code("BADCONFIG shard count mismatch: primary has " +
                             std::to_string(shards_.size()) +
                             " shards, replica has " + std::to_string(nshards));
        }
      }
      if (args.size() == opt + 2) {
        uint64_t epoch = 0;
        if (!ParseU64(args[opt + 1], &epoch)) {
          return inline_error(cmd + " epoch must be decimal");
        }
        const uint64_t mine = cluster_ != nullptr ? cluster_->epoch() : 0;
        if (epoch != mine) {
          return inline_code("BADCONFIG config epoch mismatch: primary at " +
                             std::to_string(mine) + ", replica at " +
                             std::to_string(epoch));
        }
      }
      req.op = diff ? Request::Op::kReplDiff : Request::Op::kReplSync;
      req.repl_seq = from;
      if (diff) {
        req.value = std::move(args[3]);  // the digest frame
      }
    } else {
      req.op = Request::Op::kReplSnap;
    }
    req.conn_id = conn.id;
    req.seq = seq;
    ++conn.inflight;
    if (!SubmitOrStall(lp, conn, idx, std::move(req))) {
      --conn.inflight;
      return inline_error("server shutting down");
    }
    return true;
  }
  if (cmd == "PROMOTE") {
    if (args.size() != 1) {
      return inline_error("wrong number of arguments for PROMOTE");
    }
    // Quiesce the pull side first: joins every pull thread, so no kApply
    // can land after the audit below starts.
    if (repl_client_ != nullptr) {
      repl_client_->Stop();
    }
    // Resolve staged cross-shard txns against the mirrored decision records
    // before the audit/flip: the resolution requests queue ahead of each
    // shard's kPromote, so a txn whose decision reached this replica commits
    // and the rest abort — never a silent partial apply.
    ResolveCrossShardTxns(lp);
    auto multi = std::make_shared<MultiOp>();
    multi->remaining.store(static_cast<uint32_t>(shards_.size()),
                           std::memory_order_relaxed);
    multi->conn_id = conn.id;
    multi->seq = seq;
    // Two-phase: each shard only audits; the join flips this whole list
    // writable iff every audit passed (see MultiOp::promote_shards).
    multi->promote_shards.reserve(shards_.size());
    for (auto& sh : shards_) {
      multi->promote_shards.push_back(sh.get());
    }
    ++conn.inflight;
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      Request req;
      req.op = Request::Op::kPromote;
      req.multi = multi;
      if (!SubmitOrStall(lp, conn, i, std::move(req))) {
        --conn.inflight;
        return inline_error("server shutting down");
      }
    }
    return true;
  }
  // ---- Cluster plane (DESIGN.md §10) ---------------------------------------
  if (cmd == "ASKING") {
    if (cluster_ == nullptr) {
      return inline_error("cluster support is disabled");
    }
    conn.asking = true;
    std::string r;
    AppendSimple(&r, "OK");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cmd == "CLUSTER") {
    return DispatchCluster(conn, seq, args);
  }
  if (cmd == "MIGSTART") {
    return DispatchMigStart(lp, conn, seq, args);
  }
  if (cmd == "MIGAPPLY") {
    return DispatchMigApply(lp, conn, seq, args);
  }
  if (cmd == "MIGCOMMIT") {
    // THE commit point of a migration: the importing range's owner words
    // flip to this node, durably, before the +OK goes back to the source.
    uint32_t lo = 0, hi = 0;
    uint64_t epoch = 0;
    if (cluster_ == nullptr) {
      return inline_error("cluster support is disabled");
    }
    if (args.size() != 4 || !ParseU32(args[1], &lo) || !ParseU32(args[2], &hi) ||
        !ParseU64(args[3], &epoch)) {
      return inline_error("MIGCOMMIT expects lo hi epoch");
    }
    std::string err;
    if (!cluster_->CommitImport(lo, hi, epoch, &err)) {
      return inline_error("MIGCOMMIT: " + err);
    }
    std::string r;
    AppendSimple(&r, "OK");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cmd == "MIGABORT") {
    // Best-effort from a rolling-back source; always +OK — an import that
    // already ended (or never started) needs nothing. The keys a dead
    // import copied are unserved (owners still name the source) and the
    // next MIGSTART purges the range before copying again.
    if (cluster_ == nullptr) {
      return inline_error("cluster support is disabled");
    }
    std::string err;
    cluster_->AbortImport(&err);
    std::string r;
    AppendSimple(&r, "OK");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cmd == "CKPT") {
    // Fuzzy checkpoint over every shard (DESIGN.md §11). The runner drives
    // the walk + finalize from its own thread and posts the reply through
    // the completion sink when the pass ends — the loop never blocks.
    if (args.size() != 1) {
      return inline_error("wrong number of arguments for CKPT");
    }
    if (!opts_.shard.repl_log) {
      return inline_error("CKPT requires the replication log");
    }
    ++conn.inflight;
    if (!ckpt_runner_->Trigger(conn.id, seq)) {
      --conn.inflight;
      return inline_code("BUSY checkpoint already running");
    }
    return true;
  }
  if (cmd == "STATS") {
    std::string r;
    AppendBulk(&r, BuildStats(lp));
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cmd == "SHUTDOWN") {
    // One loop coordinates a shutdown; a second SHUTDOWN racing it (from any
    // loop) gets an explicit refusal instead of a second quiesce.
    if (shutdown_claimed_.exchange(true, std::memory_order_acq_rel)) {
      return inline_error("shutdown already in progress");
    }
    DoShutdown(lp, conn.id, seq);
    return true;
  }
  return inline_error("unknown command '" + args[0] + "'");
}

// ---- Cluster plane (DESIGN.md §10) ------------------------------------------

bool Server::RouteClusterKey(Loop& lp, Conn& conn, uint64_t seq,
                             const std::string& key, bool asking,
                             Request* req) {
  const uint16_t slot = cluster::SlotForKey(key);
  const cluster::Route rt = cluster_->Lookup(slot, asking);
  std::string r;
  switch (rt.action) {
    case cluster::Route::Action::kLocal:
      if (rt.migrating && !rt.addr.empty()) {
        // Serve here, but a key miss now means "already moved (or never
        // existed)": the shard answers -ASK <slot> <addr> instead of a
        // plain miss, and writes of missing keys redirect the same way.
        req->ask_addr = std::to_string(slot) + " " + rt.addr;
      }
      return false;
    case cluster::Route::Action::kMoved:
      Bump(lp.counters.moved_replies);
      AppendErrorCode(&r, "MOVED " + std::to_string(slot) + " " + rt.addr);
      break;
    case cluster::Route::Action::kTryAgain:
      AppendErrorCode(&r, "TRYAGAIN slot " + std::to_string(slot) +
                              " is frozen for handoff");
      break;
    case cluster::Route::Action::kDown:
      AppendErrorCode(&r, "CLUSTERDOWN slot " + std::to_string(slot) +
                              " is unassigned");
      break;
  }
  CompleteInline(conn, seq, std::move(r));
  return true;
}

bool Server::DispatchCluster(Conn& conn, uint64_t seq,
                             std::vector<std::string>& args) {
  auto reply_err = [&](const std::string& msg) {
    std::string r;
    AppendError(&r, msg);
    CompleteInline(conn, seq, std::move(r));
    return true;
  };
  auto reply_ok = [&] {
    std::string r;
    AppendSimple(&r, "OK");
    CompleteInline(conn, seq, std::move(r));
    return true;
  };
  if (cluster_ == nullptr) {
    return reply_err("cluster support is disabled");
  }
  if (args.size() < 2) {
    return reply_err("CLUSTER expects a subcommand");
  }
  const std::string sub = Upper(args[1]);
  if (sub == "MEET") {
    // CLUSTER MEET <index> <host:port> — register a peer in the node table.
    uint32_t idx = 0;
    if (args.size() != 4 || !ParseU32(args[2], &idx)) {
      return reply_err("CLUSTER MEET expects index host:port");
    }
    std::string err;
    if (!cluster_->Meet(idx, args[3], &err)) {
      return reply_err("CLUSTER MEET: " + err);
    }
    return reply_ok();
  }
  if (sub == "SLOTS") {
    // One bulk "lo hi host:port" per contiguous owned run — the client's
    // slot-cache bootstrap.
    std::vector<std::string> runs;
    uint16_t run_owner = cluster::kNoOwner;
    uint32_t run_lo = 0;
    const auto flush = [&](uint32_t end_exclusive) {
      if (run_owner == cluster::kNoOwner) {
        return;
      }
      const std::string addr = cluster_->NodeAddr(run_owner);
      if (!addr.empty()) {
        runs.push_back(std::to_string(run_lo) + " " +
                       std::to_string(end_exclusive - 1) + " " + addr);
      }
    };
    for (uint32_t slot = 0; slot < cluster::kNumSlots; ++slot) {
      const uint16_t o = cluster_->OwnerOf(static_cast<uint16_t>(slot));
      if (o != run_owner) {
        flush(slot);
        run_owner = o;
        run_lo = slot;
      }
    }
    flush(cluster::kNumSlots);
    std::string r;
    AppendArrayHeader(&r, runs.size());
    for (const std::string& run : runs) {
      AppendBulk(&r, run);
    }
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (sub == "SETSLOT") {
    if (args.size() < 3) {
      return reply_err("CLUSTER SETSLOT expects ASSIGN or MIGRATE");
    }
    const std::string verb = Upper(args[2]);
    uint32_t lo = 0, hi = 0, node = 0;
    if (args.size() < 6 || !ParseU32(args[3], &lo) || !ParseU32(args[4], &hi) ||
        !ParseU32(args[5], &node)) {
      return reply_err("CLUSTER SETSLOT " + verb + " expects lo hi node");
    }
    if (verb == "ASSIGN") {
      // Static assignment (bootstrap / tests): rewrite the range's owner
      // words and bump the epoch. No data moves.
      std::string err;
      if (!cluster_->AssignRange(lo, hi, node, &err)) {
        return reply_err("CLUSTER SETSLOT ASSIGN: " + err);
      }
      return reply_ok();
    }
    if (verb == "MIGRATE") {
      // Live migration: spawns the Migrator thread; progress via CLUSTER
      // INFO. The optional throttle widens the crash window for CI.
      cluster::MigrateOptions mo;
      mo.lo = lo;
      mo.hi = hi;
      mo.peer = node;
      if (args.size() >= 7) {
        uint32_t throttle = 0;
        if (!ParseU32(args[6], &throttle)) {
          return reply_err("CLUSTER SETSLOT MIGRATE: bad throttle_ms");
        }
        mo.throttle_ms = throttle;
      }
      std::string err;
      if (!migrator_->Start(mo, &err)) {
        return reply_err("CLUSTER SETSLOT MIGRATE: " + err);
      }
      return reply_ok();
    }
    return reply_err("CLUSTER SETSLOT expects ASSIGN or MIGRATE");
  }
  if (sub == "INFO") {
    std::string text = cluster_->Describe();
    text += "migrator:" + migrator_->status() + "\n";
    uint32_t lo = 0, hi = 0, peer = 0;
    if (cluster_->mig_state() != cluster::MigState::kNone) {
      cluster_->MigRange(&lo, &hi, &peer);
      uint64_t residual = 0;
      for (const auto& sh : shards_) {
        residual += sh->KeysInSlotRange(lo, hi);
      }
      text += "keys_in_mig_range:" + std::to_string(residual) + "\n";
    }
    std::string r;
    AppendBulk(&r, text);
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  return reply_err("unknown CLUSTER subcommand '" + args[1] + "'");
}

bool Server::DispatchMigStart(Loop& lp, Conn& conn, uint64_t seq,
                              std::vector<std::string>& args) {
  auto reply_err = [&](const std::string& msg, bool code = false) {
    std::string r;
    if (code) {
      AppendErrorCode(&r, msg);
    } else {
      AppendError(&r, msg);
    }
    CompleteInline(conn, seq, std::move(r));
    return true;
  };
  if (cluster_ == nullptr) {
    return reply_err("cluster support is disabled");
  }
  uint32_t lo = 0, hi = 0, src = 0;
  uint64_t src_epoch = 0;
  if (args.size() != 5 || !ParseU32(args[1], &lo) || !ParseU32(args[2], &hi) ||
      !ParseU32(args[3], &src) || !ParseU64(args[4], &src_epoch)) {
    return reply_err("MIGSTART expects lo hi src-node src-epoch");
  }
  if (lo > hi || hi >= cluster::kNumSlots) {
    return reply_err("MIGSTART: bad slot range");
  }
  // "+OWNED" short-circuit: a previous drive of this migration durably
  // committed here; the source learns it can only roll forward.
  if (cluster_->OwnsRange(lo, hi)) {
    std::string r;
    AppendSimple(&r, "OWNED");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  // Config validation — explicit -BADCONFIG, never a silent accept: the
  // source must be a node this table knows, and no slot of the range may be
  // owned by a third node (the two tables would disagree about ownership).
  if (src >= cluster::ClusterMetaRoot::kMaxNodes ||
      cluster_->NodeAddr(src).empty()) {
    return reply_err("BADCONFIG unknown source node " + std::to_string(src),
                     /*code=*/true);
  }
  for (uint32_t slot = lo; slot <= hi; ++slot) {
    const uint16_t o = cluster_->OwnerOf(static_cast<uint16_t>(slot));
    if (o != cluster::kNoOwner && o != src && o != cluster_->self()) {
      return reply_err("BADCONFIG slot " + std::to_string(slot) +
                           " is owned by node " + std::to_string(o) +
                           ", not the migration source",
                       /*code=*/true);
    }
  }
  std::string err;
  if (!cluster_->StartImporting(lo, hi, src, &err)) {
    return reply_err("MIGSTART: " + err);
  }
  // Purge the range on every shard before the copy streams in: a re-driven
  // migration must not leave keys a previous partial copy wrote and the
  // source has since deleted. The joined reply is +IMPORTING.
  auto multi = std::make_shared<MultiOp>();
  multi->remaining.store(static_cast<uint32_t>(shards_.size()),
                         std::memory_order_relaxed);
  multi->conn_id = conn.id;
  multi->seq = seq;
  multi->ok_reply = "IMPORTING";
  ++conn.inflight;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    Request req;
    req.op = Request::Op::kSlotPurge;
    req.slot_lo = static_cast<uint16_t>(lo);
    req.slot_hi = static_cast<uint16_t>(hi);
    req.multi = multi;
    if (!SubmitOrStall(lp, conn, i, std::move(req))) {
      --conn.inflight;
      return reply_err("server shutting down");
    }
  }
  return true;
}

bool Server::DispatchMigApply(Loop& lp, Conn& conn, uint64_t seq,
                              std::vector<std::string>& args) {
  auto reply_err = [&](const std::string& msg) {
    std::string r;
    AppendError(&r, msg);
    CompleteInline(conn, seq, std::move(r));
    return true;
  };
  if (cluster_ == nullptr) {
    return reply_err("cluster support is disabled");
  }
  if (args.size() != 2) {
    return reply_err("MIGAPPLY expects a batch frame");
  }
  if (cluster_->mig_state() != cluster::MigState::kImporting) {
    return reply_err("MIGAPPLY: no import in progress");
  }
  std::vector<repl::ReplOp> ops;
  if (!repl::DecodeBatch(args[1], &ops)) {
    return reply_err("MIGAPPLY: bad batch frame");
  }
  if (ops.empty()) {
    std::string r;
    AppendSimple(&r, "OK");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  // Fan the ops out to their owning shards (the slot hash places keys on
  // nodes; the shard hash places them on workers — decorrelated, so one
  // migration chunk touches many shards).
  std::vector<std::vector<repl::ReplOp>> per_shard(shards_.size());
  for (repl::ReplOp& op : ops) {
    per_shard[ShardFor(op.key, static_cast<uint32_t>(shards_.size()))]
        .push_back(std::move(op));
  }
  uint32_t participants = 0;
  for (const auto& v : per_shard) {
    participants += v.empty() ? 0 : 1;
  }
  auto multi = std::make_shared<MultiOp>();
  multi->remaining.store(participants, std::memory_order_relaxed);
  multi->conn_id = conn.id;
  multi->seq = seq;
  ++conn.inflight;
  for (uint32_t i = 0; i < per_shard.size(); ++i) {
    if (per_shard[i].empty()) {
      continue;
    }
    Request req;
    req.op = Request::Op::kMigApply;
    req.mig_ops = std::move(per_shard[i]);
    req.multi = multi;
    if (!SubmitOrStall(lp, conn, i, std::move(req))) {
      --conn.inflight;
      return reply_err("server shutting down");
    }
  }
  return true;
}

// ---- Transactions (DESIGN.md §9) -------------------------------------------

bool Server::DispatchExec(Loop& lp, Conn& conn, uint64_t seq) {
  std::vector<std::vector<std::string>> cmds = std::move(conn.txn_cmds);
  const bool dirty = conn.txn_dirty;
  conn.in_multi = false;
  conn.txn_dirty = false;
  conn.txn_cmds.clear();
  if (dirty) {
    std::string r;
    AppendErrorCode(&r, "TXNABORT transaction discarded because of previous errors");
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cmds.empty()) {
    std::string r;
    AppendArrayHeader(&r, 0);
    CompleteInline(conn, seq, std::move(r));
    return true;
  }
  if (cluster_ != nullptr) {
    // A transaction's atomicity lives inside this node's shards; every key
    // must map to a plainly-local slot (owned here, not mid-migration) or
    // the whole EXEC is refused with the route's redirect.
    for (const std::vector<std::string>& a : cmds) {
      const uint16_t slot = cluster::SlotForKey(a[1]);
      const cluster::Route rt = cluster_->Lookup(slot, /*asking=*/false);
      if (rt.action == cluster::Route::Action::kLocal && !rt.migrating) {
        continue;
      }
      std::string r;
      if (rt.action == cluster::Route::Action::kMoved) {
        Bump(lp.counters.moved_replies);
        AppendErrorCode(&r, "MOVED " + std::to_string(slot) + " " + rt.addr);
      } else if (rt.action == cluster::Route::Action::kDown) {
        AppendErrorCode(&r, "CLUSTERDOWN slot " + std::to_string(slot) +
                                " is unassigned");
      } else {
        AppendErrorCode(&r, "TRYAGAIN slot " + std::to_string(slot) +
                                " is migrating; transactions need stable "
                                "slots");
      }
      CompleteInline(conn, seq, std::move(r));
      return true;
    }
  }

  auto t = std::make_shared<txn::TxnState>();
  t->id = txn_ids_.Next();  // atomic: loops share one id space
  t->conn_id = conn.id;
  t->reply_seq = seq;
  t->nops = cmds.size();
  t->replies.resize(cmds.size());

  // Partition the ops across shards, preserving txn order within each part.
  std::map<uint32_t, txn::TxnPart> parts;  // ordered: lowest shard first
  for (size_t i = 0; i < cmds.size(); ++i) {
    std::vector<std::string>& a = cmds[i];
    txn::TxnOp op;
    op.kind = a[0] == "SET"   ? txn::TxnOp::Kind::kSet
              : a[0] == "GET" ? txn::TxnOp::Kind::kGet
                              : txn::TxnOp::Kind::kDel;
    op.key = std::move(a[1]);
    if (op.kind == txn::TxnOp::Kind::kSet) {
      op.value = std::move(a[2]);
    }
    op.reply_index = i;
    const uint32_t idx = ShardFor(op.key, static_cast<uint32_t>(shards_.size()));
    txn::TxnPart& part = parts[idx];
    part.shard = idx;
    part.ops.push_back(std::move(op));
  }
  t->parts.reserve(parts.size());
  for (auto& [idx, part] : parts) {
    t->parts.push_back(std::move(part));
  }
  t->single_shard = t->parts.size() == 1;
  // Coordinator = lowest shard that may write (SET/DEL): its replication
  // log carries the decision record. A pure-read txn never seals one, so
  // the choice is moot there.
  t->coordinator = t->parts[0].shard;
  for (const txn::TxnPart& p : t->parts) {
    bool writes = false;
    for (const txn::TxnOp& op : p.ops) {
      if (op.kind != txn::TxnOp::Kind::kGet) {
        writes = true;
        break;
      }
    }
    if (writes) {
      t->coordinator = p.shard;
      break;
    }
  }

  // Phase 1: single-shard txns run their whole commit as one kTxnExec
  // record (the fast path — one record, one Psync, group-commit batched);
  // cross-shard txns prepare on every participant.
  ++conn.inflight;
  t->remaining.store(static_cast<uint32_t>(t->parts.size()),
                     std::memory_order_release);
  for (uint32_t i = 0; i < t->parts.size(); ++i) {
    Request req;
    req.op = t->single_shard ? Request::Op::kTxnExec : Request::Op::kTxnPrepare;
    req.key = txn::TxnIdKey(t->id);
    req.txn = t;
    req.txn_part = i;
    SubmitTxn(lp, t->parts[i].shard, std::move(req));
  }
  return true;
}

void Server::AdvanceTxn(Loop& lp, const std::shared_ptr<txn::TxnState>& t) {
  // Phase joins route back through the completion queue of the loop owning
  // t->conn_id, so this always runs on that loop — the phase machine never
  // races across threads.
  if (t->Failed()) {
    // Abort is always explicit: drop whatever staged with abort-marker
    // records (recovery and replicas observe the same outcome), then tell
    // the client. Parts that never staged (has_writes false) need nothing.
    const std::string idkey = txn::TxnIdKey(t->id);
    for (const txn::TxnPart& p : t->parts) {
      if (!p.has_writes) {
        continue;
      }
      Request req;
      req.op = Request::Op::kTxnAbortMark;
      req.key = idkey;
      SubmitTxn(lp, p.shard, std::move(req));
    }
    DeliverTxnReply(lp, t);
    return;
  }
  const int phase = t->phase.load(std::memory_order_acquire);
  if (phase == txn::TxnState::kPhasePrepare) {
    if (t->single_shard) {
      DeliverTxnReply(lp, t);  // the kTxnExec record was the commit
      return;
    }
    const txn::Decision d = t->BuildDecision();
    if (d.parts.empty()) {
      DeliverTxnReply(lp, t);  // pure-read cross-shard txn: nothing to commit
      return;
    }
    // Phase 2: seal the decision record in the coordinator's log — the
    // durability point of the whole txn.
    t->phase.store(txn::TxnState::kPhaseDecide, std::memory_order_release);
    t->remaining.store(1, std::memory_order_release);
    Request req;
    req.op = Request::Op::kTxnDecide;
    req.key = txn::TxnIdKey(t->id);
    txn::EncodeDecision(d, &req.value);
    req.txn = t;
    for (uint32_t i = 0; i < t->parts.size(); ++i) {
      if (t->parts[i].shard == t->coordinator) {
        req.txn_part = i;
        break;
      }
    }
    SubmitTxn(lp, t->coordinator, std::move(req));
    return;
  }
  // Phase 2 joined: the decision is sealed (and WAIT-K acked or timed out).
  // Phase 3 fans commit markers to the other write participants — fire and
  // forget, because a crash here is repaired from the decision record at
  // recovery — then the EXEC answers.
  t->phase.store(txn::TxnState::kPhaseApply, std::memory_order_release);
  const std::string idkey = txn::TxnIdKey(t->id);
  for (const txn::TxnPart& p : t->parts) {
    if (!p.has_writes || p.shard == t->coordinator) {
      continue;
    }
    Request req;
    req.op = Request::Op::kTxnApply;
    req.key = idkey;
    SubmitTxn(lp, p.shard, std::move(req));
  }
  DeliverTxnReply(lp, t);
}

void Server::DeliverTxnReply(Loop& lp, const std::shared_ptr<txn::TxnState>& t) {
  std::string r;
  if (t->Failed()) {
    AppendErrorCode(&r, "TXNABORT " + t->AbortReason());
  } else if (t->WaitTimedOut()) {
    // Committed locally; the WAIT-K replication quorum missed the deadline.
    // Same degraded contract as a plain write's -WAITTIMEOUT.
    AppendErrorCode(&r,
                    "WAITTIMEOUT txn committed locally; replication ack "
                    "quorum not reached");
  } else {
    AppendArrayHeader(&r, t->nops);
    std::lock_guard<std::mutex> lk(t->mu);
    for (const std::string& frag : t->replies) {
      r += frag;
    }
  }
  const auto it = lp.conns.find(t->conn_id);
  if (it == lp.conns.end()) {
    return;  // client went away; the txn outcome stands regardless
  }
  Conn& conn = *it->second;
  JNVM_DCHECK(conn.inflight > 0);
  --conn.inflight;
  if (conn.Complete(t->reply_seq, std::move(r))) {
    if (!EnforceOutCap(lp, conn)) {
      HandleWritable(lp, conn);
    }
  }
}

void Server::SubmitTxn(Loop& lp, uint32_t shard_idx, Request&& req) {
  // Internal txn-plane submission: never blocks the event loop and never
  // read-pauses a connection. Full queues park the request here and retry
  // on loop ticks / completion drains; a stopping shard fails the txn and
  // counts the phase join down itself so the reply still resolves.
  switch (TrySubmitFrom(lp, shard_idx, std::move(req))) {
    case Shard::SubmitResult::kOk:
      return;
    case Shard::SubmitResult::kFull:
      lp.txn_pending.emplace_back(shard_idx, std::move(req));
      return;
    case Shard::SubmitResult::kStopped:
      if (req.txn != nullptr) {
        req.txn->Fail("server shutting down");
        if (req.txn->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          AdvanceTxn(lp, req.txn);
        }
      }
      return;
  }
}

void Server::RetryTxnPending(Loop& lp) {
  // One pass over the queue; still-full shards re-park at the back.
  size_t n = lp.txn_pending.size();
  while (n-- > 0 && !lp.txn_pending.empty()) {
    auto item = std::move(lp.txn_pending.front());
    lp.txn_pending.pop_front();
    SubmitTxn(lp, item.first, std::move(item.second));
  }
}

void Server::ResolveCrossShardTxns(Loop& lp) {
  // Recovery matrix (DESIGN.md §9): a prepared-but-undecided txn commits
  // iff its coordinator's log holds the sealed decision record; otherwise
  // it aborts — both via explicit records, applied idempotently. Decisions
  // whose participant provably never received its prepare (gapless logs)
  // yield repair actions replaying the writes from the decision itself.
  // Runs single-threaded at startup (loop 0, before the pool spawns) or on
  // the loop dispatching PROMOTE.
  std::vector<txn::ShardTxnView> views;
  views.reserve(shards_.size());
  for (const auto& sh : shards_) {
    views.push_back(sh->TxnView());
  }
  for (const txn::ResolutionAction& a : txn::PlanResolution(views)) {
    Request req;
    req.key = txn::TxnIdKey(a.id);
    if (!a.commit) {
      req.op = Request::Op::kTxnAbortMark;
    } else if (a.repair) {
      req.op = Request::Op::kTxnRepair;
      req.field = a.coordinator;
      req.value = a.repair_writes_frame;
    } else {
      req.op = Request::Op::kTxnApply;
    }
    SubmitTxn(lp, a.shard, std::move(req));
  }
}

void Server::DrainCompletions(Loop& lp) {
  // Own-thread completions first: each was posted while no cross-thread
  // completion was pending, so it precedes everything queued there.
  std::vector<Completion> batch;
  batch.swap(lp.local_completions);
  if (lp.wake_pending.exchange(false)) {
    std::lock_guard<std::mutex> lk(lp.mu);
    if (batch.empty()) {
      batch.swap(lp.completions);
    } else {
      std::move(lp.completions.begin(), lp.completions.end(),
                std::back_inserter(batch));
      lp.completions.clear();
    }
  }
  // Flushes are deferred to the end of the round: every completion a
  // connection receives in this drain lands in its chunk queue first, then
  // one writev (or, on io_uring, one batched submission for the whole dirty
  // set) ships them all — N sealed batches fanning out to a subscriber cost
  // one syscall, not N.
  std::vector<uint64_t> dirty;
  const auto mark_dirty = [&dirty](Conn& conn) {
    if (!conn.flush_pending) {
      conn.flush_pending = true;
      dirty.push_back(conn.id);
    }
  };
  for (Completion& c : batch) {
    if (c.txn != nullptr) {
      // Txn phase join: advance the 2PC regardless of client liveness —
      // the decision and commit markers must still seal even when the
      // issuing connection is gone.
      AdvanceTxn(lp, c.txn);
      continue;
    }
    const auto it = lp.conns.find(c.conn_id);
    if (it == lp.conns.end()) {
      continue;  // client went away before its reply
    }
    Conn& conn = *it->second;
    if (c.stream) {
      // Replication-stream frame: not a command reply, so it neither holds
      // an inflight slot nor passes the reorder buffer — by subscription
      // time every earlier reply on this connection has flushed. The frame
      // is enqueued by reference (one serialization shared by every
      // subscriber); the cap still counts its full logical size, so a
      // subscriber that stops reading is evicted at the same backlog as
      // with private copies.
      if (c.frame != nullptr) {
        conn.AppendFrame(std::move(c.frame));
      } else {
        conn.AppendOut(std::move(c.reply));  // backlog replay path
      }
      if (!EnforceOutCap(lp, conn)) {
        mark_dirty(conn);
      }
      continue;
    }
    JNVM_DCHECK(conn.inflight > 0);
    --conn.inflight;
    if (conn.Complete(c.seq, std::move(c.reply))) {
      if (!EnforceOutCap(lp, conn)) {
        mark_dirty(conn);
      }
    }
  }
  FlushDirty(lp, dirty);
  // Completions mean shard queues drained: stalled submissions may fit now.
  RetryStalled(lp);
  RetryTxnPending(lp);
}

void Server::FlushDirty(Loop& lp, std::vector<uint64_t>& dirty) {
  if (dirty.empty()) {
    return;
  }
  // Capability probe: only the io_uring backend accepts a batch. On it, the
  // whole dirty set ships as one submission (N SENDMSG SQEs, one
  // io_uring_enter); leftovers — partial sends, -EAGAIN, errors — fall
  // through to the per-connection path below, which re-arms POLLOUT and
  // does the closing bookkeeping.
  static constexpr size_t kFlushIovecs = 64;
  if (lp.poller->WritevBatch(nullptr, 0) && dirty.size() > 1) {
    std::vector<std::array<struct iovec, kFlushIovecs>> iovs(dirty.size());
    std::vector<Poller::WriteOp> ops;
    std::vector<uint64_t> op_ids;
    ops.reserve(dirty.size());
    op_ids.reserve(dirty.size());
    for (size_t i = 0; i < dirty.size(); ++i) {
      const auto it = lp.conns.find(dirty[i]);
      if (it == lp.conns.end() || !it->second->WantsWrite()) {
        continue;
      }
      Conn& conn = *it->second;
      Poller::WriteOp op;
      op.fd = conn.fd;
      op.iov = iovs[i].data();
      op.niov = static_cast<int>(conn.BuildIovecs(iovs[i].data(), kFlushIovecs));
      ops.push_back(op);
      op_ids.push_back(conn.id);
    }
    if (!ops.empty()) {
      lp.poller->WritevBatch(ops.data(), ops.size());
      Bump(lp.counters.batch_flushes);
      bool any = false;
      for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].nsent <= 0) {
          continue;  // -EAGAIN/-EINTR/error: HandleWritable resolves below
        }
        any = true;
        const auto it = lp.conns.find(op_ids[i]);
        if (it == lp.conns.end()) {
          continue;
        }
        Bump(lp.counters.flushed_bytes, static_cast<uint64_t>(ops[i].nsent));
        Bump(lp.counters.flush_chunks, static_cast<uint64_t>(ops[i].niov));
        it->second->ConsumeOut(static_cast<size_t>(ops[i].nsent));
      }
      if (any) {
        Bump(lp.counters.flush_syscalls);
      }
    }
  }
  for (const uint64_t id : dirty) {
    const auto it = lp.conns.find(id);
    if (it == lp.conns.end()) {
      continue;  // evicted earlier in the same round
    }
    it->second->flush_pending = false;
    HandleWritable(lp, *it->second);
  }
}

bool Server::EnforceOutCap(Loop& lp, Conn& conn) {
  if (conn.pending_out_bytes() <= opts_.max_conn_out_bytes) {
    return false;
  }
  Bump(lp.counters.out_overflows);
  CloseConn(lp, conn.id);
  return true;
}

std::string Server::BuildStats(Loop& lp) {
  std::string out;
  char line[768];
  // Counters are per-loop (each slot written by one thread, read here
  // relaxed): the aggregate can lag in-flight operations but never tears
  // or loses increments under --loops > 1.
  uint64_t conns = 0, accepted = 0, commands = 0, proto_errs = 0;
  uint64_t in_ovf = 0, out_ovf = 0, fsys = 0, fbytes = 0, fchunks = 0;
  uint64_t bflush = 0, frefs = 0, fbytes_ref = 0, moved = 0, wakes = 0;
  for (const auto& l : loops_) {
    const LoopCounters& c = l->counters;
    conns += Rd(c.open_conns);
    accepted += Rd(c.accepted);
    commands += Rd(c.commands);
    proto_errs += Rd(c.protocol_errors);
    in_ovf += Rd(c.in_overflows);
    out_ovf += Rd(c.out_overflows);
    fsys += Rd(c.flush_syscalls);
    fbytes += Rd(c.flushed_bytes);
    fchunks += Rd(c.flush_chunks);
    bflush += Rd(c.batch_flushes);
    frefs += Rd(c.frame_refs);
    fbytes_ref += Rd(c.frame_bytes);
    moved += Rd(c.moved_replies);
    wakes += Rd(c.wake_writes);
  }
  std::snprintf(line, sizeof(line),
                "server: shards=%zu batch=%u backend=%s poller=%s loops=%zu "
                "conns=%llu accepted=%llu commands=%llu protocol_errors=%llu "
                "in_overflows=%llu out_overflows=%llu\n",
                shards_.size(), opts_.shard.batch, opts_.shard.backend.c_str(),
                lp.poller->name(), loops_.size(),
                static_cast<unsigned long long>(conns),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(commands),
                static_cast<unsigned long long>(proto_errs),
                static_cast<unsigned long long>(in_ovf),
                static_cast<unsigned long long>(out_ovf));
  out += line;
  // chunks_per_flush ×100 (two implied decimals) keeps the dump integer-only.
  const uint64_t cpf100 = fsys == 0 ? 0 : fchunks * 100 / fsys;
  std::snprintf(line, sizeof(line),
                "output: flush_syscalls=%llu flushed_bytes=%llu "
                "chunks_per_flush=%llu.%02llu batch_flushes=%llu "
                "frame_refs=%llu frame_bytes=%llu wake_writes=%llu\n",
                static_cast<unsigned long long>(fsys),
                static_cast<unsigned long long>(fbytes),
                static_cast<unsigned long long>(cpf100 / 100),
                static_cast<unsigned long long>(cpf100 % 100),
                static_cast<unsigned long long>(bflush),
                static_cast<unsigned long long>(frefs),
                static_cast<unsigned long long>(fbytes_ref),
                static_cast<unsigned long long>(wakes));
  out += line;
  uint64_t records = 0, elided = 0, puts = 0, gets = 0, updates = 0, dels = 0;
  uint64_t txn_prep = 0, txn_comm = 0, txn_abrt = 0, txn_infl = 0, txn_dec = 0;
  uint64_t ask_replies = 0, mig_applied = 0;
  for (const auto& sh : shards_) {
    const ShardStats s = sh->Stats();
    ask_replies += s.ask_replies;
    mig_applied += s.mig_applied_ops;
    records += s.records;
    elided += s.elided_fences;
    puts += s.ops.puts;
    gets += s.ops.gets;
    updates += s.ops.updates;
    dels += s.ops.deletes;
    txn_prep += s.txn.prepared;
    txn_comm += s.txn.committed;
    txn_abrt += s.txn.aborted;
    txn_infl += s.txn.inflight;
    txn_dec += s.txn.decision_records;
    std::snprintf(
        line, sizeof(line),
        "shard%u: records=%llu queue=%llu batches=%llu max_batch=%llu "
        "elided_fences=%llu puts=%llu gets=%llu misses=%llu updates=%llu "
        "deletes=%llu bytes_w=%llu bytes_r=%llu cache_hits=%llu "
        "cache_misses=%llu psyncs=%llu pfences=%llu inline_batches=%llu "
        "worker_batches=%llu open_heap_us=%llu open_heap_reads=%llu "
        "open_index_us=%llu open_log_us=%llu open_slots_us=%llu\n",
        sh->index(), static_cast<unsigned long long>(s.records),
        static_cast<unsigned long long>(s.queue_depth),
        static_cast<unsigned long long>(s.batches),
        static_cast<unsigned long long>(s.max_batch),
        static_cast<unsigned long long>(s.elided_fences),
        static_cast<unsigned long long>(s.ops.puts),
        static_cast<unsigned long long>(s.ops.gets),
        static_cast<unsigned long long>(s.ops.get_misses),
        static_cast<unsigned long long>(s.ops.updates),
        static_cast<unsigned long long>(s.ops.deletes),
        static_cast<unsigned long long>(s.ops.bytes_written),
        static_cast<unsigned long long>(s.ops.bytes_read),
        static_cast<unsigned long long>(s.cache.hits),
        static_cast<unsigned long long>(s.cache.misses),
        static_cast<unsigned long long>(s.device.psyncs),
        static_cast<unsigned long long>(s.device.pfences),
        static_cast<unsigned long long>(s.inline_batches),
        static_cast<unsigned long long>(s.worker_batches),
        static_cast<unsigned long long>(s.open_us.heap),
        static_cast<unsigned long long>(s.open_heap_reads),
        static_cast<unsigned long long>(s.open_us.index),
        static_cast<unsigned long long>(s.open_us.log),
        static_cast<unsigned long long>(s.open_us.slots));
    out += line;
    if (s.repl.enabled) {
      std::snprintf(
          line, sizeof(line),
          "repl%u: role=%s sealed=%llu start=%llu applied=%llu "
          "log_bytes=%llu log_segments=%llu subs=%llu wait_acks=%u "
          "acked=%llu parked=%llu wait_timeouts=%llu stream_frames=%llu "
          "stream_frame_bytes=%llu catchup_records=%llu catchup_bytes=%llu "
          "snap_bytes=%llu apply_batch=%u parked_reads=%llu "
          "released_reads=%llu stale_reads=%llu%s\n",
          sh->index(), s.repl.follower ? "replica" : "primary",
          static_cast<unsigned long long>(s.repl.sealed_seq),
          static_cast<unsigned long long>(s.repl.start_seq),
          static_cast<unsigned long long>(s.repl.applied_batches),
          static_cast<unsigned long long>(s.repl.log_bytes),
          static_cast<unsigned long long>(s.repl.log_segments),
          static_cast<unsigned long long>(s.repl.subscribers),
          s.repl.wait_acks,
          static_cast<unsigned long long>(s.repl.acked_seq),
          static_cast<unsigned long long>(s.repl.parked_batches),
          static_cast<unsigned long long>(s.repl.wait_timeouts),
          static_cast<unsigned long long>(s.repl.stream_frames),
          static_cast<unsigned long long>(s.repl.stream_frame_bytes),
          static_cast<unsigned long long>(s.repl.catchup_records),
          static_cast<unsigned long long>(s.repl.catchup_bytes),
          static_cast<unsigned long long>(s.repl.snap_bytes),
          s.repl.apply_batch,
          static_cast<unsigned long long>(s.repl.parked_reads),
          static_cast<unsigned long long>(s.repl.released_reads),
          static_cast<unsigned long long>(s.repl.stale_reads),
          s.repl.needs_snapshot ? " needs_snapshot" : "");
      out += line;
      std::snprintf(
          line, sizeof(line),
          "ckpt%u: count=%llu begin=%llu end=%llu walked_keys=%llu "
          "walked_bytes=%llu truncated_segs=%llu replayed=%llu "
          "retry_later=%llu\n",
          sh->index(), static_cast<unsigned long long>(s.ckpt.count),
          static_cast<unsigned long long>(s.ckpt.begin_seq),
          static_cast<unsigned long long>(s.ckpt.end_seq),
          static_cast<unsigned long long>(s.ckpt.walked_keys),
          static_cast<unsigned long long>(s.ckpt.walked_bytes),
          static_cast<unsigned long long>(s.ckpt.truncated_segments),
          static_cast<unsigned long long>(s.ckpt.replayed_records),
          static_cast<unsigned long long>(s.ckpt.retry_later));
      out += line;
    }
  }
  if (ckpt_runner_ != nullptr && opts_.shard.repl_log) {
    std::snprintf(line, sizeof(line), "ckpt: busy=%d status=%s\n",
                  ckpt_runner_->busy() ? 1 : 0,
                  ckpt_runner_->status().c_str());
    out += line;
  }
  if (repl_client_ != nullptr) {
    const repl::ReplClientStats rs = repl_client_->Stats();
    std::snprintf(line, sizeof(line),
                  "replclient: received=%llu snapshots=%llu resyncs=%llu "
                  "gap_resyncs=%llu bad_configs=%llu diff_resyncs=%llu "
                  "diff_rejected=%llu retry_later=%llu\n",
                  static_cast<unsigned long long>(rs.records_received),
                  static_cast<unsigned long long>(rs.snapshots_installed),
                  static_cast<unsigned long long>(rs.resyncs),
                  static_cast<unsigned long long>(rs.gap_resyncs),
                  static_cast<unsigned long long>(rs.bad_configs),
                  static_cast<unsigned long long>(rs.diff_resyncs),
                  static_cast<unsigned long long>(rs.diff_rejected),
                  static_cast<unsigned long long>(rs.retry_later));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "txn: committed=%llu aborted=%llu prepared=%llu inflight=%llu "
                "decision_records=%llu\n",
                static_cast<unsigned long long>(txn_comm),
                static_cast<unsigned long long>(txn_abrt),
                static_cast<unsigned long long>(txn_prep),
                static_cast<unsigned long long>(txn_infl),
                static_cast<unsigned long long>(txn_dec));
  out += line;
  if (cluster_ != nullptr) {
    std::snprintf(
        line, sizeof(line),
        "cluster: epoch=%llu slots_owned=%llu migrations_in=%llu "
        "migrations_out=%llu moved_replies=%llu ask_replies=%llu "
        "mig_applied_ops=%llu\n",
        static_cast<unsigned long long>(cluster_->epoch()),
        static_cast<unsigned long long>(cluster_->slots_owned()),
        static_cast<unsigned long long>(cluster_->migrations_in()),
        static_cast<unsigned long long>(cluster_->migrations_out()),
        static_cast<unsigned long long>(moved),
        static_cast<unsigned long long>(ask_replies),
        static_cast<unsigned long long>(mig_applied));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: records=%llu elided_fences=%llu puts=%llu gets=%llu "
                "updates=%llu deletes=%llu\n",
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(elided),
                static_cast<unsigned long long>(puts),
                static_cast<unsigned long long>(gets),
                static_cast<unsigned long long>(updates),
                static_cast<unsigned long long>(dels));
  out += line;
  return out;
}

void Server::DoShutdown(Loop& lp, uint64_t conn_id, uint64_t seq) {
  // Two-phase cross-loop shutdown, coordinated by this loop (the one that
  // dispatched SHUTDOWN or first noticed RequestShutdown; shutdown_claimed_
  // guarantees there is exactly one).
  //
  // Phase 1 — quiesce intake everywhere. Every loop stops accepting and
  // stops reading/parsing client input, then checks in through the barrier
  // below. Only after the last check-in do the shards quiesce: no loop can
  // mint new work while the drain/audit/image-save runs, so a connection on
  // another loop cannot race the image save (the single-loop version got
  // this for free). Loops keep draining completions and flushing replies
  // throughout — in-flight work still resolves.
  shutdown_phase_.store(1, std::memory_order_release);
  StopIntake(lp);
  for (auto& other : loops_) {
    if (other.get() != &lp) {
      WakeLoop(*other);
    }
  }
  {
    std::unique_lock<std::mutex> lk(shutdown_mu_);
    shutdown_cv_.wait(lk, [&] {
      return intake_stopped_loops_ == loops_.size();
    });
  }
  // On a replica, stop the pull loops before draining the shards so no
  // kApply arrives once the quiesce begins.
  if (repl_client_ != nullptr) {
    repl_client_->Stop();
  }

  // Quiesce shards: drains every queued request, joins the workers,
  // Psyncs, audits integrity (I1–I7) and saves the device images.
  shutdown_report_.shards.clear();
  bool ok = true;
  for (auto& sh : shards_) {
    shutdown_report_.shards.push_back(sh->Quiesce());
    ok &= shutdown_report_.shards.back().integrity_ok;
  }
  shutdown_report_.ok = ok;
  // A migration racing the quiesce fails fast (shard Submit refuses once
  // stopping); join its thread before the slot table closes under it.
  if (migrator_ != nullptr) {
    migrator_->Join();
  }
  // Same discipline for a checkpoint pass racing the quiesce: its control
  // batches fail fast once the shards stop; reap the thread here.
  if (ckpt_runner_ != nullptr) {
    ckpt_runner_->Join();
  }
  if (cluster_ != nullptr) {
    cluster_->Close();
  }

  // Deliver the completions the drain produced for THIS loop's conns (the
  // other loops drain their own on their phase-1 ticks), then answer
  // SHUTDOWN itself — its +OK certifies a clean audit and saved images.
  // The issuing connection is pinned to this loop, so the reply is local.
  DrainCompletions(lp);
  const auto it = lp.conns.find(conn_id);
  if (it != lp.conns.end()) {
    std::string r;
    if (ok) {
      AppendSimple(&r, "OK");
    } else {
      size_t nviol = 0;
      for (const ShardReport& rep : shutdown_report_.shards) {
        nviol += rep.violations.size();
      }
      AppendError(&r, "integrity audit failed: " + std::to_string(nviol) +
                          " violation(s)");
    }
    it->second->Complete(seq, std::move(r));
  }

  // Phase 2 — release every loop to run its own exit path: final drain,
  // best-effort flush, close. This loop goes now; the others go on their
  // next wakeup.
  shutdown_phase_.store(2, std::memory_order_release);
  for (auto& other : loops_) {
    if (other.get() != &lp) {
      WakeLoop(*other);
    }
  }
  FinishLoop(lp);
}

void Server::StopIntake(Loop& lp) {
  if (lp.intake_stopped) {
    return;
  }
  lp.intake_stopped = true;
  if (lp.listen_fd >= 0) {
    lp.poller->Forget(lp.listen_fd);
    ::close(lp.listen_fd);
    lp.listen_fd = -1;
  }
  // Stop watching readable on every connection: unread pipelines stay in
  // the kernel buffers. Write interest stays — pending replies still flush.
  for (auto& [id, conn] : lp.conns) {
    lp.poller->Watch(conn->fd, false, conn->WantsWrite());
  }
  // Hand-off fds that raced the stop are closed, not registered.
  {
    std::lock_guard<std::mutex> lk(lp.mu);
    for (const int fd : lp.fd_inbox) {
      ::close(fd);
    }
    lp.fd_inbox.clear();
  }
  {
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    ++intake_stopped_loops_;
  }
  shutdown_cv_.notify_all();
}

void Server::FinishLoop(Loop& lp) {
  if (lp.exiting) {
    return;
  }
  StopIntake(lp);  // no-op when phase 1 already ran here
  lp.exiting = true;
  // The shards are stopped: re-driving stalled and parked txn work now
  // fails it cleanly (kStopped → FailStalledRequest / txn Fail), so every
  // reply slot resolves before the flush below.
  RetryStalled(lp);
  RetryTxnPending(lp);
  DrainCompletions(lp);
  FlushAllBestEffort(lp);
  while (!lp.conns.empty()) {
    CloseConn(lp, lp.conns.begin()->first);
  }
}

void Server::FlushAllBestEffort(Loop& lp) {
  // Bounded synchronous flush of every connection's pending output (the
  // sockets are non-blocking; wait briefly for writability when stalled).
  struct iovec iov[64];
  for (auto& [id, conn] : lp.conns) {
    int spins = 0;
    while (conn->WantsWrite() && spins < 200) {
      const size_t niov = conn->BuildIovecs(iov, 64);
      const ssize_t n = ::writev(conn->fd, iov, static_cast<int>(niov));
      if (n > 0) {
        Bump(lp.counters.flush_syscalls);
        Bump(lp.counters.flushed_bytes, static_cast<uint64_t>(n));
        Bump(lp.counters.flush_chunks, niov);
        conn->ConsumeOut(static_cast<size_t>(n));
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        break;
      }
      pollfd p{};
      p.fd = conn->fd;
      p.events = POLLOUT;
      ::poll(&p, 1, 10);
      ++spins;
    }
  }
}

}  // namespace jnvm::server
