// Shards — the persistence half of the network server (DESIGN.md §7, §8).
//
// Each shard owns a full vertical slice: one simulated NVMM device, one
// JnvmRuntime, one J-NVM backend and the KvStore on top, plus a bounded MPSC
// request queue. The queue really is multi-producer: with `--loops=N` every
// event-loop thread (plus the ReplClient, the migrator and the checkpoint
// runner) submits into the same shard concurrently — Submit/TrySubmit are
// safe from any thread, and a completion finds its way back to the loop that
// owns the requesting connection via the conn_id it carries (the loop index
// rides in the id's top bits). Keys are routed to shards by FNV-1a hash
// (ShardFor), so a key's whole history lives on one device — restart
// recovery is per-shard and embarrassingly parallel.
//
// Executors (DESIGN.md §7). One batch protocol, RunOneBatch, drains the
// queue; whoever holds the executor lock runs it — a combiner's critical
// section in the sense of Persistent Software Combining — so queue order is
// execution order whichever thread runs a batch. Two kinds of thread do:
//  * the shard's *home loop* (the event loop with the shard's index, when
//    shards <= loops) enqueues its own requests without waking anyone
//    (TrySubmit wake=false) and runs them itself at the end of its poll
//    round: RunInline, one bounded pass over at most the requests queued
//    when the pass began, in `batch`-sized group commits. Everything the
//    loop parsed this round becomes one group commit, with no thread
//    hand-off on the way in or out;
//  * the shard's worker thread runs everything else: blocking Submit
//    callers (ReplClient applies, migrator, checkpoint runner), requests
//    from non-home loops, control / replication / txn-boundary batches at
//    the queue front (the inline pass never runs those — it hands them to
//    the worker), and WAIT-K write batches once `wait_max_parked` batches
//    are parked, because parking then blocks and a loop never blocks.
// A pass whose try-lock loses to the worker notifies it instead, so queued
// work always has an executor that knows about it.
//
// A batch executes requests in groups of up to `batch` and holds the
// heap in group-commit mode for the batch: per-operation trailing
// durability fences are elided (heap::Heap::DurabilityFence) and one Psync
// at the end of the batch makes the whole group durable — the paper's
// "validating N objects under the same fence" (§3.2.3, Figure 5) applied
// to server-side group commit. Completions are delivered only after that
// Psync: a replied write is a durable write. Ordering fences inside the
// publication protocols are untouched, so a crash mid-batch loses only
// unacknowledged operations, never produces torn ones.
//
// Replication (§8): the batch is also the replication unit. The executor
// appends each batch's write ops to a durable per-shard replication log
// (repl::ReplLog) inside the same group commit — the batch Psync seals the
// log record, the store mutations and the client replies together — and
// then streams the sealed record to subscribed replicas. A *follower*
// shard runs the same protocol but applies shipped batches (Op::kApply) in
// sequence order, mirrors the primary's log, serves reads, and rejects
// client writes with -READONLY until Op::kPromote flips it writable after
// an I1–I7 audit.
#ifndef JNVM_SRC_SERVER_SHARD_H_
#define JNVM_SRC_SERVER_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/ckpt/ckpt_meta.h"
#include "src/cluster/slot_map.h"
#include "src/core/runtime.h"
#include "src/nvm/pmem_device.h"
#include "src/repl/frame.h"
#include "src/repl/repl_log.h"
#include "src/store/kvstore.h"
#include "src/txn/txn.h"

namespace jnvm::server {

// FNV-1a 64-bit — the request router's key hash. Shared with tests and the
// crashcheck "server"/"repl" workloads so all agree on placement.
inline uint64_t KeyHash(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline uint32_t ShardFor(std::string_view key, uint32_t nshards) {
  return static_cast<uint32_t>(KeyHash(key) % nshards);
}

struct ShardOptions {
  uint64_t device_bytes = 256ull << 20;
  // "jpdt" (default) or "jpfa".
  std::string backend = "jpdt";
  uint64_t map_capacity = 1 << 16;
  // Max write group per Psync (the --batch ablation knob). 1 = no batching:
  // every operation pays its own durability fence.
  uint32_t batch = 16;
  uint32_t queue_capacity = 1024;
  // When non-empty, shard i persists its device to "<image_base>.shard<i>.img"
  // on Quiesce, and Open() recovers from that file if it exists.
  std::string image_base;
  // When non-empty, shard i's device is an mmap'd MAP_SHARED file
  // "<dax_base>.shard<i>.pmem" (PmemDevice::MapFile): every store is a
  // store into the kernel page cache, so the state survives `kill -9`
  // without a Quiesce — the cluster CI job's crash model. Takes precedence
  // over image_base; incompatible with the strict crash-emulation mode.
  std::string dax_base;
  // Optane-like latency model on the device (benchmarks); off for tests.
  bool optane_latency = false;
  // When non-zero, overrides the device's per-fence cost (with the other
  // Optane latencies unchanged) — models fence-expensive platforms (ADR
  // write-pending-queue drains) where batching is the headline win.
  uint32_t fence_ns = 0;

  // ---- Replication (DESIGN.md §8) ----------------------------------------
  // Keep a durable replication log ("server.repl" in the root map). Off
  // only for ablation — without it the shard can neither feed replicas nor
  // run as a follower.
  bool repl_log = true;
  uint32_t repl_segment_bytes = 64 << 10;
  uint32_t repl_max_segments = 8;
  // Follower mode: client writes are rejected with -READONLY; state changes
  // arrive as kApply batches shipped from the primary.
  bool follower = false;
  // Follower apply grouping, decoupled from the primary's sealed batch
  // size: up to `apply_batch` shipped records (each one sealed primary
  // batch) share a single apply-side group commit. 0 = follow `batch`.
  // Bigger values amortise the follower's Psyncs across more primary
  // batches and shrink drain lag; the sealed boundary stays per-record, so
  // crash semantics are unchanged (see the abl_repl_lag ablation).
  uint32_t apply_batch = 0;

  // ---- Synchronous replication (WAIT-K) -----------------------------------
  // When > 0, a batch that appended to the replication log is *parked* after
  // its Psync instead of delivered: replies are withheld until `wait_acks`
  // REPLSYNC subscribers acknowledge the sealed seq (REPLACK frames), or
  // until `wait_timeout_ms` elapses — then write replies degrade to an
  // explicit -WAITTIMEOUT (the write IS locally durable; it just lacks the
  // replica guarantee). The executor keeps sealing later batches while
  // earlier ones wait (pipelined), bounded by `wait_max_parked` parked
  // batches.
  // Requires repl_log. Kept in ShardOptions so a promoted replica that was
  // started with --wait-acks honours it once it has subscribers of its own.
  uint32_t wait_acks = 0;
  uint32_t wait_timeout_ms = 1000;
  uint32_t wait_max_parked = 64;

  // ---- Session reads (replica read scaling) -------------------------------
  // A read carrying a session min-seq token (MINSEQ) parks when the shard's
  // applied watermark (sealed_seq — on a follower the last applied AND
  // durable record) is behind the token, and is released in park order by
  // the apply batch that advances the watermark past it. After
  // `read_stale_timeout_ms` a parked read is answered with an explicit
  // -STALE — never a silently old value. `read_park_max` bounds the parked
  // set; overflow also answers -STALE immediately.
  uint32_t read_stale_timeout_ms = 1000;
  uint32_t read_park_max = 1024;

  // Test hook: when >= 0 and equal to this shard's index, the PROMOTE audit
  // reports an injected violation (exercises all-or-nothing promotion).
  // Quiesce's shutdown audit is unaffected.
  int32_t fail_promote_audit_shard = -1;
};

// One client request, routed to the shard owning the key.
struct Request {
  enum class Op : uint8_t {
    kGet,
    kSet,
    kDel,
    kHset,
    kTouch,
    // Replication plane. kApply is submitted by the local ReplClient and
    // batches like a write; the rest are control ops and run as singleton
    // batches on the worker.
    kApply,        // value = record frame {seq | batch frame}
    kReplSync,     // repl_seq = from-seq; converts the conn to a stream
    kReplSnap,     // full-store snapshot frame reply
    kSnapInstall,  // value = snapshot frame; waiter signalled post-Psync
    kPromote,      // audit + flip follower → primary (multi joins shards)
    kLastSeq,      // :sealed-seq reply; singleton batch, so every write the
                   // connection pipelined before it is already sealed
    // Transaction plane (DESIGN.md §9). All five are internal (conn_id = 0,
    // submitted by the server's coordinator hook or recovery); the EXEC
    // reply is staged through Request::txn and delivered by the event loop.
    kTxnExec,      // single-shard txn: one [prepare|marker] record, one Psync
    kTxnPrepare,   // stage this part's writes + seal a kTxnPrepare record
    kTxnDecide,    // coordinator: seal the decision record (value = payload),
                   // then apply own staged writes post-seal
    kTxnApply,     // participant: seal a commit marker, apply staged post-seal
    kTxnAbortMark, // drop staged writes + seal an explicit kTxnAbort marker
    kTxnRepair,    // promote repair: stage writes from a decision record
                   // (value = writes frame) and commit them in one record
    // Cluster plane (DESIGN.md §10). The three slot cursors are internal
    // control ops (singleton batches, waiter rendezvous); kMigApply is the
    // destination-side import write and batches like any other write.
    kSlotSnap,     // snapshot of keys in slots [slot_lo, slot_hi]; the
                   // waiter payload is "+<snapshot frame>"
    kSlotTail,     // slot-filtered replication-log scan from repl_seq; the
                   // waiter payload is "+<u64 next><u8 caught_up><batch>"
    kSlotPurge,    // drop every key in [slot_lo, slot_hi] (import reset)
    kMigApply,     // apply mig_ops shipped by a migration source; the ops
                   // are re-logged locally so this node's replicas see them
    // Checkpoint plane (DESIGN.md §11). All three are internal control ops
    // (singleton batches).
    kCkpt,         // field 0: fuzzy-walk slots [slot_lo, slot_hi] (waiter
                   // payload "+"); field 1: finalize — Psync, publish the
                   // LSN pair, truncate the log below it (waiter payload
                   // "+begin=<b> end=<e> truncated=<n>")
    kReplDiff,     // segment-diff rejoin, primary side: repl_seq = the
                   // follower's resume seq, value = its digest frame; every
                   // digest verified → behaves exactly like kReplSync
    kLogDigests,   // follower side: waiter payload "+<digest frame>" of the
                   // local log (the log is executor-only, so the
                   // ReplClient fetches its own digests through the queue)
  };
  Op op = Op::kGet;
  std::string key;
  std::string value;   // kSet / kHset payload; kApply / kSnapInstall frame
  uint32_t field = 0;  // kHset field index
  uint64_t repl_seq = 0;  // kReplSync from-seq
  // Session token for kGet/kTouch (MINSEQ): the read may only execute once
  // the shard's applied watermark reaches it. 0 = no session constraint.
  uint64_t min_seq = 0;

  // ---- Cluster plane (DESIGN.md §10) ---------------------------------------
  // Inclusive slot range for kSlotSnap / kSlotTail / kSlotPurge.
  uint16_t slot_lo = 0;
  uint16_t slot_hi = 0;
  // Set by the event loop on single-key ops whose slot is MIGRATING away:
  // "<slot> <host:port>". A key miss then answers -ASK instead of executing
  // — the key has already moved (or never existed) and the destination is
  // the authority for it.
  std::string ask_addr;
  // kMigApply payload: decoded ops shipped by the migration source.
  std::vector<repl::ReplOp> mig_ops;

  // Completion routing (opaque to the shard). conn_id == 0 → internal
  // request, no completion is emitted.
  uint64_t conn_id = 0;
  uint64_t seq = 0;

  // Non-null for one part of a multi-shard operation (MSET, PROMOTE): the
  // last part to complete — counted *after* its shard's Psync — emits the
  // one reply.
  std::shared_ptr<struct MultiOp> multi;
  // Non-null for kSnapInstall: signalled after the install's Psync.
  std::shared_ptr<struct ReplWaiter> waiter;
  // Non-null for txn-plane requests (kTxnExec/kTxnPrepare/kTxnDecide/
  // kTxnApply): the in-flight EXEC this request belongs to. The last part
  // of the current phase to deliver — after its shard's Psync (and WAIT-K
  // ack, when configured) — posts one phase completion to the event loop.
  std::shared_ptr<txn::TxnState> txn;
  uint32_t txn_part = 0;  // index into txn->parts for this shard's slice
};

struct MultiOp {
  std::atomic<uint32_t> remaining{0};
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  // Failure funnel: any part may record an error; the joined reply turns
  // into that error instead of +OK.
  std::atomic<uint32_t> failures{0};
  std::mutex err_mu;
  std::string error;  // first failure's message (RESP code included)
  // Joined success reply; empty → "+OK". MIGSTART joins as "+IMPORTING".
  std::string ok_reply;

  // Two-phase PROMOTE: audits run on every shard first (phase 1, recorded
  // through the failure funnel); only the joining part — all audits passed —
  // flips every listed shard writable (phase 2). An audit failure on any
  // shard therefore flips none: no mixed read-only/writable fleet.
  std::vector<class Shard*> promote_shards;

  void Fail(const std::string& msg) {
    failures.fetch_add(1, std::memory_order_acq_rel);
    std::lock_guard<std::mutex> lk(err_mu);
    if (error.empty()) {
      error = msg;
    }
  }
};

// Blocking rendezvous for internal control requests (snapshot install).
struct ReplWaiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  std::string error;

  void Signal(bool success, std::string msg) {
    {
      std::lock_guard<std::mutex> lk(mu);
      done = true;
      ok = success;
      error = std::move(msg);
    }
    cv.notify_all();
  }
  bool Wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done; });
    return ok;
  }
};

// A finished request: the pre-rendered RESP reply plus its routing tag. By
// delivery time the operation's effects are durable. `stream` marks
// replication-stream frames: they bypass the per-connection reorder buffer
// (a REPLSYNC connection has no further pending commands) and are appended
// to the socket in arrival order. Stream frames travel as `frame` — a
// refcounted immutable buffer serialized once per sealed batch and shared
// by every subscriber's completion, so fan-out never copies the payload.
struct Completion {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  std::string reply;
  bool stream = false;
  std::shared_ptr<const std::string> frame;  // stream payload (shared)
  // Non-null: a txn phase join finished — the event loop advances the txn's
  // state machine instead of writing `reply` to a connection.
  std::shared_ptr<txn::TxnState> txn;
};

// Where shards hand finished requests. The server implementation routes
// each completion by its conn_id to the event loop owning that connection
// (per-loop completion queue + wakeup pipe); tests use a plain collector.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  // Called from any batch executor (worker or home loop); must be
  // thread-safe.
  virtual void OnCompletion(Completion&& c) = 0;
  // A sealed batch's completions in one call (consumed; `cs` is left
  // empty), so a sink can take each destination's lock once per batch.
  virtual void OnCompletions(std::vector<Completion>& cs) {
    for (Completion& c : cs) {
      OnCompletion(std::move(c));
    }
    cs.clear();
  }
};

// Final state handed back by Quiesce().
struct ShardReport {
  bool integrity_ok = false;
  std::vector<std::string> violations;  // integrity audit failures (I1–I7)
  uint64_t records = 0;
  uint64_t elided_fences = 0;
  uint64_t psyncs = 0;
  bool image_saved = false;
  std::string image_path;
};

// Replication counters (STATS). sealed == last log record made durable by a
// batch Psync; on a follower that is also the last *applied* batch — the
// apply and the local log append share the durability point.
struct ReplStats {
  bool enabled = false;
  bool follower = false;
  bool needs_snapshot = false;
  uint64_t start_seq = 0;    // oldest retained record
  uint64_t sealed_seq = 0;   // last sealed (0 = none)
  uint64_t applied_batches = 0;  // kApply batches executed (follower role)
  uint64_t log_bytes = 0;
  uint64_t log_segments = 0;
  uint64_t subscribers = 0;
  // Fan-out cost accounting: one frame is serialized per sealed batch that
  // had subscribers (stream_frames / stream_frame_bytes); every subscriber
  // then receives the same refcounted buffer. Serializations are therefore
  // independent of the subscriber count — the server-side `frame_refs`
  // counter records the per-subscriber zero-copy enqueues.
  uint64_t stream_frames = 0;
  uint64_t stream_frame_bytes = 0;
  // Rejoin cost accounting (DESIGN.md §11): records/bytes serialized into
  // REPLSYNC/REPLDIFF handshake replies (backlog catch-up) and bytes of
  // REPLSNAP snapshot frames served. A stale replica rejoining through the
  // segment-diff handshake should move catchup_bytes ~ the divergent tail;
  // snap_bytes grows with the whole store — the CI bootstrap job asserts
  // the former stays far below the latter.
  uint64_t catchup_records = 0;
  uint64_t catchup_bytes = 0;
  uint64_t snap_bytes = 0;
  uint32_t apply_batch = 0;  // follower apply grouping (0 = follow batch)
  // WAIT-K (primary role, wait_acks > 0): acked_seq is the K-th-highest
  // subscriber watermark — every record <= acked_seq is on >= K replicas.
  uint32_t wait_acks = 0;
  uint64_t acked_seq = 0;
  uint64_t wait_timeouts = 0;    // batches delivered degraded (-WAITTIMEOUT)
  uint64_t parked_batches = 0;   // currently awaiting acks
  // Session reads: currently parked / released by a watermark advance /
  // answered -STALE (timeout or park-bound overflow).
  uint64_t parked_reads = 0;
  uint64_t released_reads = 0;
  uint64_t stale_reads = 0;
};

// Transaction counters (STATS `txn` line). Per shard: prepared counts
// prepare records sealed, committed counts staged txns this shard applied,
// aborted counts staged txns dropped by an abort, inflight is the staged
// table size, decision_records counts decisions sealed (coordinator role).
struct TxnShardStats {
  uint64_t prepared = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t inflight = 0;
  uint64_t decision_records = 0;
};

// Checkpoint counters (STATS `ckpt` line). begin/end mirror the durable
// CkptMeta pair; replayed_records counts the log records the last recovery
// actually replayed — the CI bootstrap job asserts it stays a tail, not the
// whole log, once checkpoints run.
struct CkptStats {
  uint64_t count = 0;         // checkpoints finalized on this heap
  uint64_t begin_seq = 0;     // recovery replays from here (1 = from start)
  uint64_t end_seq = 0;       // last sealed record the checkpoint covers
  uint64_t walked_keys = 0;   // last walk's accounting
  uint64_t walked_bytes = 0;
  uint64_t truncated_segments = 0;  // log segments reclaimed by finalizes
  uint64_t replayed_records = 0;    // records replayed at the last recovery
  uint64_t retry_later = 0;   // REPLSNAP/REPLDIFF refused mid-bootstrap
};

// How long each phase of Shard::Open() took, in µs rounded up (DESIGN.md
// §11). A phase that did not run reads 0.
struct OpenPhaseUs {
  uint64_t heap = 0;   // device + core heap recovery
  uint64_t index = 0;  // store map mirror rebuild
  uint64_t log = 0;    // replication-log scan + redo
  uint64_t slots = 0;  // per-slot key-count seed
};

struct ShardStats {
  uint64_t queue_depth = 0;
  uint64_t batches = 0;
  // Split of `batches` by executor: run inline by the home loop vs by the
  // worker thread (DESIGN.md §7).
  uint64_t inline_batches = 0;
  uint64_t worker_batches = 0;
  uint64_t max_batch = 0;
  uint64_t elided_fences = 0;
  uint64_t records = 0;
  // Cluster plane: -ASK redirects this shard answered (key miss during a
  // MIGRATING phase) and ops imported through kMigApply.
  uint64_t ask_replies = 0;
  uint64_t mig_applied_ops = 0;
  OpenPhaseUs open_us;
  // Device reads of the core heap recovery in Open() (0 on a fresh heap).
  uint64_t open_heap_reads = 0;
  store::OpStats ops;
  store::CacheStats cache;
  nvm::DeviceStats device;
  ReplStats repl;
  TxnShardStats txn;
  CkptStats ckpt;
};

class Shard {
 public:
  // Creates shard `index`: recovers from its image file when one exists
  // (restart path — runs core recovery), else formats a fresh device. When
  // the replication log is enabled and holds records, the last record is
  // re-applied to the store (redo tail): a crash between the log append and
  // the store's final flush recovers to the sealed-batch boundary with the
  // log and the store in agreement.
  static std::unique_ptr<Shard> Open(const ShardOptions& opts, uint32_t index,
                                     CompletionSink* sink);
  ~Shard();

  uint32_t index() const { return index_; }
  // True when Open() loaded an existing image (→ recovery ran).
  bool recovered() const { return recovered_; }
  const core::RecoveryReport& recovery_report() const {
    return rt_->recovery_report();
  }

  bool follower() const { return follower_.load(std::memory_order_acquire); }
  // Next record the shard's log expects — the REPLSYNC from-seq a replica
  // resumes with after a restart.
  uint64_t repl_next_seq() const {
    return sealed_seq_.load(std::memory_order_acquire) + 1;
  }
  bool repl_needs_snapshot() const {
    return repl_needs_snapshot_.load(std::memory_order_acquire);
  }

  // Blocking bounded push (backpressure). False once the shard is stopping —
  // the caller replies -ERR instead of enqueueing into a draining shard.
  // Safe only from threads that may block (ReplClient); the event loop uses
  // TrySubmit and read-pauses the connection instead.
  bool Submit(Request&& req);

  // Non-blocking push. kFull leaves `req` untouched so the caller can stall
  // it and retry; kStopped means the shard is draining (terminal).
  // wake=false is for the shard's home loop only: the worker is not
  // notified, and the caller must call RunInline before it next sleeps.
  enum class SubmitResult : uint8_t { kOk, kFull, kStopped };
  SubmitResult TrySubmit(Request&& req, bool wake = true);

  // One bounded inline pass (home loop, end of its poll round): runs at most
  // the requests queued when the pass began, in `batch`-sized group
  // commits, on the calling thread. Never blocks: a lost try-lock, a
  // control / apply / txn-boundary batch at the queue front, or a full
  // WAIT-K park set hands the queue to the worker instead. True when work
  // is still queued (the caller re-polls with a zero timeout and runs
  // another pass, which hands the queue over if it cannot run it).
  bool RunInline();

  // Drops a replication-stream subscription (connection closed).
  void Unsubscribe(uint64_t conn_id);

  // Records a REPLACK from subscriber `conn_id`: every record <= seq is
  // durable on that replica. Advances the K-of-N watermark and delivers any
  // parked batch whose sealed seq is now acknowledged. Event-loop thread.
  void Ack(uint64_t conn_id, uint64_t seq);

  // Delivers parked batches whose deadline passed (degraded -WAITTIMEOUT
  // replies). Called from the event-loop tick; cheap when nothing is parked.
  void TickWait(uint64_t now_ms);

  // ---- Session reads ------------------------------------------------------
  // Routes a kGet/kTouch carrying req.min_seq. kReady: the applied watermark
  // already covers the token — the caller submits the request normally (req
  // untouched). kParked: the shard took ownership; the completion is emitted
  // later, when an apply batch advances the watermark (executed on the
  // batch executor, in park order) or the deadline passes (-STALE). kStale:
  // the parked set is full (or the shard is quiescing) — the -STALE
  // completion was already emitted. Event-loop thread; the watermark recheck
  // under the park lock closes the race with a concurrent release, so a
  // parked read can never miss its wakeup.
  enum class ReadGate : uint8_t { kReady, kParked, kStale };
  ReadGate GateSessionRead(Request& req, uint64_t now_ms);

  // Answers parked reads whose deadline passed with -STALE. Event-loop tick;
  // cheap when nothing is parked. Never touches the store.
  void TickReadStale(uint64_t now_ms);

  // Registers a hook invoked by the batch executor after each batch Psync
  // with the new sealed seq — the follower's ReplClient acks from here.
  // Pass nullptr to unregister (must happen before the owner dies).
  void SetSealHook(std::function<void(uint64_t)> hook);

  // Phase 2 of PROMOTE: flips the shard writable. Only meaningful after its
  // kPromote audit passed; called by the multi-op join for all shards at
  // once.
  void MakeWritable() { follower_.store(false, std::memory_order_release); }

  // Thread-safe counters snapshot (STATS command; no queue round-trip).
  ShardStats Stats() const;

  // Keys this shard holds whose slot falls in [lo, hi] — per-slot
  // accounting maintained at every mutation point (and rebuilt after a
  // snapshot install). Thread-safe; the migrator sizes its copy phase and
  // CLUSTER INFO reports residual keys from it.
  uint64_t KeysInSlotRange(uint32_t lo, uint32_t hi) const;

  // ---- Transaction plane (DESIGN.md §9) -----------------------------------
  // This shard's view for cross-shard resolution planning (recovery after
  // all shards opened, and the PROMOTE hook): staged-undecided txns, the
  // decision index, and the gapless log's next seq. Thread-safe.
  txn::ShardTxnView TxnView() const;
  bool HasTxnDecision(txn::TxnId id) const { return txn_decisions_.Has(id); }

  store::KvStore& kv() { return *kv_; }

  // Stops intake, drains the queue, joins the worker, Psyncs, audits heap
  // integrity (I1–I7 with FA-log audit — the heap is quiescent), closes the
  // runtime and saves the device image. Terminal: the shard accepts no
  // further requests. Idempotent.
  ShardReport Quiesce();

 private:
  Shard() = default;

  void WorkerLoop();
  // The batch protocol: dequeue one homogeneous batch (at most `limit`
  // requests), execute, encode its log record, Psync, run the post-seal
  // steps, stream and deliver (or park). Caller holds exec_mu_. An inline
  // pass takes nothing when the front is not inline-runnable and notifies
  // the worker instead. Returns the number of requests executed.
  size_t RunOneBatch(bool inline_pass, size_t limit);
  // Caller holds mu_: the queue front may run on a loop thread — a plain or
  // kTxnExec run, and (WAIT-K) parking it could not block.
  bool InlineRunnableLocked() const;
  // Executes one request against the KvStore; appends the RESP reply and
  // collects the batch's replicated ops. Returns true when the op wrote
  // persistent state.
  bool Execute(const Request& req, std::string* reply,
               std::vector<repl::ReplOp>* rops);
  bool ExecuteApply(const Request& req);
  void ExecuteReplSync(const Request& req, std::string* reply);
  void ExecuteReplSnap(std::string* reply);
  bool ExecuteSnapInstall(const Request& req, std::string* error);
  void ExecutePromote(const Request& req, std::string* reply);
  // Cluster plane: slot cursors (waiter payloads: "+…" ok, "-…" error) and
  // the destination-side import ops.
  void ExecuteSlotSnap(const Request& req, std::string* reply);
  void ExecuteSlotTail(const Request& req, std::string* reply);
  bool ExecuteSlotPurge(const Request& req, std::string* reply,
                        std::vector<repl::ReplOp>* rops);
  bool ExecuteMigApply(const Request& req, std::string* reply,
                       std::vector<repl::ReplOp>* rops);
  // Checkpoint plane (DESIGN.md §11): walk / finalize, the primary side of
  // the segment-diff rejoin, and the follower-side digest fetch. ExecuteCkpt
  // returns true on a finalize that published the meta — the batch must
  // Psync before DrainGroupFrees releases the truncated segments.
  bool ExecuteCkpt(const Request& req, std::string* reply);
  void ExecuteReplDiff(const Request& req, std::string* reply);
  void ExecuteLogDigests(std::string* reply);
  void DeliverBatch(std::vector<Request>& batch, std::vector<std::string>& replies);
  void StreamToSubscribers(uint64_t first_seq, uint64_t last_seq);
  void RedoLogTail(uint64_t replay_from, txn::LogScanResult* scan);
  void PublishReplStats();

  // ---- Transaction plane (batch executor) ---------------------------------
  // Execute-time handlers; store mutations never happen here — txn writes
  // stage in staged_txns_ and apply post-seal (ApplyPostSealTxns), so a
  // crash before the record seals leaves the store untouched.
  bool ExecuteTxnExec(const Request& req, std::vector<repl::ReplOp>* rops);
  bool ExecuteTxnPrepare(const Request& req, std::vector<repl::ReplOp>* rops);
  bool ExecuteTxnDecide(const Request& req, std::vector<repl::ReplOp>* rops);
  bool ExecuteTxnApply(const Request& req, std::vector<repl::ReplOp>* rops);
  bool ExecuteTxnAbortMark(const Request& req, std::vector<repl::ReplOp>* rops);
  bool ExecuteTxnRepair(const Request& req, std::vector<repl::ReplOp>* rops);
  // Runs the queued MULTI ops of one part: reads answer from the part's own
  // staged writes first (txn read-your-writes), writes collect into *writes.
  void RunTxnOps(txn::TxnPart& part, const std::shared_ptr<txn::TxnState>& t,
                 std::vector<repl::ReplOp>* writes);
  // Applies every txn queued by the batch after its record sealed, inside a
  // fresh group-commit window, then an ordering Pfence: a later record can
  // only seal after these applies are durable, preserving the redo-tail
  // invariant (only the tail record's store effects may be incomplete).
  void ApplyPostSealTxns();
  // Phase join: the last request of a txn phase posts one completion.
  void TxnJoin(const std::shared_ptr<txn::TxnState>& t);

  // ---- WAIT-K parking (worker + event-loop threads) -----------------------
  // A sealed batch withheld between its Psync and its delivery.
  struct ParkedBatch {
    uint64_t last_seq = 0;     // highest log seq the batch sealed
    uint64_t deadline_ms = 0;  // NowMs() + wait_timeout_ms at parking time
    std::vector<Request> reqs;
    std::vector<std::string> replies;
    std::vector<uint8_t> wrote;  // per-request: did it write durable state?
  };
  // Parks the batch (executor; blocks on wait_max_parked — safe: parked
  // batches are released by the event loop, which never waits on the
  // worker; an inline pass only parks while the park set has room).
  void ParkBatch(uint64_t last_seq, std::vector<Request>& batch,
                 std::vector<std::string>& replies,
                 std::vector<uint8_t>& wrote);
  // Pops and delivers every front batch that is acked (success) or timed
  // out / force-released (degraded). Any thread.
  void ReleaseParked(uint64_t now_ms, bool force);
  void DeliverParked(ParkedBatch&& p, bool timed_out);

  // ---- Session-read parking (event-loop parks, executor releases) ---------
  struct ParkedRead {
    uint64_t deadline_ms = 0;  // now + read_stale_timeout_ms at parking time
    Request req;
  };
  // Executes every parked read whose min-seq the watermark now covers, in
  // park order, against the exact sealed-prefix state. Executor, after
  // PublishReplStats — kApply batches flow through the queue untouched, so
  // parked reads can never reorder or delay the apply stream.
  void ReleaseSessionReads();
  // Fails every parked read with -STALE (shutdown path).
  void ForceStaleReads();
  void CompleteStaleRead(Request& req, uint64_t watermark);
  // K-th-highest subscriber watermark → synced_seq_. Caller holds subs_mu_.
  void RecomputeSyncedLocked();
  void NotifySealHook(uint64_t sealed_seq);

  // ---- Per-slot accounting (cluster plane) ---------------------------------
  // slot_keys_[s] = live keys in slot s. The executor adjusts it wherever the
  // store changes shape; Stats/KeysInSlotRange read it under slot_mu_.
  void SlotDelta(std::string_view key, int d);
  void RebuildSlotCounts();

  uint32_t index_ = 0;
  ShardOptions opts_;
  CompletionSink* sink_ = nullptr;
  bool recovered_ = false;
  OpenPhaseUs open_us_;  // set by Open() before the shard is shared

  std::unique_ptr<nvm::PmemDevice> dev_;
  std::unique_ptr<core::JnvmRuntime> rt_;
  std::unique_ptr<store::Backend> backend_;
  std::unique_ptr<store::KvStore> kv_;
  std::unique_ptr<repl::ReplLog> log_;  // executor-only after Open()
  core::Handle<ckpt::CkptMeta> ckpt_meta_;  // executor-only after Open()

  std::atomic<bool> follower_{false};
  std::atomic<uint64_t> sealed_seq_{0};   // last sealed record (0 = none)
  std::atomic<uint64_t> repl_start_seq_{0};
  std::atomic<uint64_t> repl_bytes_{0};
  std::atomic<uint64_t> repl_segments_{0};
  std::atomic<uint64_t> applied_batches_{0};
  std::atomic<bool> repl_needs_snapshot_{false};
  std::atomic<uint64_t> stream_frames_{0};       // frames serialized (once/batch)
  std::atomic<uint64_t> stream_frame_bytes_{0};  // bytes serialized, pre-fan-out
  std::atomic<uint64_t> catchup_records_{0};  // backlog records in handshake replies
  std::atomic<uint64_t> catchup_bytes_{0};
  std::atomic<uint64_t> snap_bytes_{0};  // REPLSNAP frame bytes served

  // ---- Checkpoint plane (DESIGN.md §11) ------------------------------------
  // Walk accumulators live on the worker thread only (reset when a walk
  // restarts at slot 0); the atomics mirror the durable CkptMeta for Stats.
  uint64_t ckpt_walk_keys_ = 0;
  uint64_t ckpt_walk_bytes_ = 0;
  std::atomic<uint64_t> ckpt_count_{0};
  std::atomic<uint64_t> ckpt_begin_{1};
  std::atomic<uint64_t> ckpt_end_{0};
  std::atomic<uint64_t> ckpt_walked_keys_{0};
  std::atomic<uint64_t> ckpt_walked_bytes_{0};
  std::atomic<uint64_t> ckpt_truncated_segs_{0};
  std::atomic<uint64_t> ckpt_replayed_{0};       // set once, at Open()
  std::atomic<uint64_t> ckpt_retry_later_{0};    // mid-bootstrap refusals

  // ---- Cluster plane --------------------------------------------------------
  mutable std::mutex slot_mu_;
  std::vector<uint32_t> slot_keys_;  // per-slot live-key counts
  std::atomic<uint64_t> ask_replies_{0};
  std::atomic<uint64_t> mig_applied_ops_{0};

  // ---- Transaction state (DESIGN.md §9) -----------------------------------
  // Prepared-but-undecided txns (executor mutates; event loop reads for
  // PROMOTE resolution) and the sealed decisions this shard coordinated
  // (pruned against the log's retention).
  txn::StagedTable staged_txns_;
  txn::DecisionIndex txn_decisions_;
  // Txns whose staged writes apply after the current batch's Psync;
  // executor only, drained by ApplyPostSealTxns.
  std::vector<txn::TxnId> post_seal_txns_;
  std::atomic<uint64_t> txns_prepared_{0};
  std::atomic<uint64_t> txns_committed_{0};
  std::atomic<uint64_t> txns_aborted_{0};
  std::atomic<uint64_t> txn_decision_records_{0};

  // A replication-stream subscriber and its durability watermark: every
  // record <= acked_seq is durable on that replica (REPLSYNC's from-seq
  // implies from-1; REPLACK frames advance it).
  struct Subscriber {
    uint64_t conn_id = 0;
    uint64_t acked_seq = 0;
  };
  mutable std::mutex subs_mu_;
  std::vector<Subscriber> subs_;

  // WAIT-K state. synced_seq_ is maintained under subs_mu_, read lock-free.
  std::atomic<uint64_t> synced_seq_{0};
  std::atomic<uint64_t> wait_timeouts_{0};
  std::atomic<uint64_t> parked_count_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;  // worker waits here when parked_ full
  std::deque<ParkedBatch> parked_;
  // Quiesce sets this before joining the worker: no release will ever come
  // again, so a worker blocked on a full deque must deliver degraded
  // instead of waiting forever.
  std::atomic<bool> stop_parking_{false};

  // Session-read parking. parked_reads_count_ mirrors parked_reads_.size()
  // so the event-loop tick can skip the lock when nothing is parked.
  std::mutex read_park_mu_;
  std::deque<ParkedRead> parked_reads_;
  std::atomic<uint64_t> parked_reads_count_{0};
  std::atomic<uint64_t> released_reads_{0};
  std::atomic<uint64_t> stale_reads_{0};

  std::mutex hook_mu_;
  std::function<void(uint64_t)> seal_hook_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Request> queue_;
  bool stopping_ = false;

  // The executor lock: held for the whole of RunOneBatch, by the worker
  // (blocking) or by the home loop's inline pass (try-lock). Lock order:
  // exec_mu_ before mu_. Quiesce takes it after joining the worker and sets
  // exec_closed_, so a later inline pass is a no-op. The batch scratch
  // vectors below are guarded by it too.
  std::mutex exec_mu_;
  bool exec_closed_ = false;
  std::vector<Request> exec_batch_;
  std::vector<std::string> exec_replies_;
  std::vector<uint8_t> exec_wrote_;
  std::vector<repl::ReplOp> exec_rops_;

  std::thread worker_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> inline_batches_{0};
  std::atomic<uint64_t> worker_batches_{0};
  std::atomic<uint64_t> max_batch_{0};

  std::mutex quiesce_mu_;
  bool quiesced_ = false;
  ShardReport report_;
};

}  // namespace jnvm::server

#endif  // JNVM_SRC_SERVER_SHARD_H_
