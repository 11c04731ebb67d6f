#include "src/server/shard.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/clock.h"
#include "src/core/integrity.h"
#include "src/pdt/register_all.h"
#include "src/server/protocol.h"
#include "src/store/jpdt_backend.h"
#include "src/store/jpfa_backend.h"
#include "src/store/jpfa_map.h"
#include "src/store/precord.h"

namespace jnvm::server {

namespace {

// Root-map names — must be stable across restarts so recovery finds the
// store and the replication log again.
constexpr char kRootName[] = "server.store";
constexpr char kReplRootName[] = "server.repl";
constexpr char kCkptRootName[] = "server.ckpt";

nvm::DeviceOptions DeviceOptionsFor(const ShardOptions& opts) {
  nvm::DeviceOptions d;
  d.size_bytes = opts.device_bytes;
  if (opts.optane_latency) {
    // Same Optane-like asymmetry as bench/bench_util.h OptaneLike().
    d.read_delay_ns = 80;
    d.write_delay_ns = 60;
    d.pwb_delay_ns = 10;
    d.fence_delay_ns = 150;
  }
  if (opts.fence_ns != 0) {
    d.fence_delay_ns = opts.fence_ns;
  }
  return d;
}

std::string ImagePathFor(const ShardOptions& opts, uint32_t index) {
  if (opts.image_base.empty()) {
    return {};
  }
  return opts.image_base + ".shard" + std::to_string(index) + ".img";
}

std::string DaxPathFor(const ShardOptions& opts, uint32_t index) {
  if (opts.dax_base.empty()) {
    return {};
  }
  return opts.dax_base + ".shard" + std::to_string(index) + ".pmem";
}

bool IsControl(Request::Op op) {
  return op == Request::Op::kReplSync || op == Request::Op::kReplSnap ||
         op == Request::Op::kSnapInstall || op == Request::Op::kPromote ||
         op == Request::Op::kLastSeq || op == Request::Op::kSlotSnap ||
         op == Request::Op::kSlotTail || op == Request::Op::kSlotPurge ||
         op == Request::Op::kCkpt || op == Request::Op::kReplDiff ||
         op == Request::Op::kLogDigests;
}

// Batch composition classes: requests in one batch must share a class.
// Control ops and txn boundary ops (decide / apply / repair — their records
// carry a kTxnCommit op, and no non-txn op may trail a kTxnCommit in a
// record, or live execution order and replay order would diverge) run as
// singleton batches. kTxnExec groups with itself — a run of single-shard
// txns shares one record and one Psync, keeping the group-commit fast path
// — and kApply groups with itself under the apply cap. kTxnPrepare and
// kTxnAbortMark ride in normal batches: staging and dropping touch no store
// state, so their position relative to plain ops is immaterial.
enum class BatchClass : uint8_t { kNormal, kApplyRun, kTxnExecRun, kSingleton };

BatchClass ClassOf(Request::Op op) {
  if (IsControl(op) || op == Request::Op::kTxnDecide ||
      op == Request::Op::kTxnApply || op == Request::Op::kTxnRepair) {
    return BatchClass::kSingleton;
  }
  if (op == Request::Op::kApply) {
    return BatchClass::kApplyRun;
  }
  if (op == Request::Op::kTxnExec) {
    return BatchClass::kTxnExecRun;
  }
  return BatchClass::kNormal;
}

// A shipped record carrying txn ops must form its own apply batch on the
// follower: its staged applies run post-seal of *its* Psync, before any
// later record's plain ops execute — same order as the primary.
bool ApplyRecordHasTxnOps(const Request& req) {
  uint64_t seq = 0;
  std::string_view bf;
  return repl::DecodeRecord(req.value, &seq, &bf) && repl::BatchHasTxnOps(bf);
}

constexpr char kReadonlyMsg[] = "READONLY replica - write rejected";

uint64_t NowMs() { return NowNs() / 1000000ull; }

// Microseconds since `*t0`, rounded up so a phase that ran never reads 0;
// advances `*t0` to now, where the next phase starts.
uint64_t PhaseUs(uint64_t* t0) {
  const uint64_t now = NowNs();
  const uint64_t us = (now - *t0 + 999) / 1000;
  *t0 = now;
  return us;
}

}  // namespace

std::unique_ptr<Shard> Shard::Open(const ShardOptions& opts, uint32_t index,
                                   CompletionSink* sink) {
  JNVM_CHECK(sink != nullptr);
  JNVM_CHECK(opts.backend == "jpdt" || opts.backend == "jpfa");
  JNVM_CHECK_MSG(!opts.follower || opts.repl_log,
                 "follower shards need the replication log");
  JNVM_CHECK_MSG(opts.wait_acks == 0 || opts.repl_log,
                 "--wait-acks needs the replication log");
  JNVM_CHECK_MSG(opts.wait_acks == 0 || opts.wait_max_parked > 0,
                 "wait_max_parked must be positive");
  auto s = std::unique_ptr<Shard>(new Shard());
  s->index_ = index;
  s->opts_ = opts;
  s->sink_ = sink;
  s->follower_.store(opts.follower, std::memory_order_release);

  // Recovery resurrects objects by persisted class name: every class that
  // can live on a shard heap must be registered before Open().
  pdt::RegisterStandardClasses();
  store::PRecord::Class();
  store::JpfaEntry::Class();
  store::JpfaHashMap::Class();
  repl::ReplLogRoot::Class();
  repl::ReplLogSegment::Class();
  ckpt::CkptMeta::Class();

  const std::string dax = DaxPathFor(opts, index);
  const std::string image = ImagePathFor(opts, index);
  const nvm::DeviceOptions dopts = DeviceOptionsFor(opts);
  uint64_t phase_t0 = NowNs();
  if (!dax.empty()) {
    // Cluster fleet mode: the device is the mmap'd file itself — a crashed
    // process (kill -9) leaves its state in the page cache, and the next
    // Open() recovers from it exactly like a restart from an image.
    bool existed = false;
    std::string map_err;
    s->dev_ = nvm::PmemDevice::MapFile(dax, dopts, &existed, &map_err);
    JNVM_CHECK_MSG(s->dev_ != nullptr, "cannot map shard dax file");
    if (existed) {
      s->rt_ = core::JnvmRuntime::Open(s->dev_.get());  // runs recovery
      s->recovered_ = true;
    } else {
      s->rt_ = core::JnvmRuntime::Format(s->dev_.get());
    }
  } else if (!image.empty() && std::filesystem::exists(image)) {
    s->dev_ = nvm::PmemDevice::LoadFrom(image, dopts);
    JNVM_CHECK(s->dev_ != nullptr);  // existing image must be readable
    s->rt_ = core::JnvmRuntime::Open(s->dev_.get());  // runs recovery
    s->recovered_ = true;
  } else {
    s->dev_ = std::make_unique<nvm::PmemDevice>(dopts);
    s->rt_ = core::JnvmRuntime::Format(s->dev_.get());
  }
  s->open_us_.heap = PhaseUs(&phase_t0);

  // Binding the backend resurrects the store map, which rebuilds its
  // volatile mirror from the keys alone.
  if (opts.backend == "jpdt") {
    s->backend_ = std::make_unique<store::JpdtBackend>(s->rt_.get(), kRootName,
                                                       opts.map_capacity);
  } else {
    s->backend_ = std::make_unique<store::JpfaBackend>(s->rt_.get(), kRootName,
                                                       opts.map_capacity);
  }
  store::StoreOptions sopts;
  sopts.cache_ratio = 0.0;  // J-NVM backends run uncached (§5.3.1)
  sopts.expected_records = opts.map_capacity;
  s->kv_ = std::make_unique<store::KvStore>(s->backend_.get(), nullptr, sopts);
  s->open_us_.index = PhaseUs(&phase_t0);

  if (opts.repl_log) {
    repl::ReplLogOptions lopts;
    lopts.segment_bytes = opts.repl_segment_bytes;
    lopts.max_segments = opts.repl_max_segments;
    s->log_ = repl::ReplLog::OpenOrCreate(s->rt_.get(), kReplRootName, lopts);
    if (!opts.follower && s->log_->needs_snapshot()) {
      // A crash interrupted a snapshot install and the shard now (re)starts
      // as a primary: the store image is authoritative, so open a fresh log
      // epoch. Replicas whose sequence numbers no longer line up fall back
      // to REPLSNAP bootstrap.
      s->log_->FinishInstall(1);
      s->rt_->Psync();
    }
    // Checkpoint meta (DESIGN.md §11): the durable LSN pair bounding replay.
    if (s->rt_->root().Exists(kCkptRootName)) {
      s->ckpt_meta_ = s->rt_->root().GetAs<ckpt::CkptMeta>(kCkptRootName);
      JNVM_CHECK(s->ckpt_meta_ != nullptr);
    } else {
      s->ckpt_meta_ = std::make_shared<ckpt::CkptMeta>(*s->rt_);
      s->rt_->root().Put(kCkptRootName, s->ckpt_meta_.get());
    }
    s->ckpt_count_.store(s->ckpt_meta_->Count(), std::memory_order_relaxed);
    s->ckpt_begin_.store(s->ckpt_meta_->BeginSeq(), std::memory_order_relaxed);
    s->ckpt_end_.store(s->ckpt_meta_->EndSeq(), std::memory_order_relaxed);
    s->ckpt_walked_keys_.store(s->ckpt_meta_->WalkedKeys(),
                               std::memory_order_relaxed);
    s->ckpt_walked_bytes_.store(s->ckpt_meta_->WalkedBytes(),
                                std::memory_order_relaxed);

    // Rebuild txn state from the retained log (DESIGN.md §9): prepares
    // stage, decisions index, markers and aborts resolve. Records before
    // the replay point have fully-applied store effects; the replay range
    // is then redone against this state so a marker re-applies its staged
    // writes idempotently.
    //
    // Without a checkpoint only the tail record's effects can be incomplete
    // (replay point = next-1, the pre-checkpoint behaviour). A durable
    // checkpoint widens the range to [ckpt_begin, next) — clamped into the
    // retained log, so a stale pair (older epoch, or behind a ring-full
    // truncation) degrades to a broader idempotent replay, never a gap.
    txn::LogScanResult scan;
    uint64_t replay_from = 0;
    if (!s->log_->needs_snapshot() && !s->log_->empty()) {
      replay_from = s->log_->next_seq() - 1;
      if (s->ckpt_meta_->Count() > 0) {
        replay_from =
            std::min(std::max(s->ckpt_meta_->BeginSeq(), s->log_->start_seq()),
                     s->log_->next_seq());
      }
      txn::ScanLogForTxns(*s->log_, replay_from, &scan);
    }
    if (s->recovered_) {
      s->RedoLogTail(replay_from, &scan);
    }
    for (auto& [id, t] : scan.staged) {
      s->staged_txns_.Stage(id, std::move(t));
    }
    for (auto& [id, sd] : scan.decisions) {
      s->txn_decisions_.Add(id, sd.first, std::move(sd.second));
    }
    s->PublishReplStats();
    s->open_us_.log = PhaseUs(&phase_t0);
  }

  // Per-slot accounting starts from the recovered store's keys; every later
  // mutation adjusts it incrementally in the batch executor.
  s->RebuildSlotCounts();
  s->open_us_.slots = PhaseUs(&phase_t0);

  s->worker_ = std::thread(&Shard::WorkerLoop, s.get());
  return s;
}

Shard::~Shard() { Quiesce(); }

// Redo replay (recovery): a crash can leave the last log record sealed
// while the store's mutations for that batch are per-key old-or-new
// (eviction decides per line). Re-applying records from `replay_from` — the
// ops are idempotent state-setters — converges the store onto the
// sealed-batch boundary, so the log and the store agree before the shard
// serves traffic. Without a checkpoint the range is just the tail record;
// with one it is [ckpt_begin, next) — every record below ckpt_begin had
// durably-applied effects when the checkpoint finalized (DESIGN.md §11).
// `scan` holds the txn state reconstructed from the records before the
// range: a replayed commit marker re-applies its staged writes through the
// same transition the live post-seal path took.
void Shard::RedoLogTail(uint64_t replay_from, txn::LogScanResult* scan) {
  if (log_ == nullptr || log_->needs_snapshot() || log_->empty()) {
    return;
  }
  const uint64_t next = log_->next_seq();
  uint64_t replayed = 0;
  std::string payload;
  for (uint64_t seq = replay_from; seq < next; ++seq) {
    if (!log_->Read(seq, &payload)) {
      continue;  // below retention (stale checkpoint pair); be defensive
    }
    std::vector<repl::ReplOp> ops;
    if (!repl::DecodeBatch(payload, &ops)) {
      continue;  // cannot happen for a checksummed record; be defensive
    }
    txn::ReplayRecordOps(rt_.get(), kv_.get(), ops, scan);
    // The replay stages this record's prepares with seq 0; resolution
    // planning wants the real seq the prepare sealed under.
    for (auto& [id, t] : scan->staged) {
      if (t.prepare_seq == 0) {
        t.prepare_seq = seq;
      }
    }
    ++replayed;
  }
  // STATS `ckpt` line: the CI bootstrap job asserts recovery replayed a
  // tail, not the whole log, once a checkpoint bounds it.
  ckpt_replayed_.store(replayed, std::memory_order_relaxed);
  if (replayed > 0) {
    rt_->Psync();
  }
}

bool Shard::Submit(Request&& req) {
  std::unique_lock<std::mutex> lk(mu_);
  not_full_.wait(lk,
                 [&] { return stopping_ || queue_.size() < opts_.queue_capacity; });
  if (stopping_) {
    return false;
  }
  queue_.push_back(std::move(req));
  lk.unlock();
  not_empty_.notify_one();
  return true;
}

Shard::SubmitResult Shard::TrySubmit(Request&& req, bool wake) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      return SubmitResult::kStopped;
    }
    if (queue_.size() >= opts_.queue_capacity) {
      return SubmitResult::kFull;  // req untouched: caller stalls and retries
    }
    queue_.push_back(std::move(req));
  }
  if (wake) {
    not_empty_.notify_one();
  }
  return SubmitResult::kOk;
}

bool Shard::InlineRunnableLocked() const {
  const BatchClass c = ClassOf(queue_.front().op);
  if (c != BatchClass::kNormal && c != BatchClass::kTxnExecRun) {
    return false;
  }
  // Only the executor parks, so a park set with room now still has room
  // when this batch parks: ParkBatch cannot block the loop.
  return opts_.wait_acks == 0 || follower() ||
         parked_count_.load(std::memory_order_acquire) < opts_.wait_max_parked;
}

bool Shard::RunInline() {
  std::unique_lock<std::mutex> el(exec_mu_, std::try_to_lock);
  if (!el.owns_lock()) {
    // The worker is mid-batch and re-checks the queue when it finishes;
    // the notify covers it going back to sleep in between.
    not_empty_.notify_one();
    return false;
  }
  if (exec_closed_) {
    return false;
  }
  size_t budget = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    budget = queue_.size();
  }
  // Bounded: requests queued after the pass began wait for the next round,
  // so a flooded shard cannot keep its loop from polling its other
  // connections.
  while (budget > 0) {
    const size_t ran = RunOneBatch(/*inline_pass=*/true, budget);
    if (ran == 0) {
      return false;  // drained, or handed to the worker
    }
    budget -= ran;
  }
  std::lock_guard<std::mutex> lk(mu_);
  return !queue_.empty();
}

void Shard::Unsubscribe(uint64_t conn_id) {
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    for (auto it = subs_.begin(); it != subs_.end();) {
      it = it->conn_id == conn_id ? subs_.erase(it) : it + 1;
    }
    RecomputeSyncedLocked();
  }
  // Losing a subscriber can only lower the watermark: parked batches that
  // now lack their quorum stay parked and fall out via the timeout path.
}

// Caller holds subs_mu_. With K = wait_acks, the shard-wide synced seq is
// the K-th highest subscriber watermark: every record <= it is durable on
// at least K replicas. Fewer than K subscribers → nothing is synced.
void Shard::RecomputeSyncedLocked() {
  const uint32_t k = opts_.wait_acks;
  if (k == 0) {
    return;
  }
  uint64_t synced = 0;
  if (subs_.size() >= k) {
    std::vector<uint64_t> marks;
    marks.reserve(subs_.size());
    for (const Subscriber& s : subs_) {
      marks.push_back(s.acked_seq);
    }
    std::nth_element(marks.begin(), marks.begin() + (k - 1), marks.end(),
                     std::greater<uint64_t>());
    synced = marks[k - 1];
  }
  synced_seq_.store(synced, std::memory_order_release);
}

void Shard::Ack(uint64_t conn_id, uint64_t seq) {
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    bool known = false;
    for (Subscriber& s : subs_) {
      if (s.conn_id == conn_id) {
        known = true;
        if (seq > s.acked_seq) {
          s.acked_seq = seq;
        }
      }
    }
    if (!known) {
      return;  // ack raced the unsubscribe; watermark unchanged
    }
    RecomputeSyncedLocked();
  }
  ReleaseParked(NowMs(), /*force=*/false);
}

void Shard::TickWait(uint64_t now_ms) {
  if (parked_count_.load(std::memory_order_acquire) == 0) {
    return;
  }
  ReleaseParked(now_ms, /*force=*/false);
}

void Shard::SetSealHook(std::function<void(uint64_t)> hook) {
  std::lock_guard<std::mutex> lk(hook_mu_);
  seal_hook_ = std::move(hook);
}

void Shard::NotifySealHook(uint64_t sealed_seq) {
  std::lock_guard<std::mutex> lk(hook_mu_);
  if (seal_hook_) {
    seal_hook_(sealed_seq);
  }
}

bool Shard::Execute(const Request& req, std::string* reply,
                    std::vector<repl::ReplOp>* rops) {
  switch (req.op) {
    case Request::Op::kSet: {
      if (follower()) {
        if (req.multi != nullptr) {
          req.multi->Fail(kReadonlyMsg);
        } else {
          AppendErrorCode(reply, kReadonlyMsg);
        }
        return false;
      }
      // MIGRATING slot: a key this node no longer holds belongs to the
      // destination — redirect instead of resurrecting it here (the copy
      // cursor may already be past its slot).
      if (!req.ask_addr.empty() && !kv_->ReadTouch(req.key)) {
        ask_replies_.fetch_add(1, std::memory_order_relaxed);
        if (req.multi != nullptr) {
          req.multi->Fail("ASK " + req.ask_addr);
        } else {
          AppendErrorCode(reply, "ASK " + req.ask_addr);
        }
        return false;
      }
      store::Record r;
      r.fields.push_back(req.value);
      if (kv_->Put(req.key, r)) {
        SlotDelta(req.key, +1);
      }
      if (log_ != nullptr) {
        repl::ReplOp op;
        op.kind = repl::ReplOp::Kind::kPut;
        op.key = req.key;
        op.record = std::move(r);
        rops->push_back(std::move(op));
      }
      if (req.multi == nullptr) {
        AppendSimple(reply, "OK");
      }
      return true;
    }
    case Request::Op::kGet: {
      store::Record r;
      if (!kv_->Read(req.key, &r)) {
        if (!req.ask_addr.empty()) {
          ask_replies_.fetch_add(1, std::memory_order_relaxed);
          AppendErrorCode(reply, "ASK " + req.ask_addr);
          return false;
        }
        AppendNil(reply);
        return false;
      }
      if (r.fields.size() == 1) {
        AppendBulk(reply, r.fields[0]);
      } else {
        std::string joined;
        for (const std::string& f : r.fields) {
          joined += f;
        }
        AppendBulk(reply, joined);
      }
      return false;
    }
    case Request::Op::kDel: {
      if (follower()) {
        AppendErrorCode(reply, kReadonlyMsg);
        return false;
      }
      const bool removed = kv_->Delete(req.key);
      if (!removed && !req.ask_addr.empty()) {
        ask_replies_.fetch_add(1, std::memory_order_relaxed);
        AppendErrorCode(reply, "ASK " + req.ask_addr);
        return false;
      }
      if (removed) {
        SlotDelta(req.key, -1);
      }
      AppendInteger(reply, removed ? 1 : 0);
      if (removed && log_ != nullptr) {
        repl::ReplOp op;
        op.kind = repl::ReplOp::Kind::kDel;
        op.key = req.key;
        rops->push_back(std::move(op));
      }
      return removed;
    }
    case Request::Op::kHset: {
      if (follower()) {
        AppendErrorCode(reply, kReadonlyMsg);
        return false;
      }
      const bool ok = kv_->Update(req.key, req.field, req.value);
      if (!ok && !req.ask_addr.empty()) {
        ask_replies_.fetch_add(1, std::memory_order_relaxed);
        AppendErrorCode(reply, "ASK " + req.ask_addr);
        return false;
      }
      AppendInteger(reply, ok ? 1 : 0);
      if (ok && log_ != nullptr) {
        repl::ReplOp op;
        op.kind = repl::ReplOp::Kind::kUpdate;
        op.key = req.key;
        op.field = req.field;
        op.value = req.value;
        rops->push_back(std::move(op));
      }
      return ok;
    }
    case Request::Op::kTouch: {
      const bool present = kv_->ReadTouch(req.key);
      if (!present && !req.ask_addr.empty()) {
        ask_replies_.fetch_add(1, std::memory_order_relaxed);
        AppendErrorCode(reply, "ASK " + req.ask_addr);
        return false;
      }
      AppendInteger(reply, present ? 1 : 0);
      return false;
    }
    case Request::Op::kApply:
      return ExecuteApply(req);
    case Request::Op::kTxnExec:
      return ExecuteTxnExec(req, rops);
    case Request::Op::kTxnPrepare:
      return ExecuteTxnPrepare(req, rops);
    case Request::Op::kTxnDecide:
      return ExecuteTxnDecide(req, rops);
    case Request::Op::kTxnApply:
      return ExecuteTxnApply(req, rops);
    case Request::Op::kTxnAbortMark:
      return ExecuteTxnAbortMark(req, rops);
    case Request::Op::kTxnRepair:
      return ExecuteTxnRepair(req, rops);
    case Request::Op::kReplSync:
      ExecuteReplSync(req, reply);
      return false;
    case Request::Op::kReplSnap:
      ExecuteReplSnap(reply);
      return false;
    case Request::Op::kSnapInstall: {
      std::string error;
      const bool ok = ExecuteSnapInstall(req, &error);
      // Waiter payload, not RESP: '-' marks failure (see DeliverBatch).
      *reply = ok ? std::string() : "-" + error;
      return ok;
    }
    case Request::Op::kSlotSnap:
      ExecuteSlotSnap(req, reply);
      return false;
    case Request::Op::kSlotTail:
      ExecuteSlotTail(req, reply);
      return false;
    case Request::Op::kSlotPurge:
      return ExecuteSlotPurge(req, reply, rops);
    case Request::Op::kMigApply:
      return ExecuteMigApply(req, reply, rops);
    case Request::Op::kCkpt:
      return ExecuteCkpt(req, reply);
    case Request::Op::kReplDiff:
      ExecuteReplDiff(req, reply);
      return false;
    case Request::Op::kLogDigests:
      ExecuteLogDigests(reply);
      return false;
    case Request::Op::kPromote:
      ExecutePromote(req, reply);
      return false;
    case Request::Op::kLastSeq: {
      // Singleton control batch: every write the connection pipelined ahead
      // of this command is already sealed, so next-1 covers them all — the
      // client lib turns this into its session min-seq token.
      if (log_ == nullptr) {
        AppendError(reply, "replication log disabled");
      } else {
        AppendInteger(reply, static_cast<int64_t>(log_->next_seq() - 1));
      }
      return false;
    }
  }
  AppendError(reply, "internal: unknown op");
  return false;
}

// Applies one shipped record: store mutations through the apply path, then
// the record is appended to the *local* log under the primary's sequence
// number — the mirrored log is what makes promotion, restart resync and
// chained replication work. Duplicates (stale frames after a resync) and
// gaps are dropped; the batch Psync seals apply + append together.
bool Shard::ExecuteApply(const Request& req) {
  if (log_ == nullptr || log_->needs_snapshot()) {
    return false;
  }
  uint64_t seq = 0;
  std::string_view bf;
  if (!repl::DecodeRecord(req.value, &seq, &bf)) {
    return false;
  }
  if (seq != log_->next_seq()) {
    return false;  // duplicate (< next) or gap (> next): wait for resync
  }
  std::vector<repl::ReplOp> ops;
  if (!repl::DecodeBatch(bf, &ops)) {
    return false;
  }
  for (const repl::ReplOp& op : ops) {
    switch (op.kind) {
      case repl::ReplOp::Kind::kPut:
        if (kv_->ApplyPut(op.key, op.record)) {
          SlotDelta(op.key, +1);
        }
        break;
      case repl::ReplOp::Kind::kDel:
        if (kv_->ApplyDelete(op.key)) {
          SlotDelta(op.key, -1);
        }
        break;
      case repl::ReplOp::Kind::kUpdate:
        kv_->ApplyUpdate(op.key, op.field, op.value);
        break;
      // Txn ops mirror the primary's discipline: stage at execute, apply
      // post-seal — a record carrying them runs as its own apply batch
      // (ApplyRecordHasTxnOps), so the staged writes become visible after
      // exactly this record's Psync, never interleaved with later records.
      case repl::ReplOp::Kind::kTxnPrepare: {
        txn::TxnId id = 0;
        if (!txn::ParseTxnIdKey(op.key, &id)) {
          break;
        }
        txn::StagedTxn st;
        st.coordinator = op.field;
        st.prepare_seq = seq;
        std::vector<repl::ReplOp> writes;
        if (repl::DecodeBatch(op.value, &writes)) {
          st.writes = std::move(writes);
        }
        staged_txns_.Stage(id, std::move(st));
        txns_prepared_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case repl::ReplOp::Kind::kTxnCommit: {
        txn::TxnId id = 0;
        if (!txn::ParseTxnIdKey(op.key, &id)) {
          break;
        }
        if (!op.value.empty()) {
          txn::Decision d;
          if (txn::DecodeDecision(op.value, &d)) {
            txn_decisions_.Add(id, seq, std::move(d));
            txn_decisions_.PruneBelow(log_->start_seq());
            txn_decision_records_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        post_seal_txns_.push_back(id);
        break;
      }
      case repl::ReplOp::Kind::kTxnAbort: {
        txn::TxnId id = 0;
        if (txn::ParseTxnIdKey(op.key, &id) && staged_txns_.Drop(id)) {
          txns_aborted_.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
    }
  }
  log_->Append(seq, bf);
  applied_batches_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// ---- Transaction plane (DESIGN.md §9) ---------------------------------------
//
// All six handlers obey one discipline: txn writes never mutate the store at
// execute time. They stage in staged_txns_ and the record that justifies the
// apply (commit marker or decision) queues the id in post_seal_txns_; the
// actual mutation runs in ApplyPostSealTxns, after the batch's Psync sealed
// that record. A crash before the seal leaves the store untouched — the txn
// is still cleanly abortable — and a crash after it is redone from the log.

void Shard::RunTxnOps(txn::TxnPart& part,
                      const std::shared_ptr<txn::TxnState>& t,
                      std::vector<repl::ReplOp>* writes) {
  std::lock_guard<std::mutex> lk(t->mu);
  for (const txn::TxnOp& op : part.ops) {
    std::string* reply = &t->replies[op.reply_index];
    // The latest staged write to the same key wins a read or an existence
    // probe (txn read-your-writes); the store itself is pre-txn state.
    const repl::ReplOp* staged = nullptr;
    for (const repl::ReplOp& w : *writes) {
      if (w.key == op.key) {
        staged = &w;
      }
    }
    switch (op.kind) {
      case txn::TxnOp::Kind::kSet: {
        repl::ReplOp w;
        w.kind = repl::ReplOp::Kind::kPut;
        w.key = op.key;
        w.record.fields.push_back(op.value);
        writes->push_back(std::move(w));
        AppendSimple(reply, "OK");
        break;
      }
      case txn::TxnOp::Kind::kGet: {
        std::string joined;
        if (staged != nullptr) {
          if (staged->kind == repl::ReplOp::Kind::kDel) {
            AppendNil(reply);
            break;
          }
          for (const std::string& f : staged->record.fields) {
            joined += f;
          }
          AppendBulk(reply, joined);
          break;
        }
        store::Record r;
        if (!kv_->Read(op.key, &r)) {
          AppendNil(reply);
          break;
        }
        for (const std::string& f : r.fields) {
          joined += f;
        }
        AppendBulk(reply, joined);
        break;
      }
      case txn::TxnOp::Kind::kDel: {
        bool present = false;
        if (staged != nullptr) {
          present = staged->kind != repl::ReplOp::Kind::kDel;
        } else {
          store::Record r;
          present = kv_->Read(op.key, &r);
        }
        AppendInteger(reply, present ? 1 : 0);
        if (present) {
          repl::ReplOp w;
          w.kind = repl::ReplOp::Kind::kDel;
          w.key = op.key;
          writes->push_back(std::move(w));
        }
        break;
      }
    }
  }
}

// Single-shard fast path: one record carries both the prepare image and the
// commit marker, so the txn costs the same one sealed record and one Psync
// as a plain batch — and a run of kTxnExec requests shares both.
bool Shard::ExecuteTxnExec(const Request& req, std::vector<repl::ReplOp>* rops) {
  const std::shared_ptr<txn::TxnState>& t = req.txn;
  txn::TxnPart& part = t->parts[req.txn_part];
  if (follower()) {
    t->Fail(kReadonlyMsg);
    return false;
  }
  if (log_ == nullptr) {
    t->Fail("replication log disabled - transactions unavailable");
    return false;
  }
  std::vector<repl::ReplOp> writes;
  RunTxnOps(part, t, &writes);
  if (writes.empty()) {
    part.has_writes = false;
    return false;  // read-only txn: nothing to seal or apply
  }
  part.has_writes = true;
  repl::EncodeBatch(writes, &part.writes_frame);
  part.prepare_seq = log_->next_seq();
  txn::StagedTxn st;
  st.coordinator = t->coordinator;
  st.prepare_seq = part.prepare_seq;
  st.writes = std::move(writes);
  staged_txns_.Stage(t->id, std::move(st));
  txns_prepared_.fetch_add(1, std::memory_order_relaxed);
  repl::ReplOp prep;
  prep.kind = repl::ReplOp::Kind::kTxnPrepare;
  prep.key = txn::TxnIdKey(t->id);
  prep.field = t->coordinator;
  prep.value = part.writes_frame;
  rops->push_back(std::move(prep));
  repl::ReplOp marker;
  marker.kind = repl::ReplOp::Kind::kTxnCommit;
  marker.key = txn::TxnIdKey(t->id);
  rops->push_back(std::move(marker));
  post_seal_txns_.push_back(t->id);
  return true;
}

// Cross-shard phase 1: run this part's ops, stage its writes, seal a
// kTxnPrepare record carrying them. Read-only participants join the phase
// without a record — they never enter the decision's membership.
bool Shard::ExecuteTxnPrepare(const Request& req,
                              std::vector<repl::ReplOp>* rops) {
  const std::shared_ptr<txn::TxnState>& t = req.txn;
  txn::TxnPart& part = t->parts[req.txn_part];
  if (follower()) {
    t->Fail(kReadonlyMsg);
    return false;
  }
  if (log_ == nullptr) {
    t->Fail("replication log disabled - transactions unavailable");
    return false;
  }
  std::vector<repl::ReplOp> writes;
  RunTxnOps(part, t, &writes);
  if (writes.empty()) {
    part.has_writes = false;
    return false;
  }
  part.has_writes = true;
  repl::EncodeBatch(writes, &part.writes_frame);
  part.prepare_seq = log_->next_seq();
  txn::StagedTxn st;
  st.coordinator = t->coordinator;
  st.prepare_seq = part.prepare_seq;
  st.writes = std::move(writes);
  staged_txns_.Stage(t->id, std::move(st));
  txns_prepared_.fetch_add(1, std::memory_order_relaxed);
  repl::ReplOp prep;
  prep.kind = repl::ReplOp::Kind::kTxnPrepare;
  prep.key = txn::TxnIdKey(t->id);
  prep.field = t->coordinator;
  prep.value = part.writes_frame;
  rops->push_back(std::move(prep));
  return true;
}

// Cross-shard phase 2, coordinator only: seal the decision record — THE
// durability point of the txn. req.value carries the encoded txn::Decision
// built by the event loop from the prepare phase's results. The decision
// doubles as this shard's own commit marker, so a coordinator that is also
// a write participant applies its staged writes post-seal of this record.
bool Shard::ExecuteTxnDecide(const Request& req,
                             std::vector<repl::ReplOp>* rops) {
  const std::shared_ptr<txn::TxnState>& t = req.txn;
  txn::Decision d;
  if (txn::DecodeDecision(req.value, &d)) {
    txn_decisions_.Add(t->id, log_->next_seq(), std::move(d));
    txn_decisions_.PruneBelow(log_->start_seq());
  }
  txn_decision_records_.fetch_add(1, std::memory_order_relaxed);
  repl::ReplOp op;
  op.kind = repl::ReplOp::Kind::kTxnCommit;
  op.key = txn::TxnIdKey(t->id);
  op.value = req.value;
  rops->push_back(std::move(op));
  post_seal_txns_.push_back(t->id);
  return true;
}

// Cross-shard phase 3 (and recovery resolution): seal a commit marker for a
// staged txn, apply post-seal. Idempotent — a marker for a txn no longer
// staged (already resolved) seals nothing.
bool Shard::ExecuteTxnApply(const Request& req,
                            std::vector<repl::ReplOp>* rops) {
  txn::TxnId id = 0;
  if (!txn::ParseTxnIdKey(req.key, &id) || !staged_txns_.Has(id)) {
    return false;
  }
  repl::ReplOp op;
  op.kind = repl::ReplOp::Kind::kTxnCommit;
  op.key = req.key;
  rops->push_back(std::move(op));
  post_seal_txns_.push_back(id);
  return true;
}

// Abort: drop the staged writes and seal an explicit kTxnAbort marker, so
// the log records the resolution (recovery and replicas drop it the same
// way) — never a silent partial apply.
bool Shard::ExecuteTxnAbortMark(const Request& req,
                                std::vector<repl::ReplOp>* rops) {
  txn::TxnId id = 0;
  if (!txn::ParseTxnIdKey(req.key, &id) || !staged_txns_.Drop(id)) {
    return false;  // never prepared here, or already resolved: no record
  }
  txns_aborted_.fetch_add(1, std::memory_order_relaxed);
  repl::ReplOp op;
  op.kind = repl::ReplOp::Kind::kTxnAbort;
  op.key = req.key;
  rops->push_back(std::move(op));
  return true;
}

// Promote repair: the sealed decision proves this shard was a write
// participant, but its log never received the prepare (gapless log, next
// seq <= the decision's prepare seq). Stage the writes from the decision
// record itself (req.value) and commit them in one [prepare|marker] record.
bool Shard::ExecuteTxnRepair(const Request& req,
                             std::vector<repl::ReplOp>* rops) {
  txn::TxnId id = 0;
  if (!txn::ParseTxnIdKey(req.key, &id)) {
    return false;
  }
  if (!staged_txns_.Has(id)) {
    std::vector<repl::ReplOp> writes;
    if (!repl::DecodeBatch(req.value, &writes)) {
      return false;
    }
    txn::StagedTxn st;
    st.coordinator = req.field;
    st.prepare_seq = log_->next_seq();
    st.writes = std::move(writes);
    staged_txns_.Stage(id, std::move(st));
    txns_prepared_.fetch_add(1, std::memory_order_relaxed);
    repl::ReplOp prep;
    prep.kind = repl::ReplOp::Kind::kTxnPrepare;
    prep.key = req.key;
    prep.field = req.field;
    prep.value = req.value;
    rops->push_back(std::move(prep));
  }
  repl::ReplOp marker;
  marker.kind = repl::ReplOp::Kind::kTxnCommit;
  marker.key = req.key;
  rops->push_back(std::move(marker));
  post_seal_txns_.push_back(id);
  return true;
}

// Executor, directly after the batch's Psync: every record justifying
// these applies is sealed. The staged writes run through the store's apply
// path inside a fresh group-commit window (J-PFA failure-atomic blocks
// inside, see txn::ApplyStagedWrites), then a Psync orders them before any
// later record can seal — preserving the redo-tail invariant that only the
// tail record's store effects may be incomplete after a crash.
void Shard::ApplyPostSealTxns() {
  if (post_seal_txns_.empty()) {
    return;
  }
  rt_->heap().BeginGroupCommit();
  for (const txn::TxnId id : post_seal_txns_) {
    txn::StagedTxn t;
    if (!staged_txns_.Take(id, &t)) {
      continue;  // marker for an already-resolved txn (idempotent)
    }
    txn::ApplyStagedWrites(rt_.get(), kv_.get(), t.writes,
                           [this](const repl::ReplOp& op, bool changed) {
                             if (changed) {
                               const int d =
                                   op.kind == repl::ReplOp::Kind::kDel ? -1 : 1;
                               SlotDelta(op.key, d);
                             }
                           });
    txns_committed_.fetch_add(1, std::memory_order_relaxed);
  }
  rt_->heap().EndGroupCommit();
  rt_->Psync();
  rt_->DrainGroupFrees();
  post_seal_txns_.clear();
}

// The last part of a txn phase to deliver — post-Psync, and post-WAIT-K
// when configured — posts one completion carrying the txn; the event loop
// advances the phase state machine.
void Shard::TxnJoin(const std::shared_ptr<txn::TxnState>& t) {
  if (t->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    Completion c;
    c.conn_id = t->conn_id;
    c.seq = t->reply_seq;
    c.txn = t;
    sink_->OnCompletion(std::move(c));
  }
}

txn::ShardTxnView Shard::TxnView() const {
  txn::ShardTxnView v;
  v.undecided = staged_txns_.Undecided();
  v.decisions = &txn_decisions_;
  v.log_next_seq = sealed_seq_.load(std::memory_order_acquire) + 1;
  return v;
}

// REPLSYNC <shard> <from>: replies +SYNC <from> followed by one bulk per
// retained record in [from, next), then registers the connection as a
// stream subscriber — all within one singleton control batch, so there is
// no gap and no overlap between the backlog and the live stream.
void Shard::ExecuteReplSync(const Request& req, std::string* reply) {
  if (log_ == nullptr) {
    AppendError(reply, "replication log disabled");
    return;
  }
  const uint64_t from = req.repl_seq;
  if (log_->needs_snapshot() || from < log_->start_seq()) {
    AppendErrorCode(reply,
                    "SNAPSHOT replication log truncated; REPLSNAP required");
    return;
  }
  if (from > log_->next_seq()) {
    AppendError(reply, "REPLSYNC from-seq ahead of log");
    return;
  }
  AppendSimple(reply, "SYNC " + std::to_string(from));
  std::string payload;
  std::string frame;
  for (uint64_t seq = from; seq < log_->next_seq(); ++seq) {
    JNVM_CHECK(log_->Read(seq, &payload));
    repl::EncodeRecord(seq, payload, &frame);
    AppendBulk(reply, frame);
    catchup_records_.fetch_add(1, std::memory_order_relaxed);
    catchup_bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  }
  if (req.conn_id != 0) {
    {
      std::lock_guard<std::mutex> lk(subs_mu_);
      // REPLSYNC from=X is an implicit watermark: the replica's own log is
      // durable through X-1, or it would have asked for an earlier seq.
      subs_.push_back(Subscriber{req.conn_id, from == 0 ? 0 : from - 1});
      RecomputeSyncedLocked();
    }
    // A resynced replica can already hold parked batches' records: its
    // subscription alone may complete the quorum.
    ReleaseParked(NowMs(), /*force=*/false);
  }
}

void Shard::ExecuteReplSnap(std::string* reply) {
  if (log_ == nullptr) {
    AppendError(reply, "replication log disabled");
    return;
  }
  // Chained shipping rule: a feeder only ever ships sealed-and-applied
  // state. Mid-bootstrap (crashed between a snapshot install's fences, or
  // never bootstrapped) the store is not a sealed prefix of anything —
  // refuse with an explicit -RETRYLATER, and the downstream backs off and
  // retries once this shard has caught up (counted in STATS `ckpt`).
  if (log_->needs_snapshot()) {
    ckpt_retry_later_.fetch_add(1, std::memory_order_relaxed);
    AppendErrorCode(reply, "RETRYLATER shard is mid-bootstrap; retry");
    return;
  }
  std::vector<repl::SnapshotEntry> entries;
  const bool ok = backend_->SnapshotRecords(
      [&](const std::string& key, const store::Record& r) {
        entries.push_back({key, r});
      });
  if (!ok) {
    AppendError(reply, "backend does not support snapshots");
    return;
  }
  // Singleton control batch: every applied batch is sealed, so next-1 is
  // the exact boundary the image represents.
  const uint64_t snap_seq = log_->next_seq() - 1;
  std::string frame;
  repl::EncodeSnapshot(snap_seq, entries, &frame);
  snap_bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  AppendBulk(reply, frame);
}

// Installs a bootstrap snapshot: the log's pending marker brackets the
// store overwrite (see ReplLog::BeginInstall), extraneous keys are dropped,
// every snapshot record is applied, and the log resets to snap_seq + 1.
bool Shard::ExecuteSnapInstall(const Request& req, std::string* error) {
  if (log_ == nullptr) {
    *error = "replication log disabled";
    return false;
  }
  uint64_t snap_seq = 0;
  std::vector<repl::SnapshotEntry> entries;
  if (!repl::DecodeSnapshot(req.value, &snap_seq, &entries)) {
    *error = "bad snapshot frame";
    return false;
  }
  log_->BeginInstall();
  std::unordered_set<std::string> keep;
  keep.reserve(entries.size());
  for (const repl::SnapshotEntry& e : entries) {
    keep.insert(e.key);
  }
  std::vector<std::string> drop;
  backend_->ForEachKey([&](const std::string& key) {
    if (keep.find(key) == keep.end()) {
      drop.push_back(key);
    }
  });
  for (const std::string& key : drop) {
    kv_->ApplyDelete(key);
  }
  for (const repl::SnapshotEntry& e : entries) {
    kv_->ApplyPut(e.key, e.record);
  }
  log_->FinishInstall(snap_seq + 1);
  // The installed image IS a checkpoint at snap_seq: publish the pair so a
  // crash after this batch's Psync recovers with a tight replay bound. (A
  // crash before it leaves the old pair; recovery clamps a stale begin into
  // the reset log's range, so no misdirected replay either way.)
  ckpt_meta_->Publish(snap_seq + 1, snap_seq, 0, 0);
  ckpt_count_.store(ckpt_meta_->Count(), std::memory_order_relaxed);
  ckpt_begin_.store(snap_seq + 1, std::memory_order_relaxed);
  ckpt_end_.store(snap_seq, std::memory_order_relaxed);
  RebuildSlotCounts();  // the store was wholesale-replaced
  return true;
}

// ---- Checkpoint plane (DESIGN.md §11) ----------------------------------------

// One kCkpt control batch: field 0 walks one slot chunk (fuzzy — client
// batches interleave between chunks), field 1 finalizes. Waiter payloads:
// '+…' success, '-…' failure.
bool Shard::ExecuteCkpt(const Request& req, std::string* reply) {
  if (log_ == nullptr) {
    *reply = "-ERR replication log disabled";
    return false;
  }
  if (log_->needs_snapshot()) {
    *reply = "-RETRYLATER shard is mid-bootstrap; retry";
    return false;
  }
  if (req.field == 0) {
    // Walk chunk. Under the J-NVM heap the store IS the checkpoint image —
    // every batch Psync already made its effects durable in place — so the
    // walk copies nothing: it enumerates the in-range records through the
    // snapshot cursor (read-back validation) and accounts keys/bytes.
    if (req.slot_lo == 0) {
      ckpt_walk_keys_ = 0;
      ckpt_walk_bytes_ = 0;
    }
    uint64_t keys = 0;
    uint64_t bytes = 0;
    const bool ok = backend_->SnapshotRecords(
        [&](const std::string& key, const store::Record& r) {
          const uint16_t s = cluster::SlotForKey(key);
          if (s >= req.slot_lo && s <= req.slot_hi) {
            ++keys;
            bytes += key.size();
            for (const std::string& f : r.fields) {
              bytes += f.size();
            }
          }
        });
    if (!ok) {
      *reply = "-ERR backend does not support snapshots";
      return false;
    }
    ckpt_walk_keys_ += keys;
    ckpt_walk_bytes_ += bytes;
    *reply = "+";
    return false;
  }
  // Finalize — the checkpoint's durability point. The sequence (and why a
  // crash at any prefix of it is safe) is documented in ckpt_meta.h:
  //   Psync → meta Publish → Pfence → TruncateBelow(begin).
  // Singleton control batch: every sealed record's store effects were
  // applied at execute time (plain ops) or post-seal with their own Psync
  // (staged txns), so the Psync here makes the whole prefix durable.
  rt_->Psync();
  // An undecided txn's prepare record must outlive the checkpoint: its
  // staged writes materialize only at the (future) decision, so truncating
  // the prepare would lose them on a crash. Clamp the pair below the oldest
  // staged prepare — replay from there re-stages it idempotently.
  const uint64_t begin =
      std::min(log_->next_seq(), staged_txns_.MinPrepareSeq());
  ckpt_meta_->Publish(begin, begin - 1, ckpt_walk_keys_, ckpt_walk_bytes_);
  rt_->Pfence();
  const uint32_t reclaimed = log_->TruncateBelow(begin);
  ckpt_count_.store(ckpt_meta_->Count(), std::memory_order_relaxed);
  ckpt_begin_.store(begin, std::memory_order_relaxed);
  ckpt_end_.store(begin - 1, std::memory_order_relaxed);
  ckpt_walked_keys_.store(ckpt_walk_keys_, std::memory_order_relaxed);
  ckpt_walked_bytes_.store(ckpt_walk_bytes_, std::memory_order_relaxed);
  ckpt_truncated_segs_.fetch_add(reclaimed, std::memory_order_relaxed);
  *reply = "+begin=" + std::to_string(begin) +
           " end=" + std::to_string(begin - 1) +
           " truncated=" + std::to_string(reclaimed);
  // True: the meta published and segments may have unlinked — the batch
  // Psync must run before DrainGroupFrees releases them.
  return true;
}

// Segment-diff rejoin, primary side (REPLDIFF <shard> <from> <digests>):
// verify every digest the follower advertises against this log's retained
// records, then — all verified — behave exactly like REPLSYNC: +SYNC, the
// backlog from `from`, and a live subscription. Digests below this log's
// retention are skipped (their records' effects are inside the checkpointed
// image and REPLSYNC's from-seq contract never verified them either); a
// digest past next_seq or one that mismatches is genuine divergence —
// -DIFFBASE, only REPLSNAP can reconcile.
void Shard::ExecuteReplDiff(const Request& req, std::string* reply) {
  if (log_ == nullptr) {
    AppendError(reply, "replication log disabled");
    return;
  }
  if (log_->needs_snapshot()) {
    ckpt_retry_later_.fetch_add(1, std::memory_order_relaxed);
    AppendErrorCode(reply, "RETRYLATER shard is mid-bootstrap; retry");
    return;
  }
  if (req.repl_seq < log_->start_seq()) {
    AppendErrorCode(reply,
                    "SNAPSHOT replication log truncated; REPLSNAP required");
    return;
  }
  if (req.repl_seq > log_->next_seq()) {
    AppendError(reply, "REPLDIFF from-seq ahead of log");
    return;
  }
  std::vector<repl::SegDigest> digests;
  if (!repl::DecodeSegDigests(req.value, &digests)) {
    AppendError(reply, "bad digest frame");
    return;
  }
  for (const repl::SegDigest& d : digests) {
    if (d.records == 0 || d.base_seq < log_->start_seq()) {
      continue;  // fully or partially below retention: unverifiable here
    }
    if (d.base_seq + d.records > log_->next_seq() || !log_->VerifyDigest(d)) {
      AppendErrorCode(reply,
                      "DIFFBASE segment digest mismatch; REPLSNAP required");
      return;
    }
  }
  ExecuteReplSync(req, reply);
}

// Follower side of the handshake: the log is executor-only, so the
// ReplClient fetches its own digests through a control batch.
void Shard::ExecuteLogDigests(std::string* reply) {
  if (log_ == nullptr || log_->needs_snapshot()) {
    *reply = "-ERR no usable replication log";
    return;
  }
  std::string frame;
  repl::EncodeSegDigests(log_->SegmentDigests(), &frame);
  reply->clear();
  reply->push_back('+');
  reply->append(frame);
}

// ---- Cluster plane: slot cursors and import applies --------------------------
//
// The three cursor ops run as singleton control batches submitted by the
// migrator thread with a ReplWaiter: the queue ahead of them has drained, so
// the store and the log are a sealed, mutually consistent prefix when the
// cursor reads them. Waiter payloads are raw bytes, not RESP: '+…' carries
// the frame, '-…' a failure.

// Copy phase: every live key whose slot falls in [slot_lo, slot_hi], plus
// the log seq the image represents — the tail cursor resumes from there.
void Shard::ExecuteSlotSnap(const Request& req, std::string* reply) {
  if (log_ == nullptr || log_->needs_snapshot()) {
    *reply = "-ERR slot snapshot needs a sealed replication log";
    return;
  }
  // A staged-but-undecided txn can commit writes into the range *behind*
  // the cursor (post-seal applies re-run old prepare records): refuse until
  // the staged table drains, so every in-range effect is either in this
  // image or in a log record at a seq the tail cursor will scan.
  if (staged_txns_.Size() > 0) {
    *reply = "-TRYAGAIN staged transactions in flight";
    return;
  }
  std::vector<repl::SnapshotEntry> entries;
  const bool ok = backend_->SnapshotRecords(
      [&](const std::string& key, const store::Record& r) {
        const uint16_t s = cluster::SlotForKey(key);
        if (s >= req.slot_lo && s <= req.slot_hi) {
          entries.push_back({key, r});
        }
      });
  if (!ok) {
    *reply = "-ERR backend does not support snapshots";
    return;
  }
  const uint64_t snap_seq = log_->next_seq() - 1;
  std::string frame;
  repl::EncodeSnapshot(snap_seq, entries, &frame);
  reply->clear();
  reply->push_back('+');
  reply->append(frame);
}

// Catch-up phase: logical ops for the migrating range replayed from the
// replication log. Scans up to kSlotTailMaxRecords records from req.repl_seq
// and returns "+<u64 next-cursor><u8 caught_up><batch frame>"; the migrator
// loops until the cursor passes its barrier seq. A prepare record whose
// nested writes touch the range is refused with -TXNTAIL: its store effects
// materialize only at the (later) decision record, so the migrator must
// wait the txn out and re-snapshot rather than miss the writes.
void Shard::ExecuteSlotTail(const Request& req, std::string* reply) {
  constexpr size_t kSlotTailMaxRecords = 256;
  if (log_ == nullptr || log_->needs_snapshot()) {
    *reply = "-ERR slot tail needs a sealed replication log";
    return;
  }
  uint64_t seq = req.repl_seq;
  if (seq < log_->start_seq()) {
    *reply = "-TAILTRUNC replication log truncated below the cursor";
    return;
  }
  const uint64_t next = log_->next_seq();
  std::vector<repl::ReplOp> kept;
  std::string payload;
  for (size_t scanned = 0; seq < next && scanned < kSlotTailMaxRecords;
       ++seq, ++scanned) {
    if (!log_->Read(seq, &payload)) {
      *reply = "-TAILTRUNC record " + std::to_string(seq) + " unavailable";
      return;
    }
    std::vector<repl::ReplOp> ops;
    if (!repl::DecodeBatch(payload, &ops)) {
      continue;  // cannot happen for a checksummed record; be defensive
    }
    for (repl::ReplOp& op : ops) {
      switch (op.kind) {
        case repl::ReplOp::Kind::kPut:
        case repl::ReplOp::Kind::kDel:
        case repl::ReplOp::Kind::kUpdate: {
          const uint16_t s = cluster::SlotForKey(op.key);
          if (s >= req.slot_lo && s <= req.slot_hi) {
            kept.push_back(std::move(op));
          }
          break;
        }
        case repl::ReplOp::Kind::kTxnPrepare: {
          std::vector<repl::ReplOp> writes;
          if (repl::DecodeBatch(op.value, &writes)) {
            for (const repl::ReplOp& w : writes) {
              const uint16_t s = cluster::SlotForKey(w.key);
              if (s >= req.slot_lo && s <= req.slot_hi) {
                *reply =
                    "-TXNTAIL transaction writes into the migrating range; "
                    "re-snapshot after it resolves";
                return;
              }
            }
          }
          break;
        }
        default:
          // Commit / abort markers: their store effects always trace back
          // to a prepare record this scan either saw (and refused) or
          // proved range-free — skipping them loses nothing.
          break;
      }
    }
  }
  std::string bf;
  repl::EncodeBatch(kept, &bf);
  reply->clear();
  reply->push_back('+');
  for (int i = 0; i < 8; ++i) {
    reply->push_back(static_cast<char>((seq >> (8 * i)) & 0xff));
  }
  reply->push_back(seq >= next ? 1 : 0);
  reply->append(bf);
}

// Destination-side import reset: drop every key already in the range so a
// re-driven migration (crash on either side) starts from a clean import —
// never a duplicate. The deletes are logged like any other write, so this
// node's own replicas purge too.
bool Shard::ExecuteSlotPurge(const Request& req, std::string* reply,
                             std::vector<repl::ReplOp>* rops) {
  if (follower()) {
    if (req.multi != nullptr) {
      req.multi->Fail(kReadonlyMsg);
    } else {
      *reply = std::string("-") + kReadonlyMsg;
    }
    return false;
  }
  std::vector<std::string> victims;
  backend_->ForEachKey([&](const std::string& key) {
    const uint16_t s = cluster::SlotForKey(key);
    if (s >= req.slot_lo && s <= req.slot_hi) {
      victims.push_back(key);
    }
  });
  for (const std::string& key : victims) {
    if (!kv_->Delete(key)) {
      continue;
    }
    SlotDelta(key, -1);
    if (log_ != nullptr) {
      repl::ReplOp op;
      op.kind = repl::ReplOp::Kind::kDel;
      op.key = key;
      rops->push_back(std::move(op));
    }
  }
  if (req.multi == nullptr) {
    *reply = "+PURGED " + std::to_string(victims.size());
  }
  return !victims.empty();
}

// Destination-side import: ops shipped by the source (snapshot entries as
// kPut, tail replays verbatim) applied through the idempotent apply path —
// a re-driven handoff re-ships the same ops harmlessly. Re-logged locally:
// the import is replicated downstream like native writes.
bool Shard::ExecuteMigApply(const Request& req, std::string* reply,
                            std::vector<repl::ReplOp>* rops) {
  if (follower()) {
    if (req.multi != nullptr) {
      req.multi->Fail(kReadonlyMsg);
    } else {
      AppendErrorCode(reply, kReadonlyMsg);
    }
    return false;
  }
  bool wrote = false;
  for (const repl::ReplOp& op : req.mig_ops) {
    switch (op.kind) {
      case repl::ReplOp::Kind::kPut:
        if (kv_->ApplyPut(op.key, op.record)) {
          SlotDelta(op.key, +1);
        }
        wrote = true;
        break;
      case repl::ReplOp::Kind::kDel:
        if (kv_->ApplyDelete(op.key)) {
          SlotDelta(op.key, -1);
        }
        wrote = true;
        break;
      case repl::ReplOp::Kind::kUpdate:
        kv_->ApplyUpdate(op.key, op.field, op.value);
        wrote = true;
        break;
      default:
        break;  // txn markers never ship through MIGAPPLY
    }
  }
  mig_applied_ops_.fetch_add(req.mig_ops.size(), std::memory_order_relaxed);
  if (log_ != nullptr && wrote) {
    for (const repl::ReplOp& op : req.mig_ops) {
      if (op.kind == repl::ReplOp::Kind::kPut ||
          op.kind == repl::ReplOp::Kind::kDel ||
          op.kind == repl::ReplOp::Kind::kUpdate) {
        rops->push_back(op);
      }
    }
  }
  if (req.multi == nullptr && req.conn_id != 0) {
    AppendSimple(reply, "OK");
  }
  return wrote;
}

// ---- Per-slot accounting ------------------------------------------------------

void Shard::SlotDelta(std::string_view key, int d) {
  const uint16_t s = cluster::SlotForKey(key);
  std::lock_guard<std::mutex> lk(slot_mu_);
  if (slot_keys_.empty()) {
    slot_keys_.assign(cluster::kNumSlots, 0);
  }
  if (d >= 0) {
    slot_keys_[s] += static_cast<uint32_t>(d);
  } else if (slot_keys_[s] >= static_cast<uint32_t>(-d)) {
    slot_keys_[s] -= static_cast<uint32_t>(-d);
  }
}

void Shard::RebuildSlotCounts() {
  std::vector<uint32_t> fresh(cluster::kNumSlots, 0);
  backend_->ForEachKey([&](const std::string& key) {
    fresh[cluster::SlotForKey(key)]++;
  });
  std::lock_guard<std::mutex> lk(slot_mu_);
  slot_keys_ = std::move(fresh);
}

uint64_t Shard::KeysInSlotRange(uint32_t lo, uint32_t hi) const {
  std::lock_guard<std::mutex> lk(slot_mu_);
  if (slot_keys_.empty()) {
    return 0;
  }
  uint64_t n = 0;
  for (uint32_t s = lo; s <= hi && s < cluster::kNumSlots; ++s) {
    n += slot_keys_[s];
  }
  return n;
}

// PROMOTE phase 1: the queue ahead of this op has drained (singleton
// control batch), so the heap is quiescent. Seal outstanding state and run
// the full I1–I7 audit (with FA-log quiescence). The shard does NOT flip
// writable here: the multi-op join — which sees every shard's verdict —
// flips all shards or none (MultiOp::promote_shards), so a failed audit on
// one shard never leaves the fleet half-writable.
void Shard::ExecutePromote(const Request& req, std::string* reply) {
  rt_->Psync();
  core::IntegrityOptions iopts;
  iopts.audit_fa_logs = true;
  core::IntegrityReport ir = core::VerifyHeapIntegrity(*rt_, iopts);
  if (opts_.fail_promote_audit_shard == static_cast<int32_t>(index_)) {
    ir.violations.insert(ir.violations.begin(), "injected audit failure");
  }
  if (!ir.ok()) {
    std::string msg = "ERR promote audit failed on shard " +
                      std::to_string(index_) + ": " + ir.violations.front();
    if (req.multi != nullptr) {
      req.multi->Fail(msg);
    } else {
      AppendErrorCode(reply, msg);
    }
    return;
  }
  if (req.multi == nullptr) {
    // Direct single-shard promotion (tests): audit and flip are one step.
    MakeWritable();
    AppendSimple(reply, "OK");
  }
}

void Shard::DeliverBatch(std::vector<Request>& batch,
                         std::vector<std::string>& replies) {
  // Runs after the batch's durability point: replies may now leave the
  // machine. Multi-op parts are counted down here — post-Psync — so the
  // joined +OK implies every part is durable on its own shard. The replies
  // reach the sink in one call.
  std::vector<Completion> out;
  out.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Request& req = batch[i];
    if (req.txn != nullptr) {
      TxnJoin(req.txn);
      continue;
    }
    if (req.waiter != nullptr) {
      // Waiter payloads are not RESP: empty or '+…' signals success (the
      // slot cursors return binary frames through the '+' arm), '-…' is a
      // failure message.
      const bool ok = replies[i].empty() || replies[i][0] != '-';
      req.waiter->Signal(ok, std::move(replies[i]));
      continue;
    }
    if (req.multi != nullptr) {
      if (req.multi->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Completion c;
        c.conn_id = req.multi->conn_id;
        c.seq = req.multi->seq;
        if (req.multi->failures.load(std::memory_order_acquire) > 0) {
          std::lock_guard<std::mutex> lk(req.multi->err_mu);
          AppendErrorCode(&c.reply, req.multi->error);
        } else {
          // PROMOTE phase 2: every shard's audit passed — flip the whole
          // fleet writable at once (all-or-nothing).
          for (Shard* sh : req.multi->promote_shards) {
            sh->MakeWritable();
          }
          AppendSimple(&c.reply, req.multi->ok_reply.empty()
                                     ? "OK"
                                     : req.multi->ok_reply);
        }
        out.push_back(std::move(c));
      }
      continue;
    }
    if (req.conn_id == 0) {
      continue;  // internal request (ReplClient): no completion
    }
    Completion c;
    c.conn_id = req.conn_id;
    c.seq = req.seq;
    c.reply = std::move(replies[i]);
    out.push_back(std::move(c));
  }
  sink_->OnCompletions(out);
}

// ---- WAIT-K parking ---------------------------------------------------------
//
// Lifecycle of a parked batch: sealed by its Psync on the worker → parked
// (replies withheld, worker moves on to the next batch) → released by the
// event loop when the K-th subscriber acks its last_seq (success) or its
// deadline passes (degraded: write replies become -WAITTIMEOUT). Release is
// strictly front-first: subscriber watermarks and deadlines are both
// monotone in seq, so if the front batch is neither acked nor expired, no
// later batch can be.

void Shard::ParkBatch(uint64_t last_seq, std::vector<Request>& batch,
                      std::vector<std::string>& replies,
                      std::vector<uint8_t>& wrote) {
  ParkedBatch p;
  p.last_seq = last_seq;
  p.deadline_ms = NowMs() + opts_.wait_timeout_ms;
  p.reqs = std::move(batch);
  p.replies = std::move(replies);
  p.wrote = std::move(wrote);
  std::unique_lock<std::mutex> lk(park_mu_);
  // Ack that landed between the Psync and here: deliver without parking.
  // Reading synced_seq_ under park_mu_ closes the race — an ack completing
  // before we acquired the lock is visible; one completing after will find
  // the parked entry in its release scan.
  if (synced_seq_.load(std::memory_order_acquire) >= last_seq) {
    lk.unlock();
    DeliverParked(std::move(p), /*timed_out=*/false);
    return;
  }
  // Bounded pipeline: block the worker once too many batches are in flight.
  // No deadlock — releases come from the event-loop thread (acks, ticks),
  // which never waits on this worker; Quiesce raises stop_parking_ before
  // joining so a blocked worker always gets out.
  park_cv_.wait(lk, [&] {
    return stop_parking_.load(std::memory_order_acquire) ||
           parked_.size() < opts_.wait_max_parked;
  });
  if (stop_parking_.load(std::memory_order_acquire)) {
    lk.unlock();
    DeliverParked(std::move(p), /*timed_out=*/true);
    return;
  }
  parked_.push_back(std::move(p));
  parked_count_.store(parked_.size(), std::memory_order_release);
}

void Shard::ReleaseParked(uint64_t now_ms, bool force) {
  std::vector<std::pair<ParkedBatch, bool>> ready;  // batch, timed_out
  {
    std::lock_guard<std::mutex> lk(park_mu_);
    const uint64_t synced = synced_seq_.load(std::memory_order_acquire);
    while (!parked_.empty()) {
      ParkedBatch& front = parked_.front();
      const bool acked = synced >= front.last_seq;
      const bool expired = force || now_ms >= front.deadline_ms;
      if (!acked && !expired) {
        break;
      }
      ready.emplace_back(std::move(front), !acked);
      parked_.pop_front();
    }
    parked_count_.store(parked_.size(), std::memory_order_release);
  }
  if (!ready.empty()) {
    park_cv_.notify_all();
    for (auto& [p, timed_out] : ready) {
      DeliverParked(std::move(p), timed_out);
    }
  }
}

void Shard::DeliverParked(ParkedBatch&& p, bool timed_out) {
  if (timed_out) {
    wait_timeouts_.fetch_add(1, std::memory_order_relaxed);
    const std::string msg =
        "WAITTIMEOUT wrote locally durable; replica quorum of " +
        std::to_string(opts_.wait_acks) + " not reached for seq " +
        std::to_string(p.last_seq);
    // Only write replies degrade: a read in the batch observed committed
    // state and keeps its payload.
    for (size_t i = 0; i < p.reqs.size(); ++i) {
      if (!p.wrote[i]) {
        continue;
      }
      if (p.reqs[i].txn != nullptr) {
        // The txn keeps committing — its record IS sealed — but the final
        // EXEC reply degrades to -WAITTIMEOUT (decided by the event loop).
        p.reqs[i].txn->NoteWaitTimeout();
        continue;
      }
      if (p.reqs[i].multi != nullptr) {
        p.reqs[i].multi->Fail(msg);
      } else {
        p.replies[i].clear();
        AppendErrorCode(&p.replies[i], msg);
      }
    }
  }
  DeliverBatch(p.reqs, p.replies);
}

// ---- Session-read parking ---------------------------------------------------
//
// Lifecycle of a parked read: the event loop gates a kGet/kTouch whose
// MINSEQ token is ahead of the shard's applied watermark and parks it here
// (never in the worker queue — kApply batches must keep flowing, or the
// watermark could never catch up). The apply batch that advances the
// watermark releases every now-covered read in park order and executes it
// in the batch executor, against exactly the sealed-prefix state it waited
// for. A read the watermark never reaches is answered -STALE when its
// deadline passes (event-loop tick) — an explicit refusal, never a silently
// old value. The park bound overflowing answers -STALE immediately.

Shard::ReadGate Shard::GateSessionRead(Request& req, uint64_t now_ms) {
  JNVM_CHECK(req.op == Request::Op::kGet || req.op == Request::Op::kTouch);
  if (req.min_seq == 0 || !opts_.repl_log) {
    return ReadGate::kReady;
  }
  std::lock_guard<std::mutex> lk(read_park_mu_);
  // Recheck under the park lock: a watermark advance that completed before
  // we acquired it is visible here; one completing after will find this
  // entry in its release scan. No lost wakeups.
  const uint64_t sealed = sealed_seq_.load(std::memory_order_acquire);
  if (sealed >= req.min_seq) {
    return ReadGate::kReady;
  }
  if (stop_parking_.load(std::memory_order_acquire) ||
      parked_reads_.size() >= opts_.read_park_max) {
    CompleteStaleRead(req, sealed);
    return ReadGate::kStale;
  }
  ParkedRead pr;
  pr.deadline_ms = now_ms + opts_.read_stale_timeout_ms;
  pr.req = std::move(req);
  parked_reads_.push_back(std::move(pr));
  parked_reads_count_.store(parked_reads_.size(), std::memory_order_release);
  return ReadGate::kParked;
}

void Shard::CompleteStaleRead(Request& req, uint64_t watermark) {
  stale_reads_.fetch_add(1, std::memory_order_relaxed);
  if (req.conn_id == 0) {
    return;
  }
  Completion c;
  c.conn_id = req.conn_id;
  c.seq = req.seq;
  AppendErrorCode(&c.reply, "STALE shard " + std::to_string(index_) +
                                " applied watermark " +
                                std::to_string(watermark) +
                                " behind session min-seq " +
                                std::to_string(req.min_seq));
  sink_->OnCompletion(std::move(c));
}

// Executor, directly after PublishReplStats: the store state IS the
// sealed prefix the new watermark names, so released reads observe exactly
// what their session token demanded. Reads are released in park order;
// kApply batches flow through the request queue untouched by parked reads.
// The scan always takes read_park_mu_, after the watermark store: either
// GateSessionRead's check under that lock sees the new watermark, or this
// scan sees its parked read. A lock-free "nothing parked" pre-check would
// race with GateSessionRead (store-load reordering) and strand a covered
// read, which TickReadStale never expires.
void Shard::ReleaseSessionReads() {
  std::vector<Request> ready;
  {
    std::lock_guard<std::mutex> lk(read_park_mu_);
    const uint64_t sealed = sealed_seq_.load(std::memory_order_acquire);
    for (auto it = parked_reads_.begin(); it != parked_reads_.end();) {
      if (it->req.min_seq <= sealed) {
        ready.push_back(std::move(it->req));
        it = parked_reads_.erase(it);
      } else {
        ++it;
      }
    }
    parked_reads_count_.store(parked_reads_.size(), std::memory_order_release);
  }
  std::vector<repl::ReplOp> rops;  // reads never append to it
  for (Request& req : ready) {
    std::string reply;
    Execute(req, &reply, &rops);
    released_reads_.fetch_add(1, std::memory_order_relaxed);
    if (req.conn_id == 0) {
      continue;
    }
    Completion c;
    c.conn_id = req.conn_id;
    c.seq = req.seq;
    c.reply = std::move(reply);
    sink_->OnCompletion(std::move(c));
  }
}

void Shard::TickReadStale(uint64_t now_ms) {
  if (parked_reads_count_.load(std::memory_order_acquire) == 0) {
    return;
  }
  std::vector<Request> expired;
  uint64_t sealed = 0;
  {
    std::lock_guard<std::mutex> lk(read_park_mu_);
    sealed = sealed_seq_.load(std::memory_order_acquire);
    for (auto it = parked_reads_.begin(); it != parked_reads_.end();) {
      // A read the watermark already covers belongs to the worker's release
      // scan (which is ordered after the advance that satisfied it): the
      // tick only expires reads that are both late and still uncovered.
      if (it->req.min_seq > sealed && now_ms >= it->deadline_ms) {
        expired.push_back(std::move(it->req));
        it = parked_reads_.erase(it);
      } else {
        ++it;
      }
    }
    parked_reads_count_.store(parked_reads_.size(), std::memory_order_release);
  }
  for (Request& req : expired) {
    CompleteStaleRead(req, sealed);
  }
}

void Shard::ForceStaleReads() {
  std::vector<Request> all;
  uint64_t sealed = 0;
  {
    std::lock_guard<std::mutex> lk(read_park_mu_);
    sealed = sealed_seq_.load(std::memory_order_acquire);
    for (ParkedRead& pr : parked_reads_) {
      all.push_back(std::move(pr.req));
    }
    parked_reads_.clear();
    parked_reads_count_.store(0, std::memory_order_release);
  }
  for (Request& req : all) {
    CompleteStaleRead(req, sealed);
  }
}

// Ships records [first, last] — just sealed by this batch's Psync — to all
// stream subscribers. Stream completions bypass the reorder buffer and are
// appended to the subscriber's socket in emission order. The whole sealed
// range is serialized exactly once into a refcounted immutable buffer;
// each subscriber's completion carries a reference to the same bytes, so
// fan-out cost is O(subscribers) pointers, not O(subscribers) memcpys.
void Shard::StreamToSubscribers(uint64_t first_seq, uint64_t last_seq) {
  std::lock_guard<std::mutex> lk(subs_mu_);
  if (subs_.empty()) {
    return;
  }
  auto buf = std::make_shared<std::string>();
  std::string payload;
  std::string frame;
  for (uint64_t seq = first_seq; seq <= last_seq; ++seq) {
    if (!log_->Read(seq, &payload)) {
      continue;  // truncated under retention pressure mid-batch
    }
    repl::EncodeRecord(seq, payload, &frame);
    AppendBulk(buf.get(), frame);
  }
  if (buf->empty()) {
    return;
  }
  stream_frames_.fetch_add(1, std::memory_order_relaxed);
  stream_frame_bytes_.fetch_add(buf->size(), std::memory_order_relaxed);
  const std::shared_ptr<const std::string> shared = std::move(buf);
  std::vector<Completion> out(subs_.size());
  for (size_t i = 0; i < subs_.size(); ++i) {
    out[i].conn_id = subs_[i].conn_id;
    out[i].stream = true;
    out[i].frame = shared;
  }
  sink_->OnCompletions(out);
}

void Shard::PublishReplStats() {
  if (log_ == nullptr) {
    return;
  }
  sealed_seq_.store(log_->next_seq() - 1, std::memory_order_release);
  repl_start_seq_.store(log_->start_seq(), std::memory_order_relaxed);
  repl_bytes_.store(log_->bytes(), std::memory_order_relaxed);
  repl_segments_.store(log_->segments(), std::memory_order_relaxed);
  repl_needs_snapshot_.store(log_->needs_snapshot(), std::memory_order_release);
}

void Shard::WorkerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      not_empty_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
    }
    std::lock_guard<std::mutex> el(exec_mu_);
    RunOneBatch(/*inline_pass=*/false, SIZE_MAX);
  }
}

size_t Shard::RunOneBatch(bool inline_pass, size_t limit) {
  std::vector<Request>& batch = exec_batch_;
  std::vector<std::string>& replies = exec_replies_;
  std::vector<uint8_t>& wrote_flags = exec_wrote_;
  std::vector<repl::ReplOp>& rops = exec_rops_;
  batch.clear();
  replies.clear();
  wrote_flags.clear();
  rops.clear();
  const uint32_t max_batch = opts_.batch == 0 ? 1 : opts_.batch;
  // Apply-side group size: how many kApply records (each one sealed primary
  // batch) a follower folds into one local group commit. Defaults to the
  // regular batch knob; --apply-batch decouples it from the primary's seal.
  const uint32_t apply_cap =
      opts_.apply_batch == 0 ? max_batch : opts_.apply_batch;
  bool apply_run = false;
  bool handoff = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty()) {
      return 0;  // another executor drained it first
    }
    handoff = inline_pass && !InlineRunnableLocked();
    if (!handoff) {
      // Batches are homogeneous in class (see BatchClass): control and txn
      // boundary ops run alone, a run of kApply records groups up to
      // apply_cap, a run of kTxnExec and anything else groups up to
      // max_batch — class boundaries never mix two caps (or two apply
      // disciplines) within one durability point.
      const BatchClass bclass = ClassOf(queue_.front().op);
      apply_run = bclass == BatchClass::kApplyRun;
      const uint32_t cap = apply_run ? apply_cap : max_batch;
      const size_t take = std::min<size_t>({cap, queue_.size(), limit});
      for (size_t i = 0; i < take; ++i) {
        if (!batch.empty() && ClassOf(queue_.front().op) != bclass) {
          break;
        }
        // A shipped record with txn ops forms its own apply batch so its
        // post-seal applies order exactly as on the primary.
        const bool txn_rec = apply_run && ApplyRecordHasTxnOps(queue_.front());
        if (txn_rec && !batch.empty()) {
          break;
        }
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        if (bclass == BatchClass::kSingleton || txn_rec) {
          break;
        }
      }
    }
  }
  if (handoff) {
    not_empty_.notify_one();
    return 0;
  }
  not_full_.notify_all();
  const size_t ran = batch.size();

  bool wrote = false;
  const bool group = (apply_run ? apply_cap : max_batch) > 1;
  const uint64_t log_first =
      log_ != nullptr ? log_->next_seq() : 0;  // first record this batch
  if (group) {
    rt_->heap().BeginGroupCommit();
  }
  for (const Request& req : batch) {
    std::string reply;
    const bool w = Execute(req, &reply, &rops);
    wrote |= w;
    wrote_flags.push_back(w ? 1 : 0);
    replies.push_back(std::move(reply));
  }
  if (!rops.empty() && !log_->needs_snapshot()) {
    // One record per batch: the group's write ops in execution order.
    std::string bf;
    repl::EncodeBatch(rops, &bf);
    log_->Append(log_->next_seq(), bf);
  }
  const uint64_t log_last = log_ != nullptr ? log_->next_seq() - 1 : 0;
  const bool appended = log_ != nullptr && log_last + 1 > log_first;
  if (group) {
    rt_->heap().EndGroupCommit();
    if (wrote) {
      rt_->Psync();  // one durability point for the whole group
    }
    // Reclaim structures orphaned by this batch's replaces/deletes — only
    // now that their unlinks are durable.
    rt_->DrainGroupFrees();
  } else if (appended) {
    // batch == 1: ops kept their own trailing durability fences, but the
    // log record still needs sealing before it can be shipped or acked.
    rt_->Psync();
  }
  // batch == 1, no log: every op kept its own trailing durability fence;
  // no group Psync needed (ablation baseline).
  if (log_ != nullptr) {
    // Staged txn writes whose justifying record this batch just sealed
    // apply now — after the seal, before the watermark publishes, so a
    // session read released below already sees them.
    ApplyPostSealTxns();
    PublishReplStats();
    // Session reads waiting on this batch's watermark advance run here,
    // against exactly the sealed-prefix state their token named.
    ReleaseSessionReads();
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  (inline_pass ? inline_batches_ : worker_batches_)
      .fetch_add(1, std::memory_order_relaxed);
  uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (ran > prev &&
         !max_batch_.compare_exchange_weak(prev, ran,
                                           std::memory_order_relaxed)) {
  }
  // Ship before delivering: under WAIT-K the acks that release the batch
  // can only arrive once the subscribers have the frames.
  if (appended) {
    StreamToSubscribers(log_first, log_last);
  }
  if (appended && opts_.wait_acks > 0 && !follower()) {
    // WAIT-K: withhold the replies until K subscribers ack log_last or
    // the deadline passes. The executor moves straight on to the next
    // batch — parking is pipelined, not stop-and-wait.
    ParkBatch(log_last, batch, replies, wrote_flags);
  } else {
    DeliverBatch(batch, replies);
  }
  if (appended) {
    // Follower role: tell the local ReplClient the apply batch is sealed
    // so it can ack the primary (no-op when no hook is registered).
    NotifySealHook(log_last);
  }
  return ran;
}

ShardStats Shard::Stats() const {
  ShardStats s;
  {
    std::lock_guard<std::mutex> lk(mu_);
    s.queue_depth = queue_.size();
  }
  s.batches = batches_.load(std::memory_order_relaxed);
  s.inline_batches = inline_batches_.load(std::memory_order_relaxed);
  s.worker_batches = worker_batches_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.elided_fences = rt_->heap().elided_fences();
  s.records = backend_->Size();
  s.ask_replies = ask_replies_.load(std::memory_order_relaxed);
  s.mig_applied_ops = mig_applied_ops_.load(std::memory_order_relaxed);
  s.open_us = open_us_;
  s.open_heap_reads = rt_->recovery_report().device_reads;
  s.ops = backend_->stats();
  s.cache = kv_->cache_stats();
  s.device = dev_->stats();
  s.repl.enabled = log_ != nullptr;
  s.repl.follower = follower();
  s.repl.needs_snapshot = repl_needs_snapshot();
  s.repl.start_seq = repl_start_seq_.load(std::memory_order_relaxed);
  s.repl.sealed_seq = sealed_seq_.load(std::memory_order_acquire);
  s.repl.applied_batches = applied_batches_.load(std::memory_order_relaxed);
  s.repl.log_bytes = repl_bytes_.load(std::memory_order_relaxed);
  s.repl.log_segments = repl_segments_.load(std::memory_order_relaxed);
  s.repl.wait_acks = opts_.wait_acks;
  s.repl.acked_seq = synced_seq_.load(std::memory_order_acquire);
  s.repl.wait_timeouts = wait_timeouts_.load(std::memory_order_relaxed);
  s.repl.parked_batches = parked_count_.load(std::memory_order_acquire);
  s.repl.parked_reads = parked_reads_count_.load(std::memory_order_acquire);
  s.repl.released_reads = released_reads_.load(std::memory_order_relaxed);
  s.repl.stale_reads = stale_reads_.load(std::memory_order_relaxed);
  s.repl.stream_frames = stream_frames_.load(std::memory_order_relaxed);
  s.repl.stream_frame_bytes =
      stream_frame_bytes_.load(std::memory_order_relaxed);
  s.repl.catchup_records = catchup_records_.load(std::memory_order_relaxed);
  s.repl.catchup_bytes = catchup_bytes_.load(std::memory_order_relaxed);
  s.repl.snap_bytes = snap_bytes_.load(std::memory_order_relaxed);
  s.repl.apply_batch = opts_.apply_batch;
  {
    std::lock_guard<std::mutex> lk(subs_mu_);
    s.repl.subscribers = subs_.size();
  }
  s.txn.prepared = txns_prepared_.load(std::memory_order_relaxed);
  s.txn.committed = txns_committed_.load(std::memory_order_relaxed);
  s.txn.aborted = txns_aborted_.load(std::memory_order_relaxed);
  s.txn.inflight = staged_txns_.Size();
  s.txn.decision_records = txn_decision_records_.load(std::memory_order_relaxed);
  s.ckpt.count = ckpt_count_.load(std::memory_order_relaxed);
  s.ckpt.begin_seq = ckpt_begin_.load(std::memory_order_relaxed);
  s.ckpt.end_seq = ckpt_end_.load(std::memory_order_relaxed);
  s.ckpt.walked_keys = ckpt_walked_keys_.load(std::memory_order_relaxed);
  s.ckpt.walked_bytes = ckpt_walked_bytes_.load(std::memory_order_relaxed);
  s.ckpt.truncated_segments =
      ckpt_truncated_segs_.load(std::memory_order_relaxed);
  s.ckpt.replayed_records = ckpt_replayed_.load(std::memory_order_relaxed);
  s.ckpt.retry_later = ckpt_retry_later_.load(std::memory_order_relaxed);
  return s;
}

ShardReport Shard::Quiesce() {
  std::lock_guard<std::mutex> qlk(quiesce_mu_);
  if (quiesced_) {
    return report_;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  stop_parking_.store(true, std::memory_order_release);
  park_cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  }
  {
    // A home loop's inline batch still in flight finishes first; every
    // later inline pass is a no-op.
    std::lock_guard<std::mutex> el(exec_mu_);
    exec_closed_ = true;
  }
  // Acks can no longer arrive (the event loop is in shutdown): deliver any
  // still-parked batch now — acked ones succeed, the rest degrade to an
  // explicit -WAITTIMEOUT, never a silently dropped reply.
  ReleaseParked(NowMs(), /*force=*/true);
  // The worker is gone, so no watermark advance will release parked reads:
  // refuse them explicitly rather than dropping the replies.
  ForceStaleReads();

  rt_->Psync();
  // The heap is quiescent (worker joined, intake closed): audit everything,
  // including the failure-atomic log directory (I7).
  core::IntegrityOptions iopts;
  iopts.audit_fa_logs = true;
  const core::IntegrityReport ir = core::VerifyHeapIntegrity(*rt_, iopts);
  report_.integrity_ok = ir.ok();
  report_.violations = ir.violations;
  report_.records = backend_->Size();
  report_.elided_fences = rt_->heap().elided_fences();
  report_.psyncs = dev_->stats().psyncs;
  rt_->Close();

  const std::string image = ImagePathFor(opts_, index_);
  if (dev_->mapped()) {
    // Dax mode: the device IS the file — every store already landed in it.
    report_.image_saved = true;
    report_.image_path = DaxPathFor(opts_, index_);
  } else if (!image.empty()) {
    report_.image_saved = dev_->SaveTo(image);
    report_.image_path = image;
  }
  quiesced_ = true;
  return report_;
}

}  // namespace jnvm::server
