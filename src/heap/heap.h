// The persistent heap (§4.1 of the paper).
//
// The heap splits the device into fixed-size blocks (256 B by default — the
// paper's sweet spot, §5.3.5). An object is a chain of blocks: the first is
// the *master* block (header id != 0), the rest are *slaves*. Using fixed
// blocks eliminates external fragmentation by design; large objects become
// linked lists of blocks, and proxies (src/core) hide the chain.
//
// Allocation uses a persistent bump pointer plus a volatile free queue; it
// never fences (§4.1.2, §4.1.4). Deletion invalidates the master and pushes
// the chain to the volatile queue, also without a fence (§4.1.5). Liveness
// is decided at recovery time by reachability from the root plus the valid
// bit (§2.4, §3.2.3).
//
// Device layout:
//   block 0            superblock
//   class table        fixed array of class-name slots (id = index + 1)
//   log directory      per-thread redo-log regions (managed by src/pfa)
//   blocks             first_block .. heap end
#ifndef JNVM_SRC_HEAP_HEAP_H_
#define JNVM_SRC_HEAP_HEAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/heap/block.h"
#include "src/heap/free_queue.h"
#include "src/nvm/pmem_device.h"

namespace jnvm::heap {

struct HeapOptions {
  uint32_t block_size = 256;
  uint32_t class_table_capacity = 512;
  uint32_t log_slot_count = 24;        // max concurrent failure-atomic threads
  uint32_t log_slot_bytes = 32 * 1024; // redo-log region per slot
};

struct HeapStats {
  uint64_t blocks_allocated = 0;
  uint64_t blocks_freed = 0;
  uint64_t objects_allocated = 0;
  uint64_t objects_freed = 0;
};

// One bit per block; used by recovery to mark live blocks (§4.1.3).
class LiveBitmap {
 public:
  explicit LiveBitmap(uint64_t num_blocks) : bits_((num_blocks + 63) / 64, 0) {}

  void Mark(uint64_t block_index) { bits_[block_index >> 6] |= 1ull << (block_index & 63); }
  bool IsMarked(uint64_t block_index) const {
    return (bits_[block_index >> 6] & (1ull << (block_index & 63))) != 0;
  }

 private:
  std::vector<uint64_t> bits_;
};

class Heap {
 public:
  // Formats the device as a fresh heap.
  static std::unique_ptr<Heap> Format(nvm::PmemDevice* dev, const HeapOptions& opts);
  // Opens an existing heap. Does NOT run recovery: callers must either run
  // core::Recover (full, with graph traversal) or Heap::RecoverBlockScan
  // (the J-PFA-nogc variant) before allocating.
  static std::unique_ptr<Heap> Open(nvm::PmemDevice* dev);

  nvm::PmemDevice& dev() const { return *dev_; }
  uint32_t block_size() const { return block_size_; }
  uint32_t payload_per_block() const { return block_size_ - kBlockHeaderBytes; }
  Offset first_block() const { return first_block_; }
  Offset bump() const { return bump_.load(std::memory_order_relaxed); }
  uint64_t capacity_blocks() const { return (dev_->size() - first_block_) / block_size_; }

  uint64_t BlockIndex(Offset block_off) const { return block_off / block_size_; }
  Offset BlockOffset(uint64_t index) const { return index * block_size_; }
  Offset PayloadOf(Offset block_off) const { return block_off + kBlockHeaderBytes; }
  bool IsBlockAligned(Offset off) const { return off % block_size_ == 0; }

  // ---- Class table -------------------------------------------------------

  // Finds or persists the id for a class name (fences internally; meant for
  // startup-time registration, not hot paths).
  uint16_t InternClassId(std::string_view name);
  // Returns "" for unknown ids.
  std::string ClassName(uint16_t id) const;

  // ---- Root object -------------------------------------------------------

  Offset root_master() const;
  void SetRootMaster(Offset master);  // persists with a fence (startup path)

  // ---- Blocks ------------------------------------------------------------

  // Pops a free block or bumps. The header is NOT initialized: the caller
  // (object allocation, pools, redo log) writes it. Returns 0 when full.
  Offset AllocBlockRaw();
  // Returns a single block to the volatile free queue (no NVMM write).
  void FreeBlockRaw(Offset block);

  BlockHeader ReadHeader(Offset block) const {
    return BlockHeader::Unpack(dev_->Read<uint64_t>(block));
  }
  // Stores the header and queues its line for write-back (no fence).
  void WriteHeader(Offset block, BlockHeader h) {
    dev_->Write<uint64_t>(block, h.Pack());
    dev_->Pwb(block);
  }

  // ---- Objects -----------------------------------------------------------

  // Allocates a chained object in the *invalid* state (§3.2.3). By default
  // the payload is voided and queued for write-back so that a later fence
  // makes the zeroes durable before the object can become live; classes
  // without reference fields that fully initialize their payload may skip
  // the voiding (`zero = false`). No fence here. Returns 0 when full.
  Offset AllocObject(uint16_t class_id, size_t payload_bytes, bool zero = true);

  // Appends the chain blocks of `master` (master first) to `out`.
  void CollectBlocks(Offset master, std::vector<Offset>* out) const;
  size_t ChainLength(Offset master) const;

  // JNVM.free (§4.1.5): invalidate the master, push all blocks to the
  // volatile queue. Deliberately no fence — a developer can free a whole
  // graph of objects under a single explicit pfence.
  void FreeObject(Offset master);

  bool IsValid(Offset master) const { return ReadHeader(master).valid; }
  uint16_t ClassIdOf(Offset block) const { return ReadHeader(block).id; }
  // Sets / clears the valid bit and queues the header line; no fence
  // (validation is decoupled from publication, §3.2.3).
  void SetValid(Offset master);
  void SetInvalid(Offset master);

  // ---- Persistence passthroughs -----------------------------------------

  void Pwb(Offset off) { dev_->Pwb(off); }
  void PwbRange(Offset off, size_t n) { dev_->PwbRange(off, n); }
  void Pfence() { dev_->Pfence(); }
  void Psync() { dev_->Psync(); }

  // ---- Group commit (fence batching, §3.2.3 / Figure 5) ------------------
  //
  // Between BeginGroupCommit and EndGroupCommit, *durability* fences — the
  // trailing "durable on return" fence of a write-through operation — are
  // elided; the caller promises one Psync for the whole batch before it
  // acknowledges any operation in it. *Ordering* fences (contents durable
  // before a publishing store, unlink durable before memory reuse) are NOT
  // affected: they keep the heap crash-consistent inside a batch, so a
  // crash mid-batch loses only unacknowledged operations, never tears one.
  //
  // The mode is heap-wide and unsynchronized by design: it is meant for a
  // single-writer heap (one shard worker per heap in src/server).

  void BeginGroupCommit() { ++group_commit_depth_; }
  void EndGroupCommit() {
    JNVM_DCHECK(group_commit_depth_ > 0);
    --group_commit_depth_;
  }
  bool InGroupCommit() const { return group_commit_depth_ > 0; }
  // Count of durability fences skipped under group commit.
  uint64_t elided_fences() const {
    return stat_elided_fences_.load(std::memory_order_relaxed);
  }

  // A durability-only fence: full Pfence normally, elided under group
  // commit (the batch's final Psync provides durability instead).
  void DurabilityFence() {
    if (group_commit_depth_ > 0) {
      stat_elided_fences_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    dev_->Pfence();
  }

  // ---- Lifecycle & recovery ---------------------------------------------

  void CloseClean();
  bool was_clean_shutdown() const { return clean_shutdown_at_open_; }

  // Log directory (used by src/pfa).
  Offset log_dir_off() const { return log_dir_off_; }
  uint32_t log_slot_count() const { return log_slot_count_; }
  uint32_t log_slot_bytes() const { return log_slot_bytes_; }

  uint64_t NumAllocatedBlocks() const;  // blocks in [first_block, bump)

  struct RecoveryStats {
    uint64_t scanned_blocks = 0;
    uint64_t live_blocks = 0;
    uint64_t freed_blocks = 0;
    double seconds = 0.0;
  };

  // The J-PFA-nogc recovery (§5.3.3): one pass over the blocks — chains of
  // valid masters are live, everything else is freed. No object-graph
  // traversal, so invalid-but-reachable references are NOT nullified; only
  // safe when the application cannot create them (e.g. it always allocates
  // and publishes inside the same failure-atomic block).
  RecoveryStats RecoverBlockScan();

  // Helpers for the full graph recovery implemented in src/core:
  LiveBitmap NewBitmap() const { return LiveBitmap(BlockIndex(dev_->size()) + 1); }
  // Marks all blocks of `master`'s chain live. `h` is the master's header,
  // already read by the caller, so only slave headers are read here. When
  // `chain` is given it is cleared and receives the blocks, master first.
  void MarkChainLive(Offset master, BlockHeader h, LiveBitmap* bitmap,
                     std::vector<Offset>* chain = nullptr) const;
  // Frees every allocated block not marked live: zeroes its header word
  // (clearing the valid bit, §4.1.3), queues it, then issues one fence.
  RecoveryStats SweepUnmarked(const LiveBitmap& bitmap);

  HeapStats stats() const;

  // Point-in-time occupancy snapshot (tooling/examples).
  struct Usage {
    uint64_t capacity_blocks = 0;   // total allocatable blocks
    uint64_t bumped_blocks = 0;     // ever handed out by the bump pointer
    uint64_t free_queue_blocks = 0; // recycled and ready for reuse
    uint64_t in_use_blocks = 0;     // bumped minus queued
    double utilization = 0.0;       // in_use / capacity
  };
  Usage GetUsage() const;

 private:
  Heap() = default;

  void LoadSuper();
  void PersistBump(Offset new_bump);

  // Superblock field offsets.
  static constexpr Offset kMagicOff = 0;
  static constexpr Offset kVersionOff = 8;
  static constexpr Offset kBlockSizeOff = 12;
  static constexpr Offset kHeapBytesOff = 16;
  static constexpr Offset kBumpOff = 24;
  static constexpr Offset kFirstBlockOff = 32;
  static constexpr Offset kRootMasterOff = 40;
  static constexpr Offset kClassTableOff = 48;
  static constexpr Offset kClassTableCapOff = 56;
  static constexpr Offset kCleanShutdownOff = 60;
  static constexpr Offset kLogDirOff = 64;
  static constexpr Offset kLogSlotCountOff = 72;
  static constexpr Offset kLogSlotBytesOff = 76;

  static constexpr uint64_t kMagic = 0x4a4e564d48454150ull;  // "JNVMHEAP"
  static constexpr uint32_t kVersion = 1;
  static constexpr size_t kClassEntryBytes = 64;

  nvm::PmemDevice* dev_ = nullptr;
  uint32_t block_size_ = 0;
  Offset first_block_ = 0;
  Offset class_table_off_ = 0;
  uint32_t class_table_cap_ = 0;
  Offset log_dir_off_ = 0;
  uint32_t log_slot_count_ = 0;
  uint32_t log_slot_bytes_ = 0;
  bool clean_shutdown_at_open_ = false;

  std::atomic<uint64_t> bump_{0};
  std::mutex bump_mu_;
  FreeQueue free_queue_;

  mutable std::mutex class_mu_;
  std::vector<std::string> class_names_;  // index = id - 1

  std::atomic<uint64_t> stat_blocks_allocated_{0};
  std::atomic<uint64_t> stat_blocks_freed_{0};
  std::atomic<uint64_t> stat_objects_allocated_{0};
  std::atomic<uint64_t> stat_objects_freed_{0};

  uint32_t group_commit_depth_ = 0;  // single-writer heaps only
  std::atomic<uint64_t> stat_elided_fences_{0};
};

}  // namespace jnvm::heap

#endif  // JNVM_SRC_HEAP_HEAP_H_
