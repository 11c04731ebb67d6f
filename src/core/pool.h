// Memory pool allocators for small immutable objects (§4.4).
//
// A whole 256 B block per tiny object (e.g. a PString) would waste NVMM to
// internal fragmentation, so pools pack several same-sized objects into one
// block. Only *immutable* objects may share a block: the failure-atomic
// algorithm works at block granularity, and two concurrent in-flight copies
// of one block could diverge (§4.4).
//
// Pool block layout (payload of a master block whose header id is the
// element class id, valid = 1):
//   +0           u16 slot_size
//   +2           u8 occupancy[nslots]      (durability hint, see below)
//   +2+nslots    slots, slot_size bytes each
// with nslots = (payload - 2) / (slot_size + 1).
//
// The occupancy bytes are written without fences (set on allocation before
// the publish fence, cleared on free). They are a *hint*: the block-scan
// recovery trusts them (a crash can leak slots until the next full
// recovery), while the full graph recovery rewrites them precisely from the
// set of reachable slots — reachability, not the hint, decides liveness.
#ifndef JNVM_SRC_CORE_POOL_H_
#define JNVM_SRC_CORE_POOL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/heap/heap.h"

namespace jnvm::core {

using heap::Heap;
using nvm::Offset;

class PoolManager {
 public:
  explicit PoolManager(Heap* heap) : heap_(heap) {}

  // Largest object a pool can hold; bigger objects use a normal block chain.
  size_t max_slot_bytes() const;

  // Allocates a slot of at least `bytes` for pool class `class_id`. Sets the
  // occupancy hint and queues it (no fence: the publish fence of the
  // reference that makes the object reachable covers it). Returns 0 when the
  // heap is full.
  Offset AllocSlot(uint16_t class_id, size_t bytes);

  // Frees a slot: clears the occupancy hint (queued, no fence — §4.1.5
  // semantics) and recycles the slot in volatile memory.
  void FreeSlot(Offset slot);

  // Slot size of the pool block containing `slot` (used when attaching a
  // proxy to a pool object).
  static uint16_t SlotBytesOf(Heap* heap, Offset slot);

  // ---- Recovery ----------------------------------------------------------

  void ResetVolatile();

  // Full recovery: `live_by_block` maps each reachable pool block to its
  // reachable slot offsets. Occupancy hints are rewritten precisely and the
  // free lists rebuilt. Blocks absent from the map were swept by the heap.
  void RebuildFromLiveSlots(
      const std::unordered_map<Offset, std::vector<Offset>>& live_by_block);

  // Block-scan recovery: walks all valid masters of pool classes and trusts
  // their occupancy hints. Fully-empty pool blocks are freed.
  void RebuildByScan(const std::function<bool(uint16_t)>& is_pool_class);

  struct PoolStats {
    uint64_t slots_allocated = 0;
    uint64_t slots_freed = 0;
    uint64_t blocks_created = 0;
  };
  PoolStats stats() const;

 private:
  struct FreeList {
    std::vector<Offset> slots;
  };

  static size_t SizeClassFor(size_t bytes);
  static uint32_t NumSlots(size_t payload, size_t slot_size) {
    return static_cast<uint32_t>((payload - 2) / (slot_size + 1));
  }

  // Creates a fresh pool block and pushes its slots on `list`.
  bool AddBlock(uint16_t class_id, uint16_t slot_size, FreeList* list);
  void PushBlockSlots(Offset block, uint16_t slot_size, FreeList* list,
                      const std::vector<uint8_t>* occupied);

  Heap* heap_;
  std::mutex mu_;
  std::map<std::pair<uint16_t, uint16_t>, FreeList> lists_;  // (class, slot size)
  PoolStats stats_;
};

}  // namespace jnvm::core

#endif  // JNVM_SRC_CORE_POOL_H_
