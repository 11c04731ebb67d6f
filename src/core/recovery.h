// Recovery procedure (§2.4, §3.2.3, §4.1.3, §4.2).
//
// Executed when a heap is opened. Steps:
//   1. Replay committed per-thread redo logs; discard uncommitted ones.
//   2. (graph mode) Traverse the live-object graph from the root map.
//      References to invalid or partially-deleted objects are nullified;
//      reachable pool slots are collected per block; each live object's
//      recover() hook runs before the application resumes.
//   3. Rebuild the pool allocators' volatile state.
//   4. Sweep every unmarked block into the volatile free queue (voiding its
//      valid bit) and issue one final pfence.
//
// The scan variant (J-PFA-nogc, §5.3.3) replaces step 2 with a flat block
// scan: chains of valid masters are live, no reference is nullified. It is
// only sound when the application cannot leave an invalid object reachable
// (e.g. every allocation and publication shares one failure-atomic block).
#ifndef JNVM_SRC_CORE_RECOVERY_H_
#define JNVM_SRC_CORE_RECOVERY_H_

#include "src/heap/heap.h"
#include "src/pfa/fa_log.h"

namespace jnvm::core {

class JnvmRuntime;

struct RecoveryReport {
  bool graph = false;
  pfa::ReplayStats replay;
  heap::Heap::RecoveryStats sweep;
  uint64_t traversed_objects = 0;
  uint64_t live_pool_slots = 0;
  uint64_t nullified_refs = 0;
  // Device reads and writes made by the whole procedure (deterministic,
  // unlike `seconds`).
  uint64_t device_reads = 0;
  uint64_t device_writes = 0;
  double seconds = 0.0;
};

// Full recovery with the object-graph collection pass.
RecoveryReport RecoverGraph(JnvmRuntime& rt);

// Block-scan recovery (J-PFA-nogc).
RecoveryReport RecoverBlockScan(JnvmRuntime& rt);

}  // namespace jnvm::core

#endif  // JNVM_SRC_CORE_RECOVERY_H_
