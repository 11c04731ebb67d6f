#include "src/core/recovery.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/core/object_view.h"
#include "src/core/pool.h"
#include "src/core/runtime.h"

namespace jnvm::core {

namespace {

// The collection pass (§4.1.3): a worklist traversal of the live object
// graph starting from the root map. Complexity is linear in the number of
// live objects — which is why it runs at recovery and never at runtime
// (§2.2.1).
//
// Each block the pass needs is read about once: a reference's target header
// is read when the reference is validated and travels on the worklist, so
// popping an object reads only its slave headers; reference fields are read
// one payload block at a time through `buf_`; a pool block's header is read
// on the first reference into it only. Objects of classes with neither a
// tracer nor a recover() hook (e.g. PString values) get no view at all.
class GraphWalker : public RefVisitor {
 public:
  GraphWalker(JnvmRuntime* rt, heap::LiveBitmap* bitmap)
      : rt_(rt),
        heap_(&rt->heap()),
        bitmap_(bitmap),
        buf_(heap_->payload_per_block()) {}

  void Run(nvm::Offset root_master) {
    if (root_master != 0) {
      worklist_.push_back({root_master, heap_->ReadHeader(root_master)});
    }
    while (!worklist_.empty()) {
      const Pending p = worklist_.back();
      worklist_.pop_back();
      if (bitmap_->IsMarked(heap_->BlockIndex(p.master))) {
        continue;  // already traced via another path
      }
      heap_->MarkChainLive(p.master, p.header, bitmap_, &chain_);
      ++traversed_;

      const uint16_t class_id = p.header.id;
      const ClassInfo* info = rt_->ClassInfoForId(class_id);
      JNVM_CHECK_MSG(info != nullptr,
                     ("live object of unregistered class id " +
                      std::to_string(class_id) + " ('" +
                      heap_->ClassName(class_id) + "')")
                         .c_str());
      if (!info->trace && !info->recover) {
        continue;  // a leaf: nothing to read beyond its headers
      }
      ObjectView view(heap_, chain_);
      if (info->trace) {
        info->trace(view, *this);
        buf_block_ = 0;
      }
      if (info->recover) {
        info->recover(view);  // the recover() hook (§3.2.1)
      }
    }
  }

  void VisitRef(ObjectView& view, size_t off) override {
    const nvm::Offset ref = ReadField(view, off);
    if (ref == 0) {
      return;
    }
    if (ref >= heap_->bump() || ref < heap_->first_block()) {
      Nullify(view, off);  // torn or stale reference outside the heap
      return;
    }
    if (!heap_->IsBlockAligned(ref)) {
      VisitPoolRef(view, off, ref);
      return;
    }
    // Validate before consulting the bitmap: a marked block may be the
    // slave of a live object or a live pool block, and a torn reference to
    // it must be nullified, not skipped as already traced.
    const heap::BlockHeader h = heap_->ReadHeader(ref);
    const ClassInfo* info = rt_->ClassInfoForId(h.id);
    if (!h.IsMaster() || !h.valid || info == nullptr || info->is_pool) {
      // Invalid (partially deleted or never validated) object: nullify the
      // reference instead of exposing it (§2.4).
      Nullify(view, off);
      return;
    }
    if (!bitmap_->IsMarked(heap_->BlockIndex(ref))) {
      worklist_.push_back({ref, h});
    }
  }

  const std::unordered_map<nvm::Offset, std::vector<nvm::Offset>>& live_pool_slots()
      const {
    return live_pool_slots_;
  }
  uint64_t traversed() const { return traversed_; }
  uint64_t nullified() const { return nullified_; }
  uint64_t pool_slot_count() const { return pool_slot_count_; }

 private:
  // A validated master awaiting its trace, with the header word its
  // validation read.
  struct Pending {
    nvm::Offset master;
    heap::BlockHeader header;
  };

  // The reference field at payload byte `off`, served from the one-block
  // buffer; the block is read whole when the field lies outside it.
  nvm::Offset ReadField(const ObjectView& view, size_t off) {
    const nvm::Offset block = view.BlockFor(off);
    const nvm::Offset payload = heap_->PayloadOf(block);
    if (block != buf_block_) {
      heap_->dev().ReadBytes(payload, buf_.data(), buf_.size());
      buf_block_ = block;
    }
    const size_t within = view.Locate(off) - payload;
    JNVM_DCHECK(within + sizeof(nvm::Offset) <= buf_.size());
    nvm::Offset ref;
    std::memcpy(&ref, buf_.data() + within, sizeof(ref));
    return ref;
  }

  void VisitPoolRef(ObjectView& view, size_t off, nvm::Offset ref) {
    const nvm::Offset block =
        (ref / heap_->block_size()) * heap_->block_size();
    auto it = live_pool_slots_.find(block);
    if (it == live_pool_slots_.end()) {
      // First reference into this block: validate its header once.
      const heap::BlockHeader h = heap_->ReadHeader(block);
      const ClassInfo* info = rt_->ClassInfoForId(h.id);
      if (!h.IsMaster() || info == nullptr || !info->is_pool) {
        Nullify(view, off);
        return;
      }
      bitmap_->Mark(heap_->BlockIndex(block));
      it = live_pool_slots_.try_emplace(block).first;
    }
    it->second.push_back(ref);
    ++pool_slot_count_;
  }

  // Env-gated diagnostic: a nullified reference is recovery working as
  // designed, but WHICH ref got dropped (and what its target looked like)
  // is the first question when a crash-consistency sweep finds a torn
  // structure. JNVM_DEBUG_NULLIFY=1 prints one line per dropped ref.
  void Nullify(ObjectView& view, size_t off) {
    static const bool debug = getenv("JNVM_DEBUG_NULLIFY") != nullptr;
    if (debug) {
      const nvm::Offset ref = view.Read<uint64_t>(off);
      const ClassInfo* owner = rt_->ClassInfoForId(heap_->ClassIdOf(view.master()));
      fprintf(stderr,
              "NULLIFY owner=%s master=%llu off=%zu ref=%llu "
              "(first=%llu bump=%llu bs=%u aligned=%d)",
              owner ? owner->name.c_str() : "?",
              (unsigned long long)view.master(), off, (unsigned long long)ref,
              (unsigned long long)heap_->first_block(),
              (unsigned long long)heap_->bump(), heap_->block_size(),
              heap_->IsBlockAligned(ref));
      if (ref >= heap_->first_block() && ref < heap_->bump() &&
          heap_->IsBlockAligned(ref)) {
        const heap::BlockHeader h = heap_->ReadHeader(ref);
        const ClassInfo* tc = rt_->ClassInfoForId(h.id);
        fprintf(stderr, " target{master=%d valid=%d id=%u cls=%s}", h.IsMaster(),
                h.valid, h.id, tc ? tc->name.c_str() : "?");
      }
      fprintf(stderr, "\n");
    }
    view.Write<uint64_t>(off, 0);
    view.PwbRange(off, sizeof(uint64_t));
    buf_block_ = 0;  // the buffered block no longer matches the device
    ++nullified_;
  }

  JnvmRuntime* rt_;
  Heap* heap_;
  heap::LiveBitmap* bitmap_;
  std::vector<Pending> worklist_;
  std::vector<nvm::Offset> chain_;  // blocks of the object being traced
  std::vector<char> buf_;           // payload of block `buf_block_`
  nvm::Offset buf_block_ = 0;       // 0: the buffer holds nothing
  std::unordered_map<nvm::Offset, std::vector<nvm::Offset>> live_pool_slots_;
  uint64_t traversed_ = 0;
  uint64_t nullified_ = 0;
  uint64_t pool_slot_count_ = 0;
};

pfa::FaHooks RecoveryHooks(JnvmRuntime& rt) {
  pfa::FaHooks hooks;
  PoolManager* pools = &rt.pools();
  hooks.pool_free = [pools](nvm::Offset slot) { pools->FreeSlot(slot); };
  return hooks;
}

// Records the device reads and writes made since `start`.
void RecordDeviceDelta(const nvm::PmemDevice& dev, const nvm::DeviceStats& start,
                       RecoveryReport* report) {
  const nvm::DeviceStats end = dev.stats();
  report->device_reads = end.reads - start.reads;
  report->device_writes = end.writes - start.writes;
}

}  // namespace

RecoveryReport RecoverGraph(JnvmRuntime& rt) {
  Stopwatch sw;
  RecoveryReport report;
  report.graph = true;
  Heap& heap = rt.heap();
  const nvm::DeviceStats io_start = heap.dev().stats();

  // Step 1: redo logs first (§4.2 "After a failure, J-NVM first handles the
  // per-thread logs of failure-atomic blocks, then it executes the recovery
  // procedure").
  report.replay = pfa::ReplayAllLogs(&heap, RecoveryHooks(rt));

  // Step 2: collection pass.
  heap::LiveBitmap bitmap = heap.NewBitmap();
  GraphWalker walker(&rt, &bitmap);
  walker.Run(heap.root_master());
  report.traversed_objects = walker.traversed();
  report.nullified_refs = walker.nullified();
  report.live_pool_slots = walker.pool_slot_count();

  // Step 3: pool allocators (precise occupancy from reachability).
  rt.pools().RebuildFromLiveSlots(walker.live_pool_slots());

  // Step 4: sweep + the single terminal pfence (§4.1.3).
  report.sweep = heap.SweepUnmarked(bitmap);
  RecordDeviceDelta(heap.dev(), io_start, &report);
  report.seconds = sw.ElapsedSec();
  return report;
}

RecoveryReport RecoverBlockScan(JnvmRuntime& rt) {
  Stopwatch sw;
  RecoveryReport report;
  report.graph = false;
  Heap& heap = rt.heap();
  const nvm::DeviceStats io_start = heap.dev().stats();

  report.replay = pfa::ReplayAllLogs(&heap, RecoveryHooks(rt));
  report.sweep = heap.RecoverBlockScan();
  rt.pools().RebuildByScan([&rt](uint16_t id) {
    const ClassInfo* info = rt.ClassInfoForId(id);
    return info != nullptr && info->is_pool;
  });
  RecordDeviceDelta(heap.dev(), io_start, &report);
  report.seconds = sw.ElapsedSec();
  return report;
}

}  // namespace jnvm::core
