#include "src/pdt/ppair.h"

namespace jnvm::pdt {

namespace {

// A pair's 16-byte payload always fits its master block, so a field sits at
// a fixed device offset past the block header: one read, no chain walk.
template <typename T>
T ReadPairField(core::JnvmRuntime& rt, nvm::Offset pair, size_t off) {
  heap::Heap& h = rt.heap();
  JNVM_DCHECK(h.IsBlockAligned(pair) && off + sizeof(T) <= h.payload_per_block());
  return h.dev().Read<T>(h.PayloadOf(pair) + off);
}

}  // namespace

const core::ClassInfo* PRefPair::Class() {
  static const core::ClassInfo* info =
      RegisterClass(core::MakeClassInfo<PRefPair>("jnvm.PRefPair", &PRefPair::Trace));
  return info;
}

void PRefPair::Trace(core::ObjectView& view, core::RefVisitor& v) {
  v.VisitRef(view, kValueOff);
  v.VisitRef(view, kKeyOff);
}

nvm::Offset PRefPair::KeyRawAt(core::JnvmRuntime& rt, nvm::Offset pair) {
  return ReadPairField<uint64_t>(rt, pair, kKeyOff);
}

const core::ClassInfo* PIntPair::Class() {
  static const core::ClassInfo* info =
      RegisterClass(core::MakeClassInfo<PIntPair>("jnvm.PIntPair", &PIntPair::Trace));
  return info;
}

int64_t PIntPair::KeyAt(core::JnvmRuntime& rt, nvm::Offset pair) {
  return ReadPairField<int64_t>(rt, pair, kKeyOff);
}

void PIntPair::Trace(core::ObjectView& view, core::RefVisitor& v) {
  v.VisitRef(view, kValueOff);  // the key is inline, not a reference
}

}  // namespace jnvm::pdt
