#include "src/core/ref_array.h"

#include "src/core/runtime.h"

namespace jnvm::core {

const ClassInfo* PRefArray::Class() {
  static const ClassInfo* info = RegisterClass(
      MakeClassInfo<PRefArray>("jnvm.PRefArray", &PRefArray::Trace));
  return info;
}

PRefArray::PRefArray(JnvmRuntime& rt, uint64_t capacity) {
  AllocatePersistent(rt, Class(), PayloadBytesFor(capacity));
  WriteField<uint64_t>(kCapacityOff, capacity);
  PwbField(kCapacityOff, sizeof(uint64_t));
}

std::vector<nvm::Offset> PRefArray::ReadAllRaw() const {
  std::vector<nvm::Offset> cells(capacity());
  ReadBytesField(kSlotsOff, cells.data(), cells.size() * sizeof(nvm::Offset));
  return cells;
}

void PRefArray::Trace(ObjectView& view, RefVisitor& v) {
  const uint64_t cap = view.Read<uint64_t>(kCapacityOff);
  // A torn capacity cannot escape the payload: clamp defensively.
  const uint64_t max_cap = (view.capacity() - kSlotsOff) / sizeof(uint64_t);
  const uint64_t n = cap > max_cap ? max_cap : cap;
  for (uint64_t i = 0; i < n; ++i) {
    v.VisitRef(view, SlotOff(i));
  }
}

}  // namespace jnvm::core
