#include "src/pdt/pstring.h"

namespace jnvm::pdt {

const ClassInfo* PString::Class() {
  static const ClassInfo* info =
      RegisterClass(core::MakeClassInfo<PString>("jnvm.PString"));
  return info;
}

const ClassInfo* PString::SmallClass() {
  static const ClassInfo* info = RegisterClass(core::MakeClassInfo<PString>(
      "jnvm.PString$small", /*trace=*/nullptr, /*is_pool=*/true));
  return info;
}

PString::PString(JnvmRuntime& rt, std::string_view s) {
  JNVM_CHECK(s.size() <= UINT32_MAX);
  const size_t bytes = kDataOff + s.size();
  if (bytes <= rt.pools().max_slot_bytes()) {
    AllocatePersistentPooled(rt, SmallClass(), bytes);
  } else {
    // Leaf class, fully written below: skip the payload voiding.
    AllocatePersistent(rt, Class(), bytes, /*zero=*/false);
  }
  WriteField<uint32_t>(kLenOff, static_cast<uint32_t>(s.size()));
  if (!s.empty()) {
    WriteBytesField(kDataOff, s.data(), s.size());
  }
  Pwb();
}

std::string PString::Str() const {
  const uint32_t len = Length();
  std::string out(len, '\0');
  if (len > 0) {
    ReadBytesField(kDataOff, out.data(), len);
  }
  return out;
}

std::string PString::ReadRaw(JnvmRuntime& rt, nvm::Offset ref) {
  const core::ObjectView v = core::ObjectView::Of(&rt.heap(), ref);
  const uint32_t len = v.Read<uint32_t>(kLenOff);
  JNVM_CHECK(len <= v.capacity() - kDataOff);
  std::string out(len, '\0');
  if (len > 0) {
    v.ReadBytes(kDataOff, out.data(), len);
  }
  return out;
}

bool PString::Equals(std::string_view s) const {
  if (Length() != s.size()) {
    return false;
  }
  return Str() == s;  // simple; hot paths use the mirror, not this
}

}  // namespace jnvm::pdt
