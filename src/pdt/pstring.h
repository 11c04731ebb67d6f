// PString — the drop-in persistent replacement for java.lang.String (§2.6,
// Figure 3 line 9).
//
// Strings are immutable. Small strings are packed into pool blocks to avoid
// internal fragmentation (§4.4); large strings fall back to a chained
// object. The two representations register distinct persistent class names
// so recovery can tell pool blocks from chained masters, but both resurrect
// into the same proxy type.
//
// Persistent layout: {u32 length, bytes}.
#ifndef JNVM_SRC_PDT_PSTRING_H_
#define JNVM_SRC_PDT_PSTRING_H_

#include <string>
#include <string_view>

#include "src/core/pobject.h"
#include "src/core/runtime.h"

namespace jnvm::pdt {

using core::ClassInfo;
using core::Handle;
using core::JnvmRuntime;
using core::PObject;
using core::Resurrect;

class PString final : public PObject {
 public:
  // Chained representation (large strings).
  static const ClassInfo* Class();
  // Pool representation (small strings).
  static const ClassInfo* SmallClass();

  explicit PString(Resurrect) {}
  // Copies `s` into NVMM and queues the content for write-back; the caller
  // (or the enclosing failure-atomic block) provides the publication fence.
  PString(JnvmRuntime& rt, std::string_view s);

  uint32_t Length() const { return ReadField<uint32_t>(kLenOff); }
  std::string Str() const;
  bool Equals(std::string_view s) const;

  // Reads the string at raw reference `ref` without building a proxy: the
  // map resurrection path, which reads every key once on restart. Reads go
  // straight to the device, so `ref` must be published (strings are
  // immutable, so no failure-atomic block holds an in-flight copy of one).
  static std::string ReadRaw(JnvmRuntime& rt, nvm::Offset ref);

  // Byte content starting offset within the payload.
  static constexpr size_t kLenOff = 0;
  static constexpr size_t kDataOff = 4;
};

}  // namespace jnvm::pdt

#endif  // JNVM_SRC_PDT_PSTRING_H_
