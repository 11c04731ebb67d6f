// Persistent key/value pairs — the unit the J-PDT maps point at (§4.3.2).
//
// PRefPair references both a persistent key object (e.g. PString) and a
// persistent value. PIntPair inlines a 64-bit key, avoiding a key object for
// integer-keyed tables (e.g. TPC-B account ids).
#ifndef JNVM_SRC_PDT_PPAIR_H_
#define JNVM_SRC_PDT_PPAIR_H_

#include "src/core/pobject.h"
#include "src/core/runtime.h"

namespace jnvm::pdt {

class PRefPair final : public core::PObject {
 public:
  static const core::ClassInfo* Class();

  explicit PRefPair(core::Resurrect) {}
  PRefPair(core::JnvmRuntime& rt, const core::PObject* key, const core::PObject* value) {
    AllocatePersistent(rt, Class(), 16);
    WritePObject(kValueOff, value);
    WritePObject(kKeyOff, key);
    Pwb();
  }

  nvm::Offset ValueRaw() const { return ReadRefRaw(kValueOff); }
  nvm::Offset KeyRaw() const { return ReadRefRaw(kKeyOff); }
  core::Handle<core::PObject> Value() const { return ReadPObject(kValueOff); }
  core::Handle<core::PObject> Key() const { return ReadPObject(kKeyOff); }
  // Key reference of the published pair at `pair`, read without a proxy
  // (map resurrection). Set once before publication, so no failure-atomic
  // in-flight copy of the pair can hold a different one.
  static nvm::Offset KeyRawAt(core::JnvmRuntime& rt, nvm::Offset pair);

  // Atomic value replacement (§4.1.6); the variant with FreeOld is what the
  // Infinispan backend uses to keep key→value associations sound (§4.1.6).
  void SetValue(core::PObject* v) { UpdateRef(kValueOff, v); }
  void SetValueAndFreeOld(core::PObject* v) { UpdateRefAndFreeOld(kValueOff, v); }

  static constexpr size_t kValueOff = 0;
  static constexpr size_t kKeyOff = 8;

 private:
  static void Trace(core::ObjectView& view, core::RefVisitor& v);
};

class PIntPair final : public core::PObject {
 public:
  static const core::ClassInfo* Class();

  explicit PIntPair(core::Resurrect) {}
  PIntPair(core::JnvmRuntime& rt, int64_t key, const core::PObject* value) {
    AllocatePersistent(rt, Class(), 16);
    WritePObject(kValueOff, value);
    WriteField<int64_t>(kKeyOff, key);
    Pwb();
  }

  nvm::Offset ValueRaw() const { return ReadRefRaw(kValueOff); }
  int64_t Key() const { return ReadField<int64_t>(kKeyOff); }
  // Inline key of the published pair at `pair`, read without a proxy.
  static int64_t KeyAt(core::JnvmRuntime& rt, nvm::Offset pair);
  core::Handle<core::PObject> Value() const { return ReadPObject(kValueOff); }

  void SetValue(core::PObject* v) { UpdateRef(kValueOff, v); }
  void SetValueAndFreeOld(core::PObject* v) { UpdateRefAndFreeOld(kValueOff, v); }

  static constexpr size_t kValueOff = 0;
  static constexpr size_t kKeyOff = 8;

 private:
  static void Trace(core::ObjectView& view, core::RefVisitor& v);
};

}  // namespace jnvm::pdt

#endif  // JNVM_SRC_PDT_PPAIR_H_
