// J-PFA backend (§5.1): "The J-PFA and J-PDT backends use the same code
// base" — the same map structure, but every store operation runs inside a
// failure-atomic block instead of relying on the hand-crafted publication
// protocol. The convenience cost (redo log, in-flight block copies, commit
// fences) is what Figure 7 quantifies against J-PDT.
#ifndef JNVM_SRC_STORE_JPFA_BACKEND_H_
#define JNVM_SRC_STORE_JPFA_BACKEND_H_

#include <mutex>

#include "src/pdt/pmap.h"
#include "src/store/backend.h"
#include "src/store/precord.h"

namespace jnvm::store {

class JpfaBackend final : public Backend {
 public:
  JpfaBackend(core::JnvmRuntime* rt, const std::string& root_name = "store.jpfa",
              uint64_t initial_capacity = 1024);

  std::string name() const override { return "J-PFA"; }
  size_t Size() override;
  bool SnapshotRecords(
      const std::function<void(const std::string&, const Record&)>& fn) override;
  bool ForEachKey(const std::function<void(const std::string&)>& fn) override;

  pdt::PStringHashMap& map() { return *map_; }

 protected:
  bool DoPut(const std::string& key, const Record& r) override;
  bool DoGet(const std::string& key, Record* out) override;
  bool DoUpdateField(const std::string& key, size_t field,
                     const std::string& value) override;
  bool DoDelete(const std::string& key) override;
  bool DoTouch(const std::string& key) override;

 private:
  core::JnvmRuntime* rt_;
  core::Handle<pdt::PStringHashMap> map_;
  // Serializes whole operations: concurrent failure-atomic blocks must not
  // hold diverging in-flight copies of shared map blocks (§4.4).
  std::mutex op_mu_;
};

}  // namespace jnvm::store

#endif  // JNVM_SRC_STORE_JPFA_BACKEND_H_
