#include "src/store/jpfa_backend.h"

namespace jnvm::store {

JpfaBackend::JpfaBackend(core::JnvmRuntime* rt, const std::string& root_name,
                         uint64_t initial_capacity)
    : rt_(rt) {
  map_ = rt->root().GetAs<pdt::PStringHashMap>(root_name);
  if (map_ == nullptr) {
    map_ = std::make_shared<pdt::PStringHashMap>(*rt, initial_capacity);
    map_->Pwb();
    rt->root().Put(root_name, map_.get());
  }
  map_->SetCaching(pdt::ProxyCaching::kCached);
}

bool JpfaBackend::DoPut(const std::string& key, const Record& r) {
  // The whole operation — record allocation, key allocation, publication —
  // is one failure-atomic block, as the generator would emit for a
  // @Persistent(fa="non-private") store class (§2.5).
  std::lock_guard<std::mutex> lk(op_mu_);
  core::FaBlock fa(*rt_);
  PRecord rec(*rt_, r);
  return map_->Put(key, &rec);
}

bool JpfaBackend::DoGet(const std::string& key, Record* out) {
  std::lock_guard<std::mutex> lk(op_mu_);
  core::FaBlock fa(*rt_);
  const auto rec = map_->GetAs<PRecord>(key);
  if (rec == nullptr) {
    return false;
  }
  *out = rec->ToRecord();
  return true;
}

bool JpfaBackend::DoUpdateField(const std::string& key, size_t field,
                                const std::string& value) {
  std::lock_guard<std::mutex> lk(op_mu_);
  core::FaBlock fa(*rt_);
  const auto rec = map_->GetAs<PRecord>(key);
  if (rec == nullptr || field >= rec->NumFields()) {
    return false;
  }
  if (value.size() > rec->FieldCapacity()) {
    // Oversized value (server-driven update): replace the whole record
    // inside the same failure-atomic block.
    Record full = rec->ToRecord();
    full.fields[field] = value;
    PRecord bigger(*rt_, full);
    map_->Put(key, &bigger);
    return true;
  }
  // Atomic via the enclosing block: the write lands in an in-flight copy
  // and is committed by the redo log (§4.2).
  rec->SetFieldWeak(field, value);
  return true;
}

bool JpfaBackend::DoDelete(const std::string& key) {
  std::lock_guard<std::mutex> lk(op_mu_);
  core::FaBlock fa(*rt_);
  return map_->Remove(key, /*free_value=*/true);
}

size_t JpfaBackend::Size() { return map_->Size(); }

bool JpfaBackend::SnapshotRecords(
    const std::function<void(const std::string&, const Record&)>& fn) {
  std::lock_guard<std::mutex> lk(op_mu_);
  core::FaBlock fa(*rt_);  // reads of in-flight copies stay consistent
  map_->ForEach([&](const std::string& key, core::Handle<core::PObject> v) {
    fn(key, std::static_pointer_cast<PRecord>(v)->ToRecord());
  });
  return true;
}

bool JpfaBackend::ForEachKey(const std::function<void(const std::string&)>& fn) {
  // The mirror lives in DRAM, outside any in-flight copy: no block needed.
  std::lock_guard<std::mutex> lk(op_mu_);
  map_->ForEachKey(fn);
  return true;
}

bool JpfaBackend::DoTouch(const std::string& key) {
  std::lock_guard<std::mutex> lk(op_mu_);
  core::FaBlock fa(*rt_);
  const auto rec = map_->GetAs<PRecord>(key);
  if (rec == nullptr) {
    return false;
  }
  volatile uint32_t sink = rec->NumFields();
  (void)sink;
  return true;
}

}  // namespace jnvm::store
