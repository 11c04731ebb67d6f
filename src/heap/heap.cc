#include "src/heap/heap.h"

#include <algorithm>
#include <cstring>

#include "src/common/clock.h"

namespace jnvm::heap {

namespace {

uint64_t AlignUp(uint64_t v, uint64_t align) { return (v + align - 1) / align * align; }

}  // namespace

std::unique_ptr<Heap> Heap::Format(nvm::PmemDevice* dev, const HeapOptions& opts) {
  JNVM_CHECK(opts.block_size >= 64 && opts.block_size % nvm::kCacheLine == 0);

  // The superblock occupies 80 bytes; with 64 B blocks it spans two blocks.
  const Offset class_table =
      AlignUp(std::max<uint64_t>(opts.block_size, 128), opts.block_size);
  const uint64_t class_table_bytes =
      static_cast<uint64_t>(opts.class_table_capacity) * kClassEntryBytes;
  const Offset log_dir = AlignUp(class_table + class_table_bytes, opts.block_size);
  const uint64_t log_bytes =
      static_cast<uint64_t>(opts.log_slot_count) * opts.log_slot_bytes;
  const Offset first_block = AlignUp(log_dir + log_bytes, opts.block_size);
  JNVM_CHECK_MSG(first_block + opts.block_size <= dev->size(),
                 "device too small for heap metadata");

  dev->Write<uint64_t>(kMagicOff, kMagic);
  dev->Write<uint32_t>(kVersionOff, kVersion);
  dev->Write<uint32_t>(kBlockSizeOff, opts.block_size);
  dev->Write<uint64_t>(kHeapBytesOff, dev->size());
  dev->Write<uint64_t>(kBumpOff, first_block);
  dev->Write<uint64_t>(kFirstBlockOff, first_block);
  dev->Write<uint64_t>(kRootMasterOff, 0);
  dev->Write<uint64_t>(kClassTableOff, class_table);
  dev->Write<uint32_t>(kClassTableCapOff, opts.class_table_capacity);
  dev->Write<uint32_t>(kCleanShutdownOff, 1);
  dev->Write<uint64_t>(kLogDirOff, log_dir);
  dev->Write<uint32_t>(kLogSlotCountOff, opts.log_slot_count);
  dev->Write<uint32_t>(kLogSlotBytesOff, opts.log_slot_bytes);

  dev->Memset(class_table, 0, class_table_bytes);
  dev->Memset(log_dir, 0, log_bytes);

  dev->PwbRange(0, opts.block_size);
  dev->PwbRange(class_table, class_table_bytes);
  dev->PwbRange(log_dir, log_bytes);
  dev->Psync();

  return Open(dev);
}

std::unique_ptr<Heap> Heap::Open(nvm::PmemDevice* dev) {
  JNVM_CHECK_MSG(dev->Read<uint64_t>(kMagicOff) == kMagic, "not a J-NVM heap");
  JNVM_CHECK(dev->Read<uint32_t>(kVersionOff) == kVersion);

  auto heap = std::unique_ptr<Heap>(new Heap());
  heap->dev_ = dev;
  heap->LoadSuper();

  // Mark the heap dirty while it is open; CloseClean() restores the flag.
  heap->clean_shutdown_at_open_ = dev->Read<uint32_t>(kCleanShutdownOff) != 0;
  dev->Write<uint32_t>(kCleanShutdownOff, 0);
  dev->Pwb(kCleanShutdownOff);
  dev->Pfence();
  return heap;
}

void Heap::LoadSuper() {
  block_size_ = dev_->Read<uint32_t>(kBlockSizeOff);
  first_block_ = dev_->Read<uint64_t>(kFirstBlockOff);
  class_table_off_ = dev_->Read<uint64_t>(kClassTableOff);
  class_table_cap_ = dev_->Read<uint32_t>(kClassTableCapOff);
  log_dir_off_ = dev_->Read<uint64_t>(kLogDirOff);
  log_slot_count_ = dev_->Read<uint32_t>(kLogSlotCountOff);
  log_slot_bytes_ = dev_->Read<uint32_t>(kLogSlotBytesOff);
  bump_.store(dev_->Read<uint64_t>(kBumpOff), std::memory_order_relaxed);

  // Load the class-name mirror.
  class_names_.clear();
  for (uint32_t i = 0; i < class_table_cap_; ++i) {
    char name[kClassEntryBytes];
    dev_->ReadBytes(class_table_off_ + i * kClassEntryBytes, name, kClassEntryBytes);
    name[kClassEntryBytes - 1] = '\0';
    if (name[0] == '\0') {
      break;
    }
    class_names_.emplace_back(name);
  }
}

uint16_t Heap::InternClassId(std::string_view name) {
  JNVM_CHECK(!name.empty() && name.size() < kClassEntryBytes);
  std::lock_guard<std::mutex> lk(class_mu_);
  for (size_t i = 0; i < class_names_.size(); ++i) {
    if (class_names_[i] == name) {
      return static_cast<uint16_t>(i + 1);
    }
  }
  const size_t index = class_names_.size();
  JNVM_CHECK_MSG(index < class_table_cap_, "class table full");
  JNVM_CHECK(index + 1 <= kMaxClassId);
  char entry[kClassEntryBytes] = {};
  std::memcpy(entry, name.data(), name.size());
  const Offset off = class_table_off_ + index * kClassEntryBytes;
  dev_->WriteBytes(off, entry, kClassEntryBytes);
  dev_->PwbRange(off, kClassEntryBytes);
  dev_->Pfence();
  class_names_.emplace_back(name);
  return static_cast<uint16_t>(index + 1);
}

std::string Heap::ClassName(uint16_t id) const {
  std::lock_guard<std::mutex> lk(class_mu_);
  if (id == 0 || id > class_names_.size()) {
    return "";
  }
  return class_names_[id - 1];
}

Offset Heap::root_master() const { return dev_->Read<uint64_t>(kRootMasterOff); }

void Heap::SetRootMaster(Offset master) {
  dev_->Write<uint64_t>(kRootMasterOff, master);
  dev_->Pwb(kRootMasterOff);
  dev_->Pfence();
}

void Heap::PersistBump(Offset new_bump) {
  dev_->Write<uint64_t>(kBumpOff, new_bump);
  dev_->Pwb(kBumpOff);
  // No fence: the publication fence of whichever object first occupies the
  // new block also makes the bump durable (see DESIGN.md §5). Until then the
  // block holds only invalid/unreachable data in every crash outcome.
}

Offset Heap::AllocBlockRaw() {
  const Offset from_queue = free_queue_.Pop();
  if (from_queue != 0) {
    stat_blocks_allocated_.fetch_add(1, std::memory_order_relaxed);
    return from_queue;
  }
  std::lock_guard<std::mutex> lk(bump_mu_);
  const Offset off = bump_.load(std::memory_order_relaxed);
  if (off + block_size_ > dev_->size()) {
    return 0;  // heap full
  }
  bump_.store(off + block_size_, std::memory_order_relaxed);
  PersistBump(off + block_size_);
  stat_blocks_allocated_.fetch_add(1, std::memory_order_relaxed);
  return off;
}

void Heap::FreeBlockRaw(Offset block) {
  JNVM_DCHECK(IsBlockAligned(block) && block >= first_block_);
  stat_blocks_freed_.fetch_add(1, std::memory_order_relaxed);
  free_queue_.Push(block);
}

Offset Heap::AllocObject(uint16_t class_id, size_t payload_bytes, bool zero) {
  JNVM_CHECK(class_id != 0 && class_id <= kMaxClassId);
  const size_t ppb = payload_per_block();
  const size_t nblocks = payload_bytes == 0 ? 1 : (payload_bytes + ppb - 1) / ppb;

  std::vector<Offset> blocks;
  blocks.reserve(nblocks);
  for (size_t i = 0; i < nblocks; ++i) {
    const Offset b = AllocBlockRaw();
    if (b == 0) {
      for (const Offset freed : blocks) {
        FreeBlockRaw(freed);
      }
      return 0;
    }
    blocks.push_back(b);
  }

  // Headers: master {id, invalid, next}, slaves {0, 0, next}. Payloads are
  // voided and queued so a later fence persists the zeroes (§3.2.3). No
  // fence here (§4.1.4): the master is still in the invalid state.
  for (size_t i = 0; i < nblocks; ++i) {
    BlockHeader h;
    h.id = (i == 0) ? class_id : 0;
    h.valid = false;
    h.next = (i + 1 < nblocks) ? BlockIndex(blocks[i + 1]) : 0;
    dev_->Write<uint64_t>(blocks[i], h.Pack());
    if (zero) {
      dev_->Memset(PayloadOf(blocks[i]), 0, ppb);
      dev_->PwbRange(blocks[i], block_size_);
    } else {
      dev_->Pwb(blocks[i]);  // header line only
    }
  }
  stat_objects_allocated_.fetch_add(1, std::memory_order_relaxed);
  return blocks[0];
}

void Heap::CollectBlocks(Offset master, std::vector<Offset>* out) const {
  const uint64_t limit = BlockIndex(dev_->size()) + 1;
  Offset block = master;
  uint64_t guard = 0;
  while (block != 0) {
    JNVM_CHECK_MSG(++guard <= limit, "block chain cycle");
    out->push_back(block);
    const uint64_t next_index = ReadHeader(block).next;
    block = next_index == 0 ? 0 : BlockOffset(next_index);
  }
}

size_t Heap::ChainLength(Offset master) const {
  std::vector<Offset> blocks;
  CollectBlocks(master, &blocks);
  return blocks.size();
}

void Heap::FreeObject(Offset master) {
  JNVM_DCHECK(IsBlockAligned(master));
  std::vector<Offset> blocks;
  CollectBlocks(master, &blocks);
  SetInvalid(master);  // + pwb, no fence (§4.1.5)
  for (const Offset b : blocks) {
    FreeBlockRaw(b);
  }
  stat_objects_freed_.fetch_add(1, std::memory_order_relaxed);
}

void Heap::SetValid(Offset master) {
  BlockHeader h = ReadHeader(master);
  JNVM_DCHECK(h.IsMaster());
  h.valid = true;
  WriteHeader(master, h);
}

void Heap::SetInvalid(Offset master) {
  BlockHeader h = ReadHeader(master);
  h.valid = false;
  WriteHeader(master, h);
}

void Heap::CloseClean() {
  dev_->Write<uint32_t>(kCleanShutdownOff, 1);
  dev_->Pwb(kCleanShutdownOff);
  dev_->Psync();
}

uint64_t Heap::NumAllocatedBlocks() const {
  return (bump_.load(std::memory_order_relaxed) - first_block_) / block_size_;
}

void Heap::MarkChainLive(Offset master, BlockHeader h, LiveBitmap* bitmap,
                         std::vector<Offset>* chain) const {
  const uint64_t limit = BlockIndex(dev_->size()) + 1;
  if (chain != nullptr) {
    chain->clear();
  }
  Offset block = master;
  uint64_t guard = 0;
  while (true) {
    JNVM_CHECK_MSG(++guard <= limit, "block chain cycle");
    bitmap->Mark(BlockIndex(block));
    if (chain != nullptr) {
      chain->push_back(block);
    }
    if (h.next == 0) {
      return;
    }
    block = BlockOffset(h.next);
    h = ReadHeader(block);
  }
}

Heap::RecoveryStats Heap::SweepUnmarked(const LiveBitmap& bitmap) {
  Stopwatch sw;
  RecoveryStats stats;
  free_queue_.Clear();
  std::vector<Offset> free_blocks;
  const Offset end = bump_.load(std::memory_order_relaxed);
  for (Offset b = first_block_; b < end; b += block_size_) {
    ++stats.scanned_blocks;
    if (bitmap.IsMarked(BlockIndex(b))) {
      ++stats.live_blocks;
      continue;
    }
    // Void the header so a recycled block can never be mistaken for a live
    // master (§4.1.3: recovery writes 0 in the valid bit of free blocks).
    if (dev_->Read<uint64_t>(b) != 0) {
      dev_->Write<uint64_t>(b, 0);
      dev_->Pwb(b);
    }
    free_blocks.push_back(b);
    ++stats.freed_blocks;
  }
  free_queue_.PushAll(free_blocks);
  dev_->Pfence();  // §4.1.3: one fence once the procedure terminates
  stats.seconds = sw.ElapsedSec();
  return stats;
}

Heap::RecoveryStats Heap::RecoverBlockScan() {
  Stopwatch sw;
  LiveBitmap bitmap = NewBitmap();
  const Offset end = bump_.load(std::memory_order_relaxed);
  for (Offset b = first_block_; b < end; b += block_size_) {
    const BlockHeader h = ReadHeader(b);
    if (h.IsMaster() && h.valid) {
      MarkChainLive(b, h, &bitmap);
    }
  }
  RecoveryStats stats = SweepUnmarked(bitmap);
  stats.seconds = sw.ElapsedSec();
  return stats;
}

Heap::Usage Heap::GetUsage() const {
  Usage u;
  u.capacity_blocks = capacity_blocks();
  u.bumped_blocks = NumAllocatedBlocks();
  u.free_queue_blocks = free_queue_.ApproxSize();
  u.in_use_blocks = u.bumped_blocks > u.free_queue_blocks
                        ? u.bumped_blocks - u.free_queue_blocks
                        : 0;
  u.utilization = u.capacity_blocks == 0
                      ? 0.0
                      : static_cast<double>(u.in_use_blocks) /
                            static_cast<double>(u.capacity_blocks);
  return u;
}

HeapStats Heap::stats() const {
  HeapStats s;
  s.blocks_allocated = stat_blocks_allocated_.load(std::memory_order_relaxed);
  s.blocks_freed = stat_blocks_freed_.load(std::memory_order_relaxed);
  s.objects_allocated = stat_objects_allocated_.load(std::memory_order_relaxed);
  s.objects_freed = stat_objects_freed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace jnvm::heap
