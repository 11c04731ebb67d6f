// Tests for the core object model: proxies, resurrection, validation,
// atomic reference update, the root map, pools, and graph recovery —
// including crash-property tests on the strict device.
#include <gtest/gtest.h>

#include "src/core/root_map.h"
#include "src/core/runtime.h"

namespace jnvm::core {
namespace {

// The running example of the paper (Figures 3 and 4): a Simple object with a
// reference field, an int field, and a transient field.
class Simple final : public PObject {
 public:
  static const ClassInfo* Class() {
    static const ClassInfo* info =
        RegisterClass(MakeClassInfo<Simple>("test.Simple", &Simple::Trace));
    return info;
  }

  explicit Simple(Resurrect) {}
  Simple(JnvmRuntime& rt, int32_t x) {
    AllocatePersistent(rt, Class(), kL.bytes);
    SetX(x);
  }

  void Resurrect_() override { y = 42; }  // transient init (§3.1)

  int32_t X() const { return ReadField<int32_t>(kL.off[1]); }
  void SetX(int32_t v) { WriteField<int32_t>(kL.off[1], v); }
  void Inc() { SetX(X() + 1); }

  Handle<Simple> Other() const { return ReadPObjectAs<Simple>(kL.off[0]); }
  Handle<PObject> OtherP() const { return ReadPObject(kL.off[0]); }
  void SetOther(const PObject* o) { WritePObject(kL.off[0], o); }
  void UpdateOther(PObject* o) { UpdateRef(kL.off[0], o); }  // §4.1.6
  nvm::Offset OtherRaw() const { return ReadRefRaw(kL.off[0]); }
  void SetOtherRaw(nvm::Offset ref) { WriteRefRaw(kL.off[0], ref); }

  uint64_t Stamp() const { return ReadField<uint64_t>(kL.off[2]); }
  void SetStamp(uint64_t v) { WriteField<uint64_t>(kL.off[2], v); }

  int y = 0;  // transient

  static void Trace(ObjectView& v, RefVisitor& r) { r.VisitRef(v, kL.off[0]); }

 private:
  static constexpr auto kL = PackFields<3>({kRefField, 4, 8});
};

// A large object spanning several blocks.
class BigArray final : public PObject {
 public:
  static constexpr size_t kCount = 200;  // 1600 B payload -> 7 blocks

  static const ClassInfo* Class() {
    static const ClassInfo* info =
        RegisterClass(MakeClassInfo<BigArray>("test.BigArray"));
    return info;
  }

  explicit BigArray(Resurrect) {}
  explicit BigArray(JnvmRuntime& rt) { AllocatePersistent(rt, Class(), kCount * 8); }

  uint64_t Get(size_t i) const { return ReadField<uint64_t>(i * 8); }
  void Set(size_t i, uint64_t v) { WriteField<uint64_t>(i * 8, v); }
};

// A 1 KiB leaf spanning five blocks, like a store value.
class Kilo final : public PObject {
 public:
  static const ClassInfo* Class() {
    static const ClassInfo* info = RegisterClass(MakeClassInfo<Kilo>("test.Kilo"));
    return info;
  }

  explicit Kilo(Resurrect) {}
  explicit Kilo(JnvmRuntime& rt) { AllocatePersistent(rt, Class(), 1024); }
};

// A small immutable pool class (stand-in for PString at this layer).
class Blob final : public PObject {
 public:
  static const ClassInfo* Class() {
    static const ClassInfo* info = RegisterClass(
        MakeClassInfo<Blob>("test.Blob", /*trace=*/nullptr, /*is_pool=*/true));
    return info;
  }

  explicit Blob(Resurrect) {}
  Blob(JnvmRuntime& rt, uint32_t tag) {
    AllocatePersistentPooled(rt, Class(), 8);
    WriteField<uint32_t>(0, tag);
    Pwb();
  }

  uint32_t Tag() const { return ReadField<uint32_t>(0); }
};

struct Fixture {
  explicit Fixture(bool strict = false, size_t bytes = 4 << 20) {
    nvm::DeviceOptions o;
    o.size_bytes = bytes;
    o.strict = strict;
    dev = std::make_unique<nvm::PmemDevice>(o);
    rt = JnvmRuntime::Format(dev.get());
  }

  // Simulates SIGKILL + power failure, then reopens with recovery.
  void CrashAndReopen(uint64_t seed, bool graph = true) {
    rt->Abandon();
    rt.reset();
    dev->Crash(seed);
    RuntimeOptions opts;
    opts.graph_recovery = graph;
    rt = JnvmRuntime::Open(dev.get(), opts);
  }

  void CleanReopen() {
    rt.reset();
    rt = JnvmRuntime::Open(dev.get());
  }

  std::unique_ptr<nvm::PmemDevice> dev;
  std::unique_ptr<JnvmRuntime> rt;
};

// ---- Basic proxy behaviour --------------------------------------------------

TEST(PObjectTest, FieldsReadBack) {
  Fixture f;
  Simple s(*f.rt, 7);
  EXPECT_EQ(s.X(), 7);
  s.Inc();
  EXPECT_EQ(s.X(), 8);
  s.SetStamp(0xdeadbeef);
  EXPECT_EQ(s.Stamp(), 0xdeadbeefull);
}

TEST(PObjectTest, FreshFieldsAreVoided) {
  Fixture f;
  Simple s(*f.rt, 0);
  EXPECT_EQ(s.OtherRaw(), 0u);
  EXPECT_EQ(s.Stamp(), 0u);
}

TEST(PObjectTest, AllocatedInvalidThenValidate) {
  Fixture f;
  Simple s(*f.rt, 1);
  EXPECT_FALSE(s.IsValidObject());
  s.Validate();
  EXPECT_TRUE(s.IsValidObject());
}

TEST(PObjectTest, ReferencesAndResurrection) {
  Fixture f;
  Simple a(*f.rt, 1);
  Simple b(*f.rt, 2);
  a.SetOther(&b);
  const Handle<Simple> b2 = a.Other();
  ASSERT_NE(b2, nullptr);
  EXPECT_EQ(b2->addr(), b.addr());
  EXPECT_EQ(b2->X(), 2);
  EXPECT_EQ(b2->y, 42);  // Resurrect_ ran
}

TEST(PObjectTest, NullReferenceResurrectsToNull) {
  Fixture f;
  Simple a(*f.rt, 1);
  EXPECT_EQ(a.Other(), nullptr);
}

TEST(PObjectTest, MultiBlockObject) {
  Fixture f;
  BigArray arr(*f.rt);
  for (size_t i = 0; i < BigArray::kCount; ++i) {
    arr.Set(i, i * 3);
  }
  for (size_t i = 0; i < BigArray::kCount; ++i) {
    EXPECT_EQ(arr.Get(i), i * 3);
  }
  EXPECT_EQ(f.rt->heap().ChainLength(arr.addr()), 7u);
}

TEST(PObjectTest, FreeDetachesProxy) {
  Fixture f;
  Simple s(*f.rt, 1);
  f.rt->Free(s);
  EXPECT_FALSE(s.attached());
  EXPECT_EQ(s.addr(), 0u);
}

TEST(PObjectDeathTest, AccessAfterFreeAborts) {
  Fixture f;
  Simple s(*f.rt, 1);
  f.rt->Free(s);
  EXPECT_DEATH(s.X(), "freed or unattached");
}

TEST(PObjectDeathTest, DoubleFreeAborts) {
  Fixture f;
  Simple s(*f.rt, 1);
  f.rt->Free(s);
  EXPECT_DEATH(f.rt->Free(s), "double free");
}

// ---- Root map ----------------------------------------------------------------

TEST(RootMapTest, PutGetExists) {
  Fixture f;
  Simple s(*f.rt, 42);
  EXPECT_FALSE(f.rt->root().Exists("simple"));
  f.rt->root().Put("simple", &s);
  EXPECT_TRUE(f.rt->root().Exists("simple"));
  const auto got = f.rt->root().GetAs<Simple>("simple");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->X(), 42);
}

TEST(RootMapTest, PutReplacesValue) {
  Fixture f;
  Simple a(*f.rt, 1);
  Simple b(*f.rt, 2);
  f.rt->root().Put("k", &a);
  f.rt->root().Put("k", &b);
  EXPECT_EQ(f.rt->root().GetAs<Simple>("k")->X(), 2);
  EXPECT_EQ(f.rt->root().Size(), 1u);
}

TEST(RootMapTest, RemoveUnbinds) {
  Fixture f;
  Simple s(*f.rt, 1);
  f.rt->root().Put("k", &s);
  EXPECT_TRUE(f.rt->root().Remove("k"));
  EXPECT_FALSE(f.rt->root().Exists("k"));
  EXPECT_FALSE(f.rt->root().Remove("k"));
}

TEST(RootMapTest, GrowsPastInitialCapacity) {
  Fixture f;
  std::vector<std::unique_ptr<Simple>> objs;
  for (int i = 0; i < 200; ++i) {  // initial capacity is 64
    objs.push_back(std::make_unique<Simple>(*f.rt, i));
    f.rt->root().Put("key" + std::to_string(i), objs.back().get());
  }
  EXPECT_EQ(f.rt->root().Size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(f.rt->root().GetAs<Simple>("key" + std::to_string(i))->X(), i);
  }
}

TEST(RootMapTest, SurvivesCleanRestart) {
  Fixture f;
  {
    Simple s(*f.rt, 99);
    f.rt->root().Put("persisted", &s);
  }
  f.CleanReopen();
  const auto got = f.rt->root().GetAs<Simple>("persisted");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->X(), 99);
}

TEST(RootMapTest, KeysLists) {
  Fixture f;
  Simple s(*f.rt, 1);
  f.rt->root().Put("a", &s);
  f.rt->root().Put("b", &s);
  auto keys = f.rt->root().Keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

// ---- Pools (small immutable objects, §4.4) -----------------------------------

TEST(PoolTest, SlotsPackedInOneBlock) {
  Fixture f;
  Blob a(*f.rt, 1);
  Blob b(*f.rt, 2);
  EXPECT_TRUE(a.is_pool());
  // Both live in the same 256 B block (packing, §4.4).
  const auto block_of = [&](const Blob& x) {
    return (x.addr() / f.rt->heap().block_size()) * f.rt->heap().block_size();
  };
  EXPECT_EQ(block_of(a), block_of(b));
  EXPECT_EQ(a.Tag(), 1u);
  EXPECT_EQ(b.Tag(), 2u);
}

TEST(PoolTest, FreeRecyclesSlot) {
  Fixture f;
  Blob a(*f.rt, 1);
  const nvm::Offset slot = a.addr();
  f.rt->Free(a);
  Blob b(*f.rt, 2);
  EXPECT_EQ(b.addr(), slot);
}

TEST(PoolTest, PoolRefsSurviveRestart) {
  Fixture f;
  {
    Simple s(*f.rt, 1);
    Blob blob(*f.rt, 77);
    s.UpdateOther(&blob);  // store a pool ref with the atomic update
    f.rt->root().Put("s", &s);
  }
  f.CleanReopen();
  const auto s = f.rt->root().GetAs<Simple>("s");
  const auto blob = std::static_pointer_cast<Blob>(s->OtherP());
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->Tag(), 77u);
}

// ---- Graph recovery (§2.4) -----------------------------------------------------

TEST(RecoveryTest, UnreachableObjectsCollected) {
  Fixture f;
  nvm::Offset leaked;
  {
    Simple kept(*f.rt, 1);
    f.rt->root().Put("kept", &kept);
    Simple lost(*f.rt, 2);  // validated but never published
    lost.Pwb();
    lost.Validate();
    f.rt->Psync();
    leaked = lost.addr();
  }
  f.CleanReopen();
  // The leaked object's blocks were reclaimed (header voided or reused).
  EXPECT_FALSE(f.rt->heap().ReadHeader(leaked).valid);
  EXPECT_GE(f.rt->recovery_report().sweep.freed_blocks, 1u);
  EXPECT_TRUE(f.rt->root().Exists("kept"));
}

TEST(RecoveryTest, InvalidReachableReferenceNullified) {
  Fixture f;
  {
    Simple parent(*f.rt, 1);
    parent.Pwb();
    parent.Validate();
    Simple child(*f.rt, 2);  // never validated
    child.Pwb();
    parent.SetOther(&child);  // reachable but invalid (§2.4)
    parent.PwbField(0, 8);
    f.rt->root().Put("p", &parent);
  }
  f.CleanReopen();
  EXPECT_GE(f.rt->recovery_report().nullified_refs, 1u);
  const auto parent = f.rt->root().GetAs<Simple>("p");
  EXPECT_EQ(parent->Other(), nullptr);  // nullified at recovery
}

TEST(RecoveryTest, AtomicUpdatePreventsNullification) {
  Fixture f;
  {
    Simple parent(*f.rt, 1);
    parent.Pwb();
    parent.Validate();
    Simple child(*f.rt, 2);
    parent.UpdateOther(&child);  // Figure 6: validate, pfence, store
    f.rt->root().Put("p", &parent);
  }
  f.CleanReopen();
  const auto parent = f.rt->root().GetAs<Simple>("p");
  const auto child = parent->Other();
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->X(), 2);
}

TEST(RecoveryTest, CyclicGraphTerminates) {
  Fixture f;
  {
    Simple a(*f.rt, 1);
    Simple b(*f.rt, 2);
    a.SetOther(&b);
    b.SetOther(&a);  // cycle
    a.Pwb();
    b.Pwb();
    a.Validate();
    b.Validate();
    f.rt->root().Put("a", &a);
  }
  f.CleanReopen();
  const auto a = f.rt->root().GetAs<Simple>("a");
  ASSERT_NE(a, nullptr);
  const auto b = a->Other();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->Other()->addr(), a->addr());
}

TEST(RecoveryTest, FreedBlocksReusableAfterRecovery) {
  Fixture f;
  {
    for (int i = 0; i < 50; ++i) {
      Simple garbage(*f.rt, i);  // all unreachable
    }
  }
  f.CleanReopen();
  const nvm::Offset bump_before = f.rt->heap().bump();
  for (int i = 0; i < 50; ++i) {
    Simple s(*f.rt, i);  // must reuse swept blocks
  }
  EXPECT_EQ(f.rt->heap().bump(), bump_before);
}

// The walker validates a block-aligned target before it consults the live
// bitmap: a marked block may be a slave of a live object or a live pool
// block, and a reference to it is torn, not "already traced". In both tests
// array cell 1 is traced before cell 0, so the target is marked by the time
// the holder's reference is checked.
TEST(RecoveryTest, TornReferenceToSlaveBlockNullified) {
  Fixture f;
  {
    BigArray big(*f.rt);
    big.Set(0, 5);
    big.Pwb();
    big.Validate();
    std::vector<nvm::Offset> blocks;
    f.rt->heap().CollectBlocks(big.addr(), &blocks);
    ASSERT_GT(blocks.size(), 1u);
    Simple holder(*f.rt, 1);
    holder.SetOtherRaw(blocks[1]);
    holder.Pwb();
    holder.Validate();
    PRefArray arr(*f.rt, 2);
    arr.Set(0, &holder);
    arr.Set(1, &big);
    f.rt->root().Put("arr", &arr);
  }
  f.CleanReopen();
  EXPECT_EQ(f.rt->recovery_report().nullified_refs, 1u);
  const auto arr = f.rt->root().GetAs<PRefArray>("arr");
  EXPECT_EQ(std::static_pointer_cast<Simple>(arr->Get(0))->OtherRaw(), 0u);
  const auto big = std::static_pointer_cast<BigArray>(arr->Get(1));
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(big->Get(0), 5u);
}

TEST(RecoveryTest, BlockAlignedReferenceToPoolBlockNullified) {
  Fixture f;
  {
    Blob blob(*f.rt, 7);
    Simple owner(*f.rt, 1);
    owner.UpdateOther(&blob);
    owner.Pwb();
    owner.Validate();
    const uint32_t bs = f.rt->heap().block_size();
    Simple holder(*f.rt, 2);
    holder.SetOtherRaw((blob.addr() / bs) * bs);  // the pool block itself
    holder.Pwb();
    holder.Validate();
    PRefArray arr(*f.rt, 2);
    arr.Set(0, &holder);
    arr.Set(1, &owner);
    f.rt->root().Put("arr", &arr);
  }
  f.CleanReopen();
  EXPECT_EQ(f.rt->recovery_report().nullified_refs, 1u);
  EXPECT_EQ(f.rt->recovery_report().live_pool_slots, 1u);
  const auto arr = f.rt->root().GetAs<PRefArray>("arr");
  EXPECT_EQ(std::static_pointer_cast<Simple>(arr->Get(0))->OtherRaw(), 0u);
  const auto owner = std::static_pointer_cast<Simple>(arr->Get(1));
  const auto blob = std::static_pointer_cast<Blob>(owner->OtherP());
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->Tag(), 7u);
}

TEST(RecoveryTest, SharedChildTracedOnce) {
  Fixture f;
  {
    Simple p1(*f.rt, 1);
    Simple p2(*f.rt, 2);
    p1.Pwb();
    p2.Pwb();
    p1.Validate();
    p2.Validate();
    PRefArray arr(*f.rt, 2);
    arr.Set(0, &p1);
    arr.Set(1, &p2);
    f.rt->root().Put("arr", &arr);
  }
  f.CleanReopen();
  const uint64_t without_child = f.rt->recovery_report().traversed_objects;
  {
    const auto arr = f.rt->root().GetAs<PRefArray>("arr");
    Simple child(*f.rt, 3);
    child.Pwb();
    child.Validate();
    std::static_pointer_cast<Simple>(arr->Get(0))->SetOther(&child);
    std::static_pointer_cast<Simple>(arr->Get(1))->SetOther(&child);
  }
  f.CleanReopen();
  EXPECT_EQ(f.rt->recovery_report().traversed_objects, without_child + 1);
  EXPECT_EQ(f.rt->recovery_report().nullified_refs, 0u);
  const auto arr = f.rt->root().GetAs<PRefArray>("arr");
  const auto c1 = std::static_pointer_cast<Simple>(arr->Get(0))->Other();
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->X(), 3);
  EXPECT_EQ(std::static_pointer_cast<Simple>(arr->Get(1))->Other()->addr(), c1->addr());
}

// The walker reads reference fields one payload block at a time; a nullified
// cell in the middle of a block must leave every other cell of that block
// (read after the nullification) and of its neighbours intact.
TEST(RecoveryTest, InvalidTargetInSecondArrayBlockNullified) {
  Fixture f;
  const size_t ppb = f.rt->heap().payload_per_block();
  const uint64_t cells = 2 * ppb / 8 + 4;  // three blocks
  const uint64_t bad = ppb / 8 + 1;        // payload byte ppb + 16: block two
  {
    PRefArray arr(*f.rt, cells);
    for (uint64_t i = 0; i < cells; ++i) {
      Simple s(*f.rt, static_cast<int32_t>(i));
      s.Pwb();
      if (i != bad) {
        s.Validate();  // the bad cell's target is never validated
      }
      arr.Set(i, &s);
    }
    f.rt->root().Put("arr", &arr);
  }
  f.CleanReopen();
  EXPECT_EQ(f.rt->recovery_report().nullified_refs, 1u);
  const auto arr = f.rt->root().GetAs<PRefArray>("arr");
  for (uint64_t i = 0; i < cells; ++i) {
    if (i == bad) {
      EXPECT_EQ(arr->GetRaw(i), 0u);
      continue;
    }
    const auto s = std::static_pointer_cast<Simple>(arr->Get(i));
    ASSERT_NE(s, nullptr) << "cell " << i;
    EXPECT_EQ(s->X(), static_cast<int32_t>(i));
  }
}

// Recovery reads each block it needs about once. Per pair: the holder's
// header and its one payload block, then the value's five headers — seven
// reads. The 1000-cell array costs one read per block, not one per cell.
// Reading a chain twice costs ~19 reads per pair, and reading each cell by
// itself ~1000 more in all; either fails here.
TEST(RecoveryTest, DeviceReadsStayWithinBudget) {
  constexpr uint64_t kPairs = 1000;
  constexpr uint64_t kGarbage = 20;
  Fixture f(/*strict=*/false, 16 << 20);
  {
    PRefArray arr(*f.rt, kPairs);
    f.rt->root().Put("arr", &arr);
  }
  f.CleanReopen();
  const RecoveryReport empty = f.rt->recovery_report();
  {
    const auto arr = f.rt->root().GetAs<PRefArray>("arr");
    for (uint64_t i = 0; i < kPairs; ++i) {
      Kilo value(*f.rt);
      value.Pwb();
      value.Validate();
      Simple holder(*f.rt, static_cast<int32_t>(i));
      holder.SetOther(&value);
      holder.Pwb();
      holder.Validate();
      arr->Set(i, &holder);
    }
    for (uint64_t i = 0; i < kGarbage; ++i) {
      Kilo junk(*f.rt);  // validated, never published
      junk.Pwb();
      junk.Validate();
    }
  }
  f.CleanReopen();
  const RecoveryReport& rep = f.rt->recovery_report();
  EXPECT_EQ(rep.traversed_objects, empty.traversed_objects + 2 * kPairs);
  EXPECT_EQ(rep.nullified_refs, 0u);
  // Every garbage block is swept (what the first pass freed was reused).
  EXPECT_EQ(rep.sweep.freed_blocks, 5 * kGarbage);
  // The sweep reads one header per garbage block; 256 covers the root map,
  // the array and the log directory (128 reads on the empty heap).
  EXPECT_LE(rep.device_reads, 7 * kPairs + 5 * kGarbage + 256);
  EXPECT_GT(rep.device_reads, empty.device_reads + 7 * kPairs);
}

// ---- Figure 5: batched validation under a single fence -------------------------

TEST(LowLevelTest, BatchedValidationSingleFence) {
  Fixture f;
  Simple a(*f.rt, 1);
  Simple b(*f.rt, 2);
  Simple a_sub(*f.rt, 11);
  Simple b_sub(*f.rt, 22);
  a.SetOther(&a_sub);
  b.SetOther(&b_sub);
  a_sub.Pwb();
  a_sub.Validate();
  b_sub.Pwb();
  b_sub.Validate();
  a.Pwb();
  b.Pwb();
  f.rt->root().Wput("a", &a);
  f.rt->root().Wput("b", &b);
  f.rt->Pfence();  // the unique pfence of Figure 5
  a.Validate();
  b.Validate();
  f.rt->Psync();

  f.CleanReopen();
  const auto ra = f.rt->root().GetAs<Simple>("a");
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->Other()->X(), 11);
}

// ---- Crash-property tests (strict device) ---------------------------------------

TEST(CrashTest, CommittedPublicationSurvivesPowerFailure) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Fixture f(/*strict=*/true);
    {
      Simple s(*f.rt, 1234);
      f.rt->root().Put("k", &s);  // failure-atomic
    }
    f.CrashAndReopen(seed);
    const auto s = f.rt->root().GetAs<Simple>("k");
    ASSERT_NE(s, nullptr) << "seed " << seed;
    EXPECT_EQ(s->X(), 1234) << "seed " << seed;
  }
}

TEST(CrashTest, UnpublishedObjectNeverLeaksAfterCrash) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Fixture f(/*strict=*/true);
    {
      Simple s(*f.rt, 1);
      s.Pwb();
      s.Validate();
      // No fence, no publication: in every crash outcome the object must be
      // reclaimed.
    }
    f.CrashAndReopen(seed);
    EXPECT_EQ(f.rt->root().Size(), 0u) << "seed " << seed;
    // The object is reclaimed either by the sweep or — when the bump-pointer
    // store itself rolled back — by never having been durably allocated.
    const auto& report = f.rt->recovery_report();
    EXPECT_EQ(report.traversed_objects, 2u)  // root map + its ref array
        << "seed " << seed;
  }
}

TEST(CrashTest, WeakPutWithoutFenceIsAllOrNothing) {
  // Figure 5 discipline: crash before the fence may lose the objects but
  // must never expose a broken binding.
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Fixture f(/*strict=*/true);
    {
      Simple s(*f.rt, 5);
      s.Pwb();
      f.rt->root().Wput("w", &s);
      // no fence, no validate: crash now
    }
    f.CrashAndReopen(seed);
    const auto got = f.rt->root().GetAs<Simple>("w");
    if (got != nullptr) {
      EXPECT_EQ(got->X(), 5) << "seed " << seed;
    }
    // nullptr is acceptable: the binding (or the object) was reclaimed.
  }
}

TEST(CrashTest, SweepAfterCrashKeepsHeapConsistent) {
  // Random crash points during a mutation workload; after recovery the heap
  // must re-allocate without tripping any internal invariant.
  for (uint64_t crash_at : {50u, 200u, 500u, 900u}) {
    Fixture f(/*strict=*/true);
    f.dev->ScheduleCrashAfter(crash_at);
    try {
      for (int i = 0; i < 100; ++i) {
        Simple s(*f.rt, i);
        f.rt->root().Put("k" + std::to_string(i % 7), &s);
      }
      f.dev->CancelScheduledCrash();
    } catch (const nvm::SimulatedCrash&) {
    }
    f.CrashAndReopen(crash_at);
    // Heap usable after recovery:
    Simple fresh(*f.rt, 1);
    f.rt->root().Put("fresh", &fresh);
    EXPECT_EQ(f.rt->root().GetAs<Simple>("fresh")->X(), 1);
    // All bindings that survived point at intact objects.
    for (const std::string& key : f.rt->root().Keys()) {
      const auto v = f.rt->root().GetAs<Simple>(key);
      if (v != nullptr) {
        EXPECT_GE(v->X(), 0);
      }
    }
  }
}

}  // namespace
}  // namespace jnvm::core
