// Tests for the J-PDT library (§4.3): PString, fixed arrays, extensible
// arrays, the skip list, and the map/set family with its three proxy-caching
// variants, plus restart/resurrection behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "src/pdt/parray.h"
#include "src/pdt/pext_array.h"
#include "src/pdt/pmap.h"
#include "src/pdt/pstring.h"

namespace jnvm::pdt {
namespace {

using core::Handle;
using core::JnvmRuntime;

struct Fixture {
  explicit Fixture(bool strict = false, size_t bytes = 16 << 20) {
    nvm::DeviceOptions o;
    o.size_bytes = bytes;
    o.strict = strict;
    dev = std::make_unique<nvm::PmemDevice>(o);
    rt = JnvmRuntime::Format(dev.get());
  }

  void CleanReopen() {
    rt.reset();
    rt = JnvmRuntime::Open(dev.get());
  }

  std::unique_ptr<nvm::PmemDevice> dev;
  std::unique_ptr<JnvmRuntime> rt;
};

// ---- PString ------------------------------------------------------------------

TEST(PStringTest, SmallStringUsesPool) {
  Fixture f;
  PString s(*f.rt, "Hello, NVMM!");
  EXPECT_TRUE(s.is_pool());
  EXPECT_EQ(s.Str(), "Hello, NVMM!");
  EXPECT_EQ(s.Length(), 12u);
  EXPECT_TRUE(s.Equals("Hello, NVMM!"));
  EXPECT_FALSE(s.Equals("hello"));
}

TEST(PStringTest, LargeStringUsesChain) {
  Fixture f;
  const std::string big(1000, 'x');
  PString s(*f.rt, big);
  EXPECT_FALSE(s.is_pool());
  EXPECT_EQ(s.Str(), big);
  EXPECT_EQ(f.rt->heap().ChainLength(s.addr()), 5u);
}

TEST(PStringTest, EmptyString) {
  Fixture f;
  PString s(*f.rt, "");
  EXPECT_EQ(s.Length(), 0u);
  EXPECT_EQ(s.Str(), "");
}

TEST(PStringTest, BinaryContentSafe) {
  Fixture f;
  const std::string bin("\0\x01\xff payload \0 tail", 20);
  PString s(*f.rt, bin);
  EXPECT_EQ(s.Str(), bin);
}

TEST(PStringTest, BoundaryAtPoolLimit) {
  Fixture f;
  const size_t max = f.rt->pools().max_slot_bytes();
  PString just_fits(*f.rt, std::string(max - PString::kDataOff, 'a'));
  EXPECT_TRUE(just_fits.is_pool());
  PString too_big(*f.rt, std::string(max - PString::kDataOff + 1, 'b'));
  EXPECT_FALSE(too_big.is_pool());
  EXPECT_EQ(just_fits.Length(), max - PString::kDataOff);
  EXPECT_EQ(too_big.Length(), max - PString::kDataOff + 1);
}

// ---- Fixed arrays ----------------------------------------------------------------

TEST(PLongArrayTest, SetGetFlush) {
  Fixture f;
  PLongArray a(*f.rt, 100);
  EXPECT_EQ(a.Length(), 100u);
  for (uint64_t i = 0; i < 100; ++i) {
    a.Set(i, static_cast<int64_t>(i * i));
    a.FlushElement(i);
  }
  f.rt->Pfence();
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Get(i), static_cast<int64_t>(i * i));
  }
}

TEST(PLongArrayTest, FreshElementsZero) {
  Fixture f;
  PLongArray a(*f.rt, 10);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a.Get(i), 0);
  }
}

TEST(PByteArrayTest, RoundTrip) {
  Fixture f;
  PByteArray a(*f.rt, std::string_view("some persistent bytes"));
  EXPECT_EQ(a.Str(), "some persistent bytes");
  char buf[4];
  a.Read(5, buf, 4);
  EXPECT_EQ(std::string(buf, 4), "pers");
  a.Write(0, "SOME", 4);
  EXPECT_EQ(a.Str(), "SOME persistent bytes");
}

TEST(PByteArrayTest, LargeSpansBlocks) {
  Fixture f;
  std::string data(5000, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i % 251);
  }
  PByteArray a(*f.rt, data);
  EXPECT_EQ(a.Str(), data);
  EXPECT_GT(f.rt->heap().ChainLength(a.addr()), 20u);
}

// ---- Extensible array -------------------------------------------------------------

TEST(PExtArrayTest, AppendAndGrow) {
  Fixture f;
  PExtArray arr(*f.rt, 4);
  std::vector<std::unique_ptr<PString>> strings;
  for (int i = 0; i < 20; ++i) {
    strings.push_back(std::make_unique<PString>(*f.rt, "item" + std::to_string(i)));
    arr.Append(strings.back().get());
  }
  EXPECT_EQ(arr.Size(), 20u);
  EXPECT_GE(arr.Capacity(), 20u);
  for (int i = 0; i < 20; ++i) {
    const auto s = std::static_pointer_cast<PString>(arr.Get(i));
    EXPECT_EQ(s->Str(), "item" + std::to_string(i));
  }
}

TEST(PExtArrayTest, SurvivesRestart) {
  Fixture f;
  nvm::Offset arr_addr;
  {
    PExtArray arr(*f.rt, 2);
    for (int i = 0; i < 10; ++i) {
      PString s(*f.rt, "v" + std::to_string(i));
      arr.Append(&s);
    }
    arr.Pwb();
    arr.Validate();
    f.rt->root().Put("arr", &arr);
    arr_addr = arr.addr();
  }
  f.CleanReopen();
  const auto arr = f.rt->root().GetAs<PExtArray>("arr");
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->addr(), arr_addr);  // recovery resurrects the same object
  EXPECT_EQ(arr->Size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(std::static_pointer_cast<PString>(arr->Get(i))->Str(),
              "v" + std::to_string(i));
  }
}

TEST(PExtArrayTest, PopBack) {
  Fixture f;
  PExtArray arr(*f.rt, 4);
  PString s(*f.rt, "x");
  arr.Append(&s);
  arr.Append(&s);
  arr.PopBack();
  EXPECT_EQ(arr.Size(), 1u);
}

TEST(PExtArrayTest, SetReplacesElement) {
  Fixture f;
  PExtArray arr(*f.rt, 4);
  PString a(*f.rt, "a");
  PString b(*f.rt, "b");
  arr.Append(&a);
  arr.Set(0, &b);
  EXPECT_EQ(std::static_pointer_cast<PString>(arr.Get(0))->Str(), "b");
}

// ---- Volatile skip list -------------------------------------------------------------

TEST(SkipListTest, InsertFindErase) {
  SkipListMap<std::string, uint64_t> m;
  m["b"] = 2;
  m["a"] = 1;
  m["c"] = 3;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains("a"));
  EXPECT_EQ(m.find("b").value(), 2u);
  EXPECT_EQ(m.erase("b"), 1u);
  EXPECT_FALSE(m.contains("b"));
  EXPECT_EQ(m.erase("b"), 0u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(SkipListTest, OrderedIteration) {
  SkipListMap<int64_t, uint64_t> m;
  for (int64_t k : {5, 1, 9, 3, 7, 2, 8}) {
    m[k] = static_cast<uint64_t>(k);
  }
  int64_t prev = -1;
  size_t n = 0;
  for (auto it = m.begin(); it != m.end(); ++it) {
    EXPECT_GT(it.key(), prev);
    prev = it.key();
    ++n;
  }
  EXPECT_EQ(n, 7u);
}

TEST(SkipListTest, OverwriteValue) {
  SkipListMap<std::string, uint64_t> m;
  m["k"] = 1;
  m["k"] = 2;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find("k").value(), 2u);
}

TEST(SkipListTest, StressAgainstStdMap) {
  SkipListMap<int64_t, uint64_t> sl;
  std::map<int64_t, uint64_t> ref;
  Xorshift rng(17);
  for (int i = 0; i < 5000; ++i) {
    const int64_t k = static_cast<int64_t>(rng.NextBelow(500));
    switch (rng.NextBelow(3)) {
      case 0:
        sl[k] = static_cast<uint64_t>(i);
        ref[k] = static_cast<uint64_t>(i);
        break;
      case 1:
        EXPECT_EQ(sl.erase(k), ref.erase(k));
        break;
      default: {
        uint64_t got = 0;
        const bool found = MirrorFind(sl, k, &got);
        auto it = ref.find(k);
        EXPECT_EQ(found, it != ref.end());
        if (found) {
          EXPECT_EQ(got, it->second);
        }
      }
    }
  }
  EXPECT_EQ(sl.size(), ref.size());
}

// ---- Maps: shared behaviour across the three structures ------------------------------

template <typename MapT>
class PMapTypedTest : public ::testing::Test {};

using MapTypes = ::testing::Types<PStringHashMap, PStringTreeMap, PStringSkipListMap>;
TYPED_TEST_SUITE(PMapTypedTest, MapTypes);

TYPED_TEST(PMapTypedTest, PutGetRemove) {
  Fixture f;
  TypeParam m(*f.rt, 8);
  PString v1(*f.rt, "value1");
  PString v2(*f.rt, "value2");
  m.Put("k1", &v1);
  m.Put("k2", &v2);
  EXPECT_EQ(m.Size(), 2u);
  EXPECT_TRUE(m.Contains("k1"));
  EXPECT_FALSE(m.Contains("nope"));
  EXPECT_EQ(m.template GetAs<PString>("k1")->Str(), "value1");
  EXPECT_TRUE(m.Remove("k1"));
  EXPECT_FALSE(m.Contains("k1"));
  EXPECT_EQ(m.Size(), 1u);
  EXPECT_FALSE(m.Remove("k1"));
}

TYPED_TEST(PMapTypedTest, GetMissingReturnsNull) {
  Fixture f;
  TypeParam m(*f.rt, 8);
  EXPECT_EQ(m.Get("missing"), nullptr);
}

TYPED_TEST(PMapTypedTest, PutReplaceFreesOldValue) {
  Fixture f;
  TypeParam m(*f.rt, 8);
  const auto before = f.rt->heap().stats();
  PString v1(*f.rt, std::string(500, 'a'));  // chained (3 blocks)
  m.Put("k", &v1);
  PString v2(*f.rt, std::string(500, 'b'));
  m.Put("k", &v2);  // frees v1's blocks
  const auto after = f.rt->heap().stats();
  EXPECT_GE(after.blocks_freed - before.blocks_freed, 3u);
  EXPECT_EQ(m.template GetAs<PString>("k")->Str(), std::string(500, 'b'));
}

TYPED_TEST(PMapTypedTest, GrowsBeyondInitialCapacity) {
  Fixture f;
  TypeParam m(*f.rt, 4);
  std::vector<std::unique_ptr<PString>> keep;
  for (int i = 0; i < 100; ++i) {
    keep.push_back(std::make_unique<PString>(*f.rt, "v" + std::to_string(i)));
    m.Put("key" + std::to_string(i), keep.back().get());
  }
  EXPECT_EQ(m.Size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.template GetAs<PString>("key" + std::to_string(i))->Str(),
              "v" + std::to_string(i));
  }
}

TYPED_TEST(PMapTypedTest, SurvivesRestartAndRebuildsMirror) {
  Fixture f;
  {
    TypeParam m(*f.rt, 8);
    for (int i = 0; i < 30; ++i) {
      PString v(*f.rt, "payload" + std::to_string(i));
      m.Put("key" + std::to_string(i), &v);
    }
    m.Remove("key7");
    m.Remove("key23");
    m.Pwb();
    m.Validate();
    f.rt->root().Put("map", &m);
  }
  f.CleanReopen();
  const auto m = f.rt->root().template GetAs<TypeParam>("map");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->Size(), 28u);
  EXPECT_FALSE(m->Contains("key7"));
  EXPECT_EQ(m->template GetAs<PString>("key11")->Str(), "payload11");
  // Freed slots are reusable after the restart.
  PString fresh(*f.rt, "fresh");
  m->Put("new", &fresh);
  EXPECT_EQ(m->Size(), 29u);
}

TYPED_TEST(PMapTypedTest, SetSemantics) {
  Fixture f;
  TypeParam m(*f.rt, 8);
  m.Add("member1");
  m.Add("member2");
  EXPECT_TRUE(m.Contains("member1"));
  EXPECT_EQ(m.Get("member1"), nullptr);  // sets bind no value
  EXPECT_EQ(m.Size(), 2u);
  m.Remove("member1");
  EXPECT_FALSE(m.Contains("member1"));
}

TYPED_TEST(PMapTypedTest, CachedVariantReturnsSameProxy) {
  Fixture f;
  TypeParam m(*f.rt, 8);
  m.SetCaching(ProxyCaching::kCached);
  PString v(*f.rt, "val");
  m.Put("k", &v);
  const auto a = m.Get("k");
  const auto b = m.Get("k");
  EXPECT_EQ(a.get(), b.get()) << "cached variant must reuse the proxy";
}

TYPED_TEST(PMapTypedTest, BaseVariantAllocatesFreshProxy) {
  Fixture f;
  TypeParam m(*f.rt, 8);
  PString v(*f.rt, "val");
  m.Put("k", &v);
  const auto a = m.Get("k");
  const auto b = m.Get("k");
  EXPECT_NE(a.get(), b.get()) << "base variant systematically allocates";
  EXPECT_EQ(a->addr(), b->addr());
}

TYPED_TEST(PMapTypedTest, EagerVariantPopulatesOnResurrection) {
  Fixture f;
  {
    TypeParam m(*f.rt, 8);
    PString v(*f.rt, "val");
    m.Put("k", &v);
    m.Pwb();
    m.Validate();
    f.rt->root().Put("map", &m);
  }
  f.CleanReopen();
  const auto m = f.rt->root().template GetAs<TypeParam>("map");
  m->SetCaching(ProxyCaching::kEager);
  const auto a = m->Get("k");
  const auto b = m->Get("k");
  EXPECT_EQ(a.get(), b.get());
}

TYPED_TEST(PMapTypedTest, ResurrectedMirrorEqualsPersistedCells) {
  // Resurrection reads each key straight from the device; the oracle walk
  // reads them through proxies. Both must agree for every key shape: pool-slot keys up to the largest pool class, the empty key, a
  // one-block chained key, and keys chained over several blocks.
  Fixture f;
  const size_t payload = f.rt->heap().payload_per_block();
  const size_t pool_max = f.rt->pools().max_slot_bytes() - PString::kDataOff;
  const std::set<std::string> keys = {
      "", "a", "pool-key", std::string(pool_max, 'p'),
      std::string(pool_max + 1, 'q'), std::string(payload + 1, 'c'),
      std::string(5 * payload, 'x')};
  {
    TypeParam m(*f.rt, 4);
    for (const std::string& k : keys) {
      PString v(*f.rt, "v" + std::to_string(k.size()));
      m.Put(k, &v);
    }
    PString gone(*f.rt, "gone");
    m.Put("removed", &gone);
    m.Remove("removed");
    m.Pwb();
    m.Validate();
    f.rt->root().Put("map", &m);
  }
  f.CleanReopen();
  const auto m = f.rt->root().template GetAs<TypeParam>("map");
  ASSERT_NE(m, nullptr);
  std::multiset<std::string> mirror;
  m->ForEachKey([&](const std::string& k) { mirror.insert(k); });
  std::multiset<std::string> persisted;
  const size_t occupied =
      m->ForEachPersisted([&](const std::string& k, Handle<core::PObject> v) {
        persisted.insert(k);
        EXPECT_EQ(std::static_pointer_cast<PString>(v)->Str(),
                  "v" + std::to_string(k.size()));
      });
  EXPECT_EQ(occupied, keys.size());
  EXPECT_EQ(mirror, persisted);
  EXPECT_EQ(std::set<std::string>(mirror.begin(), mirror.end()), keys);
  for (const std::string& k : keys) {
    ASSERT_NE(m->Get(k), nullptr) << k.size();
  }
}

// ---- Tree-specific: ordered iteration --------------------------------------------

TEST(PTreeMapTest, ForEachIsOrdered) {
  Fixture f;
  PStringTreeMap m(*f.rt, 8);
  PString v(*f.rt, "x");
  for (const char* k : {"delta", "alpha", "charlie", "bravo"}) {
    m.Put(k, &v, /*free_old_value=*/false);
  }
  std::vector<std::string> keys;
  m.ForEach([&](const std::string& k, Handle<core::PObject>) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha", "bravo", "charlie", "delta"}));
}

TEST(PSkipListMapTest, ForEachIsOrdered) {
  Fixture f;
  PStringSkipListMap m(*f.rt, 8);
  PString v(*f.rt, "x");
  for (const char* k : {"d", "a", "c", "b"}) {
    m.Put(k, &v, false);
  }
  std::vector<std::string> keys;
  m.ForEach([&](const std::string& k, Handle<core::PObject>) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c", "d"}));
}

// ---- Integer-keyed map (inline keys) ----------------------------------------------

TEST(PLongHashMapTest, InlineKeysWork) {
  Fixture f;
  PLongHashMap m(*f.rt, 8);
  PString v(*f.rt, "account");
  m.Put(1234567, &v);
  EXPECT_TRUE(m.Contains(1234567));
  EXPECT_FALSE(m.Contains(7654321));
  EXPECT_EQ(m.GetAs<PString>(1234567)->Str(), "account");
  // No key object was allocated: pairs carry the key inline.
}

TEST(PLongHashMapTest, RestartKeepsIntKeys) {
  Fixture f;
  {
    PLongHashMap m(*f.rt, 8);
    for (int64_t k = 0; k < 50; ++k) {
      PString v(*f.rt, "v" + std::to_string(k));
      m.Put(k, &v);
    }
    m.Pwb();
    m.Validate();
    f.rt->root().Put("accounts", &m);
  }
  f.CleanReopen();
  const auto m = f.rt->root().GetAs<PLongHashMap>("accounts");
  EXPECT_EQ(m->Size(), 50u);
  EXPECT_EQ(m->GetAs<PString>(31)->Str(), "v31");
}

template <typename MapT>
class PLongMapTypedTest : public ::testing::Test {};

using LongMapTypes = ::testing::Types<PLongHashMap, PLongTreeMap>;
TYPED_TEST_SUITE(PLongMapTypedTest, LongMapTypes);

TYPED_TEST(PLongMapTypedTest, ResurrectedMirrorEqualsPersistedCells) {
  Fixture f;
  const std::set<int64_t> keys = {INT64_MIN, -1, 0, 1, 42, INT64_MAX};
  {
    TypeParam m(*f.rt, 4);
    for (const int64_t k : keys) {
      PString v(*f.rt, std::to_string(k));
      m.Put(k, &v);
    }
    m.Pwb();
    m.Validate();
    f.rt->root().Put("longs", &m);
  }
  f.CleanReopen();
  const auto m = f.rt->root().template GetAs<TypeParam>("longs");
  ASSERT_NE(m, nullptr);
  std::multiset<int64_t> mirror;
  m->ForEachKey([&](const int64_t& k) { mirror.insert(k); });
  std::multiset<int64_t> persisted;
  m->ForEachPersisted([&](const int64_t& k, Handle<core::PObject> v) {
    persisted.insert(k);
    EXPECT_EQ(std::static_pointer_cast<PString>(v)->Str(), std::to_string(k));
  });
  EXPECT_EQ(mirror, persisted);
  EXPECT_EQ(std::set<int64_t>(mirror.begin(), mirror.end()), keys);
}

// ---- Property test: random ops mirror a std::map ----------------------------------

TEST(PMapPropertyTest, RandomOpsMatchReferenceAcrossRestart) {
  Fixture f;
  std::map<std::string, std::string> ref;
  {
    PStringHashMap m(*f.rt, 8);
    Xorshift rng(99);
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "k" + std::to_string(rng.NextBelow(200));
      if (rng.NextBelow(3) == 0) {
        m.Remove(key);
        ref.erase(key);
      } else {
        const std::string val = "v" + std::to_string(i);
        PString v(*f.rt, val);
        m.Put(key, &v);
        ref[key] = val;
      }
    }
    m.Pwb();
    m.Validate();
    f.rt->root().Put("m", &m);
  }
  f.CleanReopen();
  const auto m = f.rt->root().GetAs<PStringHashMap>("m");
  ASSERT_EQ(m->Size(), ref.size());
  for (const auto& [k, v] : ref) {
    const auto pv = m->GetAs<PString>(k);
    ASSERT_NE(pv, nullptr) << k;
    EXPECT_EQ(pv->Str(), v) << k;
  }
}

}  // namespace
}  // namespace jnvm::pdt
