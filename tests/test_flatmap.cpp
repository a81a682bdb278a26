// test_flatmap.cpp — the sorted-vector map behind the per-AS accumulators.
//
// FlatMap's contract is "std::map's observable behaviour without the
// per-node allocations": identical in-order iteration (which is what makes
// analyzer serialization and CSV emission byte-identical after the swap),
// identical merge algebra under try_emplace, and a checkpoint round trip
// that reproduces the exact bytes a std::map-backed analyzer wrote. The
// allocation-count test at the bottom pins down the point of the exercise:
// the CDN add-loop must not allocate per record in steady state.
#include "stats/flatmap.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "bgp/rib.h"
#include "core/assoc.h"
#include "io/checkpoint.h"

namespace dynamips {
namespace {

using stats::FlatMap;

// ------------------------------------------------------------- map basics

TEST(FlatMap, IteratesInKeyOrderLikeStdMap) {
  std::mt19937 rng(7);
  FlatMap<int, int> fm;
  std::map<int, int> sm;
  for (int i = 0; i < 500; ++i) {
    int k = int(rng() % 997);
    ++fm[k];
    ++sm[k];
  }
  ASSERT_EQ(fm.size(), sm.size());
  auto it = sm.begin();
  for (const auto& [k, v] : fm) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(FlatMap, LookupFamilyMatchesStdMap) {
  FlatMap<int, std::string> fm;
  fm[3] = "c";
  fm[1] = "a";
  fm[2] = "b";
  EXPECT_EQ(fm.size(), 3u);
  EXPECT_TRUE(fm.contains(2));
  EXPECT_EQ(fm.count(2), 1u);
  EXPECT_EQ(fm.count(9), 0u);
  EXPECT_EQ(fm.at(1), "a");
  EXPECT_EQ(fm.find(3)->second, "c");
  EXPECT_EQ(fm.find(4), fm.end());
  EXPECT_EQ(fm.lower_bound(2)->first, 2);
  EXPECT_THROW(fm.at(9), std::out_of_range);

  const auto& cfm = fm;
  EXPECT_EQ(cfm.at(2), "b");
  EXPECT_EQ(cfm.find(9), cfm.end());

  EXPECT_EQ(fm.erase(2), 1u);
  EXPECT_EQ(fm.erase(2), 0u);
  EXPECT_EQ(fm.size(), 2u);
  fm.clear();
  EXPECT_TRUE(fm.empty());
}

TEST(FlatMap, TryEmplaceKeepsExistingValue) {
  FlatMap<int, std::vector<int>> fm;
  auto [it1, inserted1] = fm.try_emplace(5, std::vector<int>{1, 2});
  EXPECT_TRUE(inserted1);
  auto [it2, inserted2] = fm.try_emplace(5, std::vector<int>{9});
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, (std::vector<int>{1, 2}));
  EXPECT_EQ(it1, it2);
}

// The shard-reduction pattern every analyzer uses: try_emplace the other
// shard's entry, merge on collision. Split-vs-serial must agree exactly.
TEST(FlatMap, MergeAlgebraMatchesSerialAccumulation) {
  std::mt19937 rng(11);
  FlatMap<int, std::uint64_t> serial, a, b;
  for (int i = 0; i < 400; ++i) {
    int k = int(rng() % 53);
    std::uint64_t w = rng() % 100;
    serial[k] += w;
    (i % 2 ? a : b)[k] += w;
  }
  for (auto& [k, v] : b) {
    auto [it, inserted] = a.try_emplace(k, v);
    if (!inserted) it->second += v;
  }
  EXPECT_EQ(a, serial);
}

// -------------------------------------------------- checkpoint round trip

// A FlatMap-backed analyzer must write the same checkpoint bytes the
// std::map-backed one did (ordered iteration) and read them back intact.
TEST(FlatMap, CheckpointBytesMatchStdMapAndRoundTrip) {
  std::mt19937 rng(13);
  FlatMap<std::uint32_t, std::uint64_t> fm;
  std::map<std::uint32_t, std::uint64_t> sm;
  for (int i = 0; i < 200; ++i) {
    std::uint32_t k = rng() % 313;
    std::uint64_t v = rng();
    fm[k] = v;
    sm[k] = v;
  }

  auto serialize = [](const auto& m) {
    io::ckpt::Writer w;
    w.u64(m.size());
    for (const auto& [k, v] : m) {
      w.u32(k);
      w.u64(v);
    }
    return std::string(w.buffer().begin(), w.buffer().end());
  };
  std::string flat_bytes = serialize(fm);
  EXPECT_EQ(flat_bytes, serialize(sm));

  FlatMap<std::uint32_t, std::uint64_t> loaded;
  io::ckpt::Reader r(flat_bytes);
  std::uint64_t n = r.size();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::uint32_t k = r.u32();
    loaded[k] = r.u64();
  }
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(loaded, fm);
}

// ------------------------------------------------- steady-state allocation

// Build a synthetic association log the same way the CDN generator shapes
// them: day-sorted records, a bounded set of /64s and /24s.
cdn::AssociationLog make_log(std::uint32_t seed, std::size_t records) {
  std::mt19937 rng(seed);
  cdn::AssociationLog log;
  log.asn = 100;
  log.registry = bgp::Registry::kRipe;
  log.records.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    cdn::AssociationRecord rec;
    rec.day = std::uint32_t(i * 30 / records);
    rec.v6_64 = net::Prefix6(
        net::IPv6Address{0x2001'0db8'0000'0000ull | (rng() % 64), 0}, 64);
    rec.v4_24 = net::slash24_of(net::IPv4Address(0x0a000000u |
                                                 ((rng() % 16) << 8)));
    rec.asn4 = rec.asn6 = 100;
    log.records.push_back(rec);
  }
  return log;
}

// The tentpole claim, pinned: after warm-up, feeding a full log through
// CdnAnalyzer::add must do (almost) no heap allocation — the tuple/pair
// scratch lives in the analyzer's arena and the accumulator maps' key sets
// have stopped growing. The generous bound (vs thousands of records) is
// there to catch a reintroduced per-record or per-/64 allocation, not to
// play code golf.
// The counting operator new is linked in, so a bound below cannot pass
// just because nothing was counted.
TEST(FlatMap, AllocationScopeCountsOperatorNew) {
  AllocationScope scope;
  void* p = ::operator new(64);
  ::operator delete(p);
  EXPECT_EQ(scope.count(), 1u);
}

TEST(FlatMap, CdnAddLoopIsAllocationLeanInSteadyState) {
  core::CdnAnalyzer analyzer({}, {});
  for (std::uint32_t seed = 0; seed < 8; ++seed)
    analyzer.add(make_log(seed, 4096));  // warm up arena + accumulators

  auto log = make_log(99, 4096);
  std::uint64_t allocs = 0;
  {
    AllocationScope scope;
    analyzer.add(log);
    allocs = scope.count();
  }
  // Per-/64 run durations still append to growable vectors (amortized);
  // anything beyond a few dozen means per-record allocation came back.
  EXPECT_LE(allocs, 64u) << "CdnAnalyzer::add allocated " << allocs
                         << " times on a warm 4096-record log";
}

}  // namespace
}  // namespace dynamips
