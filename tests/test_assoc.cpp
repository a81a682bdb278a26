#include "core/assoc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

namespace dynamips::core {
namespace {

using net::Prefix4;
using net::Prefix6;

cdn::AssociationRecord rec(std::uint32_t day, const char* v4,
                           std::uint64_t net64, bgp::Asn asn4,
                           bgp::Asn asn6) {
  cdn::AssociationRecord r;
  r.day = day;
  r.v4_24 = *Prefix4::parse(v4);
  r.v6_64 = Prefix6{net::IPv6Address{net64, 0}, 64};
  r.asn4 = asn4;
  r.asn6 = asn6;
  return r;
}

cdn::AssociationLog log_of(std::vector<cdn::AssociationRecord> records,
                           bgp::Asn asn = 100,
                           bgp::Registry reg = bgp::Registry::kRipe) {
  cdn::AssociationLog log;
  log.asn = asn;
  log.registry = reg;
  log.records = std::move(records);
  return log;
}

TEST(Assoc, SingleRunDuration) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(5, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(9, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  ASSERT_EQ(stats.durations_days.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 10.0);  // days 0..9 inclusive
  EXPECT_EQ(stats.unique_64s, 1u);
  EXPECT_EQ(stats.tuples, 3u);
}

TEST(Assoc, RunBreaksOn24Change) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(3, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(4, "10.0.9.0/24", 0x2001000000000100ull, 100, 100),
                     rec(8, "10.0.9.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  ASSERT_EQ(stats.durations_days.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 4.0);
  EXPECT_DOUBLE_EQ(stats.durations_days[1], 5.0);
}

TEST(Assoc, RunBreaksOnLongGap) {
  AssocOptions opts;
  opts.max_gap_days = 7;
  CdnAnalyzer an(opts, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(20, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  ASSERT_EQ(stats.durations_days.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 1.0);
  EXPECT_DOUBLE_EQ(stats.durations_days[1], 1.0);
}

TEST(Assoc, AsnMismatchFiltered) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(1, "99.0.0.0/24", 0x2001000000000100ull, 999, 100),
                     rec(2, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  EXPECT_EQ(stats.tuples, 2u);
  EXPECT_EQ(stats.mismatched, 1u);
  EXPECT_EQ(an.total_mismatched(), 1u);
  // The foreign /24 never entered the run: one unbroken association.
  ASSERT_EQ(stats.durations_days.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 3.0);
}

TEST(Assoc, AsnMismatchKeptWhenFilterDisabled) {
  AssocOptions opts;
  opts.require_asn_match = false;
  CdnAnalyzer an(opts, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(1, "99.0.0.0/24", 0x2001000000000100ull, 999, 100),
                     rec(2, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  EXPECT_EQ(stats.tuples, 3u);
  // The ablation: the foreign /24 splits the association into three runs.
  EXPECT_EQ(stats.durations_days.size(), 3u);
}

TEST(Assoc, DegreesCountUnique64sPer24) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(0, "10.0.0.0/24", 0x2001000000000200ull, 100, 100),
                     rec(1, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(1, "10.0.9.0/24", 0x2001000000000300ull, 100, 100)}));
  auto degrees = an.degrees();
  ASSERT_EQ(degrees.size(), 2u);
  std::uint32_t d0 = degrees[0].first, d1 = degrees[1].first;
  EXPECT_EQ(d0 + d1, 3u);
  EXPECT_EQ(std::max(d0, d1), 2u);
}

TEST(Assoc, MobileClassification) {
  CdnAnalyzer an({}, {200});
  auto mobile_log = log_of(
      {rec(0, "10.0.0.0/24", 0x2001000000000100ull, 200, 200)}, 200);
  mobile_log.mobile = true;
  an.add_log(mobile_log);
  an.add_log(log_of({rec(0, "11.0.0.0/24", 0x2002000000000100ull, 100, 100)}));
  EXPECT_TRUE(an.by_asn().at(200).mobile);
  EXPECT_FALSE(an.by_asn().at(100).mobile);
  ASSERT_EQ(an.degrees().size(), 2u);
  int mobile_degrees = 0;
  for (auto& [d, m] : an.degrees()) mobile_degrees += m;
  EXPECT_EQ(mobile_degrees, 1);
}

TEST(Assoc, RegistryDurationsGrouped) {
  CdnAnalyzer an({}, {200});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100)},
                    100, bgp::Registry::kArin));
  an.add_log(log_of({rec(0, "11.0.0.0/24", 0x2002000000000100ull, 200, 200)},
                    200, bgp::Registry::kArin));
  EXPECT_EQ(an.registry_durations()
                .at(RegistryClass{bgp::Registry::kArin, false})
                .size(),
            1u);
  EXPECT_EQ(an.registry_durations()
                .at(RegistryClass{bgp::Registry::kArin, true})
                .size(),
            1u);
}

TEST(Assoc, SingleVsMulti24Fractions) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x1100ull, 100, 100),
                     rec(1, "10.0.1.0/24", 0x1100ull, 100, 100),
                     rec(0, "10.0.0.0/24", 0x2200ull, 100, 100),
                     rec(1, "10.0.0.0/24", 0x3300ull, 100, 100)}));
  // /64 0x1100 saw two /24s; 0x2200 and 0x3300 saw one each.
  EXPECT_NEAR(an.fraction_64s_with_single_24(false), 2.0 / 3.0, 1e-9);
}

TEST(Assoc, ZeroCountsPerUnique64) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(1, "10.0.0.0/24", 0x2001000000000100ull, 100, 100),
                     rec(0, "10.0.0.0/24", 0x2001000000000123ull, 100, 100)}));
  const auto& z = an.zero_counts().at(
      RegistryClass{bgp::Registry::kRipe, false});
  EXPECT_EQ(z.total(), 2u) << "classification is per unique /64";
  EXPECT_EQ(z.counts[std::size_t(ZeroBoundary::k56)], 1u);
  EXPECT_EQ(z.counts[std::size_t(ZeroBoundary::kNone)], 1u);
}

TEST(Assoc, MultipleLogsAccumulate) {
  CdnAnalyzer an({}, {});
  an.add_log(log_of({rec(0, "10.0.0.0/24", 0x100ull, 100, 100)}));
  an.add_log(log_of({rec(0, "11.0.0.0/24", 0x200ull, 101, 101)}, 101));
  EXPECT_EQ(an.total_tuples(), 2u);
  EXPECT_EQ(an.by_asn().size(), 2u);
}

TEST(Assoc, OutOfOrderSameDayRecordsHandled) {
  CdnAnalyzer an({}, {});
  // Two observations the same day with the same /24: one run.
  an.add_log(log_of({rec(3, "10.0.0.0/24", 0x500ull, 100, 100),
                     rec(3, "10.0.0.0/24", 0x500ull, 100, 100)}));
  const auto& stats = an.by_asn().at(100);
  ASSERT_EQ(stats.durations_days.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.durations_days[0], 1.0);
}

// ------------------------------------------------ reference comparison
//
// The analyzer groups tuples with stable radix sorts and deduplicates
// (/24, /64) pairs as it builds them. The reference below is the former
// implementation: one std::stable_sort on net64, one std::sort on
// (v4, net64), and exact repeats skipped while counting degrees. Every
// snapshot field must come out equal.

struct RefTuple {
  std::uint64_t net64;
  std::uint32_t day;
  Prefix4 v4;
};

struct RefPair {
  Prefix4 v4;
  std::uint64_t net64;
};

struct Reference {
  std::map<bgp::Asn, AsnAssocStats> by_asn;
  std::map<RegistryClass, std::vector<double>> registry_durations;
  std::vector<std::pair<std::uint32_t, bool>> degrees;
  std::map<RegistryClass, ZeroBoundaryCounts> zero_counts;
  std::uint64_t single[2] = {0, 0};
  std::uint64_t multi[2] = {0, 0};
  std::uint64_t tuples = 0;
  std::uint64_t mismatched = 0;

  void add_log(const cdn::AssociationLog& log, const AssocOptions& opt,
               const std::unordered_set<bgp::Asn>& mobile_asns) {
    const bool mobile = mobile_asns.count(log.asn) > 0;
    AsnAssocStats& st = by_asn[log.asn];
    st.asn = log.asn;
    st.mobile = mobile;
    st.registry = log.registry;
    RegistryClass cls{log.registry, mobile};
    auto& reg = registry_durations[cls];
    auto& zeros = zero_counts[cls];

    std::vector<RefTuple> ts;
    for (const auto& r : log.records) {
      if (opt.require_asn_match && r.asn4 != r.asn6) {
        ++st.mismatched;
        ++mismatched;
        continue;
      }
      ++st.tuples;
      ++tuples;
      ts.push_back({r.v6_64.address().network64(), r.day, r.v4_24});
    }
    std::stable_sort(ts.begin(), ts.end(),
                     [](const RefTuple& a, const RefTuple& b) {
                       return a.net64 < b.net64;
                     });
    for (std::size_t i = 0; i < ts.size();) {
      std::size_t j = i;
      bool multi_24 = false;
      std::uint32_t start = ts[i].day, last = ts[i].day;
      Prefix4 cur = ts[i].v4;
      auto close_run = [&] {
        st.durations_days.push_back(double(last - start + 1));
        reg.push_back(double(last - start + 1));
      };
      ++st.unique_64s;
      zeros.add(classify_trailing_zeros(ts[i].net64));
      for (++j; j < ts.size() && ts[j].net64 == ts[i].net64; ++j) {
        multi_24 |= ts[j].v4 != cur;
        if (ts[j].v4 != cur || ts[j].day > last + opt.max_gap_days) {
          close_run();
          start = ts[j].day;
          cur = ts[j].v4;
        }
        last = ts[j].day;
      }
      close_run();
      ++(multi_24 ? multi : single)[mobile];
      i = j;
    }

    std::vector<RefPair> ps;
    for (const auto& t : ts) ps.push_back({t.v4, t.net64});
    std::sort(ps.begin(), ps.end(), [](const RefPair& a, const RefPair& b) {
      if (a.v4 != b.v4) return a.v4 < b.v4;
      return a.net64 < b.net64;
    });
    for (std::size_t i = 0; i < ps.size();) {
      std::uint32_t degree = 1;
      std::size_t j = i + 1;
      for (; j < ps.size() && ps[j].v4 == ps[i].v4; ++j)
        degree += ps[j].net64 != ps[j - 1].net64;
      degrees.emplace_back(degree, mobile);
      i = j;
    }
  }
};

/// Randomized logs shaped to stress the grouping: few /64s per log so
/// (v4, /64) pairs repeat, /64s that alternate between /24s (A, B, A),
/// v4 prefixes of lengths other than /24 (also the same address at two
/// lengths), ASN mismatches, and gaps on both sides of max_gap_days.
cdn::AssociationLog random_log(std::mt19937& rng, bgp::Asn asn,
                               std::size_t records, std::uint32_t n64s) {
  static const int kLengths[] = {24, 24, 24, 22, 23, 25, 32};
  cdn::AssociationLog log;
  log.asn = asn;
  log.registry = bgp::Registry(rng() % 5);
  std::uint32_t day = 0;
  for (std::size_t i = 0; i < records; ++i) {
    day += rng() % 8 == 0 ? rng() % 20 : 0;  // day-sorted, with gaps
    const std::uint64_t pool =
        (rng() % 4 == 0) ? 0x2a02800000000000ull : 0x20010db800000000ull;
    const std::uint64_t net64 = pool | ((rng() % n64s) << 8);
    const std::uint32_t addr = 0x0a000000u | ((rng() % 6) << 8) | (rng() % 3);
    cdn::AssociationRecord r;
    r.day = day;
    r.v4_24 = Prefix4{net::IPv4Address{addr}, kLengths[rng() % 7]};
    r.v6_64 = Prefix6{net::IPv6Address{net64, 0}, 64};
    r.asn4 = asn;
    r.asn6 = rng() % 16 == 0 ? asn + 1 : asn;
    log.records.push_back(r);
  }
  return log;
}

void expect_matches_reference(const CdnSnapshot& got, const Reference& ref) {
  ASSERT_EQ(got.by_asn().size(), ref.by_asn.size());
  auto it = ref.by_asn.begin();
  for (const auto& [asn, st] : got.by_asn()) {
    ASSERT_EQ(asn, it->first);
    const AsnAssocStats& want = it->second;
    EXPECT_EQ(st.asn, want.asn);
    EXPECT_EQ(st.mobile, want.mobile);
    EXPECT_EQ(st.registry, want.registry);
    EXPECT_EQ(st.durations_days, want.durations_days) << "ASN " << asn;
    EXPECT_EQ(st.tuples, want.tuples);
    EXPECT_EQ(st.mismatched, want.mismatched);
    EXPECT_EQ(st.unique_64s, want.unique_64s);
    ++it;
  }
  ASSERT_EQ(got.registry_durations().size(), ref.registry_durations.size());
  auto rit = ref.registry_durations.begin();
  for (const auto& [cls, durations] : got.registry_durations()) {
    EXPECT_EQ(cls.registry, rit->first.registry);
    EXPECT_EQ(cls.mobile, rit->first.mobile);
    EXPECT_EQ(durations, rit->second);
    ++rit;
  }
  EXPECT_EQ(got.degrees(), ref.degrees);
  ASSERT_EQ(got.zero_counts().size(), ref.zero_counts.size());
  auto zit = ref.zero_counts.begin();
  for (const auto& [cls, counts] : got.zero_counts()) {
    EXPECT_EQ(cls.registry, zit->first.registry);
    EXPECT_EQ(cls.mobile, zit->first.mobile);
    EXPECT_EQ(counts.counts, zit->second.counts);
    ++zit;
  }
  for (int m = 0; m < 2; ++m) {
    const std::uint64_t s = ref.single[m], mu = ref.multi[m];
    const double want = (s + mu) ? double(s) / double(s + mu) : 0.0;
    EXPECT_EQ(got.fraction_64s_with_single_24(m != 0), want) << m;
  }
  EXPECT_EQ(got.total_tuples(), ref.tuples);
  EXPECT_EQ(got.total_mismatched(), ref.mismatched);
}

TEST(AssocReference, RandomizedLogsMatchFormerSorts) {
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    AssocOptions opt;
    opt.max_gap_days = rng() % 10;
    opt.require_asn_match = seed % 5 != 0;
    const std::unordered_set<bgp::Asn> mobile{102};
    CdnAnalyzer an(opt, mobile);
    Reference ref;
    for (bgp::Asn asn = 100; asn < 104; ++asn) {
      for (int k = 0; k < 3; ++k) {
        auto log = random_log(rng, asn, 1 + rng() % 400, 1 + rng() % 40);
        an.add_log(log);
        ref.add_log(log, opt, mobile);
      }
    }
    // An empty log still registers its ASN.
    an.add_log(log_of({}, 105));
    ref.add_log(log_of({}, 105), opt, mobile);
    expect_matches_reference(an.snapshot(), ref);
  }
}

TEST(AssocReference, SpilledPathMatchesInMemoryPath) {
  // Large enough that a 1 MiB budget spills both sorters to disk.
  std::mt19937 rng(77);
  std::vector<cdn::AssociationLog> logs;
  logs.push_back(random_log(rng, 100, 60000, 4000));
  logs.push_back(random_log(rng, 101, 500, 30));
  logs.push_back(random_log(rng, 102, 30000, 20000));

  AssocOptions in_memory;
  AssocOptions spilled;
  spilled.spill_mb = 1;
  spilled.spill_dir = ::testing::TempDir();
  const std::unordered_set<bgp::Asn> mobile{102};
  CdnAnalyzer a(in_memory, mobile), b(spilled, mobile);
  Reference ref;
  for (const auto& log : logs) {
    a.add_log(log);
    b.add_log(log);
    ref.add_log(log, in_memory, mobile);
  }
  EXPECT_GT(b.spill_runs(), 0u);
  EXPECT_EQ(a.spill_runs(), 0u);
  expect_matches_reference(a.snapshot(), ref);
  expect_matches_reference(b.snapshot(), ref);
}

}  // namespace
}  // namespace dynamips::core
