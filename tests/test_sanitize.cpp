#include "core/sanitize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace dynamips::core {
namespace {

using net::IPv4Address;
using net::IPv6Address;

// Minimal two-AS world for the sanitizer tests.
bgp::Rib test_rib() {
  bgp::Rib rib;
  rib.announce(*net::Prefix4::parse("10.0.0.0/8"),
               {100, bgp::Registry::kRipe});
  rib.announce(*net::Prefix4::parse("20.0.0.0/8"),
               {200, bgp::Registry::kRipe});
  rib.announce(*net::Prefix6::parse("2001:100::/32"),
               {100, bgp::Registry::kRipe});
  rib.announce(*net::Prefix6::parse("2001:200::/32"),
               {200, bgp::Registry::kRipe});
  return rib;
}

// A clean dual-stack probe in AS100 observed for `hours` hours.
ProbeObservations clean_probe(Hour hours, std::uint32_t id = 1) {
  ProbeObservations p;
  p.probe_id = id;
  p.tags = {tag_pool().intern("home")};
  for (Hour h = 0; h < hours; ++h) {
    p.v4.push_back({h, *IPv4Address::parse("10.1.2.3"), false});
    p.v6.push_back({h, *IPv6Address::parse("2001:100:0:5::1"), true});
  }
  return p;
}

TEST(Sanitize, KeepsCleanProbe) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto out = s.sanitize(clean_probe(2000));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].asn, 100u);
  EXPECT_EQ(out[0].v4.size(), 2000u);
  EXPECT_EQ(out[0].v6.size(), 2000u);
  EXPECT_EQ(s.stats().probes_kept, 1u);
}

TEST(Sanitize, DropsShortProbe) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto out = s.sanitize(clean_probe(100));  // < 730 hours
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(s.stats().dropped_short, 1u);
}

TEST(Sanitize, DropsBadTags) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  for (const char* tag :
       {"datacentre", "core", "system-anchor", "multihomed"}) {
    auto p = clean_probe(2000);
    p.tags.push_back(tag_pool().intern(tag));
    EXPECT_TRUE(s.sanitize(p).empty()) << tag;
  }
  EXPECT_EQ(s.stats().dropped_bad_tag, 4u);
}

TEST(Sanitize, DropsPublicSrcProbe) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  for (auto& o : p.v4) o.src_public = true;
  EXPECT_TRUE(s.sanitize(p).empty());
  EXPECT_EQ(s.stats().dropped_public_src, 1u);
}

TEST(Sanitize, ToleratesFewPublicSrcRecords) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  for (std::size_t i = 0; i < 20; ++i) p.v4[i].src_public = true;  // 1%
  EXPECT_EQ(s.sanitize(p).size(), 1u);
}

TEST(Sanitize, DropsV6SrcMismatchProbe) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  for (auto& o : p.v6) o.src_matches = false;
  EXPECT_TRUE(s.sanitize(p).empty());
  EXPECT_EQ(s.stats().dropped_v6_mismatch, 1u);
}

TEST(Sanitize, StripsTestAddress) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  p.v4[0].addr = atlas::ripe_test_address();
  p.v4[1].addr = atlas::ripe_test_address();
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].v4.size(), 1998u);
  EXPECT_EQ(s.stats().test_address_records, 2u);
  for (const auto& o : out[0].v4)
    EXPECT_NE(o.addr, atlas::ripe_test_address());
}

TEST(Sanitize, DropsMultihomedAlternation) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 5;
  for (Hour h = 0; h < 2000; ++h) {
    const char* addr = (h / 3) % 2 ? "10.1.2.3" : "20.1.2.3";
    p.v4.push_back({h, *IPv4Address::parse(addr), false});
  }
  EXPECT_TRUE(s.sanitize(p).empty());
  EXPECT_EQ(s.stats().dropped_multihomed, 1u);
}

TEST(Sanitize, SplitsAsSwitchIntoVirtualProbes) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 6;
  for (Hour h = 0; h < 4000; ++h) {
    const char* addr = h < 2000 ? "10.1.2.3" : "20.1.2.3";
    p.v4.push_back({h, *IPv4Address::parse(addr), false});
  }
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].asn, 100u);
  EXPECT_EQ(out[0].virtual_index, 0);
  EXPECT_EQ(out[1].asn, 200u);
  EXPECT_EQ(out[1].virtual_index, 1);
  EXPECT_EQ(out[0].v4.size(), 2000u);
  EXPECT_EQ(out[1].v4.size(), 2000u);
  EXPECT_EQ(s.stats().split_probes, 1u);
  EXPECT_EQ(s.stats().virtual_probes, 2u);
}

TEST(Sanitize, SplitDropsShortHalf) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 7;
  for (Hour h = 0; h < 2100; ++h) {
    const char* addr = h < 2000 ? "10.1.2.3" : "20.1.2.3";
    p.v4.push_back({h, *IPv4Address::parse(addr), false});
  }
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].asn, 100u);
  EXPECT_EQ(s.stats().dropped_short, 1u);
}

TEST(Sanitize, UnroutedObservationsIgnored) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  auto p = clean_probe(2000);
  // Unrouted blips must not create phantom AS runs.
  p.v4[500].addr = *IPv4Address::parse("99.9.9.9");
  auto out = s.sanitize(p);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].asn, 100u);
}

TEST(Sanitize, EmptyProbeDropped) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 9;
  EXPECT_TRUE(s.sanitize(p).empty());
}

TEST(Sanitize, StatsAccumulateAcrossProbes) {
  auto rib = test_rib();
  Sanitizer s(rib, {});
  s.sanitize(clean_probe(2000, 1));
  s.sanitize(clean_probe(2000, 2));
  s.sanitize(clean_probe(10, 3));
  EXPECT_EQ(s.stats().probes_seen, 3u);
  EXPECT_EQ(s.stats().probes_kept, 2u);
}

TEST(Sanitize, FromSeriesConversion) {
  atlas::ProbeSeries series;
  series.meta.probe_id = 77;
  series.meta.tags = {tag_pool().intern("home")};
  atlas::EchoRecord r4;
  r4.probe_id = 77;
  r4.hour = 5;
  r4.family = atlas::Family::kV4;
  r4.x_client_ip4 = *IPv4Address::parse("10.0.0.1");
  r4.src_addr4 = *IPv4Address::parse("192.168.1.7");
  series.records.push_back(r4);
  atlas::EchoRecord r6;
  r6.probe_id = 77;
  r6.hour = 5;
  r6.family = atlas::Family::kV6;
  r6.x_client_ip6 = *IPv6Address::parse("2001:100::1");
  r6.src_addr6 = *IPv6Address::parse("2001:100::2");
  series.records.push_back(r6);

  auto obs = from_series(series);
  EXPECT_EQ(obs.probe_id, 77u);
  ASSERT_EQ(obs.v4.size(), 1u);
  EXPECT_FALSE(obs.v4[0].src_public) << "RFC 1918 src is the typical NAT";
  ASSERT_EQ(obs.v6.size(), 1u);
  EXPECT_FALSE(obs.v6[0].src_matches);

  // CGNAT shared space also counts as private.
  series.records[0].src_addr4 = *IPv4Address::parse("100.64.0.1");
  EXPECT_FALSE(from_series(series).v4[0].src_public);
  series.records[0].src_addr4 = *IPv4Address::parse("8.8.8.8");
  EXPECT_TRUE(from_series(series).v4[0].src_public);
}

TEST(Sanitize, EqualHourTieTakesV4First) {
  // AS100 until hour 1000, AS200 from then on, except that the v6
  // observation at hour 1000 still reports AS100. Taking v4 first at that
  // hour gives the runs 100, 200, 100, 200 (multihomed); taking v6 first
  // would give 100, 200 (a clean split).
  auto rib = test_rib();
  Sanitizer s(rib, {});
  ProbeObservations p;
  p.probe_id = 10;
  for (Hour h = 0; h < 2000; ++h) {
    const bool late = h >= 1000;
    p.v4.push_back({h, *IPv4Address::parse(late ? "20.1.2.3" : "10.1.2.3"),
                    false});
    p.v6.push_back({h,
                    *IPv6Address::parse(late && h != 1000 ? "2001:200::1"
                                                          : "2001:100::1"),
                    true});
  }
  EXPECT_TRUE(s.sanitize(p).empty());
  EXPECT_EQ(s.stats().dropped_multihomed, 1u);
}

// ------------------------------------------------ merge-order properties
//
// The reference is the tie rule written the obvious way: v4 (test address
// stripped) then v6 in one list, std::stable_sort by hour, unrouted
// observations dropped, the ASN sequence compressed into runs. Equal-hour
// ties therefore come out v4 first and in input order within a family.

void expect_same(const std::vector<CleanProbe>& got,
                 const std::vector<CleanProbe>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const CleanProbe& g = got[i];
    const CleanProbe& w = want[i];
    EXPECT_EQ(g.probe_id, w.probe_id);
    EXPECT_EQ(g.virtual_index, w.virtual_index);
    EXPECT_EQ(g.asn, w.asn);
    EXPECT_EQ(g.first_hour, w.first_hour);
    EXPECT_EQ(g.last_hour, w.last_hour);
    ASSERT_EQ(g.v4.size(), w.v4.size());
    for (std::size_t j = 0; j < g.v4.size(); ++j) {
      EXPECT_EQ(g.v4[j].hour, w.v4[j].hour);
      EXPECT_EQ(g.v4[j].addr, w.v4[j].addr);
      EXPECT_EQ(g.v4[j].src_public, w.v4[j].src_public);
    }
    ASSERT_EQ(g.v6.size(), w.v6.size());
    for (std::size_t j = 0; j < g.v6.size(); ++j) {
      EXPECT_EQ(g.v6[j].hour, w.v6[j].hour);
      EXPECT_EQ(g.v6[j].addr, w.v6[j].addr);
      EXPECT_EQ(g.v6[j].src_matches, w.v6[j].src_matches);
    }
  }
}

void expect_same(const SanitizeStats& got, const SanitizeStats& want) {
  EXPECT_EQ(got.probes_seen, want.probes_seen);
  EXPECT_EQ(got.probes_kept, want.probes_kept);
  EXPECT_EQ(got.virtual_probes, want.virtual_probes);
  EXPECT_EQ(got.split_probes, want.split_probes);
  EXPECT_EQ(got.dropped_short, want.dropped_short);
  EXPECT_EQ(got.dropped_bad_tag, want.dropped_bad_tag);
  EXPECT_EQ(got.dropped_public_src, want.dropped_public_src);
  EXPECT_EQ(got.dropped_v6_mismatch, want.dropped_v6_mismatch);
  EXPECT_EQ(got.dropped_multihomed, want.dropped_multihomed);
  EXPECT_EQ(got.test_address_records, want.test_address_records);
}

// Generated probes carry no disqualifying tag and pass the NAT checks, so
// the reference covers the steps those probes reach.
std::vector<CleanProbe> reference_sanitize(const bgp::Rib& rib,
                                           const SanitizeOptions& options,
                                           const ProbeObservations& probe,
                                           SanitizeStats& stats) {
  ++stats.probes_seen;
  std::vector<Obs4> v4;
  for (const Obs4& o : probe.v4) {
    if (o.addr == atlas::ripe_test_address()) {
      ++stats.test_address_records;
    } else {
      v4.push_back(o);
    }
  }
  struct Tagged {
    Hour hour;
    bgp::Asn asn;
  };
  std::vector<Tagged> tagged;
  for (const Obs4& o : v4) tagged.push_back({o.hour, rib.asn_of(o.addr)});
  for (const Obs6& o : probe.v6) tagged.push_back({o.hour, rib.asn_of(o.addr)});
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.hour < b.hour;
                   });
  struct Run {
    bgp::Asn asn;
    Hour first, last;
  };
  std::vector<Run> runs;
  for (const Tagged& t : tagged) {
    if (t.asn == 0) continue;
    if (runs.empty() || runs.back().asn != t.asn) {
      runs.push_back({t.asn, t.hour, t.hour});
    } else {
      runs.back().last = t.hour;
    }
  }
  if (runs.empty()) {
    ++stats.dropped_short;
    return {};
  }
  if (int(runs.size()) > options.max_as_runs) {
    ++stats.dropped_multihomed;
    return {};
  }
  std::vector<CleanProbe> out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (run.last - run.first < options.min_observation_hours) {
      ++stats.dropped_short;
      continue;
    }
    CleanProbe cp;
    cp.probe_id = probe.probe_id;
    cp.virtual_index = int(i);
    cp.asn = run.asn;
    cp.first_hour = run.first;
    cp.last_hour = run.last;
    auto member = [&](Hour h, bgp::Asn asn) {
      return h >= run.first && h <= run.last && asn == run.asn;
    };
    for (const Obs4& o : v4)
      if (member(o.hour, rib.asn_of(o.addr))) cp.v4.push_back(o);
    for (const Obs6& o : probe.v6)
      if (member(o.hour, rib.asn_of(o.addr))) cp.v6.push_back(o);
    out.push_back(std::move(cp));
  }
  if (!out.empty()) {
    ++stats.probes_kept;
    stats.virtual_probes += out.size();
    if (out.size() > 1) ++stats.split_probes;
  }
  return out;
}

// A random hour-ordered probe: one AS, a clean switch, or alternation
// between AS100 and AS200. v6 observations near the switch report the
// other AS than v4 at the same hour, and unrouted blips, repeated hours
// within a family and a test-address head occur throughout. A noisy probe
// also repeats hours with another AS and flips v6 anywhere.
ProbeObservations random_probe(std::mt19937& rng, std::uint32_t id) {
  const IPv4Address a4[] = {*IPv4Address::parse("10.1.2.3"),
                            *IPv4Address::parse("20.1.2.3"),
                            *IPv4Address::parse("99.9.9.9")};
  const IPv6Address a6[] = {*IPv6Address::parse("2001:100::1"),
                            *IPv6Address::parse("2001:200::1"),
                            *IPv6Address::parse("2001:300::1")};
  auto chance = [&](unsigned one_in) { return rng() % one_in == 0; };
  ProbeObservations p;
  p.probe_id = id;
  p.tags = {tag_pool().intern("home")};
  const Hour hours = 600 + rng() % 2400;
  const unsigned mode = rng() % 3;
  const bool noisy = chance(4);
  const Hour switch_at = rng() % hours;
  const Hour period = 1 + rng() % 200;
  for (Hour h = 0; h < hours; ++h) {
    unsigned as = mode == 0 ? 0 : mode == 1 ? h >= switch_at : (h / period) % 2;
    auto repeat = [&] { return noisy ? rng() % 3 : as; };
    if (!chance(10)) {
      p.v4.push_back({h, a4[chance(60) ? 2 : as], false});
      if (chance(100)) p.v4.push_back({h, a4[repeat()], false});
    }
    if (!chance(10)) {
      const bool near_switch = h + 2 >= switch_at && h <= switch_at + 2;
      const bool flip = near_switch ? chance(4) : noisy && chance(800);
      p.v6.push_back({h, a6[chance(60) ? 2 : flip ? 1 - as : as], true});
      if (chance(100)) p.v6.push_back({h, a6[repeat()], true});
    }
  }
  if (chance(4))
    for (std::size_t i = 0; i < p.v4.size() && i < 3; ++i)
      p.v4[i].addr = atlas::ripe_test_address();
  return p;
}

TEST(SanitizeProperty, MergeMatchesStableSortReference) {
  auto rib = test_rib();
  SanitizeOptions wide;
  wide.max_as_runs = 3;
  wide.min_observation_hours = 200;
  for (const SanitizeOptions& options : {SanitizeOptions{}, wide}) {
    std::mt19937 rng(20201027);
    Sanitizer s(rib, options);
    SanitizeStats want_stats;
    for (std::uint32_t id = 0; id < 400; ++id) {
      const ProbeObservations p = random_probe(rng, id);
      SCOPED_TRACE(id);
      expect_same(s.sanitize(p), reference_sanitize(rib, options, p,
                                                    want_stats));
    }
    expect_same(s.stats(), want_stats);
    // Every outcome the merge decides occurs in the sample.
    EXPECT_GT(want_stats.probes_kept, 0u);
    EXPECT_GT(want_stats.split_probes, 0u);
    EXPECT_GT(want_stats.dropped_multihomed, 0u);
    EXPECT_GT(want_stats.dropped_short, 0u);
    EXPECT_GT(want_stats.test_address_records, 0u);
  }
}

TEST(SanitizeProperty, UnsortedFamiliesMatchTheirSortedCopy) {
  auto rib = test_rib();
  std::mt19937 rng(4941);
  Sanitizer shuffled_s(rib, {}), sorted_s(rib, {});
  auto by_hour = [](const auto& a, const auto& b) { return a.hour < b.hour; };
  for (std::uint32_t id = 0; id < 200; ++id) {
    ProbeObservations shuffled = random_probe(rng, id);
    std::shuffle(shuffled.v4.begin(), shuffled.v4.end(), rng);
    std::shuffle(shuffled.v6.begin(), shuffled.v6.end(), rng);
    ProbeObservations sorted = shuffled;
    std::stable_sort(sorted.v4.begin(), sorted.v4.end(), by_hour);
    std::stable_sort(sorted.v6.begin(), sorted.v6.end(), by_hour);
    SCOPED_TRACE(id);
    expect_same(shuffled_s.sanitize(shuffled), sorted_s.sanitize(sorted));
  }
  expect_same(shuffled_s.stats(), sorted_s.stats());
  EXPECT_GT(sorted_s.stats().probes_kept, 0u);
}

}  // namespace
}  // namespace dynamips::core
