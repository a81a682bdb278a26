#include "io/results_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "io/csv.h"
#include "simnet/isp.h"

namespace dynamips::io {
namespace {

const core::AtlasStudy& tiny_atlas_study() {
  static core::AtlasStudy study = [] {
    core::AtlasStudyConfig cfg;
    cfg.atlas.probe_scale = 0.05;
    cfg.atlas.window_hours = 6000;
    return core::run_atlas_study(
        {*simnet::find_isp("DTAG"), *simnet::find_isp("Comcast")}, cfg);
  }();
  return study;
}

const core::CdnStudy& tiny_cdn_study() {
  static core::CdnStudy study = [] {
    core::CdnStudyConfig cfg;
    cfg.cdn.subscriber_scale = 0.02;
    cfg.cdn.days = 30;
    return core::run_cdn_study(cdn::default_cdn_population(0.02), cfg);
  }();
  return study;
}

// Parse a CSV body: returns rows (skipping header), each as fields.
std::vector<std::vector<std::string>> rows_of(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::stringstream ss(text);
  std::string line;
  bool first = true;
  while (std::getline(ss, line)) {
    if (first) {
      first = false;
      continue;
    }
    if (line.empty()) continue;
    std::vector<std::string> fields;
    for (auto f : split_csv(line)) fields.emplace_back(f);
    rows.push_back(fields);
  }
  return rows;
}

TEST(ResultsIo, DurationCurves) {
  std::stringstream ss;
  write_duration_curves_csv(ss, tiny_atlas_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  std::size_t thresholds = stats::fig1_thresholds().size();
  // Rows per (AS, split) come in full-threshold blocks.
  EXPECT_EQ(rows.size() % thresholds, 0u);
  bool saw_dtag_v6 = false;
  for (const auto& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    double v = std::stod(r[3]);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    saw_dtag_v6 |= r[0] == "DTAG" && r[1] == "v6";
  }
  EXPECT_TRUE(saw_dtag_v6);
}

TEST(ResultsIo, CplRows) {
  std::stringstream ss;
  write_cpl_csv(ss, tiny_atlas_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    int cpl = std::stoi(r[1]);
    EXPECT_GE(cpl, 0);
    EXPECT_LE(cpl, 64);
    EXPECT_GE(std::stoull(r[2]), std::stoull(r[3]))
        << "changes >= probes at any CPL";
  }
}

TEST(ResultsIo, BgpMovesRowPerAs) {
  std::stringstream ss;
  write_bgp_moves_csv(ss, tiny_atlas_study());
  auto rows = rows_of(ss.str());
  EXPECT_EQ(rows.size(), tiny_atlas_study().spatial.size());
}

TEST(ResultsIo, InferenceHistogram) {
  std::stringstream ss;
  write_inference_csv(ss, tiny_atlas_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  std::size_t total = 0;
  for (const auto& r : rows) {
    int len = std::stoi(r[1]);
    EXPECT_GE(len, 0);
    EXPECT_LE(len, 64);
    total += std::stoull(r[2]);
  }
  std::size_t expected = 0;
  for (const auto& [asn, v] : tiny_atlas_study().subscriber_inference)
    expected += v.size();
  EXPECT_EQ(total, expected);
}

TEST(ResultsIo, AssocDurations) {
  std::stringstream ss;
  write_assoc_durations_csv(ss, tiny_cdn_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  bool saw_mobile = false, saw_fixed = false;
  for (const auto& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    saw_mobile |= r[2] == "1";
    saw_fixed |= r[2] == "0";
    EXPECT_GE(std::stod(r[3]), 1.0);
  }
  EXPECT_TRUE(saw_mobile);
  EXPECT_TRUE(saw_fixed);
}

TEST(ResultsIo, Degrees) {
  std::stringstream ss;
  write_degrees_csv(ss, tiny_cdn_study());
  auto rows = rows_of(ss.str());
  EXPECT_EQ(rows.size(), tiny_cdn_study().analyzer.degrees().size());
}

TEST(ResultsIo, ZeroBoundaries) {
  std::stringstream ss;
  write_zero_boundaries_csv(ss, tiny_cdn_study());
  auto rows = rows_of(ss.str());
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.size() % 5, 0u) << "five boundary classes per group";
  for (const auto& r : rows) {
    double frac = std::stod(r[3]);
    EXPECT_GE(frac, 0.0);
    EXPECT_LE(frac, 1.0);
  }
}

// The CDN writers format with std::to_chars into a block buffer; the bytes
// must equal the former `os << value` formatting (%g at precision 6),
// across block flushes and for durations large enough to print in
// exponent form.
TEST(ResultsIo, CdnWritersMatchStreamFormatting) {
  core::AssocOptions opt;
  opt.max_gap_days = 4000000000u;  // one run per /64, however long
  core::CdnAnalyzer an(opt, {200});
  auto record = [](std::uint32_t day, std::uint32_t v4, std::uint64_t net64,
                   bgp::Asn asn) {
    cdn::AssociationRecord r;
    r.day = day;
    r.v4_24 = net::Prefix4{net::IPv4Address{v4}, 24};
    r.v6_64 = net::Prefix6{net::IPv6Address{net64, 0}, 64};
    r.asn4 = r.asn6 = asn;
    return r;
  };
  for (bgp::Asn asn : {100u, 200u, 300u}) {
    cdn::AssociationLog log;
    log.asn = asn;
    std::uint64_t net64 = 0x20010db800000000ull;
    for (std::uint32_t last : {0u, 5u, 99998u, 999998u, 999999u, 1234566u,
                               123456788u, 290000000u}) {
      log.records.push_back(record(0, 0x0a000000u, ++net64, asn));
      log.records.push_back(record(last, 0x0a000000u, net64, asn));
    }
    // Enough one-day rows to flush the writer's buffer several times.
    for (std::uint32_t i = 0; i < 30000; ++i)
      log.records.push_back(
          record(290000000u, 0x0b000000u + (i << 8), ++net64, asn));
    std::stable_sort(log.records.begin(), log.records.end(),
                     [](const auto& a, const auto& b) { return a.day < b.day; });
    an.add_log(log);
  }
  core::CdnStudy study{an.snapshot(), {{100, "DTAG"}, {200, "EE Ltd"}}};

  std::ostringstream want_durations, want_degrees;
  want_durations << "asn,name,mobile,duration_days\n";
  for (const auto& [asn, stats] : study.analyzer.by_asn()) {
    auto it = study.asn_names.find(asn);
    const std::string name = it == study.asn_names.end() ? "?" : it->second;
    for (double d : stats.durations_days)
      want_durations << asn << ',' << name << ',' << (stats.mobile ? 1 : 0)
                     << ',' << d << '\n';
  }
  want_degrees << "degree,mobile\n";
  for (const auto& [degree, mobile] : study.analyzer.degrees())
    want_degrees << degree << ',' << (mobile ? 1 : 0) << '\n';

  std::ostringstream durations, degrees;
  write_assoc_durations_csv(durations, study);
  write_degrees_csv(degrees, study);
  EXPECT_EQ(durations.str(), want_durations.str());
  EXPECT_EQ(degrees.str(), want_degrees.str());
  EXPECT_NE(durations.str().find(",1.23457e+06\n"), std::string::npos);
  EXPECT_GT(durations.str().size(), std::size_t(4) << 16);
}

}  // namespace
}  // namespace dynamips::io
