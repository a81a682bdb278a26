// test_isp_sweep — parameterized per-ISP invariants over the full pipeline:
// one small simulated study per Table-1 ISP, validated against the
// profile's ground truth.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "simnet/isp.h"

namespace dynamips {
namespace {

class IspSweep : public ::testing::TestWithParam<const char*> {
 protected:
  static const core::AtlasStudy& study_for(const std::string& name) {
    static std::map<std::string, core::AtlasStudy> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      core::AtlasStudyConfig cfg;
      cfg.atlas.probe_scale = 0.5;  // single-ISP runs can afford more probes
      cfg.atlas.window_hours = 13140;  // 1.5 years
      cfg.atlas.seed = 23;
      it = cache.emplace(name,
                         core::run_atlas_study({*simnet::find_isp(name)},
                                               cfg))
               .first;
    }
    return it->second;
  }

  simnet::IspProfile profile() const {
    return *simnet::find_isp(GetParam());
  }
};

TEST_P(IspSweep, ProbesSurviveSanitization) {
  const auto& study = study_for(GetParam());
  auto isp = profile();
  auto it = study.durations.find(isp.asn);
  ASSERT_NE(it, study.durations.end()) << GetParam();
  EXPECT_GT(it->second.probes, std::uint64_t(isp.atlas_probes / 4));
}

TEST_P(IspSweep, DualStackShareTracksProfile) {
  const auto& study = study_for(GetParam());
  auto isp = profile();
  const auto& d = study.durations.at(isp.asn);
  ASSERT_GT(d.probes, 10u);
  double share = double(d.ds_probes) / double(d.probes);
  EXPECT_NEAR(share, isp.dualstack_share, 0.22) << GetParam();
}

TEST_P(IspSweep, V6MovesCrossBgpNoMoreThanV4) {
  const auto& study = study_for(GetParam());
  auto isp = profile();
  const auto& s = study.spatial.at(isp.asn);
  if (s.v4_changes < 30 || s.v6_changes < 30) GTEST_SKIP();
  EXPECT_LE(s.pct_v6_diff_bgp(), s.pct_v4_diff_bgp() + 5.0) << GetParam();
}

TEST_P(IspSweep, Diff24TracksCalibration) {
  const auto& study = study_for(GetParam());
  auto isp = profile();
  const auto& s = study.spatial.at(isp.asn);
  if (s.v4_changes < 50) GTEST_SKIP();
  EXPECT_NEAR(s.pct_v4_diff_24() / 100.0, 1.0 - isp.p_same24, 0.12)
      << GetParam();
}

TEST_P(IspSweep, InferenceNeverUndershootsDelegation) {
  // Zero-bits inference can overestimate (scramblers) but must never infer
  // a prefix shorter than the shortest delegation the ISP hands out, save
  // for random-chance undershoot on probes with very few changes.
  const auto& study = study_for(GetParam());
  auto isp = profile();
  auto it = study.subscriber_inference.find(isp.asn);
  if (it == study.subscriber_inference.end() || it->second.size() < 10)
    GTEST_SKIP();
  int shortest = 64;
  for (const auto& e : isp.delegation.entries)
    shortest = std::min(shortest, e.length);
  // The paper's caveat: probes with very few changes can undershoot by
  // random chance (each extra shared zero bit halves in probability), so
  // the invariant is conditioned on a handful of observed changes.
  int undershoot = 0, considered = 0;
  for (const auto& inf : it->second) {
    if (inf.changes < 4) continue;
    ++considered;
    undershoot += inf.inferred_len < shortest;
  }
  if (considered < 10) GTEST_SKIP();
  EXPECT_LT(double(undershoot), 0.12 * double(considered)) << GetParam();
}

TEST_P(IspSweep, CooccurrenceTracksCoupling) {
  const auto& study = study_for(GetParam());
  auto isp = profile();
  const auto& d = study.durations.at(isp.asn);
  if (d.cooccur_total < 100) GTEST_SKIP();
  // Co-occurrence >= coupling (own v6 changes can also coincide), and not
  // wildly above it.
  EXPECT_GE(d.cooccurrence(), isp.couple_v6_to_v4 - 0.12) << GetParam();
}

const char* const kTable1Isps[] = {"DTAG",     "Comcast",  "Orange",
                                   "LGI",      "Free SAS", "Kabel DE",
                                   "Proximus", "Versatel", "BT",
                                   "Netcologne"};

std::string param_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string n = info.param;
  for (auto& c : n)
    if (!std::isalnum(std::uint8_t(c))) c = '_';
  return n;
}

INSTANTIATE_TEST_SUITE_P(Table1, IspSweep, ::testing::ValuesIn(kTable1Isps),
                         param_name);

// The CPL floor holds only where every v6 change stays inside one BGP
// announcement: ISPs that always renumber within the same announcement
// and announce a single v6 prefix. The suite runs over exactly those.
bool single_same_bgp_announcement(const simnet::IspProfile& isp) {
  return isp.p_same_bgp6 == 1.0 && isp.bgp6.size() == 1;
}

std::vector<const char*> same_bgp_isps() {
  std::vector<const char*> out;
  for (const char* name : kTable1Isps)
    if (single_same_bgp_announcement(*simnet::find_isp(name)))
      out.push_back(name);
  return out;
}

TEST(IspSweepSelection, SomeIspKeepsChangesInOneAnnouncement) {
  EXPECT_FALSE(same_bgp_isps().empty());
}

class SameBgpIspSweep : public IspSweep {};

TEST_P(SameBgpIspSweep, CplNeverBelowAnnouncementForSameBgpIsps) {
  const auto& study = study_for(GetParam());
  auto isp = profile();
  ASSERT_TRUE(single_same_bgp_announcement(isp)) << GetParam();
  const auto& cpl = study.spatial.at(isp.asn).cpl;
  int ann_len = isp.bgp6.front().length();
  for (int c = 0; c < ann_len; ++c)
    EXPECT_EQ(cpl.changes[std::size_t(c)], 0u)
        << GetParam() << " CPL " << c << " below the /" << ann_len
        << " announcement";
}

INSTANTIATE_TEST_SUITE_P(Table1, SameBgpIspSweep,
                         ::testing::ValuesIn(same_bgp_isps()), param_name);

}  // namespace
}  // namespace dynamips
