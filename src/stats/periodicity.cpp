#include "stats/periodicity.h"

#include <algorithm>
#include <cmath>

namespace dynamips::stats {

namespace {

// Candidate periods from the paper's observations: 12 h (ANTEL), 24 h
// (German ISPs), 36 h (Proximus), 48 h (Global Village), 1 week (Orange),
// 2 weeks (BT).
constexpr std::uint64_t kDefaultCandidates[] = {12, 24, 36, 48, 168, 336};

}  // namespace

double PeriodicityDetector::mass_near(const TotalTimeFraction& ttf,
                                      std::uint64_t period_hours) const {
  if (ttf.total_hours() == 0) return 0.0;
  auto lo = std::uint64_t(std::floor(double(period_hours) *
                                     (1.0 - opts_.tolerance)));
  auto hi = std::uint64_t(std::ceil(double(period_hours) *
                                    (1.0 + opts_.tolerance)));
  double mass = 0;
  const auto& counts = ttf.counts();
  for (auto it = counts.lower_bound(lo);
       it != counts.end() && it->first <= hi; ++it)
    mass += double(it->second) * double(it->first);
  return mass / double(ttf.total_hours());
}

std::optional<PeriodicMode> PeriodicityDetector::check(
    const TotalTimeFraction& ttf, std::uint64_t period_hours) const {
  double m = mass_near(ttf, period_hours);
  if (m < opts_.min_fraction) return std::nullopt;
  return PeriodicMode{period_hours, m};
}

std::vector<PeriodicMode> PeriodicityDetector::detect(
    const TotalTimeFraction& ttf,
    const std::vector<std::uint64_t>& extra_candidates) const {
  std::vector<std::uint64_t> candidates(std::begin(kDefaultCandidates),
                                        std::end(kDefaultCandidates));
  candidates.insert(candidates.end(), extra_candidates.begin(),
                    extra_candidates.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<PeriodicMode> modes;
  for (auto p : candidates)
    if (auto m = check(ttf, p)) modes.push_back(*m);

  // Stable: equally strong modes stay in ascending period order.
  std::stable_sort(modes.begin(), modes.end(),
                   [](const PeriodicMode& a, const PeriodicMode& b) {
                     return a.time_fraction > b.time_fraction;
                   });

  // Drop weaker modes whose tolerance window overlaps a stronger one (24 h
  // and 36 h windows are disjoint at 10% tolerance, but callers may pass
  // denser candidate grids).
  std::vector<PeriodicMode> kept;
  for (const auto& m : modes) {
    bool overlaps = false;
    for (const auto& k : kept) {
      double lo_m = double(m.period_hours) * (1.0 - opts_.tolerance);
      double hi_m = double(m.period_hours) * (1.0 + opts_.tolerance);
      double lo_k = double(k.period_hours) * (1.0 - opts_.tolerance);
      double hi_k = double(k.period_hours) * (1.0 + opts_.tolerance);
      if (lo_m <= hi_k && lo_k <= hi_m) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) kept.push_back(m);
  }
  return kept;
}

std::optional<PeriodicMode> PeriodicityDetector::dominant(
    const TotalTimeFraction& ttf) const {
  auto modes = detect(ttf);
  if (modes.empty()) return std::nullopt;
  return modes.front();
}

}  // namespace dynamips::stats
