#include "simnet/subscriber.h"

#include <algorithm>
#include <utility>

namespace dynamips::simnet {

namespace {

// Stable per-subscriber seed derivation (SplitMix64 over seed and id).
std::uint64_t mix(std::uint64_t seed, std::uint64_t id) {
  return net::mix_seed(seed + 0x9e3779b97f4a7c15ull * (id + 1));
}

}  // namespace

TimelineGenerator::TimelineGenerator(IspProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)),
      plan4_(profile_.bgp4, profile_.p_same24, profile_.p_same_bgp4),
      plan6_(profile_.bgp6, profile_.v6_pool_len, profile_.p_same_bgp6,
             profile_.v6_pools_per_bgp),
      seed_(seed) {}

std::uint64_t TimelineGenerator::lan64_for(const net::Prefix6& delegated,
                                           CpeSubnetMode mode,
                                           std::uint64_t constant_id,
                                           net::Rng& rng) const {
  std::uint64_t base = delegated.address().network64();
  int subnet_bits = 64 - delegated.length();
  if (subnet_bits <= 0) return base;
  std::uint64_t span = subnet_bits >= 64 ? ~0ull : ((1ull << subnet_bits) - 1);
  switch (mode) {
    case CpeSubnetMode::kZeroFill:
      return base;  // announce the lowest-numbered /64
    case CpeSubnetMode::kScramble:
      return base | (rng.next_u64() & span);
    case CpeSubnetMode::kConstantNonZero:
      return base | (std::max<std::uint64_t>(1, constant_id & span));
  }
  return base;
}

SubscriberTimeline TimelineGenerator::generate(std::uint32_t id, Hour start,
                                               Hour end) const {
  net::Rng rng(mix(seed_, id));
  SubscriberTimeline tl;
  tl.subscriber_id = id;
  tl.is_static = rng.bernoulli(profile_.static_share);
  tl.dual_stack = rng.bernoulli(profile_.dualstack_share);
  tl.delegated_len = profile_.delegation.draw(rng);
  // CPE behaviour: a profile-dependent share scrambles subnet bits; a small
  // residual share uses a constant non-zero subnet id (the §5.3 caveat).
  if (rng.bernoulli(profile_.cpe_scramble_share)) {
    tl.cpe_mode = CpeSubnetMode::kScramble;
  } else if (rng.bernoulli(0.03)) {
    tl.cpe_mode = CpeSubnetMode::kConstantNonZero;
  } else {
    tl.cpe_mode = CpeSubnetMode::kZeroFill;
  }
  std::uint64_t constant_id = 1 + rng.uniform(255);
  tl.home = plan6_.assign_home_pools(profile_.home_pool_count,
                                     profile_.home_pool_secondary_weight, rng);

  // ----------------------------------------------------------------- IPv4 --
  bool ds_acts_nds =
      tl.dual_stack && rng.bernoulli(profile_.ds_uses_nds_share);
  bool use_ds_policy = tl.dual_stack && !ds_acts_nds;
  net::IPv4Address addr = plan4_.initial(rng);
  Hour t = start;
  while (t < end) {
    const ChangePolicy& pol4 =
        use_ds_policy ? profile_.v4_ds_at(t) : profile_.v4_nds_at(t);
    DurationDraw d = tl.is_static ? DurationDraw{kNoEnd, ChangeCause::kNone}
                                  : draw_assignment_duration(pol4, rng);
    if (d.hours == kNoEnd || t + d.hours >= end) {
      tl.v4.push_back({t, end, addr, ChangeCause::kNone});
      break;
    }
    Hour change_at = t + d.hours;
    tl.v4.push_back({t, change_at, addr, d.cause});
    addr = plan4_.next(addr, rng);
    t = change_at;
  }

  if (!tl.dual_stack) return tl;

  // ----------------------------------------------------------------- IPv6 --
  // Coupled change instants: v4 changes that drag the v6 assignment along.
  std::vector<Hour> coupled;
  for (std::size_t i = 0; i + 1 < tl.v4.size(); ++i)
    if (rng.bernoulli(profile_.couple_v6_to_v4))
      coupled.push_back(tl.v4[i].end);

  // Merge the coupled instants with the v6 policy's own change process; any
  // change (either kind) restarts the own-process timer, mirroring a DHCPv6
  // server that starts a fresh lease whenever it hands out a new prefix.
  struct Change {
    Hour at;
    ChangeCause cause;
  };
  std::vector<Change> changes;
  auto draw_own = [&](Hour from) -> std::pair<Hour, ChangeCause> {
    if (tl.is_static) return {kNoEnd, ChangeCause::kNone};
    DurationDraw d = draw_assignment_duration(profile_.v6_at(from), rng);
    if (d.hours == kNoEnd) return {kNoEnd, ChangeCause::kNone};
    return {from + d.hours, d.cause};
  };
  auto [next_own, own_cause] = draw_own(start);
  for (Hour c : coupled) {
    if (c >= end) break;
    while (next_own != kNoEnd && next_own < c && next_own < end) {
      changes.push_back({next_own, own_cause});
      std::tie(next_own, own_cause) = draw_own(next_own);
    }
    changes.push_back({c, ChangeCause::kCoupled});
    std::tie(next_own, own_cause) = draw_own(c);
  }
  while (next_own != kNoEnd && next_own < end) {
    changes.push_back({next_own, own_cause});
    std::tie(next_own, own_cause) = draw_own(next_own);
  }

  // CPE-side LAN /64 scrambles inside an unchanged delegation (only when
  // there are free subnet bits to scramble).
  if (tl.cpe_mode == CpeSubnetMode::kScramble && tl.delegated_len < 64 &&
      profile_.scramble_cpe.scrambles_per_year > 0 && !tl.is_static) {
    double mean_gap =
        double(kHoursPerYear) / profile_.scramble_cpe.scrambles_per_year;
    Hour s = start + Hour(rng.exponential(mean_gap));
    while (s < end) {
      changes.push_back({s, ChangeCause::kCpeScramble});
      s += std::max<Hour>(1, Hour(rng.exponential(mean_gap)));
    }
  }

  // Stable: of several changes at the same hour, the one pushed first keeps
  // its cause, so a coupled or own change wins over a CPE scramble.
  std::stable_sort(
      changes.begin(), changes.end(),
      [](const Change& a, const Change& b) { return a.at < b.at; });
  changes.erase(std::unique(changes.begin(), changes.end(),
                            [](const Change& a, const Change& b) {
                              return a.at == b.at;
                            }),
                changes.end());

  // Materialise v6 segments.
  net::Prefix6 deleg =
      plan6_.draw_delegation(tl.home, tl.delegated_len, net::Prefix6{}, rng);
  std::uint64_t lan = lan64_for(deleg, tl.cpe_mode, constant_id, rng);
  Hour seg_start = start;
  for (const Change& ch : changes) {
    if (ch.at <= seg_start || ch.at >= end) continue;
    tl.v6.push_back({seg_start, ch.at, deleg, lan, ch.cause});
    if (ch.cause == ChangeCause::kCpeScramble) {
      // Same delegation, freshly scrambled subnet id.
      std::uint64_t fresh = lan;
      for (int attempt = 0; attempt < 8 && fresh == lan; ++attempt)
        fresh = lan64_for(deleg, CpeSubnetMode::kScramble, constant_id, rng);
      lan = fresh;
    } else {
      deleg = plan6_.draw_delegation(tl.home, tl.delegated_len, deleg, rng);
      lan = lan64_for(deleg, tl.cpe_mode, constant_id, rng);
    }
    seg_start = ch.at;
  }
  tl.v6.push_back({seg_start, end, deleg, lan, ChangeCause::kNone});
  return tl;
}

}  // namespace dynamips::simnet
