#include "core/assoc.h"

#include <algorithm>
#include <new>

#include "io/checkpoint.h"
#include "stats/extsort.h"
#include "stats/radix_sort.h"

namespace dynamips::core {

namespace {

/// One accepted association tuple, flattened for the /64 grouping sort.
struct Tuple {
  std::uint64_t net64;
  std::uint32_t day;
  net::Prefix4 v4;
};

struct TupleLess {
  bool operator()(const Tuple& a, const Tuple& b) const {
    return a.net64 < b.net64;
  }
};

/// (/24, /64) incidence pair for the per-/24 degree count.
struct Pair {
  net::Prefix4 v4;
  std::uint64_t net64;
};

/// Radix key of a v4 prefix: exactly Prefix4's (address, length) order.
std::uint64_t v4_key(const net::Prefix4& p) {
  return (std::uint64_t(p.address().value()) << 8) | std::uint64_t(p.length());
}

/// Pairs reach the sort in net64 order and unique, so a stable sort on v4
/// alone yields the (v4, net64) order this comparator spells out — the
/// external sorter keeps the full comparison.
struct PairLess {
  bool operator()(const Pair& a, const Pair& b) const {
    if (a.v4 != b.v4) return a.v4 < b.v4;
    return a.net64 < b.net64;
  }
};

static_assert(sizeof(Pair) <= sizeof(Tuple) && alignof(Pair) <= alignof(Tuple),
              "the pairs reuse the tuples' storage");

}  // namespace

void CdnAnalyzer::add_log(const cdn::AssociationLog& log) {
  bool mobile = mobile_asns_.count(log.asn) > 0;
  AsnAssocStats& asn_stats = by_asn_[log.asn];
  asn_stats.asn = log.asn;
  asn_stats.mobile = mobile;
  asn_stats.registry = log.registry;

  RegistryClass cls{log.registry, mobile};
  auto& reg_durations = registry_durations_[cls];
  auto& zeros = zero_counts_[cls];

  // Per-log scratch lives in the per-shard arena: after the first few logs
  // the steady state allocates nothing per call.
  arena_.reset();

  // The analysis proper is a pair of streaming consumers over sorted
  // sequences — fed either from in-memory stable radix sorts (the default)
  // or from an external-merge drain (spill_mb > 0). Both orders equal one
  // std::stable_sort over the same input, so both paths produce
  // byte-identical analyzer state.
  //
  // Consumer 1: tuples sorted by /64. Segments association runs (same /24,
  // gaps no longer than max_gap_days) and tallies the /64-level stats. It
  // returns true the first time the current /64 meets a /24, i.e. exactly
  // once per distinct (v4, net64) pair: a /64 sees only a few /24s, so a
  // linear scan of `group_24s` deduplicates the pairs where they are built.
  bool in_group = false;
  std::uint64_t cur_net64 = 0;
  std::uint32_t run_start = 0;
  std::uint32_t run_last = 0;
  net::Prefix4 run_24;
  // Distinct /24s of the current /64, in first-seen order.
  ArenaVector<net::Prefix4> group_24s{ArenaAllocator<net::Prefix4>(arena_)};
  auto close_run = [&] {
    double days = double(run_last - run_start + 1);
    asn_stats.durations_days.push_back(days);
    reg_durations.push_back(days);
  };
  auto close_group = [&] {
    close_run();
    if (group_24s.size() > 1) {
      ++multi_24_64s_[mobile];
    } else {
      ++single_24_64s_[mobile];
    }
  };
  auto feed_tuple = [&](const Tuple& t) {
    if (!in_group || t.net64 != cur_net64) {
      if (in_group) close_group();
      in_group = true;
      cur_net64 = t.net64;
      ++asn_stats.unique_64s;
      zeros.add(classify_trailing_zeros(t.net64));
      run_start = run_last = t.day;
      run_24 = t.v4;
      group_24s.assign(1, t.v4);
      return true;
    }
    bool new_24 = false;
    if (t.v4 != run_24) {
      new_24 = std::find(group_24s.begin(), group_24s.end(), t.v4) ==
               group_24s.end();
      if (new_24) group_24s.push_back(t.v4);
    }
    bool gap = t.day > run_last + options_.max_gap_days;
    if (t.v4 != run_24 || gap) {
      close_run();
      run_start = t.day;
      run_24 = t.v4;
    }
    run_last = t.day;
    return new_24;
  };
  auto finish_tuples = [&] {
    if (in_group) close_group();
  };

  // Consumer 2: distinct (v4, net64) pairs in sorted order. Counts unique
  // /64s per /24.
  bool have_pair = false;
  net::Prefix4 prev_24;
  std::uint32_t degree = 0;
  auto feed_pair = [&](const Pair& p) {
    if (have_pair && p.v4 != prev_24) {
      degrees_.emplace_back(degree, mobile);
      degree = 0;
    }
    have_pair = true;
    prev_24 = p.v4;
    ++degree;
  };
  auto finish_pairs = [&] {
    if (have_pair) degrees_.emplace_back(degree, mobile);
  };

  auto accept = [&](const cdn::AssociationRecord& rec) {
    if (options_.require_asn_match && rec.asn4 != rec.asn6) {
      ++asn_stats.mismatched;
      ++total_mismatched_;
      return false;
    }
    ++asn_stats.tuples;
    ++total_tuples_;
    return true;
  };

  if (options_.spill_mb == 0) {
    // In-memory path: flatten the accepted tuples once, then group by /64
    // with a stable radix sort (stats/radix_sort.h). Compared to a
    // hash-map-of-vectors this does no per-/64 node allocation (the
    // dominant cost on the sharded path) and iterates groups in a
    // canonical order, independent of any container history.
    //
    // The log's working set is one arena request: room for every record's
    // tuple, and a scratch region of the same size. The tuple sort
    // ping-pongs between the two; the distinct pairs (usually far fewer
    // than the tuples) are then built in the scratch region and sorted
    // with the tuples' region, walked by then, as their scratch.
    const std::size_t cap = log.records.size();
    auto* tuples = static_cast<Tuple*>(
        arena_.allocate(2 * cap * sizeof(Tuple), alignof(Tuple)));
    Tuple* scratch = tuples + cap;
    std::size_t n = 0;
    for (const auto& rec : log.records) {
      if (!accept(rec)) continue;
      ::new (tuples + n++)
          Tuple{rec.v6_64.address().network64(), rec.day, rec.v4_24};
    }
    // Stable: records arrive day-sorted per log; keep that order per /64.
    stats::radix_sort<8>(tuples, scratch, n,
                         [](const Tuple& t) { return t.net64; });

    auto* pairs = static_cast<Pair*>(static_cast<void*>(scratch));
    std::size_t n_pairs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Tuple& t = tuples[i];
      if (feed_tuple(t)) ::new (pairs + n_pairs++) Pair{t.v4, t.net64};
    }
    finish_tuples();

    stats::radix_sort<5>(pairs, static_cast<Pair*>(static_cast<void*>(tuples)),
                         n_pairs, [](const Pair& p) { return v4_key(p.v4); });
    for (std::size_t i = 0; i < n_pairs; ++i) feed_pair(pairs[i]);
    finish_pairs();
    return;
  }

  // Out-of-core path: the same sorts through the external merge, working
  // set bounded by spill_mb per shard. The budget is split between the two
  // live sorters (the pair sorter fills while the tuple sorter drains).
  stats::ExternalSorter<Tuple, TupleLess>::Options topt;
  topt.budget_bytes = options_.spill_mb * 1024 * 1024 / 2;
  topt.spill_dir = options_.spill_dir;
  stats::ExternalSorter<Pair, PairLess>::Options popt;
  popt.budget_bytes = topt.budget_bytes;
  popt.spill_dir = options_.spill_dir;

  stats::ExternalSorter<Tuple, TupleLess> tuple_sorter(topt);
  stats::ExternalSorter<Pair, PairLess> pair_sorter(popt);
  for (const auto& rec : log.records) {
    if (!accept(rec)) continue;
    tuple_sorter.push(
        {rec.v6_64.address().network64(), rec.day, rec.v4_24});
  }
  tuple_sorter.drain([&](const Tuple& t) {
    if (feed_tuple(t)) pair_sorter.push({t.v4, t.net64});
  });
  finish_tuples();
  pair_sorter.drain(feed_pair);
  finish_pairs();
  spill_runs_ += tuple_sorter.spilled_runs() + pair_sorter.spilled_runs();
  spill_bytes_ += tuple_sorter.spilled_bytes() + pair_sorter.spilled_bytes();
}

void CdnAnalyzer::merge(CdnAnalyzer&& other) {
  for (auto& [asn, stats] : other.by_asn_) {
    auto [it, inserted] = by_asn_.try_emplace(asn, std::move(stats));
    if (!inserted) it->second.merge(stats);
  }
  for (auto& [cls, durations] : other.registry_durations_) {
    auto [it, inserted] = registry_durations_.try_emplace(
        cls, std::move(durations));
    if (!inserted)
      it->second.insert(it->second.end(), durations.begin(), durations.end());
  }
  degrees_.insert(degrees_.end(), other.degrees_.begin(),
                  other.degrees_.end());
  for (auto& [cls, counts] : other.zero_counts_)
    zero_counts_[cls].merge(counts);
  for (int m = 0; m < 2; ++m) {
    single_24_64s_[m] += other.single_24_64s_[m];
    multi_24_64s_[m] += other.multi_24_64s_[m];
  }
  total_tuples_ += other.total_tuples_;
  total_mismatched_ += other.total_mismatched_;
  spill_runs_ += other.spill_runs_;
  spill_bytes_ += other.spill_bytes_;
}

CdnSnapshot CdnAnalyzer::snapshot() const {
  CdnSnapshot out;
  out.by_asn_ = by_asn_;
  out.registry_durations_ = registry_durations_;
  out.degrees_ = degrees_;
  out.zero_counts_ = zero_counts_;
  for (int m = 0; m < 2; ++m) {
    out.single_24_64s_[m] = single_24_64s_[m];
    out.multi_24_64s_[m] = multi_24_64s_[m];
  }
  out.total_tuples_ = total_tuples_;
  out.total_mismatched_ = total_mismatched_;
  return out;
}

double CdnAnalyzer::fraction_64s_with_single_24(bool mobile) const {
  std::uint64_t s = single_24_64s_[mobile];
  std::uint64_t m = multi_24_64s_[mobile];
  return (s + m) ? double(s) / double(s + m) : 0.0;
}

namespace {

void save_doubles(io::ckpt::Writer& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (double d : v) w.f64(d);
}

bool load_doubles(io::ckpt::Reader& r, std::vector<double>& v) {
  v.clear();
  std::uint64_t n = r.size();
  v.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) v.push_back(r.f64());
  return r.ok();
}

constexpr std::uint8_t kMaxRegistry =
    std::uint8_t(bgp::Registry::kAfrinic);

bool load_registry_class(io::ckpt::Reader& r, RegistryClass& cls) {
  std::uint8_t reg = r.u8();
  std::uint8_t mobile = r.u8();
  if (reg > kMaxRegistry || mobile > 1) return false;
  cls.registry = bgp::Registry(reg);
  cls.mobile = mobile != 0;
  return r.ok();
}

}  // namespace

void CdnAnalyzer::save(io::ckpt::Writer& w) const {
  w.u64(by_asn_.size());
  for (const auto& [asn, stats] : by_asn_) {
    w.u32(asn);
    w.u32(stats.asn);
    w.u8(stats.mobile ? 1 : 0);
    w.u8(std::uint8_t(stats.registry));
    save_doubles(w, stats.durations_days);
    w.u64(stats.tuples);
    w.u64(stats.mismatched);
    w.u64(stats.unique_64s);
  }
  w.u64(registry_durations_.size());
  for (const auto& [cls, durations] : registry_durations_) {
    w.u8(std::uint8_t(cls.registry));
    w.u8(cls.mobile ? 1 : 0);
    save_doubles(w, durations);
  }
  w.u64(degrees_.size());
  for (const auto& [count, mobile] : degrees_) {
    w.u32(count);
    w.u8(mobile ? 1 : 0);
  }
  w.u64(zero_counts_.size());
  for (const auto& [cls, counts] : zero_counts_) {
    w.u8(std::uint8_t(cls.registry));
    w.u8(cls.mobile ? 1 : 0);
    for (std::uint64_t c : counts.counts) w.u64(c);
  }
  for (int m = 0; m < 2; ++m) {
    w.u64(single_24_64s_[m]);
    w.u64(multi_24_64s_[m]);
  }
  w.u64(total_tuples_);
  w.u64(total_mismatched_);
}

bool CdnAnalyzer::load(io::ckpt::Reader& r) {
  by_asn_.clear();
  registry_durations_.clear();
  degrees_.clear();
  zero_counts_.clear();
  std::uint64_t n_asn = r.size();
  for (std::uint64_t i = 0; i < n_asn && r.ok(); ++i) {
    bgp::Asn key = r.u32();
    AsnAssocStats& stats = by_asn_[key];
    stats.asn = r.u32();
    std::uint8_t mobile = r.u8();
    std::uint8_t reg = r.u8();
    if (reg > kMaxRegistry || mobile > 1) return false;
    stats.mobile = mobile != 0;
    stats.registry = bgp::Registry(reg);
    if (!load_doubles(r, stats.durations_days)) return false;
    stats.tuples = r.u64();
    stats.mismatched = r.u64();
    stats.unique_64s = r.u64();
  }
  std::uint64_t n_reg = r.size();
  for (std::uint64_t i = 0; i < n_reg && r.ok(); ++i) {
    RegistryClass cls;
    if (!load_registry_class(r, cls)) return false;
    if (!load_doubles(r, registry_durations_[cls])) return false;
  }
  std::uint64_t n_deg = r.size();
  degrees_.reserve(n_deg);
  for (std::uint64_t i = 0; i < n_deg && r.ok(); ++i) {
    std::uint32_t count = r.u32();
    std::uint8_t mobile = r.u8();
    if (mobile > 1) return false;
    degrees_.emplace_back(count, mobile != 0);
  }
  std::uint64_t n_zero = r.size();
  for (std::uint64_t i = 0; i < n_zero && r.ok(); ++i) {
    RegistryClass cls;
    if (!load_registry_class(r, cls)) return false;
    for (std::uint64_t& c : zero_counts_[cls].counts) c = r.u64();
  }
  for (int m = 0; m < 2; ++m) {
    single_24_64s_[m] = r.u64();
    multi_24_64s_[m] = r.u64();
  }
  total_tuples_ = r.u64();
  total_mismatched_ = r.u64();
  return r.ok();
}

}  // namespace dynamips::core
