#include "core/sanitize.h"

#include <algorithm>
#include <span>
#include <utility>

#include "io/checkpoint.h"

namespace dynamips::core {

ProbeObservations from_series(const atlas::ProbeSeries& series) {
  ProbeObservations out;
  out.probe_id = series.meta.probe_id;
  out.tags = series.meta.tags;
  const auto n4 = std::size_t(
      std::count_if(series.records.begin(), series.records.end(),
                    [](const atlas::EchoRecord& r) {
                      return r.family == atlas::Family::kV4;
                    }));
  out.v4.reserve(n4);
  out.v6.reserve(series.records.size() - n4);
  for (const auto& r : series.records) {
    if (r.family == atlas::Family::kV4) {
      out.v4.push_back(
          {r.hour, r.x_client_ip4,
           !r.src_addr4.is_rfc1918() && !r.src_addr4.is_rfc6598()});
    } else {
      out.v6.push_back({r.hour, r.x_client_ip6,
                        r.src_addr6 == r.x_client_ip6});
    }
  }
  return out;
}

void SanitizeStats::publish(obs::MetricsSink& sink) const {
  sink.counter("sanitize.probes_seen").add(probes_seen);
  sink.counter("sanitize.probes_kept").add(probes_kept);
  sink.counter("sanitize.virtual_probes").add(virtual_probes);
  sink.counter("sanitize.split_probes").add(split_probes);
  sink.counter("sanitize.dropped_short").add(dropped_short);
  sink.counter("sanitize.dropped_bad_tag").add(dropped_bad_tag);
  sink.counter("sanitize.dropped_public_src").add(dropped_public_src);
  sink.counter("sanitize.dropped_v6_mismatch").add(dropped_v6_mismatch);
  sink.counter("sanitize.dropped_multihomed").add(dropped_multihomed);
  sink.counter("sanitize.test_address_records").add(test_address_records);
}

void SanitizeStats::save(io::ckpt::Writer& w) const {
  w.u64(probes_seen);
  w.u64(probes_kept);
  w.u64(virtual_probes);
  w.u64(split_probes);
  w.u64(dropped_short);
  w.u64(dropped_bad_tag);
  w.u64(dropped_public_src);
  w.u64(dropped_v6_mismatch);
  w.u64(dropped_multihomed);
  w.u64(test_address_records);
}

bool SanitizeStats::load(io::ckpt::Reader& r) {
  probes_seen = r.u64();
  probes_kept = r.u64();
  virtual_probes = r.u64();
  split_probes = r.u64();
  dropped_short = r.u64();
  dropped_bad_tag = r.u64();
  dropped_public_src = r.u64();
  dropped_v6_mismatch = r.u64();
  dropped_multihomed = r.u64();
  test_address_records = r.u64();
  return r.ok();
}

void Sanitizer::save(io::ckpt::Writer& w) const { stats_.save(w); }

bool Sanitizer::load(io::ckpt::Reader& r) { return stats_.load(r); }

Sanitizer::Sanitizer(const bgp::Rib& rib, SanitizeOptions options)
    : rib_(rib), options_(std::move(options)) {
  bad_tag_ids_.reserve(options_.bad_tags.size());
  for (const std::string& bad : options_.bad_tags)
    bad_tag_ids_.push_back(tag_pool().intern(bad));
  std::sort(bad_tag_ids_.begin(), bad_tag_ids_.end());
}

std::vector<CleanProbe> Sanitizer::sanitize(const ProbeObservations& probe) {
  ++stats_.probes_seen;

  // 1. Disqualifying tags (interned: integer membership test).
  for (TagId tag : probe.tags) {
    if (std::binary_search(bad_tag_ids_.begin(), bad_tag_ids_.end(), tag)) {
      ++stats_.dropped_bad_tag;
      return {};
    }
  }

  // All intermediate vectors live in the shard's bump arena: steady state
  // does no heap allocation per probe.
  arena_.reset();

  // 2. Strip the RIPE pre-deployment test address.
  const net::IPv4Address test_addr = atlas::ripe_test_address();
  ArenaVector<Obs4> v4{ArenaAllocator<Obs4>(arena_)};
  v4.reserve(probe.v4.size());
  for (const auto& o : probe.v4) {
    if (o.addr == test_addr) {
      ++stats_.test_address_records;
      continue;
    }
    v4.push_back(o);
  }

  // 3. Atypical NAT checks.
  if (!v4.empty()) {
    std::size_t pub = 0;
    for (const auto& o : v4) pub += o.src_public;
    if (double(pub) / double(v4.size()) > options_.public_src_threshold) {
      ++stats_.dropped_public_src;
      return {};
    }
  }
  if (!probe.v6.empty()) {
    std::size_t mism = 0;
    for (const auto& o : probe.v6) mism += !o.src_matches;
    if (double(mism) / double(probe.v6.size()) >
        options_.v6_mismatch_threshold) {
      ++stats_.dropped_v6_mismatch;
      return {};
    }
  }

  // Each family must be hour-ordered (observations.h). Every producer emits
  // it that way, so this is normally one O(n) scan per family; only
  // hand-built input pays for a stable sort into arena scratch, which keeps
  // same-family ties in input order.
  auto by_hour = [](const auto& a, const auto& b) { return a.hour < b.hour; };
  if (!std::is_sorted(v4.begin(), v4.end(), by_hour))
    std::stable_sort(v4.begin(), v4.end(), by_hour);
  std::span<const Obs6> v6(probe.v6);
  ArenaVector<Obs6> v6_sorted{ArenaAllocator<Obs6>(arena_)};
  if (!std::is_sorted(v6.begin(), v6.end(), by_hour)) {
    v6_sorted.assign(v6.begin(), v6.end());
    std::stable_sort(v6_sorted.begin(), v6_sorted.end(), by_hour);
    v6 = v6_sorted;
  }

  // 4. AS attribution. asn_of() is a pure function and consecutive
  // observations almost always repeat the previous address, so a one-entry
  // memo per family removes nearly every trie lookup; the attributed ASNs
  // are kept per observation so the emit step below never re-queries the
  // RIB.
  ArenaVector<bgp::Asn> asn4{ArenaAllocator<bgp::Asn>(arena_)};
  asn4.reserve(v4.size());
  {
    net::IPv4Address memo_addr;
    bgp::Asn memo_asn = 0;
    bool have_memo = false;
    for (const auto& o : v4) {
      if (!have_memo || !(o.addr == memo_addr)) {
        memo_addr = o.addr;
        memo_asn = rib_.asn_of(o.addr);
        have_memo = true;
      }
      asn4.push_back(memo_asn);
    }
  }
  ArenaVector<bgp::Asn> asn6{ArenaAllocator<bgp::Asn>(arena_)};
  asn6.reserve(v6.size());
  {
    net::IPv6Address memo_addr;
    bgp::Asn memo_asn = 0;
    bool have_memo = false;
    for (const auto& o : v6) {
      if (!have_memo || !(o.addr == memo_addr)) {
        memo_addr = o.addr;
        memo_asn = rib_.asn_of(o.addr);
        have_memo = true;
      }
      asn6.push_back(memo_asn);
    }
  }

  // Walk both families chronologically with two cursors (v4 first on equal
  // hours) and compress the ASN sequence into runs, skipping unrouted
  // observations (addresses outside any announcement). Alternation (more
  // runs than a single switch can produce) marks the probe multihomed, so
  // the walk stops at the first run past the limit; a clean A->B sequence
  // splits the probe into virtual probes.
  struct Run {
    bgp::Asn asn;
    Hour first, last;
    std::size_t n4 = 0, n6 = 0;  ///< member counts, to size the emit
  };
  ArenaVector<Run> runs{ArenaAllocator<Run>(arena_)};
  for (std::size_t i = 0, j = 0; i < v4.size() || j < v6.size();) {
    const bool take4 =
        j == v6.size() || (i < v4.size() && v4[i].hour <= v6[j].hour);
    const Hour hour = take4 ? v4[i].hour : v6[j].hour;
    const bgp::Asn asn = take4 ? asn4[i++] : asn6[j++];
    if (asn == 0) continue;
    if (runs.empty() || runs.back().asn != asn) {
      if (int(runs.size()) >= options_.max_as_runs) {
        ++stats_.dropped_multihomed;
        return {};
      }
      runs.push_back({asn, hour, hour});
    }
    Run& run = runs.back();
    run.last = hour;
    ++(take4 ? run.n4 : run.n6);
  }
  if (runs.empty()) {
    ++stats_.dropped_short;
    return {};
  }

  // 5. Emit one CleanProbe per AS run, each long enough to analyze. The
  // per-observation ASNs from step 4 stand in for the former re-lookups.
  std::vector<CleanProbe> out;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (run.last - run.first < options_.min_observation_hours) {
      ++stats_.dropped_short;
      continue;
    }
    CleanProbe cp;
    cp.probe_id = probe.probe_id;
    cp.virtual_index = int(i);
    cp.asn = run.asn;
    cp.first_hour = run.first;
    cp.last_hour = run.last;
    cp.v4.reserve(run.n4);
    cp.v6.reserve(run.n6);
    for (std::size_t j = 0; j < v4.size(); ++j) {
      const Obs4& o = v4[j];
      if (o.hour < run.first || o.hour > run.last) continue;
      if (asn4[j] != run.asn) continue;
      cp.v4.push_back(o);
    }
    for (std::size_t j = 0; j < v6.size(); ++j) {
      const Obs6& o = v6[j];
      if (o.hour < run.first || o.hour > run.last) continue;
      if (asn6[j] != run.asn) continue;
      cp.v6.push_back(o);
    }
    out.push_back(std::move(cp));
  }
  if (!out.empty()) {
    ++stats_.probes_kept;
    stats_.virtual_probes += out.size();
    if (out.size() > 1) ++stats_.split_probes;
  }
  return out;
}

}  // namespace dynamips::core
