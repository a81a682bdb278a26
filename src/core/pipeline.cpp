#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "core/resource.h"
#include "core/shutdown.h"
#include "io/columnar.h"
#include "obs/metrics.h"

namespace dynamips::core {

namespace {

/// Record the time since `t` into `phase` and advance `t` to now. The
/// study loop calls it only when metrics are on: with a null registry a
/// pass has no meters, reads no clock and records nothing.
void lap(obs::PhaseStats& phase, std::uint64_t& t) {
  const std::uint64_t now = obs::now_ns();
  phase.record(now - t);
  t = now;
}

// --- shard kinds -----------------------------------------------------------
//
// A shard kind is one shard's private analysis state for one study plus
// what the study pass needs to run it: `add` analyzes one item, `extract`
// copies the finalized results into the study, `publish` records the
// study-derived metrics, and `Meters` holds the metric handles `add`
// records through. Meters are resolved once per shard range; the item
// counter and production phase they start with are named by the source.

/// One shard's private analyzer set for the Atlas study. The metrics sink
/// is part of the shard state and merges through the same ordered
/// reduction, so counter totals are independent of the thread count.
struct AtlasShard {
  using Study = AtlasStudy;
  static constexpr std::string_view kName = "atlas";

  Sanitizer sanitizer;
  DurationAnalyzer durations;
  SpatialAnalyzer spatial;
  InferenceCollector inference;
  obs::MetricsSink metrics;

  AtlasShard(const bgp::Rib& rib, const SanitizeOptions& sanitize,
             const ChangeOptions& changes)
      : sanitizer(rib, sanitize), durations(changes), spatial(rib) {}

  struct Meters {
    Meters(obs::MetricsSink& m, const char* items, const char* produce)
        : probes(m.counter(items)),
          generate(produce ? &m.phase(produce) : nullptr),
          records(m.counter("atlas.echo_records")),
          clean(m.counter("atlas.clean_probes")),
          records_per_probe(m.histogram("atlas.records_per_probe", 0, 6, 5)),
          sanitize(m.phase("atlas.sanitize")),
          durations(m.phase("atlas.durations.add")),
          spatial(m.phase("atlas.spatial.add")),
          inference(m.phase("atlas.inference.add")) {}

    obs::Counter& probes;
    obs::PhaseStats* generate;
    obs::Counter& records;
    obs::Counter& clean;
    obs::Histogram& records_per_probe;
    obs::PhaseStats& sanitize;
    obs::PhaseStats& durations;
    obs::PhaseStats& spatial;
    obs::PhaseStats& inference;
  };

  /// Analyze one probe's series. `m` is null when metrics are off; `t` is
  /// the clock read taken before the item was produced.
  void add(const atlas::ProbeSeries& series, Meters* m, std::uint64_t t) {
    const ProbeObservations probe = from_series(series);
    if (m) {
      // The generate phase spans producing the series and converting it.
      if (m->generate)
        lap(*m->generate, t);
      else
        t = obs::now_ns();
      m->probes.add(1);
      m->records.add(series.records.size());
      m->records_per_probe.record(double(series.records.size()));
    }
    const std::vector<CleanProbe> cleaned = sanitizer.sanitize(probe);
    if (m) {
      lap(m->sanitize, t);
      m->clean.add(cleaned.size());
    }
    for (const CleanProbe& cp : cleaned) {
      durations.add(cp);
      if (m) lap(m->durations, t);
      spatial.add(cp);
      if (m) lap(m->spatial, t);
      inference.add(cp);
      if (m) lap(m->inference, t);
    }
  }

  void merge(AtlasShard&& other) {
    sanitizer.merge(std::move(other.sanitizer));
    durations.merge(std::move(other.durations));
    spatial.merge(std::move(other.spatial));
    inference.merge(std::move(other.inference));
    metrics.merge(std::move(other.metrics));
  }

  void finalize() {
    sanitizer.finalize();
    durations.finalize();
    spatial.finalize();
    inference.finalize();
  }

  /// Non-consuming extraction: snapshot() yields the finalized results and
  /// leaves the accumulators intact (the streaming driver relies on this).
  void extract(AtlasStudy& study) const {
    study.sanitize = sanitizer.snapshot();
    study.durations = durations.snapshot();
    study.spatial = spatial.snapshot();
    InferenceSnapshot inferred = inference.snapshot();
    study.subscriber_inference = std::move(inferred.subscriber);
    study.pool_inference = std::move(inferred.pools);
  }

  void publish(const AtlasStudy& study) { study.sanitize.publish(metrics); }

  void save(io::ckpt::Writer& w) const {
    sanitizer.save(w);
    durations.save(w);
    spatial.save(w);
    inference.save(w);
    metrics.save(w);
  }
  bool load(io::ckpt::Reader& r) {
    return sanitizer.load(r) && durations.load(r) && spatial.load(r) &&
           inference.load(r) && metrics.load(r);
  }
};

/// One shard's private state for the CDN study (analyzer + metrics sink),
/// mirroring AtlasShard so both studies run through the same pass.
struct CdnShard {
  using Study = CdnStudy;
  static constexpr std::string_view kName = "cdn";

  CdnAnalyzer analyzer;
  obs::MetricsSink metrics;

  CdnShard(const AssocOptions& options,
           const std::unordered_set<bgp::Asn>& mobile_asns)
      : analyzer(options, mobile_asns) {}

  struct Meters {
    Meters(obs::MetricsSink& m, const char* items, const char* produce)
        : logs(m.counter(items)),
          generate(produce ? &m.phase(produce) : nullptr),
          tuples(m.counter("cdn.association_tuples")),
          tuples_per_log(m.histogram("cdn.tuples_per_log", 0, 8, 5)),
          analyzer_add(m.phase("cdn.analyzer.add")) {}

    obs::Counter& logs;
    obs::PhaseStats* generate;
    obs::Counter& tuples;
    obs::Histogram& tuples_per_log;
    obs::PhaseStats& analyzer_add;
  };

  /// Analyze one log; see AtlasShard::add.
  void add(const cdn::AssociationLog& log, Meters* m, std::uint64_t t) {
    if (m) {
      if (m->generate) lap(*m->generate, t);
      m->logs.add(1);
      m->tuples.add(log.records.size());
      m->tuples_per_log.record(double(log.records.size()));
    }
    analyzer.add(log);
    if (m) lap(m->analyzer_add, t);
  }

  void merge(CdnShard&& other) {
    analyzer.merge(std::move(other.analyzer));
    metrics.merge(std::move(other.metrics));
  }

  void finalize() { analyzer.finalize(); }

  void extract(CdnStudy& study) const { study.analyzer = analyzer.snapshot(); }

  void publish(const CdnStudy& study) {
    metrics.counter("cdn.tuples_kept").add(study.analyzer.total_tuples());
    metrics.counter("cdn.tuples_mismatched")
        .add(study.analyzer.total_mismatched());
    // Spill accounting lives on the analyzer, never in snapshots or
    // checkpoints; resumed shards therefore report only their own spills.
    metrics.counter("cdn.spill_runs").add(analyzer.spill_runs());
    metrics.counter("cdn.spill_bytes").add(analyzer.spill_bytes());
  }

  void save(io::ckpt::Writer& w) const {
    analyzer.save(w);
    metrics.save(w);
  }
  bool load(io::ckpt::Reader& r) {
    return analyzer.load(r) && metrics.load(r);
  }
};

/// Ratio of the slowest shard's wall time to the mean — 1.0 is perfectly
/// balanced. Recorded as a gauge so load skew across shards is visible.
double imbalance_ratio(const std::vector<std::uint64_t>& shard_ns) {
  if (shard_ns.empty()) return 1.0;
  std::uint64_t max = 0, sum = 0;
  for (std::uint64_t ns : shard_ns) {
    sum += ns;
    if (ns > max) max = ns;
  }
  double mean = double(sum) / double(shard_ns.size());
  return mean > 0 ? double(max) / mean : 1.0;
}

// ----------------------------------------------------- crash-safe driving

/// Round size when supervision is active but no explicit interval was set:
/// small enough that a shutdown token is honored promptly, large enough
/// that the per-round dispatch barrier is noise.
constexpr std::uint64_t kDefaultRoundItems = 256;

/// The shard partition plus each shard's next unprocessed index. Fresh
/// runs derive it from the thread count; resumed runs restore it from the
/// checkpoint, which is what makes a resumed run byte-identical to the
/// original regardless of either run's thread setting.
struct ShardPlan {
  std::vector<ShardRange> ranges;
  std::vector<std::size_t> next;
};

// --- config fingerprints -------------------------------------------------
//
// A fingerprint is FNV-1a over a canonical serialization of every parameter
// that influences study results. Resuming under a different fingerprint is
// rejected: the restored analyzer state would silently mix two experiments.
// The thread knob is deliberately excluded (results are thread-invariant);
// whether metrics are enabled is included, because a resumed run cannot
// reconstruct the metric records of items processed before the interrupt.

void fingerprint_atlas_analysis(io::ckpt::Writer& w,
                                const SanitizeOptions& sanitize,
                                const ChangeOptions& changes,
                                const std::vector<simnet::IspProfile>& isps,
                                bool metrics) {
  w.u64(sanitize.min_observation_hours);
  w.u64(sanitize.bad_tags.size());
  for (const auto& tag : sanitize.bad_tags) w.str(tag);
  w.f64(sanitize.public_src_threshold);
  w.f64(sanitize.v6_mismatch_threshold);
  w.i32(sanitize.max_as_runs);
  w.u64(changes.max_boundary_gap);
  w.u64(isps.size());
  for (const auto& isp : isps) w.u32(isp.asn);
  w.u8(metrics ? 1 : 0);
}

std::uint64_t atlas_gen_fingerprint(
    const std::vector<simnet::IspProfile>& isps,
    const AtlasStudyConfig& config) {
  io::ckpt::Writer w;
  w.str("atlas.gen");
  w.u64(config.atlas.window_hours);
  w.f64(config.atlas.probe_scale);
  w.u64(config.atlas.seed);
  w.f64(config.atlas.short_lived_share);
  w.f64(config.atlas.multihomed_share);
  w.f64(config.atlas.as_switch_share);
  w.f64(config.atlas.bad_tag_share);
  w.f64(config.atlas.public_src_share);
  w.f64(config.atlas.test_addr_share);
  w.f64(config.atlas.hourly_presence);
  w.f64(config.atlas.eui64_share);
  fingerprint_atlas_analysis(w, config.sanitize, config.changes, isps,
                             config.metrics != nullptr);
  return io::ckpt::fnv1a(w.buffer());
}

void fingerprint_assoc(io::ckpt::Writer& w, const AssocOptions& assoc) {
  w.u8(assoc.require_asn_match ? 1 : 0);
  w.u32(assoc.max_gap_days);
}

std::uint64_t cdn_gen_fingerprint(
    const std::vector<cdn::PopulationEntry>& population,
    const CdnStudyConfig& config) {
  io::ckpt::Writer w;
  w.str("cdn.gen");
  w.i32(config.cdn.days);
  w.f64(config.cdn.subscriber_scale);
  w.u64(config.cdn.seed);
  w.f64(config.cdn.daily_activity);
  w.f64(config.cdn.cross_network_noise);
  fingerprint_assoc(w, config.assoc);
  w.u64(population.size());
  for (const auto& entry : population) {
    w.u32(entry.isp.asn);
    w.i32(entry.subscribers);
  }
  w.u8(config.metrics != nullptr ? 1 : 0);
  return io::ckpt::fnv1a(w.buffer());
}

/// The start of a file or stream study's fingerprint: the tag
/// `<study>.files` plus the input paths for a file study, the tag
/// `<study>.stream` alone for a stream — a stream's batch list grows over
/// its lifetime and is validated separately through the checkpoint's
/// consumed-batch high-water mark. The rest of the two fingerprints is the
/// same bytes.
io::ckpt::Writer dataset_fingerprint_head(
    std::string_view study, const std::vector<std::string>* paths) {
  io::ckpt::Writer w;
  w.str(std::string(study) + (paths ? ".files" : ".stream"));
  if (paths) {
    w.u64(paths->size());
    for (const auto& path : *paths) w.str(path);
  }
  return w;
}

// --- resume validation and state restore ---------------------------------

/// The contiguous item slice this process owns: all of [0, item_count)
/// normally, slice shard_index of shard_count in multi-process mode.
/// Processes whose slice is empty (more shards than items) get an empty
/// range at the end.
ShardRange process_slice(const CheckpointConfig& cc,
                         std::uint64_t item_count) {
  if (!cc.sharded()) return {0, std::size_t(item_count)};
  auto slices = shard_ranges(std::size_t(item_count), cc.shard_count);
  if (cc.shard_index < slices.size()) return slices[cc.shard_index];
  return {std::size_t(item_count), std::size_t(item_count)};
}

Status plan_shards(const CheckpointConfig& cc, std::uint32_t kind,
                   std::uint64_t fingerprint, std::uint64_t item_count,
                   unsigned threads, ShardPlan& plan) {
  if (cc.sharded() && cc.shard_index >= cc.shard_count)
    return Status(StatusCode::kInvalidArgument,
                  "shard index " + std::to_string(cc.shard_index) +
                      " is out of range for " +
                      std::to_string(cc.shard_count) + " shards");
  const ShardRange slice = process_slice(cc, item_count);
  if (!cc.resume) {
    plan.ranges = shard_ranges(slice.end - slice.begin, threads);
    for (auto& r : plan.ranges) {
      r.begin += slice.begin;
      r.end += slice.begin;
    }
    plan.next.clear();
    for (const auto& r : plan.ranges) plan.next.push_back(r.begin);
    return Status::Ok();
  }
  const io::StudyCheckpoint& ck = *cc.resume;
  if (ck.kind != kind)
    return Status(StatusCode::kFailedPrecondition,
                  std::string("checkpoint was written by the ") +
                      io::checkpoint_kind_name(ck.kind) +
                      " study and cannot resume the " +
                      io::checkpoint_kind_name(kind) + " study");
  if (ck.config_fingerprint != fingerprint)
    return Status(StatusCode::kFailedPrecondition,
                  "checkpoint config fingerprint does not match this run; "
                  "resume requires the exact original study parameters");
  if (ck.item_count != item_count)
    return Status(StatusCode::kFailedPrecondition,
                  "checkpoint covers " + std::to_string(ck.item_count) +
                      " work items but this run has " +
                      std::to_string(item_count) +
                      "; the dataset changed since the checkpoint");
  plan.ranges.clear();
  plan.next.clear();
  for (const auto& shard : ck.shards) {
    if (shard.begin > shard.end || shard.next < shard.begin ||
        shard.next > shard.end || shard.end > item_count)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: shard range [" +
                        std::to_string(shard.begin) + ", " +
                        std::to_string(shard.end) + ") next " +
                        std::to_string(shard.next) + " is not plausible");
    plan.ranges.push_back(
        {std::size_t(shard.begin), std::size_t(shard.end)});
    plan.next.push_back(std::size_t(shard.next));
  }
  // The restored ranges must tile this process's slice exactly — no gaps,
  // no overlap — or the ordered reduction would silently drop or repeat
  // items. Catches both corrupt shard tables and a checkpoint resumed
  // under different --shard parameters.
  std::vector<ShardRange> sorted = plan.ranges;
  std::sort(sorted.begin(), sorted.end(),
            [](const ShardRange& a, const ShardRange& b) {
              return a.begin < b.begin;
            });
  std::size_t cursor = slice.begin;
  for (const auto& r : sorted) {
    if (r.begin == r.end) continue;  // empty shards carry no items
    if (r.begin != cursor)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: shard ranges do not tile items [" +
                        std::to_string(slice.begin) + ", " +
                        std::to_string(slice.end) + ") (gap or overlap at " +
                        std::to_string(r.begin) + ")");
    cursor = r.end;
  }
  if (cursor != slice.end)
    return Status(StatusCode::kDataLoss,
                  "checkpoint is corrupt: shard ranges cover items up to " +
                      std::to_string(cursor) + " of [" +
                      std::to_string(slice.begin) + ", " +
                      std::to_string(slice.end) + ")");
  return Status::Ok();
}

template <typename Shard>
Status restore_shards(const CheckpointConfig& cc, std::vector<Shard>& shards,
                      obs::MetricsSink& sup, obs::MetricsRegistry* registry) {
  if (!cc.resume) return Status::Ok();
  const io::StudyCheckpoint& ck = *cc.resume;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    io::ckpt::Reader r(ck.shards[s].blob);
    if (!shards[s].load(r) || r.remaining() != 0)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: shard " + std::to_string(s) +
                        " state failed to parse");
  }
  if (registry && !ck.registry_blob.empty()) {
    obs::MetricsSink snapshot;
    io::ckpt::Reader r(ck.registry_blob);
    if (!snapshot.load(r) || r.remaining() != 0)
      return Status(
          StatusCode::kDataLoss,
          "checkpoint is corrupt: registry snapshot failed to parse");
    registry->merge(std::move(snapshot));
  }
  if (!ck.supervisor_blob.empty()) {
    io::ckpt::Reader r(ck.supervisor_blob);
    if (!sup.load(r) || r.remaining() != 0)
      return Status(
          StatusCode::kDataLoss,
          "checkpoint is corrupt: supervisor state failed to parse");
  }
  sup.counter("checkpoint.resumes").add(1);
  return Status::Ok();
}

// --- the supervised round loop -------------------------------------------

/// Run every shard to completion in rounds. Unsupervised (default
/// CheckpointConfig) this is a single round covering each shard's whole
/// range — exactly the legacy dispatch. Supervised, each round advances
/// every unfinished shard by at most `every_items` (or a small default)
/// items, the shutdown token is polled between rounds, and a checkpoint is
/// written after each round while work remains. An interrupt writes a final
/// checkpoint and returns kCancelled.
///
/// `process(s, from, to)` analyzes items [from, to) of shard s;
/// `save_shard(s)` serializes shard s's state (only called between rounds,
/// never concurrently with process).
template <typename ProcessRange, typename SaveShard>
Status drive_shards(ShardExecutor& exec, const CheckpointConfig& cc,
                    std::uint32_t kind, std::uint64_t fingerprint,
                    std::uint64_t item_count, ShardPlan& plan,
                    obs::MetricsRegistry* registry, obs::MetricsSink& sup,
                    const ProcessRange& process, const SaveShard& save_shard) {
  if (cc.every_items > 0 && cc.path.empty())
    return Status(StatusCode::kInvalidArgument,
                  "periodic checkpoints require a checkpoint path");
  if (cc.sharded() && cc.path.empty())
    return Status(StatusCode::kInvalidArgument,
                  "sharded runs require a checkpoint path (the completed "
                  "checkpoint is the shard's output)");
  const bool supervised = cc.active();
  const std::uint64_t chunk =
      cc.every_items ? cc.every_items : kDefaultRoundItems;

  auto all_done = [&] {
    for (std::size_t s = 0; s < plan.ranges.size(); ++s)
      if (plan.next[s] < plan.ranges[s].end) return false;
    return true;
  };

  // Snapshot the full mid-run state and write it durably. The registry
  // snapshot is taken here — before any partial shard sink is merged into
  // it — so a resumed process restoring it never double-counts.
  auto snapshot = [&]() -> Status {
    obs::PhaseTimer timer(&sup.phase("checkpoint.write"));
    io::StudyCheckpoint ck;
    ck.kind = kind;
    ck.config_fingerprint = fingerprint;
    ck.item_count = item_count;
    ck.shards.reserve(plan.ranges.size());
    for (std::size_t s = 0; s < plan.ranges.size(); ++s)
      ck.shards.push_back({plan.ranges[s].begin, plan.ranges[s].end,
                           plan.next[s], save_shard(s)});
    if (registry) {
      io::ckpt::Writer w;
      registry->snapshot().save(w);
      ck.registry_blob = w.take();
    }
    {
      io::ckpt::Writer w;
      sup.save(w);
      ck.supervisor_blob = w.take();
    }
    Status st = io::write_checkpoint(cc.path, ck);
    if (st.ok())
      sup.counter("checkpoint.writes").add(1);
    else
      sup.counter("checkpoint.write_failures").add(1);
    return st;
  };

  for (;;) {
    Status ran = exec.try_dispatch(plan.ranges.size(), [&](std::size_t s) {
      const std::size_t end = plan.ranges[s].end;
      std::size_t from = plan.next[s];
      std::size_t stop =
          supervised && chunk < end - from ? from + chunk : end;
      process(s, from, stop);
      plan.next[s] = stop;
    });
    if (!ran.ok()) return ran;
    if (supervised) sup.counter("checkpoint.rounds").add(1);
    if (all_done()) {
      // Shard mode: the completed checkpoint IS the output — the merge
      // step combines these per-process files and resumes from the
      // result, so the final write must happen even unsupervised.
      if (cc.sharded()) {
        Status wrote = snapshot();
        if (!wrote.ok()) return wrote;
      }
      return Status::Ok();
    }
    if (cc.token && cc.token->requested()) {
      sup.counter("checkpoint.interrupted").add(1);
      std::string note = "interrupted by shutdown request after " +
                         std::to_string([&] {
                           std::uint64_t done = 0;
                           for (std::size_t s = 0; s < plan.ranges.size(); ++s)
                             done += plan.next[s] - plan.ranges[s].begin;
                           return done;
                         }()) +
                         " of " + std::to_string(item_count) + " items";
      if (!cc.path.empty()) {
        Status wrote = snapshot();
        if (!wrote.ok()) return wrote;
        note += "; checkpoint written to " + cc.path;
      }
      return Status(StatusCode::kCancelled, note);
    }
    if (cc.every_items > 0) {
      Status wrote = snapshot();
      if (!wrote.ok()) return wrote;
    }
  }
}

// --- item sources ----------------------------------------------------------
//
// A source hands the study pass its items [0, size()) by index and names
// its own metrics: the item counter, the phase timing each item's
// production (generators only; loaded datasets are timed once, as
// `<study>.ingest`), and what it folds into the pass's metrics at the end.
// Generated items are returned by value, stored ones by const reference,
// so the in-memory source never copies the dataset.

struct AtlasGenerator {
  static constexpr const char* items_counter = "atlas.probes_generated";
  static constexpr const char* produce_phase = "atlas.generate";
  const atlas::AtlasSimulator& sim;

  std::size_t size() const { return sim.probe_count(); }
  // Per-probe generation is a pure function of (config, isps, index), so
  // shards share the simulator read-only.
  atlas::ProbeSeries item(std::size_t i) const { return sim.series_for(i); }
  /// `complete` is false for an interrupted pass.
  void publish(obs::MetricsSink& m, bool complete) const {
    if (complete) sim.publish_metrics(m);
  }
};

struct CdnGenerator {
  static constexpr const char* items_counter = "cdn.logs_generated";
  static constexpr const char* produce_phase = "cdn.generate";
  const cdn::CdnSimulator& sim;

  std::size_t size() const { return sim.entry_count(); }
  cdn::AssociationLog item(std::size_t i) const { return sim.generate(i); }
  void publish(obs::MetricsSink& m, bool complete) const {
    if (complete) sim.publish_metrics(m);
  }
};

template <typename Item>
struct InMemory {
  static constexpr const char* produce_phase = nullptr;
  const std::vector<Item>& items;
  const char* items_counter;
  /// Ingest metrics, folded in whether or not the pass completes; null
  /// when there are none.
  obs::MetricsSink* ingest;

  std::size_t size() const { return items.size(); }
  const Item& item(std::size_t i) const { return items[i]; }
  void publish(obs::MetricsSink& m, bool) const {
    if (ingest) m.merge(std::move(*ingest));
  }
};

// --- the study pass ----------------------------------------------------------
//
// One full sharded analysis of `source`: plan (or restore) the shard
// partition, drive the shards through `exec`, reduce in index order, and
// extract the finalized results into `study` via the analyzers'
// non-consuming snapshot()s. Every study runs through here — generator
// runs, one-shot _from_files runs and the streaming driver's
// re-finalization passes — which is what makes a clean export's file study
// byte-identical to the generator run, and an incremental stream
// byte-identical to a one-shot run over the same batches. `metrics` is
// passed explicitly (not read from the study config) so the streaming
// driver can run intermediate passes unrecorded and record only the final
// one.

template <typename Kind, typename Source, typename MakeShard>
Status analysis_pass(const Source& source, const MakeShard& make_shard,
                     obs::MetricsRegistry* metrics, ShardExecutor& exec,
                     const CheckpointConfig& cc, std::uint32_t kind,
                     std::uint64_t fingerprint,
                     typename Kind::Study& study) {
  const std::string name(Kind::kName);
  ShardPlan plan;
  Status planned = plan_shards(cc, kind, fingerprint, source.size(),
                               exec.thread_count(), plan);
  if (!planned.ok()) return planned;

  std::vector<Kind> shards;
  shards.reserve(plan.ranges.size());
  for (std::size_t s = 0; s < plan.ranges.size(); ++s)
    shards.push_back(make_shard());
  obs::MetricsSink sup;
  Status restored = restore_shards(cc, shards, sup, metrics);
  if (!restored.ok()) return restored;

  // Each shard writes only its own state, so shards race on nothing.
  auto process = [&](std::size_t s, std::size_t from, std::size_t to) {
    Kind& shard = shards[s];
    std::optional<typename Kind::Meters> meters;
    if (metrics)
      meters.emplace(shard.metrics, source.items_counter,
                     source.produce_phase);
    typename Kind::Meters* m = meters ? &*meters : nullptr;
    const std::uint64_t shard_start = m ? obs::now_ns() : 0;
    for (std::size_t i = from; i < to; ++i) {
      const std::uint64_t t = m ? obs::now_ns() : 0;
      shard.add(source.item(i), m, t);
    }
    if (m)
      shard.metrics.phase(name + ".shard_wall")
          .record(obs::now_ns() - shard_start);
  };
  auto save_shard = [&](std::size_t s) {
    io::ckpt::Writer w;
    shards[s].save(w);
    return w.take();
  };

  Status drove = drive_shards(exec, cc, kind, fingerprint, source.size(),
                              plan, metrics, sup, process, save_shard);
  if (!drove.ok()) {
    // The checkpoint (if any) is already durable; fold the partial shard
    // sinks into the registry so an interrupted tool run can still report.
    if (metrics) {
      obs::MetricsSink partial;
      for (Kind& shard : shards) partial.merge(std::move(shard.metrics));
      source.publish(partial, /*complete=*/false);
      partial.merge(std::move(sup));
      metrics->merge(std::move(partial));
    }
    return drove;
  }

  std::vector<std::uint64_t> shard_ns;
  if (metrics)
    for (Kind& shard : shards)
      shard_ns.push_back(shard.metrics.phase(name + ".shard_wall").total_ns);

  // Ordered reduction: shard 0 absorbs the rest in index order, which keeps
  // every append-ordered vector in the exact order of the serial run.
  Kind& root = shards.front();
  const std::uint64_t t0 = metrics ? obs::now_ns() : 0;
  for (std::size_t s = 1; s < shards.size(); ++s)
    root.merge(std::move(shards[s]));
  const std::uint64_t t1 = metrics ? obs::now_ns() : 0;
  root.finalize();
  root.extract(study);
  if (!metrics) return Status::Ok();

  obs::MetricsSink& m = root.metrics;
  m.phase(name + ".merge").record(t1 - t0);
  m.phase(name + ".finalize").record(obs::now_ns() - t1);
  root.publish(study);
  source.publish(m, /*complete=*/true);
  m.gauge(name + ".shards").set(double(plan.ranges.size()));
  m.gauge(name + ".shard_imbalance").set(imbalance_ratio(shard_ns));
  m.merge(std::move(sup));
  metrics->merge(std::move(m));
  return Status::Ok();
}

}  // namespace

Expected<AtlasStudy> run_atlas_study_supervised(
    const std::vector<simnet::IspProfile>& isps,
    const AtlasStudyConfig& config, const CheckpointConfig& checkpoint) {
  AtlasStudy study;
  simnet::announce_all(isps, study.rib);
  for (const auto& isp : isps) study.as_names[isp.asn] = isp.name;

  atlas::AtlasSimulator sim(isps, config.atlas);
  ShardExecutor exec(config.threads);
  Status ran = analysis_pass<AtlasShard>(
      AtlasGenerator{sim},
      [&] { return AtlasShard(study.rib, config.sanitize, config.changes); },
      config.metrics, exec, checkpoint, io::kCkptAtlasGen,
      atlas_gen_fingerprint(isps, config), study);
  if (!ran.ok()) return ran.with_context("atlas study");
  return study;
}

AtlasStudy run_atlas_study(const std::vector<simnet::IspProfile>& isps,
                           const AtlasStudyConfig& config) {
  auto study = run_atlas_study_supervised(isps, config, {});
  if (!study.ok()) throw std::runtime_error(study.status().to_string());
  return study.take();
}

Expected<CdnStudy> run_cdn_study_supervised(
    const std::vector<cdn::PopulationEntry>& population,
    const CdnStudyConfig& config, const CheckpointConfig& checkpoint) {
  cdn::CdnSimulator sim(population, config.cdn);
  CdnStudy study;
  for (const auto& entry : population)
    study.asn_names[entry.isp.asn] = entry.isp.name;

  const std::unordered_set<bgp::Asn> mobile = sim.mobile_asns();
  ShardExecutor exec(config.threads);
  Status ran = analysis_pass<CdnShard>(
      CdnGenerator{sim}, [&] { return CdnShard(config.assoc, mobile); },
      config.metrics, exec, checkpoint, io::kCkptCdnGen,
      cdn_gen_fingerprint(population, config), study);
  if (!ran.ok()) return ran.with_context("cdn study");
  return study;
}

CdnStudy run_cdn_study(const std::vector<cdn::PopulationEntry>& population,
                       const CdnStudyConfig& config) {
  auto study = run_cdn_study_supervised(population, config, {});
  if (!study.ok()) throw std::runtime_error(study.status().to_string());
  return study.take();
}

// --------------------------------------------------- streaming entrypoints

bool natural_name_less(std::string_view a, std::string_view b) {
  auto digit = [](char c) { return c >= '0' && c <= '9'; };
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (digit(a[i]) && digit(b[j])) {
      std::size_t ia = i, jb = j;
      while (ia < a.size() && digit(a[ia])) ++ia;
      while (jb < b.size() && digit(b[jb])) ++jb;
      std::size_t za = i, zb = j;
      while (za < ia && a[za] == '0') ++za;  // strip leading zeros
      while (zb < jb && b[zb] == '0') ++zb;
      std::string_view va = a.substr(za, ia - za);
      std::string_view vb = b.substr(zb, jb - zb);
      if (va.size() != vb.size()) return va.size() < vb.size();
      if (va != vb) return va < vb;
      if (ia - i != jb - j) return ia - i < jb - j;
      i = ia;
      j = jb;
      continue;
    }
    if (a[i] != b[j]) return a[i] < b[j];
    ++i;
    ++j;
  }
  return a.size() - i < b.size() - j;
}

namespace {

// --- watch-directory scanning ---------------------------------------------

/// Unconsumed batch files in `watch_dir`, sorted by natural name order —
/// the stream's consumption order. Dotfiles, in-flight `.tmp` writes and
/// the stop sentinel are skipped. The byte-identity guarantee assumes
/// producers number batches monotonically (tools/stream_feed.py does);
/// numeric ordering means a feed outgrowing its zero-pad width keeps
/// consuming in production order instead of silently replaying
/// `batch-1000` before `batch-999`. Late out-of-order arrivals are still
/// consumed, just merged in arrival order.
std::vector<std::filesystem::path> scan_batches(
    const std::string& watch_dir, const std::string& sentinel,
    const std::set<std::string>& consumed) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(watch_dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string name = entry.path().filename().string();
    if (name.empty() || name[0] == '.') continue;
    if (name == sentinel) continue;
    if (name.ends_with(".tmp")) continue;
    if (consumed.count(name)) continue;
    out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end(),
            [](const std::filesystem::path& a, const std::filesystem::path& b) {
              return natural_name_less(a.filename().string(),
                                       b.filename().string());
            });
  return out;
}

/// Seconds between a batch file's mtime and now — the stream.lag_seconds
/// gauge: how far ingestion trails production.
double batch_lag_seconds(const std::filesystem::path& path) {
  std::error_code ec;
  auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return 0.0;
  auto delta = std::chrono::duration_cast<std::chrono::duration<double>>(
      std::filesystem::file_time_type::clock::now() - mtime);
  return delta.count() > 0 ? delta.count() : 0.0;
}

// --- consumed-batch ledger --------------------------------------------------
//
// The published batch files are the stream's durable state. A stream
// checkpoint's one shard blob holds, per consumed batch in consumption
// order, the file's byte size and whole-file CRC32 — a few bytes per
// batch, however large the accumulated dataset grows. A resume checks every
// consumed batch against the ledger, then re-loads them.

struct BatchDigest {
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

Expected<BatchDigest> digest_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status(StatusCode::kNotFound, "cannot open batch: " + path.string());
  BatchDigest d;
  std::string chunk(std::size_t(1) << 20, '\0');
  while (in) {
    in.read(chunk.data(), std::streamsize(chunk.size()));
    const std::size_t n = std::size_t(in.gcount());
    d.crc = io::ckpt::crc32(std::string_view(chunk.data(), n), d.crc);
    d.size += n;
  }
  if (in.bad())
    return Status(StatusCode::kInternal, "cannot read batch: " + path.string());
  return d;
}

/// Refuse (kDataLoss, naming the batch) unless the consumed batch `name`
/// in `watch_dir` is still byte-for-byte the file the ledger recorded.
Status verify_batch(const std::string& watch_dir, const std::string& name,
                    const BatchDigest& want) {
  auto refuse = [&](const std::string& what) {
    return Status(StatusCode::kDataLoss,
                  "consumed batch " + name + " " + what +
                      "; a resumed stream re-reads its consumed batches, so "
                      "they must stay unchanged in the watch directory "
                      "until the stream completes");
  };
  Expected<BatchDigest> got =
      digest_file(std::filesystem::path(watch_dir) / name);
  if (!got.ok()) return refuse("is missing or unreadable");
  if (got->size != want.size)
    return refuse("changed size since it was consumed (" +
                  std::to_string(want.size) + " bytes recorded, " +
                  std::to_string(got->size) + " found)");
  if (got->crc != want.crc)
    return refuse("changed content since it was consumed (CRC32 mismatch)");
  return Status::Ok();
}

// --- dataset study policies -------------------------------------------------
//
// The per-study glue the one-shot _from_files entrypoints and the generic
// follow_stream() loop share: how to fingerprint the config, how to load a
// batch, and how to run one analysis pass over the accumulated dataset.

struct AtlasPolicy {
  const std::vector<simnet::IspProfile>& isps;
  const AtlasFileStudyConfig& config;
  ShardExecutor& exec;

  using Dataset = std::vector<atlas::ProbeSeries>;
  using Study = AtlasStudy;
  static constexpr std::string_view name = AtlasShard::kName;
  static constexpr std::uint32_t file_kind = io::kCkptAtlasFile;
  static constexpr std::uint32_t stream_kind = io::kCkptAtlasStream;

  /// `paths` is null for a stream; see dataset_fingerprint_head.
  std::uint64_t fingerprint(const std::vector<std::string>* paths) const {
    io::ckpt::Writer w = dataset_fingerprint_head(name, paths);
    w.f64(config.reader.max_reject_fraction);
    w.u64(config.reader.max_consecutive_rejects);
    fingerprint_atlas_analysis(w, config.sanitize, config.changes, isps,
                               config.metrics != nullptr);
    return io::ckpt::fnv1a(w.buffer());
  }

  Status load_batch(const std::string& path, const io::ReaderOptions& ropts,
                    io::IngestStats* ingest, Dataset& dataset,
                    std::uint64_t& records) const {
    auto part = io::load_echo_file(path, ropts, ingest);
    if (!part.ok()) return part.status();
    Dataset batch = part.take();
    records = 0;
    for (const atlas::ProbeSeries& series : batch)
      records += series.records.size();
    io::merge_echo_datasets(dataset, std::move(batch));
    return Status::Ok();
  }

  void init_study(Study& study) const {
    simnet::announce_all(isps, study.rib);
    for (const auto& isp : isps) study.as_names[isp.asn] = isp.name;
  }

  Status run_pass(Dataset& dataset, obs::MetricsRegistry* registry,
                  const CheckpointConfig& cc, std::uint32_t kind,
                  std::uint64_t fp, obs::MetricsSink* ingest_sink,
                  Study& study) const {
    return analysis_pass<AtlasShard>(
        InMemory<atlas::ProbeSeries>{dataset, "atlas.probes_loaded",
                                     ingest_sink},
        [&] { return AtlasShard(study.rib, config.sanitize, config.changes); },
        registry, exec, cc, kind, fp, study);
  }
};

struct CdnPolicy {
  const CdnFileStudyConfig& config;
  ShardExecutor& exec;

  using Dataset = std::vector<cdn::AssociationLog>;
  using Study = CdnStudy;
  static constexpr std::string_view name = CdnShard::kName;
  static constexpr std::uint32_t file_kind = io::kCkptCdnFile;
  static constexpr std::uint32_t stream_kind = io::kCkptCdnStream;

  std::uint64_t fingerprint(const std::vector<std::string>* paths) const {
    io::ckpt::Writer w = dataset_fingerprint_head(name, paths);
    fingerprint_assoc(w, config.assoc);
    w.f64(config.reader.max_reject_fraction);
    w.u64(config.reader.max_consecutive_rejects);
    // Unordered-set iteration order is not canonical; sort before hashing.
    std::vector<bgp::Asn> mobile(config.mobile_asns.begin(),
                                 config.mobile_asns.end());
    std::sort(mobile.begin(), mobile.end());
    w.u64(mobile.size());
    for (bgp::Asn asn : mobile) w.u32(asn);
    w.u64(config.registries.size());
    for (const auto& [asn, registry] : config.registries) {
      w.u32(asn);
      w.u8(std::uint8_t(registry));
    }
    w.u8(config.metrics != nullptr ? 1 : 0);
    return io::ckpt::fnv1a(w.buffer());
  }

  Status load_batch(const std::string& path, const io::ReaderOptions& ropts,
                    io::IngestStats* ingest, Dataset& dataset,
                    std::uint64_t& records) const {
    auto part = io::load_assoc_file(path, ropts, ingest);
    if (!part.ok()) return part.status();
    Dataset batch = part.take();
    records = 0;
    for (const cdn::AssociationLog& log : batch) records += log.records.size();
    io::merge_assoc_datasets(dataset, std::move(batch));
    return Status::Ok();
  }

  void init_study(Study& study) const { study.asn_names = config.asn_names; }

  Status run_pass(Dataset& dataset, obs::MetricsRegistry* registry,
                  const CheckpointConfig& cc, std::uint32_t kind,
                  std::uint64_t fp, obs::MetricsSink* ingest_sink,
                  Study& study) const {
    // The CSV schema carries no access-type or registry attribution; graft
    // the caller's ground truth onto the loaded logs. Idempotent — the
    // streaming driver re-grafts on every re-finalization pass.
    for (auto& log : dataset) {
      log.mobile = config.mobile_asns.count(log.asn) > 0;
      auto reg = config.registries.find(log.asn);
      log.registry =
          reg == config.registries.end() ? bgp::Registry::kRipe : reg->second;
    }
    return analysis_pass<CdnShard>(
        InMemory<cdn::AssociationLog>{dataset, "cdn.logs_loaded", ingest_sink},
        [&] { return CdnShard(config.assoc, config.mobile_asns); }, registry,
        exec, cc, kind, fp, study);
  }
};

// --- one-shot file studies ---------------------------------------------------

/// Load `paths` one after another into one dataset (later files merge into
/// earlier probes/logs; load_batch dispatches CSV vs columnar by extension,
/// so `.col` batches ride alongside `.csv`), then run one analysis pass.
template <typename Policy>
Expected<typename Policy::Study> study_from_files(
    const Policy& policy, const std::vector<std::string>& paths,
    io::IngestStats* ingest, const CheckpointConfig& checkpoint) {
  const std::string label = std::string(Policy::name) + " study";
  obs::MetricsRegistry* metrics = policy.config.metrics;

  // Ingest metrics land in a local sink merged into the registry at the
  // end, like every per-shard sink (no locks while loading). The sink is
  // never checkpointed: a resumed run re-ingests the same files and
  // reproduces identical ingest counters.
  obs::MetricsSink ingest_sink;
  io::ReaderOptions ropts = policy.config.reader;
  if (metrics && !ropts.metrics) ropts.metrics = &ingest_sink;

  typename Policy::Dataset dataset;
  const std::uint64_t load_start = obs::now_ns();
  for (const auto& path : paths) {
    std::uint64_t records = 0;
    Status loaded = policy.load_batch(path, ropts, ingest, dataset, records);
    if (!loaded.ok()) return loaded.with_context(path).with_context(label);
  }
  const std::uint64_t load_ns = obs::now_ns() - load_start;
  if (ingest) ingest->load_wall_ns += load_ns;
  if (metrics)
    ingest_sink.phase(std::string(Policy::name) + ".ingest").record(load_ns);

  typename Policy::Study study;
  policy.init_study(study);
  Status ran = policy.run_pass(dataset, metrics, checkpoint, Policy::file_kind,
                               policy.fingerprint(&paths), &ingest_sink,
                               study);
  if (!ran.ok()) return ran.with_context(label);
  return study;
}

// --- the stream loop ------------------------------------------------------

template <typename Policy, typename SnapshotFn>
Expected<typename Policy::Study> follow_stream(const Policy& policy,
                                               const std::string& watch_dir,
                                               const StreamConfig& stream,
                                               const SnapshotFn& on_snapshot,
                                               io::IngestStats* ingest,
                                               StreamStats* stats_out) {
  namespace fs = std::filesystem;
  using Study = typename Policy::Study;
  constexpr std::uint32_t kind = Policy::stream_kind;
  const std::string label = std::string(Policy::name) + " stream";

  std::error_code ec;
  if (!fs::is_directory(watch_dir, ec))
    return Status(StatusCode::kNotFound,
                  label + ": watch directory does not exist: " + watch_dir);

  const std::uint64_t fingerprint = policy.fingerprint(nullptr);
  obs::MetricsRegistry* metrics = policy.config.metrics;

  // All stream-side accounting (`ingest.*`, `stream.*`, `checkpoint.*`)
  // accumulates in one sink persisted inside every checkpoint: it travels
  // with the high-water mark, so a resume's re-read of the consumed batches
  // records nothing a second time.
  obs::MetricsSink sink;
  typename Policy::Dataset dataset;
  std::vector<std::string> consumed;
  std::vector<BatchDigest> ledger;  // one per `consumed` entry
  StreamStats stats;

  if (stream.resume) {
    const io::StudyCheckpoint& ck = *stream.resume;
    if (ck.kind != kind)
      return Status(StatusCode::kFailedPrecondition,
                    std::string("checkpoint was written by the ") +
                        io::checkpoint_kind_name(ck.kind) +
                        " study and cannot resume the " +
                        io::checkpoint_kind_name(kind) + " study");
    if (ck.config_fingerprint != fingerprint)
      return Status(StatusCode::kFailedPrecondition,
                    "checkpoint config fingerprint does not match this run; "
                    "resume requires the exact original stream parameters");
    if (ck.item_count != ck.consumed.size() || ck.shards.size() != 1)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: stream batch accounting is "
                    "inconsistent");
    io::ckpt::Reader r(ck.shards.front().blob);
    ledger.resize(ck.consumed.size());
    for (BatchDigest& d : ledger) {
      d.size = r.u64();
      d.crc = r.u32();
    }
    if (!r.ok() || r.remaining() != 0)
      return Status(StatusCode::kDataLoss,
                    "checkpoint is corrupt: consumed-batch ledger failed to "
                    "parse");
    if (!ck.supervisor_blob.empty()) {
      io::ckpt::Reader sr(ck.supervisor_blob);
      if (!sink.load(sr) || sr.remaining() != 0)
        return Status(StatusCode::kDataLoss,
                      "checkpoint is corrupt: stream accounting failed to "
                      "parse");
    }
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      Status same = verify_batch(watch_dir, ck.consumed[i], ledger[i]);
      if (!same.ok()) return same.with_context(label);
    }
    consumed = ck.consumed;
    sink.counter("checkpoint.resumes").add(1);
    stats.batches = consumed.size();
    stats.records = sink.counter("stream.records").value;
    stats.refinalizes = sink.counter("stream.refinalize").value;
  }

  std::set<std::string> consumed_set(consumed.begin(), consumed.end());
  std::uint64_t batches_since_refinalize = 0;
  auto last_refinalize = std::chrono::steady_clock::now();

  io::ReaderOptions base_ropts = policy.config.reader;
  if (metrics && !base_ropts.metrics) base_ropts.metrics = &sink;

  auto publish_stats = [&] {
    if (stats_out) *stats_out = stats;
  };

  // --- transient-IO retry policy ---
  // Bounded attempts with exponential backoff; the jitter comes from
  // splitmix64 over the configured seed, never from a clock, so a replayed
  // chaos run makes the identical retry/sleep decisions.
  const std::uint64_t max_attempts =
      stream.io_retry_attempts > 0 ? stream.io_retry_attempts : 1;
  auto backoff_ms = [&](std::uint64_t salt,
                        std::uint64_t attempt) -> std::uint64_t {
    const std::uint64_t base =
        stream.io_retry_base_ms > 0 ? stream.io_retry_base_ms : 1;
    const std::uint64_t shift = attempt < 10 ? attempt : 10;
    const std::uint64_t jitter =
        splitmix64(stream.io_retry_seed ^ salt ^ attempt) % (base + 1);
    return (base << shift) + jitter;
  };

  // A giveup is resumable when a durable batch high-water mark exists on
  // disk: the atomic checkpoint writer never tears the previous snapshot,
  // so the run can exit kCancelled (exit 3, `--resume-from`) instead of
  // failing outright and discarding the accumulated stream state.
  auto resumable_or = [&](Status failed) -> Status {
    if (!stream.checkpoint_path.empty() &&
        sink.counter("checkpoint.writes").value > 0)
      return Status(StatusCode::kCancelled,
                    label + ": giving up after repeated IO failures; the "
                            "last durable checkpoint at " +
                        stream.checkpoint_path + " is intact (" +
                        failed.message() + ")");
    return failed;
  };

  // Snapshot the batch high-water mark durably: the consumed-batch list,
  // its size/CRC ledger, and the stream accounting sink. Written after
  // every batch; its size grows by a few bytes per batch, never with the
  // accumulated dataset.
  auto write_stream_checkpoint = [&]() -> Status {
    if (stream.checkpoint_path.empty()) return Status::Ok();
    obs::PhaseTimer timer(&sink.phase("checkpoint.write"));
    io::StudyCheckpoint ck;
    ck.kind = kind;
    ck.config_fingerprint = fingerprint;
    ck.item_count = consumed.size();
    io::ckpt::Writer w;
    for (const BatchDigest& d : ledger) {
      w.u64(d.size);
      w.u32(d.crc);
    }
    ck.shards.push_back({0, consumed.size(), consumed.size(), w.take()});
    ck.consumed = consumed;
    io::ckpt::Writer sw;
    sink.save(sw);
    ck.supervisor_blob = sw.take();
    Status wrote = Status::Ok();
    for (std::uint64_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        sink.counter("io.retries").add(1);
        interruptible_sleep_ms(
            backoff_ms(/*salt=*/0x636b7074 /*'ckpt'*/, attempt - 1),
            stream.token);
      }
      wrote = io::write_checkpoint(stream.checkpoint_path, ck);
      if (wrote.ok()) {
        sink.counter("checkpoint.writes").add(1);
        return wrote;
      }
      sink.counter("checkpoint.write_failures").add(1);
    }
    sink.counter("io.giveups").add(1);
    return wrote;
  };

  // Load one batch with bounded retries. Each attempt reopens the file and
  // feeds attempt-local ingest stats and metrics; only a fully successful
  // read merges into the dataset (load_batch's contract). A live batch
  // (`live` non-null) first records its size and CRC there, and only its
  // successful attempt's reader accounting reaches the stream, so a retried
  // batch leaves `ingest.*` identical to a fault-free run. A replayed
  // batch's reader accounting (ingest.*, quarantine lines, governor shed
  // counts) is dropped: the restored sink already holds it.
  auto load_with_retries = [&](const fs::path& path, BatchDigest* live,
                               std::uint64_t& records) -> Status {
    const std::uint64_t batch_salt =
        splitmix64(std::hash<std::string>{}(path.filename().string()));
    Status loaded = Status::Ok();
    for (std::uint64_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (attempt > 0) {
        sink.counter("io.retries").add(1);
        interruptible_sleep_ms(backoff_ms(batch_salt, attempt - 1),
                               stream.token);
      }
      if (live) {
        Expected<BatchDigest> digest = digest_file(path);
        if (!digest.ok()) {
          loaded = digest.status();
          continue;
        }
        *live = *digest;
      }
      io::ReaderOptions ropts = base_ropts;
      ropts.source_label = path.string();
      // Disk soft pressure: shed quarantine copies of rejected lines —
      // diagnostics, not data; rejects stay counted in `ingest.*` and the
      // shed volume in `resource.quarantine_shed`.
      ropts.shed_quarantine = stream.governor && stream.governor->disk_soft();
      if (!live) ropts.quarantine = nullptr;
      obs::MetricsSink attempt_sink;
      if (base_ropts.metrics) ropts.metrics = &attempt_sink;
      io::IngestStats attempt_ingest;
      records = 0;
      loaded = policy.load_batch(path.string(), ropts, &attempt_ingest,
                                 dataset, records);
      if (loaded.ok()) {
        if (!live) return loaded;
        if (ingest) ingest->merge(attempt_ingest);
        if (stream.governor)
          stream.governor->count("quarantine_shed",
                                 attempt_ingest.quarantine_shed);
        if (base_ropts.metrics)
          base_ropts.metrics->merge(std::move(attempt_sink));
        return loaded;
      }
    }
    sink.counter("io.giveups").add(1);
    return loaded;
  };

  // One re-finalization: a full sharded analysis pass over the accumulated
  // dataset through the persistent executor. Intermediate passes run with a
  // null registry (no metric records, no throwaway totals); only the final
  // pass records analysis metrics and folds the stream sink in, so the
  // registry ends up identical to a one-shot run over the same batches.
  auto refinalize = [&](bool final_pass) -> Expected<Study> {
    sink.counter("stream.refinalize").add(1);
    ++stats.refinalizes;
    Study study;
    policy.init_study(study);
    CheckpointConfig cc;
    cc.token = stream.token;  // poll between rounds; the batch high-water
                              // mark checkpoint is already durable, so no
                              // mid-pass snapshot is needed
    Status ran = policy.run_pass(dataset, final_pass ? metrics : nullptr, cc,
                                 kind, fingerprint,
                                 final_pass ? &sink : nullptr, study);
    if (!ran.ok()) return ran;
    return study;
  };

  auto timer_due = [&] {
    if (stream.refinalize_seconds <= 0) return false;
    auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - last_refinalize);
    return elapsed.count() >= stream.refinalize_seconds;
  };

  // Intermediate re-finalizations are a *publication* convenience — the
  // final pass always runs — which makes them the stream's pressure
  // release valve: deferring one under memory pressure (the pass builds a
  // full per-shard analyzer set over the accumulated dataset) or skipping
  // one while ingestion lags cannot change the final outputs. Both are
  // counted, never silent.
  double last_lag = 0.0;
  bool mem_pressure_prev = false;
  auto intermediate_allowed = [&]() -> bool {
    if (stream.governor && stream.governor->memory_pressure()) {
      stream.governor->count("refinalize_deferred");
      return false;
    }
    if (stream.max_lag_seconds > 0 && last_lag > stream.max_lag_seconds) {
      sink.counter("stream.refinalize_skipped").add(1);
      return false;
    }
    return true;
  };

  // Resume: re-load the verified consumed batches one by one in
  // consumption order — the exact sequence of load_batch calls the live
  // stream made — which rebuilds the dataset the high-water mark describes.
  // The token is polled between batches; an interrupt leaves the
  // checkpoint being resumed untouched.
  auto interrupted = [&] { return stream.token && stream.token->requested(); };
  for (std::size_t i = 0; i < consumed.size() && !interrupted(); ++i) {
    std::uint64_t records = 0;
    Status loaded = load_with_retries(fs::path(watch_dir) / consumed[i],
                                      nullptr, records);
    if (!loaded.ok()) {
      publish_stats();
      return resumable_or(loaded.with_context(consumed[i]));
    }
  }
  if (!consumed.empty() && interrupted()) {
    publish_stats();
    return Status(StatusCode::kCancelled,
                  label + " interrupted by shutdown request while re-reading "
                          "its consumed batches; the checkpoint it resumed "
                          "from is intact");
  }

  for (;;) {
    if (interrupted()) {
      sink.counter("checkpoint.interrupted").add(1);
      std::string note = label + " interrupted by shutdown request after " +
                         std::to_string(stats.batches) + " consumed batches";
      if (!stream.checkpoint_path.empty()) {
        Status wrote = write_stream_checkpoint();
        if (!wrote.ok()) {
          publish_stats();
          return resumable_or(wrote);
        }
        note += "; checkpoint written to " + stream.checkpoint_path;
      }
      publish_stats();
      return Status(StatusCode::kCancelled, note);
    }

    if (auto fp = core::failpoint("stream.scan"); fp) {
      if (fp.is_error()) {
        // Transient directory-scan failure: nothing was consumed and
        // nothing merged, so treat it like an empty poll — count the retry,
        // back off, rescan. The shutdown token above keeps even a
        // persistently failing scan drainable.
        sink.counter("io.retries").add(1);
        interruptible_sleep_ms(stream.poll_ms, stream.token);
        continue;
      }
      core::failpoint_sleep(fp);
    }
    std::vector<fs::path> fresh =
        scan_batches(watch_dir, stream.stop_sentinel, consumed_set);
    const bool sentinel_present =
        !stream.stop_sentinel.empty() &&
        fs::exists(fs::path(watch_dir) / stream.stop_sentinel, ec);
    const bool reached_cap =
        stream.max_batches > 0 && stats.batches >= stream.max_batches;

    // Bound the per-sweep backlog: a burst of batches still gets consumed,
    // just across several sweeps, keeping the work list (and the time
    // between token/governor polls at the sweep boundary) bounded.
    if (stream.max_backlog_batches > 0 &&
        fresh.size() > stream.max_backlog_batches)
      fresh.resize(stream.max_backlog_batches);
    sink.gauge("stream.backlog_batches").set(double(fresh.size()));
    if (stream.governor) {
      stream.governor->note_backlog(fresh.size());
      // Memory-pressure rising edge: force the high-water mark to disk
      // *now*, while the process is still healthy enough to write it — if
      // the kernel OOM-kills us anyway, the supervisor resumes from here.
      const bool mem = stream.governor->memory_pressure();
      if (mem && !mem_pressure_prev) {
        stream.governor->count("early_checkpoints");
        Status wrote = write_stream_checkpoint();
        if (!wrote.ok()) {
          publish_stats();
          return resumable_or(wrote);
        }
      }
      mem_pressure_prev = mem;
    }

    if (reached_cap || (fresh.empty() && sentinel_present)) {
      Expected<Study> final_study = refinalize(/*final_pass=*/true);
      publish_stats();
      if (!final_study.ok()) {
        Status st = final_study.status();
        return st.with_context(label);
      }
      return final_study;
    }

    if (fresh.empty()) {
      if (on_snapshot && batches_since_refinalize > 0 && timer_due() &&
          intermediate_allowed()) {
        Expected<Study> snap = refinalize(/*final_pass=*/false);
        if (!snap.ok()) {
          Status st = snap.status();
          publish_stats();
          return st.with_context(label);
        }
        on_snapshot(snap.value(), stats);
        batches_since_refinalize = 0;
        last_refinalize = std::chrono::steady_clock::now();
        publish_stats();
        continue;
      }
      interruptible_sleep_ms(stream.poll_ms, stream.token);
      continue;
    }

    for (const fs::path& path : fresh) {
      if (interrupted()) break;
      if (stream.max_batches > 0 && stats.batches >= stream.max_batches)
        break;

      // Disk hard pressure: pause ingest until space recovers. The
      // high-water mark on disk is intact and the token stays polled, so
      // a pause is interruptible and resume-safe at any point.
      if (stream.governor && stream.governor->disk_hard()) {
        stream.governor->count("ingest_pauses");
        while (stream.governor->disk_hard() &&
               !interrupted())
          interruptible_sleep_ms(stream.poll_ms, stream.token);
        if (interrupted()) break;
      }

      const double lag = batch_lag_seconds(path);
      last_lag = lag;
      BatchDigest digest;
      std::uint64_t records = 0;
      Status loaded = load_with_retries(path, &digest, records);
      if (!loaded.ok()) {
        publish_stats();
        return resumable_or(loaded.with_context(path.string()));
      }

      const std::string name = path.filename().string();
      consumed.push_back(name);
      ledger.push_back(digest);
      consumed_set.insert(name);
      ++stats.batches;
      stats.records += records;
      sink.counter("stream.batches").add(1);
      sink.counter("stream.records").add(records);
      sink.gauge("stream.lag_seconds").set(lag);
      ++batches_since_refinalize;

      Status wrote = write_stream_checkpoint();
      if (!wrote.ok()) {
        publish_stats();
        return resumable_or(wrote);
      }
      publish_stats();

      if (on_snapshot &&
          ((stream.refinalize_every_batches > 0 &&
            batches_since_refinalize >= stream.refinalize_every_batches) ||
           timer_due()) &&
          intermediate_allowed()) {
        Expected<Study> snap = refinalize(/*final_pass=*/false);
        if (!snap.ok()) {
          Status st = snap.status();
          publish_stats();
          return st.with_context(label);
        }
        on_snapshot(snap.value(), stats);
        batches_since_refinalize = 0;
        last_refinalize = std::chrono::steady_clock::now();
        publish_stats();
      }
    }
  }
}

}  // namespace

Expected<AtlasStudy> run_atlas_study_from_files(
    const std::vector<std::string>& paths,
    const std::vector<simnet::IspProfile>& isps,
    const AtlasFileStudyConfig& config, io::IngestStats* ingest,
    const CheckpointConfig& checkpoint) {
  ShardExecutor exec(config.threads);
  return study_from_files(AtlasPolicy{isps, config, exec}, paths, ingest,
                          checkpoint);
}

Expected<CdnStudy> run_cdn_study_from_files(
    const std::vector<std::string>& paths, const CdnFileStudyConfig& config,
    io::IngestStats* ingest, const CheckpointConfig& checkpoint) {
  ShardExecutor exec(config.threads);
  return study_from_files(CdnPolicy{config, exec}, paths, ingest, checkpoint);
}

StreamDriver::StreamDriver(unsigned threads) : exec_(threads) {}

unsigned StreamDriver::thread_count() const { return exec_.thread_count(); }

Expected<AtlasStudy> StreamDriver::follow_atlas(
    const std::string& watch_dir, const std::vector<simnet::IspProfile>& isps,
    const AtlasFileStudyConfig& config, const StreamConfig& stream,
    AtlasSnapshotFn on_snapshot, io::IngestStats* ingest, StreamStats* stats) {
  AtlasPolicy policy{isps, config, exec_};
  return follow_stream(policy, watch_dir, stream, on_snapshot, ingest, stats);
}

Expected<CdnStudy> StreamDriver::follow_cdn(const std::string& watch_dir,
                                            const CdnFileStudyConfig& config,
                                            const StreamConfig& stream,
                                            CdnSnapshotFn on_snapshot,
                                            io::IngestStats* ingest,
                                            StreamStats* stats) {
  CdnPolicy policy{config, exec_};
  return follow_stream(policy, watch_dir, stream, on_snapshot, ingest, stats);
}

Expected<AtlasStudy> run_atlas_stream(
    const std::string& watch_dir, const std::vector<simnet::IspProfile>& isps,
    const AtlasFileStudyConfig& config, const StreamConfig& stream,
    AtlasSnapshotFn on_snapshot, io::IngestStats* ingest, StreamStats* stats) {
  StreamDriver driver(config.threads);
  return driver.follow_atlas(watch_dir, isps, config, stream,
                             std::move(on_snapshot), ingest, stats);
}

Expected<CdnStudy> run_cdn_stream(const std::string& watch_dir,
                                  const CdnFileStudyConfig& config,
                                  const StreamConfig& stream,
                                  CdnSnapshotFn on_snapshot,
                                  io::IngestStats* ingest,
                                  StreamStats* stats) {
  StreamDriver driver(config.threads);
  return driver.follow_cdn(watch_dir, config, stream, std::move(on_snapshot),
                           ingest, stats);
}

}  // namespace dynamips::core
