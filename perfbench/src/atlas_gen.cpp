// atlas_gen — run_atlas_study from the in-process generator: paper ISPs,
// scale 0.3, a 30000 h window, one thread, result CSVs written. Most of the
// work is generation (atlas/simnet) and the core sanitizer; io ingest,
// core.assoc and lg are bypassed.
#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "atlas/generator.h"
#include "core/evolution.h"
#include "core/tracking.h"
#include "io/columnar.h"
#include "simnet/isp.h"
#include "study_io.h"
#include "workloads.h"

namespace pb {

namespace {

namespace atlas = dynamips::atlas;
namespace io = dynamips::io;
namespace simnet = dynamips::simnet;

atlas::AtlasConfig atlas_config(const RunOptions& opt) {
  atlas::AtlasConfig cfg;
  cfg.probe_scale = opt.tiny ? 0.02 : 0.3;
  cfg.window_hours = opt.tiny ? 8000 : 30000;
  cfg.seed = opt.seed;
  return cfg;
}

core::AtlasStudy empty_study(const std::vector<simnet::IspProfile>& isps) {
  core::AtlasStudy study;
  simnet::announce_all(isps, study.rib);
  for (const auto& isp : isps) study.as_names[isp.asn] = isp.name;
  return study;
}

}  // namespace

void prepare_atlas_gen(const RunOptions& opt) {
  const std::vector<simnet::IspProfile> isps = simnet::paper_isps();
  atlas::AtlasSimulator sim(isps, atlas_config(opt));
  KeyValues ref;

  // Ground truth of the injected anomalies, from the generator's own probe
  // roles and deployment timelines; the sanitizer's filter counts must
  // match it. Bad-tag, public-src and multihomed probes are one drop each.
  // A short-lived probe is one short drop. An AS-switch probe splits into
  // two virtual probes only when both legs outlast the minimum observation
  // span; each shorter leg is a short drop instead. A leg at most that long
  // is certainly short (its observed span is at least an hour shorter); a
  // leg within kMargin hours above it is ambiguous, because missing hourly
  // samples and the test-address head shorten the observed span, so the
  // expected count becomes a range.
  constexpr atlas::Hour kMargin = 48;
  const atlas::Hour min_span = core::SanitizeOptions{}.min_observation_hours;
  std::uint64_t roles[6] = {0, 0, 0, 0, 0, 0};
  std::uint64_t short_lo = 0, short_hi = 0, split_lo = 0, split_hi = 0;
  for (std::size_t i = 0; i < sim.probe_count(); ++i) {
    const atlas::ProbeInfo& p = sim.probe(i);
    ++roles[std::size_t(p.role)];
    if (p.role == atlas::ProbeRole::kShortLived) {
      ++short_lo;
      ++short_hi;
    } else if (p.role == atlas::ProbeRole::kAsSwitch) {
      bool any_short = false, any_ambiguous = false;
      for (atlas::Hour leg : {p.switch_hour - p.join, p.leave - p.switch_hour}) {
        if (leg <= min_span) {
          any_short = true;
          ++short_lo;
          ++short_hi;
        } else if (leg < min_span + kMargin) {
          any_ambiguous = true;
          ++short_hi;
        }
      }
      if (!any_short) {
        split_hi += 1;
        split_lo += any_ambiguous ? 0 : 1;
      }
    }
  }
  ref.set("gt.short.min", short_lo);
  ref.set("gt.short.max", short_hi);
  ref.set("gt.split.min", split_lo);
  ref.set("gt.split.max", split_hi);
  ref.set("gt.bad_tag", roles[std::size_t(atlas::ProbeRole::kBadTag)]);
  ref.set("gt.multihomed", roles[std::size_t(atlas::ProbeRole::kMultihomed)]);
  ref.set("gt.public_src", roles[std::size_t(atlas::ProbeRole::kPublicSrc)]);
  ref.set("probes", sim.probe_count());

  // Reference results through the columnar export path: probes are
  // exported to DYNCOL1 and decoded back in chunks (the whole dataset would
  // not fit a small box), then analyzed layer by layer on four contiguous
  // ranges that are merged in index order, as the pipeline's shards are.
  core::AtlasStudy study = empty_study(isps);
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kChunk = 32;
  const std::size_t n = sim.probe_count();
  std::vector<AtlasLayers> parts;
  parts.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) parts.emplace_back(study.rib);
  std::vector<std::uint64_t> records(kThreads, 0);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const std::size_t from = n * t / kThreads, to = n * (t + 1) / kThreads;
      for (std::size_t c = from; c < to; c += kChunk) {
        std::vector<atlas::ProbeSeries> chunk;
        for (std::size_t i = c; i < std::min(to, c + kChunk); ++i)
          chunk.push_back(sim.series_for(i));
        std::string bytes = io::encode_echo_columnar(chunk);
        chunk.clear();
        auto decoded = io::decode_echo_columnar(bytes);
        if (!decoded.ok()) {
          errors[t] = decoded.status().to_string();
          return;
        }
        for (const atlas::ProbeSeries& series : decoded.value()) {
          records[t] += series.records.size();
          parts[t].add(series, 0, nullptr);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("columnar round trip: " + e);
  for (unsigned t = 1; t < kThreads; ++t)
    parts.front().merge(std::move(parts[t]));
  parts.front().finish(study);

  std::uint64_t total = 0;
  for (std::uint64_t r : records) total += r;
  ref.set("records", total);
  const std::string ref_dir = opt.dir + "/ref";
  std::filesystem::create_directories(ref_dir);
  const std::vector<std::string> csvs = render_atlas_csvs(study);
  publish_csvs(ref_dir, atlas_csv_names(), csvs);
  ref.set("digest", digest(atlas_csv_names(), csvs));
  ref.save(opt.dir + "/ref.txt");
}

void run_atlas_gen(const RunOptions& opt, Report& report) {
  const KeyValues ref = KeyValues::load(opt.dir + "/ref.txt");
  const std::uint64_t ref_digest = ref.get_u64("digest");
  const std::uint64_t records = ref.get_u64("records");
  const atlas::AtlasConfig cfg = atlas_config(opt);
  const double ref_start = ref_loop_ms();
  reset_hwm();

  // Set-up: everything run_atlas_study constructs before its first probe
  // (ISP profiles, RIB, AS names, simulator, shard executor, the shard's
  // analyzers). One median per round; the fastest round is reported.
  std::vector<double> setup, rib_s, sim_s;
  std::vector<simnet::IspProfile> isps;
  auto time_setup = [&] {
    std::vector<double> total, rib, gen;
    setup_round(opt, [&] {
      std::uint64_t t0 = now_ns();
      isps = simnet::paper_isps();
      core::AtlasStudy study;
      std::uint64_t t1 = now_ns();
      simnet::announce_all(isps, study.rib);
      for (const auto& isp : isps) study.as_names[isp.asn] = isp.name;
      std::uint64_t t2 = now_ns();
      atlas::AtlasSimulator sim(isps, cfg);
      std::uint64_t t3 = now_ns();
      core::ShardExecutor exec(1);
      AtlasLayers layers(study.rib);
      std::uint64_t t4 = now_ns();
      total.push_back(seconds_between(t0, t4));
      rib.push_back(seconds_between(t1, t2));
      gen.push_back(seconds_between(t2, t3));
    });
    setup.push_back(median(total));
    rib_s.push_back(median(rib));
    sim_s.push_back(median(gen));
  };
  time_setup();

  auto check_study = [&](const core::AtlasStudy& study, const char* what) {
    const core::SanitizeStats& s = study.sanitize;
    auto expect = [&](std::uint64_t got, const char* field,
                      const std::string& lo_key, const std::string& hi_key) {
      const std::uint64_t lo = ref.get_u64(lo_key), hi = ref.get_u64(hi_key);
      report.check(got >= lo && got <= hi,
                   std::string(what) + ": " + field + " = " +
                       std::to_string(got) + ", injected ground truth " +
                       std::to_string(lo) +
                       (lo == hi ? "" : ".." + std::to_string(hi)));
    };
    expect(s.dropped_short, "dropped_short", "gt.short.min", "gt.short.max");
    expect(s.split_probes, "split_probes", "gt.split.min", "gt.split.max");
    expect(s.dropped_bad_tag, "dropped_bad_tag", "gt.bad_tag", "gt.bad_tag");
    expect(s.dropped_multihomed, "dropped_multihomed", "gt.multihomed",
           "gt.multihomed");
    expect(s.dropped_public_src, "dropped_public_src", "gt.public_src",
           "gt.public_src");
    expect(s.probes_seen, "probes_seen", "probes", "probes");
  };

  // Measured phase: whole studies, each timed from the call until its
  // result CSVs are rendered, repeated until the run length is used. Each
  // study's CSVs are reduced to their digest at once, so they do not stay
  // resident through the next study.
  dynamips::obs::MetricsRegistry registry;
  core::AtlasStudyConfig scfg;
  scfg.atlas = cfg;
  scfg.threads = 1;
  scfg.metrics = &registry;
  std::vector<double> walls;
  std::uint64_t study_digest = 0;
  const std::uint64_t start = now_ns();
  do {
    registry.reset();
    {
      std::uint64_t t0 = now_ns();
      core::AtlasStudy study;
      std::vector<std::string> csvs;
      try {
        study = core::run_atlas_study(isps, scfg);
        csvs = render_atlas_csvs(study);
      } catch (const std::exception& e) {
        report.attempt(1, 1);
        report.check(false, std::string("atlas study failed: ") + e.what());
        break;
      }
      walls.push_back(seconds_between(t0, now_ns()));
      report.attempt(1);
      if (opt.perturb && walls.size() == 1) csvs[0][0] ^= 1;
      check_study(study, "atlas study");
      study_digest = digest(atlas_csv_names(), csvs);
      report.check(study_digest == ref_digest,
                   "atlas result CSVs differ from the columnar-path reference");
      const auto snap = registry.snapshot();
      auto it = snap.counters().find("atlas.echo_records");
      report.check(it != snap.counters().end() && it->second.value == records,
                   "atlas.echo_records != reference record count");
    }
    time_setup();
  } while (!opt.trace && seconds_between(start, now_ns()) < opt.seconds);

  if (walls.empty()) return report_host(opt, report, ref_start);

  double export_ms = 0, series = 0;
  export_metrics(registry, opt.workload, opt.seed, &export_ms, &series);

  std::vector<double> rates;
  for (double w : walls) rates.push_back(double(records) / w);
  const double hwm = vm_hwm_mb();

  if (!opt.trace) {
    report.metric("setup_s", quantile(setup, 0), "s");
    report.metric("records_per_s", median(rates), "records/s");
    report.metric("peak_rss_mb", hwm, "MiB");
    report.info("studies", double(walls.size()), "count");
    report.info("setup_s.round_p50", median(setup), "s");
    report.info("study_ms_p50", median(walls) * 1e3, "ms");
    report.info("study_ms_min", quantile(walls, 0) * 1e3, "ms");
    report.info("study_ms_max", quantile(walls, 1) * 1e3, "ms");
    report.info("obs.export_ms", export_ms, "ms");
  } else {
    // Traced run: the same study driven one layer call at a time, with a
    // span around each call; the evolution and tracking analyzers ride
    // along as side spans (the study itself does not run them), so they
    // are excluded from the overhead ratio.
    Tracer tracer;
    Tracer* tr = &tracer;
    core::AtlasStudy study;
    std::vector<std::string> traced_csvs;
    std::uint64_t traced_records = 0;
    {
      auto root = span(tr, "run");
      {
        auto s = span(tr, "bgp.rib_build");
        simnet::announce_all(isps, study.rib);
        for (const auto& isp : isps) study.as_names[isp.asn] = isp.name;
      }
      std::optional<atlas::AtlasSimulator> sim;
      {
        auto s = span(tr, "atlas.sim_build");
        sim.emplace(isps, cfg);
      }
      AtlasLayers layers(study.rib);
      core::EvolutionAnalyzer evolution;
      core::TrackingAnalyzer tracking;
      for (std::size_t i = 0; i < sim->probe_count(); ++i) {
        atlas::ProbeSeries series;
        {
          auto s = span(tr, "atlas.series_for", i);
          series = sim->series_for(i);
        }
        traced_records += series.records.size();
        for (const core::CleanProbe& cp : layers.add(series, i, tr)) {
          {
            auto s = span(tr, "core.evolution.add", i);
            evolution.add(cp);
          }
          {
            auto s = span(tr, "core.tracking.add", i);
            tracking.add(cp);
          }
        }
      }
      {
        auto s = span(tr, "core.atlas_finalize");
        layers.finish(study);
      }
      {
        auto s = span(tr, "io.results.write");
        traced_csvs = render_atlas_csvs(study);
      }
    }
    check_study(study, "traced atlas study");
    std::uint64_t result_bytes = 0;
    report.check(
        digest(atlas_csv_names(), traced_csvs, &result_bytes) == study_digest,
        "traced result CSVs differ from the untraced run's");
    report.check(traced_records == records,
                 "traced record count != reference record count");
    const double kept_ratio = double(study.sanitize.virtual_probes) /
                              double(study.sanitize.probes_seen);
    tracer.write_jsonl(opt.dir + "/trace.jsonl");

    const double side = tracer.self_seconds("core.evolution.add") +
                        tracer.self_seconds("core.tracking.add");
    const double traced_wall = tracer.root_seconds("run") - side;
    std::vector<double> san = tracer.durations("core.sanitize");
    report.metric("atlas.series_for.busy_s",
                  tracer.self_seconds("atlas.series_for"), "s");
    report.metric("atlas.series_for.calls",
                  double(tracer.durations("atlas.series_for").size()), "count");
    report.metric("atlas.records", double(traced_records), "count");
    report.metric("atlas.sim_build_s", quantile(sim_s, 0), "s");
    report.metric("bgp.rib_build_s", quantile(rib_s, 0), "s");
    report.metric("core.from_series.busy_s",
                  tracer.self_seconds("core.from_series"), "s");
    report.metric("core.sanitize.busy_s", tracer.self_seconds("core.sanitize"),
                  "s");
    report.metric("core.sanitize.p50_us", quantile(san, 0.5) * 1e6, "us");
    report.metric("core.sanitize.p99_us", quantile(san, 0.99) * 1e6, "us");
    report.metric("core.sanitize.kept_ratio", kept_ratio, "ratio");
    for (const char* layer : {"core.durations", "core.spatial",
                              "core.inference", "core.evolution",
                              "core.tracking"}) {
      std::string name = std::string(layer) + ".add";
      report.metric(std::string(layer) + ".busy_s",
                    tracer.self_seconds(name), "s");
    }
    report.metric("core.atlas_finalize.busy_s",
                  tracer.self_seconds("core.atlas_finalize"), "s");
    report.metric("io.results.write_s", tracer.self_seconds("io.results.write"),
                  "s");
    report.metric("io.results.bytes", double(result_bytes), "bytes");
    report.metric("obs.export_ms", export_ms, "ms");
    report.metric("obs.series", series, "count");
    report.metric("trace.overhead_ratio", traced_wall / walls.front() - 1,
                  "ratio");
    report.metric("trace.coverage", tracer.coverage("run"), "ratio");
  }

  report_host(opt, report, ref_start);
}

}  // namespace pb
