// test_obs — the observability layer (src/obs/).
//
// Four layers of coverage:
//  * merge algebra of every metric value type and of MetricsSink/
//    MetricsRegistry: two halves merged must equal everything in one;
//  * JSON export: schema version, stable (byte-identical) serialization,
//    sorted keys, escaping;
//  * zero overhead when disabled: a study run with `metrics == nullptr`
//    records nothing and produces byte-identical results to a metered run;
//  * thread-count invariance: every counter and histogram in a study's
//    metrics document is identical for threads=1 and threads=4;
//  * tools/check_metrics.py --compare-to exempts timing-derived gauges by
//    schema, with no flag, and still fails on a differing counter.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <sys/wait.h>

#include "core/pipeline.h"
#include "io/results_io.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "simnet/isp.h"

namespace dynamips {
namespace {

// ------------------------------------------------------------- value types

TEST(ObsCounter, MergeSums) {
  obs::Counter full, a, b;
  full.add(5);
  full.add();
  a.add(5);
  b.add();
  a.merge(b);
  EXPECT_EQ(a.value, full.value);
  EXPECT_EQ(a.value, 6u);
}

TEST(ObsGauge, MergeIsLastWriterInReductionOrder) {
  obs::Gauge a, b;
  a.set(1.5);
  b.set(2.5);
  a.merge(b);
  EXPECT_EQ(a.value, 2.5);
  // An unset gauge never clobbers a set one.
  obs::Gauge unset;
  a.merge(unset);
  EXPECT_EQ(a.value, 2.5);
}

TEST(ObsHistogram, BucketsAndClamping) {
  obs::Histogram h(0, 3, 1);  // buckets at 10^0..10^3, 1 bin per decade
  h.record(1.0);
  h.record(5.0);      // same decade as 1.0
  h.record(50.0);     // second decade
  h.record(1e9);      // clamps into the last bucket
  h.record(0.0);      // clamps into the first bucket
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.buckets().front(), 3u);
  EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(ObsHistogram, MergeHalvesEqualFull) {
  obs::Histogram full(0, 6, 5), a(0, 6, 5), b(0, 6, 5);
  for (double v : {1.0, 10.0, 256.0, 80000.0, 999999.0}) full.record(v);
  for (double v : {1.0, 10.0}) a.record(v);
  for (double v : {256.0, 80000.0, 999999.0}) b.record(v);
  a.merge(b);
  EXPECT_EQ(a, full);
}

TEST(ObsPhaseStats, MergeCombinesExtrema) {
  obs::PhaseStats full, a, b;
  for (std::uint64_t ns : {10u, 30u, 20u}) full.record(ns);
  a.record(10);
  b.record(30);
  b.record(20);
  a.merge(b);
  EXPECT_EQ(a.count, full.count);
  EXPECT_EQ(a.total_ns, full.total_ns);
  EXPECT_EQ(a.min_ns, 10u);
  EXPECT_EQ(a.max_ns, 30u);
  // Merging an empty PhaseStats is a no-op (UINT64_MAX min sentinel).
  a.merge(obs::PhaseStats{});
  EXPECT_EQ(a.min_ns, 10u);
  EXPECT_EQ(a.max_ns, 30u);
}

TEST(ObsPhaseTimer, RecordsSpanAndNullIsNoop) {
  obs::PhaseStats stats;
  {
    obs::PhaseTimer t(&stats);
  }
  EXPECT_EQ(stats.count, 1u);
  {
    obs::PhaseTimer t(nullptr);  // must not crash or record anywhere
    t.stop();
  }
  obs::PhaseTimer twice(&stats);
  twice.stop();
  twice.stop();  // second stop is a no-op
  EXPECT_EQ(stats.count, 2u);
}

// ------------------------------------------------------------ sink algebra

obs::MetricsSink make_sink(std::uint64_t base) {
  obs::MetricsSink s;
  s.counter("c.events").add(base);
  s.counter("c.only_sometimes").add(base * 2);
  s.gauge("g.level").set(double(base));
  s.histogram("h.sizes", 0, 6, 5).record(double(base + 1));
  s.phase("p.step").record(base * 100);
  return s;
}

TEST(ObsMetricsSink, MergeHalvesEqualFull) {
  obs::MetricsSink full, a, b;
  for (std::uint64_t i = 1; i <= 6; ++i) full.merge(make_sink(i));
  for (std::uint64_t i = 1; i <= 3; ++i) a.merge(make_sink(i));
  for (std::uint64_t i = 4; i <= 6; ++i) b.merge(make_sink(i));
  a.merge(std::move(b));
  EXPECT_EQ(a.counters().at("c.events").value,
            full.counters().at("c.events").value);
  EXPECT_EQ(a.counters().at("c.only_sometimes").value,
            full.counters().at("c.only_sometimes").value);
  EXPECT_EQ(a.gauges().at("g.level").value, full.gauges().at("g.level").value);
  EXPECT_EQ(a.histograms().at("h.sizes"), full.histograms().at("h.sizes"));
  EXPECT_EQ(a.phases().at("p.step").count, full.phases().at("p.step").count);
  EXPECT_EQ(a.phases().at("p.step").total_ns,
            full.phases().at("p.step").total_ns);
}

TEST(ObsMetricsSink, MergeConsumesArgumentAndHandlesDisjointNames) {
  obs::MetricsSink a, b;
  a.counter("x").add(1);
  b.counter("y").add(2);
  b.histogram("h", 0, 3, 2).record(10.0);
  a.merge(std::move(b));
  EXPECT_EQ(a.counters().at("x").value, 1u);
  EXPECT_EQ(a.counters().at("y").value, 2u);
  EXPECT_EQ(a.histograms().at("h").total(), 1u);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): documented
}

TEST(ObsMetricsSink, SatisfiesMergeableAnalyzerConcept) {
  static_assert(core::MergeableAnalyzer<obs::MetricsSink>);
  obs::MetricsSink s;
  s.finalize();
  EXPECT_TRUE(s.empty());
}

TEST(ObsRegistry, ConcurrentMergesSumExactly) {
  obs::MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        obs::MetricsSink s;
        s.counter("c").add(1);
        registry.merge(std::move(s));
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.snapshot().counters().at("c").value, 800u);
}

TEST(ObsRegistry, PointUpdatesAndReset) {
  obs::MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.add_counter("c", 3);
  registry.set_gauge("g", 1.25);
  registry.record_phase("p", 1000);
  auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters().at("c").value, 3u);
  EXPECT_EQ(snap.gauges().at("g").value, 1.25);
  EXPECT_EQ(snap.phases().at("p").count, 1u);
  registry.reset();
  EXPECT_TRUE(registry.empty());
}

TEST(ObsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&obs::MetricsRegistry::global(), &obs::MetricsRegistry::global());
}

TEST(ObsPeakRss, ReportsSomethingPlausible) {
  std::uint64_t rss = obs::peak_rss_bytes();
  EXPECT_GT(rss, 1u << 20);  // a running gtest binary exceeds 1 MiB
}

// -------------------------------------------------------------- JSON export

obs::MetricsMeta test_meta() {
  obs::MetricsMeta meta;
  meta.binary = "test_obs";
  meta.scale = 0.05;
  meta.seed = 1;
  meta.window_hours = 6000;
  meta.threads = 4;
  return meta;
}

TEST(ObsJson, SchemaVersionAndSections) {
  std::string json = obs::metrics_to_json(make_sink(1), test_meta());
  EXPECT_NE(json.find("\"schema\": \"dynamips.metrics.v1\""),
            std::string::npos);
  for (const char* key :
       {"\"meta\"", "\"counters\"", "\"gauges\"", "\"phases\"",
        "\"histograms\"", "\"binary\"", "\"scale\"", "\"threads\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_NE(json.find("\"c.events\": 1"), std::string::npos);
}

TEST(ObsJson, StableByteIdenticalSerialization) {
  // Same state serialized twice — and built in a different insertion
  // order — must produce byte-identical documents.
  obs::MetricsSink a, b;
  a.counter("zz").add(1);
  a.counter("aa").add(2);
  b.counter("aa").add(2);
  b.counter("zz").add(1);
  EXPECT_EQ(obs::metrics_to_json(a, test_meta()),
            obs::metrics_to_json(b, test_meta()));
  // Sorted key order: "aa" precedes "zz" in the document.
  std::string json = obs::metrics_to_json(a, test_meta());
  EXPECT_LT(json.find("\"aa\""), json.find("\"zz\""));
}

TEST(ObsJson, EscapesControlAndQuoteCharacters) {
  obs::MetricsSink s;
  s.counter("weird\"name\\with\nnoise").add(1);
  std::string json = obs::metrics_to_json(s, test_meta());
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nnoise"), std::string::npos);
}

TEST(ObsJson, WriteToFileRoundTrips) {
  std::string path = testing::TempDir() + "/obs_metrics.json";
  ASSERT_TRUE(obs::write_metrics_json(path, make_sink(2), test_meta()));
  std::ifstream is(path);
  std::string contents((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, obs::metrics_to_json(make_sink(2), test_meta()));
  EXPECT_FALSE(
      obs::write_metrics_json("/nonexistent-dir/x.json", make_sink(2),
                              test_meta()));
}

// ------------------------------------------- pipeline integration contracts

core::AtlasStudyConfig small_atlas_config(obs::MetricsRegistry* registry,
                                          unsigned threads) {
  core::AtlasStudyConfig cfg;
  cfg.atlas.probe_scale = 0.05;
  cfg.atlas.window_hours = 6000;
  cfg.atlas.seed = 7;
  cfg.threads = threads;
  cfg.metrics = registry;
  return cfg;
}

core::CdnStudyConfig small_cdn_config(obs::MetricsRegistry* registry,
                                      unsigned threads) {
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.02;
  cfg.cdn.days = 40;
  cfg.cdn.seed = 13;
  cfg.threads = threads;
  cfg.metrics = registry;
  return cfg;
}

/// Every Atlas result CSV, concatenated: byte equality here is the
/// "results are identical" criterion.
std::string atlas_csvs(const core::AtlasStudy& study) {
  std::ostringstream os;
  io::write_duration_curves_csv(os, study);
  io::write_cpl_csv(os, study);
  io::write_bgp_moves_csv(os, study);
  io::write_inference_csv(os, study);
  return os.str();
}

std::string cdn_csvs(const core::CdnStudy& study) {
  std::ostringstream os;
  io::write_assoc_durations_csv(os, study);
  io::write_degrees_csv(os, study);
  io::write_zero_boundaries_csv(os, study);
  return os.str();
}

/// The small generator datasets of small_atlas_config / small_cdn_config,
/// exported as clean CSVs, so file studies can be run on the same items.
struct Exports {
  std::vector<simnet::IspProfile> isps;
  std::vector<cdn::PopulationEntry> population;
  std::unordered_set<bgp::Asn> mobile_asns;
  std::string echo_csv;
  std::string assoc_csv;
};

const Exports& exports() {
  static const Exports* exported = [] {
    auto* e = new Exports;
    e->isps = simnet::paper_isps();
    e->isps.resize(2);
    e->population = cdn::default_cdn_population(0.02);
    const std::string dir = ::testing::TempDir();

    atlas::AtlasSimulator asim(e->isps, small_atlas_config(nullptr, 1).atlas);
    std::vector<atlas::ProbeSeries> echo;
    for (std::size_t i = 0; i < asim.probe_count(); ++i)
      echo.push_back(asim.series_for(i));
    e->echo_csv = dir + "/obs_echo.csv";
    {
      std::ofstream out(e->echo_csv, std::ios::binary);
      io::write_echo_dataset(out, echo);
    }

    cdn::CdnSimulator csim(e->population, small_cdn_config(nullptr, 1).cdn);
    std::vector<cdn::AssociationLog> logs;
    for (std::size_t i = 0; i < csim.entry_count(); ++i)
      logs.push_back(csim.generate(i));
    e->mobile_asns = csim.mobile_asns();
    e->assoc_csv = dir + "/obs_assoc.csv";
    {
      std::ofstream out(e->assoc_csv, std::ios::binary);
      io::write_assoc_dataset(out, logs);
    }
    return e;
  }();
  return *exported;
}

core::AtlasFileStudyConfig atlas_file_config(obs::MetricsRegistry* registry,
                                             unsigned threads) {
  core::AtlasFileStudyConfig cfg;
  cfg.threads = threads;
  cfg.metrics = registry;
  return cfg;
}

/// File-study config carrying the generator's ground truth (access type
/// and registry per ASN), which the CSV schema does not.
core::CdnFileStudyConfig cdn_file_config(obs::MetricsRegistry* registry,
                                         unsigned threads) {
  const Exports& e = exports();
  core::CdnFileStudyConfig cfg;
  cfg.threads = threads;
  cfg.metrics = registry;
  cfg.mobile_asns = e.mobile_asns;
  for (const auto& entry : e.population) {
    cfg.registries[entry.isp.asn] = entry.isp.registry;
    cfg.asn_names[entry.isp.asn] = entry.isp.name;
  }
  return cfg;
}

/// Result CSVs of all four studies (Atlas/CDN, generator/file) run with
/// `registry` as their metrics sink.
std::vector<std::string> all_study_csvs(obs::MetricsRegistry* registry) {
  const Exports& e = exports();
  std::vector<std::string> out;
  out.push_back(atlas_csvs(
      core::run_atlas_study(e.isps, small_atlas_config(registry, 2))));
  out.push_back(cdn_csvs(
      core::run_cdn_study(e.population, small_cdn_config(registry, 2))));
  auto atlas_file = core::run_atlas_study_from_files(
      {e.echo_csv}, e.isps, atlas_file_config(registry, 2));
  EXPECT_TRUE(atlas_file.ok()) << atlas_file.status().to_string();
  out.push_back(atlas_file.ok() ? atlas_csvs(*atlas_file) : "");
  auto cdn_file = core::run_cdn_study_from_files(
      {e.assoc_csv}, cdn_file_config(registry, 2));
  EXPECT_TRUE(cdn_file.ok()) << cdn_file.status().to_string();
  out.push_back(cdn_file.ok() ? cdn_csvs(*cdn_file) : "");
  return out;
}

TEST(ObsPipeline, DisabledMetricsRecordNothingAndChangeNothing) {
  // Metrics off: no study records into the process-wide registry, the
  // only registry a study could reach without being given one.
  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  const std::string global_before =
      obs::metrics_to_json(global.snapshot(), test_meta());
  const std::vector<std::string> plain = all_study_csvs(nullptr);
  EXPECT_EQ(obs::metrics_to_json(global.snapshot(), test_meta()),
            global_before);

  // Metrics on vs off: every result CSV is byte-identical.
  obs::MetricsRegistry registry;
  const std::vector<std::string> metered = all_study_csvs(&registry);
  EXPECT_FALSE(registry.empty());
  ASSERT_EQ(plain.size(), metered.size());
  const char* studies[] = {"atlas gen", "cdn gen", "atlas file", "cdn file"};
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_FALSE(plain[i].empty()) << studies[i];
    EXPECT_EQ(plain[i], metered[i]) << studies[i];
  }
}

/// Metric names only one kind of item source records: its item counter,
/// the generator's population counters and the file path's ingest
/// accounting.
bool source_specific(const std::string& name) {
  for (const char* prefix : {"atlas.probes_generated", "atlas.probes_loaded",
                             "cdn.logs_generated", "cdn.logs_loaded",
                             "atlas.gen.", "cdn.gen.", "ingest."})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

std::set<std::string> phase_names(const obs::MetricsSink& sink) {
  std::set<std::string> names;
  for (const auto& [name, phase] : sink.phases()) names.insert(name);
  return names;
}

/// The generator and file studies run one shared kernel, so over the same
/// items they must record the same metrics, apart from what the source
/// itself names: every shared counter and histogram is equal, and the
/// phase sets differ only in how items arrive (`<study>.generate` per
/// generated item vs `<study>.ingest` once per load).
void expect_same_kernel_metrics(const obs::MetricsSink& gen,
                                const obs::MetricsSink& file,
                                const std::string& study) {
  std::set<std::string> names;
  for (const auto* sink : {&gen, &file})
    for (const auto& [name, counter] : sink->counters())
      if (!source_specific(name)) names.insert(name);
  for (const auto& name : names) {
    ASSERT_TRUE(gen.counters().count(name)) << name;
    ASSERT_TRUE(file.counters().count(name)) << name;
    EXPECT_EQ(gen.counters().at(name).value, file.counters().at(name).value)
        << name;
  }
  EXPECT_GT(names.size(), 0u);
  ASSERT_EQ(gen.histograms().size(), file.histograms().size());
  for (const auto& [name, hist] : gen.histograms()) {
    ASSERT_TRUE(file.histograms().count(name)) << name;
    EXPECT_TRUE(hist == file.histograms().at(name)) << name;
  }

  std::set<std::string> gen_phases = phase_names(gen);
  std::set<std::string> file_phases = phase_names(file);
  EXPECT_EQ(gen_phases.erase(study + ".generate"), 1u);
  EXPECT_EQ(file_phases.erase(study + ".ingest"), 1u);
  EXPECT_EQ(gen_phases, file_phases);
}

TEST(ObsPipeline, GeneratorAndFileSourcesShareTheKernelMetrics) {
  const Exports& e = exports();
  {
    obs::MetricsRegistry gen, file;
    core::run_atlas_study(e.isps, small_atlas_config(&gen, 2));
    auto study = core::run_atlas_study_from_files(
        {e.echo_csv}, e.isps, atlas_file_config(&file, 2));
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    const auto g = gen.snapshot(), f = file.snapshot();
    expect_same_kernel_metrics(g, f, "atlas");
    EXPECT_EQ(g.counters().at("atlas.probes_generated").value,
              f.counters().at("atlas.probes_loaded").value);
  }
  {
    obs::MetricsRegistry gen, file;
    core::run_cdn_study(e.population, small_cdn_config(&gen, 2));
    auto study = core::run_cdn_study_from_files({e.assoc_csv},
                                                cdn_file_config(&file, 2));
    ASSERT_TRUE(study.ok()) << study.status().to_string();
    const auto g = gen.snapshot(), f = file.snapshot();
    expect_same_kernel_metrics(g, f, "cdn");
    EXPECT_EQ(g.counters().at("cdn.logs_generated").value,
              f.counters().at("cdn.logs_loaded").value);
  }
}

TEST(ObsPipeline, AtlasCountersThreadInvariant) {
  auto isps = simnet::paper_isps();
  isps.resize(3);

  obs::MetricsRegistry serial, sharded;
  core::run_atlas_study(isps, small_atlas_config(&serial, 1));
  core::run_atlas_study(isps, small_atlas_config(&sharded, 4));

  auto a = serial.snapshot(), b = sharded.snapshot();
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters())
    EXPECT_EQ(counter.value, b.counters().at(name).value) << name;
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, hist] : a.histograms())
    EXPECT_TRUE(hist == b.histograms().at(name)) << name;
  // Sanity: the expected metric families are present.
  EXPECT_GT(a.counters().at("atlas.echo_records").value, 0u);
  EXPECT_GT(a.counters().at("sanitize.probes_seen").value, 0u);
  EXPECT_GT(a.counters().at("atlas.gen.probes").value, 0u);
  EXPECT_GT(a.phases().at("atlas.generate").count, 0u);
  EXPECT_TRUE(b.gauges().count("atlas.shard_imbalance"));
}

TEST(ObsPipeline, CdnCountersThreadInvariant) {
  auto population = cdn::default_cdn_population(0.05);
  core::CdnStudyConfig cfg;
  cfg.cdn.subscriber_scale = 0.05;
  cfg.cdn.seed = 13;

  obs::MetricsRegistry serial, sharded;
  cfg.threads = 1;
  cfg.metrics = &serial;
  core::run_cdn_study(population, cfg);
  cfg.threads = 4;
  cfg.metrics = &sharded;
  core::run_cdn_study(population, cfg);

  auto a = serial.snapshot(), b = sharded.snapshot();
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters())
    EXPECT_EQ(counter.value, b.counters().at(name).value) << name;
  for (const auto& [name, hist] : a.histograms())
    EXPECT_TRUE(hist == b.histograms().at(name)) << name;
  EXPECT_GT(a.counters().at("cdn.association_tuples").value, 0u);
  EXPECT_EQ(a.counters().at("cdn.logs_generated").value,
            population.size());
  // The kept/mismatched split covers every generated tuple.
  EXPECT_EQ(a.counters().at("cdn.tuples_kept").value +
                a.counters().at("cdn.tuples_mismatched").value,
            a.counters().at("cdn.association_tuples").value);
}

TEST(ObsPipeline, MetricsJsonStableAcrossIdenticalRuns) {
  auto isps = simnet::paper_isps();
  isps.resize(2);
  obs::MetricsRegistry r1, r2;
  core::run_atlas_study(isps, small_atlas_config(&r1, 2));
  core::run_atlas_study(isps, small_atlas_config(&r2, 2));

  // Counters/histograms (the gated sections) are deterministic run to
  // run; timings differ, so compare documents with phases/gauges zeroed.
  auto strip = [](const obs::MetricsSink& sink) {
    obs::MetricsSink out;
    for (const auto& [name, c] : sink.counters())
      out.counter(name).add(c.value);
    for (const auto& [name, h] : sink.histograms()) {
      auto& copy = out.histogram(name, h.lo_exp(), h.hi_exp(),
                                 h.bins_per_decade());
      copy.merge(h);
    }
    return out;
  };
  EXPECT_EQ(obs::metrics_to_json(strip(r1.snapshot()), test_meta()),
            obs::metrics_to_json(strip(r2.snapshot()), test_meta()));
}

// ------------------------------------------ check_metrics.py --compare-to

bool python3_available() {
  return std::system("python3 --version > /dev/null 2>&1") == 0;
}

std::string metrics_doc(std::uint64_t tuples, double imbalance, double lag,
                        double backlog, double rss) {
  std::ostringstream os;
  os << "{\"schema\": \"dynamips.metrics.v1\", \"meta\": {}, "
     << "\"counters\": {\"cdn.tuples\": " << tuples << "}, "
     << "\"gauges\": {\"cdn.shards\": 4, \"cdn.shard_imbalance\": "
     << imbalance << ", \"atlas.shard_imbalance\": " << imbalance
     << ", \"stream.lag_seconds\": " << lag
     << ", \"stream.backlog_batches\": " << backlog
     << ", \"process.peak_rss_bytes\": " << rss << "}, "
     << "\"phases\": {}, \"histograms\": {}}\n";
  return os.str();
}

/// Exit status of `check_metrics.py CANDIDATE --compare-to=REFERENCE`.
int compare_metrics(const std::string& candidate,
                    const std::string& reference) {
  namespace fs = std::filesystem;
  // One directory per test: ctest runs the cases as parallel processes.
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("check_metrics_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  fs::create_directories(dir);
  std::ofstream(dir / "cand.json") << candidate;
  std::ofstream(dir / "ref.json") << reference;
  const std::string cmd =
      "python3 '" + (fs::path(DYNAMIPS_TOOLS_DIR) / "check_metrics.py").string() +
      "' '" + (dir / "cand.json").string() + "' '--compare-to=" +
      (dir / "ref.json").string() + "' > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CheckMetrics, TimingGaugesAreExemptBySchema) {
  if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";
  // Same counters, every timing-derived gauge different: passes with no
  // --ignore-gauges flag.
  EXPECT_EQ(compare_metrics(metrics_doc(100, 1.0, 0.5, 2, 1e8),
                            metrics_doc(100, 1.7, 9.0, 11, 3e8)),
            0);
  // A counter that differs still fails, timing gauges or not.
  EXPECT_EQ(compare_metrics(metrics_doc(101, 1.0, 0.5, 2, 1e8),
                            metrics_doc(100, 1.0, 0.5, 2, 1e8)),
            1);
}

TEST(CheckMetrics, OtherGaugesStillCompareExactly) {
  if (!python3_available()) GTEST_SKIP() << "python3 not on PATH";
  std::string cand = metrics_doc(100, 1.0, 0.5, 2, 1e8);
  const std::string ref = cand;
  cand.replace(cand.find("\"cdn.shards\": 4"), 15, "\"cdn.shards\": 1");
  EXPECT_EQ(compare_metrics(cand, ref), 1);
}

}  // namespace
}  // namespace dynamips
