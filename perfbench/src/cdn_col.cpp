// cdn_col — run_cdn_study_from_files over a per-seed DYNCOL1 `.col` at
// scale 0.3 (17 logs, ~5.8 M tuples), one thread. Most of the work is the
// io columnar decode, the core.assoc sorts and resident memory; generation,
// the sanitizer, checkpoints and lg are bypassed.
#include <atomic>
#include <filesystem>
#include <thread>

#include "cdn/generator.h"
#include "io/columnar.h"
#include "study_io.h"
#include "workloads.h"

namespace pb {

namespace {

namespace cdn = dynamips::cdn;
namespace io = dynamips::io;

cdn::CdnConfig cdn_config(const RunOptions& opt) {
  cdn::CdnConfig cfg;
  cfg.subscriber_scale = opt.tiny ? 0.01 : 0.3;
  cfg.seed = opt.seed;
  return cfg;
}

}  // namespace

void prepare_cdn_col(const RunOptions& opt) {
  const cdn::CdnConfig ccfg = cdn_config(opt);
  const auto population = cdn::default_cdn_population(ccfg.subscriber_scale);
  KeyValues ref;
  {
    cdn::CdnSimulator sim(population, ccfg);
    std::vector<cdn::AssociationLog> dataset(sim.entry_count());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < dataset.size(); i = next++)
          dataset[i] = sim.generate(i);
      });
    for (auto& w : workers) w.join();
    std::uint64_t tuples = 0;
    for (const auto& log : dataset) tuples += log.records.size();
    const std::string col = opt.dir + "/cdn.col";
    core::Status st = io::write_assoc_columnar(col, dataset);
    if (!st.ok()) throw std::runtime_error(st.to_string());
    ref.set("tuples", tuples);
    ref.set("logs", dataset.size());
    ref.set("col_bytes", file_size(col));
  }

  // Reference results from the generator path, which never touches the
  // columnar reader.
  core::CdnStudyConfig scfg;
  scfg.cdn = ccfg;
  scfg.threads = 4;
  core::CdnStudy study = core::run_cdn_study(population, scfg);
  const std::string ref_dir = opt.dir + "/ref";
  std::filesystem::create_directories(ref_dir);
  const std::vector<std::string> csvs = render_cdn_csvs(study);
  publish_csvs(ref_dir, cdn_csv_names(), csvs);
  ref.set("digest", digest(cdn_csv_names(), csvs));
  ref.save(opt.dir + "/ref.txt");
}

void run_cdn_col(const RunOptions& opt, Report& report) {
  const KeyValues ref = KeyValues::load(opt.dir + "/ref.txt");
  const std::uint64_t ref_digest = ref.get_u64("digest");
  const std::uint64_t tuples = ref.get_u64("tuples");
  const std::string col = opt.dir + "/cdn.col";
  const double ref_start = ref_loop_ms();
  reset_hwm();

  // Set-up: what a file study constructs besides its input: the
  // population attribution, the study's AS names, the shard executor and
  // the analyzer. One median per round; the fastest round is reported.
  dynamips::obs::MetricsRegistry registry;
  std::vector<double> setup;
  core::CdnFileStudyConfig cfg;
  auto time_setup = [&] {
    std::vector<double> round;
    setup_round(opt, [&] {
      std::uint64_t t0 = now_ns();
      cfg = cdn_file_config(1, &registry);
      core::CdnStudy study;
      study.asn_names = cfg.asn_names;
      core::ShardExecutor exec(1);
      core::CdnAnalyzer analyzer(cfg.assoc, cfg.mobile_asns);
      round.push_back(seconds_between(t0, now_ns()));
    });
    setup.push_back(median(round));
  };
  time_setup();

  auto check_study = [&](const core::CdnStudy& study, const char* what) {
    report.check(study.analyzer.total_tuples() +
                         study.analyzer.total_mismatched() ==
                     tuples,
                 std::string(what) +
                     ": accepted + mismatched tuples != input tuples");
  };

  // Each study's CSVs are reduced to their digest at once, so they do not
  // stay resident through the next study.
  std::vector<double> walls;
  std::uint64_t study_digest = 0;
  const std::uint64_t start = now_ns();
  do {
    registry.reset();
    {
      std::uint64_t t0 = now_ns();
      io::IngestStats ingest;
      auto result = core::run_cdn_study_from_files({col}, cfg, &ingest);
      if (!result.ok()) {
        report.attempt(1, 1);
        report.check(false,
                     "cdn study failed: " + result.status().to_string());
        break;
      }
      core::CdnStudy study = result.take();
      std::vector<std::string> csvs = render_cdn_csvs(study);
      walls.push_back(seconds_between(t0, now_ns()));
      report.attempt(1);
      if (opt.perturb && walls.size() == 1) csvs[0][0] ^= 1;
      check_study(study, "cdn study");
      report.check(ingest.records_accepted == tuples,
                   "ingested tuples != input tuples");
      study_digest = digest(cdn_csv_names(), csvs);
      report.check(study_digest == ref_digest,
                   "cdn result CSVs differ from the generator-path reference");
    }
    time_setup();
  } while (!opt.trace && seconds_between(start, now_ns()) < opt.seconds);
  if (walls.empty()) return report_host(opt, report, ref_start);

  double export_ms = 0, series = 0;
  export_metrics(registry, opt.workload, opt.seed, &export_ms, &series);

  if (!opt.trace) {
    std::vector<double> rates;
    for (double w : walls) rates.push_back(double(tuples) / w);
    report.metric("setup_s", quantile(setup, 0), "s");
    report.metric("records_per_s", median(rates), "records/s");
    report.metric("peak_rss_mb", vm_hwm_mb(), "MiB");
    report.info("studies", double(walls.size()), "count");
    report.info("setup_s.round_p50", median(setup), "s");
    report.info("study_ms_p50", median(walls) * 1e3, "ms");
    report.info("study_ms_min", quantile(walls, 0) * 1e3, "ms");
    report.info("study_ms_max", quantile(walls, 1) * 1e3, "ms");
    report.info("obs.export_ms", export_ms, "ms");
  } else {
    // Traced run: the same file study driven one layer call at a time.
    Tracer tracer;
    Tracer* tr = &tracer;
    core::CdnStudy study;
    std::vector<std::string> traced_csvs;
    double read_rss = 0, add_rss = 0;
    {
      auto root = span(tr, "run");
      std::vector<cdn::AssociationLog> dataset;
      {
        auto s = span(tr, "io.columnar.read");
        const double rss0 = vm_rss_mb();
        auto part = io::read_assoc_columnar(col);
        if (!part.ok()) throw std::runtime_error(part.status().to_string());
        read_rss = vm_rss_mb() - rss0;
        s.close();
        auto m = span(tr, "io.merge");
        io::merge_assoc_datasets(dataset, part.take());
      }
      {
        auto s = span(tr, "core.assoc.attribute");
        attribute_logs(dataset, cfg);
      }
      core::CdnAnalyzer analyzer(cfg.assoc, cfg.mobile_asns);
      const double rss0 = vm_rss_mb();
      for (std::size_t i = 0; i < dataset.size(); ++i) {
        auto s = span(tr, "core.assoc.add_log", i);
        analyzer.add_log(dataset[i]);
      }
      add_rss = vm_rss_mb() - rss0;
      {
        auto s = span(tr, "core.assoc.snapshot");
        analyzer.finalize();
        study.analyzer = analyzer.snapshot();
        study.asn_names = cfg.asn_names;
      }
      {
        auto s = span(tr, "io.results.write");
        traced_csvs = render_cdn_csvs(study);
      }
      {
        auto s = span(tr, "io.release");
        std::vector<cdn::AssociationLog>().swap(dataset);
      }
    }
    check_study(study, "traced cdn study");
    std::uint64_t result_bytes = 0;
    report.check(
        digest(cdn_csv_names(), traced_csvs, &result_bytes) == study_digest,
        "traced result CSVs differ from the untraced run's");
    tracer.write_jsonl(opt.dir + "/trace.jsonl");

    const double read_s = tracer.self_seconds("io.columnar.read");
    const std::vector<double> adds = tracer.durations("core.assoc.add_log");
    report.metric("io.columnar.read_s", read_s, "s");
    report.metric("io.columnar.mb_per_s",
                  double(ref.get_u64("col_bytes")) / 1e6 / read_s, "MB/s");
    report.metric("io.columnar.rss_delta_mb", read_rss, "MiB");
    report.metric("io.merge.busy_s", tracer.self_seconds("io.merge"), "s");
    report.metric("core.assoc.add_log.busy_s",
                  tracer.self_seconds("core.assoc.add_log"), "s");
    report.metric("core.assoc.add_log.p50_s", median(adds), "s");
    report.metric("core.assoc.add_log.max_s", quantile(adds, 1.0), "s");
    report.metric("core.assoc.kept_ratio",
                  double(study.analyzer.total_tuples()) / double(tuples),
                  "ratio");
    report.metric("core.assoc.snapshot_s",
                  tracer.self_seconds("core.assoc.snapshot"), "s");
    report.metric("core.assoc.rss_delta_mb", add_rss, "MiB");
    report.metric("io.results.write_s", tracer.self_seconds("io.results.write"),
                  "s");
    report.metric("io.results.bytes", double(result_bytes), "bytes");
    report.metric("obs.export_ms", export_ms, "ms");
    report.metric("obs.series", series, "count");
    report.metric("trace.overhead_ratio",
                  tracer.root_seconds("run") / walls.front() - 1, "ratio");
    report.metric("trace.coverage", tracer.coverage("run"), "ratio");
  }
  report_host(opt, report, ref_start);
}

}  // namespace pb
