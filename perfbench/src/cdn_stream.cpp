// cdn_stream — an open loop into StreamDriver::follow_cdn. A publisher
// thread renames day-ordered CSV batches of a small CDN dataset into a
// watch directory on a fixed schedule; the stream runs two threads,
// re-finalizes after every batch with its checkpoint on, and the snapshot
// callback rewrites the result CSVs as `dynamips_study --follow` does.
// Latency runs from the due time of the last batch in a snapshot to that
// snapshot's callback. This is the incremental core.assoc path, the CSV
// reader, growing stream checkpoints and the 2-shard ordered reduction.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "cdn/generator.h"
#include "io/checkpoint.h"
#include "io/columnar.h"
#include "io/readers.h"
#include "study_io.h"
#include "workloads.h"

namespace pb {

namespace {

namespace cdn = dynamips::cdn;
namespace fs = std::filesystem;
namespace io = dynamips::io;

constexpr int kDays = 150;  // CdnConfig::days

struct Schedule {
  int batches = 0;
  double period_s = 0;
};

// One batch per period; at most one batch per collection day, so no batch
// is empty.
Schedule schedule(const RunOptions& opt) {
  const double target = opt.tiny ? 0.05 : 0.08;
  Schedule s;
  s.batches = int(std::clamp(std::lround(opt.seconds / target), 10L,
                             long(kDays)));
  s.period_s = opt.seconds / s.batches;
  return s;
}

std::string batch_name(int k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "batch-%05d.csv", k);
  return buf;
}

std::vector<std::string> batch_paths(const RunOptions& opt, int n) {
  std::vector<std::string> paths;
  for (int k = 0; k < n; ++k)
    paths.push_back(opt.dir + "/batches/" + batch_name(k));
  return paths;
}

/// The stream replayed window by window from the batch files: ingest and
/// merge each batch, then a full analyzer pass + snapshot over the
/// accumulated logs, then the result CSVs — what every re-finalization
/// does. Returns the total records ingested; `csvs` receives the last
/// window's result CSVs.
std::uint64_t replay(const std::vector<std::string>& paths,
                     const core::CdnFileStudyConfig& cfg,
                     const std::string& out, Tracer* tr,
                     std::vector<std::string>& csvs) {
  auto root = span(tr, "run");
  std::vector<cdn::AssociationLog> dataset;
  std::uint64_t records = 0;
  for (std::size_t k = 0; k < paths.size(); ++k) {
    std::vector<cdn::AssociationLog> part;
    {
      auto s = span(tr, "io.csv.read", k);
      auto loaded = io::load_assoc_file(paths[k]);
      if (!loaded.ok()) throw std::runtime_error(loaded.status().to_string());
      part = loaded.take();
    }
    for (const auto& log : part) records += log.records.size();
    {
      auto s = span(tr, "io.merge", k);
      io::merge_assoc_datasets(dataset, std::move(part));
    }
    core::CdnStudy study;
    {
      auto s = span(tr, "core.stream.refinalize", k);
      attribute_logs(dataset, cfg);
      core::CdnAnalyzer analyzer(cfg.assoc, cfg.mobile_asns);
      for (const auto& log : dataset) {
        auto a = span(tr, "core.assoc.add_log", k);
        analyzer.add_log(log);
      }
      auto a = span(tr, "core.assoc.snapshot", k);
      analyzer.finalize();
      study.analyzer = analyzer.snapshot();
      study.asn_names = cfg.asn_names;
    }
    auto s = span(tr, "io.results.write", k);
    csvs = render_cdn_csvs(study);
    publish_csvs(out, cdn_csv_names(), csvs);
  }
  return records;
}

}  // namespace

void prepare_cdn_stream(const RunOptions& opt) {
  cdn::CdnConfig ccfg;
  ccfg.subscriber_scale = opt.tiny ? 0.002 : 0.003;
  ccfg.seed = opt.seed;
  const Schedule sched = schedule(opt);
  cdn::CdnSimulator sim(cdn::default_cdn_population(ccfg.subscriber_scale),
                        ccfg);
  std::vector<cdn::AssociationLog> dataset;
  for (std::size_t i = 0; i < sim.entry_count(); ++i)
    dataset.push_back(sim.generate(i));

  fs::create_directories(opt.dir + "/batches");
  const std::vector<std::string> paths = batch_paths(opt, sched.batches);
  std::uint64_t records = 0;
  for (int k = 0; k < sched.batches; ++k) {
    const std::uint32_t lo = std::uint32_t(k * kDays / sched.batches);
    const std::uint32_t hi = std::uint32_t((k + 1) * kDays / sched.batches);
    std::vector<cdn::AssociationLog> batch;
    for (const auto& log : dataset) {
      cdn::AssociationLog part;
      part.asn = log.asn;
      for (const auto& rec : log.records)
        if (rec.day >= lo && rec.day < hi) part.records.push_back(rec);
      records += part.records.size();
      if (!part.records.empty()) batch.push_back(std::move(part));
    }
    std::ofstream os(paths[k], std::ios::binary | std::ios::trunc);
    io::write_assoc_dataset(os, batch);
    if (!os) throw std::runtime_error("cannot write " + paths[k]);
  }

  // Reference: one file study over the same batches (the pipeline.h
  // contract for a stream).
  auto study = core::run_cdn_study_from_files(paths, cdn_file_config(1, nullptr));
  if (!study.ok()) throw std::runtime_error(study.status().to_string());
  const std::string ref_dir = opt.dir + "/ref";
  fs::create_directories(ref_dir);
  const std::vector<std::string> csvs = render_cdn_csvs(study.value());
  publish_csvs(ref_dir, cdn_csv_names(), csvs);
  KeyValues ref;
  ref.set("digest", digest(cdn_csv_names(), csvs));
  ref.set("records", records);
  ref.set("batches", std::uint64_t(sched.batches));
  ref.save(opt.dir + "/ref.txt");
}

void run_cdn_stream(const RunOptions& opt, Report& report) {
  const KeyValues ref = KeyValues::load(opt.dir + "/ref.txt");
  const Schedule sched = schedule(opt);
  const int n = sched.batches;
  report.check(ref.get_u64("batches") == std::uint64_t(n),
               "prepared batch count does not match the schedule");
  const std::vector<std::string> paths = batch_paths(opt, n);
  const std::string watch = opt.dir + "/watch";
  const std::string out = opt.dir + "/out";
  const std::string ckpt = opt.dir + "/stream.ckpt";
  fs::remove_all(watch);
  fs::create_directories(watch);
  fs::create_directories(out);

  // Stage each batch under a hidden name (the stream skips dot files), so
  // publishing is a single rename at its due time.
  for (int k = 0; k < n; ++k)
    fs::copy_file(paths[k], watch + "/." + batch_name(k),
                  fs::copy_options::overwrite_existing);
  const double ref_start = ref_loop_ms();
  reset_hwm();

  // Set-up: the study config and the stream's thread pool, timed once
  // before the stream (the last pool is the one measured) and twice after
  // it, so the median samples the host at both ends of the run.
  dynamips::obs::MetricsRegistry registry;
  std::vector<double> setup;
  core::CdnFileStudyConfig cfg;
  std::optional<core::StreamDriver> driver;
  auto time_setup = [&] {
    for (int r = 0; r < setup_reps(opt); ++r) {
      driver.reset();
      std::uint64_t t0 = now_ns();
      cfg = cdn_file_config(2, &registry);
      driver.emplace(2);
      setup.push_back(seconds_between(t0, now_ns()));
    }
  };
  time_setup();

  core::StreamConfig sc;
  sc.refinalize_every_batches = 1;
  sc.poll_ms = 2;
  sc.checkpoint_path = ckpt;
  sc.io_retry_seed = opt.seed;

  const std::uint64_t period_ns = std::uint64_t(sched.period_s * 1e9);
  const std::uint64_t t0 = now_ns() + 20'000'000;
  std::vector<std::uint64_t> due(n);
  for (int k = 0; k < n; ++k) due[k] = t0 + std::uint64_t(k) * period_ns;
  std::vector<double> late_ms(n, 0);
  std::atomic<int> published{0};
  std::string publish_error;
  auto sleep_until = [](std::uint64_t t) {
    std::uint64_t now = now_ns();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
  };
  std::thread publisher([&] {
    for (int k = 0; k < n; ++k) {
      sleep_until(due[k]);
      std::error_code ec;
      fs::rename(watch + "/." + batch_name(k), watch + "/" + batch_name(k), ec);
      late_ms[k] = double(now_ns() - due[k]) * 1e-6;
      if (ec && publish_error.empty()) publish_error = ec.message();
      published.store(k + 1);
    }
    sleep_until(t0 + std::uint64_t(n) * period_ns);
    std::ofstream(watch + "/stream.stop") << "stop\n";
  });
  // The publisher ends on its own schedule; join it on every path,
  // including an exception out of the stream or its callback.
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{publisher};

  std::vector<double> latency;
  int backlog_max = 0;
  std::uint64_t ckpt_first = 0;
  auto on_snapshot = [&](const core::CdnStudy& snap,
                         const core::StreamStats& st) {
    const std::uint64_t now = now_ns();
    latency.push_back(double(std::int64_t(now - due[st.batches - 1])) * 1e-9);
    backlog_max = std::max(backlog_max, published.load() - int(st.batches));
    if (ckpt_first == 0) ckpt_first = file_size(ckpt);
    publish_csvs(out, cdn_csv_names(), render_cdn_csvs(snap));
  };
  io::IngestStats ingest;
  core::StreamStats sstats;
  auto result = driver->follow_cdn(watch, cfg, sc, on_snapshot, &ingest,
                                   &sstats);
  std::vector<std::string> final_csvs;
  if (result.ok()) {
    final_csvs = render_cdn_csvs(result.value());
    publish_csvs(out, cdn_csv_names(), final_csvs);
  }
  const std::uint64_t t_end = now_ns();
  publisher.join();
  time_setup();
  time_setup();

  const auto snap = registry.snapshot();
  auto giveups = snap.counters().find("io.giveups");
  const std::uint64_t failures =
      ingest.total_rejects() +
      (giveups == snap.counters().end() ? 0 : giveups->second.value) +
      (result.ok() ? 0 : 1);
  report.attempt(std::uint64_t(n), failures);
  report.check(publish_error.empty(), "publisher failed: " + publish_error);
  if (!result.ok()) {
    report.check(false, "stream failed: " + result.status().to_string());
    return report_host(opt, report, ref_start);
  }
  report.check(sstats.batches == std::uint64_t(n),
               "stream consumed a different number of batches");
  report.check(sstats.records == ref.get_u64("records"),
               "stream ingested a different number of records");
  report.check(!latency.empty(), "stream published no snapshot");
  if (opt.perturb) final_csvs[0][0] ^= 1;
  report.check(digest(cdn_csv_names(), final_csvs) == ref.get_u64("digest"),
               "final stream CSVs differ from the one-shot file-study "
               "reference over the same batches");

  double export_ms = 0, series = 0;
  export_metrics(registry, opt.workload, opt.seed, &export_ms, &series);
  const double p90_ms = quantile(latency, 0.9) * 1e3;
  const double late_p99 = quantile(late_ms, 0.99);

  if (!opt.trace) {
    report.metric("setup_s", median(setup), "s");
    report.metric("records_per_s",
                  double(sstats.records) / seconds_between(t0, t_end),
                  "records/s");
    report.metric("peak_rss_mb", vm_hwm_mb(), "MiB");
    report.info("latency_p50_ms", median(latency) * 1e3, "ms");
    report.info("latency_p90_ms", p90_ms, "ms");
    report.info("snapshots", double(latency.size()), "count");
    report.info("gen.late_ms_p99", late_p99, "ms");
    report.info("gen.backlog_max", backlog_max, "count");
    report.info("obs.export_ms", export_ms, "ms");
  } else {
    const std::uint64_t ckpt_last = file_size(ckpt);
    double ckpt_mb_per_s = 0;
    {
      auto ck = io::read_checkpoint(ckpt);
      if (!ck.ok()) throw std::runtime_error(ck.status().to_string());
      const std::string copy = opt.dir + "/stream-copy.ckpt";
      std::uint64_t w0 = now_ns();
      core::Status st = io::write_checkpoint(copy, ck.value(), false);
      const double write_s = seconds_between(w0, now_ns());
      report.check(st.ok(), "checkpoint rewrite failed: " + st.to_string());
      ckpt_mb_per_s = double(file_size(copy)) / 1e6 / write_s;
    }

    // Replays of the stream's windows: untraced, then traced.
    const std::string uout = opt.dir + "/out_replay";
    const std::string tout = opt.dir + "/out_traced";
    fs::create_directories(uout);
    fs::create_directories(tout);
    std::uint64_t u0 = now_ns();
    std::vector<std::string> replay_csvs, traced_csvs;
    replay(paths, cfg, uout, nullptr, replay_csvs);
    const double untraced_s = seconds_between(u0, now_ns());
    Tracer tracer;
    const std::uint64_t records =
        replay(paths, cfg, tout, &tracer, traced_csvs);
    std::uint64_t result_bytes = 0;
    digest(cdn_csv_names(), traced_csvs, &result_bytes);
    report.check(replay_csvs == final_csvs && traced_csvs == final_csvs,
                 "traced replay CSVs differ from the stream's final CSVs");
    tracer.write_jsonl(opt.dir + "/trace.jsonl");

    const std::vector<double> refin = tracer.durations("core.stream.refinalize");
    const std::vector<double> adds = tracer.durations("core.assoc.add_log");
    const double read_s = tracer.self_seconds("io.csv.read");
    report.metric("latency_p50_ms", median(latency) * 1e3, "ms");
    report.metric("latency_p90_ms", p90_ms, "ms");
    report.metric("core.stream.refinalize_ms_p50", median(refin) * 1e3, "ms");
    report.metric("core.stream.refinalize_ms_max", quantile(refin, 1.0) * 1e3,
                  "ms");
    report.metric("core.assoc.add_log.busy_s",
                  tracer.self_seconds("core.assoc.add_log"), "s");
    report.metric("core.assoc.add_log.p50_s", median(adds), "s");
    report.metric("core.assoc.add_log.max_s", quantile(adds, 1.0), "s");
    report.metric("core.assoc.snapshot_s",
                  tracer.self_seconds("core.assoc.snapshot"), "s");
    report.metric("core.assoc.kept_ratio",
                  double(result.value().analyzer.total_tuples()) /
                      double(records),
                  "ratio");
    report.metric("io.csv.read_ms_p50",
                  median(tracer.durations("io.csv.read")) * 1e3, "ms");
    report.metric("io.csv.records_per_s", double(records) / read_s,
                  "records/s");
    report.metric("io.merge.busy_s", tracer.self_seconds("io.merge"), "s");
    report.metric("io.checkpoint.bytes_first", double(ckpt_first), "bytes");
    report.metric("io.checkpoint.bytes_last", double(ckpt_last), "bytes");
    report.metric("io.checkpoint.write_mb_per_s", ckpt_mb_per_s, "MB/s");
    report.metric("io.results.write_s", tracer.self_seconds("io.results.write"),
                  "s");
    report.metric("io.results.bytes", double(result_bytes), "bytes");
    report.metric("gen.late_ms_p99", late_p99, "ms");
    report.metric("gen.backlog_max", backlog_max, "count");
    report.metric("obs.export_ms", export_ms, "ms");
    report.metric("obs.series", series, "count");
    report.metric("trace.overhead_ratio",
                  tracer.root_seconds("run") / untraced_s - 1, "ratio");
    report.metric("trace.coverage", tracer.coverage("run"), "ratio");
  }
  io::remove_checkpoint_files(ckpt);
  report_host(opt, report, ref_start);
}

}  // namespace pb
