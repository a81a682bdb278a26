#include "study_io.h"

#include <sstream>
#include <stdexcept>

#include "cdn/generator.h"
#include "core/observations.h"
#include "io/atomic_file.h"
#include "io/results_io.h"
#include "obs/metrics_json.h"

namespace pb {

namespace io = dynamips::io;
namespace obs = dynamips::obs;

const std::vector<std::string>& atlas_csv_names() {
  static const std::vector<std::string> names = {
      "fig1_duration_curves.csv", "fig5_cpl.csv", "table2_bgp_moves.csv",
      "fig6_inference.csv"};
  return names;
}

const std::vector<std::string>& cdn_csv_names() {
  static const std::vector<std::string> names = {
      "fig23_assoc_durations.csv", "fig4_degrees.csv",
      "fig7_zero_boundaries.csv"};
  return names;
}

namespace {

template <typename Fn>
std::string render(Fn&& writer) {
  std::ostringstream os;
  writer(os);
  return std::move(os).str();
}

}  // namespace

std::vector<std::string> render_atlas_csvs(const core::AtlasStudy& study) {
  return {
      render([&](std::ostream& os) { io::write_duration_curves_csv(os, study); }),
      render([&](std::ostream& os) { io::write_cpl_csv(os, study); }),
      render([&](std::ostream& os) { io::write_bgp_moves_csv(os, study); }),
      render([&](std::ostream& os) { io::write_inference_csv(os, study); })};
}

std::vector<std::string> render_cdn_csvs(const core::CdnStudy& study) {
  return {
      render([&](std::ostream& os) { io::write_assoc_durations_csv(os, study); }),
      render([&](std::ostream& os) { io::write_degrees_csv(os, study); }),
      render([&](std::ostream& os) { io::write_zero_boundaries_csv(os, study); })};
}

void publish_csvs(const std::string& dir,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& contents) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string path = dir + "/" + names[i];
    io::AtomicFileWriter out(path);
    if (!out.ok()) throw std::runtime_error("cannot write " + path);
    out.stream() << contents[i];
    core::Status st = out.commit();
    if (!st.ok())
      throw std::runtime_error("cannot write " + path + ": " + st.message());
  }
}

core::CdnFileStudyConfig cdn_file_config(unsigned threads,
                                         obs::MetricsRegistry* m) {
  core::CdnFileStudyConfig cfg;
  cfg.threads = threads;
  cfg.metrics = m;
  for (const auto& entry : dynamips::cdn::default_cdn_population()) {
    if (entry.isp.mobile) cfg.mobile_asns.insert(entry.isp.asn);
    cfg.registries[entry.isp.asn] = entry.isp.registry;
    cfg.asn_names[entry.isp.asn] = entry.isp.name;
  }
  return cfg;
}

void attribute_logs(std::vector<dynamips::cdn::AssociationLog>& logs,
                    const core::CdnFileStudyConfig& cfg) {
  for (auto& log : logs) {
    log.mobile = cfg.mobile_asns.count(log.asn) > 0;
    auto reg = cfg.registries.find(log.asn);
    log.registry = reg == cfg.registries.end() ? dynamips::bgp::Registry::kRipe
                                               : reg->second;
  }
}

AtlasLayers::AtlasLayers(const dynamips::bgp::Rib& rib)
    : sanitizer_(rib, core::SanitizeOptions{}),
      durations_(core::ChangeOptions{}),
      spatial_(rib) {}

std::vector<core::CleanProbe> AtlasLayers::add(
    const dynamips::atlas::ProbeSeries& series, std::uint64_t id,
    Tracer* tracer) {
  core::ProbeObservations obs;
  {
    auto s = span(tracer, "core.from_series", id);
    obs = core::from_series(series);
  }
  std::vector<core::CleanProbe> cleaned;
  {
    auto s = span(tracer, "core.sanitize", id);
    cleaned = sanitizer_.sanitize(obs);
  }
  for (const core::CleanProbe& cp : cleaned) {
    {
      auto s = span(tracer, "core.durations.add", id);
      durations_.add(cp);
    }
    {
      auto s = span(tracer, "core.spatial.add", id);
      spatial_.add(cp);
    }
    {
      auto s = span(tracer, "core.inference.add", id);
      inference_.add(cp);
    }
  }
  return cleaned;
}

void AtlasLayers::merge(AtlasLayers&& other) {
  sanitizer_.merge(std::move(other.sanitizer_));
  durations_.merge(std::move(other.durations_));
  spatial_.merge(std::move(other.spatial_));
  inference_.merge(std::move(other.inference_));
}

void AtlasLayers::finish(core::AtlasStudy& study) {
  sanitizer_.finalize();
  durations_.finalize();
  spatial_.finalize();
  inference_.finalize();
  study.sanitize = sanitizer_.snapshot();
  study.durations = durations_.snapshot();
  study.spatial = spatial_.snapshot();
  core::InferenceSnapshot inferred = inference_.snapshot();
  study.subscriber_inference = std::move(inferred.subscriber);
  study.pool_inference = std::move(inferred.pools);
}

std::string export_metrics(const obs::MetricsRegistry& registry,
                           const std::string& workload, std::uint64_t seed,
                           double* export_ms, double* series) {
  std::uint64_t t0 = now_ns();
  obs::MetricsSink snap = registry.snapshot();
  obs::MetricsMeta meta;
  meta.binary = "perfbench/" + workload;
  meta.seed = seed;
  std::string doc = obs::metrics_to_json(snap, meta);
  *export_ms = double(now_ns() - t0) * 1e-6;
  *series = double(snap.counters().size() + snap.gauges().size() +
                   snap.phases().size() + snap.histograms().size());
  return doc;
}

}  // namespace pb
