// study_io.h — the study-side glue every workload shares: result CSVs
// written exactly as `dynamips_study` writes them, the CDN file-study
// attribution, the layer-by-layer Atlas analyzer set, and the metrics
// registry export that ends each run.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "core/pipeline.h"
#include "obs/metrics.h"

namespace pb {

namespace core = dynamips::core;

const std::vector<std::string>& atlas_csv_names();
const std::vector<std::string>& cdn_csv_names();

/// Render the result CSVs in memory with the io::write_*_csv writers, in
/// atlas_csv_names() / cdn_csv_names() order.
std::vector<std::string> render_atlas_csvs(const core::AtlasStudy& study);
std::vector<std::string> render_cdn_csvs(const core::CdnStudy& study);

/// Publish rendered CSVs into `dir` through io::AtomicFileWriter (tmp +
/// fsync + rename), as `dynamips_study` does. Throws on an I/O failure.
void publish_csvs(const std::string& dir,
                  const std::vector<std::string>& names,
                  const std::vector<std::string>& contents);

/// File-study config with the population's access-type, registry and name
/// attribution, as `dynamips_study --cdn-in` builds it.
core::CdnFileStudyConfig cdn_file_config(unsigned threads,
                                         dynamips::obs::MetricsRegistry* m);

/// Graft the config's access-type and registry attribution onto loaded
/// logs, as the file-study pipeline does (the CSV and columnar schemas
/// carry neither).
void attribute_logs(std::vector<dynamips::cdn::AssociationLog>& logs,
                    const core::CdnFileStudyConfig& cfg);

/// The Atlas study's analyzer set, driven one layer call at a time. With a
/// tracer, each call is a span carrying the probe index as its trace id.
class AtlasLayers {
 public:
  explicit AtlasLayers(const dynamips::bgp::Rib& rib);
  /// from_series + sanitize + every analyzer `add` for one probe; returns
  /// the probe's clean (virtual) probes.
  std::vector<core::CleanProbe> add(
      const dynamips::atlas::ProbeSeries& series, std::uint64_t id,
      Tracer* tracer);
  void merge(AtlasLayers&& other);
  /// finalize + snapshot into `study` (whose rib/as_names are set).
  void finish(core::AtlasStudy& study);

 private:
  core::Sanitizer sanitizer_;
  core::DurationAnalyzer durations_;
  core::SpatialAnalyzer spatial_;
  core::InferenceCollector inference_;
};

/// Export the registry as a `dynamips.metrics.v1` document, as
/// `dynamips_study --metrics-out` does at run end. Returns the document;
/// `export_ms` and `series` receive its cost and its series count.
std::string export_metrics(const dynamips::obs::MetricsRegistry& registry,
                           const std::string& workload, std::uint64_t seed,
                           double* export_ms, double* series);

}  // namespace pb
