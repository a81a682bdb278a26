// common.h — measurement helpers shared by the perfbench workloads:
// clocks and quantiles, result digests, process memory probes, the drift
// probe, per-seed reference files, the in-memory span tracer, and the
// report that prints every metric by name with its unit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace pb {

using dynamips::obs::now_ns;

inline double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return double(t1_ns - t0_ns) * 1e-9;
}

/// Quantile with linear interpolation between closest ranks (the
/// definition of Python's statistics.quantiles "inclusive" method and
/// numpy's default). Empty input gives 0.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Fixed-memory latency histogram: 100 ns buckets up to 1 ms, 10 us
/// buckets up to 100 ms, then one overflow bucket. Recording never
/// allocates, so the measured process's peak RSS does not grow with the
/// number of requests a run completes.
class LatencyHistogram {
 public:
  void record(double seconds);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Bucket midpoint at quantile `q`, in seconds (0 when empty).
  double quantile(double q) const;

 private:
  static constexpr std::size_t kFine = 10000, kCoarse = 9900;
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(kFine + kCoarse + 1, 0);
  std::uint64_t count_ = 0;
};

/// FNV-1a 64 over `bytes`, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ull);

/// Digest of a set of results: name and content of each, in the given
/// order. `bytes`, when non-null, receives the total content size.
std::uint64_t digest(const std::vector<std::string>& names,
                     const std::vector<std::string>& contents,
                     std::uint64_t* bytes = nullptr);

std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);
std::uint64_t file_size(const std::string& path);

/// Peak (VmHWM) and current (VmRSS) resident set of this process, MiB.
double vm_hwm_mb();
double vm_rss_mb();
/// Return freed heap to the OS and reset VmHWM to the current RSS (writes
/// 5 to /proc/self/clear_refs), so benchmark-side allocations made before
/// the measured phase do not count.
void reset_hwm();

/// A fixed CPU loop, timed: the machine-speed drift probe. Never used to
/// rescale any metric.
double ref_loop_ms();

/// Flat key=value text file: per-seed references written by `prepare`.
class KeyValues {
 public:
  void set(const std::string& key, const std::string& value) {
    kv_[key] = value;
  }
  void set(const std::string& key, std::uint64_t value) {
    kv_[key] = std::to_string(value);
  }
  std::string get(const std::string& key) const;
  std::uint64_t get_u64(const std::string& key) const;
  void save(const std::string& path) const;
  static KeyValues load(const std::string& path);

 private:
  std::map<std::string, std::string> kv_;
};

/// In-memory span recorder. Each span has a name, a start, an end, its
/// parent span and a trace id (probe, log, batch or request index). Spans
/// nest through a stack, so the recorder is single-threaded by design: the
/// traced runs drive the layers from one thread.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t parent;  ///< index into spans(), kNoParent for roots
    std::uint64_t trace_id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t trace_id);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    void close();

   private:
    Tracer* tracer_;
    std::uint32_t id_ = 0;
  };

  /// Durations (seconds) of every span named `name`.
  std::vector<double> durations(std::string_view name) const;
  /// Self time of every span named `name`, summed: span time minus the
  /// time covered by its direct children.
  double self_seconds(std::string_view name) const;
  /// Share of the root span named `root` covered by its direct children.
  double coverage(std::string_view root) const;
  /// Wall time of the first root span named `root`.
  double root_seconds(std::string_view root) const;

  /// One JSON object per span, one per line.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Span scope that is a no-op when `tracer` is null, so traced and
/// untraced passes share one code path.
inline Tracer::Scope span(Tracer* tracer, const char* name,
                          std::uint64_t trace_id = 0) {
  return Tracer::Scope(tracer, name, trace_id);
}

/// Collects metrics and correctness results for one run and prints them.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A figure printed for the record (an `info` line on stdout) but not
  /// part of the result object: the drift probe, the error rate, and the
  /// end-to-end metrics of the other mode.
  void info(const std::string& name, double value, const std::string& unit);
  /// Fails the run (correct = false) when `ok` is false.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t n, std::uint64_t failed = 0) {
    attempted_ += n;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Print the result object as the last line of stdout; returns the exit
  /// code (0 only when every check passed).
  int finish() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  std::string dir;         ///< work directory holding the prepared inputs
  double seconds = 10;     ///< measured phase length
  bool trace = false;
  bool tiny = false;       ///< self-check size
  bool perturb = false;    ///< corrupt one output; the run must fail
};

/// Close a run's record: the drift probe (timed at the start and again
/// now) and the error rate become per-layer metrics in a traced run and
/// info lines otherwise.
void report_host(const RunOptions& opt, Report& report, double ref_start_ms);

}  // namespace pb
