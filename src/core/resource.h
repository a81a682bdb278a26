// resource.h — resource governor: bounded memory/disk for always-on runs.
//
// A long-lived `--follow` stream dies from resource exhaustion long before
// it dies from bit-flips (those are PR 8's failpoints): RSS creeps across
// re-finalizations, the checkpoint/output/quarantine files fill the disk,
// and an ingest backlog outruns the analyzer. The `ResourceGovernor` makes
// that failure mode graceful instead of fatal: it samples the process RSS
// (`/proc/self/statm`) and the free space of the checkpoint/output
// directories (`statvfs`) on a cheap cadence, compares them against
// operator budgets (`--max-rss-mb`, `--min-disk-free-mb`), and exposes a
// small set of pressure predicates the stream loop polls at batch
// boundaries to drive a documented degradation ladder:
//
//   memory pressure (rss >= max_rss_mb)
//     -> force an early durable checkpoint (the high-water mark survives
//        an OOM kill) and defer intermediate re-finalizations — the
//        re-finalization pass is the memory-hungry step, it builds a full
//        per-shard analyzer set over the accumulated dataset
//   disk soft pressure (free < min_disk_free_mb)
//     -> shed quarantine writes — counted, never silent (checkpoint
//        retention stays keep-last-2: a stream checkpoint is a ledger of a
//        few bytes per consumed batch, not worth giving up `.prev` for)
//   disk hard pressure (free < min_disk_free_mb / 2)
//     -> pause ingest entirely until space recovers
//
// None of the ladder's rungs may change study results: deferral and
// shedding only affect *intermediate* publications and diagnostics, and
// the final re-finalization always runs — a pressured run's outputs are
// byte-identical to an unpressured one at any thread count (gated by
// tests/test_stream.cpp).
//
// Observability contract: every governor action increments a named
// `resource.*` counter and every sample refreshes the `resource.rss_mb` /
// `resource.disk_free_mb` / `resource.backlog_batches` gauges, all
// recorded directly into the metrics registry so they are visible live in
// `/v1/metricsz` and in the `/v1/readyz` readiness document — mid-run, not
// only after the stream's final merge. These metrics describe *this
// process's* pressure history, so they are deliberately not persisted in
// checkpoints and are default-exempt in tools/check_metrics.py compares.
//
// Determinism hooks: the probes and the clock are injectable, so tests
// drive the full ladder with fake pressure and a fake cadence clock.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace dynamips::core {

/// Current resident set size of this process in bytes, from
/// `/proc/self/statm` (0 where the file does not exist). Unlike
/// obs::peak_rss_bytes() this is the *live* value, so a freed
/// re-finalization pass shows up as recovery.
std::uint64_t current_rss_bytes();

/// Free bytes available to unprivileged writes on the filesystem holding
/// `path` (statvfs f_bavail * f_frsize; 0 on error — treating an
/// unprobeable disk as full would wedge ingest on a stat hiccup, so
/// callers treat 0 as "unknown", not "empty").
std::uint64_t disk_free_bytes(const std::string& path);

struct ResourceBudgets {
  /// Memory budget in MiB; 0 disables memory-pressure detection.
  std::uint64_t max_rss_mb = 0;
  /// Free-disk floor in MiB; 0 disables disk-pressure detection. Soft
  /// pressure below the floor, hard pressure below half of it.
  std::uint64_t min_disk_free_mb = 0;
  /// Directories whose filesystems are probed; the minimum free space
  /// across them is the governed value (checkpoint dir + output dir).
  std::vector<std::string> disk_paths;
  /// Minimum milliseconds between probe rounds; calls inside the window
  /// return the cached state. 0 probes on every call (tests).
  std::uint64_t sample_interval_ms = 500;
  /// Gauge/counter destination; null disables all metric work.
  obs::MetricsRegistry* metrics = nullptr;

  // --- test hooks (null = the real /proc + statvfs + steady clock) ------
  std::function<std::uint64_t()> rss_probe;                        // bytes
  std::function<std::uint64_t(const std::string&)> disk_free_probe;  // bytes
  std::function<std::uint64_t()> clock_ms;  // monotonic milliseconds
};

enum class DiskPressure : std::uint8_t {
  kOk = 0,
  kSoft,  ///< free < min_disk_free_mb: drop retention, shed quarantine
  kHard,  ///< free < min_disk_free_mb / 2: pause ingest
};

std::string_view disk_pressure_name(DiskPressure pressure);

/// One sampled view of the governed resources.
struct ResourceState {
  std::uint64_t rss_mb = 0;
  std::uint64_t disk_free_mb = 0;  ///< min across disk_paths; see sampled
  bool disk_sampled = false;       ///< false until a disk probe succeeded
  bool memory_pressure = false;
  DiskPressure disk = DiskPressure::kOk;
  /// Scanned-but-unconsumed batch files, as last reported by the stream
  /// loop (note_backlog); 0 for non-streaming runs.
  std::uint64_t backlog_batches = 0;

  bool degraded() const {
    return memory_pressure || disk != DiskPressure::kOk;
  }
};

/// Thread-safe budget enforcer. The stream loop polls the predicates at
/// batch boundaries; the looking-glass readiness endpoint calls sample()
/// from its worker threads concurrently — all state lives behind one
/// mutex and the probes themselves are cadence-limited.
class ResourceGovernor {
 public:
  explicit ResourceGovernor(ResourceBudgets budgets);

  /// Re-probe when the cadence window has elapsed (always, with
  /// sample_interval_ms == 0) and return the latest state.
  ResourceState sample();

  /// Latest state without probing (cheap; may be stale by one cadence).
  ResourceState state() const;

  // Pressure predicates; each samples first.
  bool memory_pressure() { return sample().memory_pressure; }
  bool disk_soft() { return sample().disk >= DiskPressure::kSoft; }
  bool disk_hard() { return sample().disk == DiskPressure::kHard; }

  /// Record the stream's pending-batch backlog (state + the
  /// `resource.backlog_batches` gauge).
  void note_backlog(std::uint64_t batches);

  /// Count one governor action: bumps counter `resource.<action>` in the
  /// registry. Every degradation must pass through here — the acceptance
  /// contract is "observable, never silent".
  void count(std::string_view action, std::uint64_t n = 1);

  const ResourceBudgets& budgets() const { return budgets_; }

 private:
  std::uint64_t now_ms() const;
  std::uint64_t probe_rss() const;
  std::uint64_t probe_disk(const std::string& path) const;

  ResourceBudgets budgets_;
  mutable std::mutex mu_;
  ResourceState state_;
  std::uint64_t last_sample_ms_ = 0;
  bool sampled_once_ = false;
};

}  // namespace dynamips::core
