// workloads.h — the four benchmark workloads. Each has a `prepare` step,
// run in its own process before the measured one, that writes every input
// file and per-seed reference into the work directory, and a `run` step,
// the measured process, that reports end-to-end metrics (or, traced, the
// per-layer metrics) and fails the run when an output check fails.
#pragma once

#include "common.h"

namespace pb {

void prepare_atlas_gen(const RunOptions& opt);
void run_atlas_gen(const RunOptions& opt, Report& report);

void prepare_cdn_col(const RunOptions& opt);
void run_cdn_col(const RunOptions& opt, Report& report);

void prepare_cdn_stream(const RunOptions& opt);
void run_cdn_stream(const RunOptions& opt, Report& report);

void prepare_lg_query(const RunOptions& opt);
void run_lg_query(const RunOptions& opt, Report& report);

/// Set-up repetitions per round (the minimum for a batch workload's round,
/// below). Each workload times rounds at both ends of its run (batch
/// workloads also between studies), so its set-up samples the host across
/// the whole run.
inline int setup_reps(const RunOptions& opt) { return opt.tiny ? 3 : 17; }

/// One set-up round of a batch workload: `construct` (one full set-up,
/// which records its own times) is repeated back to back for 0.3 s of wall
/// time and at least setup_reps() times. Callers keep one median per round
/// and report the fastest round's as setup_s: the shared host switches
/// between speed states lasting from 0.1 s to minutes, a 0.3 s round sits
/// in one of them, and the median over a run's rounds jumps between states
/// from run to run (perfbench/README.md, "Set-up time"). Samples are held
/// only during a round, never during a study.
template <class Construct>
void setup_round(const RunOptions& opt, Construct&& construct) {
  const double round_s = opt.tiny ? 0 : 0.3;
  const std::uint64_t start = now_ns();
  for (int r = 0; r < setup_reps(opt) ||
                  seconds_between(start, now_ns()) < round_s;
       ++r)
    construct();
}

}  // namespace pb
