// perfbench_driver — the benchmark's program side.
//
//   perfbench_driver prepare --workload W --seed N --dir D --seconds S [--tiny]
//   perfbench_driver run     --workload W --seed N --dir D --seconds S
//                            [--trace 0|1] [--tiny] [--perturb]
//
// `prepare` writes the workload's inputs and per-seed references into D;
// `run` is the measured process. It prints `info` lines, then one JSON
// result object as its last stdout line, and exits 0 only when every
// output check passed. perfbench/run.py drives both.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver prepare|run --workload W --seed N "
               "--dir D --seconds S [--trace 0|1] [--tiny] [--perturb]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  pb::RunOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--dir") {
      opt.dir = next();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = next() == "1";
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--perturb") {
      opt.perturb = true;
    } else {
      usage();
    }
  }
  if (opt.dir.empty() || opt.seconds <= 0) usage();

  using Prepare = void (*)(const pb::RunOptions&);
  using Run = void (*)(const pb::RunOptions&, pb::Report&);
  Prepare prepare = nullptr;
  Run run = nullptr;
  if (opt.workload == "atlas_gen") {
    prepare = pb::prepare_atlas_gen;
    run = pb::run_atlas_gen;
  } else if (opt.workload == "cdn_col") {
    prepare = pb::prepare_cdn_col;
    run = pb::run_cdn_col;
  } else if (opt.workload == "cdn_stream") {
    prepare = pb::prepare_cdn_stream;
    run = pb::run_cdn_stream;
  } else if (opt.workload == "lg_query") {
    prepare = pb::prepare_lg_query;
    run = pb::run_lg_query;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  try {
    if (mode == "prepare") {
      prepare(opt);
      return 0;
    }
    if (mode != "run") usage();
    pb::Report report;
    run(opt, report);
    return report.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver %s %s: %s\n", mode.c_str(),
                 opt.workload.c_str(), e.what());
    return 1;
  }
}
