// The four benchmark workloads and the run loop that measures them.
//
//   paper_grid       exhaustive SearchBestStrategy over the paper's keys
//   wide_sweep       two-phase search sessions on the widened grid
//   cluster_traffic  ClusterService episodes under Poisson job traffic
//   failure_runs     elastic / restart / resilience training runs
//
// Every workload builds its inputs from the seed alone, runs whole
// passes over them until the requested time is spent, and checks each
// output. A traced run additionally replays every request's calls into
// the layers below it under spans (see spans.h) and reports per-layer
// self times and counts.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test size: a handful of requests per workload.
  bool tiny = false;
  // Self-test fault injection: "corrupt_reference" perturbs one row of
  // the paper reference, "flip_log" flips one byte of every episode's
  // event log before it is validated.
  std::string inject;
  // failure_runs: add the engine-grounded straggler cells, which fail at
  // this revision (see README.md).
  bool known_failures = false;
  // Checkout root, where the checked-in reference CSVs live.
  std::string root = ".";
  // Span file of the traced run (empty = do not write).
  std::string trace_path;
};

struct Report {
  double setup_s = 0;              // median over repeated set-ups
  std::vector<double> latencies;   // host seconds per request, all passes
  double busy_s = 0;               // host seconds inside library calls
  long attempted = 0;
  long failed = 0;                 // threw, or failed a check
  long wrong = 0;                  // of those: completed with a wrong output
  int passes = 0;
  std::vector<double> pass_seconds;  // wall time of each measured pass
  // Simulated outcome of the first pass; deterministic for a seed.
  // Only the metrics a workload defines are present.
  std::map<std::string, double> outcome;
  // Per-layer metrics of the traced pass (empty when untraced).
  std::map<std::string, double> layers;
};

// Throws std::runtime_error on an unknown workload or missing inputs.
Report RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
