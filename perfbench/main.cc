// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--root <checkout>] [--trace-out <spans.json>]
//             [--tiny] [--inject corrupt_reference|flip_log] [--known-failures]
//
// Prints a readable summary, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},          {"requests_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},  {"peak_rss_mb", "MiB"},
};

const std::vector<Metric> kPerLayer = {
    {"planner.candidates", "count"},
    {"planner.feasible_ratio", "ratio"},
    {"planner.des_runs", "count"},
    {"planner.phase1_s", "s"},
    {"planner.phase2_s", "s"},
    {"planner.unattributed_s", "s"},
    {"iteration.build_s", "s"},
    {"iteration.builds", "count"},
    {"training_cost.ctor_s", "s"},
    {"training_cost.queries", "count"},
    {"training_cost.query_s", "s"},
    {"training_cost.distinct_ratio", "ratio"},
    {"sched.generate_s", "s"},
    {"sched.validate_s", "s"},
    {"sched.validate_calls", "count"},
    {"sched.ops", "count"},
    {"sim.simulate_s", "s"},
    {"sim.ops_per_s", "1/s"},
    {"surrogate.table_s", "s"},
    {"surrogate.fingerprint_s", "s"},
    {"surrogate.cache_hit_ratio", "ratio"},
    {"surrogate.lookups", "count"},
    {"surrogate.interval_hit_ratio", "ratio"},
    {"surrogate.interval_lookups", "count"},
    {"resilience.interval_solve_s", "s"},
    {"resilience.run_s", "s"},
    {"fleet.plan_s", "s"},
    {"cluster.submit_s", "s"},
    {"cluster.drain_s", "s"},
    {"cluster.plan_s", "s"},
    {"cluster.events", "count"},
    {"cluster.plan_calls", "count"},
    {"cluster.memo_hit_ratio", "ratio"},
    {"cluster.fleet_plans", "count"},
    {"cluster.preemptions", "count"},
    {"elastic.price_shapes_s", "s"},
    {"elastic.loop_s", "s"},
    {"elastic.des_runs", "count"},
    {"elastic.replans", "count"},
    {"elastic.reshards", "count"},
    {"trace.request_self_s", "s"},
    {"trace.untraced_requests_per_s", "1/s"},
    {"trace.traced_requests_per_s", "1/s"},
    {"trace.overhead_ratio", "ratio"},
    {"outcome.plan_tokens_per_s", "tokens/s"},
    {"outcome.goodput", "ratio"},
    {"outcome.job_wait_s", "s"},
    {"outcome.failed_frac", "ratio"},
};

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--root <dir>] [--trace-out <file>] [--tiny] [--inject <what>] "
               "[--known-failures]\n",
               why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--root") {
        options.root = value();
      } else if (arg == "--trace-out") {
        options.trace_path = value();
      } else if (arg == "--known-failures") {
        options.known_failures = true;
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--inject") {
        options.inject = value();
      } else {
        Usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg);
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return options;
}

void PrintMetric(const std::string& name, double value, const std::string& unit, bool& first) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
              value, unit.c_str());
  first = false;
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  Report report;
  try {
    report = RunWorkload(options);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 1;
  }

  const long completed = report.attempted - report.failed;
  std::map<std::string, double> e2e;
  e2e["setup_s"] = report.setup_s;
  e2e["requests_per_s"] = report.busy_s > 0 ? static_cast<double>(completed) / report.busy_s : 0;
  e2e["latency_p50_ms"] = Percentile(report.latencies, 0.50) * 1e3;
  e2e["latency_p95_ms"] = Percentile(report.latencies, 0.95) * 1e3;
  e2e["peak_rss_mb"] = PeakRssMiB();
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) / report.attempted : 0;

  std::printf("perfbench %s seed=%llu passes=%d requests=%ld failed=%ld wrong=%ld\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              report.passes, report.attempted, report.failed, report.wrong);
  std::printf("  pass wall times:");
  for (const double seconds : report.pass_seconds) {
    std::printf(" %.3f", seconds);
  }
  std::printf(" s\n");
  for (const Metric& m : kEndToEnd) {
    std::printf("  %-28s %.6g %s\n", m.name, e2e[m.name], m.unit);
  }
  std::printf("  %-28s %.6g ratio (%ld of %ld requests)\n", "failed_frac", failed_frac,
              report.failed, report.attempted);
  const std::map<std::string, const char*> simulated_units = {
      {"plan_tokens_per_s", "tokens/s"}, {"goodput", "ratio"}, {"job_wait_s", "s"}};
  for (const auto& [name, value] : report.outcome) {
    std::printf("  %-28s %.17g %s (simulated)\n", name.c_str(), value,
                simulated_units.at(name));
  }

  std::map<std::string, double> layers = report.layers;
  if (options.trace) {
    for (const auto& [name, value] : report.outcome) {
      layers["outcome." + name] = value;
    }
    layers["outcome.failed_frac"] = failed_frac;
    std::printf("  per layer (traced pass, per request):\n");
    for (const Metric& m : kPerLayer) {
      std::printf("    %-34s %.6g %s\n", m.name, layers[m.name], m.unit);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              report.wrong == 0 ? "true" : "false", report.attempted, report.failed);
  bool first = true;
  for (const Metric& m : options.trace ? kPerLayer : kEndToEnd) {
    PrintMetric(m.name, options.trace ? layers[m.name] : e2e[m.name], m.unit, first);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
