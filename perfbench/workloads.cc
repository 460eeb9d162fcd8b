#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/format.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/cluster.h"
#include "core/deployment.h"
#include "core/elastic.h"
#include "core/planner.h"
#include "core/resilience.h"
#include "core/surrogate.h"
#include "core/training_cost.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "sched/schedule.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace core = mepipe::core;
namespace hw = mepipe::hw;
namespace model = mepipe::model;
namespace sched = mepipe::sched;
namespace sim = mepipe::sim;
using core::Method;
using mepipe::Seconds;
using mepipe::StrFormat;

// The six systems of the paper's evaluation (Fig. 8, Table 5).
const std::vector<Method> kSystems = {Method::kDapple,    Method::kVpp, Method::kZb1p,
                                      Method::kZbvCapped, Method::kZbv, Method::kSvpp};

constexpr int kSetupRepeats = 15;
constexpr double kSetupSeconds = 0.1;
// Hard stop for the measured loop, well inside the run's time limit.
constexpr double kMaxMeasureSeconds = 90;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

template <typename T>
void Shuffle(std::vector<T>& items, std::uint64_t seed) {
  mepipe::SplitMixRng rng(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextU64() % i]);
  }
}

// Hex float: two doubles print alike iff their bits are equal.
std::string Bits(double value) { return StrFormat("%a", value); }

// The self-test's (--tiny) value or the benchmark's.
template <typename T>
std::vector<T> Size(const Options& options, std::vector<T> tiny, std::vector<T> full) {
  return options.tiny ? tiny : full;
}

// Keeps the optimiser from discarding replayed work.
volatile double g_sink = 0;

// ---- run state -------------------------------------------------------------

// What a pass writes into: the report, per-layer sums of the traced
// pass, and the first pass's simulated outcome.
class Recorder {
 public:
  Recorder(Tracer& tracer, Report& report) : tracer(tracer), report(report) {}

  Tracer& tracer;
  Report& report;
  int pass = 0;
  std::map<std::string, double> sums;

  bool traced() const { return tracer.enabled(); }
  int NextRequest() { return next_request_++; }

  // One finished request.
  void Request(double latency) {
    report.latencies.push_back(latency);
    report.busy_s += latency;
    ++report.attempted;
  }
  // A library call that is not a request (still host work of the run).
  void Busy(double seconds) { report.busy_s += seconds; }
  // `count` requests failed; `wrong` when they completed with a wrong
  // output rather than throwing.
  void Fail(long count, bool wrong, const std::string& what) {
    report.failed += count;
    report.wrong += wrong ? count : 0;
    if (reported_.insert(what).second) {
      std::fprintf(stderr, "perfbench: failed %s (%s)\n", what.c_str(),
                   wrong ? "wrong output" : "threw");
    }
  }
  void Add(const std::string& key, double value) { sums[key] += value; }
  // Simulated outcome, taken from the first pass only.
  void Outcome(const std::string& key, double value) {
    if (pass == 0) {
      outcome_[key].push_back(value);
    }
  }
  // Means, summed in sorted order so they do not depend on the order the
  // seed put the requests in.
  void FinishOutcome() {
    for (auto& [key, values] : outcome_) {
      std::sort(values.begin(), values.end());
      double sum = 0;
      for (const double v : values) {
        sum += v;
      }
      report.outcome[key] = sum / static_cast<double>(values.size());
    }
  }

 private:
  int next_request_ = 0;
  std::map<std::string, std::vector<double>> outcome_;
  std::set<std::string> reported_;
};

// Output of the first pass per request key; later passes must repeat it
// bit for bit.
class RepeatCheck {
 public:
  bool Matches(int pass, const std::string& key, const std::string& digest) {
    if (pass == 0) {
      digests_[key] = digest;
      return true;
    }
    const auto it = digests_.find(key);
    return it != digests_.end() && it->second == digest;
  }

 private:
  std::map<std::string, std::string> digests_;
};

std::string Digest(const core::PlannerResult& result) {
  if (!result.best) {
    return StrFormat("none/%zu", result.evaluated.size());
  }
  const core::IterationResult& b = *result.best;
  return b.strategy.ToString() + "/" + Bits(b.iteration_time) + "/" + Bits(b.bubble_ratio) +
         "/" + std::to_string(b.peak_memory) + "/" + Bits(b.mfu) + "/" +
         Bits(b.goodput.effective_iteration_time) + "/" +
         std::to_string(result.evaluated.size()) + "/" + std::to_string(result.simulated);
}

// ---- layer replays (traced pass only) ---------------------------------------

// Counting decorator: records every query the engine makes, so the
// queries can be counted and replayed against TrainingCostModel alone.
class CountingCostModel : public sim::WrappingCostModel {
 public:
  enum class Query : std::uint8_t { kCompute, kTransfer, kActivation, kActGrad, kGemms, kDpSync };
  struct Record {
    Query query;
    sched::OpId op;
  };

  using WrappingCostModel::WrappingCostModel;

  Seconds ComputeTime(const sched::OpId& op) const override {
    log_.push_back({Query::kCompute, op});
    return base().ComputeTime(op);
  }
  Seconds TransferTime(const sched::OpId& producer) const override {
    log_.push_back({Query::kTransfer, producer});
    return base().TransferTime(producer);
  }
  mepipe::Bytes ActivationBytes(const sched::OpId& forward) const override {
    log_.push_back({Query::kActivation, forward});
    return base().ActivationBytes(forward);
  }
  mepipe::Bytes ActGradBytes(const sched::OpId& backward) const override {
    log_.push_back({Query::kActGrad, backward});
    return base().ActGradBytes(backward);
  }
  int WeightGradGemmCount(const sched::OpId& wgrad) const override {
    log_.push_back({Query::kGemms, wgrad});
    return base().WeightGradGemmCount(wgrad);
  }
  Seconds DpSyncTime(const sched::OpId& bucket) const override {
    log_.push_back({Query::kDpSync, bucket});
    return base().DpSyncTime(bucket);
  }

  const std::vector<Record>& log() const { return log_; }

 private:
  mutable std::vector<Record> log_;
};

double ReplayQuery(const core::TrainingCostModel& costs, const CountingCostModel::Record& r) {
  using Query = CountingCostModel::Query;
  switch (r.query) {
    case Query::kCompute:
      return costs.ComputeTime(r.op);
    case Query::kTransfer:
      return costs.TransferTime(r.op);
    case Query::kActivation:
      return static_cast<double>(costs.ActivationBytes(r.op));
    case Query::kActGrad:
      return static_cast<double>(costs.ActGradBytes(r.op));
    case Query::kGemms:
      return costs.WeightGradGemmCount(r.op);
    case Query::kDpSync:
      return costs.DpSyncTime(r.op);
  }
  return 0;
}

// Micro-invariant key of a query: (query, kind, slice, chunk, gemm).
std::uint64_t QueryKey(const CountingCostModel::Record& r) {
  return (static_cast<std::uint64_t>(r.query) << 56) |
         (static_cast<std::uint64_t>(r.op.kind) << 48) |
         (static_cast<std::uint64_t>(r.op.slice & 0xffff) << 32) |
         (static_cast<std::uint64_t>(r.op.chunk & 0xffff) << 16) |
         static_cast<std::uint64_t>((r.op.gemm + 1) & 0xffff);
}

sim::EngineOptions EngineFor(const core::CandidateBuild& build,
                             const core::IterationOptions& iteration) {
  sim::EngineOptions engine;
  engine.wgrad_mode = build.wgrad_mode;
  engine.activation_budget = build.activation_budget;
  engine.dp_overlap = iteration.dp_overlap;
  return engine;
}

// Replays one DES candidate layer by layer: BuildCandidate, the
// TrainingCostModel constructor, ValidateSchedule, Simulate, and the
// engine's cost-model queries against TrainingCostModel alone. Returns
// the seconds of the calls SimulateIteration itself makes (build +
// engine), for the planner's attribution.
double ReplayCandidate(const model::TransformerConfig& config, const core::Strategy& strategy,
                       const hw::ClusterSpec& cluster, int global_batch,
                       const core::IterationOptions& iteration, Recorder& rec, int request) {
  Tracer& tracer = rec.tracer;
  const double build_start = Now();
  core::CandidateBuild build;
  {
    Tracer::Scope span(tracer, "iteration.BuildCandidate", request);
    build = core::BuildCandidate(config, strategy, cluster, global_batch, iteration);
  }
  double attributed = Now() - build_start;
  if (!build.feasible) {
    return attributed;
  }
  std::optional<core::TrainingCostModel> costs;
  {
    Tracer::Scope span(tracer, "training_cost.TrainingCostModel", request);
    costs.emplace(config, build.strategy, cluster, build.problem, iteration.cost);
  }
  {
    Tracer::Scope span(tracer, "sched.ValidateSchedule", request);
    sched::ValidateSchedule(build.schedule);
  }
  const sim::EngineOptions engine = EngineFor(build, iteration);
  const double sim_start = Now();
  sim::SimResult result;
  {
    Tracer::Scope span(tracer, "sim.Simulate", request);
    result = sim::Simulate(build.schedule, *build.costs, engine);
  }
  attributed += Now() - sim_start;
  g_sink = g_sink + result.makespan;

  long scheduled = 0;
  for (const auto& ops : build.schedule.stage_ops) {
    scheduled += static_cast<long>(ops.size());
  }
  long executed = 0;
  for (const sim::OpSpan& span : result.timeline) {
    executed += span.is_transfer ? 0 : 1;
  }
  rec.Add("sched.ops", static_cast<double>(scheduled));
  rec.Add("sim.ops", static_cast<double>(executed));

  CountingCostModel counting(*build.costs);
  {
    Tracer::Scope span(tracer, "replay.count_queries", request);
    sim::Simulate(build.schedule, counting, engine);
  }
  double sink = 0;
  {
    Tracer::Scope span(tracer, "training_cost.queries", request);
    for (const CountingCostModel::Record& r : counting.log()) {
      sink += ReplayQuery(*costs, r);
    }
  }
  g_sink = g_sink + sink;
  std::unordered_set<std::uint64_t> distinct;
  for (const CountingCostModel::Record& r : counting.log()) {
    distinct.insert(QueryKey(r));
  }
  rec.Add("training_cost.queries", static_cast<double>(counting.log().size()));
  rec.Add("training_cost.distinct", static_cast<double>(distinct.size()));
  return attributed;
}

// One SearchBestStrategy call, as issued.
struct PlannerCall {
  Method method = Method::kSvpp;
  model::TransformerConfig config;
  hw::ClusterSpec cluster;
  int global_batch = 0;
  core::PlannerOptions options;
};

// The planner's interval solve for one feasible DES result
// (core/planner PriceGoodput), through `cache` when given.
double ReplayIntervalSolve(const PlannerCall& call, const core::IterationResult& result,
                           core::SurrogateCache* cache, Recorder& rec, int request) {
  core::ResilienceOptions res = call.options.resilience;
  res.reliability.checkpoint_write_cost =
      core::CheckpointWriteCost(result.checkpoint_shard, call.options.checkpoint_cost);
  res.dp_replicas = result.strategy.dp;
  const double start = Now();
  Tracer::Scope span(rec.tracer, "resilience.IntervalSolve", request);
  const core::CheckpointIntervalSolution sol =
      cache != nullptr
          ? cache->IntervalSolve(result.iteration_time, res, call.options.interval_solver)
          : core::OptimalCheckpointInterval(result.iteration_time, res,
                                            call.options.interval_solver);
  g_sink = g_sink + sol.goodput;
  return Now() - start;
}

// Replays the layer calls of a finished SearchBestStrategy request:
// phase 1 (surrogate pricing of the grid, serially, through a cache that
// mirrors the request's), then phase 2 (DES + interval solve of every
// candidate the planner simulated, and the winner's re-simulation).
// `wall` is the request's own host time.
void ReplayPlanner(const PlannerCall& call, const core::PlannerResult& result, double wall,
                   core::SurrogateCache* replay_cache, Recorder& rec, int request) {
  Tracer& tracer = rec.tracer;
  const core::PlannerOptions& options = call.options;
  core::IterationOptions eval = options.iteration;
  eval.keep_timeline = false;
  const bool goodput = options.objective == core::PlannerObjective::kGoodput;

  long feasible = 0;
  for (const core::IterationResult& e : result.evaluated) {
    const bool surrogate_feasible = e.note.rfind("skipped: outside", 0) == 0;
    feasible += e.feasible || surrogate_feasible ? 1 : 0;
  }
  rec.Add("planner.candidates", static_cast<double>(result.evaluated.size()));
  rec.Add("planner.feasible", static_cast<double>(feasible));
  rec.Add("planner.des_runs", result.simulated + (result.best ? 1 : 0));

  double attributed = 0;
  if (options.two_phase) {
    core::SurrogateOptions surrogate;
    surrogate.iteration = eval;
    surrogate.iteration.keep_schedule = false;
    surrogate.cache = replay_cache;
    std::vector<core::Strategy> misses;
    const double start = Now();
    {
      Tracer::Scope span(tracer, "surrogate.SurrogatePrice", request);
      for (const core::IterationResult& e : result.evaluated) {
        try {
          const core::SurrogateResult priced = core::SurrogatePrice(
              call.config, e.strategy, call.cluster, call.global_batch, surrogate);
          if (!priced.cache_hit) {
            misses.push_back(e.strategy);
          }
        } catch (const std::exception&) {
          // Structurally inapplicable: the planner records it the same way.
        }
      }
    }
    const double phase1 = Now() - start;
    rec.Add("planner.phase1_s", phase1);
    const int workers = std::clamp(options.threads, 1,
                                   std::max<int>(1, static_cast<int>(result.evaluated.size())));
    attributed += phase1 / workers;

    // Phase 1 by layer: fingerprints for every lookup, build + table
    // pass for every miss.
    {
      Tracer::Scope span(tracer, "surrogate.CostModelFingerprint", request);
      std::uint64_t digest = 0;
      for (std::size_t i = 0; i < result.evaluated.size(); ++i) {
        digest ^= core::CostModelFingerprint(call.config, call.cluster, surrogate.iteration);
      }
      g_sink = g_sink + static_cast<double>(digest & 0xff);
    }
    for (const core::Strategy& strategy : misses) {
      core::CandidateBuild build;
      {
        Tracer::Scope span(tracer, "iteration.BuildCandidate", request);
        build = core::BuildCandidate(call.config, strategy, call.cluster, call.global_batch,
                                     surrogate.iteration);
      }
      if (!build.feasible) {
        continue;
      }
      {
        Tracer::Scope span(tracer, "training_cost.TrainingCostModel", request);
        const core::TrainingCostModel costs(call.config, build.strategy, call.cluster,
                                            build.problem, surrogate.iteration.cost);
        g_sink = g_sink + static_cast<double>(costs.MaxStaticMemory());
      }
      core::TableOptions table;
      table.wgrad_mode = build.wgrad_mode;
      table.activation_budget = build.activation_budget;
      table.dp_overlap = surrogate.iteration.dp_overlap;
      Tracer::Scope span(tracer, "surrogate.PriceScheduleTable", request);
      g_sink = g_sink + core::PriceScheduleTable(build.schedule, *build.costs, table).makespan;
    }
  }

  double phase2 = 0;
  for (const core::IterationResult& e : result.evaluated) {
    const bool simulated = !options.two_phase || e.feasible ||
                           (e.note.rfind("skipped:", 0) != 0 && e.note.rfind("surrogate:", 0) != 0);
    if (!simulated) {
      continue;
    }
    phase2 += ReplayCandidate(call.config, e.strategy, call.cluster, call.global_batch, eval, rec,
                              request);
    if (goodput && e.feasible) {
      phase2 += ReplayIntervalSolve(call, e, replay_cache, rec, request);
    }
  }
  if (result.best) {
    core::IterationOptions final_options = eval;
    final_options.keep_timeline = true;
    const double start = Now();
    core::IterationResult winner;
    {
      Tracer::Scope span(tracer, "iteration.SimulateIteration", request);
      winner = core::SimulateIteration(call.config, result.best->strategy, call.cluster,
                                       call.global_batch, final_options);
    }
    phase2 += Now() - start;
    if (goodput) {
      phase2 += ReplayIntervalSolve(call, winner, replay_cache, rec, request);
    }
  }
  rec.Add("planner.phase2_s", phase2);
  attributed += phase2;
  rec.Add("planner.wall_s", wall);
  rec.Add("planner.attributed_s", attributed);
}

void AddCacheStats(const core::SurrogateCache& cache, Recorder& rec) {
  const core::SurrogateCache::Stats stats = cache.stats();
  rec.Add("surrogate.hits", static_cast<double>(stats.hits));
  rec.Add("surrogate.lookups", static_cast<double>(stats.hits + stats.misses));
  rec.Add("surrogate.interval_hits", static_cast<double>(stats.interval_hits));
  rec.Add("surrogate.interval_lookups",
          static_cast<double>(stats.interval_hits + stats.interval_misses));
}

// Issues one planner request: times it (under a span when traced),
// repeat-checks its output and records its simulated throughput.
// Returns the result, or nullopt when the call threw.
std::optional<core::PlannerResult> IssuePlannerRequest(const PlannerCall& call,
                                                       const std::string& key,
                                                       RepeatCheck& repeats, Recorder& rec,
                                                       int request, double* wall) {
  core::PlannerResult result;
  bool threw = false;
  const double start = Now();
  {
    Tracer::Scope span(rec.tracer, "planner.SearchBestStrategy", request);
    try {
      result = core::SearchBestStrategy(call.method, call.config, call.cluster,
                                        call.global_batch, call.options);
    } catch (const std::exception&) {
      threw = true;
    }
  }
  *wall = Now() - start;
  rec.Request(*wall);
  if (threw) {
    rec.Fail(1, false, key);
    rec.Outcome("plan_tokens_per_s", 0);
    return std::nullopt;
  }
  if (!repeats.Matches(rec.pass, key, Digest(result))) {
    rec.Fail(1, true, key + ": differs from the first pass");
    rec.Outcome("plan_tokens_per_s", 0);
    return std::nullopt;
  }
  return result;
}

double PlanTokensPerSecond(const PlannerCall& call, const core::PlannerResult& result) {
  if (!result.best) {
    return 0;
  }
  return static_cast<double>(call.global_batch) * static_cast<double>(call.config.seq_len) /
         result.best->iteration_time;
}

// ---- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds every input of the run from options.seed. Timed as set-up.
  virtual void Setup(const Options& options) = 0;
  // One pass over every request of the run.
  virtual void RunPass(Recorder& rec) = 0;
  virtual int MinPasses() const { return 1; }
};

// CSV rows keyed by the concatenation of two columns.
using ReferenceRows = std::map<std::string, std::vector<std::string>>;

ReferenceRows ReadReference(const std::string& path, int key_a, int key_b) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("missing reference " + path);
  }
  ReferenceRows rows;
  std::string line;
  std::getline(file, line);  // header
  while (std::getline(file, line)) {
    std::vector<std::string> cells;
    std::stringstream stream(line);
    std::string cell;
    while (std::getline(stream, cell, ',')) {
      cells.push_back(cell);
    }
    if (static_cast<int>(cells.size()) > std::max(key_a, key_b)) {
      rows[cells[static_cast<std::size_t>(key_a)] + "," + cells[static_cast<std::size_t>(key_b)]] =
          cells;
    }
  }
  return rows;
}

// paper_grid: exhaustive search (default PlannerOptions, no cache, one
// thread) over {6 systems} x {7B, 13B, 34B} x {RTX 4090, A100} x GBS
// {32, 64, 128}, each key once per pass in a seed-shuffled order.
class PaperGrid : public Workload {
 public:
  void Setup(const Options& options) override {
    calls_.clear();
    names_.clear();
    keys_.clear();
    const auto sizes = Size<std::string>(options, {"13B"}, {"7B", "13B", "34B"});
    const auto clusters = Size<int>(options, {0}, {0, 1});
    const auto batches = Size<int>(options, {32, 64}, {32, 64, 128});
    const auto systems = Size<Method>(options, {Method::kDapple, Method::kZb1p}, kSystems);
    for (const std::string& size : sizes) {
      for (const int c : clusters) {
        for (const int gbs : batches) {
          for (const Method method : systems) {
            PlannerCall call;
            call.method = method;
            call.config = model::LlamaBySize(size);
            call.cluster = c == 0 ? hw::Rtx4090Cluster() : hw::A100Cluster();
            call.global_batch = gbs;
            calls_.push_back(call);
            const std::string system = core::ToString(method);
            names_.push_back(StrFormat("%s/%s/%s/%d", system.c_str(), size.c_str(),
                                       c == 0 ? "rtx4090" : "a100", gbs));
            // Only Llama-13B on the RTX 4090 cluster has a checked-in reference.
            keys_.push_back(size == "13B" && c == 0 ? system + "," + std::to_string(gbs) : "");
          }
        }
      }
    }
    std::vector<std::size_t> order(calls_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    Shuffle(order, options.seed);
    order_ = order;
    table5_ = ReadReference(options.root + "/table5_configs.csv", 0, 1);
    fig8_ = ReadReference(options.root + "/fig08_e2e_gbs.csv", 1, 0);
    if (options.inject == "corrupt_reference") {
      table5_.at("DAPPLE,32")[2] = "99";
    }
  }

  int MinPasses() const override { return 2; }

  void RunPass(Recorder& rec) override {
    for (const std::size_t i : order_) {
      const PlannerCall& call = calls_[i];
      const int request = rec.NextRequest();
      Tracer::Scope root(rec.tracer, "request", request);
      double wall = 0;
      const std::optional<core::PlannerResult> result =
          IssuePlannerRequest(call, names_[i], repeats_, rec, request, &wall);
      if (!result) {
        continue;
      }
      if (!keys_[i].empty() && !MatchesReference(keys_[i], call, *result)) {
        rec.Fail(1, true, names_[i] + ": differs from the Fig. 8 / Table 5 reference");
        rec.Outcome("plan_tokens_per_s", 0);
        continue;
      }
      rec.Outcome("plan_tokens_per_s", PlanTokensPerSecond(call, *result));
      if (rec.traced()) {
        ReplayPlanner(call, *result, wall, nullptr, rec, request);
      }
    }
  }

 private:
  // The winner against table5_configs.csv and its values against
  // fig08_e2e_gbs.csv, formatted as the Fig. 8 bench writes them.
  bool MatchesReference(const std::string& key, const PlannerCall& call,
                        const core::PlannerResult& result) const {
    const auto t5 = table5_.find(key);
    const auto f8 = fig8_.find(key);
    if (t5 == table5_.end() || f8 == fig8_.end()) {
      return false;
    }
    const std::string system = core::ToString(call.method);
    const std::string gbs = std::to_string(call.global_batch);
    std::vector<std::string> want5;
    std::vector<std::string> want8;
    if (!result.best) {
      want5 = {system, gbs, "-", "-", "-", "-", "OOM"};
      want8 = {gbs, system, "infeasible", "-", "-", "-"};
    } else {
      const core::IterationResult& b = *result.best;
      want5 = {system,
               gbs,
               std::to_string(b.strategy.pp),
               std::to_string(std::max(b.strategy.cp, b.strategy.spp)),
               std::to_string(b.strategy.vp),
               b.strategy.recompute ? "yes" : "no",
               "ok"};
      want8 = {gbs,
               system,
               StrFormat("%.1f", b.iteration_time * 1e3),
               StrFormat("%.1f%%", b.bubble_ratio * 100.0),
               StrFormat("%.1f", mepipe::ToGiB(b.peak_memory)),
               StrFormat("%.1f%%", b.mfu * 100.0)};
    }
    return t5->second == want5 && f8->second == want8;
  }

  std::vector<PlannerCall> calls_;
  std::vector<std::string> names_;
  std::vector<std::string> keys_;  // reference row key, or empty
  std::vector<std::size_t> order_;
  ReferenceRows table5_;
  ReferenceRows fig8_;
  RepeatCheck repeats_;
};

// wide_sweep: two-phase sessions on the widened bench_planner_scale grid.
// A session owns one fresh SurrogateCache and prices one (model,
// cluster, GBS) for the six systems under kIterationTime, then again
// under kGoodput. Every (model, cluster, GBS) is one session per pass,
// in a seed-shuffled order, so every seed does the same work.
class WideSweep : public Workload {
 public:
  struct Session {
    model::TransformerConfig config;
    hw::ClusterSpec cluster;
    int global_batch = 0;
    std::string name;
  };

  void Setup(const Options& options) override {
    sessions_.clear();
    const auto sizes = Size<std::string>(options, {"13B"}, {"7B", "13B", "34B"});
    const auto clusters = Size<int>(options, {0}, {0, 1});
    const auto batches = Size<int>(options, {32}, {32, 64, 128});
    for (const std::string& size : sizes) {
      for (const int c : clusters) {
        for (const int gbs : batches) {
          sessions_.push_back({model::LlamaBySize(size),
                               c == 0 ? hw::Rtx4090Cluster() : hw::A100Cluster(), gbs,
                               size + "/" + std::to_string(c) + "/" + std::to_string(gbs)});
        }
      }
    }
    Shuffle(sessions_, options.seed);
  }

  void RunPass(Recorder& rec) override {
    for (const Session& session : sessions_) {
      core::SurrogateCache cache;
      core::SurrogateCache replay_cache;
      for (const core::PlannerObjective objective :
           {core::PlannerObjective::kIterationTime, core::PlannerObjective::kGoodput}) {
        for (const Method method : kSystems) {
          PlannerCall call;
          call.method = method;
          call.config = session.config;
          call.cluster = session.cluster;
          call.global_batch = session.global_batch;
          call.options = Options(objective, &cache);
          const int request = rec.NextRequest();
          Tracer::Scope root(rec.tracer, "request", request);
          const std::string key = session.name + "/" + core::ToString(method) + "/" +
                                  std::to_string(static_cast<int>(objective));
          double wall = 0;
          const std::optional<core::PlannerResult> result =
              IssuePlannerRequest(call, key, repeats_, rec, request, &wall);
          if (!result) {
            continue;
          }
          if (result->best && !MatchesEngine(call, *result->best)) {
            rec.Fail(1, true, key + ": winner differs from SimulateIteration");
            rec.Outcome("plan_tokens_per_s", 0);
            continue;
          }
          rec.Outcome("plan_tokens_per_s", PlanTokensPerSecond(call, *result));
          if (rec.traced()) {
            ReplayPlanner(call, *result, wall, &replay_cache, rec, request);
          }
        }
      }
      AddCacheStats(cache, rec);
    }
  }

 private:
  core::PlannerOptions Options(core::PlannerObjective objective,
                               core::SurrogateCache* cache) const {
    core::PlannerOptions options;
    options.min_dp = 2;
    options.pp_candidates = {2, 4, 5, 8, 10, 16, 20, 32};
    options.slice_candidates = {1, 2, 4, 8, 16};
    options.vp_candidates = {1, 2, 4, 5, 8};
    options.tp_candidates = {1, 2, 4, 8};
    options.two_phase = true;
    options.surrogate_top_k = 4;
    options.threads = 2;
    options.cache = cache;
    options.objective = objective;
    options.resilience.seed = 7;
    // The trimmed interval-solver effort bench_planner_scale uses.
    options.interval_solver = {0, 0, /*coarse_points=*/9, /*golden_iterations=*/8};
    return options;
  }

  // The winner's iteration time must equal a direct SimulateIteration of
  // the same strategy, bit for bit.
  static bool MatchesEngine(const PlannerCall& call, const core::IterationResult& best) {
    core::IterationOptions iteration = call.options.iteration;
    iteration.keep_timeline = false;
    const core::IterationResult direct = core::SimulateIteration(
        call.config, best.strategy, call.cluster, call.global_batch, iteration);
    return direct.feasible && direct.iteration_time == best.iteration_time;
  }

  std::vector<Session> sessions_;
  RepeatCheck repeats_;
};

// cluster_traffic: each episode is a fresh ClusterService (dynamic
// policy, bench_cluster_service's planner options) on the RTX 4090 +
// A100 fleet, fed seeded Poisson traffic with seeded node failures, then
// drained. A request is one Submit.
class ClusterTraffic : public Workload {
 public:
  struct Failure {
    Seconds time = 0;
    int tier = 0;
    int node = 0;
  };
  struct Episode {
    std::vector<core::JobRequest> requests;
    std::vector<Failure> failures;
  };

  void Setup(const Options& options) override {
    fleet_ = hw::ClusterTopology{};
    fleet_.tiers = {hw::Rtx4090Tier(), hw::A100Tier()};
    fleet_.SetLinkBetween(0, 1, hw::LanLink(hw::Rtx4090Cluster().inter_node));
    service_ = core::ClusterServiceOptions{};
    service_.policy = core::AllocationPolicy::kDynamic;
    service_.planner.min_dp = 1;
    service_.planner.pp_candidates = {2, 4, 8};
    service_.planner.slice_candidates = {1, 2, 4};
    service_.planner.vp_candidates = {1};
    service_.planner.two_phase = true;
    service_.planner.surrogate_top_k = 4;
    service_.planner.threads = 1;
    flip_log_ = options.inject == "flip_log";

    episodes_.clear();
    const int episodes = options.tiny ? 1 : 16;
    const int jobs = options.tiny ? 12 : 50;
    const int failures = options.tiny ? 1 : 2;
    for (int e = 0; e < episodes; ++e) {
      const std::uint64_t seed = options.seed * 1000003ull + static_cast<std::uint64_t>(e);
      core::TrafficOptions traffic;
      traffic.jobs = jobs;
      traffic.mean_interarrival = 600;
      traffic.seed = seed;
      traffic.min_iterations = 200;
      traffic.max_iterations = 600;
      core::JobMixEntry small;
      small.config = model::Llama7B();
      small.global_batch = 16;
      small.min_nodes = 1;
      small.max_nodes = 2;
      small.weight = 2.0;
      core::JobMixEntry large;
      large.config = model::Llama13B();
      large.global_batch = 32;
      large.min_nodes = 2;
      large.max_nodes = 2;
      large.weight = 1.0;
      // Needs more nodes than either tier has: only the whole fleet, a
      // spanning carve planned by SearchBestFleetStrategy, can host it.
      core::JobMixEntry spanning;
      spanning.config = model::Llama34B();
      spanning.global_batch = 64;
      spanning.min_nodes = 12;
      spanning.max_nodes = 12;
      spanning.weight = options.tiny ? 1.0 : 0.3;
      traffic.mix = {small, large, spanning};
      Episode episode;
      episode.requests = core::GenerateTraffic(traffic);
      // Failure times spread over the traffic window, as core::RunTraffic.
      mepipe::SplitMixRng rng(seed ^ 0x9e3779b97f4a7c15ull);
      const Seconds window = episode.requests.back().arrival;
      for (int i = 0; i < failures; ++i) {
        Failure f;
        f.time = window * (i + 1) / (failures + 1);
        f.tier = static_cast<int>(rng.NextU64() % static_cast<std::uint64_t>(fleet_.num_tiers()));
        f.node = static_cast<int>(rng.NextU64() %
                                  static_cast<std::uint64_t>(fleet_.tier(f.tier).nodes));
        episode.failures.push_back(f);
      }
      episodes_.push_back(std::move(episode));
    }
  }

  void RunPass(Recorder& rec) override {
    for (std::size_t e = 0; e < episodes_.size(); ++e) {
      RunEpisode(e, rec);
    }
  }

 private:
  struct Carve {
    core::JobRequest request;
    hw::ClusterTopology topology;
  };

  void RunEpisode(std::size_t index, Recorder& rec) {
    const Episode& episode = episodes_[index];
    core::ClusterService service(fleet_, service_);
    std::map<std::string, Carve> carves;  // traced: distinct planned carves
    std::set<std::string> seen;
    long submits = 0;
    bool threw = false;

    const auto busy = [&](const char* name, auto&& call) {
      const double start = Now();
      {
        Tracer::Scope span(rec.tracer, name, -1);
        call();
      }
      rec.Busy(Now() - start);
      if (rec.traced()) {
        CollectCarves(service, carves, seen);
      }
    };
    try {
      std::size_t next_failure = 0;
      const auto fail_due = [&](Seconds horizon) {
        while (next_failure < episode.failures.size() &&
               episode.failures[next_failure].time <= horizon) {
          const Failure& f = episode.failures[next_failure++];
          busy("cluster.OnNodeFailure", [&] {
            service.OnNodeFailure(std::max(f.time, service.now()), f.tier, f.node);
          });
        }
      };
      for (const core::JobRequest& request : episode.requests) {
        fail_due(request.arrival);
        const int id = rec.NextRequest();
        Tracer::Scope root(rec.tracer, "request", id);
        const double start = Now();
        {
          Tracer::Scope span(rec.tracer, "cluster.Submit", id);
          service.Submit(request);
        }
        rec.Request(Now() - start);
        ++submits;
        if (rec.traced()) {
          CollectCarves(service, carves, seen);
        }
      }
      fail_due(std::numeric_limits<Seconds>::infinity());
      busy("cluster.Drain", [&] { service.Drain(); });
    } catch (const std::exception&) {
      threw = true;
    }
    // Requests never issued because the episode broke off still count as
    // attempted (and, below, failed).
    rec.report.attempted += static_cast<long>(episode.requests.size()) - submits;

    bool ok = !threw;
    if (ok) {
      try {
        service.VerifyInvariants();
        std::string log = core::FormatEventLog(service.fleet(), service.events());
        if (flip_log_) {
          log[log.size() / 2] = static_cast<char>(log[log.size() / 2] ^ 0x01);
        }
        ok = core::ValidateEventLog(log) &&
             repeats_.Matches(rec.pass, std::to_string(index),
                              log.substr(log.rfind('\n', log.size() - 2)));
      } catch (const std::exception&) {
        ok = false;
      }
    }
    const core::ClusterMetrics metrics = service.Metrics();
    if (!ok) {
      rec.Fail(static_cast<long>(episode.requests.size()), !threw,
               "episode " + std::to_string(index));
    }
    rec.Outcome("goodput", ok ? metrics.goodput : 0);
    rec.Outcome("job_wait_s", ok ? metrics.mean_wait : 0);

    if (rec.traced()) {
      rec.Add("cluster.events", static_cast<double>(service.events().size()));
      rec.Add("cluster.plan_calls", metrics.plan_calls);
      rec.Add("cluster.memo_hits", metrics.plan_cache_hits);
      rec.Add("cluster.preemptions", metrics.preemptions);
      AddCacheStats(service.cache(), rec);
      ReplayPlans(carves, rec);
    }
  }

  core::PlannerOptions PlanOptions(core::SurrogateCache* cache) const {
    core::PlannerOptions options = service_.planner;
    options.cache = cache;
    options.iteration.keep_schedule = true;
    options.iteration.keep_timeline = false;
    return options;
  }

  // Records the carve of every job holding an allocation, keyed like the
  // service's plan memo (method, batch, carve fingerprint).
  void CollectCarves(const core::ClusterService& service, std::map<std::string, Carve>& carves,
                     std::set<std::string>& seen) const {
    const core::PlannerOptions options = PlanOptions(nullptr);
    for (const core::JobRecord& job : service.jobs()) {
      if (job.alloc.empty()) {
        continue;
      }
      std::string signature = std::to_string(job.job_id);
      for (const auto& ids : job.alloc.node_ids) {
        signature += "|";
        for (const int id : ids) {
          signature += std::to_string(id) + ",";
        }
      }
      if (!seen.insert(signature).second) {
        continue;
      }
      hw::ClusterTopology carve = service.CarveFor(job.alloc);
      const std::string key =
          std::to_string(static_cast<int>(job.request.method)) + "/" +
          std::to_string(job.request.global_batch) + "/" +
          std::to_string(core::TopologyFingerprint(job.request.config, carve, options.iteration));
      carves.emplace(key, Carve{job.request, std::move(carve)});
    }
  }

  // Re-plans every distinct carve the episode planned: SearchBestStrategy
  // on single-tier carves, SearchBestFleetStrategy on spanning ones.
  void ReplayPlans(const std::map<std::string, Carve>& carves, Recorder& rec) const {
    core::SurrogateCache cache;
    const core::PlannerOptions options = PlanOptions(&cache);
    for (const auto& [key, carve] : carves) {
      const core::JobRequest& job = carve.request;
      try {
        if (carve.topology.num_tiers() == 1) {
          Tracer::Scope span(rec.tracer, "cluster.SearchBestStrategy", -1);
          g_sink = g_sink + core::SearchBestStrategy(job.method, job.config,
                                                     carve.topology.tier(0).spec(),
                                                     job.global_batch, options)
                                .simulated;
        } else {
          rec.Add("cluster.fleet_plans", 1);
          Tracer::Scope span(rec.tracer, "fleet.SearchBestFleetStrategy", -1);
          g_sink = g_sink + core::SearchBestFleetStrategy(job.method, job.config,
                                                          carve.topology, job.global_batch,
                                                          options)
                                .simulated;
        }
      } catch (const std::exception&) {
        // The service plans the same carve; a throw there already failed
        // the episode.
      }
    }
  }

  hw::ClusterTopology fleet_;
  core::ClusterServiceOptions service_;
  std::vector<Episode> episodes_;
  bool flip_log_ = false;
  RepeatCheck repeats_;
};

// failure_runs: a seed-shuffled grid of training runs under failures.
// Analytic cells (MTBF x fleet x dp x repair x stragglers off/on) run
// SimulateElasticRun under kRestart and kElastic plus SimulateTrainingRun.
// Engine-grounded cells run SimulateElasticRun on the paper's plan
// (Llama-13B, RTX 4090, MEPipe pp=8 dp=8 spp=4, GBS 128), which prices
// every fleet shape with PriceElasticShapes.
class FailureRuns : public Workload {
 public:
  struct Cell {
    std::string name;
    bool engine = false;
    core::ElasticOptions options;
  };

  void Setup(const Options& options) override {
    cells_.clear();
    // Each cell's failure draws are fixed; the seed shuffles the cell
    // order, so every seed does the same work.
    mepipe::SplitMixRng rng(0xfa11u);
    const auto mtbf_hours = Size<double>(options, {24.0}, {6.0, 24.0});
    const auto fleets = Size<int>(options, {1024}, {1024, 4096, 16384});
    const auto widths = Size<int>(options, {4}, {2, 4, 8});
    const std::vector<Seconds> repairs = {600.0, 7200.0};
    for (const bool stragglers : {false, true}) {
      for (const double mtbf : mtbf_hours) {
        for (const int gpus : fleets) {
          for (const int dp : widths) {
            for (const Seconds repair : repairs) {
              Cell cell;
              cell.name = StrFormat("analytic/%d/%.0f/%d/%d/%.0f", stragglers ? 1 : 0, mtbf, gpus,
                                    dp, repair);
              cell.options = CellOptions(mtbf, gpus, dp, repair, rng.NextU64());
              if (stragglers) {
                cell.options.straggler.mtbf = 5000;
                cell.options.straggler.slowdown = 2.0;
                cell.options.straggler.duration = 2000;
                cell.options.straggler.busy_noise_sigma = 0.02;
              }
              cells_.push_back(std::move(cell));
            }
          }
        }
      }
    }
    // Engine-grounded cells on the paper's plan: clean at two MTBFs, and
    // a persistent straggler on every stage.
    const auto engine_cell = [&](const std::string& name, double mtbf) {
      Cell cell;
      cell.name = name;
      cell.engine = true;
      cell.options = CellOptions(mtbf, 64, 8, 1800.0, rng.NextU64());
      const Seconds cluster_mtbf = cell.options.run.reliability.mtbf_per_1000_gpus * 1000.0 / 64;
      cell.options.run.target_useful_time = 20.0 * cluster_mtbf;
      return cell;
    };
    for (const double mtbf : mtbf_hours) {
      cells_.push_back(engine_cell(StrFormat("engine/clean/%.0f", mtbf), mtbf));
    }
    // Engine-grounded straggler cells: a persistent straggler on each
    // stage. None of them completes correctly at this revision (the
    // mitigated re-plan OOMs, or elastic loses to restart), so they run
    // only on request (--known-failures) and the measured pool keeps to
    // cells whose runs succeed.
    const std::vector<int> stages = options.known_failures
                                        ? Size<int>(options, {3}, {0, 1, 2, 3, 4, 5, 6, 7})
                                        : std::vector<int>{};
    for (const int stage : stages) {
      Cell cell = engine_cell(StrFormat("engine/straggler/%d", stage), 6.0);
      cell.options.straggler.mtbf = 5000;
      cell.options.straggler.slowdown = 1.5;
      cell.options.straggler.duration = 2000;
      cell.options.straggler.stage = stage;
      cells_.push_back(std::move(cell));
    }
    Shuffle(cells_, options.seed ^ 0x5bd1e995ull);
  }

  void RunPass(Recorder& rec) override {
    for (const Cell& cell : cells_) {
      const std::optional<double> restart = Run(cell, core::ElasticPolicy::kRestart, rec);
      const std::optional<double> elastic = Run(cell, core::ElasticPolicy::kElastic, rec);
      if (restart && elastic && *elastic + 1e-9 < *restart) {
        rec.Fail(2, true, cell.name + ": elastic goodput below restart");
      }
      if (!cell.engine) {
        TrainingRun(cell, rec);
      }
    }
  }

 private:
  static core::ElasticOptions CellOptions(double mtbf_hours, int gpus, int dp, Seconds repair,
                                          std::uint64_t seed) {
    core::ElasticOptions opt;
    opt.run.gpus = gpus;
    opt.run.dp_replicas = dp;
    opt.run.seed = seed;
    opt.run.reliability.mtbf_per_1000_gpus = mtbf_hours * 3600.0;
    opt.run.reliability.recovery_time = 120.0;
    opt.run.reliability.checkpoint_write_cost = 20.0;
    const Seconds mtbf = opt.run.reliability.mtbf_per_1000_gpus * 1000.0 / gpus;
    opt.run.target_useful_time = 80.0 * mtbf;
    opt.repair_time = repair;
    opt.reshard_stall = 20.0;
    opt.replan_stall = 30.0;
    opt.resolve_checkpoint_interval = true;
    opt.interval_solve_mtbfs = 20.0;
    opt.interval_solver = {0, 0, /*coarse_points=*/7, /*golden_iterations=*/6};
    return opt;
  }

  static constexpr Seconds kAnalyticIteration = 5.0;
  static constexpr int kPaperBatch = 128;

  static core::Strategy PaperPlan() {
    core::Strategy strategy;
    strategy.method = Method::kSvpp;
    strategy.pp = 8;
    strategy.dp = 8;
    strategy.spp = 4;
    return strategy;
  }

  // One elastic-loop request. Returns its goodput, or nullopt on failure.
  std::optional<double> Run(const Cell& cell, core::ElasticPolicy policy, Recorder& rec) {
    core::ElasticOptions options = cell.options;
    options.policy = policy;
    const int request = rec.NextRequest();
    Tracer::Scope root(rec.tracer, "request", request);
    core::ElasticMetrics metrics;
    bool threw = false;
    const double start = Now();
    {
      Tracer::Scope span(rec.tracer,
                         cell.engine ? "elastic.run_engine" : "elastic.SimulateElasticRun",
                         request);
      try {
        metrics = cell.engine
                      ? core::SimulateElasticRun(model::Llama13B(), PaperPlan(),
                                                 hw::Rtx4090Cluster(), kPaperBatch, options)
                      : core::SimulateElasticRun(kAnalyticIteration, options);
      } catch (const std::exception&) {
        threw = true;
      }
    }
    rec.Request(Now() - start);
    const std::string key = cell.name + "/" + core::ToString(policy);
    if (threw || !repeats_.Matches(rec.pass, key, Bits(metrics.goodput) + "/" +
                                                      std::to_string(metrics.failures))) {
      rec.Fail(1, !threw, key);
      rec.Outcome("goodput", 0);
      return std::nullopt;
    }
    rec.Outcome("goodput", metrics.goodput);
    if (rec.traced()) {
      rec.Add("elastic.replans", metrics.replans);
      rec.Add("elastic.reshards", metrics.reshards);
      if (cell.engine) {
        ReplayEngineCell(options, rec, request);
      }
    }
    return metrics.goodput;
  }

  // The engine-grounded request by layer: shape pricing, the control
  // loop on the priced overrides, and the full-fleet plan's DES.
  void ReplayEngineCell(core::ElasticOptions options, Recorder& rec, int request) {
    core::ElasticPricing pricing;
    {
      Tracer::Scope span(rec.tracer, "elastic.PriceElasticShapes", request);
      pricing = core::PriceElasticShapes(model::Llama13B(), PaperPlan(), hw::Rtx4090Cluster(),
                                         kPaperBatch, options);
    }
    long des_runs = 0;
    for (const core::ElasticShape& shape : pricing.shapes) {
      des_runs += shape.micros > 0 ? 1 : 0;
    }
    des_runs += pricing.straggled_iteration_time > 0 ? 1 : 0;
    des_runs += pricing.mitigated_iteration_time > 0 ? 1 : 0;
    rec.Add("elastic.des_runs", static_cast<double>(des_runs));
    {
      Tracer::Scope span(rec.tracer, "elastic.SimulateElasticRun", request);
      g_sink = g_sink + core::SimulateElasticRun(pricing.clean_iteration_time, options).goodput;
    }
    ReplayCandidate(model::Llama13B(), PaperPlan(), hw::Rtx4090Cluster(), kPaperBatch, {}, rec,
                    request);
  }

  void TrainingRun(const Cell& cell, Recorder& rec) {
    core::ResilienceOptions run = cell.options.run;
    run.reliability.checkpoint_interval = 600.0;
    const int request = rec.NextRequest();
    Tracer::Scope root(rec.tracer, "request", request);
    core::ResilienceMetrics metrics;
    bool threw = false;
    const double start = Now();
    {
      Tracer::Scope span(rec.tracer, "resilience.SimulateTrainingRun", request);
      try {
        metrics = core::SimulateTrainingRun(kAnalyticIteration, run);
      } catch (const std::exception&) {
        threw = true;
      }
    }
    rec.Request(Now() - start);
    if (threw || !repeats_.Matches(rec.pass, cell.name + "/run", Bits(metrics.goodput))) {
      rec.Fail(1, !threw, cell.name + "/run");
      rec.Outcome("goodput", 0);
      return;
    }
    rec.Outcome("goodput", metrics.goodput);
  }

  std::vector<Cell> cells_;
  RepeatCheck repeats_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "paper_grid") {
    return std::make_unique<PaperGrid>();
  }
  if (name == "wide_sweep") {
    return std::make_unique<WideSweep>();
  }
  if (name == "cluster_traffic") {
    return std::make_unique<ClusterTraffic>();
  }
  if (name == "failure_runs") {
    return std::make_unique<FailureRuns>();
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

// Per-layer metrics of the traced pass. Times and counts are per
// request; every ratio comes with its base.
std::map<std::string, double> LayerMetrics(const Tracer& tracer,
                                           const std::map<std::string, double>& sums,
                                           long requests) {
  const std::map<std::string, Tracer::NameStats> stats = tracer.Stats();
  const double n = static_cast<double>(std::max(1L, requests));
  const auto sum = [&](const std::string& key) {
    const auto it = sums.find(key);
    return it == sums.end() ? 0.0 : it->second;
  };
  const auto self = [&](const std::string& name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.self;
  };
  const auto calls = [&](const std::string& name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::map<std::string, double> m;
  m["planner.candidates"] = sum("planner.candidates") / n;
  m["planner.feasible_ratio"] = ratio(sum("planner.feasible"), sum("planner.candidates"));
  m["planner.des_runs"] = sum("planner.des_runs") / n;
  m["planner.phase1_s"] = sum("planner.phase1_s") / n;
  m["planner.phase2_s"] = sum("planner.phase2_s") / n;
  m["planner.unattributed_s"] = (sum("planner.wall_s") - sum("planner.attributed_s")) / n;

  m["iteration.build_s"] = self("iteration.BuildCandidate") / n;
  m["iteration.builds"] = calls("iteration.BuildCandidate") / n;

  m["training_cost.ctor_s"] = self("training_cost.TrainingCostModel") / n;
  m["training_cost.queries"] = sum("training_cost.queries") / n;
  m["training_cost.query_s"] = self("training_cost.queries") / n;
  m["training_cost.distinct_ratio"] =
      ratio(sum("training_cost.distinct"), sum("training_cost.queries"));

  m["sched.generate_s"] =
      (self("iteration.BuildCandidate") - self("training_cost.TrainingCostModel")) / n;
  m["sched.validate_s"] = self("sched.ValidateSchedule") / n;
  m["sched.validate_calls"] = calls("sched.ValidateSchedule") / n;
  m["sched.ops"] = sum("sched.ops") / n;

  m["sim.simulate_s"] = self("sim.Simulate") / n;
  m["sim.ops_per_s"] = ratio(sum("sim.ops"), self("sim.Simulate"));

  m["surrogate.table_s"] = self("surrogate.PriceScheduleTable") / n;
  m["surrogate.fingerprint_s"] = self("surrogate.CostModelFingerprint") / n;
  m["surrogate.cache_hit_ratio"] = ratio(sum("surrogate.hits"), sum("surrogate.lookups"));
  m["surrogate.lookups"] = sum("surrogate.lookups") / n;
  m["surrogate.interval_hit_ratio"] =
      ratio(sum("surrogate.interval_hits"), sum("surrogate.interval_lookups"));
  m["surrogate.interval_lookups"] = sum("surrogate.interval_lookups") / n;

  m["resilience.interval_solve_s"] = self("resilience.IntervalSolve") / n;
  m["resilience.run_s"] = self("resilience.SimulateTrainingRun") / n;

  m["fleet.plan_s"] = self("fleet.SearchBestFleetStrategy") / n;

  m["cluster.submit_s"] = self("cluster.Submit") / n;
  m["cluster.drain_s"] = self("cluster.Drain") / n;
  m["cluster.plan_s"] = self("cluster.SearchBestStrategy") / n;
  m["cluster.events"] = sum("cluster.events") / n;
  m["cluster.plan_calls"] = sum("cluster.plan_calls") / n;
  m["cluster.memo_hit_ratio"] = ratio(sum("cluster.memo_hits"), sum("cluster.plan_calls"));
  m["cluster.fleet_plans"] = sum("cluster.fleet_plans") / n;
  m["cluster.preemptions"] = sum("cluster.preemptions") / n;

  m["elastic.price_shapes_s"] = self("elastic.PriceElasticShapes") / n;
  m["elastic.loop_s"] = self("elastic.SimulateElasticRun") / n;
  m["elastic.des_runs"] = sum("elastic.des_runs") / n;
  m["elastic.replans"] = sum("elastic.replans") / n;
  m["elastic.reshards"] = sum("elastic.reshards") / n;

  // Request time no span below the request root accounts for.
  m["trace.request_self_s"] = self("request") / n;
  return m;
}

// Set-up is tiny next to a pass, so it is timed many times: repeats of
// Workload::Setup for `seconds` (and at least kSetupRepeats times),
// appended to `times`. Set-up is deterministic in the seed, so every
// repeat rebuilds the same inputs.
void TimeSetup(Workload& workload, const Options& options, double seconds,
               std::vector<double>& times) {
  const double start = Now();
  for (int n = 0; n < kSetupRepeats || Now() - start < seconds; ++n) {
    const double begin = Now();
    workload.Setup(options);
    times.push_back(Now() - begin);
  }
}

}  // namespace

Report RunWorkload(const Options& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  Report report;

  // Set-up samples are spread over the run (before the first pass and
  // after each one), so their median does not hang on the host's speed
  // in one short window.
  std::vector<double> setups;
  TimeSetup(*workload, options, kSetupSeconds, setups);

  // Untraced: whole passes until the time is spent (the pass that would
  // overshoot by more than half its length is not started).
  Tracer off(false);
  Recorder rec(off, report);
  double measured = 0;
  for (int pass = 0;; ++pass) {
    rec.pass = pass;
    const double pass_start = Now();
    workload->RunPass(rec);
    const double last = Now() - pass_start;
    measured += last;
    report.passes = pass + 1;
    report.pass_seconds.push_back(last);
    TimeSetup(*workload, options, kSetupSeconds, setups);
    if (report.passes >= workload->MinPasses() &&
        (measured + last / 2 >= options.seconds || measured + last > kMaxMeasureSeconds)) {
      break;
    }
  }
  rec.FinishOutcome();
  report.setup_s = Median(setups);

  if (options.trace) {
    // One more pass over the same inputs, every request replayed layer
    // by layer under spans. Its counts stay out of the report.
    Tracer tracer(true);
    Report traced;
    Recorder trec(tracer, traced);
    trec.pass = 1;
    const double traced_start = Now();
    workload->RunPass(trec);
    const double traced_wall = Now() - traced_start;
    report.layers = LayerMetrics(tracer, trec.sums, traced.attempted);
    const double untraced_rps = static_cast<double>(report.attempted) / measured;
    const double traced_rps = static_cast<double>(traced.attempted) / traced_wall;
    report.layers["trace.untraced_requests_per_s"] = untraced_rps;
    report.layers["trace.traced_requests_per_s"] = traced_rps;
    report.layers["trace.overhead_ratio"] = untraced_rps / traced_rps;
    if (!options.trace_path.empty()) {
      tracer.WriteChromeTrace(options.trace_path);
    }
  }
  return report;
}

}  // namespace perfbench
