// The surrogate pricing contract (core/surrogate): exact against the
// engine for transfer-free costs, bounded error on the paper configs,
// cache/fingerprint behavior, closed-form goodput, and the fault-aware
// lower bound's soundness.
#include "core/surrogate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/format.h"
#include "core/iteration.h"
#include "core/planner.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "core/svpp.h"
#include "sched/baselines.h"
#include "sched/validate.h"
#include "sched/zbv.h"
#include "sim/cost_model.h"
#include "sim/engine.h"
#include "sim/noise.h"

namespace mepipe::core {
namespace {

using sched::Schedule;
using sim::SimResult;
using sim::UniformCostModel;
using sim::WgradMode;

// Every generator family the engine runs, at shapes small enough to
// enumerate quickly but large enough to exercise warmup/steady/drain.
std::vector<std::pair<const char*, Schedule>> TransferFreeCorpus() {
  std::vector<std::pair<const char*, Schedule>> corpus;
  corpus.push_back({"gpipe", sched::GPipeSchedule(4, 6)});
  corpus.push_back({"1f1b", sched::OneFOneBSchedule(4, 8)});
  corpus.push_back({"vpp", sched::VppSchedule(4, 2, 8)});
  corpus.push_back({"terapipe", sched::TeraPipeSchedule(4, 4, 4)});
  corpus.push_back({"zb1p", sched::Zb1pSchedule(4, 8)});
  corpus.push_back({"zbv", sched::HandcraftedZbvSchedule(4, 8)});
  return corpus;
}

void ExpectExactMatch(const SimResult& table, const SimResult& engine, const std::string& label) {
  EXPECT_EQ(table.makespan, engine.makespan) << label;
  EXPECT_EQ(table.bubble_ratio, engine.bubble_ratio) << label;
  EXPECT_EQ(table.peak_activation, engine.peak_activation) << label;
  EXPECT_EQ(table.budget_violations, engine.budget_violations) << label;
  EXPECT_EQ(table.dp.serialized, engine.dp.serialized) << label;
  EXPECT_EQ(table.dp.hidden, engine.dp.hidden) << label;
  EXPECT_EQ(table.dp.exposed, engine.dp.exposed) << label;
  EXPECT_EQ(table.dp.last_end, engine.dp.last_end) << label;
  EXPECT_EQ(table.dp.buckets, engine.dp.buckets) << label;
  EXPECT_TRUE(table.timeline.empty()) << label;
  ASSERT_EQ(table.stages.size(), engine.stages.size()) << label;
  for (std::size_t stage = 0; stage < engine.stages.size(); ++stage) {
    const sim::StageMetrics& t = table.stages[stage];
    const sim::StageMetrics& e = engine.stages[stage];
    const std::string at = label + " stage " + std::to_string(stage);
    EXPECT_EQ(t.busy, e.busy) << at;
    EXPECT_EQ(t.peak_activation, e.peak_activation) << at;
    EXPECT_EQ(t.bubble_ratio, e.bubble_ratio) << at;
    EXPECT_EQ(t.warmup_idle, e.warmup_idle) << at;
    EXPECT_EQ(t.steady_idle, e.steady_idle) << at;
    EXPECT_EQ(t.drain_idle, e.drain_idle) << at;
    EXPECT_EQ(t.budget_violations, e.budget_violations) << at;
    EXPECT_EQ(t.budget_overflow_bytes, e.budget_overflow_bytes) << at;
    EXPECT_EQ(t.dp_sync, e.dp_sync) << at;
  }
}

// One seeded random differential case: a generator at a random shape, a
// W mode, noisy transfer-free costs with random memory footprints, W
// GEMM splits and priced DP buckets, an optional budget (0 entries and
// entries below one forward included), and DP overlap on or off.
struct RandomCase {
  std::string label;
  Schedule schedule;
  double f = 1, b = 1, w = 1, dp_sync = 0, sigma = 0;
  Bytes act_bytes = 1, act_grad_bytes = 0;
  int gemms = 1;
  WgradMode mode = WgradMode::kFillGemms;
  std::vector<Bytes> budget;
  bool dp_overlap = false;
};

RandomCase MakeRandomCase(std::mt19937_64& rng) {
  const auto uniform_int = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto uniform_real = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  RandomCase c;
  const int p = uniform_int(2, 8);
  const int n = uniform_int(1, 12);
  const int generator = uniform_int(0, 6);
  switch (generator) {
    case 0:
      c.schedule = sched::GPipeSchedule(p, n);
      c.label = StrFormat("gpipe p=%d n=%d", p, n);
      break;
    case 1:
      c.schedule = sched::OneFOneBSchedule(p, n);
      c.label = StrFormat("1f1b p=%d n=%d", p, n);
      break;
    case 2: {
      const int v = uniform_int(2, 3);
      const int micros = p * uniform_int(1, 2);
      c.schedule = sched::VppSchedule(p, v, micros);
      c.label = StrFormat("vpp p=%d v=%d n=%d", p, v, micros);
      break;
    }
    case 3: {
      const int s = uniform_int(1, 4);
      c.schedule = sched::TeraPipeSchedule(p, s, n);
      c.label = StrFormat("terapipe p=%d s=%d n=%d", p, s, n);
      break;
    }
    case 4:
      c.schedule = sched::Zb1pSchedule(p, n);
      c.label = StrFormat("zb1p p=%d n=%d", p, n);
      break;
    case 5:
      c.schedule = sched::HandcraftedZbvSchedule(p, n);
      c.label = StrFormat("zbv p=%d n=%d", p, n);
      break;
    default: {
      core::SvppOptions svpp;
      svpp.stages = p;
      svpp.virtual_chunks = uniform_int(1, 2);
      svpp.slices = uniform_int(1, 4);
      svpp.micros = n;
      svpp.split_backward = uniform_int(0, 3) > 0;
      c.schedule = core::GenerateSvpp(svpp);
      c.label = StrFormat("svpp p=%d v=%d s=%d n=%d split=%d", p, svpp.virtual_chunks,
                          svpp.slices, n, svpp.split_backward ? 1 : 0);
      break;
    }
  }
  c.f = uniform_real(0.5, 2.0);
  c.b = uniform_real(0.5, 3.0);
  c.w = uniform_real(0.2, 1.5);
  c.sigma = uniform_real(0.05, 0.5);
  c.act_bytes = uniform_int(1, 64);
  c.act_grad_bytes = uniform_int(0, 32);
  c.gemms = uniform_int(1, 4);
  c.dp_sync = uniform_int(0, 3) == 0 ? 0.0 : uniform_real(0.1, 4.0);
  c.mode = static_cast<WgradMode>(uniform_int(0, 2));
  if (uniform_int(0, 2) > 0) {
    // Per stage: unbudgeted (0), below one forward, or up to a few dozen.
    for (int stage = 0; stage < p; ++stage) {
      const int kind = uniform_int(0, 3);
      c.budget.push_back(kind == 0   ? 0
                         : kind == 1 ? uniform_int(1, static_cast<int>(c.act_bytes))
                                     : uniform_int(1, 24) * c.act_bytes);
    }
  }
  c.dp_overlap = uniform_int(0, 1) == 1;
  c.label += StrFormat(" mode=%d sigma=%.3f act=%lld/%lld gemms=%d dp=%g overlap=%d budget=%s",
                       static_cast<int>(c.mode), c.sigma,
                       static_cast<long long>(c.act_bytes),
                       static_cast<long long>(c.act_grad_bytes), c.gemms, c.dp_sync,
                       c.dp_overlap ? 1 : 0, c.budget.empty() ? "none" : "per-stage");
  return c;
}

TEST(SurrogateTable, ExactForTransferFreeCostsAcrossGeneratorsAndWgradModes) {
  // The contract's "exact" half: with no transfers, the table IS the
  // engine — makespan, bubbles, memory and DP stream bit for bit. First
  // every generator family at uniform costs, then seeded random cases.
  const UniformCostModel costs(1.0, 2.0, 0.7, /*transfer=*/0.0, /*act_bytes=*/10,
                               /*act_grad_bytes=*/3, /*wgrad_gemms=*/3);
  for (const auto& [label, schedule] : TransferFreeCorpus()) {
    EXPECT_TRUE(sched::CheckScheduleInvariants(schedule).ok()) << label;
    for (WgradMode mode : {WgradMode::kImmediate, WgradMode::kFillWhole,
                           WgradMode::kFillGemms}) {
      sim::EngineOptions engine_options;
      engine_options.wgrad_mode = mode;
      const SimResult engine = Simulate(schedule, costs, engine_options);
      TableOptions table_options;
      table_options.wgrad_mode = mode;
      ExpectExactMatch(PriceScheduleTable(schedule, costs, table_options), engine, label);
    }
  }

  std::mt19937_64 rng(0x5eed5u);
  for (int trial = 0; trial < 200; ++trial) {
    const RandomCase c = MakeRandomCase(rng);
    const std::string label = StrFormat("trial %d: ", trial) + c.label;
    const sched::InvariantReport invariants = sched::CheckScheduleInvariants(c.schedule);
    EXPECT_TRUE(invariants.ok()) << label << "\n" << invariants.Summary();
    const UniformCostModel base(c.f, c.b, c.w, /*transfer=*/0.0, c.act_bytes, c.act_grad_bytes,
                                c.gemms, c.dp_sync);
    const sim::NoisyCostModel noisy(base, c.sigma, static_cast<std::uint64_t>(trial) + 1);
    sim::EngineOptions engine_options;
    engine_options.wgrad_mode = c.mode;
    engine_options.activation_budget = c.budget;
    engine_options.dp_overlap = c.dp_overlap;
    engine_options.record_timeline = false;
    const SimResult engine = Simulate(c.schedule, noisy, engine_options);
    TableOptions table_options;
    table_options.wgrad_mode = c.mode;
    table_options.activation_budget = c.budget;
    table_options.dp_overlap = c.dp_overlap;
    ExpectExactMatch(PriceScheduleTable(c.schedule, noisy, table_options), engine, label);
  }
}

TEST(SurrogateTable, ExactUnderActivationBudgetDrains) {
  // A budget tight enough to force DrainForBudget on every warmup
  // forward; the table must replicate the drain decisions exactly.
  const Schedule schedule = sched::Zb1pSchedule(4, 8);
  const UniformCostModel costs(1.0, 2.0, 0.7, 0.0, /*act_bytes=*/10, /*act_grad_bytes=*/4,
                               /*wgrad_gemms=*/2);
  const std::vector<Bytes> budget(4, 45);
  sim::EngineOptions engine_options;
  engine_options.activation_budget = budget;
  const SimResult engine = Simulate(schedule, costs, engine_options);
  TableOptions table_options;
  table_options.activation_budget = budget;
  ExpectExactMatch(PriceScheduleTable(schedule, costs, table_options), engine, "zb1p budgeted");
}

TEST(SurrogateTable, ChargesTransfersPointToPoint) {
  // One micro-batch never contends for a link: each hop costs exactly one
  // transfer, 4 × (f + b) + 2 × 3 hops × 0.5 = 15, on both instances.
  const UniformCostModel costs(1.0, 2.0, 0.0, /*transfer=*/0.5);
  const Schedule single = sched::GPipeSchedule(4, 1);
  EXPECT_EQ(PriceScheduleTable(single, costs).makespan, 15.0);
  EXPECT_EQ(Simulate(single, costs).makespan, 15.0);
  // Transfers longer than compute queue on the engine's serialized link
  // but not in the table, which only lower-bounds the engine here.
  const UniformCostModel slow_link(1.0, 1.0, 0.0, /*transfer=*/3.0);
  const Schedule contended = sched::GPipeSchedule(2, 2);
  EXPECT_LT(PriceScheduleTable(contended, slow_link).makespan,
            Simulate(contended, slow_link).makespan);
}

TEST(SurrogateTable, RejectsANegativeActivationBudgetLikeTheEngine) {
  const Schedule schedule = sched::Zb1pSchedule(4, 8);
  const UniformCostModel costs(1.0, 2.0, 0.7, 0.0, 10, 4, 2);
  TableOptions options;
  options.activation_budget = {45, 0, -1, 45};
  EXPECT_THROW(PriceScheduleTable(schedule, costs, options), CheckError);
  sim::EngineOptions engine_options;
  engine_options.activation_budget = options.activation_budget;
  EXPECT_THROW(Simulate(schedule, costs, engine_options), CheckError);
}

TEST(SurrogateTable, ExactForOverlappedDpSyncWithoutFabricSharing) {
  const Schedule schedule = sched::OneFOneBSchedule(4, 8);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, 10, 0, 1, /*dp_sync=*/1.5);
  sim::EngineOptions engine_options;
  engine_options.dp_overlap = true;
  const SimResult engine = Simulate(schedule, costs, engine_options);
  TableOptions table_options;
  table_options.dp_overlap = true;
  const SimResult table = PriceScheduleTable(schedule, costs, table_options);
  EXPECT_GT(table.dp.buckets, 0);
  ExpectExactMatch(table, engine, "1f1b overlapped dp");
}

TEST(Surrogate, BoundedRelativeErrorOnPaperConfigs) {
  // The contract's "approximate" half, on the Table 5/6 hardware: the
  // only divergence is transfer-link serialization, so the surrogate's
  // iteration time stays within a few percent of the engine's and
  // feasibility verdicts agree.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  struct Case {
    Method method;
    int pp, spp, cp, vp;
  };
  const std::vector<Case> cases = {
      {Method::kSvpp, 8, 4, 1, 1},  {Method::kSvpp, 8, 8, 1, 2},
      {Method::kDapple, 8, 1, 1, 1}, {Method::kVpp, 8, 1, 1, 2},
      {Method::kZb1p, 8, 1, 1, 1},   {Method::kTeraPipe, 8, 1, 4, 1},
  };
  for (const Case& c : cases) {
    Strategy strategy;
    strategy.method = c.method;
    strategy.pp = c.pp;
    strategy.spp = c.spp;
    strategy.cp = c.cp;
    strategy.vp = c.vp;
    strategy.dp = 64 / (c.pp * c.cp);
    strategy.recompute = c.method == Method::kVpp;
    IterationOptions iteration;
    iteration.keep_timeline = false;
    const IterationResult exact = SimulateIteration(config, strategy, cluster, 64, iteration);
    SurrogateOptions surrogate;
    surrogate.iteration = iteration;
    const SurrogateResult priced = SurrogatePrice(config, strategy, cluster, 64, surrogate);
    ASSERT_EQ(priced.feasible, exact.feasible) << ToString(c.method) << ": " << priced.note;
    if (!exact.feasible) {
      continue;
    }
    const double rel_error =
        std::abs(priced.iteration_time - exact.iteration_time) / exact.iteration_time;
    EXPECT_LT(rel_error, 0.05) << ToString(c.method) << " surrogate " << priced.iteration_time
                               << " vs exact " << exact.iteration_time;
    EXPECT_LE(priced.iteration_time, exact.iteration_time + 1e-9)
        << ToString(c.method) << ": dropping link serialization can only shorten the run";
    EXPECT_EQ(priced.micros, exact.micros);
  }
}

TEST(Surrogate, ReportsStructuralInfeasibilityLikeTheEngine) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 7;  // 40 partition units need pp | 40
  strategy.dp = 2;
  const SurrogateResult priced = SurrogatePrice(config, strategy, cluster, 64);
  EXPECT_FALSE(priced.feasible);
  EXPECT_FALSE(priced.note.empty());
}

TEST(SurrogateCacheTest, SecondPriceIsAHitWithIdenticalResult) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.spp = 4;
  strategy.dp = 8;
  SurrogateCache cache;
  SurrogateOptions options;
  options.cache = &cache;
  const SurrogateResult first = SurrogatePrice(config, strategy, cluster, 64, options);
  const SurrogateResult second = SurrogatePrice(config, strategy, cluster, 64, options);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(first.iteration_time, second.iteration_time);
  EXPECT_EQ(first.peak_memory, second.peak_memory);
  EXPECT_EQ(first.note, second.note);
}

TEST(SurrogateCacheTest, FingerprintSeparatesCostModelChanges) {
  // Same strategy, different cluster link speed: the fingerprint must
  // differ, so the cache misses instead of serving a stale price.
  const auto config = model::Llama13B();
  auto cluster = hw::Rtx4090Cluster();
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.spp = 4;
  strategy.dp = 8;
  SurrogateCache cache;
  SurrogateOptions options;
  options.cache = &cache;
  (void)SurrogatePrice(config, strategy, cluster, 64, options);
  cluster.intra_node.bandwidth *= 2.0;
  const SurrogateResult repriced = SurrogatePrice(config, strategy, cluster, 64, options);
  EXPECT_FALSE(repriced.cache_hit);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.size(), 2u);

  IterationOptions changed;
  changed.wgrad_mode = sim::WgradMode::kFillWhole;
  EXPECT_NE(CostModelFingerprint(config, cluster, {}),
            CostModelFingerprint(config, cluster, changed));
}

TEST(SurrogateCacheTest, IntervalSolveIsMemoized) {
  SurrogateCache cache;
  ResilienceOptions res;
  res.dp_replicas = 8;
  res.reliability.checkpoint_write_cost = 12.0;
  const CheckpointIntervalSolution a = cache.IntervalSolve(2.0, res);
  const CheckpointIntervalSolution b = cache.IntervalSolve(2.0, res);
  EXPECT_EQ(cache.stats().interval_misses, 1);
  EXPECT_EQ(cache.stats().interval_hits, 1);
  EXPECT_DOUBLE_EQ(a.refined, b.refined);
  EXPECT_DOUBLE_EQ(a.goodput, b.goodput);
  const CheckpointIntervalSolution direct = OptimalCheckpointInterval(2.0, res);
  EXPECT_DOUBLE_EQ(a.refined, direct.refined);
  EXPECT_DOUBLE_EQ(a.goodput, direct.goodput);

  res.reliability.checkpoint_write_cost = 24.0;
  (void)cache.IntervalSolve(2.0, res);
  EXPECT_EQ(cache.stats().interval_misses, 2);
}

TEST(SurrogateCacheTest, ConcurrentMixedTrafficStaysConsistent) {
  // TSan target: hammer one cache from many threads with price lookups,
  // inserts, and interval solves; every thread must read prices equal to
  // a serially computed reference.
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  std::vector<Strategy> strategies;
  for (int spp : {1, 2, 4, 8}) {
    Strategy strategy;
    strategy.method = Method::kSvpp;
    strategy.pp = 8;
    strategy.spp = spp;
    strategy.dp = 8;
    strategies.push_back(strategy);
  }
  std::vector<SurrogateResult> reference;
  for (const Strategy& strategy : strategies) {
    reference.push_back(SurrogatePrice(config, strategy, cluster, 64));
  }

  SurrogateCache cache;
  ResilienceOptions res;
  res.dp_replicas = 8;
  std::atomic<int> mismatches{0};
  const auto worker = [&](int seed) {
    SurrogateOptions options;
    options.cache = &cache;
    for (int round = 0; round < 8; ++round) {
      const std::size_t i =
          static_cast<std::size_t>(seed + round) % strategies.size();
      const SurrogateResult got =
          SurrogatePrice(config, strategies[i], cluster, 64, options);
      if (got.iteration_time != reference[i].iteration_time ||
          got.peak_memory != reference[i].peak_memory) {
        mismatches.fetch_add(1);
      }
      (void)cache.IntervalSolve(1.0 + 0.5 * static_cast<double>(i), res);
      (void)cache.stats();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back(worker, t);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), strategies.size());
}

TEST(SurrogateGoodputTest, ClosedFormTracksTheRefinedSolver) {
  ResilienceOptions res;
  res.dp_replicas = 8;
  for (Seconds iteration_time : {0.5, 2.0, 8.0}) {
    const SurrogateGoodput closed = ClosedFormGoodput(iteration_time, Bytes{1} << 33, res);
    ResilienceOptions priced = res;
    priced.reliability.checkpoint_write_cost = closed.checkpoint_write_cost;
    const CheckpointIntervalSolution refined = OptimalCheckpointInterval(iteration_time, priced);
    EXPECT_GT(closed.goodput, 0.0);
    EXPECT_LE(closed.goodput, 1.0);
    EXPECT_GE(closed.effective_iteration_time, iteration_time);
    // The closed form skips the Monte-Carlo refinement but must land in
    // the same neighborhood — it only ranks, the solver prices.
    EXPECT_NEAR(closed.goodput, refined.goodput, 0.05)
        << "iteration_time=" << iteration_time;
  }
  // More write cost can never raise the closed-form goodput.
  ResilienceOptions heavy = res;
  const SurrogateGoodput cheap = ClosedFormGoodput(2.0, Bytes{1} << 30, heavy);
  const SurrogateGoodput expensive = ClosedFormGoodput(2.0, Bytes{1} << 36, heavy);
  EXPECT_GE(cheap.goodput, expensive.goodput);
  EXPECT_GT(expensive.checkpoint_write_cost, cheap.checkpoint_write_cost);
}

TEST(SurrogateLowerBoundTest, NeverExceedsTheMeasuredIterationTime) {
  const auto config = model::Llama13B();
  const auto cluster = hw::Rtx4090Cluster();
  std::vector<Strategy> strategies;
  for (int spp : {4, 8}) {
    Strategy strategy;
    strategy.method = Method::kSvpp;
    strategy.pp = 8;
    strategy.spp = spp;
    strategy.dp = 8;
    strategies.push_back(strategy);
  }
  Strategy vpp;
  vpp.method = Method::kVpp;
  vpp.pp = 4;  // 40 partition units: pp * vp must divide 40
  vpp.vp = 2;
  vpp.dp = 16;
  vpp.recompute = true;
  strategies.push_back(vpp);

  std::vector<sim::FaultPlanRef> plans;
  plans.emplace_back();  // clean
  sim::FaultPlan straggler;
  straggler.stragglers.push_back({1, 0.0, 1e9, 2.0});
  plans.push_back(straggler);
  sim::FaultPlan windowed;
  windowed.stragglers.push_back({0, 0.0, 5.0, 3.0});
  windowed.stragglers.push_back({2, 10.0, 20.0, 1.5});
  plans.push_back(windowed);

  for (const Strategy& strategy : strategies) {
    for (std::size_t p = 0; p < plans.size(); ++p) {
      IterationOptions options;
      options.keep_timeline = false;
      options.fault_plan = plans[p];
      const auto bound = SurrogateLowerBound(config, strategy, hw::SingleTierTopology(cluster),
                                             hw::StagePlacement::Uniform(strategy.pp, 0), 64,
                                             options);
      ASSERT_TRUE(bound.has_value()) << "plan " << p;
      const IterationResult exact = SimulateIteration(config, strategy, cluster, 64, options);
      ASSERT_TRUE(exact.feasible)
          << ToString(strategy.method) << " spp=" << strategy.spp << ": " << exact.note;
      EXPECT_LE(*bound, exact.iteration_time + 1e-9)
          << ToString(strategy.method) << " spp=" << strategy.spp << " plan " << p;
    }
  }
}

TEST(SurrogateLowerBoundTest, StragglerWindowsRaiseTheBound) {
  const auto config = model::Llama13B();
  const auto topology = hw::SingleTierTopology(hw::Rtx4090Cluster());
  const auto placement = hw::StagePlacement::Uniform(8, 0);
  Strategy strategy;
  strategy.method = Method::kSvpp;
  strategy.pp = 8;
  strategy.spp = 4;
  strategy.dp = 8;
  IterationOptions clean;
  clean.keep_timeline = false;
  const auto clean_bound =
      SurrogateLowerBound(config, strategy, topology, placement, 64, clean);
  sim::FaultPlan plan;
  plan.stragglers.push_back({3, 0.0, 1e9, 2.0});
  IterationOptions faulted = clean;
  faulted.fault_plan = plan;
  const auto faulted_bound =
      SurrogateLowerBound(config, strategy, topology, placement, 64, faulted);
  ASSERT_TRUE(clean_bound.has_value());
  ASSERT_TRUE(faulted_bound.has_value());
  EXPECT_GT(*faulted_bound, *clean_bound);
}

}  // namespace
}  // namespace mepipe::core
