// Tests for the straggler-aware rebalancing subsystem (core/rebalance):
// the bottleneck partitioner, slowdown estimation, plan construction,
// the re-priced cost model, and the end-to-end mitigation driver's
// acceptance margin under a persistent straggler.
#include "core/rebalance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/svpp.h"
#include "sched/baselines.h"
#include "sim/engine.h"

namespace mepipe::core {
namespace {

using sched::OpId;
using sched::OpKind;

// ---------------------------------------------------------------------------
// PartitionUnitsBySpeed

double Bottleneck(const std::vector<int>& units, const std::vector<double>& slowdown) {
  double worst = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    worst = std::max(worst, units[i] * slowdown[i]);
  }
  return worst;
}

// Exhaustively enumerates every partition of `total` into |slowdown|
// parts >= min_units and returns the optimal bottleneck.
double BruteForceBottleneck(int total, const std::vector<double>& slowdown, int min_units,
                            std::size_t index = 0, std::vector<int>* prefix = nullptr) {
  std::vector<int> storage;
  if (prefix == nullptr) {
    prefix = &storage;
  }
  if (index + 1 == slowdown.size()) {
    const int last = total;
    if (last < min_units) {
      return 1e300;
    }
    prefix->push_back(last);
    const double result = Bottleneck(*prefix, slowdown);
    prefix->pop_back();
    return result;
  }
  double best = 1e300;
  for (int u = min_units; u <= total - min_units * static_cast<int>(slowdown.size() - index - 1);
       ++u) {
    prefix->push_back(u);
    best = std::min(best, BruteForceBottleneck(total - u, slowdown, min_units, index + 1, prefix));
    prefix->pop_back();
  }
  return best;
}

TEST(PartitionUnitsBySpeed, EqualSpeedsGiveEvenPartition) {
  const std::vector<int> units = PartitionUnitsBySpeed(32, {1.0, 1.0, 1.0, 1.0}, 1);
  EXPECT_EQ(units, (std::vector<int>{8, 8, 8, 8}));
}

TEST(PartitionUnitsBySpeed, MovesUnitsOffTheSlowWorker) {
  const std::vector<double> slowdown = {1.0, 1.0, 2.0, 1.0};
  const std::vector<int> units = PartitionUnitsBySpeed(32, slowdown, 1);
  EXPECT_EQ(std::accumulate(units.begin(), units.end(), 0), 32);
  EXPECT_LT(units[2], 8);                          // slow worker sheds layers
  EXPECT_LE(Bottleneck(units, slowdown), 10.0 + 1e-9);  // optimal for this case
}

TEST(PartitionUnitsBySpeed, MatchesBruteForceOnSmallCases) {
  const std::vector<std::vector<double>> profiles = {
      {1.0, 1.0},       {1.0, 2.0},        {1.0, 1.5, 3.0},
      {2.0, 1.0, 1.25}, {1.0, 1.0, 1.0, 4.0},
  };
  for (const auto& slowdown : profiles) {
    for (int total = static_cast<int>(slowdown.size()); total <= 12; ++total) {
      const std::vector<int> units = PartitionUnitsBySpeed(total, slowdown, 1);
      ASSERT_EQ(units.size(), slowdown.size());
      EXPECT_EQ(std::accumulate(units.begin(), units.end(), 0), total);
      for (const int u : units) {
        EXPECT_GE(u, 1);
      }
      EXPECT_NEAR(Bottleneck(units, slowdown), BruteForceBottleneck(total, slowdown, 1), 1e-9)
          << "suboptimal partition for total=" << total;
    }
  }
}

TEST(PartitionUnitsBySpeed, RespectsMinUnits) {
  const std::vector<int> units = PartitionUnitsBySpeed(8, {1.0, 1.0, 100.0, 1.0}, 2);
  EXPECT_EQ(std::accumulate(units.begin(), units.end(), 0), 8);
  for (const int u : units) {
    EXPECT_EQ(u, 2);  // min forces the even split despite the slow worker
  }
}

TEST(PartitionUnitsBySpeed, RejectsBadInputs) {
  EXPECT_THROW(PartitionUnitsBySpeed(2, {1.0, 1.0, 1.0}, 1), CheckError);  // too few units
  EXPECT_THROW(PartitionUnitsBySpeed(8, {1.0, 0.0}, 1), CheckError);       // zero speed
  EXPECT_THROW(PartitionUnitsBySpeed(8, {}, 1), CheckError);               // no workers
  EXPECT_THROW(PartitionUnitsBySpeed(8, {1.0, 1.0}, 0), CheckError);       // empty chunks
}

// ---------------------------------------------------------------------------
// Slowdown estimation

TEST(StageProfile, ValidateRejectsMalformedProfiles) {
  StageProfile profile;
  profile.slowdown = {1.0, 0.5};
  EXPECT_THROW(profile.Validate(2), CheckError);  // below 1
  profile.slowdown = {1.0};
  EXPECT_THROW(profile.Validate(2), CheckError);  // wrong arity
  profile.slowdown = {1.0, 2.0};
  EXPECT_NO_THROW(profile.Validate(2));
  EXPECT_DOUBLE_EQ(profile.max_slowdown(), 2.0);
}

TEST(EstimateStageSlowdowns, RecoversAPersistentStragglerFromBusyTimes) {
  const sched::Schedule schedule = sched::OneFOneBSchedule(4, 8);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.05);
  const sim::SimResult clean = sim::Simulate(schedule, costs);

  sim::FaultPlan faults;
  faults.stragglers.push_back({2, 0.0, 1e9, 2.0});
  sim::EngineOptions engine;
  engine.fault_plan = faults;
  const sim::SimResult faulted = sim::Simulate(schedule, costs, engine);

  const StageProfile profile = EstimateStageSlowdowns(clean, faulted);
  ASSERT_EQ(profile.slowdown.size(), 4u);
  EXPECT_NEAR(profile.slowdown[0], 1.0, 1e-9);
  EXPECT_NEAR(profile.slowdown[1], 1.0, 1e-9);
  EXPECT_NEAR(profile.slowdown[2], 2.0, 1e-6);
  EXPECT_NEAR(profile.slowdown[3], 1.0, 1e-9);
}

TEST(EstimateStageSlowdowns, TimeAveragesPlanWindows) {
  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 50.0, 3.0});   // half the horizon at 3x
  faults.stragglers.push_back({1, 50.0, 200.0, 1.0}); // explicit no-op window
  const StageProfile profile = EstimateStageSlowdowns(faults, 2, 100.0);
  ASSERT_EQ(profile.slowdown.size(), 2u);
  EXPECT_NEAR(profile.slowdown[0], 1.0, 1e-12);
  EXPECT_NEAR(profile.slowdown[1], 2.0, 1e-12);  // 1 + 0.5 * (3 - 1)
}

// ---------------------------------------------------------------------------
// Rebalance planning

TEST(Rebalance, PlanPreservesUnitsAndRespectsCapFloor) {
  StageProfile profile;
  profile.slowdown = {1.0, 1.0, 2.0, 1.0};
  sched::PipelineProblem problem;
  problem.stages = 4;
  problem.slices = 4;
  problem.micros = 16;
  problem.split_backward = true;

  RebalanceOptions options;
  options.units_per_chunk = 8;
  options.base_caps = {7, 6, 5, 4};
  const RebalancePlan plan = Rebalance(profile, problem, options);

  ASSERT_EQ(plan.new_units.size(), 4u);
  EXPECT_EQ(std::accumulate(plan.new_units.begin(), plan.new_units.end(), 0), 32);
  EXPECT_TRUE(plan.repartitioned());
  EXPECT_LT(plan.new_units[2], 8);
  EXPECT_GT(plan.predicted_gain, 1.0);
  ASSERT_EQ(plan.new_caps.size(), 4u);
  for (const int cap : plan.new_caps) {
    EXPECT_GE(cap, problem.virtual_chunks * problem.slices);
  }
  // The slow stage sheds layers, so its cap grows.
  EXPECT_GT(plan.new_caps[2], plan.old_caps[2]);
  EXPECT_NE(plan.Summary(), "no-op");
  const std::vector<std::string> labels = plan.StageLabels(problem);
  ASSERT_EQ(labels.size(), 4u);
  for (const std::string& label : labels) {
    EXPECT_FALSE(label.empty());
  }
}

TEST(Rebalance, UniformProfileIsANoOp) {
  StageProfile profile;
  profile.slowdown = {1.0, 1.0, 1.0, 1.0};
  sched::PipelineProblem problem;
  problem.stages = 4;
  problem.micros = 8;

  RebalanceOptions options;
  options.units_per_chunk = 8;
  options.base_caps = {4, 3, 2, 1};
  const RebalancePlan plan = Rebalance(profile, problem, options);
  EXPECT_FALSE(plan.any_change());
  EXPECT_DOUBLE_EQ(plan.predicted_gain, 1.0);
}

// ---------------------------------------------------------------------------
// RebalancedCostModel

TEST(RebalancedCostModel, ScalesComputeWithTheUnitRatio) {
  sched::PipelineProblem problem;
  problem.stages = 2;
  problem.micros = 2;
  problem.split_backward = true;

  RebalancePlan plan;
  plan.old_units = {8, 8};
  plan.new_units = {12, 4};
  const sim::UniformCostModel base(1.0, 2.0, 1.0, 0.05, 100, 50, 7);
  const RebalancedCostModel costs(base, problem, plan);

  const OpId f0{OpKind::kForward, 0, 0, 0};
  const OpId f1{OpKind::kForward, 0, 0, 1};
  const OpId b1{OpKind::kBackward, 0, 0, 1};
  const OpId w1{OpKind::kWeightGrad, 0, 0, 1};
  EXPECT_DOUBLE_EQ(costs.ComputeTime(f0), 1.5);   // 12/8
  EXPECT_DOUBLE_EQ(costs.ComputeTime(f1), 0.5);   // 4/8
  EXPECT_DOUBLE_EQ(costs.ComputeTime(b1), 1.0);   // 2 * 0.5
  EXPECT_DOUBLE_EQ(costs.ComputeTime(w1), 0.5);
  // Transfers move boundary tensors — layer-count independent.
  EXPECT_DOUBLE_EQ(costs.TransferTime(f0), 0.05);
  // Activations scale with the layer share; GEMM count stays the base's.
  EXPECT_EQ(costs.ActivationBytes(f0), 150);
  EXPECT_EQ(costs.ActivationBytes(f1), 50);
  EXPECT_EQ(costs.ActGradBytes(b1), 25);
  EXPECT_EQ(costs.WeightGradGemmCount(w1), 7);
}

TEST(RebalancedCostModel, RejectsMismatchedPlans) {
  sched::PipelineProblem problem;
  problem.stages = 2;
  RebalancePlan plan;
  plan.old_units = {8, 8, 8};  // three chunks for a two-chunk problem
  plan.new_units = {8, 8, 8};
  const sim::UniformCostModel base(1.0, 2.0, 1.0, 0.0);
  EXPECT_THROW(RebalancedCostModel(base, problem, plan), CheckError);
}

// ---------------------------------------------------------------------------
// End-to-end mitigation

sim::FaultPlan PersistentStraggler(int stage, double slowdown) {
  sim::FaultPlan faults;
  faults.stragglers.push_back({stage, 0.0, 1e9, slowdown});
  return faults;
}

TEST(MitigateStragglers, RecoversMostOfTheSvppDegradation) {
  SvppOptions svpp;
  svpp.stages = 4;
  svpp.slices = 4;
  svpp.micros = 16;
  const sched::Schedule schedule = GenerateSvpp(svpp);

  const sim::UniformCostModel costs(1.0, 1.0, 1.0, 0.05);
  const sim::FaultPlan faults = PersistentStraggler(2, 2.0);

  MitigationOptions options;
  options.rebalance.units_per_chunk = 8;
  const MitigationReport report = MitigateStragglers(schedule, costs, faults, options);

  // The estimator sees the dilation, the plan sheds layers off stage 2.
  EXPECT_NEAR(report.profile.slowdown[2], 2.0, 0.05);
  EXPECT_TRUE(report.plan.repartitioned());
  EXPECT_LT(report.plan.new_units[2], 8);

  // Makespans are ordered clean < mitigated < faulted, and the
  // mitigation claws back a substantial margin (the acceptance bar).
  EXPECT_GT(report.faulted_makespan, report.clean_makespan);
  EXPECT_LT(report.mitigated_makespan, report.faulted_makespan);
  EXPECT_GT(report.improvement(), 1.15);
  EXPECT_LT(report.mitigated_degradation(), report.degradation());

  // The mitigated schedule is a valid program order for the same problem.
  EXPECT_NO_THROW(sched::ValidateSchedule(report.mitigated_schedule));
  EXPECT_EQ(report.mitigated_schedule.problem.stages, 4);
  EXPECT_NE(report.mitigated_schedule.method.find("+rebalanced"), std::string::npos);
}

TEST(MitigateStragglers, AlsoImproves1F1B) {
  const sched::Schedule schedule = sched::OneFOneBSchedule(4, 16);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.05);
  const sim::FaultPlan faults = PersistentStraggler(2, 2.0);

  MitigationOptions options;
  options.rebalance.units_per_chunk = 8;
  const MitigationReport report = MitigateStragglers(schedule, costs, faults, options);

  EXPECT_LT(report.mitigated_makespan, report.faulted_makespan);
  EXPECT_GT(report.improvement(), 1.15);
}

TEST(MitigateStragglers, EmptyPlanIsANoOp) {
  const sched::Schedule schedule = sched::OneFOneBSchedule(2, 4);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.05);
  const sim::FaultPlan faults;  // no faults

  MitigationOptions options;
  options.rebalance.units_per_chunk = 8;
  const MitigationReport report = MitigateStragglers(schedule, costs, faults, options);
  EXPECT_FALSE(report.plan.any_change());
  EXPECT_NEAR(report.faulted_makespan, report.clean_makespan, 1e-9);
  EXPECT_NEAR(report.improvement(), 1.0, 0.05);
}

TEST(WindowedEstimation, RecoversAStragglerFromPartialWindows) {
  // 3 iterations' busy sums with stage 1 running 2x slow.
  const std::vector<Seconds> baseline = {1.0, 1.0, 1.0, 1.0};
  const std::vector<Seconds> sums = {3.0, 6.0, 3.0, 3.0};
  const StageProfile profile = EstimateStageSlowdowns(baseline, sums, 3);
  ASSERT_EQ(profile.slowdown.size(), 4u);
  EXPECT_NEAR(profile.slowdown[0], 1.0, 1e-9);
  EXPECT_NEAR(profile.slowdown[1], 2.0, 1e-9);
}

TEST(WindowedEstimation, UniformDilationIsNotAStraggler) {
  // A degraded fleet runs *every* stage proportionally slower; the
  // median normalization must read that as all-ones, not a 1.5x fleet-
  // wide straggler.
  const std::vector<Seconds> baseline = {1.0, 1.0, 1.0, 1.0};
  const std::vector<Seconds> sums = {3.0, 3.0, 3.0, 3.0};  // 2 its, 1.5x
  const StageProfile profile = EstimateStageSlowdowns(baseline, sums, 2);
  for (const double s : profile.slowdown) {
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(WindowedEstimation, ValidatesInputs) {
  EXPECT_THROW(EstimateStageSlowdowns({1.0, 1.0}, {1.0}, 1), CheckError);
  EXPECT_THROW(EstimateStageSlowdowns({1.0}, {1.0}, 0), CheckError);
  EXPECT_THROW(EstimateStageSlowdowns({1.0}, {-1.0}, 1), CheckError);
  WindowedProfileOptions bad;
  bad.trigger_threshold = 1.0;
  EXPECT_THROW(bad.Validate(), CheckError);
  bad = {};
  bad.min_observations = 9;  // above the 8-iteration window
  EXPECT_THROW(bad.Validate(), CheckError);
}

TEST(SlowdownWindowEstimator, HysteresisRequiresConsecutiveDeviantWindows) {
  WindowedProfileOptions options;
  options.window = 4;
  options.min_observations = 2;
  options.trigger_threshold = 1.15;
  options.hysteresis_windows = 2;
  SlowdownWindowEstimator estimator({1.0, 1.0, 1.0, 1.0}, options);

  const std::vector<Seconds> clean = {1.0, 1.0, 1.0, 1.0};
  const std::vector<Seconds> straggled = {1.0, 2.0, 1.0, 1.0};

  // One fully deviant window: not persistent yet.
  for (int i = 0; i < 4; ++i) {
    estimator.Observe(straggled);
  }
  EXPECT_EQ(estimator.deviant_windows(), 1);
  EXPECT_FALSE(estimator.PersistentDeviation());

  // A clean window re-arms the hysteresis completely.
  for (int i = 0; i < 4; ++i) {
    estimator.Observe(clean);
  }
  EXPECT_EQ(estimator.deviant_windows(), 0);
  EXPECT_FALSE(estimator.PersistentDeviation());

  // Two consecutive deviant windows fire.
  for (int i = 0; i < 8; ++i) {
    estimator.Observe(straggled);
  }
  EXPECT_EQ(estimator.deviant_windows(), 2);
  EXPECT_TRUE(estimator.PersistentDeviation());
  // The deviation is visible in the closed window's profile and its raw
  // (unclamped) ratios.
  EXPECT_NEAR(estimator.WindowProfile().slowdown[1], 2.0, 1e-9);
  EXPECT_NEAR(estimator.WindowRatios()[1], 2.0, 1e-9);
}

TEST(SlowdownWindowEstimator, DetectsDeviationInBothDirections) {
  // A stage running *faster* than the plan expected (a straggler the
  // plan still provisions for has cleared) must count as deviant too.
  WindowedProfileOptions options;
  options.window = 2;
  options.min_observations = 1;
  options.hysteresis_windows = 1;
  SlowdownWindowEstimator estimator({1.0, 2.0, 1.0, 1.0}, options);
  const std::vector<Seconds> cleared = {1.0, 1.0, 1.0, 1.0};
  estimator.Observe(cleared);
  estimator.Observe(cleared);
  EXPECT_TRUE(estimator.PersistentDeviation());
  // Raw ratio dips below 1 on the recovered stage; the clamped profile
  // stays >= 1 per the StageProfile contract.
  EXPECT_LT(estimator.WindowRatios()[1], 1.0);
  EXPECT_GE(estimator.WindowProfile().slowdown[1], 1.0);
}

TEST(SlowdownWindowEstimator, PartialWindowsRespectTheConfidenceGate) {
  WindowedProfileOptions options;
  options.window = 8;
  options.min_observations = 4;
  SlowdownWindowEstimator estimator({1.0, 1.0}, options);
  const std::vector<Seconds> straggled = {1.0, 3.0};

  // Under the gate: the partial profile is all-ones and closing the
  // window discards the observations.
  estimator.Observe(straggled);
  estimator.Observe(straggled);
  EXPECT_NEAR(estimator.PartialProfile().slowdown[1], 1.0, 1e-9);
  EXPECT_FALSE(estimator.ClosePartialWindow());
  EXPECT_EQ(estimator.windows_closed(), 0);

  // At the gate: the partial window counts.
  for (int i = 0; i < 4; ++i) {
    estimator.Observe(straggled);
  }
  EXPECT_NEAR(estimator.PartialProfile().slowdown[1], 3.0, 1e-9);
  EXPECT_TRUE(estimator.ClosePartialWindow());
  EXPECT_EQ(estimator.windows_closed(), 1);
  EXPECT_EQ(estimator.deviant_windows(), 1);
}

TEST(SlowdownWindowEstimator, ResetReplacesTheBaseline) {
  WindowedProfileOptions options;
  options.window = 2;
  options.min_observations = 1;
  SlowdownWindowEstimator estimator({1.0, 1.0}, options);
  estimator.Observe({1.0, 2.0});
  // Adopting the re-plan: the new baseline *expects* the slowdown, so
  // the same observations now read as clean.
  estimator.Reset({1.0, 2.0});
  EXPECT_EQ(estimator.deviant_windows(), 0);
  estimator.Observe({1.0, 2.0});
  estimator.Observe({1.0, 2.0});
  EXPECT_EQ(estimator.windows_closed(), 1);
  EXPECT_EQ(estimator.deviant_windows(), 0);
  EXPECT_THROW(estimator.Observe({1.0}), CheckError);  // size mismatch
  SlowdownWindowEstimator dormant;
  EXPECT_THROW(dormant.Observe({1.0}), CheckError);  // unset baseline
}

TEST(MitigateStragglers, HonorsAnExplicitProfile) {
  const sched::Schedule schedule = sched::OneFOneBSchedule(4, 8);
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.05);
  const sim::FaultPlan faults = PersistentStraggler(1, 3.0);

  MitigationOptions options;
  options.rebalance.units_per_chunk = 8;
  options.profile.slowdown = {1.0, 3.0, 1.0, 1.0};
  const MitigationReport report = MitigateStragglers(schedule, costs, faults, options);
  EXPECT_EQ(report.profile.slowdown, options.profile.slowdown);
  EXPECT_LT(report.mitigated_makespan, report.faulted_makespan);
}

// ---------------------------------------------------------------------------
// SlowdownWindowEstimator: the noise-bounded Observe overload against an
// eager oracle that forms every noisy sample and feeds Observe(busy).

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

void ExpectSameBits(const std::vector<double>& got, const std::vector<double>& want,
                    const char* what, int trial, int step) {
  ASSERT_EQ(got.size(), want.size()) << what << " trial " << trial << " step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(SameBits(got[i], want[i]))
        << what << "[" << i << "] " << got[i] << " vs " << want[i] << " trial " << trial
        << " step " << step;
  }
}

// Equal splitmix64 states give equal next draws, and the output is a
// bijection of the state, so one draw from each copy compares them.
bool SameState(SplitMixRng a, SplitMixRng b) { return a.NextU64() == b.NextU64(); }

double Between(SplitMixRng& rng, double lo, double hi) { return lo + (hi - lo) * rng.NextUniform(); }

int IntBetween(SplitMixRng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.NextU64() % static_cast<std::uint64_t>(hi - lo + 1));
}

std::vector<Seconds> DrawBaseline(SplitMixRng& draw, int stages) {
  std::vector<Seconds> baseline(static_cast<std::size_t>(stages));
  for (Seconds& b : baseline) {
    b = draw.NextUniform() < 0.05 ? 0.0 : Between(draw, 0.5, 4.0);
  }
  return baseline;
}

// A clean busy vector near the baseline: most stages on plan, some off
// by a factor close to the trigger threshold (either side, either
// direction), a few far off, now and then a zero-busy stage.
std::vector<Seconds> DrawBase(SplitMixRng& draw, const std::vector<Seconds>& baseline,
                              double threshold) {
  std::vector<Seconds> base(baseline.size());
  const double uniform = Between(draw, 0.7, 1.4);  // a fleet-wide dilation
  for (std::size_t i = 0; i < base.size(); ++i) {
    const double pick = draw.NextUniform();
    double factor = 1.0;
    if (pick < 0.15) {
      factor = threshold * Between(draw, 0.97, 1.03);
    } else if (pick < 0.25) {
      factor = 1.0 / (threshold * Between(draw, 0.97, 1.03));
    } else if (pick < 0.3) {
      factor = Between(draw, 0.3, 3.0);
    } else if (pick < 0.32) {
      factor = 0.0;
    }
    const Seconds reference = baseline[i] > 0 ? baseline[i] : 1.0;
    base[i] = reference * uniform * factor;
  }
  return base;
}

TEST(SlowdownWindowEstimatorFuzz, NoiseBoundedObserveMatchesTheEagerOracle) {
  SplitMixRng draw(0x5eed0017ULL);
  for (int trial = 0; trial < 300; ++trial) {
    const int stages = IntBetween(draw, 1, 16);
    WindowedProfileOptions options;
    options.window = IntBetween(draw, 1, 12);
    options.min_observations = IntBetween(draw, 1, options.window);
    options.trigger_threshold = Between(draw, 1.01, 2.0);
    options.hysteresis_windows = IntBetween(draw, 1, 3);
    double sigma = std::exp(Between(draw, std::log(0.001), std::log(1.0)));

    std::vector<Seconds> baseline = DrawBaseline(draw, stages);
    SlowdownWindowEstimator lazy(baseline, options);
    SlowdownWindowEstimator eager(baseline, options);
    SplitMixRng lazy_rng(draw.NextU64());
    SplitMixRng eager_rng = lazy_rng;
    std::vector<Seconds> base = DrawBase(draw, baseline, options.trigger_threshold);

    for (int step = 0; step < 160; ++step) {
      const double op = draw.NextUniform();
      if (op < 0.02) {
        baseline = DrawBaseline(draw, stages);
        lazy.Reset(baseline);
        eager.Reset(baseline);
      } else if (op < 0.04) {
        ASSERT_EQ(lazy.ClosePartialWindow(), eager.ClosePartialWindow()) << trial;
      } else if (op < 0.06) {
        // An eager observation inside the window, on both sides.
        std::vector<Seconds> busy = base;
        for (Seconds& b : busy) {
          b *= Between(draw, 0.9, 1.1);
        }
        ASSERT_EQ(lazy.Observe(busy), eager.Observe(busy)) << trial;
      } else {
        if (op < 0.12) {
          base = DrawBase(draw, baseline, options.trigger_threshold);  // mid-window change
        } else if (op < 0.13) {
          sigma = std::exp(Between(draw, std::log(0.001), std::log(1.0)));
        }
        std::vector<Seconds> busy = base;
        for (Seconds& b : busy) {
          b *= std::exp(sigma * eager_rng.NextGaussian());
        }
        const bool eager_closed = eager.Observe(busy);
        ASSERT_EQ(lazy.Observe(base, sigma, lazy_rng), eager_closed) << trial << " " << step;
      }
      ASSERT_TRUE(SameState(lazy_rng, eager_rng)) << "trial " << trial << " step " << step;
      ASSERT_EQ(lazy.deviant_windows(), eager.deviant_windows()) << trial << " " << step;
      ASSERT_EQ(lazy.windows_closed(), eager.windows_closed()) << trial << " " << step;
      ASSERT_EQ(lazy.PersistentDeviation(), eager.PersistentDeviation()) << trial;
      // Reading materializes a lazily closed window; leave most unread so
      // verdict chains of undisturbed lazy windows are exercised too.
      if (draw.NextUniform() < 0.3) {
        ExpectSameBits(lazy.WindowRatios(), eager.WindowRatios(), "WindowRatios", trial, step);
        ExpectSameBits(lazy.WindowProfile().slowdown, eager.WindowProfile().slowdown,
                       "WindowProfile", trial, step);
        ExpectSameBits(lazy.PartialProfile().slowdown, eager.PartialProfile().slowdown,
                       "PartialProfile", trial, step);
      }
    }
    ExpectSameBits(lazy.WindowRatios(), eager.WindowRatios(), "WindowRatios", trial, -1);
  }
}

TEST(SlowdownWindowEstimatorFuzz, ZeroSigmaObservesWithoutDrawing) {
  WindowedProfileOptions options;
  options.window = 2;
  options.min_observations = 1;
  SlowdownWindowEstimator lazy({1.0, 1.0}, options);
  SlowdownWindowEstimator eager({1.0, 1.0}, options);
  SplitMixRng rng(7);
  const SplitMixRng before = rng;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(lazy.Observe({1.0, 2.0}, 0.0, rng), eager.Observe({1.0, 2.0}));
  }
  EXPECT_TRUE(SameState(rng, before));
  ExpectSameBits(lazy.WindowRatios(), eager.WindowRatios(), "WindowRatios", 0, 0);
  EXPECT_EQ(lazy.deviant_windows(), eager.deviant_windows());
  EXPECT_THROW(lazy.Observe({1.0}, 0.1, rng), CheckError);        // size mismatch
  EXPECT_THROW(lazy.Observe({1.0, -1.0}, 0.1, rng), CheckError);  // negative busy
}

TEST(SlowdownWindowEstimatorFuzz, SigmaBeyondTheBoundTurnsTheWindowEager) {
  // A lazily kept window that meets an unboundable sigma is replayed
  // first, then continues eagerly, in the oracle's order.
  WindowedProfileOptions options;
  options.window = 4;
  options.min_observations = 1;
  const std::vector<Seconds> baseline = {1.0, 2.0, 3.0};
  SlowdownWindowEstimator lazy(baseline, options);
  SlowdownWindowEstimator eager(baseline, options);
  SplitMixRng lazy_rng(99);
  SplitMixRng eager_rng = lazy_rng;
  for (const double sigma : {0.05, 0.05, 100.0, 0.05, 0.05, 100.0, 100.0, 0.05}) {
    std::vector<Seconds> busy = baseline;
    for (Seconds& b : busy) {
      b *= std::exp(sigma * eager_rng.NextGaussian());
    }
    ASSERT_EQ(lazy.Observe(baseline, sigma, lazy_rng), eager.Observe(busy));
    ASSERT_TRUE(SameState(lazy_rng, eager_rng));
    ExpectSameBits(lazy.PartialProfile().slowdown, eager.PartialProfile().slowdown,
                   "PartialProfile", 0, 0);
    ExpectSameBits(lazy.WindowRatios(), eager.WindowRatios(), "WindowRatios", 0, 0);
  }
  EXPECT_EQ(lazy.deviant_windows(), eager.deviant_windows());
}

TEST(GaussianFromUniforms, IsNextGaussianOnTheSameDraws) {
  SplitMixRng a(11);
  SplitMixRng b(11);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t u1 = b.NextU64();
    const std::uint64_t u2 = b.NextU64();
    const double g = GaussianFromUniforms(u1, u2);
    EXPECT_TRUE(SameBits(a.NextGaussian(), g));
    // The bound the lazy windows rely on.
    EXPECT_LE(std::abs(g), std::sqrt(-2.0 * std::log(UnitUniform(u1))));
  }
}

}  // namespace
}  // namespace mepipe::core
