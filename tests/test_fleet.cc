// Tests for placed planning on a hw::ClusterTopology (core/fleet, the
// placed build in core/iteration, and the planner's placement axis):
// placement enumeration, speed-proportional layer splits, the one-tier
// case, surrogate fidelity on placed candidates, dollar-cost pricing,
// the objective flip the paper's economics imply, and the objectives and
// fault plans fleets share with paper testbeds.
#include "core/fleet.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/deployment.h"
#include "core/iteration.h"
#include "core/planner.h"
#include "core/rebalance.h"
#include "core/surrogate.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "sched/zbv.h"

namespace mepipe::core {
namespace {

hw::ClusterTopology MixedFleet(const hw::TierLink& cross) {
  hw::ClusterTopology fleet;
  fleet.tiers = {hw::Rtx4090Tier(), hw::A100Tier()};
  fleet.SetLinkBetween(0, 1, cross);
  return fleet;
}

hw::TierLink Lan() { return hw::LanLink(hw::Rtx4090Cluster().inter_node); }

Strategy Shape(Method method, int pp, int dp, int spp, int vp = 1) {
  Strategy strategy;
  strategy.method = method;
  strategy.pp = pp;
  strategy.dp = dp;
  strategy.spp = spp;
  strategy.vp = vp;
  return strategy;
}

hw::StagePlacement Stages(std::vector<int> stage_tier) {
  hw::StagePlacement placement;
  placement.stage_tier = std::move(stage_tier);
  return placement;
}

// ---- PartitionUnitsBySpeed pins (satellite: 2x / 4x ratios) ---------------

TEST(PartitionBySpeed, TwoTimesSlowerStageHostsHalfTheLayers) {
  // Two stages, the second 2x slower, 12 units: load is equalized at
  // 8·1 == 4·2.
  const auto units = PartitionUnitsBySpeed(12, {1.0, 2.0}, 1);
  EXPECT_EQ(units, (std::vector<int>{8, 4}));
}

TEST(PartitionBySpeed, FourTimesSlowerStageHostsAQuarter) {
  const auto units = PartitionUnitsBySpeed(10, {1.0, 4.0}, 1);
  EXPECT_EQ(units, (std::vector<int>{8, 2}));
}

TEST(PartitionBySpeed, OneSlowStageAmongFourFastOnes) {
  const auto units = PartitionUnitsBySpeed(32, {1.0, 1.0, 1.0, 4.0}, 1);
  ASSERT_EQ(units.size(), 4u);
  EXPECT_EQ(units[0] + units[1] + units[2] + units[3], 32);
  // The 4x stage ends with the fewest layers and the bottleneck
  // max(units_i · slowdown_i) is the optimal 10.
  EXPECT_EQ(units[3], 2);
  double bottleneck = 0;
  const std::vector<double> slowdown = {1.0, 1.0, 1.0, 4.0};
  for (std::size_t i = 0; i < units.size(); ++i) {
    bottleneck = std::max(bottleneck, units[i] * slowdown[i]);
  }
  EXPECT_DOUBLE_EQ(bottleneck, 10.0);
}

// ---- Placement enumeration and slowdown profiles --------------------------

TEST(Placements, EnumerationOrderIsUniformThenContiguousSplits) {
  const auto fleet = MixedFleet(Lan());
  const auto placements = EnumeratePlacements(fleet, 3);
  ASSERT_EQ(placements.size(), 6u);
  EXPECT_EQ(placements[0].stage_tier, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(placements[1].stage_tier, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(placements[2].stage_tier, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(placements[3].stage_tier, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(placements[4].stage_tier, (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(placements[5].stage_tier, (std::vector<int>{1, 1, 0}));
}

TEST(Placements, SlowdownsAreRelativeToTheFastestTier) {
  const auto fleet = MixedFleet(Lan());
  hw::StagePlacement split;
  split.stage_tier = {1, 1, 0, 0};
  const auto profile = PlacementSlowdowns(fleet, split);
  ASSERT_EQ(profile.slowdown.size(), 4u);
  // The A100 is the fastest tier: its stages sit at exactly 1, the 4090
  // stages strictly above.
  EXPECT_DOUBLE_EQ(profile.slowdown[0], 1.0);
  EXPECT_DOUBLE_EQ(profile.slowdown[1], 1.0);
  EXPECT_GT(profile.slowdown[2], 1.0);
  EXPECT_DOUBLE_EQ(profile.slowdown[2], profile.slowdown[3]);
  EXPECT_DOUBLE_EQ(profile.slowdown[2], fleet.TierSlowdown(0));
}

TEST(Placements, ValidateFlagsOversubscriptionAndShape) {
  const auto fleet = MixedFleet(Lan());
  // 4 stages x dp=16 = 64 ranks, all on the 32-GPU A100 tier.
  hw::ParallelLayout layout{4, 16, 1, 1};
  const auto oversub = layout.Validate(fleet, hw::StagePlacement::Uniform(4, 1));
  ASSERT_FALSE(oversub.empty());
  EXPECT_EQ(oversub.front().code, hw::LayoutIssue::Code::kRankOversubscription);

  const auto wrong_shape = layout.Validate(fleet, hw::StagePlacement::Uniform(3, 0));
  ASSERT_FALSE(wrong_shape.empty());
  EXPECT_EQ(wrong_shape.front().code, hw::LayoutIssue::Code::kPlacementShape);

  // tp > 1 on the consumer (through-host) tier is structurally flagged.
  hw::ParallelLayout tp2{4, 2, 1, 2};
  const auto issues = tp2.Validate(fleet, hw::StagePlacement::Uniform(4, 0));
  bool flagged = false;
  for (const auto& issue : issues) {
    flagged |= issue.code == hw::LayoutIssue::Code::kTensorParallelOnConsumerTier;
  }
  EXPECT_TRUE(flagged);
}

TEST(Placements, OneTierLayoutsMustCoverTheTier) {
  // The admissibility rule behind the planner's dp axis: on one tier a
  // layout covers the whole tier; on several it need only fit.
  const auto one = hw::SingleTierTopology(hw::Rtx4090Cluster());
  const hw::ParallelLayout half{4, 8, 1, 1};  // 32 of 64 ranks
  const auto issues = half.Validate(one, hw::StagePlacement::Uniform(4, 0));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues.front().code, hw::LayoutIssue::Code::kWorldMismatch);
  EXPECT_EQ(issues.front().message, "layout covers 32 ranks, cluster has 64");
  EXPECT_TRUE(half.Validate(MixedFleet(Lan()), hw::StagePlacement::Uniform(4, 0)).empty());
}

// ---- The one-tier case ------------------------------------------------------

TEST(SingleTier, TierPriceAndNameChangeDollarsNotTiming) {
  // A carved, priced tier and the bare paper testbed describe the same
  // hardware: bit-identical timing and memory, different bills.
  const auto config = model::Llama7B();
  const auto cluster = hw::Rtx4090Cluster();
  const auto priced = hw::SingleTierTopology(cluster, 0.35, "consumer-dc", "rtx4090");
  const auto strategy = Shape(Method::kSvpp, 8, 8, 4);
  for (const bool dp_overlap : {false, true}) {
    IterationOptions options;
    options.dp_overlap = dp_overlap;
    const auto bare = SimulateIteration(config, strategy, cluster, 128, options);
    const auto tier = SimulateIteration(config, strategy, priced,
                                        hw::StagePlacement::Uniform(8, 0), 128, options);
    ASSERT_TRUE(bare.feasible) << bare.note;
    EXPECT_EQ(tier.note, bare.note);
    EXPECT_EQ(tier.iteration_time, bare.iteration_time);
    EXPECT_EQ(tier.dp.exposed, bare.dp.exposed);
    EXPECT_EQ(tier.peak_memory, bare.peak_memory);
    EXPECT_EQ(tier.mfu, bare.mfu);
    EXPECT_EQ(bare.dollars.usd_per_iteration, 0.0);
    EXPECT_DOUBLE_EQ(tier.dollars.fleet_usd_per_hour, 64 * 0.35);
    EXPECT_EQ(tier.dollars.wan_egress_bytes, 0);

    const auto surrogate =
        SurrogatePrice(config, strategy, priced, hw::StagePlacement::Uniform(8, 0), 128,
                       SurrogateOptions{options, nullptr});
    EXPECT_EQ(surrogate.iteration_time,
              SurrogatePrice(config, strategy, cluster, 128, SurrogateOptions{options, nullptr})
                  .iteration_time);
  }
}

// ---- Heterogeneous pricing ------------------------------------------------

TEST(Hetero, SlowTierStagesShedLayersAndStretchTheIteration) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  const auto split = Stages({1, 1, 0, 0});  // A100 first half, 4090 second half
  const auto strategy = Shape(Method::kSvpp, 4, 4, 4);
  IterationOptions options;
  options.keep_schedule = true;
  const auto out = SimulateIteration(config, strategy, fleet, split, 128, options);
  ASSERT_TRUE(out.feasible) << out.note;
  EXPECT_EQ(out.placement.ToString(), "t1x2|t0x2");
  // Speed-proportional partition: layers moved off the 4090 stages and
  // the program order was regenerated for the new split.
  EXPECT_NE(out.schedule.method.find("+placed"), std::string::npos) << out.schedule.method;
  const auto build = BuildCandidate(config, strategy, fleet, split, 128);
  ASSERT_TRUE(build.feasible) << build.note;
  ASSERT_TRUE(build.plan.repartitioned());
  // A100 stages host strictly more layers than 4090 stages; stages
  // within one tier host equal shares.
  EXPECT_GT(build.plan.stage_unit_ratio(build.problem, 0),
            build.plan.stage_unit_ratio(build.problem, 2));
  EXPECT_DOUBLE_EQ(build.plan.stage_unit_ratio(build.problem, 0),
                   build.plan.stage_unit_ratio(build.problem, 1));
  EXPECT_DOUBLE_EQ(build.plan.stage_unit_ratio(build.problem, 2),
                   build.plan.stage_unit_ratio(build.problem, 3));

  // The same shape run entirely on A100s is faster than the mixed
  // placement; entirely on 4090s slower.
  const auto premium =
      SimulateIteration(config, strategy, fleet, hw::StagePlacement::Uniform(4, 1), 128);
  ASSERT_TRUE(premium.feasible) << premium.note;
  EXPECT_LT(premium.iteration_time, out.iteration_time);
  const auto budget =
      SimulateIteration(config, strategy, fleet, hw::StagePlacement::Uniform(4, 0), 128);
  ASSERT_TRUE(budget.feasible) << budget.note;
  EXPECT_GT(budget.iteration_time, out.iteration_time);
}

TEST(Hetero, SurrogateTracksTheDesOnPlacedCandidates) {
  // Surrogate-vs-DES fidelity pin on a heterogeneous config: the tabular
  // price stays within a few percent of the engine's makespan (the only
  // approximation is transfer contention).
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  const auto split = Stages({1, 1, 0, 0});
  const auto strategy = Shape(Method::kSvpp, 4, 4, 4);
  const auto des = SimulateIteration(config, strategy, fleet, split, 128);
  const auto surrogate = SurrogatePrice(config, strategy, fleet, split, 128);
  ASSERT_TRUE(des.feasible);
  ASSERT_TRUE(surrogate.feasible);
  const double rel =
      std::abs(surrogate.iteration_time - des.iteration_time) / des.iteration_time;
  EXPECT_LT(rel, 0.05) << "surrogate " << surrogate.iteration_time << " vs DES "
                       << des.iteration_time;
  // The dollar decomposition agrees on the placement-static parts.
  EXPECT_EQ(surrogate.dollars.fleet_usd_per_hour, des.dollars.fleet_usd_per_hour);
  EXPECT_EQ(surrogate.dollars.wan_egress_bytes, des.dollars.wan_egress_bytes);
}

TEST(Hetero, PlacedSurrogateCacheHitsReproduceTheMiss) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  const auto split = Stages({1, 1, 0, 0});
  const auto strategy = Shape(Method::kSvpp, 4, 4, 4);
  SurrogateCache cache;
  SurrogateOptions options;
  options.cache = &cache;
  const auto miss = SurrogatePrice(config, strategy, fleet, split, 128, options);
  const auto hit = SurrogatePrice(config, strategy, fleet, split, 128, options);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.iteration_time, miss.iteration_time);
  EXPECT_EQ(hit.dollars.usd_per_iteration, miss.dollars.usd_per_iteration);
}

TEST(Hetero, ZbvCappedMemoryFloorHoldsOnAFleet) {
  // The capped ZBV generator under-reports its deferred Ws' memory; the
  // 1F1B-parity floor must hold on every topology, on both pricing
  // paths — not only on a paper testbed.
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  const auto placement = hw::StagePlacement::Uniform(4, 0);  // all 64 4090s
  const auto strategy = Shape(Method::kZbvCapped, 4, 16, 1, 2);
  const CandidateBuild build = BuildCandidate(config, strategy, fleet, placement, 128);
  ASSERT_TRUE(build.feasible) << build.note;
  const Bytes honest =
      static_cast<Bytes>(sched::ZbvMaxRetainedForwards(strategy.pp, build.micros)) *
      build.costs->PerForwardActivationBytes();

  const auto des = SimulateIteration(config, strategy, fleet, placement, 128);
  const auto surrogate = SurrogatePrice(config, strategy, fleet, placement, 128);
  EXPECT_GE(des.peak_activation, honest);
  EXPECT_GE(des.peak_memory, des.static_memory + honest);
  EXPECT_GE(surrogate.peak_memory, surrogate.static_memory + honest);
  // Same verdict as the 4090 testbed the placement fills.
  const auto testbed = SimulateIteration(config, strategy, hw::Rtx4090Cluster(), 128);
  EXPECT_EQ(des.peak_memory, testbed.peak_memory);
  EXPECT_EQ(des.feasible, testbed.feasible);
}

TEST(Hetero, MixedSpeedPlacementsHaveNoStageBoundAndNoStragglerRebalancing) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(Lan());
  const auto strategy = Shape(Method::kSvpp, 4, 4, 4);
  IterationOptions options;
  EXPECT_FALSE(SurrogateLowerBound(config, strategy, fleet, Stages({1, 1, 0, 0}), 128, options)
                   .has_value());
  const auto uniform = hw::StagePlacement::Uniform(4, 1);
  const auto bound = SurrogateLowerBound(config, strategy, fleet, uniform, 128, options);
  ASSERT_TRUE(bound.has_value());
  EXPECT_LE(*bound, SimulateIteration(config, strategy, fleet, uniform, 128).iteration_time);

  sim::FaultPlan plan;
  plan.stragglers.push_back({1, 0.0, 1e9, 2.0});
  options.fault_plan = plan;
  options.rebalance_stragglers = true;
  EXPECT_THROW(SimulateIteration(config, strategy, fleet, Stages({1, 1, 0, 0}), 128, options),
               CheckError);
  // A uniform-speed placement keeps the even split, so the rebalancer
  // may move it.
  const auto mitigated = SimulateIteration(config, strategy, fleet, uniform, 128, options);
  EXPECT_TRUE(mitigated.mitigation.rebalanced);
  EXPECT_LT(mitigated.pipeline_time, mitigated.mitigation.unmitigated_pipeline_time);
}

// ---- Dollar-cost pricing --------------------------------------------------

TEST(Dollars, RentalRatesFollowOccupiedRanks) {
  const auto fleet = MixedFleet(Lan());
  // Whole fleet: 64 x $0.35 + 32 x $1.90.
  EXPECT_DOUBLE_EQ(FleetHourlyCostUsd(fleet), 64 * 0.35 + 32 * 1.90);
  // A 4-stage x dp=2 layout entirely on the A100 tier rents 8 ranks.
  hw::ParallelLayout layout{4, 2, 1, 1};
  EXPECT_DOUBLE_EQ(
      PlacementHourlyCostUsd(fleet, hw::StagePlacement::Uniform(4, 1), layout),
      8 * 1.90);
  // Split placement: half the ranks at each rate.
  EXPECT_DOUBLE_EQ(PlacementHourlyCostUsd(fleet, Stages({0, 0, 1, 1}), layout),
                   4 * 0.35 + 4 * 1.90);
}

TEST(Dollars, EgressBilledPerDecimalGigabyte) {
  EXPECT_DOUBLE_EQ(EgressCostUsd(2'000'000'000, 0.05), 0.10);
  EXPECT_DOUBLE_EQ(EgressCostUsd(0, 0.05), 0.0);
  EXPECT_THROW(EgressCostUsd(-1, 0.05), CheckError);
  EXPECT_THROW(EgressCostUsd(1, -0.01), CheckError);
}

TEST(Dollars, WanEgressScalesWithTierCrossings) {
  const auto config = model::Llama7B();
  const auto wan = MixedFleet(hw::WanLink(25.0, 0.02));
  const auto strategy = Shape(Method::kSvpp, 4, 4, 4);
  const auto once = SimulateIteration(config, strategy, wan, Stages({0, 0, 1, 1}), 128);
  const auto thrice = SimulateIteration(config, strategy, wan, Stages({0, 1, 0, 1}), 128);
  ASSERT_TRUE(once.feasible) << once.note;
  ASSERT_TRUE(thrice.feasible) << thrice.note;
  EXPECT_GT(once.dollars.wan_egress_bytes, 0);
  EXPECT_EQ(thrice.dollars.wan_egress_bytes, 3 * once.dollars.wan_egress_bytes);
  EXPECT_DOUBLE_EQ(once.dollars.usd_per_iteration,
                   once.dollars.rental_usd_per_iteration +
                       once.dollars.egress_usd_per_iteration);

  // The same crossings over a LAN link bill nothing.
  const auto free_lan =
      SimulateIteration(config, strategy, MixedFleet(Lan()), Stages({0, 0, 1, 1}), 128);
  ASSERT_TRUE(free_lan.feasible);
  EXPECT_EQ(free_lan.dollars.wan_egress_bytes, 0);
  EXPECT_DOUBLE_EQ(free_lan.dollars.egress_usd_per_iteration, 0.0);
}

TEST(Dollars, DesAndSurrogateBillTheSameEgressForEveryMethod) {
  // Both pricing paths derive the chunk→stage map from ProblemFor, so
  // V-shape methods (ZBV, Hanayo, v=2 Synth) bill the two crossings a V
  // makes over a {1,1,0,0} split, and linear v=2 methods three.
  const auto config = model::Llama7B();
  const auto wan = MixedFleet(hw::WanLink(25.0, 0.02));
  const auto split = Stages({1, 1, 0, 0});
  Bytes linear_v2 = 0;
  Bytes vshape_v2 = 0;
  for (const Method method :
       {Method::kGPipe, Method::kDapple, Method::kVpp, Method::kHanayo, Method::kTeraPipe,
        Method::kZb1p, Method::kZbv, Method::kZbvCapped, Method::kSvpp, Method::kSynth}) {
    const bool v2 = method == Method::kVpp || method == Method::kHanayo ||
                    method == Method::kZbv || method == Method::kZbvCapped ||
                    method == Method::kSynth;
    const auto strategy = Shape(method, 4, 4, 1, v2 ? 2 : 1);
    const auto des = SimulateIteration(config, strategy, wan, split, 64);
    const auto surrogate = SurrogatePrice(config, strategy, wan, split, 64);
    ASSERT_GT(des.micros, 0) << ToString(method) << ": " << des.note;
    EXPECT_GT(des.dollars.wan_egress_bytes, 0) << ToString(method);
    EXPECT_EQ(surrogate.dollars.wan_egress_bytes, des.dollars.wan_egress_bytes)
        << ToString(method);
    if (method == Method::kVpp) {
      linear_v2 = des.dollars.wan_egress_bytes;
    }
    if (method == Method::kSynth) {
      vshape_v2 = des.dollars.wan_egress_bytes;
    }
  }
  EXPECT_EQ(3 * vshape_v2, 2 * linear_v2);
}

// ---- The fleet grid search ------------------------------------------------

PlannerOptions FleetSearchOptions(PlannerObjective objective, int threads) {
  PlannerOptions options;
  options.min_dp = 1;
  options.pp_candidates = {4, 8};
  options.slice_candidates = {1, 4};
  options.vp_candidates = {1};
  options.two_phase = true;
  options.surrogate_top_k = 8;
  options.threads = threads;
  options.objective = objective;
  return options;
}

TEST(FleetSearch, DollarObjectiveFlipsTheWinnerAwayFromPremium) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(hw::WanLink(5.0, 0.08));
  const auto by_time = SearchBestStrategy(
      Method::kSvpp, config, fleet, 128,
      FleetSearchOptions(PlannerObjective::kIterationTime, 1));
  const auto by_cost = SearchBestStrategy(
      Method::kSvpp, config, fleet, 128,
      FleetSearchOptions(PlannerObjective::kDollarCost, 1));
  ASSERT_TRUE(by_time.best.has_value());
  ASSERT_TRUE(by_cost.best.has_value());
  // The objectives disagree: time pays for the premium tier, dollars do
  // not — and each winner is optimal under its own metric.
  EXPECT_NE(by_time.best->placement.ToString(), by_cost.best->placement.ToString());
  EXPECT_LT(by_cost.best->dollars.usd_per_iteration,
            by_time.best->dollars.usd_per_iteration);
  EXPECT_LE(by_time.best->iteration_time, by_cost.best->iteration_time);
  // Placements that failed validation were filtered, not evaluated.
  EXPECT_GT(by_cost.invalid_placements, 0);
  EXPECT_FALSE(by_cost.evaluated.empty());
}

TEST(FleetSearch, TwoPhaseWinnerIsThreadCountInvariant) {
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(hw::WanLink(25.0, 0.02));
  std::optional<IterationResult> reference;
  for (const int threads : {1, 2, 8}) {
    const auto result = SearchBestStrategy(
        Method::kSvpp, config, fleet, 128,
        FleetSearchOptions(PlannerObjective::kDollarCost, threads));
    ASSERT_TRUE(result.best.has_value()) << "threads=" << threads;
    if (!reference) {
      reference = result.best;
      continue;
    }
    EXPECT_EQ(result.best->strategy.ToString(), reference->strategy.ToString());
    EXPECT_EQ(result.best->placement.ToString(), reference->placement.ToString());
    EXPECT_EQ(result.best->iteration_time, reference->iteration_time);
    EXPECT_EQ(result.best->dollars.usd_per_iteration, reference->dollars.usd_per_iteration);
  }
}

TEST(FleetSearch, PrunedDollarSearchMatchesTheExhaustiveOne) {
  // Under kDollarCost the bound is priced in dollars (rental + egress)
  // and compared as a (dollars, time) pair; pruning must not change the
  // winner on a priced fleet.
  const auto config = model::Llama7B();
  const auto fleet = MixedFleet(hw::WanLink(25.0, 0.02));
  PlannerOptions full = FleetSearchOptions(PlannerObjective::kDollarCost, 1);
  full.two_phase = false;
  PlannerOptions pruned = full;
  pruned.prune = true;
  const auto a = SearchBestStrategy(Method::kSvpp, config, fleet, 128, full);
  const auto b = SearchBestStrategy(Method::kSvpp, config, fleet, 128, pruned);
  ASSERT_TRUE(a.best.has_value());
  ASSERT_TRUE(b.best.has_value());
  EXPECT_EQ(b.best->strategy.ToString(), a.best->strategy.ToString());
  EXPECT_EQ(b.best->placement.ToString(), a.best->placement.ToString());
  EXPECT_EQ(b.best->dollars.usd_per_iteration, a.best->dollars.usd_per_iteration);
  EXPECT_EQ(b.best->iteration_time, a.best->iteration_time);
  EXPECT_GT(b.pruned, 0);
  EXPECT_LT(b.simulated, a.simulated);
  EXPECT_EQ(b.evaluated.size(), a.evaluated.size());
}

TEST(FleetSearch, DollarTiesBreakOnIterationTime) {
  // An unpriced testbed bills every candidate $0; the tie-break must
  // still pick the fastest one, not the first in grid order.
  const auto config = model::Llama7B();
  const auto cluster = hw::Rtx4090Cluster();
  PlannerOptions options;
  options.pp_candidates = {2, 4, 8};
  options.slice_candidates = {1, 4};
  const auto by_time = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  options.objective = PlannerObjective::kDollarCost;
  const auto by_cost = SearchBestStrategy(Method::kSvpp, config, cluster, 64, options);
  ASSERT_TRUE(by_time.best.has_value());
  ASSERT_TRUE(by_cost.best.has_value());
  EXPECT_EQ(by_cost.best->dollars.usd_per_iteration, 0.0);
  EXPECT_EQ(by_cost.best->strategy.ToString(), by_time.best->strategy.ToString());
  EXPECT_EQ(by_cost.best->iteration_time, by_time.best->iteration_time);
}

TEST(FleetSearch, GoodputAndFaultPlansRunOnFleetsAndMatchOnOneTier) {
  const auto config = model::Llama7B();
  PlannerOptions goodput = FleetSearchOptions(PlannerObjective::kGoodput, 2);
  goodput.pp_candidates = {4};
  goodput.slice_candidates = {4};
  goodput.min_dp = 4;
  PlannerOptions faulted = goodput;
  faulted.objective = PlannerObjective::kIterationTime;
  sim::FaultPlan plan;
  plan.stragglers.push_back({1, 0.0, 1e9, 1.5});
  faulted.fault_plan = plan;

  // Both searches return a winner on a two-tier fleet.
  const auto fleet = MixedFleet(Lan());
  const auto fleet_goodput = SearchBestStrategy(Method::kSvpp, config, fleet, 128, goodput);
  ASSERT_TRUE(fleet_goodput.best.has_value());
  EXPECT_TRUE(fleet_goodput.best->goodput.priced);
  EXPECT_GT(fleet_goodput.best->goodput.goodput, 0.0);
  const auto fleet_faulted = SearchBestStrategy(Method::kSvpp, config, fleet, 128, faulted);
  ASSERT_TRUE(fleet_faulted.best.has_value());
  EXPECT_EQ(fleet_faulted.surrogate_priced, 0);  // exhaustive under a fault plan

  // On one tier — the fleet's 4090 tier carved out whole — both match the
  // paper-testbed form bit for bit.
  const auto carve = hw::CarveSubTopology(fleet, {{0, 8}});
  for (const PlannerOptions& options : {goodput, faulted}) {
    const auto on_tier = SearchBestStrategy(Method::kSvpp, config, carve, 128, options);
    const auto on_testbed =
        SearchBestStrategy(Method::kSvpp, config, hw::Rtx4090Cluster(), 128, options);
    ASSERT_TRUE(on_tier.best.has_value());
    ASSERT_TRUE(on_testbed.best.has_value());
    EXPECT_EQ(on_tier.best->strategy.ToString(), on_testbed.best->strategy.ToString());
    EXPECT_EQ(on_tier.best->iteration_time, on_testbed.best->iteration_time);
    EXPECT_EQ(on_tier.best->goodput.effective_iteration_time,
              on_testbed.best->goodput.effective_iteration_time);
    EXPECT_EQ(on_tier.simulated, on_testbed.simulated);
    EXPECT_EQ(on_tier.evaluated.size(), on_testbed.evaluated.size());
  }
}

}  // namespace
}  // namespace mepipe::core
