// Placement pricing over a hw::ClusterTopology: what it costs to run a
// pipeline whose stages sit on concrete device tiers.
//
// Every candidate is built on a *reference sub-cluster* — the fastest
// tier the placement occupies, sized to the layout's rank count
// (ReferenceSpec) — so the one-tier machinery (BuildCandidate,
// TrainingCostModel, the schedule generators) applies unchanged.
// core/iteration layers the placement on top with the pieces here:
//  - Static tier speed ratios become a per-stage StageProfile
//    (PlacementSlowdowns) fed through core/rebalance's exact
//    PartitionUnitsBySpeed, so slow tiers host fewer layers and the
//    program order is regenerated with
//    sched::GeneratorOptions::stage_time_scale — the same estimate →
//    rebalance → regenerate idiom MitigateStragglers uses for dynamic
//    stragglers.
//  - TierScaledCostModel (a sim::WrappingCostModel) dilates each
//    chunk's compute by its stage's tier slowdown, re-prices pipeline
//    boundary transfers through hw::CommModel::PipelineP2pAcross (WAN
//    when the boundary crosses tiers), and re-prices DP gradient
//    buckets on the hosting tier's fabric.
//  - Dollars: occupied ranks × tier rental rate × iteration time, plus
//    WAN egress for every chunk boundary that crosses regions.
// On a one-tier topology none of the re-pricing applies: the reference
// sub-cluster is the tier itself.
#ifndef MEPIPE_CORE_FLEET_H_
#define MEPIPE_CORE_FLEET_H_

#include <string>
#include <vector>

#include "core/rebalance.h"
#include "core/training_cost.h"
#include "hw/cluster.h"
#include "hw/comm_model.h"

namespace mepipe::core {

// Per-stage compute slowdown implied by the placement, relative to the
// fastest tier it occupies: that tier's sustained matmul rate over the
// hosting tier's (each >= 1; exactly 1 on the fastest occupied tier).
StageProfile PlacementSlowdowns(const hw::ClusterTopology& topology,
                                const hw::StagePlacement& placement);

// Whether every tier the placement occupies computes at the same rate
// (always true on one tier). Only such placements keep the even layer
// split, which per-stage bounds and straggler rebalancing rely on.
bool UniformSpeed(const hw::ClusterTopology& topology, const hw::StagePlacement& placement);

// Deterministic placement candidates for a pp-stage pipeline: every
// uniform single-tier placement (tier index ascending), then every
// contiguous two-tier split — k stages on tier a followed by pp-k on
// tier b, for each ordered pair (a, b), k ascending. No capacity
// filtering; callers gate with ParallelLayout::Validate.
std::vector<hw::StagePlacement> EnumeratePlacements(const hw::ClusterTopology& topology,
                                                    int pp);

// The reference sub-cluster of a placed layout of `ranks` devices: the
// fastest occupied tier (lowest index on ties), resized to exactly
// `ranks` devices. False, with `error` set, when `ranks` does not map
// onto whole nodes of that tier.
bool ReferenceSpec(const hw::ClusterTopology& topology, const hw::StagePlacement& placement,
                   int ranks, hw::ClusterSpec* spec, std::string* error);

// The kDollarCost objective's decomposition (core/deployment pairs this
// with its acquisition/electricity parity math).
struct DollarCostBreakdown {
  double fleet_usd_per_hour = 0;        // occupied ranks × tier rental rate
  Bytes wan_egress_bytes = 0;           // per iteration, all WAN crossings
  double egress_usd_per_iteration = 0;  // billed per GB at each crossing
  double rental_usd_per_iteration = 0;  // fleet $/hr × iteration time
  double usd_per_iteration = 0;         // rental + egress
};

// Activation/gradient traffic leaving a region per iteration: for each
// chunk boundary of ProblemFor(strategy, global_batch) whose two stages
// sit on tiers joined by a WAN link, global_batch samples × seq_len
// tokens × boundary bytes/token, in each direction (forward activations
// + backward gradients). TP replication of the boundary tensor is not
// billed (tp=1 on consumer fleets).
Bytes WanEgressBytesPerIteration(const model::TransformerConfig& config,
                                 const Strategy& strategy, const hw::StagePlacement& placement,
                                 const hw::ClusterTopology& topology, int global_batch);

// Rental for the ranks `strategy` occupies under `placement` over
// `iteration_time`, plus `wan_egress_bytes` billed at the priciest WAN
// link the placement crosses.
DollarCostBreakdown PriceDollarCost(const hw::ClusterTopology& topology,
                                    const Strategy& strategy,
                                    const hw::StagePlacement& placement,
                                    Seconds iteration_time, Bytes wan_egress_bytes);

// Worst-stage DP gradient/optimizer sync as one monolithic collective
// per stage (the serialized-after-flush baseline), each stage priced on
// its hosting tier's fabric with its parameter share under `plan` (a
// default plan keeps the even split). Bucketing pays the per-collective
// latency once per chunk, so a stage's summed bucket costs
// (TrainingCostModel::DpSyncTime(bucket)) are >= its share of this.
Seconds SerializedDpSync(const TrainingCostModel& costs, const hw::ClusterTopology& topology,
                         const hw::StagePlacement& placement, const RebalancePlan& plan);

// Re-prices a candidate (built on the reference sub-cluster) for a
// concrete placement. Wrap it *above* RebalancedCostModel so compute
// dilation applies to the re-partitioned layer shares:
//   stack.Wrap<RebalancedCostModel>(problem, plan)
//        .Wrap<TierScaledCostModel>(priced, topology, placement, plan);
class TierScaledCostModel : public sim::WrappingCostModel {
 public:
  // `priced` is the base TrainingCostModel (for boundary/param volumes —
  // the wrapped `base` may already be decorated); `plan` supplies the
  // per-chunk layer-share ratios (pass a default RebalancePlan for the
  // un-repartitioned case). Holds `base` and `priced` by reference.
  TierScaledCostModel(const sim::CostModel& base, const TrainingCostModel& priced,
                      const hw::ClusterTopology& topology, const hw::StagePlacement& placement,
                      const RebalancePlan& plan);

  Seconds ComputeTime(const sched::OpId& op) const override;
  Seconds TransferTime(const sched::OpId& producer) const override;
  Seconds DpSyncTime(const sched::OpId& bucket) const override;

 private:
  const TrainingCostModel& priced_;
  hw::CommModel comm_;  // topology + placement aware
  hw::ParallelLayout layout_;
  sched::PipelineProblem problem_;
  std::vector<double> stage_slowdown_;  // per stage
  std::vector<double> chunk_scale_;     // per chunk layer-share ratio
};

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_FLEET_H_
