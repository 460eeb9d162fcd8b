#include "core/fleet.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/format.h"
#include "core/deployment.h"
#include "model/memory.h"

namespace mepipe::core {

StageProfile PlacementSlowdowns(const hw::ClusterTopology& topology,
                                const hw::StagePlacement& placement) {
  StageProfile profile;
  profile.slowdown.reserve(placement.stage_tier.size());
  for (const int tier : placement.stage_tier) {
    profile.slowdown.push_back(topology.TierSlowdown(tier));
  }
  // Relative to the fastest *occupied* tier — the reference device the
  // candidate's absolute durations are priced on.
  const double fastest = *std::min_element(profile.slowdown.begin(), profile.slowdown.end());
  for (double& s : profile.slowdown) {
    s /= fastest;
  }
  return profile;
}

std::vector<hw::StagePlacement> EnumeratePlacements(const hw::ClusterTopology& topology,
                                                    int pp) {
  MEPIPE_CHECK_GE(pp, 1) << "placements need at least one stage";
  std::vector<hw::StagePlacement> out;
  for (int t = 0; t < topology.num_tiers(); ++t) {
    out.push_back(hw::StagePlacement::Uniform(pp, t));
  }
  for (int a = 0; a < topology.num_tiers(); ++a) {
    for (int b = 0; b < topology.num_tiers(); ++b) {
      if (a == b) {
        continue;
      }
      for (int k = 1; k < pp; ++k) {
        hw::StagePlacement placement = hw::StagePlacement::Uniform(pp, b);
        for (int stage = 0; stage < k; ++stage) {
          placement.stage_tier[static_cast<std::size_t>(stage)] = a;
        }
        out.push_back(std::move(placement));
      }
    }
  }
  return out;
}

bool UniformSpeed(const hw::ClusterTopology& topology, const hw::StagePlacement& placement) {
  for (const int tier : placement.stage_tier) {
    if (topology.TierSlowdown(tier) != topology.TierSlowdown(placement.tier_of(0))) {
      return false;
    }
  }
  return true;
}

bool ReferenceSpec(const hw::ClusterTopology& topology, const hw::StagePlacement& placement,
                   int ranks, hw::ClusterSpec* spec, std::string* error) {
  int ref = placement.tier_of(0);
  for (const int t : placement.stage_tier) {
    if (topology.TierSlowdown(t) < topology.TierSlowdown(ref) ||
        (topology.TierSlowdown(t) == topology.TierSlowdown(ref) && t < ref)) {
      ref = t;
    }
  }
  const hw::DeviceTier& tier = topology.tier(ref);
  *spec = tier.spec();
  if (ranks <= spec->gpus_per_node) {
    spec->nodes = 1;
    spec->gpus_per_node = ranks;
    return true;
  }
  if (ranks % spec->gpus_per_node == 0) {
    spec->nodes = ranks / spec->gpus_per_node;
    return true;
  }
  *error = StrFormat("layout ranks %d not divisible by tier %s's %d GPUs per node", ranks,
                     tier.name.c_str(), spec->gpus_per_node);
  return false;
}

Bytes WanEgressBytesPerIteration(const model::TransformerConfig& config,
                                 const Strategy& strategy, const hw::StagePlacement& placement,
                                 const hw::ClusterTopology& topology, int global_batch) {
  if (topology.num_tiers() < 2 || placement.uniform()) {
    return 0;
  }
  const sched::PipelineProblem problem = ProblemFor(strategy, global_batch);
  // One WAN crossing moves every sample's full boundary tensor each
  // iteration, in both directions: micros per replica × dp replicas ×
  // seq_len tokens (summed across slices and cp ranks) × bytes/token.
  const Bytes per_crossing = model::BoundaryBytesPerToken(config) * config.seq_len *
                             problem.micros * strategy.dp * 2;
  Bytes total = 0;
  for (int g = 0; g + 1 < problem.num_chunks(); ++g) {
    const int from = placement.tier_of(problem.stage_of_chunk(g));
    const int to = placement.tier_of(problem.stage_of_chunk(g + 1));
    if (from == to || !topology.LinkBetween(from, to).wan) {
      continue;
    }
    total += per_crossing;
  }
  return total;
}

DollarCostBreakdown PriceDollarCost(const hw::ClusterTopology& topology,
                                    const Strategy& strategy,
                                    const hw::StagePlacement& placement,
                                    Seconds iteration_time, Bytes wan_egress_bytes) {
  DollarCostBreakdown out;
  out.fleet_usd_per_hour = PlacementHourlyCostUsd(topology, placement, strategy.layout());
  out.wan_egress_bytes = wan_egress_bytes;
  // The priciest WAN link the placement actually crosses (in practice a
  // two-tier split crosses exactly one).
  double rate = 0;
  for (int stage = 0; stage + 1 < placement.stages(); ++stage) {
    const int a = placement.tier_of(stage);
    const int b = placement.tier_of(stage + 1);
    if (a == b || !topology.LinkBetween(a, b).wan) {
      continue;
    }
    rate = std::max(rate, topology.LinkBetween(a, b).usd_per_gb_egress);
  }
  out.egress_usd_per_iteration = EgressCostUsd(wan_egress_bytes, rate);
  out.rental_usd_per_iteration = out.fleet_usd_per_hour * iteration_time / 3600.0;
  out.usd_per_iteration = out.rental_usd_per_iteration + out.egress_usd_per_iteration;
  return out;
}

Seconds SerializedDpSync(const TrainingCostModel& costs, const hw::ClusterTopology& topology,
                         const hw::StagePlacement& placement, const RebalancePlan& plan) {
  const hw::CommModel comm(topology, placement);
  const hw::ParallelLayout layout = costs.strategy().layout();
  Seconds worst = 0;
  for (int stage = 0; stage < costs.problem().stages; ++stage) {
    const Bytes bytes = static_cast<Bytes>(
        std::llround(static_cast<double>(costs.StageParamBytes(stage)) *
                     plan.stage_unit_ratio(costs.problem(), stage)));
    worst = std::max(worst, comm.DpGradientSyncAtStage(bytes, layout, stage));
  }
  return worst;
}

TierScaledCostModel::TierScaledCostModel(const sim::CostModel& base,
                                         const TrainingCostModel& priced,
                                         const hw::ClusterTopology& topology,
                                         const hw::StagePlacement& placement,
                                         const RebalancePlan& plan)
    : sim::WrappingCostModel(base),
      priced_(priced),
      comm_(topology, placement),
      layout_(priced.strategy().layout()),
      problem_(priced.problem()) {
  stage_slowdown_ = PlacementSlowdowns(topology, placement).slowdown;
  chunk_scale_.resize(static_cast<std::size_t>(problem_.num_chunks()));
  for (int g = 0; g < problem_.num_chunks(); ++g) {
    chunk_scale_[static_cast<std::size_t>(g)] = plan.unit_ratio(g);
  }
}

Seconds TierScaledCostModel::ComputeTime(const sched::OpId& op) const {
  if (op.kind == sched::OpKind::kDpSync) {
    return base().ComputeTime(op);  // priced via DpSyncTime below
  }
  const int stage = problem_.stage_of_chunk(op.chunk);
  return base().ComputeTime(op) * stage_slowdown_[static_cast<std::size_t>(stage)];
}

Seconds TierScaledCostModel::TransferTime(const sched::OpId& producer) const {
  int delta = 0;
  if (producer.kind == sched::OpKind::kForward) {
    delta = 1;
  } else if (producer.kind == sched::OpKind::kBackward) {
    delta = -1;
  } else {
    return base().TransferTime(producer);
  }
  const int consumer = producer.chunk + delta;
  if (consumer < 0 || consumer >= problem_.num_chunks()) {
    return base().TransferTime(producer);
  }
  const int from = problem_.stage_of_chunk(producer.chunk);
  const int to = problem_.stage_of_chunk(consumer);
  if (from == to) {
    // Same-stage chunk handoff (the V-shape turn); charged only when the
    // engine considers it cross-stage, which it never does.
    return base().TransferTime(producer);
  }
  return comm_.PipelineP2pAcross(priced_.BoundaryBytes(producer.slice), layout_, from, to);
}

Seconds TierScaledCostModel::DpSyncTime(const sched::OpId& bucket) const {
  const double scale = chunk_scale_[static_cast<std::size_t>(bucket.chunk)];
  const Bytes bytes = static_cast<Bytes>(
      std::llround(static_cast<double>(priced_.ChunkParamBytes(bucket.chunk)) * scale));
  return comm_.DpGradientSyncAtStage(bytes, layout_, problem_.stage_of_chunk(bucket.chunk));
}

}  // namespace mepipe::core
