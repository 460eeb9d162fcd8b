// Communication cost model: point-to-point transfers and the ring-based
// collectives (all-reduce / all-gather / reduce-scatter) that DP, CP and
// TP issue. All costs are α-β style: per-step latency + volume/bandwidth.
//
// A CommModel prices traffic on a ClusterTopology. With a stage→tier
// StagePlacement, pipeline boundaries that cross tiers are priced on the
// inter-tier (possibly WAN) link and DP rings on the hosting tier's
// fabric; without one (a single ClusterSpec, embedded as its one-tier
// topology) every query takes the fleet-wide mapping.
#ifndef MEPIPE_HW_COMM_MODEL_H_
#define MEPIPE_HW_COMM_MODEL_H_

#include <cstdint>

#include "common/units.h"
#include "hw/cluster.h"
#include "model/transformer.h"

namespace mepipe::hw {

class CommModel {
 public:
  explicit CommModel(const ClusterSpec& cluster) : topology_(SingleTierTopology(cluster)) {}

  CommModel(ClusterTopology topology, StagePlacement placement);

  // One pipeline activation/gradient transfer between adjacent stages
  // (fleet-wide worst boundary; see PipelineP2pAcross for per-boundary).
  Seconds PipelineP2p(Bytes bytes, const ParallelLayout& layout) const;

  // Placement-aware boundary transfer from `from_stage` to `to_stage`.
  // Same tier: the tier's own pipeline mapping. Cross tier: the
  // inter-tier link, shared by the dp·cp·tp concurrent boundary streams.
  Seconds PipelineP2pAcross(Bytes bytes, const ParallelLayout& layout, int from_stage,
                            int to_stage) const;

  // Ring collectives over a group of `group` ranks on `link`.
  // `bytes` is the full (unsharded) payload size.
  static Seconds AllReduce(Bytes bytes, int group, const LinkSpec& link);
  static Seconds AllGather(Bytes bytes, int group, const LinkSpec& link);
  static Seconds ReduceScatter(Bytes bytes, int group, const LinkSpec& link);

  // Context parallelism: per transformer layer, each worker circulates the
  // K and V blocks of its `tokens_per_worker` tokens around the CP ring
  // (forward), and the corresponding gradients on backward (§2.2).
  Seconds CpKvExchangePerLayer(const model::TransformerConfig& config,
                               std::int64_t tokens_per_worker,
                               const ParallelLayout& layout) const;

  // Data parallelism with ZeRO-1: gradient reduce-scatter + parameter
  // all-gather over this stage's `param_bytes` of parameters.
  Seconds DpGradientSync(Bytes param_bytes, const ParallelLayout& layout) const;

  // Same, but on the fabric of the tier hosting `stage` (placement-aware;
  // falls back to the fleet-wide mapping when no placement is set).
  Seconds DpGradientSyncAtStage(Bytes param_bytes, const ParallelLayout& layout,
                                int stage) const;

  // Tensor parallelism: two all-reduces of the layer output per forward
  // (and two per backward) over the TP group — used by the A100 baseline.
  Seconds TpAllReducePerLayer(const model::TransformerConfig& config, std::int64_t tokens,
                              const ParallelLayout& layout) const;

 private:
  ClusterTopology topology_;
  StagePlacement placement_;  // empty when constructed from a ClusterSpec
};

}  // namespace mepipe::hw

#endif  // MEPIPE_HW_COMM_MODEL_H_
