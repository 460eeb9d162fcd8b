#include "hw/comm_model.h"

#include <utility>

#include "common/check.h"
#include "model/memory.h"

namespace mepipe::hw {
namespace {

LinkSpec ShareBandwidth(LinkSpec link, int streams) {
  MEPIPE_CHECK_GT(streams, 0);
  link.bandwidth /= static_cast<double>(streams);
  return link;
}

}  // namespace

CommModel::CommModel(ClusterTopology topology, StagePlacement placement)
    : topology_(std::move(topology)), placement_(std::move(placement)) {
  MEPIPE_CHECK(!topology_.tiers.empty());
}

Seconds CommModel::PipelineP2p(Bytes bytes, const ParallelLayout& layout) const {
  if (layout.pp == 1) {
    return 0.0;
  }
  return topology_.LinkFor(Dim::kPipeline, layout).transfer_time(bytes);
}

Seconds CommModel::PipelineP2pAcross(Bytes bytes, const ParallelLayout& layout,
                                     int from_stage, int to_stage) const {
  if (layout.pp == 1 || from_stage == to_stage) {
    return 0.0;
  }
  if (placement_.stages() == 0 || topology_.num_tiers() == 1) {
    return PipelineP2p(bytes, layout);
  }
  MEPIPE_CHECK_EQ(placement_.stages(), layout.pp);
  const int a = placement_.tier_of(from_stage);
  const int b = placement_.tier_of(to_stage);
  if (a == b) {
    return topology_.LinkForOnTier(Dim::kPipeline, layout, a).transfer_time(bytes);
  }
  // Cross-tier boundary: every dp·cp·tp rank pair of the two stages moves
  // its shard concurrently through the shared inter-tier pipe.
  const LinkSpec link =
      ShareBandwidth(topology_.LinkBetween(a, b).link, layout.dp * layout.cp * layout.tp);
  return link.transfer_time(bytes);
}

Seconds CommModel::AllReduce(Bytes bytes, int group, const LinkSpec& link) {
  MEPIPE_CHECK_GT(group, 0);
  if (group == 1 || bytes == 0) {
    return 0.0;
  }
  const double g = static_cast<double>(group);
  const double volume = 2.0 * (g - 1.0) / g * static_cast<double>(bytes);
  return 2.0 * (g - 1.0) * link.latency + volume / link.bandwidth;
}

Seconds CommModel::AllGather(Bytes bytes, int group, const LinkSpec& link) {
  MEPIPE_CHECK_GT(group, 0);
  if (group == 1 || bytes == 0) {
    return 0.0;
  }
  const double g = static_cast<double>(group);
  const double volume = (g - 1.0) / g * static_cast<double>(bytes);
  return (g - 1.0) * link.latency + volume / link.bandwidth;
}

Seconds CommModel::ReduceScatter(Bytes bytes, int group, const LinkSpec& link) {
  return AllGather(bytes, group, link);  // same ring volume and steps
}

Seconds CommModel::CpKvExchangePerLayer(const model::TransformerConfig& config,
                                        std::int64_t tokens_per_worker,
                                        const ParallelLayout& layout) const {
  if (layout.cp == 1) {
    return 0.0;
  }
  const LinkSpec link = topology_.LinkFor(Dim::kContext, layout);
  // Each worker ends up receiving the K and V blocks of every peer:
  // an all-gather of 2 (K,V) · tokens · kv_hidden · 2 bytes.
  const Bytes kv_bytes = 2 * tokens_per_worker * config.kv_hidden() * 2;
  const Bytes total = kv_bytes * layout.cp;
  return AllGather(total, layout.cp, link);
}

Seconds CommModel::DpGradientSync(Bytes param_bytes, const ParallelLayout& layout) const {
  // CP ranks hold identical parameters and compute gradients on different
  // tokens, so the synchronization (and ZeRO sharding) group is dp·cp —
  // exactly Megatron's distributed-optimizer group.
  const int group = layout.dp * layout.cp;
  if (group == 1) {
    return 0.0;
  }
  const LinkSpec link = topology_.LinkFor(Dim::kData, layout);
  // ZeRO-1: reduce-scatter fp32-accumulated grads (4 bytes/param over the
  // 2-byte param count ⇒ 2× param_bytes) + all-gather updated bf16 params.
  return ReduceScatter(2 * param_bytes, group, link) + AllGather(param_bytes, group, link);
}

Seconds CommModel::DpGradientSyncAtStage(Bytes param_bytes, const ParallelLayout& layout,
                                         int stage) const {
  const int group = layout.dp * layout.cp;
  if (group == 1) {
    return 0.0;
  }
  if (placement_.stages() == 0 || topology_.num_tiers() == 1) {
    return DpGradientSync(param_bytes, layout);
  }
  MEPIPE_CHECK_EQ(placement_.stages(), layout.pp);
  const LinkSpec link =
      topology_.LinkForOnTier(Dim::kData, layout, placement_.tier_of(stage));
  return ReduceScatter(2 * param_bytes, group, link) + AllGather(param_bytes, group, link);
}

Seconds CommModel::TpAllReducePerLayer(const model::TransformerConfig& config,
                                       std::int64_t tokens, const ParallelLayout& layout) const {
  if (layout.tp == 1) {
    return 0.0;
  }
  const LinkSpec link = topology_.LinkFor(Dim::kTensor, layout);
  const Bytes boundary = model::BoundaryBytesPerToken(config) * tokens;
  // Megatron partitioning: one all-reduce after attention + one after MLP.
  return 2.0 * AllReduce(boundary, layout.tp, link);
}

}  // namespace mepipe::hw
