#include "sched/baselines.h"

#include <algorithm>

#include "common/check.h"
#include "common/format.h"
#include "sched/generator.h"
#include "sched/zbv.h"

namespace mepipe::sched {
namespace {

// Mapping of Megatron-LM's interleaved-1F1B "virtual micro-batch" counter
// to (micro, local chunk). Counter k walks groups of p consecutive micros
// per chunk, cycling through the v chunks, then moving to the next group
// of p micros.
struct VirtualStep {
  int micro = 0;
  int local_chunk = 0;  // in [0, v)
};

VirtualStep DecodeVirtualStep(int k, int stages, int chunks, bool forward) {
  const int group = stages * chunks;
  const int in_group = k % group;
  int local_chunk = in_group / stages;
  if (!forward) {
    local_chunk = chunks - 1 - local_chunk;
  }
  const int micro = (in_group % stages) + stages * (k / group);
  return {micro, local_chunk};
}

}  // namespace

CappedSpec GPipeSpec(int stages, int micros) {
  CappedSpec spec;
  spec.problem.stages = stages;
  spec.problem.micros = micros;
  spec.options.backward_first = false;  // forwards drain first
  spec.method = "GPipe";
  return spec;
}

CappedSpec OneFOneBSpec(int stages, int micros) {
  CappedSpec spec;
  spec.problem.stages = stages;
  spec.problem.micros = micros;
  spec.options.inflight_cap = CapSchedule(stages, stages, 1);
  spec.method = "1F1B";
  return spec;
}

CappedSpec TeraPipeSpec(int stages, int slices, int micros) {
  CappedSpec spec;
  spec.problem.stages = stages;
  spec.problem.slices = slices;
  spec.problem.micros = micros;
  spec.options.backward_first = false;  // GPipe-like: all forwards first
  spec.method = StrFormat("TeraPipe(s=%d)", slices);
  return spec;
}

CappedSpec Zb1pSpec(int stages, int micros) {
  CappedSpec spec;
  spec.problem.stages = stages;
  spec.problem.micros = micros;
  spec.problem.split_backward = true;
  spec.options.inflight_cap = CapSchedule(stages, stages, 1);
  spec.options.wgrad = WgradPolicy::kDeferred;
  // B here is the activation-gradient half only: roughly as long as F.
  spec.options.b_time = 1.0;
  spec.method = "ZB-1P";
  return spec;
}

CappedSpec HanayoSpec(int stages, int micros) {
  CappedSpec spec;
  spec.problem.stages = stages;
  spec.problem.virtual_chunks = 2;
  spec.problem.micros = micros;
  spec.problem.placement = ChunkPlacement::kVShape;
  // Table 3 grants Hanayo DAPPLE-class activation memory (A): up to 2p
  // chunk-forwards of A/(2p) each on the first stage.
  spec.options.inflight_cap = CapSchedule(stages, 2 * stages, 2);
  spec.method = "Hanayo";
  return spec;
}

CappedSpec ZbvCappedSpec(int stages, int micros) {
  CappedSpec spec;
  spec.problem.stages = stages;
  spec.problem.virtual_chunks = 2;
  spec.problem.micros = micros;
  spec.problem.split_backward = true;
  spec.problem.placement = ChunkPlacement::kVShape;
  // V-shape pairs each stage's two chunks symmetrically; cap p keeps the
  // retained-forward profile in the 1F1B family (ZBV's design goal).
  spec.options.inflight_cap = CapSchedule(stages, std::max(stages, 2), 2);
  spec.options.wgrad = WgradPolicy::kDeferred;
  spec.options.b_time = 1.0;
  spec.method = "ZBV-capped";
  return spec;
}

Schedule GPipeSchedule(int stages, int micros) { return GenerateCapped(GPipeSpec(stages, micros)); }

Schedule OneFOneBSchedule(int stages, int micros) {
  return GenerateCapped(OneFOneBSpec(stages, micros));
}

Schedule VppSchedule(int stages, int virtual_chunks, int micros) {
  MEPIPE_CHECK_GE(virtual_chunks, 2) << "VPP requires at least two chunks per stage";
  MEPIPE_CHECK_EQ(micros % stages, 0) << "Megatron interleaving requires n % p == 0";
  PipelineProblem problem;
  problem.stages = stages;
  problem.virtual_chunks = virtual_chunks;
  problem.micros = micros;

  Schedule schedule;
  schedule.problem = problem;
  schedule.method = StrFormat("VPP(v=%d)", virtual_chunks);
  schedule.stage_ops.resize(static_cast<std::size_t>(stages));

  const int total = micros * virtual_chunks;  // forward units per stage
  for (int rank = 0; rank < stages; ++rank) {
    auto& ops = schedule.stage_ops[static_cast<std::size_t>(rank)];
    const int warmup = std::min((stages - rank - 1) * 2 + (virtual_chunks - 1) * stages, total);
    int f_next = 0;
    int b_next = 0;
    auto emit_forward = [&] {
      const VirtualStep step = DecodeVirtualStep(f_next++, stages, virtual_chunks, true);
      ops.push_back({OpKind::kForward, step.micro, 0, step.local_chunk * stages + rank});
    };
    auto emit_backward = [&] {
      const VirtualStep step = DecodeVirtualStep(b_next++, stages, virtual_chunks, false);
      ops.push_back({OpKind::kBackward, step.micro, 0, step.local_chunk * stages + rank});
    };
    for (int k = 0; k < warmup; ++k) {
      emit_forward();
    }
    while (f_next < total) {
      emit_forward();
      emit_backward();
    }
    while (b_next < total) {
      emit_backward();
    }
  }
  ValidateSchedule(schedule);
  return schedule;
}

Schedule TeraPipeSchedule(int stages, int slices, int micros) {
  return GenerateCapped(TeraPipeSpec(stages, slices, micros));
}

Schedule Zb1pSchedule(int stages, int micros) { return GenerateCapped(Zb1pSpec(stages, micros)); }

Schedule HanayoSchedule(int stages, int micros) {
  return GenerateCapped(HanayoSpec(stages, micros));
}

Schedule ZbvSchedule(int stages, int micros) {
  return HandcraftedZbvSchedule(stages, micros);
}

Schedule ZbvCappedSchedule(int stages, int micros) {
  return GenerateCapped(ZbvCappedSpec(stages, micros));
}

}  // namespace mepipe::sched
