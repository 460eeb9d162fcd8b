// Canonical constructions of the baseline pipeline schedules the paper
// compares against (§2.1, §7.1):
//   GPipe      — all forwards then all backwards (micro-batch granularity)
//   1F1B       — DAPPLE/PipeDream-flush one-forward-one-backward
//   VPP        — Megatron-LM interleaved virtual pipeline (v chunks/stage)
//   TeraPipe   — sequence pipeline (slices), GPipe-like ordering
//   ZB-1P      — zero-bubble extension of 1F1B (split B/W, deferred W)
//   ZBV        — zero-bubble V-shape (v=2 zig-zag chunk placement)
// Each returns a validated static Schedule.
#ifndef MEPIPE_SCHED_BASELINES_H_
#define MEPIPE_SCHED_BASELINES_H_

#include "sched/generator.h"
#include "sched/schedule.h"

namespace mepipe::sched {

Schedule GPipeSchedule(int stages, int micros);

Schedule OneFOneBSchedule(int stages, int micros);

// Megatron-LM interleaved schedule. Requires micros % stages == 0 (the
// framework's own constraint) and virtual_chunks >= 2.
Schedule VppSchedule(int stages, int virtual_chunks, int micros);

// TeraPipe sequence pipeline: GPipe ordering at slice granularity.
Schedule TeraPipeSchedule(int stages, int slices, int micros);

// Zero-bubble ZB-1P: 1F1B shape with split backward; weight gradients are
// deferred and filled into bubbles by the execution engine.
Schedule Zb1pSchedule(int stages, int micros);

// Zero-bubble ZBV: the original handcrafted v=2 V-shape construction
// with split backward (sched/zbv.h) — F/B/W statically interleaved per
// the ZB-V recipe, 1F1B-parity activation memory.
Schedule ZbvSchedule(int stages, int micros);

// The former capped-list-scheduler approximation of ZBV (V-shape chunk
// placement, deferred W, 1F1B-family caps). Retained as a baseline for
// the differential tests; its bubble ratio is pessimistic relative to
// the handcrafted construction.
Schedule ZbvCappedSchedule(int stages, int micros);

// Hanayo wave-like schedule: two model chunks per stage in a V
// (wave) placement without weight replication, fused backward. A
// shape-approximation via the capped generator; its Table 3 profile
// (VPP-class bubble, DAPPLE-class memory) is what the analysis uses.
Schedule HanayoSchedule(int stages, int micros);

// The generator inputs behind the capped baselines above:
// XSchedule(args) is GenerateCapped(XSpec(args)). Callers that memoize
// constructions (sched/memo.h) key them by these specs.
CappedSpec GPipeSpec(int stages, int micros);
CappedSpec OneFOneBSpec(int stages, int micros);
CappedSpec TeraPipeSpec(int stages, int slices, int micros);
CappedSpec Zb1pSpec(int stages, int micros);
CappedSpec ZbvCappedSpec(int stages, int micros);
CappedSpec HanayoSpec(int stages, int micros);

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_BASELINES_H_
