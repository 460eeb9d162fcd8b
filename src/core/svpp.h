// Sequence Virtual Pipeline Parallelism — the paper's primary
// contribution (§4).
//
// SVPP schedules forward and backward passes at the granularity of
// (slice, chunk) units and interleaves them 1F1B-style, advancing the
// first backward pass so that at most `f` forward passes are ever
// retained per stage. The family of schedules parameterized by f trades
// bubble ratio against activation memory (§4.2, Figure 5):
//   f = v·s                       — minimal memory, most bubbles
//   f = v·max(p,s)+min(p,s)−1     — lowest bubble, Table 3's memory bound
#ifndef MEPIPE_CORE_SVPP_H_
#define MEPIPE_CORE_SVPP_H_

#include "sched/generator.h"
#include "sched/schedule.h"

namespace mepipe::core {

struct SvppOptions {
  int stages = 1;          // p
  int virtual_chunks = 1;  // v
  int slices = 1;          // s
  int micros = 1;          // n
  // Memory variant: forward passes retained before the first backward on
  // stage 0 (§4.2). 0 selects the lowest-bubble variant automatically.
  int max_inflight = 0;
  // MEPipe splits B/W and defers W to the engine's fill policy (§5). Set
  // false to fold W into B (plain SVPP without fine-grained W).
  bool split_backward = true;
  // §4.3 backward rescheduling optimization (on by default).
  bool reschedule_backwards = true;
};

// Lower bound on f: all v·s forwards of the first micro-batch must finish
// before its first backward (§4.2).
int MinInflight(const SvppOptions& options);

// The variant Table 3 analyzes: f = v·max(p,s) + min(p,s) − 1. Its
// activation footprint is the paper's memory bound.
int Table3Inflight(const SvppOptions& options);

// The f beyond which this engine measures no further bubble reduction.
// Slightly above the Table 3 bound: retaining a slice's activations
// spans the full down-and-up round trip plus the (s−1)-slice backward
// stagger, so the steady state needs ≈ 2·v·s extra in-flight forwards of
// slack (see EXPERIMENTS.md for the measurement).
int MaxUsefulInflight(const SvppOptions& options);

// The capped-generator inputs of the SVPP variant (f clamped to
// MaxUsefulInflight). Throws CheckError for infeasible options (e.g.
// f < v·s).
sched::CappedSpec SvppSpec(const SvppOptions& options);

// Generates and validates the SVPP schedule for the given variant:
// GenerateCapped(SvppSpec(options)).
sched::Schedule GenerateSvpp(const SvppOptions& options);

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_SVPP_H_
