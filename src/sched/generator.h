// A deadlock-free, policy-driven list scheduler over the slice-level
// dependency graph. It generates static per-stage program orders by
// simulating abstract time: at every instant each idle stage starts the
// highest-priority ready op, subject to a per-stage cap on the number of
// retained forward passes (the memory knob — §4.2's "number of forward
// passes before the first backward", parameter f).
//
// This single engine generates:
//   - 1F1B/DAPPLE      (v=1, s=1, cap_i = min(n, p-i))
//   - SVPP and all its memory variants (general v, s, cap_i = max(v·s, f-i))
//   - TeraPipe/GPipe   (uncapped, forward-first priority)
// The cap schema cap_i = max(v·s, f−i) reduces exactly to 1F1B's warmup
// depth for v=s=1, f=p.
#ifndef MEPIPE_SCHED_GENERATOR_H_
#define MEPIPE_SCHED_GENERATOR_H_

#include <string>
#include <vector>

#include "sched/schedule.h"

namespace mepipe::sched {

// Structured option-admissibility error (same idiom as
// hw::ParallelLayout::Validate): one issue per violated rule, so callers
// can report every problem at once instead of failing on the first.
struct GeneratorIssue {
  enum class Code {
    kInflightCapArity,      // inflight_cap length != stage count
    kStageTimeScaleArity,   // stage_time_scale length != stage count
    kNonPositiveTimeScale,  // a stage_time_scale entry <= 0 (or NaN)
    kNegativeInflightCap,   // an inflight_cap entry < 0
    kNonPositiveDuration,   // an abstract f/b/w duration <= 0
    kNegativeTransfer,      // transfer_time < 0
    kNonFiniteTransfer,     // transfer_time NaN or infinite
    kNanLookahead,          // lookahead NaN (negative selects the default)
  };
  Code code;
  int stage = -1;  // offending entry index, when applicable
  std::string message;
};

const char* GeneratorIssueCodeName(GeneratorIssue::Code code);

// How weight-gradient ops are placed when problem.split_backward is set.
enum class WgradPolicy {
  kDeferred,        // not in the static order; the engine fills bubbles (§5)
  kLowestPriority,  // statically placed only when no F/B is ready (ZB-style)
  kImmediate,       // statically placed right after the producing B
};

struct GeneratorOptions {
  // Per-stage cap on retained forwards; 0 entries or an empty vector mean
  // "uncapped". Use CapSchedule() to build the SVPP/1F1B schema.
  std::vector<int> inflight_cap;
  // Priority between a ready F and a ready B: backward-first releases
  // memory and unblocks upstream stages (1F1B/SVPP); forward-first yields
  // GPipe/TeraPipe shapes.
  bool backward_first = true;
  WgradPolicy wgrad = WgradPolicy::kDeferred;
  // §4.3 rescheduling optimization: among simultaneously-ready backward
  // passes, prefer the one with the most transitive children
  // ((slice+1)·(chunk+1) − 1), which unblocks the largest remaining
  // subtree. Off ⇒ plain lexicographic order (the unoptimized variant).
  bool child_count_backward_priority = false;
  // Abstract durations used only to order the generation; real costs are
  // applied later by the execution engine.
  double f_time = 1.0;
  double b_time = 2.0;
  double w_time = 1.0;
  // Per-stage multipliers on the abstract durations (all must be > 0):
  // an op on stage i takes kind_time · stage_time_scale[i]. Empty =
  // uniform stages. This is the straggler-aware hook: core/rebalance
  // passes measured slowdowns (× the rebalanced layer-share ratio) so
  // the generated interleaving wraps around a known-slow stage instead
  // of assuming uniform rates.
  std::vector<double> stage_time_scale;
  // Abstract inter-stage transfer delay; a small positive value keeps the
  // generated interleavings realistic (a transfer never beats a no-op).
  double transfer_time = 0.05;
  // Scheduling lookahead: an op whose dependencies complete within this
  // window still competes for the current slot (the stage idles until it
  // is ready). Without it, a ready backward that beats an in-flight
  // forward by one transfer latency steals the slot and delays the
  // forward relay by a whole backward — a limit cycle that inflates the
  // steady-state bubble. Defaults to 2× transfer_time.
  double lookahead = -1.0;

  // Structured admissibility checks against a `stages`-stage problem.
  // Empty result ⇔ the options are well-formed (a length mismatch
  // between the per-stage vectors and the stage count was previously
  // only caught — or worse, silently accepted — deep inside
  // generation). GenerateCapped runs this at entry and throws
  // CheckError with the full issue list.
  std::vector<GeneratorIssue> Validate(int stages) const;

  friend bool operator==(const GeneratorOptions&, const GeneratorOptions&) = default;
};

// Builds the cap vector cap_i = max(min_cap, f - i) for `stages` stages.
std::vector<int> CapSchedule(int stages, int f, int min_cap);

// Generates and validates a schedule. Throws CheckError if the options
// make the problem unschedulable (e.g. a cap below v·s).
Schedule GenerateCapped(const PipelineProblem& problem, const GeneratorOptions& options,
                        std::string method_name);

// Everything one GenerateCapped call reads. The output is a pure function
// of it, so equal specs generate identical schedules — this is the key
// the schedule memo (sched/memo.h) builds capped schedules under.
struct CappedSpec {
  PipelineProblem problem;
  GeneratorOptions options;
  std::string method;

  friend bool operator==(const CappedSpec&, const CappedSpec&) = default;
};

inline Schedule GenerateCapped(const CappedSpec& spec) {
  return GenerateCapped(spec.problem, spec.options, spec.method);
}

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_GENERATOR_H_
