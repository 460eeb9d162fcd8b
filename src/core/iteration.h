// End-to-end iteration simulation: builds the schedule a strategy calls
// for, prices it with TrainingCostModel, executes it on the
// discrete-event engine, and folds in the data-parallel synchronization
// and optimizer step — producing the quantities the paper's evaluation
// reports (iteration time, bubble ratio, peak memory, per-GPU TFLOPS,
// MFU) plus the dollars the run costs.
//
// Every candidate runs on a hw::ClusterTopology under a stage→tier
// hw::StagePlacement. A paper testbed is the one-tier case; the
// ClusterSpec overloads below embed it with SingleTierTopology.
#ifndef MEPIPE_CORE_ITERATION_H_
#define MEPIPE_CORE_ITERATION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "core/rebalance.h"
#include "core/training_cost.h"
#include "hw/cluster.h"
#include "model/transformer.h"
#include "sched/memo.h"
#include "sched/schedule.h"
#include "sim/engine.h"

namespace mepipe::core {

struct IterationOptions {
  TrainingCostOptions cost;
  // Fill policy for deferred weight gradients (MEPipe default: per-GEMM).
  sim::WgradMode wgrad_mode = sim::WgradMode::kFillGemms;
  // SVPP memory variant; 0 = automatic via the §4.5 memory model.
  int svpp_inflight = 0;
  // Method::kSynth refinement effort (sched/synth.h): warmup-offset
  // search radius around the composed incumbent and the leaf budget of
  // the branch-and-bound. Both are pricing-relevant — the surrogate
  // fingerprints them.
  int synth_offset_radius = 2;
  int synth_max_leaves = 256;
  // Disable the §4.3 backward rescheduling pass (ablation).
  bool svpp_reschedule = true;
  // Host-side optimizer step once per iteration.
  Seconds optimizer_step = Milliseconds(15);
  // Record the (potentially large) per-op span timeline in
  // IterationResult::sim (sim::EngineOptions::record_timeline). Off, the
  // engine never builds one.
  bool keep_timeline = true;
  // Keep the executed schedule (post-mitigation when a rebalanced one
  // was adopted) in IterationResult::schedule, so callers can re-check
  // sched/validate invariants — the elastic runtime does this for every
  // live re-plan under the shrunken fleet's activation budget.
  bool keep_schedule = false;
  // Per-op lognormal duration jitter (0 = deterministic); seeds one
  // "iteration" of the §7.1 measurement protocol (see core/experiment.h).
  double noise_sigma = 0;
  std::uint64_t noise_seed = 0;
  // Scripted engine-level fault plan the iteration runs under (an empty
  // ref = clean run). Value-semantic: assigning a FaultPlan copies it
  // into shared storage.
  sim::FaultPlanRef fault_plan;
  // Straggler-aware rebalancing (core/rebalance): when the fault plan
  // slows stages down, estimate the per-stage slowdown, re-partition
  // layers / re-tune caps, and adopt the mitigated schedule when it
  // beats the unmitigated one under the same plan.
  bool rebalance_stragglers = false;
  // Overlap the per-bucket DP gradient all-reduce with the pipeline
  // (sim::EngineOptions::dp_overlap) instead of serializing the
  // monolithic sync after the flush. Whether the DP ring contends with
  // pipeline transfers is derived from the cluster topology
  // (hw::FabricShareMap::Shares(kData, kPipeline)). iteration_time then
  // pays only the exposed tail (IterationResult::dp).
  bool dp_overlap = false;
};

struct IterationResult {
  Strategy strategy;
  hw::StagePlacement placement;  // stage → tier the strategy ran on
  bool feasible = false;
  std::string note;  // "ok", or the constraint/OOM explanation

  int micros = 0;                // n per data-parallel replica
  Seconds pipeline_time = 0;     // schedule makespan

  // Straggler-mitigation outcome (IterationOptions::rebalance_stragglers;
  // zero-initialized when mitigation is off).
  struct MitigationOutcome {
    // True when a rebalanced schedule was adopted; unmitigated_pipeline_time
    // is the makespan the original schedule measured under the same
    // faults (== pipeline_time when nothing was adopted).
    bool rebalanced = false;
    Seconds unmitigated_pipeline_time = 0;
  };
  MitigationOutcome mitigation;

  // DP gradient-sync breakdown. Invariant: exposed + hidden == serialized
  // (without overlap everything is exposed).
  struct DpSyncBreakdown {
    bool overlapped = false;  // IterationOptions::dp_overlap was in effect
    Seconds serialized = 0;   // cost if synced back-to-back after the flush
    Seconds hidden = 0;       // absorbed inside pipeline bubbles
    Seconds exposed = 0;      // remainder the iteration actually pays
  };
  DpSyncBreakdown dp;
  Seconds dp_sync_time = 0;      // == dp.exposed (the paid remainder)
  Seconds iteration_time = 0;    // makespan + exposed DP sync + optimizer step
  double bubble_ratio = 0;

  Bytes static_memory = 0;       // worst stage
  Bytes peak_activation = 0;     // worst stage (measured)
  Bytes peak_memory = 0;         // static + activations
  // Checkpoint sizing of this strategy (TrainingCostModel): the worst
  // single rank's parallel write and the total restorable state. Feeds
  // the planner's goodput objective via core::CheckpointWriteCost.
  Bytes checkpoint_shard = 0;
  Bytes checkpoint_state = 0;

  // Goodput pricing (PlannerObjective::kGoodput; zero/false until the
  // planner prices this result under its failure model).
  struct GoodputOutcome {
    bool priced = false;
    Seconds checkpoint_interval = 0;    // solver-chosen (Young/Daly refined)
    Seconds checkpoint_write_cost = 0;  // from checkpoint_shard
    double goodput = 0;                 // useful/wall under the failure model
    // Wall-clock seconds per useful iteration: iteration_time / goodput.
    // The quantity the goodput objective minimizes.
    Seconds effective_iteration_time = 0;
  };
  GoodputOutcome goodput;

  double per_gpu_flops = 0;      // achieved FLOPS per GPU
  double mfu = 0;                // model FLOPS utilization
  // Rental + WAN egress of one iteration (the kDollarCost objective).
  DollarCostBreakdown dollars;

  sim::SimResult sim;            // timeline (empty if !keep_timeline)
  // The executed schedule and the per-stage activation budget (bytes)
  // the engine ran it under (empty unless IterationOptions::keep_schedule
  // and, for the budget, the method defers weight gradients).
  sched::Schedule schedule;
  std::vector<Bytes> activation_budget;
};

// Everything a candidate strategy needs before execution: the structural
// feasibility verdict, the pipeline problem, the priced cost model, the
// generated schedule, and the engine-facing wgrad/budget settings.
// Shared between SimulateIteration (which executes the schedule on the
// DES) and surrogate::SurrogatePrice (which prices it analytically) so
// both paths agree on exactly what a candidate means.
struct CandidateBuild {
  Strategy strategy;
  hw::StagePlacement placement;  // set by the placed build once its layout validates
  bool feasible = false;
  std::string note;  // "ok", or the structural-constraint explanation
  int micros = 0;
  sched::PipelineProblem problem;
  // Present iff feasible (TrainingCostModel has no default state).
  std::optional<TrainingCostModel> costs;
  // The generated schedule behind the validated handle it was built as
  // (present iff feasible; shared with the schedule memo) — what
  // SimulateIteration hands the engine. A build made without a memo also
  // holds a copy in `schedule` that callers may inspect or edit; editing
  // it does not reach the handle. With a memo, `schedule` stays empty.
  std::optional<sched::ValidatedSchedule> validated;
  sched::Schedule schedule;
  // Effective engine settings: methods with statically-filled W override
  // the caller's wgrad mode; split-backward methods get a per-stage
  // activation budget of the hosting tier's usable memory minus the
  // stage's static memory.
  sim::WgradMode wgrad_mode = sim::WgradMode::kFillGemms;
  std::vector<Bytes> activation_budget;
  // Speed-proportional layer re-partition of a placement whose tiers
  // differ in speed (default, i.e. the even split, otherwise). Its stage
  // unit ratios scale each stage's static memory and parameter share.
  RebalancePlan plan;
};

// Builds (but does not execute) the candidate on one tier: structural
// feasibility, problem, cost model, schedule, and engine settings. The
// layout must cover `cluster` exactly. Infeasible candidates return
// feasible=false with a note and no costs/schedule.
CandidateBuild BuildCandidate(const model::TransformerConfig& config,
                              const Strategy& strategy, const hw::ClusterSpec& cluster,
                              int global_batch, const IterationOptions& options = {});

// Builds the candidate for `placement` on `topology`: validates the
// layout (hw::ParallelLayout::Validate), builds on the reference
// sub-cluster (core::ReferenceSpec), sheds layers off slow tiers and
// regenerates the program order when the occupied tiers differ in
// speed, and sizes every stage's activation budget against its hosting
// tier's memory. Schedules are constructed through `memo` when one is
// given, so a construction the memo already holds is not repeated, and
// the build then carries the schedule in `validated` only.
CandidateBuild BuildCandidate(const model::TransformerConfig& config,
                              const Strategy& strategy, const hw::ClusterTopology& topology,
                              const hw::StagePlacement& placement, int global_batch,
                              const IterationOptions& options = {},
                              sched::ScheduleMemo* memo = nullptr);

// Pushes the placement's re-pricing onto `stack` (rooted at
// *build.costs): the layer re-partition, then, on several tiers,
// TierScaledCostModel.
void WrapPlacement(sim::CostModelStack& stack, const CandidateBuild& build,
                   const hw::ClusterTopology& topology);

// Per-stage memory verdict of a simulated or table-priced `run`: each
// stage's static memory scaled by its layer share under `plan`, plus its
// activation peak in `run`, against the hosting tier's usable memory.
// kZbvCapped is floored at its 1F1B-parity retained-forward bound.
struct StageMemoryVerdict {
  Bytes static_memory = 0;    // worst stage
  Bytes peak_activation = 0;  // measured (floored for kZbvCapped)
  Bytes peak_memory = 0;      // worst stage static + activations
  bool fits = false;
  std::string note;  // "ok", or the OOM explanation
};
StageMemoryVerdict CheckStageMemory(const CandidateBuild& build,
                                    const hw::ClusterTopology& topology,
                                    const RebalancePlan& plan, const sim::SimResult& run);

// Simulates one training iteration of `config` under `strategy` placed
// on `topology` with global batch size `global_batch` (samples).
// Infeasible strategies (indivisible batch, model not partitionable,
// inadmissible layout, OOM, …) return feasible=false with an
// explanatory note instead of throwing. Straggler rebalancing
// (options.rebalance_stragglers with a fault plan) CHECK-fails on a
// placement whose tiers differ in speed: the placement already owns the
// layer split the rebalancer would move. Every schedule, the straggler
// re-plan's included, is built through `memo` when one is given.
IterationResult SimulateIteration(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterTopology& topology,
                                  const hw::StagePlacement& placement, int global_batch,
                                  const IterationOptions& options = {},
                                  sched::ScheduleMemo* memo = nullptr);

// One-tier form: `strategy` on the whole of `cluster`.
inline IterationResult SimulateIteration(const model::TransformerConfig& config,
                                         const Strategy& strategy, const hw::ClusterSpec& cluster,
                                         int global_batch, const IterationOptions& options = {}) {
  return SimulateIteration(config, strategy, hw::SingleTierTopology(cluster),
                           hw::StagePlacement::Uniform(strategy.pp, 0), global_batch, options);
}

}  // namespace mepipe::core

#endif  // MEPIPE_CORE_ITERATION_H_
