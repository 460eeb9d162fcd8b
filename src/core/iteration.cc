#include "core/iteration.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/format.h"
#include "core/memory_model.h"
#include "core/rebalance.h"
#include "core/svpp.h"
#include "model/flops.h"
#include "model/slicing.h"
#include "sched/baselines.h"
#include "sched/generator.h"
#include "sched/synth.h"
#include "sched/zbv.h"
#include "sim/noise.h"

namespace mepipe::core {

namespace {

CandidateBuild InfeasibleBuild(const Strategy& strategy, std::string note) {
  CandidateBuild build;
  build.strategy = strategy;
  build.feasible = false;
  build.note = std::move(note);
  return build;
}

IterationResult Infeasible(const Strategy& strategy, const hw::StagePlacement& placement,
                           std::string note) {
  IterationResult result;
  result.strategy = strategy;
  result.placement = placement;
  result.feasible = false;
  result.note = std::move(note);
  return result;
}

// One stage's static memory under the layer split `plan` (the even
// split for a default plan).
Bytes StageStaticMemory(const TrainingCostModel& costs, const RebalancePlan& plan, int stage) {
  return static_cast<Bytes>(std::llround(static_cast<double>(costs.StaticMemory(stage)) *
                                         plan.stage_unit_ratio(costs.problem(), stage)));
}

// Rank-weighted mean peak FLOPS of the occupied devices (the MFU
// denominator). Exact tier value for uniform placements.
double MeanPeakFlops(const hw::ClusterTopology& topology, const hw::StagePlacement& placement,
                     const hw::ParallelLayout& layout) {
  if (placement.uniform()) {
    return topology.tier(placement.tier_of(0)).gpu.peak_flops;
  }
  const double group = layout.dp * layout.cp * layout.tp;
  double total = 0;
  for (int stage = 0; stage < placement.stages(); ++stage) {
    total += group * topology.tier(placement.tier_of(stage)).gpu.peak_flops;
  }
  return total / layout.ranks();
}

// A memo-free build also hands the schedule out as a value.
CandidateBuild WithScheduleCopy(CandidateBuild build) {
  if (build.validated) {
    build.schedule = **build.validated;
  }
  return build;
}

// BuildCandidate on one tier, constructing schedules through `schedules`;
// `schedule` is left empty.
CandidateBuild BuildOnCluster(const model::TransformerConfig& config, const Strategy& strategy,
                              const hw::ClusterSpec& cluster, int global_batch,
                              const IterationOptions& options, sched::ScheduleMemo& schedules) {
  // ---- structural feasibility -------------------------------------------
  if (strategy.method == Method::kHanayo && strategy.vp != 2) {
    return InfeasibleBuild(strategy, "the Hanayo wave schedule is defined for vp=2");
  }
  const int world = cluster.world_size();
  if (strategy.layout().ranks() != world) {
    return InfeasibleBuild(strategy, StrFormat("layout covers %d ranks, cluster has %d",
                                               strategy.layout().ranks(), world));
  }
  if (global_batch % strategy.dp != 0) {
    return InfeasibleBuild(strategy, "global batch not divisible by dp");
  }
  const int micros = global_batch / strategy.dp;
  if (config.partition_units() % (strategy.pp * strategy.vp) != 0) {
    return InfeasibleBuild(strategy,
                           StrFormat("%lld units not divisible by pp*vp=%d",
                                     static_cast<long long>(config.partition_units()),
                                     strategy.pp * strategy.vp));
  }
  if (config.partition_units() / (strategy.pp * strategy.vp) < 1) {
    return InfeasibleBuild(strategy, "fewer partition units than chunks");
  }
  if (strategy.cp > 1 && strategy.spp > 1) {
    return InfeasibleBuild(strategy, "cp and spp cannot be combined");
  }
  if (config.seq_len % strategy.cp != 0) {
    return InfeasibleBuild(strategy, "sequence length not divisible by cp");
  }
  if (strategy.recompute && MethodSplitsBackward(strategy.method)) {
    return InfeasibleBuild(strategy, "recompute incompatible with split B/W (§7.1)");
  }
  if (strategy.method == Method::kVpp) {
    if (strategy.vp < 2) {
      return InfeasibleBuild(strategy, "VPP requires vp >= 2");
    }
    if (micros % strategy.pp != 0) {
      return InfeasibleBuild(strategy, "Megatron interleaving requires n % p == 0");
    }
  }
  if ((strategy.method == Method::kZbv || strategy.method == Method::kZbvCapped) &&
      strategy.vp != 2) {
    return InfeasibleBuild(strategy, "ZBV is defined for vp=2");
  }
  if ((strategy.method == Method::kDapple || strategy.method == Method::kGPipe ||
       strategy.method == Method::kZb1p) &&
      strategy.vp != 1) {
    return InfeasibleBuild(strategy, "method does not use virtual chunks");
  }
  if (strategy.spp > 1 && strategy.method != Method::kSvpp &&
      strategy.method != Method::kTeraPipe) {
    return InfeasibleBuild(strategy, "only SPP methods slice samples");
  }

  // ---- problem + costs -----------------------------------------------------
  CandidateBuild build;
  build.strategy = strategy;
  build.micros = micros;
  build.problem = ProblemFor(strategy, global_batch);
  const sched::PipelineProblem& problem = build.problem;

  build.costs.emplace(config, strategy, cluster, problem, options.cost);
  const TrainingCostModel& costs = *build.costs;

  if (problem.split_backward) {
    // Deferred weight gradients retain memory; cap every stage's
    // activation footprint at what the device leaves after static memory
    // (§5: proceed "as soon as there is enough memory"). Computed before
    // the schedule switch because the budget-aware constructions (kZbv,
    // kSynth) consume it as their activation budget.
    build.activation_budget.resize(static_cast<std::size_t>(strategy.pp));
    for (int stage = 0; stage < strategy.pp; ++stage) {
      build.activation_budget[static_cast<std::size_t>(stage)] =
          std::max<Bytes>(0, cluster.gpu.usable_memory() - costs.StaticMemory(stage));
    }
  }
  // The budget in retained-chunk-forward units (the schedule builders'
  // memory currency); 0 per-forward bytes means memory is not modeled.
  const double per_forward = static_cast<double>(costs.PerForwardActivationBytes());

  // ---- schedule -------------------------------------------------------------
  build.wgrad_mode = options.wgrad_mode;
  std::optional<sched::ValidatedSchedule> schedule;
  switch (strategy.method) {
    case Method::kGPipe:
      schedule = schedules.Capped(sched::GPipeSpec(strategy.pp, micros));
      break;
    case Method::kDapple:
      schedule = schedules.Capped(sched::OneFOneBSpec(strategy.pp, micros));
      break;
    case Method::kVpp:
      schedule = schedules.Vpp(strategy.pp, strategy.vp, micros);
      break;
    case Method::kTeraPipe:
      schedule = schedules.Capped(sched::TeraPipeSpec(strategy.pp, strategy.spp, micros));
      break;
    case Method::kZb1p:
      schedule = schedules.Capped(sched::Zb1pSpec(strategy.pp, micros));
      build.wgrad_mode = sim::WgradMode::kFillWhole;  // ZB fills whole-W tasks
      break;
    case Method::kZbv: {
      // Handcrafted construction: W ops are statically placed, so the
      // engine's deferred-W fill modes do not apply. The builder orders
      // ops against the measured per-op costs, not its uniform defaults.
      sched::ZbvOptions zbv;
      zbv.f_time = costs.ComputeTime({sched::OpKind::kForward, 0, 0, 0});
      zbv.b_time = costs.ComputeTime({sched::OpKind::kBackward, 0, 0, 0});
      zbv.w_time = costs.ComputeTime({sched::OpKind::kWeightGrad, 0, 0, 0});
      zbv.transfer_time = costs.TransferTime({sched::OpKind::kForward, 0, 0, 0});
      if (per_forward > 0) {
        // Memory-aware fill selection: weight each pending W by the
        // act-grad bytes its B retains, and pass the tightest stage's
        // byte budget in chunk-forward units so the construction never
        // picks a budget-violating fill when a fitting one exists.
        zbv.act_grad_weight =
            static_cast<double>(costs.ActGradBytes({sched::OpKind::kBackward, 0, 0, 0})) /
            per_forward;
        Bytes tightest = build.activation_budget.front();
        for (const Bytes b : build.activation_budget) {
          tightest = std::min(tightest, b);
        }
        zbv.activation_budget_units = static_cast<double>(tightest) / per_forward;
      }
      schedule = schedules.Zbv(strategy.pp, micros, zbv);
      break;
    }
    case Method::kZbvCapped:
      schedule = schedules.Capped(sched::ZbvCappedSpec(strategy.pp, micros));
      build.wgrad_mode = sim::WgradMode::kFillWhole;
      break;
    case Method::kSvpp: {
      SvppOptions svpp;
      svpp.stages = strategy.pp;
      svpp.virtual_chunks = strategy.vp;
      svpp.slices = strategy.spp;
      svpp.micros = micros;
      svpp.split_backward = true;
      svpp.reschedule_backwards = options.svpp_reschedule;
      if (options.svpp_inflight > 0) {
        svpp.max_inflight = options.svpp_inflight;
      } else {
        const VariantDecision decision = ChooseSvppVariant(costs, svpp, cluster.gpu);
        if (!decision.feasible) {
          return InfeasibleBuild(strategy, "no feasible SVPP variant: " + decision.reason);
        }
        svpp.max_inflight = decision.f;
      }
      schedule = schedules.Capped(SvppSpec(svpp));
      break;
    }
    case Method::kHanayo:
      schedule = schedules.Capped(sched::HanayoSpec(strategy.pp, micros));
      break;
    case Method::kSynth: {
      // Budgeted synthesizer: statically-placed W like kZbv, ordered by
      // the measured per-op costs, with each stage's byte budget
      // converted into retained-chunk-forward units.
      sched::SynthOptions synth;
      synth.f_time = costs.ComputeTime({sched::OpKind::kForward, 0, 0, 0});
      synth.b_time = costs.ComputeTime({sched::OpKind::kBackward, 0, 0, 0});
      synth.w_time = costs.ComputeTime({sched::OpKind::kWeightGrad, 0, 0, 0});
      synth.transfer_time = costs.TransferTime({sched::OpKind::kForward, 0, 0, 0});
      synth.offset_radius = options.synth_offset_radius;
      synth.max_leaves = options.synth_max_leaves;
      if (per_forward > 0) {
        // A synth retained unit spans F→W: it holds the forward's
        // activation throughout and additionally the act-grad between B
        // and W (the engine releases both at W). Convert bytes at the
        // stage's worst-case per-unit cost over the chunks it owns —
        // embedding/head chunks carry more than the uniform
        // per-forward figure — so the cap is honest.
        synth.budget.resize(static_cast<std::size_t>(strategy.pp));
        std::vector<double> per_unit(static_cast<std::size_t>(strategy.pp), 0.0);
        const int total_chunks = strategy.pp * strategy.vp;
        for (int chunk = 0; chunk < total_chunks; ++chunk) {
          const int stage = problem.stage_of_chunk(chunk);
          const double cost = static_cast<double>(
              costs.ActivationBytes({sched::OpKind::kForward, 0, 0, chunk}) +
              costs.ActGradBytes({sched::OpKind::kBackward, 0, 0, chunk}));
          per_unit[static_cast<std::size_t>(stage)] =
              std::max(per_unit[static_cast<std::size_t>(stage)], cost);
        }
        for (int stage = 0; stage < strategy.pp; ++stage) {
          const int units = static_cast<int>(
              static_cast<double>(build.activation_budget[static_cast<std::size_t>(stage)]) /
              per_unit[static_cast<std::size_t>(stage)]);
          if (units < strategy.vp) {
            return InfeasibleBuild(
                strategy,
                StrFormat("synth: stage %d fits %d chunk-forwards, below the v=%d floor",
                          stage, units, strategy.vp));
          }
          synth.budget[static_cast<std::size_t>(stage)] = units;
        }
      }
      schedule = schedules.Synth(problem, synth);
      break;
    }
  }

  build.validated = std::move(schedule);
  build.feasible = true;
  build.note = "ok";
  return build;
}

// BuildCandidate on a topology, constructing schedules through
// `schedules`; `schedule` is left empty.
CandidateBuild BuildPlaced(const model::TransformerConfig& config, const Strategy& strategy,
                           const hw::ClusterTopology& topology,
                           const hw::StagePlacement& placement, int global_batch,
                           const IterationOptions& options, sched::ScheduleMemo& schedules) {
  const hw::ParallelLayout layout = strategy.layout();
  for (const hw::LayoutIssue& issue : layout.Validate(topology, placement)) {
    // tp on a consumer tier narrows the search space; the engine prices it.
    if (issue.code != hw::LayoutIssue::Code::kTensorParallelOnConsumerTier) {
      return InfeasibleBuild(strategy, issue.message);
    }
  }
  hw::ClusterSpec reference;
  std::string error;
  if (!ReferenceSpec(topology, placement, layout.ranks(), &reference, &error)) {
    return InfeasibleBuild(strategy, std::move(error));
  }
  CandidateBuild build =
      BuildOnCluster(config, strategy, reference, global_batch, options, schedules);
  build.placement = placement;
  if (!build.feasible) {
    return build;
  }
  const sched::PipelineProblem& problem = build.problem;
  const TrainingCostModel& costs = *build.costs;

  if (!UniformSpeed(topology, placement)) {
    // Shed layers off the slow tiers and regenerate the program order —
    // the MitigateStragglers idiom, applied to a *static* speed profile
    // relative to the fastest occupied tier.
    const sched::ValidatedSchedule even = *build.validated;  // built for the even split
    const StageProfile profile = PlacementSlowdowns(topology, placement);
    RebalanceOptions rebalance;
    rebalance.repartition_layers = true;
    rebalance.rebalance_slices = false;
    rebalance.retune_caps = true;
    rebalance.units_per_chunk = static_cast<int>(config.partition_units()) / problem.num_chunks();
    rebalance.min_units_per_chunk = 1;
    const int floor_cap = problem.virtual_chunks * problem.slices;
    rebalance.base_caps.resize(static_cast<std::size_t>(problem.stages));
    for (int i = 0; i < problem.stages; ++i) {
      rebalance.base_caps[static_cast<std::size_t>(i)] =
          std::max(floor_cap, sched::PeakRetainedForwards(*even, i));
    }
    build.plan = Rebalance(profile, problem, rebalance);
    if (build.plan.any_change()) {
      sched::CappedSpec spec;
      spec.problem = problem;
      spec.method = even->method + "+placed";
      sched::GeneratorOptions& generator = spec.options;
      generator.inflight_cap = build.plan.new_caps.empty() ? rebalance.base_caps
                                                           : build.plan.new_caps;
      generator.backward_first = true;
      generator.child_count_backward_priority = true;
      generator.wgrad = even->deferred_wgrad ? sched::WgradPolicy::kDeferred
                                             : sched::WgradPolicy::kLowestPriority;
      generator.b_time = problem.split_backward ? 1.0 : 2.0;
      generator.stage_time_scale.resize(static_cast<std::size_t>(problem.stages));
      for (int i = 0; i < problem.stages; ++i) {
        generator.stage_time_scale[static_cast<std::size_t>(i)] =
            profile.slowdown[static_cast<std::size_t>(i)] *
            build.plan.stage_unit_ratio(problem, i);
      }
      build.validated = schedules.Capped(spec);
    }
  }

  // Activation budgets against the *hosting* tier's memory, with static
  // memory scaled by the adopted layer share. On one tier this
  // recomputes exactly the reference build's budgets.
  if (problem.split_backward) {
    for (int stage = 0; stage < problem.stages; ++stage) {
      const Bytes usable = topology.tier(placement.tier_of(stage)).gpu.usable_memory();
      build.activation_budget[static_cast<std::size_t>(stage)] =
          std::max<Bytes>(0, usable - StageStaticMemory(costs, build.plan, stage));
    }
  }
  return build;
}

}  // namespace

CandidateBuild BuildCandidate(const model::TransformerConfig& config,
                              const Strategy& strategy, const hw::ClusterSpec& cluster,
                              int global_batch, const IterationOptions& options) {
  sched::ScheduleMemo schedules;
  return WithScheduleCopy(
      BuildOnCluster(config, strategy, cluster, global_batch, options, schedules));
}

CandidateBuild BuildCandidate(const model::TransformerConfig& config,
                              const Strategy& strategy, const hw::ClusterTopology& topology,
                              const hw::StagePlacement& placement, int global_batch,
                              const IterationOptions& options, sched::ScheduleMemo* memo) {
  if (memo != nullptr) {
    return BuildPlaced(config, strategy, topology, placement, global_batch, options, *memo);
  }
  sched::ScheduleMemo local;
  return WithScheduleCopy(
      BuildPlaced(config, strategy, topology, placement, global_batch, options, local));
}

void WrapPlacement(sim::CostModelStack& stack, const CandidateBuild& build,
                   const hw::ClusterTopology& topology) {
  if (build.plan.any_change()) {
    stack.Wrap<RebalancedCostModel>(build.problem, build.plan);
  }
  if (topology.num_tiers() > 1) {
    stack.Wrap<TierScaledCostModel>(*build.costs, topology, build.placement, build.plan);
  }
}

StageMemoryVerdict CheckStageMemory(const CandidateBuild& build,
                                    const hw::ClusterTopology& topology,
                                    const RebalancePlan& plan, const sim::SimResult& run) {
  const TrainingCostModel& costs = *build.costs;
  const sched::PipelineProblem& problem = build.problem;
  // The capped ZBV generator's accounting releases a forward's
  // activations at its B, but its W ops are deferred (kFillWhole) and the
  // memory is really held until each W runs — so the measured peak
  // carries an ~A/2 artifact. Floor every stage at the construction's
  // honest bound, 1F1B parity (ZbvMaxRetainedForwards chunk-forwards),
  // so memory feasibility cannot be fooled on either pricing path.
  Bytes honest = 0;
  if (build.strategy.method == Method::kZbvCapped) {
    honest = static_cast<Bytes>(sched::ZbvMaxRetainedForwards(problem.stages, build.micros)) *
             costs.PerForwardActivationBytes();
  }
  StageMemoryVerdict verdict;
  verdict.peak_activation = std::max(run.peak_activation, honest);
  int oom_stage = -1;
  Bytes oom_total = 0;
  for (int stage = 0; stage < problem.stages; ++stage) {
    const Bytes stage_static = StageStaticMemory(costs, plan, stage);
    verdict.static_memory = std::max(verdict.static_memory, stage_static);
    const Bytes total =
        stage_static +
        std::max(run.stages[static_cast<std::size_t>(stage)].peak_activation, honest);
    verdict.peak_memory = std::max(verdict.peak_memory, total);
    if (oom_stage < 0 &&
        total > topology.tier(build.placement.tier_of(stage)).gpu.usable_memory()) {
      oom_stage = stage;
      oom_total = total;
    }
  }
  verdict.fits = oom_stage < 0;
  if (verdict.fits) {
    verdict.note = "ok";
  } else if (topology.num_tiers() == 1) {
    verdict.note =
        StrFormat("OOM: peak %s > usable %s", FormatBytes(verdict.peak_memory).c_str(),
                  FormatBytes(topology.tier(0).gpu.usable_memory()).c_str());
  } else {
    const hw::DeviceTier& tier = topology.tier(build.placement.tier_of(oom_stage));
    verdict.note = StrFormat("OOM on stage %d (%s): peak %s > usable %s", oom_stage,
                             tier.name.c_str(), FormatBytes(oom_total).c_str(),
                             FormatBytes(tier.gpu.usable_memory()).c_str());
  }
  return verdict;
}

IterationResult SimulateIteration(const model::TransformerConfig& config,
                                  const Strategy& strategy, const hw::ClusterTopology& topology,
                                  const hw::StagePlacement& placement, int global_batch,
                                  const IterationOptions& options, sched::ScheduleMemo* memo) {
  sched::ScheduleMemo local;
  CandidateBuild build = BuildCandidate(config, strategy, topology, placement, global_batch,
                                        options, memo != nullptr ? memo : &local);
  if (!build.feasible) {
    return Infeasible(strategy, placement, std::move(build.note));
  }
  const bool mitigate = options.rebalance_stragglers && !options.fault_plan.empty();
  MEPIPE_CHECK(!mitigate || UniformSpeed(topology, placement))
      << "straggler rebalancing is unsupported on placement " << placement.ToString()
      << ": its tiers differ in speed, and both rebalancers move the same layer split";
  const hw::ParallelLayout layout = strategy.layout();
  const int micros = build.micros;
  const sched::PipelineProblem& problem = build.problem;
  const TrainingCostModel& costs = *build.costs;

  // ---- execute ---------------------------------------------------------------
  sim::EngineOptions engine;
  engine.wgrad_mode = build.wgrad_mode;
  engine.activation_budget = build.activation_budget;
  engine.fault_plan = options.fault_plan;
  engine.record_timeline = options.keep_timeline;
  engine.dp_overlap = options.dp_overlap;
  engine.dp_link_shared =
      options.dp_overlap &&
      topology.FabricShares(layout).Shares(hw::Dim::kData, hw::Dim::kPipeline);
  sim::SimResult sim;
  bool rebalanced = false;
  Seconds unmitigated_pipeline_time = 0;
  // The layer split static memory follows: the placement's, or the
  // adopted straggler mitigation's.
  RebalancePlan mitigation_plan;
  const RebalancePlan* layer_split = &build.plan;
  sched::Schedule mitigated_schedule;
  auto execute = [&](const sim::CostModel& priced) {
    sim = Simulate(*build.validated, priced, engine);
    if (!mitigate) {
      return;
    }
    MitigationOptions mitigation;
    mitigation.engine = engine;
    mitigation.rebalance.config = config;
    mitigation.rebalance.seq_len = config.seq_len / strategy.cp;
    mitigation.rebalance.slice_alignment = options.cost.slice_alignment;
    mitigation.rebalance.units_per_chunk =
        static_cast<int>(config.partition_units()) / problem.num_chunks();
    if (problem.slices > 1) {
      // Re-balance against the spans the cost model actually priced.
      mitigation.rebalance.base_spans =
          options.cost.balanced_slices
              ? model::AlignSlices(model::BalancedSlices(config, mitigation.rebalance.seq_len,
                                                         problem.slices),
                                   std::max<std::int64_t>(1, options.cost.slice_alignment))
              : model::UniformSlices(mitigation.rebalance.seq_len, problem.slices);
    }
    MitigationReport report =
        MitigateStragglers(*build.validated, priced, *options.fault_plan, mitigation, memo);
    if (report.mitigated_makespan < sim.makespan) {
      unmitigated_pipeline_time = sim.makespan;
      sim = std::move(report.mitigated);
      mitigated_schedule = std::move(report.mitigated_schedule);
      mitigation_plan = std::move(report.plan);
      layer_split = &mitigation_plan;
      rebalanced = true;
    }
  };
  sim::CostModelStack stack(costs);
  WrapPlacement(stack, build, topology);
  if (options.noise_sigma > 0) {
    stack.Noisy(options.noise_sigma, options.noise_seed);
  }
  execute(stack.model());

  IterationResult result;
  result.strategy = strategy;
  result.placement = placement;
  result.micros = micros;
  result.pipeline_time = sim.makespan;
  result.mitigation.rebalanced = rebalanced;
  result.mitigation.unmitigated_pipeline_time =
      rebalanced ? unmitigated_pipeline_time : sim.makespan;
  result.dp.overlapped = options.dp_overlap;
  if (options.dp_overlap) {
    // The engine scheduled the buckets against the timeline; only the
    // tail past the makespan is paid.
    result.dp.serialized = sim.dp.serialized;
    result.dp.hidden = sim.dp.hidden;
    result.dp.exposed = sim.dp.exposed;
  } else {
    // Monolithic sync after the flush: everything is exposed.
    result.dp.serialized = SerializedDpSync(costs, topology, placement, build.plan);
    result.dp.exposed = result.dp.serialized;
  }
  result.dp_sync_time = result.dp.exposed;
  result.iteration_time = sim.makespan + result.dp_sync_time + options.optimizer_step;
  result.bubble_ratio = sim.bubble_ratio;
  result.checkpoint_shard = costs.CheckpointShardBytes();
  result.checkpoint_state = costs.CheckpointStateBytes();

  StageMemoryVerdict memory = CheckStageMemory(build, topology, *layer_split, sim);
  result.static_memory = memory.static_memory;
  result.peak_activation = memory.peak_activation;
  result.peak_memory = memory.peak_memory;
  result.feasible = memory.fits;
  result.note = std::move(memory.note);

  const std::int64_t tokens = static_cast<std::int64_t>(global_batch) * config.seq_len;
  result.per_gpu_flops = model::TrainingFlops(config, tokens) /
                         (result.iteration_time * static_cast<double>(layout.ranks()));
  result.mfu = result.per_gpu_flops / MeanPeakFlops(topology, placement, layout);
  result.dollars = PriceDollarCost(
      topology, strategy, placement, result.iteration_time,
      WanEgressBytesPerIteration(config, strategy, placement, topology, global_batch));

  result.sim = std::move(sim);
  if (options.keep_schedule) {
    result.schedule = rebalanced ? std::move(mitigated_schedule) : **build.validated;
    result.activation_budget = engine.activation_budget;
  }
  return result;
}

}  // namespace mepipe::core
