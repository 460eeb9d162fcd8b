#include "core/surrogate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>

#include "common/check.h"
#include "core/deployment.h"
#include "sched/dependency.h"

namespace mepipe::core {
namespace {

using sched::Dep;
using sched::OpId;
using sched::OpKind;

constexpr double kEps = 1e-12;

// ---- Tabular critical-path pass -------------------------------------------
//
// The engine's list-scheduling loop on dense arenas: op completion times
// live in a flat vector indexed by sched::OpSlots instead of hash maps,
// dependencies are enumerated allocation-free through
// sched::ForEachDependency, and nothing is recorded per op — the pass
// keeps only per-stage clocks, busy sums, and running memory counters.
// Cross-stage readiness is producer-done + transfer time (no per-link
// serialization): the one structural approximation, exact whenever
// transfers are free.
class TableSim {
 public:
  TableSim(const sched::Schedule& schedule, const sim::CostModel& costs,
           const TableOptions& options)
      : schedule_(schedule),
        problem_(schedule.problem),
        costs_(costs),
        options_(options),
        slots_(problem_),
        done_(slots_.count(), kNotDone),
        cursor_(static_cast<std::size_t>(problem_.stages), 0),
        clock_(static_cast<std::size_t>(problem_.stages), 0.0),
        wqueue_(static_cast<std::size_t>(problem_.stages)),
        current_bytes_(static_cast<std::size_t>(problem_.stages), 0),
        peak_bytes_(static_cast<std::size_t>(problem_.stages), 0),
        busy_(static_cast<std::size_t>(problem_.stages), 0.0),
        overflow_count_(static_cast<std::size_t>(problem_.stages), 0) {
    if (!options_.activation_budget.empty()) {
      MEPIPE_CHECK_EQ(options_.activation_budget.size(),
                      static_cast<std::size_t>(problem_.stages))
          << "activation_budget must have one entry per stage";
    }
  }

  TablePrice Run();

 private:
  static constexpr Seconds kNotDone = -1.0;

  struct WgradItem {
    OpId op;
    Seconds available = 0;
    int next_gemm = 0;
    int gemm_count = 1;
  };

  Seconds DoneTime(const OpId& op) const { return done_[slots_(op)]; }
  void MarkDone(const OpId& op, Seconds t) { done_[slots_(op)] = t; }

  bool DepsDone(const OpId& op) const {
    bool ok = true;
    sched::ForEachDependency(problem_, op, [&](const Dep& dep) {
      ok = ok && done_[slots_(dep.op)] != kNotDone;
    });
    return ok;
  }

  Seconds ReadyTime(const OpId& op) const {
    Seconds ready = 0.0;
    sched::ForEachDependency(problem_, op, [&](const Dep& dep) {
      const Seconds done = done_[slots_(dep.op)];
      ready = std::max(ready, dep.cross_stage ? done + costs_.TransferTime(dep.op) : done);
    });
    return ready;
  }

  void Record(int stage, Seconds start, Seconds end) {
    busy_[static_cast<std::size_t>(stage)] += end - start;
    makespan_ = std::max(makespan_, end);
  }

  void AddMem(int stage, Bytes delta) {
    Bytes& current = current_bytes_[static_cast<std::size_t>(stage)];
    current += delta;
    peak_bytes_[static_cast<std::size_t>(stage)] =
        std::max(peak_bytes_[static_cast<std::size_t>(stage)], current);
  }

  void ReleaseSlice(int stage, const OpId& op, bool release_act_grad) {
    const OpId forward{OpKind::kForward, op.micro, op.slice, op.chunk, -1, op.job};
    AddMem(stage, -costs_.ActivationBytes(forward));
    if (release_act_grad) {
      const OpId backward{OpKind::kBackward, op.micro, op.slice, op.chunk, -1, op.job};
      AddMem(stage, -costs_.ActGradBytes(backward));
    }
  }

  void FillWgrad(int stage, Seconds until) {
    if (options_.wgrad_mode == sim::WgradMode::kImmediate) {
      return;
    }
    auto& queue = wqueue_[static_cast<std::size_t>(stage)];
    double& clock = clock_[static_cast<std::size_t>(stage)];
    while (!queue.empty()) {
      WgradItem& item = queue.front();
      if (item.available > clock + kEps) {
        break;
      }
      const OpId gemm_op{OpKind::kWeightGradGemm, item.op.micro, item.op.slice, item.op.chunk,
                         item.next_gemm, item.op.job};
      const OpId& exec_op = item.gemm_count > 1 ? gemm_op : item.op;
      const Seconds end = clock + costs_.ComputeTime(exec_op);
      if (end > until + kEps) {
        break;
      }
      Record(stage, clock, end);
      clock = end;
      if (++item.next_gemm >= item.gemm_count) {
        MarkDone(item.op, clock);
        ReleaseSlice(stage, item.op, /*release_act_grad=*/true);
        queue.pop_front();
      }
    }
  }

  void DrainForBudget(int stage, Bytes incoming) {
    if (options_.activation_budget.empty()) {
      return;
    }
    const Bytes budget = options_.activation_budget[static_cast<std::size_t>(stage)];
    if (budget <= 0) {
      return;
    }
    auto& queue = wqueue_[static_cast<std::size_t>(stage)];
    while (!queue.empty() &&
           current_bytes_[static_cast<std::size_t>(stage)] + incoming > budget) {
      DrainWgradItem(stage, queue.front());
      queue.pop_front();
    }
    if (current_bytes_[static_cast<std::size_t>(stage)] + incoming > budget) {
      ++overflow_count_[static_cast<std::size_t>(stage)];
    }
  }

  void DrainWgradItem(int stage, WgradItem& item) {
    double& clock = clock_[static_cast<std::size_t>(stage)];
    clock = std::max(clock, item.available);
    if (item.gemm_count <= 1) {
      const Seconds end = clock + costs_.ComputeTime(item.op);
      Record(stage, clock, end);
      clock = end;
    } else {
      for (; item.next_gemm < item.gemm_count; ++item.next_gemm) {
        const OpId gemm_op{OpKind::kWeightGradGemm, item.op.micro, item.op.slice, item.op.chunk,
                           item.next_gemm, item.op.job};
        const Seconds end = clock + costs_.ComputeTime(gemm_op);
        Record(stage, clock, end);
        clock = end;
      }
    }
    MarkDone(item.op, clock);
    ReleaseSlice(stage, item.op, /*release_act_grad=*/true);
  }

  void RunDpSync(TablePrice& price) const {
    Seconds last_end = 0;
    for (int stage = 0; stage < problem_.stages; ++stage) {
      std::vector<std::pair<Seconds, Seconds>> buckets;  // (ready, duration)
      Seconds total = 0;
      for (const OpId& bucket : sched::DpSyncOps(problem_, stage, schedule_.job)) {
        const Seconds duration = costs_.DpSyncTime(bucket);
        if (duration <= 0) {
          continue;
        }
        Seconds ready = 0;
        sched::ForEachDependency(problem_, bucket, [&](const Dep& dep) {
          ready = std::max(ready, done_[slots_(dep.op)]);
        });
        buckets.push_back({ready, duration});
        total += duration;
      }
      std::stable_sort(buckets.begin(), buckets.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      Seconds stream = 0;
      for (const auto& [ready, duration] : buckets) {
        stream = std::max(stream, ready) + duration;
      }
      price.dp_serialized = std::max(price.dp_serialized, total);
      last_end = std::max(last_end, stream);
    }
    price.dp_exposed = std::max(0.0, last_end - makespan_);
    price.dp_hidden = std::max(0.0, price.dp_serialized - price.dp_exposed);
  }

  const sched::Schedule& schedule_;
  const sched::PipelineProblem& problem_;
  const sim::CostModel& costs_;
  const TableOptions& options_;

  const sched::OpSlots slots_;
  std::vector<Seconds> done_;
  std::vector<std::size_t> cursor_;
  std::vector<double> clock_;
  std::vector<std::deque<WgradItem>> wqueue_;
  std::vector<Bytes> current_bytes_;
  std::vector<Bytes> peak_bytes_;
  std::vector<Seconds> busy_;
  std::vector<int> overflow_count_;
  Seconds makespan_ = 0;
};

TablePrice TableSim::Run() {
  std::size_t remaining = 0;
  for (const auto& ops : schedule_.stage_ops) {
    remaining += ops.size();
  }

  while (remaining > 0) {
    bool progress = false;
    for (int stage = 0; stage < problem_.stages; ++stage) {
      auto& cursor = cursor_[static_cast<std::size_t>(stage)];
      const auto& ops = schedule_.stage_ops[static_cast<std::size_t>(stage)];
      double& clock = clock_[static_cast<std::size_t>(stage)];
      while (cursor < ops.size()) {
        const OpId& op = ops[cursor];
        if (!DepsDone(op)) {
          break;
        }
        const Seconds ready = ReadyTime(op);
        if (ready > clock) {
          FillWgrad(stage, ready);
        }
        if (op.kind == OpKind::kForward) {
          DrainForBudget(stage, costs_.ActivationBytes(op));
        } else if (op.kind == OpKind::kBackward && problem_.split_backward) {
          DrainForBudget(stage, costs_.ActGradBytes(op));
        }
        const Seconds start = std::max(clock, ready);
        const Seconds end = start + costs_.ComputeTime(op);
        Record(stage, start, end);
        clock = end;
        MarkDone(op, end);

        switch (op.kind) {
          case OpKind::kForward:
            AddMem(stage, costs_.ActivationBytes(op));
            break;
          case OpKind::kBackward:
            if (!problem_.split_backward) {
              ReleaseSlice(stage, op, /*release_act_grad=*/false);
            } else {
              AddMem(stage, costs_.ActGradBytes(op));
              if (schedule_.deferred_wgrad) {
                const OpId w{OpKind::kWeightGrad, op.micro, op.slice, op.chunk, -1, op.job};
                WgradItem item{w, end, 0,
                               options_.wgrad_mode == sim::WgradMode::kFillGemms
                                   ? costs_.WeightGradGemmCount(w)
                                   : 1};
                if (options_.wgrad_mode == sim::WgradMode::kImmediate) {
                  DrainWgradItem(stage, item);
                } else {
                  wqueue_[static_cast<std::size_t>(stage)].push_back(item);
                }
              }
            }
            break;
          case OpKind::kWeightGrad:
            ReleaseSlice(stage, op, /*release_act_grad=*/true);
            break;
          case OpKind::kWeightGradGemm:
          case OpKind::kDpSync:
            MEPIPE_CHECK(false) << "op kind cannot appear in static orders";
            break;
        }
        ++cursor;
        --remaining;
        progress = true;
      }
    }
    MEPIPE_CHECK(progress) << "surrogate wedged with " << remaining << " ops left";
  }

  for (int stage = 0; stage < problem_.stages; ++stage) {
    auto& queue = wqueue_[static_cast<std::size_t>(stage)];
    while (!queue.empty()) {
      DrainWgradItem(stage, queue.front());
      queue.pop_front();
    }
  }

  TablePrice price;
  price.makespan = makespan_;
  price.stage_busy = busy_;
  price.stage_peak_activation = peak_bytes_;
  double bubble_sum = 0;
  for (int stage = 0; stage < problem_.stages; ++stage) {
    price.peak_activation =
        std::max(price.peak_activation, peak_bytes_[static_cast<std::size_t>(stage)]);
    price.budget_violations += overflow_count_[static_cast<std::size_t>(stage)];
    bubble_sum += makespan_ > 0
                      ? 1.0 - busy_[static_cast<std::size_t>(stage)] / makespan_
                      : 0.0;
  }
  price.bubble_ratio = problem_.stages > 0 ? bubble_sum / problem_.stages : 0.0;
  if (options_.dp_overlap) {
    RunDpSync(price);
  }
  return price;
}

// ---- Fingerprint hashing ---------------------------------------------------

constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Digest {
  std::uint64_t state = 0x6d65706970655f73ULL;  // "mepipe_s"

  void Mix(std::uint64_t value) { state = SplitMix64(state ^ value); }
  void Mix(std::int64_t value) { Mix(static_cast<std::uint64_t>(value)); }
  void Mix(int value) { Mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value))); }
  void Mix(bool value) { Mix(static_cast<std::uint64_t>(value ? 1 : 2)); }
  void Mix(double value) { Mix(std::bit_cast<std::uint64_t>(value)); }
  void Mix(const std::string& value) {
    // FNV-1a, implementation-independent (std::hash is not pinned).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : value) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    Mix(h);
  }
};

void MixLink(Digest& digest, const hw::LinkSpec& link) {
  digest.Mix(link.name);
  digest.Mix(link.bandwidth);
  digest.Mix(link.latency);
  digest.Mix(link.through_host);
}

}  // namespace

TablePrice PriceScheduleTable(const sched::Schedule& schedule, const sim::CostModel& costs,
                              const TableOptions& options) {
  return TableSim(schedule, costs, options).Run();
}

std::uint64_t TopologyFingerprint(const model::TransformerConfig& config,
                                  const hw::ClusterTopology& topology,
                                  const IterationOptions& options) {
  Digest digest;
  // Model architecture.
  digest.Mix(config.name);
  digest.Mix(config.hidden);
  digest.Mix(config.ffn_hidden);
  digest.Mix(config.layers);
  digest.Mix(config.heads);
  digest.Mix(config.kv_heads);
  digest.Mix(config.vocab);
  digest.Mix(config.seq_len);
  // Fleet: every tier (GPU, shape, fabric, rental rate, region) and the
  // inter-tier link matrix (bandwidth, latency, egress price).
  digest.Mix(topology.num_tiers());
  for (const hw::DeviceTier& tier : topology.tiers) {
    digest.Mix(tier.name);
    digest.Mix(tier.region);
    digest.Mix(tier.nodes);
    digest.Mix(tier.gpus_per_node);
    digest.Mix(tier.usd_per_gpu_hour);
    digest.Mix(tier.gpu.name);
    digest.Mix(tier.gpu.memory_capacity);
    digest.Mix(tier.gpu.memory_reserved);
    digest.Mix(tier.gpu.peak_flops);
    digest.Mix(tier.gpu.matmul_derate);
    MixLink(digest, tier.intra_node);
    MixLink(digest, tier.inter_node);
  }
  for (const hw::TierLink& link : topology.tier_links) {
    MixLink(digest, link.link);
    digest.Mix(link.usd_per_gb_egress);
    digest.Mix(link.wan);
  }
  // TrainingCostOptions. The efficiency curve's parameters are private;
  // probe it behaviorally at points that pin both the half-saturation
  // constant and its hidden-width scaling.
  digest.Mix(options.cost.op_overhead);
  digest.Mix(options.cost.balanced_slices);
  digest.Mix(options.cost.slice_alignment);
  digest.Mix(options.cost.memory.bytes_per_param);
  digest.Mix(options.cost.memory.bytes_per_grad);
  digest.Mix(options.cost.memory.optimizer_bytes_per_param);
  digest.Mix(options.cost.memory.fixed_workspace);
  digest.Mix(options.cost.efficiency.ShapeEfficiency(5120, 64));
  digest.Mix(options.cost.efficiency.ShapeEfficiency(5120, 4096));
  digest.Mix(options.cost.efficiency.ShapeEfficiency(1024, 384));
  // Pricing-relevant iteration knobs (faults/noise/rebalance excluded —
  // the surrogate prices the clean run).
  digest.Mix(static_cast<int>(options.wgrad_mode));
  digest.Mix(options.svpp_inflight);
  digest.Mix(options.svpp_reschedule);
  digest.Mix(options.optimizer_step);
  digest.Mix(options.dp_overlap);
  digest.Mix(options.synth_offset_radius);
  digest.Mix(options.synth_max_leaves);
  return digest.state;
}

std::size_t SurrogateKeyHash::operator()(const SurrogateKey& key) const {
  Digest digest;
  digest.Mix(static_cast<int>(key.method));
  digest.Mix(key.pp);
  digest.Mix(key.dp);
  digest.Mix(key.cp);
  digest.Mix(key.tp);
  digest.Mix(key.vp);
  digest.Mix(key.spp);
  digest.Mix(key.recompute);
  digest.Mix(key.global_batch);
  digest.Mix(key.fingerprint);
  digest.Mix(key.placement);
  return static_cast<std::size_t>(digest.state);
}

std::size_t SurrogateCache::IntervalKeyHash::operator()(const IntervalKey& key) const {
  Digest digest;
  digest.Mix(key.time_bits);
  digest.Mix(key.write_bits);
  digest.Mix(key.mtbf_bits);
  digest.Mix(key.recovery_bits);
  digest.Mix(key.target_bits);
  digest.Mix(key.iterations);
  digest.Mix(key.seed);
  digest.Mix(key.gpus);
  digest.Mix(key.dp_replicas);
  digest.Mix(key.scope);
  digest.Mix(key.min_bits);
  digest.Mix(key.max_bits);
  digest.Mix(key.coarse_points);
  digest.Mix(key.golden_iterations);
  return static_cast<std::size_t>(digest.state);
}

std::optional<SurrogateResult> SurrogateCache::Lookup(const SurrogateKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return std::nullopt;
}

void SurrogateCache::Insert(const SurrogateKey& key, const SurrogateResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.insert_or_assign(key, result);
}

CheckpointIntervalSolution SurrogateCache::IntervalSolve(
    Seconds iteration_time, const ResilienceOptions& base,
    const CheckpointIntervalOptions& options) {
  IntervalKey key;
  key.time_bits = std::bit_cast<std::uint64_t>(iteration_time);
  key.write_bits = std::bit_cast<std::uint64_t>(base.reliability.checkpoint_write_cost);
  key.mtbf_bits = std::bit_cast<std::uint64_t>(base.reliability.mtbf_per_1000_gpus);
  key.recovery_bits = std::bit_cast<std::uint64_t>(base.reliability.recovery_time);
  key.target_bits = std::bit_cast<std::uint64_t>(base.target_useful_time);
  key.iterations = base.iterations;
  key.seed = base.seed;
  key.gpus = base.gpus;
  key.dp_replicas = base.dp_replicas;
  key.scope = static_cast<int>(base.restart_scope);
  key.min_bits = std::bit_cast<std::uint64_t>(options.min_interval);
  key.max_bits = std::bit_cast<std::uint64_t>(options.max_interval);
  key.coarse_points = options.coarse_points;
  key.golden_iterations = options.golden_iterations;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = intervals_.find(key); it != intervals_.end()) {
      ++stats_.interval_hits;
      return it->second;
    }
    ++stats_.interval_misses;
  }
  // Solve outside the lock: the solver is deterministic, so a concurrent
  // duplicate computes the identical value and the second insert is a
  // no-op.
  const CheckpointIntervalSolution solution =
      OptimalCheckpointInterval(iteration_time, base, options);
  std::lock_guard<std::mutex> lock(mu_);
  intervals_.emplace(key, solution);
  return solution;
}

SurrogateCache::Stats SurrogateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SurrogateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void SurrogateCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  intervals_.clear();
  stats_ = {};
}

SurrogateResult SurrogatePrice(const model::TransformerConfig& config,
                               const Strategy& strategy, const hw::ClusterTopology& topology,
                               const hw::StagePlacement& placement, int global_batch,
                               const SurrogateOptions& options) {
  SurrogateKey key;
  if (options.cache != nullptr) {
    key.method = strategy.method;
    key.pp = strategy.pp;
    key.dp = strategy.dp;
    key.cp = strategy.cp;
    key.tp = strategy.tp;
    key.vp = strategy.vp;
    key.spp = strategy.spp;
    key.recompute = strategy.recompute;
    key.global_batch = global_batch;
    key.fingerprint = TopologyFingerprint(config, topology, options.iteration);
    key.placement = placement.Hash();
    if (auto hit = options.cache->Lookup(key)) {
      hit->cache_hit = true;
      return *hit;
    }
  }

  sched::ScheduleMemo schedules;  // builds without copying the schedule out
  CandidateBuild build = BuildCandidate(config, strategy, topology, placement, global_batch,
                                        options.iteration, &schedules);
  SurrogateResult result;
  result.strategy = strategy;
  result.placement = placement;
  if (!build.feasible) {
    result.note = std::move(build.note);
  } else {
    const TrainingCostModel& costs = *build.costs;
    sim::CostModelStack stack(costs);
    WrapPlacement(stack, build, topology);
    TableOptions table;
    table.wgrad_mode = build.wgrad_mode;
    table.activation_budget = build.activation_budget;
    table.dp_overlap = options.iteration.dp_overlap;
    const TablePrice price = PriceScheduleTable(**build.validated, stack.model(), table);

    result.micros = build.micros;
    result.pipeline_time = price.makespan;
    result.dp_sync_time = options.iteration.dp_overlap
                              ? price.dp_exposed
                              : SerializedDpSync(costs, topology, placement, build.plan);
    result.iteration_time =
        price.makespan + result.dp_sync_time + options.iteration.optimizer_step;
    result.bubble_ratio = price.bubble_ratio;
    result.checkpoint_shard = costs.CheckpointShardBytes();
    StageMemoryVerdict memory = CheckStageMemory(build, topology, build.plan,
                                                 price.stage_peak_activation,
                                                 price.peak_activation);
    result.static_memory = memory.static_memory;
    result.peak_activation = memory.peak_activation;
    result.peak_memory = memory.peak_memory;
    result.feasible = memory.fits;
    result.note = std::move(memory.note);
    result.dollars = PriceDollarCost(
        topology, strategy, placement, result.iteration_time,
        WanEgressBytesPerIteration(config, strategy, placement, topology, global_batch));
  }
  if (options.cache != nullptr) {
    options.cache->Insert(key, result);
  }
  return result;
}

SurrogateGoodput ClosedFormGoodput(Seconds iteration_time, Bytes checkpoint_shard,
                                   const ResilienceOptions& resilience,
                                   const CheckpointCostOptions& checkpoint_cost) {
  MEPIPE_CHECK_GT(iteration_time, 0) << "goodput needs a positive iteration time";
  MEPIPE_CHECK_GT(resilience.gpus, 0) << "goodput needs a positive fleet size";
  SurrogateGoodput out;
  out.checkpoint_write_cost = CheckpointWriteCost(checkpoint_shard, checkpoint_cost);
  const double w = out.checkpoint_write_cost;
  const Seconds mtbf =
      resilience.reliability.mtbf_per_1000_gpus * 1000.0 / resilience.gpus;
  MEPIPE_CHECK_GT(mtbf, 0) << "goodput needs a positive MTBF";
  // Young's first-order optimum and Daly's second-order refinement
  // (the same closed forms OptimalCheckpointInterval seeds its
  // Monte-Carlo scan with).
  const double young = std::sqrt(2.0 * w * mtbf);
  Seconds interval;
  if (w < 2.0 * mtbf) {
    const double ratio = w / (2.0 * mtbf);
    interval = young * (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) - w;
  } else {
    interval = mtbf;
  }
  out.checkpoint_interval = std::max(interval, w);
  // Expected overhead: steady-state write cost plus per-failure recovery
  // and lost work. Full-pipeline restarts replay half an interval on
  // average; replica-local restarts replay only the interrupted
  // iteration while survivors idle.
  Seconds lost = out.checkpoint_interval / 2.0;
  if (resilience.restart_scope == sim::RestartScope::kDpReplicaLocal &&
      resilience.dp_replicas > 1) {
    lost = std::min(lost, iteration_time / 2.0);
  }
  const double overhead = w / out.checkpoint_interval +
                          (resilience.reliability.recovery_time + lost) / mtbf;
  out.goodput = std::clamp(1.0 - overhead, 1e-6, 1.0);
  out.effective_iteration_time = iteration_time / out.goodput;
  return out;
}

std::optional<Seconds> SurrogateLowerBound(const model::TransformerConfig& config,
                                           const Strategy& strategy,
                                           const hw::ClusterTopology& topology,
                                           const hw::StagePlacement& placement,
                                           int global_batch, const IterationOptions& options) {
  if (strategy.dp <= 0 || global_batch % strategy.dp != 0 ||
      !strategy.layout().Validate(topology, placement).empty() ||
      !UniformSpeed(topology, placement)) {
    return std::nullopt;
  }
  hw::ClusterSpec reference;
  std::string error;
  if (!ReferenceSpec(topology, placement, strategy.layout().ranks(), &reference, &error)) {
    return std::nullopt;
  }
  const sched::PipelineProblem problem = ProblemFor(strategy, global_batch);
  try {
    problem.Validate();
    const TrainingCostModel costs(config, strategy, reference, problem, options.cost);

    // Per-stage straggler windows from the plan (sorted, disjoint per
    // stage — FaultPlan::Validate enforces that). Fail-stops and link
    // faults only add time and are ignored: the bound stays sound.
    std::vector<std::vector<const sim::StragglerFault*>> windows(
        static_cast<std::size_t>(problem.stages));
    if (options.fault_plan) {
      for (const sim::StragglerFault& fault : options.fault_plan->stragglers) {
        if (fault.stage >= 0 && fault.stage < problem.stages) {
          windows[static_cast<std::size_t>(fault.stage)].push_back(&fault);
        }
      }
      for (auto& stage_windows : windows) {
        std::sort(stage_windows.begin(), stage_windows.end(),
                  [](const auto* a, const auto* b) { return a->begin < b->begin; });
      }
    }

    Seconds bound = 0;
    for (int stage = 0; stage < problem.stages; ++stage) {
      Seconds busy = 0;
      for (int chunk = 0; chunk < problem.num_chunks(); ++chunk) {
        if (problem.stage_of_chunk(chunk) != stage) {
          continue;
        }
        for (int slice = 0; slice < problem.slices; ++slice) {
          busy += costs.ComputeTime({sched::OpKind::kForward, 0, slice, chunk});
          busy += costs.ComputeTime({sched::OpKind::kBackward, 0, slice, chunk});
          if (problem.split_backward) {
            busy += costs.ComputeTime({sched::OpKind::kWeightGrad, 0, slice, chunk});
          }
        }
      }
      busy *= problem.micros;
      // Earliest instant a stage working gap-free from t=0 finishes
      // `busy` seconds of clean work, with straggler windows dilating
      // progress by their slowdown factor.
      Seconds t = 0;
      Seconds remaining = busy;
      for (const sim::StragglerFault* fault : windows[static_cast<std::size_t>(stage)]) {
        if (remaining <= 0) {
          break;
        }
        if (fault->begin > t) {
          const Seconds clean = fault->begin - t;
          if (remaining <= clean) {
            t += remaining;
            remaining = 0;
            break;
          }
          remaining -= clean;
          t = fault->begin;
        }
        const Seconds window = std::max(0.0, fault->end - t);
        const Seconds capacity = window / std::max(fault->slowdown, 1.0);
        if (remaining <= capacity) {
          t += remaining * std::max(fault->slowdown, 1.0);
          remaining = 0;
          break;
        }
        remaining -= capacity;
        t = std::max(t, fault->end);
      }
      t += std::max(0.0, remaining);
      bound = std::max(bound, t);
    }
    // Overlapped DP sync can hide in bubbles entirely, so only the
    // serialized sync adds to the bound.
    const Seconds dp_sync =
        options.dp_overlap ? 0.0 : SerializedDpSync(costs, topology, placement, {});
    return bound + dp_sync + options.optimizer_step;
  } catch (const CheckError&) {
    return std::nullopt;  // let the full evaluation explain why
  }
}

}  // namespace mepipe::core
