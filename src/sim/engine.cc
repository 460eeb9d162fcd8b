#include "sim/engine.h"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "sched/dependency.h"

namespace mepipe::sim {
namespace {

using sched::Dep;
using sched::OpId;
using sched::OpKind;

constexpr double kEps = 1e-12;

// Sentinel for "not recorded yet" in the dense time arenas below. All
// recorded times are >= 0, so the comparison is exact.
constexpr Seconds kNotDone = -1.0;

// A deferred weight-gradient work item, optionally split into GEMMs.
struct WgradItem {
  OpId op;               // the kWeightGrad identity
  Seconds available = 0; // its B's completion time
  int next_gemm = 0;
  int gemm_count = 1;    // 1 when executed as a whole-W task
};

struct MemEvent {
  Seconds time = 0;
  Bytes delta = 0;
};

class Engine {
 public:
  Engine(const sched::Schedule& schedule, const CostModel& costs, const EngineOptions& options)
      : schedule_(schedule),
        problem_(schedule.problem),
        costs_(costs),
        options_(options),
        slots_(problem_),
        done_(slots_.count(), kNotDone),
        transfer_arrival_(slots_.count(), kNotDone),
        link_free_(static_cast<std::size_t>(problem_.stages) *
                       static_cast<std::size_t>(problem_.stages),
                   0.0),
        cursor_(static_cast<std::size_t>(problem_.stages), 0),
        clock_(static_cast<std::size_t>(problem_.stages), 0.0),
        wqueue_(static_cast<std::size_t>(problem_.stages)),
        mem_events_(static_cast<std::size_t>(problem_.stages)),
        current_bytes_(static_cast<std::size_t>(problem_.stages), 0),
        busy_(static_cast<std::size_t>(problem_.stages), 0.0),
        first_start_(static_cast<std::size_t>(problem_.stages),
                     std::numeric_limits<Seconds>::infinity()),
        last_end_(static_cast<std::size_t>(problem_.stages), 0.0),
        overflow_count_(static_cast<std::size_t>(problem_.stages), 0),
        overflow_bytes_(static_cast<std::size_t>(problem_.stages), 0),
        fabric_busy_(options_.dp_overlap && options_.dp_link_shared
                         ? static_cast<std::size_t>(problem_.stages)
                         : 0) {
    if (!options_.activation_budget.empty()) {
      MEPIPE_CHECK_EQ(options_.activation_budget.size(),
                      static_cast<std::size_t>(problem_.stages))
          << "activation_budget must have one entry per stage";
      for (Bytes budget : options_.activation_budget) {
        MEPIPE_CHECK_GE(budget, 0) << "negative activation budget";
      }
    }
    if (options_.fault_plan) {
      faulty_.emplace(costs, options_.fault_plan, problem_.stages);
    }
  }

  SimResult Run();

 private:
  Seconds DoneTime(const OpId& op) const { return done_[slots_(op)]; }
  bool IsDone(const OpId& op) const { return done_[slots_(op)] != kNotDone; }
  void SetDone(const OpId& op, Seconds time) { done_[slots_(op)] = time; }

  // Arrival time of `producer`'s output at the consuming stage, applying
  // per-directed-link serialization. Memoized (each producer feeds one
  // consumer). Under a shared DP fabric the transfer also claims both
  // endpoints' fabric for its duration (RunDpSync sorts and merges).
  Seconds TransferArrival(const OpId& producer) {
    Seconds& memo = transfer_arrival_[slots_(producer)];
    if (memo != kNotDone) {
      return memo;
    }
    const Seconds done = DoneTime(producer);
    MEPIPE_CHECK(done != kNotDone);
    const int from = problem_.stage_of_chunk(producer.chunk);
    const int to = producer.kind == OpKind::kForward
                       ? problem_.stage_of_chunk(producer.chunk + 1)
                       : problem_.stage_of_chunk(producer.chunk - 1);
    double& link_free = link_free_[static_cast<std::size_t>(from) *
                                       static_cast<std::size_t>(problem_.stages) +
                                   static_cast<std::size_t>(to)];
    Seconds start = std::max(done, link_free);
    Seconds arrival;
    if (faulty_) {
      start = faulty_->NextUpTime(start);
      arrival = faulty_->TransferEndAt(from, to, producer, start);
    } else {
      arrival = start + costs_.TransferTime(producer);
    }
    link_free = arrival;
    if (options_.record_timeline) {
      timeline_.push_back({from, producer, start, arrival, /*is_transfer=*/true});
    }
    if (!fabric_busy_.empty()) {
      fabric_busy_[static_cast<std::size_t>(from)].push_back({start, arrival});
      if (to != from) {
        fabric_busy_[static_cast<std::size_t>(to)].push_back({start, arrival});
      }
    }
    memo = arrival;
    return arrival;
  }

  Seconds ReadyTime(const OpId& op) {
    Seconds ready = 0.0;
    sched::ForEachDependency(problem_, op, [&](const Dep& dep) {
      if (dep.cross_stage) {
        ready = std::max(ready, TransferArrival(dep.op));
      } else {
        const Seconds done = DoneTime(dep.op);
        MEPIPE_CHECK(done != kNotDone);
        ready = std::max(ready, done);
      }
    });
    return ready;
  }

  bool DepsDone(const OpId& op) const {
    bool all = true;
    sched::ForEachDependency(problem_, op, [&](const Dep& dep) {
      all = all && IsDone(dep.op);
    });
    return all;
  }

  // Fault-aware pricing: where a compute op started at `start` finishes.
  Seconds ComputeEnd(int stage, const OpId& op, Seconds start) const {
    return faulty_ ? faulty_->ComputeEndAt(stage, op, start)
                   : start + costs_.ComputeTime(op);
  }

  // First instant >= t the stage may start work (skips fail-stop downtime).
  Seconds StartAt(Seconds t) const { return faulty_ ? faulty_->NextUpTime(t) : t; }

  // Per-GEMM split of deferred W `w` (1 unless kFillGemms). Each W is
  // queried once: up front when a recorded run sizes its timeline,
  // otherwise when its B completes.
  int GemmCount(const OpId& w) const {
    if (options_.wgrad_mode != WgradMode::kFillGemms) {
      return 1;
    }
    return gemm_counts_.empty() ? costs_.WeightGradGemmCount(w) : gemm_counts_[slots_(w)];
  }

  // Spans a recorded run stores: one per static op, one per deferred W
  // task or W GEMM, one per cross-stage producer, at most one per DP
  // bucket. Fills gemm_counts_ on the way.
  std::size_t RecordedSpanCount() {
    const int last_chunk = problem_.num_chunks() - 1;
    if (schedule_.deferred_wgrad && options_.wgrad_mode == WgradMode::kFillGemms) {
      gemm_counts_.assign(slots_.count(), 0);
    }
    std::size_t spans = options_.dp_overlap ? static_cast<std::size_t>(last_chunk + 1) : 0;
    for (const auto& ops : schedule_.stage_ops) {
      for (const OpId& op : ops) {
        ++spans;
        const int stage = problem_.stage_of_chunk(op.chunk);
        if (op.kind == OpKind::kForward) {
          if (op.chunk < last_chunk && problem_.stage_of_chunk(op.chunk + 1) != stage) {
            ++spans;
          }
        } else if (op.kind == OpKind::kBackward) {
          if (op.chunk > 0 && problem_.stage_of_chunk(op.chunk - 1) != stage) {
            ++spans;
          }
          if (schedule_.deferred_wgrad) {
            const OpId w{OpKind::kWeightGrad, op.micro, op.slice, op.chunk, -1, op.job};
            if (!gemm_counts_.empty()) {
              gemm_counts_[slots_(w)] = costs_.WeightGradGemmCount(w);
            }
            spans += static_cast<std::size_t>(GemmCount(w));
          }
        }
      }
    }
    return spans;
  }

  void RecordCompute(int stage, const OpId& op, Seconds start, Seconds end) {
    if (options_.record_timeline) {
      timeline_.push_back({stage, op, start, end, /*is_transfer=*/false});
    }
    busy_[static_cast<std::size_t>(stage)] += end - start;
    first_start_[static_cast<std::size_t>(stage)] =
        std::min(first_start_[static_cast<std::size_t>(stage)], start);
    last_end_[static_cast<std::size_t>(stage)] =
        std::max(last_end_[static_cast<std::size_t>(stage)], end);
  }

  void AddMem(int stage, Seconds time, Bytes delta) {
    mem_events_[static_cast<std::size_t>(stage)].push_back({time, delta});
    current_bytes_[static_cast<std::size_t>(stage)] += delta;
  }

  // Releases the activation (and act-grad) footprint of (micro, slice,
  // chunk) at `time` on `stage`.
  void ReleaseSlice(int stage, const OpId& op, Seconds time, bool release_act_grad) {
    const OpId forward{OpKind::kForward, op.micro, op.slice, op.chunk, -1, op.job};
    AddMem(stage, time, -costs_.ActivationBytes(forward));
    if (release_act_grad) {
      const OpId backward{OpKind::kBackward, op.micro, op.slice, op.chunk, -1, op.job};
      AddMem(stage, time, -costs_.ActGradBytes(backward));
    }
  }

  // Executes W items from the stage's queue into the idle window
  // [clock, until). Never overshoots `until`.
  void FillWgrad(int stage, Seconds until) {
    if (options_.wgrad_mode == WgradMode::kImmediate) {
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
      const OpId exec_op = item.gemm_count > 1 ? gemm_op : item.op;
      const Seconds start = StartAt(clock);
      const Seconds end = ComputeEnd(stage, exec_op, start);
      if (end > until + kEps) {
        break;  // does not fit in the bubble
      }
      RecordCompute(stage, exec_op, start, end);
      clock = end;
      if (++item.next_gemm >= item.gemm_count) {
        SetDone(item.op, clock);
        ReleaseSlice(stage, item.op, clock, /*release_act_grad=*/true);
        queue.pop_front();
      }
    }
  }

  // Frees memory by draining deferred W items until `incoming` more bytes
  // fit within the stage's activation budget (no-op when unbudgeted).
  // When the queue runs dry with the stage still over budget, the
  // allocation is admitted and the violation recorded — or, under
  // strict_activation_budget, the engine throws.
  void DrainForBudget(int stage, Bytes incoming) {
    if (options_.activation_budget.empty()) {
      return;
    }
    const Bytes budget = options_.activation_budget[static_cast<std::size_t>(stage)];
    if (budget <= 0) {
      return;  // 0 = this stage is unbudgeted
    }
    auto& queue = wqueue_[static_cast<std::size_t>(stage)];
    while (!queue.empty() &&
           current_bytes_[static_cast<std::size_t>(stage)] + incoming > budget) {
      DrainWgradItem(stage, queue.front());
      queue.pop_front();
    }
    const Bytes resident = current_bytes_[static_cast<std::size_t>(stage)] + incoming;
    if (resident > budget) {
      const Bytes overflow = resident - budget;
      MEPIPE_CHECK(!options_.strict_activation_budget)
          << "stage " << stage << " exceeds its activation budget by " << overflow
          << " bytes with no deferred W work left to drain";
      ++overflow_count_[static_cast<std::size_t>(stage)];
      overflow_bytes_[static_cast<std::size_t>(stage)] =
          std::max(overflow_bytes_[static_cast<std::size_t>(stage)], overflow);
    }
  }

  // Schedules every stage's DP gradient buckets on that stage's comm
  // stream against the finished timeline. Each bucket starts at
  // max(stream free, last gradient producer done); with dp_link_shared
  // its transmission is additionally suspended while pipeline transfers
  // touching the stage hold the fabric. Fills result.dp and, per stage,
  // dp_busy. Correctness of the hidden/exposed split: every bucket
  // dependency and every pipeline transfer ends by result.makespan, so
  // past the makespan the stream runs gap-free and unstretched — the
  // exposed tail per stage is at most that stage's summed bucket cost,
  // hence exposed <= serialized and hidden >= 0.
  void RunDpSync(SimResult& result, std::vector<Seconds>& dp_busy) {
    // Merge each stage's fabric-busy intervals (either endpoint of a
    // pipeline transfer contends with that stage's DP ring).
    for (auto& intervals : fabric_busy_) {
      std::sort(intervals.begin(), intervals.end());
      std::vector<std::pair<Seconds, Seconds>> merged;
      for (const auto& interval : intervals) {
        if (!merged.empty() && interval.first <= merged.back().second) {
          merged.back().second = std::max(merged.back().second, interval.second);
        } else {
          merged.push_back(interval);
        }
      }
      intervals = std::move(merged);
    }
    // End of a transmission of `work` seconds entering at `start`,
    // suspended across the sorted disjoint busy `intervals`.
    const auto advance = [](const std::vector<std::pair<Seconds, Seconds>>& intervals,
                            Seconds start, Seconds work) {
      Seconds t = start;
      Seconds remaining = work;
      for (const auto& [begin, end] : intervals) {
        if (end <= t) {
          continue;  // already past this interval
        }
        if (t + remaining <= begin) {
          break;  // finishes before the fabric is next claimed
        }
        if (t >= begin) {
          t = end;  // entered mid-interval: wait it out
          continue;
        }
        remaining -= begin - t;  // transmit until the pipeline claims the link
        t = end;                 // suspended while its transfer runs
      }
      return t + remaining;
    };

    for (int stage = 0; stage < problem_.stages; ++stage) {
      std::vector<std::pair<Seconds, OpId>> buckets;  // (ready, bucket)
      Seconds total = 0;
      for (const OpId& bucket : sched::DpSyncOps(problem_, stage, schedule_.job)) {
        const Seconds duration = costs_.DpSyncTime(bucket);
        if (duration <= 0) {
          continue;  // the model does not price this bucket
        }
        Seconds ready = 0;
        sched::ForEachDependency(problem_, bucket, [&](const Dep& dep) {
          const Seconds done = DoneTime(dep.op);
          MEPIPE_CHECK(done != kNotDone)
              << "DP bucket scheduled before its gradients completed";
          ready = std::max(ready, done);
        });
        buckets.push_back({ready, bucket});
        total += duration;
      }
      // NCCL-style launch order: buckets enqueue as their gradients
      // become ready (stable on chunk order for deterministic ties).
      std::stable_sort(buckets.begin(), buckets.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      Seconds stream = 0;
      for (const auto& [ready, bucket] : buckets) {
        const Seconds start = std::max(stream, ready);
        const Seconds end =
            options_.dp_link_shared
                ? advance(fabric_busy_[static_cast<std::size_t>(stage)], start,
                          costs_.DpSyncTime(bucket))
                : start + costs_.DpSyncTime(bucket);
        if (options_.record_timeline) {
          timeline_.push_back({stage, bucket, start, end, /*is_transfer=*/true});
        }
        dp_busy[static_cast<std::size_t>(stage)] += end - start;
        stream = end;
        ++result.dp.buckets;
      }
      result.dp.serialized = std::max(result.dp.serialized, total);
      result.dp.last_end = std::max(result.dp.last_end, stream);
    }
    result.dp.exposed = std::max(0.0, result.dp.last_end - result.makespan);
    result.dp.hidden = std::max(0.0, result.dp.serialized - result.dp.exposed);
  }

  // Runs a W item (whole or remaining GEMMs) to completion immediately.
  void DrainWgradItem(int stage, WgradItem& item) {
    double& clock = clock_[static_cast<std::size_t>(stage)];
    clock = std::max(clock, item.available);
    if (item.gemm_count <= 1) {
      const Seconds start = StartAt(clock);
      const Seconds end = ComputeEnd(stage, item.op, start);
      RecordCompute(stage, item.op, start, end);
      clock = end;
    } else {
      for (; item.next_gemm < item.gemm_count; ++item.next_gemm) {
        const OpId gemm_op{OpKind::kWeightGradGemm, item.op.micro, item.op.slice, item.op.chunk,
                           item.next_gemm, item.op.job};
        const Seconds start = StartAt(clock);
        const Seconds end = ComputeEnd(stage, gemm_op, start);
        RecordCompute(stage, gemm_op, start, end);
        clock = end;
      }
    }
    SetDone(item.op, clock);
    ReleaseSlice(stage, item.op, clock, /*release_act_grad=*/true);
  }

  const sched::Schedule& schedule_;
  const sched::PipelineProblem& problem_;
  const CostModel& costs_;
  EngineOptions options_;

  // Event arenas: completion times and memoized transfer arrivals live
  // in dense per-op vectors over sched::OpSlots (kNotDone sentinel)
  // instead of hash maps, and the per-directed-link free times in a flat
  // stages × stages matrix. One allocation each up front; the hot loop
  // does index arithmetic only.
  const sched::OpSlots slots_;
  std::vector<Seconds> done_;
  std::vector<Seconds> transfer_arrival_;
  std::vector<double> link_free_;
  std::vector<std::size_t> cursor_;
  std::vector<double> clock_;
  std::vector<std::deque<WgradItem>> wqueue_;
  std::vector<std::vector<MemEvent>> mem_events_;
  std::vector<Bytes> current_bytes_;
  std::vector<Seconds> busy_;
  std::vector<Seconds> first_start_;
  std::vector<Seconds> last_end_;
  std::vector<int> overflow_count_;
  std::vector<Bytes> overflow_bytes_;
  std::vector<OpSpan> timeline_;
  // Per-stage fabric-busy intervals; one entry per stage only under
  // dp_overlap && dp_link_shared.
  std::vector<std::vector<std::pair<Seconds, Seconds>>> fabric_busy_;
  // Deferred-W GEMM counts by slot; filled only by RecordedSpanCount.
  std::vector<int> gemm_counts_;
  std::optional<FaultyCostModel> faulty_;
};

SimResult Engine::Run() {
  std::size_t remaining = 0;
  for (const auto& ops : schedule_.stage_ops) {
    remaining += ops.size();
  }
  if (options_.record_timeline) {
    timeline_.reserve(RecordedSpanCount());
  }
  for (auto& events : mem_events_) {
    events.reserve(2 * remaining / std::max(1, problem_.stages));
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
        const Seconds start = StartAt(std::max(clock, ready));
        const Seconds end = ComputeEnd(stage, op, start);
        RecordCompute(stage, op, start, end);
        clock = end;
        SetDone(op, end);

        switch (op.kind) {
          case OpKind::kForward:
            AddMem(stage, end, costs_.ActivationBytes(op));
            break;
          case OpKind::kBackward:
            if (!problem_.split_backward) {
              ReleaseSlice(stage, op, end, /*release_act_grad=*/false);
            } else {
              AddMem(stage, end, costs_.ActGradBytes(op));
              if (schedule_.deferred_wgrad) {
                const OpId w{OpKind::kWeightGrad, op.micro, op.slice, op.chunk, -1, op.job};
                WgradItem item{w, end, 0, GemmCount(w)};
                if (options_.wgrad_mode == WgradMode::kImmediate) {
                  DrainWgradItem(stage, item);
                } else {
                  wqueue_[static_cast<std::size_t>(stage)].push_back(item);
                }
              }
            }
            break;
          case OpKind::kWeightGrad:
            // Statically placed W (non-deferred split schedules).
            ReleaseSlice(stage, op, end, /*release_act_grad=*/true);
            break;
          case OpKind::kWeightGradGemm:
            MEPIPE_CHECK(false) << "per-GEMM ops cannot appear in static orders";
            break;
          case OpKind::kDpSync:
            MEPIPE_CHECK(false) << "DP-sync ops run on comm streams, never in static orders";
            break;
        }
        ++cursor;
        --remaining;
        progress = true;
      }
    }
    MEPIPE_CHECK(progress) << "engine wedged with " << remaining
                           << " ops left — schedule validation should have caught this";
  }

  // Drain any weight-gradient work still queued (zero-bubble tail).
  for (int stage = 0; stage < problem_.stages; ++stage) {
    auto& queue = wqueue_[static_cast<std::size_t>(stage)];
    while (!queue.empty()) {
      DrainWgradItem(stage, queue.front());
      queue.pop_front();
    }
  }

  SimResult result;
  for (const Seconds end : last_end_) {
    result.makespan = std::max(result.makespan, end);
  }

  // Overlapped data-parallel gradient sync: a post-pass over the now
  // fixed compute/transfer timeline. Buckets only read completed
  // gradients, and under dp_link_shared DP yields the fabric to the
  // pipeline, so nothing above moves — how much sync hides in bubbles
  // and how much tail is exposed past the makespan simply emerges.
  std::vector<Seconds> dp_busy(static_cast<std::size_t>(problem_.stages), 0.0);
  if (options_.dp_overlap) {
    RunDpSync(result, dp_busy);
  }

  result.stages.resize(static_cast<std::size_t>(problem_.stages));
  double bubble_sum = 0;
  for (int stage = 0; stage < problem_.stages; ++stage) {
    StageMetrics& metrics = result.stages[static_cast<std::size_t>(stage)];
    metrics.busy = busy_[static_cast<std::size_t>(stage)];
    metrics.bubble_ratio =
        result.makespan > 0 ? 1.0 - metrics.busy / result.makespan : 0.0;
    const Seconds first = first_start_[static_cast<std::size_t>(stage)];
    const Seconds last = last_end_[static_cast<std::size_t>(stage)];
    if (first <= last) {  // the stage ran at least one compute op
      metrics.warmup_idle = first;
      metrics.steady_idle = std::max(0.0, (last - first) - metrics.busy);
      metrics.drain_idle = std::max(0.0, result.makespan - last);
    } else {
      metrics.warmup_idle = result.makespan;  // never ran: all warmup
    }
    metrics.budget_violations = overflow_count_[static_cast<std::size_t>(stage)];
    metrics.budget_overflow_bytes = overflow_bytes_[static_cast<std::size_t>(stage)];
    metrics.dp_sync = dp_busy[static_cast<std::size_t>(stage)];
    result.budget_violations += metrics.budget_violations;
    bubble_sum += metrics.bubble_ratio;

    auto& events = mem_events_[static_cast<std::size_t>(stage)];
    std::stable_sort(events.begin(), events.end(),
                     [](const MemEvent& a, const MemEvent& b) { return a.time < b.time; });
    if (options_.record_memory_timeline && result.memory_timeline.empty()) {
      result.memory_timeline.resize(static_cast<std::size_t>(problem_.stages));
    }
    Bytes current = 0;
    for (const MemEvent& event : events) {
      current += event.delta;
      metrics.peak_activation = std::max(metrics.peak_activation, current);
      if (options_.record_memory_timeline) {
        auto& series = result.memory_timeline[static_cast<std::size_t>(stage)];
        if (!series.empty() && series.back().time == event.time) {
          series.back().bytes = current;  // coalesce simultaneous deltas
        } else {
          series.push_back({event.time, current});
        }
      }
    }
    result.peak_activation = std::max(result.peak_activation, metrics.peak_activation);
  }
  result.bubble_ratio = problem_.stages > 0 ? bubble_sum / problem_.stages : 0.0;
  if (faulty_) {
    result.fault_spans = faulty_->Spans();
  }
  result.timeline = std::move(timeline_);
  std::sort(result.timeline.begin(), result.timeline.end(),
            [](const OpSpan& a, const OpSpan& b) {
              return a.start < b.start || (a.start == b.start && a.stage < b.stage);
            });
  return result;
}

}  // namespace

SimResult Simulate(const sched::Schedule& schedule, const CostModel& costs,
                   const EngineOptions& options) {
  sched::ValidateSchedule(schedule);
  return Engine(schedule, costs, options).Run();
}

SimResult Simulate(const sched::ValidatedSchedule& schedule, const CostModel& costs,
                   const EngineOptions& options) {
  return Engine(*schedule, costs, options).Run();
}

}  // namespace mepipe::sim
