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

// How a cross-stage transfer is priced, the one place the two replays
// differ: serialized per directed stage link, fault-aware, with spans and
// memory series recorded on request (Simulate); or producer done +
// TransferTime, with no link state, faults or recording
// (SimulatePointToPoint).
enum class Transfers { kSerializedLink, kPointToPoint };

template <Transfers kTransfers>
class Engine {
  static constexpr bool kLinks = kTransfers == Transfers::kSerializedLink;

 public:
  Engine(const sched::Schedule& schedule, const CostModel& costs, const EngineOptions& options)
      : schedule_(schedule),
        problem_(schedule.problem),
        costs_(costs),
        options_(options),
        slots_(problem_),
        done_(slots_.count(), kNotDone),
        lanes_(static_cast<std::size_t>(problem_.stages)) {
    if (!options_.activation_budget.empty()) {
      MEPIPE_CHECK_EQ(options_.activation_budget.size(),
                      static_cast<std::size_t>(problem_.stages))
          << "activation_budget must have one entry per stage";
      for (Bytes budget : options_.activation_budget) {
        MEPIPE_CHECK_GE(budget, 0) << "negative activation budget";
      }
    }
    if constexpr (kLinks) {
      transfer_arrival_.assign(slots_.count(), kNotDone);
      link_free_.assign(static_cast<std::size_t>(problem_.stages) *
                            static_cast<std::size_t>(problem_.stages),
                        0.0);
      if (options_.dp_overlap && options_.dp_link_shared) {
        fabric_busy_.resize(static_cast<std::size_t>(problem_.stages));
      }
      if (options_.fault_plan) {
        faulty_.emplace(costs, options_.fault_plan, problem_.stages);
      }
    } else {
      MEPIPE_CHECK(!options_.fault_plan) << "point-to-point replay takes no fault plan";
      MEPIPE_CHECK(!options_.dp_link_shared)
          << "point-to-point replay does not model a shared DP fabric";
      MEPIPE_CHECK(!options_.record_timeline) << "point-to-point replay records no timeline";
      MEPIPE_CHECK(!options_.record_memory_timeline)
          << "point-to-point replay records no memory series";
    }
  }

  SimResult Run();

 private:
  // One stage's replay state. Its clock only moves forward and ends at
  // the stage's last compute end.
  struct Lane {
    std::size_t cursor = 0;        // next op of its program order
    Seconds clock = 0;             // when its compute stream is next free
    std::deque<WgradItem> wqueue;  // deferred W work in B-completion order
    Bytes current_bytes = 0;       // resident activations + act-grads
    Bytes peak_bytes = 0;
    std::vector<MemoryPoint> memory;  // only under record_memory_timeline
    Seconds busy = 0;
    Seconds first_start = std::numeric_limits<Seconds>::infinity();
    int overflow_count = 0;
    Bytes overflow_bytes = 0;
  };

  Lane& LaneOf(int stage) { return lanes_[static_cast<std::size_t>(stage)]; }
  Seconds DoneTime(const OpId& op) const { return done_[slots_(op)]; }
  void SetDone(const OpId& op, Seconds time) { done_[slots_(op)] = time; }

  // Arrival time of `producer`'s output at the consuming stage, applying
  // per-directed-link serialization (kSerializedLink only). Memoized (each
  // producer feeds one consumer). Under a shared DP fabric the transfer
  // also claims both endpoints' fabric for its duration (RunDpSync sorts
  // and merges).
  Seconds TransferArrival(const OpId& producer) {
    Seconds& memo = transfer_arrival_[slots_(producer)];
    if (memo != kNotDone) {
      return memo;
    }
    const Seconds done = DoneTime(producer);
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

  // Earliest start of `op` once DepsDone(op) holds.
  Seconds ReadyTime(const OpId& op) {
    Seconds ready = 0.0;
    sched::ForEachDependency(problem_, op, [&](const Dep& dep) {
      if constexpr (kLinks) {
        ready = std::max(ready, dep.cross_stage ? TransferArrival(dep.op) : DoneTime(dep.op));
      } else {
        const Seconds done = DoneTime(dep.op);
        ready = std::max(ready, dep.cross_stage ? done + costs_.TransferTime(dep.op) : done);
      }
    });
    return ready;
  }

  bool DepsDone(const OpId& op) const {
    bool all = true;
    sched::ForEachDependency(problem_, op, [&](const Dep& dep) {
      all = all && DoneTime(dep.op) != kNotDone;
    });
    return all;
  }

  // Fault-aware pricing: where a compute op started at `start` finishes.
  Seconds ComputeEnd(int stage, const OpId& op, Seconds start) const {
    if constexpr (kLinks) {
      if (faulty_) {
        return faulty_->ComputeEndAt(stage, op, start);
      }
    }
    return start + costs_.ComputeTime(op);
  }

  // First instant >= t the stage may start work (skips fail-stop downtime).
  Seconds StartAt(Seconds t) const {
    if constexpr (kLinks) {
      if (faulty_) {
        return faulty_->NextUpTime(t);
      }
    }
    return t;
  }

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
    if constexpr (kLinks) {
      if (options_.record_timeline) {
        timeline_.push_back({stage, op, start, end, /*is_transfer=*/false});
      }
    }
    Lane& lane = LaneOf(stage);
    lane.busy += end - start;
    lane.first_start = std::min(lane.first_start, start);
  }

  // Applies a resident-byte change at `time`. A stage's clock never runs
  // backwards, so its changes arrive in time order: the running peak is
  // the peak of the series, and equal timestamps merge into one point.
  void AddMem(int stage, Seconds time, Bytes delta) {
    Lane& lane = LaneOf(stage);
    lane.current_bytes += delta;
    lane.peak_bytes = std::max(lane.peak_bytes, lane.current_bytes);
    if (kLinks && options_.record_memory_timeline) {
      auto& series = lane.memory;
      if (!series.empty() && series.back().time == time) {
        series.back().bytes = lane.current_bytes;
      } else {
        series.push_back({time, lane.current_bytes});
      }
    }
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
    auto& queue = LaneOf(stage).wqueue;
    Seconds& clock = LaneOf(stage).clock;
    while (!queue.empty()) {
      WgradItem& item = queue.front();
      if (item.available > clock + kEps) {
        break;
      }
      const OpId gemm_op{OpKind::kWeightGradGemm, item.op.micro, item.op.slice, item.op.chunk,
                         item.next_gemm, item.op.job};
      const OpId& exec_op = item.gemm_count > 1 ? gemm_op : item.op;
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
    Lane& lane = LaneOf(stage);
    while (!lane.wqueue.empty() && lane.current_bytes + incoming > budget) {
      DrainWgradItem(stage, lane.wqueue.front());
      lane.wqueue.pop_front();
    }
    const Bytes resident = lane.current_bytes + incoming;
    if (resident > budget) {
      const Bytes overflow = resident - budget;
      MEPIPE_CHECK(!options_.strict_activation_budget)
          << "stage " << stage << " exceeds its activation budget by " << overflow
          << " bytes with no deferred W work left to drain";
      ++lane.overflow_count;
      lane.overflow_bytes = std::max(lane.overflow_bytes, overflow);
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
            kLinks && options_.dp_link_shared
                ? advance(fabric_busy_[static_cast<std::size_t>(stage)], start,
                          costs_.DpSyncTime(bucket))
                : start + costs_.DpSyncTime(bucket);
        if constexpr (kLinks) {
          if (options_.record_timeline) {
            timeline_.push_back({stage, bucket, start, end, /*is_transfer=*/true});
          }
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
    Seconds& clock = LaneOf(stage).clock;
    clock = std::max(clock, item.available);
    do {
      const OpId gemm_op{OpKind::kWeightGradGemm, item.op.micro, item.op.slice, item.op.chunk,
                         item.next_gemm, item.op.job};
      const OpId& exec_op = item.gemm_count > 1 ? gemm_op : item.op;
      const Seconds start = StartAt(clock);
      const Seconds end = ComputeEnd(stage, exec_op, start);
      RecordCompute(stage, exec_op, start, end);
      clock = end;
    } while (++item.next_gemm < item.gemm_count);
    SetDone(item.op, clock);
    ReleaseSlice(stage, item.op, clock, /*release_act_grad=*/true);
  }

  const sched::Schedule& schedule_;
  const sched::PipelineProblem& problem_;
  const CostModel& costs_;
  const EngineOptions& options_;

  // Event arenas: completion times and memoized transfer arrivals live
  // in dense per-op vectors over sched::OpSlots (kNotDone sentinel)
  // instead of hash maps, and the per-directed-link free times in a flat
  // stages × stages matrix. One allocation each up front; the hot loop
  // does index arithmetic only.
  const sched::OpSlots slots_;
  std::vector<Seconds> done_;
  std::vector<Lane> lanes_;
  // kSerializedLink only: transfer memo, link matrix, spans, fabric-busy
  // intervals (one entry per stage only under dp_overlap &&
  // dp_link_shared) and the fault-aware cost model.
  std::vector<Seconds> transfer_arrival_;
  std::vector<double> link_free_;
  std::vector<OpSpan> timeline_;
  std::vector<std::vector<std::pair<Seconds, Seconds>>> fabric_busy_;
  // Deferred-W GEMM counts by slot; filled only by RecordedSpanCount.
  std::vector<int> gemm_counts_;
  std::optional<FaultyCostModel> faulty_;
};

template <Transfers kTransfers>
SimResult Engine<kTransfers>::Run() {
  std::size_t remaining = 0;
  for (const auto& ops : schedule_.stage_ops) {
    remaining += ops.size();
  }
  if constexpr (kLinks) {
    if (options_.record_timeline) {
      timeline_.reserve(RecordedSpanCount());
    }
  }

  while (remaining > 0) {
    bool progress = false;
    for (int stage = 0; stage < problem_.stages; ++stage) {
      auto& cursor = LaneOf(stage).cursor;
      const auto& ops = schedule_.stage_ops[static_cast<std::size_t>(stage)];
      Seconds& clock = LaneOf(stage).clock;
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
                  LaneOf(stage).wqueue.push_back(item);
                }
              }
            }
            break;
          case OpKind::kWeightGrad:
            // Statically placed W (non-deferred split schedules).
            ReleaseSlice(stage, op, end, /*release_act_grad=*/true);
            break;
          case OpKind::kWeightGradGemm:
          case OpKind::kDpSync:
            MEPIPE_CHECK(false) << "per-GEMM and DP-sync ops never appear in static orders";
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
    auto& queue = LaneOf(stage).wqueue;
    while (!queue.empty()) {
      DrainWgradItem(stage, queue.front());
      queue.pop_front();
    }
  }

  SimResult result;
  for (const Lane& lane : lanes_) {
    result.makespan = std::max(result.makespan, lane.clock);
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
    Lane& lane = LaneOf(stage);
    metrics.busy = lane.busy;
    metrics.bubble_ratio =
        result.makespan > 0 ? 1.0 - metrics.busy / result.makespan : 0.0;
    const Seconds first = lane.first_start;
    const Seconds last = lane.clock;
    if (first <= last) {  // the stage ran at least one compute op
      metrics.warmup_idle = first;
      metrics.steady_idle = std::max(0.0, (last - first) - metrics.busy);
      metrics.drain_idle = std::max(0.0, result.makespan - last);
    } else {
      metrics.warmup_idle = result.makespan;  // never ran: all warmup
    }
    metrics.budget_violations = lane.overflow_count;
    metrics.budget_overflow_bytes = lane.overflow_bytes;
    metrics.dp_sync = dp_busy[static_cast<std::size_t>(stage)];
    metrics.peak_activation = lane.peak_bytes;
    result.budget_violations += metrics.budget_violations;
    bubble_sum += metrics.bubble_ratio;
    result.peak_activation = std::max(result.peak_activation, metrics.peak_activation);
    if (options_.record_memory_timeline) {
      result.memory_timeline.push_back(std::move(lane.memory));
    }
  }
  result.bubble_ratio = problem_.stages > 0 ? bubble_sum / problem_.stages : 0.0;
  if constexpr (kLinks) {
    if (faulty_) {
      result.fault_spans = faulty_->Spans();
    }
    result.timeline = std::move(timeline_);
    std::sort(result.timeline.begin(), result.timeline.end(),
              [](const OpSpan& a, const OpSpan& b) {
                return a.start < b.start || (a.start == b.start && a.stage < b.stage);
              });
  }
  return result;
}

}  // namespace

SimResult Simulate(const sched::Schedule& schedule, const CostModel& costs,
                   const EngineOptions& options) {
  sched::ValidateSchedule(schedule);
  return Engine<Transfers::kSerializedLink>(schedule, costs, options).Run();
}

SimResult Simulate(const sched::ValidatedSchedule& schedule, const CostModel& costs,
                   const EngineOptions& options) {
  return Engine<Transfers::kSerializedLink>(*schedule, costs, options).Run();
}

SimResult SimulatePointToPoint(const sched::Schedule& schedule, const CostModel& costs,
                               const EngineOptions& options) {
  return Engine<Transfers::kPointToPoint>(schedule, costs, options).Run();
}

}  // namespace mepipe::sim
