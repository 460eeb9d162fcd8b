#include "sched/schedule.h"

#include <algorithm>

#include "common/check.h"

namespace mepipe::sched {

void TagJob(Schedule& schedule, int job) {
  MEPIPE_CHECK_GE(job, 0);
  schedule.job = job;
  for (auto& ops : schedule.stage_ops) {
    for (OpId& op : ops) {
      op.job = job;
    }
  }
}

ValidatedSchedule::ValidatedSchedule(Schedule schedule) {
  ValidateSchedule(schedule);
  schedule_ = std::make_shared<const Schedule>(std::move(schedule));
}

void ValidateSchedule(const Schedule& schedule) {
  const PipelineProblem& problem = schedule.problem;
  problem.Validate();
  MEPIPE_CHECK_EQ(static_cast<int>(schedule.stage_ops.size()), problem.stages);
  if (schedule.deferred_wgrad) {
    MEPIPE_CHECK(problem.split_backward) << "deferred W requires split backward";
  }
  const OpSlots slots(problem);

  // 1. Each stage's list is exactly the expected op multiset: F and B
  // (plus W when split and not deferred) of every (micro, slice) of each
  // chunk the stage owns, tagged with the schedule's job. Every listed op
  // must be one of those and distinct, so a list of the expected size is
  // the whole set. Range checks precede any indexing.
  const bool static_w = problem.split_backward && !schedule.deferred_wgrad;
  const std::size_t expected = static_cast<std::size_t>(problem.micros) *
                               static_cast<std::size_t>(problem.slices) *
                               static_cast<std::size_t>(problem.virtual_chunks) *
                               (static_w ? 3 : 2);
  std::vector<char> listed(slots.count(), 0);
  for (int stage = 0; stage < problem.stages; ++stage) {
    const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
    bool match = ops.size() == expected;
    for (std::size_t i = 0; match && i < ops.size(); ++i) {
      const OpId& op = ops[i];
      match = op.job == schedule.job && op.gemm == -1 &&
              (op.kind == OpKind::kForward || op.kind == OpKind::kBackward ||
               (op.kind == OpKind::kWeightGrad && static_w)) &&
              op.micro >= 0 && op.micro < problem.micros && op.slice >= 0 &&
              op.slice < problem.slices && op.chunk >= 0 && op.chunk < problem.num_chunks() &&
              problem.stage_of_chunk(op.chunk) == stage && listed[slots(op)] == 0;
      if (match) {
        listed[slots(op)] = 1;
      }
    }
    MEPIPE_CHECK(match) << "stage " << stage << " op multiset mismatch (" << ops.size()
                        << " vs expected " << expected << ")";
  }

  // 2. The program orders are jointly executable: repeatedly advance every
  // stage past ops whose dependencies have completed. W ops removed from
  // the static order (deferred) are treated as always-runnable after their
  // B, which the engine guarantees; they impose no order constraints here.
  std::vector<char> done(slots.count(), 0);
  std::vector<std::size_t> cursor(static_cast<std::size_t>(problem.stages), 0);
  bool progressed = true;
  std::size_t remaining = expected * static_cast<std::size_t>(problem.stages);
  while (progressed && remaining > 0) {
    progressed = false;
    for (int stage = 0; stage < problem.stages; ++stage) {
      auto& index = cursor[static_cast<std::size_t>(stage)];
      const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
      while (index < ops.size()) {
        const OpId& op = ops[index];
        bool ready = true;
        ForEachDependency(problem, op,
                          [&](const Dep& dep) { ready = ready && done[slots(dep.op)] != 0; });
        if (!ready) {
          break;
        }
        done[slots(op)] = 1;
        ++index;
        --remaining;
        progressed = true;
      }
    }
  }
  MEPIPE_CHECK_EQ(remaining, 0u) << "schedule deadlocks: " << remaining
                                 << " ops can never execute under program order";
}

std::size_t FirstBackwardIndex(const Schedule& schedule, int stage) {
  const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kBackward) {
      return i;
    }
  }
  return ops.size();
}

int PeakRetainedForwards(const Schedule& schedule, int stage) {
  const bool release_on_w = schedule.problem.split_backward && !schedule.deferred_wgrad;
  int current = 0;
  int peak = 0;
  for (const OpId& op : schedule.stage_ops[static_cast<std::size_t>(stage)]) {
    switch (op.kind) {
      case OpKind::kForward:
        peak = std::max(peak, ++current);
        break;
      case OpKind::kBackward:
        if (!release_on_w) {
          --current;
        }
        break;
      case OpKind::kWeightGrad:
        if (release_on_w) {
          --current;
        }
        break;
      case OpKind::kWeightGradGemm:
      case OpKind::kDpSync:
        break;
    }
  }
  return peak;
}

}  // namespace mepipe::sched
