// The static schedule container: a per-stage program order over compute
// ops, plus validation that the order is executable (deadlock-free and
// complete) under the slice-level dependency semantics.
#ifndef MEPIPE_SCHED_SCHEDULE_H_
#define MEPIPE_SCHED_SCHEDULE_H_

#include <memory>
#include <string>
#include <vector>

#include "sched/dependency.h"
#include "sched/op.h"

namespace mepipe::sched {

struct Schedule {
  PipelineProblem problem;
  std::string method;  // e.g. "1F1B", "VPP", "SVPP(f=6)"
  // Program order per stage. Engines execute each stage's list in order,
  // waiting on dependencies; bubbles arise from the waits.
  std::vector<std::vector<OpId>> stage_ops;
  // When true (zero-bubble / MEPipe fine-grained W), kWeightGrad ops are
  // NOT part of `stage_ops`; the execution engine schedules them
  // dynamically into bubbles and drains the remainder at iteration end.
  bool deferred_wgrad = false;
  // Owning training job (core/cluster's multi-job dimension). 0 =
  // untagged single-job schedule, the state every generator produces;
  // TagJob stamps this together with every OpId::job so validation and
  // execution agree on the tag.
  int job = 0;
};

// Stamps `job` onto the schedule and every op in its program orders.
// Generators always emit job=0; the cluster service tags each admitted
// job's winning schedule so interleaved multi-job timelines stay
// attributable. Idempotent; `job` must be >= 0.
void TagJob(Schedule& schedule, int job);

// Throws CheckError when the schedule is malformed: wrong op multiset per
// stage, ops on the wrong stage, or a program order that deadlocks under
// the dependency semantics.
void ValidateSchedule(const Schedule& schedule);

// A schedule that passed ValidateSchedule, frozen behind a shared
// immutable handle: the proof sim::Simulate accepts in place of its own
// check. Every handle is minted by validating — by the public
// constructor, or by ScheduleMemo (sched/memo.h) around a sched/
// constructor that validated what it built — and its schedule can never
// change afterwards, so the proof cannot go stale. Copies share one
// schedule. Editing (TagJob, a straggler re-plan) works on a copy of
// *handle, which must be validated again to become a handle.
class ValidatedSchedule {
 public:
  // Runs ValidateSchedule (throws CheckError) and freezes `schedule`.
  explicit ValidatedSchedule(Schedule schedule);

  const Schedule& operator*() const { return *schedule_; }
  const Schedule* operator->() const { return schedule_.get(); }

 private:
  friend class ScheduleMemo;
  struct Trusted {};
  ValidatedSchedule(Schedule schedule, Trusted)
      : schedule_(std::make_shared<const Schedule>(std::move(schedule))) {}

  std::shared_ptr<const Schedule> schedule_;
};

// Index of the first backward op in `stage`'s program order (the paper's
// "number of forward passes before the first backward" when all earlier
// entries are forwards). Returns the list size if no backward exists.
std::size_t FirstBackwardIndex(const Schedule& schedule, int stage);

// Peak number of forward passes whose activations are simultaneously
// retained on `stage`, assuming program order (+1 on F, -1 on the
// releasing op: B when not split, W when split with deferred_wgrad=false;
// with deferred W the activation survives until iteration end in the
// worst case, so the count releases on B only as a lower bound).
int PeakRetainedForwards(const Schedule& schedule, int stage);

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_SCHEDULE_H_
