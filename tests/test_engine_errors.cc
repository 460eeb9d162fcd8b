// Engine error paths: unsatisfiable schedules, malformed activation
// budgets, and the budget-overflow reporting added for schedules whose
// deferred-W queue cannot free enough memory.
#include <gtest/gtest.h>

#include "common/check.h"
#include "sched/baselines.h"
#include "sim/engine.h"

namespace mepipe::sim {
namespace {

using sched::OpId;
using sched::OpKind;

sched::Schedule TwoStageOneMicro() {
  sched::Schedule schedule;
  schedule.problem.stages = 2;
  schedule.problem.micros = 1;
  schedule.method = "test";
  schedule.stage_ops = {
      {{OpKind::kForward, 0, 0, 0}, {OpKind::kBackward, 0, 0, 0}},
      {{OpKind::kForward, 0, 0, 1}, {OpKind::kBackward, 0, 0, 1}},
  };
  return schedule;
}

TEST(EngineErrors, DeadlockingScheduleThrows) {
  // B before its own F on the last stage can never execute; Simulate must
  // surface this as CheckError (via validation) instead of wedging.
  sched::Schedule schedule = TwoStageOneMicro();
  std::swap(schedule.stage_ops[1][0], schedule.stage_ops[1][1]);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  EXPECT_THROW(Simulate(schedule, costs), CheckError);
}

TEST(EngineErrors, IncompleteScheduleThrows) {
  sched::Schedule schedule = TwoStageOneMicro();
  schedule.stage_ops[0].pop_back();
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  EXPECT_THROW(Simulate(schedule, costs), CheckError);
}

TEST(EngineErrors, HandBuiltAndCorruptedSchedulesAreStillValidated) {
  // Simulate on a plain Schedule always validates: a hand-built order, or
  // a copy of a validated handle edited afterwards, is checked again.
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  const sched::ValidatedSchedule handle(sched::OneFOneBSchedule(4, 8));
  const SimResult trusted = Simulate(handle, costs);
  EXPECT_EQ(trusted.makespan, Simulate(*handle, costs).makespan);

  sched::Schedule corrupted = *handle;
  std::swap(corrupted.stage_ops[3][0], corrupted.stage_ops[3][1]);  // B(0) before F(0)
  EXPECT_THROW(Simulate(corrupted, costs), CheckError);
  corrupted = *handle;
  corrupted.stage_ops[1].push_back(corrupted.stage_ops[1].front());  // duplicate op
  EXPECT_THROW(Simulate(corrupted, costs), CheckError);
  // Re-tagging the copy of a job-0 handle leaves one op behind: caught.
  corrupted = *handle;
  sched::TagJob(corrupted, 2);
  corrupted.stage_ops[0][0].job = 0;
  EXPECT_THROW(Simulate(corrupted, costs), CheckError);
  // Validating a corrupted schedule into a handle throws too.
  EXPECT_THROW(sched::ValidatedSchedule{corrupted}, CheckError);
  sched::Schedule hand = TwoStageOneMicro();
  hand.stage_ops[0].pop_back();
  EXPECT_THROW(Simulate(hand, costs), CheckError);
  EXPECT_THROW(sched::ValidatedSchedule{hand}, CheckError);
  // The handle itself never changed.
  EXPECT_EQ(Simulate(handle, costs).makespan, trusted.makespan);
  EXPECT_EQ(handle->job, 0);
}

TEST(EngineErrors, PointToPointReplayRejectsWhatItDoesNotModel) {
  // The point-to-point instance has no faults, link state or recording;
  // options asking for them throw instead of being ignored.
  const sched::Schedule schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.1);
  EngineOptions clean;
  clean.record_timeline = false;
  EXPECT_NO_THROW(SimulatePointToPoint(schedule, costs, clean));
  EngineOptions timeline;  // record_timeline defaults to true
  EXPECT_THROW(SimulatePointToPoint(schedule, costs, timeline), CheckError);
  EngineOptions memory = clean;
  memory.record_memory_timeline = true;
  EXPECT_THROW(SimulatePointToPoint(schedule, costs, memory), CheckError);
  EngineOptions shared = clean;
  shared.dp_overlap = true;
  shared.dp_link_shared = true;
  EXPECT_THROW(SimulatePointToPoint(schedule, costs, shared), CheckError);
  EngineOptions faulted = clean;
  FaultPlan plan;
  plan.stragglers.push_back({0, 0.0, 1.0, 2.0});
  faulted.fault_plan = plan;
  EXPECT_THROW(SimulatePointToPoint(schedule, costs, faulted), CheckError);
}

TEST(EngineErrors, NegativeBudgetThrows) {
  const auto schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  EngineOptions options;
  options.activation_budget = {-1, 100};
  EXPECT_THROW(Simulate(schedule, costs, options), CheckError);
}

TEST(EngineErrors, WrongBudgetArityThrows) {
  const auto schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  EngineOptions options;
  options.activation_budget = {100};  // 2 stages
  EXPECT_THROW(Simulate(schedule, costs, options), CheckError);
}

TEST(EngineErrors, ZeroBudgetMeansUnbudgeted) {
  const auto schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  EngineOptions options;
  options.activation_budget = {0, 0};
  const SimResult result = Simulate(schedule, costs, options);
  EXPECT_EQ(result.budget_violations, 0);
  EXPECT_DOUBLE_EQ(result.makespan, Simulate(schedule, costs).makespan);
}

TEST(EngineErrors, OverflowRecordedWhenQueueCannotHelp) {
  // 1F1B without split backward has no deferred-W queue: a budget below
  // one activation can never be met. The engine must admit the ops and
  // report the violation instead of silently proceeding.
  const auto schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  EngineOptions options;
  options.activation_budget = {5, 5};
  const SimResult result = Simulate(schedule, costs, options);
  // Stage 0 retains two forwards (overflow 5 then 15); stage 1 releases
  // each backward before the next forward (overflow 5 twice).
  EXPECT_EQ(result.budget_violations, 4);
  EXPECT_EQ(result.stages[0].budget_violations, 2);
  EXPECT_EQ(result.stages[0].budget_overflow_bytes, 15);
  EXPECT_EQ(result.stages[1].budget_violations, 2);
  EXPECT_EQ(result.stages[1].budget_overflow_bytes, 5);
  // The timeline itself is unchanged — violations are bookkeeping.
  EXPECT_DOUBLE_EQ(result.makespan, Simulate(schedule, costs).makespan);
}

TEST(EngineErrors, StrictBudgetThrows) {
  const auto schedule = sched::OneFOneBSchedule(2, 2);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  EngineOptions options;
  options.activation_budget = {5, 5};
  options.strict_activation_budget = true;
  EXPECT_THROW(Simulate(schedule, costs, options), CheckError);
}

TEST(EngineErrors, SufficientBudgetReportsNoViolation) {
  // A zero-bubble schedule under a budget the deferred-W drain can honour
  // must stay violation-free.
  const auto schedule = sched::Zb1pSchedule(4, 8);
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.0, /*act_bytes=*/1,
                               /*act_grad_bytes=*/1, /*wgrad_gemms=*/2);
  EngineOptions options;
  options.activation_budget = {100, 100, 100, 100};
  options.strict_activation_budget = true;  // would throw on any violation
  const SimResult result = Simulate(schedule, costs, options);
  EXPECT_EQ(result.budget_violations, 0);
  for (const StageMetrics& stage : result.stages) {
    EXPECT_EQ(stage.budget_overflow_bytes, 0);
  }
}

}  // namespace
}  // namespace mepipe::sim
