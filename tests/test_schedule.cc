// Tests for the schedule container and its validation (sched/schedule).
#include "sched/schedule.h"

#include <gtest/gtest.h>

#include <climits>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sched/baselines.h"
#include "sched/generator.h"
#include "sched/validate.h"

namespace mepipe::sched {
namespace {

Schedule TwoStageOneMicro() {
  Schedule schedule;
  schedule.problem.stages = 2;
  schedule.problem.micros = 1;
  schedule.method = "hand";
  schedule.stage_ops = {
      {{OpKind::kForward, 0, 0, 0}, {OpKind::kBackward, 0, 0, 0}},
      {{OpKind::kForward, 0, 0, 1}, {OpKind::kBackward, 0, 0, 1}},
  };
  return schedule;
}

TEST(Schedule, HandBuiltValidates) {
  EXPECT_NO_THROW(ValidateSchedule(TwoStageOneMicro()));
  // The full tabular validator agrees with the structural check.
  EXPECT_TRUE(CheckScheduleInvariants(TwoStageOneMicro()).ok());
}

TEST(Schedule, TableTimingOfHandBuilt) {
  // F0@s0 [0,1] → F0@s1 [1,2] → B0@s1 [2,3] → B0@s0 [3,4] under unit
  // costs and free transfers.
  const ScheduleTable table = BuildScheduleTable(TwoStageOneMicro());
  ASSERT_EQ(table.rows.size(), 4u);
  EXPECT_DOUBLE_EQ(table.makespan, 4.0);
  for (const TableRow& row : table.rows) {
    EXPECT_DOUBLE_EQ(row.end - row.start, 1.0);
  }
}

TEST(Schedule, InvariantValidatorFlagsCapOverrun) {
  // GPipe retains all n forwards; a cap below n is a reported violation
  // on every stage, and the throwing wrapper throws.
  const Schedule schedule = GPipeSchedule(3, 7);
  InvariantOptions options;
  options.retained_cap = {3, 3, 3};
  const InvariantReport report = CheckScheduleInvariants(schedule, options);
  EXPECT_EQ(report.violations.size(), 3u);
  EXPECT_EQ(report.violations.front().invariant, "activation-cap");
  EXPECT_THROW(ValidateScheduleInvariants(schedule, options), CheckError);
  options.retained_cap = {7, 7, 7};
  EXPECT_TRUE(CheckScheduleInvariants(schedule, options).ok());
  // A 0 entry marks the stage unbudgeted.
  options.retained_cap = {0, 0, 0};
  EXPECT_TRUE(CheckScheduleInvariants(schedule, options).ok());
}

TEST(Schedule, MissingOpRejected) {
  Schedule schedule = TwoStageOneMicro();
  schedule.stage_ops[0].pop_back();
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, DuplicateOpRejected) {
  Schedule schedule = TwoStageOneMicro();
  schedule.stage_ops[0][1] = schedule.stage_ops[0][0];
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, OpOnWrongStageRejected) {
  Schedule schedule = TwoStageOneMicro();
  std::swap(schedule.stage_ops[0], schedule.stage_ops[1]);
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, DeadlockingOrderRejected) {
  // B before its own F on the last stage can never execute.
  Schedule schedule = TwoStageOneMicro();
  std::swap(schedule.stage_ops[1][0], schedule.stage_ops[1][1]);
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

TEST(Schedule, DeferredWgradRequiresSplitBackward) {
  Schedule schedule = TwoStageOneMicro();
  schedule.deferred_wgrad = true;  // but split_backward is false
  EXPECT_THROW(ValidateSchedule(schedule), CheckError);
}

// Malformed ops must be rejected with a CheckError before any arena is
// indexed with them (the ASan/UBSan jobs run this suite).
TEST(Schedule, MalformedOpsRejected) {
  // Split backward, static W, two stages of two micros: stage 0 lists
  // F, B and W ops of chunk 0.
  PipelineProblem problem;
  problem.stages = 2;
  problem.micros = 2;
  problem.split_backward = true;
  GeneratorOptions static_w;
  static_w.wgrad = WgradPolicy::kLowestPriority;
  const Schedule split_static = GenerateCapped(problem, static_w, "static-w");
  ASSERT_FALSE(split_static.deferred_wgrad);
  const auto first = [](Schedule& schedule, OpKind kind) -> OpId& {
    for (OpId& op : schedule.stage_ops[0]) {
      if (op.kind == kind) {
        return op;
      }
    }
    throw std::logic_error("no such op");
  };
  const std::vector<std::pair<std::string, std::function<void(Schedule&)>>> corruptions = {
      {"duplicate", [](Schedule& s) { s.stage_ops[0][1] = s.stage_ops[0][0]; }},
      {"missing", [](Schedule& s) { s.stage_ops[1].pop_back(); }},
      {"extra", [](Schedule& s) { s.stage_ops[1].push_back(s.stage_ops[1].front()); }},
      {"wrong stage", [](Schedule& s) { std::swap(s.stage_ops[0][0], s.stage_ops[1][0]); }},
      {"op job tag", [](Schedule& s) { s.stage_ops[0][2].job = 1; }},
      {"schedule job tag", [](Schedule& s) { s.job = 1; }},
      {"gemm on F", [&](Schedule& s) { first(s, OpKind::kForward).gemm = 0; }},
      {"Wg in static order",
       [&](Schedule& s) {
         OpId& w = first(s, OpKind::kWeightGrad);
         w.kind = OpKind::kWeightGradGemm;
         w.gemm = 0;
       }},
      {"Wg without gemm",
       [&](Schedule& s) { first(s, OpKind::kWeightGrad).kind = OpKind::kWeightGradGemm; }},
      {"DP bucket in static order",
       [&](Schedule& s) { first(s, OpKind::kWeightGrad) = DpSyncOp(0); }},
      {"unknown kind", [](Schedule& s) { s.stage_ops[0][0].kind = static_cast<OpKind>(9); }},
      {"micro -1", [](Schedule& s) { s.stage_ops[0][0].micro = -1; }},
      {"micro n", [](Schedule& s) { s.stage_ops[0][0].micro = 2; }},
      {"micro huge", [](Schedule& s) { s.stage_ops[0][0].micro = 1 << 30; }},
      {"slice -1", [](Schedule& s) { s.stage_ops[0][0].slice = -1; }},
      {"slice s", [](Schedule& s) { s.stage_ops[0][0].slice = 1; }},
      {"chunk -1", [](Schedule& s) { s.stage_ops[0][0].chunk = -1; }},
      {"chunk v*p", [](Schedule& s) { s.stage_ops[0][0].chunk = 2; }},
      {"chunk huge", [](Schedule& s) { s.stage_ops[1][0].chunk = 1 << 30; }},
      {"deadlocking swap",
       [](Schedule& s) { std::swap(s.stage_ops[1][0], s.stage_ops[1][1]); }},
  };
  for (const auto& [what, corrupt] : corruptions) {
    SCOPED_TRACE(what);
    Schedule schedule = split_static;
    corrupt(schedule);
    EXPECT_THROW(ValidateSchedule(schedule), CheckError);
  }

  // A deferred schedule must not list W at all.
  const Schedule deferred = GenerateCapped(problem, {}, "deferred");
  ASSERT_TRUE(deferred.deferred_wgrad);
  Schedule with_w = deferred;
  with_w.stage_ops[0].push_back({OpKind::kWeightGrad, 0, 0, 0});
  EXPECT_THROW(ValidateSchedule(with_w), CheckError);
  // Same list size, and still executable: the last B of micro 0 (which
  // nothing listed depends on) gives way to micro 1's W, run at the end.
  with_w = deferred;
  std::erase(with_w.stage_ops[0], OpId{OpKind::kBackward, 0, 0, 0});
  with_w.stage_ops[0].push_back({OpKind::kWeightGrad, 1, 0, 0});
  EXPECT_THROW(ValidateSchedule(with_w), CheckError);

  // Tagging the schedule and its ops together stays valid.
  Schedule tagged = split_static;
  TagJob(tagged, 3);
  EXPECT_NO_THROW(ValidateSchedule(tagged));
}

TEST(Schedule, StageOfChunkRejectsOutOfRangeChunks) {
  // The lookup is inline now; its range check still throws CheckError.
  for (const ChunkPlacement placement : {ChunkPlacement::kRoundRobin, ChunkPlacement::kVShape}) {
    PipelineProblem problem;
    problem.stages = 4;
    problem.virtual_chunks = 2;
    problem.placement = placement;
    EXPECT_THROW(problem.stage_of_chunk(-1), CheckError);
    EXPECT_THROW(problem.stage_of_chunk(problem.num_chunks()), CheckError);
    EXPECT_THROW(problem.stage_of_chunk(INT_MAX), CheckError);
    EXPECT_THROW(problem.stage_of_chunk(INT_MIN), CheckError);
    const std::vector<int> expected = placement == ChunkPlacement::kRoundRobin
                                          ? std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}
                                          : std::vector<int>{0, 1, 2, 3, 3, 2, 1, 0};
    for (int chunk = 0; chunk < problem.num_chunks(); ++chunk) {
      EXPECT_EQ(problem.stage_of_chunk(chunk), expected[static_cast<std::size_t>(chunk)]);
    }
  }
}

TEST(Schedule, FirstBackwardIndex) {
  const Schedule schedule = OneFOneBSchedule(4, 8);
  EXPECT_EQ(FirstBackwardIndex(schedule, 0), 4u);
  EXPECT_EQ(FirstBackwardIndex(schedule, 3), 1u);
}

TEST(Schedule, FirstBackwardIndexNoBackward) {
  Schedule schedule = TwoStageOneMicro();
  schedule.stage_ops[0] = {{OpKind::kForward, 0, 0, 0}};
  EXPECT_EQ(FirstBackwardIndex(schedule, 0), 1u);
}

TEST(Schedule, PeakRetainedForwardsGPipeEqualsMicros) {
  const Schedule schedule = GPipeSchedule(3, 7);
  for (int stage = 0; stage < 3; ++stage) {
    EXPECT_EQ(PeakRetainedForwards(schedule, stage), 7);
  }
}

TEST(Schedule, PeakRetainedReleasesOnWWhenSplitStatic) {
  // A split schedule with static W ops releases on W, not B.
  Schedule schedule;
  schedule.problem.stages = 1;
  schedule.problem.micros = 2;
  schedule.problem.split_backward = true;
  schedule.method = "hand-split";
  schedule.stage_ops = {{
      {OpKind::kForward, 0, 0, 0},
      {OpKind::kForward, 1, 0, 0},
      {OpKind::kBackward, 1, 0, 0},
      {OpKind::kBackward, 0, 0, 0},
      {OpKind::kWeightGrad, 1, 0, 0},
      {OpKind::kWeightGrad, 0, 0, 0},
  }};
  ValidateSchedule(schedule);
  EXPECT_EQ(PeakRetainedForwards(schedule, 0), 2);
}

TEST(Schedule, OpIdPrinting) {
  EXPECT_EQ(ToString(OpId{OpKind::kForward, 1, 2, 3}), "F(m=1,t=2,g=3)");
  EXPECT_EQ(ToString(OpId{OpKind::kWeightGradGemm, 0, 1, 2, 5}), "Wg(m=0,t=1,g=2,k=5)");
}

TEST(Schedule, OpIdHashDistinguishesFields) {
  OpIdHash hash;
  const OpId a{OpKind::kForward, 1, 2, 3};
  OpId b = a;
  b.slice = 3;
  EXPECT_NE(hash(a), hash(b));
  b = a;
  b.kind = OpKind::kBackward;
  EXPECT_NE(hash(a), hash(b));
}

}  // namespace
}  // namespace mepipe::sched
