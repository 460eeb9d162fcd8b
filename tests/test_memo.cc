// Tests for the schedule memo (sched/memo) and the validated-schedule
// handle it hands out (sched::ValidatedSchedule).
#include "sched/memo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/rebalance.h"
#include "sched/baselines.h"
#include "sched/generator.h"
#include "sched/synth.h"
#include "sched/zbv.h"
#include "sim/cost_model.h"
#include "sim/engine.h"

namespace mepipe::sched {
namespace {

// A handle cannot be default-made, minted from a plain schedule
// implicitly, or edited: the only way in is validation, and what it
// shows is const.
static_assert(!std::is_default_constructible_v<ValidatedSchedule>);
static_assert(!std::is_convertible_v<Schedule, ValidatedSchedule>);
static_assert(std::is_same_v<decltype(*std::declval<const ValidatedSchedule&>()), const Schedule&>);
static_assert(!std::is_invocable_v<void (*)(Schedule&, int),
                                   decltype(*std::declval<const ValidatedSchedule&>()), int>,
              "TagJob must not reach a validated schedule");

TEST(ScheduleMemo, EachConstructorMatchesItsDirectCallAndIsBuiltOnce) {
  ScheduleMemo memo;
  const CappedSpec spec = OneFOneBSpec(4, 8);
  ZbvOptions zbv;
  zbv.f_time = 1.0;
  zbv.b_time = 1.2;
  zbv.w_time = 0.8;
  PipelineProblem synth_problem;
  synth_problem.stages = 4;
  synth_problem.micros = 4;
  const std::vector<std::pair<ValidatedSchedule, Schedule>> built = {
      {memo.Capped(spec), GenerateCapped(spec)},
      {memo.Zbv(4, 8, zbv), HandcraftedZbvSchedule(4, 8, zbv)},
      {memo.Synth(synth_problem, {}), SynthesizeSchedule(synth_problem, {})},
      {memo.Vpp(4, 2, 8), VppSchedule(4, 2, 8)},
  };
  for (const auto& [handle, direct] : built) {
    SCOPED_TRACE(direct.method);
    EXPECT_EQ(handle->method, direct.method);
    EXPECT_EQ(handle->stage_ops, direct.stage_ops);
    EXPECT_EQ(handle->deferred_wgrad, direct.deferred_wgrad);
  }
  EXPECT_EQ(memo.builds(), 4);
  EXPECT_EQ(memo.hits(), 0);
  // Repeats are served: the same schedule object, no new construction.
  EXPECT_EQ(&*memo.Capped(spec), &*built[0].first);
  EXPECT_EQ(&*memo.Zbv(4, 8, zbv), &*built[1].first);
  EXPECT_EQ(&*memo.Synth(synth_problem, {}), &*built[2].first);
  EXPECT_EQ(&*memo.Vpp(4, 2, 8), &*built[3].first);
  EXPECT_EQ(memo.builds(), 4);
  EXPECT_EQ(memo.hits(), 4);
}

TEST(ScheduleMemo, EveryKeyFieldSeparatesEntries) {
  // Changing any one input of a construction must miss: the memo never
  // serves a schedule built from different inputs.
  CappedSpec base = OneFOneBSpec(4, 8);
  base.problem.split_backward = true;
  base.options.wgrad = WgradPolicy::kDeferred;
  base.options.b_time = 1.0;
  std::vector<CappedSpec> variants(14, base);
  variants[0].problem.micros = 12;
  variants[1].problem.slices = 2;
  variants[1].options.inflight_cap = CapSchedule(4, 4, 2);
  variants[2].options.inflight_cap = CapSchedule(4, 3, 1);
  variants[3].options.backward_first = false;
  variants[4].options.wgrad = WgradPolicy::kLowestPriority;
  variants[5].options.child_count_backward_priority = true;
  variants[6].options.f_time = 1.5;
  variants[7].options.b_time = 2.0;
  variants[8].options.w_time = 0.5;
  variants[9].options.stage_time_scale = {1.0, 2.0, 1.0, 1.0};
  variants[10].options.stage_time_scale = {1.0, 1.0, 2.0, 1.0};
  variants[11].options.transfer_time = 0.2;
  variants[12].options.lookahead = 0.0;
  variants[13].method = "1F1B-relabelled";
  ScheduleMemo memo;
  memo.Capped(base);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    const ValidatedSchedule handle = memo.Capped(variants[i]);
    const Schedule direct = GenerateCapped(variants[i]);
    EXPECT_EQ(handle->stage_ops, direct.stage_ops);
    EXPECT_EQ(handle->method, direct.method);
    EXPECT_EQ(memo.builds(), static_cast<int>(i) + 2);
  }
  EXPECT_EQ(memo.hits(), 0);

  // ZBV: the cost-derived durations and budget units are part of the key.
  ZbvOptions zbv;
  ScheduleMemo zbv_memo;
  zbv_memo.Zbv(4, 8, zbv);
  for (double ZbvOptions::*field :
       {&ZbvOptions::f_time, &ZbvOptions::b_time, &ZbvOptions::w_time,
        &ZbvOptions::transfer_time, &ZbvOptions::act_grad_weight,
        &ZbvOptions::activation_budget_units}) {
    ZbvOptions changed = zbv;
    changed.*field += 0.5;
    zbv_memo.Zbv(4, 8, changed);
  }
  ZbvOptions capped = zbv;
  capped.max_retained = 6;
  zbv_memo.Zbv(4, 8, capped);
  zbv_memo.Zbv(4, 12, zbv);
  EXPECT_EQ(zbv_memo.builds(), 9);
  EXPECT_EQ(zbv_memo.hits(), 0);
}

TEST(ScheduleMemo, NanKeysAreRebuiltNotServed) {
  // NaN never equals itself, so a NaN-bearing key cannot be matched —
  // not even by a key that differs only in that field. GenerateCapped
  // refuses a NaN lookahead, so every request runs the constructor,
  // throws, and leaves nothing behind to serve.
  CappedSpec spec = OneFOneBSpec(4, 8);
  spec.options.lookahead = std::numeric_limits<double>::quiet_NaN();
  ScheduleMemo memo;
  EXPECT_THROW(memo.Capped(spec), CheckError);
  EXPECT_THROW(memo.Capped(spec), CheckError);
  EXPECT_EQ(memo.builds(), 2);
  EXPECT_EQ(memo.hits(), 0);
  EXPECT_EQ(memo.entries(), 0u);
}

std::size_t ProgramBytes(const Schedule& schedule) {
  std::size_t bytes = 0;
  for (const auto& ops : schedule.stage_ops) {
    bytes += ops.size() * sizeof(OpId);
  }
  return bytes;
}

TEST(ScheduleMemo, RetentionIsBoundedLeastRecentlyUsedFirst) {
  // Three equal-sized schedules of which two fit under the bound.
  const CappedSpec a = OneFOneBSpec(8, 280);
  const CappedSpec b = GPipeSpec(8, 280);
  const CappedSpec c = TeraPipeSpec(8, 1, 280);
  const std::size_t one = ProgramBytes(GenerateCapped(a));
  ASSERT_EQ(ProgramBytes(GenerateCapped(b)), one);
  ASSERT_EQ(ProgramBytes(GenerateCapped(c)), one);
  ASSERT_LE(2 * one, ScheduleMemo::kMaxBytes);
  ASSERT_GT(3 * one, ScheduleMemo::kMaxBytes);
  ScheduleMemo memo;
  const ValidatedSchedule held = memo.Capped(a);
  memo.Capped(b);
  memo.Capped(a);  // a is now the most recently used
  memo.Capped(c);  // evicts b
  EXPECT_EQ(memo.entries(), 2u);
  EXPECT_EQ(memo.builds(), 3);
  memo.Capped(a);
  EXPECT_EQ(memo.builds(), 3);  // still held
  memo.Capped(b);
  EXPECT_EQ(memo.builds(), 4);  // was evicted, rebuilt
  // An evicted handle stays valid for whoever holds it.
  memo.Capped(c);
  memo.Capped(b);
  EXPECT_EQ(held->stage_ops, GenerateCapped(a).stage_ops);

  // A schedule larger than the bound is still returned, and kept alone.
  const CappedSpec huge = GPipeSpec(8, 700);
  ASSERT_GT(ProgramBytes(GenerateCapped(huge)), ScheduleMemo::kMaxBytes);
  memo.Capped(huge);
  EXPECT_EQ(memo.entries(), 1u);
  const int hits = memo.hits();
  memo.Capped(huge);
  EXPECT_EQ(memo.hits(), hits + 1);
}

TEST(ValidatedSchedule, EditingACopyNeverReachesTheHandle) {
  ScheduleMemo memo;
  const ValidatedSchedule handle = memo.Capped(OneFOneBSpec(4, 8));
  Schedule tagged = *handle;
  TagJob(tagged, 3);
  EXPECT_EQ(handle->job, 0);
  EXPECT_EQ(handle->stage_ops[0][0].job, 0);
  // The re-tagged copy is a different, consistent schedule: it becomes a
  // handle only by validating.
  const ValidatedSchedule retagged(tagged);
  EXPECT_EQ(retagged->job, 3);
  tagged.stage_ops[2][1].job = 0;
  EXPECT_THROW(ValidatedSchedule{tagged}, CheckError);
  // The memo still serves the untagged original.
  EXPECT_EQ(memo.Capped(OneFOneBSpec(4, 8))->job, 0);
}

TEST(ValidatedSchedule, StragglerMitigationRunsANewHandle) {
  // MitigateStragglers replaces the schedule with a regenerated one: the
  // replacement is its own construction (keyed "+rebalanced"), not the
  // original handle relabelled, and the original entry is untouched.
  ScheduleMemo memo;
  const ValidatedSchedule original = memo.Capped(OneFOneBSpec(4, 8));
  const sim::UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  sim::FaultPlan faults;
  faults.stragglers.push_back({1, 0.0, 1e9, 2.0});
  const core::MitigationReport report =
      core::MitigateStragglers(original, costs, faults, {}, &memo);
  EXPECT_EQ(report.mitigated_schedule.method, "1F1B+rebalanced");
  EXPECT_EQ(memo.builds(), 2);
  EXPECT_EQ(original->method, "1F1B");
  EXPECT_EQ(original->stage_ops, OneFOneBSchedule(4, 8).stage_ops);
  // The same mitigation from a plain schedule (validated on entry) and
  // without a memo gives the same result.
  const core::MitigationReport plain =
      core::MitigateStragglers(OneFOneBSchedule(4, 8), costs, faults);
  EXPECT_EQ(plain.mitigated_schedule.stage_ops, report.mitigated_schedule.stage_ops);
  EXPECT_EQ(plain.mitigated_makespan, report.mitigated_makespan);
  EXPECT_EQ(plain.faulted_makespan, report.faulted_makespan);
  // A corrupted plain schedule is rejected before anything runs.
  Schedule corrupted = OneFOneBSchedule(4, 8);
  corrupted.stage_ops[0].pop_back();
  EXPECT_THROW(core::MitigateStragglers(corrupted, costs, faults), CheckError);
}

}  // namespace
}  // namespace mepipe::sched
