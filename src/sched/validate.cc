#include "sched/validate.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/format.h"
#include "sched/dependency.h"

namespace mepipe::sched {
namespace {

// Tolerance for table-time comparisons (the table is built from sums of
// doubles; exact arithmetic would make the checks brittle).
constexpr double kEps = 1e-9;

double OpDuration(const OpId& op, const TableCosts& costs) {
  switch (op.kind) {
    case OpKind::kForward:
      return costs.f_time;
    case OpKind::kBackward:
      return costs.b_time;
    default:
      return costs.w_time;
  }
}

// Expected multiset of statically ordered ops for one stage, carrying
// the schedule's job tag.
std::vector<OpId> ExpectedOps(const Schedule& schedule, int stage) {
  std::vector<OpId> expected = StageOps(schedule.problem, stage, schedule.job);
  if (schedule.deferred_wgrad) {
    std::erase_if(expected, [](const OpId& op) { return op.kind == OpKind::kWeightGrad; });
  }
  return expected;
}

void AddViolation(InvariantReport& report, std::string invariant, std::string detail) {
  report.violations.push_back({std::move(invariant), std::move(detail)});
}

// Structural pass: every stage lists exactly its owned op multiset.
void CheckMultisets(const Schedule& schedule, InvariantReport& report) {
  const PipelineProblem& problem = schedule.problem;
  if (static_cast<int>(schedule.stage_ops.size()) != problem.stages) {
    AddViolation(report, "multiset",
                 StrFormat("%d stage lists for %d stages",
                           static_cast<int>(schedule.stage_ops.size()), problem.stages));
    return;
  }
  if (schedule.deferred_wgrad && !problem.split_backward) {
    AddViolation(report, "multiset", "deferred W requires split backward");
  }
  for (int stage = 0; stage < problem.stages; ++stage) {
    std::vector<OpId> expected = ExpectedOps(schedule, stage);
    std::vector<OpId> actual = schedule.stage_ops[static_cast<std::size_t>(stage)];
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      AddViolation(report, "multiset",
                   StrFormat("stage %d op multiset mismatch (%d vs expected %d)", stage,
                             static_cast<int>(actual.size()), static_cast<int>(expected.size())));
    }
  }
}

// Timing pass under list semantics. Returns false (and records a
// violation) when the joint program order deadlocks.
bool BuildTable(const Schedule& schedule, const TableCosts& costs, ScheduleTable& table,
                InvariantReport& report) {
  const PipelineProblem& problem = schedule.problem;
  // Completion time by slot; +inf until the op runs, so a ready time
  // that reads +inf means a dependency has not run yet.
  const OpSlots slots(problem);
  std::vector<double> done(slots.count(), std::numeric_limits<double>::infinity());
  std::vector<std::size_t> cursor(static_cast<std::size_t>(problem.stages), 0);
  std::vector<double> stage_time(static_cast<std::size_t>(problem.stages), 0.0);
  std::size_t remaining = 0;
  for (const auto& ops : schedule.stage_ops) {
    remaining += ops.size();
  }
  bool progressed = true;
  while (progressed && remaining > 0) {
    progressed = false;
    for (int stage = 0; stage < problem.stages; ++stage) {
      auto& index = cursor[static_cast<std::size_t>(stage)];
      const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
      while (index < ops.size()) {
        const OpId& op = ops[index];
        double ready = stage_time[static_cast<std::size_t>(stage)];
        ForEachDependency(problem, op, [&](const Dep& dep) {
          ready = std::max(ready, done[slots(dep.op)] +
                                      (dep.cross_stage ? costs.transfer_time : 0.0));
        });
        if (ready == std::numeric_limits<double>::infinity()) {
          break;
        }
        const double end = ready + OpDuration(op, costs);
        done[slots(op)] = end;
        table.rows.push_back({stage, op, ready, end});
        table.makespan = std::max(table.makespan, end);
        stage_time[static_cast<std::size_t>(stage)] = end;
        ++index;
        --remaining;
        progressed = true;
      }
    }
  }
  if (remaining > 0) {
    AddViolation(report, "executable",
                 StrFormat("program order deadlocks: %d ops can never run",
                           static_cast<int>(remaining)));
    return false;
  }
  return true;
}

// The checks below run after CheckMultisets passed (every op an in-range
// F, B or W listed once), so they index per-op state by OpSlots.
// W-after-B in program order, per (micro, slice, chunk). Only meaningful
// for static-W schedules; deferred W has no table rows.
void CheckWAfterB(const Schedule& schedule, InvariantReport& report) {
  const OpSlots slots(schedule.problem);
  std::vector<bool> backward_seen(slots.count(), false);
  for (int stage = 0; stage < schedule.problem.stages; ++stage) {
    for (const OpId& op : schedule.stage_ops[static_cast<std::size_t>(stage)]) {
      if (op.kind == OpKind::kBackward) {
        backward_seen[slots(op)] = true;
      } else if (op.kind == OpKind::kWeightGrad) {
        OpId b = op;
        b.kind = OpKind::kBackward;
        if (!backward_seen[slots(b)]) {
          AddViolation(report, "w-after-b",
                       ToString(op) + " precedes its backward on stage " +
                           std::to_string(stage));
        }
      }
    }
  }
}

// Causal slice order within a stage's program order: forwards ascend
// slices, backwards descend (the dK/dV accumulation direction).
void CheckSliceOrder(const Schedule& schedule, InvariantReport& report) {
  const int slices = schedule.problem.slices;
  if (slices == 1) {
    return;
  }
  const OpSlots slots(schedule.problem);
  std::vector<std::size_t> position(slots.count(), 0);
  for (int stage = 0; stage < schedule.problem.stages; ++stage) {
    const auto& ops = schedule.stage_ops[static_cast<std::size_t>(stage)];
    for (std::size_t i = 0; i < ops.size(); ++i) {
      position[slots(ops[i])] = i;
    }
    for (const OpId& op : ops) {
      OpId prior = op;
      if (op.kind == OpKind::kForward && op.slice > 0) {
        prior.slice = op.slice - 1;
      } else if (op.kind == OpKind::kBackward && op.slice + 1 < slices) {
        prior.slice = op.slice + 1;
      } else {
        continue;
      }
      if (position[slots(prior)] > position[slots(op)]) {
        AddViolation(report, "slice-kv",
                     ToString(op) + " precedes " + ToString(prior) + " on stage " +
                         std::to_string(stage));
      }
    }
  }
}

// Declarative re-check over the table: every dependency's producer ends
// (plus transfer, when cross-stage) before the consumer starts. Catches
// builder bugs the same way a tabular validity query would.
void CheckDependencyTiming(const Schedule& schedule, const TableCosts& costs,
                           const ScheduleTable& table, InvariantReport& report) {
  const OpSlots slots(schedule.problem);
  std::vector<const TableRow*> by_slot(slots.count(), nullptr);
  for (const TableRow& row : table.rows) {
    by_slot[slots(row.op)] = &row;
  }
  for (const TableRow& row : table.rows) {
    for (const Dep& dep : DependenciesOf(schedule.problem, row.op)) {
      const TableRow* producer = by_slot[slots(dep.op)];
      if (producer == nullptr) {
        if (!schedule.deferred_wgrad || dep.op.kind != OpKind::kWeightGrad) {
          AddViolation(report, "chunk-chain",
                       ToString(row.op) + " depends on missing " + ToString(dep.op));
        }
        continue;
      }
      const double gate = producer->end + (dep.cross_stage ? costs.transfer_time : 0.0);
      if (row.start + kEps < gate) {
        AddViolation(report, "chunk-chain",
                     StrFormat("%s starts %.6f before its dependency %s allows %.6f",
                               ToString(row.op).c_str(), row.start, ToString(dep.op).c_str(),
                               gate));
      }
    }
  }
}

// Running retained-forward accounting against the per-stage cap — the
// count core/memory_model multiplies into bytes.
void CheckActivationCap(const Schedule& schedule, const std::vector<int>& cap,
                        InvariantReport& report) {
  if (cap.empty()) {
    return;
  }
  if (static_cast<int>(cap.size()) != schedule.problem.stages) {
    AddViolation(report, "activation-cap",
                 StrFormat("cap has %d entries for %d stages", static_cast<int>(cap.size()),
                           schedule.problem.stages));
    return;
  }
  for (int stage = 0; stage < schedule.problem.stages; ++stage) {
    const int peak = PeakRetainedForwards(schedule, stage);
    const int limit = cap[static_cast<std::size_t>(stage)];
    if (limit > 0 && peak > limit) {
      AddViolation(report, "activation-cap",
                   StrFormat("stage %d retains %d forwards, cap %d", stage, peak, limit));
    }
  }
}

// One op per compute stream per instant: a stage's table spans must not
// overlap.
void CheckStreamExclusivity(const ScheduleTable& table, int stages, InvariantReport& report) {
  std::vector<std::vector<const TableRow*>> by_stage(static_cast<std::size_t>(stages));
  for (const TableRow& row : table.rows) {
    by_stage[static_cast<std::size_t>(row.stage)].push_back(&row);
  }
  for (int stage = 0; stage < stages; ++stage) {
    auto& rows = by_stage[static_cast<std::size_t>(stage)];
    std::sort(rows.begin(), rows.end(),
              [](const TableRow* a, const TableRow* b) { return a->start < b->start; });
    for (std::size_t i = 1; i < rows.size(); ++i) {
      if (rows[i]->start + kEps < rows[i - 1]->end) {
        AddViolation(report, "one-op-per-stream",
                     StrFormat("stage %d runs %s and %s concurrently", stage,
                               ToString(rows[i - 1]->op).c_str(),
                               ToString(rows[i]->op).c_str()));
      }
    }
  }
}

}  // namespace

std::string InvariantReport::Summary() const {
  std::string out;
  for (const Violation& violation : violations) {
    out += violation.invariant;
    out += ": ";
    out += violation.detail;
    out += '\n';
  }
  return out;
}

ScheduleTable BuildScheduleTable(const Schedule& schedule, const TableCosts& costs) {
  ValidateSchedule(schedule);
  ScheduleTable table;
  InvariantReport report;
  const bool ok = BuildTable(schedule, costs, table, report);
  MEPIPE_CHECK(ok) << report.Summary();
  return table;
}

InvariantReport CheckScheduleInvariants(const Schedule& schedule,
                                        const InvariantOptions& options) {
  InvariantReport report;
  schedule.problem.Validate();
  CheckMultisets(schedule, report);
  if (!report.ok()) {
    return report;  // timing over a malformed op set would only cascade
  }
  ScheduleTable table;
  if (!BuildTable(schedule, options.costs, table, report)) {
    return report;
  }
  CheckWAfterB(schedule, report);
  CheckSliceOrder(schedule, report);
  CheckDependencyTiming(schedule, options.costs, table, report);
  CheckActivationCap(schedule, options.retained_cap, report);
  CheckStreamExclusivity(table, schedule.problem.stages, report);
  return report;
}

void ValidateScheduleInvariants(const Schedule& schedule, const InvariantOptions& options) {
  const InvariantReport report = CheckScheduleInvariants(schedule, options);
  MEPIPE_CHECK(report.ok()) << "schedule '" << schedule.method << "' violates invariants:\n"
                            << report.Summary();
}

}  // namespace mepipe::sched
