// Tests for the capped greedy list scheduler (sched/generator).
#include "sched/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sched/baselines.h"
#include "sched/schedule.h"
#include "sched/validate.h"
#include "sched/zbv.h"

namespace mepipe::sched {
namespace {

PipelineProblem MakeProblem(int p, int v, int s, int n, bool split = false) {
  PipelineProblem problem;
  problem.stages = p;
  problem.virtual_chunks = v;
  problem.slices = s;
  problem.micros = n;
  problem.split_backward = split;
  return problem;
}

TEST(CapSchedule, MatchesOneFOneBWarmup) {
  const std::vector<int> caps = CapSchedule(4, 4, 1);
  EXPECT_EQ(caps, (std::vector<int>{4, 3, 2, 1}));
}

TEST(CapSchedule, RespectsFloor) {
  const std::vector<int> caps = CapSchedule(4, 6, 4);
  EXPECT_EQ(caps, (std::vector<int>{6, 5, 4, 4}));
}

TEST(CapSchedule, RejectsCapBelowFloor) {
  EXPECT_THROW(CapSchedule(4, 1, 2), CheckError);
}

TEST(Generator, ReproducesCanonicalOneFOneB) {
  const PipelineProblem problem = MakeProblem(4, 1, 1, 8);
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(4, 4, 1);
  const Schedule schedule = GenerateCapped(problem, options, "1F1B");

  // Last stage strictly alternates F and B starting with micro 0.
  const auto& last = schedule.stage_ops[3];
  ASSERT_EQ(last.size(), 16u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(last[2 * i].kind, OpKind::kForward) << i;
    EXPECT_EQ(last[2 * i].micro, i);
    EXPECT_EQ(last[2 * i + 1].kind, OpKind::kBackward) << i;
    EXPECT_EQ(last[2 * i + 1].micro, i);
  }
  // Stage 0 warms up with exactly p forwards before its first backward.
  EXPECT_EQ(FirstBackwardIndex(schedule, 0), 4u);
  EXPECT_EQ(PeakRetainedForwards(schedule, 0), 4);
  EXPECT_EQ(PeakRetainedForwards(schedule, 3), 1);
}

TEST(Generator, ForwardFirstProducesGPipeShape) {
  const PipelineProblem problem = MakeProblem(3, 1, 1, 5);
  GeneratorOptions options;
  options.backward_first = false;
  const Schedule schedule = GenerateCapped(problem, options, "GPipe");
  // Every stage runs all its forwards before any backward.
  for (int stage = 0; stage < 3; ++stage) {
    EXPECT_EQ(FirstBackwardIndex(schedule, stage), 5u) << "stage " << stage;
  }
}

TEST(Generator, CapLimitsRetainedForwards) {
  for (int f = 2; f <= 6; ++f) {
    const PipelineProblem problem = MakeProblem(4, 1, 2, 6);
    GeneratorOptions options;
    options.inflight_cap = CapSchedule(4, f, 2);
    const Schedule schedule = GenerateCapped(problem, options, "capped");
    for (int stage = 0; stage < 4; ++stage) {
      EXPECT_LE(PeakRetainedForwards(schedule, stage), std::max(2, f - stage))
          << "f=" << f << " stage=" << stage;
    }
  }
}

TEST(Generator, DeadlocksDetectedWhenCapBelowFloor) {
  const PipelineProblem problem = MakeProblem(4, 1, 2, 4);
  GeneratorOptions options;
  options.inflight_cap = {1, 1, 1, 1};  // below the v*s = 2 floor
  EXPECT_THROW(GenerateCapped(problem, options, "bad"), CheckError);
}

TEST(Generator, SplitBackwardEmitsDeferredW) {
  const PipelineProblem problem = MakeProblem(2, 1, 1, 2, /*split=*/true);
  GeneratorOptions options;
  options.wgrad = WgradPolicy::kDeferred;
  const Schedule schedule = GenerateCapped(problem, options, "split");
  EXPECT_TRUE(schedule.deferred_wgrad);
  for (const auto& ops : schedule.stage_ops) {
    for (const OpId& op : ops) {
      EXPECT_NE(op.kind, OpKind::kWeightGrad);
    }
  }
}

TEST(Generator, SplitBackwardStaticWWhenRequested) {
  const PipelineProblem problem = MakeProblem(2, 1, 1, 2, /*split=*/true);
  GeneratorOptions options;
  options.wgrad = WgradPolicy::kLowestPriority;
  const Schedule schedule = GenerateCapped(problem, options, "split-static");
  EXPECT_FALSE(schedule.deferred_wgrad);
  int w_count = 0;
  for (const auto& ops : schedule.stage_ops) {
    for (const OpId& op : ops) {
      w_count += op.kind == OpKind::kWeightGrad ? 1 : 0;
    }
  }
  EXPECT_EQ(w_count, 2 * 2);  // one W per (stage-chunk, micro)
}

// Property sweep: every generated schedule validates, contains the right
// op count, and respects its cap, across a grid of shapes.
struct GenCase {
  int p, v, s, n, f;
};

class GeneratorSweep : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorSweep, ValidCappedSchedules) {
  const GenCase c = GetParam();
  const PipelineProblem problem = MakeProblem(c.p, c.v, c.s, c.n);
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(c.p, c.f, c.v * c.s);
  const Schedule schedule = GenerateCapped(problem, options, "sweep");
  InvariantOptions invariants;
  invariants.costs.transfer_time = 0.05;
  for (int stage = 0; stage < c.p; ++stage) {
    EXPECT_EQ(schedule.stage_ops[static_cast<std::size_t>(stage)].size(),
              static_cast<std::size_t>(2 * c.n * c.s * c.v));
    EXPECT_LE(PeakRetainedForwards(schedule, stage),
              std::max(c.v * c.s, c.f - stage));
    invariants.retained_cap.push_back(std::max(c.v * c.s, c.f - stage));
  }
  ValidateScheduleInvariants(schedule, invariants);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneratorSweep,
    ::testing::Values(GenCase{2, 1, 1, 4, 2}, GenCase{4, 1, 2, 4, 2}, GenCase{4, 1, 2, 4, 5},
                      GenCase{4, 2, 2, 4, 4}, GenCase{4, 2, 2, 4, 9}, GenCase{8, 1, 4, 8, 4},
                      GenCase{8, 1, 4, 8, 11}, GenCase{8, 2, 1, 8, 2}, GenCase{8, 2, 1, 8, 16},
                      GenCase{3, 1, 5, 2, 5}, GenCase{6, 2, 3, 7, 6}, GenCase{4, 3, 2, 8, 6},
                      GenCase{2, 1, 8, 3, 8}, GenCase{16, 1, 1, 4, 16}),
    [](const auto& info) {
      const GenCase& c = info.param;
      return "p" + std::to_string(c.p) + "v" + std::to_string(c.v) + "s" + std::to_string(c.s) +
             "n" + std::to_string(c.n) + "f" + std::to_string(c.f);
    });

// One randomized generator shape (seeded, splitmix64 — bit-identical
// across toolchains): the problem, options and cap the draw produced.
struct RandomShape {
  PipelineProblem problem;
  GeneratorOptions options;
  int f = 0;
};

RandomShape DrawOptionShape(SplitMixRng& rng) {
  const int p = 2 + static_cast<int>(rng.NextU64() % 7);  // 2..8
  const int v = 1 + static_cast<int>(rng.NextU64() % 2);  // 1..2
  const int s = 1 << (rng.NextU64() % 3);                 // 1, 2, 4
  const int n = 1 + static_cast<int>(rng.NextU64() % 8);  // 1..8
  const bool split = rng.NextU64() & 1;
  RandomShape shape;
  shape.problem = MakeProblem(p, v, s, n, split);
  if (v == 2 && (rng.NextU64() & 1)) {
    shape.problem.placement = ChunkPlacement::kVShape;
  }
  const int floor = v * s;
  shape.f = floor + static_cast<int>(rng.NextU64() % static_cast<std::uint64_t>(2 * p));
  shape.options.inflight_cap = CapSchedule(p, shape.f, floor);
  shape.options.backward_first = rng.NextU64() & 1;
  shape.options.child_count_backward_priority = rng.NextU64() & 1;
  if (split) {
    shape.options.wgrad =
        (rng.NextU64() & 1) ? WgradPolicy::kDeferred : WgradPolicy::kLowestPriority;
    shape.options.b_time = 1.0;
  }
  return shape;
}

// Every baseline construction at one randomized shape.
std::vector<Schedule> DrawBaselineSchedules(SplitMixRng& rng) {
  const int p = 2 + static_cast<int>(rng.NextU64() % 7);   // 2..8
  const int n = 1 + static_cast<int>(rng.NextU64() % 12);  // 1..12
  const int s = 1 + static_cast<int>(rng.NextU64() % 4);   // 1..4
  std::vector<Schedule> schedules;
  schedules.push_back(GPipeSchedule(p, n));
  schedules.push_back(OneFOneBSchedule(p, n));
  schedules.push_back(TeraPipeSchedule(p, s, n));
  schedules.push_back(Zb1pSchedule(p, n));
  schedules.push_back(ZbvSchedule(p, n));
  schedules.push_back(ZbvCappedSchedule(p, n));
  schedules.push_back(HanayoSchedule(p, n));
  if (n % p == 0) {
    schedules.push_back(VppSchedule(p, 2, n));
  }
  return schedules;
}

constexpr std::uint64_t kOptionFuzzSeed = 0x5eedc0de2025ull;
constexpr int kOptionFuzzTrials = 64;
constexpr std::uint64_t kBaselineFuzzSeed = 0xba5e11e2025ull;
constexpr int kBaselineFuzzTrials = 32;

// Randomized sweep of generator options: every generated schedule must
// pass every invariant of the tabular validator, not just the structural
// checks.
TEST(GeneratorFuzz, RandomOptionShapesPassEveryInvariant) {
  SplitMixRng rng(kOptionFuzzSeed);
  for (int trial = 0; trial < kOptionFuzzTrials; ++trial) {
    const RandomShape shape = DrawOptionShape(rng);
    const PipelineProblem& problem = shape.problem;
    const GeneratorOptions& options = shape.options;
    const int p = problem.stages;
    const int floor = problem.virtual_chunks * problem.slices;
    const bool split = problem.split_backward;
    const Schedule schedule = GenerateCapped(problem, options, "fuzz");
    InvariantOptions invariants;
    invariants.costs.b_time = options.b_time;
    invariants.costs.transfer_time = options.transfer_time;
    // The generator's cap releases retained forwards at B; the
    // activation-cap invariant counts releases at W for static-split
    // schedules, so the cap is only asserted for the other shapes.
    if (!(split && options.wgrad == WgradPolicy::kLowestPriority)) {
      for (int stage = 0; stage < p; ++stage) {
        invariants.retained_cap.push_back(std::max(floor, shape.f - stage));
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": p=" + std::to_string(p) +
                 " v=" + std::to_string(problem.virtual_chunks) +
                 " s=" + std::to_string(problem.slices) + " n=" +
                 std::to_string(problem.micros) + " f=" + std::to_string(shape.f) +
                 " split=" + std::to_string(split));
    ValidateScheduleInvariants(schedule, invariants);
  }
}

// Same harness over every baseline construction: randomized shapes, all
// invariants.
TEST(GeneratorFuzz, RandomBaselineShapesPassEveryInvariant) {
  SplitMixRng rng(kBaselineFuzzSeed);
  for (int trial = 0; trial < kBaselineFuzzTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (const Schedule& schedule : DrawBaselineSchedules(rng)) {
      SCOPED_TRACE(schedule.method);
      const int p = schedule.problem.stages;
      InvariantOptions invariants;
      invariants.costs.transfer_time = 0.05;
      if (schedule.method == "ZBV") {
        invariants.retained_cap.assign(static_cast<std::size_t>(p),
                                       ZbvMaxRetainedForwards(p, schedule.problem.micros));
      }
      ValidateScheduleInvariants(schedule, invariants);
    }
  }
}

// The hash-set validator ValidateSchedule replaced, kept as the
// reference: sorted multiset comparison against StageOps, then an
// executability walk over an unordered_set of completed ops.
void OracleValidateSchedule(const Schedule& schedule) {
  const PipelineProblem& problem = schedule.problem;
  problem.Validate();
  MEPIPE_CHECK_EQ(static_cast<int>(schedule.stage_ops.size()), problem.stages);
  if (schedule.deferred_wgrad) {
    MEPIPE_CHECK(problem.split_backward) << "deferred W requires split backward";
  }
  for (int stage = 0; stage < problem.stages; ++stage) {
    std::vector<OpId> expected = StageOps(problem, stage, schedule.job);
    if (schedule.deferred_wgrad) {
      std::erase_if(expected, [](const OpId& op) { return op.kind == OpKind::kWeightGrad; });
    }
    std::vector<OpId> actual = schedule.stage_ops[static_cast<std::size_t>(stage)];
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    MEPIPE_CHECK(expected == actual) << "stage " << stage << " op multiset mismatch";
  }
  std::unordered_set<OpId, OpIdHash> done;
  std::vector<std::size_t> cursor(static_cast<std::size_t>(problem.stages), 0);
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
        bool ready = true;
        for (const Dep& dep : DependenciesOf(problem, ops[index])) {
          ready = ready && done.contains(dep.op);
        }
        if (!ready) {
          break;
        }
        done.insert(ops[index]);
        ++index;
        --remaining;
        progressed = true;
      }
    }
  }
  MEPIPE_CHECK_EQ(remaining, 0u) << "schedule deadlocks";
}

// One random corruption of a (valid) schedule: reorderings that may or
// may not deadlock, duplicated, dropped, moved and mistagged ops, and
// field values in and out of range.
void Corrupt(Schedule& schedule, SplitMixRng& rng) {
  auto& stages = schedule.stage_ops;
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.NextU64() % std::max<std::size_t>(size, 1));
  };
  auto& ops = stages[pick(stages.size())];
  auto& other = stages[pick(stages.size())];
  if (ops.empty() || other.empty()) {
    return;
  }
  OpId& op = ops[pick(ops.size())];
  const int delta = (rng.NextU64() & 1) ? 1 : -1;
  switch (rng.NextU64() % 12) {
    case 0:
      std::swap(op, ops[pick(ops.size())]);
      break;
    case 1:
      std::swap(op, other[pick(other.size())]);
      break;
    case 2:
      op = ops[pick(ops.size())];
      break;
    case 3:
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(pick(ops.size())));
      break;
    case 4:
      other.push_back(op);
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(pick(ops.size())));
      break;
    case 5:
      op.micro += delta;
      break;
    case 6:
      op.slice += delta;
      break;
    case 7:
      op.chunk += delta;
      break;
    case 8:
      op.kind = static_cast<OpKind>(rng.NextU64() % 5);
      break;
    case 9:
      op.job = 1;
      break;
    case 10:
      op.gemm = 0;
      break;
    default:
      schedule.deferred_wgrad = !schedule.deferred_wgrad;
      break;
  }
}

bool Accepts(const std::function<void(const Schedule&)>& validate, const Schedule& schedule) {
  try {
    validate(schedule);
    return true;
  } catch (const CheckError&) {
    return false;
  }
}

// ValidateSchedule agrees with the hash-set oracle on every shape of the
// two fuzz sweeps above, as generated and under random corruptions.
TEST(GeneratorFuzz, ValidatorAgreesWithHashSetOracleUnderCorruption) {
  std::vector<Schedule> schedules;
  SplitMixRng option_rng(kOptionFuzzSeed);
  for (int trial = 0; trial < kOptionFuzzTrials; ++trial) {
    const RandomShape shape = DrawOptionShape(option_rng);
    schedules.push_back(GenerateCapped(shape.problem, shape.options, "fuzz"));
  }
  SplitMixRng baseline_rng(kBaselineFuzzSeed);
  for (int trial = 0; trial < kBaselineFuzzTrials; ++trial) {
    for (Schedule& schedule : DrawBaselineSchedules(baseline_rng)) {
      schedules.push_back(std::move(schedule));
    }
  }
  SplitMixRng rng(0xc0ff1e2025ull);
  int rejected = 0;
  int checked = 0;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    for (int round = 0; round < 8; ++round) {
      Schedule schedule = schedules[i];
      // Round 0 checks the schedule as generated; later rounds stack
      // 1..3 corruptions.
      const int corruptions = round == 0 ? 0 : 1 + static_cast<int>(rng.NextU64() % 3);
      for (int c = 0; c < corruptions; ++c) {
        Corrupt(schedule, rng);
      }
      const bool oracle = Accepts(OracleValidateSchedule, schedule);
      const bool actual = Accepts(ValidateSchedule, schedule);
      EXPECT_EQ(actual, oracle) << "schedule " << i << " (" << schedule.method << ") round "
                                << round;
      EXPECT_TRUE(round > 0 || actual) << "schedule " << i << " as generated";
      rejected += actual ? 0 : 1;
      ++checked;
    }
  }
  // The corruptions must exercise the rejecting paths, not only the
  // accepting one.
  EXPECT_GT(rejected, checked / 2);
}

// The capped generator as it was before incremental readiness and the
// per-stage oldest-open-micro pointer, kept as the reference: every
// round rescans each stage's pending ops in StageOps order, resolves
// readiness from a hash map of finished ops, and finds the oldest
// forward-incomplete micro by a linear scan from micro 0.
Schedule OracleGenerateCapped(const PipelineProblem& problem, const GeneratorOptions& options) {
  const bool emit_w_static = problem.split_backward && options.wgrad != WgradPolicy::kDeferred;
  const auto p = static_cast<std::size_t>(problem.stages);
  std::vector<std::vector<OpId>> pending(p);
  for (int stage = 0; stage < problem.stages; ++stage) {
    for (const OpId& op : StageOps(problem, stage)) {
      if (op.kind != OpKind::kWeightGrad || emit_w_static) {
        pending[static_cast<std::size_t>(stage)].push_back(op);
      }
    }
  }
  std::unordered_map<OpId, double, OpIdHash> end_of;
  std::vector<double> stage_free(p, 0.0);
  std::vector<int> inflight(p, 0);
  std::vector<std::vector<int>> fwd_scheduled(
      p, std::vector<int>(static_cast<std::size_t>(problem.micros), 0));
  std::vector<OpKind> last_kind(p, OpKind::kForward);
  const int per_micro = problem.virtual_chunks * problem.slices;
  const auto admit = [&](int stage, const OpId& op, int cap) {
    const int in_flight = inflight[static_cast<std::size_t>(stage)];
    if (in_flight >= cap) {
      return false;
    }
    const auto& scheduled = fwd_scheduled[static_cast<std::size_t>(stage)];
    int oldest = -1;
    for (int m = 0; m < problem.micros; ++m) {
      if (scheduled[static_cast<std::size_t>(m)] < per_micro) {
        oldest = m;
        break;
      }
    }
    if (oldest < 0 || op.micro <= oldest) {
      return true;
    }
    return in_flight + 1 + (per_micro - scheduled[static_cast<std::size_t>(oldest)]) <= cap;
  };
  const auto priority = [&](int stage, const OpId& op) -> std::int64_t {
    const bool prefer_backward = options.backward_first &&
                                 last_kind[static_cast<std::size_t>(stage)] != OpKind::kBackward;
    std::int64_t kind_rank = 0;
    if (op.kind == OpKind::kBackward) {
      kind_rank = prefer_backward ? 0 : 1;
    } else if (op.kind == OpKind::kForward) {
      kind_rank = prefer_backward ? 1 : 0;
    } else {
      kind_rank = options.wgrad == WgradPolicy::kImmediate ? 0 : 2;
    }
    if (options.child_count_backward_priority && op.kind == OpKind::kBackward) {
      const std::int64_t children = static_cast<std::int64_t>(op.slice + 1) * (op.chunk + 1) - 1;
      const std::int64_t max_children =
          static_cast<std::int64_t>(problem.slices) * problem.num_chunks();
      return ((kind_rank * 4096 + op.micro) * 4096 * 4096) + (max_children - children);
    }
    const bool backwardish = op.kind != OpKind::kForward;
    const std::int64_t chunk_rank = backwardish ? problem.num_chunks() - 1 - op.chunk : op.chunk;
    const std::int64_t slice_rank = backwardish ? problem.slices - 1 - op.slice : op.slice;
    return ((kind_rank * 4096 + op.micro) * 4096 + chunk_rank) * 4096 + slice_rank;
  };
  const double lookahead =
      options.lookahead >= 0 ? options.lookahead : 2.0 * options.transfer_time;

  Schedule schedule;
  schedule.problem = problem;
  schedule.method = "oracle";
  schedule.stage_ops.resize(p);
  schedule.deferred_wgrad = problem.split_backward && options.wgrad == WgradPolicy::kDeferred;
  double now = 0.0;
  std::size_t remaining = 0;
  for (const auto& ops : pending) {
    remaining += ops.size();
  }
  while (remaining > 0) {
    bool scheduled_any = false;
    double next_event = std::numeric_limits<double>::infinity();
    for (int stage = 0; stage < problem.stages; ++stage) {
      auto& ops = pending[static_cast<std::size_t>(stage)];
      const double free_at = stage_free[static_cast<std::size_t>(stage)];
      if (ops.empty()) {
        continue;
      }
      if (free_at > now) {
        next_event = std::min(next_event, free_at);
        continue;
      }
      const int cap =
          options.inflight_cap.empty() ? 0 : options.inflight_cap[static_cast<std::size_t>(stage)];
      std::size_t best = ops.size();
      std::int64_t best_priority = 0;
      double best_ready = 0.0;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const OpId& op = ops[i];
        double ready = 0.0;
        bool unlocked = true;
        for (const Dep& dep : DependenciesOf(problem, op)) {
          const auto done = end_of.find(dep.op);
          if (done == end_of.end()) {
            unlocked = false;
            break;
          }
          ready = std::max(ready, done->second + (dep.cross_stage ? options.transfer_time : 0.0));
        }
        if (!unlocked) {
          continue;
        }
        if (ready > now + lookahead) {
          next_event = std::min(next_event, ready);
          continue;
        }
        if (op.kind == OpKind::kForward && cap > 0 && !admit(stage, op, cap)) {
          continue;
        }
        const std::int64_t rank = priority(stage, op);
        if (best == ops.size() || rank < best_priority) {  // ties: first in stage order
          best = i;
          best_priority = rank;
          best_ready = ready;
        }
      }
      if (best == ops.size()) {
        continue;
      }
      const OpId op = ops[best];
      double duration = op.kind == OpKind::kForward    ? options.f_time
                        : op.kind == OpKind::kBackward ? options.b_time
                                                       : options.w_time;
      if (!options.stage_time_scale.empty()) {
        duration *= options.stage_time_scale[static_cast<std::size_t>(stage)];
      }
      const double end = std::max(now, best_ready) + duration;
      end_of[op] = end;
      schedule.stage_ops[static_cast<std::size_t>(stage)].push_back(op);
      if (op.kind == OpKind::kForward) {
        ++inflight[static_cast<std::size_t>(stage)];
        ++fwd_scheduled[static_cast<std::size_t>(stage)][static_cast<std::size_t>(op.micro)];
      } else if (op.kind == OpKind::kBackward) {
        --inflight[static_cast<std::size_t>(stage)];
      }
      if (op.kind == OpKind::kForward || op.kind == OpKind::kBackward) {
        last_kind[static_cast<std::size_t>(stage)] = op.kind;
      }
      stage_free[static_cast<std::size_t>(stage)] = end;
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(best));
      --remaining;
      scheduled_any = true;
      next_event = std::min(next_event, end);
    }
    if (!scheduled_any) {
      MEPIPE_CHECK_LT(next_event, std::numeric_limits<double>::infinity()) << "oracle deadlocked";
      now = next_event;
    }
  }
  return schedule;
}

// GenerateCapped agrees op for op with the reference generator on every
// fuzz shape of DrawOptionShape, as drawn (capped, deferred or
// lowest-priority W) and widened by a second stream of draws to
// uncapped runs, immediate W and non-uniform stage time scales.
TEST(GeneratorFuzz, MatchesTheLinearScanOracle) {
  SplitMixRng rng(kOptionFuzzSeed);
  SplitMixRng widen(0x0b5e55ed2025ull);
  int uncapped = 0;
  int immediate = 0;
  int scaled = 0;
  for (int trial = 0; trial < kOptionFuzzTrials; ++trial) {
    const RandomShape shape = DrawOptionShape(rng);
    RandomShape wide = shape;
    if (widen.NextU64() % 4 == 0) {
      wide.options.inflight_cap.clear();
    }
    if (wide.problem.split_backward) {
      wide.options.wgrad = static_cast<WgradPolicy>(widen.NextU64() % 3);
    }
    if (widen.NextU64() & 1) {
      wide.options.stage_time_scale.resize(static_cast<std::size_t>(wide.problem.stages));
      for (double& scale : wide.options.stage_time_scale) {
        scale = 0.5 + static_cast<double>(widen.NextU64() % 5) * 0.5;  // 0.5 .. 2.5
      }
    }
    uncapped += wide.options.inflight_cap.empty() ? 1 : 0;
    immediate += wide.options.wgrad == WgradPolicy::kImmediate ? 1 : 0;
    scaled += wide.options.stage_time_scale.empty() ? 0 : 1;
    for (const RandomShape* s : {&shape, static_cast<const RandomShape*>(&wide)}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + (s == &wide ? " widened" : " as drawn"));
      const Schedule actual = GenerateCapped(s->problem, s->options, "fuzz");
      const Schedule oracle = OracleGenerateCapped(s->problem, s->options);
      EXPECT_EQ(actual.stage_ops, oracle.stage_ops);
      EXPECT_EQ(actual.deferred_wgrad, oracle.deferred_wgrad);
    }
  }
  EXPECT_GT(uncapped, 0);
  EXPECT_GT(immediate, 0);
  EXPECT_GT(scaled, 0);
}

TEST(Generator, ChildCountPriorityStillValidates) {
  const PipelineProblem problem = MakeProblem(4, 2, 2, 4);
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(4, 6, 4);
  options.child_count_backward_priority = true;
  const Schedule schedule = GenerateCapped(problem, options, "child-priority");
  ValidateSchedule(schedule);  // does not throw
  SUCCEED();
}

TEST(Generator, StageTimeScaleValidatesAndSchedules) {
  const PipelineProblem problem = MakeProblem(4, 1, 2, 6);
  GeneratorOptions options;
  options.inflight_cap = CapSchedule(4, 5, 2);
  options.stage_time_scale = {1.0, 1.0, 2.5, 1.0};
  const Schedule schedule = GenerateCapped(problem, options, "scaled");
  ValidateSchedule(schedule);

  // Wrong arity and non-positive entries are rejected.
  options.stage_time_scale = {1.0, 2.0};
  EXPECT_THROW(GenerateCapped(problem, options, "bad-arity"), CheckError);
  options.stage_time_scale = {1.0, 1.0, 0.0, 1.0};
  EXPECT_THROW(GenerateCapped(problem, options, "bad-scale"), CheckError);
}

TEST(GeneratorValidate, ReportsArityMismatchesBothDirections) {
  // Per-stage vectors shorter AND longer than the stage count are
  // structured errors — the long case previously sailed past the old
  // inline check only to index garbage (or silently ignore entries)
  // deep inside generation.
  GeneratorOptions options;
  for (const std::size_t len : {std::size_t{2}, std::size_t{7}}) {
    options.inflight_cap.assign(len, 4);
    options.stage_time_scale.assign(len, 1.0);
    const std::vector<GeneratorIssue> issues = options.Validate(/*stages=*/4);
    ASSERT_EQ(issues.size(), 2u) << "len=" << len;
    EXPECT_EQ(issues[0].code, GeneratorIssue::Code::kInflightCapArity);
    EXPECT_EQ(issues[1].code, GeneratorIssue::Code::kStageTimeScaleArity);
    for (const GeneratorIssue& issue : issues) {
      EXPECT_NE(issue.message.find(std::to_string(len)), std::string::npos);
      EXPECT_NE(issue.message.find('4'), std::string::npos);
    }
  }
  // Matching arity (or empty = uniform/uncapped) is clean.
  options.inflight_cap.assign(4, 4);
  options.stage_time_scale.assign(4, 1.0);
  EXPECT_TRUE(options.Validate(4).empty());
  options.inflight_cap.clear();
  options.stage_time_scale.clear();
  EXPECT_TRUE(options.Validate(4).empty());
}

TEST(GeneratorValidate, ReportsBadEntriesAndDurations) {
  GeneratorOptions options;
  options.inflight_cap = {4, -1, 4, 4};
  options.stage_time_scale = {1.0, 1.0, 0.0, 1.0};
  options.b_time = 0.0;
  options.transfer_time = -0.05;
  const std::vector<GeneratorIssue> issues = options.Validate(4);
  ASSERT_EQ(issues.size(), 4u);
  EXPECT_EQ(issues[0].code, GeneratorIssue::Code::kNegativeInflightCap);
  EXPECT_EQ(issues[0].stage, 1);
  EXPECT_EQ(issues[1].code, GeneratorIssue::Code::kNonPositiveTimeScale);
  EXPECT_EQ(issues[1].stage, 2);
  EXPECT_EQ(issues[2].code, GeneratorIssue::Code::kNonPositiveDuration);
  EXPECT_EQ(issues[3].code, GeneratorIssue::Code::kNegativeTransfer);
  for (const GeneratorIssue& issue : issues) {
    EXPECT_FALSE(issue.message.empty());
    EXPECT_NE(GeneratorIssueCodeName(issue.code), nullptr);
  }
}

TEST(GeneratorValidate, ReportsNonFiniteTransferAndNanLookahead) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double transfer : {nan, inf, -inf}) {
    GeneratorOptions options;
    options.transfer_time = transfer;
    const std::vector<GeneratorIssue> issues = options.Validate(4);
    ASSERT_EQ(issues.size(), 1u) << transfer;
    EXPECT_EQ(issues[0].code, GeneratorIssue::Code::kNonFiniteTransfer) << transfer;
    EXPECT_STREQ(GeneratorIssueCodeName(issues[0].code), "non-finite-transfer");
  }
  GeneratorOptions options;
  options.lookahead = nan;
  std::vector<GeneratorIssue> issues = options.Validate(4);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].code, GeneratorIssue::Code::kNanLookahead);
  EXPECT_STREQ(GeneratorIssueCodeName(issues[0].code), "nan-lookahead");
  // Both at once are two issues; a negative lookahead still selects the
  // default and an infinite one is a well-defined (if wide) window.
  options.transfer_time = nan;
  EXPECT_EQ(options.Validate(4).size(), 2u);
  options.transfer_time = 0.05;
  for (const double lookahead : {-1.0, 0.0, inf}) {
    options.lookahead = lookahead;
    EXPECT_TRUE(options.Validate(4).empty()) << lookahead;
  }

  // GenerateCapped refuses them instead of scheduling on NaN ready times.
  const PipelineProblem problem = MakeProblem(4, 1, 2, 8);
  GeneratorOptions nan_transfer;
  nan_transfer.transfer_time = nan;
  EXPECT_THROW(GenerateCapped(problem, nan_transfer, "nan-transfer"), CheckError);
  GeneratorOptions inf_transfer;
  inf_transfer.transfer_time = inf;
  EXPECT_THROW(GenerateCapped(problem, inf_transfer, "inf-transfer"), CheckError);
  GeneratorOptions nan_lookahead;
  nan_lookahead.lookahead = nan;
  EXPECT_THROW(GenerateCapped(problem, nan_lookahead, "nan-lookahead"), CheckError);
}

TEST(GeneratorValidate, GenerateCappedThrowsOnLongVectors) {
  // The short-vector case is covered by StageTimeScaleValidatesAndSchedules;
  // the long-vector case is the half the old entry check missed.
  const PipelineProblem problem = MakeProblem(4, 1, 2, 6);
  GeneratorOptions long_cap;
  long_cap.inflight_cap = {4, 4, 4, 4, 4};
  EXPECT_THROW(GenerateCapped(problem, long_cap, "long-cap"), CheckError);
  GeneratorOptions long_scale;
  long_scale.stage_time_scale = {1.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(GenerateCapped(problem, long_scale, "long-scale"), CheckError);
}

TEST(Generator, StageTimeScaleChangesTheInterleaving) {
  // A heavily skewed stage rate must change the generated program order
  // somewhere (the point of the hook), while a uniform scale vector is
  // exactly equivalent to no vector at all.
  const PipelineProblem problem = MakeProblem(4, 1, 2, 8);
  GeneratorOptions uniform;
  uniform.inflight_cap = CapSchedule(4, 6, 2);
  const Schedule base = GenerateCapped(problem, uniform, "base");

  GeneratorOptions same = uniform;
  same.stage_time_scale = {1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(GenerateCapped(problem, same, "base").stage_ops, base.stage_ops);

  GeneratorOptions skewed = uniform;
  skewed.stage_time_scale = {1.0, 1.0, 4.0, 1.0};
  const Schedule scaled = GenerateCapped(problem, skewed, "skewed");
  ValidateSchedule(scaled);
  EXPECT_NE(scaled.stage_ops, base.stage_ops);
}

}  // namespace
}  // namespace mepipe::sched
