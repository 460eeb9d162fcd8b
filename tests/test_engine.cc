// Tests for the discrete-event execution engine (sim/engine) using
// uniform costs, where the classic pipeline formulas are exact.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/format.h"
#include "core/svpp.h"
#include "sched/baselines.h"
#include "sched/generator.h"
#include "sched/synth.h"
#include "sched/zbv.h"
#include "sim/cost_model.h"
#include "sim/noise.h"

namespace mepipe::sim {
namespace {

using sched::OpKind;

TEST(Engine, GPipeMakespanMatchesFormula) {
  const int p = 4;
  const int n = 6;
  const auto schedule = sched::GPipeSchedule(p, n);
  const UniformCostModel costs(/*f=*/1.0, /*b=*/2.0, /*w=*/0.0, /*transfer=*/0.0);
  const SimResult result = Simulate(schedule, costs);
  // (n + p - 1) forward slots + (n + p - 1) backward slots.
  EXPECT_DOUBLE_EQ(result.makespan, (n + p - 1) * 3.0);
  EXPECT_NEAR(result.bubble_ratio, static_cast<double>(p - 1) / (n + p - 1), 1e-12);
}

TEST(Engine, OneFOneBMakespanMatchesFormula) {
  const int p = 4;
  const int n = 8;
  const auto schedule = sched::OneFOneBSchedule(p, n);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  const SimResult result = Simulate(schedule, costs);
  EXPECT_DOUBLE_EQ(result.makespan, (n + p - 1) * 3.0);
  EXPECT_NEAR(result.bubble_ratio, static_cast<double>(p - 1) / (n + p - 1), 1e-12);
}

TEST(Engine, OneFOneBPeakMemoryIsWarmupDepth) {
  const int p = 4;
  const int n = 8;
  const auto schedule = sched::OneFOneBSchedule(p, n);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/10);
  const SimResult result = Simulate(schedule, costs);
  // Stage i retains p - i forwards at peak.
  for (int stage = 0; stage < p; ++stage) {
    EXPECT_EQ(result.stages[static_cast<std::size_t>(stage)].peak_activation,
              10 * (p - stage))
        << "stage " << stage;
  }
  EXPECT_EQ(result.peak_activation, 10 * p);
}

TEST(Engine, GPipePeakMemoryRetainsAllMicros) {
  const int p = 3;
  const int n = 5;
  const auto schedule = sched::GPipeSchedule(p, n);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0, /*act_bytes=*/7);
  const SimResult result = Simulate(schedule, costs);
  EXPECT_EQ(result.peak_activation, 7 * n);
}

TEST(Engine, TransfersDelayDownstreamStages) {
  const auto schedule = sched::GPipeSchedule(2, 1);
  const UniformCostModel with_transfer(1.0, 2.0, 0.0, /*transfer=*/0.5);
  const UniformCostModel without_transfer(1.0, 2.0, 0.0, 0.0);
  const Seconds slow = Simulate(schedule, with_transfer).makespan;
  const Seconds fast = Simulate(schedule, without_transfer).makespan;
  // One forward transfer + one backward transfer on the critical path.
  EXPECT_DOUBLE_EQ(slow, fast + 1.0);
}

TEST(Engine, TimelineCoversEveryComputeOp) {
  const auto schedule = sched::OneFOneBSchedule(3, 4);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.1);
  const SimResult result = Simulate(schedule, costs);
  int compute_spans = 0;
  for (const OpSpan& span : result.timeline) {
    if (!span.is_transfer) {
      ++compute_spans;
      EXPECT_LT(span.start, span.end);
    }
  }
  EXPECT_EQ(compute_spans, 3 * 4 * 2);
}

// --- split backward / weight-gradient handling ------------------------------

TEST(Engine, DeferredWgradAllExecuted) {
  const auto schedule = sched::Zb1pSchedule(4, 6);
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.0);
  EngineOptions options;
  options.wgrad_mode = WgradMode::kFillWhole;
  const SimResult result = Simulate(schedule, costs, options);
  int w_spans = 0;
  for (const OpSpan& span : result.timeline) {
    if (!span.is_transfer && span.op.kind == OpKind::kWeightGrad) {
      ++w_spans;
    }
  }
  EXPECT_EQ(w_spans, 4 * 6);  // one whole-W per (stage, micro)
}

TEST(Engine, FineGrainedSplitsIntoGemms) {
  const auto schedule = sched::Zb1pSchedule(2, 3);
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.0, 1, 0, /*wgrad_gemms=*/5);
  EngineOptions options;
  options.wgrad_mode = WgradMode::kFillGemms;
  const SimResult result = Simulate(schedule, costs, options);
  int gemm_spans = 0;
  for (const OpSpan& span : result.timeline) {
    if (!span.is_transfer && span.op.kind == OpKind::kWeightGradGemm) {
      ++gemm_spans;
    }
  }
  EXPECT_EQ(gemm_spans, 2 * 3 * 5);
}

TEST(Engine, ZeroBubbleBeatsImmediateWgradOnTail) {
  // With W deferred into bubbles, the iteration must not be slower than
  // executing W inline right after each B.
  const auto schedule = sched::Zb1pSchedule(4, 8);
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.05);
  EngineOptions fill;
  fill.wgrad_mode = WgradMode::kFillWhole;
  EngineOptions immediate;
  immediate.wgrad_mode = WgradMode::kImmediate;
  const Seconds filled = Simulate(schedule, costs, fill).makespan;
  const Seconds inline_w = Simulate(schedule, costs, immediate).makespan;
  EXPECT_LE(filled, inline_w + 1e-9);
}

TEST(Engine, SplitBackwardRetainsActivationUntilW) {
  // Split schedules hold activations + act-grads between B and W, so the
  // peak must exceed the non-split equivalent.
  const int p = 2;
  const int n = 4;
  const auto split = sched::Zb1pSchedule(p, n);
  const auto fused = sched::OneFOneBSchedule(p, n);
  const UniformCostModel split_costs(1.0, 1.0, 1.0, 0.0, /*act=*/10, /*act_grad=*/4);
  const UniformCostModel fused_costs(1.0, 2.0, 0.0, 0.0, /*act=*/10);
  EngineOptions options;
  options.wgrad_mode = WgradMode::kFillWhole;
  const Bytes split_peak = Simulate(split, split_costs, options).peak_activation;
  const Bytes fused_peak = Simulate(fused, fused_costs).peak_activation;
  EXPECT_GT(split_peak, fused_peak);
}

TEST(Engine, MemoryReturnsToZero) {
  // Total allocated == total released across the iteration.
  const auto schedule = sched::Zb1pSchedule(3, 5);
  const UniformCostModel costs(1.0, 1.0, 1.0, 0.1, 8, 3, 4);
  EngineOptions options;
  options.wgrad_mode = WgradMode::kFillGemms;
  const SimResult result = Simulate(schedule, costs, options);
  // Indirect check: peak is positive and bounded by n * (act + grad) per stage.
  EXPECT_GT(result.peak_activation, 0);
  EXPECT_LE(result.peak_activation, 5 * (8 + 3));
}

TEST(Engine, BusyTimeAccountsAllWork) {
  const int p = 2;
  const int n = 3;
  const auto schedule = sched::OneFOneBSchedule(p, n);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.0);
  const SimResult result = Simulate(schedule, costs);
  for (const auto& stage : result.stages) {
    EXPECT_DOUBLE_EQ(stage.busy, n * 3.0);
  }
}

TEST(Engine, IdleBreakdownSumsToTheBubble) {
  // warmup + steady + drain idle must account for exactly the stage's
  // non-busy time, on fused and split schedules alike.
  const std::vector<sched::Schedule> schedules = {
      sched::OneFOneBSchedule(4, 6), sched::GPipeSchedule(3, 5), sched::Zb1pSchedule(3, 4)};
  for (const auto& schedule : schedules) {
    const UniformCostModel costs(1.0, schedule.problem.split_backward ? 1.0 : 2.0,
                                 schedule.problem.split_backward ? 1.0 : 0.0, 0.05, 8, 3);
    EngineOptions options;
    options.wgrad_mode = WgradMode::kFillWhole;
    const SimResult result = Simulate(schedule, costs, options);
    for (std::size_t i = 0; i < result.stages.size(); ++i) {
      const StageMetrics& m = result.stages[i];
      EXPECT_GE(m.warmup_idle, 0.0);
      EXPECT_GE(m.steady_idle, 0.0);
      EXPECT_GE(m.drain_idle, 0.0);
      EXPECT_NEAR(m.warmup_idle + m.steady_idle + m.drain_idle, result.makespan - m.busy, 1e-9)
          << schedule.method << " stage " << i;
    }
  }
}

TEST(Engine, OneFOneBWarmupGrowsDownThePipeline) {
  // Stage i cannot start before i forwards have relayed down, so the
  // warmup idle is strictly increasing in the stage index. The backward
  // chain drains the other way — the last backward lands on stage 0, so
  // drain idle *also* grows downstream and stage 0 has none.
  const auto schedule = sched::OneFOneBSchedule(4, 8);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.05);
  const SimResult result = Simulate(schedule, costs);
  for (std::size_t i = 0; i + 1 < result.stages.size(); ++i) {
    EXPECT_LT(result.stages[i].warmup_idle, result.stages[i + 1].warmup_idle) << i;
    EXPECT_LT(result.stages[i].drain_idle, result.stages[i + 1].drain_idle) << i;
  }
  EXPECT_DOUBLE_EQ(result.stages[0].warmup_idle, 0.0);
  EXPECT_DOUBLE_EQ(result.stages[0].drain_idle, 0.0);
}

TEST(Engine, StragglerShowsUpAsNeighborSteadyIdle) {
  // A persistent straggler starves the stages around it mid-pipeline:
  // their steady-state gaps grow while their own busy time stays clean.
  const auto schedule = sched::OneFOneBSchedule(4, 8);
  const UniformCostModel costs(1.0, 2.0, 0.0, 0.05);
  const SimResult clean = Simulate(schedule, costs);

  FaultPlan plan;
  plan.stragglers.push_back({2, 0.0, 1e9, 2.0});
  EngineOptions options;
  options.fault_plan = plan;
  const SimResult faulted = Simulate(schedule, costs, options);

  EXPECT_GT(faulted.stages[1].steady_idle, clean.stages[1].steady_idle);
  EXPECT_GT(faulted.stages[3].steady_idle, clean.stages[3].steady_idle);
  EXPECT_DOUBLE_EQ(faulted.stages[1].busy, clean.stages[1].busy);
}

// Every SimResult field except the timeline, compared bit for bit.
void ExpectSameExceptTimeline(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bubble_ratio, b.bubble_ratio);
  EXPECT_EQ(a.peak_activation, b.peak_activation);
  EXPECT_EQ(a.budget_violations, b.budget_violations);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const StageMetrics& x = a.stages[i];
    const StageMetrics& y = b.stages[i];
    EXPECT_EQ(x.busy, y.busy) << i;
    EXPECT_EQ(x.peak_activation, y.peak_activation) << i;
    EXPECT_EQ(x.bubble_ratio, y.bubble_ratio) << i;
    EXPECT_EQ(x.warmup_idle, y.warmup_idle) << i;
    EXPECT_EQ(x.steady_idle, y.steady_idle) << i;
    EXPECT_EQ(x.drain_idle, y.drain_idle) << i;
    EXPECT_EQ(x.budget_violations, y.budget_violations) << i;
    EXPECT_EQ(x.budget_overflow_bytes, y.budget_overflow_bytes) << i;
    EXPECT_EQ(x.dp_sync, y.dp_sync) << i;
  }
  EXPECT_EQ(a.dp.serialized, b.dp.serialized);
  EXPECT_EQ(a.dp.hidden, b.dp.hidden);
  EXPECT_EQ(a.dp.exposed, b.dp.exposed);
  EXPECT_EQ(a.dp.last_end, b.dp.last_end);
  EXPECT_EQ(a.dp.buckets, b.dp.buckets);
  ASSERT_EQ(a.fault_spans.size(), b.fault_spans.size());
  for (std::size_t i = 0; i < a.fault_spans.size(); ++i) {
    const FaultSpan& x = a.fault_spans[i];
    const FaultSpan& y = b.fault_spans[i];
    EXPECT_EQ(x.kind, y.kind) << i;
    EXPECT_EQ(x.stage, y.stage) << i;
    EXPECT_EQ(x.from, y.from) << i;
    EXPECT_EQ(x.to, y.to) << i;
    EXPECT_EQ(x.begin, y.begin) << i;
    EXPECT_EQ(x.end, y.end) << i;
    EXPECT_EQ(x.label, y.label) << i;
  }
  ASSERT_EQ(a.memory_timeline.size(), b.memory_timeline.size());
  for (std::size_t i = 0; i < a.memory_timeline.size(); ++i) {
    ASSERT_EQ(a.memory_timeline[i].size(), b.memory_timeline[i].size()) << i;
    for (std::size_t j = 0; j < a.memory_timeline[i].size(); ++j) {
      EXPECT_EQ(a.memory_timeline[i][j].time, b.memory_timeline[i][j].time);
      EXPECT_EQ(a.memory_timeline[i][j].bytes, b.memory_timeline[i][j].bytes);
    }
  }
}

// Turning the span timeline off changes nothing else: every schedule
// generator, every W mode, with and without activation budgets, DP
// overlap with and without a shared fabric, clean and under a fault plan
// with a fail-stop. The recorded run reserves exactly the spans it
// stores, per-GEMM W splits included.
TEST(Engine, UnrecordedTimelineMatchesRecordedRunBitForBit) {
  const int p = 4;
  std::vector<std::pair<std::string, sched::Schedule>> schedules = {
      {"gpipe", sched::GPipeSchedule(p, 6)},
      {"1f1b", sched::OneFOneBSchedule(p, 8)},
      {"vpp", sched::VppSchedule(p, 2, 8)},
      {"terapipe", sched::TeraPipeSchedule(p, 2, 4)},
      {"hanayo", sched::HanayoSchedule(p, 8)},
      {"zb1p", sched::Zb1pSchedule(p, 8)},
      {"zbv", sched::ZbvSchedule(p, 8)},
      {"zbv-capped", sched::ZbvCappedSchedule(p, 8)},
      {"svpp", core::GenerateSvpp({.stages = p, .virtual_chunks = 2, .slices = 2, .micros = 8})},
  };
  sched::PipelineProblem synth_problem;
  synth_problem.stages = p;
  synth_problem.virtual_chunks = 2;
  synth_problem.micros = 8;
  synth_problem.split_backward = true;
  schedules.push_back({"synth", sched::SynthesizeSchedule(synth_problem)});

  // Priced buckets, 3 GEMMs per W, 10-byte activations, 5-byte act-grads.
  const UniformCostModel costs(1.0, 1.0, 0.7, 0.1, 10, 5, 3, 2.0);
  FaultPlan faults;
  faults.stragglers.push_back({1, 2.0, 12.0, 1.5});
  faults.fail_stops.push_back({2, 9.0, 0.5, 1.0});
  faults.checkpoints = {4.0};

  for (const auto& [name, schedule] : schedules) {
    for (const WgradMode mode :
         {WgradMode::kImmediate, WgradMode::kFillWhole, WgradMode::kFillGemms}) {
      for (const bool budgeted : {false, true}) {
        for (const int dp : {0, 1, 2}) {
          for (const bool faulted : {false, true}) {
            SCOPED_TRACE(name + " mode=" + std::to_string(static_cast<int>(mode)) +
                         " budgeted=" + std::to_string(budgeted) + " dp=" +
                         std::to_string(dp) + " faulted=" + std::to_string(faulted));
            EngineOptions options;
            options.wgrad_mode = mode;
            if (budgeted) {
              options.activation_budget.assign(static_cast<std::size_t>(p), 40);
            }
            options.dp_overlap = dp > 0;
            options.dp_link_shared = dp > 1;
            options.record_memory_timeline = true;
            if (faulted) {
              options.fault_plan = faults;
            }
            const SimResult recorded = Simulate(schedule, costs, options);
            options.record_timeline = false;
            const SimResult bare = Simulate(schedule, costs, options);
            ExpectSameExceptTimeline(recorded, bare);
            EXPECT_EQ(bare.timeline.capacity(), 0u);
            EXPECT_FALSE(recorded.timeline.empty());
            EXPECT_EQ(recorded.timeline.capacity(), recorded.timeline.size());
          }
        }
      }
    }
  }
}

// ---- Golden runs ----------------------------------------------------------
//
// Every SimResult scalar and StageMetrics field, doubles as hex bits, the
// DP sync stats, and FNV-1a hashes of the span timeline, the memory
// series and the fault spans, for a grid of runs pinned in
// tests/golden/engine_runs.txt (see the README there). The grid crosses
// seven schedule families with the three W modes, no budget and a tight
// budget with unbudgeted (0) stages, a clean run and a plan with every
// fault kind, DP overlap off / on / on a shared fabric, and the memory
// series off / on. Costs are seeded lognormal noise over uniform costs
// with non-zero transfers and priced DP buckets.

std::string Hex(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return StrFormat("%016llx", static_cast<unsigned long long>(bits));
}

class Fnv1a {
 public:
  template <typename T>
  void Mix(const T& value) {
    MixBytes(&value, sizeof(value));
  }
  void MixBytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  std::string Hex() const { return StrFormat("%016llx", static_cast<unsigned long long>(h_)); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string TimelineHash(const std::vector<OpSpan>& timeline) {
  Fnv1a h;
  for (const OpSpan& span : timeline) {
    h.Mix(span.stage);
    h.Mix(static_cast<int>(span.op.kind));
    h.Mix(span.op.micro);
    h.Mix(span.op.slice);
    h.Mix(span.op.chunk);
    h.Mix(span.op.gemm);
    h.Mix(span.op.job);
    h.Mix(span.start);
    h.Mix(span.end);
    h.Mix(static_cast<int>(span.is_transfer));
  }
  return h.Hex();
}

std::string MemoryHash(const std::vector<std::vector<MemoryPoint>>& series) {
  Fnv1a h;
  for (const auto& stage : series) {
    h.Mix(stage.size());
    for (const MemoryPoint& point : stage) {
      h.Mix(point.time);
      h.Mix(point.bytes);
    }
  }
  return h.Hex();
}

std::string FaultSpanHash(const std::vector<FaultSpan>& spans) {
  Fnv1a h;
  for (const FaultSpan& span : spans) {
    h.Mix(static_cast<int>(span.kind));
    h.Mix(span.stage);
    h.Mix(span.from);
    h.Mix(span.to);
    h.Mix(span.begin);
    h.Mix(span.end);
    h.MixBytes(span.label.data(), span.label.size());
    h.MixBytes("\n", 1);
  }
  return h.Hex();
}

std::string EngineGoldenLine(const std::string& name, const SimResult& r) {
  std::ostringstream out;
  out << name << " makespan=" << Hex(r.makespan) << " bubble=" << Hex(r.bubble_ratio)
      << " peak=" << r.peak_activation << " violations=" << r.budget_violations
      << " dp=" << Hex(r.dp.serialized) << "," << Hex(r.dp.hidden) << "," << Hex(r.dp.exposed)
      << "," << Hex(r.dp.last_end) << "," << r.dp.buckets << " stages=";
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const StageMetrics& m = r.stages[i];
    out << (i > 0 ? ";" : "") << Hex(m.busy) << "," << m.peak_activation << ","
        << Hex(m.bubble_ratio) << "," << Hex(m.warmup_idle) << "," << Hex(m.steady_idle) << ","
        << Hex(m.drain_idle) << "," << m.budget_violations << "," << m.budget_overflow_bytes
        << "," << Hex(m.dp_sync);
  }
  out << " timeline=" << r.timeline.size() << ":" << TimelineHash(r.timeline)
      << " memory=" << r.memory_timeline.size() << ":" << MemoryHash(r.memory_timeline)
      << " faults=" << r.fault_spans.size() << ":" << FaultSpanHash(r.fault_spans) << '\n';
  return out.str();
}

std::string EngineGoldenRuns() {
  const int p = 4;
  const std::vector<std::pair<std::string, sched::Schedule>> schedules = {
      {"gpipe", sched::GPipeSchedule(p, 6)},
      {"1f1b", sched::OneFOneBSchedule(p, 8)},
      {"vpp", sched::VppSchedule(p, 2, 8)},
      {"terapipe", sched::TeraPipeSchedule(p, 4, 4)},
      {"zb1p", sched::Zb1pSchedule(p, 8)},
      {"zbv", sched::HandcraftedZbvSchedule(p, 8)},
      {"svpp", core::GenerateSvpp({.stages = p, .virtual_chunks = 2, .slices = 2, .micros = 8})},
  };
  // 3 GEMMs per W, 10-byte activations, 4-byte act-grads, 1.5 s buckets.
  const UniformCostModel uniform(1.0, 2.0, 0.7, /*transfer=*/0.15, 10, 4, 3, 1.5);
  const NoisyCostModel costs(uniform, 0.2, 7);
  FaultPlan faults;
  faults.stragglers.push_back({1, 2.0, 10.0, 1.7});
  faults.link_degrades.push_back({0, 1, 0.0, 20.0, 2.0});
  faults.transfer_retries.push_back({2, 3, 5.0, 15.0, 2, 0.1});
  faults.fail_stops.push_back({3, 12.0, 1.0, 2.0});
  faults.checkpoints = {6.0};
  const std::vector<Bytes> tight_budget = {35, 0, 25, 0};

  const char* const modes[] = {"immediate", "whole", "gemms"};
  std::string text;
  for (const auto& [name, schedule] : schedules) {
    for (const WgradMode mode :
         {WgradMode::kImmediate, WgradMode::kFillWhole, WgradMode::kFillGemms}) {
      for (const bool budgeted : {false, true}) {
        for (const bool faulted : {false, true}) {
          for (const int dp : {0, 1, 2}) {
            for (const bool memory : {false, true}) {
              EngineOptions options;
              options.wgrad_mode = mode;
              if (budgeted) {
                options.activation_budget = tight_budget;
              }
              if (faulted) {
                options.fault_plan = faults;
              }
              options.dp_overlap = dp > 0;
              options.dp_link_shared = dp > 1;
              options.record_memory_timeline = memory;
              const std::string cell =
                  StrFormat("%s/%s/%s/%s/dp%d/%s", name.c_str(),
                            modes[static_cast<int>(mode)], budgeted ? "budget" : "unbudgeted",
                            faulted ? "faults" : "clean", dp, memory ? "memory" : "nomemory");
              text += EngineGoldenLine(cell, Simulate(schedule, costs, options));
            }
          }
        }
      }
    }
  }
  return text;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(EngineGolden, RunsAreBitStable) {
  const std::string path = std::string(MEPIPE_TESTS_DIR) + "/golden/engine_runs.txt";
  const std::string runs = EngineGoldenRuns();
  if (std::getenv("MEPIPE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    MEPIPE_CHECK(out.good()) << "cannot write " << path;
    out << runs;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string golden = ReadFileOrEmpty(path);
  ASSERT_FALSE(golden.empty()) << "missing " << path;
  // Report the first differing cell rather than two 500-line blobs.
  std::istringstream want(golden);
  std::istringstream got(runs);
  std::string want_line;
  std::string got_line;
  int line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line)) << "run output ends before golden line " << line;
    ASSERT_EQ(got_line, want_line) << "golden line " << line;
  }
  EXPECT_FALSE(std::getline(got, got_line)) << "run output has more lines than the golden";
}

}  // namespace
}  // namespace mepipe::sim
