// A memo of constructed schedules for one caller's scope.
//
// Every schedule constructor in sched/ is a pure function of its inputs,
// and a planner search asks for the same construction many times: a
// recompute on/off pair shares one pipeline problem, a straggler re-run
// regenerates the schedule its plain run built, and the winner's
// timeline re-simulation rebuilds the winner. The memo builds each
// distinct construction once, under the constructor's complete input as
// key, and hands out the result as a shared ValidatedSchedule — the
// constructor validated it, so neither the memo nor the engine checks it
// again.
//
// Keys (compared with defaulted ==, so every field takes part):
//   Capped  GenerateCapped's CappedSpec — problem, every GeneratorOptions
//           field (stage_time_scale included) and the method label;
//   Zbv     (stages, micros, ZbvOptions) — the cost-derived f/b/w,
//           transfer and budget units included;
//   Synth   (problem, SynthOptions);
//   Vpp     (stages, virtual_chunks, micros).
// A key holding NaN never equals itself, so such a construction is
// rebuilt on every call rather than served.
//
// Retention is bounded: past kMaxBytes of retained program orders the
// least recently used entries are dropped (the newest always stays).
// Planner repeats are close together — a recompute pair is adjacent in
// the grid and a straggler re-run follows its plain run — so a small
// bound keeps nearly every hit (466 of the 480 an unbounded memo serves
// over the 108 paper_grid keys) while a call's distinct schedules (up
// to 6 MiB for the largest paper keys) are never all held at once.
//
// Not thread-safe, and not meant to outlive its scope:
// core::SearchBestStrategy keeps one per call and frees it on return.
#ifndef MEPIPE_SCHED_MEMO_H_
#define MEPIPE_SCHED_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "sched/generator.h"
#include "sched/schedule.h"
#include "sched/synth.h"
#include "sched/zbv.h"

namespace mepipe::sched {

class ScheduleMemo {
 public:
  static constexpr std::size_t kMaxBytes = std::size_t{256} << 10;

  ValidatedSchedule Capped(const CappedSpec& spec);
  ValidatedSchedule Zbv(int stages, int micros, const ZbvOptions& options);
  ValidatedSchedule Synth(const PipelineProblem& problem, const SynthOptions& options);
  ValidatedSchedule Vpp(int stages, int virtual_chunks, int micros);

  int builds() const { return builds_; }  // constructions run
  int hits() const { return hits_; }      // requests served without one
  std::size_t entries() const { return entries_.size(); }

 private:
  struct ZbvKey {
    int stages;
    int micros;
    ZbvOptions options;
    friend bool operator==(const ZbvKey&, const ZbvKey&) = default;
  };
  struct SynthKey {
    PipelineProblem problem;
    SynthOptions options;
    friend bool operator==(const SynthKey&, const SynthKey&) = default;
  };
  struct VppKey {
    int stages;
    int virtual_chunks;
    int micros;
    friend bool operator==(const VppKey&, const VppKey&) = default;
  };
  using Key = std::variant<CappedSpec, ZbvKey, SynthKey, VppKey>;
  struct Entry {
    Key key;
    ValidatedSchedule schedule;
    std::size_t bytes;
    std::uint64_t last_use;
  };

  // The entry under `key` (one of Key's alternatives), built by `build`
  // — a validating sched/ constructor — on a miss.
  template <typename K, typename Build>
  ValidatedSchedule Get(const K& key, const Build& build);

  std::vector<Entry> entries_;
  std::size_t retained_bytes_ = 0;
  std::uint64_t clock_ = 0;
  int builds_ = 0;
  int hits_ = 0;
};

}  // namespace mepipe::sched

#endif  // MEPIPE_SCHED_MEMO_H_
