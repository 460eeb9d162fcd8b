#include "sched/memo.h"

#include <algorithm>
#include <utility>

#include "sched/baselines.h"

namespace mepipe::sched {

template <typename K, typename Build>
ValidatedSchedule ScheduleMemo::Get(const K& key, const Build& build) {
  ++clock_;
  for (Entry& entry : entries_) {
    const K* held = std::get_if<K>(&entry.key);
    if (held != nullptr && *held == key) {
      ++hits_;
      entry.last_use = clock_;
      return entry.schedule;
    }
  }
  ++builds_;
  ValidatedSchedule schedule(build(), ValidatedSchedule::Trusted{});
  std::size_t bytes = 0;
  for (const auto& ops : schedule->stage_ops) {
    bytes += ops.size() * sizeof(OpId);
  }
  entries_.push_back({key, schedule, bytes, clock_});
  retained_bytes_ += bytes;
  while (retained_bytes_ > kMaxBytes && entries_.size() > 1) {
    const auto lru = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; });
    retained_bytes_ -= lru->bytes;
    *lru = std::move(entries_.back());  // order is irrelevant: recency is in last_use
    entries_.pop_back();
  }
  return schedule;
}

ValidatedSchedule ScheduleMemo::Capped(const CappedSpec& spec) {
  return Get(spec, [&] { return GenerateCapped(spec); });
}

ValidatedSchedule ScheduleMemo::Zbv(int stages, int micros, const ZbvOptions& options) {
  return Get(ZbvKey{stages, micros, options},
             [&] { return HandcraftedZbvSchedule(stages, micros, options); });
}

ValidatedSchedule ScheduleMemo::Synth(const PipelineProblem& problem,
                                      const SynthOptions& options) {
  return Get(SynthKey{problem, options}, [&] { return SynthesizeSchedule(problem, options); });
}

ValidatedSchedule ScheduleMemo::Vpp(int stages, int virtual_chunks, int micros) {
  return Get(VppKey{stages, virtual_chunks, micros},
             [&] { return VppSchedule(stages, virtual_chunks, micros); });
}

}  // namespace mepipe::sched
