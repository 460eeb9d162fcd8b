#include "core/planner.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "core/deployment.h"

namespace mepipe::core {
namespace {

std::vector<int> VpCandidatesFor(Method method, const PlannerOptions& options) {
  switch (method) {
    case Method::kVpp: {
      std::vector<int> vps;
      for (int vp : options.vp_candidates) {
        if (vp >= 2) {
          vps.push_back(vp);
        }
      }
      if (vps.empty()) {
        vps.push_back(2);
      }
      return vps;
    }
    case Method::kZbv:
    case Method::kZbvCapped:
    case Method::kHanayo:
      return {2};
    case Method::kSynth:
      // The synthesizer is budget-general across v: sweep the same
      // virtual-chunk candidates as SVPP (v=1 recovers the 1F1B block,
      // v=2 the V-shape family).
      return options.vp_candidates;
    case Method::kSvpp:
      return options.vp_candidates;
    default:
      return {1};
  }
}

// One grid point: a strategy pinned to a stage→tier placement.
struct Candidate {
  Strategy strategy;
  hw::StagePlacement placement;
};

// The dp axis for a stage group of `denom` = pp·cp·tp ranks, by
// ParallelLayout::Validate's admissibility rule: one tier admits only the
// exact cover dp = world/denom; several tiers admit every power of two
// whose layout fits in the fleet.
std::vector<int> DpAxis(const hw::ClusterTopology& topology, int denom) {
  const int max_dp = topology.world_size() / denom;
  if (topology.num_tiers() == 1) {
    return {max_dp};
  }
  std::vector<int> dps;
  for (int dp = 1; dp <= max_dp; dp *= 2) {
    dps.push_back(dp);
  }
  return dps;
}

// The full candidate grid for `method`, in the canonical enumeration
// order tp → pp → slice → vp → recompute → dp → placement. This order is
// the search's tie-break: every search mode (serial exhaustive, pruned,
// two-phase parallel) ranks equal scores by position in this list, which
// is what makes the parallel winner bit-identical to the serial one.
std::vector<Candidate> EnumerateCandidates(Method method, const hw::ClusterTopology& topology,
                                           const PlannerOptions& options,
                                           int* invalid_placements) {
  std::vector<Candidate> grid;
  for (int tp : options.tp_candidates) {
    for (int pp : options.pp_candidates) {
      const std::vector<hw::StagePlacement> placements = EnumeratePlacements(topology, pp);
      for (int slice : options.slice_candidates) {
        for (int vp : VpCandidatesFor(method, options)) {
          const std::vector<bool> recompute_choices =
              (options.allow_recompute && !MethodSplitsBackward(method))
                  ? std::vector<bool>{false, true}
                  : std::vector<bool>{false};
          for (bool recompute : recompute_choices) {
            Strategy strategy;
            strategy.method = method;
            strategy.pp = pp;
            strategy.tp = tp;
            strategy.vp = vp;
            strategy.recompute = recompute;
            if (MethodUsesSlices(method)) {
              strategy.cp = 1;
              strategy.spp = slice;
            } else {
              strategy.cp = slice;
              strategy.spp = 1;
            }
            const int denom = pp * strategy.cp * tp;
            if (denom == 0) {
              continue;
            }
            for (const int dp : DpAxis(topology, denom)) {
              if (dp < options.min_dp) {
                continue;
              }
              strategy.dp = dp;
              for (const hw::StagePlacement& placement : placements) {
                if (!strategy.layout().Validate(topology, placement).empty()) {
                  ++*invalid_placements;
                  continue;
                }
                grid.push_back({strategy, placement});
              }
            }
          }
        }
      }
    }
  }
  return grid;
}

// Prices a feasible result under the goodput objective's failure model:
// per-strategy checkpoint write cost from its worst shard, Young/Daly +
// refinement for the interval (memoized through the SurrogateCache when
// one is attached), then a simulated training run for the delivered
// goodput. No-op on infeasible results. Under a fault plan
// `result.iteration_time` is the faulted (possibly mitigated) time, so
// the joint mode compounds failure overhead on top of straggler
// dilation — the PlannerOptions::fault_plan contract.
void PriceGoodput(IterationResult& result, const PlannerOptions& options) {
  if (!result.feasible || options.objective != PlannerObjective::kGoodput) {
    return;
  }
  ResilienceOptions res = options.resilience;
  res.reliability.checkpoint_write_cost =
      CheckpointWriteCost(result.checkpoint_shard, options.checkpoint_cost);
  res.dp_replicas = result.strategy.dp;
  const CheckpointIntervalSolution sol =
      options.cache != nullptr
          ? options.cache->IntervalSolve(result.iteration_time, res, options.interval_solver)
          : OptimalCheckpointInterval(result.iteration_time, res, options.interval_solver);
  result.goodput.priced = true;
  result.goodput.checkpoint_interval = sol.refined;
  result.goodput.checkpoint_write_cost = res.reliability.checkpoint_write_cost;
  result.goodput.goodput = sol.goodput;
  result.goodput.effective_iteration_time =
      result.iteration_time / std::max(sol.goodput, 1e-12);
}

// What the search minimizes, compared lexicographically: the objective's
// quantity, then (kDollarCost only) iteration time as the tie-break.
using Score = std::pair<double, Seconds>;

Score ScoreOf(const PlannerOptions& options, Seconds iteration_time,
              Seconds effective_iteration_time, double usd_per_iteration) {
  switch (options.objective) {
    case PlannerObjective::kGoodput:
      return {effective_iteration_time, 0.0};
    case PlannerObjective::kDollarCost:
      return {usd_per_iteration, iteration_time};
    case PlannerObjective::kIterationTime:
      break;
  }
  return {iteration_time, 0.0};
}

// The score of a feasible DES result.
Score ScoreOf(const IterationResult& result, const PlannerOptions& options) {
  return ScoreOf(options, result.iteration_time, result.goodput.effective_iteration_time,
                 result.dollars.usd_per_iteration);
}

// The surrogate analogue for phase-1 ranking: closed-form goodput
// pricing instead of the Monte-Carlo-refined solve.
Score ScoreOf(const SurrogateResult& result, const PlannerOptions& options) {
  Seconds effective = result.iteration_time;
  if (options.objective == PlannerObjective::kGoodput) {
    ResilienceOptions res = options.resilience;
    res.dp_replicas = result.strategy.dp;
    effective = ClosedFormGoodput(result.iteration_time, result.checkpoint_shard, res,
                                  options.checkpoint_cost)
                    .effective_iteration_time;
  }
  return ScoreOf(options, result.iteration_time, effective, result.dollars.usd_per_iteration);
}

// Phase 1 of the two-phase driver: surrogate-price every grid candidate
// on `threads` workers (atomic work index; results land in their
// candidate's slot, so the outcome is thread-count-independent).
std::vector<SurrogateResult> SurrogateSweep(const std::vector<Candidate>& grid,
                                            const model::TransformerConfig& config,
                                            const hw::ClusterTopology& topology,
                                            int global_batch, const IterationOptions& iteration,
                                            SurrogateCache* cache, int threads) {
  std::vector<SurrogateResult> priced(grid.size());
  if (grid.empty()) {
    return priced;
  }
  SurrogateOptions surrogate;
  surrogate.iteration = iteration;
  surrogate.iteration.keep_timeline = false;
  surrogate.iteration.keep_schedule = false;
  surrogate.cache = cache;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::clamp(threads, 1, static_cast<int>(grid.size()));

  std::atomic<std::size_t> next{0};
  const auto worker = [&]() {
    for (std::size_t i = next.fetch_add(1); i < grid.size(); i = next.fetch_add(1)) {
      const Candidate& c = grid[i];
      try {
        priced[i] = SurrogatePrice(config, c.strategy, topology, c.placement, global_batch,
                                   surrogate);
      } catch (const CheckError& err) {
        priced[i].strategy = c.strategy;
        priced[i].placement = c.placement;
        priced[i].feasible = false;
        priced[i].note = err.what();
      }
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  return priced;
}

// A grid point the exact phase did not simulate, with the reason.
IterationResult Skipped(const Candidate& candidate, std::string note) {
  IterationResult skipped;
  skipped.strategy = candidate.strategy;
  skipped.placement = candidate.placement;
  skipped.note = std::move(note);
  return skipped;
}

}  // namespace

PlannerResult SearchBestStrategy(Method method, const model::TransformerConfig& config,
                                 const hw::ClusterTopology& topology, int global_batch,
                                 const PlannerOptions& options) {
  PlannerResult out;

  IterationOptions eval_options = options.iteration;
  eval_options.keep_timeline = false;
  if (options.fault_plan) {
    eval_options.fault_plan = options.fault_plan;
  }
  const bool faulted = !eval_options.fault_plan.empty();
  // The lower bound is fault-aware (straggler windows cap each stage's
  // rate), so pruning survives a fault plan. Rebalanced search moves
  // work across stages, which no per-stage bound survives — off there.
  const bool prune = options.prune && !(faulted && options.search_rebalanced);

  const std::vector<Candidate> grid =
      EnumerateCandidates(method, topology, options, &out.invalid_placements);
  // Schedules built by this call's exact pass, each constructed and
  // validated once: candidates sharing a construction (a recompute pair,
  // a candidate and its straggler re-run, the winner and its timeline
  // re-simulation) share one schedule. Freed on return.
  sched::ScheduleMemo schedules;

  // ---- phase 1: surrogate sweep + top-k selection (two_phase only) ----
  // The surrogate prices clean runs only; under a fault plan the search
  // stays exhaustive (the fault-aware bound still prunes it).
  std::vector<char> selected;
  std::vector<SurrogateResult> priced;
  const bool two_phase = options.two_phase && !faulted;
  if (two_phase) {
    priced = SurrogateSweep(grid, config, topology, global_batch, eval_options, options.cache,
                            options.threads);
    out.surrogate_priced = static_cast<int>(priced.size());
    for (const SurrogateResult& result : priced) {
      out.cache_hits += result.cache_hit ? 1 : 0;
    }
    std::vector<std::pair<Score, std::size_t>> ranked;  // (score, grid index)
    ranked.reserve(priced.size());
    for (std::size_t i = 0; i < priced.size(); ++i) {
      if (priced[i].feasible) {
        ranked.push_back({ScoreOf(priced[i], options), i});
      }
    }
    std::sort(ranked.begin(), ranked.end());
    const std::size_t top_k =
        std::min<std::size_t>(ranked.size(),
                              static_cast<std::size_t>(std::max(1, options.surrogate_top_k)));
    selected.assign(grid.size(), 0);
    for (std::size_t r = 0; r < top_k; ++r) {
      selected[ranked[r].second] = 1;
    }
    if (ranked.empty()) {
      // Nothing surrogate-feasible: fall back to the exhaustive pass so
      // a conservative surrogate can never hide a feasible strategy.
      selected.assign(grid.size(), 1);
    }
  }

  // ---- phase 2 / exhaustive: exact DES + goodput pricing ----
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Candidate& candidate = grid[i];
    if (two_phase && !selected[i]) {
      out.evaluated.push_back(Skipped(candidate, priced[i].feasible
                                                     ? "skipped: outside surrogate top-k"
                                                     : "surrogate: " + priced[i].note));
      continue;
    }
    if (prune && out.best) {
      // Sound under every objective: the goodput score
      // iteration_time / goodput never falls below the iteration time
      // itself (goodput <= 1), and dollars grow monotonically with
      // iteration time, so a bound priced like a result is at or below
      // the candidate's own score.
      const auto bound = SurrogateLowerBound(config, candidate.strategy, topology,
                                             candidate.placement, global_batch, eval_options);
      if (bound) {
        const double usd =
            options.objective == PlannerObjective::kDollarCost
                ? PriceDollarCost(topology, candidate.strategy, candidate.placement, *bound,
                                  WanEgressBytesPerIteration(config, candidate.strategy,
                                                             candidate.placement, topology,
                                                             global_batch))
                      .usd_per_iteration
                : 0.0;
        if (ScoreOf(options, *bound, *bound, usd) >= ScoreOf(*out.best, options)) {
          ++out.pruned;
          out.evaluated.push_back(Skipped(candidate, "pruned: lower bound above incumbent"));
          continue;
        }
      }
    }
    IterationResult result =
        SimulateIteration(config, candidate.strategy, topology, candidate.placement,
                          global_batch, eval_options, &schedules);
    ++out.simulated;
    PriceGoodput(result, options);
    // Straggler rebalancing is unsupported on a mixed-speed placement
    // (SimulateIteration CHECK-fails there), so such candidates stay
    // unmitigated.
    if (options.search_rebalanced && faulted && !eval_options.rebalance_stragglers &&
        UniformSpeed(topology, candidate.placement)) {
      IterationOptions mitigated_options = eval_options;
      mitigated_options.rebalance_stragglers = true;
      IterationResult mitigated =
          SimulateIteration(config, candidate.strategy, topology, candidate.placement,
                            global_batch, mitigated_options, &schedules);
      ++out.simulated;
      PriceGoodput(mitigated, options);
      if (mitigated.feasible &&
          (!result.feasible || ScoreOf(mitigated, options) < ScoreOf(result, options))) {
        result = std::move(mitigated);
      }
    }
    if (result.feasible) {
      if (!out.best || ScoreOf(result, options) < ScoreOf(*out.best, options)) {
        out.best = result;
      }
    }
    out.evaluated.push_back(std::move(result));
  }

  // Re-simulate the winner with its timeline for downstream rendering
  // (and re-price it: the re-simulation resets the goodput fields).
  if (out.best) {
    IterationOptions final_options = eval_options;
    final_options.keep_timeline = true;
    final_options.rebalance_stragglers =
        eval_options.rebalance_stragglers || out.best->mitigation.rebalanced;
    *out.best = SimulateIteration(config, out.best->strategy, topology, out.best->placement,
                                  global_batch, final_options, &schedules);
    MEPIPE_CHECK(out.best->feasible);
    PriceGoodput(*out.best, options);
  }
  out.schedules_built = schedules.builds();
  out.schedule_memo_hits = schedules.hits();
  return out;
}

}  // namespace mepipe::core
