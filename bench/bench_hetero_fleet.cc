// Heterogeneous-fleet planning: a mixed RTX 4090 + A100 fleet whose
// cross-tier link sweeps from same-campus LAN to metered WAN. Each cell
// runs the grid search twice — kDollarCost and kIterationTime — and
// compares both against the all-premium baseline (the cheapest
// whole-node carve of the A100 tier). The dollar objective should
// abandon the premium tier on WAN cells: egress billing makes split
// placements expensive and the A100's rental rate makes uniform-premium
// expensive, so the cost winner lands on the cheap tier even when the
// time winner does not.
#include "bench/bench_util.h"
#include "core/planner.h"
#include "hw/cluster.h"
#include "model/transformer.h"

namespace mepipe {
namespace {

using core::Method;

constexpr int kGlobalBatch = 128;

hw::ClusterTopology MixedFleet(const hw::TierLink& cross) {
  hw::ClusterTopology fleet;
  fleet.tiers = {hw::Rtx4090Tier(), hw::A100Tier()};
  fleet.SetLinkBetween(0, 1, cross);
  return fleet;
}

core::PlannerOptions FleetOptions(core::SurrogateCache* cache, core::PlannerObjective objective,
                                  int threads) {
  core::PlannerOptions options;
  options.min_dp = 1;
  options.pp_candidates = {4, 8};
  options.slice_candidates = {1, 4};
  options.vp_candidates = {1};
  options.two_phase = true;
  options.surrogate_top_k = 8;
  options.threads = threads;
  options.cache = cache;
  options.objective = objective;
  return options;
}

std::optional<core::IterationResult> Search(const hw::ClusterTopology& fleet,
                                            core::SurrogateCache* cache,
                                            core::PlannerObjective objective, int threads = 8) {
  return core::SearchBestStrategy(Method::kSvpp, model::Llama13B(), fleet, kGlobalBatch,
                                  FleetOptions(cache, objective, threads))
      .best;
}

// "strategy @ placement", e.g. "MEPipe(pp=8,dp=8,spp=4) @ t0x4|t1x4".
std::string Placed(const core::IterationResult& result) {
  return result.strategy.ToString() + " @ " + result.placement.ToString();
}

// The all-premium placement inside the two-tier fleet: every stage on
// the A100 tier (index 1).
bool AllPremium(const hw::StagePlacement& placement) {
  return placement.uniform() && placement.tier_of(0) == 1;
}

void EmitHeteroFleet() {
  struct Cell {
    const char* link;
    std::string gbps;
    double egress_usd_per_gb;
    hw::TierLink cross;
  };
  const std::vector<Cell> cells = {
      {"lan", "-", 0.0, hw::LanLink(hw::Rtx4090Cluster().inter_node)},
      {"wan", "25", 0.02, hw::WanLink(25.0, 0.02)},
      {"wan", "25", 0.08, hw::WanLink(25.0, 0.08)},
      {"wan", "5", 0.02, hw::WanLink(5.0, 0.02)},
      {"wan", "5", 0.08, hw::WanLink(5.0, 0.08)},
  };

  core::SurrogateCache cache;

  // All-premium baseline: the cheapest plan the A100 tier alone can
  // host. A one-tier layout covers its whole topology, so rent fewer
  // GPUs by carving whole nodes and keep the cheapest carve.
  hw::ClusterTopology premium;
  premium.tiers = {hw::A100Tier()};
  std::optional<core::IterationResult> on_premium;
  for (int nodes = 1; nodes <= premium.tier(0).nodes; ++nodes) {
    const auto best = Search(hw::CarveSubTopology(premium, {{0, nodes}}), &cache,
                             core::PlannerObjective::kDollarCost);
    if (best && (!on_premium || best->dollars.usd_per_iteration <
                                    on_premium->dollars.usd_per_iteration)) {
      on_premium = best;
    }
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"link", "wan_gbps", "egress_usd_per_gb", "cost_config", "cost_usd_per_iter",
                  "cost_iter_ms", "time_config", "time_usd_per_iter", "time_iter_ms",
                  "premium_usd_per_iter", "flip_from_premium"});
  int wan_flips = 0;
  int wan_cells = 0;
  for (const Cell& cell : cells) {
    const auto fleet = MixedFleet(cell.cross);
    const auto by_cost = Search(fleet, &cache, core::PlannerObjective::kDollarCost);
    const auto by_time = Search(fleet, &cache, core::PlannerObjective::kIterationTime);
    if (!by_cost || !by_time || !on_premium) {
      rows.push_back({cell.link, cell.gbps, StrFormat("%.2f", cell.egress_usd_per_gb),
                      "infeasible", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    const bool flip = !AllPremium(by_cost->placement) &&
                      by_cost->dollars.usd_per_iteration <
                          on_premium->dollars.usd_per_iteration;
    const bool is_wan = cell.cross.wan;
    wan_cells += is_wan ? 1 : 0;
    wan_flips += (is_wan && flip) ? 1 : 0;
    rows.push_back({cell.link, cell.gbps, StrFormat("%.2f", cell.egress_usd_per_gb),
                    Placed(*by_cost), StrFormat("%.4f", by_cost->dollars.usd_per_iteration),
                    bench::Ms(by_cost->iteration_time), Placed(*by_time),
                    StrFormat("%.4f", by_time->dollars.usd_per_iteration),
                    bench::Ms(by_time->iteration_time),
                    StrFormat("%.4f", on_premium->dollars.usd_per_iteration),
                    flip ? "yes" : "no"});
  }
  bench::EmitTable("Heterogeneous fleet — cost-optimal vs time-optimal vs all-premium",
                   "hetero_fleet", rows);
  std::printf("kDollarCost abandons the all-premium placement on %d of %d WAN cells.\n",
              wan_flips, wan_cells);

  // Two-phase determinism: the winner must be bit-identical whether the
  // surrogate sweep runs on 1, 2, or 8 workers.
  const auto parity_fleet = MixedFleet(hw::WanLink(25.0, 0.02));
  const auto t1 = Search(parity_fleet, &cache, core::PlannerObjective::kDollarCost, 1);
  const auto t2 = Search(parity_fleet, &cache, core::PlannerObjective::kDollarCost, 2);
  const auto t8 = Search(parity_fleet, &cache, core::PlannerObjective::kDollarCost, 8);
  const bool parity = t1 && t2 && t8 && Placed(*t1) == Placed(*t2) &&
                      Placed(*t1) == Placed(*t8) &&
                      t1->dollars.usd_per_iteration == t2->dollars.usd_per_iteration &&
                      t1->dollars.usd_per_iteration == t8->dollars.usd_per_iteration;
  std::printf("two-phase thread parity (1/2/8 workers): %s\n", parity ? "ok" : "MISMATCH");
}

void BM_FleetPlan(benchmark::State& state) {
  core::SurrogateCache cache;
  const auto fleet = MixedFleet(hw::WanLink(25.0, 0.02));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Search(fleet, &cache, core::PlannerObjective::kDollarCost, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_FleetPlan)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace mepipe

MEPIPE_BENCH_MAIN(mepipe::EmitHeteroFleet)
