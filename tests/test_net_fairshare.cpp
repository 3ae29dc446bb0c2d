#include "net/fairshare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "sim/random.h"

namespace flashflow::net {
namespace {

TEST(FairShare, SingleFlowGetsFullCapacity) {
  const std::vector<FairShareResource> res = {{100.0}};
  std::vector<FairShareFlow> flows(1);
  flows[0].resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(FairShare, EqualSplit) {
  const std::vector<FairShareResource> res = {{90.0}};
  std::vector<FairShareFlow> flows(3);
  for (auto& f : flows) f.resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  for (const double r : rates) EXPECT_NEAR(r, 30.0, 1e-9);
}

TEST(FairShare, WeightedSplit) {
  const std::vector<FairShareResource> res = {{100.0}};
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0};
  flows[0].weight = 3.0;
  flows[1].resources = {0};
  flows[1].weight = 1.0;
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_NEAR(rates[0], 75.0, 1e-9);
  EXPECT_NEAR(rates[1], 25.0, 1e-9);
}

TEST(FairShare, CapFreesCapacityForOthers) {
  const std::vector<FairShareResource> res = {{100.0}};
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0};
  flows[0].cap = 10.0;
  flows[1].resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_NEAR(rates[0], 10.0, 1e-9);
  EXPECT_NEAR(rates[1], 90.0, 1e-9);
}

TEST(FairShare, ClassicTriangle) {
  // Two resources; flow A uses both, B uses first, C uses second.
  const std::vector<FairShareResource> res = {{100.0}, {100.0}};
  std::vector<FairShareFlow> flows(3);
  flows[0].resources = {0, 1};
  flows[1].resources = {0};
  flows[2].resources = {1};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_NEAR(rates[0], 50.0, 1e-9);
  EXPECT_NEAR(rates[1], 50.0, 1e-9);
  EXPECT_NEAR(rates[2], 50.0, 1e-9);
}

TEST(FairShare, BottleneckChain) {
  // Tight first link limits the shared flow; second link's leftover goes to
  // the local flow.
  const std::vector<FairShareResource> res = {{10.0}, {100.0}};
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0, 1};
  flows[1].resources = {1};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_NEAR(rates[0], 10.0, 1e-9);
  EXPECT_NEAR(rates[1], 90.0, 1e-9);
}

TEST(FairShare, UnconstrainedFlowGetsInfinity) {
  const std::vector<FairShareResource> res = {{0.0}};  // capacity <= 0
  std::vector<FairShareFlow> flows(1);
  flows[0].resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_TRUE(std::isinf(rates[0]));
}

TEST(FairShare, ZeroCapFlowFrozenImmediately) {
  const std::vector<FairShareResource> res = {{100.0}};
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0};
  flows[0].cap = 0.0;
  flows[1].resources = {0};
  const auto rates = max_min_fair_rates(res, flows);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_NEAR(rates[1], 100.0, 1e-9);
}

TEST(FairShare, RejectsBadInput) {
  const std::vector<FairShareResource> res = {{10.0}};
  std::vector<FairShareFlow> bad_weight(1);
  bad_weight[0].resources = {0};
  bad_weight[0].weight = 0.0;
  EXPECT_THROW(max_min_fair_rates(res, bad_weight), std::invalid_argument);

  std::vector<FairShareFlow> bad_resource(1);
  bad_resource[0].resources = {5};
  EXPECT_THROW(max_min_fair_rates(res, bad_resource), std::out_of_range);
}

TEST(FairShare, EmptyFlowsOk) {
  const std::vector<FairShareResource> res = {{10.0}};
  EXPECT_TRUE(max_min_fair_rates(res, {}).empty());
}

// --------------------------- solver reuse ---------------------------------

TEST(FairShareSolver, ReusedSolverMatchesFreshSolves) {
  // Two successive solves on one solver must equal two fresh solves: the
  // scratch (frozen/remaining/active_weight/saturation epochs) never leaks
  // state between calls. The second problem is shaped to stress stale
  // state: more flows and resources than the first, then fewer.
  const std::vector<FairShareResource> res_a = {{100.0}, {60.0}};
  std::vector<FairShareFlow> flows_a(3);
  flows_a[0].resources = {0, 1};
  flows_a[1].resources = {0};
  flows_a[1].cap = 12.0;
  flows_a[2].resources = {1};
  flows_a[2].weight = 2.0;

  const std::vector<FairShareResource> res_b = {{50.0}, {80.0}, {10.0}};
  std::vector<FairShareFlow> flows_b(5);
  for (std::size_t f = 0; f < flows_b.size(); ++f)
    flows_b[f].resources = {f % 3};
  flows_b[4].resources = {0, 1, 2};
  flows_b[1].cap = 0.0;  // frozen immediately

  const std::vector<FairShareResource> res_c = {{7.0}};
  std::vector<FairShareFlow> flows_c(1);
  flows_c[0].resources = {0};

  FairShareSolver reused;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [res, flows] :
         {std::pair(&res_a, &flows_a), std::pair(&res_b, &flows_b),
          std::pair(&res_c, &flows_c)}) {
      const auto from_reused = reused.solve(*res, *flows);
      const auto fresh = max_min_fair_rates(*res, *flows);
      ASSERT_EQ(from_reused.size(), fresh.size());
      for (std::size_t f = 0; f < fresh.size(); ++f)
        EXPECT_DOUBLE_EQ(from_reused[f], fresh[f]) << "flow " << f;
    }
  }
}

TEST(FairShareSolver, PreparedSolvesMatchOneShot) {
  // prepare() + repeated solve_prepared() against varying capacities (the
  // per-second slot pattern) must equal a fresh solve per capacity set.
  std::vector<FairShareFlow> flows(4);
  flows[0].resources = {0, 2};
  flows[0].weight = 2.0;
  flows[1].resources = {0, 1};
  flows[1].cap = 15.0;
  flows[2].resources = {1, 2};
  flows[2].cap = 0.0;  // frozen at prepare time
  flows[3].resources = {2};

  FairShareSolver solver;
  solver.prepare(flows, 3);
  for (const double relay_cap : {40.0, 5.0, 0.0, 123.456}) {
    const std::vector<FairShareResource> res = {
        {100.0}, {30.0}, {relay_cap}};
    const auto prepared = solver.solve_prepared(res);
    const auto fresh = max_min_fair_rates(res, flows);
    ASSERT_EQ(prepared.size(), fresh.size());
    for (std::size_t f = 0; f < fresh.size(); ++f)
      EXPECT_DOUBLE_EQ(prepared[f], fresh[f])
          << "flow " << f << " at relay_cap " << relay_cap;
  }
  // A mismatched resource count is a caller bug, not a silent misread.
  const std::vector<FairShareResource> wrong = {{1.0}};
  EXPECT_THROW(solver.solve_prepared(wrong), std::invalid_argument);
}

TEST(FairShareSolver, FailedPrepareInvalidatesPreparedState) {
  // A prepare() that throws mid-validation must not leave a half-built
  // flow set behind: solve_prepared afterwards fails cleanly instead of
  // indexing stale state, and solve_prepared before any prepare at all is
  // rejected too.
  FairShareSolver solver;
  const std::vector<FairShareResource> res = {{10.0}, {20.0}};
  EXPECT_THROW(solver.solve_prepared(res), std::logic_error);

  std::vector<FairShareFlow> good(5);
  for (auto& f : good) f.resources = {0};
  solver.prepare(good, res.size());

  std::vector<FairShareFlow> bad(2);
  bad[0].resources = {0};
  bad[1].resources = {7};  // out of range: throws mid-prepare
  EXPECT_THROW(solver.prepare(bad, res.size()), std::out_of_range);
  EXPECT_THROW(solver.solve_prepared(res), std::logic_error);

  // A clean prepare restores service.
  solver.prepare(good, res.size());
  const auto rates = solver.solve_prepared(res);
  for (const double r : rates) EXPECT_NEAR(r, 2.0, 1e-9);
}

TEST(FairShareSolver, ReuseAfterInvalidInputStillSolves) {
  FairShareSolver solver;
  const std::vector<FairShareResource> res = {{10.0}};
  std::vector<FairShareFlow> bad(1);
  bad[0].resources = {5};  // out of range
  EXPECT_THROW(solver.solve(res, bad), std::out_of_range);

  std::vector<FairShareFlow> good(2);
  good[0].resources = {0};
  good[1].resources = {0};
  const auto rates = solver.solve(res, good);
  EXPECT_NEAR(rates[0], 5.0, 1e-9);
  EXPECT_NEAR(rates[1], 5.0, 1e-9);
}

TEST(FairShareSolver, ResultSpanInvalidatedByNextSolveByCopy) {
  // The returned span aliases solver storage; callers that need the values
  // across solves must copy. Verify a copy taken before the next solve
  // stays intact (i.e. the documented usage pattern works).
  FairShareSolver solver;
  const std::vector<FairShareResource> res = {{30.0}};
  std::vector<FairShareFlow> three(3);
  for (auto& f : three) f.resources = {0};
  const auto first = solver.solve(res, three);
  const std::vector<double> copy(first.begin(), first.end());
  std::vector<FairShareFlow> one(1);
  one[0].resources = {0};
  solver.solve(res, one);
  for (const double r : copy) EXPECT_NEAR(r, 10.0, 1e-9);
}

// ------------------------- property-based sweep ---------------------------

struct RandomCase {
  int resources;
  int flows;
  std::uint64_t seed;
};

class FairShareProperty : public ::testing::TestWithParam<RandomCase> {};

TEST_P(FairShareProperty, InvariantsHold) {
  const auto param = GetParam();
  sim::Rng rng(param.seed);
  std::vector<FairShareResource> res(
      static_cast<std::size_t>(param.resources));
  for (auto& r : res) r.capacity = rng.uniform(10.0, 1000.0);

  std::vector<FairShareFlow> flows(static_cast<std::size_t>(param.flows));
  for (auto& f : flows) {
    const int uses = static_cast<int>(rng.uniform_int(1, 3));
    for (int u = 0; u < uses; ++u)
      f.resources.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, param.resources - 1)));
    f.weight = rng.uniform(0.5, 4.0);
    if (rng.chance(0.3)) f.cap = rng.uniform(5.0, 500.0);
  }

  const auto rates = max_min_fair_rates(res, flows);

  // A solver instance reused across all the parameterized topologies must
  // agree exactly with the one-shot path.
  static FairShareSolver reused;
  const auto reused_rates = reused.solve(res, flows);
  ASSERT_EQ(reused_rates.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i)
    EXPECT_DOUBLE_EQ(reused_rates[i], rates[i]);

  // 1. No flow exceeds its cap.
  for (std::size_t i = 0; i < flows.size(); ++i)
    EXPECT_LE(rates[i], flows[i].cap + 1e-6);

  // 2. No resource is over capacity.
  std::vector<double> usage(res.size(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i)
    for (const auto r : flows[i].resources) usage[r] += rates[i];
  for (std::size_t r = 0; r < res.size(); ++r)
    EXPECT_LE(usage[r], res[r].capacity + 1e-5);

  // 3. Work conservation: every flow is bottlenecked somewhere — either at
  // its cap or at a saturated resource.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (rates[i] >= flows[i].cap - 1e-6) continue;
    bool saturated = false;
    for (const auto r : flows[i].resources)
      if (usage[r] >= res[r].capacity - 1e-5) saturated = true;
    EXPECT_TRUE(saturated) << "flow " << i << " is not bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTopologies, FairShareProperty,
    ::testing::Values(RandomCase{1, 2, 1}, RandomCase{2, 5, 2},
                      RandomCase{3, 10, 3}, RandomCase{5, 20, 4},
                      RandomCase{8, 40, 5}, RandomCase{4, 4, 6},
                      RandomCase{10, 80, 7}, RandomCase{6, 30, 8}));

// ------------------------ differential oracle -----------------------------

/// The plain progressive-filling loop FairShareSolver must reproduce bit for
/// bit, kept verbatim as a test-only oracle: every iteration rescans every
/// active flow and every constrained resource. Also counts its filling
/// iterations and numerical-safety fallback freezes.
struct ReferenceFill {
  std::vector<double> rates;
  std::uint64_t iterations = 0;
  std::uint64_t fallbacks = 0;
};

ReferenceFill reference_fill(std::span<const FairShareResource> resources,
                             std::span<const FairShareFlow> flows) {
  const std::size_t num_flows = flows.size();
  const std::size_t num_resources = resources.size();
  ReferenceFill out;
  std::vector<double> weights(num_flows), caps(num_flows);
  std::vector<std::size_t> res_index, res_offset(num_flows + 1, 0);
  std::vector<double> active_weight(num_resources, 0.0);
  for (std::size_t f = 0; f < num_flows; ++f) {
    weights[f] = flows[f].weight;
    caps[f] = flows[f].cap;
    for (const std::size_t r : flows[f].resources) {
      res_index.push_back(r);
      active_weight[r] += flows[f].weight;
    }
    res_offset[f + 1] = res_index.size();
  }
  std::vector<std::size_t> active;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (caps[f] <= 0.0) {
      for (std::size_t k = res_offset[f]; k < res_offset[f + 1]; ++k)
        active_weight[res_index[k]] -= weights[f];
    } else {
      active.push_back(f);
    }
  }

  std::vector<double>& rates = out.rates;
  rates.assign(num_flows, 0.0);
  std::vector<double> remaining(num_resources);
  std::vector<std::size_t> finite_res;
  for (std::size_t r = 0; r < num_resources; ++r) {
    remaining[r] = resources[r].capacity > 0
                       ? resources[r].capacity
                       : std::numeric_limits<double>::infinity();
    if (std::isfinite(remaining[r])) finite_res.push_back(r);
  }

  constexpr double kEps = 1e-9;
  while (!active.empty()) {
    ++out.iterations;
    double step = std::numeric_limits<double>::infinity();
    for (const std::size_t r : finite_res) {
      if (active_weight[r] > kEps)
        step = std::min(step, remaining[r] / active_weight[r]);
    }
    for (const std::size_t f : active) {
      if (std::isfinite(caps[f]))
        step = std::min(step, (caps[f] - rates[f]) / weights[f]);
    }
    if (!std::isfinite(step)) {
      for (const std::size_t f : active)
        rates[f] = std::numeric_limits<double>::infinity();
      break;
    }
    step = std::max(step, 0.0);

    std::vector<bool> saturated(num_resources, false);
    for (const std::size_t r : finite_res) {
      remaining[r] -= step * active_weight[r];
      if (remaining[r] <= kEps && active_weight[r] > kEps)
        saturated[r] = true;
    }

    std::size_t kept = 0;
    for (const std::size_t f : active) {
      rates[f] += step * weights[f];
      bool freeze = rates[f] >= caps[f] - kEps;
      if (!freeze)
        for (std::size_t k = res_offset[f]; k < res_offset[f + 1]; ++k)
          if (saturated[res_index[k]]) {
            freeze = true;
            break;
          }
      if (freeze) {
        for (std::size_t k = res_offset[f]; k < res_offset[f + 1]; ++k)
          active_weight[res_index[k]] -= weights[f];
      } else {
        active[kept++] = f;
      }
    }
    if (kept < active.size()) {
      active.resize(kept);
      continue;
    }
    const std::size_t best = active.front();
    for (std::size_t k = res_offset[best]; k < res_offset[best + 1]; ++k)
      active_weight[res_index[k]] -= weights[best];
    active.erase(active.begin());
    ++out.fallbacks;
  }
  return out;
}

/// Solves with `solver` (already prepared for `flows`) and requires the
/// rates byte-identical to the oracle and the work counts equal. Returns
/// the oracle's result for case-specific checks.
ReferenceFill expect_matches_reference(
    FairShareSolver& solver, const std::vector<FairShareResource>& res,
    const std::vector<FairShareFlow>& flows) {
  const ReferenceFill ref = reference_fill(res, flows);
  const auto rates = solver.solve_prepared(res);
  EXPECT_EQ(rates.size(), ref.rates.size());
  if (rates.size() == ref.rates.size() && !rates.empty()) {
    const bool same = std::memcmp(rates.data(), ref.rates.data(),
                                  rates.size() * sizeof(double)) == 0;
    EXPECT_TRUE(same);
    for (std::size_t f = 0; !same && f < rates.size(); ++f) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rates[f]),
                std::bit_cast<std::uint64_t>(ref.rates[f]))
          << "flow " << f << ": " << rates[f] << " vs " << ref.rates[f];
    }
  }
  EXPECT_EQ(solver.last_fill_iterations(), ref.iterations);
  EXPECT_EQ(solver.last_fallback_freezes(), ref.fallbacks);
  return ref;
}

/// Capacity draw covering every resource regime the solver distinguishes:
/// unconstrained (<= 0 or infinite), exactly representable, arbitrary, and
/// bits/s-sized, where an ulp of the capacity exceeds the absolute 1e-9
/// saturation threshold and near ties reach the fallback.
double draw_capacity(sim::Rng& rng) {
  const double u = rng.uniform(0.0, 1.0);
  if (u < 0.08) return 0.0;
  if (u < 0.12) return -5.0;
  if (u < 0.16) return std::numeric_limits<double>::infinity();
  if (u < 0.30) return static_cast<double>(rng.uniform_int(1, 50)) * 10.0;
  if (u < 0.45) return rng.uniform(1e8, 1e10);
  return rng.uniform(1.0, 2000.0);
}

TEST(FairShareDifferential, RandomGeneralFlowSets) {
  // Random topologies: resources listed twice in one flow, resources that
  // share a flow list (merged groups), zero, finite and infinite caps,
  // integer, non-integer and mixed weights. Each prepared flow set is
  // solved against several capacity draws, as the slot loop does.
  sim::Rng rng(20211);
  FairShareSolver solver;
  std::uint64_t fallbacks = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t n_res =
        static_cast<std::size_t>(rng.uniform_int(1, 12));
    const std::size_t n_flows =
        static_cast<std::size_t>(rng.uniform_int(0, 30));
    const int weight_mode = static_cast<int>(rng.uniform_int(0, 2));
    std::vector<FairShareFlow> flows(n_flows);
    for (auto& f : flows) {
      const int uses = static_cast<int>(rng.uniform_int(1, 4));
      for (int u = 0; u < uses; ++u)
        f.resources.push_back(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n_res) - 1)));
      if (rng.chance(0.1)) f.resources.push_back(f.resources.front());
      if (weight_mode == 0)
        f.weight = static_cast<double>(rng.uniform_int(1, 3));
      else if (weight_mode == 1)
        f.weight = rng.uniform(0.5, 4.0);
      else
        f.weight = rng.chance(0.5) ? 2.0 : rng.uniform(0.01, 300.0);
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.1)
        f.cap = 0.0;
      else if (u < 0.45)
        f.cap = rng.chance(0.3)
                    ? static_cast<double>(rng.uniform_int(1, 20)) * 5.0
                    : rng.uniform(1.0, 800.0);
    }
    // A mirrored resource: same flow list as resource 0, so it merges
    // into resource 0's group with its own capacity.
    if (n_res >= 2 && rng.chance(0.5))
      for (auto& f : flows) {
        const auto uses0 = std::count(f.resources.begin(),
                                      f.resources.end(), std::size_t{0});
        std::erase(f.resources, std::size_t{1});
        for (std::ptrdiff_t k = 0; k < uses0; ++k)
          f.resources.push_back(1);
      }
    solver.prepare(flows, n_res);
    for (int draw = 0; draw < 4; ++draw) {
      std::vector<FairShareResource> res(n_res);
      for (auto& r : res) r.capacity = draw_capacity(rng);
      SCOPED_TRACE("trial " + std::to_string(trial) + " draw " +
                   std::to_string(draw));
      fallbacks += expect_matches_reference(solver, res, flows).fallbacks;
    }
  }
  // Sanity on the generator, not the solver: some draws must be ulp-level
  // near ties that reach the fallback.
  EXPECT_GT(fallbacks, 0u);
}

TEST(FairShareDifferential, SlotShapedFlowSets) {
  // The engine's shape: 3 measurer NICs, then per target a NIC and a relay
  // resource crossed by exactly the same flows (so they merge), socket
  // weights 160/80/53, offered-rate caps in bits/s, and per-second relay
  // capacities that are sometimes 0 (unconstrained) or tiny.
  sim::Rng rng(7);
  FairShareSolver solver;
  const double weights[] = {160.0, 80.0, 53.0};
  for (int slot = 0; slot < 400; ++slot) {
    const std::size_t n_targets =
        static_cast<std::size_t>(rng.uniform_int(1, 15));
    const std::size_t n_res = 3 + 2 * n_targets;
    std::vector<FairShareFlow> flows;
    for (std::size_t t = 0; t < n_targets; ++t) {
      const int team = static_cast<int>(rng.uniform_int(1, 3));
      const auto first = static_cast<std::size_t>(rng.uniform_int(0, 2));
      for (int i = 0; i < team; ++i) {
        FairShareFlow f;
        f.resources = {(first + static_cast<std::size_t>(i)) % 3, 3 + t,
                       3 + n_targets + t};
        f.weight = weights[rng.uniform_int(0, slot % 2 == 0 ? 0 : 2)];
        f.cap = rng.chance(0.05) ? 0.0 : rng.uniform(1e6, 9e8);
        flows.push_back(std::move(f));
      }
    }
    solver.prepare(flows, n_res);
    std::vector<FairShareResource> res(n_res);
    for (std::size_t m = 0; m < 3; ++m) res[m].capacity = 0.9e9;
    for (std::size_t t = 0; t < n_targets; ++t)
      res[3 + t].capacity = rng.chance(0.5) ? 1e9 : 1e10;
    for (int second = 0; second < 30; ++second) {
      for (std::size_t t = 0; t < n_targets; ++t) {
        const double u = rng.uniform(0.0, 1.0);
        res[3 + n_targets + t].capacity =
            u < 0.03 ? 0.0 : u < 0.06 ? rng.uniform(0.0, 1e3)
                                      : rng.uniform(1e6, 1.2e9);
      }
      SCOPED_TRACE("slot " + std::to_string(slot) + " second " +
                   std::to_string(second));
      expect_matches_reference(solver, res, flows);
    }
  }
}

TEST(FairShareDifferential, DuplicatedAndMergedResources) {
  // Flow 0 lists resource 0 twice, so it weighs double there. Resources 1
  // and 2 have identical flow lists and merge; the tighter capacity binds
  // whichever member holds it. Resource 3 matches resource 1's flows but
  // in a different multiplicity, so it stays a separate group.
  std::vector<FairShareFlow> flows(3);
  flows[0].resources = {0, 1, 0, 2, 3, 3};
  flows[1].resources = {1, 2, 3};
  flows[2].resources = {0};
  flows[2].weight = 0.5;
  FairShareSolver solver;
  solver.prepare(flows, 4);
  for (const auto& caps : std::vector<std::vector<double>>{
           {90.0, 100.0, 40.0, 1e3},
           {90.0, 40.0, 100.0, 1e3},
           {90.0, 0.0, 100.0, 30.0},
           {0.0, -1.0, 0.0, 0.0},
           {12.5, 12.5, 12.5, 12.5}}) {
    std::vector<FairShareResource> res;
    for (const double c : caps) res.push_back({c});
    expect_matches_reference(solver, res, flows);
  }
  // The duplicated listing really does count twice: with only resource 0
  // constrained, its active weight is 2 (flow 0) + 0.5 (flow 2), so the
  // step is 90 / 2.5 = 36; flow 0 gets 36 (using 72) and flow 2 gets 18.
  const std::vector<FairShareResource> res = {{90.0}, {0.0}, {0.0}, {0.0}};
  const auto rates = solver.solve_prepared(res);
  EXPECT_NEAR(rates[0], 36.0, 1e-9);
  EXPECT_TRUE(std::isinf(rates[1]));
  EXPECT_NEAR(rates[2], 18.0, 1e-9);
}

TEST(FairShareDifferential, ZeroAndInfiniteCapsAndUnconstrainedResources) {
  std::vector<FairShareFlow> flows(5);
  flows[0].resources = {0};
  flows[0].cap = 0.0;
  flows[1].resources = {0, 1};
  flows[2].resources = {1};
  flows[2].cap = std::numeric_limits<double>::infinity();
  flows[3].resources = {1};
  flows[3].cap = 7.25;
  flows[4].resources = {2};
  flows[4].cap = 0.0;  // its only resource ends up with no active weight
  FairShareSolver solver;
  solver.prepare(flows, 3);
  EXPECT_EQ(solver.prepared_active_flows(), 3u);
  for (const auto& caps : std::vector<std::vector<double>>{
           {10.0, 100.0, 5.0},
           {0.0, 100.0, 5.0},
           {10.0, 0.0, 5.0},
           {-3.0, std::numeric_limits<double>::infinity(), 0.0}}) {
    std::vector<FairShareResource> res;
    for (const double c : caps) res.push_back({c});
    expect_matches_reference(solver, res, flows);
  }
}

TEST(FairShareDifferential, UlpNearTieTakesTheFallbackPath) {
  // One resource of 1,000,000,006 bits/s shared by weights 3 and 4: the
  // step c/7 drains it to c - (c/7)*7 = 2^-23 (an ulp of c), which is above
  // the absolute 1e-9 saturation threshold, and no flow has a cap. Nothing
  // freezes, so the fallback must freeze the lowest-indexed flow.
  const double c = 1000000006.0;
  const double step = c / 7.0;
  ASSERT_GT(c - step * 7.0, 1e-9);
  std::vector<FairShareFlow> flows(2);
  flows[0].resources = {0};
  flows[0].weight = 3.0;
  flows[1].resources = {0};
  flows[1].weight = 4.0;
  FairShareSolver solver;
  solver.prepare(flows, 1);
  const ReferenceFill ref = expect_matches_reference(solver, {{c}}, flows);
  EXPECT_GE(ref.fallbacks, 1u);
  EXPECT_EQ(solver.last_fallback_freezes(), ref.fallbacks);
  EXPECT_EQ(ref.rates[0], step * 3.0);
}

TEST(FairShareDifferential, CountersMatchAcrossEntryPoints) {
  // solve() is prepare() + solve_prepared(): same rates, same counts.
  std::vector<FairShareFlow> flows(3);
  flows[0].resources = {0, 1};
  flows[1].resources = {0};
  flows[1].cap = 12.0;
  flows[2].resources = {1};
  flows[2].weight = 2.0;
  const std::vector<FairShareResource> res = {{100.0}, {60.0}};
  FairShareSolver one_shot;
  one_shot.solve(res, flows);
  FairShareSolver prepared;
  prepared.prepare(flows, res.size());
  const ReferenceFill ref = expect_matches_reference(prepared, res, flows);
  EXPECT_EQ(one_shot.last_fill_iterations(), ref.iterations);
  EXPECT_EQ(one_shot.last_fallback_freezes(), ref.fallbacks);
  EXPECT_EQ(ref.iterations, 2u);  // flow 1's cap, then resource 1
}

}  // namespace
}  // namespace flashflow::net
