#include "net/fairshare.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace flashflow::net {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

// See the header for the algorithm and why it is exact. prepare() turns the
// flow set into flat, index-based tables; every vector keeps its capacity
// across calls, so re-preparing a flow set no larger than an earlier one
// allocates nothing.
void FairShareSolver::prepare(std::span<const FairShareFlow> flows,
                              std::size_t num_resources) {
  // Invalidate first: a validation throw below must not leave a half-built
  // flow set that a later solve_prepared would index out of bounds.
  prepared_ = false;
  const std::size_t F = flows.size();
  const std::size_t R = num_resources;
  num_flows_ = F;
  num_resources_ = R;
  weights_.resize(F);
  caps_.resize(F);
  inc_offset_.assign(R + 1, 0);
  for (std::size_t f = 0; f < F; ++f) {
    if (flows[f].weight <= 0.0)
      throw std::invalid_argument("max_min_fair_rates: non-positive weight");
    weights_[f] = flows[f].weight;
    caps_[f] = flows[f].cap;
    for (const std::size_t r : flows[f].resources) {
      if (r >= R)
        throw std::out_of_range("max_min_fair_rates: bad resource index");
      ++inc_offset_[r + 1];
    }
  }

  // Resource -> flow incidence in flow order, one entry per occurrence:
  // resource r's sequence is inc_flows_[inc_offset_[r] .. inc_offset_[r+1]).
  // next_member_ serves as the per-resource write cursor until the
  // grouping below resets it.
  for (std::size_t r = 0; r < R; ++r) inc_offset_[r + 1] += inc_offset_[r];
  inc_flows_.resize(inc_offset_[R]);
  next_member_.assign(inc_offset_.begin(), inc_offset_.end() - 1);
  for (std::size_t f = 0; f < F; ++f)
    for (const std::size_t r : flows[f].resources)
      inc_flows_[next_member_[r]++] = f;

  // Merge resources with identical sequences. A sequence starts with its
  // resource's lowest flow, so every resource is first met in that flow's
  // list, next to any resource it can merge with: each flow only compares
  // the resources it introduces against the groups it introduced. The
  // first resource of a group is its representative.
  const auto sequence = [this](std::size_t r) {
    return std::span<const std::size_t>(inc_flows_).subspan(
        inc_offset_[r], inc_offset_[r + 1] - inc_offset_[r]);
  };
  group_of_.assign(R, kNone);
  next_member_.assign(R, kNone);
  group_rep_.clear();
  group_weight_base_.clear();
  weighted_groups_.clear();
  flow_group_offset_.resize(F + 1);
  flow_groups_.clear();
  for (std::size_t f = 0; f < F; ++f) {
    const std::size_t first_new = group_rep_.size();
    for (const std::size_t r : flows[f].resources) {
      if (group_of_[r] != kNone || inc_flows_[inc_offset_[r]] != f) continue;
      std::size_t g = first_new;
      while (g < group_rep_.size() &&
             !std::ranges::equal(sequence(group_rep_[g]), sequence(r)))
        ++g;
      group_of_[r] = g;
      if (g < group_rep_.size()) {
        // Join as the second member (member order is irrelevant: the
        // group only takes the min of their capacities).
        next_member_[r] = next_member_[group_rep_[g]];
        next_member_[group_rep_[g]] = r;
        continue;
      }
      // New group. Its active weight is the reference per-resource sum:
      // every occurrence added in flow order, then the zero-cap flows'
      // occurrences subtracted in flow order.
      group_rep_.push_back(r);
      double weight = 0.0;
      for (const std::size_t flow : sequence(r)) weight += weights_[flow];
      for (const std::size_t flow : sequence(r))
        if (caps_[flow] <= 0.0) weight -= weights_[flow];
      group_weight_base_.push_back(weight);
      if (weight > kEps) weighted_groups_.push_back(g);
    }
    // Flow f's groups, one entry per occurrence of a representative.
    flow_group_offset_[f] = flow_groups_.size();
    for (const std::size_t r : flows[f].resources)
      if (group_rep_[group_of_[r]] == r) flow_groups_.push_back(group_of_[r]);
  }
  flow_group_offset_[F] = flow_groups_.size();
  const std::size_t G = group_rep_.size();

  // Weight classes: initially active flows sorted by (weight bits, cap,
  // index), one class per run of bitwise-equal weights. Active caps are
  // positive or NaN, whose bit patterns order like their values with NaN
  // last (a NaN cap never binds and never freezes a flow, like an infinite
  // one). Flows with an immediate zero cap freeze before the first
  // iteration.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  frozen_init_.resize(F);
  by_cap_.clear();
  for (std::size_t f = 0; f < F; ++f) {
    frozen_init_[f] = caps_[f] <= 0.0 ? 1 : 0;
    if (!frozen_init_[f]) by_cap_.push_back(f);
  }
  std::sort(by_cap_.begin(), by_cap_.end(),
            [&](std::size_t a, std::size_t b) {
              const auto wa = bits(weights_[a]), wb = bits(weights_[b]);
              if (wa != wb) return wa < wb;
              const auto ca = bits(caps_[a]), cb = bits(caps_[b]);
              if (ca != cb) return ca < cb;
              return a < b;
            });
  flow_class_.resize(F);
  class_offset_.clear();
  class_weight_.clear();
  for (std::size_t i = 0; i < by_cap_.size(); ++i) {
    const std::size_t f = by_cap_[i];
    if (i == 0 || bits(weights_[f]) != bits(weights_[by_cap_[i - 1]])) {
      class_offset_.push_back(i);
      class_weight_.push_back(weights_[f]);
    }
    flow_class_[f] = class_weight_.size() - 1;
  }
  class_offset_.push_back(by_cap_.size());
  const std::size_t C = class_weight_.size();

  // Size the solve scratch so solve_prepared never grows a vector.
  rates_.resize(F);
  frozen_.resize(F);
  freeze_.resize(F);
  remaining_.resize(G);
  active_weight_.resize(G);
  live_groups_.resize(G);
  level_.resize(C);
  cursor_.resize(C);
  live_classes_.resize(C);
  prepared_ = true;
}

// FF_HOT_BEGIN: per-second fair-share re-solve — runs once per simulated
// second per slot; every working vector below was sized by prepare(), and
// the loop writes through indices only (ffcheck guards the region).
std::span<const double> FairShareSolver::solve_prepared(
    std::span<const FairShareResource> resources) {
  if (!prepared_)
    throw std::logic_error(
        "FairShareSolver: solve_prepared without a successful prepare");
  if (resources.size() != num_resources_)
    throw std::invalid_argument(
        "FairShareSolver: resources size changed since prepare");

  fill_iterations_ = 0;
  fallback_freezes_ = 0;
  std::fill(rates_.begin(), rates_.end(), 0.0);
  std::copy(frozen_init_.begin(), frozen_init_.end(), frozen_.begin());

  // Live groups: a finite remaining capacity (min over the members; a
  // capacity <= 0 means unconstrained) and active weight above eps.
  std::size_t n_groups = 0;
  for (const std::size_t g : weighted_groups_) {
    double remaining = kInf;
    for (std::size_t r = group_rep_[g]; r != kNone; r = next_member_[r]) {
      const double capacity = resources[r].capacity;
      remaining = std::min(remaining, capacity > 0 ? capacity : kInf);
    }
    if (!std::isfinite(remaining)) continue;
    remaining_[g] = remaining;
    active_weight_[g] = group_weight_base_[g];
    live_groups_[n_groups++] = g;
  }
  std::size_t n_classes = class_weight_.size();
  for (std::size_t c = 0; c < n_classes; ++c) {
    level_[c] = 0.0;
    cursor_[c] = class_offset_[c];
    live_classes_[c] = c;
  }

  std::size_t n_active = by_cap_.size();
  std::size_t lowest = 0;  // fallback scan position, in flow order
  while (n_active > 0) {
    ++fill_iterations_;
    // Largest uniform per-weight increment before a group saturates or a
    // class's smallest active cap is reached; groups whose weight dropped
    // to eps and classes with no active flow left drop out for good.
    double step = kInf;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n_groups; ++i) {
      const std::size_t g = live_groups_[i];
      if (!(active_weight_[g] > kEps)) continue;
      live_groups_[kept++] = g;
      step = std::min(step, remaining_[g] / active_weight_[g]);
    }
    n_groups = kept;
    kept = 0;
    for (std::size_t i = 0; i < n_classes; ++i) {
      const std::size_t c = live_classes_[i];
      std::size_t& at = cursor_[c];
      while (at < class_offset_[c + 1] && frozen_[by_cap_[at]]) ++at;
      if (at == class_offset_[c + 1]) continue;
      live_classes_[kept++] = c;
      const double cap = caps_[by_cap_[at]];
      if (std::isfinite(cap))
        step = std::min(step, (cap - level_[c]) / class_weight_[c]);
    }
    n_classes = kept;
    if (!std::isfinite(step)) {
      // No binding constraint: remaining flows are unconstrained. Assign an
      // effectively unbounded rate; callers treat it as "not the bottleneck".
      for (std::size_t i = 0; i < n_classes; ++i) {
        const std::size_t c = live_classes_[i];
        for (std::size_t k = cursor_[c]; k < class_offset_[c + 1]; ++k)
          if (!frozen_[by_cap_[k]]) rates_[by_cap_[k]] = kInf;
      }
      break;
    }
    step = std::max(step, 0.0);

    // Advance the class levels, then drain the live groups. A flow is
    // marked frozen as soon as it is queued; its rate and weights settle
    // below, in ascending flow order. Queued flows are the active flows
    // of groups that saturated and each class's prefix of flows at their
    // caps. The first flow below its cap ends a prefix; skipping flows
    // already queued is safe because caps only grow along the list.
    for (std::size_t i = 0; i < n_classes; ++i) {
      const std::size_t c = live_classes_[i];
      level_[c] += step * class_weight_[c];
    }
    std::size_t n_freeze = 0;
    const auto queue = [&](std::size_t f) {
      if (frozen_[f]) return;
      frozen_[f] = 1;
      freeze_[n_freeze++] = f;
    };
    for (std::size_t i = 0; i < n_groups; ++i) {
      const std::size_t g = live_groups_[i];
      remaining_[g] -= step * active_weight_[g];
      if (remaining_[g] <= kEps) {
        const std::size_t r = group_rep_[g];
        for (std::size_t k = inc_offset_[r]; k < inc_offset_[r + 1]; ++k)
          queue(inc_flows_[k]);
      }
    }
    for (std::size_t i = 0; i < n_classes; ++i) {
      const std::size_t c = live_classes_[i];
      for (std::size_t k = cursor_[c]; k < class_offset_[c + 1]; ++k) {
        const std::size_t f = by_cap_[k];
        if (frozen_[f]) continue;
        if (!(level_[c] >= caps_[f] - kEps)) break;
        queue(f);
      }
    }
    if (n_freeze == 0) {
      // Numerical safety: freeze the lowest-indexed active flow so the
      // loop always terminates.
      while (frozen_[lowest]) ++lowest;
      queue(lowest);
      ++fallback_freezes_;
    }

    // Settle in ascending flow order: each flow subtracts its weight once
    // per group occurrence, in the reference summation order.
    std::sort(freeze_.begin(),
              freeze_.begin() + static_cast<std::ptrdiff_t>(n_freeze));
    for (std::size_t i = 0; i < n_freeze; ++i) {
      const std::size_t f = freeze_[i];
      rates_[f] = level_[flow_class_[f]];
      for (std::size_t k = flow_group_offset_[f];
           k < flow_group_offset_[f + 1]; ++k)
        active_weight_[flow_groups_[k]] -= weights_[f];
    }
    n_active -= n_freeze;
  }
  return {rates_.data(), num_flows_};
}
// FF_HOT_END: per-second fair-share re-solve

std::span<const double> FairShareSolver::solve(
    std::span<const FairShareResource> resources,
    std::span<const FairShareFlow> flows) {
  prepare(flows, resources.size());
  return solve_prepared(resources);
}

std::vector<double> max_min_fair_rates(
    const std::vector<FairShareResource>& resources,
    const std::vector<FairShareFlow>& flows) {
  FairShareSolver solver;
  const auto rates = solver.solve(resources, flows);
  return {rates.begin(), rates.end()};
}

}  // namespace flashflow::net
