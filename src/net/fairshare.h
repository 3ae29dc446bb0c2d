// Weighted max-min fair rate allocation (progressive filling).
//
// Given resources with capacities and flows that each traverse a set of
// resources, carry a weight, and may have an individual rate cap, computes
// the weighted max-min fair allocation: all flows' rates rise together in
// proportion to their weights until a resource saturates or a flow hits its
// cap; saturated flows freeze, and the rest continue.
//
// This is the standard fluid approximation of TCP bandwidth sharing used by
// flow-level network simulators.
//
// The arithmetic contract is the plain scan-everything filling loop: each
// iteration takes step = min over constrained resources of remaining/
// active_weight and over active capped flows of (cap - rate)/weight,
// clamps it at 0, drains every resource by step * active_weight, adds
// step * weight to every active flow, then freezes (in ascending flow
// order, subtracting each frozen flow's weight per resource occurrence)
// every flow at its cap or at a resource that saturated; if nothing froze,
// the lowest-indexed active flow freezes anyway so the loop terminates.
// Allocations are bit-identical to that loop
// (tests/test_net_fairshare.cpp keeps it as a differential oracle, and
// tests/test_golden_determinism.cpp pins the engine bytes that rest on it).
//
// The solver runs it event-driven, touching only state that can still
// change, and stays exact for three reasons:
//   - Resources with identical incidence sequences (same flows, same
//     order, same multiplicity) merge into one group at prepare time. They
//     receive the identical sequence of weight additions and subtractions,
//     so their active weights are equal at every iteration; the group keeps
//     the min of its members' remaining capacities. fl(a - p) and fl(a / w)
//     are monotone in a, so taking the min commutes with the drain, the
//     division and the `<= eps` saturation test.
//   - Active flows with bitwise-equal weights have performed the identical
//     `rate += step * weight` sequence since the first iteration, so they
//     share one rate level per weight class. (cap - level)/weight and the
//     `level >= cap - eps` test are monotone in cap, so the cap step reads
//     only each class's smallest active cap, and the flows that freeze at
//     their caps are a prefix of the class's cap-sorted list.
//   - An iteration visits only the live groups (finite remaining capacity,
//     active weight above eps — both monotone, so a group that drops out
//     never returns), the live classes, the flows of groups that just
//     saturated and the cap prefixes. Frozen flows are collected, sorted
//     ascending and only then subtract their weights, which keeps the
//     reference summation order.
//
// Two entry points:
//   - FairShareSolver::solve(): owns all solver scratch across calls, so
//     per-second simulation loops (core::SlotRunner) allocate nothing after
//     warm-up (prepare() reuses pooled flat arrays as well).
//   - max_min_fair_rates(): one-shot convenience wrapper over a fresh
//     solver, returning an owned vector.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace flashflow::net {

struct FairShareResource {
  double capacity = 0;  // bits/s; <= 0 means unconstrained
};

struct FairShareFlow {
  std::vector<std::size_t> resources;  // indices into the resource vector
  double weight = 1.0;                 // relative share (e.g. socket count)
  double cap = std::numeric_limits<double>::infinity();  // bits/s
};

/// Progressive-filling solver with reusable scratch. Successive solves are
/// bit-identical to fresh ones (the algorithm never reads stale state), so
/// one solver instance can serve a whole simulation loop.
class FairShareSolver {
 public:
  /// Returns per-flow rates in bits/s. Guarantees:
  ///   - no resource's total allocated rate exceeds its capacity (within
  ///     eps);
  ///   - no flow exceeds its cap;
  ///   - the allocation is weighted max-min fair (no flow's rate can
  ///     increase without decreasing that of a flow with an
  ///     equal-or-smaller rate-to-weight ratio).
  ///
  /// The returned span aliases solver-owned storage and is invalidated by
  /// the next solve() call; copy it out to keep it.
  std::span<const double> solve(std::span<const FairShareResource> resources,
                                std::span<const FairShareFlow> flows);

  /// Preprocesses a flow set for repeated solves against varying resource
  /// capacities (the per-second slot loop: flows are slot invariants, only
  /// relay capacities change). Validates the flows, merges resources with
  /// identical incidence sequences, groups flows into weight classes with
  /// cap-sorted lists and precomputes the initial active weights.
  /// `num_resources` must equal the size of every resources span later
  /// passed to solve_prepared. The flow data is copied: the span may die
  /// after prepare returns.
  void prepare(std::span<const FairShareFlow> flows,
               std::size_t num_resources);

  /// Solves the prepared flow set; bit-identical to solve(resources,
  /// flows) with the flows passed to prepare(). Same span-invalidation
  /// rule as solve().
  std::span<const double> solve_prepared(
      std::span<const FairShareResource> resources);

  /// Flows still competing after the last prepare() (zero-cap flows are
  /// folded away at prepare time). Telemetry reads this for the
  /// solver/active_flows gauge; 0 before the first prepare.
  std::size_t prepared_active_flows() const { return by_cap_.size(); }

  /// Work done by the last solve: filling iterations (one per computed
  /// step, including a final unconstrained one) and numerical-safety
  /// fallback freezes. Pure functions of the inputs, so the engine sums
  /// them into deterministic telemetry counters.
  std::uint64_t last_fill_iterations() const { return fill_iterations_; }
  std::uint64_t last_fallback_freezes() const { return fallback_freezes_; }

 private:
  // ---- prepare() products: the flow set, read-only while solving. ----
  /// prepared_ is false until a prepare() run completes, so a validation
  /// throw mid-prepare cannot be followed by a solve over half-built state.
  bool prepared_ = false;
  std::size_t num_flows_ = 0;
  std::size_t num_resources_ = 0;
  std::vector<double> weights_;  // per flow
  std::vector<double> caps_;     // per flow
  /// Flow f's groups, one entry per occurrence of the group's
  /// representative resource in f's list:
  /// flow_groups_[flow_group_offset_[f] .. flow_group_offset_[f + 1]).
  std::vector<std::size_t> flow_group_offset_;
  std::vector<std::size_t> flow_groups_;
  /// Resource -> flow incidence, one entry per occurrence, in flow order:
  /// resource r's sequence is inc_flows_[inc_offset_[r] .. inc_offset_[r+1]).
  /// A group's flows are its representative's sequence.
  std::vector<std::size_t> inc_offset_;
  std::vector<std::size_t> inc_flows_;
  /// Group g's member resources (the capacities whose min it tracks): a
  /// list from its representative group_rep_[g] through next_member_.
  std::vector<std::size_t> group_rep_;
  std::vector<std::size_t> next_member_;
  /// Active weight per group before filling (zero-cap flows subtracted).
  std::vector<double> group_weight_base_;
  /// Groups whose base active weight exceeds eps; only these can bind.
  std::vector<std::size_t> weighted_groups_;
  /// Initially active flows sorted by (weight class, cap, index); class c
  /// owns by_cap_[class_offset_[c] .. class_offset_[c + 1]).
  std::vector<std::size_t> by_cap_;
  std::vector<std::size_t> class_offset_;
  std::vector<double> class_weight_;
  std::vector<std::size_t> flow_class_;    // per flow
  std::vector<std::uint8_t> frozen_init_;  // per flow: 1 if the cap is 0

  std::vector<std::size_t> group_of_;  // prepare() scratch, per resource

  // ---- solve_prepared() scratch, sized by prepare(). ----
  std::vector<double> rates_;
  std::vector<std::uint8_t> frozen_;   // per flow: frozen or queued
  std::vector<double> remaining_;      // per group
  std::vector<double> active_weight_;  // per group
  std::vector<std::size_t> live_groups_;
  std::vector<double> level_;          // per class: its active flows' rate
  std::vector<std::size_t> cursor_;    // per class: first active in by_cap_
  std::vector<std::size_t> live_classes_;
  std::vector<std::size_t> freeze_;    // flows queued to freeze
  std::uint64_t fill_iterations_ = 0;
  std::uint64_t fallback_freezes_ = 0;
};

/// One-shot convenience wrapper: solves with a fresh FairShareSolver and
/// copies the rates out. Prefer a reused solver in per-second loops.
std::vector<double> max_min_fair_rates(
    const std::vector<FairShareResource>& resources,
    const std::vector<FairShareFlow>& flows);

}  // namespace flashflow::net
