// Measurement scheduling (§4.3, §7).
//
// A measurement period (24 h) divides into 30-second slots. Each BWAuth
// derives a secret randomized schedule from a shared seed: old relays are
// placed in uniformly random slots with sufficient unallocated capacity
// (each relay consumes f * z0 of the team's capacity); new relays are
// appended first-come first-served into the earliest slot with room.
//
// greedy_pack() implements the §7 efficiency estimate: fill slots in order,
// always taking the largest still-unmeasured relay that fits, yielding the
// minimum measurement time for the whole network. It runs in O(n log n)
// for n relays: one sort, then per placement a binary search for the
// first need that fits the room left plus a path-halved "next unplaced"
// lookup, instead of a rescan of the sorted list per slot. Placements,
// sums and throws are those of the rescan (tests/test_core_schedule.cpp
// keeps it as a differential oracle).
//
// PeriodSchedule::schedule_old_relays() keeps the min and max load of
// every block of 16 slots. Per relay it checks the S/16 blocks and scans
// only those whose slots are partly feasible: O(S/16) while few slots
// are near full, O(S) at worst, against the O(S) scan plus a feasible
// list per relay it replaces. Its RNG draws are those of the scan.
//
// Both layouts reject non-finite or non-positive capacity estimates with
// std::invalid_argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/params.h"
#include "sim/random.h"

namespace flashflow::core {

struct PackingResult {
  int slots_used = 0;
  /// relay index -> slot index (aligned with the input capacities).
  std::vector<int> relay_slot;
  /// Sum of capacity-estimate requirements (f * cap), bits.
  double total_requirement_bits = 0;
};

/// Slots in one measurement period (params.period / slot length), the
/// capacity a layout can use before it overruns the period.
int slots_per_period(const Params& params);

/// §7 greedy largest-fit packing. Throws std::runtime_error if any single
/// relay needs more than the team capacity.
PackingResult greedy_pack(std::span<const double> capacity_estimates,
                          double team_capacity_bits, const Params& params);

/// Randomized secret schedule for one BWAuth over one period.
class PeriodSchedule {
 public:
  /// `seed` is the period's shared random seed (per §4.3, derived from
  /// Tor's secure-randomness protocol) combined with the BWAuth identity.
  PeriodSchedule(const Params& params, double team_capacity_bits,
                 std::uint64_t seed);

  int slots_in_period() const;

  /// Assigns every old relay a uniformly random feasible slot; returns the
  /// slot per relay. Throws if a relay cannot fit in any slot.
  std::vector<int> schedule_old_relays(
      std::span<const double> capacity_estimates);

  /// FCFS new-relay insertion: earliest slot with room. Returns the slot.
  int schedule_new_relay(double capacity_estimate_bits);

  double slot_load_bits(int slot) const;

 private:
  double requirement(double capacity_estimate_bits) const;

  Params params_;
  double team_capacity_bits_;
  sim::Rng rng_;
  std::vector<double> load_bits_;
};

}  // namespace flashflow::core
