#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

namespace flashflow::core {

namespace {

// Both layouts lean on a total order of the estimates (the greedy sort
// comparator, the randomized layout's monotone feasibility test), which
// NaN breaks; an infinite or non-positive estimate sizes no slot share.
// Checked before any placement, so a rejected call changes no state.
void require_estimates(std::span<const double> estimates, const char* who) {
  for (const double estimate : estimates)
    if (!std::isfinite(estimate) || estimate <= 0.0)
      throw std::invalid_argument(
          std::string(who) +
          ": capacity estimates must be finite and positive");
}

}  // namespace

int slots_per_period(const Params& params) {
  return static_cast<int>(params.period /
                          (params.slot_seconds * sim::kSecond));
}

PackingResult greedy_pack(std::span<const double> capacity_estimates,
                          double team_capacity_bits, const Params& params) {
  require_estimates(capacity_estimates, "greedy_pack");
  if (std::isnan(team_capacity_bits))
    throw std::invalid_argument("greedy_pack: team capacity is NaN");
  const double f = params.excess_factor();
  const std::size_t n = capacity_estimates.size();

  // Relays sorted by requirement, largest first.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return capacity_estimates[a] > capacity_estimates[b];
  });

  PackingResult result;
  result.relay_slot.assign(n, -1);
  if (n == 0) return result;
  const auto need_at = [&](std::size_t pos) {
    return f * capacity_estimates[order[pos]];
  };
  // Needs are non-increasing along `order`, so the largest relay is the
  // only one that can be oversize first.
  if (need_at(0) > team_capacity_bits + 1e-6)
    throw std::runtime_error("greedy_pack: relay exceeds team capacity");

  // Largest-fit, the §7 rule: each slot takes, in descending order, every
  // still-unplaced relay whose need fits the room left. The fits form a
  // suffix of `order`, so the next pick is the first unplaced position at
  // or after the partition point. next_unplaced[i] leads (path-halved) to
  // the smallest unplaced position >= i; position n is the sentinel.
  std::vector<std::size_t> next_unplaced(n + 1);
  std::iota(next_unplaced.begin(), next_unplaced.end(), 0);
  const auto find_unplaced = [&](std::size_t pos) {
    while (next_unplaced[pos] != pos) {
      next_unplaced[pos] = next_unplaced[next_unplaced[pos]];
      pos = next_unplaced[pos];
    }
    return pos;
  };

  std::size_t remaining = n;
  int slot = 0;
  while (remaining > 0) {
    double room = team_capacity_bits;
    std::size_t pos = 0;
    for (;;) {
      const double limit = room + 1e-6;
      const auto first_fit = std::partition_point(
          order.begin() + static_cast<std::ptrdiff_t>(pos), order.end(),
          [&](std::size_t r) { return f * capacity_estimates[r] > limit; });
      pos = find_unplaced(static_cast<std::size_t>(first_fit - order.begin()));
      if (pos == n) break;
      const double need = need_at(pos);
      result.relay_slot[order[pos]] = slot;
      result.total_requirement_bits += need;
      room -= need;
      next_unplaced[pos] = pos + 1;
      --remaining;
    }
    ++slot;
  }
  result.slots_used = slot;
  return result;
}

PeriodSchedule::PeriodSchedule(const Params& params,
                               double team_capacity_bits, std::uint64_t seed)
    : params_(params),
      team_capacity_bits_(team_capacity_bits),
      rng_(seed),
      load_bits_(static_cast<std::size_t>(slots_per_period(params)), 0.0) {
  if (team_capacity_bits_ <= 0.0)
    throw std::invalid_argument("PeriodSchedule: no team capacity");
}

int PeriodSchedule::slots_in_period() const {
  return static_cast<int>(load_bits_.size());
}

double PeriodSchedule::requirement(double capacity_estimate_bits) const {
  return params_.excess_factor() * capacity_estimate_bits;
}

std::vector<int> PeriodSchedule::schedule_old_relays(
    std::span<const double> capacity_estimates) {
  require_estimates(capacity_estimates, "PeriodSchedule");
  // §4.3: each relay draws uniformly among the feasible slots
  // (load + need <= T + 1e-6), taken in index order. That test is
  // monotone in the load, so every block of kBlock slots keeps its min
  // and max load: a block is all feasible when its max fits and has no
  // feasible slot when its min does not. Only the blocks in between are
  // scanned. The count, the uniform_int draw over it and the k-th
  // feasible slot are the plain scan's, so the RNG stream is unchanged.
  // 16 was the fastest of 16/32/64/128 on the §7 mixture's priors.
  constexpr std::size_t kBlock = 16;
  const std::size_t slot_count = load_bits_.size();
  const std::size_t blocks = (slot_count + kBlock - 1) / kBlock;
  const double limit = team_capacity_bits_ + 1e-6;
  std::vector<double> block_min(blocks);
  std::vector<double> block_max(blocks);
  std::vector<std::int64_t> block_feasible(blocks);
  const auto block_end = [&](std::size_t b) {
    return std::min(slot_count, (b + 1) * kBlock);
  };
  const auto refresh = [&](std::size_t b) {
    const auto [lo, hi] =
        std::minmax_element(load_bits_.begin() + b * kBlock,
                            load_bits_.begin() + block_end(b));
    block_min[b] = *lo;
    block_max[b] = *hi;
  };
  for (std::size_t b = 0; b < blocks; ++b) refresh(b);

  std::vector<int> slots;
  slots.reserve(capacity_estimates.size());
  for (const double estimate : capacity_estimates) {
    const double need = requirement(estimate);
    const auto fits = [&](double load) { return load + need <= limit; };
    std::int64_t feasible = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      std::int64_t count = 0;
      if (fits(block_max[b])) {
        count = static_cast<std::int64_t>(block_end(b) - b * kBlock);
      } else if (fits(block_min[b])) {
        for (std::size_t s = b * kBlock; s < block_end(b); ++s)
          count += fits(load_bits_[s]) ? 1 : 0;
      }
      block_feasible[b] = count;
      feasible += count;
    }
    if (feasible == 0)
      throw std::runtime_error(
          "PeriodSchedule: no slot can fit relay; period too short");
    std::int64_t k = rng_.uniform_int(0, feasible - 1);
    std::size_t b = 0;
    for (; k >= block_feasible[b]; ++b) k -= block_feasible[b];
    std::size_t pick = b * kBlock;
    if (fits(block_max[b])) {
      pick += static_cast<std::size_t>(k);
    } else {
      while (!fits(load_bits_[pick]) || k-- > 0) ++pick;
    }
    load_bits_[pick] += need;
    refresh(b);
    slots.push_back(static_cast<int>(pick));
  }
  return slots;
}

int PeriodSchedule::schedule_new_relay(double capacity_estimate_bits) {
  const double need = requirement(capacity_estimate_bits);
  for (std::size_t s = 0; s < load_bits_.size(); ++s) {
    if (load_bits_[s] + need <= team_capacity_bits_ + 1e-6) {
      load_bits_[s] += need;
      return static_cast<int>(s);
    }
  }
  throw std::runtime_error("PeriodSchedule: period full");
}

double PeriodSchedule::slot_load_bits(int slot) const {
  return load_bits_.at(static_cast<std::size_t>(slot));
}

}  // namespace flashflow::core
