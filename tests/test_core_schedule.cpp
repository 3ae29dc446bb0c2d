#include "core/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "net/units.h"

namespace flashflow::core {
namespace {

TEST(GreedyPack, SingleRelayOneSlot) {
  Params p;
  const std::vector<double> caps = {net::mbit(100)};
  const auto r = greedy_pack(caps, net::gbit(3), p);
  EXPECT_EQ(r.slots_used, 1);
  EXPECT_EQ(r.relay_slot[0], 0);
}

TEST(GreedyPack, PacksLargestFirst) {
  Params p;
  // Team 3 Gbit/s; f ~ 2.953: a 998 Mbit/s relay consumes ~2.95 G alone,
  // leaving ~53 Mbit/s of slack for small relays.
  const std::vector<double> caps = {net::mbit(998), net::mbit(5),
                                    net::mbit(5)};
  const auto r = greedy_pack(caps, net::gbit(3), p);
  EXPECT_EQ(r.slots_used, 1);  // small relays fit in the leftover
}

TEST(GreedyPack, SlotCountTracksTotalRequirement) {
  Params p;
  std::vector<double> caps(100, net::mbit(100));
  const double team = net::gbit(3);
  const auto r = greedy_pack(caps, team, p);
  const int lower_bound = static_cast<int>(
      std::ceil(r.total_requirement_bits / team));
  EXPECT_GE(r.slots_used, lower_bound);
  EXPECT_LE(r.slots_used, lower_bound + 2);  // near-perfect packing
}

TEST(GreedyPack, EveryRelayAssignedExactlyOnce) {
  Params p;
  std::vector<double> caps;
  sim::Rng rng(3);
  for (int i = 0; i < 200; ++i) caps.push_back(rng.uniform(1e6, 9e8));
  const auto r = greedy_pack(caps, net::gbit(3), p);
  for (const int slot : r.relay_slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, r.slots_used);
  }
}

TEST(GreedyPack, SlotCapacityNeverExceeded) {
  Params p;
  std::vector<double> caps;
  sim::Rng rng(4);
  for (int i = 0; i < 300; ++i) caps.push_back(rng.uniform(1e6, 9e8));
  const double team = net::gbit(3);
  const auto r = greedy_pack(caps, team, p);
  std::vector<double> load(static_cast<std::size_t>(r.slots_used), 0.0);
  for (std::size_t i = 0; i < caps.size(); ++i)
    load[static_cast<std::size_t>(r.relay_slot[i])] +=
        p.excess_factor() * caps[i];
  for (const double l : load) EXPECT_LE(l, team + 1.0);
}

TEST(GreedyPack, OversizedRelayThrows) {
  Params p;
  const std::vector<double> caps = {net::gbit(2)};  // f*2G > 3G
  EXPECT_THROW(greedy_pack(caps, net::gbit(3), p), std::runtime_error);
}

TEST(PeriodSchedule, SlotsPerDay) {
  Params p;  // 24 h period, 30 s slots
  PeriodSchedule sched(p, net::gbit(3), 1);
  EXPECT_EQ(sched.slots_in_period(), 2880);
}

TEST(PeriodSchedule, OldRelaysGetFeasibleSlots) {
  Params p;
  PeriodSchedule sched(p, net::gbit(3), 2);
  std::vector<double> caps(500, net::mbit(100));
  const auto slots = sched.schedule_old_relays(caps);
  ASSERT_EQ(slots.size(), caps.size());
  for (const int s : slots) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, sched.slots_in_period());
    EXPECT_LE(sched.slot_load_bits(s), net::gbit(3) + 1.0);
  }
}

TEST(PeriodSchedule, DeterministicForSeed) {
  Params p;
  std::vector<double> caps(50, net::mbit(100));
  PeriodSchedule a(p, net::gbit(3), 42);
  PeriodSchedule b(p, net::gbit(3), 42);
  EXPECT_EQ(a.schedule_old_relays(caps), b.schedule_old_relays(caps));
}

TEST(PeriodSchedule, DifferentSeedsDifferentSchedules) {
  // §4.3: the schedule must be unpredictable without the seed.
  Params p;
  std::vector<double> caps(50, net::mbit(100));
  PeriodSchedule a(p, net::gbit(3), 1);
  PeriodSchedule b(p, net::gbit(3), 2);
  EXPECT_NE(a.schedule_old_relays(caps), b.schedule_old_relays(caps));
}

TEST(PeriodSchedule, SlotsSpreadAcrossPeriod) {
  Params p;
  PeriodSchedule sched(p, net::gbit(3), 3);
  std::vector<double> caps(200, net::mbit(50));
  const auto slots = sched.schedule_old_relays(caps);
  std::set<int> distinct(slots.begin(), slots.end());
  // Uniform choice over 2880 slots: 200 relays should land on many
  // distinct slots.
  EXPECT_GT(distinct.size(), 150u);
}

TEST(PeriodSchedule, NewRelaysFcfsEarliestFit) {
  Params p;
  PeriodSchedule sched(p, net::gbit(3), 4);
  const int s1 = sched.schedule_new_relay(net::mbit(51));
  const int s2 = sched.schedule_new_relay(net::mbit(51));
  EXPECT_EQ(s1, 0);
  EXPECT_EQ(s2, 0);  // both fit in the first slot
  // Fill slot 0 with a huge relay: next new relay goes to slot 1.
  PeriodSchedule tight(p, net::mbit(200), 5);
  tight.schedule_new_relay(net::mbit(60));  // ~177 of 200 Mbit used
  const int s3 = tight.schedule_new_relay(net::mbit(60));
  EXPECT_EQ(s3, 1);
}

TEST(PeriodSchedule, RejectsZeroCapacityTeam) {
  Params p;
  EXPECT_THROW(PeriodSchedule(p, 0.0, 1), std::invalid_argument);
}

TEST(GreedyPackProperty, RandomPopulationsPlaceEveryRelayWithinCapacity) {
  // Property sweep over random team sizes and heavy-ish populations:
  // every relay lands in exactly one valid slot, no slot's requirement sum
  // exceeds the team capacity, and the reported totals are consistent.
  Params p;
  sim::Rng rng(606);
  for (int trial = 0; trial < 40; ++trial) {
    const double team = rng.uniform(net::gbit(1), net::gbit(5));
    const double max_cap = team / p.excess_factor();
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 150));
    std::vector<double> caps;
    caps.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      caps.push_back(rng.uniform(net::kbit(100), max_cap));

    const auto r = greedy_pack(caps, team, p);
    ASSERT_EQ(r.relay_slot.size(), n);
    ASSERT_GE(r.slots_used, 1);
    std::vector<double> load(static_cast<std::size_t>(r.slots_used), 0.0);
    double requirement = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_GE(r.relay_slot[i], 0);          // placed...
      ASSERT_LT(r.relay_slot[i], r.slots_used);  // ...in a real slot
      load[static_cast<std::size_t>(r.relay_slot[i])] +=
          p.excess_factor() * caps[i];
      requirement += p.excess_factor() * caps[i];
    }
    for (const double l : load) EXPECT_LE(l, team + 1.0);
    EXPECT_NEAR(r.total_requirement_bits, requirement,
                1e-6 * requirement + 1.0);
    // No trailing empty slot: the last slot must hold someone.
    EXPECT_GT(load.back(), 0.0);
  }
}

TEST(GreedyPackProperty, ThrowsWheneverAnyRelayExceedsTeam) {
  Params p;
  sim::Rng rng(607);
  for (int trial = 0; trial < 40; ++trial) {
    const double team = rng.uniform(net::gbit(1), net::gbit(5));
    std::vector<double> caps;
    for (int i = 0; i < 10; ++i)
      caps.push_back(rng.uniform(net::mbit(1), team / p.excess_factor()));
    // One relay strictly over the single-slot budget poisons the packing.
    caps.push_back(team / p.excess_factor() * rng.uniform(1.01, 3.0));
    rng.shuffle(caps);
    EXPECT_THROW(greedy_pack(caps, team, p), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Differential tests. The oracles below are the original O(relays x slots)
// scans, kept verbatim: greedy_pack and PeriodSchedule must reproduce
// their placements, sums, loads, RNG draws and throws bit for bit.

PackingResult reference_greedy_pack(std::span<const double> capacity_estimates,
                                    double team_capacity_bits,
                                    const Params& params) {
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
  std::vector<bool> placed(n, false);
  std::size_t remaining = n;
  int slot = 0;
  while (remaining > 0) {
    double room = team_capacity_bits;
    // Largest-fit: scan in descending order for relays that still fit.
    for (const std::size_t r : order) {
      if (placed[r]) continue;
      const double need = f * capacity_estimates[r];
      if (need > team_capacity_bits + 1e-6)
        throw std::runtime_error(
            "greedy_pack: relay exceeds team capacity");
      if (need <= room + 1e-6) {
        result.relay_slot[r] = slot;
        result.total_requirement_bits += need;
        room -= need;
        placed[r] = true;
        --remaining;
      }
    }
    ++slot;
  }
  result.slots_used = slot;
  return result;
}

/// The original PeriodSchedule, with the per-relay feasible-slot scan.
class ReferencePeriodSchedule {
 public:
  ReferencePeriodSchedule(const Params& params, double team_capacity_bits,
                          std::uint64_t seed)
      : params_(params),
        team_capacity_bits_(team_capacity_bits),
        rng_(seed),
        load_bits_(static_cast<std::size_t>(
                       params.period / (params.slot_seconds * sim::kSecond)),
                   0.0) {}

  std::vector<int> schedule_old_relays(
      std::span<const double> capacity_estimates) {
    std::vector<int> slots;
    slots.reserve(capacity_estimates.size());
    std::vector<int> feasible;
    for (const double estimate : capacity_estimates) {
      const double need = requirement(estimate);
      feasible.clear();
      for (std::size_t s = 0; s < load_bits_.size(); ++s)
        if (load_bits_[s] + need <= team_capacity_bits_ + 1e-6)
          feasible.push_back(static_cast<int>(s));
      if (feasible.empty())
        throw std::runtime_error(
            "PeriodSchedule: no slot can fit relay; period too short");
      const int pick = feasible[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(feasible.size()) - 1))];
      load_bits_[static_cast<std::size_t>(pick)] += need;
      slots.push_back(pick);
    }
    return slots;
  }

  int schedule_new_relay(double capacity_estimate_bits) {
    const double need = requirement(capacity_estimate_bits);
    for (std::size_t s = 0; s < load_bits_.size(); ++s) {
      if (load_bits_[s] + need <= team_capacity_bits_ + 1e-6) {
        load_bits_[s] += need;
        return static_cast<int>(s);
      }
    }
    throw std::runtime_error("PeriodSchedule: period full");
  }

  const std::vector<double>& loads() const { return load_bits_; }

 private:
  double requirement(double capacity_estimate_bits) const {
    return params_.excess_factor() * capacity_estimate_bits;
  }

  Params params_;
  double team_capacity_bits_;
  sim::Rng rng_;
  std::vector<double> load_bits_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// greedy_pack against the oracle: both throw std::runtime_error, or
/// relay_slot, slots_used and total_requirement_bits match bit for bit.
void expect_pack_matches_reference(const std::vector<double>& caps,
                                   double team, const Params& p) {
  std::optional<PackingResult> want;
  try {
    want = reference_greedy_pack(caps, team, p);
  } catch (const std::runtime_error&) {
  }
  if (!want) {
    EXPECT_THROW(greedy_pack(caps, team, p), std::runtime_error);
    return;
  }
  const PackingResult got = greedy_pack(caps, team, p);
  EXPECT_EQ(got.slots_used, want->slots_used);
  ASSERT_EQ(got.relay_slot.size(), want->relay_slot.size());
  EXPECT_TRUE(got.relay_slot.empty() ||
              std::memcmp(got.relay_slot.data(), want->relay_slot.data(),
                          got.relay_slot.size() * sizeof(int)) == 0);
  EXPECT_TRUE(
      same_bits(got.total_requirement_bits, want->total_requirement_bits))
      << got.total_requirement_bits << " vs " << want->total_requirement_bits;
}

/// Capacity draw with many exact ties and runs of equal needs: a few
/// distinct values, each drawn often, mixed with arbitrary ones.
double draw_tied_capacity(sim::Rng& rng, double max_cap) {
  const double u = rng.uniform(0.0, 1.0);
  if (u < 0.4) return max_cap / static_cast<double>(rng.uniform_int(1, 6));
  if (u < 0.5) return max_cap;  // need == f * (T / f), the largest allowed
  if (u < 0.7)
    return static_cast<double>(rng.uniform_int(1, 20)) * net::mbit(25);
  return rng.uniform(net::kbit(100), max_cap);
}

TEST(GreedyPackDifferential, RandomPopulationsMatchTheRescan) {
  Params p;
  sim::Rng rng(1501);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const double team = rng.uniform(net::gbit(0.5), net::gbit(5));
    const double max_cap = team / p.excess_factor();
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 400));
    std::vector<double> caps;
    caps.reserve(n);
    const bool tied = trial % 2 == 0;
    for (std::size_t i = 0; i < n; ++i)
      caps.push_back(tied ? draw_tied_capacity(rng, max_cap)
                          : rng.uniform(net::kbit(100), max_cap));
    expect_pack_matches_reference(caps, team, p);
  }
}

TEST(GreedyPackDifferential, LongEqualNeedRuns) {
  // Runs of identical needs that leave odd remainders in every slot, so
  // later, smaller runs backfill across many slots.
  Params p;
  const double team = net::gbit(3);
  const double f = p.excess_factor();
  std::vector<double> caps;
  for (int i = 0; i < 700; ++i) caps.push_back(team / f * 0.37);
  for (int i = 0; i < 900; ++i) caps.push_back(team / f * 0.11);
  for (int i = 0; i < 1500; ++i) caps.push_back(net::mbit(3));
  sim::Rng rng(1502);
  rng.shuffle(caps);
  expect_pack_matches_reference(caps, team, p);
  std::vector<double> one_value(2000, team / f / 7.0);
  expect_pack_matches_reference(one_value, team, p);
}

TEST(GreedyPackDifferential, NeedsAtTheToleranceEdges) {
  // A slot holds one relay of need `big`; the second relay's need sits
  // within a few 1e-6 of the room left, on both sides of the tolerance,
  // and the largest needs sit at and just past T + 1e-6.
  Params p;
  const double f = p.excess_factor();
  for (const double team : {3e9, 1e9, 7.5e8, 1e3}) {
    for (const double frac : {0.5, 0.9, 0.999}) {
      const double big = team * frac;
      for (const double delta :
           {-3e-6, -1e-6, -5e-7, -1e-7, 0.0, 1e-7, 5e-7, 1e-6, 2e-6}) {
        SCOPED_TRACE(testing::Message() << team << " " << frac << " "
                                        << delta);
        std::vector<double> caps = {big / f, (team - big + delta) / f,
                                    (team - big + delta) / f, big / f};
        expect_pack_matches_reference(caps, team, p);
        // The whole team, give or take the tolerance: fits alone or throws.
        caps.push_back((team + 1e-6 + delta) / f);
        expect_pack_matches_reference(caps, team, p);
      }
    }
  }
}

TEST(GreedyPackDifferential, EmptyInput) {
  Params p;
  const std::vector<double> none;
  expect_pack_matches_reference(none, net::gbit(3), p);
  const auto r = greedy_pack(none, net::gbit(3), p);
  EXPECT_EQ(r.slots_used, 0);
  EXPECT_TRUE(r.relay_slot.empty());
  EXPECT_EQ(r.total_requirement_bits, 0.0);
}

TEST(GreedyPackDifferential, OversizeThrowsLikeTheRescan) {
  Params p;
  sim::Rng rng(1503);
  for (int trial = 0; trial < 50; ++trial) {
    const double team = rng.uniform(net::gbit(1), net::gbit(5));
    const double max_cap = team / p.excess_factor();
    std::vector<double> caps;
    for (int i = 0; i < 20; ++i)
      caps.push_back(draw_tied_capacity(rng, max_cap));
    caps.push_back(max_cap * rng.uniform(1.0001, 2.0));
    rng.shuffle(caps);
    expect_pack_matches_reference(caps, team, p);
  }
}

Params short_period(int slots) {
  Params p;
  p.period = static_cast<sim::SimDuration>(slots) * p.slot_seconds *
             sim::kSecond;
  return p;
}

/// Runs the oracle, then the code under test: both throw
/// std::runtime_error, or both return equal values.
template <typename Want, typename Got>
void expect_same_outcome(Want want, Got got) {
  std::optional<decltype(want())> expected;
  try {
    expected = want();
  } catch (const std::runtime_error&) {
  }
  if (expected) {
    EXPECT_EQ(got(), *expected);
  } else {
    EXPECT_THROW(got(), std::runtime_error);
  }
}

/// Runs `batches` through both schedules, then one new relay and one more
/// old-relay batch: slots, every slot load, the FCFS pick and the RNG
/// draws of the extra batch must all match, throws included.
void expect_schedule_matches_reference(
    const Params& p, double team, std::uint64_t seed,
    const std::vector<std::vector<double>>& batches) {
  PeriodSchedule got(p, team, seed);
  ReferencePeriodSchedule want(p, team, seed);
  ASSERT_EQ(static_cast<std::size_t>(got.slots_in_period()),
            want.loads().size());
  const auto loads_match = [&] {
    for (int s = 0; s < got.slots_in_period(); ++s)
      if (!same_bits(got.slot_load_bits(s),
                     want.loads()[static_cast<std::size_t>(s)]))
        return false;
    return true;
  };
  for (const auto& batch : batches) {
    expect_same_outcome([&] { return want.schedule_old_relays(batch); },
                        [&] { return got.schedule_old_relays(batch); });
    EXPECT_TRUE(loads_match());
  }
  const double newcomer = batches.empty() || batches[0].empty()
                              ? net::mbit(1)
                              : batches[0][0];
  expect_same_outcome([&] { return want.schedule_new_relay(newcomer); },
                      [&] { return got.schedule_new_relay(newcomer); });
  EXPECT_TRUE(loads_match());
  // A further batch draws from the RNG: equal picks prove equal RNG state.
  const std::vector<double> probe(8, net::mbit(1));
  expect_same_outcome([&] { return want.schedule_old_relays(probe); },
                      [&] { return got.schedule_old_relays(probe); });
  EXPECT_TRUE(loads_match());
}

TEST(PeriodScheduleDifferential, RandomPopulationsMatchTheScan) {
  sim::Rng rng(1504);
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE(trial);
    // Periods of 1 to 300 slots (powers of two and not), filled from
    // lightly to past capacity so near-full and full slots are common
    // and some trials run out of room.
    const int slots = static_cast<int>(rng.uniform_int(1, 300));
    const Params p = short_period(slots);
    const double team = rng.uniform(net::gbit(0.5), net::gbit(5));
    const double max_cap = team / p.excess_factor();
    // One to three batches that together ask for 10% to 120% of the
    // period's capacity.
    const auto batch_count = static_cast<std::size_t>(rng.uniform_int(1, 3));
    const double batch_caps = rng.uniform(0.1, 1.2) * slots * max_cap /
                              static_cast<double>(batch_count);
    std::vector<std::vector<double>> batches(batch_count);
    for (auto& batch : batches)
      for (double sum = 0.0; sum < batch_caps; sum += batch.back())
        batch.push_back(trial % 2 == 0
                            ? draw_tied_capacity(rng, max_cap)
                            : rng.uniform(net::kbit(100), max_cap));
    expect_schedule_matches_reference(p, team, rng.uniform_int(0, 1 << 30),
                                      batches);
  }
}

TEST(PeriodScheduleDifferential, FullDayAtTorScale) {
  // The default 2,880-slot day with a §7-like heavy-tailed population.
  Params p;
  sim::Rng rng(1505);
  std::vector<double> caps;
  for (int i = 0; i < 3000; ++i)
    caps.push_back(std::min(rng.log_normal(17.42, 1.45), 998e6));
  expect_schedule_matches_reference(p, net::gbit(3), 77, {caps, caps});
}

TEST(PeriodScheduleDifferential, NeedsAtTheToleranceEdges) {
  const Params p = short_period(5);
  const double f = p.excess_factor();
  const double team = 3e9;
  for (const double delta : {-2e-6, -1e-6, -5e-7, 0.0, 5e-7, 1e-6, 2e-6}) {
    SCOPED_TRACE(delta);
    std::vector<double> caps(5, team * 0.6 / f);
    for (int i = 0; i < 6; ++i) caps.push_back((team * 0.4 + delta) / f);
    expect_schedule_matches_reference(p, team, 9, {caps});
  }
}

TEST(PeriodScheduleDifferential, EmptyInputAndEmptyPeriod) {
  expect_schedule_matches_reference(Params{}, net::gbit(3), 3, {{}});
  // A period shorter than one slot holds no slot: both throw.
  Params tiny;
  tiny.period = tiny.slot_seconds * sim::kSecond / 2;
  expect_schedule_matches_reference(tiny, net::gbit(3), 3,
                                    {{net::mbit(10)}});
}

// ---------------------------------------------------------------------------
// Input guard: both layouts need a total order of finite, positive needs.

const std::vector<double> kBadEstimates = {
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(), 0.0, -1.0};

TEST(GreedyPack, RejectsNonFiniteOrNonPositiveEstimates) {
  Params p;
  for (const double bad : kBadEstimates) {
    SCOPED_TRACE(bad);
    const std::vector<double> caps = {net::mbit(10), bad, net::mbit(20)};
    EXPECT_THROW(greedy_pack(caps, net::gbit(3), p), std::invalid_argument);
  }
  const std::vector<double> caps = {net::mbit(10)};
  EXPECT_THROW(greedy_pack(caps, std::numeric_limits<double>::quiet_NaN(), p),
               std::invalid_argument);
}

TEST(PeriodSchedule, RejectsNonFiniteOrNonPositiveEstimates) {
  Params p;
  for (const double bad : kBadEstimates) {
    SCOPED_TRACE(bad);
    PeriodSchedule sched(p, net::gbit(3), 1);
    const std::vector<double> caps = {net::mbit(10), bad};
    EXPECT_THROW(sched.schedule_old_relays(caps), std::invalid_argument);
    // Rejected before any placement: no slot carries load.
    for (int s = 0; s < sched.slots_in_period(); ++s)
      ASSERT_EQ(sched.slot_load_bits(s), 0.0);
  }
}

TEST(SlotsPerPeriod, DayOfThirtySecondSlots) {
  EXPECT_EQ(slots_per_period(Params{}), 2880);
  EXPECT_EQ(slots_per_period(short_period(37)), 37);
}

}  // namespace
}  // namespace flashflow::core
