// FlowNet: a continuous fluid-flow network simulation.
//
// Flows traverse capacitated resources (NIC directions, relay CPUs, ...).
// Rates follow the weighted max-min fair allocation and stay constant
// between flow-set changes, so byte accrual is piecewise linear and exact.
// Finite-volume flows fire a completion callback at the precise time their
// volume drains; rates are recomputed whenever the flow set or a capacity
// changes.
//
// It runs the event-driven throughput experiments: the iPerf meshes
// (Tables 1/3, and the §4.2 measurer mesh of core::Team) and the
// Shadow-style load-balancing simulations (Fig 9). FlashFlow measurement
// slots do not run on it: core::SlotRunner steps each second itself and
// calls net::FairShareSolver (net/fairshare.h) directly.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "metrics/timeseries.h"
#include "net/fairshare.h"
#include "sim/simulator.h"

namespace flashflow::net {

using ResourceId = std::size_t;
using FlowId = std::uint64_t;

class FlowNet {
 public:
  explicit FlowNet(sim::Simulator& simulator);

  // --- resources ---
  /// Adds a capacitated resource; capacity in bits/s (<= 0: unconstrained).
  ResourceId add_resource(std::string name, double capacity_bits);
  /// Changes a resource's capacity; takes effect immediately.
  void set_capacity(ResourceId id, double capacity_bits);
  double capacity(ResourceId id) const;
  const std::string& resource_name(ResourceId id) const;
  /// Currently allocated rate through a resource (bits/s).
  double resource_usage(ResourceId id);

  // --- flows ---
  struct FlowSpec {
    std::vector<ResourceId> resources;
    double weight = 1.0;  // relative fair-share weight (e.g. socket count)
    double cap_bits = std::numeric_limits<double>::infinity();
    /// Bytes to transfer; negative means unbounded (runs until removed).
    double volume_bytes = -1.0;
    /// Invoked (once) when a finite volume completes. The callback runs
    /// after rates have been recomputed and may add/remove flows.
    std::function<void(FlowId)> on_complete;
    /// Record a per-second byte series for this flow (measurement reports).
    bool record_per_second = false;
  };

  FlowId add_flow(FlowSpec spec);
  /// Removes a live flow. Statistics remain queryable afterwards.
  void remove_flow(FlowId id);
  bool is_live(FlowId id) const;

  /// Current fair-share rate (bits/s); 0 for finished/removed flows.
  double rate(FlowId id);
  /// Total bytes transferred so far (live or retired flows).
  double bytes_transferred(FlowId id);
  /// Remaining volume for finite flows; infinity for unbounded ones.
  double remaining_bytes(FlowId id);
  /// Per-second byte series (requires record_per_second at creation).
  const metrics::PerSecondSeries& series(FlowId id);

  /// Brings accrual up to the simulator's current time. Called implicitly
  /// by every mutation and query; exposed for tests.
  void sync();

  std::size_t live_flow_count() const { return flows_.size(); }

 private:
  struct FlowState {
    FlowSpec spec;
    double rate_bits = 0.0;
    double transferred_bytes = 0.0;
    double remaining_bytes = std::numeric_limits<double>::infinity();
    metrics::PerSecondSeries series;
  };

  void advance_to(sim::SimTime t);
  void recompute_rates();
  void schedule_completion_tick();
  /// Accrues `rate` bits/s into a series between two times, splitting
  /// across one-second bins.
  static void accrue_series(metrics::PerSecondSeries& series,
                            sim::SimTime from, sim::SimTime to,
                            double rate_bits);

  sim::Simulator& sim_;
  std::vector<FairShareResource> resources_;
  std::vector<std::string> resource_names_;
  std::map<FlowId, FlowState> flows_;     // ordered: deterministic iteration
  std::map<FlowId, FlowState> retired_;   // finished/removed flows
  FlowId next_flow_id_ = 1;
  sim::SimTime last_time_ = 0;
  std::optional<sim::EventId> completion_event_;
  bool advancing_ = false;
};

}  // namespace flashflow::net
