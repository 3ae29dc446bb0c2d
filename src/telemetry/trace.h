// Per-slot JSONL trace sink.
//
// TraceJsonlSink rides the campaign's SlotSink path: deliveries arrive
// serialized and in increasing slot order through the SlotReorderBuffer,
// so the emitted line *order* is identical for every thread count and
// shard size, and within each line the deterministic fields — everything
// up to (but excluding) "lane" — are byte-identical too. The trailing
// fields (lane, dispatch shard, per-stage micros) describe how this
// particular execution scheduled the slot and vary run to run; trace
// byte-identity checks cut each line at `,"lane":` (the field order is
// part of the format contract, pinned by tests/test_telemetry.cpp).
//
// One line per relay estimate:
//   {"period":P,"slot":S,"relay":R,"segments":G,"attempt":A,"failed":F,
//    "quarantined":Q,"quality":X,"lane":L,"shard":H,"dispatch_us":...,
//    "fill_paths_us":...,"prepare_us":...,"solve_us":...}
//
// The sink requires tracing to be enabled on the run's Recorder
// (CampaignConfig::telemetry); deliveries without a SlotTrace attached
// are reported with the trace fields zeroed, so attaching the sink to an
// untraced run is visible rather than silently empty.
#pragma once

#include <iosfwd>

#include "campaign/campaign.h"
#include "campaign/sink.h"

namespace flashflow::telemetry {

class TraceJsonlSink : public campaign::SlotSink {
 public:
  explicit TraceJsonlSink(std::ostream& out) : out_(out) {}
  void begin(const campaign::RunPlan& plan) override;
  void slot_done(const campaign::SlotResult& slot) override;

 private:
  std::ostream& out_;
  campaign::RowBuffer row_;
  int period_ = -1;
};

}  // namespace flashflow::telemetry
