#include "telemetry/trace.h"

namespace flashflow::telemetry {

void TraceJsonlSink::begin(const campaign::RunPlan& plan) {
  (void)plan;
  ++period_;
}

void TraceJsonlSink::slot_done(const campaign::SlotResult& slot) {
  const SlotTrace trace = slot.trace.value_or(SlotTrace{});
  for (std::size_t i = 0; i < slot.estimates.size(); ++i) {
    const campaign::RelayEstimate& est = slot.estimates[i];
    // Field order is the format contract: everything before "lane" is
    // deterministic (tests cut each line at `,"lane":`).
    row_.lit("{\"period\":").num(period_)
        .lit(",\"slot\":").num(slot.slot)
        .lit(",\"relay\":").num(slot.relay_indices[i])
        .lit(",\"segments\":").num(trace.segments)
        .lit(",\"attempt\":").num(est.attempt)
        .lit(",\"failed\":").lit(est.slot_failed ? "true" : "false")
        .lit(",\"quarantined\":").lit(est.quarantined ? "true" : "false")
        .lit(",\"quality\":").num(est.quality)
        .lit(",\"lane\":").num(trace.lane)
        .lit(",\"shard\":").num(trace.shard)
        .lit(",\"dispatch_us\":").num(trace.timing.dispatch_micros)
        .lit(",\"fill_paths_us\":").num(trace.timing.fill_paths_micros)
        .lit(",\"prepare_us\":").num(trace.timing.prepare_micros)
        .lit(",\"solve_us\":").num(trace.timing.solve_micros)
        .lit("}\n");
  }
  row_.flush(out_);
}

}  // namespace flashflow::telemetry
