#include "campaign/sink.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <string>

#include "metrics/stats.h"

namespace flashflow::campaign {

RowBuffer& RowBuffer::num(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  bytes_.append(buf, res.ptr);
  return *this;
}

void RowBuffer::flush(std::ostream& out) {
  if (bytes_.empty()) return;
  out.write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  bytes_.clear();
}

SlotReorderBuffer::SlotReorderBuffer(std::size_t count, std::size_t window,
                                     Deliver deliver)
    : count_(count),
      window_(std::max<std::size_t>(window, 1)),
      deliver_(std::move(deliver)),
      ring_(std::min(window_, count_ > 0 ? count_ : std::size_t{1})) {
  // A batch never outgrows the ring it is taken from, so the flusher
  // never allocates while it holds the lock.
  batch_.reserve(ring_.size());
}

bool SlotReorderBuffer::park(std::size_t index, SlotResult&& result) {
  std::unique_lock<std::mutex> lock(mutex_);
  window_open_.wait(lock,
                    [&] { return aborted_ || index < delivered_ + window_; });
  if (aborted_) return false;
  ring_[index % ring_.size()] = std::move(result);
  // Any other entry is flushed by the parker of next_; while a flush is in
  // flight, its flusher picks this entry up when its batch is done.
  if (index != next_ || flushing_) return true;
  flushing_ = true;
  flush(lock);
  return true;
}

void SlotReorderBuffer::flush(std::unique_lock<std::mutex>& lock) {
  while (!aborted_) {
    // Consume the ready prefix under the lock: once taken, an entry is
    // never seen again by a parker, so a throwing deliver cannot lead to
    // a second delivery of it.
    while (next_ < count_) {
      std::optional<SlotResult>& slot = ring_[next_ % ring_.size()];
      if (!slot.has_value()) break;
      batch_.push_back(std::move(*slot));
      slot.reset();
      ++next_;
    }
    if (batch_.empty()) break;

    lock.unlock();
    std::size_t done = 0;
    bool keep_going = true;
    try {
      for (SlotResult& ready : batch_) {
        if (aborted_) break;  // abort() from another lane mid-batch
        keep_going = deliver_(std::move(ready));
        ++done;
        if (!keep_going) break;
      }
    } catch (...) {
      batch_.clear();
      lock.lock();
      delivered_ += done;
      aborted_ = true;
      flushing_ = false;
      window_open_.notify_all();
      throw;
    }
    // Release the delivered (and any dropped) results before the window
    // advances, so held results never exceed the window.
    batch_.clear();
    lock.lock();
    delivered_ += done;
    if (!keep_going) aborted_ = true;
    window_open_.notify_all();
  }
  flushing_ = false;
}

void SlotReorderBuffer::abort() {
  std::lock_guard<std::mutex> lock(mutex_);
  aborted_ = true;
  window_open_.notify_all();
}

std::size_t SlotReorderBuffer::delivered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return delivered_;
}

bool SlotReorderBuffer::aborted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return aborted_;
}

void AggregatingSink::begin(const RunPlan& plan) {
  result_ = CampaignResult{};
  result_.relays.assign(static_cast<std::size_t>(plan.relays),
                        RelayEstimate{});
  result_.summary.slots_in_period = plan.slots_in_period;
}

void AggregatingSink::slot_done(const SlotResult& slot) {
  for (std::size_t i = 0; i < slot.relay_indices.size(); ++i)
    result_.relays[slot.relay_indices[i]] = slot.estimates[i];
}

CampaignResult AggregatingSink::result(const RunStats& stats) && {
  CampaignSummary& summary = result_.summary;
  summary.slots_executed = stats.slots_executed;
  summary.simulated_seconds = stats.simulated_seconds;
  summary.relays_measured = 0;
  std::vector<double> abs_errors;
  abs_errors.reserve(result_.relays.size());
  for (const RelayEstimate& est : result_.relays) {
    // Relays whose slot never ran (the run was cancelled) keep the
    // default slot == -1; they are not measured and must not dilute the
    // error statistics with their zero-initialized entries.
    if (est.slot < 0) continue;
    ++summary.relays_measured;
    if (est.attempt > 0) ++summary.relays_retried;
    if (est.quarantined) ++summary.relays_quarantined;
    if (est.slot_failed) {
      // No usable estimate: keep the zeros out of the error aggregates.
      ++summary.relays_failed;
      continue;
    }
    if (est.verification_failed) {
      ++summary.verification_failures;
      continue;
    }
    if (est.quality < 1.0) ++summary.relays_degraded;
    summary.total_true_bits += est.ground_truth_bits;
    summary.total_estimated_bits += est.estimate_bits;
    abs_errors.push_back(std::fabs(est.relative_error));
  }
  if (!abs_errors.empty()) {
    summary.mean_abs_relative_error =
        metrics::mean(metrics::as_span(abs_errors));
    summary.median_abs_relative_error =
        metrics::median(metrics::as_span(abs_errors));
    summary.max_abs_relative_error =
        *std::max_element(abs_errors.begin(), abs_errors.end());
  }
  return std::move(result_);
}

void CsvSink::begin(const RunPlan& plan) {
  ++period_;
  faults_ = plan.faults_enabled;
  if (!header_written_) {
    row_.lit("period,relay,slot,estimate_bits,ground_truth_bits,"
             "relative_error,verification_failed");
    if (faults_) row_.lit(",quality,attempt,slot_failed,quarantined");
    row_.lit('\n').flush(out_);
    header_written_ = true;
  }
}

void CsvSink::slot_done(const SlotResult& slot) {
  for (std::size_t i = 0; i < slot.relay_indices.size(); ++i) {
    const RelayEstimate& est = slot.estimates[i];
    row_.num(period_).lit(',').num(slot.relay_indices[i]).lit(',')
        .num(est.slot).lit(',').num(est.estimate_bits).lit(',')
        .num(est.ground_truth_bits).lit(',').num(est.relative_error)
        .lit(',').lit(est.verification_failed ? '1' : '0');
    if (faults_)
      row_.lit(',').num(est.quality).lit(',').num(est.attempt).lit(',')
          .lit(est.slot_failed ? '1' : '0').lit(',')
          .lit(est.quarantined ? '1' : '0');
    row_.lit('\n');
  }
  row_.flush(out_);
}

void JsonlSink::begin(const RunPlan& plan) {
  ++period_;
  faults_ = plan.faults_enabled;
}

void JsonlSink::slot_done(const SlotResult& slot) {
  for (std::size_t i = 0; i < slot.relay_indices.size(); ++i) {
    const RelayEstimate& est = slot.estimates[i];
    row_.lit("{\"period\":").num(period_)
        .lit(",\"relay\":").num(slot.relay_indices[i])
        .lit(",\"slot\":").num(est.slot)
        .lit(",\"estimate_bits\":").num(est.estimate_bits)
        .lit(",\"ground_truth_bits\":").num(est.ground_truth_bits)
        .lit(",\"relative_error\":").num(est.relative_error)
        .lit(",\"verification_failed\":")
        .lit(est.verification_failed ? "true" : "false");
    if (faults_)
      row_.lit(",\"quality\":").num(est.quality)
          .lit(",\"attempt\":").num(est.attempt)
          .lit(",\"slot_failed\":").lit(est.slot_failed ? "true" : "false")
          .lit(",\"quarantined\":").lit(est.quarantined ? "true" : "false");
    row_.lit("}\n");
  }
  row_.flush(out_);
}

void FaultLedgerSink::begin(const RunPlan&) {
  ++period_;
  if (!header_written_) {
    row_.lit("period,relay,slot,attempt,failed,quarantined,quality\n")
        .flush(out_);
    header_written_ = true;
  }
}

void FaultLedgerSink::slot_done(const SlotResult& slot) {
  for (std::size_t i = 0; i < slot.relay_indices.size(); ++i) {
    const RelayEstimate& est = slot.estimates[i];
    if (est.attempt == 0 && !est.slot_failed && !est.quarantined &&
        est.quality >= 1.0)
      continue;
    row_.num(period_).lit(',').num(slot.relay_indices[i]).lit(',')
        .num(est.slot).lit(',').num(est.attempt).lit(',')
        .lit(est.slot_failed ? '1' : '0').lit(',')
        .lit(est.quarantined ? '1' : '0').lit(',').num(est.quality)
        .lit('\n');
  }
  row_.flush(out_);
}

}  // namespace flashflow::campaign
