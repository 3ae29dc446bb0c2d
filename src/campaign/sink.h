// Standard SlotSinks for the streaming campaign API.
//
// Because CampaignRunner delivers slots serialized and in increasing slot
// order, every sink here produces byte-identical output regardless of the
// worker thread count:
//
//   - AggregatingSink rebuilds the batch CampaignResult in memory (the
//     batch run() overload is implemented on top of it),
//   - CsvSink / JsonlSink stream one row/object per relay estimate to an
//     ostream as the slots finish (each slot's rows are formatted into a
//     reused RowBuffer and written with one ostream::write),
//   - FanoutSink hands one stream to several sinks (files, an aggregate,
//     a cancellation hook); any of them can cancel the run.
//
// SlotReorderBuffer is the delivery mechanism behind that ordering
// guarantee: workers park completed slots in arbitrary order, one worker
// at a time flushes the contiguous prefix in slot order (outside the
// buffer lock), and a bounded window keeps a straggling early slot from
// piling the whole period up in memory.
#pragma once

#include <atomic>
#include <charconv>
#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/campaign.h"

namespace flashflow::campaign {

/// Re-orders out-of-order slot completions into in-order deliveries, with
/// bounded buffering.
///
/// Workers complete indices in arbitrary order, but sinks must observe
/// increasing order. Completed results park here; a worker that parks the
/// next undelivered index while no other worker is flushing becomes the
/// flusher. It moves the contiguous ready prefix out of the ring under the
/// buffer lock, runs the deliver callback on that batch with the lock
/// released, and repeats until no ready prefix is left. Only one worker
/// flushes at a time (a flag set and cleared under the lock), so sinks
/// never see concurrent calls and deliveries stay in index order; parkers
/// hold the lock only for the wait and the hand-off, never for a sink.
///
/// At most `window` undelivered results are held, the in-flight batch
/// included: the window advances only when a batch has been delivered,
/// so a worker that finishes an index too far ahead blocks until then and
/// memory stays O(window · result size) instead of O(period · result
/// size) — which matters when record_outcomes attaches four per-second
/// series to every slot of a 6,419-relay period.
///
/// Deadlock freedom: this relies on each producer lane handing over its
/// indices in strictly increasing order (ThreadPool::parallel_for
/// guarantees it). The flusher never waits on another lane, every batch
/// it delivers advances the window and wakes the waiters, and when no
/// batch is in flight the lane owning the next undelivered index is
/// never blocked — that index is always inside the window.
class SlotReorderBuffer {
 public:
  /// Called in increasing index order, exactly once per delivered index.
  /// Return false to cancel: the buffer aborts, parked results are
  /// dropped, and blocked workers unblock.
  using Deliver = std::function<bool(SlotResult&&)>;

  /// Indices in [0, count) may be parked, each exactly once; at most
  /// `window` (clamped to >= 1) undelivered results are held at a time.
  SlotReorderBuffer(std::size_t count, std::size_t window, Deliver deliver);

  /// Parks the result for `index`, blocking while the index is beyond the
  /// bounded window, then flushes the ready prefix unless another worker
  /// is already flushing (that worker delivers it). If the deliver
  /// callback throws, the buffer aborts, the rest of the batch is dropped
  /// and the exception propagates out of the flushing park() call.
  /// Returns false if the buffer was already aborted (the result is
  /// dropped).
  bool park(std::size_t index, SlotResult&& result);

  /// Drops undelivered results (an in-flight batch stops before its next
  /// delivery) and unblocks parked workers; subsequent park() calls
  /// return false immediately.
  void abort();

  /// Results delivered so far (== count after an uncancelled run). A
  /// batch in flight is counted when it finishes.
  std::size_t delivered() const;

  /// True once cancelled by abort(), a deliver exception, or a deliver
  /// callback returning false.
  bool aborted() const;

 private:
  /// Flusher loop: takes the ready prefix under the lock, delivers it
  /// with the lock released, until the prefix is empty or the buffer
  /// aborts. Called with `lock` held and flushing_ set; returns with
  /// `lock` held and flushing_ cleared.
  void flush(std::unique_lock<std::mutex>& lock);

  const std::size_t count_;
  const std::size_t window_;
  Deliver deliver_;
  mutable std::mutex mutex_;
  std::condition_variable window_open_;
  /// Ring of the window's parked results, indexed by index % window_.
  std::vector<std::optional<SlotResult>> ring_;
  /// The flusher's batch, reused across batches; touched only while
  /// flushing_ is held.
  std::vector<SlotResult> batch_;
  std::size_t next_ = 0;       // next index to move out of the ring
  std::size_t delivered_ = 0;  // == the window's base: deliveries are in order
  bool flushing_ = false;
  /// Atomic so the flusher can stop mid-batch without taking the lock.
  std::atomic<bool> aborted_{false};
};

/// Byte-buffer row formatting shared by the streaming sinks (CsvSink,
/// JsonlSink, FaultLedgerSink, telemetry::TraceJsonlSink). A sink appends
/// one slot's rows to its reused buffer and hands them to the ostream
/// with one write, so the per-estimate path neither allocates (once the
/// buffer has grown to a slot's size) nor runs ostream insertion.
/// Integers print as `ostream << v` prints them in the default locale and
/// doubles in std::to_chars' shortest round-trip form, so a row is the
/// same bytes as ostream insertion of the same fields
/// (tests/test_campaign_sinks.cpp holds the sinks to ostream oracles).
class RowBuffer {
 public:
  RowBuffer& lit(std::string_view bytes) {
    bytes_.append(bytes);
    return *this;
  }
  RowBuffer& lit(char c) {
    bytes_.push_back(c);
    return *this;
  }
  template <std::integral T>
  RowBuffer& num(T v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    bytes_.append(buf, res.ptr);
    return *this;
  }
  /// Shortest round-trip form: parses back exactly.
  RowBuffer& num(double v);

  /// Writes the buffered bytes to `out` in one write and empties the
  /// buffer, keeping its capacity.
  void flush(std::ostream& out);

 private:
  std::string bytes_;
};

/// Rebuilds the in-memory CampaignResult from the stream: per-relay
/// estimates aligned with the input population plus the aggregate summary.
class AggregatingSink : public SlotSink {
 public:
  void begin(const RunPlan& plan) override;
  void slot_done(const SlotResult& slot) override;

  /// Finalizes the summary from the collected estimates and the run's
  /// deterministic counters. Call after run() returns.
  CampaignResult result(const RunStats& stats) &&;

 private:
  CampaignResult result_;
};

/// One CSV row per relay estimate:
///   period,relay,slot,estimate_bits,ground_truth_bits,relative_error,
///   verification_failed[,quality,attempt,slot_failed,quarantined]
/// The bracketed fault columns appear only when the run has fault
/// injection armed (RunPlan::faults_enabled): fault-free byte streams are
/// identical to pre-fault builds, which the golden hashes pin.
/// Doubles are printed round-trip (max_digits10) so files diff cleanly
/// across runs. The header is written once even if the sink is reused
/// across periods (scenario::Experiment streams every period into one
/// sink; `period` counts begin() calls).
class CsvSink : public SlotSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}
  void begin(const RunPlan& plan) override;
  void slot_done(const SlotResult& slot) override;

 private:
  std::ostream& out_;
  RowBuffer row_;
  bool header_written_ = false;
  bool faults_ = false;
  int period_ = -1;
};

/// One JSON object per relay estimate, one per line (JSONL), same fields
/// as CsvSink plus the period index when reused across periods. As with
/// CsvSink, the fault fields appear only when the run has faults armed.
class JsonlSink : public SlotSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}
  void begin(const RunPlan& plan) override;
  void slot_done(const SlotResult& slot) override;

 private:
  std::ostream& out_;
  RowBuffer row_;
  bool faults_ = false;
  int period_ = -1;
};

/// The fault ledger: one CSV row per relay estimate that a fault actually
/// touched — retried, failed, quarantined, or measured from degraded
/// evidence (quality < 1). Healthy estimates write nothing, so the file
/// stays small and scannable:
///   period,relay,slot,attempt,failed,quarantined,quality
class FaultLedgerSink : public SlotSink {
 public:
  explicit FaultLedgerSink(std::ostream& out) : out_(out) {}
  void begin(const RunPlan& plan) override;
  void slot_done(const SlotResult& slot) override;

 private:
  std::ostream& out_;
  RowBuffer row_;
  bool header_written_ = false;
  int period_ = -1;
};

/// Forwards every call to each attached sink, in attach order. The run
/// continues while every sink's on_progress returns true; each sink still
/// observes every progress call, so none misses the one that cancels.
class FanoutSink : public SlotSink {
 public:
  void attach(SlotSink* sink) { sinks_.push_back(sink); }

  void begin(const RunPlan& plan) override {
    for (SlotSink* sink : sinks_) sink->begin(plan);
  }
  void slot_done(const SlotResult& slot) override {
    for (SlotSink* sink : sinks_) sink->slot_done(slot);
  }
  bool on_progress(int slots_done, int slots_total) override {
    bool keep = true;
    for (SlotSink* sink : sinks_)
      keep = sink->on_progress(slots_done, slots_total) && keep;
    return keep;
  }

 private:
  std::vector<SlotSink*> sinks_;
};

}  // namespace flashflow::campaign
