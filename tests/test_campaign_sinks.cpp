// Differential tests for the byte-buffer result sinks.
//
// CsvSink, JsonlSink, FaultLedgerSink and telemetry::TraceJsonlSink format
// each slot's rows into a campaign::RowBuffer and write them with one
// ostream::write. The ostream-insertion sinks they replaced are kept below
// as oracles (as tests/test_net_fairshare.cpp keeps reference_fill for the
// solver), and every stream must match its oracle byte for byte on
// adversarial inputs: signed zeros, infinities, NaN, subnormals, 1e22,
// relay indices near SIZE_MAX, faults on and off, sinks reused across
// periods, and empty slots.
#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sink.h"
#include "sim/random.h"
#include "telemetry/trace.h"

namespace flashflow::campaign {
namespace {

std::string fmt(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

class OracleCsvSink : public SlotSink {
 public:
  explicit OracleCsvSink(std::ostream& out) : out_(out) {}
  void begin(const RunPlan& plan) override {
    ++period_;
    faults_ = plan.faults_enabled;
    if (!header_written_) {
      out_ << "period,relay,slot,estimate_bits,ground_truth_bits,"
              "relative_error,verification_failed";
      if (faults_) out_ << ",quality,attempt,slot_failed,quarantined";
      out_ << '\n';
      header_written_ = true;
    }
  }
  void slot_done(const SlotResult& slot) override {
    for (std::size_t i = 0; i < slot.relay_indices.size(); ++i) {
      const RelayEstimate& est = slot.estimates[i];
      out_ << period_ << ',' << slot.relay_indices[i] << ',' << est.slot
           << ',' << fmt(est.estimate_bits) << ','
           << fmt(est.ground_truth_bits) << ',' << fmt(est.relative_error)
           << ',' << (est.verification_failed ? 1 : 0);
      if (faults_)
        out_ << ',' << fmt(est.quality) << ',' << est.attempt << ','
             << (est.slot_failed ? 1 : 0) << ',' << (est.quarantined ? 1 : 0);
      out_ << '\n';
    }
  }

 private:
  std::ostream& out_;
  bool header_written_ = false;
  bool faults_ = false;
  int period_ = -1;
};

class OracleJsonlSink : public SlotSink {
 public:
  explicit OracleJsonlSink(std::ostream& out) : out_(out) {}
  void begin(const RunPlan& plan) override {
    ++period_;
    faults_ = plan.faults_enabled;
  }
  void slot_done(const SlotResult& slot) override {
    for (std::size_t i = 0; i < slot.relay_indices.size(); ++i) {
      const RelayEstimate& est = slot.estimates[i];
      out_ << "{\"period\":" << period_
           << ",\"relay\":" << slot.relay_indices[i]
           << ",\"slot\":" << est.slot
           << ",\"estimate_bits\":" << fmt(est.estimate_bits)
           << ",\"ground_truth_bits\":" << fmt(est.ground_truth_bits)
           << ",\"relative_error\":" << fmt(est.relative_error)
           << ",\"verification_failed\":"
           << (est.verification_failed ? "true" : "false");
      if (faults_)
        out_ << ",\"quality\":" << fmt(est.quality)
             << ",\"attempt\":" << est.attempt << ",\"slot_failed\":"
             << (est.slot_failed ? "true" : "false") << ",\"quarantined\":"
             << (est.quarantined ? "true" : "false");
      out_ << "}\n";
    }
  }

 private:
  std::ostream& out_;
  bool faults_ = false;
  int period_ = -1;
};

class OracleFaultLedgerSink : public SlotSink {
 public:
  explicit OracleFaultLedgerSink(std::ostream& out) : out_(out) {}
  void begin(const RunPlan&) override {
    ++period_;
    if (!header_written_) {
      out_ << "period,relay,slot,attempt,failed,quarantined,quality\n";
      header_written_ = true;
    }
  }
  void slot_done(const SlotResult& slot) override {
    for (std::size_t i = 0; i < slot.relay_indices.size(); ++i) {
      const RelayEstimate& est = slot.estimates[i];
      if (est.attempt == 0 && !est.slot_failed && !est.quarantined &&
          est.quality >= 1.0)
        continue;
      out_ << period_ << ',' << slot.relay_indices[i] << ',' << est.slot
           << ',' << est.attempt << ',' << (est.slot_failed ? 1 : 0) << ','
           << (est.quarantined ? 1 : 0) << ',' << fmt(est.quality) << '\n';
    }
  }

 private:
  std::ostream& out_;
  bool header_written_ = false;
  int period_ = -1;
};

class OracleTraceJsonlSink : public SlotSink {
 public:
  explicit OracleTraceJsonlSink(std::ostream& out) : out_(out) {}
  void begin(const RunPlan&) override { ++period_; }
  void slot_done(const SlotResult& slot) override {
    const telemetry::SlotTrace trace =
        slot.trace.value_or(telemetry::SlotTrace{});
    for (std::size_t i = 0; i < slot.estimates.size(); ++i) {
      const RelayEstimate& est = slot.estimates[i];
      out_ << "{\"period\":" << period_ << ",\"slot\":" << slot.slot
           << ",\"relay\":" << slot.relay_indices[i]
           << ",\"segments\":" << trace.segments
           << ",\"attempt\":" << est.attempt
           << ",\"failed\":" << (est.slot_failed ? "true" : "false")
           << ",\"quarantined\":" << (est.quarantined ? "true" : "false")
           << ",\"quality\":" << fmt(est.quality)
           << ",\"lane\":" << trace.lane << ",\"shard\":" << trace.shard
           << ",\"dispatch_us\":" << trace.timing.dispatch_micros
           << ",\"fill_paths_us\":" << trace.timing.fill_paths_micros
           << ",\"prepare_us\":" << trace.timing.prepare_micros
           << ",\"solve_us\":" << trace.timing.solve_micros << "}\n";
    }
  }

 private:
  std::ostream& out_;
  int period_ = -1;
};

/// Doubles that stress the shortest round-trip formatter.
double nasty_double(sim::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (rng.uniform_int(0, 11)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return kInf;
    case 3: return -kInf;
    case 4: return std::numeric_limits<double>::quiet_NaN();
    case 5: return -std::numeric_limits<double>::quiet_NaN();
    case 6: return std::numeric_limits<double>::denorm_min() *
                   static_cast<double>(rng.uniform_int(1, 1 << 20));
    case 7: return 1e22;
    case 8: return -std::numeric_limits<double>::max();
    case 9: return rng.uniform(-1.0, 1.0);
    default: return rng.uniform(0.0, 2e9);
  }
}

RelayEstimate random_estimate(sim::Rng& rng) {
  RelayEstimate est;
  est.slot = static_cast<int>(rng.uniform_int(-1, 1 << 30));
  est.estimate_bits = nasty_double(rng);
  est.ground_truth_bits = nasty_double(rng);
  est.relative_error = nasty_double(rng);
  est.verification_failed = rng.chance(0.2);
  // Most estimates healthy, so the ledger skips rows as well as writes them.
  est.quality = rng.chance(0.6) ? 1.0 : nasty_double(rng);
  est.attempt = rng.chance(0.7) ? 0 : static_cast<int>(rng.uniform_int(1, 9));
  est.slot_failed = rng.chance(0.1);
  est.quarantined = rng.chance(0.05);
  return est;
}

SlotResult random_slot(sim::Rng& rng, int slot) {
  SlotResult result;
  result.slot = slot;
  const auto n = static_cast<std::size_t>(rng.uniform_int(0, 12));  // 0: empty
  for (std::size_t i = 0; i < n; ++i) {
    result.relay_indices.push_back(
        rng.chance(0.2)
            ? std::numeric_limits<std::size_t>::max() - i
            : static_cast<std::size_t>(rng.uniform_int(0, 1'000'000)));
    result.estimates.push_back(random_estimate(rng));
  }
  if (rng.chance(0.7)) {
    telemetry::SlotTrace trace;
    trace.lane = static_cast<int>(rng.uniform_int(0, 63));
    trace.shard = static_cast<int>(rng.uniform_int(0, 1 << 20));
    trace.segments = static_cast<int>(rng.uniform_int(1, 5));
    trace.timing.dispatch_micros = rng();
    trace.timing.fill_paths_micros = rng() >> 40;
    trace.timing.prepare_micros = 0;
    trace.timing.solve_micros = std::numeric_limits<std::uint64_t>::max();
    result.trace = trace;
  }
  return result;
}

/// Drives a buffer-backed sink and its oracle through the same periods
/// and compares the streams after every period.
void expect_same_stream(SlotSink& sink, std::ostringstream& out,
                        SlotSink& oracle, std::ostringstream& oracle_out,
                        std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int period = 0; period < 4; ++period) {
    RunPlan plan;
    plan.relays = 1'000'000;
    // Faults toggle across periods: the CSV header follows period 0 only.
    plan.faults_enabled = (period % 3) != 1;
    sink.begin(plan);
    oracle.begin(plan);
    const int slots = static_cast<int>(rng.uniform_int(0, 40));
    for (int s = 0; s < slots; ++s) {
      const SlotResult slot = random_slot(rng, s);
      sink.slot_done(slot);
      oracle.slot_done(slot);
    }
    ASSERT_EQ(out.str(), oracle_out.str())
        << "seed " << seed << " period " << period;
  }
}

template <class Sink, class Oracle>
void check_against_oracle() {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::ostringstream out, oracle_out;
    Sink sink(out);
    Oracle oracle(oracle_out);
    expect_same_stream(sink, out, oracle, oracle_out, seed);
  }
}

TEST(SinkSerialization, CsvMatchesOstreamOracle) {
  check_against_oracle<CsvSink, OracleCsvSink>();
}

TEST(SinkSerialization, JsonlMatchesOstreamOracle) {
  check_against_oracle<JsonlSink, OracleJsonlSink>();
}

TEST(SinkSerialization, FaultLedgerMatchesOstreamOracle) {
  check_against_oracle<FaultLedgerSink, OracleFaultLedgerSink>();
}

TEST(SinkSerialization, TraceJsonlMatchesOstreamOracle) {
  check_against_oracle<telemetry::TraceJsonlSink, OracleTraceJsonlSink>();
}

TEST(SinkSerialization, FaultsOffFirstPeriodWritesTheShortHeader) {
  std::ostringstream out, oracle_out;
  CsvSink sink(out);
  OracleCsvSink oracle(oracle_out);
  RunPlan plan;
  plan.faults_enabled = false;
  sink.begin(plan);
  oracle.begin(plan);
  plan.faults_enabled = true;
  sink.begin(plan);
  oracle.begin(plan);
  sim::Rng rng(7);
  const SlotResult slot = random_slot(rng, 3);
  sink.slot_done(slot);
  oracle.slot_done(slot);
  EXPECT_EQ(out.str(), oracle_out.str());
  EXPECT_EQ(out.str().rfind("period,relay,slot,estimate_bits,"
                            "ground_truth_bits,relative_error,"
                            "verification_failed\n",
                            0),
            0u);
}

TEST(SinkSerialization, RowBufferPrintsIntegersAsOstreamDoes) {
  RowBuffer row;
  std::ostringstream expected;
  const auto both = [&](auto v) {
    row.num(v).lit(' ');
    expected << v << ' ';
  };
  both(0);
  both(-1);
  both(std::numeric_limits<int>::min());
  both(std::numeric_limits<int>::max());
  both(std::numeric_limits<std::int64_t>::min());
  both(std::numeric_limits<std::uint64_t>::max());
  both(std::numeric_limits<std::size_t>::max());
  both(static_cast<long long>(1) << 53);
  std::ostringstream out;
  row.flush(out);
  EXPECT_EQ(out.str(), expected.str());
  // flush() empties the buffer: a second flush writes nothing.
  row.flush(out);
  EXPECT_EQ(out.str(), expected.str());
}

}  // namespace
}  // namespace flashflow::campaign
