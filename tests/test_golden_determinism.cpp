// Golden-hash regression tests for the measurement hot path.
//
// The campaign engine promises bit-identical output for a fixed (population,
// config, seed) regardless of thread count — and the hot-path code
// (core::SlotRunner, net::FairShareSolver, the campaign worker loop) is
// explicitly required to preserve results when it is restructured for
// speed. These tests pin the full streamed CsvSink byte stream of two fixed
// scenarios to FNV-1a hashes recorded from the pre-workspace-refactor
// implementation, so any future hot-path change that silently shifts
// results (an extra RNG draw, a reordered flow, a float reassociation)
// fails loudly here rather than drifting the paper reproductions. Further
// pins cover the other streams `flashflow run` writes (JSONL, the fault
// ledger, the bandwidth file) and a 3-socket run whose bytes depend on
// the path model.
//
// If a change *intends* to alter results, re-record the constants from a
// trusted build (the failure message prints the new hash) and justify the
// shift in the commit message.
// The CI determinism gate drives these tests through two environment
// variables: FLASHFLOW_GOLDEN_THREADS forces a single worker thread count
// and FLASHFLOW_GOLDEN_SHARD forces a dispatch shard size. Because every
// run — whatever the thread count or shard size — must match the same
// pinned hashes, running the suite once per configuration proves the
// byte-identical-across-threads claim as a gate, not a dev-box habit.
// Unset (the default), the suite exercises 1 and 8 threads itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sink.h"
#include "net/units.h"
#include "scenario/experiment.h"
#include "scenario/serialize.h"
#include "sim/random.h"
#include "tor/cpu_model.h"

namespace flashflow {
namespace {

// Recorded from the pre-refactor hot path (PR 3 state) with seed 20210613.
constexpr std::uint64_t kCampaignCsvHash = 0xfa6d28d9b29064c3ULL;
constexpr std::uint64_t kScenarioCsvHash = 0x841c72e6038a41a5ULL;

// Recorded from the ostream-based sinks and the ostringstream/snprintf
// bandwidth-file writer, before result serialization moved to byte
// buffers: the other streams `flashflow run` writes.
constexpr std::uint64_t kScenarioJsonlHash = 0x2ea0753307a44aaaULL;
constexpr std::uint64_t kScenarioBandwidthFileHash = 0xf58b5a65278f92afULL;
constexpr std::uint64_t kFaultCsvHash = 0xa92922d64b61f922ULL;
constexpr std::uint64_t kFaultLedgerHash = 0x73685fa6d357fc6fULL;
// golden_smoke at params.sockets 3 over two periods. At the default 160
// sockets the per-socket TCP bound exceeds every allocation, so no path
// value (RTT, loss) reaches the bytes; at 3 sockets it does, and the
// second period pins the sinks' reuse across periods.
constexpr std::uint64_t kFewSocketsCsvHash = 0x5d11203c00f57712ULL;
constexpr std::uint64_t kFewSocketsBandwidthFileHash = 0xed190e404ae2ef07ULL;

int env_int(const char* name) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : 0;
}

/// Thread count forced by the CI matrix; 0 = unset (test both 1 and 8).
int forced_threads() { return env_int("FLASHFLOW_GOLDEN_THREADS"); }
/// Dispatch shard size forced by the CI matrix; 0 = auto.
int forced_shard() { return env_int("FLASHFLOW_GOLDEN_SHARD"); }

std::string campaign_csv(int threads) {
  const auto topo = net::make_table1_hosts();
  std::vector<campaign::CampaignRelay> relays;
  for (const double limit : {10, 25, 50, 75, 100, 150, 200, 250, 40, 120}) {
    campaign::CampaignRelay r;
    r.model.name = "relay-" + std::to_string(static_cast<int>(limit));
    r.model.nic_up_bits = r.model.nic_down_bits = net::mbit(954);
    r.model.rate_limit_bits = net::mbit(limit);
    r.model.cpu = tor::CpuModel::us_sw();
    r.host = topo.find("US-SW");
    relays.push_back(std::move(r));
  }

  campaign::CampaignConfig config;
  config.measurer_hosts = {topo.find("US-E"), topo.find("NL")};
  config.measurer_capacity_bits = {net::mbit(900), net::mbit(900)};
  config.seed = 20210613;
  config.threads = threads;
  config.shard_slots = forced_shard();

  std::ostringstream out;
  campaign::CsvSink sink(out);
  campaign::CampaignRunner(topo, config).run(relays, sink);
  return out.str();
}

/// The golden scenario as a ScenarioBuilder program. scenario_file_spec()
/// must parse to exactly this spec.
scenario::ScenarioSpec golden_builder_spec(int threads) {
  // Covers the scenario materialization path on top of the campaign
  // engine: synthetic population, adversary mix, background model, and the
  // randomized §4.3 schedule.
  analysis::PopulationParams pop;
  pop.lognormal_mu = 17.0;
  pop.lognormal_sigma = 1.2;
  pop.max_capacity_bits = 900e6;
  return scenario::ScenarioBuilder("golden")
      .synthetic(pop, 40, /*prior_fraction=*/0.8)
      .measurer_capacities({net::mbit(800), net::mbit(800),
                            net::mbit(800)})
      .liars(0.10)
      .forgers(0.10)
      .background_utilization(0.2, 0.1)
      .schedule(campaign::ScheduleMode::kRandomized)
      .threads(threads)
      .shard_slots(forced_shard())
      .seed(20210613)
      .build();
}

/// A checked-in scenario file (what `flashflow run scenarios/NAME.yaml`
/// executes), with the thread/shard knobs applied the way the CLI's flags
/// would.
scenario::ScenarioSpec scenario_file_spec(int threads,
                                          const char* name = "golden_smoke") {
  scenario::ScenarioSpec spec = scenario::load_scenario_file(
      scenario::default_scenario_dir() + "/" + name + ".yaml");
  spec.threads = threads;
  spec.shard_slots = forced_shard();
  return spec;
}

/// Every stream `flashflow run` writes for a spec: the CSV, JSONL and
/// fault-ledger sinks fed by one fan-out, plus the last period's
/// bandwidth file.
struct RunStreams {
  std::string csv;
  std::string jsonl;
  std::string ledger;
  std::string bandwidth_file;
};

RunStreams run_streams(const scenario::ScenarioSpec& spec) {
  scenario::Experiment experiment(spec);
  std::ostringstream csv, jsonl, ledger;
  campaign::CsvSink csv_sink(csv);
  campaign::JsonlSink jsonl_sink(jsonl);
  campaign::FaultLedgerSink ledger_sink(ledger);
  campaign::FanoutSink fanout;
  fanout.attach(&csv_sink);
  fanout.attach(&jsonl_sink);
  fanout.attach(&ledger_sink);
  const auto result = experiment.run(&fanout);
  return {csv.str(), jsonl.str(), ledger.str(),
          experiment.bandwidth_file_text(
              static_cast<int>(result.periods.size()) - 1,
              result.final_period)};
}

scenario::ScenarioSpec few_sockets_spec(int threads) {
  scenario::ScenarioSpec spec = scenario_file_spec(threads);
  spec.params.sockets = 3;
  spec.periods = 2;
  return spec;
}

/// Checks one stream against its pin, printing the new hash on mismatch.
void expect_pinned(const std::string& bytes, std::uint64_t pinned,
                   const char* what, int threads) {
  EXPECT_EQ(sim::hash_tag(bytes), pinned)
      << what << " bytes shifted (threads=" << threads
      << ", shard=" << forced_shard() << "); new hash 0x" << std::hex
      << sim::hash_tag(bytes) << " over " << std::dec << bytes.size()
      << " bytes";
}

std::string spec_csv(const scenario::ScenarioSpec& spec) {
  scenario::Experiment experiment(spec);
  std::ostringstream out;
  campaign::CsvSink sink(out);
  experiment.run(&sink);
  return out.str();
}

std::string scenario_csv(int threads) {
  return spec_csv(golden_builder_spec(threads));
}

TEST(GoldenDeterminism, CampaignCsvBytesMatchRecordedBaseline) {
  const int forced = forced_threads();
  const std::string csv = campaign_csv(forced > 0 ? forced : 1);
  EXPECT_EQ(sim::hash_tag(csv), kCampaignCsvHash)
      << "campaign CSV bytes shifted (threads=" << (forced > 0 ? forced : 1)
      << ", shard=" << forced_shard() << "); new hash 0x" << std::hex
      << sim::hash_tag(csv) << " over " << std::dec << csv.size()
      << " bytes. Hot-path changes must be bit-identical.";
  // The golden bytes are also thread-count independent.
  if (forced <= 0) {
    EXPECT_EQ(csv, campaign_csv(/*threads=*/8));
  }
}

TEST(GoldenDeterminism, ScenarioFileMatchesBuilderSpecAndGoldenBytes) {
  const int forced = forced_threads();
  const int threads = forced > 0 ? forced : 1;

  // The checked-in file and the builder program describe the same
  // experiment, field for field...
  const scenario::ScenarioSpec from_file = scenario_file_spec(threads);
  EXPECT_EQ(from_file, golden_builder_spec(threads))
      << "scenarios/golden_smoke.yaml drifted from the builder program";

  // ...and running the file-loaded spec produces the same pinned bytes,
  // so `flashflow run scenarios/golden_smoke.yaml` is covered by the
  // golden hash too.
  const std::string csv = spec_csv(from_file);
  EXPECT_EQ(sim::hash_tag(csv), kScenarioCsvHash)
      << "scenario-file CSV bytes shifted (threads=" << threads
      << ", shard=" << forced_shard() << "); new hash 0x" << std::hex
      << sim::hash_tag(csv);

  // The file also survives a serialize/parse round trip unchanged.
  EXPECT_EQ(scenario::parse_scenario(scenario::serialize_scenario(from_file)),
            from_file);
}

TEST(GoldenDeterminism, ScenarioCsvBytesMatchRecordedBaseline) {
  const int forced = forced_threads();
  const std::string csv = scenario_csv(forced > 0 ? forced : 1);
  EXPECT_EQ(sim::hash_tag(csv), kScenarioCsvHash)
      << "scenario CSV bytes shifted (threads=" << (forced > 0 ? forced : 1)
      << ", shard=" << forced_shard() << "); new hash 0x" << std::hex
      << sim::hash_tag(csv) << " over " << std::dec << csv.size()
      << " bytes. Hot-path changes must be bit-identical.";
  if (forced <= 0) {
    EXPECT_EQ(csv, scenario_csv(/*threads=*/8));
  }
}

TEST(GoldenDeterminism, ScenarioJsonlAndBandwidthFileMatchRecordedBaseline) {
  const int forced = forced_threads();
  const int threads = forced > 0 ? forced : 1;
  const RunStreams streams = run_streams(scenario_file_spec(threads));
  // The CSV stream of the fan-out is the one kScenarioCsvHash pins.
  expect_pinned(streams.csv, kScenarioCsvHash, "golden_smoke CSV", threads);
  expect_pinned(streams.jsonl, kScenarioJsonlHash, "golden_smoke JSONL",
                threads);
  expect_pinned(streams.bandwidth_file, kScenarioBandwidthFileHash,
                "golden_smoke bandwidth file", threads);
  if (forced <= 0) {
    const RunStreams eight = run_streams(scenario_file_spec(8));
    EXPECT_EQ(streams.jsonl, eight.jsonl);
    EXPECT_EQ(streams.bandwidth_file, eight.bandwidth_file);
  }
}

TEST(GoldenDeterminism, FaultSmokeCsvAndLedgerMatchRecordedBaseline) {
  const int forced = forced_threads();
  const int threads = forced > 0 ? forced : 1;
  const RunStreams streams =
      run_streams(scenario_file_spec(threads, "fault_smoke"));
  expect_pinned(streams.csv, kFaultCsvHash, "fault_smoke CSV", threads);
  expect_pinned(streams.ledger, kFaultLedgerHash, "fault_smoke ledger",
                threads);
  if (forced <= 0) {
    const RunStreams eight = run_streams(scenario_file_spec(8, "fault_smoke"));
    EXPECT_EQ(streams.csv, eight.csv);
    EXPECT_EQ(streams.ledger, eight.ledger);
  }
}

TEST(GoldenDeterminism, FewSocketsScenarioMatchesRecordedBaseline) {
  const int forced = forced_threads();
  const int threads = forced > 0 ? forced : 1;
  const RunStreams streams = run_streams(few_sockets_spec(threads));
  expect_pinned(streams.csv, kFewSocketsCsvHash, "3-socket CSV", threads);
  expect_pinned(streams.bandwidth_file, kFewSocketsBandwidthFileHash,
                "3-socket bandwidth file", threads);
  if (forced <= 0) {
    const RunStreams eight = run_streams(few_sockets_spec(8));
    EXPECT_EQ(streams.csv, eight.csv);
    EXPECT_EQ(streams.bandwidth_file, eight.bandwidth_file);
  }
}

}  // namespace
}  // namespace flashflow
