// e2ebench — runner binary of the end-to-end benchmark (run.py calls it;
// README.md in this directory describes the workloads and metrics).
//
//   e2ebench gen WORKLOAD SEED THREADS BASE.yaml OUT.yaml [--smoke]
//       Writes the scenario file of one workload. The §7 relay mixture
//       and measurer team come from BASE.yaml (scenarios/sec7.yaml); the
//       seed and thread count come from the caller. --smoke shrinks the
//       population and period count for the benchmark's own tests.
//
//   e2ebench run SPEC.yaml OUT_DIR [--threads N] [--trace | --setup-only]
//       Runs SPEC the way `flashflow run` does: parse the spec, write
//       the normalized scenario.yaml, stream every period through the
//       CSV/JSONL (and, with faults armed, fault-ledger) sinks, then
//       write the last period's bandwidth.txt. Prints one JSON object
//       with the run's timings and simulated statistics. --threads
//       overrides the spec (the 1-thread determinism reference run).
//       --trace additionally records spans around every layer call,
//       attaches a telemetry::Recorder, and after the timed run replays
//       materialize and the period-0 layout on their own clocks.
//       --setup-only stops after the set-up (spec parse plus Experiment
//       construction) and prints its times alone.
//
// Only public library calls are used; the library is never modified to
// be measured. Wall times come from std::chrono::steady_clock in this
// file, CPU times (user plus system, every thread of the process) from
// CLOCK_PROCESS_CPUTIME_ID.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sink.h"
#include "core/schedule.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"
#include "scenario/serialize.h"
#include "sim/random.h"
#include "telemetry/telemetry.h"
#include "util/strict_parse.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace flashflow;
using SteadyClock = std::chrono::steady_clock;

namespace {

// Periods per run. Chosen so one run lasts about two seconds on a 4-core
// x86-64 box: long enough that process start-up and file-system jitter
// stay small against the run, short enough for several runs per sample.
constexpr int kSec7Periods = 8;
constexpr int kSecurePeriods = 16;
constexpr int kFleetRelays = 50000;

// --------------------------------------------------------------- gen ---

scenario::ScenarioSpec make_workload(const std::string& workload,
                                     std::uint64_t seed, int threads,
                                     scenario::ScenarioSpec spec, bool smoke) {
  auto* pop = std::get_if<scenario::SyntheticPopulationSpec>(&spec.population);
  if (!pop)
    throw std::invalid_argument("base scenario must be a synthetic population");
  spec.name = workload;
  spec.seed = seed;

  scenario::TopologySpec tiered;
  tiered.path_model = scenario::TopologySpec::PathModelKind::kTiered;

  if (workload == "sec7-1t") {
    // One tier: bit-identical to the flat dense mesh, without its memory.
    spec.topology = tiered;
    spec.schedule = campaign::ScheduleMode::kGreedyPack;
    spec.periods = kSec7Periods;
    spec.threads = 1;
  } else if (workload == "fleet50k") {
    spec.topology = tiered;
    spec.schedule = campaign::ScheduleMode::kGreedyPack;
    pop->relays = kFleetRelays;
    spec.periods = 1;
    spec.threads = threads;
  } else if (workload == "secure-period") {
    spec.topology = tiered;
    spec.schedule = campaign::ScheduleMode::kRandomized;
    pop->prior_fraction = 0.8;
    // 3% liars, not 5%: at 5% the liars are ~5.3% of the verified relays,
    // so the 95th error percentile falls on the edge of the liar
    // population and swings ~16% from seed to seed (IQR over seeds
    // 1-10); at 3% it spreads 3%.
    spec.adversaries.liar_fraction = 0.03;
    spec.adversaries.forger_fraction = 0.05;
    spec.background.enabled = true;
    spec.background.utilization_mean = 0.2;
    spec.background.utilization_sd = 0.1;
    spec.faults.measurer_crash = 0.01;
    spec.faults.relay_disconnect = 0.02;
    spec.faults.report_drop = 0.01;
    spec.faults.report_truncate = 0.02;
    spec.faults.slot_timeout = 0.01;
    spec.faults.max_retries = 2;
    spec.periods = kSecurePeriods;
    spec.threads = threads;
  } else if (workload == "sec7-dense") {
    // The checked-in file as is: dense topology, its own period and
    // thread counts. Only the seed changes.
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }

  if (smoke) {
    pop->relays = workload == "fleet50k" ? 400 : 60;
    spec.periods = std::min(spec.periods, 2);
  }
  spec.validate();
  return spec;
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.size() < 5 || args.size() > 6 ||
      (args.size() == 6 && args[5] != "--smoke"))
    throw std::invalid_argument(
        "usage: e2ebench gen WORKLOAD SEED THREADS BASE.yaml OUT.yaml "
        "[--smoke]");
  const std::uint64_t seed = util::parse_u64(args[1], "SEED");
  const int threads = util::parse_int(args[2], "THREADS");
  const scenario::ScenarioSpec spec =
      make_workload(args[0], seed, threads,
                    scenario::load_scenario_file(args[3]), args.size() == 6);
  std::ofstream out(args[4]);
  out << scenario::serialize_scenario(spec);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + args[4]);
  return 0;
}

// -------------------------------------------------------------- spans ---

/// One timed interval of the traced run. Children lie inside their
/// parent and never overlap each other, so self times partition the
/// root: the root's own self time is the unattributed remainder.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // -1 for the root
};

class SpanLog {
 public:
  explicit SpanLog(SteadyClock::time_point origin) : origin_(origin) {}

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - origin_)
        .count();
  }
  /// Opens a span starting now; close it with end().
  int begin(const char* name, int parent) {
    return add(name, now(), -1, parent);
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now(); }
  int add(const char* name, std::int64_t start, std::int64_t end,
          int parent) {
    spans_.push_back({name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  double seconds(int id) const {
    const Span& s = at(id);
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name (the root reports as "unattributed").
  /// Throws if a child escapes its parent or two siblings overlap:
  /// the partition would then not hold.
  std::map<std::string, double> self_seconds() const {
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].end_ns < spans_[i].start_ns)
        throw std::logic_error(std::string("span never closed: ") +
                               spans_[i].name);
      if (spans_[i].parent >= 0)
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(
            static_cast<int>(i));
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::int64_t covered = 0;
      std::int64_t cursor = s.start_ns;
      for (const int c : children[i]) {  // recorded in start order
        const Span& k = at(c);
        if (k.start_ns < cursor || k.end_ns > s.end_ns)
          throw std::logic_error(std::string("span '") + k.name +
                                 "' overlaps a sibling or escapes '" +
                                 s.name + "'");
        covered += k.end_ns - k.start_ns;
        cursor = k.end_ns;
      }
      const std::string name = s.parent < 0 ? "unattributed" : s.name;
      self[name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return self;
  }

 private:
  SteadyClock::time_point origin_;
  std::vector<Span> spans_;
};

/// Delivers each slot to every result sink. In a traced run every sink
/// call becomes a span under the current period span, and the gap
/// between successive deliveries is recorded.
class FanoutSink : public campaign::SlotSink {
 public:
  FanoutSink(SpanLog* spans, const int* period_span)
      : spans_(spans), period_span_(period_span) {}

  void attach(campaign::SlotSink* sink) { sinks_.push_back(sink); }
  void begin(const campaign::RunPlan& plan) override {
    last_delivery_ns_ = -1;
    for (auto* sink : sinks_) sink->begin(plan);
  }
  void slot_done(const campaign::SlotResult& slot) override {
    if (!spans_) {
      for (auto* sink : sinks_) sink->slot_done(slot);
      return;
    }
    std::int64_t t = spans_->now();
    if (last_delivery_ns_ >= 0) gaps_ns_.push_back(t - last_delivery_ns_);
    last_delivery_ns_ = t;
    for (auto* sink : sinks_) {
      sink->slot_done(slot);
      const std::int64_t done = spans_->now();
      spans_->add("sink", t, done, *period_span_);
      t = done;
    }
  }
  bool on_progress(int done, int total) override {
    bool keep = true;
    for (auto* sink : sinks_) keep = sink->on_progress(done, total) && keep;
    return keep;
  }
  const std::vector<std::int64_t>& gaps_ns() const { return gaps_ns_; }

 private:
  SpanLog* spans_;
  const int* period_span_;
  std::vector<campaign::SlotSink*> sinks_;
  std::int64_t last_delivery_ns_ = -1;
  std::vector<std::int64_t> gaps_ns_;
};

// -------------------------------------------------------------- stats ---

/// Midpoint median of a sorted, non-empty sample (run.py recomputes it
/// from results.csv with the same rule and requires equality).
double sorted_median(const std::vector<double>& v) {
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile of a sorted, non-empty sample.
template <typename T>
T sorted_rank(const std::vector<T>& v, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Minimal JSON object writer: numbers in shortest round-trip form.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    if (!std::isfinite(v)) return raw(key, "null");
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
    (void)ec;
    return raw(key, std::string(buf, ptr));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"" + key + "\": " + v;
    return *this;
  }
  std::string text() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

/// Peak RSS of this process image, from VmHWM. getrusage's ru_maxrss is
/// not used: Linux carries it across exec, so it would include the
/// parent's footprint at fork time.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      double kib = 0.0;  // "VmHWM:     12345 kB"
      if (std::istringstream(line.substr(6)) >> kib) return kib / 1024.0;
    }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// CPU seconds (user plus system) used so far by every thread of this
/// process, exited threads included.
double process_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0)
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------- run ---

int cmd_run(const std::vector<std::string>& args,
            SteadyClock::time_point process_start) {
  if (args.size() < 2)
    throw std::invalid_argument(
        "usage: e2ebench run SPEC.yaml OUT_DIR [--threads N] "
        "[--trace | --setup-only]");
  const std::string spec_path = args[0];
  const fs::path dir = args[1];
  std::optional<int> threads_override;
  bool traced = false;
  bool setup_only = false;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--trace") {
      traced = true;
    } else if (args[i] == "--setup-only") {
      setup_only = true;
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      threads_override = util::parse_int(args[++i], "--threads");
    } else {
      throw std::invalid_argument("unknown argument '" + args[i] + "'");
    }
  }

  SpanLog spans(process_start);
  const int root = spans.add("run", 0, -1, -1);

  const double parse_cpu_start = process_cpu_s();
  const int parse_span = spans.begin("parse", root);
  scenario::ScenarioSpec spec = scenario::load_scenario_file(spec_path);
  if (threads_override) spec.threads = *threads_override;
  spans.end(parse_span);
  const double parse_cpu_s = process_cpu_s() - parse_cpu_start;

  fs::create_directories(dir);
  {
    std::ofstream spec_out(dir / "scenario.yaml");
    spec_out << scenario::serialize_scenario(spec);
    if (!spec_out) throw std::runtime_error("cannot write scenario.yaml");
  }
  std::ofstream csv_out(dir / "results.csv");
  std::ofstream jsonl_out(dir / "results.jsonl");
  if (!csv_out || !jsonl_out)
    throw std::runtime_error("cannot write results under " + dir.string());
  campaign::CsvSink csv(csv_out);
  campaign::JsonlSink jsonl(jsonl_out);
  int period_span = -1;
  FanoutSink fanout(traced ? &spans : nullptr, &period_span);
  fanout.attach(&csv);
  fanout.attach(&jsonl);
  std::ofstream faults_out;
  std::optional<campaign::FaultLedgerSink> faults;
  if (spec.faults.enabled()) {
    faults_out.open(dir / "faults.csv");
    if (!faults_out) throw std::runtime_error("cannot write faults.csv");
    faults.emplace(faults_out);
    fanout.attach(&*faults);
  }

  std::optional<telemetry::Recorder> recorder;
  if (traced) recorder.emplace();

  const double setup_cpu_start = process_cpu_s();
  const int setup_span = spans.begin("setup", root);
  std::optional<scenario::Experiment> experiment(std::in_place, spec);
  spans.end(setup_span);
  // Set-up time is CPU time, like cpu_s; its wall time is reported too.
  const double setup_s = parse_cpu_s + process_cpu_s() - setup_cpu_start;
  const double setup_wall_s =
      spans.seconds(parse_span) + spans.seconds(setup_span);
  if (setup_only) {
    std::cout << JsonObject()
                     .num("setup_s", setup_s)
                     .num("setup_wall_s", setup_wall_s)
                     .text()
              << std::endl;
    return 0;
  }
  if (recorder) experiment->set_telemetry(&*recorder);

  // Per-period accounting from the hook: relay failures (every period),
  // engine counters, and the period spans' boundaries.
  std::int64_t relays_attempted = 0;
  std::int64_t relays_failed = 0;
  int slots_executed = 0;
  int slots_retried = 0;
  double engine_wall_s = 0.0;
  double period_total_s = 0.0;
  period_span = spans.begin("period", root);
  const auto result = experiment->run(
      &fanout, [&](const scenario::Experiment::PeriodRecord& record,
                   const campaign::CampaignResult& period_result) {
        for (const campaign::RelayEstimate& est : period_result.relays) {
          ++relays_attempted;
          if (est.slot_failed || est.quarantined) ++relays_failed;
        }
        slots_executed += record.stats.slots_executed;
        slots_retried += record.stats.slots_retried;
        engine_wall_s += record.stats.wall_seconds;
        spans.end(period_span);
        period_total_s += spans.seconds(period_span);
        if (record.period + 1 < spec.periods)
          period_span = spans.begin("period", root);
      });
  if (result.cancelled || result.periods.empty())
    throw std::runtime_error("experiment cancelled");

  const int bw_span = spans.begin("bwfile", root);
  {
    std::ofstream bw_out(dir / "bandwidth.txt");
    bw_out << experiment->bandwidth_file_text(
        static_cast<int>(result.periods.size()) - 1, result.final_period);
    bw_out.close();
    if (!bw_out) throw std::runtime_error("cannot write bandwidth.txt");
  }
  spans.end(bw_span);
  csv_out.close();
  jsonl_out.close();
  if (faults) faults_out.close();
  if (!csv_out || !jsonl_out || (faults && !faults_out))
    throw std::runtime_error("result stream write failed");
  spans.end(root);
  const double cpu_s = process_cpu_s();
  const double rss = peak_rss_mib();

  // Simulated statistics of the modelled system (deterministic).
  std::vector<double> abs_err;
  for (const campaign::RelayEstimate& est : result.final_period.relays)
    if (!est.verification_failed && !est.slot_failed)
      abs_err.push_back(std::fabs(est.relative_error));
  std::sort(abs_err.begin(), abs_err.end());
  if (abs_err.empty()) throw std::runtime_error("no verified relay");
  const campaign::RunStats& last = result.periods.back().stats;

  JsonObject out;
  out.num("wall_s", spans.seconds(root))
      .num("cpu_s", cpu_s)
      .num("setup_s", setup_s)
      .num("setup_wall_s", setup_wall_s)
      .num("peak_rss_mib", rss)
      .num("sim_period_h", last.slots_executed * spec.params.slot_seconds /
                               3600.0)
      .num("median_abs_err_pct", sorted_median(abs_err) * 100.0)
      .num("p95_abs_err_pct", sorted_rank(abs_err, 0.95) * 100.0)
      .num("relay_fail_frac", static_cast<double>(relays_failed) /
                                  static_cast<double>(relays_attempted))
      .str("compiler", __VERSION__)
      .str("build_type", E2EBENCH_BUILD_TYPE);

  if (traced) {
    // Layer numbers from the recorder are lane-summed busy time; the
    // reorder wait already contains the sink serialization. They are
    // reported as recorded and never added together.
    const telemetry::Snapshot snap = recorder->snapshot();
    auto counter = [&](const std::string& name) {
      for (const auto& [n, v] : snap.counters)
        if (n == name) return static_cast<double>(v);
      return 0.0;
    };
    auto gauge = [&](const std::string& name) {
      for (const auto& [n, v] : snap.gauges)
        if (n == name) return v;
      return 0.0;
    };
    auto stage_us = [&](const std::string& stage) {
      for (const auto& [n, h] : snap.histograms)
        if (n == "stage/" + stage) return static_cast<double>(h.sum);
      return 0.0;
    };
    const double solves = counter("solver/solve_seconds");

    double sink_s = 0.0;
    for (const Span& s : spans.spans())
      if (std::string(s.name) == "sink")
        sink_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    std::vector<std::int64_t> gaps = fanout.gaps_ns();
    std::sort(gaps.begin(), gaps.end());
    double sink_bytes = 0.0;
    for (const char* file : {"results.csv", "results.jsonl", "faults.csv"})
      if (fs::exists(dir / file))
        sink_bytes += static_cast<double>(fs::file_size(dir / file));

    // Replays, outside the timed run: the period-0 layout on the
    // period-0 priors (oracle where the spec gives none), and a fresh
    // materialization once the run's own has been released.
    std::vector<double> priors;
    for (const campaign::CampaignRelay& r : experiment->materialized().relays)
      priors.push_back(r.prior_estimate_bits > 0.0
                           ? r.prior_estimate_bits
                           : r.model.ground_truth(spec.params.sockets));
    double team = 0.0;
    for (const double c : experiment->measurer_capacities()) team += c;
    experiment.reset();

    const auto layout_start = SteadyClock::now();
    std::vector<int> relay_slot;
    if (spec.schedule == campaign::ScheduleMode::kGreedyPack) {
      relay_slot = core::greedy_pack(priors, team, spec.params).relay_slot;
    } else {
      core::PeriodSchedule schedule(
          spec.params, team,
          scenario::period_seed(spec, 0) ^ sim::hash_tag("campaign/schedule"));
      relay_slot = schedule.schedule_old_relays(priors);
    }
    const double layout_s =
        std::chrono::duration<double>(SteadyClock::now() - layout_start)
            .count();
    std::sort(relay_slot.begin(), relay_slot.end());
    const auto layout_slots = std::unique(relay_slot.begin(), relay_slot.end()) -
                              relay_slot.begin();

    const auto mat_start = SteadyClock::now();
    const scenario::MaterializedScenario mat = scenario::materialize(spec);
    const double materialize_s =
        std::chrono::duration<double>(SteadyClock::now() - mat_start).count();
    if (mat.relays.size() != priors.size())
      throw std::logic_error("materialize replay disagrees with the run");

    JsonObject layers;
    layers.num("scenario.materialize_s", materialize_s)
        .num("scenario.period_s", period_total_s)
        .num("scenario.bwfile_s", spans.seconds(bw_span))
        .num("core.layout_s", layout_s)
        .num("core.layout_slots", static_cast<double>(layout_slots))
        .num("campaign.sink_s", sink_s)
        .num("campaign.sink_bytes", sink_bytes)
        .num("campaign.slot_gap_us_p50",
             gaps.empty() ? 0.0 : sorted_rank(gaps, 0.5) * 1e-3)
        .num("campaign.slot_gap_us_p99",
             gaps.empty() ? 0.0 : sorted_rank(gaps, 0.99) * 1e-3)
        .num("campaign.slots_per_s", slots_executed / engine_wall_s)
        .num("campaign.retry_slots", slots_retried)
        .num("campaign.retry_frac",
             static_cast<double>(slots_retried) / slots_executed)
        .num("net.solver_solve_us", stage_us("solver_solve"))
        .num("net.solves", solves)
        .num("net.solve_us_per_call",
             solves > 0 ? stage_us("solver_solve") / solves : 0.0)
        .num("net.solver_prepare_us", stage_us("solver_prepare"))
        .num("net.active_flows_max", gauge("solver/active_flows"))
        .num("net.fill_paths_us", stage_us("fill_paths"))
        .num("core.dispatch_us", stage_us("dispatch"))
        .num("campaign.reorder_wait_us", stage_us("reorder_wait"))
        .num("campaign.layout_us", stage_us("layout"))
        .num("campaign.retry_rounds", counter("campaign/retry_rounds"));
    JsonObject self;
    for (const auto& [name, seconds] : spans.self_seconds())
      self.num(name, seconds);
    out.raw("layers", layers.text()).raw("self_s", self.text());
  }
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = SteadyClock::now();
  try {
    const std::vector<std::string> args(argv + std::min(argc, 2), argv + argc);
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "gen") return cmd_gen(args);
    if (command == "run") return cmd_run(args, process_start);
    std::cerr << "usage: e2ebench gen|run ... (see runner.cpp)\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
