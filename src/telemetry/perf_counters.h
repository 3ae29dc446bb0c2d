// Hardware performance-counter sampling via Linux perf_event_open:
// instructions, cycles and LLC misses for a bracketed region of the
// calling process, surfaced only as bench_campaign_scale --perf-counters
// columns.
//
// Graceful degradation is the contract: containers and locked-down CI
// runners routinely deny perf_event_open (EACCES/EPERM via
// kernel.perf_event_paranoid, or ENOSYS under seccomp), and non-Linux
// builds have no syscall at all. In every such case the sampler
// constructs fine, available() is false, start()/stop() are no-ops and
// read() returns an invalid sample — callers never branch on platform,
// only on Sample::valid.
//
// The counters observe wall-time behavior of the process and are therefore
// nondeterministic; like every telemetry value they must never feed result
// streams (ffcheck clause T1, docs/determinism.md).
#pragma once

#include <cstdint>

namespace flashflow::telemetry {

class PerfSampler {
 public:
  struct Sample {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t cache_misses = 0;
    /// False when the counters could not be opened or read; every count
    /// is zero in that case.
    bool valid = false;

    double ipc() const {
      return cycles > 0 ? static_cast<double>(instructions) /
                              static_cast<double>(cycles)
                        : 0.0;
    }
  };

  /// Tries to open the counter group for the calling process; never
  /// throws. On any failure the sampler is inert.
  PerfSampler();
  ~PerfSampler();
  PerfSampler(const PerfSampler&) = delete;
  PerfSampler& operator=(const PerfSampler&) = delete;

  /// True when the counter group opened and can be read.
  bool available() const { return group_fd_ >= 0; }

  /// Resets and enables the counters (no-op when unavailable).
  void start();
  /// Disables the counters (no-op when unavailable).
  void stop();
  /// Reads the counters accumulated between start() and stop().
  Sample read() const;

 private:
  int group_fd_ = -1;
  int cycles_fd_ = -1;
  int cache_fd_ = -1;
};

}  // namespace flashflow::telemetry
