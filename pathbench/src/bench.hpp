// Workload entry points of the path benchmark and what they report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/config.hpp"
#include "tap.hpp"

namespace pathbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test fault injection: "payload" corrupts the expected digest of
  /// one message; "forged" makes one forged S2 reach the next hop past the
  /// relay's check (stream-c16, paced-base: the relay's transport forges
  /// one S2 it forwards; relay-mix: the generator sends one straight to
  /// the downstream sink). Either must surface as a failure.
  std::string inject;
  /// Where the traced run writes its spans.
  std::string trace_dir = ".";
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per violated check
  Metrics end_to_end;
  Metrics layers;

  void fail(std::string what, std::uint64_t count = 1) {
    if (count == 0) return;
    failed += count;
    failures.push_back(what + " x" + std::to_string(count));
  }
};

/// Set-ups per run: setup_s is their median.
constexpr int kSetupReps = 9;

RunResult run_stream_c16(const RunOptions& opts);
RunResult run_paced_base(const RunOptions& opts);
RunResult run_relay_mix(const RunOptions& opts);

/// The measured window is cut into slices of about 0.75 s; every
/// end-to-end metric except setup_s and peak_rss_mb is computed per slice
/// and the median over slices is reported, so a burst of stalls moves a
/// few slices, not the run. At paced-base's 2000 msg/s a slice holds about
/// 1500 latency samples, 15 beyond its p99.
inline int slice_count(double window_seconds) {
  return std::max(1, static_cast<int>(window_seconds / 0.75 + 0.5));
}

struct Slice {
  double seconds = 0;
  double messages = 0;    // delivered messages (relay-mix: authentic S2s)
  double forwarded = 0;   // frames forwarded by the relay
  double cpu_us = 0;      // runtime CPU time
  double cpu_ops = 0;     // what cpu_us_per_op divides by
  LatencyHist latency;
};

/// Puts the slice medians of goodput, forwarding rate, latency p50/p99
/// and CPU per op into `res.end_to_end`. When they are the run's reported
/// metrics (`reported`), a slice with fewer than 10 latency samples beyond
/// its p99 fails the run.
void put_slice_medians(const std::vector<Slice>& slices, bool reported,
                       RunResult& res);

/// The net.* layer metrics from the tap counters of the traced phase.
void put_net_layers(const TapCounters& delta, double ops, Metrics& m);

/// Inputs of the replay-based layer metrics: the workload's protocol
/// profile, its payload size, the frames the relay received (handshakes
/// first, in arrival order) and the relay binding's ports.
struct ReplayInputs {
  core::Config config;            // config of the measured traffic
  std::size_t payload_size = 0;
  const TapLog* relay_log = nullptr;
  net::PeerAddr upstream = 0;
  net::PeerAddr downstream = 0;
  std::vector<std::uint32_t> assoc_ids;
};

/// wire.*, relay.*, core.signer/verifier, crypto.mac, hashchain, merkle.
void replay_layers(const ReplayInputs& in, Metrics& out);

/// Stores `value` under `name` with `unit`.
inline void put(Metrics& m, const std::string& name, double value,
                const std::string& unit) {
  m[name] = Metric{value, unit};
}

}  // namespace pathbench
