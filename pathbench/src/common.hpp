// Shared helpers of the path benchmark: clocks, seeded inputs, statistics,
// per-thread CPU accounting and the allocation counter.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace alpha {
namespace core {}
namespace crypto {}
namespace hashchain {}
namespace merkle {}
namespace net {}
namespace trace {}
namespace wire {}
}  // namespace alpha

namespace pathbench {

namespace core = alpha::core;
namespace crypto = alpha::crypto;
namespace hashchain = alpha::hashchain;
namespace merkle = alpha::merkle;
namespace net = alpha::net;
namespace trace = alpha::trace;
namespace wire = alpha::wire;

/// Steady-clock nanoseconds; every timestamp the benchmark records uses it.
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: derives every generated input (ids, payloads, forgery
/// choice) from the run's seed.
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept { return mix64(state_++); }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Content digest of a payload, 8 bytes at a time (cheap enough to run on
/// the runtime's delivery thread for every message).
std::uint64_t content_digest(const std::uint8_t* data, std::size_t n) noexcept;

/// `count` distinct nonzero association ids drawn from the seed.
std::vector<std::uint32_t> make_assoc_ids(std::uint64_t seed,
                                          std::size_t count);

/// a / b, or 0 when b is not positive.
inline double safe_div(double a, double b) { return b > 0 ? a / b : 0; }

/// Quantile by linear interpolation over a copy of `v` (0 when empty).
double quantile(std::vector<double> v, double q);

/// Latency histogram over fixed log-linear buckets of nanoseconds: exact
/// below 64 ns, then 64 buckets per power of two (1.6% wide at most), up to
/// about 73 minutes. Its memory is the same however many samples a run
/// takes, so recording latency never shows in the run's memory figure.
class LatencyHist {
 public:
  void add(std::uint64_t ns) noexcept {
    ++counts_[bucket(ns)];
    ++count_;
  }
  std::uint64_t count() const noexcept { return count_; }
  /// Quantile in microseconds, interpolated inside its bucket by rank
  /// (0 when empty); q = 0.5 is the median.
  double quantile_us(double q) const;

 private:
  static constexpr int kSub = 64;
  static constexpr int kOctaves = 42;
  static constexpr std::size_t kBuckets = kSub * (kOctaves - 5);
  static std::size_t bucket(std::uint64_t ns) noexcept;
  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// CPU nanoseconds consumed so far by every thread of this process except
/// the benchmark's own threads (`bench_tids`), from
/// /proc/self/task/*/schedstat.
std::uint64_t runtime_cpu_ns(const std::vector<long>& bench_tids);

/// CPU nanoseconds consumed so far by thread `tid` of this process.
std::uint64_t thread_cpu_ns(long tid);

/// Thread id of the caller.
long self_tid();

/// ru_maxrss of the process in MiB.
double peak_rss_mib();

/// Current resident memory (VmRSS) of the process in MiB.
double rss_mib();

/// Resident-memory growth of the process over a run: VmRSS read just
/// before the first node is built, then sampled after set-up, at every
/// slice boundary and after the drain. What the benchmark itself holds before the
/// baseline (pre-generated traffic, message bookkeeping) is not charged.
class RssGrowth {
 public:
  RssGrowth() : base_(rss_mib()), peak_(base_) {}
  void sample() { peak_ = std::max(peak_, rss_mib()); }
  double baseline_mib() const noexcept { return base_; }
  double growth_mib() const noexcept { return peak_ - base_; }

 private:
  double base_;
  double peak_;
};

/// Heap allocations made by the calling thread while counting is on
/// (operator new is replaced in alloc_count.cpp; the counter is
/// thread-local so the runtime's threads never share a counter line).
void alloc_counting(bool on) noexcept;
std::uint64_t thread_allocs() noexcept;

/// One end-to-end or per-layer figure, printed by name with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace pathbench
