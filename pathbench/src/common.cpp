#include "common.hpp"

#include "bench.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>

namespace pathbench {

std::uint64_t content_digest(const std::uint8_t* data, std::size_t n) noexcept {
  std::uint64_t h = 0x243f6a8885a308d3ull ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 0x9fb21c651e98df25ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ data[i]) * 0x100000001b3ull;
  return mix64(h);
}

std::vector<std::uint32_t> make_assoc_ids(std::uint64_t seed,
                                          std::size_t count) {
  Rng rng(mix64(seed ^ 0xa550c1d5ull));
  std::set<std::uint32_t> seen;
  std::vector<std::uint32_t> ids;
  ids.reserve(count);
  while (ids.size() < count) {
    const auto id = static_cast<std::uint32_t>(rng.next());
    if (id != 0 && seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::size_t LatencyHist::bucket(std::uint64_t ns) noexcept {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int e = 63 - __builtin_clzll(ns);  // 6 and up
  if (e >= kOctaves) return kBuckets - 1;
  const std::uint64_t sub = (ns >> (e - 6)) - kSub;
  return static_cast<std::size_t>(kSub * (e - 5)) + sub;
}

double LatencyHist::quantile_us(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = counts_[b];
    if (c == 0 || static_cast<double>(below + c) <= rank) {
      below += c;
      continue;
    }
    double lo = static_cast<double>(b), width = 1;
    if (b >= kSub) {
      const std::size_t octave = b / kSub - 1;  // shift of this octave
      lo = static_cast<double>((kSub + b % kSub) << octave);
      width = static_cast<double>(std::uint64_t{1} << octave);
    }
    // The bucket's samples spread evenly over its width.
    const double within =
        (rank - static_cast<double>(below) + 0.5) / static_cast<double>(c);
    return (lo + width * within) / 1e3;
  }
  return 0;
}

long self_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

namespace {
std::uint64_t read_schedstat(const char* path) {
  unsigned long long on_cpu = 0;
  if (FILE* f = std::fopen(path, "r")) {
    if (std::fscanf(f, "%llu", &on_cpu) != 1) on_cpu = 0;
    std::fclose(f);
  }
  return on_cpu;
}
}  // namespace

std::uint64_t thread_cpu_ns(long tid) {
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/self/task/%ld/schedstat", tid);
  return read_schedstat(path);
}

std::uint64_t runtime_cpu_ns(const std::vector<long>& bench_tids) {
  std::uint64_t total = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const long task = std::strtol(e->d_name, nullptr, 10);
    if (std::find(bench_tids.begin(), bench_tids.end(), task) !=
        bench_tids.end()) {
      continue;
    }
    char path[320];
    std::snprintf(path, sizeof(path), "/proc/self/task/%s/schedstat",
                  e->d_name);
    total += read_schedstat(path);
  }
  ::closedir(dir);
  return total;
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double rss_mib() {
  double kib = 0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmRSS:", 6) == 0) {
        kib = std::strtod(line + 6, nullptr);
        break;
      }
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

void put_slice_medians(const std::vector<Slice>& slices, bool reported,
                       RunResult& res) {
  std::vector<double> goodput, fwd, p50, p99, cpu;
  std::size_t samples = 0, fewest = SIZE_MAX;
  for (const Slice& s : slices) {
    const std::size_t n = s.latency.count();
    samples += n;
    fewest = std::min(fewest, n);
    if (reported && n < 1000) {
      res.fail("slice with fewer than 10 latency samples beyond p99");
    }
    goodput.push_back(s.messages / s.seconds);
    fwd.push_back(s.forwarded / s.seconds);
    p50.push_back(s.latency.quantile_us(0.5));
    p99.push_back(s.latency.quantile_us(0.99));
    cpu.push_back(safe_div(s.cpu_us, s.cpu_ops));
  }
  std::printf("latency samples: %zu in %zu slices (at least %zu beyond "
              "each slice's p99)\n",
              samples, slices.size(), slices.empty() ? 0 : fewest / 100);
  const auto row = [](const char* name, const std::vector<double>& v) {
    std::printf("slices %-20s", name);
    for (const double x : v) std::printf(" %12.1f", x);
    std::printf("\n");
  };
  row("goodput_msgs_per_s", goodput);
  row("relay_fwd_pps", fwd);
  row("latency_p50_us", p50);
  row("latency_p99_us", p99);
  row("cpu_us_per_op", cpu);
  Metrics& e = res.end_to_end;
  put(e, "goodput_msgs_per_s", quantile(goodput, 0.5), "msg/s");
  put(e, "relay_fwd_pps", quantile(fwd, 0.5), "frames/s");
  put(e, "latency_p50_us", quantile(p50, 0.5), "us");
  put(e, "latency_p99_us", quantile(p99, 0.5), "us");
  put(e, "cpu_us_per_op", quantile(cpu, 0.5), "us");
}

void put_net_layers(const TapCounters& d, double ops, Metrics& m) {
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  put(m, "net.recv_batch_calls_per_op", safe_div(f(d.recv_calls), ops),
      "calls/op");
  put(m, "net.frames_per_recv_batch",
      safe_div(f(d.recv_frames), f(d.recv_calls - d.recv_empty)), "frames/call");
  put(m, "net.empty_recv_share", safe_div(f(d.recv_empty), f(d.recv_calls)),
      "ratio");
  put(m, "net.frames_per_send_batch", safe_div(f(d.send_frames), f(d.send_calls)),
      "frames/call");
  put(m, "net.send_ns_per_frame", safe_div(f(d.send_ns), f(d.send_frames)), "ns");
  put(m, "net.recv_ns_per_frame", safe_div(f(d.recv_ns), f(d.recv_frames)), "ns");
}

}  // namespace pathbench
