#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

namespace perfbench {

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += seconds_between(s.start, s.end);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] +=
        seconds_between(spans_[i].start, spans_[i].end) - child[i];
  return self;
}

namespace {

std::uint64_t g_kernel_sink = 0;

/// About 10 ms of memory traffic on the measuring VM: a fresh hash map
/// filled and probed with pseudo-random keys (allocation and scattered
/// loads, like the visited set and snapshot churn), then block copies of a
/// buffer larger than L1. Fixed work; its result is kept so it is not
/// optimised away.
void reference_kernel() {
  static std::vector<std::uint64_t> src(1u << 16, 1), dst(1u << 16);
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(1u << 16);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  for (int i = 0; i < 90000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    map[x >> 47] += static_cast<std::uint64_t>(i);
  }
  for (int i = 0; i < 90000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto it = map.find(x >> 47);
    if (it != map.end()) acc += it->second;
  }
  for (std::size_t r = 0; r < 48; ++r) {
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(src[0]));
    src[r] += dst[(r * 7919) % dst.size()];
  }
  g_kernel_sink += acc + src[0];
}

}  // namespace

HostSpeed& host_speed() {
  static HostSpeed h;
  return h;
}

void HostSpeed::sample() {
  if (!enabled_) return;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  reference_kernel();
  last_ = Clock::now();
  const double wall = seconds_between(t0, last_);
  samples_.push_back(wall);
  spent_wall_s_ += wall;
  spent_cpu_s_ += process_cpu_seconds() - cpu0;
}

double HostSpeed::scale_since(std::size_t from) const {
  if (from >= samples_.size()) return 1.0;
  return kNominalS /
         median(std::vector<double>(samples_.begin() +
                                        static_cast<std::ptrdiff_t>(from),
                                    samples_.end()));
}

void Checks::job(const std::string& name, const std::string& problem) {
  ++attempted_;
  if (problem.empty()) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(name + ": " + problem);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
