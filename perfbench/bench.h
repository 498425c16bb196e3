// Shared plumbing of the time-to-verdict benchmark: clocks, the in-memory
// span recorder, verdict bookkeeping, and the per-pass logs the workloads
// fill in and the metric code reads.
//
// Everything here lives outside the tpa library: spans and timings are taken
// around calls into the library's public functions, never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lowerbound/construction.h"
#include "tso/explorer.h"

namespace perfbench {

namespace lowerbound = tpa::lowerbound;
namespace tso = tpa::tso;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// User + system CPU seconds of the whole process (all threads, including
/// worker threads that already exited).
double process_cpu_seconds();

/// The process' peak resident set size so far, in MiB.
double peak_rss_mb();

// ---- spans ------------------------------------------------------------------

/// Spans recorded around calls into the library: name, start, end and the
/// enclosing span. Kept in memory and summarised once the run ends. When
/// disabled, opening a span costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;  ///< index of the enclosing span, or -1 at the root
    Clock::time_point start;
    Clock::time_point end;
  };

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  int open(const char* name) {
    spans_.push_back({name, current_, Clock::now(), {}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  std::size_t size() const { return spans_.size(); }
  void clear() {
    spans_.clear();
    current_ = -1;
  }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover.
  std::map<std::string, double> self_seconds() const;

 private:
  bool enabled_ = false;
  int current_ = -1;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// Opens a span on construction and closes it on destruction (no-op while
/// tracing is off).
class SpanGuard {
 public:
  explicit SpanGuard(const char* name)
      : id_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~SpanGuard() {
    if (id_ >= 0) tracer().close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  int id_;
};

// ---- host speed -------------------------------------------------------------

/// The speed the shared host gives the run, measured by a fixed reference
/// kernel that calls nothing in the library: hash-table churn and block
/// copies, the kind of memory traffic the explorer and the fuzzer make. On
/// a shared host the same pass can take 1.5x as long from one minute to the
/// next, and the kernel slows with it. Samples are taken at pass boundaries
/// and between jobs; the time spent in them is kept apart so the passes can
/// leave it out.
class HostSpeed {
 public:
  /// The kernel's time on the measuring VM when it was quiet: a timed pass
  /// is scaled by kNominalS / (the kernel's median time around the pass).
  static constexpr double kNominalS = 0.0100;
  /// Least time between two samples taken between jobs.
  static constexpr double kIntervalS = 0.2;

  bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  /// Runs the kernel once, timed (no-op while disabled).
  void sample();
  /// Between jobs: samples when kIntervalS has passed since the last one.
  void tick() {
    if (enabled_ && seconds_since(last_) >= kIntervalS) sample();
  }

  std::size_t samples() const { return samples_.size(); }
  /// kNominalS over the median kernel time of the samples from index
  /// `from` on; 1 when there are none (disabled).
  double scale_since(std::size_t from) const;
  /// Wall and CPU seconds spent in the kernel so far.
  double spent_wall_s() const { return spent_wall_s_; }
  double spent_cpu_s() const { return spent_cpu_s_; }

 private:
  bool enabled_ = false;
  Clock::time_point last_{};
  std::vector<double> samples_;
  double spent_wall_s_ = 0;
  double spent_cpu_s_ = 0;
};

HostSpeed& host_speed();

// ---- verdict checks -------------------------------------------------------

/// Every job's verdict is checked; a job with any failed expectation counts
/// as failed.
class Checks {
 public:
  /// Records one job; `problem` is empty when the job's verdict held.
  void job(const std::string& name, const std::string& problem);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Accumulates the reasons a job's verdict is wrong.
class Expect {
 public:
  void that(bool ok, const std::string& what) {
    if (!ok) problem_ += (problem_.empty() ? "" : "; ") + what;
  }
  template <typename A, typename B>
  void equal(const A& got, const B& want, const char* what) {
    if (!(got == want))
      that(false, std::string(what) + " = " + std::to_string(got) +
                      ", expected " + std::to_string(want));
  }
  const std::string& problem() const { return problem_; }

 private:
  std::string problem_;
};

/// Added to one expected figure per workload by --wrong-expectation, so the
/// self-test can show that a wrong expectation fails the run.
extern std::uint64_t g_expectation_skew;

// ---- per-pass logs ----------------------------------------------------------

struct ExploreLog {
  std::string scope;
  double seconds = 0;
  double cpu_seconds = 0;
  tso::ExplorerResult result;
};

struct HuntLog {
  std::string scenario;
  bool hit = false;
  double total_s = 0;      ///< fuzz through verified witness (or the miss)
  double fuzz_s = 0;
  double shrink_s = 0;
  double roundtrip_s = 0;  ///< witness write + read
  double replay_s = 0;     ///< strict replay of the shrunk witness
  std::uint64_t runs = 0;
  std::uint64_t shrink_replays = 0;
  std::size_t raw_len = 0;
  std::size_t shrunk_len = 0;
};

struct LassoLog {
  double total_s = 0;  ///< detect, shrink, round trip and replay
  std::uint64_t shrink_replays = 0;
  std::size_t shrunk_len = 0;
};

struct ConstructionLog {
  std::string key;  ///< "<lock>-<N>"
  double seconds = 0;
  lowerbound::ConstructionResult result;
};

struct ZooLog {
  double seconds = 0;
  std::uint64_t events = 0;
};

/// The cut is paced by wall clock: its frontier size does not repeat.
struct CampaignLog {
  double resume_s = 0;  ///< runtime::resume to the end
  double write_ms = 0;  ///< trace::write_campaign_file of the cut state
  std::uint64_t bytes = 0;
  std::size_t frontier = 0;  ///< unexplored subtree roots at the cut
};

/// What one pass of a workload did, job by job.
struct PassLog {
  double wall_s = 0;  ///< without the host-speed samples taken inside it
  double cpu_s = 0;   ///< user + system CPU of the same pass, likewise
  /// HostSpeed::kNominalS over the reference kernel's median time around
  /// and inside the pass (1 when host-speed sampling is off).
  double host_scale = 1;
  std::vector<ExploreLog> explores;
  std::vector<HuntLog> hunts;
  std::vector<LassoLog> lassos;
  std::vector<ConstructionLog> constructions;
  std::vector<ZooLog> zoo;
  std::vector<CampaignLog> campaigns;
  std::uint64_t witness_directives = 0;
};

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v);

/// Linear-interpolated percentile (q in [0, 1]) of a sample.
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
