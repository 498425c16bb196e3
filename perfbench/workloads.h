// The benchmark's four workloads. Each is a fixed job set derived from the
// run's seed: set-up resolves scenarios and builds the first simulators,
// and every pass runs the whole job set and checks every verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "runtime/scenario.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// What a user pays before the first verdict: registry lookups, lock
  /// factories, the first simulator of every job, and a small warm-up run
  /// of each job's entry point (a zero-preemption exploration, a few fuzz
  /// runs, an 8-process construction). Repeatable; measured as setup_s.
  virtual void setup() = 0;
  /// One pass over the job set: fills `log` job by job and records every
  /// job's verdict in `checks`.
  virtual void pass(Checks& checks, PassLog& log) = 0;
};

/// `workdir` holds the scale workload's campaign files.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir);

const std::vector<std::string>& workload_names();

/// A smaller job set of always-hitting hunts, no lasso: the source of the
/// hunt latency metrics on the workloads that hunt nothing themselves.
std::unique_ptr<Workload> make_hunt_probe(std::uint64_t seed);

/// Registry lookup that fails loudly on an unknown id.
const tpa::runtime::Scenario& scenario(const char* name);

/// The seed of job `index` of stream `stream`, derived from the run's seed.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index);

/// Runs `fn(Expect&)` as one checked job; a throw from the library fails
/// the job instead of the run. Between jobs the host's speed may be
/// sampled (HostSpeed::tick).
template <typename Fn>
void run_job(Checks& checks, const std::string& name, Fn&& fn) {
  Expect expect;
  try {
    fn(expect);
  } catch (const std::exception& e) {
    expect.that(false, std::string("threw: ") + e.what());
  }
  checks.job(name, expect.problem());
  host_speed().tick();
}

/// The prove workload's exploration config for one scope, also used by the
/// layer probes.
struct ProveScope {
  const char* scenario;
  int preemptions;
  int max_crashes;
  std::uint64_t max_steps;
  bool symmetry;
  std::uint64_t schedules;  ///< expected exact sequential counts
  std::uint64_t events;
};

const std::vector<ProveScope>& prove_scopes();

tso::ExplorerConfig prove_config(const ProveScope& scope);

/// The explorer and fuzzer drop every observer but the exclusion checker
/// when no hook needs them; shrinking and lasso replay from outside the
/// library use the same lean configuration.
tso::SimConfig lean(tso::SimConfig config);

/// One lower-bound construction of the adversary workload.
struct ConstructionSpec {
  const char* lock;
  int n;
  int rounds;            ///< forced rounds the construction must reach
  std::int64_t replays;  ///< expected erasure replays, or -1 (unchecked)
  std::string key() const { return std::string(lock) + "-" + std::to_string(n); }
};

const std::vector<ConstructionSpec>& constructions();

/// Runs one construction (invariant verification on or off), timed.
ConstructionLog run_construction(const ConstructionSpec& spec, bool verify);

/// The scale workload's scope and bound: bakery-tso-3p, two preemptions,
/// 200 steps, whose raw tree holds exactly these schedules.
inline constexpr const char* kScaleScope = "bakery-tso-3p";
inline constexpr std::uint64_t kScaleRawSchedules = 22402;
inline constexpr std::uint64_t kScaleRawTruncated = 51951;

tso::ExplorerConfig scale_config();

/// Parallel workers of the scale workload: the core count, at most four.
int scale_threads();

/// The full-observer zoo runs (adversary workload), also run bare by the
/// layer probes: every lock in the zoo at n=16 under a seeded random
/// scheduler.
void zoo_cost_runs(std::uint64_t seed, bool observed, Checks& checks,
                   PassLog& log);

}  // namespace perfbench
