// Per-layer figures for the traced run: unit costs timed on states the
// prove scopes reach, counts read from the library's result structs, and
// derived figures (the explorer driver's residual self time, parallel
// speedup, tracing overhead).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Metrics = std::vector<Metric>;

/// Unit costs of single library calls, timed in batches.
struct UnitCosts {
  double step_ns = 0;  ///< deliver/commit on the bare core
  double snapshot_ns = 0;
  double restore_ns = 0;
  double fingerprint_ns = 0;
  double fingerprint_symmetric_ns = 0;
  double fingerprint_progress_ns = 0;
  double subsumed_ns = 0;  ///< VisitedSet::subsumed
  double insert_ns = 0;    ///< VisitedSet::insert
  double build_us = 0;     ///< Scenario::make_simulator
};

/// The liveness keying cost of one prove scope: explorations with
/// LivenessMode::kCheck and kOff, alternated back to back, same counts.
struct LivenessPairs {
  std::string scope;
  std::vector<double> on_s, off_s;
};

/// Everything the traced run collected: one traced pass of every workload
/// plus the extra runs the derived figures compare against.
struct LayerRun {
  std::uint64_t seed = 0;
  PassLog prove, hunt, adversary, scale;
  std::vector<LivenessPairs> liveness;         ///< per prove scope
  ExploreLog sequential_raw;                   ///< scale scope, one worker
  std::vector<ConstructionLog> verify_off;     ///< constructions, no verify
  PassLog zoo_bare;                            ///< zoo runs, bare core
  UnitCosts units;
  double untraced_s = 0;  ///< the chosen workload's pass, untraced
  double traced_s = 0;    ///< the same pass, traced
};

/// The extra runs of the traced sweep (everything in LayerRun but the
/// workload passes), with their verdicts checked.
void run_layer_probes(LayerRun& run, Checks& checks);

/// Every per-layer metric, in a fixed order; `notes` collects what the run
/// should report beside the numbers (mis-measured unit costs).
Metrics layer_metrics(const LayerRun& run, std::vector<std::string>& notes);

}  // namespace perfbench
