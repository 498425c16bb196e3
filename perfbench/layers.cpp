#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "tso/schedulers.h"
#include "tso/visited.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Schedule = std::vector<tso::Directive>;

constexpr int kUnitReps = 5;            ///< median over this many batches
constexpr int kSchedulesPerScope = 48;  ///< random schedules per prove scope
constexpr std::uint64_t kScheduleSteps = 4000;
constexpr std::size_t kRestoreStride = 8;  ///< snapshot every n-th state
constexpr int kBuildReps = 200;
constexpr int kLivenessPairs = 3;  ///< kCheck/kOff pairs per prove scope

/// Seeded random schedules of one prove scope's scenario, crash-free.
std::vector<Schedule> random_schedules(const tpa::runtime::Scenario& s,
                                       std::uint64_t seed) {
  tso::SimConfig cfg = lean(s.sim);
  cfg.record_trace = true;
  std::vector<Schedule> out;
  for (int i = 0; i < kSchedulesPerScope; ++i) {
    tso::Simulator sim(s.n_procs, cfg);
    s.build(sim);
    tpa::Rng rng(job_seed(seed, 200, static_cast<std::uint64_t>(i)));
    tso::run_random(sim, rng, 0.3, kScheduleSteps);
    out.push_back(sim.execution().directives);
  }
  return out;
}

bool apply(tso::Simulator& sim, const tso::Directive& d) {
  switch (d.kind) {
    case tso::ActionKind::kDeliver: return sim.deliver(d.proc);
    case tso::ActionKind::kCommit: return sim.commit(d.proc, d.var);
    case tso::ActionKind::kCrash: return sim.crash(d.proc);
    case tso::ActionKind::kRecover: return sim.recover(d.proc);
  }
  return false;
}

/// Seconds to replay every schedule on fresh simulators with `cfg`, calling
/// `after(sim)` after each directive; simulator construction is not timed.
/// Median over kUnitReps batches.
template <typename After>
double replay_seconds(const tpa::runtime::Scenario& s, tso::SimConfig cfg,
                      const std::vector<Schedule>& schedules, After&& after) {
  std::vector<double> reps;
  for (int r = 0; r < kUnitReps; ++r) {
    double total = 0;
    for (const Schedule& sched : schedules) {
      tso::Simulator sim(s.n_procs, cfg);
      s.build(sim);
      const auto t0 = Clock::now();
      for (const tso::Directive& d : sched) {
        apply(sim, d);
        after(sim);
      }
      total += seconds_since(t0);
    }
    reps.push_back(total);
  }
  return median(reps);
}

volatile std::uint64_t g_sink = 0;

void measure_sim_units(std::uint64_t seed, UnitCosts& u) {
  double bare_s = 0, lean_s = 0, fp_s = 0, sym_s = 0, prog_s = 0, snap_s = 0;
  double restore_s = 0;
  std::uint64_t steps = 0, restores = 0;
  for (const ProveScope& scope : prove_scopes()) {
    const auto& s = scenario(scope.scenario);
    const std::vector<Schedule> schedules = random_schedules(s, seed);
    for (const Schedule& sched : schedules) steps += sched.size();
    tso::SimConfig bare = lean(s.sim);
    bare.check_exclusion = false;
    const tso::SimConfig cfg = lean(s.sim);
    auto nothing = [](tso::Simulator&) {};
    bare_s += replay_seconds(s, bare, schedules, nothing);
    lean_s += replay_seconds(s, cfg, schedules, nothing);
    fp_s += replay_seconds(s, cfg, schedules, [](tso::Simulator& sim) {
      g_sink = g_sink + sim.fingerprint().lo;
    });
    sym_s += replay_seconds(s, cfg, schedules, [](tso::Simulator& sim) {
      g_sink = g_sink + sim.fingerprint_symmetric().lo;
    });
    prog_s += replay_seconds(s, cfg, schedules, [](tso::Simulator& sim) {
      g_sink = g_sink + sim.fingerprint_progress().lo;
    });
    tso::SimSnapshot pool;
    snap_s += replay_seconds(s, cfg, schedules, [&](tso::Simulator& sim) {
      sim.snapshot_into(pool);
    });

    // Restores: checkpoints every kRestoreStride states, each revived into
    // one target simulator.
    std::vector<tso::SimSnapshot> snaps;
    for (const Schedule& sched : schedules) {
      tso::Simulator sim(s.n_procs, cfg);
      s.build(sim);
      for (std::size_t i = 0; i < sched.size(); ++i) {
        apply(sim, sched[i]);
        if (i % kRestoreStride == 0) snaps.push_back(sim.snapshot());
      }
    }
    std::vector<double> reps;
    for (int r = 0; r < kUnitReps; ++r) {
      tso::Simulator target(s.n_procs, cfg);
      const auto t0 = Clock::now();
      for (const tso::SimSnapshot& snap : snaps) target.restore(snap, s.build);
      reps.push_back(seconds_since(t0));
    }
    restore_s += median(reps);
    restores += snaps.size();
  }
  const double n = static_cast<double>(steps);
  u.step_ns = bare_s / n * 1e9;
  u.fingerprint_ns = (fp_s - lean_s) / n * 1e9;
  u.fingerprint_symmetric_ns = (sym_s - lean_s) / n * 1e9;
  u.fingerprint_progress_ns = (prog_s - lean_s) / n * 1e9;
  u.snapshot_ns = (snap_s - lean_s) / n * 1e9;
  u.restore_ns = restore_s / static_cast<double>(restores) * 1e9;
}

/// VisitedSet probes and inserts on random fingerprints, one set per prove
/// scope, sized to the scope's dedup_states (inserts) and dedup_hits +
/// dedup_states (probes: every pruned visit hits, every explored one
/// misses first).
void measure_visited_units(const PassLog& prove, std::uint64_t seed,
                           UnitCosts& u) {
  double insert_s = 0, probe_s = 0;
  std::uint64_t inserts = 0, probes = 0;
  tpa::Rng rng(job_seed(seed, 300, 0));
  for (const ExploreLog& e : prove.explores) {
    const std::uint64_t states = e.result.dedup_states;
    const std::uint64_t hits = e.result.dedup_hits;
    std::vector<tso::Fingerprint> fps(states);
    std::vector<tso::VisitedSet::Budget> budgets(states);
    for (std::uint64_t i = 0; i < states; ++i) {
      fps[i] = {rng(), rng()};
      budgets[i] = {static_cast<int>(rng.below(3)), 0, rng.below(600)};
    }
    tso::VisitedSet set;
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < states; ++i) set.insert(fps[i], budgets[i]);
    insert_s += seconds_since(t0);
    inserts += states;
    // Probe stream: `hits` lookups of stored entries under dominated
    // budgets, interleaved with `states` lookups of fresh fingerprints.
    std::vector<std::pair<tso::Fingerprint, tso::VisitedSet::Budget>> stream;
    stream.reserve(hits + states);
    for (std::uint64_t i = 0; i < hits && states > 0; ++i) {
      const std::uint64_t k = rng.below(states);
      stream.push_back({fps[k], {0, 0, budgets[k].steps_left / 2}});
    }
    for (std::uint64_t i = 0; i < states; ++i)
      stream.push_back({{rng(), rng()}, budgets[i]});
    std::shuffle(stream.begin(), stream.end(), rng);
    std::uint64_t found = 0;
    t0 = Clock::now();
    for (const auto& [fp, b] : stream) found += set.subsumed(fp, b) ? 1 : 0;
    probe_s += seconds_since(t0);
    probes += stream.size();
    g_sink = g_sink + found;
  }
  u.insert_ns = insert_s / static_cast<double>(inserts) * 1e9;
  u.subsumed_ns = probe_s / static_cast<double>(probes) * 1e9;
}

void measure_build(UnitCosts& u) {
  const auto t0 = Clock::now();
  int builds = 0;
  for (int r = 0; r < kBuildReps; ++r)
    for (const ProveScope& scope : prove_scopes()) {
      SpanGuard span("runtime.scenario");
      g_sink = g_sink + scenario(scope.scenario).make_simulator()->num_vars();
      ++builds;
    }
  u.build_us = seconds_since(t0) / builds * 1e6;
}

const ExploreLog* find_explore(const std::vector<ExploreLog>& v,
                               const std::string& scope) {
  for (const ExploreLog& e : v)
    if (e.scope == scope) return &e;
  return nullptr;
}

const LivenessPairs* find_pairs(const std::vector<LivenessPairs>& v,
                                const std::string& scope) {
  for (const LivenessPairs& p : v)
    if (p.scope == scope) return &p;
  return nullptr;
}

}  // namespace

void run_layer_probes(LayerRun& run, Checks& checks) {
  // Liveness keying cost: each prove scope with LivenessMode::kCheck and
  // kOff alternately, whose counts must equal the traced pass'.
  for (const ExploreLog& traced : run.prove.explores) {
    run_job(checks, "prove liveness pairs " + traced.scope, [&](Expect& ex) {
      for (const ProveScope& scope : prove_scopes()) {
        if (traced.scope != scope.scenario) continue;
        LivenessPairs pairs;
        pairs.scope = traced.scope;
        for (int i = 0; i < 2 * kLivenessPairs; ++i) {
          const bool on = i % 2 == 0;
          tso::ExplorerConfig c = prove_config(scope);
          if (!on) c.liveness = tso::LivenessMode::kOff;
          const auto t0 = Clock::now();
          tso::ExplorerResult r;
          {
            SpanGuard span("tso.explorer");
            r = scenario(scope.scenario).explore(c);
          }
          (on ? pairs.on_s : pairs.off_s).push_back(seconds_since(t0));
          ex.equal(r.schedules, traced.result.schedules, "schedules");
          ex.equal(r.steps, traced.result.steps, "events");
        }
        run.liveness.push_back(std::move(pairs));
      }
    });
  }

  // The scale scope's raw tree on one worker: the parallel speedup base.
  run_job(checks, "sequential raw", [&](Expect& ex) {
    ExploreLog& e = run.sequential_raw;
    e.scope = "seq-raw";
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    {
      SpanGuard span("tso.explorer");
      e.result = scenario(kScaleScope).explore(scale_config());
    }
    e.seconds = seconds_since(t0);
    e.cpu_seconds = process_cpu_seconds() - cpu0;
    ex.equal(e.result.schedules, kScaleRawSchedules, "schedules");
    ex.equal(e.result.truncated, kScaleRawTruncated, "truncated");
  });

  // Invariant verification cost: each construction with verification off,
  // which must not perturb the construction.
  for (const ConstructionLog& on : run.adversary.constructions) {
    run_job(checks, "construction verify-off " + on.key, [&](Expect& ex) {
      for (const ConstructionSpec& spec : constructions()) {
        if (spec.key() != on.key) continue;
        ConstructionLog off = run_construction(spec, false);
        ex.equal(off.result.rounds, on.result.rounds, "rounds");
        ex.equal(off.result.total_events, on.result.total_events, "events");
        run.verify_off.push_back(std::move(off));
      }
    });
  }

  zoo_cost_runs(run.seed, false, checks, run.zoo_bare);

  {
    SpanGuard span("tso.sim");
    measure_sim_units(run.seed, run.units);
  }
  {
    SpanGuard span("tso.visited");
    measure_visited_units(run.prove, run.seed, run.units);
  }
  measure_build(run.units);
}

Metrics layer_metrics(const LayerRun& run, std::vector<std::string>& notes) {
  Metrics m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const UnitCosts& u = run.units;

  // tso.sim
  add("sim.step_ns", u.step_ns, "ns");
  add("sim.snapshot_ns", u.snapshot_ns, "ns");
  add("sim.restore_ns", u.restore_ns, "ns");
  add("sim.fingerprint_ns", u.fingerprint_ns, "ns");
  add("sim.fingerprint_symmetric_ns", u.fingerprint_symmetric_ns, "ns");
  add("sim.fingerprint_progress_ns", u.fingerprint_progress_ns, "ns");

  // tso.observers
  auto rate = [](const std::vector<ZooLog>& zoo) {
    double s = 0, e = 0;
    for (const ZooLog& z : zoo) {
      s += z.seconds;
      e += static_cast<double>(z.events);
    }
    return s > 0 ? e / s : 0.0;
  };
  const double bare_rate = rate(run.zoo_bare.zoo);
  const double observed_rate = rate(run.adversary.zoo);
  add("sim.events_per_s_bare", bare_rate, "1/s");
  add("sim.events_per_s_observed", observed_rate, "1/s");
  add("observers.overhead_ratio",
      observed_rate > 0 ? bare_rate / observed_rate : 0.0, "ratio");

  // tso.explorer, per prove scope, with the driver's residual self time:
  // the median liveness-off exploration (same counts) minus counts x unit
  // costs, so the liveness keying cost stays out of it. The liveness cost
  // is the median over back-to-back pairs of kCheck minus kOff.
  double hits = 0, states = 0, entries = 0, bytes = 0, evictions = 0;
  double liveness_extra = 0;
  int mismeasured = 0;
  for (const ProveScope& scope : prove_scopes()) {
    const ExploreLog* on = find_explore(run.prove.explores, scope.scenario);
    const LivenessPairs* pairs = find_pairs(run.liveness, scope.scenario);
    if (on == nullptr || pairs == nullptr) continue;
    const tso::ExplorerResult& r = on->result;
    const std::string tag = std::string(".") + scope.scenario;
    std::vector<double> extra;
    for (std::size_t i = 0; i < pairs->on_s.size(); ++i)
      extra.push_back(pairs->on_s[i] - pairs->off_s[i]);
    liveness_extra += median(extra);
    const double off_s = median(pairs->off_s);
    const double fp_ns =
        scope.symmetry ? u.fingerprint_symmetric_ns : u.fingerprint_ns;
    const double probes =
        static_cast<double>(r.dedup_hits + r.dedup_states);
    const double unit_s =
        (static_cast<double>(r.steps) * u.step_ns +
         static_cast<double>(r.snapshots) * u.snapshot_ns +
         static_cast<double>(r.restores) * u.restore_ns +
         probes * (fp_ns + u.subsumed_ns) +
         static_cast<double>(r.dedup_states) * u.insert_ns) *
        1e-9;
    if (unit_s > off_s) {
      ++mismeasured;
      char line[200];
      std::snprintf(line, sizeof line,
                    "unit costs mis-measured on %s: counts x unit costs = "
                    "%.3f s > liveness-off explore = %.3f s",
                    scope.scenario, unit_s, off_s);
      notes.push_back(line);
    }
    add("explorer.explore_s" + tag, on->seconds, "s");
    add("explorer.events" + tag, static_cast<double>(r.steps), "count");
    add("explorer.schedules" + tag, static_cast<double>(r.schedules), "count");
    add("explorer.snapshots" + tag, static_cast<double>(r.snapshots), "count");
    add("explorer.restores" + tag, static_cast<double>(r.restores), "count");
    add("explorer.events_per_s" + tag,
        static_cast<double>(r.steps) / on->seconds, "1/s");
    add("explorer.driver_self_s" + tag, off_s - unit_s, "s");
    hits += static_cast<double>(r.dedup_hits);
    states += static_cast<double>(r.dedup_states);
    entries += static_cast<double>(r.dedup_entries);
    bytes += static_cast<double>(r.dedup_bytes);
    evictions += static_cast<double>(r.dedup_evictions);
  }
  add("explorer.unit_cost_violations", mismeasured, "count");

  // tso.visited
  add("visited.subsumed_ns", u.subsumed_ns, "ns");
  add("visited.insert_ns", u.insert_ns, "ns");
  add("visited.hit_ratio", hits + states > 0 ? hits / (hits + states) : 0.0,
      "ratio");
  add("visited.entries", entries, "count");
  add("visited.bytes", bytes, "B");
  add("visited.evictions", evictions, "count");

  // liveness
  add("liveness.extra_s", liveness_extra, "s");
  double lasso_s = 0, lasso_replays = 0;
  for (const LassoLog& l : run.hunt.lassos) {
    lasso_s += l.total_s;
    lasso_replays += static_cast<double>(l.shrink_replays);
  }
  add("lasso.hunt_s", lasso_s, "s");
  add("lasso.shrink_replays", lasso_replays, "count");

  // tso.fuzz and trace.format, over the hunt pass
  double runs = 0, fuzz_s = 0, shrink_s = 0, shrink_replays = 0, raw = 0,
         shrunk = 0, replay_s = 0, roundtrip_s = 0, hit_count = 0;
  for (const HuntLog& h : run.hunt.hunts) {
    runs += static_cast<double>(h.runs);
    fuzz_s += h.fuzz_s;
    if (!h.hit) continue;
    ++hit_count;
    shrink_s += h.shrink_s;
    shrink_replays += static_cast<double>(h.shrink_replays);
    raw += static_cast<double>(h.raw_len);
    shrunk += static_cast<double>(h.shrunk_len);
    replay_s += h.replay_s;
    roundtrip_s += h.roundtrip_s;
  }
  const double hunts = static_cast<double>(run.hunt.hunts.size());
  add("fuzz.runs_per_s", fuzz_s > 0 ? runs / fuzz_s : 0.0, "1/s");
  add("fuzz.hit_ratio", hunts > 0 ? hit_count / hunts : 0.0, "ratio");
  add("shrink.s", shrink_s, "s");
  add("shrink.replays", shrink_replays, "count");
  add("shrink.len_ratio", raw > 0 ? shrunk / raw : 0.0, "ratio");
  add("replay.strict_us", hit_count > 0 ? replay_s / hit_count * 1e6 : 0.0,
      "us");
  add("witness.roundtrip_us",
      hit_count > 0 ? roundtrip_s / hit_count * 1e6 : 0.0, "us");

  // trace.campaign
  CampaignLog camp;
  if (!run.scale.campaigns.empty()) camp = run.scale.campaigns.front();
  add("campaign.write_ms", camp.write_ms, "ms");
  add("campaign.bytes", static_cast<double>(camp.bytes), "B");
  add("campaign.resume_s", camp.resume_s, "s");
  add("campaign.cut_frontier", static_cast<double>(camp.frontier), "count");

  // trace.analyzer + trace.inset, through the construction's verification
  double verify_s = 0;
  for (const ConstructionLog& on : run.adversary.constructions)
    for (const ConstructionLog& off : run.verify_off)
      if (on.key == off.key) verify_s += on.seconds - off.seconds;
  add("construction.verify_s", verify_s, "s");

  // lowerbound, per (lock, N)
  for (const ConstructionSpec& spec : constructions())
    for (const ConstructionLog& c : run.adversary.constructions) {
      if (c.key != spec.key()) continue;
      const std::string tag = "." + c.key;
      add("construction.s" + tag, c.seconds, "s");
      add("construction.events" + tag,
          static_cast<double>(c.result.total_events), "count");
      add("construction.replays" + tag,
          static_cast<double>(c.result.replays), "count");
      add("construction.rounds" + tag, c.result.rounds, "count");
    }

  // parallel
  const ExploreLog* par_raw = find_explore(run.scale.explores, "par-raw");
  const ExploreLog* par_dedup = find_explore(run.scale.explores, "par-dedup");
  const ExploreLog* seq_dedup = find_explore(run.prove.explores, kScaleScope);
  add("parallel.speedup",
      par_raw ? run.sequential_raw.seconds / par_raw->seconds : 0.0, "ratio");
  add("parallel.cpu_util",
      par_raw ? par_raw->cpu_seconds / (par_raw->seconds * scale_threads())
              : 0.0,
      "ratio");
  add("parallel.dedup_drift",
      par_dedup && seq_dedup
          ? static_cast<double>(par_dedup->result.schedules) -
                static_cast<double>(seq_dedup->result.schedules)
          : 0.0,
      "count");

  // runtime.scenario
  add("scenario.build_us", u.build_us, "us");

  // The trace itself: self time per layer over the whole traced sweep, and
  // the overhead of recording it on the chosen workload.
  for (const auto& [name, seconds] : tracer().self_seconds())
    add("self_s." + name, seconds, "s");
  add("trace.spans", static_cast<double>(tracer().size()), "count");
  add("trace.overhead_s", run.traced_s - run.untraced_s, "s");
  return m;
}

}  // namespace perfbench
