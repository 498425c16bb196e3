#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "algos/zoo.h"
#include "runtime/scenario.h"
#include "trace/campaign.h"
#include "trace/format.h"
#include "tso/fuzz.h"
#include "tso/schedulers.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

namespace algos = tpa::algos;
namespace runtime = tpa::runtime;
namespace trace = tpa::trace;

using runtime::Scenario;

const Scenario& scenario(const char* name) {
  const Scenario* s = runtime::find_scenario(name);
  TPA_CHECK(s != nullptr, "scenario '" << name << "' is not in the registry");
  return *s;
}

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  std::uint64_t s = seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                    (index * 0xd1b54a32d192ed03ULL);
  return tpa::splitmix64(s);
}

namespace {

bool same_directives(const std::vector<tso::Directive>& a,
                     const std::vector<tso::Directive>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const tso::Directive& x, const tso::Directive& y) {
                      return x.kind == y.kind && x.proc == y.proc &&
                             x.var == y.var;
                    });
}

// ---- prove ------------------------------------------------------------------

/// Sequential exhaustive certification of the clean registry scopes, as a
/// user runs them: state dedup plus liveness checking.
class Prove : public Workload {
 public:
  explicit Prove(std::uint64_t seed) {
    for (std::size_t i = 0; i < prove_scopes().size(); ++i) order_.push_back(i);
    tpa::Rng rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  void setup() override {
    for (const ProveScope& scope : prove_scopes()) {
      const Scenario& s = scenario(scope.scenario);
      s.make_simulator();
      tso::ExplorerConfig warm = prove_config(scope);
      warm.preemptions = 0;
      s.explore(warm);
    }
  }

  void pass(Checks& checks, PassLog& log) override {
    for (std::size_t i : order_) {
      const ProveScope& scope = prove_scopes()[i];
      run_job(checks, std::string("prove ") + scope.scenario, [&](Expect& ex) {
        ExploreLog e;
        e.scope = scope.scenario;
        const Scenario& s = scenario(scope.scenario);
        const auto t0 = Clock::now();
        {
          SpanGuard span("tso.explorer");
          e.result = s.explore(prove_config(scope));
        }
        e.seconds = seconds_since(t0);
        const tso::ExplorerResult& r = e.result;
        ex.that(r.verdict.kind == tso::VerdictKind::kClean,
                std::string("verdict ") + tso::to_string(r.verdict.kind));
        ex.that(r.exhausted && !r.deadline_hit, "not exhausted");
        ex.equal(r.schedules,
                 scope.schedules + (i == 0 ? g_expectation_skew : 0),
                 "schedules");
        ex.equal(r.steps, scope.events, "events");
        log.explores.push_back(std::move(e));
      });
    }
  }

 private:
  std::vector<std::size_t> order_;
};

// ---- hunt -------------------------------------------------------------------

struct HuntSpec {
  const char* scenario;
  std::uint64_t hunts;  ///< fuzz seeds per pass
  std::uint64_t runs;   ///< FuzzConfig::runs per seed
  double crash_prob;
};

/// Run caps keep every hunt's time bounded, so the latency percentiles do
/// not ride on a geometric tail: the PSO bug's first hit comes after ~5000
/// runs on average (1000 runs hit about one seed in five), the fence-free
/// recoverable lock's after ~100 (300 runs hit about nine in ten), the
/// fence-free 3-process bakery's on the first run. The bakery hunts are
/// about two thirds of the hits, so the median hunt is one of them and does
/// not move with a seed's draw of geometric hit times; the PSO and
/// recoverable hits make the tail that p90 reads.
const HuntSpec kHunts[] = {
    {"bakery-tso-pso-2p", 300, 1000, 0.0},
    {"recoverable-nofence-2p", 400, 300, 0.1},
    {"bakery-none-3p", 800, 5000, 0.0},
};

/// The hunt latency probe the other workloads run after each timed pass:
/// one homogeneous hunt set that hits on the first run.
const HuntSpec kProbeHunts[] = {
    {"bakery-none-3p", 300, 5000, 0.0},
};

constexpr std::uint64_t kWarmFuzzRuns = 20;  ///< set-up's fuzz warm-up

/// One bug hunt to a verified, minimal, replayable witness: fuzz, ddmin,
/// format round trip, strict replay.
void hunt_one(const Scenario& s, const HuntSpec& spec, std::uint64_t seed,
              Expect& ex, HuntLog& h) {
  h.scenario = s.name;
  const auto t0 = Clock::now();
  tso::FuzzConfig fc;
  fc.seed = seed;
  fc.runs = spec.runs;
  fc.crash_prob = spec.crash_prob;
  fc.shrink = false;
  tso::FuzzResult fr;
  {
    SpanGuard span("tso.fuzz");
    fr = s.fuzz(fc);
  }
  const auto t1 = Clock::now();
  h.fuzz_s = seconds_between(t0, t1);
  h.runs = fr.schedules;
  if (!fr.verdict.found()) {
    ex.equal(fr.schedules, spec.runs, "runs of a miss");
    h.total_s = seconds_since(t0);
    return;
  }
  h.hit = true;
  ex.that(fr.verdict.kind == tso::VerdictKind::kSafety, "not a safety hit");
  h.raw_len = fr.verdict.raw_witness.size();

  tso::ShrinkOutcome shrunk;
  {
    SpanGuard span("tso.fuzz");
    shrunk = tso::shrink_witness(s.n_procs, lean(s.sim), s.build,
                                 fr.verdict.raw_witness);
  }
  const auto t2 = Clock::now();
  h.shrink_s = seconds_between(t1, t2);
  h.shrink_replays = shrunk.replays;
  h.shrunk_len = shrunk.witness.size();
  ex.that(!shrunk.violation.empty(), "shrunk witness does not violate");
  ex.that(h.shrunk_len <= h.raw_len, "shrinking grew the witness");

  trace::Witness w;
  w.scenario = s.name;
  w.n_procs = s.n_procs;
  w.pso = s.sim.pso;
  w.crash_model = s.sim.crash_model;
  w.violation = runtime::violation_detail(shrunk.violation);
  w.directives = shrunk.witness;
  trace::Witness back;
  {
    SpanGuard span("trace.format");
    back = trace::witness_from_string(trace::witness_to_string(w));
  }
  const auto t3 = Clock::now();
  h.roundtrip_s = seconds_between(t2, t3);
  ex.that(back.scenario == w.scenario && back.violation == w.violation &&
              back.n_procs == w.n_procs && back.pso == w.pso &&
              same_directives(back.directives, w.directives),
          "witness round trip changed the witness");

  std::string replayed;
  {
    SpanGuard span("tso.schedule");
    try {
      s.replay(back.directives);
    } catch (const tpa::CheckFailure& e) {
      replayed = e.what();
    }
  }
  h.replay_s = seconds_since(t3);
  ex.that(runtime::violation_detail(replayed) == back.violation,
          "strict replay gave '" + replayed + "', expected '" +
              back.violation + "'");
  h.total_s = seconds_since(t0);
}

/// The explorer's liveness hunt on the unfair spin lock: detect a
/// starvation lasso, shrink it, replay it, round-trip it as a v3 witness.
void lasso_hunt(Expect& ex, LassoLog& l, bool wrong) {
  const Scenario& s = scenario("tas-loop-2p");
  const auto t0 = Clock::now();
  tso::ExplorerConfig c;
  c.preemptions = 4;
  c.dedup = tso::DedupMode::kState;
  c.liveness = tso::LivenessMode::kCheck;
  c.shrink = false;
  tso::ExplorerResult r;
  {
    SpanGuard span("tso.explorer");
    r = s.explore(c);
  }
  const tso::VerdictKind want =
      wrong ? tso::VerdictKind::kLivelock : tso::VerdictKind::kStarvation;
  ex.that(r.verdict.kind == want && r.verdict.is_lasso(),
          std::string("lasso verdict ") + tso::to_string(r.verdict.kind) +
              ", expected a " + tso::to_string(want) + " lasso");
  if (!r.verdict.is_lasso()) return;

  tso::LassoShrinkOutcome shrunk;
  {
    SpanGuard span("tso.fuzz");
    shrunk = tso::shrink_lasso(s.n_procs, lean(s.sim), s.build,
                               r.verdict.witness, r.verdict.cycle_start,
                               r.verdict.kind);
  }
  l.shrink_replays = shrunk.replays;
  l.shrunk_len = shrunk.witness.size();

  trace::Witness w;
  w.scenario = s.name;
  w.n_procs = s.n_procs;
  w.violation = r.verdict.message;
  w.verdict_kind = r.verdict.kind;
  w.cycle_start = shrunk.cycle_start;
  w.directives = shrunk.witness;
  std::string text;
  trace::Witness back;
  {
    SpanGuard span("trace.format");
    text = trace::witness_to_string(w);
    back = trace::witness_from_string(text);
  }
  ex.that(text.rfind("tpa-witness v3", 0) == 0, "lasso not written as v3");
  ex.that(back.verdict_kind == w.verdict_kind &&
              back.cycle_start == w.cycle_start &&
              same_directives(back.directives, w.directives),
          "lasso round trip changed the witness");

  const auto cut =
      back.directives.begin() + static_cast<std::ptrdiff_t>(back.cycle_start);
  tso::LassoReplay replay;
  {
    SpanGuard span("tso.fuzz");
    replay = tso::replay_lasso(s.n_procs, s.sim, s.build,
                               {back.directives.begin(), cut},
                               {cut, back.directives.end()});
  }
  ex.that(replay.closes && replay.kind == r.verdict.kind,
          "shrunk lasso does not close as " +
              std::string(tso::to_string(r.verdict.kind)));
  l.total_s = seconds_since(t0);
}

/// Many homogeneous bug hunts, each to a minimal replayable witness, plus
/// one explorer lasso hunt per pass.
class Hunt : public Workload {
 public:
  Hunt(std::uint64_t seed, bool probe)
      : specs_(probe ? std::vector<HuntSpec>(std::begin(kProbeHunts),
                                             std::end(kProbeHunts))
                     : std::vector<HuntSpec>(std::begin(kHunts),
                                             std::end(kHunts))),
        lasso_(!probe) {
    for (std::size_t k = 0; k < specs_.size(); ++k)
      for (std::uint64_t i = 0; i < specs_[k].hunts; ++i)
        jobs_.push_back({k, job_seed(seed, k, i)});
  }

  void setup() override {
    for (const HuntSpec& spec : specs_) {
      const Scenario& s = scenario(spec.scenario);
      s.make_simulator();
      tso::FuzzConfig warm;
      warm.runs = kWarmFuzzRuns;
      warm.crash_prob = spec.crash_prob;
      warm.shrink = false;
      s.fuzz(warm);
    }
    if (lasso_) scenario("tas-loop-2p").make_simulator();
  }

  void pass(Checks& checks, PassLog& log) override {
    for (const Job& job : jobs_) {
      const HuntSpec& spec = specs_[job.spec];
      HuntLog h;
      run_job(checks, std::string("hunt ") + spec.scenario, [&](Expect& ex) {
        hunt_one(scenario(spec.scenario), spec, job.seed, ex, h);
      });
      if (h.hit) log.witness_directives += h.shrunk_len;
      log.hunts.push_back(std::move(h));
    }
    if (!lasso_) return;
    LassoLog l;
    run_job(checks, "lasso tas-loop-2p", [&](Expect& ex) {
      lasso_hunt(ex, l, g_expectation_skew != 0);
    });
    log.witness_directives += l.shrunk_len;
    log.lassos.push_back(l);
  }

 private:
  struct Job {
    std::size_t spec;
    std::uint64_t seed;
  };
  std::vector<HuntSpec> specs_;
  bool lasso_;
  std::vector<Job> jobs_;
};

// ---- adversary --------------------------------------------------------------

constexpr int kZooProcs = 16;
constexpr int kZooPassages = 4;
constexpr int kZooRuns = 30;  ///< seeded runs per lock
constexpr std::uint64_t kZooMaxSteps = 100'000'000;
constexpr int kWarmProcs = 8;  ///< set-up's construction warm-up size

/// The paper's own traffic: the lower-bound construction against adaptive
/// locks and non-adaptive controls, plus full-observer zoo cost runs.
class Adversary : public Workload {
 public:
  explicit Adversary(std::uint64_t seed) : seed_(seed) {
    for (std::size_t i = 0; i < constructions().size(); ++i)
      order_.push_back(i);
    tpa::Rng rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  void setup() override {
    for (const ConstructionSpec& c : constructions()) {
      tso::Simulator sim(static_cast<std::size_t>(c.n));
      runtime::zoo_scenario(c.lock, c.n, 1)(sim);
      lowerbound::Construction(kWarmProcs,
                               runtime::zoo_scenario(c.lock, kWarmProcs, 1))
          .run();
    }
    for (const auto& f : algos::lock_zoo()) {
      tso::Simulator sim(kZooProcs);
      runtime::zoo_scenario(f.name.c_str(), kZooProcs, 1)(sim);
      tpa::Rng rng(0);
      tso::run_random(sim, rng, 0.3, kZooMaxSteps);
    }
  }

  void pass(Checks& checks, PassLog& log) override {
    bool first = true;
    for (std::size_t i : order_) {
      const ConstructionSpec& spec = constructions()[i];
      run_job(checks, "construction " + spec.key(), [&](Expect& ex) {
        ConstructionLog c = run_construction(spec, true);
        ex.that(c.result.invariants_ok,
                "invariants broken: " + c.result.invariant_detail);
        ex.equal(c.result.rounds,
                 spec.rounds + static_cast<int>(first ? g_expectation_skew : 0),
                 "rounds");
        if (spec.replays >= 0)
          ex.equal(static_cast<std::int64_t>(c.result.replays), spec.replays,
                   "replays");
        log.constructions.push_back(std::move(c));
      });
      first = false;
    }
    zoo_cost_runs(seed_, true, checks, log);
  }

 private:
  std::uint64_t seed_;
  std::vector<std::size_t> order_;
};

// ---- scale ------------------------------------------------------------------

constexpr std::uint64_t kCampaignCutMs = 300;

/// Long runs at scale: parallel raw and dedup exploration on up to four
/// workers, and a durable campaign cut by its time budget and resumed.
class Scale : public Workload {
 public:
  explicit Scale(std::string workdir)
      : campaign_(workdir + "/scale-" + std::to_string(::getpid()) +
                  ".campaign") {}

  ~Scale() override {
    std::error_code ec;
    std::filesystem::remove(campaign_, ec);
    std::filesystem::remove(campaign_ + ".copy", ec);
  }

  void setup() override {
    const Scenario& s = scenario(kScaleScope);
    s.make_simulator();
    for (bool dedup : {false, true}) {
      tso::ExplorerConfig warm = scale_config();
      warm.preemptions = 0;
      warm.threads = scale_threads();
      if (dedup) warm.dedup = tso::DedupMode::kState;
      s.explore(warm);
    }
  }

  void pass(Checks& checks, PassLog& log) override {
    const Scenario& s = scenario(kScaleScope);
    for (bool dedup : {false, true}) {
      run_job(checks, dedup ? "parallel dedup" : "parallel raw",
              [&](Expect& ex) {
        tso::ExplorerConfig c = scale_config();
        c.threads = scale_threads();
        if (dedup) c.dedup = tso::DedupMode::kState;
        ExploreLog e;
        e.scope = dedup ? "par-dedup" : "par-raw";
        const double cpu0 = process_cpu_seconds();
        const auto t0 = Clock::now();
        {
          SpanGuard span("tso.explorer");
          e.result = s.explore(c);
        }
        e.seconds = seconds_since(t0);
        e.cpu_seconds = process_cpu_seconds() - cpu0;
        const tso::ExplorerResult& r = e.result;
        ex.that(r.verdict.kind == tso::VerdictKind::kClean &&
                    r.exhausted && !r.deadline_hit,
                "parallel run not clean and exhausted");
        if (dedup) {
          ex.that(r.schedules > 0 && r.schedules <= kScaleRawSchedules,
                  "dedup schedules out of range");
        } else {
          ex.equal(r.schedules, kScaleRawSchedules + g_expectation_skew,
                   "schedules");
          ex.equal(r.truncated, kScaleRawTruncated, "truncated");
        }
        log.explores.push_back(std::move(e));
      });
    }
    run_job(checks, "campaign cut+resume", [&](Expect& ex) {
      CampaignLog c;
      std::filesystem::remove(campaign_);
      tso::ExplorerConfig cfg = scale_config();
      cfg.campaign_path = campaign_;
      cfg.time_budget_ms = kCampaignCutMs;
      tso::ExplorerResult cut;
      {
        SpanGuard span("tso.explorer");
        cut = s.explore(cfg);
      }
      ex.that(cut.deadline_hit || cut.exhausted,
              "cut leg neither cut nor done");
      {
        SpanGuard span("trace.campaign");
        const trace::Campaign state = trace::read_campaign_file(campaign_);
        c.frontier = state.frontier.size();
        c.bytes = std::filesystem::file_size(campaign_);
        const auto w0 = Clock::now();
        trace::write_campaign_file(campaign_ + ".copy", state);
        c.write_ms = seconds_since(w0) * 1e3;
      }
      const auto t0 = Clock::now();
      tso::ExplorerResult done;
      {
        SpanGuard span("tso.explorer");
        done = runtime::resume(campaign_);
      }
      c.resume_s = seconds_since(t0);
      ex.that(done.verdict.kind == tso::VerdictKind::kClean && done.exhausted &&
                  !done.deadline_hit,
              "resumed campaign not clean and exhausted");
      ex.equal(done.schedules, kScaleRawSchedules, "resumed schedules");
      ex.equal(done.truncated, kScaleRawTruncated, "resumed truncated");
      log.campaigns.push_back(c);
    });
  }

 private:
  std::string campaign_;
};

}  // namespace

std::uint64_t g_expectation_skew = 0;

const std::vector<ConstructionSpec>& constructions() {
  static const std::vector<ConstructionSpec> kAll = {
      {"adaptive-bakery", 128, 127, -1},
      {"adaptive-splitter", 64, 63, -1},
      {"ticket", 128, 127, 0},
      {"bakery", 128, 1, 127},
  };
  return kAll;
}

ConstructionLog run_construction(const ConstructionSpec& spec, bool verify) {
  ConstructionLog c;
  c.key = spec.key();
  lowerbound::ConstructionConfig cfg;
  cfg.verify_invariants = verify;
  const auto t0 = Clock::now();
  {
    SpanGuard span("lowerbound");
    lowerbound::Construction con(static_cast<std::size_t>(spec.n),
                                 runtime::zoo_scenario(spec.lock, spec.n, 1),
                                 cfg);
    c.result = con.run();
  }
  c.seconds = seconds_since(t0);
  c.result.phases.clear();
  return c;
}

tso::ExplorerConfig scale_config() {
  tso::ExplorerConfig c;
  c.preemptions = 2;
  c.max_steps = 200;
  return c;
}

int scale_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

const std::vector<ProveScope>& prove_scopes() {
  static const std::vector<ProveScope> kScopes = {
      {"bakery-tso-3p", 2, 0, 200, false, 5369, 2'825'491},
      {"tournament-3p", 2, 0, 200, false, 1733, 1'472'104},
      {"ticket-3p", 2, 0, 600, true, 1160, 1'311'466},
      {"recoverable-2p", 1, 1, 600, false, 219, 3'043'670},
  };
  return kScopes;
}

tso::ExplorerConfig prove_config(const ProveScope& scope) {
  tso::ExplorerConfig c;
  c.preemptions = scope.preemptions;
  c.max_crashes = scope.max_crashes;
  c.max_steps = scope.max_steps;
  c.dedup = tso::DedupMode::kState;
  c.liveness = tso::LivenessMode::kCheck;
  if (scope.symmetry) c.symmetric_processes = tso::SymmetryMode::kCanonical;
  return c;
}

tso::SimConfig lean(tso::SimConfig config) {
  config.track_awareness = false;
  config.record_trace = false;
  config.track_costs = false;
  return config;
}

void zoo_cost_runs(std::uint64_t seed, bool observed, Checks& checks,
                   PassLog& log) {
  tso::SimConfig cfg;  // every observer on
  if (!observed) {
    cfg = lean(cfg);
    cfg.check_exclusion = false;
  }
  const auto& zoo = algos::lock_zoo();
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    run_job(checks, "zoo " + zoo[i].name, [&](Expect& ex) {
      ZooLog z;
      const tso::ScenarioBuilder build = runtime::zoo_scenario(
          zoo[i].name.c_str(), kZooProcs, kZooPassages);
      for (int run = 0; run < kZooRuns; ++run) {
        tso::Simulator sim(kZooProcs, cfg);
        build(sim);
        tpa::Rng rng(job_seed(seed, 100 + i, static_cast<std::uint64_t>(run)));
        const auto t0 = Clock::now();
        {
          SpanGuard span("tso.sim");
          tso::run_random(sim, rng, 0.3, kZooMaxSteps);
        }
        z.seconds += seconds_since(t0);
        z.events += sim.events_executed();
        ex.that(tso::all_done(sim), zoo[i].name + " did not finish");
      }
      log.zoo.push_back(z);
    });
  }
}

std::unique_ptr<Workload> make_hunt_probe(std::uint64_t seed) {
  return std::make_unique<Hunt>(seed, true);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"prove", "hunt", "adversary",
                                                  "scale"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "prove") return std::make_unique<Prove>(seed);
  if (name == "hunt") return std::make_unique<Hunt>(seed, false);
  if (name == "adversary") return std::make_unique<Adversary>(seed);
  if (name == "scale") return std::make_unique<Scale>(workdir);
  return nullptr;
}

}  // namespace perfbench
