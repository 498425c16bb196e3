// tpa_perfbench — the time-to-verdict benchmark.
//
//   tpa_perfbench --workload <prove|hunt|adversary|scale> --seed <n>
//                 --seconds <s> --trace <0|1> [--workdir <dir>]
//                 [--wrong-expectation]
//
// --trace 0 measures the end-to-end metrics: the first set-up, one
// discarded warm-up pass, then timed passes of the workload's fixed job set
// until --seconds have elapsed, each preceded by set-ups of fresh workload
// objects, so the set-up samples spread over the run like the passes.
// Around and inside every pass a fixed reference kernel measures how fast
// the shared host runs (HostSpeed), and each pass' times are scaled to the
// kernel's nominal speed. verdict_s and cpu_s are the median over the
// timed passes of each pass' scaled wall and CPU time; setup_s is the
// median of the fresh set-ups, scaled by the pass that follows them; the
// hunt percentiles are taken over every hunt of every timed pass, scaled
// by its pass. The unscaled medians are printed as comments.
//
// --trace 1 is the separate traced run: untraced and traced passes of the
// workload alternate (the tracing overhead), then a traced pass of every
// other workload and the layer probes give the per-layer metrics. It is
// fixed work and ignores --seconds.
//
// Every job's verdict is checked. Comment lines start with '#'; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 only when every verdict
// held; --wrong-expectation skews one expected figure per workload so a run
// must fail.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupsPerPass = 8;  ///< fresh set-ups before each timed pass
constexpr int kOverheadPairs = 3;  ///< untraced/traced pass pairs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir = ".";
  bool wrong = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--wrong-expectation") {
      a.wrong = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--workdir") a.workdir = v;
    else return false;
  }
  return (a.trace == 0 || a.trace == 1) && a.seconds > 0 &&
         make_workload(a.workload, a.seed, a.workdir) != nullptr;
}

/// Times one pass. With host-speed sampling on, the reference kernel runs
/// before and after the pass and between its jobs; its time is left out of
/// the pass' wall and CPU time, and its median sets the pass' host_scale.
void timed_pass(Workload& w, Checks& checks, PassLog& log) {
  HostSpeed& hs = host_speed();
  const std::size_t first = hs.samples();
  hs.sample();
  const double spent_wall = hs.spent_wall_s(), spent_cpu = hs.spent_cpu_s();
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  w.pass(checks, log);
  log.wall_s = seconds_since(t0) - (hs.spent_wall_s() - spent_wall);
  log.cpu_s = process_cpu_seconds() - cpu0 - (hs.spent_cpu_s() - spent_cpu);
  hs.sample();
  log.host_scale = hs.scale_since(first);
}

/// Per-hunt time to a verified witness, percentiles over every hit of
/// every pass.
struct HuntLatency {
  double p50_ms = 0, p90_ms = 0;
  std::size_t samples = 0, beyond_p90 = 0;
  std::uint64_t witness_directives = 0;
  bool deterministic = true;  ///< every pass shrank to the same total
};

HuntLatency hunt_latency(const std::vector<PassLog>& passes) {
  HuntLatency h;
  if (passes.empty()) return h;
  h.witness_directives = passes.front().witness_directives;
  std::vector<double> per_hunt;
  for (const PassLog& p : passes) {
    h.deterministic =
        h.deterministic && p.witness_directives == h.witness_directives;
    for (const HuntLog& hunt : p.hunts)
      if (hunt.hit) per_hunt.push_back(hunt.total_s * p.host_scale * 1e3);
  }
  h.samples = per_hunt.size();
  h.p50_ms = median(per_hunt);
  h.p90_ms = percentile(per_hunt, 0.9);
  for (double t : per_hunt) h.beyond_p90 += t > h.p90_ms ? 1 : 0;
  return h;
}

/// Hits and median scaled latency per hunted scenario, as a comment.
void print_hunt_mix(const std::vector<PassLog>& passes) {
  std::map<std::string, std::vector<double>> by_scenario;
  for (const PassLog& p : passes)
    for (const HuntLog& hunt : p.hunts)
      if (hunt.hit)
        by_scenario[hunt.scenario].push_back(hunt.total_s * p.host_scale *
                                             1e3);
  std::printf("# hunt hits per pass:");
  for (const auto& [name, ms] : by_scenario)
    std::printf(" %s %.1f (median %.3f ms, p90 %.3f ms)", name.c_str(),
                static_cast<double>(ms.size()) /
                    static_cast<double>(passes.size()),
                median(ms), percentile(ms, 0.9));
  std::printf("\n");
}

std::vector<double> wall_times(const std::vector<PassLog>& passes) {
  std::vector<double> v;
  for (const PassLog& p : passes) v.push_back(p.wall_s);
  return v;
}

/// Each pass' wall (or CPU) time scaled to the nominal host speed.
std::vector<double> scaled_times(const std::vector<PassLog>& passes,
                                 bool cpu) {
  std::vector<double> v;
  for (const PassLog& p : passes)
    v.push_back((cpu ? p.cpu_s : p.wall_s) * p.host_scale);
  return v;
}

void print_result(const Checks& checks, const Metrics& metrics) {
  for (const std::string& f : checks.failures())
    std::printf("# FAILED %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run_untraced(const Args& a) {
  Checks checks;
  host_speed().enable(true);
  // A set-up times what a user pays before the first verdict, on a fresh
  // workload object. Only the process' first set-up also pays the
  // library's one-time registry initialisation; it is printed, not part of
  // the median.
  std::vector<double> fresh;  // raw set-up times since the last pass
  auto fresh_setup = [&] {
    const auto t0 = Clock::now();
    auto w = make_workload(a.workload, a.seed, a.workdir);
    w->setup();
    fresh.push_back(seconds_since(t0));
    return w;
  };
  auto w = fresh_setup();
  const double first_setup = fresh.front();
  fresh.clear();
  PassLog warm;
  timed_pass(*w, checks, warm);

  // Hunt latency comes from the workload's own hunts on `hunt`; elsewhere
  // from the hunt probe, one probe pass after each timed pass.
  const bool own_hunts = a.workload == "hunt";
  auto probe = make_hunt_probe(a.seed);
  if (!own_hunts) probe->setup();
  std::vector<PassLog> passes, probe_passes;
  // Set-ups are scaled by the host speed of the pass that follows them.
  std::vector<double> setups, raw_setups;
  const auto start = Clock::now();
  do {
    for (int r = 0; r < kSetupsPerPass; ++r) fresh_setup();
    passes.emplace_back();
    timed_pass(*w, checks, passes.back());
    for (double t : fresh) {
      raw_setups.push_back(t);
      setups.push_back(t * passes.back().host_scale);
    }
    fresh.clear();
    if (!own_hunts) {
      probe_passes.emplace_back();
      timed_pass(*probe, checks, probe_passes.back());
    }
  } while (seconds_since(start) < a.seconds);

  const HuntLatency h = hunt_latency(own_hunts ? passes : probe_passes);
  checks.job("hunt witnesses deterministic",
             h.deterministic ? "" : "shrunk witness lengths differ by pass");
  checks.job("hunt percentile samples",
             h.beyond_p90 >= 10 ? "" : "fewer than 10 hunts beyond p90");

  std::vector<double> scales;
  for (const PassLog& p : passes) scales.push_back(p.host_scale);
  const std::vector<double> wall = wall_times(passes);
  std::vector<double> cpu;
  for (const PassLog& p : passes) cpu.push_back(p.cpu_s);
  const auto best = std::min_element(
      passes.begin(), passes.end(),
      [](const PassLog& x, const PassLog& y) { return x.wall_s < y.wall_s; });
  std::printf("# workload %s seed %llu: %zu timed passes, %zu set-ups, "
              "%zu host-speed samples (%.2f s)\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              passes.size(), setups.size(), host_speed().samples(),
              host_speed().spent_wall_s());
  std::printf("# wall per pass:");
  for (double t : wall) std::printf(" %.4f", t);
  std::printf("\n# host scale per pass:");
  for (double s : scales) std::printf(" %.4f", s);
  std::printf("\n# unscaled medians: verdict %.4f s, cpu %.4f s, "
              "set-up %.6f s\n",
              median(wall), median(cpu), median(raw_setups));
  std::printf("# best pass: wall %.4f s, cpu %.4f s\n", best->wall_s,
              best->cpu_s);
  std::printf("# first set-up (with registry initialisation): %.6f s\n",
              first_setup);
  std::printf("# hunt latency over %zu hits (%s), %zu beyond p90\n",
              h.samples, own_hunts ? "the workload's hunts" : "the hunt probe",
              h.beyond_p90);
  print_hunt_mix(own_hunts ? passes : probe_passes);

  const Metrics metrics = {
      {"verdict_s", median(scaled_times(passes, false)), "s"},
      {"cpu_s", median(scaled_times(passes, true)), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"setup_s", median(setups), "s"},
      {"hunt_p50_ms", h.p50_ms, "ms"},
      {"hunt_p90_ms", h.p90_ms, "ms"},
      {"witness_directives", static_cast<double>(h.witness_directives),
       "count"},
  };
  print_result(checks, metrics);
  return checks.failed() == 0 ? 0 : 1;
}

/// Span names are kept as pointers: give each workload's root span a
/// string with static storage.
const char* root_span(const std::string& workload) {
  static const std::map<std::string, const char*> kRoots = {
      {"prove", "bench.prove"},
      {"hunt", "bench.hunt"},
      {"adversary", "bench.adversary"},
      {"scale", "bench.scale"}};
  return kRoots.at(workload);
}

int run_traced(const Args& a) {
  Checks checks;
  LayerRun run;
  run.seed = a.seed;
  std::map<std::string, PassLog*> logs = {{"prove", &run.prove},
                                          {"hunt", &run.hunt},
                                          {"adversary", &run.adversary},
                                          {"scale", &run.scale}};
  auto w = make_workload(a.workload, a.seed, a.workdir);
  w->setup();
  PassLog warm;
  timed_pass(*w, checks, warm);

  // Tracing overhead: untraced and traced passes alternate; only the last
  // traced pass' spans are kept.
  std::vector<PassLog> untraced, traced;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    for (bool trace : {false, true}) {
      tracer().enable(trace);
      if (trace) tracer().clear();
      PassLog& log = *logs[a.workload];
      log = PassLog{};
      {
        SpanGuard span(root_span(a.workload));
        timed_pass(*w, checks, log);
      }
      (trace ? traced : untraced).push_back(log);
    }
  }
  run.untraced_s = median(wall_times(untraced));
  run.traced_s = median(wall_times(traced));

  for (const std::string& name : workload_names()) {
    if (name == a.workload) continue;
    auto other = make_workload(name, a.seed, a.workdir);
    other->setup();
    SpanGuard span(root_span(name));
    timed_pass(*other, checks, *logs[name]);
  }
  {
    SpanGuard span("bench.probes");
    run_layer_probes(run, checks);
  }
  tracer().enable(false);

  std::vector<std::string> notes;
  const Metrics metrics = layer_metrics(run, notes);
  for (const std::string& n : notes) std::printf("# %s\n", n.c_str());
  std::printf("# tracing overhead on %s: traced %.4f s - untraced %.4f s\n",
              a.workload.c_str(), run.traced_s, run.untraced_s);
  print_result(checks, metrics);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <prove|hunt|adversary|scale> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
                 "[--wrong-expectation]\n",
                 argv[0]);
    return 2;
  }
  if (a.wrong) perfbench::g_expectation_skew = 1;
  return a.trace == 0 ? perfbench::run_untraced(a) : perfbench::run_traced(a);
}
