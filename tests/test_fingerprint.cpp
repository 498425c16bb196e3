// Differential tests for the incrementally maintained state fingerprint
// (tso/sim.h): after every applied directive — deliver, commit, crash,
// recover — the O(1)-maintained fingerprint must equal the full re-walk
// oracle, on every registry scenario and on randomized seeded schedules;
// snapshot()/restore() must round-trip the incremental state exactly; and
// the near-linear canonical symmetry key must be invariant under process
// renaming and induce exactly the same state partition as the old
// min-over-all-n!-renamings key on small scopes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/scenario.h"
#include "tso/sim.h"
#include "util/check.h"

namespace tpa {
namespace {

using runtime::Scenario;
using runtime::find_scenario;
using runtime::scenario_registry;
using tso::ActionKind;
using tso::Directive;
using tso::Fingerprint;
using tso::ProcId;
using tso::Simulator;
using tso::kNoProc;

/// Total order for std::map keys (Fingerprint itself only defines ==).
using FpKey = std::pair<std::uint64_t, std::uint64_t>;
FpKey fp_key(const Fingerprint& f) { return {f.hi, f.lo}; }

/// The incremental fingerprint must match the from-scratch oracle for every
/// choice of current process (and for no current process at all).
void expect_matches_oracle(const Simulator& sim, const std::string& context) {
  ASSERT_EQ(sim.fingerprint(), sim.fingerprint_oracle()) << context;
  for (std::size_t p = 0; p < sim.num_procs(); ++p) {
    const auto pid = static_cast<ProcId>(p);
    ASSERT_EQ(sim.fingerprint(pid), sim.fingerprint_oracle(pid))
        << context << " (current=p" << p << ")";
  }
}

/// All directives the adversary could apply right now, in a stable order.
/// `crashes` gates fault injection so crash-free scenarios are also driven
/// through pure schedules.
std::vector<Directive> possible_directives(const Simulator& sim,
                                           bool crashes) {
  std::vector<Directive> out;
  for (std::size_t p = 0; p < sim.num_procs(); ++p) {
    const auto pid = static_cast<ProcId>(p);
    const tso::Proc& proc = sim.proc(pid);
    if (proc.crashed()) {
      if (sim.has_recovery(pid)) out.push_back({ActionKind::kRecover, pid});
    } else if (!proc.done() && proc.has_pending()) {
      out.push_back({ActionKind::kDeliver, pid});
    }
    if (!proc.crashed() && !proc.buffer().empty())
      out.push_back({ActionKind::kCommit, pid, tso::kNoVar});
    if (crashes && sim.can_crash(pid))
      out.push_back({ActionKind::kCrash, pid});
  }
  return out;
}

bool apply(Simulator& sim, const Directive& d) {
  switch (d.kind) {
    case ActionKind::kDeliver: return sim.deliver(d.proc);
    case ActionKind::kCommit: return sim.commit(d.proc, d.var);
    case ActionKind::kCrash: return sim.crash(d.proc);
    case ActionKind::kRecover: return sim.recover(d.proc);
  }
  return false;
}

/// Drives `sim` through a seeded random schedule, checking the incremental
/// fingerprint against the oracle after every single applied directive.
void drive_checked(Simulator& sim, std::uint64_t seed, std::size_t max_steps,
                   bool crashes, const std::string& context) {
  std::mt19937_64 rng(seed);
  expect_matches_oracle(sim, context + " (initial state)");
  for (std::size_t step = 0; step < max_steps; ++step) {
    std::vector<Directive> cand = possible_directives(sim, crashes);
    if (cand.empty()) break;
    const Directive d =
        cand[std::uniform_int_distribution<std::size_t>(0, cand.size() - 1)(
            rng)];
    bool applied = false;
    try {
      applied = apply(sim, d);
    } catch (const CheckFailure&) {
      // Intentionally violating registry scenarios throw from their safety
      // observer when the random schedule reaches the bug; the differential
      // check held for every step up to that point, so stop here.
      return;
    }
    ASSERT_TRUE(applied) << context << " step " << step;
    expect_matches_oracle(sim, context + " step " + std::to_string(step));
  }
}

// ---- incremental vs full-re-walk oracle ----------------------------------

TEST(FingerprintDifferential, MatchesOracleOnEveryRegistryScenario) {
  for (const Scenario& s : scenario_registry()) {
    auto sim = s.make_simulator();
    // Crash directives are injected everywhere they are legal — including
    // fail-stop crashes of scenarios without recovery sections.
    drive_checked(*sim, /*seed=*/0x5eed0000 + s.n_procs, /*max_steps=*/250,
                  /*crashes=*/true, s.name);
  }
}

TEST(FingerprintDifferential, MatchesOracleAcrossRandomSeeds) {
  for (const char* name : {"ticket-3p", "recoverable-2p", "bakery-tso-3p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
      auto sim = s->make_simulator();
      drive_checked(*sim, seed, /*max_steps=*/200, /*crashes=*/true,
                    std::string(name) + " seed " + std::to_string(seed));
    }
  }
}

TEST(FingerprintDifferential, AuditModeCrossChecksEveryCall) {
  const Scenario* s = find_scenario("recoverable-2p");
  ASSERT_NE(s, nullptr);
  tso::SimConfig cfg = s->sim;
  cfg.fingerprint = tso::FingerprintMode::kAudit;
  Simulator sim(s->n_procs, cfg);
  s->build(sim);
  std::mt19937_64 rng(7);
  for (std::size_t step = 0; step < 150; ++step) {
    std::vector<Directive> cand = possible_directives(sim, /*crashes=*/true);
    if (cand.empty()) break;
    ASSERT_TRUE(apply(
        sim, cand[std::uniform_int_distribution<std::size_t>(
                 0, cand.size() - 1)(rng)]));
    // In audit mode every fingerprint() call TPA_CHECKs itself against the
    // oracle; a divergence would throw CheckFailure here.
    (void)sim.fingerprint(cand.front().proc);
  }
}

// ---- snapshot / restore round-trips --------------------------------------

/// Applies the first directive of `kind` the adversary could apply now;
/// false if there is none.
bool apply_first(Simulator& sim, ActionKind kind) {
  for (const Directive& d : possible_directives(sim, /*crashes=*/true))
    if (d.kind == kind) return apply(sim, d);
  return false;
}

/// Steps `a` and `b` through the same directives, two at a time, checking
/// after every pair that they fingerprint identically and match the
/// oracles. Between the two steps `a` runs the liveness dirty-delta check,
/// which caches the live-blob hashes of the dirtied processes; the second
/// step moves the same process again where it can, so the next flush must
/// not reuse the now stale hash.
void expect_lockstep(Simulator& a, Simulator& b, std::mt19937_64& rng,
                     std::size_t pairs, bool crashes,
                     const std::string& context) {
  for (std::size_t k = 0; k < pairs; ++k) {
    std::vector<Directive> next = possible_directives(a, crashes);
    if (next.empty()) return;
    Directive d =
        next[std::uniform_int_distribution<std::size_t>(0, next.size() - 1)(
            rng)];
    ASSERT_TRUE(apply(a, d)) << context;
    ASSERT_TRUE(apply(b, d)) << context;
    (void)a.progress_unchanged_since_baseline();
    next = possible_directives(a, /*crashes=*/false);
    if (next.empty()) return;
    const auto same = std::find_if(next.begin(), next.end(),
                                   [&](const Directive& e) {
                                     return e.proc == d.proc;
                                   });
    d = same != next.end() ? *same : next.front();
    ASSERT_TRUE(apply(a, d)) << context;
    ASSERT_TRUE(apply(b, d)) << context;
    ASSERT_EQ(a.fingerprint(), b.fingerprint()) << context << " pair " << k;
    ASSERT_EQ(a.fingerprint_progress(), a.fingerprint_progress_oracle())
        << context << " pair " << k;
    expect_matches_oracle(a, context + " pair " + std::to_string(k));
  }
}

TEST(FingerprintDifferential, SnapshotRestoreRoundTripsIncrementalState) {
  for (const char* name : {"ticket-3p", "recoverable-2p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    auto sim = s->make_simulator();
    // Fail-stop crashes would end the walk early; they are only taken on
    // the detours below, which the restores undo.
    const bool recoverable = sim->has_recovery(0);
    std::mt19937_64 rng(99);
    std::size_t restores = 0, crossed_recovery = 0;
    for (std::size_t step = 0; step < 60; ++step) {
      std::vector<Directive> cand = possible_directives(*sim, recoverable);
      if (cand.empty()) break;
      ASSERT_TRUE(apply(*sim, cand[std::uniform_int_distribution<std::size_t>(
                                  0, cand.size() - 1)(rng)]));
      if (step % 10 != 9) continue;
      const std::string at = std::string(name) + " step " +
                             std::to_string(step);

      const tso::SimSnapshot snap = sim->snapshot();
      const Fingerprint before = sim->fingerprint();
      Simulator fresh(s->n_procs, s->sim);
      fresh.restore(snap, s->build);
      ASSERT_EQ(fresh.fingerprint(), before) << at;
      expect_matches_oracle(fresh, at + " restored fresh");

      // In place, from a later state — the explorer's hot path, where one
      // simulator per DFS is restored at every branch point: move the
      // original on, across a crash and (where the scenario has a recovery
      // section) a recovery, then restore the snapshot into it.
      const bool crashed = apply_first(*sim, ActionKind::kCrash);
      const bool recovered = apply_first(*sim, ActionKind::kRecover);
      if (crashed && recovered) crossed_recovery++;
      for (std::size_t k = 0; k < 5; ++k) {
        std::vector<Directive> more =
            possible_directives(*sim, /*crashes=*/false);
        if (more.empty()) break;
        (void)sim->progress_unchanged_since_baseline();
        ASSERT_TRUE(apply(*sim, more.back())) << at;
      }
      sim->restore(snap, s->build);
      ASSERT_EQ(sim->fingerprint(), before) << at;
      ASSERT_TRUE(sim->progress_unchanged_since_baseline()) << at;
      ASSERT_EQ(sim->fingerprint_progress(), sim->fingerprint_progress_oracle())
          << at;
      expect_matches_oracle(*sim, at + " restored in place");

      // Both restored simulators' *incremental* state must keep tracking
      // exactly: step them in lockstep and compare again.
      expect_lockstep(*sim, fresh, rng, 3, recoverable,
                      at + " after restore");
      restores++;
    }
    EXPECT_GE(restores, 2u) << name << ": the walk ended early";
    if (std::string(name) == "recoverable-2p") {
      EXPECT_GT(crossed_recovery, 0u) << "no in-place restore crossed a "
                                         "crash and a recovery";
    }
  }
}

TEST(FingerprintDifferential, SnapshotIntoRecyclesBuffersExactly) {
  const Scenario* s = find_scenario("ticket-3p");
  ASSERT_NE(s, nullptr);
  auto a = s->make_simulator();
  auto b = s->make_simulator();
  ASSERT_TRUE(a->deliver(0));
  ASSERT_TRUE(a->deliver(1));
  ASSERT_TRUE(b->deliver(2));

  // One snapshot object, reused across states: the second snapshot_into
  // must fully overwrite the first (recycled capacity, identical contents).
  tso::SimSnapshot snap;
  a->snapshot_into(snap);
  b->snapshot_into(snap);
  Simulator fresh(s->n_procs, s->sim);
  fresh.restore(snap, s->build);
  EXPECT_EQ(fresh.fingerprint(), b->fingerprint());
  EXPECT_NE(fresh.fingerprint(), a->fingerprint());
}

// ---- symmetry canonicalization -------------------------------------------

/// The old symmetry key: minimize the (oracle) fingerprint over all n!
/// renamings. Cheap enough to enumerate on the 2p/3p scopes the test uses.
Fingerprint min_over_renamings(const Simulator& sim, ProcId current) {
  std::vector<ProcId> perm(sim.num_procs());
  std::iota(perm.begin(), perm.end(), 0);
  Fingerprint best = sim.fingerprint_oracle(current);
  while (std::next_permutation(perm.begin(), perm.end())) {
    const Fingerprint f = sim.fingerprint_oracle(current, perm.data());
    if (fp_key(f) < fp_key(best)) best = f;
  }
  return best;
}

TEST(SymmetryCanonicalization, InvariantUnderRandomProcessPermutations) {
  for (const char* name : {"tas-2p", "ticket-3p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    ASSERT_TRUE(s->symmetric) << name;

    std::vector<ProcId> perm(s->n_procs);
    std::iota(perm.begin(), perm.end(), 0);
    std::mt19937_64 rng(1234);
    for (int round = 0; round < 12; ++round) {
      std::shuffle(perm.begin(), perm.end(), rng);
      // Drive a random schedule S on `a` and its renamed image perm(S) on
      // `b`; b's state is then the perm-image of a's state, so the
      // canonical keys must agree at every step, for renamed currents.
      auto a = s->make_simulator();
      auto b = s->make_simulator();
      std::mt19937_64 sched(round * 7919 + 1);
      for (std::size_t step = 0; step < 60; ++step) {
        std::vector<Directive> cand =
            possible_directives(*a, /*crashes=*/false);
        if (cand.empty()) break;
        const Directive d = cand[std::uniform_int_distribution<std::size_t>(
            0, cand.size() - 1)(sched)];
        const Directive renamed{
            d.kind, perm[static_cast<std::size_t>(d.proc)], d.var};
        ASSERT_TRUE(apply(*a, d)) << name;
        ASSERT_TRUE(apply(*b, renamed)) << name;
        ASSERT_EQ(a->fingerprint_symmetric(d.proc),
                  b->fingerprint_symmetric(renamed.proc))
            << name << " round " << round << " step " << step;
        // And the renaming lemma for the oracle itself: fingerprinting a
        // *through* perm equals b's identity fingerprint.
        ASSERT_EQ(a->fingerprint_oracle(d.proc, perm.data()),
                  b->fingerprint(renamed.proc))
            << name << " round " << round << " step " << step;
      }
    }
  }
}

TEST(SymmetryCanonicalization, InducesSamePartitionAsMinOverAllRenamings) {
  // The canonical-order key is not numerically equal to the old
  // min-over-n! key (they canonicalize to different representatives), but
  // both must merge exactly the same states: the maps between them must be
  // one-to-one over every state either schedule family reaches.
  for (const char* name : {"tas-2p", "ticket-3p"}) {
    const Scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    std::map<FpKey, std::set<FpKey>> new_to_old;
    std::map<FpKey, std::set<FpKey>> old_to_new;

    std::vector<ProcId> perm(s->n_procs);
    std::iota(perm.begin(), perm.end(), 0);
    std::mt19937_64 rng(5150);
    for (int round = 0; round < 10; ++round) {
      std::shuffle(perm.begin(), perm.end(), rng);
      auto sim = s->make_simulator();
      std::mt19937_64 sched(round * 104729 + 3);
      for (std::size_t step = 0; step < 50; ++step) {
        std::vector<Directive> cand =
            possible_directives(*sim, /*crashes=*/false);
        if (cand.empty()) break;
        const Directive d = cand[std::uniform_int_distribution<std::size_t>(
            0, cand.size() - 1)(sched)];
        ASSERT_TRUE(apply(*sim, d));
        const FpKey nk = fp_key(sim->fingerprint_symmetric(d.proc));
        const FpKey ok = fp_key(min_over_renamings(*sim, d.proc));
        new_to_old[nk].insert(ok);
        old_to_new[ok].insert(nk);
      }
    }
    for (const auto& [nk, olds] : new_to_old)
      EXPECT_EQ(olds.size(), 1u)
          << name << ": one canonical key maps to " << olds.size()
          << " min-over-n! keys — the new key merges states the old one "
             "distinguishes";
    for (const auto& [ok, news] : old_to_new)
      EXPECT_EQ(news.size(), 1u)
          << name << ": one min-over-n! key maps to " << news.size()
          << " canonical keys — the new key splits states the old one "
             "merges";
  }
}

TEST(SymmetryCanonicalization, IdentityOnAsymmetricStatesIsStillAFingerprint) {
  // Even on states with fully distinct per-process signatures the symmetric
  // key must be a *function of the orbit*: equal states get equal keys.
  const Scenario* s = find_scenario("ticket-3p");
  ASSERT_NE(s, nullptr);
  auto a = s->make_simulator();
  auto b = s->make_simulator();
  for (ProcId p : {0, 0, 1, 2, 1}) {
    ASSERT_TRUE(a->deliver(p));
    ASSERT_TRUE(b->deliver(p));
  }
  EXPECT_EQ(a->fingerprint_symmetric(1), b->fingerprint_symmetric(1));
  EXPECT_NE(fp_key(a->fingerprint_symmetric(1)),
            fp_key(a->fingerprint_symmetric(2)))
      << "the scheduler's current process must stay part of the key";
}

}  // namespace
}  // namespace tpa
