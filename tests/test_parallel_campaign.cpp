// Parallel campaign engine (errors/parallel_campaign): jobs-independent
// byte-identical results, fault tolerance inside workers, resume from
// out-of-order parallel journals, and the CampaignConfig-honoring dropping
// engine (budget / cancel / journal).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/tg.h"
#include "errors/bus_ssl.h"
#include "errors/journal.h"
#include "errors/parallel_campaign.h"
#include "sim/batch_sim.h"
#include "sim/cosim.h"
#include "solver/nogood_board.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

DesignError ssl(const char* net, unsigned bit, bool v) {
  const NetId n = model().dp.find_net(net);
  EXPECT_NE(n, kNoNet) << net;
  return DesignError{BusSslError{n, bit, v}};
}

std::vector<DesignError> small_population(std::size_t n = 12) {
  std::vector<DesignError> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(ssl("ex.alu_add", static_cast<unsigned>(i % 32), i % 2));
  return out;
}

std::string temp_journal(const char* tag) {
  return testing::TempDir() + "hltg_pjournal_" + tag + ".jsonl";
}

/// Scripted generator that is a *pure function of the error* (unlike the
/// call-counted script in test_campaign_resilience), so its outcome cannot
/// depend on which worker runs it or in what order.
BudgetedGenFn pure_gen(int* calls = nullptr) {
  auto hash = [](const DesignError& e) {
    return std::hash<std::string>{}(e.describe(model().dp));
  };
  return [hash, calls](const DesignError& e, Budget&) {
    if (calls) ++*calls;  // only read after the pool joins
    const std::size_t h = hash(e);
    ErrorAttempt a;
    a.generated = a.sim_confirmed = (h % 3) != 0;
    a.test_length = 3 + static_cast<unsigned>(h % 5);
    a.backtracks = h % 7;
    a.decisions = h % 11;
    a.seconds = 0.0001 * static_cast<double>(h % 13);
    if (a.detected()) {
      a.test.imem = {0x20220000u | static_cast<std::uint32_t>(h & 0xFF)};
      a.test.rf_init[3] = static_cast<std::uint32_t>(h);
    } else {
      a.note = "scripted give-up";
    }
    return a;
  };
}

/// Canonical byte rendering of a result's rows; `zero_seconds` strips the
/// wall-clock fields (seconds + per-phase ns), the only nondeterministic
/// fields a real generator produces.
std::string render_rows(const CampaignResult& r, bool zero_seconds = false) {
  std::string s;
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    ErrorAttempt a = r.rows[i].attempt;
    if (zero_seconds) {
      a.seconds = 0;
      a.dptrace_ns = a.ctrljust_ns = a.dprelax_ns = 0;
    }
    s += journal_row_line(i, a) + "\n";
  }
  return s;
}

CampaignResult run_jobs(const std::vector<DesignError>& errors, unsigned jobs,
                        const ParallelCampaignConfig& base = {},
                        int* calls = nullptr) {
  ParallelCampaignConfig cfg = base;
  cfg.jobs = jobs;
  return run_campaign_parallel(
      model().dp, errors,
      [calls](unsigned) { return pure_gen(calls); }, cfg);
}

// ------------------------------------------------------------ determinism

TEST(ParallelCampaign, ByteIdenticalAcrossJobs) {
  const auto errors = small_population(17);
  const CampaignResult r1 = run_jobs(errors, 1);
  const CampaignResult r2 = run_jobs(errors, 2);
  const CampaignResult r8 = run_jobs(errors, 8);

  EXPECT_EQ(render_rows(r1), render_rows(r2));
  EXPECT_EQ(render_rows(r1), render_rows(r8));
  EXPECT_EQ(r1.stats.table1("t"), r2.stats.table1("t"));
  EXPECT_EQ(r1.stats.table1("t"), r8.stats.table1("t"));
  EXPECT_EQ(r1.stats.length_histogram, r8.stats.length_histogram);
  EXPECT_DOUBLE_EQ(r1.stats.cpu_seconds, r8.stats.cpu_seconds);

  // And identical to the serial engine on the same generator.
  const CampaignResult serial =
      run_campaign(model().dp, errors, pure_gen(), CampaignConfig{});
  EXPECT_EQ(render_rows(serial), render_rows(r8));
  EXPECT_EQ(serial.stats.table1("t"), r8.stats.table1("t"));
}

TEST(ParallelCampaign, FaultThrowInOneWorkerIsIsolatedAndDeterministic) {
  const auto errors = small_population(10);
  CampaignFaultPlan faults;
  faults[4].kind = CampaignFault::Kind::kThrow;
  ParallelCampaignConfig base;
  base.faults = &faults;

  const CampaignResult r1 = run_jobs(errors, 1, base);
  const CampaignResult r2 = run_jobs(errors, 2, base);
  const CampaignResult r8 = run_jobs(errors, 8, base);
  EXPECT_EQ(render_rows(r1), render_rows(r2));
  EXPECT_EQ(render_rows(r1), render_rows(r8));
  EXPECT_EQ(r8.rows[4].attempt.abort, AbortReason::kException);
  EXPECT_EQ(r8.stats.aborted_exception, 1u);
  EXPECT_EQ(r8.stats.attempted, errors.size());  // the pool survived
}

TEST(ParallelCampaign, RealGeneratorIsJobsIndependent) {
  // Real TG over a small slice of the Table-1 SSL population, one
  // TestGenerator per worker. Everything except wall-clock seconds must be
  // byte-identical across jobs counts.
  model().warm_caches();
  const auto all = wrap(enumerate_bus_ssl(model().dp));
  const std::vector<DesignError> errors(all.begin(), all.begin() + 12);

  const GenFactory factory = [](unsigned) {
    auto tg = std::make_shared<TestGenerator>(model());
    BudgetedGenFn s = tg->budgeted_strategy();
    return [tg, s](const DesignError& e, Budget& b) { return s(e, b); };
  };
  ParallelCampaignConfig cfg1;
  cfg1.jobs = 1;
  ParallelCampaignConfig cfg4;
  cfg4.jobs = 4;
  const CampaignResult a =
      run_campaign_parallel(model().dp, errors, factory, cfg1);
  const CampaignResult b =
      run_campaign_parallel(model().dp, errors, factory, cfg4);
  EXPECT_EQ(render_rows(a, /*zero_seconds=*/true),
            render_rows(b, /*zero_seconds=*/true));
  EXPECT_EQ(a.stats.detected, b.stats.detected);
  EXPECT_EQ(a.stats.backtracks, b.stats.backtracks);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
  for (const CampaignRow& row : b.rows) {
    if (row.attempt.detected()) {
      EXPECT_TRUE(detects(model(), row.attempt.test, row.error.injection()));
    }
  }
}

TEST(ParallelCampaign, ShardedCampaignScopeMatchesErrorScopeForAnyJobs) {
  // The tentpole claim of the sharded engine: campaign-lifetime deduction
  // reuse (per-worker SolverContext + cross-worker NogoodBoard) stays
  // outcome-neutral for ANY --jobs, because each worker's error sequence
  // is the deterministic round-robin shard and every piece of shared state
  // is outcome-neutral (solver/solver.h). Only effort counters may differ,
  // so the comparison is on the outcome tuple, not the journal rows.
  model().warm_caches();
  const auto all = wrap(enumerate_bus_ssl(model().dp));
  const std::vector<DesignError> errors(all.begin(), all.begin() + 12);

  struct Outcome {
    bool detected;
    AbortReason abort;
    unsigned test_length;
    std::vector<std::uint32_t> imem;
    std::array<std::uint32_t, 32> rf_init;
    std::map<std::uint32_t, std::uint32_t> dmem_init;
    bool operator==(const Outcome&) const = default;
  };
  auto outcomes = [](const CampaignResult& r) {
    std::vector<Outcome> out;
    for (const CampaignRow& row : r.rows)
      out.push_back({row.attempt.detected(), row.attempt.abort,
                     row.attempt.test_length, row.attempt.test.imem,
                     row.attempt.test.rf_init, row.attempt.test.dmem_init});
    return out;
  };
  auto run = [&](SolverScope scope, unsigned jobs, NogoodBoard* board) {
    TgConfig tcfg;
    tcfg.solver.scope = scope;
    tcfg.solver.shared_board = board;
    ParallelCampaignConfig cfg;
    cfg.jobs = jobs;
    return run_campaign_parallel(
        model().dp, errors,
        [&](unsigned) {
          auto tg = std::make_shared<TestGenerator>(model(), tcfg);
          BudgetedGenFn s = tg->budgeted_strategy();
          return [tg, s](const DesignError& e, Budget& b) { return s(e, b); };
        },
        cfg);
  };

  const auto reference = outcomes(run(SolverScope::kError, 1, nullptr));
  for (unsigned jobs : {1u, 2u, 8u}) {
    NogoodBoard board;
    const CampaignResult r = run(SolverScope::kCampaign, jobs, &board);
    EXPECT_EQ(outcomes(r), reference) << "jobs=" << jobs;
    if (jobs > 1) EXPECT_GT(board.epoch(), 0u) << "board never used";
  }
}

TEST(ParallelCampaign, ResumeRefusedOnConflictingProvenanceStamps) {
  const auto errors = small_population(10);
  const std::string path = temp_journal("stamped");
  std::remove(path.c_str());

  ParallelCampaignConfig cfg;
  cfg.journal_path = path;
  cfg.design_hash = 0xAA;
  cfg.solver_config_hash = 0xBB;
  const CampaignResult ran = run_jobs(errors, 2, cfg);
  EXPECT_EQ(ran.stats.attempted, errors.size());

  // Same stamps: resumes normally.
  {
    ParallelCampaignConfig rcfg = cfg;
    rcfg.resume = true;
    int calls = 0;
    const CampaignResult ok = run_jobs(errors, 2, rcfg, &calls);
    EXPECT_FALSE(ok.resume_refused);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(ok.resumed_rows, errors.size());
  }
  // Conflicting design stamp: refused outright, nothing attempted.
  {
    ParallelCampaignConfig rcfg = cfg;
    rcfg.resume = true;
    rcfg.design_hash = 0xDEAD;
    int calls = 0;
    const CampaignResult refused = run_jobs(errors, 2, rcfg, &calls);
    EXPECT_TRUE(refused.resume_refused);
    EXPECT_TRUE(refused.interrupted);
    EXPECT_EQ(calls, 0);
    EXPECT_TRUE(refused.rows.empty());
    EXPECT_NE(refused.journal_note.find("different design"),
              std::string::npos);
  }
  // Unstamped resumer (legacy caller): fingerprint match still replays.
  {
    ParallelCampaignConfig rcfg;
    rcfg.journal_path = path;
    rcfg.resume = true;
    int calls = 0;
    const CampaignResult legacy = run_jobs(errors, 2, rcfg, &calls);
    EXPECT_FALSE(legacy.resume_refused);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(legacy.resumed_rows, errors.size());
  }
  std::remove(path.c_str());
}

TEST(ParallelCampaign, WorkerFactoryFailureDegradesToRemainingWorkers) {
  const auto errors = small_population(8);
  ParallelCampaignConfig cfg;
  cfg.jobs = 3;
  const CampaignResult res = run_campaign_parallel(
      model().dp, errors,
      [](unsigned w) -> BudgetedGenFn {
        if (w == 1) throw std::runtime_error("no generator for you");
        return pure_gen();
      },
      cfg);
  // Workers 0 and 2 drained the whole queue; the failure is reported.
  EXPECT_EQ(res.stats.attempted, errors.size());
  EXPECT_FALSE(res.interrupted);
  EXPECT_NE(res.journal_note.find("worker 1 unavailable"), std::string::npos);
  EXPECT_EQ(render_rows(res), render_rows(run_jobs(errors, 1)));
}

// ----------------------------------------------------- journal and resume

TEST(ParallelCampaign, JournalFromParallelRunIsCompleteAndReplayable) {
  const auto errors = small_population(14);
  const std::string path = temp_journal("complete");
  std::remove(path.c_str());
  ParallelCampaignConfig cfg;
  cfg.journal_path = path;
  const CampaignResult ran = run_jobs(errors, 8, cfg);
  EXPECT_EQ(ran.stats.attempted, errors.size());

  const JournalReplay jr = load_journal(path);
  EXPECT_TRUE(jr.header_ok);
  EXPECT_EQ(jr.rows.size(), errors.size());  // every row landed, any order

  // Resume replays everything: zero generator calls, identical result.
  int calls = 0;
  ParallelCampaignConfig rcfg;
  rcfg.journal_path = path;
  rcfg.resume = true;
  const CampaignResult resumed = run_jobs(errors, 4, rcfg, &calls);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(resumed.resumed_rows, errors.size());
  EXPECT_EQ(render_rows(resumed), render_rows(ran));
  EXPECT_EQ(resumed.stats.table1("t"), ran.stats.table1("t"));
  std::remove(path.c_str());
}

TEST(ParallelCampaign, ResumesFromOutOfOrderJournal) {
  // Hand-build a journal whose rows landed in scrambled index order (as a
  // parallel run produces) covering only part of the population.
  const auto errors = small_population(9);
  const std::string path = temp_journal("scrambled");
  BudgetedGenFn gen = pure_gen();
  Budget dummy;
  {
    std::ofstream out(path);
    out << journal_header_line(errors.size(),
                               campaign_fingerprint(model().dp, errors))
        << "\n";
    for (std::size_t i : {std::size_t{6}, std::size_t{0}, std::size_t{3}})
      out << journal_row_line(i, gen(errors[i], dummy)) << "\n";
  }

  int calls = 0;
  ParallelCampaignConfig cfg;
  cfg.journal_path = path;
  cfg.resume = true;
  const CampaignResult resumed = run_jobs(errors, 4, cfg, &calls);
  EXPECT_EQ(resumed.resumed_rows, 3u);
  EXPECT_EQ(calls, static_cast<int>(errors.size()) - 3);

  // Identical to an uninterrupted journal-free run.
  const CampaignResult full = run_jobs(errors, 2);
  EXPECT_EQ(render_rows(resumed), render_rows(full));
  EXPECT_EQ(resumed.stats.table1("t"), full.stats.table1("t"));
  std::remove(path.c_str());
}

TEST(ParallelCampaign, PreRequestedCancelAttemptsNothing) {
  CancelToken cancel;
  cancel.request_stop();
  ParallelCampaignConfig cfg;
  cfg.jobs = 4;
  cfg.cancel = &cancel;
  int calls = 0;
  const CampaignResult res =
      run_jobs(small_population(6), 4, cfg, &calls);
  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(res.stats.attempted, 0u);
}

// ------------------------------------- dropping honors the CampaignConfig

/// Deterministic scripted detection: whether `tc` "detects" an error is a
/// pure function of (test word, error description) - enough to exercise the
/// dropping bookkeeping without real simulation.
BatchDetectFn scripted_detect() {
  return [](const TestCase& tc, const std::vector<const DesignError*>& errs) {
    std::vector<bool> out(errs.size(), false);
    const std::uint32_t w = tc.imem.empty() ? 0 : tc.imem[0];
    for (std::size_t i = 0; i < errs.size(); ++i) {
      const std::size_t h =
          std::hash<std::string>{}(errs[i]->describe(model().dp));
      out[i] = ((h ^ w) % 3) == 0;
    }
    return out;
  };
}

TEST(DroppingConfig, JournalResumeReproducesDropsWithoutGeneratorRuns) {
  const auto errors = small_population(12);
  const std::string path = temp_journal("drop");
  std::remove(path.c_str());

  CampaignConfig cfg;
  cfg.journal_path = path;
  const CampaignResult first = run_campaign_with_dropping(
      model().dp, errors, pure_gen(), scripted_detect(), cfg);
  ASSERT_GT(first.stats.dropped, 0u);
  // Only generator attempts are journaled - dropped errors have no row.
  EXPECT_EQ(load_journal(path).rows.size(), first.rows.size());

  int calls = 0;
  CampaignConfig rcfg;
  rcfg.journal_path = path;
  rcfg.resume = true;
  const CampaignResult resumed = run_campaign_with_dropping(
      model().dp, errors, pure_gen(&calls), scripted_detect(), rcfg);
  EXPECT_EQ(calls, 0);  // drops re-derived, no generator re-run
  EXPECT_EQ(resumed.stats.dropped, first.stats.dropped);
  EXPECT_EQ(resumed.tests_kept, first.tests_kept);
  EXPECT_EQ(render_rows(resumed), render_rows(first));
  EXPECT_EQ(resumed.stats.table1("t"), first.stats.table1("t"));
  std::remove(path.c_str());
}

TEST(DroppingConfig, BudgetFaultsAreHonored) {
  const auto errors = small_population(6);
  CampaignFaultPlan faults;
  faults[0].kind = CampaignFault::Kind::kBudgetExhaust;
  faults[0].abort = AbortReason::kDeadline;
  CampaignConfig cfg;
  cfg.faults = &faults;
  const CampaignResult res = run_campaign_with_dropping(
      model().dp, errors, pure_gen(), scripted_detect(), cfg);
  EXPECT_FALSE(res.rows[0].attempt.detected());
  EXPECT_EQ(res.rows[0].attempt.abort, AbortReason::kDeadline);
  EXPECT_EQ(res.stats.aborted_deadline, 1u);
}

TEST(DroppingConfig, CancellationStopsTheSweep) {
  const auto errors = small_population(10);
  CancelToken cancel;
  int calls = 0;
  BudgetedGenFn inner = pure_gen();
  const BudgetedGenFn cancelling = [&](const DesignError& e, Budget& b) {
    ErrorAttempt a = inner(e, b);
    if (++calls == 3) cancel.request_stop();
    return a;
  };
  CampaignConfig cfg;
  cfg.cancel = &cancel;
  const CampaignResult res = run_campaign_with_dropping(
      model().dp, errors, cancelling, scripted_detect(), cfg);
  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(calls, 3);
  EXPECT_LT(res.stats.attempted, errors.size());
}

}  // namespace
}  // namespace hltg
