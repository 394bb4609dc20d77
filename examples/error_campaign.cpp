// Error campaign: run the generator over a configurable error population
// and print the Table-1 style summary plus per-error outcomes.
//
//   $ ./error_campaign [--stages EX,MEM,WB] [--model ssl|mse|boe|bse] [-v]
//                      [--csv out.csv] [--save-tests dir]
//                      [--deadline-ms N] [--max-backtracks N]
//                      [--max-decisions N] [--fallback [tries]]
//                      [--journal file.jsonl] [--resume | --resume=strict]
//                      [--jobs N] [--drop] [--lanes N] [--solver on|off]
//                      [--probe on|off] [--probe-order on|off]
//                      [--solver-scope error|campaign] [--store file.ded]
//                      [--failpoints SPEC]
//                      [--verify-witness] [--minimize] [--quarantine-dir D]
//   $ ./error_campaign [--stages ...] [--model ...] --replay test.txt
//                      --replay-error N --expect detected|undetected
//
// Resilience controls (docs/ROBUSTNESS.md): --deadline-ms / --max-* arm a
// per-error budget; --fallback retries budget-exhausted errors with the
// biased-random baseline generator; --journal checkpoints one fsync'd JSONL
// row per error so an interrupted run restarted with --resume reproduces
// the identical summary; Ctrl-C (or SIGTERM) cancels cooperatively (the
// current error finishes and is journaled before the partial summary
// prints).
//
// Self-checking controls (docs/ROBUSTNESS.md "Self-checking and triage"):
// --verify-witness re-validates every detection claim through an
// independent scalar cosimulation; a refuted claim is retried once with the
// opposite --solver setting and, failing that, lands in the claim_mismatch
// bucket (exit status 2). --minimize delta-debugs each mismatching witness;
// --quarantine-dir writes one diagnostic bundle per incident. The --replay
// mode re-runs one saved testcase through the oracle and exits 0 iff the
// verdict matches --expect - it is the repro command each bundle ships.
//
// Performance controls (docs/PERFORMANCE.md): --jobs N runs the generator
// on N worker threads (identical summary for any N); --drop error-simulates
// each generated test against all remaining errors with the bit-parallel
// batch simulator and drops the fortuitously detected ones. The two are
// mutually exclusive (dropping is inherently sequential: each drop pass
// depends on the tests kept so far). --lanes N caps the batch width
// (default: CPUID auto up to 512, or HLTG_LANES); any width yields the
// identical summary - only the pass counters change.
//
// --solver off is the escape hatch back to the legacy CTRLJUST search
// (docs/SOLVER.md): no implication engine, nogood learning or justification
// cache. Detection outcomes are identical either way; only the effort
// counters differ.
//
// --probe on batches CTRLJUST's candidate decisions through the SIMD lane
// engine before each descent and prunes proven-doomed branches
// (docs/SOLVER.md "Batched probing"): witnesses and detection outcomes are
// unchanged for any --lanes width or backend; decisions/backtracks drop.
// Off by default so default rows stay byte-identical across releases.
// --probe-order on additionally re-ranks surviving candidates by
// implied-literal count (implies --probe on; this one MAY change witnesses).
//
// --solver-scope campaign keeps the learned nogoods, justification cache
// and DPRELAX memo alive across the whole error population instead of
// resetting them per error (docs/SOLVER.md has the determinism argument:
// outcomes, witnesses and emitted tests stay identical to error scope;
// effort counters drop - that is the reuse). With --jobs > 1 the parallel
// engine shards errors round-robin per worker (deterministic for any N)
// and the workers exchange learned netlist-level nogoods through a shared
// board between errors.
//
// --store FILE persists the campaign-scope deduction state across process
// lifetimes (docs/ROBUSTNESS.md "Persisted deduction store"): loaded -
// after a design-hash/config-hash validation - before the campaign for a
// warm start, saved atomically after it. Requires --solver-scope campaign.
// --failpoints SPEC (or HLTG_FAILPOINTS in the environment) arms the I/O
// fault-injection harness for crash-recovery testing; see
// src/util/failpoint.h for the grammar.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "baseline/random_tg.h"
#include "core/tg.h"
#include "errors/parallel_campaign.h"
#include "errors/redundancy.h"
#include "errors/report.h"
#include "isa/testcase_io.h"
#include "sim/batch_sim.h"
#include "solver/nogood_board.h"
#include "solver/store.h"
#include "triage/triage.h"
#include "triage/witness_check.h"
#include "util/failpoint.h"
#include "util/table.h"

using namespace hltg;

namespace {

std::vector<Stage> parse_stages(const std::string& s) {
  std::vector<Stage> out;
  if (s.find("IF") != std::string::npos) out.push_back(Stage::kIF);
  if (s.find("ID") != std::string::npos) out.push_back(Stage::kID);
  if (s.find("EX") != std::string::npos) out.push_back(Stage::kEX);
  if (s.find("MEM") != std::string::npos) out.push_back(Stage::kMEM);
  if (s.find("WB") != std::string::npos) out.push_back(Stage::kWB);
  return out;
}

std::string stages_to_string(const std::vector<Stage>& stages) {
  std::string out;
  for (Stage s : stages) {
    if (!out.empty()) out += ',';
    switch (s) {
      case Stage::kIF: out += "IF"; break;
      case Stage::kID: out += "ID"; break;
      case Stage::kEX: out += "EX"; break;
      case Stage::kMEM: out += "MEM"; break;
      case Stage::kWB: out += "WB"; break;
      default: break;  // kGlobal never comes from parse_stages
    }
  }
  return out;
}

CancelToken g_cancel;
extern "C" void on_sigint(int) { g_cancel.request_stop(); }

/// A zero-length store file (e.g. just created by the writability probe)
/// is a cold start, not a load candidate.
bool nonempty_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  std::fseek(f, 0, SEEK_END);
  const long n = std::ftell(f);
  std::fclose(f);
  return n > 0;
}

/// Bundle repro mode: replay one saved testcase through the independent
/// oracle and compare against the expected verdict. Exit 0 iff reproduced.
int run_replay(const DlxModel& m, const std::vector<DesignError>& errors,
               const std::string& test_path, std::size_t error_index,
               bool expect_detected) {
  if (error_index >= errors.size()) {
    std::fprintf(stderr, "--replay-error %zu out of range (population has "
                 "%zu errors; same --model/--stages as the campaign?)\n",
                 error_index, errors.size());
    return 1;
  }
  const TestLoadResult loaded = load_test(test_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", test_path.c_str(),
                 loaded.error.c_str());
    return 1;
  }
  const DesignError& err = errors[error_index];
  const WitnessCheck chk =
      check_witness(m, loaded.test, err, expect_detected);
  std::printf("error %zu: %s\nexpected %s: %s (%s)\n", error_index,
              err.describe(m.dp).c_str(),
              expect_detected ? "detected" : "undetected",
              chk.verdict == WitnessVerdict::kConfirmed ? "REPRODUCED"
                                                        : "NOT reproduced",
              chk.note.c_str());
  return chk.verdict == WitnessVerdict::kConfirmed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  std::string emodel = "ssl";
  std::string csv_path, save_dir;
  CampaignConfig ccfg;
  bool use_fallback = false;
  unsigned fallback_tries = 64;
  unsigned jobs = 1;
  bool use_drop = false;
  unsigned lanes = 0;  // --drop batch width; 0 = resolve_lanes() auto
  bool use_solver = true;
  bool use_probes = false;  // --probe: batched decision probing
  bool probe_order = false;  // --probe-order: implied-count decision ranking
  SolverScope scope = SolverScope::kError;
  bool verify_witness = false;
  bool minimize = false;
  std::string quarantine_dir;
  std::string store_path, failpoint_spec;
  std::string replay_path, expect;
  std::size_t replay_error = 0;
  bool have_replay_error = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--stages") && i + 1 < argc)
      stages = parse_stages(argv[++i]);
    else if (!std::strcmp(argv[i], "--model") && i + 1 < argc)
      emodel = argv[++i];
    else if (!std::strcmp(argv[i], "--csv") && i + 1 < argc)
      csv_path = argv[++i];
    else if (!std::strcmp(argv[i], "--save-tests") && i + 1 < argc)
      save_dir = argv[++i];
    else if (!std::strcmp(argv[i], "--deadline-ms") && i + 1 < argc)
      ccfg.budget.deadline_seconds = std::atof(argv[++i]) / 1000.0;
    else if (!std::strcmp(argv[i], "--max-backtracks") && i + 1 < argc)
      ccfg.budget.max_backtracks =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (!std::strcmp(argv[i], "--max-decisions") && i + 1 < argc)
      ccfg.budget.max_decisions =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (!std::strcmp(argv[i], "--fallback")) {
      use_fallback = true;
      if (i + 1 < argc && argv[i + 1][0] != '-')
        fallback_tries = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--journal") && i + 1 < argc)
      ccfg.journal_path = argv[++i];
    else if (!std::strcmp(argv[i], "--resume"))
      ccfg.resume = true;
    else if (!std::strcmp(argv[i], "--resume=strict")) {
      ccfg.resume = true;
      ccfg.resume_strict = true;
    }
    else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
      jobs = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (!std::strcmp(argv[i], "--drop"))
      use_drop = true;
    else if (!std::strcmp(argv[i], "--lanes") && i + 1 < argc)
      lanes = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (!std::strcmp(argv[i], "--solver") && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "on")
        use_solver = true;
      else if (v == "off")
        use_solver = false;
      else {
        std::fprintf(stderr, "--solver takes 'on' or 'off', not '%s'\n",
                     v.c_str());
        return 1;
      }
    }
    else if (!std::strcmp(argv[i], "--probe") && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "on")
        use_probes = true;
      else if (v == "off")
        use_probes = false;
      else {
        std::fprintf(stderr, "--probe takes 'on' or 'off', not '%s'\n",
                     v.c_str());
        return 1;
      }
    }
    else if (!std::strcmp(argv[i], "--probe-order") && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "on") {
        use_probes = true;  // ranking needs the probe verdicts
        probe_order = true;
      } else if (v == "off")
        probe_order = false;
      else {
        std::fprintf(stderr, "--probe-order takes 'on' or 'off', not '%s'\n",
                     v.c_str());
        return 1;
      }
    }
    else if (!std::strcmp(argv[i], "--solver-scope") && i + 1 < argc) {
      const std::string v = argv[++i];
      if (v == "error")
        scope = SolverScope::kError;
      else if (v == "campaign")
        scope = SolverScope::kCampaign;
      else {
        std::fprintf(stderr,
                     "--solver-scope takes 'error' or 'campaign', not '%s'\n",
                     v.c_str());
        return 1;
      }
    }
    else if (!std::strcmp(argv[i], "--store") && i + 1 < argc)
      store_path = argv[++i];
    else if (!std::strcmp(argv[i], "--failpoints") && i + 1 < argc)
      failpoint_spec = argv[++i];
    else if (!std::strcmp(argv[i], "--verify-witness"))
      verify_witness = true;
    else if (!std::strcmp(argv[i], "--minimize"))
      minimize = true;
    else if (!std::strcmp(argv[i], "--quarantine-dir") && i + 1 < argc)
      quarantine_dir = argv[++i];
    else if (!std::strcmp(argv[i], "--replay") && i + 1 < argc)
      replay_path = argv[++i];
    else if (!std::strcmp(argv[i], "--replay-error") && i + 1 < argc) {
      replay_error = static_cast<std::size_t>(std::atoll(argv[++i]));
      have_replay_error = true;
    } else if (!std::strcmp(argv[i], "--expect") && i + 1 < argc)
      expect = argv[++i];
    else if (!std::strcmp(argv[i], "-v"))
      ccfg.verbose = true;
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 1;
    }
  }
  if (stages.empty()) {
    std::fprintf(stderr, "no valid stages\n");
    return 1;
  }
  if (ccfg.resume && ccfg.journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal\n");
    return 1;
  }
  if (use_drop && jobs > 1) {
    std::fprintf(stderr, "--drop and --jobs are mutually exclusive\n");
    return 1;
  }
  if (!store_path.empty() && scope != SolverScope::kCampaign) {
    std::fprintf(stderr, "--store requires --solver-scope campaign (a "
                 "per-error-scope context has nothing to persist)\n");
    return 1;
  }
  if (!replay_path.empty() &&
      (!have_replay_error || (expect != "detected" && expect != "undetected"))) {
    std::fprintf(stderr, "--replay requires --replay-error N and "
                 "--expect detected|undetected\n");
    return 1;
  }
  // Minimization and quarantine are refinements of the cross-check.
  if (minimize || !quarantine_dir.empty()) verify_witness = true;

  // Arm the I/O fault-injection harness (zero-cost when unused).
  failpoint::configure_from_env();
  if (!failpoint_spec.empty()) {
    std::string fperr;
    if (!failpoint::configure(failpoint_spec, &fperr)) {
      std::fprintf(stderr, "--failpoints: %s\n", fperr.c_str());
      return 1;
    }
  }

  // Fail fast on unwritable output paths: a campaign that runs for an hour
  // and then cannot journal, persist, or quarantine wasted the hour. The
  // store's prior size is recorded BEFORE the probe (the probe leaves an
  // empty file behind when the path was absent).
  const bool store_existed = !store_path.empty() && nonempty_file(store_path);
  std::string why;
  if (!ccfg.journal_path.empty() &&
      !probe_writable_file(ccfg.journal_path, &why)) {
    std::fprintf(stderr, "--journal %s: %s\n", ccfg.journal_path.c_str(),
                 why.c_str());
    return 1;
  }
  if (!store_path.empty() && !probe_writable_file(store_path, &why)) {
    std::fprintf(stderr, "--store %s: %s\n", store_path.c_str(), why.c_str());
    return 1;
  }
  if (!quarantine_dir.empty() && !probe_writable_dir(quarantine_dir, &why)) {
    std::fprintf(stderr, "--quarantine-dir %s: %s\n", quarantine_dir.c_str(),
                 why.c_str());
    return 1;
  }

  const DlxModel m = build_dlx();
  std::vector<DesignError> errors;
  if (emodel == "ssl") {
    BusSslConfig cfg;
    cfg.stages = stages;
    errors = wrap(enumerate_bus_ssl(m.dp, cfg));
  } else if (emodel == "mse") {
    errors = wrap(enumerate_mse(m.dp, stages));
  } else if (emodel == "boe") {
    errors = wrap(enumerate_boe(m.dp, stages));
  } else if (emodel == "bse") {
    BseConfig cfg;
    cfg.stages = stages;
    errors = wrap(enumerate_bse(m.dp, cfg));
  } else {
    std::fprintf(stderr, "unknown error model '%s'\n", emodel.c_str());
    return 1;
  }
  if (!replay_path.empty())
    return run_replay(m, errors, replay_path, replay_error,
                      expect == "detected");
  std::printf("error model %s, %zu errors\n", emodel.c_str(), errors.size());

  std::signal(SIGINT, on_sigint);
  std::signal(SIGTERM, on_sigint);  // orchestrators kill politely too
  ccfg.cancel = &g_cancel;
  ccfg.budget.cancel = &g_cancel;
  if (use_fallback) {
    RandomTgConfig rcfg;
    rcfg.max_programs_per_error = fallback_tries;
    ccfg.fallback = random_budgeted_strategy(m, rcfg);
    ccfg.fallback_budget = ccfg.budget;  // same deadline/caps per attempt
  }

  TgConfig tgcfg;
  tgcfg.solver.enable = use_solver;
  tgcfg.solver.scope = scope;
  tgcfg.ctrljust.use_probes = use_probes;
  tgcfg.ctrljust.probe_order = probe_order;
  tgcfg.ctrljust.probe_lanes = lanes;  // shared with --drop batch width

  // Provenance stamps: recorded in the journal header and the store meta
  // record, validated on --resume and on store load so deduction state is
  // never replayed against a different design or solver configuration.
  ccfg.design_hash = tg_design_hash(m);
  ccfg.solver_config_hash = tg_config_hash(tgcfg);

  // Cross-worker nogood exchange for the sharded campaign scope: workers
  // publish learned netlist-level cuts between errors and import the
  // others' via epoch-published read-only snapshots.
  NogoodBoard board;
  if (scope == SolverScope::kCampaign && jobs > 1)
    tgcfg.solver.shared_board = &board;

  // Warm start: load the persisted deduction store (validated against the
  // stamps above). A missing or empty file is a cold start; a mismatched
  // or unreadable one is a hard error - silently searching cold after the
  // user asked for a warm start would hide the problem.
  DedSnapshot warm;
  if (!store_path.empty() && store_existed) {
    DedStoreLoad load =
        load_ded_store(store_path, ccfg.design_hash, ccfg.solver_config_hash);
    if (!load.ok) {
      std::fprintf(stderr, "--store %s: %s\n", store_path.c_str(),
                   load.note.c_str());
      return 1;
    }
    warm = std::move(load.snapshot);
    std::printf("store: warm start, %zu deductions from %s%s%s\n",
                warm.entries(), store_path.c_str(),
                load.note.empty() ? "" : " - ",
                load.note.c_str());
  }

  if (verify_witness) {
    TriageOptions topt;
    topt.verify = true;
    topt.minimize = minimize;
    topt.quarantine_dir = quarantine_dir;
    topt.repro_flags =
        "--model " + emodel + " --stages " + stages_to_string(stages);
    topt.cross_config = tgcfg;
    topt.cross_config.solver.enable = !use_solver;  // the other search
    topt.cross_config.solver.shared_board = nullptr;  // oracle stays cold
    ccfg.triage = make_triage(m, topt);
  }

  const bool persist = !store_path.empty();
  DedSnapshot saved;  // merged deduction state persisted after the campaign
  CampaignResult res;
  if (use_drop) {
    TestGenerator tg(m, tgcfg);
    if (!warm.empty()) import_context(warm, &tg.solver_context());
    BatchDetectConfig bcfg;
    bcfg.max_lanes = lanes;  // 0 = resolve_lanes (CPUID auto / HLTG_LANES)
    res = run_campaign_with_dropping(m.dp, errors, tg.budgeted_strategy(),
                                     batch_detector(m, bcfg), ccfg);
    if (persist) saved = export_context(tg.solver_context());
  } else if (jobs > 1) {
    // Workers share the model read-only; materialise its lazy caches before
    // handing out const refs.
    m.warm_caches();
    ParallelCampaignConfig pcfg;
    static_cast<CampaignConfig&>(pcfg) = ccfg;
    pcfg.jobs = jobs;
    if (use_fallback) {
      RandomTgConfig rcfg;
      rcfg.max_programs_per_error = fallback_tries;
      pcfg.fallback = nullptr;  // replaced by per-worker instances
      pcfg.fallback_factory = [&m, rcfg](unsigned) {
        return random_budgeted_strategy(m, rcfg);
      };
    }
    // Keep each worker's generator reachable so its deduction state can be
    // exported after the pool joins (merged in worker-id order: the saved
    // store must be reproducible).
    std::mutex gen_mu;
    std::vector<std::shared_ptr<TestGenerator>> worker_gens(jobs);
    res = run_campaign_parallel(
        m.dp, errors,
        [&](unsigned w) {
          auto tg = std::make_shared<TestGenerator>(m, tgcfg);
          if (!warm.empty()) import_context(warm, &tg->solver_context());
          {
            std::lock_guard<std::mutex> lk(gen_mu);
            worker_gens[w] = tg;
          }
          BudgetedGenFn s = tg->budgeted_strategy();
          return [tg, s](const DesignError& e, Budget& b) { return s(e, b); };
        },
        pcfg);
    std::printf("ran on %u worker threads\n", jobs);
    if (persist)
      for (const auto& tg : worker_gens)
        if (tg) saved.merge(export_context(tg->solver_context()));
  } else {
    TestGenerator tg(m, tgcfg);
    if (!warm.empty()) import_context(warm, &tg.solver_context());
    res = run_campaign(m.dp, errors, tg.budgeted_strategy(), ccfg);
    if (persist) saved = export_context(tg.solver_context());
  }
  if (res.resume_refused) {
    std::fprintf(stderr, "journal: %s\n", res.journal_note.c_str());
    return 1;
  }
  if (persist) {
    DedStoreMeta meta;
    meta.design_hash = ccfg.design_hash;
    meta.config_hash = ccfg.solver_config_hash;
    std::string swhy;
    if (save_ded_store(store_path, meta, saved, &swhy))
      std::printf("store: saved %zu deductions to %s\n", saved.entries(),
                  store_path.c_str());
    else
      std::fprintf(stderr, "store: save failed: %s (next run starts cold)\n",
                   swhy.c_str());
  }
  if (use_drop)
    std::printf("dropping: kept %zu tests, dropped %zu errors (%.2f s error "
                "simulation)\n",
                res.tests_kept, res.stats.dropped, res.dropping_seconds);
  if (!res.journal_note.empty())
    std::fprintf(stderr, "journal: %s\n", res.journal_note.c_str());
  if (res.resumed_rows > 0)
    std::printf("resumed %zu journaled errors, ran %zu\n", res.resumed_rows,
                res.stats.attempted - res.resumed_rows);
  else if (ccfg.resume)
    // --resume that replayed nothing means the checkpoint was not actually
    // used - most often a typo'd path. Loud, because the run silently
    // repeated all the work the journal was supposed to save.
    std::fprintf(stderr,
                 "WARNING: --resume replayed no journaled rows (%s); the "
                 "campaign started fresh. Use --resume=strict to make this "
                 "an error.\n",
                 res.journal_note.empty() ? "journal was empty"
                                          : res.journal_note.c_str());
  if (res.interrupted)
    std::printf("interrupted after %zu of %zu errors (journal is "
                "resumable)\n",
                res.stats.attempted, res.stats.total);
  // Verification chatter goes to stderr: the stdout summary of a
  // mismatch-free verified run is byte-identical to an unverified one.
  if (verify_witness) {
    std::fprintf(stderr,
                 "verify: %zu claims confirmed, %zu mismatches, %zu oracle "
                 "errors, %zu recovered, %zu drop claims refuted\n",
                 res.stats.verify_confirmed, res.stats.claim_mismatch,
                 res.stats.oracle_errors, res.stats.verify_recovered,
                 res.stats.drop_mismatches);
    for (const std::string& note : res.incident_notes)
      std::fprintf(stderr, "incident: %s\n", note.c_str());
  }
  std::printf("%s\n", res.stats.table1("campaign summary").c_str());

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << campaign_csv(m.dp, res);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (!save_dir.empty()) {
    unsigned saved = 0;
    for (std::size_t i = 0; i < res.rows.size(); ++i) {
      const ErrorAttempt& a = res.rows[i].attempt;
      if (!a.detected()) continue;
      save_test(a.test, save_dir + "/test_" + std::to_string(i) + ".txt");
      ++saved;
    }
    std::printf("saved %u tests to %s/\n", saved, save_dir.c_str());
  }

  // Post-mortem on aborted errors: separate provable redundancy (both
  // proofs - constant bit or unobservable bit, as redundant_subset) from
  // genuine generator give-ups.
  if (emodel == "ssl" && !res.interrupted) {
    const BitConstants bc = analyze_bit_constants(m.dp);
    const ObservableBits ob = analyze_observable_bits(m.dp);
    std::size_t redundant = 0;
    std::printf("aborted errors:\n");
    for (const CampaignRow& row : res.rows) {
      if (row.attempt.detected()) continue;
      const auto& e = std::get<BusSslError>(row.error.e);
      const bool red = is_redundant(bc, ob, e);
      redundant += red;
      const bool quarantined =
          row.attempt.outcome() == AttemptOutcome::kClaimMismatch;
      std::printf("  %-44s %s\n", row.error.describe(m.dp).c_str(),
                  quarantined
                      ? "quarantined: claim mismatch"
                      : red ? "provably undetectable"
                            : row.attempt.abort == AbortReason::kNone
                                  ? "generator gave up"
                                  : ("aborted: " +
                                     std::string(to_string(row.attempt.abort)))
                                        .c_str());
    }
    std::printf("%zu of %zu aborted errors are provably undetectable\n",
                redundant, res.stats.aborted);
  }
  if (res.interrupted) return 130;
  // A claim mismatch means the campaign's own bookkeeping disagreed with
  // the independent oracle: fail loudly so CI surfaces the quarantine.
  if (res.stats.claim_mismatch > 0) return 2;
  return 0;
}
