// The three campaign workloads: set-up and one pass over the population.
//
// Every call into a library layer is wrapped and timed here, from outside
// the library: TestGenerator::generate (with the TgStats it returns), the
// fallback BudgetedGenFn, and the batch_detector BatchDetectFn (with its
// BatchSimStats). The campaign loop itself is the library's own
// run_campaign / run_campaign_with_dropping, so a pass measures what a user
// of error_campaign runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "core/tg.h"
#include "dlx/dlx.h"
#include "sim/batch_sim.h"
#include "spans.h"

namespace perfbench {

enum class Workload {
  kSslTable1,   ///< bus-SSL on EX/MEM/WB, no dropping, no fallback
  kExtModels,   ///< MSE + BOE + BSE on EX/MEM/WB, same configuration
  kSslCompact,  ///< bus-SSL with batch error dropping and random fallback
};

/// Parse a workload name ("ssl_table1", "ext_models", "ssl_compact").
bool parse_workload(const std::string& name, Workload* out);

/// Campaigns in a run of `seconds`: one per sub-seed. Outcomes and search
/// effort depend on the DPRELAX and fallback seeds, so a run averages over
/// several seeds instead of reporting one seed's luck. The count comes from
/// a fixed cost per campaign (its check included) measured on the
/// reference machine, never from the clock, so the work of a run depends
/// on `seconds` alone and counts repeat exactly at a fixed seed.
unsigned campaigns_for(Workload w, double seconds);

/// The seed of campaign `k` of a run: the run's own seed for k = 0 (so
/// seed 12345 reproduces error_campaign's default DPRELAX seed), the k-th
/// draw of hltg::Rng(seed) otherwise.
std::uint64_t sub_seed(std::uint64_t seed, unsigned k);

/// Everything a pass needs, built once per set-up. Heap-held and never
/// moved: generators keep references to `m`.
struct Setup {
  hltg::DlxModel m;
  std::vector<hltg::DesignError> errors;
  std::vector<char> proven_redundant;  ///< per error (bus-SSL proofs only)
  bool compact = false;  ///< batch error dropping and random fallback
  // Phase times of this set-up.
  double build_s = 0, enumerate_s = 0, redundancy_s = 0, warm_s = 0,
         construct_s = 0, total_s = 0;
};

/// Build the model, enumerate the population, prove redundancy, warm the
/// lazy caches and construct a generator (seeded with `seed`), timing each
/// phase. With `log`, each phase is a span under `parent`.
std::unique_ptr<Setup> set_up(Workload w, std::uint64_t seed, SpanLog* log,
                              int parent);

/// Sums of the TgStats fields the benchmark reports.
struct TgTotals {
  std::uint64_t plans_tried = 0, decisions = 0, backtracks = 0,
                implications = 0, learned = 0, nogood_hits = 0,
                nogood_comparisons = 0, cache_hits = 0, cache_lookups = 0,
                relax_hits = 0, relax_lookups = 0, dptrace_expansions = 0,
                dptrace_ns = 0, ctrljust_ns = 0, dprelax_ns = 0;
  void add(const hltg::TgStats& s);
};

/// Measurements of one campaign pass.
struct PassStats {
  double campaign_s = 0;           ///< first attempt to last classification
  std::vector<double> attempt_s;   ///< per attempted error: generate+fallback
  Outcome outcome;
  double avg_test_length = 0;      ///< CampaignStats::avg_test_length
  std::size_t dropped = 0;         ///< errors classified by a drop pass

  std::uint64_t gen_calls = 0, gen_detected = 0;
  double gen_s = 0, abort_s = 0;
  TgTotals tg;
  double redundant_attempt_s = 0;  ///< generate+fallback on proven errors

  std::uint64_t fb_calls = 0, fb_detected = 0;
  double fb_s = 0;

  std::uint64_t batch_calls = 0;
  double batch_s = 0;
  hltg::BatchSimStats batch;

  double span_covered_s = 0;  ///< traced passes: time inside error spans
};

/// One pass over the population with a fresh generator; `seed` sets the
/// DPRELAX base seed and the fallback's RandomTgConfig::seed. With `log`,
/// every wrapped call is a span, grouped under one span per error, under a
/// "campaign" span whose parent is `parent`.
PassStats run_pass(const Setup& s, std::uint64_t seed, SpanLog* log,
                   int parent);

}  // namespace perfbench
