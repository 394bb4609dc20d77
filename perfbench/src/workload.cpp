#include "workload.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <stdexcept>

#include "baseline/random_tg.h"
#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/campaign.h"
#include "errors/mse.h"
#include "errors/redundancy.h"
#include "util/rng.h"

namespace perfbench {

using hltg::DesignError;
using hltg::TestCase;

bool parse_workload(const std::string& name, Workload* out) {
  if (name == "ssl_table1") *out = Workload::kSslTable1;
  else if (name == "ext_models") *out = Workload::kExtModels;
  else if (name == "ssl_compact") *out = Workload::kSslCompact;
  else return false;
  return true;
}

unsigned campaigns_for(Workload w, double seconds) {
  // Mean seconds per checked campaign here: ext_models campaigns search
  // ~1.7x as long as SSL ones.
  const double cost = w == Workload::kExtModels ? 7.5 : 4.75;
  return std::max(1u, static_cast<unsigned>(seconds / cost));
}

std::uint64_t sub_seed(std::uint64_t seed, unsigned k) {
  if (k == 0) return seed;
  hltg::Rng rng(seed);
  std::uint64_t s = 0;
  for (unsigned i = 0; i < k; ++i) s = rng.next();
  return s;
}

namespace {

hltg::TgConfig generator_config(std::uint64_t seed) {
  hltg::TgConfig cfg;
  cfg.relax.seed = seed;
  return cfg;
}

}  // namespace

std::unique_ptr<Setup> set_up(Workload w, std::uint64_t seed, SpanLog* log,
                              int parent) {
  auto s = std::make_unique<Setup>();
  auto phase = [&](const char* name, Clock::time_point t0) {
    const auto t1 = Clock::now();
    if (log) log->add(name, t0, t1, parent);
    return seconds_between(t0, t1);
  };
  const bool ssl = w != Workload::kExtModels;

  auto t = Clock::now();
  s->m = hltg::build_dlx();
  s->build_s = phase("dlx.build", t);

  t = Clock::now();
  if (ssl) {
    s->errors = hltg::wrap(hltg::enumerate_bus_ssl(s->m.dp));
  } else {
    const std::vector<hltg::Stage> stages = {
        hltg::Stage::kEX, hltg::Stage::kMEM, hltg::Stage::kWB};
    s->errors = hltg::wrap(hltg::enumerate_mse(s->m.dp, stages));
    for (auto& e : hltg::wrap(hltg::enumerate_boe(s->m.dp, stages)))
      s->errors.push_back(std::move(e));
    for (auto& e : hltg::wrap(hltg::enumerate_bse(s->m.dp)))
      s->errors.push_back(std::move(e));
  }
  s->enumerate_s = phase("errors.enumerate", t);

  // Both proofs redundant_subset applies, called per error so the verdict
  // stays attached to the population index.
  t = Clock::now();
  s->proven_redundant.assign(s->errors.size(), 0);
  if (ssl) {
    const hltg::BitConstants bc = hltg::analyze_bit_constants(s->m.dp);
    const hltg::ObservableBits ob = hltg::analyze_observable_bits(s->m.dp);
    for (std::size_t i = 0; i < s->errors.size(); ++i)
      s->proven_redundant[i] = hltg::is_redundant(
          bc, ob, std::get<hltg::BusSslError>(s->errors[i].e));
  }
  s->redundancy_s = phase("errors.redundancy", t);

  t = Clock::now();
  s->m.ctrl.warm_caches();
  s->m.dp.topo_order();
  s->warm_s = phase("warm_caches", t);

  s->compact = w == Workload::kSslCompact;
  t = Clock::now();
  { const hltg::TestGenerator probe(s->m, generator_config(seed)); }
  s->construct_s = phase("core.construct", t);

  s->total_s = s->build_s + s->enumerate_s + s->redundancy_s + s->warm_s +
               s->construct_s;
  return s;
}

void TgTotals::add(const hltg::TgStats& s) {
  plans_tried += s.plans_tried;
  decisions += s.decisions;
  backtracks += s.backtracks;
  implications += s.implications;
  learned += s.learned;
  nogood_hits += s.nogood_hits;
  nogood_comparisons += s.nogood_comparisons;
  cache_hits += s.cache_hits;
  cache_lookups += s.cache_lookups;
  relax_hits += s.relax_hits;
  relax_lookups += s.relax_lookups;
  dptrace_expansions += s.dptrace_expansions;
  dptrace_ns += s.dptrace_ns;
  ctrljust_ns += s.ctrljust_ns;
  dprelax_ns += s.dprelax_ns;
}

PassStats run_pass(const Setup& s, std::uint64_t seed, SpanLog* log,
                   int parent) {
  const std::vector<DesignError>& errors = s.errors;
  const std::size_t n = errors.size();
  PassStats ps;
  std::vector<double> attempt(n, 0.0);
  std::vector<std::size_t> order;        // error index of each generate call
  std::vector<const TestCase*> drop_by(n, nullptr);
  std::deque<TestCase> kept;  // copies of the tests that dropped errors
  std::vector<TestCase>& made = ps.outcome.tests_made;
  int campaign = -1;

  auto index_of = [&](const DesignError& e) {
    const auto* p = &e;
    if (n == 0 || std::less<>{}(p, errors.data()) ||
        !std::less<>{}(p, errors.data() + n))
      throw std::logic_error("campaign passed an error outside the population");
    return static_cast<std::size_t>(p - errors.data());
  };
  auto span = [&](const char* name, Clock::time_point t0, Clock::time_point t1,
                  std::size_t i) {
    if (log) log->add(name, t0, t1, campaign, static_cast<long>(i));
  };

  hltg::TestGenerator tg(s.m, generator_config(seed));
  hltg::BudgetedGenFn gen = [&](const DesignError& e, hltg::Budget& b) {
    const std::size_t i = index_of(e);
    order.push_back(i);
    const auto t0 = Clock::now();
    hltg::TgResult r = tg.generate(e, &b);
    const auto t1 = Clock::now();
    span("core.generate", t0, t1, i);
    const double d = seconds_between(t0, t1);
    const bool ok = r.status == hltg::TgStatus::kSuccess;
    ++ps.gen_calls;
    ps.gen_detected += ok;
    ps.gen_s += d;
    if (!ok) ps.abort_s += d;
    ps.tg.add(r.stats);
    attempt[i] += d;
    if (!r.test.imem.empty()) made.push_back(r.test);
    hltg::ErrorAttempt a;
    a.seconds = d;
    a.generated = a.sim_confirmed = ok;  // generate() confirms by cosim
    a.test = std::move(r.test);
    a.test_length = r.test_length;
    a.abort = r.stats.abort;
    a.note = std::move(r.note);
    return a;
  };

  hltg::RandomTgConfig rcfg;
  rcfg.seed = seed;
  rcfg.max_programs_per_error = 64;  // error_campaign --fallback's default
  const hltg::BudgetedGenFn random = hltg::random_budgeted_strategy(s.m, rcfg);
  hltg::BudgetedGenFn fallback = [&](const DesignError& e, hltg::Budget& b) {
    const std::size_t i = index_of(e);
    const auto t0 = Clock::now();
    hltg::ErrorAttempt a = random(e, b);
    const auto t1 = Clock::now();
    span("baseline.fallback", t0, t1, i);
    ++ps.fb_calls;
    ps.fb_detected += a.detected();
    ps.fb_s += seconds_between(t0, t1);
    attempt[i] += seconds_between(t0, t1);
    if (a.detected()) made.push_back(a.test);
    return a;
  };

  hltg::BatchDetectConfig bcfg;
  bcfg.stats = &ps.batch;
  const hltg::BatchDetectFn batch = hltg::batch_detector(s.m, bcfg);
  hltg::BatchDetectFn detect =
      [&](const TestCase& t, const std::vector<const DesignError*>& rem) {
        const auto t0 = Clock::now();
        std::vector<bool> det = batch(t, rem);
        const auto t1 = Clock::now();
        // The test being kept belongs to the error attempted last.
        span("sim.batch_detect", t0, t1, order.empty() ? 0 : order.back());
        ++ps.batch_calls;
        ps.batch_s += seconds_between(t0, t1);
        const TestCase* copy = nullptr;
        for (std::size_t k = 0; k < rem.size() && k < det.size(); ++k) {
          if (!det[k]) continue;
          if (!copy) copy = &kept.emplace_back(t);
          drop_by[index_of(*rem[k])] = copy;
        }
        return det;
      };

  hltg::CampaignConfig cc;
  if (s.compact) cc.fallback = fallback;
  if (log) campaign = log->open("campaign", parent);
  const auto t0 = Clock::now();
  const hltg::CampaignResult res =
      s.compact ? hltg::run_campaign_with_dropping(s.m.dp, errors, gen, detect, cc)
             : hltg::run_campaign(s.m.dp, errors, gen, cc);
  const auto t1 = Clock::now();
  if (log) log->close(campaign);
  ps.campaign_s = seconds_between(t0, t1);
  ps.avg_test_length = res.stats.avg_test_length;

  // Per-error outcome: rows follow the generate calls one to one; dropped
  // errors have no row and take the kept test that dropped them.
  Outcome& o = ps.outcome;
  o.claim.assign(n, Claim::kFailed);
  o.witness.assign(n, TestCase{});
  if (res.rows.size() == order.size()) {
    for (std::size_t k = 0; k < order.size(); ++k) {
      const hltg::ErrorAttempt& a = res.rows[k].attempt;
      const std::size_t i = order[k];
      ps.attempt_s.push_back(attempt[i]);
      if (s.proven_redundant[i]) ps.redundant_attempt_s += attempt[i];
      if (a.abort == hltg::AbortReason::kException) continue;
      if (a.detected()) {
        o.claim[i] = Claim::kDetected;
        o.witness[i] = a.test;
        made.push_back(a.test);
      } else {
        o.claim[i] = Claim::kUndetected;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    if (drop_by[i]) {
      ++ps.dropped;
      o.claim[i] = Claim::kDetected;
      o.witness[i] = *drop_by[i];
    }

  if (log) {
    // One span per attempted error: the hull of its calls. What the
    // campaign span covers beyond these is the library's own bookkeeping.
    std::map<long, std::pair<Clock::time_point, Clock::time_point>> hull;
    std::vector<int> children;
    for (int k = campaign + 1; k < static_cast<int>(log->spans().size()); ++k) {
      const Span& sp = log->spans()[k];
      if (sp.parent != campaign) continue;
      children.push_back(k);
      auto [it, fresh] = hull.emplace(sp.error, std::pair{sp.t0, sp.t1});
      if (!fresh) {
        it->second.first = std::min(it->second.first, sp.t0);
        it->second.second = std::max(it->second.second, sp.t1);
      }
    }
    std::map<long, int> error_span;
    for (const auto& [e, h] : hull) {
      error_span[e] = log->add("error", h.first, h.second, campaign, e);
      ps.span_covered_s += seconds_between(h.first, h.second);
    }
    for (const int k : children)
      log->set_parent(k, error_span[log->spans()[k].error]);
  }
  return ps;
}

}  // namespace perfbench
