// Table-1 campaign benchmark: one workload, one process, one thread.
//
//   campaign_bench --workload ssl_table1|ext_models|ssl_compact --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE]
//
// Times batches of set-ups (setup_s is the median of their per-set-up
// means), then runs one campaign - a pass over the error population with a
// fresh generator - per sub-seed of N; S sets how many (workload.h). Time
// metrics are means per campaign, pooled over the run's attempts for the
// percentiles; effort and outcome metrics are means per campaign, so at a
// fixed N and S they repeat exactly.
//
// Every campaign goes through the independent check (check.h). The check
// is then fed planted wrong results and must reject each.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the campaigns
// traced, plus sub-seed 0 once untraced for the tracing overhead, prints
// the per-layer metrics, the layers' self time on stderr, and writes the
// spans as Chrome trace-event JSON to --trace-out.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where an operation is one population error taken to a class in one
// campaign.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "check.h"
#include "gatenet/evalw.h"
#include "spans.h"
#include "workload.h"

using namespace perfbench;

namespace {

// A set-up takes well under a millisecond, so it is timed in batches run
// back to back: one batch before the campaigns and one after each, so the
// samples span the run as the campaigns do.
constexpr int kSetupBatch = 200;

struct Args {
  std::string workload_name;
  Workload workload = Workload::kSslTable1;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool parse_uint(const char* s, std::uint64_t* out) {
  if (!*s) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end || s[0] == '-') return false;
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, Args* a) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      a->workload_name = v;
      have_w = parse_workload(v, &a->workload);
    } else if (flag == "--seed") {
      have_seed = parse_uint(v, &a->seed);
    } else if (flag == "--seconds") {
      have_s = parse_uint(v, &u) && u >= 1 && u <= 3600;
      a->seconds = static_cast<double>(u);
    } else if (flag == "--trace") {
      have_t = parse_uint(v, &u) && u <= 1;
      a->trace = u == 1;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_w && have_seed && have_s && have_t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Instructions in the distinct tests an outcome keeps as witnesses.
double test_set_instrs(const Outcome& o) {
  std::set<std::vector<std::uint32_t>> distinct;
  double instrs = 0;
  for (std::size_t i = 0; i < o.claim.size(); ++i)
    if (o.claim[i] == Claim::kDetected &&
        distinct.insert(test_key(o.witness[i])).second)
      instrs += static_cast<double>(o.witness[i].imem.size());
  return instrs;
}

/// One checked campaign.
struct Campaign {
  PassStats ps;
  std::size_t detected = 0;   ///< witnesses the check confirmed
  std::size_t redundant = 0;  ///< proofs the check found sound
  double test_set_instrs = 0;
  double check_s = 0;         ///< the check of this campaign
  std::uint64_t sim_calls = 0;
  double sim_s = 0;
};

/// Mean per campaign.
double mean(const std::vector<Campaign>& cs,
            const std::function<double(const Campaign&)>& f) {
  double sum = 0;
  for (const Campaign& c : cs) sum += f(c);
  return sum / static_cast<double>(cs.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metrics {
  std::string json;
  void add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    json += (json.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
            buf + ", \"unit\": \"" + unit + "\"}";
  }
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload ssl_table1|ext_models|"
                 "ssl_compact --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }

  SpanLog log;
  SpanLog* tlog = args.trace ? &log : nullptr;
  const int root =
      tlog ? log.open("workload." + args.workload_name, -1) : -1;

  // ---- set-up: batches timed for the metrics, then the one kept for the
  // campaigns (traced in a traced run)
  struct SetupSample {  // per-set-up means of one batch
    double total_s = 0, build_s = 0, enumerate_s = 0, redundancy_s = 0;
  };
  std::vector<SetupSample> setups;
  auto setup_batch = [&] {
    const int bs = tlog ? log.open("setup_batch", root) : -1;
    SetupSample b;
    for (int k = 0; k < kSetupBatch; ++k) {
      const std::unique_ptr<Setup> su =
          set_up(args.workload, args.seed, nullptr, -1);
      b.total_s += su->total_s / kSetupBatch;
      b.build_s += su->build_s / kSetupBatch;
      b.enumerate_s += su->enumerate_s / kSetupBatch;
      b.redundancy_s += su->redundancy_s / kSetupBatch;
    }
    setups.push_back(b);
    if (bs >= 0) log.close(bs);
  };
  setup_batch();
  const int sp = tlog ? log.open("setup", root) : -1;
  const std::unique_ptr<Setup> s = set_up(args.workload, args.seed, tlog, sp);
  if (tlog) log.close(sp);
  const std::size_t n = s->errors.size();

  // ---- campaigns, each checked
  std::uint64_t attempted = 0, failed = 0;
  Outcome first;  // sub-seed 0's outcome, for the planted results
  auto run_checked = [&](unsigned k, bool traced) {
    Campaign c;
    // In a traced run the untraced campaign still appears, as one span, so
    // the root's self time stays small.
    const int up = tlog && !traced ? log.open("untraced_pass", root) : -1;
    try {
      c.ps = run_pass(*s, sub_seed(args.seed, k), traced ? tlog : nullptr,
                      root);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign threw: %s\n", e.what());
      c.ps.outcome.claim.assign(n, Claim::kFailed);
      c.ps.outcome.witness.assign(n, {});
    }
    if (up >= 0) log.close(up);
    attempted += n;
    Outcome& o = c.ps.outcome;
    c.test_set_instrs = test_set_instrs(o);
    const int cs = traced ? log.open("check", root) : -1;
    const auto t0 = Clock::now();
    const CheckResult chk = check_outcome(s->m, s->errors, s->proven_redundant,
                                          o, traced ? tlog : nullptr, cs);
    c.check_s = seconds_between(t0, Clock::now());
    if (cs >= 0) log.close(cs);
    for (const std::string& r : chk.reasons)
      std::fprintf(stderr, "check: %s\n", r.c_str());
    failed += chk.failures;
    c.detected = chk.detected;
    c.redundant = chk.redundant;
    c.sim_calls = chk.sim_calls;
    c.sim_s = chk.sim_s;
    if (k == 0 && first.claim.empty()) first = std::move(o);
    c.ps.outcome = {};  // checked; keeping it would grow memory per campaign
    setup_batch();
    return c;
  };

  const unsigned campaigns = campaigns_for(args.workload, args.seconds);
  std::vector<Campaign> untraced, traced;
  if (args.trace) untraced.push_back(run_checked(0, false));
  for (unsigned k = 0; k < campaigns; ++k)
    (args.trace ? traced : untraced).push_back(run_checked(k, args.trace));
  const double rss_mb = peak_rss_mb();

  std::string planted_note;
  const bool planted_ok =
      planted_results_rejected(s->m, s->errors, first, &planted_note);
  std::fprintf(stderr, "check: %s\n", planted_note.c_str());
  const bool correct = planted_ok && failed == 0;

  const std::vector<Campaign>& run = args.trace ? traced : untraced;
  const unsigned lanes = hltg::resolve_lanes();
  std::fprintf(stderr,
               "%s seed %llu: %zu errors, %u campaigns, lanes %u (%s)\n"
               "campaign_s by sub-seed:",
               args.workload_name.c_str(),
               static_cast<unsigned long long>(args.seed), n, campaigns, lanes,
               std::string(to_string(hltg::backend_for(hltg::lane_words(lanes))))
                   .c_str());
  for (const Campaign& c : run) std::fprintf(stderr, " %.3f", c.ps.campaign_s);
  std::fprintf(stderr, "\ndetected by sub-seed:");
  for (const Campaign& c : run) std::fprintf(stderr, " %zu", c.detected);
  std::fprintf(stderr, "\n");

  auto cnt = [](std::uint64_t v) { return static_cast<double>(v); };
  auto setup_median = [&](double SetupSample::*f) {
    std::vector<double> v;
    for (const SetupSample& b : setups) v.push_back(b.*f);
    return median(v);
  };
  Metrics m;
  if (!args.trace) {
    std::vector<double> attempts;
    for (const Campaign& c : untraced)
      attempts.insert(attempts.end(), c.ps.attempt_s.begin(),
                      c.ps.attempt_s.end());
    m.add("setup_s", setup_median(&SetupSample::total_s), "s");
    m.add("campaign_s", mean(untraced, [](auto& c) { return c.ps.campaign_s; }),
          "s");
    m.add("attempt_p50_ms", 1e3 * percentile(attempts, 0.5), "ms");
    m.add("attempt_p90_ms", 1e3 * percentile(attempts, 0.9), "ms");
    m.add("errors_detected",
          mean(untraced, [&](auto& c) { return cnt(c.detected); }), "count");
    m.add("errors_classified", mean(untraced, [&](auto& c) {
            return cnt(c.detected + c.redundant);
          }), "count");
    m.add("test_length_avg",
          mean(untraced, [](auto& c) { return c.ps.avg_test_length; }),
          "instr");
    m.add("test_set_instrs",
          mean(untraced, [](auto& c) { return c.test_set_instrs; }), "instr");
    m.add("peak_rss_mb", rss_mb, "MB");
    std::fprintf(stderr, "%zu attempts\n", attempts.size());
  } else {
    log.close(root);
    auto ns = [](std::uint64_t v) { return static_cast<double>(v) / 1e9; };
    auto per = [&](const std::function<double(const PassStats&)>& f) {
      return mean(traced, [&](auto& c) { return f(c.ps); });
    };
    m.add("dlx.build_s", setup_median(&SetupSample::build_s), "s");
    m.add("errors.enumerate_s", setup_median(&SetupSample::enumerate_s), "s");
    m.add("errors.redundancy_s", setup_median(&SetupSample::redundancy_s), "s");
    m.add("errors.redundant",
          cnt(std::count(s->proven_redundant.begin(),
                         s->proven_redundant.end(), 1)),
          "count");
    m.add("errors.redundant_attempt_s",
          per([](auto& p) { return p.redundant_attempt_s; }), "s");
    m.add("errors.dropped", per([&](auto& p) { return cnt(p.dropped); }),
          "count");
    m.add("core.generate_calls", per([&](auto& p) { return cnt(p.gen_calls); }),
          "count");
    m.add("core.generate_s", per([](auto& p) { return p.gen_s; }), "s");
    m.add("core.dptrace_s", per([&](auto& p) { return ns(p.tg.dptrace_ns); }),
          "s");
    m.add("core.ctrljust_s", per([&](auto& p) { return ns(p.tg.ctrljust_ns); }),
          "s");
    m.add("core.dprelax_s", per([&](auto& p) { return ns(p.tg.dprelax_ns); }),
          "s");
    m.add("core.other_s", per([&](auto& p) {
            return p.gen_s - ns(p.tg.dptrace_ns + p.tg.ctrljust_ns +
                                p.tg.dprelax_ns);
          }), "s");
    m.add("core.abort_s", per([](auto& p) { return p.abort_s; }), "s");
    m.add("core.detect_ratio", per([&](auto& p) {
            return ratio(cnt(p.gen_detected), cnt(p.gen_calls));
          }), "ratio");
    m.add("core.plans_tried", per([&](auto& p) { return cnt(p.tg.plans_tried); }),
          "count");
    m.add("core.decisions", per([&](auto& p) { return cnt(p.tg.decisions); }),
          "count");
    m.add("core.backtracks", per([&](auto& p) { return cnt(p.tg.backtracks); }),
          "count");
    m.add("core.dptrace_expansions",
          per([&](auto& p) { return cnt(p.tg.dptrace_expansions); }), "count");
    m.add("solver.implications",
          per([&](auto& p) { return cnt(p.tg.implications); }), "count");
    m.add("solver.learned", per([&](auto& p) { return cnt(p.tg.learned); }),
          "count");
    m.add("solver.nogood_hits",
          per([&](auto& p) { return cnt(p.tg.nogood_hits); }), "count");
    m.add("solver.nogood_comparisons",
          per([&](auto& p) { return cnt(p.tg.nogood_comparisons); }), "count");
    m.add("solver.justcache_hit_ratio", per([&](auto& p) {
            return ratio(cnt(p.tg.cache_hits), cnt(p.tg.cache_lookups));
          }), "ratio");
    m.add("solver.relax_hit_ratio", per([&](auto& p) {
            return ratio(cnt(p.tg.relax_hits), cnt(p.tg.relax_lookups));
          }), "ratio");
    const double sim_calls = mean(traced, [&](auto& c) {
      return cnt(c.sim_calls);
    });
    m.add("sim.detect_calls", sim_calls, "count");
    m.add("sim.detect_us",
          1e6 * ratio(mean(traced, [](auto& c) { return c.sim_s; }), sim_calls),
          "us");
    m.add("sim.batch_calls", per([&](auto& p) { return cnt(p.batch_calls); }),
          "count");
    m.add("sim.batch_s", per([](auto& p) { return p.batch_s; }), "s");
    m.add("sim.batch_lanes",
          per([&](auto& p) { return cnt(p.batch.lanes_evaluated); }), "count");
    m.add("sim.batch_controller_passes",
          per([&](auto& p) { return cnt(p.batch.controller_passes); }),
          "count");
    m.add("gatenet.gate_evals",
          per([&](auto& p) { return cnt(p.batch.gate_evals); }), "count");
    m.add("baseline.fallback_calls", per([&](auto& p) { return cnt(p.fb_calls); }),
          "count");
    m.add("baseline.fallback_s", per([](auto& p) { return p.fb_s; }), "s");
    m.add("baseline.fallback_detect_ratio", per([&](auto& p) {
            return ratio(cnt(p.fb_detected), cnt(p.fb_calls));
          }), "ratio");
    m.add("bench.check_s", mean(traced, [](auto& c) { return c.check_s; }),
          "s");
    m.add("bench.trace_overhead_s",
          traced.front().ps.campaign_s - untraced.front().ps.campaign_s, "s");

    // Layer self time over the whole traced run, and the share of traced
    // campaign time no error span covers (the library's bookkeeping).
    double campaign_total = 0, covered = 0;
    for (const Campaign& c : traced) {
      campaign_total += c.ps.campaign_s;
      covered += c.ps.span_covered_s;
    }
    std::fprintf(stderr, "%-28s %8s %12s %12s\n", "layer", "spans", "total_s",
                 "self_s");
    for (const auto& [name, lt] : log.self_times())
      std::fprintf(stderr, "%-28s %8zu %12.6f %12.6f\n", name.c_str(),
                   lt.count, lt.total_s, lt.self_s);
    std::fprintf(stderr,
                 "campaign bookkeeping outside error spans: %.6f s of %.6f s "
                 "(%.3f%%)\n",
                 campaign_total - covered, campaign_total,
                 100.0 * ratio(campaign_total - covered, campaign_total));
    if (!args.trace_out.empty()) {
      if (log.write_chrome_trace(args.trace_out))
        std::fprintf(stderr, "trace: %zu spans -> %s\n", log.spans().size(),
                     args.trace_out.c_str());
      else
        std::fprintf(stderr, "trace: cannot write %s\n",
                     args.trace_out.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json.c_str());
  return 0;
}
