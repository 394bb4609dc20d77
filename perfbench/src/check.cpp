#include "check.h"

#include <map>

#include "dlx/dlx.h"
#include "sim/cosim.h"
#include "spans.h"

namespace perfbench {

using hltg::DesignError;
using hltg::DlxModel;
using hltg::TestCase;

std::vector<std::uint32_t> test_key(const TestCase& tc) {
  std::vector<std::uint32_t> k;
  k.reserve(2 + tc.imem.size() + tc.rf_init.size() + 2 * tc.dmem_init.size());
  k.push_back(static_cast<std::uint32_t>(tc.imem.size()));
  k.insert(k.end(), tc.imem.begin(), tc.imem.end());
  k.insert(k.end(), tc.rf_init.begin(), tc.rf_init.end());
  k.push_back(static_cast<std::uint32_t>(tc.dmem_init.size()));
  for (const auto& [addr, val] : tc.dmem_init) {
    k.push_back(addr);
    k.push_back(val);
  }
  return k;
}

namespace {

/// Scalar simulations of one check, timed (and traced when a log is given).
struct Sim {
  const DlxModel& m;
  SpanLog* log;
  int parent;
  CheckResult* r;

  /// Spec-vs-implementation comparison; true iff the traces match.
  bool matches(const TestCase& tc, const hltg::ErrorInjection& inj,
               const char* span, long error) {
    const auto t0 = Clock::now();
    const bool match =
        hltg::cosim(m, tc, hltg::drain_cycles(tc.imem.size()), inj).match;
    const auto t1 = Clock::now();
    ++r->sim_calls;
    r->sim_s += seconds_between(t0, t1);
    if (log) log->add(span, t0, t1, parent, error);
    return match;
  }
};

}  // namespace

CheckResult check_outcome(const DlxModel& m,
                          const std::vector<DesignError>& errors,
                          const std::vector<char>& proven_redundant,
                          const Outcome& o, SpanLog* log, int parent) {
  const std::size_t n = errors.size();
  CheckResult r;
  Sim sim{m, log, parent, &r};
  auto fail = [&](std::size_t i, const std::string& why) {
    ++r.failures;
    r.reasons.push_back("error " + std::to_string(i) + " (" +
                        errors[i].describe(m.dp) + "): " + why);
  };
  if (o.claim.size() != n || o.witness.size() != n) {
    for (std::size_t i = 0; i < n; ++i) fail(i, "outcome does not cover it");
    return r;
  }

  // Distinct tests the pass made; the fault-free run of each is checked once.
  std::map<std::vector<std::uint32_t>, const TestCase*> made;
  for (const TestCase& t : o.tests_made) made.emplace(test_key(t), &t);
  std::map<std::vector<std::uint32_t>, bool> fault_free_ok;

  for (std::size_t i = 0; i < n; ++i) {
    const hltg::ErrorInjection inj = errors[i].injection();
    const long ei = static_cast<long>(i);
    switch (o.claim[i]) {
      case Claim::kFailed:
        fail(i, "attempt threw or left the error unclassified");
        break;
      case Claim::kDetected: {
        if (proven_redundant[i]) {
          fail(i, "claimed detected, but proven undetectable");
          break;
        }
        const TestCase& w = o.witness[i];
        const auto key = test_key(w);
        auto it = fault_free_ok.find(key);
        if (it == fault_free_ok.end())
          it = fault_free_ok
                   .emplace(key, sim.matches(w, {}, "check.fault_free", ei))
                   .first;
        if (!it->second) {
          fail(i, "fault-free pipeline does not match the ISA spec");
          break;
        }
        if (sim.matches(w, inj, "check.detects", ei)) {
          fail(i, "witness does not detect the error");
          break;
        }
        ++r.detected;
        break;
      }
      case Claim::kUndetected: {
        if (!proven_redundant[i]) {
          ++r.unknown;
          break;
        }
        bool sound = true;
        for (const auto& [key, t] : made)
          if (!sim.matches(*t, inj, "check.soundness", ei)) {
            sound = false;
            break;
          }
        if (!sound) {
          fail(i, "proven undetectable, but a test of the run detects it");
          break;
        }
        ++r.redundant;
        break;
      }
    }
  }
  return r;
}

bool planted_results_rejected(const DlxModel& m,
                              const std::vector<DesignError>& errors,
                              const Outcome& genuine, std::string* note) {
  std::size_t d = errors.size();
  for (std::size_t i = 0; i < errors.size() && d == errors.size(); ++i)
    if (genuine.claim[i] == Claim::kDetected) d = i;
  if (d == errors.size()) {
    *note = "no detected error to plant results from";
    return false;
  }
  const TestCase& w = genuine.witness[d];
  // An error the witness of `d` does not detect, found by the same scalar
  // simulator the check uses.
  std::size_t u = errors.size();
  for (std::size_t j = 0; j < errors.size() && u == errors.size(); ++j)
    if (j != d &&
        hltg::cosim(m, w, hltg::drain_cycles(w.imem.size()),
                    errors[j].injection())
            .match)
      u = j;
  if (u == errors.size()) {
    *note = "the witness detects every error; nothing to plant";
    return false;
  }

  auto verdict = [&](const DesignError& e, Claim c, bool redundant) {
    Outcome o;
    o.claim = {c};
    o.witness = {w};
    o.tests_made = {w};
    return check_outcome(m, {e}, {static_cast<char>(redundant)}, o).failures;
  };
  if (verdict(errors[d], Claim::kDetected, false) != 0) {
    *note = "control: the check rejected a genuine detection";
    return false;
  }
  if (verdict(errors[u], Claim::kDetected, false) == 0) {
    *note = "planted witness for an error it does not detect was accepted";
    return false;
  }
  if (verdict(errors[d], Claim::kUndetected, true) == 0) {
    *note = "planted redundancy claim for a detected error was accepted";
    return false;
  }
  *note = "planted results rejected (witness of error " + std::to_string(d) +
          " against error " + std::to_string(u) + "; redundancy claim on " +
          std::to_string(d) + ")";
  return true;
}

}  // namespace perfbench
