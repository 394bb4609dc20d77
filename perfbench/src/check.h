// The benchmark's independent output check.
//
// A campaign claims, per population error, "detected with this witness" or
// "not detected"; the redundancy analysis claims some errors undetectable.
// The check re-derives every verdict with the scalar cosimulator alone -
// never with the generator's own confirmation or the batch simulator that
// drop passes use:
//
//  - detected: the witness run with no injection shows the pipeline
//    matching the ISA specification (spec_run), and the run with the
//    error injected diverges from it;
//  - proven redundant: no test the run made (generator, fallback or kept)
//    detects the error - the soundness property of the proof - and the
//    campaign did not claim it detected;
//  - every error lands in exactly one of detected / redundant / unknown.
//    An error that threw, or that no class accounts for, fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "errors/inject.h"
#include "isa/spec_sim.h"

namespace hltg {
struct DlxModel;
}

namespace perfbench {

class SpanLog;

/// What a campaign pass claims about one error.
enum class Claim : std::uint8_t {
  kDetected,    ///< detected with `witness` (own test or a drop pass)
  kUndetected,  ///< generator (and fallback) gave up
  kFailed,      ///< the attempt threw, or no class accounts for the error
};

struct Outcome {
  std::vector<Claim> claim;               ///< per population error
  std::vector<hltg::TestCase> witness;    ///< per error, valid when detected
  std::vector<hltg::TestCase> tests_made; ///< every test the pass produced
};

/// Content key of a test (program, register file, memory image); equal
/// keys mean identical tests.
std::vector<std::uint32_t> test_key(const hltg::TestCase& tc);

struct CheckResult {
  std::vector<std::string> reasons;  ///< one line per rejected error
  std::size_t detected = 0;          ///< witness confirmed
  std::size_t redundant = 0;         ///< proof held against every test
  std::size_t unknown = 0;
  std::size_t failures = 0;
  std::uint64_t sim_calls = 0;  ///< scalar cosim runs
  double sim_s = 0;             ///< time inside those runs
};

/// Check `o` against the population. `proven_redundant[i]` marks the
/// errors the redundancy analysis proves undetectable. With `log`, each
/// scalar simulation becomes a span under `parent`.
CheckResult check_outcome(const hltg::DlxModel& m,
                          const std::vector<hltg::DesignError>& errors,
                          const std::vector<char>& proven_redundant,
                          const Outcome& o, SpanLog* log = nullptr,
                          int parent = -1);

/// Feed the check planted wrong results built from a genuine outcome - a
/// witness paired with an error it does not detect, and a redundancy claim
/// for an error a witness detects - and a genuine detection as control.
/// True iff the check rejects each planted result and accepts the control;
/// `note` says which expectation failed.
bool planted_results_rejected(const hltg::DlxModel& m,
                              const std::vector<hltg::DesignError>& errors,
                              const Outcome& genuine, std::string* note);

}  // namespace perfbench
