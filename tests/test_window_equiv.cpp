// Property tests of the incremental controller window (core/unroll).
//
// ControllerWindow::imply() propagates only what changed since the last
// call. Whatever the history of assign / un-assign / clear() / imply(), its
// values must equal a plain full sweep of every cycle from reset over the
// current assignments - computed here, independently, with eval_cycle3 (the
// lane engine's 01X kernel, so the window's native gate evaluation is
// checked against the single reference semantics too). The last test pins
// the CTRLJUST witnesses of the Table-1 SSL campaign, engine on and off.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/tg.h"
#include "core/unroll.h"
#include "dlx/dlx.h"
#include "errors/bus_ssl.h"
#include "errors/campaign.h"
#include "errors/inject.h"
#include "errors/report.h"
#include "gatenet/eval3.h"
#include "isa/testcase_io.h"
#include "util/rng.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

/// Reference: every cycle swept from reset, [cycle * gates + gate].
std::vector<L3> full_sweep(const ControllerWindow& w) {
  const GateNet& gn = w.net();
  const std::size_t n = gn.num_gates();
  std::vector<L3> out(w.cycles() * n);
  std::vector<L3> v;
  for (unsigned t = 0; t < w.cycles(); ++t) {
    if (t == 0)
      load_reset3(gn, v);
    else
      for (GateId d : gn.dffs()) v[d] = out[(t - 1) * n + gn.gate(d).fanin[0]];
    for (GateId g = 0; g < n; ++g)
      if (gn.gate(g).kind == GateKind::kVar) v[g] = w.assignment(g, t);
    eval_cycle3(gn, v);
    std::copy(v.begin(), v.end(), out.begin() + t * n);
  }
  return out;
}

/// Empty string when the window matches the reference everywhere, else the
/// first mismatching (cycle, gate).
std::string mismatch(const ControllerWindow& w) {
  const std::vector<L3> ref = full_sweep(w);
  const std::size_t n = w.net().num_gates();
  for (unsigned t = 0; t < w.cycles(); ++t)
    for (GateId g = 0; g < n; ++g)
      if (w.value(g, t) != ref[t * n + g])
        return "cycle " + std::to_string(t) + " gate " + std::to_string(g) +
               " (" + w.net().gate(g).name + "): window " +
               to_string(w.value(g, t)) + ", full sweep " +
               to_string(ref[t * n + g]);
  return {};
}

std::vector<GateId> vars_of(const GateNet& gn) {
  return gn.gates_of_kind(GateKind::kVar);
}

GateKind random_kind(Rng& rng) {
  // Constants are rare; the logic kinds carry the propagation.
  if (rng.chance(1, 12))
    return rng.flip() ? GateKind::kConst1 : GateKind::kConst0;
  switch (rng.below(5)) {
    case 0: return GateKind::kAnd;
    case 1: return GateKind::kOr;
    case 2: return GateKind::kNot;
    case 3: return GateKind::kXor;
    default: return GateKind::kBuf;
  }
}

unsigned random_arity(Rng& rng, GateKind k) {
  switch (k) {
    case GateKind::kAnd:
    case GateKind::kOr: return 1 + static_cast<unsigned>(rng.below(4));
    case GateKind::kXor: return 2;
    case GateKind::kNot:
    case GateKind::kBuf: return 1;
    default: return 0;  // constants
  }
}

/// Random sequential net: free variables and DFFs as sources, a random
/// combinational DAG over them (every kind, repeated fanins allowed), and
/// DFF D inputs drawn from the whole net - DFF-to-DFF chains, self loops
/// and variable-fed DFFs included.
GateNet random_net(Rng& rng) {
  GateNet gn;
  std::vector<GateId> pool;
  const unsigned nvars = 1 + static_cast<unsigned>(rng.below(8));
  const unsigned ndffs = static_cast<unsigned>(rng.below(8));
  const unsigned ncomb = 1 + static_cast<unsigned>(rng.below(60));
  for (unsigned i = 0; i < nvars; ++i) {
    Gate g;
    g.name = "v" + std::to_string(i);
    g.kind = GateKind::kVar;
    pool.push_back(gn.add_gate(g));
  }
  std::vector<GateId> dffs;
  for (unsigned i = 0; i < ndffs; ++i) {
    Gate g;
    g.name = "q" + std::to_string(i);
    g.kind = GateKind::kDff;
    g.reset_value = rng.flip();
    g.fanin = {0};  // rewired below
    dffs.push_back(gn.add_gate(g));
    pool.push_back(dffs.back());
  }
  for (unsigned i = 0; i < ncomb; ++i) {
    Gate g;
    g.name = "c" + std::to_string(i);
    g.kind = random_kind(rng);
    const unsigned nf = random_arity(rng, g.kind);
    for (unsigned j = 0; j < nf; ++j)
      g.fanin.push_back(pool[rng.below(pool.size())]);
    pool.push_back(gn.add_gate(g));
  }
  for (GateId d : dffs) gn.gate(d).fanin = {pool[rng.below(pool.size())]};
  gn.invalidate();
  return gn;
}

L3 random_value(Rng& rng) {
  const std::uint64_t r = rng.below(5);
  return r < 2 ? L3::F : r < 4 ? L3::T : L3::X;
}

/// Random assign / un-assign / clear() with imply() at random points; the
/// window is checked after every imply() and every clear().
void random_walk(ControllerWindow& w, Rng& rng, unsigned steps) {
  const std::vector<GateId> vars = vars_of(w.net());
  ASSERT_EQ(mismatch(w), "") << "fresh window";
  for (unsigned s = 0; s < steps; ++s) {
    if (rng.chance(1, 40)) {
      w.clear();
      ASSERT_EQ(mismatch(w), "") << "after clear(), step " << s;
      continue;
    }
    // A burst of assignments (some no-ops, some undone) before one imply.
    const unsigned burst = 1 + static_cast<unsigned>(rng.below(4));
    for (unsigned b = 0; b < burst; ++b)
      w.assign(vars[rng.below(vars.size())],
               static_cast<unsigned>(rng.below(w.cycles())), random_value(rng));
    w.imply();
    ASSERT_EQ(mismatch(w), "") << "after imply(), step " << s;
  }
}

/// CTRLJUST's chronological search: decide a free variable, or backtrack
/// by un-assigning and flipping the most recent unflipped decision.
void push_pop_walk(ControllerWindow& w, Rng& rng, unsigned steps) {
  struct Decision {
    GateId g;
    unsigned t;
    bool v, flipped;
  };
  const std::vector<GateId> vars = vars_of(w.net());
  std::vector<Decision> stack;
  w.clear();
  for (unsigned s = 0; s < steps; ++s) {
    if (stack.empty() || rng.chance(2, 3)) {
      const GateId g = vars[rng.below(vars.size())];
      const unsigned t = static_cast<unsigned>(rng.below(w.cycles()));
      if (w.assignment(g, t) != L3::X) continue;
      stack.push_back({g, t, rng.flip(), false});
      w.assign(g, t, l3_from_bool(stack.back().v));
    } else {
      while (!stack.empty()) {
        Decision& d = stack.back();
        w.assign(d.g, d.t, L3::X);
        if (!d.flipped) {
          d.flipped = true;
          d.v = !d.v;
          w.assign(d.g, d.t, l3_from_bool(d.v));
          break;
        }
        stack.pop_back();
      }
    }
    w.imply();
    ASSERT_EQ(mismatch(w), "") << "step " << s << ", depth " << stack.size();
  }
}

TEST(WindowEquivalence, DlxControllerRandomWalk) {
  Rng rng(101);
  for (unsigned cycles : {1u, 6u, 12u}) {
    ControllerWindow w(model().ctrl, cycles);
    random_walk(w, rng, 400);
  }
}

TEST(WindowEquivalence, DlxControllerPushPop) {
  Rng rng(202);
  for (unsigned cycles : {8u, 12u}) {
    ControllerWindow w(model().ctrl, cycles);
    for (int run = 0; run < 5; ++run) push_pop_walk(w, rng, 200);
  }
}

TEST(WindowEquivalence, RandomNetsRandomWalk) {
  Rng rng(303);
  for (int net = 0; net < 500; ++net) {
    const GateNet gn = random_net(rng);
    ControllerWindow w(gn, 1 + static_cast<unsigned>(rng.below(8)));
    random_walk(w, rng, 60);
    if (HasFatalFailure()) FAIL() << "net " << net;
  }
}

TEST(WindowEquivalence, RandomNetsPushPop) {
  Rng rng(404);
  for (int net = 0; net < 500; ++net) {
    const GateNet gn = random_net(rng);
    ControllerWindow w(gn, 1 + static_cast<unsigned>(rng.below(8)));
    push_pop_walk(w, rng, 60);
    if (HasFatalFailure()) FAIL() << "net " << net;
  }
}

TEST(WindowEquivalence, PendingAssignmentsWaitForImply) {
  ControllerWindow w(model().ctrl, 6);
  const GateId v = model().cpi[0];
  const L3 before = w.value(v, 2);
  w.assign(v, 2, L3::T);
  EXPECT_EQ(w.value(v, 2), before);  // values move only in imply()
  w.imply();
  EXPECT_EQ(w.value(v, 2), L3::T);
  w.assign(v, 2, L3::T);  // no-op
  w.assign(v, 2, L3::X);
  w.assign(v, 2, L3::T);  // undone before imply: nothing to propagate
  w.imply();
  EXPECT_EQ(mismatch(w), "");
}

/// The first `n` columns of a campaign CSV line (tools/witness_golden.sh
/// keeps 8: the timing columns after them vary run to run).
std::string columns(const std::string& line, int n) {
  std::size_t at = 0;
  for (int i = 0; i < n; ++i) {
    at = line.find(',', at);
    if (at == std::string::npos) return line;
    ++at;
  }
  return line.substr(0, at - 1);
}

// The Table-1 SSL campaign through the deterministic generator, CTRLJUST
// with the implication engine and with the legacy search: both must land on
// the committed rows (outcome, test length and - engine on - search
// effort) and on the same witness programs. The witness digest itself is
// checked against the same golden file by tools/witness_golden.sh.
TEST(WindowEquivalence, Table1SslWitnessesUnchanged) {
  std::ifstream in(std::string(HLTG_GOLDEN_DIR) +
                   "/ssl_campaign_witnesses.txt");
  ASSERT_TRUE(in) << "golden file missing";
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("witnesses sha256 ", 0) != 0) golden.push_back(line);

  const std::vector<DesignError> errors =
      wrap(enumerate_bus_ssl(model().dp, BusSslConfig{}));
  std::vector<std::string> witness[2];
  for (const bool engine : {true, false}) {
    TgConfig cfg;
    cfg.solver.enable = engine;
    TestGenerator tg(model(), cfg);
    const CampaignResult res = run_campaign(model().dp, errors,
                                            tg.budgeted_strategy(),
                                            CampaignConfig{});
    for (const CampaignRow& row : res.rows)
      witness[engine].push_back(row.attempt.detected()
                                    ? serialize_test(row.attempt.test)
                                    : std::string());
    std::istringstream csv(campaign_csv(model().dp, res));
    std::vector<std::string> rows;
    for (std::string line; std::getline(csv, line);) rows.push_back(line);
    ASSERT_EQ(rows.size(), golden.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      // The legacy search spends different effort (columns 7-8) on the
      // same outcomes.
      const int n = engine ? 8 : 6;
      EXPECT_EQ(columns(rows[i], n), columns(golden[i], n)) << "row " << i;
    }
  }
  ASSERT_EQ(witness[0].size(), witness[1].size());
  for (std::size_t i = 0; i < witness[0].size(); ++i)
    EXPECT_EQ(witness[0][i], witness[1][i]) << "error " << i;
}

}  // namespace
}  // namespace hltg
