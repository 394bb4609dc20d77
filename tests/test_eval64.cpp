// Bit-parallel evaluation: lane-for-lane equivalence of the 64-lane kernel
// with the scalar 2-valued path, the cached DFF list, and batch-vs-scalar
// parity of the error detector across all four error models.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/tg.h"
#include "errors/boe.h"
#include "errors/bse.h"
#include "errors/bus_ssl.h"
#include "errors/mse.h"
#include "gatenet/eval3.h"
#include "gatenet/eval64.h"
#include "isa/asm.h"
#include "sim/batch_sim.h"
#include "sim/cosim.h"
#include "util/rng.h"

namespace hltg {
namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

TestCase make_tc(const std::string& src) {
  const AsmResult r = assemble(src);
  EXPECT_TRUE(r.ok());
  TestCase tc;
  tc.imem = encode_program(r.program);
  return tc;
}

// ------------------------------------------------------------ the kernel

TEST(Eval64, ResetMatchesScalar) {
  const GateNet& gn = model().ctrl;
  std::vector<std::uint64_t> v64;
  load_reset64(gn, v64);
  std::vector<bool> v2;
  load_reset2(gn, v2);
  ASSERT_EQ(v64.size(), v2.size());
  for (GateId g = 0; g < gn.num_gates(); ++g) {
    // Every lane carries the same reset state.
    EXPECT_EQ(v64[g], v2[g] ? ~std::uint64_t{0} : 0) << gn.gate(g).name;
  }
}

TEST(Eval64, LaneForLaneMatchesScalarOverRandomCycles) {
  // Drive the real DLX controller with independent random inputs per lane
  // for several clocked cycles; every gate of every lane must equal a
  // scalar eval_cycle2 of that lane.
  const GateNet& gn = model().ctrl;
  constexpr unsigned kLanes = 64;
  std::vector<GateId> vars = gn.gates_of_kind(GateKind::kVar);
  ASSERT_FALSE(vars.empty());

  Rng rng(0x515);
  std::vector<std::uint64_t> v64;
  load_reset64(gn, v64);
  std::vector<std::vector<bool>> v2(kLanes);
  for (auto& v : v2) load_reset2(gn, v);

  for (int cycle = 0; cycle < 6; ++cycle) {
    for (GateId g : vars) {
      const std::uint64_t word = rng.next();
      v64[g] = word;
      for (unsigned l = 0; l < kLanes; ++l) v2[l][g] = (word >> l) & 1;
    }
    eval_cycle64(gn, v64);
    for (unsigned l = 0; l < kLanes; ++l) eval_cycle2(gn, v2[l]);
    for (GateId g = 0; g < gn.num_gates(); ++g) {
      const std::uint64_t want = [&] {
        std::uint64_t w = 0;
        for (unsigned l = 0; l < kLanes; ++l)
          if (v2[l][g]) w |= std::uint64_t{1} << l;
        return w;
      }();
      ASSERT_EQ(v64[g], want)
          << "cycle " << cycle << " gate " << gn.gate(g).name;
    }
    std::vector<std::uint64_t> n64 = v64;
    clock_dffs64(gn, v64, n64);
    v64 = std::move(n64);
    for (unsigned l = 0; l < kLanes; ++l) {
      std::vector<bool> nl = v2[l];
      clock_dffs2(gn, v2[l], nl);
      v2[l] = std::move(nl);
    }
  }
}

TEST(GateNetCache, DffListMatchesScanAndIsInvalidated) {
  const GateNet& gn = model().ctrl;
  EXPECT_EQ(gn.dffs(), gn.gates_of_kind(GateKind::kDff));
  // Cached: repeated calls return the same storage.
  EXPECT_EQ(&gn.dffs(), &gn.dffs());

  GateNet small;
  Gate var;
  var.kind = GateKind::kVar;
  const GateId v = small.add_gate(var);
  EXPECT_TRUE(small.dffs().empty());
  Gate dff;
  dff.kind = GateKind::kDff;
  dff.fanin = {v};
  small.add_gate(dff);  // add_gate invalidates the caches
  EXPECT_EQ(small.dffs().size(), 1u);
}

// --------------------------------------------------- batched error detect

void expect_batch_matches_scalar(const std::vector<DesignError>& errs,
                                 const TestCase& tc) {
  std::vector<const DesignError*> ptrs;
  ptrs.reserve(errs.size());
  for (const DesignError& e : errs) ptrs.push_back(&e);

  BatchDetectConfig scalar;
  scalar.force_scalar = true;
  const std::vector<bool> ref = detect_errors(model(), tc, ptrs, scalar);
  const std::vector<bool> got = detect_errors(model(), tc, ptrs);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_EQ(ref[i], got[i]) << errs[i].describe(model().dp);

  // Chunk width must not matter (7 lanes forces many partial batches).
  BatchDetectConfig narrow;
  narrow.max_lanes = 7;
  EXPECT_EQ(detect_errors(model(), tc, ptrs, narrow), ref);
}

std::vector<DesignError> head(std::vector<DesignError> v, std::size_t n) {
  if (v.size() > n) v.resize(n);
  return v;
}

TestCase alu_program() {
  TestCase tc = make_tc(
      "addi r1, r0, 3\n"
      "addi r2, r0, 5\n"
      "add r3, r1, r2\n"
      "sub r4, r3, r1\n"
      "and r5, r3, r2\n"
      "or r6, r1, r2\n"
      "xor r7, r3, r4\n"
      "sw 0x40(r0), r3\n"
      "sw 0x44(r0), r7\n"
      "lw r8, 0x40(r0)\n"
      "add r9, r8, r6\n"
      "sw 0x48(r0), r9\n");
  tc.rf_init[10] = 0xDEADBEEFu;
  return tc;
}

TestCase branch_program() {
  return make_tc(
      "addi r1, r0, 1\n"
      "addi r10, r0, 7\n"
      "beqz r1, skip\n"
      "addi r10, r10, 1\n"
      "skip: bnez r1, taken\n"
      "addi r10, r10, 32\n"
      "taken: add r11, r10, r1\n"
      "sw 0x50(r0), r11\n"
      "sw 0x54(r0), r10\n");
}

TEST(BatchDetect, MatchesScalarOnSslPopulation) {
  // > 64 errors so the sweep spans multiple 64-lane batches.
  const auto errs = head(wrap(enumerate_bus_ssl(model().dp)), 80);
  ASSERT_GT(errs.size(), 64u);
  expect_batch_matches_scalar(errs, alu_program());
  expect_batch_matches_scalar(errs, branch_program());
}

TEST(BatchDetect, MatchesScalarOnMse) {
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  const auto errs = head(wrap(enumerate_mse(model().dp, stages)), 48);
  ASSERT_FALSE(errs.empty());
  expect_batch_matches_scalar(errs, alu_program());
}

TEST(BatchDetect, MatchesScalarOnBoe) {
  const std::vector<Stage> stages = {Stage::kEX, Stage::kMEM, Stage::kWB};
  const auto errs = head(wrap(enumerate_boe(model().dp, stages)), 48);
  ASSERT_FALSE(errs.empty());
  expect_batch_matches_scalar(errs, alu_program());
}

TEST(BatchDetect, MatchesScalarOnBse) {
  const auto errs = head(wrap(enumerate_bse(model().dp)), 48);
  ASSERT_FALSE(errs.empty());
  expect_batch_matches_scalar(errs, branch_program());
}

TEST(BatchDetect, MatchesScalarOnGeneratedTest) {
  // A directed test from the real generator, swept over a mixed population.
  const NetId net = model().dp.find_net("ex.alu_add");
  ASSERT_NE(net, kNoNet);
  DesignError target{BusSslError{net, 0, false}};
  TestGenerator tg(model());
  const TgResult r = tg.generate(target);
  ASSERT_EQ(r.status, TgStatus::kSuccess) << r.note;

  std::vector<DesignError> errs = head(wrap(enumerate_bus_ssl(model().dp)), 40);
  const auto bse = head(wrap(enumerate_bse(model().dp)), 20);
  errs.insert(errs.end(), bse.begin(), bse.end());
  expect_batch_matches_scalar(errs, r.test);
}

TEST(BatchDrop, DroppingCampaignAgreesWithScalarDetector) {
  // The dropping engine must compact identically whether the oracle is the
  // batched simulator or the serial per-error cosim.
  const auto some = head(wrap(enumerate_bus_ssl(model().dp)), 24);
  const DetectFn scalar = [](const TestCase& tc, const DesignError& e) {
    return detects(model(), tc, e.injection());
  };
  TestGenerator tg1(model());
  const CampaignResult a = run_campaign_with_dropping(
      model().dp, some, tg1.budgeted_strategy(), batch_from_scalar(scalar),
      CampaignConfig{});
  TestGenerator tg2(model());
  const CampaignResult b = run_campaign_with_dropping(
      model().dp, some, tg2.budgeted_strategy(), batch_detector(model()),
      CampaignConfig{});
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.tests_kept, b.tests_kept);
  EXPECT_EQ(a.stats.detected, b.stats.detected);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].error.describe(model().dp),
              b.rows[i].error.describe(model().dp));
    EXPECT_EQ(a.rows[i].attempt.detected(), b.rows[i].attempt.detected());
  }
  EXPECT_GT(a.stats.dropped, 0u);
}

}  // namespace
}  // namespace hltg
