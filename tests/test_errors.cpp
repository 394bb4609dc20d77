#include <gtest/gtest.h>

#include "errors/campaign.h"
#include "errors/inject.h"
#include "isa/asm.h"
#include "sim/cosim.h"
#include "util/budget.h"

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

TEST(BusSsl, EnumerationCoversTargetStages) {
  const auto errs = enumerate_bus_ssl(model().dp);
  EXPECT_GT(errs.size(), 150u);
  for (const auto& e : errs) {
    const Stage s = model().dp.net(e.net).stage;
    EXPECT_TRUE(s == Stage::kEX || s == Stage::kMEM || s == Stage::kWB);
    EXPECT_LT(e.bit, model().dp.net(e.net).width);
  }
}

TEST(BusSsl, SkipsConstantsAndCtrl) {
  const auto errs = enumerate_bus_ssl(model().dp);
  for (const auto& e : errs) {
    const Net& n = model().dp.net(e.net);
    EXPECT_NE(n.role, NetRole::kCtrl) << n.name;
    if (n.driver != kNoMod) {
      EXPECT_NE(model().dp.module(n.driver).kind, ModuleKind::kConst)
          << n.name;
    }
  }
}

TEST(BusSsl, BitsDedupedOnNarrowBuses) {
  BusSslConfig cfg;
  cfg.bits = {0, 31};
  const auto errs = enumerate_bus_ssl(model().dp, cfg);
  // For a 1-bit STS net both requested bits clamp to 0 and must dedupe.
  for (const auto& a : errs)
    for (const auto& b : errs)
      if (&a != &b) {
        EXPECT_FALSE(a.net == b.net && a.bit == b.bit &&
                     a.stuck_value == b.stuck_value);
      }
}

TEST(BusSsl, AluStuckLineIsDetectedByDirectedTest) {
  // Stick bit 0 of the ALU adder output at 0 and run a test computing an
  // odd sum stored to memory: detection is guaranteed.
  const NetId add_out = model().dp.find_net("ex.alu_add");
  ASSERT_NE(add_out, kNoNet);
  BusSslError e{add_out, 0, false};
  TestCase tc = make_tc(
      "addi r1, r0, 2\n"
      "addi r2, r0, 1\n"
      "add r3, r1, r2\n"   // 3: bit 0 set
      "sw 0x40(r0), r3\n");
  EXPECT_TRUE(detects(model(), tc, e.injection()));
}

TEST(BusSsl, StuckAtCorrectValueNotDetected) {
  const NetId add_out = model().dp.find_net("ex.alu_add");
  BusSslError e{add_out, 0, false};
  TestCase tc = make_tc(
      "addi r1, r0, 2\n"
      "add r3, r1, r1\n"   // 4: bit 0 already 0 -> no activation
      "sw 0x40(r0), r3\n");
  EXPECT_FALSE(detects(model(), tc, e.injection()));
}

TEST(Mse, SubForAddDetected) {
  const ModId add_mod = model().dp.find_module("ex.alu_add");
  ASSERT_NE(add_mod, kNoMod);
  ModuleSubstitutionError e{add_mod, ModuleKind::kSub};
  TestCase tc = make_tc(
      "addi r1, r0, 5\n"
      "addi r2, r0, 3\n"
      "add r3, r1, r2\n"  // 8 vs 2
      "sw 0x40(r0), r3\n");
  EXPECT_TRUE(detects(model(), tc, e.injection()));
}

TEST(Mse, CandidatesStayInClass) {
  for (ModuleKind k : substitution_candidates(ModuleKind::kAdd))
    EXPECT_NE(k, ModuleKind::kAdd);
  EXPECT_TRUE(substitution_candidates(ModuleKind::kMux).empty());
  EXPECT_FALSE(substitution_candidates(ModuleKind::kLt).empty());
}

TEST(Boe, SwappedSubOperandsDetected) {
  const ModId sub_mod = model().dp.find_module("ex.alu_sub");
  ASSERT_NE(sub_mod, kNoMod);
  BusOrderError e{sub_mod};
  TestCase tc = make_tc(
      "addi r1, r0, 9\n"
      "addi r2, r0, 4\n"
      "sub r3, r1, r2\n"  // 5 vs -5
      "sw 0x40(r0), r3\n");
  EXPECT_TRUE(detects(model(), tc, e.injection()));
}

TEST(Boe, EnumeratesOnlyOrderSensitive) {
  const auto errs = enumerate_boe(model().dp, {Stage::kEX});
  EXPECT_FALSE(errs.empty());
  for (const auto& e : errs)
    EXPECT_TRUE(is_order_sensitive(model().dp.module(e.module).kind));
}

TEST(DesignError, WrapperDispatch) {
  const auto ssl = enumerate_bus_ssl(model().dp);
  const auto wrapped = wrap(ssl);
  ASSERT_EQ(wrapped.size(), ssl.size());
  EXPECT_EQ(wrapped[0].model_name(), "bus-SSL");
  EXPECT_EQ(wrapped[0].site_net(model().dp), ssl[0].net);
  EXPECT_FALSE(wrapped[0].describe(model().dp).empty());
}

TEST(Campaign, AggregatesStats) {
  // Tiny campaign with a trivial strategy that "detects" every second error.
  std::vector<DesignError> errs =
      wrap(std::vector<BusSslError>{{0, 0, false}, {1, 0, false},
                                    {2, 0, false}, {3, 0, false}});
  int k = 0;
  const CampaignResult r = run_campaign(
      model().dp, errs, [&k](const DesignError&) {
        ErrorAttempt a;
        a.generated = a.sim_confirmed = (k++ % 2 == 0);
        a.test_length = 6;
        a.backtracks = 1;
        return a;
      });
  EXPECT_EQ(r.stats.total, 4u);
  EXPECT_EQ(r.stats.detected, 2u);
  EXPECT_EQ(r.stats.aborted, 2u);
  EXPECT_DOUBLE_EQ(r.stats.avg_test_length, 6.0);
  EXPECT_EQ(r.stats.backtracks, 2u);
  const std::string t = r.stats.table1("Table 1");
  EXPECT_NE(t.find("No. of errors detected"), std::string::npos);
}

/// The Table-1 row whose label contains `label` ("" when there is none).
std::string table_row(const std::string& table, const std::string& label) {
  const std::size_t at = table.find(label);
  if (at == std::string::npos) return {};
  const std::size_t begin = table.rfind('\n', at) + 1;
  return table.substr(begin, table.find('\n', at) - begin);
}

// A dropping campaign classifies errors without a generator attempt: they
// are dropped, not interrupted. Only a cancelled sweep leaves errors
// unvisited, and only then does the "not attempted" row appear.
TEST(Campaign, Table1SeparatesDroppedFromInterrupted) {
  const std::vector<DesignError> errs =
      wrap(std::vector<BusSslError>{{0, 0, false}, {1, 0, false},
                                    {2, 0, false}, {3, 0, false}});
  CancelToken stop;
  bool cancel_after_first = false;
  const TestGenFn gen = [&](const DesignError&) {
    if (cancel_after_first) stop.request_stop();
    ErrorAttempt a;
    a.generated = a.sim_confirmed = true;
    a.test_length = 5;
    return a;
  };
  // Every kept test also detects the next remaining error.
  const BatchDetectFn detect =
      [](const TestCase&, const std::vector<const DesignError*>& rem) {
        std::vector<bool> det(rem.size(), false);
        if (!det.empty()) det[0] = true;
        return det;
      };

  const CampaignResult full = run_campaign_with_dropping(
      model().dp, errs, ignore_budget(gen), detect, CampaignConfig{});
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(full.stats.attempted, 2u);
  EXPECT_EQ(full.stats.dropped, 2u);
  const std::string t = full.stats.table1("Table 1");
  EXPECT_NE(table_row(t, "dropped (detected by a kept test)").find(" 2 "),
            std::string::npos)
      << t;
  EXPECT_EQ(t.find("not attempted"), std::string::npos) << t;

  // Cancelled during the first attempt: error 0 runs, its test drops
  // error 1, and errors 2 and 3 are never visited.
  cancel_after_first = true;
  CampaignConfig cfg;
  cfg.cancel = &stop;
  const CampaignResult cut = run_campaign_with_dropping(
      model().dp, errs, ignore_budget(gen), detect, cfg);
  EXPECT_TRUE(cut.interrupted);
  const std::string c = cut.stats.table1("Table 1");
  EXPECT_NE(table_row(c, "dropped (detected by a kept test)").find(" 1 "),
            std::string::npos)
      << c;
  EXPECT_NE(table_row(c, "not attempted (interrupted)").find(" 2 "),
            std::string::npos)
      << c;
}

}  // namespace
}  // namespace hltg
