#include <gtest/gtest.h>

#include "gatenet/eval3.h"
#include "gatenet/gate_builder.h"
#include "gatenet/levelize.h"

namespace hltg {
namespace {

TEST(GateNet, EvalBasicGates) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId y_and = g.and_("y_and", {a, b});
  const GateId y_or = g.or_("y_or", {a, b});
  const GateId y_xor = g.xor_("y_xor", a, b);
  const GateId y_not = g.not_("y_not", a);
  std::vector<bool> v(gn.num_gates(), false);
  for (int av = 0; av < 2; ++av)
    for (int bv = 0; bv < 2; ++bv) {
      v[a] = av;
      v[b] = bv;
      eval_cycle2(gn, v);
      EXPECT_EQ(v[y_and], av && bv);
      EXPECT_EQ(v[y_or], av || bv);
      EXPECT_EQ(v[y_xor], av != bv);
      EXPECT_EQ(v[y_not], !av);
    }
}

TEST(GateNet, ThreeValuedEval) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId y = g.and_("y", {a, b});
  const GateId z = g.or_("z", {a, b});
  std::vector<L3> v(gn.num_gates(), L3::X);
  v[a] = L3::F;
  eval_cycle3(gn, v);
  EXPECT_EQ(v[y], L3::F);  // controlling value
  EXPECT_EQ(v[z], L3::X);
  v[a] = L3::T;
  eval_cycle3(gn, v);
  EXPECT_EQ(v[y], L3::X);
  EXPECT_EQ(v[z], L3::T);
}

TEST(GateNet, MuxFromPrimitives) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId s = g.var("s", SigRole::kCPI);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId b = g.var("b", SigRole::kCPI);
  const GateId y = g.mux("y", s, a, b);
  std::vector<bool> v(gn.num_gates(), false);
  v[a] = true;
  v[b] = false;
  v[s] = false;
  eval_cycle2(gn, v);
  EXPECT_TRUE(v[y]);
  v[s] = true;
  eval_cycle2(gn, v);
  EXPECT_FALSE(v[y]);
}

TEST(GateNet, DffClocking) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId d = g.var("d", SigRole::kCPI);
  const GateId q = g.dff("q", d, /*reset=*/true);
  std::vector<bool> v;
  load_reset2(gn, v);
  EXPECT_TRUE(v[q]);
  v[d] = false;
  eval_cycle2(gn, v);
  std::vector<bool> n = v;
  clock_dffs2(gn, v, n);
  EXPECT_FALSE(n[q]);
}

TEST(GateNet, DffEnClrSemantics) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId d = g.var("d", SigRole::kCPI);
  const GateId en = g.var("en", SigRole::kCPI);
  const GateId clr = g.var("clr", SigRole::kCPI);
  const GateId q = g.dff_en_clr("q", d, en, clr);
  auto tick = [&](std::vector<bool>& v) {
    eval_cycle2(gn, v);
    std::vector<bool> n = v;
    clock_dffs2(gn, v, n);
    v = std::move(n);
  };
  std::vector<bool> v;
  load_reset2(gn, v);
  // Enabled load.
  v[d] = true;
  v[en] = true;
  v[clr] = false;
  tick(v);
  EXPECT_TRUE(v[q]);
  // Hold when disabled.
  v[d] = false;
  v[en] = false;
  tick(v);
  EXPECT_TRUE(v[q]);
  // Clear dominates.
  v[en] = true;
  v[d] = true;
  v[clr] = true;
  tick(v);
  EXPECT_FALSE(v[q]);
}

TEST(GateNet, EqConstDecode) {
  GateNet gn;
  GateBuilder g(gn);
  const GateVec bits = g.var_vec("op", 6, SigRole::kCPI);
  const GateId hit = g.eq_const("dec", bits, 0x23);
  std::vector<bool> v(gn.num_gates(), false);
  for (unsigned code = 0; code < 64; ++code) {
    for (unsigned i = 0; i < 6; ++i) v[bits[i]] = (code >> i) & 1;
    eval_cycle2(gn, v);
    EXPECT_EQ(v[hit], code == 0x23) << code;
  }
}

TEST(GateNet, TopoRejectsCycle) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  Gate loop1;
  loop1.kind = GateKind::kAnd;
  loop1.fanin = {a, a};
  const GateId l1 = gn.add_gate(std::move(loop1));
  gn.gate(l1).fanin[1] = l1;  // self-loop
  gn.invalidate();
  EXPECT_THROW(gn.topo_order(), std::logic_error);
}

TEST(GateNet, AnalyzeCounts) {
  GateNet gn;
  GateBuilder g(gn);
  g.set_stage(Stage::kID);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId s = g.var("s", SigRole::kSts);
  const GateId y = g.and_("y", {a, s});
  const GateId q = g.dff("q", y);
  g.mark_ctrl("c", q);
  g.mark_tertiary(y);
  const GateNetStats st = analyze(gn);
  EXPECT_EQ(st.num_cpi, 1u);
  EXPECT_EQ(st.num_sts, 1u);
  EXPECT_EQ(st.num_dffs, 1u);
  EXPECT_EQ(st.num_ctrl, 1u);
  EXPECT_EQ(st.num_tertiary, 1u);
  EXPECT_EQ(st.timeframe_justify_vars(), 1u);
  EXPECT_EQ(st.pipeframe_justify_vars(), 1u);
}

TEST(GateNet, LevelsIncrease) {
  GateNet gn;
  GateBuilder g(gn);
  const GateId a = g.var("a", SigRole::kCPI);
  const GateId n1 = g.not_("n1", a);
  const GateId n2 = g.not_("n2", n1);
  const GateId n3 = g.not_("n3", n2);
  const auto& lv = gn.levels();
  EXPECT_EQ(lv[a], 0u);
  EXPECT_LT(lv[n1], lv[n2]);
  EXPECT_LT(lv[n2], lv[n3]);
}

}  // namespace
}  // namespace hltg
