#include "gatenet/eval3.h"

#include "gatenet/evalw.h"

namespace hltg {

void eval_cycle2(const GateNet& gn, std::vector<bool>& vals) {
  for (GateId g : gn.topo_order()) {
    const Gate& gate = gn.gate(g);
    switch (gate.kind) {
      case GateKind::kVar:
      case GateKind::kDff:
        break;  // externally supplied / state
      case GateKind::kConst0:
        vals[g] = false;
        break;
      case GateKind::kConst1:
        vals[g] = true;
        break;
      case GateKind::kBuf:
        vals[g] = vals[gate.fanin[0]];
        break;
      case GateKind::kNot:
        vals[g] = !vals[gate.fanin[0]];
        break;
      case GateKind::kAnd: {
        bool v = true;
        for (GateId in : gate.fanin) v = v && vals[in];
        vals[g] = v;
        break;
      }
      case GateKind::kOr: {
        bool v = false;
        for (GateId in : gate.fanin) v = v || vals[in];
        vals[g] = v;
        break;
      }
      case GateKind::kXor:
        vals[g] = vals[gate.fanin[0]] != vals[gate.fanin[1]];
        break;
    }
  }
}

void clock_dffs2(const GateNet& gn, const std::vector<bool>& vals,
                 std::vector<bool>& next) {
  for (GateId g : gn.dffs()) next[g] = vals[gn.gate(g).fanin[0]];
}

// The 3-valued cycle evaluator is a thin shim over the lane engine's 01X
// kernel (gatenet/evalw): values are packed into one-word bit-pair planes,
// the shared kernel runs at width 1, and the planes are unpacked back to L3,
// so the scalar and SIMD cycle paths can never drift apart. eval_gate3 below
// is native L3 for the per-gate incremental path; tests/test_window_equiv
// checks it against this shim.
namespace {

/// Per-thread plane scratch so repeated cycle evaluation stays
/// allocation-free. Campaign workers each get their own copy; nets of
/// different sizes just grow the buffers.
struct PlaneScratch {
  std::vector<std::uint64_t> ones, zeros;
  void fit(std::size_t n) {
    if (ones.size() < n) {
      ones.resize(n);
      zeros.resize(n);
    }
  }
};

PlaneScratch& scratch() {
  thread_local PlaneScratch s;
  return s;
}

inline void pack1(L3 v, std::uint64_t* one, std::uint64_t* zero) {
  *one = v == L3::T ? 1u : 0u;
  *zero = v == L3::F ? 1u : 0u;
}

inline L3 unpack1(std::uint64_t one, std::uint64_t zero) {
  if (one & 1) return L3::T;
  if (zero & 1) return L3::F;
  return L3::X;
}

}  // namespace

void eval_cycle3(const GateNet& gn, std::vector<L3>& vals) {
  const std::size_t n = gn.num_gates();
  PlaneScratch& s = scratch();
  s.fit(n);
  for (std::size_t g = 0; g < n; ++g)
    pack1(vals[g], &s.ones[g], &s.zeros[g]);
  eval_cycle3w(gn, s.ones.data(), s.zeros.data(), 1, LaneBackend::kScalar);
  for (std::size_t g = 0; g < n; ++g) vals[g] = unpack1(s.ones[g], s.zeros[g]);
}

L3 eval_gate3(const GateNet& gn, GateId g, const L3* vals) {
  const Gate& gate = gn.gate(g);
  switch (gate.kind) {
    case GateKind::kVar:
    case GateKind::kDff:
      return vals[g];
    case GateKind::kConst0:
      return L3::F;
    case GateKind::kConst1:
      return L3::T;
    case GateKind::kBuf:
      return vals[gate.fanin[0]];
    case GateKind::kNot:
      return l3_not(vals[gate.fanin[0]]);
    case GateKind::kAnd: {
      L3 r = L3::T;
      for (GateId in : gate.fanin) {
        if (vals[in] == L3::F) return L3::F;
        if (vals[in] == L3::X) r = L3::X;
      }
      return r;
    }
    case GateKind::kOr: {
      L3 r = L3::F;
      for (GateId in : gate.fanin) {
        if (vals[in] == L3::T) return L3::T;
        if (vals[in] == L3::X) r = L3::X;
      }
      return r;
    }
    case GateKind::kXor:
      return l3_xor(vals[gate.fanin[0]], vals[gate.fanin[1]]);
  }
  return L3::X;
}

bool eval_gate2(const GateNet& gn, GateId g, const std::vector<bool>& vals) {
  const Gate& gate = gn.gate(g);
  switch (gate.kind) {
    case GateKind::kVar:
    case GateKind::kDff:
      return vals[g];
    case GateKind::kConst0:
      return false;
    case GateKind::kConst1:
      return true;
    case GateKind::kBuf:
      return vals[gate.fanin[0]];
    case GateKind::kNot:
      return !vals[gate.fanin[0]];
    case GateKind::kAnd: {
      for (GateId in : gate.fanin)
        if (!vals[in]) return false;
      return true;
    }
    case GateKind::kOr: {
      for (GateId in : gate.fanin)
        if (vals[in]) return true;
      return false;
    }
    case GateKind::kXor:
      return vals[gate.fanin[0]] != vals[gate.fanin[1]];
  }
  return false;
}

void load_reset2(const GateNet& gn, std::vector<bool>& vals) {
  vals.assign(gn.num_gates(), false);
  for (GateId g : gn.dffs()) vals[g] = gn.gate(g).reset_value;
}

void load_reset3(const GateNet& gn, std::vector<L3>& vals) {
  vals.assign(gn.num_gates(), L3::X);
  for (GateId g : gn.dffs()) vals[g] = l3_from_bool(gn.gate(g).reset_value);
}

}  // namespace hltg
