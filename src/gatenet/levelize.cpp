#include "gatenet/levelize.h"

#include <algorithm>
#include <sstream>

namespace hltg {

GateNetStats analyze(const GateNet& gn) {
  GateNetStats s;
  s.num_gates = gn.num_gates();
  for (GateId g = 0; g < gn.num_gates(); ++g) {
    const Gate& gate = gn.gate(g);
    if (gate.kind == GateKind::kDff) ++s.num_dffs;
    if (gate.role == SigRole::kCPI) ++s.num_cpi;
    if (gate.role == SigRole::kSts) ++s.num_sts;
    if (gate.role == SigRole::kCtrl) ++s.num_ctrl;
    if (gate.tertiary) ++s.num_tertiary;
  }
  const auto& lv = gn.levels();
  for (unsigned l : lv) s.comb_depth = std::max(s.comb_depth, l);
  s.dffs_by_stage = gn.dff_count_by_stage();
  s.tertiary_by_stage = gn.tertiary_count_by_stage();
  return s;
}

std::string GateNetStats::to_string() const {
  std::ostringstream os;
  os << "gates=" << num_gates << " dffs(n2*p)=" << num_dffs
     << " CPI(n1)=" << num_cpi << " STS=" << num_sts << " CTRL=" << num_ctrl
     << " tertiary(n3*p)=" << num_tertiary << " depth=" << comb_depth;
  return os.str();
}

}  // namespace hltg
