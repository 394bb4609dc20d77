// Structural analysis of a gate network: logic depth, per-stage statistics,
// and the paper's n1/n2/n3 decision-variable accounting (Sec. IV).
#pragma once

#include <string>
#include <vector>

#include "gatenet/gatenet.h"

namespace hltg {

struct GateNetStats {
  std::size_t num_gates = 0;
  std::size_t num_dffs = 0;        ///< controller state bits (sum of n2)
  std::size_t num_cpi = 0;         ///< n1
  std::size_t num_sts = 0;
  std::size_t num_ctrl = 0;
  std::size_t num_tertiary = 0;    ///< sum of n3
  unsigned comb_depth = 0;         ///< max combinational level
  std::vector<int> dffs_by_stage;
  std::vector<int> tertiary_by_stage;

  /// Decision variables needing justification per timeframe organization
  /// (p * n2) vs pipeframe organization (p * n3) - the Sec. IV comparison.
  std::size_t timeframe_justify_vars() const { return num_dffs; }
  std::size_t pipeframe_justify_vars() const { return num_tertiary; }

  std::string to_string() const;
};

GateNetStats analyze(const GateNet& gn);

}  // namespace hltg
