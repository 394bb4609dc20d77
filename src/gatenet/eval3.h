// Two- and three-valued single-cycle evaluation of a controller gate network.
//
// The cycle-accurate simulator uses the 2-valued path; CTRLJUST's implication
// engine uses the 3-valued path over an unrolled window (src/core/unroll).
// The 3-valued cycle evaluator is a thin shim over the lane engine's 01X
// bit-pair kernel (gatenet/evalw) run at width 1 - evalw is the reference
// for 01X gate semantics. The single-gate evaluator is native L3 (the
// window's incremental implication calls it once per changed gate, where
// packing would dominate); tests/test_window_equiv holds it to the kernel.
#pragma once

#include <vector>

#include "gatenet/gatenet.h"
#include "util/logic3.h"

namespace hltg {

/// 2-valued evaluation. `vals` must be sized num_gates() and pre-loaded with
/// the values of kVar gates and kDff gates (current state); all other gates
/// are overwritten in topological order.
void eval_cycle2(const GateNet& gn, std::vector<bool>& vals);

/// Compute next-cycle DFF outputs from the current `vals` (after
/// eval_cycle2): next[dff] = vals[dff.fanin[0]]. Other entries untouched.
void clock_dffs2(const GateNet& gn, const std::vector<bool>& vals,
                 std::vector<bool>& next);

/// 3-valued evaluation; same contract with L3 values.
void eval_cycle3(const GateNet& gn, std::vector<L3>& vals);

/// Evaluate one gate from its fanin values (3-valued); `vals` is indexed by
/// GateId. kVar/kDff return the value already stored.
L3 eval_gate3(const GateNet& gn, GateId g, const L3* vals);

/// Evaluate one gate from its fanin values (2-valued); kVar/kDff return the
/// stored value.
bool eval_gate2(const GateNet& gn, GateId g, const std::vector<bool>& vals);

/// Load the reset state of all DFFs into `vals`.
void load_reset2(const GateNet& gn, std::vector<bool>& vals);
void load_reset3(const GateNet& gn, std::vector<L3>& vals);

}  // namespace hltg
