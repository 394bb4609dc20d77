// Unrolled three-valued controller model (the iterative-array of Fig. 2,
// organized for the pipeframe search of Sec. IV).
//
// The window holds T copies of the controller's combinational logic. DFFs
// carry values across copies; cycle 0 starts from the reset state, as the
// paper's justification problem demands ("an input sequence ... that starts
// from the controller's reset state"). Free variables are the CPI and STS
// bits of every cycle - precisely the pipeframe decision variables
// (n1 + p*n3 flavored), never the CSI state bits.
//
// Implication is forward-only and incremental, as a PODEM decision should
// cost only the implications it causes: assign() records which (cycle,
// variable) changed, and imply() re-evaluates just the fanout cones of
// those changes, cycle by cycle from the earliest one, in level order,
// stopping wherever a gate's value does not move. The result is the same
// 3-valued fixpoint a full sweep of every cycle from reset would compute;
// that full sweep runs once, in the constructor, for the all-X trajectory
// clear() restores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "dlx/dlx.h"
#include "gatenet/eval3.h"
#include "util/logic3.h"

namespace hltg {

class ControllerWindow {
 public:
  ControllerWindow(const GateNet& gn, unsigned cycles);

  unsigned cycles() const { return T_; }
  const GateNet& net() const { return gn_; }

  /// Assign a free variable (kVar gate) for a cycle; L3::X clears it.
  void assign(GateId g, unsigned cycle, L3 v);
  L3 assignment(GateId g, unsigned cycle) const {
    return assign_[cycle * n_ + g];
  }
  /// All currently assigned (gate, cycle, value) triples.
  std::vector<std::tuple<GateId, unsigned, bool>> assignments() const;

  /// Bring every value up to date with the assignments made since the last
  /// imply() (or clear()): propagates only what changed.
  void imply();

  /// Value of a gate in a cycle after imply().
  L3 value(GateId g, unsigned cycle) const { return vals_[cycle * n_ + g]; }

  /// Drop every assignment; values return to the reset trajectory at once.
  void clear();

 private:
  /// Queue the consumers of a gate whose value changed in cycle `t`:
  /// combinational fanouts in this cycle, DFF fanouts in the next.
  void schedule_fanouts(GateId g, unsigned t);

  const GateNet& gn_;
  const std::vector<std::vector<GateId>>& fanouts_;  ///< gn_'s lazy caches,
  const std::vector<unsigned>& levels_;              ///< warmed at construction
  unsigned T_;
  std::size_t n_;            ///< gates per cycle
  std::vector<L3> vals_;     ///< [cycle * n_ + gate]
  std::vector<L3> assign_;   ///< [cycle * n_ + gate] for kVar gates
  std::vector<L3> reset_;    ///< all-X trajectory (no assignments)
  /// kVar gates whose assignment changed since the last imply(), per cycle.
  std::vector<std::vector<GateId>> dirty_;
  unsigned dirty_from_;      ///< earliest cycle with a dirty entry (T_: none)
  // Propagation scratch, reused across imply() calls.
  std::vector<std::vector<GateId>> bucket_;  ///< queued gates per level
  std::vector<std::uint8_t> queued_;         ///< per gate: sits in a bucket
  std::vector<GateId> dff_now_, dff_next_;   ///< DFFs to reload per cycle
  unsigned lvl_lo_ = 0, lvl_hi_ = 0;         ///< occupied bucket range
};

}  // namespace hltg
