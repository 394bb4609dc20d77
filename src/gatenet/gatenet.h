// Bit-level gate network: the controller IR (Sec. III).
//
// "Because it possesses unstructured binary signals, the controller is
// normally represented at the gate level." Every signal is one bit. Gates
// carry a pipeline-stage label and a signal-role label implementing the
// paper's classification:
//
//   kCPI  : control primary input (instruction bits entering decode)
//   kSts  : status bit arriving from the datapath
//   kCtrl : control bit leaving to the datapath
//   kCPO  : control primary output
//   kInternal : anything else
//
// Flip-flops (kDff) are the control pipe registers (CPRs): their outputs are
// the CSIs of the next cycle. A gate marked `tertiary` is a CTO: its value
// crosses into another pipe stage's cone (stall, squash, bypass selects);
// the pipeframe search (Sec. IV) cuts exactly these signals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"  // Stage
#include "util/logic3.h"

namespace hltg {

using GateId = std::uint32_t;
constexpr GateId kNoGate = static_cast<GateId>(-1);

enum class GateKind : std::uint8_t {
  kAnd,
  kOr,
  kNot,
  kXor,
  kBuf,
  kConst0,
  kConst1,
  kDff,  ///< control pipe register; fanin[0] = D; param = reset value
  kVar,  ///< externally driven source (CPI or STS bit)
};

enum class SigRole : std::uint8_t { kInternal = 0, kCPI, kSts, kCtrl, kCPO };

std::string_view to_string(GateKind k);
std::string_view to_string(SigRole r);

/// Flattened evaluation program for the bit-parallel kernels: the
/// combinational gates in topological order with their fanin lists packed
/// into one contiguous array, plus the DFF index/D-input/reset tables. The
/// wide evaluators (gatenet/evalw) walk this instead of chasing the
/// per-Gate std::vector fanins; GateNet caches one per network so campaign
/// rows share a single layout instead of re-deriving it per evaluation.
struct PackedLayout {
  struct Op {
    GateId gate;             ///< output slot
    std::uint32_t fanin_at;  ///< offset into `fanin`
    std::uint16_t nfanin;
    GateKind kind;
  };
  std::vector<Op> ops;        ///< combinational gates, topological order
  std::vector<GateId> fanin;  ///< concatenated fanin ids of `ops`
  std::vector<GateId> dffs;   ///< DFF gate ids (same order as GateNet::dffs)
  std::vector<GateId> dff_d;  ///< dff_d[i] = D input of dffs[i]
  std::vector<std::uint8_t> dff_reset;  ///< reset value per DFF
};

struct Gate {
  std::string name;
  GateKind kind = GateKind::kBuf;
  Stage stage = Stage::kGlobal;
  SigRole role = SigRole::kInternal;
  bool tertiary = false;     ///< CTO: consumed by another stage's logic
  bool reset_value = false;  ///< kDff only
  std::vector<GateId> fanin;
};

class GateNet {
 public:
  GateId add_gate(Gate g);

  Gate& gate(GateId id) { return gates_[id]; }
  const Gate& gate(GateId id) const { return gates_[id]; }
  std::size_t num_gates() const { return gates_.size(); }

  std::vector<GateId> gates_of_kind(GateKind k) const;
  std::vector<GateId> gates_with_role(SigRole r) const;
  std::vector<GateId> tertiary_gates() const;

  /// Cached DFF index list (computed lazily, invalidated on build). The
  /// per-cycle evaluators iterate this instead of scanning every gate.
  const std::vector<GateId>& dffs() const;

  /// Fanout lists (computed lazily).
  const std::vector<std::vector<GateId>>& fanouts() const;

  /// Topological order over combinational edges; kDff and kVar outputs are
  /// sources. Throws on a combinational cycle.
  const std::vector<GateId>& topo_order() const;

  /// Packed evaluation program (computed lazily from topo_order). The wide
  /// evaluators consume this; see PackedLayout.
  const PackedLayout& packed() const;

  /// Combinational level per gate (computed lazily): sources - kVar, kDff,
  /// constants - sit at level 0, every other gate one above its deepest
  /// fanin. A gate's combinational fanouts are strictly deeper, so visiting
  /// a changed cone level by level evaluates each gate once, after all its
  /// inputs have settled (the incremental implication of core/unroll).
  const std::vector<unsigned>& levels() const;

  GateId find(const std::string& name) const;

  /// Count of state bits (DFFs) and per-stage breakdown - the paper's n2.
  std::vector<int> dff_count_by_stage() const;
  /// Count of tertiary signals per stage - the paper's n3.
  std::vector<int> tertiary_count_by_stage() const;

  void invalidate() {
    topo_.clear();
    fanout_.clear();
    dffs_.clear();
    levels_.clear();
    packed_.ops.clear();
    packed_.fanin.clear();
    packed_.dffs.clear();
    packed_.dff_d.clear();
    packed_.dff_reset.clear();
  }

  /// Force-compute the lazy caches (topo order, fanouts, DFF list, packed
  /// evaluation layout, levels). Call once before sharing a const GateNet
  /// across threads: the lazy getters mutate `mutable` members and are not
  /// safe to race on first use.
  void warm_caches() const {
    if (!gates_.empty()) {
      topo_order();
      fanouts();
      dffs();
      packed();
      levels();
    }
  }

 private:
  std::vector<Gate> gates_;
  mutable std::vector<GateId> topo_;
  mutable std::vector<std::vector<GateId>> fanout_;
  mutable std::vector<GateId> dffs_;
  mutable PackedLayout packed_;
  mutable std::vector<unsigned> levels_;
};

}  // namespace hltg
