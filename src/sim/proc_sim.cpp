#include "sim/proc_sim.h"

#include <stdexcept>

#include "gatenet/eval3.h"
#include "netlist/eval.h"
#include "util/word.h"

namespace hltg {

ProcSim::ProcSim(const DlxModel& m, const TestCase& tc, ErrorInjection inj)
    : m_(m), inj_(std::move(inj)), imem_(tc.imem) {
  dpv_.assign(m_.dp.num_nets(), 0);
  load_reset2(m_.ctrl, gv_);
  rf_ = tc.rf_init;
  rf_[0] = 0;
  dmem_.load(tc.dmem_init);

  // Precompute per-net stuck masks (identity when no line is stuck).
  stuck_or_.assign(m_.dp.num_nets(), 0);
  stuck_and_.assign(m_.dp.num_nets(), ~std::uint64_t{0});
  for (const StuckLine& sl : inj_.stuck) {
    if (sl.stuck_value)
      stuck_or_[sl.net] |= std::uint64_t{1} << sl.bit;
    else
      stuck_and_[sl.net] &= ~(std::uint64_t{1} << sl.bit);
  }
  stall_gate_ = m_.ctrl.find("cg.stall");
  redirect_gate_ = m_.ctrl.find("cg.redirect");
  sts_net_of_gate_.assign(m_.ctrl.num_gates(), kNoNet);
  for (const StsBind& sb : m_.sts_binds) sts_net_of_gate_[sb.gate] = sb.dp_net;

  // Initialize register outputs to their reset values (with injection).
  bool dummy = false;
  for (ModId i = 0; i < m_.dp.num_modules(); ++i) {
    const Module& mod = m_.dp.module(i);
    if (mod.kind == ModuleKind::kReg) set_net(mod.out, mod.param, &dummy);
  }
}

void ProcSim::set_net(NetId n, std::uint64_t v, bool* changed) {
  v = trunc(v, m_.dp.net(n).width);
  v = (v | stuck_or_[n]) & stuck_and_[n];
  v = trunc(v, m_.dp.net(n).width);
  if (dpv_[n] != v) {
    dpv_[n] = v;
    *changed = true;
  }
}

std::uint32_t ProcSim::pc() const {
  return static_cast<std::uint32_t>(dpv_[m_.sig.pc_q]);
}

void ProcSim::fetch() {
  const std::uint32_t pc = this->pc();
  const std::size_t idx = pc / 4;
  const std::uint32_t word =
      (pc % 4 == 0 && idx < imem_.size()) ? imem_[idx] : 0;
  bool dummy = false;
  set_net(m_.sig.instr, word, &dummy);
  // CPI = opcode bits then func bits.
  for (int i = 0; i < 6; ++i) {
    gv_[m_.cpi[i]] = get_bit(word, 26 + i);
    gv_[m_.cpi[6 + i]] = get_bit(word, i);
  }
}

std::uint64_t ProcSim::eval_module(const Module& mod) const {
  const ModId id = static_cast<ModId>(&mod - &m_.dp.module(0));
  // Scratch buffers avoid per-module allocations on the hot path.
  std::vector<std::uint64_t>& in = scratch_in_;
  std::vector<std::uint64_t>& ctrl = scratch_ctrl_;
  in.clear();
  ctrl.clear();
  for (unsigned i = 0; i < mod.data_in.size(); ++i) {
    NetId src = mod.data_in[i];
    if (!inj_.rewire.empty()) {
      if (const auto it = inj_.rewire.find({id, i}); it != inj_.rewire.end())
        src = it->second;
    }
    in.push_back(dpv_[src]);
  }
  for (NetId n : mod.ctrl_in) ctrl.push_back(dpv_[n]);
  if (!inj_.swap_inputs.empty() && inj_.swap_inputs.count(id) &&
      in.size() >= 2)
    std::swap(in[0], in[1]);
  if (!inj_.substitute.empty()) {
    if (const auto it = inj_.substitute.find(id);
        it != inj_.substitute.end()) {
      Module local = mod;
      local.kind = it->second;
      return eval_comb(m_.dp, local, in, ctrl);
    }
  }
  return eval_comb(m_.dp, mod, in, ctrl);
}

void ProcSim::eval_fixpoint() {
  // One linear pass over the merged (gates + ctrl bundles + modules)
  // topological schedule settles the cycle exactly; see sim/schedule.h.
  const Module& rfw = m_.dp.module(m_.rf_write_mod);
  bool changed = false;
  for (const EvalStep& st : m_.schedule()) {
    switch (st.kind) {
      case EvalStep::kGate: {
        const GateId g = st.index;
        const Gate& gate = m_.ctrl.gate(g);
        if (gate.kind == GateKind::kDff) break;  // state
        if (gate.kind == GateKind::kVar) {
          // STS-bound vars sample the datapath; CPI vars were set by fetch.
          if (sts_net_of_gate_[g] != kNoNet)
            gv_[g] = dpv_[sts_net_of_gate_[g]] & 1;
          break;
        }
        gv_[g] = eval_gate2(m_.ctrl, g, gv_);
        break;
      }
      case EvalStep::kCtrlBind: {
        const CtrlBind& cb = m_.ctrl_binds[st.index];
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < cb.bits.size(); ++i)
          if (gv_[cb.bits[i]]) v |= std::uint64_t{1} << i;
        set_net(cb.dp_net, v, &changed);
        break;
      }
      case EvalStep::kModule: {
        const Module& mod = m_.dp.module(st.index);
        switch (mod.kind) {
          case ModuleKind::kReg:
          case ModuleKind::kInput:
          case ModuleKind::kOutput:
          case ModuleKind::kRfWrite:
          case ModuleKind::kMemWrite:
            break;  // state / externally driven / sinks
          case ModuleKind::kRfRead: {
            const unsigned addr =
                static_cast<unsigned>(dpv_[mod.data_in[0]] & 31);
            const unsigned waddr =
                static_cast<unsigned>(dpv_[rfw.data_in[0]] & 31);
            const bool we = dpv_[rfw.ctrl_in[0]] & 1;
            std::uint32_t v;
            if (addr == 0)
              v = 0;
            else if (we && waddr == addr)  // write-through
              v = static_cast<std::uint32_t>(dpv_[rfw.data_in[1]]);
            else
              v = rf_[addr];
            set_net(mod.out, v, &changed);
            break;
          }
          case ModuleKind::kMemRead: {
            const bool re = dpv_[mod.ctrl_in[0]] & 1;
            const std::uint32_t addr =
                static_cast<std::uint32_t>(dpv_[mod.data_in[0]]);
            set_net(mod.out, re ? dmem_.read_word(addr) : 0, &changed);
            break;
          }
          default:
            set_net(mod.out, eval_module(mod), &changed);
            break;
        }
        break;
      }
    }
  }
}

void ProcSim::clock_edge() {
  // Register next-state values: q' = clr ? 0 : (en ? d : q).
  std::vector<std::pair<NetId, std::uint64_t>> next;
  for (ModId mi = 0; mi < m_.dp.num_modules(); ++mi) {
    const Module& mod = m_.dp.module(mi);
    if (mod.kind != ModuleKind::kReg) continue;
    const bool has_en = mod.tag & 1, has_clr = mod.tag & 2;
    unsigned slot = 0;
    const bool en = has_en ? (dpv_[mod.ctrl_in[slot++]] & 1) : true;
    const bool clr = has_clr ? (dpv_[mod.ctrl_in[slot]] & 1) : false;
    std::uint64_t q = dpv_[mod.out];
    if (clr)
      q = 0;
    else if (en)
      q = dpv_[mod.data_in[0]];
    next.emplace_back(mod.out, q);
  }

  // Architectural state updates.
  const Module& rfw = m_.dp.module(m_.rf_write_mod);
  if (dpv_[rfw.ctrl_in[0]] & 1) {
    const unsigned addr = static_cast<unsigned>(dpv_[rfw.data_in[0]] & 31);
    if (addr != 0) rf_[addr] = static_cast<std::uint32_t>(dpv_[rfw.data_in[1]]);
    ++committed_;
  }
  const Module& mw = m_.dp.module(m_.mem_write_mod);
  if (dpv_[mw.ctrl_in[0]] & 1) {
    const std::uint32_t addr = static_cast<std::uint32_t>(dpv_[mw.data_in[0]]);
    std::uint32_t data = static_cast<std::uint32_t>(dpv_[mw.data_in[1]]);
    const unsigned mask = static_cast<unsigned>(dpv_[mw.data_in[2]] & 0xF);
    // The observable port shows only enabled byte lanes.
    for (unsigned b = 0; b < 4; ++b)
      if (!(mask & (1u << b)))
        data = static_cast<std::uint32_t>(set_field(data, 8 * b, 8, 0));
    dmem_.write_word(addr, data, mask);
    writes_.push_back({addr & ~3u, data, mask});
  }

  // Statistics from the controller's tertiary signals.
  if (stall_gate_ != kNoGate && gv_[stall_gate_]) ++stalls_;
  if (redirect_gate_ != kNoGate && gv_[redirect_gate_]) ++squashes_;

  // Latch the new register values (with injection applied).
  bool dummy = false;
  for (auto [net, v] : next) set_net(net, v, &dummy);
  std::vector<bool> gnext = gv_;
  clock_dffs2(m_.ctrl, gv_, gnext);
  gv_ = std::move(gnext);
  ++cycle_;
}

void ProcSim::begin_cycle() {
  fetch();
  eval_fixpoint();
}

void ProcSim::end_cycle() { clock_edge(); }

void ProcSim::step() {
  begin_cycle();
  end_cycle();
}

ArchTrace ProcSim::arch_trace() const {
  ArchTrace t;
  t.writes = writes_;
  for (unsigned r = 0; r < 32; ++r) t.rf_final[r] = reg(r);
  return t;
}

ArchTrace ProcSim::run(unsigned cycles) {
  for (unsigned c = 0; c < cycles; ++c) step();
  return arch_trace();
}

ArchTrace impl_run(const DlxModel& m, const TestCase& tc, unsigned cycles,
                   const ErrorInjection& inj) {
  ProcSim sim(m, tc, inj);
  return sim.run(cycles);
}

}  // namespace hltg
