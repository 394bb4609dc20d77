#include "dlx/dlx.h"

#include <stdexcept>

#include "netlist/check.h"
#include "sim/schedule.h"

namespace hltg {

const CtrlBind* DlxModel::find_ctrl(NetId n) const {
  for (const CtrlBind& cb : ctrl_binds)
    if (cb.dp_net == n) return &cb;
  return nullptr;
}

const StsBind* DlxModel::find_sts(NetId n) const {
  for (const StsBind& sb : sts_binds)
    if (sb.dp_net == n) return &sb;
  return nullptr;
}

const std::vector<EvalStep>& DlxModel::schedule() const {
  if (schedule_.empty()) schedule_ = build_eval_schedule(*this);
  return schedule_;
}

void DlxModel::warm_caches() const {
  ctrl.warm_caches();
  (void)dp.topo_order();
  (void)schedule();
}

DlxModel build_dlx(DlxConfig cfg) {
  DlxModel m;
  m.cfg = cfg;
  m.sig = build_dlx_datapath(m.dp, cfg);
  build_dlx_controller(m);

  const CheckResult cr = check_netlist(m.dp);
  if (!cr.ok())
    throw std::logic_error("DLX datapath check failed: " + cr.summary());
  (void)m.ctrl.topo_order();  // throws on a combinational cycle

  // Every CTRL net must be bound, with matching width; every STS net must
  // feed a controller variable.
  for (NetId n = 0; n < m.dp.num_nets(); ++n) {
    const Net& net = m.dp.net(n);
    if (net.role == NetRole::kCtrl) {
      const CtrlBind* cb = m.find_ctrl(n);
      if (!cb)
        throw std::logic_error("unbound CTRL net: " + net.name);
      if (cb->bits.size() != net.width)
        throw std::logic_error("CTRL width mismatch: " + net.name);
    } else if (net.role == NetRole::kSts) {
      if (!m.find_sts(n))
        throw std::logic_error("unbound STS net: " + net.name);
    }
  }

  m.rf_write_mod = m.dp.find_module("wb.rf_write");
  m.mem_write_mod = m.dp.find_module("mem.dwrite");
  m.mem_read_mod = m.dp.find_module("mem.dread");
  if (m.rf_write_mod == kNoMod || m.mem_write_mod == kNoMod ||
      m.mem_read_mod == kNoMod)
    throw std::logic_error("DLX state port modules missing");
  return m;
}

}  // namespace hltg
