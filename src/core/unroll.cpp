#include "core/unroll.h"

#include <algorithm>
#include <cassert>

namespace hltg {

ControllerWindow::ControllerWindow(const GateNet& gn, unsigned cycles)
    : gn_(gn),
      fanouts_(gn.fanouts()),
      levels_(gn.levels()),
      T_(cycles),
      n_(gn.num_gates()),
      dirty_from_(cycles) {
  assign_.assign(T_ * n_, L3::X);
  dirty_.resize(T_);
  queued_.assign(n_, 0);
  bucket_.resize(
      levels_.empty() ? 1
                      : *std::max_element(levels_.begin(), levels_.end()) + 1);

  // The one full sweep: the reset trajectory with every variable at X.
  reset_.assign(T_ * n_, L3::X);
  std::vector<L3> v;
  for (unsigned t = 0; t < T_; ++t) {
    // DFF outputs: reset at t=0, the previous cycle's D otherwise.
    if (t == 0)
      load_reset3(gn_, v);
    else
      for (GateId g : gn_.dffs())
        v[g] = reset_[(t - 1) * n_ + gn_.gate(g).fanin[0]];
    eval_cycle3(gn_, v);
    std::copy(v.begin(), v.end(), reset_.begin() + t * n_);
  }
  vals_ = reset_;
}

void ControllerWindow::assign(GateId g, unsigned cycle, L3 v) {
  assert(gn_.gate(g).kind == GateKind::kVar);
  assert(cycle < T_);
  L3& a = assign_[cycle * n_ + g];
  if (a == v) return;
  a = v;
  dirty_[cycle].push_back(g);
  dirty_from_ = std::min(dirty_from_, cycle);
}

std::vector<std::tuple<GateId, unsigned, bool>> ControllerWindow::assignments()
    const {
  std::vector<std::tuple<GateId, unsigned, bool>> out;
  for (unsigned t = 0; t < T_; ++t)
    for (GateId g = 0; g < n_; ++g)
      if (const L3 a = assign_[t * n_ + g]; a != L3::X)
        out.emplace_back(g, t, a == L3::T);
  return out;
}

void ControllerWindow::schedule_fanouts(GateId g, unsigned t) {
  for (GateId f : fanouts_[g]) {
    if (gn_.gate(f).kind == GateKind::kDff) {
      // A DFF has one fanin, which changes at most once per cycle: no
      // duplicates to filter.
      if (t + 1 < T_) dff_next_.push_back(f);
    } else if (!queued_[f]) {
      queued_[f] = 1;
      const unsigned l = levels_[f];
      bucket_[l].push_back(f);
      lvl_lo_ = std::min(lvl_lo_, l);
      lvl_hi_ = std::max(lvl_hi_, l);
    }
  }
}

void ControllerWindow::imply() {
  if (dirty_from_ >= T_) return;
  dff_now_.clear();
  dff_next_.clear();
  for (unsigned t = dirty_from_; t < T_; ++t) {
    if (dff_now_.empty() && dirty_[t].empty()) continue;  // nothing moves
    L3* v = vals_.data() + t * n_;
    lvl_lo_ = static_cast<unsigned>(bucket_.size());
    lvl_hi_ = 0;
    // Seeds: DFFs whose D input changed last cycle, then the variables
    // whose assignment changed this cycle.
    for (GateId d : dff_now_) {
      const L3 nv = vals_[(t - 1) * n_ + gn_.gate(d).fanin[0]];
      if (v[d] != nv) {
        v[d] = nv;
        schedule_fanouts(d, t);
      }
    }
    for (GateId g : dirty_[t]) {
      const L3 nv = assign_[t * n_ + g];
      if (v[g] != nv) {
        v[g] = nv;
        schedule_fanouts(g, t);
      }
    }
    dirty_[t].clear();
    // Level order: every queued gate's inputs are final when it is reached.
    for (unsigned l = lvl_lo_; l <= lvl_hi_; ++l) {
      std::vector<GateId>& b = bucket_[l];
      for (std::size_t i = 0; i < b.size(); ++i) {
        const GateId g = b[i];
        queued_[g] = 0;
        const L3 nv = eval_gate3(gn_, g, v);
        if (v[g] != nv) {
          v[g] = nv;
          schedule_fanouts(g, t);
        }
      }
      b.clear();
    }
    std::swap(dff_now_, dff_next_);
    dff_next_.clear();
  }
  dirty_from_ = T_;
}

void ControllerWindow::clear() {
  std::copy(reset_.begin(), reset_.end(), vals_.begin());
  std::fill(assign_.begin(), assign_.end(), L3::X);
  for (unsigned t = dirty_from_; t < T_; ++t) dirty_[t].clear();
  dirty_from_ = T_;
}

}  // namespace hltg
