// E7 - Engineering microbenchmarks (google-benchmark).
//
// Throughput numbers for the substrates the CPU-time comparison rests on:
// the cycle-accurate two-level simulator, 3-valued controller implication
// over the unrolled window, relaxation window capture, and one full TG run.
#include <benchmark/benchmark.h>

#include "baseline/random_tg.h"
#include "core/archstate.h"
#include "core/tg.h"
#include "core/unroll.h"
#include "sim/cosim.h"

using namespace hltg;

namespace {

const DlxModel& model() {
  static const DlxModel m = build_dlx();
  return m;
}

TestCase sample_test() {
  Rng rng(7);
  RandomTgConfig cfg;
  cfg.program_length = 32;
  return random_test(rng, cfg);
}

void BM_ProcSimCycles(benchmark::State& state) {
  const TestCase tc = sample_test();
  for (auto _ : state) {
    ProcSim sim(model(), tc);
    sim.run(static_cast<unsigned>(state.range(0)));
    benchmark::DoNotOptimize(sim.reg(1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProcSimCycles)->Arg(64)->Arg(256);

void BM_SpecSimInstructions(benchmark::State& state) {
  const TestCase tc = sample_test();
  for (auto _ : state) {
    SpecSimulator sim(tc);
    benchmark::DoNotOptimize(sim.run(static_cast<unsigned>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SpecSimInstructions)->Arg(256);

// One CTRLJUST decision and its undo: imply() is incremental, so each call
// costs the fanout cone of the changed cycle-0 CPI bit, not a window sweep.
void BM_ControllerImply(benchmark::State& state) {
  ControllerWindow win(model().ctrl, static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    win.assign(model().cpi[0], 0, L3::T);
    win.imply();
    win.assign(model().cpi[0], 0, L3::X);
    win.imply();
    benchmark::DoNotOptimize(win.value(model().cpi[0], 0));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ControllerImply)->Arg(8)->Arg(14)->Arg(24);

void BM_WindowCapture(benchmark::State& state) {
  const TestCase tc = sample_test();
  for (auto _ : state) {
    benchmark::DoNotOptimize(capture_window(model(), tc, 14));
  }
}
BENCHMARK(BM_WindowCapture);

void BM_CosimDetect(benchmark::State& state) {
  const TestCase tc = sample_test();
  const auto ssl = enumerate_bus_ssl(model().dp);
  const ErrorInjection inj = BusSslError{ssl[0].net, 0, false}.injection();
  for (auto _ : state) {
    benchmark::DoNotOptimize(detects(model(), tc, inj));
  }
}
BENCHMARK(BM_CosimDetect);

void BM_FullTgOneError(benchmark::State& state) {
  const NetId site = model().dp.find_net("ex.alu_add");
  DesignError err{BusSslError{site, 0, false}};
  for (auto _ : state) {
    TestGenerator tg(model());
    benchmark::DoNotOptimize(tg.generate(err).status);
  }
}
BENCHMARK(BM_FullTgOneError);

void BM_BuildDlxModel(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_dlx().dp.num_nets());
  }
}
BENCHMARK(BM_BuildDlxModel);

}  // namespace

BENCHMARK_MAIN();
