// E1 / E5 - Reproduction of Table 1 (and the test-shape claims of Sec. VI):
// high-level test generation for all bus SSL errors in the execute, memory
// and write-back stages of the DLX datapath.
//
// Paper reference values (DAC'99, Table 1):
//   errors 298, detected 252 (85%), aborted 46, average length 6.2,
//   backtracks (detected only) 50, CPU 36 min (1999 hardware, no error
//   simulation, no re-use of work).
#include <cstdio>
#include <string>

#include "core/tg.h"
#include "dlx/signal_names.h"
#include "errors/coverage.h"
#include "errors/redundancy.h"
#include "sim/batch_sim.h"
#include "isa/disasm.h"
#include "sim/cosim.h"
#include "util/table.h"

using namespace hltg;

int main(int argc, char** argv) {
  const bool verbose = argc > 1 && std::string(argv[1]) == "-v";
  std::printf("== E1: Table 1 - bus SSL errors in EX/MEM/WB of DLX ==\n\n");

  const DlxModel m = build_dlx();
  std::printf("%s\n", describe_model(m).c_str());

  const auto ssl = enumerate_bus_ssl(m.dp);
  const auto redundant = redundant_subset(m.dp, ssl);
  const auto errors = wrap(ssl);

  TestGenerator tg(m);
  const CampaignResult res =
      run_campaign(m.dp, errors, tg.strategy(), verbose);

  std::printf("%s\n",
              res.stats.table1("Table 1 (this reproduction)").c_str());

  TextTable paper({"Table 1 (paper, DAC'99)", "value"});
  paper.add_kv("No. of errors", "298");
  paper.add_kv("No. of errors detected", "252");
  paper.add_kv("No. of errors aborted", "46");
  paper.add_kv("Average test sequence length", "6.2");
  paper.add_kv("No. of backtracks (detected errors only)", "50");
  paper.add_kv("CPU time [minutes]", "36");
  std::printf("%s\n", paper.to_string().c_str());

  const double det_rate =
      100.0 * res.stats.detected / std::max<std::size_t>(1, res.stats.total);
  std::printf("detection rate: %.1f%% (paper: 84.6%%)\n", det_rate);
  std::printf(
      "provably undetectable (redundant) errors among the aborted: %zu of "
      "%zu aborted\n",
      redundant.size(), res.stats.aborted);

  // E5: test-sequence shape. The paper: "typical sequences consist of a few
  // non-trivial instructions followed by a sequence of NOP instructions."
  std::printf("\n== E5: test sequence length histogram (detected errors) ==\n");
  for (std::size_t len = 0; len < res.stats.length_histogram.size(); ++len) {
    const unsigned n = res.stats.length_histogram[len];
    if (n == 0) continue;
    std::printf("  len %2zu: %4u  %s\n", len, n,
                std::string(std::min<unsigned>(n, 60), '#').c_str());
  }

  // Sec. VI: "no error simulation was used in this preliminary
  // implementation, and ... much re-use of work ... has not yet been
  // exploited. Therefore, we can expect that run times will significantly
  // improve as these issues are addressed." - quantify that improvement
  // with error dropping (fortuitous detection by already-generated tests).
  std::printf("\n== E1b: error dropping (the re-use the paper predicted) ==\n");
  TestGenerator tg2(m);
  const CampaignResult dres =
      run_campaign_with_dropping(m.dp, errors, tg2.budgeted_strategy(),
                                 batch_detector(m), CampaignConfig{});
  TextTable dt({"metric", "no dropping", "with dropping"});
  dt.add_row({"errors detected", std::to_string(res.stats.detected),
              std::to_string(dres.stats.detected)});
  dt.add_row({"generator invocations", std::to_string(res.stats.total),
              std::to_string(dres.stats.total - dres.stats.dropped)});
  dt.add_row({"tests in final set", std::to_string(res.tests_kept),
              std::to_string(dres.tests_kept)});
  dt.add_row({"fortuitously dropped", "0", std::to_string(dres.stats.dropped)});
  dt.add_row({"generator seconds", fmt_double(res.stats.cpu_seconds, 2),
              fmt_double(dres.stats.cpu_seconds, 2)});
  dt.add_row({"error-simulation seconds", "0",
              fmt_double(dres.dropping_seconds, 2)});
  dt.print();

  // What does the generated suite itself exercise?
  std::vector<TestCase> suite;
  for (const CampaignRow& row : res.rows)
    if (row.attempt.generated) suite.push_back(row.attempt.test);
  std::printf("\n== generated-suite coverage ==\n%s\n",
              measure_coverage(m, suite).to_string().c_str());

  // Show a few representative generated tests.
  std::printf("\nsample generated tests:\n");
  int shown = 0;
  for (const CampaignRow& row : res.rows) {
    if (!row.attempt.generated || shown >= 3) continue;
    ++shown;
    std::printf("--- target: %s (len %u)\n",
                row.error.describe(m.dp).c_str(), row.attempt.test_length);
    std::printf("%s", disassemble_program(row.attempt.test.imem).c_str());
    for (unsigned r = 1; r < 32; ++r)
      if (row.attempt.test.rf_init[r])
        std::printf("    r%u = 0x%08x\n", r, row.attempt.test.rf_init[r]);
  }
  return 0;
}
