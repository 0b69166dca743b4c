// Paper-fidelity gates: the reproduction's verdicts in EXPERIMENTS.md as
// executable checks, so a performance or simplification change cannot
// quietly move a paper result. Every tolerance comes from the paper's
// claim, never from today's numbers. Where the reproduction is known to
// miss that band, the cell is a named expected deviation (citing
// EXPERIMENTS.md) pinned to its current value, so any drift still fails.
#include <gtest/gtest.h>

#include <string>

#include "power/area_model.hpp"
#include "sim/presets.hpp"

namespace rc {
namespace {

// ---- Table 6: router area savings vs. the baseline router -----------------

/// The paper's claim: each cell's saving within ±1 percentage point.
constexpr double kTable6Band = 0.01;
/// An expected deviation is pinned to ±0.05 pp of its recorded value.
constexpr double kDeviationPin = 0.0005;

struct Table6Cell {
  const char* version;  ///< Table 6 row
  const char* preset;   ///< preset that builds that router
  int cores;
  double paper;  ///< saving as a fraction (positive = smaller router)
};

double table6_saving(const Table6Cell& c) {
  return AreaModel::savings_vs_baseline(
      make_system_config(c.cores, c.preset, "fft").noc);
}

std::string cell_name(const Table6Cell& c) {
  return std::string(c.version) + " @ " + std::to_string(c.cores) + " cores";
}

TEST(FidelityTable6, CellsWithinOnePointOfPaper) {
  const Table6Cell cells[] = {
      {"Fragmented", "Fragmented", 16, -0.1928},
      {"Complete", "Complete", 16, 0.0621},
      {"Complete", "Complete", 64, 0.0577},
      {"Complete Timed", "SlackDelay1_NoAck", 16, 0.0338},
  };
  for (const Table6Cell& c : cells)
    EXPECT_NEAR(table6_saving(c), c.paper, kTable6Band) << cell_name(c);
}

/// A Table 6 cell that misses the ±1 pp band on this model. The test fails
/// if the cell drifts from `measured`, including a move back into the band
/// (then the deviation should be deleted and the cell gated normally).
void expect_table6_deviation(const Table6Cell& c, double measured) {
  EXPECT_NEAR(table6_saving(c), measured, kDeviationPin)
      << cell_name(c) << ": expected deviation drifted (paper " << c.paper
      << ", recorded " << measured << ")";
}

// Expected deviation, EXPERIMENTS.md §Table 6: the model's slot counters
// grow more slowly with mesh size than DSENT's, so the 64-core timed
// saving stays near 3% (+3.24%) instead of dropping to the paper's +1.09%
// (+2.15 pp).
TEST(FidelityTable6, ExpectedDeviation_CompleteTimed64) {
  expect_table6_deviation({"Complete Timed", "SlackDelay1_NoAck", 64, 0.0109},
                          0.0324);
}

// Expected deviation, EXPERIMENTS.md §Table 6: the model's Fragmented
// penalty widens from 16 to 64 cores (−20.05% → −20.22%) where the paper's
// narrows (−19.28% → −18.96%), leaving the 64-core cell −1.26 pp off.
TEST(FidelityTable6, ExpectedDeviation_Fragmented64) {
  expect_table6_deviation({"Fragmented", "Fragmented", 64, -0.1896}, -0.2022);
}

}  // namespace
}  // namespace rc
