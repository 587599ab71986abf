// Seeded benchmark inputs and the output checks every evaluation must pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cayman/driver.h"

namespace perfbench {

/// Inputs of one run, a pure function of the workload seed.
struct Inputs {
  /// The 28 registered workload names in a seeded order.
  std::vector<std::string> names;
  /// dse area budgets: one uniform draw per stratum of [0.02, 0.9].
  std::vector<double> budgets;
};

Inputs makeInputs(uint64_t seed, size_t numBudgets);

/// What is checked and reported of one evaluation.
struct Outcome {
  /// Full-precision, deterministic rendering: every reported number plus
  /// each selected region's label, area and cycles (or "<name> FAILED ..."
  /// for a failed evaluation). Two evaluations are byte-identical exactly
  /// when their lines are equal.
  std::string line;
  /// The first broken per-evaluation rule, empty when all hold:
  ///   1 <= speedup <= T_all / (T_all - sum of selected CPU cycles)  (Amdahl)
  ///   sum of selected area <= budget * cva6TileAreaUm2
  ///   merged area <= unmerged area
  std::string ruleError;
  bool ok = false;
  double speedup = 0.0;
  double savingPct = 0.0;
};

Outcome outcomeOf(const std::string& name,
                  const cayman::EvaluationReport& report,
                  const std::vector<std::string>& regionLabels);
Outcome outcomeOf(const cayman::WorkloadEvaluation& evaluation);
Outcome failedOutcome(const std::string& name, const std::string& why);

/// Geometric-mean speedup and mean merge saving over the successful
/// outcomes (0 when there are none).
double speedupGeomean(const std::vector<Outcome>& outcomes);
double savingMean(const std::vector<Outcome>& outcomes);

/// Tally of checked evaluations; a failed or rule-breaking evaluation and a
/// line that differs from its reference all count as failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> firstFailures;  ///< capped sample for the log

  void fail(std::string why);
  /// Checks one evaluation: it did not fail, its rules hold, and `probe`
  /// (its line or the line's digest) equals `expected`.
  void check(const Outcome& outcome, const std::string& probe,
             const std::string& expected);
};

/// "<workload> budget=<b>": what identifies an evaluation within a run.
std::string keyOf(const std::string& line);
/// keyOf(line) plus a 64-bit FNV-1a digest of the whole line, the compact
/// form the dse expected file stores.
std::string digestLine(const std::string& line);

/// Lines of a text file (without newlines); empty when it cannot be read.
std::vector<std::string> readLines(const std::string& path);
std::string readFile(const std::string& path);
bool writeFile(const std::string& path, const std::string& text);

}  // namespace perfbench
