#include "harness/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "hls/tech_library.h"
#include "support/blobio.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

/// splitmix64: a small, well-mixed generator whose stream is fixed by the
/// seed on every platform (std:: distributions are not).
struct SplitMix {
  uint64_t state;
  uint64_t next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

std::string fmt(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

constexpr double kMinBudget = 0.02;
constexpr double kMaxBudget = 0.9;
/// Relative slack for floating-point rounding in the rule checks.
constexpr double kSlack = 1e-9;

std::string canonicalLine(const std::string& name,
                          const cayman::EvaluationReport& report,
                          const std::vector<std::string>& regionLabels) {
  const cayman::select::Solution& s = report.solution;
  const cayman::merge::MergeResult& m = report.merging;
  std::string line = name + " budget=" + fmt(report.budgetRatio) +
                     " tall=" + fmt(report.totalCpuCycles) +
                     " speedup=" + fmt(report.caymanSpeedup) +
                     " novia=" + fmt(report.noviaSpeedup) +
                     " qscores=" + fmt(report.qscoresSpeedup) +
                     " area=" + fmt(s.areaUm2) +
                     " cpu=" + fmt(s.cpuCycles) +
                     " accel=" + fmt(s.accelCycles) +
                     " merged=" + fmt(m.areaBeforeUm2) + "/" +
                     fmt(m.areaAfterUm2) +
                     " steps=" + std::to_string(m.mergeSteps) +
                     " SB=" + std::to_string(report.numSeqBlocks) +
                     " PR=" + std::to_string(report.numPipelinedRegions) +
                     " C=" + std::to_string(report.numCoupled) +
                     " D=" + std::to_string(report.numDecoupled) +
                     " S=" + std::to_string(report.numScratchpad) + " sel=";
  for (size_t i = 0; i < s.accelerators.size(); ++i) {
    const cayman::accel::AcceleratorConfig& config = s.accelerators[i];
    if (i > 0) line += ',';
    line += (i < regionLabels.size() ? regionLabels[i] : "?") + ":" +
            fmt(config.areaUm2) + ":" + fmt(config.cycles) + ":" +
            fmt(config.cpuCycles);
  }
  return line;
}

std::string checkRules(const cayman::EvaluationReport& report) {
  const cayman::select::Solution& s = report.solution;
  const double tAll = report.totalCpuCycles;
  double selectedCpu = 0.0, selectedArea = 0.0;
  for (const cayman::accel::AcceleratorConfig& config : s.accelerators) {
    selectedCpu += config.cpuCycles;
    selectedArea += config.areaUm2;
  }
  const double speedup = report.caymanSpeedup;
  if (!(speedup >= 1.0 - kSlack)) return "speedup " + fmt(speedup) + " < 1";
  if (tAll - selectedCpu > 0.0) {
    const double amdahl = tAll / (tAll - selectedCpu);
    if (speedup > amdahl * (1.0 + kSlack)) {
      return "speedup " + fmt(speedup) + " above Amdahl bound " + fmt(amdahl);
    }
  }
  const double budgetUm2 = report.budgetRatio *
                           cayman::hls::TechLibrary::nangate45().cva6TileAreaUm2;
  if (selectedArea > budgetUm2 * (1.0 + kSlack)) {
    return "selected area " + fmt(selectedArea) + " over budget " +
           fmt(budgetUm2);
  }
  const cayman::merge::MergeResult& m = report.merging;
  if (m.areaAfterUm2 > m.areaBeforeUm2 * (1.0 + kSlack)) {
    return "merged area " + fmt(m.areaAfterUm2) + " above unmerged " +
           fmt(m.areaBeforeUm2);
  }
  return {};
}

}  // namespace

Inputs makeInputs(uint64_t seed, size_t numBudgets) {
  SplitMix rng{seed};
  Inputs inputs;
  for (const cayman::workloads::WorkloadInfo& info :
       cayman::workloads::all()) {
    inputs.names.push_back(info.name);
  }
  for (size_t i = inputs.names.size(); i > 1; --i) {
    std::swap(inputs.names[i - 1], inputs.names[rng.next() % i]);
  }
  const double width = (kMaxBudget - kMinBudget) / numBudgets;
  for (size_t k = 0; k < numBudgets; ++k) {
    inputs.budgets.push_back(kMinBudget + width * (k + rng.unit()));
  }
  return inputs;
}

Outcome outcomeOf(const std::string& name,
                  const cayman::EvaluationReport& report,
                  const std::vector<std::string>& regionLabels) {
  return Outcome{canonicalLine(name, report, regionLabels),
                 checkRules(report), true, report.caymanSpeedup,
                 report.areaSavingPercent};
}

Outcome outcomeOf(const cayman::WorkloadEvaluation& evaluation) {
  if (!evaluation.ok()) {
    return failedOutcome(
        evaluation.name,
        std::string(cayman::support::stageName(evaluation.failure->stage)) +
            ": " + evaluation.failure->message);
  }
  std::vector<std::string> labels;
  for (const cayman::SelectionDecision& decision : evaluation.decisions) {
    labels.push_back(decision.region);
  }
  return outcomeOf(evaluation.name, evaluation.report, labels);
}

Outcome failedOutcome(const std::string& name, const std::string& why) {
  Outcome outcome;
  outcome.line = name + " FAILED " + why;
  return outcome;
}

double speedupGeomean(const std::vector<Outcome>& outcomes) {
  double logSum = 0.0;
  size_t n = 0;
  for (const Outcome& outcome : outcomes) {
    if (!outcome.ok) continue;
    logSum += std::log(outcome.speedup);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(logSum / n);
}

double savingMean(const std::vector<Outcome>& outcomes) {
  double sum = 0.0;
  size_t n = 0;
  for (const Outcome& outcome : outcomes) {
    if (!outcome.ok) continue;
    sum += outcome.savingPct;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

void Tally::fail(std::string why) {
  ++failed;
  if (firstFailures.size() < 8) firstFailures.push_back(std::move(why));
}

void Tally::check(const Outcome& outcome, const std::string& probe,
                  const std::string& expected) {
  ++attempted;
  if (!outcome.ok) {
    fail(outcome.line);
  } else if (!outcome.ruleError.empty()) {
    fail(keyOf(outcome.line) + ": " + outcome.ruleError);
  } else if (probe != expected) {
    fail("output differs from reference: got '" + probe + "' expected '" +
         expected + "'");
  }
}

std::string keyOf(const std::string& line) {
  size_t first = line.find(' ');
  if (first == std::string::npos) return line;
  return line.substr(0, line.find(' ', first + 1));
}

std::string digestLine(const std::string& line) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(cayman::support::blobio::fnv1a64(line)));
  return keyOf(line) + " fnv1a64=" + hex;
}

std::vector<std::string> readLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace perfbench
