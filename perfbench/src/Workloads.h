//===-- perfbench/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads of the end-to-end benchmark (see ../README.md):
///
///  * `batch-all-labels` — one `stcfa <file> --frozen --query=all-labels`
///    per invocation on `skewed:2048:<seed>`;
///  * `batch-lint` — one `stcfa <file> --frozen --lint --lint-format=json`
///    per invocation on a seeded random program;
///  * `serve-editor` — one closed-loop editor client against
///    `stcfa --serve --snapshot-cache=<dir>` on `deep:1024:<seed>`.
///
/// Each entry point sets up, measures for `Seconds`, checks every answer
/// outside the timed region and fills an `Outcome`.  A `false` return is a
/// benchmark error (the set-up failed or a paper invariant broke), not a
/// slow or wrong run: wrong answers count as failed operations instead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Ledger.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Stcfa;   ///< the CLI under test
  std::string WorkDir; ///< this workload's scratch directory
  unsigned Threads = 1; ///< the daemon's --threads
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string TracePath;
};

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few failures, for the log.
  std::vector<std::string> FailureNotes;
  /// Metric name -> value; names not set read as 0 ("no work here").
  std::map<std::string, double> Values;
  /// Human-readable lines (the ledger table) printed before the result.
  std::vector<std::string> Report;
  /// Why the run is a benchmark error when an entry point returns false.
  std::string Error;
  /// Answers compared against a reference, by kind of check.
  std::map<std::string, uint64_t> Checked;

  void fail(const std::string &Why) {
    ++Failed;
    if (FailureNotes.size() < 8)
      FailureNotes.push_back(Why);
  }
};

bool runBatchAllLabels(const RunOptions &O, Outcome &Out);
bool runBatchLint(const RunOptions &O, Outcome &Out);
bool runServeEditor(const RunOptions &O, Outcome &Out);

/// Times \p Reps repetitions of \p Setup and records their median as
/// `setup_s`; false as soon as one repetition fails.
template <typename FnT>
bool timedSetup(Outcome &Out, int Reps, FnT Setup) {
  std::vector<double> Secs;
  for (int I = 0; I != Reps; ++I) {
    uint64_t T0 = nowNs();
    if (!Setup(I))
      return false;
    Secs.push_back(double(nowNs() - T0) / 1e9);
  }
  Out.Values["setup_s"] = median(Secs);
  return true;
}

/// Paper invariant (close-phase nodes <= build-phase nodes) plus the
/// per-expression node and edge counts, for one program.
struct GraphFacts {
  uint64_t Exprs = 0;
  uint64_t BuildNodes = 0;
  uint64_t BuildEdges = 0;
  uint64_t CloseNodes = 0;
  uint64_t CloseEdges = 0;
  uint64_t RuleFirings = 0;
};

/// False (with \p Why) when the close phase added more nodes than the
/// build phase: a benchmark error, not a slow run.
bool checkInvariant(const GraphFacts &F, std::string &Why);

/// Parses, infers, builds and closes \p Source the way the CLI does and
/// checks the invariant; false (with \p Why) when the program does not
/// parse, the close aborts, or the invariant fails.
bool graphFacts(const std::string &Source, GraphFacts &Out,
                std::string &Why);

/// Records the `core.*` count metrics of \p F.
void reportGraphFacts(const GraphFacts &F, Outcome &Out);

} // namespace ledger

#endif // PERFBENCH_WORKLOADS_H
