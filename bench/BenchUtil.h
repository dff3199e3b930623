//===-- bench/BenchUtil.h - Shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmark binaries: parse-or-abort, timed runs of
/// each analysis with their machine-independent counters, and the
/// standard `main` that first prints the paper-style table(s) and then
/// runs the registered google-benchmark timings.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_BENCH_BENCHUTIL_H
#define STCFA_BENCH_BENCHUTIL_H

#include "analysis/StandardCFA.h"
#include "core/Reachability.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "support/SimdOps.h"
#include "support/Timer.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace stcfa {
namespace bench {

/// The CPU model string from /proc/cpuinfo ("unknown" where absent) —
/// perf trajectories across BENCH_*.json files are only interpretable
/// with the hardware identity attached.
inline std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      break;
    size_t Start = Line.find_first_not_of(" \t", Colon + 1);
    return Start == std::string::npos ? "unknown" : Line.substr(Start);
  }
  return "unknown";
}

/// The widest row-OR path this machine supports (what the kernel would
/// use absent `STCFA_FORCE_SCALAR`).
inline const char *simdSupported() {
  if (simd::pathSupported(simd::Path::Avx512))
    return simd::pathName(simd::Path::Avx512);
  if (simd::pathSupported(simd::Path::Avx2))
    return simd::pathName(simd::Path::Avx2);
  return simd::pathName(simd::Path::Scalar);
}

/// The checkout a bench binary was built from, as `git describe --always
/// --dirty` prints it ("unknown" when git or the checkout is missing).
inline std::string gitRevision() {
#ifdef STCFA_SOURCE_DIR
  std::string Cmd = "git -C '" STCFA_SOURCE_DIR
                    "' describe --always --dirty --abbrev=12 2>/dev/null";
  if (std::FILE *P = popen(Cmd.c_str(), "r")) {
    char Buf[128] = {};
    bool Got = std::fgets(Buf, sizeof Buf, P) != nullptr;
    pclose(P);
    std::string Rev = Got ? Buf : "";
    while (!Rev.empty() && (Rev.back() == '\n' || Rev.back() == '\r'))
      Rev.pop_back();
    if (!Rev.empty())
      return Rev;
  }
#endif
  return "unknown";
}

/// The CMake build type the bench binary was compiled under.
inline std::string buildType() {
#ifdef STCFA_BUILD_TYPE
  return STCFA_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Machine-readable companion to the printed tables: collects flat
/// records of numeric/string metrics and writes them as a JSON array to
/// `BENCH_<name>.json` in the working directory, so runs can be diffed
/// and plotted without scraping stdout.  Every record is stamped with
/// the `git_sha` and `build_type` that produced it, so a committed file
/// records where its numbers came from.
///
/// \code
///   JsonReport Report("queries");
///   Report.record("table1")
///       .add("bindings", 100)
///       .add("prep_ms", PrepMs);
///   // written on destruction (or call write() explicitly)
/// \endcode
class JsonReport {
public:
  class Record {
  public:
    Record &add(const char *Key, double Value) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
      Fields.emplace_back(Key, Buf);
      return *this;
    }
    Record &add(const char *Key, uint64_t Value) {
      Fields.emplace_back(Key, std::to_string(Value));
      return *this;
    }
    Record &add(const char *Key, int Value) {
      return add(Key, static_cast<uint64_t>(Value));
    }
    Record &add(const char *Key, unsigned Value) {
      return add(Key, static_cast<uint64_t>(Value));
    }
    Record &add(const char *Key, const std::string &Value) {
      Fields.emplace_back(Key, "\"" + Value + "\"");
      return *this;
    }
    /// Embeds \p Json verbatim as the value — for pre-rendered objects
    /// like the metrics snapshot (`snapshotMetrics().toJson()`).
    Record &addRaw(const char *Key, std::string Json) {
      Fields.emplace_back(Key, std::move(Json));
      return *this;
    }

  private:
    friend class JsonReport;
    explicit Record(std::string Kind) : Kind(std::move(Kind)) {}
    std::string Kind;
    /// Key -> already-rendered JSON value.
    std::vector<std::pair<std::string, std::string>> Fields;
  };

  /// Every report leads with a `cpu` record — model, SIMD capability,
  /// the path actually active in this process, and the thread count —
  /// so numbers from different machines are never compared blind.
  explicit JsonReport(std::string Name) : Name(std::move(Name)) {
    record("cpu")
        .add("cpu_model", cpuModel())
        .add("simd", simdSupported())
        .add("simd_path", std::string(simd::activePathName()))
        .add("hardware_threads",
             static_cast<unsigned>(std::thread::hardware_concurrency()));
  }
  JsonReport(const JsonReport &) = delete;
  JsonReport &operator=(const JsonReport &) = delete;
  ~JsonReport() { write(); }

  /// Appends a record tagged with \p Kind (e.g. the table it mirrors).
  Record &record(std::string Kind) {
    Records.push_back(Record(std::move(Kind)));
    return Records.back();
  }

  /// Writes `BENCH_<name>.json`; harmless to call more than once.
  void write() {
    if (Written)
      return;
    Written = true;
    std::string Path = "BENCH_" + Name + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return;
    }
    const std::string Sha = gitRevision(), Type = buildType();
    std::fprintf(F, "[\n");
    for (size_t I = 0; I != Records.size(); ++I) {
      std::fprintf(F, "  {\"kind\": \"%s\", \"git_sha\": \"%s\", "
                      "\"build_type\": \"%s\"",
                   Records[I].Kind.c_str(), Sha.c_str(), Type.c_str());
      for (const auto &[Key, Value] : Records[I].Fields)
        std::fprintf(F, ", \"%s\": %s", Key.c_str(), Value.c_str());
      std::fprintf(F, "}%s\n", I + 1 == Records.size() ? "" : ",");
    }
    std::fprintf(F, "]\n");
    std::fclose(F);
    std::printf("wrote %s (%zu records)\n", Path.c_str(), Records.size());
  }

private:
  std::string Name;
  std::vector<Record> Records;
  bool Written = false;
};

/// Parses and type-checks; aborts the benchmark binary on failure (the
/// corpora are all well-formed by construction).
inline std::unique_ptr<Module> mustParse(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M) {
    std::fprintf(stderr, "benchmark input failed to parse:\n%s",
                 Diags.render().c_str());
    std::abort();
  }
  DiagnosticEngine InferDiags;
  if (!inferTypes(*M, InferDiags)) {
    std::fprintf(stderr, "benchmark input failed to type-check:\n%s",
                 InferDiags.render().c_str());
    std::abort();
  }
  return M;
}

/// One timed standard-CFA solve.
struct StandardRun {
  double TotalMs = 0;
  uint64_t Work = 0;
};

inline StandardRun runStandard(const Module &M) {
  Timer T;
  StandardCFA CFA(M);
  CFA.run();
  StandardRun R;
  R.TotalMs = T.millis();
  R.Work = CFA.stats().work();
  return R;
}

/// One timed subtransitive build+close (phases timed separately, like the
/// paper's Tables 1 and 2).
struct GraphRun {
  double BuildMs = 0;
  double CloseMs = 0;
  GraphStats Stats;
  std::unique_ptr<SubtransitiveGraph> Graph;
};

inline GraphRun runGraph(const Module &M, SubtransitiveConfig Config = {}) {
  GraphRun R;
  R.Graph = std::make_unique<SubtransitiveGraph>(M, Config);
  Timer T;
  R.Graph->build();
  R.BuildMs = T.millis();
  T.reset();
  R.Graph->close();
  R.CloseMs = T.millis();
  R.Stats = R.Graph->stats();
  return R;
}

/// Queries the label set of every non-trivial application — the paper's
/// benchmark workload ("writing out the control flow information for all
/// non-trivial applications").  Returns the time.
inline double queryAllApplications(const Module &M,
                                   const SubtransitiveGraph &G,
                                   uint64_t *TotalLabels = nullptr) {
  Timer T;
  Reachability R(G);
  uint64_t Labels = 0;
  for (uint32_t I = 0; I != M.numExprs(); ++I) {
    const auto *A = dyn_cast<AppExpr>(M.expr(ExprId(I)));
    if (!A)
      continue;
    // Non-trivial: the operator is not an identifier or an abstraction.
    ExprKind K = M.expr(A->fn())->kind();
    if (K == ExprKind::Var || K == ExprKind::Lam)
      continue;
    Labels += R.labelsOf(A->fn()).count();
  }
  if (TotalLabels)
    *TotalLabels += Labels;
  return T.millis();
}

} // namespace bench
} // namespace stcfa

/// Each bench binary defines `printPaperTables()` and uses this macro to
/// emit the table before the google-benchmark timings.
#define STCFA_BENCH_MAIN(PrintFn)                                            \
  int main(int argc, char **argv) {                                         \
    PrintFn();                                                               \
    ::benchmark::Initialize(&argc, argv);                                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))                \
      return 1;                                                              \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    return 0;                                                                \
  }

#endif // STCFA_BENCH_BENCHUTIL_H
