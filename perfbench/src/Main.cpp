//===-- perfbench/src/Main.cpp - stcfa end-to-end benchmark harness -------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the end-to-end benchmark and prints, as its last
/// stdout line, `{"correct", "attempted", "failed", "metrics"}`: the
/// end-to-end metrics with `--trace 0`, the per-layer ledger with
/// `--trace 1`.  Normally started by `perfbench/run.py`, which builds the
/// program and this harness first:
///
/// \code
///   stcfa_ledger --workload batch-lint --seed 3 --seconds 10 --trace 0
///                --stcfa <build>/src/driver/stcfa --workdir <dir>
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "lint/LintEngine.h"
#include "support/SimdOps.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <pthread.h>
#include <string>
#include <thread>
#include <vector>

using namespace ledger;

namespace {

struct MetricDef {
  std::string Name;
  std::string Unit;
};

/// The end-to-end metrics, reported by every workload (`--trace 0`).
std::vector<MetricDef> endToEndMetrics() {
  return {{"setup_s", "s"},
          {"wall_ms", "ms"},
          {"peak_rss_mb", "MB"},
          {"success_rate", "ratio"}};
}

/// The per-layer metrics (`--trace 1`).  Every workload reports all of
/// them; a layer that does no work in a workload reads 0 there.
std::vector<MetricDef> perLayerMetrics() {
  std::vector<MetricDef> M = {
      {"load_p50_ms", "ms"},
      {"first_edit_p50_ms", "ms"},
      {"edit_p50_ms", "ms"},
      {"lint_p50_ms", "ms"},
      {"query_p50_ms", "ms"},
      {"slice_p50_ms", "ms"},
      {"parser.parse_ms", "ms"},
      {"parser.exprs", "count"},
      {"sema.infer_ms", "ms"},
      {"core.build_ms", "ms"},
      {"core.close_ms", "ms"},
      {"core.build_nodes", "count"},
      {"core.close_nodes", "count"},
      {"core.close_edges", "count"},
      {"core.rule_firings", "count"},
      {"core.close_to_build_nodes", "ratio"},
      {"core.nodes_per_expr", "ratio"},
      {"core.edges_per_expr", "ratio"},
      {"core.freeze_ms", "ms"},
      {"core.frozen_nodes", "count"},
      {"core.condense_ms", "ms"},
      {"core.kernel_setup_ms", "ms"},
      {"core.kernel_sweep_ms", "ms"},
      {"core.kernel_word_ors", "count"},
      {"core.batch_query_ms", "ms"},
      {"core.point_query_us", "us"},
      {"lint.run_ms", "ms"},
      {"lint.findings", "count"}};
  for (const stcfa::LintPassInfo &P : stcfa::LintEngine::passes())
    M.push_back({std::string("lint.pass_ms.") + P.Id, "ms"});
  const MetricDef Rest[] = {
      {"analysis.hybrid_solve_ms", "ms"},
      {"slice.graph_build_ms", "ms"},
      {"slice.query_ms", "ms"},
      {"slice.members", "count"},
      {"snapshot.load_ms", "ms"},
      {"snapshot.bytes", "bytes"},
      {"delta.session_create_ms", "ms"},
      {"delta.apply_ms", "ms"},
      {"delta.freeze_view_ms", "ms"},
      {"delta.dirty_nodes", "count"},
      {"delta.reclose_edges", "count"},
      {"delta.incremental_frac", "ratio"},
      {"serve.unattributed_ms.load", "ms"},
      {"serve.unattributed_ms.edit", "ms"},
      {"serve.unattributed_ms.lint", "ms"},
      {"serve.unattributed_ms.query", "ms"},
      {"serve.unattributed_ms.slice", "ms"},
      {"driver.unattributed_ms", "ms"},
      {"driver.output_mb", "MB"},
      {"trace.overhead_frac", "ratio"}};
  M.insert(M.end(), std::begin(Rest), std::end(Rest));
  return M;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("model name", 0) != 0)
      continue;
    size_t Colon = Line.find(':');
    size_t Start = Line.find_first_not_of(" \t", Colon + 1);
    return Colon == std::string::npos || Start == std::string::npos
               ? "unknown"
               : Line.substr(Start);
  }
  return "unknown";
}

#ifdef STCFA_TRACING
constexpr bool TracingBuilt = true;
#else
constexpr bool TracingBuilt = false;
#endif
#ifdef STCFA_FAULT_INJECTION
constexpr bool FaultInjectionBuilt = true;
#else
constexpr bool FaultInjectionBuilt = false;
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/// Runs \p Body on a thread with a 256 MiB stack and joins it.  The
/// in-process replays parse and infer 16k-deep `let` chains recursively,
/// as the CLI does, and must not depend on the harness's own stack limit.
template <typename FnT> bool onBigStack(FnT Body) {
  pthread_attr_t Attr;
  if (pthread_attr_init(&Attr) != 0)
    return false;
  bool Ok = pthread_attr_setstacksize(&Attr, size_t(256) << 20) == 0;
  pthread_t Thread;
  Ok = Ok && pthread_create(
                 &Thread, &Attr,
                 [](void *Arg) -> void * {
                   (*static_cast<FnT *>(Arg))();
                   return nullptr;
                 },
                 &Body) == 0;
  pthread_attr_destroy(&Attr);
  return Ok && pthread_join(Thread, nullptr) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: stcfa_ledger --workload batch-all-labels|batch-lint|"
               "serve-editor --seed N --seconds S --trace 0|1 --stcfa PATH "
               "--workdir DIR [--trace-out FILE]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string SeedArg, SecondsArg, TraceArg;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    if (Flag == "--workload")
      O.Workload = Val;
    else if (Flag == "--seed")
      SeedArg = Val;
    else if (Flag == "--seconds")
      SecondsArg = Val;
    else if (Flag == "--trace")
      TraceArg = Val;
    else if (Flag == "--stcfa")
      O.Stcfa = Val;
    else if (Flag == "--workdir")
      O.WorkDir = Val;
    else if (Flag == "--trace-out")
      O.TracePath = Val;
    else
      return usage();
  }
  if (Argc % 2 == 0 || O.Stcfa.empty() || O.WorkDir.empty() ||
      SeedArg.empty() || SecondsArg.empty() ||
      (TraceArg != "0" && TraceArg != "1"))
    return usage();
  char *End = nullptr;
  O.Seed = std::strtoull(SeedArg.c_str(), &End, 10);
  if (*End)
    return usage();
  O.Seconds = std::strtod(SecondsArg.c_str(), &End);
  if (*End || O.Seconds <= 0)
    return usage();
  O.Trace = TraceArg == "1";
  // A daemon that dies mid-request must surface as a failed request, not
  // kill the client with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  // One daemon lane per hardware thread, at most four.
  O.Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  if (!makeDirs(O.WorkDir)) {
    std::fprintf(stderr, "error: cannot create %s\n", O.WorkDir.c_str());
    return 2;
  }

  bool (*Run)(const RunOptions &, Outcome &) =
      O.Workload == "batch-all-labels" ? runBatchAllLabels
      : O.Workload == "batch-lint"     ? runBatchLint
      : O.Workload == "serve-editor"   ? runServeEditor
                                       : nullptr;
  if (!Run)
    return usage();
  Outcome Out;
  bool Ok = false;
  if (!onBigStack([&] { Ok = Run(O, Out); })) {
    std::fprintf(stderr, "error: cannot start the workload thread\n");
    return 3;
  }
  if (!Ok) {
    std::fprintf(stderr, "error: %s: %s\n", O.Workload.c_str(),
                 Out.Error.c_str());
    return 3;
  }
  Out.Values["success_rate"] =
      double(Out.Attempted - Out.Failed) / double(Out.Attempted);

  std::printf("provenance {\"workload\": %s, \"seed\": %llu, "
              "\"seconds\": %s, \"trace\": %d, \"build_type\": %s, "
              "\"stcfa_tracing\": %s, \"stcfa_fault_injection\": %s, "
              "\"cpu_model\": %s, \"simd_path\": %s, \"nproc\": %u, "
              "\"daemon_threads\": %u}\n",
              quote(O.Workload).c_str(), (unsigned long long)O.Seed,
              formatNumber(O.Seconds).c_str(), O.Trace ? 1 : 0,
              quote(PERFBENCH_BUILD_TYPE).c_str(),
              TracingBuilt ? "true" : "false",
              FaultInjectionBuilt ? "true" : "false",
              quote(cpuModel()).c_str(),
              quote(stcfa::simd::activePathName()).c_str(),
              std::thread::hardware_concurrency(), O.Threads);
  for (const std::string &Line : Out.Report)
    std::printf("%s\n", Line.c_str());
  for (const auto &[What, N] : Out.Checked)
    std::printf("checked %llu: %s\n", (unsigned long long)N, What.c_str());
  for (const std::string &Why : Out.FailureNotes)
    std::printf("failed: %s\n", Why.c_str());

  std::vector<MetricDef> Defs =
      O.Trace ? perLayerMetrics() : endToEndMetrics();
  std::vector<MetricDef> All = perLayerMetrics();
  for (const MetricDef &D : endToEndMetrics())
    All.push_back(D);
  for (const auto &[Name, V] : Out.Values)
    if (std::none_of(All.begin(), All.end(),
                     [&](const MetricDef &D) { return D.Name == Name; })) {
      std::fprintf(stderr, "error: unregistered metric '%s'\n", Name.c_str());
      return 3;
    }
  std::string Json = "{\"correct\": " +
                     std::string(Out.Failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Out.Attempted) +
                     ", \"failed\": " + std::to_string(Out.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I != Defs.size(); ++I) {
    auto It = Out.Values.find(Defs[I].Name);
    if (!O.Trace && It == Out.Values.end()) {
      std::fprintf(stderr, "error: %s reported no %s\n", O.Workload.c_str(),
                   Defs[I].Name.c_str());
      return 3;
    }
    double V = It == Out.Values.end() ? 0 : It->second;
    if (!std::isfinite(V)) {
      std::fprintf(stderr, "error: %s is not finite\n", Defs[I].Name.c_str());
      return 3;
    }
    Json += (I ? ", " : "") + quote(Defs[I].Name) +
            ": {\"value\": " + formatNumber(V) +
            ", \"unit\": " + quote(Defs[I].Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
