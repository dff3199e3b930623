//===-- driver/Main.cpp - The stcfa command-line tool ---------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `stcfa`: parse a mini-ML program, run an analysis, answer queries.
///
/// \code
///   stcfa program.stml --query=all-labels
///   stcfa --corpus=cubic:8 --analysis=standard --stats
///   echo 'let id = fn x => x in id id' | stcfa - --query=labels
///   stcfa program.stml --run
/// \endcode
///
/// `runTool` is four steps: flag parsing (`parseFlags`), validation of
/// every flag value and combination into `Options` + `PipelineOptions`
/// before any input is read (`validate`), dispatch to the daemon, the
/// snapshot path or the live pipeline, and the per-mode output (query,
/// lint, slice, run).
///
//===----------------------------------------------------------------------===//

#include "analysis/DeadCodeAwareCFA.h"
#include "apps/CallGraph.h"
#include "apps/EffectsAnalysis.h"
#include "apps/KLimitedCFA.h"
#include "ast/Printer.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "interp/Interpreter.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "pipeline/Pipeline.h"
#include "sema/Infer.h"
#include "serve/Server.h"
#include "slice/DeadCode.h"
#include "slice/Export.h"
#include "slice/Slicer.h"
#include "snapshot/Snapshot.h"
#include "support/LabelSetWriter.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "testgen/ShapeGen.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream> // the one tool entry point reads stdin
#include <iterator>
#include <sstream>
#include <string>

using namespace stcfa;

namespace {

/// Upper bound on `--threads`: every pool spawns its lanes up front.
constexpr uint64_t MaxThreads = 256;
/// Upper bound on `--timeout-ms` (about 31 years), so the deadline's
/// clock arithmetic cannot overflow.
constexpr uint64_t MaxTimeoutMs = 1000000000000ull;
/// What the flag-parsing and validation steps return to keep going.
constexpr int Continue = -1;

struct Options {
  std::string InputFile;
  std::string Corpus;
  std::string Analysis = "subtransitive";
  std::string Query = "labels";
  /// K of `--query=klimited:K`.
  uint32_t KLimit = 0;
  std::string Congruence = "bytype";
  std::string Policy = "paper";
  unsigned Threads = 1;
  /// Batch size above which batched queries dispatch to the label-set
  /// kernel; 0 = kernel disabled.
  uint64_t KernelThreshold = QueryEngine::DefaultKernelThreshold;
  /// Level-merge threshold for the kernel's chunked scheduler; <= 1 =
  /// per-level barriers.
  uint32_t KernelChunkRows = LabelSetKernel::DefaultChunkRows;
  /// `--gen-shape=<family>:<N>[:<seed>]`: print the generated stress
  /// program and exit.
  std::string GenShape;
  /// Wall-clock budget for the whole analysis+query pipeline; -1 = none.
  int64_t TimeoutMs = -1;
  /// Node budget for the subtransitive close phase; 0 = unlimited.
  uint64_t CloseBudget = 0;
  /// Degradation mode for --analysis=hybrid; empty = flag not given.
  std::string Degrade;
  /// Chrome-tracing span export path; empty = tracing stays disabled.
  std::string TraceJson;
  /// Metrics snapshot export path; empty = no export.
  std::string MetricsJson;
  bool Stats = false;
  bool Run = false;
  bool Print = false;
  bool DumpGraph = false;
  /// `--lint[=pass,...]`: run the checker passes instead of a query.
  bool Lint = false;
  /// Selected pass ids; empty = all registered passes.
  std::vector<std::string> LintPasses;
  std::string LintFormat = "text";
  /// Tracks whether the flag was given explicitly, for conflict checks.
  bool LintFormatGiven = false;
  /// `--slice=expr@<line>:<col>[,back|fwd]`: raw spec; parsed fields
  /// below once flags are validated.
  std::string Slice;
  uint32_t SliceLine = 0;
  uint32_t SliceCol = 0;
  std::string SliceDir = "back";
  /// `--dce`: emit the residual program with dead bindings removed.
  bool Dce = false;
  /// `--export-deps=dot|json`: serialise the dependence graph.
  std::string ExportDeps;
  /// True when any of the slice-subsystem batch modes was requested.
  bool sliceMode() const {
    return !Slice.empty() || Dce || !ExportDeps.empty();
  }
  bool QueryGiven = false;
  bool CongruenceGiven = false;
  bool PolicyGiven = false;
  bool AnalysisGiven = false;
  /// `--save-snapshot=<file>`: persist the frozen graph after analysis.
  std::string SaveSnapshot;
  /// `--load-snapshot=<file>`: serve queries from a persisted snapshot,
  /// skipping parse/close/freeze entirely.
  std::string LoadSnapshot;
  /// `--snapshot-cache[=<dir>]`: content-addressed snapshot reuse.
  bool SnapshotCache = false;
  std::string SnapshotDir;
  /// `--snapshot-cache-max-mb=<n>`: cache size cap, LRU-by-mtime
  /// eviction after each fill; 0 = uncapped.
  uint64_t SnapshotCacheMaxMb = 512;
  /// `--serve`: the long-running analysis daemon (docs/SERVE.md).
  bool Serve = false;
  /// Admission soft budget in governor node units.
  uint64_t ServeMaxCost = 4u << 20;
  /// Longest accepted request line, in MiB.
  uint64_t ServeMaxRequestMb = 32;

  /// True when any resource-governor flag was given: only then do the
  /// degradation exit codes (3-6) apply, so ungoverned invocations keep
  /// the historical 0/1/2 behaviour.
  bool governed() const {
    return TimeoutMs >= 0 || CloseBudget > 0 || !Degrade.empty();
  }
  /// True when the program text comes from a corpus or a named file
  /// (not stdin).
  bool namedInput() const {
    return !Corpus.empty() || (!InputFile.empty() && InputFile != "-");
  }
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [<file>|-] [options]\n"
      "  --corpus=<name>        life | lexgen[:states] | cubic:N |\n"
      "                         joinpoint:N | random:SEED |\n"
      "                         wide:N | deep:N | diamond:N | skewed:N\n"
      "                         (condensation-shape stress programs;\n"
      "                         optional :seed suffix)\n"
      "  --gen-shape=<spec>     print the wide/deep/diamond/skewed:N\n"
      "                         stress program to stdout and exit\n"
      "  --analysis=<name>      subtransitive (default) | standard |\n"
      "                         unify | poly | hybrid\n"
      "  --query=<q>            labels (root label set, default) |\n"
      "                         all-labels | effects | called-once |\n"
      "                         klimited:K | callgraph | dead-code\n"
      "  --lint[=p1,p2,...]     run the checker passes (docs/LINT.md)\n"
      "                         instead of a query; default all of:\n"
      "                         dead-function, unused-binding,\n"
      "                         applied-non-function, called-once,\n"
      "                         impure-in-pure, escaping-function\n"
      "  --lint-format=<f>      text (default) | json | sarif\n"
      "  --slice=expr@L:C[,d]   demand-driven slice of the innermost\n"
      "                         expression at line L column C over the\n"
      "                         dependence graph; d = back (default,\n"
      "                         what influences it) | fwd (what it\n"
      "                         influences); members print with witness\n"
      "                         chains (docs/SLICE.md)\n"
      "  --dce                  emit the residual program to stdout with\n"
      "                         dead bindings removed (docs/SLICE.md)\n"
      "  --export-deps=<f>      print the typed dependence graph as\n"
      "                         dot | json\n"
      "  --congruence=<c>       none | bytype (default) | bybase\n"
      "  --policy=<p>           paper (default) | nodeexists | undemanded\n"
      "  --frozen               accepted for compatibility; no effect (every\n"
      "                         closed graph is frozen into CSR form)\n"
      "  --threads=<n>          query-engine worker lanes (at most 256)\n"
      "  --kernel-threshold=<n> batch size above which batched queries use\n"
      "                         the word-parallel label-set kernel\n"
      "                         (0 disables the kernel; default 16)\n"
      "  --kernel-chunk-rows=<n>\n"
      "                         kernel scheduler merges consecutive DAG\n"
      "                         levels while their rows total <= n, cutting\n"
      "                         barriers/polls on deep condensations\n"
      "                         (<= 1 restores per-level; default 256)\n"
      "  --timeout-ms=<n>       wall-clock deadline over analysis + queries\n"
      "  --close-budget=<n>     node budget for the subtransitive close\n"
      "                         (subtransitive/poly analyses only)\n"
      "  --degrade=<m>          off | standard (default) | partial —\n"
      "                         hybrid degradation ladder (hybrid only;\n"
      "                         'off' conflicts with --timeout-ms)\n"
      "  --save-snapshot=<file> persist the frozen graph (plus name tables\n"
      "                         and the label-set kernel matrix) to an\n"
      "                         mmap-able snapshot\n"
      "  --load-snapshot=<file> serve --query=labels|all-labels straight\n"
      "                         from a snapshot: no parse, no close, no\n"
      "                         freeze (docs/SNAPSHOT.md)\n"
      "  --snapshot-cache[=<d>] content-addressed snapshot reuse keyed on\n"
      "                         source + configuration; default directory\n"
      "                         $STCFA_SNAPSHOT_DIR or ~/.cache/stcfa\n"
      "  --snapshot-cache-max-mb=<n>\n"
      "                         cache size cap, enforced after each fill by\n"
      "                         LRU-by-mtime eviction (0 = uncapped;\n"
      "                         default 512)\n"
      "  --serve                long-running daemon: newline-delimited JSON\n"
      "                         requests on stdin, one reply line each;\n"
      "                         programs arrive via 'load' requests\n"
      "                         (docs/SERVE.md)\n"
      "  --serve-max-cost=<n>   admission soft budget in graph node units:\n"
      "                         above it queries degrade to universal sets,\n"
      "                         above twice it requests are shed\n"
      "                         (default 4194304)\n"
      "  --serve-max-request-mb=<n>\n"
      "                         longest accepted request line (default 32)\n"
      "  --trace-json=<file>    write stage spans as a Chrome-tracing /\n"
      "                         Perfetto JSON array (docs/OBSERVABILITY.md)\n"
      "  --metrics-json=<file>  write the process metrics snapshot\n"
      "  --stats                print program/type/graph statistics\n"
      "  --print                pretty-print the parsed program\n"
      "  --dump-graph           print every subtransitive edge\n"
      "  --run                  interpret the program\n"
      "exit codes (3-6 only under --timeout-ms/--close-budget/--degrade):\n"
      "  0  success             1  input error        2  usage/flag error\n"
      "  3  deadline/cancelled  4  served by standard-cubic fallback\n"
      "  5  served by bounded partial answer\n"
      "  6  budget exhausted with no degradation permitted\n"
      "  7  lint findings at error severity (--lint only)\n",
      Argv0);
  return 2;
}

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

/// True when \p A is `<Prefix><value>`; the value lands in \p Value.
bool flagValue(const std::string &A, const char *Prefix, std::string &Value) {
  if (!startsWith(A, Prefix))
    return false;
  Value = A.substr(std::strlen(Prefix));
  return true;
}

/// Parses all of \p Text as a decimal number no larger than \p Max: no
/// sign, no spaces, no overflow.
bool parseUnsigned(const std::string &Text, uint64_t Max, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Text.empty() || Ec != std::errc() || Ptr != End || V > Max)
    return false;
  Out = V;
  return true;
}

/// The one checked parser behind every numeric flag value: on a
/// malformed or out-of-range \p Text it says
/// `error: --<Flag> expects a number[ <= Max], got '<Text>'`.
bool numberFlag(const char *Flag, const std::string &Text, uint64_t Max,
                uint64_t &Out) {
  if (parseUnsigned(Text, Max, Out))
    return true;
  std::string Bound =
      Max == UINT64_MAX ? "" : " <= " + std::to_string(Max);
  std::fprintf(stderr, "error: --%s expects a number%s, got '%s'\n", Flag,
               Bound.c_str(), Text.c_str());
  return false;
}

/// Step 1: reads argv into \p Opts.  Checks each value's own syntax
/// (numbers, non-empty paths) and returns an exit code, or `Continue`.
int parseFlags(int Argc, char **Argv, Options &Opts) {
  using O = Options;
  // `--frozen` is kept for existing scripts and has no effect.
  static const std::pair<const char *, bool O::*> Switches[] = {
      {"--lint", &O::Lint},     {"--dce", &O::Dce},
      {"--serve", &O::Serve},   {"--snapshot-cache", &O::SnapshotCache},
      {"--stats", &O::Stats},   {"--run", &O::Run},
      {"--print", &O::Print},   {"--dump-graph", &O::DumpGraph},
      {"--frozen", nullptr}};
  // `<prefix><text>`: the field, the marker recording that the flag was
  // given, and the error for an empty value where one is required.
  static const struct {
    const char *Prefix;
    std::string O::*Field;
    bool O::*Given;
    const char *IfEmpty;
  } Texts[] = {
      {"--corpus=", &O::Corpus, nullptr, nullptr},
      {"--analysis=", &O::Analysis, &O::AnalysisGiven, nullptr},
      {"--query=", &O::Query, &O::QueryGiven, nullptr},
      {"--lint-format=", &O::LintFormat, &O::LintFormatGiven, nullptr},
      {"--slice=", &O::Slice, nullptr,
       "--slice expects expr@<line>:<col>[,back|fwd]"},
      {"--export-deps=", &O::ExportDeps, nullptr, nullptr},
      {"--congruence=", &O::Congruence, &O::CongruenceGiven, nullptr},
      {"--policy=", &O::Policy, &O::PolicyGiven, nullptr},
      {"--save-snapshot=", &O::SaveSnapshot, nullptr,
       "--save-snapshot expects a file path"},
      {"--load-snapshot=", &O::LoadSnapshot, nullptr,
       "--load-snapshot expects a file path"},
      {"--snapshot-cache=", &O::SnapshotDir, &O::SnapshotCache,
       "--snapshot-cache= expects a directory; plain --snapshot-cache "
       "uses the default cache"},
      {"--gen-shape=", &O::GenShape, nullptr,
       "--gen-shape expects wide|deep|diamond|skewed:N[:seed]"},
      {"--degrade=", &O::Degrade, nullptr, nullptr},
      {"--trace-json=", &O::TraceJson, nullptr,
       "--trace-json expects a file path"},
      {"--metrics-json=", &O::MetricsJson, nullptr,
       "--metrics-json expects a file path"}};
  // `--<name>=<n>`: every number goes through the one checked parser,
  // bounded by what its consumer can hold.
  using SetFn = void (*)(Options &, uint64_t);
  static const struct {
    const char *Name;
    uint64_t Max;
    bool Positive;
    SetFn Set;
  } Numbers[] = {
      {"threads", MaxThreads, false,
       [](O &Op, uint64_t N) { Op.Threads = N ? unsigned(N) : 1; }},
      {"kernel-threshold", INT64_MAX, false,
       [](O &Op, uint64_t N) { Op.KernelThreshold = N; }},
      {"kernel-chunk-rows", UINT32_MAX, false,
       [](O &Op, uint64_t N) { Op.KernelChunkRows = uint32_t(N); }},
      {"timeout-ms", MaxTimeoutMs, false,
       [](O &Op, uint64_t N) { Op.TimeoutMs = int64_t(N); }},
      {"close-budget", UINT64_MAX, true,
       [](O &Op, uint64_t N) { Op.CloseBudget = N; }},
      {"snapshot-cache-max-mb", UINT64_MAX >> 20, false,
       [](O &Op, uint64_t N) { Op.SnapshotCacheMaxMb = N; }},
      {"serve-max-cost", UINT64_MAX, true,
       [](O &Op, uint64_t N) { Op.ServeMaxCost = N; }},
      {"serve-max-request-mb", UINT64_MAX >> 20, true,
       [](O &Op, uint64_t N) { Op.ServeMaxRequestMb = N; }}};

  for (int I = 1; I != Argc; ++I) {
    const std::string A = Argv[I];
    std::string V;
    auto flag = [&]() -> int {
      for (const auto &[Name, Field] : Switches)
        if (A == Name) {
          if (Field)
            Opts.*Field = true;
          return Continue;
        }
      for (const auto &T : Texts)
        if (flagValue(A, T.Prefix, V)) {
          if (T.IfEmpty && V.empty()) {
            std::fprintf(stderr, "error: %s\n", T.IfEmpty);
            return 2;
          }
          Opts.*T.Field = V;
          if (T.Given)
            Opts.*T.Given = true;
          return Continue;
        }
      for (const auto &Num : Numbers)
        if (flagValue(A, ("--" + std::string(Num.Name) + "=").c_str(), V)) {
          uint64_t N = 0;
          if (!numberFlag(Num.Name, V, Num.Max, N))
            return 2;
          if (Num.Positive && N == 0) {
            std::fprintf(stderr, "error: --%s must be positive\n", Num.Name);
            return 2;
          }
          Num.Set(Opts, N);
          return Continue;
        }
      if (flagValue(A, "--lint=", V)) {
        Opts.Lint = true;
        for (size_t Pos = 0; Pos <= V.size();) {
          size_t Comma = V.find(',', Pos);
          if (Comma == std::string::npos)
            Comma = V.size();
          if (Comma > Pos)
            Opts.LintPasses.push_back(V.substr(Pos, Comma - Pos));
          Pos = Comma + 1;
        }
        if (!Opts.LintPasses.empty())
          return Continue;
        std::fprintf(stderr, "error: --lint= expects a pass list; plain "
                             "--lint runs every pass\n");
        return 2;
      }
      if (A == "--help" || A == "-h" || startsWith(A, "--") ||
          !Opts.InputFile.empty())
        return usage(Argv[0]);
      Opts.InputFile = A;
      return Continue;
    };
    if (int Code = flag(); Code != Continue)
      return Code;
  }
  return Continue;
}

/// The daemon owns the whole pipeline per 'load' request; every flag
/// that names an input or picks a batch output mode conflicts.
const char *serveConflict(const Options &Opts) {
  if (!Opts.InputFile.empty() || !Opts.Corpus.empty())
    return "an input argument (programs arrive via 'load' requests)";
  if (Opts.QueryGiven)
    return "--query (queries arrive as 'query' requests)";
  if (Opts.Lint)
    return "--lint (lint arrives as 'lint' requests)";
  if (Opts.sliceMode())
    return "--slice/--dce/--export-deps (slices arrive as 'slice' "
           "requests)";
  if (Opts.Run)
    return "--run";
  if (Opts.Print)
    return "--print";
  if (Opts.DumpGraph)
    return "--dump-graph";
  if (!Opts.SaveSnapshot.empty())
    return "--save-snapshot (use --snapshot-cache for warm restarts)";
  if (!Opts.LoadSnapshot.empty())
    return "--load-snapshot (use --snapshot-cache for warm restarts)";
  if (Opts.AnalysisGiven)
    return "--analysis (the daemon always runs the hybrid ladder)";
  if (Opts.CongruenceGiven || Opts.PolicyGiven)
    return "--congruence/--policy (the daemon's snapshot keys pin "
           "the default configuration)";
  if (Opts.CloseBudget > 0)
    return "--close-budget (use --serve-max-cost for admission)";
  return nullptr;
}

bool graphAnalysis(const Options &Opts) {
  return Opts.Analysis == "subtransitive" || Opts.Analysis == "poly";
}

/// Validates the governor, daemon and lint flags together.
int validateGovernorAndLint(const Options &Opts) {
  if (!Opts.Degrade.empty() && Opts.Analysis != "hybrid" && !Opts.Serve) {
    std::fprintf(stderr,
                 "error: --degrade only applies to --analysis=hybrid or "
                 "--serve (got --analysis=%s)\n",
                 Opts.Analysis.c_str());
    return 2;
  }
  if (Opts.Serve)
    if (const char *Conflict = serveConflict(Opts)) {
      std::fprintf(stderr, "error: --serve conflicts with %s\n", Conflict);
      return 2;
    }
  if (Opts.Degrade == "off" && Opts.TimeoutMs >= 0) {
    std::fprintf(stderr,
                 "error: --degrade=off conflicts with --timeout-ms: a "
                 "deadline needs a degradation rung to fall to; drop one "
                 "of the flags\n");
    return 2;
  }
  if (Opts.CloseBudget > 0 && !graphAnalysis(Opts)) {
    std::fprintf(stderr,
                 "error: --close-budget applies to the subtransitive close "
                 "(--analysis=subtransitive|poly); --analysis=%s has no "
                 "close phase it could bound\n",
                 Opts.Analysis.c_str());
    return 2;
  }
  if (Opts.LintFormatGiven && !Opts.Lint) {
    std::fprintf(stderr,
                 "error: --lint-format has no effect without --lint\n");
    return 2;
  }
  if (!Opts.Lint)
    return Continue;
  if (Opts.QueryGiven) {
    std::fprintf(stderr, "error: --lint replaces the query path; drop "
                         "--query or --lint\n");
    return 2;
  }
  if (!graphAnalysis(Opts)) {
    std::fprintf(stderr,
                 "error: --lint consumes the frozen subtransitive graph "
                 "(--analysis=subtransitive|poly); --analysis=%s builds "
                 "none\n",
                 Opts.Analysis.c_str());
    return 2;
  }
  if (Opts.LintFormat != "text" && Opts.LintFormat != "json" &&
      Opts.LintFormat != "sarif") {
    std::fprintf(stderr,
                 "error: --lint-format expects text|json|sarif, got '%s'\n",
                 Opts.LintFormat.c_str());
    return 2;
  }
  for (const std::string &Id : Opts.LintPasses)
    if (!LintEngine::findPass(Id)) {
      std::string Known;
      for (const LintPassInfo &P : LintEngine::passes())
        Known += (Known.empty() ? "" : ", ") + std::string(P.Id);
      std::fprintf(stderr, "error: unknown lint pass '%s' (known: %s)\n",
                   Id.c_str(), Known.c_str());
      return 2;
    }
  return Continue;
}

/// Validates the slice-subsystem modes and parses `--slice`'s spec.
int validateSliceModes(Options &Opts) {
  if (!Opts.sliceMode())
    return Continue;
  // The three slice-subsystem modes each own stdout, so they are
  // mutually exclusive, and they replace the query path like --lint.
  int NumModes = (!Opts.Slice.empty() ? 1 : 0) + (Opts.Dce ? 1 : 0) +
                 (!Opts.ExportDeps.empty() ? 1 : 0);
  if (NumModes > 1) {
    std::fprintf(stderr, "error: --slice, --dce and --export-deps are "
                         "mutually exclusive; pick one per invocation\n");
    return 2;
  }
  const char *Conflict = Opts.Lint         ? "--lint"
                         : Opts.QueryGiven ? "--query"
                         : Opts.Run ? "--run (interpret the original and "
                                      "the residual in separate "
                                      "invocations)"
                         : Opts.Print     ? "--print"
                         : Opts.DumpGraph ? "--dump-graph"
                                          : nullptr;
  if (Conflict) {
    std::fprintf(stderr, "error: --slice/--dce/--export-deps conflicts "
                         "with %s\n",
                 Conflict);
    return 2;
  }
  if (!graphAnalysis(Opts)) {
    std::fprintf(stderr,
                 "error: --slice/--dce/--export-deps consume the frozen "
                 "subtransitive graph (--analysis=subtransitive|poly); "
                 "--analysis=%s builds none\n",
                 Opts.Analysis.c_str());
    return 2;
  }
  if (!Opts.ExportDeps.empty() && Opts.ExportDeps != "dot" &&
      Opts.ExportDeps != "json") {
    std::fprintf(stderr, "error: --export-deps expects dot|json, got "
                         "'%s'\n",
                 Opts.ExportDeps.c_str());
    return 2;
  }
  if (Opts.Slice.empty())
    return Continue;
  // `expr@<line>:<col>[,back|fwd]`
  std::string Spec = Opts.Slice;
  if (size_t Comma = Spec.find(','); Comma != std::string::npos) {
    Opts.SliceDir = Spec.substr(Comma + 1);
    Spec.resize(Comma);
  }
  uint64_t Line = 0, Col = 0;
  size_t Colon = Spec.find(':');
  bool SpecOk = startsWith(Spec, "expr@") && Colon != std::string::npos &&
                parseUnsigned(Spec.substr(5, Colon - 5), UINT32_MAX, Line) &&
                parseUnsigned(Spec.substr(Colon + 1), UINT32_MAX, Col);
  if (!SpecOk || (Opts.SliceDir != "back" && Opts.SliceDir != "fwd")) {
    std::fprintf(stderr,
                 "error: --slice expects expr@<line>:<col>[,back|fwd], "
                 "got '%s'\n",
                 Opts.Slice.c_str());
    return 2;
  }
  Opts.SliceLine = static_cast<uint32_t>(Line);
  Opts.SliceCol = static_cast<uint32_t>(Col);
  return Continue;
}

/// Validates the snapshot flags against each other and the modes.
int validateSnapshotFlags(const Options &Opts) {
  if (!Opts.LoadSnapshot.empty() || Opts.SnapshotCache) {
    // A served snapshot has no Module and no live graph, so everything
    // that rebuilds or walks one conflicts; a snapshot built under a
    // different close budget or degradation ladder would silently answer
    // for the wrong configuration, so those flags fail fast too.
    const char *Mode =
        !Opts.LoadSnapshot.empty() ? "--load-snapshot" : "--snapshot-cache";
    const char *Conflict = nullptr;
    if (Opts.CloseBudget > 0)
      Conflict = "--close-budget";
    else if (!Opts.Degrade.empty())
      Conflict = "--degrade";
    else if (Opts.Lint && Opts.LoadSnapshot.empty())
      Conflict = "--lint"; // lint-over-snapshot works for --load-snapshot
                           // only: it reparses the named input
    else if (Opts.sliceMode() && Opts.LoadSnapshot.empty())
      Conflict = "--slice/--dce/--export-deps"; // same reparse-the-input
                                                // rule as --lint
    else if (Opts.Run)
      Conflict = "--run";
    else if (Opts.Print)
      Conflict = "--print";
    else if (Opts.DumpGraph)
      Conflict = "--dump-graph";
    else if (Opts.AnalysisGiven && !graphAnalysis(Opts))
      Conflict = "--analysis";
    if (Conflict) {
      std::fprintf(stderr,
                   "error: %s conflicts with %s: the flag needs a rebuilt "
                   "(or live) pipeline, but snapshots are served as-is; "
                   "drop the flag or rebuild without the snapshot\n",
                   Mode, Conflict);
      return 2;
    }
    if (!Opts.Lint && !Opts.sliceMode() && Opts.Query != "labels" &&
        Opts.Query != "all-labels") {
      std::fprintf(stderr,
                   "error: %s serves label-set queries only "
                   "(--query=labels|all-labels), got --query=%s\n",
                   Mode, Opts.Query.c_str());
      return 2;
    }
  }
  if (!Opts.LoadSnapshot.empty() && (Opts.Lint || Opts.sliceMode()) &&
      !Opts.namedInput()) {
    std::fprintf(stderr,
                 "error: --load-snapshot %s needs the source named too "
                 "(a file or --corpus): the pass walks the AST, "
                 "which the snapshot does not persist\n",
                 Opts.Lint ? "--lint" : "--slice/--dce/--export-deps");
    return 2;
  }
  if (!Opts.LoadSnapshot.empty()) {
    if (!Opts.SaveSnapshot.empty() || Opts.SnapshotCache) {
      std::fprintf(stderr,
                   "error: --load-snapshot conflicts with %s: loading "
                   "skips the pipeline that would produce the snapshot\n",
                   !Opts.SaveSnapshot.empty() ? "--save-snapshot"
                                              : "--snapshot-cache");
      return 2;
    }
    if (Opts.CongruenceGiven || Opts.PolicyGiven) {
      std::fprintf(stderr,
                   "error: --load-snapshot ignores %s: the snapshot was "
                   "built under its own configuration; rebuild with "
                   "--save-snapshot to change it\n",
                   Opts.CongruenceGiven ? "--congruence" : "--policy");
      return 2;
    }
  }
  if (!Opts.SaveSnapshot.empty() && Opts.SnapshotCache) {
    std::fprintf(stderr, "error: --save-snapshot conflicts with "
                         "--snapshot-cache: pick one destination\n");
    return 2;
  }
  if (!Opts.SaveSnapshot.empty() && !graphAnalysis(Opts)) {
    std::fprintf(stderr,
                 "error: --save-snapshot persists the frozen subtransitive "
                 "graph (--analysis=subtransitive|poly); --analysis=%s "
                 "builds none\n",
                 Opts.Analysis.c_str());
    return 2;
  }
  return Continue;
}

/// The `--corpus` families that take a size or seed, with its bound.
constexpr std::pair<const char *, uint64_t> SizedCorpora[] = {
    {"lexgen:", INT32_MAX},
    {"cubic:", INT32_MAX},
    {"joinpoint:", INT32_MAX},
    {"random:", UINT64_MAX}};

/// Resolves every enumerated value into \p PO (and `--query=klimited:K`
/// into `Opts.KLimit`); an unknown value prints the usage text.
int resolvePipelineOptions(Options &Opts, PipelineOptions &PO,
                           const char *Argv0) {
  if (!parseAnalysisKind(Opts.Analysis, PO.Analysis) ||
      !parseCongruence(Opts.Congruence, PO.Graph.Congruence) ||
      !parsePolicy(Opts.Policy, PO.Graph.Policy))
    return usage(Argv0);
  static const char *const Queries[] = {"labels",      "all-labels",
                                        "effects",     "called-once",
                                        "callgraph",   "dead-code"};
  bool KnownQuery = false;
  for (const char *Q : Queries)
    KnownQuery |= Opts.Query == Q;
  if (std::string K; flagValue(Opts.Query, "klimited:", K)) {
    uint64_t N = 0;
    if (!parseUnsigned(K, UINT32_MAX, N)) {
      std::fprintf(stderr,
                   "error: --query expects klimited:<K> with K a number "
                   "<= %u, got '%s'\n",
                   UINT32_MAX, Opts.Query.c_str());
      return 2;
    }
    Opts.KLimit = static_cast<uint32_t>(N);
    KnownQuery = true;
  }
  if (!KnownQuery)
    return usage(Argv0);
  PO.Graph.MaxNodes = Opts.CloseBudget;
  PO.Threads = Opts.Threads;
  PO.KernelThreshold = Opts.KernelThreshold;
  PO.KernelChunkRows = Opts.KernelChunkRows;
  for (auto [Family, Max] : SizedCorpora)
    if (std::string Arg; flagValue(Opts.Corpus, Family, Arg))
      if (uint64_t N = 0; !numberFlag("corpus", Arg, Max, N))
        return 2;
  return Continue;
}

/// Step 2: every flag value and combination is checked here, before any
/// input is read, so a usage error leaves no output and no file behind.
int validate(Options &Opts, PipelineOptions &PO, const char *Argv0) {
  // Degrade values are checked first: a misspelt rung must not be
  // reported as a scope conflict.
  if (!Opts.Degrade.empty() && !parseDegradeMode(Opts.Degrade, PO.Degrade)) {
    std::fprintf(stderr,
                 "error: --degrade expects off|standard|partial, got '%s'\n",
                 Opts.Degrade.c_str());
    return 2;
  }
  if (int Code = validateGovernorAndLint(Opts); Code != Continue)
    return Code;
  if (int Code = validateSliceModes(Opts); Code != Continue)
    return Code;
  if (int Code = validateSnapshotFlags(Opts); Code != Continue)
    return Code;
  return resolvePipelineOptions(Opts, PO, Argv0);
}

/// Reads the program text: a generated corpus, the named file, or stdin.
std::string loadInput(const Options &Opts, bool &Ok) {
  Ok = true;
  if (const std::string &C = Opts.Corpus; !C.empty()) {
    std::string Arg;
    uint64_t N = 0; // validation already bounded the number
    auto sized = [&](const char *Family) {
      return flagValue(C, Family, Arg) && parseUnsigned(Arg, UINT64_MAX, N);
    };
    if (C == "life")
      return lifeProgram();
    if (C == "lexgen")
      return makeLexgenLike();
    if (sized("lexgen:"))
      return makeLexgenLike(static_cast<int>(N));
    if (sized("cubic:"))
      return makeCubicFamily(static_cast<int>(N));
    if (sized("joinpoint:"))
      return makeJoinPointFamily(static_cast<int>(N));
    if (sized("random:")) {
      RandomProgramOptions R;
      R.Seed = N;
      R.UseRefs = true;
      R.UseEffects = true;
      return makeRandomProgram(R);
    }
    if (ShapeSpec Spec; parseShapeSpec(C, Spec))
      return makeShapeProgram(Spec);
    std::fprintf(stderr, "error: unknown corpus '%s'\n", C.c_str());
    Ok = false;
    return "";
  }
  if (Opts.InputFile.empty() || Opts.InputFile == "-") {
    std::ostringstream Buf;
    Buf << std::cin.rdbuf();
    return Buf.str();
  }
  std::ifstream In(Opts.InputFile);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Opts.InputFile.c_str());
    Ok = false;
    return "";
  }
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

Deadline deadlineOf(const Options &Opts) {
  return Opts.TimeoutMs >= 0 ? Deadline::afterMillis(Opts.TimeoutMs)
                             : Deadline::infinite();
}

/// The writer's label-name table for a live module: `describeLabel` of
/// every label, resolved once.
std::vector<std::string> labelNames(const Module &M) {
  std::vector<std::string> Names;
  Names.reserve(M.numLabels());
  for (uint32_t L = 0; L != M.numLabels(); ++L)
    Names.push_back(describeLabel(M, LabelId(L)));
  return Names;
}

/// The one `--query=all-labels` renderer, streaming to stdout under a
/// `driver.render` span: a line per occurrence whose set (\p SetOf
/// returns its `SetWords`, empty when it was not answered) is non-empty.
template <class SetOfFn, class ExprNameFn>
void printAllLabels(std::vector<std::string> LabelNames, uint32_t NumExprs,
                    SetOfFn &&SetOf, ExprNameFn &&ExprName) {
  Span RenderSpan("driver.render");
  LabelSetWriter W(stdout, std::move(LabelNames));
  W.allLabels(NumExprs, SetOf, ExprName);
  W.flush();
  RenderSpan.arg("lines", W.lines());
  RenderSpan.arg("bytes", W.bytes());
  RenderSpan.arg("sets_formatted", W.setsFormatted());
  RenderSpan.arg("sets_reused", W.setsReused());
}

/// `--query=labels|all-labels` over \p P, live or snapshot-backed alike:
/// the root's set, or one line per occurrence.  With an engine the
/// all-labels sweep is one batched call, so it rides the label-set kernel
/// above the dispatch threshold and renders the kernel's rows in place;
/// under `--timeout-ms` the batch is governed (the engine polls \p D
/// between shards and returns whatever completed).  Returns 3 when a
/// governed batch stopped early, else 0.
template <class ExprNameFn>
int printLabelSets(const Options &Opts, Pipeline &P,
                   std::vector<std::string> LabelNames, ExprId Root,
                   uint32_t NumExprs, const Deadline &D,
                   ExprNameFn &&ExprName) {
  if (Opts.Query == "labels") {
    LabelSetWriter(stdout, std::move(LabelNames))
        .rootLine(P.labelsOf(Root).words());
    return 0;
  }
  QueryEngine *Engine = P.engine();
  if (!Engine) { // graph-free analyses answer one occurrence at a time
    DenseBitset Set;
    printAllLabels(
        std::move(LabelNames), NumExprs,
        [&](uint32_t I) {
          Set = P.labelsOf(ExprId(I));
          return Set.words();
        },
        ExprName);
    return 0;
  }
  std::vector<ExprId> Es;
  Es.reserve(NumExprs);
  for (uint32_t I = 0; I != NumExprs; ++I)
    Es.push_back(ExprId(I));
  BatchOutcome Outcome;
  LabelRows Rows;
  if (Opts.TimeoutMs >= 0) {
    BatchControl BC;
    BC.D = D;
    Rows = Engine->labelRowsOfBatch(Es, BC, Outcome);
  } else {
    Rows = Engine->labelRowsOfBatch(Es);
  }
  printAllLabels(
      std::move(LabelNames), NumExprs, [&](uint32_t I) { return Rows[I]; },
      ExprName);
  if (Opts.TimeoutMs < 0 || Outcome.S.isOk())
    return 0;
  std::fprintf(stderr, "note: batch stopped early: %s (%llu of %u answered)\n",
               Outcome.S.toString().c_str(),
               (unsigned long long)Outcome.Completed, NumExprs);
  return 3;
}

/// The one place a pipeline's outcome becomes the tool's exit code.  A
/// failure is explained on stderr and exits 1 (the source does not parse
/// or does not match the snapshot), 6 (a budget ran out and no
/// degradation was permitted) or 3 (deadline or cancellation).  A served
/// pipeline exits 0, or under a governor flag 4/5 when the hybrid ladder
/// fell to the standard or partial rung.
int pipelineExitCode(const Options &Opts, const Pipeline &P) {
  const Status &S = P.status();
  if (S.isOk()) {
    const HybridCFA *H = P.hybrid();
    if (!H || !Opts.governed())
      return 0;
    return H->engine() == HybridCFA::Engine::Standard        ? 4
           : H->engine() == HybridCFA::Engine::PartialAnswer ? 5
                                                             : 0;
  }
  if (S == StatusCode::InvalidArgument) {
    std::fprintf(stderr, "%s\n", S.message().c_str()); // parse diagnostics
    return 1;
  }
  if (S == StatusCode::FailedPrecondition) {
    std::fprintf(stderr, "error: snapshot '%s' %s\n",
                 Opts.LoadSnapshot.c_str(), S.message().c_str());
    return 1;
  }
  const char *What = Opts.Analysis == "standard" ? "standard analysis aborted"
                     : Opts.Analysis == "hybrid"
                         ? "hybrid analysis served no answer"
                         : "close aborted";
  std::fprintf(stderr, "error: %s: %s\n", What, S.toString().c_str());
  return S == StatusCode::ResourceExhausted ? 6 : 3;
}

/// `--lint`: runs the checker passes over \p F and renders the findings.
/// Shared by the live pipeline and the `--load-snapshot` path, which
/// differ only in where \p F comes from.
int runLintMode(const Options &Opts, const Module &M, const FrozenGraph &F,
                Deadline D, int ExitCode) {
  LintEngine Lint(M, F);
  LintOptions LO;
  LO.Passes = Opts.LintPasses;
  LO.D = D;
  LO.Threads = Opts.Threads;
  Timer LintTimer;
  LintResult LR = Lint.run(LO);
  std::string InputName =
      !Opts.InputFile.empty() && Opts.InputFile != "-" ? Opts.InputFile
      : !Opts.Corpus.empty() ? "corpus:" + Opts.Corpus
                             : "stdin";
  std::string Rendered = Opts.LintFormat == "json"
                             ? renderLintJson(LR, InputName)
                         : Opts.LintFormat == "sarif"
                             ? renderLintSarif(LR, InputName)
                             : renderLintText(LR, InputName);
  std::fputs(Rendered.c_str(), stdout);
  if (Opts.Stats)
    std::printf("lint: %u pass(es) in %.3f ms\n",
                (unsigned)LR.Reports.size(), LintTimer.millis());
  // Error-severity findings outrank the governed partial-result code.
  if (LR.NumErrors > 0)
    return 7;
  if (LR.anyPartial() && Opts.governed())
    return 3;
  return ExitCode;
}

/// Resolves `--slice=expr@L:C` to the innermost occurrence at exactly
/// that location: preorder visits parents before children, so the last
/// exact match wins.
bool resolveExprAt(const Module &M, uint32_t Line, uint32_t Col,
                   ExprId &Out) {
  bool Found = false;
  forEachExprPreorder(M, M.root(), [&](ExprId Id, const Expr *E) {
    if (E->loc().isValid() && E->loc().Line == Line && E->loc().Col == Col) {
      Out = Id;
      Found = true;
    }
  });
  return Found;
}

/// The `--slice` / `--dce` / `--export-deps` batch modes (mutually
/// exclusive, validated up front).  Shared by the live pipeline and the
/// `--load-snapshot` path, which differ only in where \p F comes from.
int runSliceModes(const Options &Opts, const Module &M, const FrozenGraph &F,
                  Deadline D, int ExitCode) {
  DependenceGraph::Options DO;
  DO.D = D;
  Status BuildStatus = Status::ok();
  std::unique_ptr<DependenceGraph> DG =
      DependenceGraph::build(M, F, BuildStatus, DO);
  if (!DG) {
    std::fprintf(stderr, "error: dependence-graph build failed: %s\n",
                 BuildStatus.toString().c_str());
    return Opts.governed() &&
                   (BuildStatus == StatusCode::DeadlineExceeded ||
                    BuildStatus == StatusCode::Cancelled)
               ? 3
               : 1;
  }
  if (Opts.Stats)
    std::printf("deps: %u entities / %llu edges in %.3f ms\n",
                DG->numDepNodes(), (unsigned long long)DG->numEdges(),
                DG->buildMillis());

  if (!Opts.ExportDeps.empty()) {
    std::fputs((Opts.ExportDeps == "dot" ? exportDepsDot(*DG)
                                         : exportDepsJson(*DG))
                   .c_str(),
               stdout);
    return ExitCode;
  }

  if (Opts.Dce) {
    DceOptions DCO;
    DCO.D = D;
    Timer DceTimer;
    DceResult DR = runDce(M, F, *DG, DCO);
    if (!DR.S.isOk()) {
      // Unlike slicing, a partial liveness answer would *remove live
      // code*, so DCE refuses instead of emitting (docs/SLICE.md).
      std::fprintf(stderr, "error: dce emitted nothing: %s\n",
                   DR.S.toString().c_str());
      return Opts.governed() ? 3 : 1;
    }
    std::fputs(DR.Residual.c_str(), stdout);
    if (Opts.Stats)
      std::printf("dce: removed %u of %u binding(s), %u of %u reachable "
                  "occurrence(s) live, in %.3f ms\n",
                  DR.Plan.RemovedBindings,
                  DR.Plan.RemovedBindings + DR.Plan.KeptBindings,
                  DR.Plan.LiveExprs, DR.Plan.ReachableExprs,
                  DceTimer.millis());
    return ExitCode;
  }

  // `--slice`: resolve the target, run the traversal, and print each
  // member as its full witness chain (long chains elide the middle).
  ExprId Target = M.root();
  if (!resolveExprAt(M, Opts.SliceLine, Opts.SliceCol, Target)) {
    std::fprintf(stderr, "error: no expression at %u:%u\n", Opts.SliceLine,
                 Opts.SliceCol);
    return 1;
  }
  SliceOptions SO;
  SO.Dir = Opts.SliceDir == "fwd" ? SliceDirection::Forward
                                  : SliceDirection::Backward;
  SO.D = D;
  Slicer S(*DG);
  Timer SliceTimer;
  SliceResult SR = S.sliceFrom(Target, SO);
  if (!SR.S.isOk() && !SR.Partial) {
    std::fprintf(stderr, "error: slice failed: %s\n",
                 SR.S.toString().c_str());
    return 1;
  }
  std::printf("slice %s from %s: %u occurrence(s)%s\n",
              sliceDirectionName(SR.Dir), describeExpr(M, Target).c_str(),
              (unsigned)SR.Exprs.size(), SR.Partial ? " (partial)" : "");
  for (ExprId Member : SR.Exprs) {
    std::vector<WitnessStep> Steps;
    Status WS = S.witnessFor(SR, Member, Steps);
    if (!WS.isOk()) {
      std::fprintf(stderr, "error: witness for %s invalid: %s\n",
                   describeExpr(M, Member).c_str(), WS.toString().c_str());
      return 1;
    }
    std::string Line;
    if (Steps.size() <= 12) {
      Line = S.renderWitness(Steps);
    } else {
      std::vector<WitnessStep> Head(Steps.begin(), Steps.begin() + 3);
      std::vector<WitnessStep> Tail(Steps.end() - 3, Steps.end());
      Line = S.renderWitness(Head) + " ..(" +
             std::to_string(Steps.size() - 6) + " hops).. " +
             S.renderWitness(Tail);
    }
    std::printf("  %s\n", Line.c_str());
  }
  if (Opts.Stats)
    std::printf("slice: %.3f ms\n", SliceTimer.millis());
  if (SR.Partial) {
    std::fprintf(stderr,
                 "note: slice stopped early: %s (members are an "
                 "under-approximation)\n",
                 SR.S.toString().c_str());
    if (Opts.governed())
      return 3;
  }
  return ExitCode;
}

/// The `--query` modes over a live pipeline, then `--run` interprets the
/// program.  Returns \p ExitCode, 3 when a governed all-labels batch
/// stopped early, or 1 when a graph-consuming query met a graph-free
/// analysis.
int runQueryMode(const Options &Opts, Pipeline &P, const Deadline &D,
                 int ExitCode) {
  const Module &M = *P.module();
  auto LabelName = [&](uint32_t L) { return describeLabel(M, LabelId(L)); };
  auto ExprName = [&](uint32_t I) { return describeExpr(M, ExprId(I)); };
  // The graph-consuming queries read the frozen graph, which the
  // graph-free analyses (standard, unify, a degraded hybrid) never build.
  const FrozenGraph *F = P.frozen();
  auto needsGraph = [&](const char *Query) {
    if (!F)
      std::fprintf(stderr, "error: %s needs a graph analysis\n", Query);
    return !F;
  };
  Timer QueryTimer;
  if (Opts.Query == "labels" || Opts.Query == "all-labels") {
    if (int Code = printLabelSets(Opts, P, labelNames(M), M.root(),
                                  M.numExprs(), D, ExprName))
      ExitCode = Code;
  } else if (Opts.Query == "effects") {
    if (needsGraph("effects"))
      return 1;
    EffectsAnalysis Eff(M, *F);
    Eff.run();
    std::printf("%u side-effecting occurrences\n", Eff.numEffectful());
    for (uint32_t I = 0; I != M.numExprs(); ++I)
      if (Eff.isEffectful(ExprId(I)))
        std::printf("  %s\n", ExprName(I).c_str());
  } else if (Opts.Query == "called-once") {
    if (needsGraph("called-once"))
      return 1;
    CalledOnceAnalysis CO(M, *F);
    CO.run();
    for (LabelId L : CO.calledOnce())
      std::printf("called once: %s at %s\n", describeLabel(M, L).c_str(),
                  describeExpr(M, CO.uniqueCallSite(L)).c_str());
  } else if (Opts.Query == "callgraph") {
    if (needsGraph("callgraph"))
      return 1;
    CallGraph CG(M, *P.engine());
    CG.run();
    for (uint32_t Caller = 0; Caller != CG.numCallers(); ++Caller) {
      if (CG.calleesOf(Caller).empty())
        continue;
      std::string Name =
          Caller == CG.rootIndex() ? "<top-level>" : LabelName(Caller);
      std::printf("%s calls:", Name.c_str());
      CG.calleesOf(Caller).forEach([&](uint32_t L) {
        std::printf(" %s", LabelName(L).c_str());
      });
      std::printf("\n");
    }
    for (LabelId Dead : CG.deadFunctions())
      std::printf("dead: %s\n", describeLabel(M, Dead).c_str());
  } else if (Opts.Query == "dead-code") {
    DeadCodeAwareCFA Dc(M);
    Dc.run();
    uint32_t DeadExprs = 0;
    for (uint32_t I = 0; I != M.numExprs(); ++I)
      DeadExprs += !Dc.isLive(ExprId(I));
    std::printf("%u of %u occurrences are dead code\n", DeadExprs,
                M.numExprs());
    for (LabelId Dead : Dc.deadFunctions())
      std::printf("never called: %s\n", describeLabel(M, Dead).c_str());
    // Cross-check against the frozen engine when available: a function the
    // (over-approximating) subtransitive flow never calls must also be dead
    // under the liveness-gated analysis.
    if (QueryEngine *E = P.engine()) {
      CallGraph CG(M, *E);
      CG.run();
      uint32_t Agree = 0, Mismatch = 0;
      for (LabelId L : CG.deadFunctions()) {
        bool Dead = false;
        for (LabelId DL : Dc.deadFunctions())
          Dead |= DL == L;
        (Dead ? Agree : Mismatch) += 1;
      }
      if (Mismatch)
        std::printf("engine cross-check: %u never-called function(s) NOT "
                    "dead-code-aware dead (unexpected)\n",
                    Mismatch);
      else
        std::printf("engine cross-check: %u never-called function(s) "
                    "confirmed dead\n",
                    Agree);
    }
  } else { // klimited:K (validation admits nothing else)
    if (needsGraph("klimited"))
      return 1;
    KLimitedCFA KL(M, *F, Opts.KLimit);
    KL.run();
    for (uint32_t I = 0; I != M.numExprs(); ++I) {
      if (!isa<AppExpr>(M.expr(ExprId(I))))
        continue;
      const LimitedSet &S = KL.ofCallSite(ExprId(I));
      std::string Callees;
      if (S.isMany()) {
        Callees = "many";
      } else {
        for (uint32_t L : S.ids()) {
          if (!Callees.empty())
            Callees += ", ";
          Callees += LabelName(L);
        }
        if (Callees.empty())
          Callees = "none";
      }
      std::printf("%-18s calls: %s\n", ExprName(I).c_str(), Callees.c_str());
    }
  }
  if (Opts.Stats)
    std::printf("queries: %.3f ms\n", QueryTimer.millis());
  if (!Opts.Run)
    return ExitCode;
  InterpreterResult Run = interpret(M, 50000000);
  for (const std::string &Line : Run.Output)
    std::printf("output: %s\n", Line.c_str());
  if (Run.Completed)
    std::printf("result: %s (in %llu steps)\n", Run.FinalValue.c_str(),
                (unsigned long long)Run.Steps);
  else
    std::printf("aborted: %s\n", Run.Abort.c_str());
  return ExitCode;
}

/// `--print` and the program/type lines of `--stats`, written as soon as
/// the module exists (before the analysis outcome is known).
void printModule(const Options &Opts, const Pipeline &P) {
  const Module &M = *P.module();
  if (!P.typed())
    std::fprintf(stderr, "note: type inference failed (%s); "
                         "continuing untyped — termination is not "
                         "guaranteed by the paper, widening applies\n",
                 P.inferFailure().c_str());
  if (Opts.Print)
    std::printf("%s", printProgram(M).c_str());
  if (!Opts.Stats)
    return;
  std::printf("program: %u exprs, %u binders, %u abstractions, %u "
              "constructors\n",
              M.numExprs(), M.numVars(), M.numLabels(), M.numCons());
  if (P.typed()) {
    TypeMetrics TM = computeTypeMetrics(M);
    std::printf("types: max size %u, avg size %.2f (k_avg), max order "
                "%u, max arity %u\n",
                TM.MaxTypeSize, TM.AvgTypeSize, TM.MaxOrder, TM.MaxArity);
  }
  if (const HybridCFA *H = P.hybrid()) {
    std::printf("hybrid engine: %s\n", engineName(H->engine()));
    std::printf("degradation report: %s\n", H->report().toJson().c_str());
  }
}

/// The analysis/graph/freeze lines of `--stats`.
void printAnalysisStats(const Options &Opts, Pipeline &P) {
  std::printf("analysis: %s in %.3f ms\n", Opts.Analysis.c_str(),
              P.analysisMillis());
  if (const SubtransitiveGraph *G = P.graph()) {
    const GraphStats &S = G->stats();
    std::printf("graph: build %llu nodes / %llu edges, close +%llu nodes "
                "/ +%llu edges, %llu rule firings, %llu widenings\n",
                (unsigned long long)S.BuildNodes,
                (unsigned long long)S.BuildEdges,
                (unsigned long long)S.CloseNodes,
                (unsigned long long)S.CloseEdges,
                (unsigned long long)S.CloseRuleFirings,
                (unsigned long long)S.Widenings);
  }
  if (const FrozenGraph *F = P.frozen())
    std::printf("frozen: %u nodes / %llu edges compacted in %.3f ms, "
                "%u query lane(s)\n",
                F->numNodes(), (unsigned long long)F->numEdges(),
                F->freezeMillis(), P.engine()->threads());
  if (const StandardCFA *Std = P.standard())
    std::printf("standard: %llu propagations, %llu insertions, %llu "
                "edges\n",
                (unsigned long long)Std->stats().Propagations,
                (unsigned long long)Std->stats().SetInsertions,
                (unsigned long long)Std->stats().Edges);
  if (const UnificationCFA *Uni = P.unify())
    std::printf("unify: %llu unions, %u classes\n",
                (unsigned long long)Uni->unions(), Uni->numClasses());
}

/// `--save-snapshot` / the `--snapshot-cache` miss fill: persists the
/// fresh frozen graph and its complete kernel matrix for later warm
/// loads.  Returns 0, or 1 after saying why.
int saveSnapshot(const Options &Opts, const PipelineOptions &PO,
                    const Pipeline &P, const std::string &Source) {
  const FrozenGraph *F = P.frozen();
  if (!F || !F->status().isOk()) {
    std::fprintf(stderr, "error: cannot persist a snapshot: no frozen "
                         "graph (close incomplete or analysis "
                         "graph-free)\n");
    return 1;
  }
  const uint64_t Key = snapshotCacheKey(Source, snapshotConfig(PO));
  const std::string CacheDir = snapshotCacheDir(Opts.SnapshotDir);
  const std::string Dest = Opts.SnapshotCache
                               ? snapshotCachePath(CacheDir, Key)
                               : Opts.SaveSnapshot;
  size_t Evicted = 0;
  Status WS =
      Opts.SnapshotCache
          ? fillSnapshotCache(CacheDir, Key, *F, *P.module(), Opts.Threads,
                              Opts.SnapshotCacheMaxMb << 20, &Evicted)
          : writeSnapshotWithKernel(Dest, *F, *P.module(), Key, Opts.Threads);
  if (!WS.isOk()) {
    std::fprintf(stderr, "error: %s\n", WS.toString().c_str());
    return 1;
  }
  if (Evicted != 0 && Opts.Stats)
    std::printf("snapshot cache: evicted %zu entr%s (cap %llu MiB)\n",
                Evicted, Evicted == 1 ? "y" : "ies",
                (unsigned long long)Opts.SnapshotCacheMaxMb);
  if (Opts.Stats)
    std::printf("snapshot: wrote %s\n", Dest.c_str());
  return 0;
}

/// `--query=labels|all-labels` over a parse-free snapshot pipeline:
/// output byte-identical to the in-memory path, names from the mapping.
int runSnapshotQuery(const Options &Opts, Pipeline &P, const Deadline &D) {
  const LoadedSnapshot &Snap = *P.snapshot();
  const FrozenGraph &F = *P.frozen();
  QueryEngine &Engine = *P.engine();
  if (Opts.Stats)
    std::printf("snapshot: %u nodes / %llu edges served zero-copy, %u "
                "query lane(s), kernel rows %s\n",
                F.numNodes(), (unsigned long long)F.numEdges(),
                Engine.threads(), Engine.kernel() ? "adopted" : "absent");

  std::vector<std::string> LabelNames;
  LabelNames.reserve(F.numLabels());
  for (uint32_t L = 0; L != F.numLabels(); ++L)
    LabelNames.emplace_back(Snap.labelName(L));
  Timer QueryTimer;
  int ExitCode = printLabelSets(
      Opts, P, std::move(LabelNames), Snap.rootExpr(), F.numExprs(), D,
      [&](uint32_t I) { return Snap.exprName(I); });
  if (Opts.Stats)
    std::printf("queries: %.3f ms\n", QueryTimer.millis());
  return ExitCode;
}

/// `--serve`: hands stdin/stdout to the daemon, which builds its own
/// pipeline per 'load' request.
int runServe(const Options &Opts, const PipelineOptions &PO) {
  serve::ServeOptions SO;
  SO.Threads = Opts.Threads;
  SO.KernelThreshold = static_cast<int64_t>(Opts.KernelThreshold);
  SO.DefaultDeadlineMs = Opts.TimeoutMs;
  SO.MaxInflightCost = Opts.ServeMaxCost;
  SO.MaxRequestBytes = Opts.ServeMaxRequestMb << 20;
  SO.SnapshotCache = Opts.SnapshotCache;
  SO.SnapshotDir = Opts.SnapshotDir;
  SO.SnapshotCacheMaxBytes = Opts.SnapshotCacheMaxMb << 20;
  SO.Degrade = PO.Degrade;
  SO.Stats = Opts.Stats;
  serve::Server Daemon(0, 1, SO);
  return Daemon.run();
}

/// `--load-snapshot`: the whole front half of the pipeline — read,
/// parse, infer, build, close, freeze — is replaced by one mmap.
int runFromSnapshot(const Options &Opts, PipelineOptions PO) {
  Status LoadStatus = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap =
      LoadedSnapshot::load(Opts.LoadSnapshot, LoadStatus);
  if (!Snap) {
    std::fprintf(stderr, "error: %s\n", LoadStatus.toString().c_str());
    return 1;
  }
  // When an input was named alongside the snapshot, verify the header's
  // content hash against it — a stale snapshot must never silently
  // answer for edited source.  (Stdin is not drained for this.)
  std::string VerifiedSource;
  if (Opts.namedInput()) {
    bool Ok = true;
    VerifiedSource = loadInput(Opts, Ok);
    if (!Ok)
      return 1;
    uint64_t Key = snapshotCacheKey(VerifiedSource, snapshotConfig(PO));
    if (Snap->contentHash() != 0 && Snap->contentHash() != Key) {
      std::fprintf(stderr,
                   "error: snapshot '%s' was built from different source "
                   "or configuration than the given input; rebuild it "
                   "with --save-snapshot\n",
                   Opts.LoadSnapshot.c_str());
      return 1;
    }
  }
  PO.D = deadlineOf(Opts);
  if (!Opts.Lint && !Opts.sliceMode()) {
    Pipeline P(std::move(Snap), PO);
    return runSnapshotQuery(Opts, P, PO.D);
  }
  // `--lint` and the slice modes over the mapping: flag validation
  // guaranteed an input was named, so VerifiedSource holds the
  // (hash-checked) program text the AST is reparsed from.
  Pipeline P(std::move(Snap), PO, VerifiedSource);
  if (!P.status().isOk())
    return pipelineExitCode(Opts, P);
  return Opts.Lint ? runLintMode(Opts, *P.module(), *P.frozen(), PO.D, 0)
                   : runSliceModes(Opts, *P.module(), *P.frozen(), PO.D, 0);
}

/// The live pipeline over the input, preceded by the `--snapshot-cache`
/// lookup: a hit serves straight from the mapped file (no parse); a miss
/// runs the pipeline and fills the cache after the freeze.
int runLive(const Options &Opts, PipelineOptions PO) {
  bool Ok = true;
  std::string Source = loadInput(Opts, Ok);
  if (!Ok)
    return 1;
  // One absolute deadline covers the whole pipeline (analysis, freeze,
  // queries): later stages see only whatever wall-clock remains.
  PO.D = deadlineOf(Opts);
  if (Opts.SnapshotCache) {
    const std::string CacheDir = snapshotCacheDir(Opts.SnapshotDir);
    const uint64_t Key = snapshotCacheKey(Source, snapshotConfig(PO));
    const std::string CachePath = snapshotCachePath(CacheDir, Key);
    if (std::unique_ptr<LoadedSnapshot> Snap =
            lookupSnapshotCache(CacheDir, Key)) {
      if (Opts.Stats)
        std::printf("snapshot cache: hit %s\n", CachePath.c_str());
      Pipeline P(std::move(Snap), PO);
      return runSnapshotQuery(Opts, P, PO.D);
    }
    if (Opts.Stats)
      std::printf("snapshot cache: miss (%s)\n", CachePath.c_str());
  }

  Pipeline P(Source, PO);
  if (P.module())
    printModule(Opts, P);
  int ExitCode = pipelineExitCode(Opts, P);
  if (!P.status().isOk())
    return ExitCode;
  if (!Opts.SaveSnapshot.empty() || Opts.SnapshotCache)
    if (int Code = saveSnapshot(Opts, PO, P, Source))
      return Code;
  if (Opts.Stats)
    printAnalysisStats(Opts, P);

  const Module &M = *P.module();
  if (Opts.DumpGraph) {
    const SubtransitiveGraph *G = P.graph();
    if (!G) {
      std::fprintf(stderr, "error: --dump-graph requires a graph analysis\n");
      return 1;
    }
    for (uint32_t N = 0; N != G->numNodes(); ++N)
      for (NodeId S : G->succs(NodeId(N)))
        std::printf("%s -> %s\n", G->describe(NodeId(N)).c_str(),
                    G->describe(S).c_str());
  }

  // `--lint` and `--slice` / `--dce` / `--export-deps` consume the frozen
  // graph and replace the query path entirely.  Flag validation limits
  // them to the subtransitive/poly analyses, which always freeze.
  if (Opts.Lint)
    return runLintMode(Opts, M, *P.frozen(), PO.D, ExitCode);
  if (Opts.sliceMode())
    return runSliceModes(Opts, M, *P.frozen(), PO.D, ExitCode);
  return runQueryMode(Opts, P, PO.D, ExitCode);
}

/// The whole tool; `main` adds the output check.
int runTool(int Argc, char **Argv) {
  Options Opts;
  if (int Code = parseFlags(Argc, Argv, Opts); Code != Continue)
    return Code;

  // `--gen-shape` is a pure generator invocation: print the stress
  // program (the same source `--corpus=<spec>` would analyze) and exit.
  if (!Opts.GenShape.empty()) {
    ShapeSpec Spec;
    if (!parseShapeSpec(Opts.GenShape, Spec)) {
      std::fprintf(stderr,
                   "error: --gen-shape expects wide|deep|diamond|skewed:"
                   "N[:seed], got '%s'\n",
                   Opts.GenShape.c_str());
      return 2;
    }
    std::fputs(makeShapeProgram(Spec).c_str(), stdout);
    return 0;
  }

  PipelineOptions PO;
  if (int Code = validate(Opts, PO, Argv[0]); Code != Continue)
    return Code;

  // Exporter lives on runTool's stack so every later return path —
  // governed aborts included — still writes the requested trace/metrics
  // files.
  struct ObservabilityExport {
    const Options &Opts;
    ~ObservabilityExport() {
      if (!Opts.TraceJson.empty() && !writeChromeTrace(Opts.TraceJson))
        std::fprintf(stderr, "warning: cannot write trace to '%s'\n",
                     Opts.TraceJson.c_str());
      if (!Opts.MetricsJson.empty()) {
        std::ofstream Out(Opts.MetricsJson);
        if (Out)
          Out << snapshotMetrics().toJson() << "\n";
        if (!Out.good())
          std::fprintf(stderr, "warning: cannot write metrics to '%s'\n",
                       Opts.MetricsJson.c_str());
      }
    }
  } Exporter{Opts};
  if (!Opts.TraceJson.empty()) {
    setTracingEnabled(true);
    if (!tracingCompiledIn())
      std::fprintf(stderr, "warning: tracing compiled out "
                           "(-DSTCFA_TRACING=OFF); '%s' will hold an "
                           "empty trace\n",
                   Opts.TraceJson.c_str());
  }

  if (Opts.Serve)
    return runServe(Opts, PO);
  if (!Opts.LoadSnapshot.empty())
    return runFromSnapshot(Opts, PO);
  return runLive(Opts, PO);
}

} // namespace

/// Every batch mode writes through stdout's buffer, so one check on the
/// way out catches a failed write anywhere (a full disk, say): output
/// that was cut short must not exit 0.
int main(int Argc, char **Argv) {
  int ExitCode = runTool(Argc, Argv);
  errno = 0;
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    // An error flagged by an earlier block write leaves errno unset here.
    std::fprintf(stderr, "error: writing output: %s\n",
                 std::strerror(errno ? errno : EIO));
    return 1;
  }
  return ExitCode;
}
