//===-- perfbench/src/BatchWorkloads.cpp - CLI batch workloads ------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `batch-all-labels` and `batch-lint`: the untimed-checked CLI loop that
/// gives the end-to-end numbers, and the in-process replay of the same
/// stages that gives the per-layer ledger.  The replay calls the public
/// entry points the CLI calls, in the CLI's order, one span per stage;
/// whatever the CLI spends outside them (start-up, rendering, output I/O)
/// is the `driver.unattributed_ms` remainder.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/StandardCFA.h"
#include "ast/Printer.h"
#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "gen/Generators.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "testgen/ShapeGen.h"

#include <cstdlib>
#include <memory>
#include <optional>
#include <string_view>

using namespace stcfa;

namespace ledger {

namespace {

/// The lint passes, in engine order (`lint.pass_ms.<id>` metrics).
std::vector<std::string> lintPassIds() {
  std::vector<std::string> Ids;
  for (const LintPassInfo &P : LintEngine::passes())
    Ids.push_back(P.Id);
  return Ids;
}

/// The lint JSON with every per-pass `"millis": <n>` value blanked: the
/// only field that differs between two runs over the same program.
std::string normalizeLintJson(const std::string &Json) {
  static const std::string Key = "\"millis\": ";
  std::string Out;
  size_t Pos = 0;
  for (size_t Hit; (Hit = Json.find(Key, Pos)) != std::string::npos;) {
    Out.append(Json, Pos, Hit + Key.size() - Pos);
    Out += '_';
    Pos = Json.find_first_of(",}", Hit + Key.size());
    if (Pos == std::string::npos)
      return Out;
  }
  Out.append(Json, Pos, std::string::npos);
  return Out;
}

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Hay.find(Needle); P != std::string::npos;
       P = Hay.find(Needle, P + Needle.size()))
    ++N;
  return N;
}

enum class CliMode { AllLabels, Lint };

/// What one replay learned, besides its timings.
struct ReplayFacts {
  GraphFacts Graph;
  std::string LintJson; ///< normalized `renderLintJson` (CliMode::Lint)
  uint32_t LintErrors = 0;
  bool LintComplete = true;
};

/// One in-process run of the stages the CLI runs for \p T.  With an
/// enabled log each stage gets a span and its counters are sampled at the
/// span's boundaries into \p S; a disabled log times only the whole.
/// \p RenderLint also renders the lint JSON (the reference; not timed as
/// a layer).  Returns the replay's wall time in ms, or a negative value on
/// failure.
double replay(const std::string &Source, CliMode T, const std::string &InputName,
              bool RenderLint, SpanLog &L, Samples &S, ReplayFacts &Facts) {
  const bool Traced = L.enabled();
  auto mark = [&] {
    return Traced ? std::optional<CounterMark>(std::in_place)
                  : std::optional<CounterMark>();
  };
  uint64_t T0 = nowNs();
  Scope Root(L, "cli");

  std::unique_ptr<Module> M;
  {
    auto C = mark();
    DiagnosticEngine Diags;
    {
      Scope _(L, "parser.parse");
      M = parseProgram(Source, Diags);
    }
    if (!M)
      return -1;
    if (C)
      S.add("parser.exprs", double(C->since("parse.exprs")));
  }
  {
    DiagnosticEngine Diags;
    Scope _(L, "sema.infer");
    (void)inferTypes(*M, Diags); // the CLI continues untyped, so do we
  }
  SubtransitiveGraph G(*M);
  {
    Scope _(L, "core.build");
    G.build();
  }
  {
    Scope _(L, "core.close");
    if (!G.close(Deadline::infinite()).isOk())
      return -1;
  }
  const GraphStats &GS = G.stats();
  Facts.Graph = {M->numExprs(), GS.BuildNodes, GS.BuildEdges,
                 GS.CloseNodes, GS.CloseEdges, GS.CloseRuleFirings};
  std::unique_ptr<FrozenGraph> F;
  {
    Scope _(L, "core.freeze");
    F = std::make_unique<FrozenGraph>(G);
  }
  if (!F->status().isOk())
    return -1;
  if (Traced)
    S.add("core.frozen_nodes", F->numNodes());

  if (T == CliMode::AllLabels) {
    {
      Scope _(L, "core.condense");
      (void)F->condensation();
    }
    // The kernel's public governed-resume contract splits set-up from the
    // sweep: a run under an already-expired deadline builds the schedule
    // and row matrix, then stops at the first chunk boundary; the second
    // run resumes there and does only the sweep.
    auto K = std::make_unique<LabelSetKernel>(*F, nullptr, 1);
    auto C = mark();
    {
      Scope _(L, "core.kernel_setup");
      LabelSetKernel::Controls Expired;
      Expired.D = Deadline::afterMillis(0);
      (void)K->run(Expired);
    }
    {
      Scope _(L, "core.kernel_sweep");
      if (!K->run().isOk())
        return -1;
    }
    if (C)
      S.add("core.kernel_word_ors", double(C->since("kernel.word_ors")));
    std::vector<DenseBitset> Sets; // freed after the span, as the CLI
                                   // frees its sets only at exit
    {
      Scope _(L, "core.batch_query");
      QueryEngine Q(*F, 1);
      Q.adoptKernel(std::move(K));
      std::vector<ExprId> Es;
      Es.reserve(M->numExprs());
      for (uint32_t I = 0; I != M->numExprs(); ++I)
        Es.push_back(ExprId(I));
      Sets = Q.labelsOfBatch(Es);
    }
  } else {
    auto C = mark();
    LintResult LR;
    {
      Scope _(L, "lint.run");
      LintEngine Lint(G, *F);
      LintOptions LO;
      LO.Threads = 1;
      LR = Lint.run(LO);
    }
    if (C)
      S.add("lint.findings", double(C->since("lint.findings")));
    Facts.LintComplete = true;
    for (const LintPassReport &R : LR.Reports) {
      if (Traced)
        S.add(std::string("lint.pass_ms.") + R.Info->Id, R.Millis);
      Facts.LintComplete &= R.PassStatus.isOk() && !R.Partial;
    }
    Facts.LintErrors = LR.NumErrors;
    if (RenderLint) // rendering is the CLI's, outside the replayed layers
      Facts.LintJson = normalizeLintJson(renderLintJson(LR, InputName));
  }
  return double(nowNs() - T0) / 1e6;
}

/// The layer spans of a batch replay, in pipeline order.
const std::vector<std::string> &batchLayers(CliMode T) {
  static const std::vector<std::string> AllLabels = {
      "parser.parse", "sema.infer",        "core.build",
      "core.close",   "core.freeze",       "core.condense",
      "core.kernel_setup", "core.kernel_sweep", "core.batch_query"};
  static const std::vector<std::string> Lint = {
      "parser.parse", "sema.infer", "core.build",
      "core.close",   "core.freeze", "lint.run"};
  return T == CliMode::AllLabels ? AllLabels : Lint;
}

/// The CLI loop shared by both batch workloads: one untimed-checked
/// warm-up, then invocations until \p O.Seconds have passed.  \p Check
/// inspects one finished invocation and returns "" when its output is
/// correct.
template <typename CheckFn>
void measureCli(const RunOptions &O, const std::vector<std::string> &Argv,
                const std::string &OutPath, Outcome &Out, CheckFn Check,
                std::vector<double> &WallMs, std::vector<double> &RssMb) {
  auto once = [&](bool Timed) {
    ProcessResult R = runProcess(Argv, OutPath);
    ++Out.Attempted;
    if (!R.Started) {
      Out.fail("could not start " + Argv[0]);
      return;
    }
    if (Timed) {
      WallMs.push_back(R.WallMs);
      RssMb.push_back(R.MaxRssMb);
    }
    if (std::string Why = Check(R); !Why.empty())
      Out.fail(Why);
  };
  once(false);
  uint64_t Start = nowNs();
  do
    once(true);
  while (double(nowNs() - Start) / 1e9 < O.Seconds);
}

/// The traced half of a batch run: alternating traced and untraced
/// replays, the per-layer medians, and the ledger that splits the
/// untraced CLI wall time into layer self times plus the remainder.
/// False when a replay fails.
bool traceBatch(const RunOptions &O, const std::string &Source, CliMode T,
                const std::string &InputName, double CliWallMs,
                Outcome &Out) {
  SpanLog Log(true);
  SpanLog Off(false);
  Samples S;
  ReplayFacts Facts;
  std::vector<double> TracedMs, UntracedMs;
  // Pair -1 is unmeasured: the first passes over fresh heap pages are
  // slower and would land on whichever side ran first.
  const int Pairs = 5;
  for (int I = -1; I != Pairs; ++I) {
    // Alternate which side runs first so drift hits both equally.
    for (int Side = 0; Side != 2; ++Side) {
      bool Traced = (I + Side) % 2 == 0;
      double Ms = replay(Source, T, InputName, /*RenderLint=*/false,
                         Traced && I >= 0 ? Log : Off, S, Facts);
      if (Ms < 0) {
        Out.Error = "in-process replay failed";
        return false;
      }
      if (I >= 0) // pair -1 only warms the heap; it is not measured
        (Traced ? TracedMs : UntracedMs).push_back(Ms);
    }
  }
  double Accounted = 0;
  for (const std::string &Layer : batchLayers(T)) {
    double Self = median(Log.selfMillisOf(Layer));
    Out.Values[Layer + "_ms"] = Self;
    Accounted += Self;
    char Line[160];
    std::snprintf(Line, sizeof(Line), "  %-22s %10.3f ms  %5.1f%%",
                  Layer.c_str(), Self, 100.0 * Self / CliWallMs);
    Out.Report.push_back(Line);
  }
  for (const char *Name : {"parser.exprs", "core.frozen_nodes",
                           "core.kernel_word_ors", "lint.findings"})
    if (S.has(Name))
      Out.Values[Name] = S.medianOf(Name);
  for (const std::string &Id : lintPassIds())
    if (S.has("lint.pass_ms." + Id))
      Out.Values["lint.pass_ms." + Id] = S.medianOf("lint.pass_ms." + Id);
  double Remainder = CliWallMs - Accounted;
  Out.Values["driver.unattributed_ms"] = Remainder;
  Out.Values["trace.overhead_frac"] = pairedOverhead(TracedMs, UntracedMs);
  char Line[200];
  std::snprintf(Line, sizeof(Line), "  %-22s %10.3f ms  %5.1f%%",
                "driver.unattributed", Remainder,
                100.0 * Remainder / CliWallMs);
  Out.Report.push_back(Line);
  std::snprintf(Line, sizeof(Line),
                "  %-22s %10.3f ms  (untraced CLI median; layers + "
                "remainder add up to it)",
                "= wall", CliWallMs);
  Out.Report.push_back(Line);
  if (!O.TracePath.empty())
    Log.writeChromeTrace(O.TracePath);
  return true;
}

/// Checks the CLI's StandardCFA reference output by content rather than by
/// bytes, so a rendering fault shared by both CLI paths cannot hide: line
/// k must name the k-th expression with a non-empty label set (by
/// `describeExpr`) and list exactly the labels an in-process StandardCFA
/// computes for it.  Returns "" when it does.
std::string checkReferenceSets(const std::string &Source,
                               const std::string &RefPath) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M)
    return "input does not parse";
  (void)inferTypes(*M, Diags);
  StandardCFA Std(*M);
  if (!Std.run(Deadline::infinite()).isOk())
    return "in-process StandardCFA aborted";
  std::string Ref;
  if (!readFile(RefPath, Ref))
    return "reference unreadable";
  size_t Pos = 0;
  for (uint32_t I = 0; I != M->numExprs(); ++I) {
    DenseBitset Want = Std.labelSet(ExprId(I));
    if (Want.empty())
      continue;
    size_t End = Ref.find('\n', Pos);
    if (End == std::string::npos)
      return "reference ends before expr " + std::to_string(I);
    std::string_view Line(Ref.data() + Pos, End - Pos);
    Pos = End + 1;
    if (Line.substr(0, Line.find(' ')) != describeExpr(*M, ExprId(I)))
      return "reference line does not name expr " + std::to_string(I);
    std::vector<uint32_t> Got, Expected;
    static const std::string_view Tag = "fn#";
    for (size_t P = Line.find('{'); (P = Line.find(Tag, P)) != Line.npos;) {
      P += Tag.size();
      Got.push_back(static_cast<uint32_t>(std::strtoul(Line.data() + P,
                                                       nullptr, 10)));
    }
    Want.forEach([&](uint32_t L) { Expected.push_back(L); });
    if (Got != Expected)
      return "reference labels of expr " + std::to_string(I) +
             " differ from the in-process StandardCFA";
  }
  return Pos == Ref.size() ? "" : "reference has extra lines";
}

/// `driver.output_mb` and the paper-invariant counts, shared by both.
void reportCommon(const GraphFacts &G, const std::string &OutPath,
                  Outcome &Out) {
  reportGraphFacts(G, Out);
  Out.Values["driver.output_mb"] = double(fileSize(OutPath)) / 1e6;
}

} // namespace

bool graphFacts(const std::string &Source, GraphFacts &Out,
                std::string &Why) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M) {
    Why = "generated program does not parse: " + Diags.render();
    return false;
  }
  DiagnosticEngine InferDiags;
  (void)inferTypes(*M, InferDiags);
  SubtransitiveGraph G(*M);
  G.build();
  if (Status S = G.close(Deadline::infinite()); !S.isOk()) {
    Why = "close aborted: " + S.toString();
    return false;
  }
  const GraphStats &GS = G.stats();
  Out = {M->numExprs(), GS.BuildNodes, GS.BuildEdges,
         GS.CloseNodes, GS.CloseEdges, GS.CloseRuleFirings};
  return checkInvariant(Out, Why);
}

bool checkInvariant(const GraphFacts &F, std::string &Why) {
  if (F.CloseNodes <= F.BuildNodes)
    return true;
  Why = "paper invariant violated: close phase added " +
        std::to_string(F.CloseNodes) + " nodes > build phase " +
        std::to_string(F.BuildNodes);
  return false;
}

void reportGraphFacts(const GraphFacts &F, Outcome &Out) {
  Out.Values["core.build_nodes"] = double(F.BuildNodes);
  Out.Values["core.close_nodes"] = double(F.CloseNodes);
  Out.Values["core.close_edges"] = double(F.CloseEdges);
  Out.Values["core.rule_firings"] = double(F.RuleFirings);
  Out.Values["core.close_to_build_nodes"] =
      double(F.CloseNodes) / double(F.BuildNodes);
  Out.Values["core.nodes_per_expr"] =
      double(F.BuildNodes + F.CloseNodes) / double(F.Exprs);
  Out.Values["core.edges_per_expr"] =
      double(F.BuildEdges + F.CloseEdges) / double(F.Exprs);
}

bool runBatchAllLabels(const RunOptions &O, Outcome &Out) {
  const std::string Input = O.WorkDir + "/skewed.stml";
  const std::string Ref = O.WorkDir + "/reference.txt";
  const std::string OutPath = O.WorkDir + "/all-labels.txt";
  std::string Source;
  GraphFacts Facts;

  // Set-up: the input, the StandardCFA reference output (the paper's
  // independent cubic algorithm, byte-equal to the subtransitive output
  // on this family), and the invariant check.
  bool SetupOk = timedSetup(Out, 3, [&](int Rep) {
    ShapeSpec Spec;
    Spec.Shape = CondShape::Skewed;
    Spec.N = 2048;
    Spec.Seed = O.Seed;
    Source = makeShapeProgram(Spec);
    if (!writeFile(Input, Source)) {
      Out.Error = "cannot write " + Input;
      return false;
    }
    const std::string Dest = Rep == 0 ? Ref : Ref + ".again";
    ProcessResult R = runProcess(
        {O.Stcfa, Input, "--analysis=standard", "--query=all-labels"}, Dest);
    if (!R.Started || R.ExitCode != 0) {
      Out.Error = "StandardCFA reference run failed (exit " +
                  std::to_string(R.ExitCode) + ")";
      return false;
    }
    if (Rep != 0 && !filesEqual(Ref, Dest)) {
      Out.Error = "StandardCFA reference output is not deterministic";
      return false;
    }
    return graphFacts(Source, Facts, Out.Error);
  });
  if (!SetupOk)
    return false;
  ++Out.Attempted;
  ++Out.Checked["StandardCFA CLI reference vs in-process StandardCFA"];
  if (std::string Why = checkReferenceSets(Source, Ref); !Why.empty())
    Out.fail(Why);

  std::vector<double> WallMs, RssMb;
  measureCli(
      O, {O.Stcfa, Input, "--frozen", "--query=all-labels"}, OutPath, Out,
      [&](const ProcessResult &R) -> std::string {
        if (R.ExitCode != 0)
          return "all-labels exited " + std::to_string(R.ExitCode);
        ++Out.Checked["all-labels output byte-equal to StandardCFA"];
        if (!filesEqual(OutPath, Ref))
          return "all-labels output differs from the StandardCFA reference";
        return "";
      },
      WallMs, RssMb);
  Out.Values["wall_ms"] = median(WallMs);
  Out.Values["peak_rss_mb"] = median(RssMb);

  if (O.Trace) {
    reportCommon(Facts, OutPath, Out);
    return traceBatch(O, Source, CliMode::AllLabels, Input, median(WallMs),
                      Out);
  }
  return true;
}

bool runBatchLint(const RunOptions &O, Outcome &Out) {
  const std::string Input = O.WorkDir + "/random.stml";
  const std::string OutPath = O.WorkDir + "/lint.json";
  std::string Source;
  ReplayFacts Ref;

  // Set-up: the input and the in-process LintEngine reference (every
  // pass must finish, complete, for the reference to count).
  bool SetupOk = timedSetup(Out, 3, [&](int) {
    RandomProgramOptions R;
    R.Seed = O.Seed;
    R.NumBindings = 16000;
    R.UseTuples = R.UseDatatypes = R.UseIf = R.UseEffects = true;
    Source = makeRandomProgram(R);
    if (!writeFile(Input, Source)) {
      Out.Error = "cannot write " + Input;
      return false;
    }
    SpanLog Off(false);
    Samples Unused;
    ReplayFacts Facts;
    if (replay(Source, CliMode::Lint, Input, /*RenderLint=*/true, Off, Unused,
               Facts) < 0) {
      Out.Error = "in-process lint reference failed to build its graph";
      return false;
    }
    if (!Facts.LintComplete) {
      Out.Error = "in-process lint reference has a partial or failed pass";
      return false;
    }
    if (!Ref.LintJson.empty() && Ref.LintJson != Facts.LintJson) {
      Out.Error = "in-process lint reference is not deterministic";
      return false;
    }
    Ref = std::move(Facts);
    return checkInvariant(Ref.Graph, Out.Error);
  });
  if (!SetupOk)
    return false;

  const int ExpectedExit = Ref.LintErrors > 0 ? 7 : 0;
  const size_t NumPasses = lintPassIds().size();
  std::vector<double> WallMs, RssMb;
  measureCli(
      O, {O.Stcfa, Input, "--frozen", "--lint", "--lint-format=json"},
      OutPath, Out,
      [&](const ProcessResult &R) -> std::string {
        if (R.ExitCode != ExpectedExit)
          return "lint exited " + std::to_string(R.ExitCode) + ", expected " +
                 std::to_string(ExpectedExit);
        std::string Json;
        if (!readFile(OutPath, Json))
          return "lint output unreadable";
        Json = normalizeLintJson(Json);
        ++Out.Checked["lint JSON equal to in-process LintEngine"];
        if (countOccurrences(Json, "\"status\": \"ok\", \"partial\": false") !=
            NumPasses)
          return "a lint pass did not report ok and complete";
        if (Json != Ref.LintJson)
          return "lint findings differ from the in-process LintEngine run";
        return "";
      },
      WallMs, RssMb);
  Out.Values["wall_ms"] = median(WallMs);
  Out.Values["peak_rss_mb"] = median(RssMb);

  if (O.Trace) {
    reportCommon(Ref.Graph, OutPath, Out);
    return traceBatch(O, Source, CliMode::Lint, Input, median(WallMs), Out);
  }
  return true;
}

} // namespace ledger
