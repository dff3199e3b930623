//===-- perfbench/src/EditorWorkload.cpp - the serve-editor workload ------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `serve-editor`: one closed-loop client (one request in flight, as an
/// editor waits for each reply) driving `stcfa --serve
/// --snapshot-cache=<dir>`.  Each session loads `deep:1024:<seed>` (a
/// cache hit: set-up filled the cache), then runs rounds of `edit` (a
/// `replace` of a seeded-random definition), `lint`, eight point `query
/// labels` and, every fourth round, a backward `slice`.
///
/// The client keeps its own spliced copy of the source.  On every slice
/// round it checks that round's replies outside the timed region: queries
/// against StandardCFA (the paper's independent algorithm), lint and slice
/// against a from-scratch in-process pipeline (a cross-path check only —
/// lint and slice have no independent oracle).
///
/// The traced run replays the first sessions in-process through the same
/// public entry points the daemon calls (snapshot load, delta session,
/// hybrid solve, lint, dependence graph, slicer, point query) and splits
/// each verb's round-trip median into layer self times plus a
/// `serve.unattributed_ms.<verb>` remainder (dispatch, queue hop, JSON).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/HybridCFA.h"
#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "delta/DeltaSession.h"
#include "lint/LintEngine.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "serve/Json.h"
#include "slice/Slicer.h"
#include "snapshot/Snapshot.h"
#include "testgen/ShapeGen.h"

#include <filesystem>
#include <memory>
#include <optional>

using namespace stcfa;
using stcfa::serve::JsonValue;

namespace ledger {

namespace {

constexpr int RoundsPerSession = 16;
constexpr int QueriesPerRound = 8;
constexpr int SliceEvery = 4;
/// The `deep` family defines f0 .. f<Defs-1>, one `let` per line.
constexpr uint32_t Defs = 1024;

uint64_t splitMix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double unitFrac(uint64_t &State) {
  return double(splitMix(State) >> 11) / double(1ull << 53);
}

/// One editor round, drawn up front so the traced replay repeats it.
struct Round {
  uint32_t Def = 0;  ///< the definition the `replace` rewrites
  std::string Text;  ///< its new text, `let f<Def> = ...;`
  double QueryAt[QueriesPerRound] = {}; ///< fractions of the expr count
  bool Slice = false;
  double SliceAt = 0;
};

/// The rounds of session \p S: deterministic in (seed, session).
std::vector<Round> sessionScript(uint64_t Seed, uint64_t S) {
  uint64_t State = Seed * 0x100000001b3ull + S;
  std::vector<Round> Rounds(RoundsPerSession);
  for (int R = 0; R != RoundsPerSession; ++R) {
    Round &Rd = Rounds[R];
    Rd.Def = 1 + static_cast<uint32_t>(splitMix(State) % (Defs - 1));
    uint32_t J = static_cast<uint32_t>(splitMix(State) % Rd.Def);
    std::string F = "f" + std::to_string(Rd.Def);
    std::string G = "f" + std::to_string(J);
    std::string Prev = "f" + std::to_string(Rd.Def - 1);
    switch (splitMix(State) % 3) {
    case 0: // cut the chain here
      Rd.Text = "let " + F + " = fn x => x;";
      break;
    case 1: // jump back to an earlier definition
      Rd.Text = "let " + F + " = fn x => " + G + " x;";
      break;
    default: // keep the chain and add a second caller of an earlier one
      Rd.Text = "let " + F + " = fn x => " + Prev + " (" + G + " x);";
      break;
    }
    for (double &Q : Rd.QueryAt)
      Q = unitFrac(State);
    Rd.Slice = R % SliceEvery == SliceEvery - 1;
    Rd.SliceAt = unitFrac(State);
  }
  return Rounds;
}

uint32_t exprAt(double Frac, uint32_t NumExprs) {
  uint32_t E = static_cast<uint32_t>(Frac * NumExprs);
  return E < NumExprs ? E : NumExprs - 1;
}

std::vector<std::string> splitLines(const std::string &S) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  for (size_t Nl; (Nl = S.find('\n', Pos)) != std::string::npos;
       Pos = Nl + 1)
    Lines.push_back(S.substr(Pos, Nl - Pos));
  Lines.push_back(S.substr(Pos));
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (size_t I = 0; I != Lines.size(); ++I) {
    Out += Lines[I];
    if (I + 1 != Lines.size())
      Out += '\n';
  }
  return Out;
}

std::vector<uint32_t> bitsOf(const DenseBitset &B) {
  std::vector<uint32_t> Out;
  B.forEach([&](uint32_t I) { Out.push_back(I); });
  return Out;
}

/// Integers of a JSON array field, or false if it is not one.
bool intArray(const JsonValue *V, std::vector<uint32_t> &Out) {
  Out.clear();
  if (!V || !V->isArray())
    return false;
  for (const JsonValue &I : V->items()) {
    if (!I.isInt())
      return false;
    Out.push_back(static_cast<uint32_t>(I.asInt()));
  }
  return true;
}

/// One lint finding as the daemon renders it.
struct FindingRow {
  std::string Pass, Severity, Message;
  int64_t Line = 0, Col = 0;
  bool operator==(const FindingRow &O) const {
    return Pass == O.Pass && Severity == O.Severity && Message == O.Message &&
           Line == O.Line && Col == O.Col;
  }
};

std::vector<FindingRow> findingRows(const LintResult &LR) {
  std::vector<FindingRow> Rows;
  for (const LintPassReport &R : LR.Reports)
    for (const LintDiagnostic &D : R.Findings)
      Rows.push_back({D.RuleId, lintSeverityName(D.Severity), D.Message,
                      D.Range.Begin.Line, D.Range.Begin.Col});
  return Rows;
}

bool findingRows(const JsonValue *V, std::vector<FindingRow> &Out) {
  Out.clear();
  if (!V || !V->isArray())
    return false;
  for (const JsonValue &F : V->items()) {
    const JsonValue *P = F.field("pass"), *S = F.field("severity"),
                    *M = F.field("message"), *L = F.field("line"),
                    *C = F.field("col");
    if (!P || !S || !M || !L || !C || !P->isString() || !S->isString() ||
        !M->isString() || !L->isInt() || !C->isInt())
      return false;
    Out.push_back(
        {P->asString(), S->asString(), M->asString(), L->asInt(), C->asInt()});
  }
  return true;
}

/// What one checked round must match, captured from the daemon's replies.
struct RoundReplies {
  uint32_t Exprs = 0;
  std::vector<std::pair<uint32_t, std::vector<uint32_t>>> Queries;
  bool HasLint = false;
  std::vector<FindingRow> Lint;
  bool HasSlice = false;
  uint32_t SliceTarget = 0;
  std::vector<uint32_t> SliceMembers;
};

/// Checks one round's replies against the client's own spliced source:
/// queries against StandardCFA, lint and slice against a from-scratch
/// parse -> infer -> build -> close -> freeze pipeline.  Each wrong answer
/// counts as a failed operation.
void checkRound(const std::string &Source, const RoundReplies &R,
                Outcome &Out) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M) {
    Out.fail("client-side spliced source does not parse");
    return;
  }
  if (M->numExprs() != R.Exprs) {
    Out.fail("edit reply expr count " + std::to_string(R.Exprs) +
             " != spliced source's " + std::to_string(M->numExprs()));
    return;
  }
  DiagnosticEngine InferDiags;
  (void)inferTypes(*M, InferDiags);

  StandardCFA Std(*M);
  if (!Std.run(Deadline::infinite()).isOk()) {
    Out.fail("StandardCFA oracle aborted");
    return;
  }
  Out.Checked["query labels vs StandardCFA"] += R.Queries.size();
  for (const auto &[E, Labels] : R.Queries)
    if (bitsOf(Std.labelSet(ExprId(E))) != Labels)
      Out.fail("query labels of expr " + std::to_string(E) +
               " differ from StandardCFA");

  SubtransitiveGraph G(*M);
  G.build();
  if (!G.close(Deadline::infinite()).isOk()) {
    Out.fail("oracle close aborted");
    return;
  }
  FrozenGraph F(G);
  if (R.HasLint) {
    LintEngine Lint(G, F);
    ++Out.Checked["lint findings vs in-process pipeline (cross-path)"];
    if (findingRows(Lint.run()) != R.Lint)
      Out.fail("lint findings differ from the in-process pipeline");
  }
  if (!R.HasSlice)
    return;
  Status BS = Status::ok();
  std::unique_ptr<DependenceGraph> DG = DependenceGraph::build(*M, F, BS);
  if (!DG) {
    Out.fail("oracle dependence graph failed: " + BS.toString());
    return;
  }
  ++Out.Checked["slice members vs in-process pipeline (cross-path)"];
  SliceResult SR = Slicer(*DG).sliceFrom(ExprId(R.SliceTarget));
  std::vector<uint32_t> Members;
  for (ExprId E : SR.Exprs)
    Members.push_back(E.index());
  if (Members != R.SliceMembers)
    Out.fail("slice members differ from the in-process pipeline");
}

/// Per-verb round-trip samples of the untraced loop.
struct VerbTimes {
  std::vector<double> Load, FirstEdit, Edit, Lint, Query, Slice, Round;
  uint64_t Edits = 0, IncrementalEdits = 0;
};

/// The client side of the loop: request ids, reply validation.
class Client {
public:
  Client(Daemon &D, Outcome &Out) : D(D), Out(Out) {}

  /// Sends one request; on an `ok` reply returns its `result` in \p Res.
  /// Counts the attempt, and a failure for anything but a well-formed,
  /// undegraded ok reply to this id.  `alive()` turns false once the
  /// daemon stops answering at all.
  bool call(const std::string &Verb, const std::string &Params,
            JsonValue &Res, double &Ms) {
    ++Out.Attempted;
    std::string Id = std::to_string(++NextId);
    std::string Reply;
    if (!D.request("{\"id\": " + Id + ", \"verb\": " + quote(Verb) +
                       ", \"params\": " + Params + "}",
                   Reply, Ms)) {
      Out.fail(Verb + ": no reply from the daemon");
      Alive = false;
      return false;
    }
    JsonValue V;
    if (!serve::parseJson(Reply, V).isOk() || !V.isObject()) {
      Out.fail(Verb + ": unparsable reply");
      return false;
    }
    const JsonValue *IdV = V.field("id"), *Ok = V.field("ok"),
                    *R = V.field("result");
    if (!IdV || !IdV->isInt() || std::to_string(IdV->asInt()) != Id) {
      Out.fail(Verb + ": reply id mismatch");
      return false;
    }
    if (!Ok || !Ok->isBool() || !Ok->asBool() || !R || !R->isObject()) {
      Out.fail(Verb + ": refused: " + Reply.substr(0, 200));
      return false;
    }
    if (const JsonValue *Deg = R->field("degraded");
        Deg && Deg->isBool() && Deg->asBool()) {
      Out.fail(Verb + ": degraded answer");
      return false;
    }
    Res = *R;
    return true;
  }

  bool alive() const { return Alive; }

private:
  Daemon &D;
  Outcome &Out;
  uint64_t NextId = 0;
  bool Alive = true;
};

uint32_t intField(const JsonValue &V, const char *Name) {
  const JsonValue *F = V.field(Name);
  return F && F->isInt() ? static_cast<uint32_t>(F->asInt()) : 0;
}

std::string stringField(const JsonValue &V, const char *Name) {
  const JsonValue *F = V.field(Name);
  return F && F->isString() ? F->asString() : std::string();
}

/// One session over the daemon: load, then the scripted rounds.
void clientSession(Client &C, const std::string &Source, uint64_t Seed,
                   uint64_t S, VerbTimes &T, Outcome &Out) {
  JsonValue Res;
  double Ms = 0;
  if (!C.call("load", "{\"source\": " + quote(Source) + "}", Res, Ms))
    return;
  if (stringField(Res, "cache") != "hit") {
    Out.fail("load did not hit the snapshot cache set-up filled");
    return;
  }
  T.Load.push_back(Ms);
  uint32_t Exprs = intField(Res, "exprs");
  std::vector<std::string> Lines = splitLines(Source);

  std::vector<Round> Script = sessionScript(Seed, S);
  for (size_t RI = 0; RI != Script.size(); ++RI) {
    const Round &Rd = Script[RI];
    RoundReplies Replies;
    double RoundMs = 0;
    const std::string Name = "f" + std::to_string(Rd.Def);
    if (!C.call("edit",
                "{\"op\": \"replace\", \"name\": " + quote(Name) +
                    ", \"text\": " + quote(Rd.Text) + "}",
                Res, Ms))
      return; // the session is out of step with the daemon; start anew
    ++T.Edits;
    std::string Mode = stringField(Res, "mode");
    T.IncrementalEdits += Mode == "delta" || Mode == "metadata";
    (RI == 0 ? T.FirstEdit : T.Edit).push_back(Ms);
    RoundMs += Ms;
    Exprs = Replies.Exprs = intField(Res, "exprs");
    Lines[Rd.Def] = Rd.Text;

    if (C.call("lint", "{}", Res, Ms)) {
      T.Lint.push_back(Ms);
      RoundMs += Ms;
      if (const JsonValue *P = Res.field("partial");
          !P || !P->isBool() || P->asBool())
        Out.fail("lint reply partial");
      else if (!findingRows(Res.field("findings"), Replies.Lint))
        Out.fail("lint reply malformed");
      else
        Replies.HasLint = true;
    }
    for (double At : Rd.QueryAt) {
      uint32_t E = exprAt(At, Exprs);
      if (!C.call("query",
                  "{\"kind\": \"labels\", \"expr\": " + std::to_string(E) +
                      "}",
                  Res, Ms))
        continue;
      T.Query.push_back(Ms);
      RoundMs += Ms;
      std::vector<uint32_t> Labels;
      if (!intArray(Res.field("labels"), Labels))
        Out.fail("query reply malformed");
      else
        Replies.Queries.emplace_back(E, std::move(Labels));
    }
    if (Rd.Slice) {
      uint32_t E = exprAt(Rd.SliceAt, Exprs);
      if (C.call("slice",
                 "{\"expr\": " + std::to_string(E) + ", \"dir\": \"back\"}",
                 Res, Ms)) {
        T.Slice.push_back(Ms);
        RoundMs += Ms;
        const JsonValue *P = Res.field("partial");
        if (!P || !P->isBool() || P->asBool())
          Out.fail("slice reply partial");
        else if (!intArray(Res.field("exprs"), Replies.SliceMembers))
          Out.fail("slice reply malformed");
        else
          Replies.HasSlice = true;
        Replies.SliceTarget = E;
      }
      // Checked rounds: every slice round, outside the timed region.
      checkRound(joinLines(Lines), Replies, Out);
    }
    T.Round.push_back(RoundMs);
    if (!C.alive())
      return;
  }
}

/// Fills the cache with the program's snapshot through a real daemon
/// `load` (a miss that writes through), so measured loads hit.
bool warmCache(const RunOptions &O, const std::string &CacheDir,
               const std::string &Source, std::string &Why) {
  removeTree(CacheDir);
  Daemon D;
  if (!D.start({O.Stcfa, "--serve", "--snapshot-cache=" + CacheDir},
               O.WorkDir + "/warm.err")) {
    Why = "cannot start the daemon";
    return false;
  }
  std::string Reply;
  double Ms = 0;
  JsonValue V;
  const JsonValue *Res = nullptr;
  if (!D.request("{\"id\": 1, \"verb\": \"load\", \"params\": {\"source\": " +
                     quote(Source) + "}}",
                 Reply, Ms) ||
      !serve::parseJson(Reply, V).isOk() || !(Res = V.field("result")) ||
      stringField(*Res, "cache") != "miss") {
    Why = "warm-up load did not miss and fill the cache: " +
          Reply.substr(0, 200);
    return false;
  }
  if (!D.stop()) {
    Why = "warm-up daemon did not shut down cleanly";
    return false;
  }
  return true;
}

std::string snapshotIn(const std::string &Dir) {
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(Dir, EC))
    if (E.path().extension() == ".stcfa-snap")
      return E.path().string();
  return "";
}

//===--- the in-process replay (traced run) --------------------------------//

/// The daemon's per-epoch state, rebuilt by the replay the way `Epoch`
/// builds it.
struct ReplayEpoch {
  DeltaView View;
  std::unique_ptr<QueryEngine> Q;
  std::unique_ptr<Module> M; ///< the lazily built full pipeline
  std::unique_ptr<HybridCFA> H;
  std::unique_ptr<DependenceGraph> DG;
};

/// Replays session \p S in-process; false if a step failed.  Counts go to
/// \p Smp only when \p L records.
bool replaySession(const std::string &Source, const std::string &SnapPath,
                   uint64_t Seed, uint64_t S, unsigned Threads, SpanLog &L,
                   Samples &Smp) {
  const bool Traced = L.enabled();
  auto mark = [&] {
    return Traced ? std::optional<CounterMark>(std::in_place)
                  : std::optional<CounterMark>();
  };
  {
    Scope _(L, "serve.load");
    DiagnosticEngine Diags;
    std::unique_ptr<Module> M;
    auto C = mark();
    {
      Scope P(L, "parser.parse");
      M = parseProgram(Source, Diags);
    }
    if (!M)
      return false;
    if (C)
      Smp.add("parser.exprs", double(C->since("parse.exprs")));
    {
      Scope I(L, "sema.infer");
      (void)inferTypes(*M, Diags);
    }
    Status LS = Status::ok();
    std::unique_ptr<LoadedSnapshot> Snap;
    {
      Scope Ld(L, "snapshot.load");
      Snap = LoadedSnapshot::load(SnapPath, LS);
    }
    if (!Snap)
      return false;
  }

  std::unique_ptr<DeltaSession> Sess;
  ReplayEpoch Ep;
  std::vector<Round> Script = sessionScript(Seed, S);
  for (const Round &Rd : Script) {
    {
      Scope _(L, Sess ? "serve.edit" : "serve.first_edit");
      if (!Sess) {
        Scope C(L, "delta.session_create");
        DeltaSession::Options DO;
        DO.Threads = Threads;
        Status CS = Status::ok();
        Sess = DeltaSession::create(Source, DO, CS);
        if (!Sess)
          return false;
      }
      EditRequest R;
      R.Kind = EditRequest::Op::Replace;
      R.Name = "f" + std::to_string(Rd.Def);
      R.Text = Rd.Text;
      ApplyResult Res;
      auto C = mark();
      {
        Scope A(L, "delta.apply");
        if (!Sess->apply(R, Res).isOk() || Res.NeedsFullPipeline)
          return false;
      }
      if (C) {
        Smp.add("delta.dirty_nodes", double(C->since("delta.dirty_nodes")));
        Smp.add("delta.reclose_edges",
                double(C->since("delta.reclose_edges")));
      }
      Ep = ReplayEpoch();
      Scope F(L, "delta.freeze_view");
      if (!Sess->freezeView(Ep.View).isOk())
        return false;
    }
    Ep.Q = std::make_unique<QueryEngine>(*Ep.View.Frozen, Threads);

    {
      Scope _(L, "serve.lint");
      DiagnosticEngine Diags;
      std::string Current = Sess->currentSource();
      {
        Scope P(L, "parser.parse");
        Ep.M = parseProgram(Current, Diags);
      }
      if (!Ep.M)
        return false;
      {
        Scope I(L, "sema.infer");
        (void)inferTypes(*Ep.M, Diags);
      }
      {
        Scope H(L, "analysis.hybrid_solve");
        HybridOptions HO;
        HO.Threads = Threads;
        Ep.H = std::make_unique<HybridCFA>(*Ep.M, HO);
        if (!Ep.H->solve().isOk() || !Ep.H->frozen())
          return false;
      }
      auto C = mark();
      LintResult LR;
      {
        Scope Ln(L, "lint.run");
        LintEngine Lint(*Ep.M, *Ep.H->frozen());
        LintOptions LO;
        LO.Threads = Threads;
        LR = Lint.run(LO);
      }
      if (C) {
        Smp.add("lint.findings", double(C->since("lint.findings")));
        for (const LintPassReport &R : LR.Reports)
          Smp.add(std::string("lint.pass_ms.") + R.Info->Id, R.Millis);
      }
    }

    const DeltaView &V = Ep.View;
    for (double At : Rd.QueryAt) {
      uint32_t E = exprAt(At, V.NumExprs);
      Scope _(L, "serve.query");
      Scope Q(L, "core.point_query");
      DenseBitset Out(V.NumLabels);
      Ep.Q->labelsOf(ExprId(V.ExprToShadow[E])).forEach([&](uint32_t Sh) {
        if (uint32_t C = V.LabelFromShadow[Sh]; C != ~0u)
          Out.insert(C);
      });
    }

    if (Rd.Slice) {
      Scope _(L, "serve.slice");
      {
        Scope B(L, "slice.graph_build");
        Status BS = Status::ok();
        Ep.DG = DependenceGraph::build(*Ep.M, *Ep.H->frozen(), BS);
        if (!Ep.DG)
          return false;
      }
      SliceResult SR;
      {
        Scope Q(L, "slice.query");
        SR = Slicer(*Ep.DG).sliceFrom(ExprId(exprAt(Rd.SliceAt, V.NumExprs)));
      }
      if (Traced)
        Smp.add("slice.members", double(SR.Exprs.size()));
    }
  }
  return true;
}

} // namespace

bool runServeEditor(const RunOptions &O, Outcome &Out) {
  const std::string CacheDir = O.WorkDir + "/snapshot-cache";
  std::string Source;
  GraphFacts Facts;
  bool SetupOk = timedSetup(Out, 3, [&](int) {
    ShapeSpec Spec;
    Spec.Shape = CondShape::Deep;
    Spec.N = Defs;
    Spec.Seed = O.Seed;
    Source = makeShapeProgram(Spec);
    if (!writeFile(O.WorkDir + "/deep.stml", Source)) {
      Out.Error = "cannot write the input";
      return false;
    }
    return graphFacts(Source, Facts, Out.Error) &&
           warmCache(O, CacheDir, Source, Out.Error);
  });
  if (!SetupOk)
    return false;
  std::vector<std::string> Lines = splitLines(Source);
  for (uint32_t D = 0; D != Defs; ++D)
    if (Lines.size() <= D ||
        Lines[D].rfind("let f" + std::to_string(D) + " =", 0) != 0) {
      Out.Error = "deep:" + std::to_string(Defs) +
                  " no longer puts definition f<i> on line i";
      return false;
    }

  Daemon D;
  if (!D.start({O.Stcfa, "--serve", "--snapshot-cache=" + CacheDir,
                "--threads=" + std::to_string(O.Threads)},
               O.WorkDir + "/daemon.err")) {
    Out.Error = "cannot start the daemon";
    return false;
  }
  Client C(D, Out);
  VerbTimes T;
  uint64_t Sessions = 0;
  uint64_t Start = nowNs();
  do
    clientSession(C, Source, O.Seed, Sessions++, T, Out);
  while (C.alive() && double(nowNs() - Start) / 1e9 < O.Seconds);
  Out.Values["peak_rss_mb"] = D.peakRssMb();
  ++Out.Attempted;
  if (!D.stop())
    Out.fail("daemon did not shut down cleanly");

  Out.Values["wall_ms"] = median(T.Round);
  if (!O.Trace)
    return true;

  Out.Values["load_p50_ms"] = median(T.Load);
  Out.Values["first_edit_p50_ms"] = median(T.FirstEdit);
  Out.Values["edit_p50_ms"] = median(T.Edit);
  Out.Values["lint_p50_ms"] = median(T.Lint);
  Out.Values["query_p50_ms"] = median(T.Query);
  Out.Values["slice_p50_ms"] = median(T.Slice);
  // Tails are reported, not kept as metrics: on the measuring box they
  // moved by more than a tenth from run to run (see ../README.md).
  for (auto [Name, Vs] : {std::pair<const char *, std::vector<double> *>{
                              "lint", &T.Lint},
                          {"query", &T.Query}}) {
    Tail Tl;
    if (tailOf(*Vs, Tl)) {
      char Line[160];
      std::snprintf(Line, sizeof(Line),
                    "  %s tail: p%.2f = %.3f ms over %zu samples", Name,
                    Tl.Percentile, Tl.Value, Tl.Samples);
      Out.Report.push_back(Line);
    }
  }
  Out.Values["delta.incremental_frac"] =
      T.Edits ? double(T.IncrementalEdits) / double(T.Edits) : 0;
  reportGraphFacts(Facts, Out);

  // The replay: one untimed warm-up session, then each of the next
  // sessions once traced and once untraced, alternating which goes first.
  const std::string SnapPath = snapshotIn(CacheDir);
  Out.Values["snapshot.bytes"] = double(fileSize(SnapPath));
  SpanLog Log(true), Off(false);
  Samples Smp;
  std::vector<double> TracedMs, UntracedMs;
  if (!replaySession(Source, SnapPath, O.Seed, 0, O.Threads, Off, Smp)) {
    Out.Error = "in-process replay of session 0 failed";
    return false;
  }
  for (uint64_t S = 1; S != 5; ++S)
    for (int Side = 0; Side != 2; ++Side) {
      bool Traced = (S + Side) % 2 == 0;
      uint64_t T0 = nowNs();
      if (!replaySession(Source, SnapPath, O.Seed, S, O.Threads,
                         Traced ? Log : Off, Smp)) {
        Out.Error = "in-process replay of session " + std::to_string(S) +
                    " failed";
        return false;
      }
      (Traced ? TracedMs : UntracedMs).push_back(double(nowNs() - T0) / 1e6);
    }
  Out.Values["trace.overhead_frac"] = pairedOverhead(TracedMs, UntracedMs);

  for (const char *Layer :
       {"parser.parse", "sema.infer", "snapshot.load", "delta.session_create",
        "delta.apply", "delta.freeze_view", "analysis.hybrid_solve",
        "lint.run", "slice.graph_build", "slice.query"})
    Out.Values[std::string(Layer) + "_ms"] = median(Log.selfMillisOf(Layer));
  Out.Values["core.point_query_us"] =
      1e3 * median(Log.selfMillisOf("core.point_query"));
  for (const char *Count : {"parser.exprs", "delta.dirty_nodes",
                            "delta.reclose_edges", "lint.findings",
                            "slice.members"})
    Out.Values[Count] = Smp.medianOf(Count);
  for (const LintPassInfo &P : LintEngine::passes())
    Out.Values[std::string("lint.pass_ms.") + P.Id] =
        Smp.medianOf(std::string("lint.pass_ms.") + P.Id);

  const std::pair<const char *, const std::vector<double> *> Verbs[] = {
      {"load", &T.Load},   {"edit", &T.Edit},   {"lint", &T.Lint},
      {"query", &T.Query}, {"slice", &T.Slice}};
  for (const auto &[Verb, Rtts] : Verbs) {
    // The verb's round-trip median minus its replayed in-process layers.
    double Layers = median(Log.layerMillisUnder(std::string("serve.") + Verb));
    double Rest = median(*Rtts) - Layers;
    Out.Values[std::string("serve.unattributed_ms.") + Verb] = Rest;
    char Line[200];
    std::snprintf(Line, sizeof(Line),
                  "  %-6s p50 %9.3f ms = layers %9.3f ms + unattributed "
                  "%8.3f ms",
                  Verb, median(*Rtts), Layers, Rest);
    Out.Report.push_back(Line);
  }
  if (!O.TracePath.empty())
    Log.writeChromeTrace(O.TracePath);
  return true;
}

} // namespace ledger
