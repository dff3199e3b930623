//===-- tests/DeltaTestUtil.h - Shared edit-delta test oracle ---*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle shared by the delta unit tests and the
/// edit-sequence fuzzer: publish the session's view, rebuild the
/// session's current source from scratch through the ordinary pipeline,
/// and require bit-identical answers for every canonical expression and
/// label, and bit-identical lint results, slices and slice witnesses from
/// the view's substrate (`DeltaSubstrate`, what the daemon's delta epochs
/// serve lint and slice from).  Any divergence returns a report carrying
/// the caller's tag (program seed / edit seed / step), so a fuzz failure
/// is reproducible from the test log alone.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_TESTS_DELTATESTUTIL_H
#define STCFA_TESTS_DELTATESTUTIL_H

#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "delta/DeltaSession.h"
#include "delta/DeltaSubstrate.h"
#include "lint/LintEngine.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "slice/Slicer.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace stcfa {

/// Every field of a lint run, one line per report and per finding: pass
/// status, partial flag, rule, severity, full ranges, message and notes.
inline std::string dumpLint(const LintResult &R) {
  auto range = [](const SourceRange &SR) {
    return std::to_string(SR.Begin.Line) + ":" + std::to_string(SR.Begin.Col) +
           "-" + std::to_string(SR.End.Line) + ":" +
           std::to_string(SR.End.Col);
  };
  std::string Out;
  for (const LintPassReport &Rep : R.Reports) {
    Out += std::string("pass ") + Rep.Info->Id + " " +
           Rep.PassStatus.toString() + (Rep.Partial ? " partial" : "") + "\n";
    for (const LintDiagnostic &D : Rep.Findings) {
      Out += "  " + D.RuleId + "|" + lintSeverityName(D.Severity) + "|" +
             range(D.Range) + "|" + D.Message + "\n";
      for (const LintNote &N : D.Notes)
        Out += "    note " + range(N.Range) + "|" + N.Message + "\n";
    }
  }
  return Out;
}

/// Members and rendered witnesses of the \p Dir slice from \p Target.
inline std::string dumpSlice(const Module &M, const FrozenGraph &F,
                             ExprId Target, SliceDirection Dir) {
  Status BS = Status::ok();
  std::unique_ptr<DependenceGraph> DG = DependenceGraph::build(M, F, BS);
  if (!DG)
    return "dependence graph failed: " + BS.toString();
  Slicer Sl(*DG);
  SliceOptions SO;
  SO.Dir = Dir;
  SliceResult R = Sl.sliceFrom(Target, SO);
  std::string Out = R.S.toString() + (R.Partial ? " partial" : "") + "\n";
  for (ExprId Member : R.Exprs) {
    std::vector<WitnessStep> Steps;
    Status WS = Sl.witnessFor(R, Member, Steps);
    Out += std::to_string(Member.index()) + " " +
           (WS.isOk() ? Sl.renderWitness(Steps) : WS.toString()) + "\n";
  }
  return Out;
}

/// "" when \p Delta equals \p Fresh, else both dumps after \p What.
inline std::string diffDumps(const std::string &What, const std::string &Delta,
                             const std::string &Fresh) {
  if (Delta == Fresh)
    return "";
  return What + " disagrees\n--- delta ---\n" + Delta + "--- fresh ---\n" +
         Fresh;
}

/// FNV-1a over \p Tag: a slice target that is stable across platforms,
/// so a failing tag reproduces the same slice everywhere.
inline uint32_t sliceSeedOf(const std::string &Tag) {
  uint32_t H = 2166136261u;
  for (unsigned char C : Tag)
    H = (H ^ C) * 16777619u;
  return H;
}

/// The lint and slice half of the oracle: the view's substrate against
/// the fresh module \p M and snapshot \p F of the same source.
inline std::string compareSubstrateToFresh(const DeltaView &V,
                                           const std::string &Src,
                                           const Module &M,
                                           const FrozenGraph &F,
                                           const std::string &Tag) {
  Status SS = Status::ok();
  std::unique_ptr<DeltaSubstrate> Sub = DeltaSubstrate::build(V, Src, SS);
  if (!Sub)
    return Tag + ": substrate build failed: " + SS.toString();
  // The substrate's graph speaks canonical ids throughout: its own label
  // sets already match the fresh graph's, with no translation.
  QueryEngine Canon(Sub->frozen(), 1), Fresh(F, 1);
  for (uint32_t E = 0; E != M.numExprs(); ++E)
    if (Canon.labelsOf(ExprId(E)) != Fresh.labelsOf(ExprId(E)))
      return Tag + ": substrate labelsOf(expr " + std::to_string(E) +
             ") disagrees\n--- source ---\n" + Src;
  if (std::string D = diffDumps("lint", dumpLint(LintEngine(Sub->module(),
                                                            Sub->frozen())
                                                     .run()),
                                dumpLint(LintEngine(M, F).run()));
      !D.empty())
    return Tag + ": " + D + "--- source ---\n" + Src;
  const ExprId Targets[] = {M.root(),
                            ExprId(sliceSeedOf(Tag) % M.numExprs())};
  for (ExprId T : Targets)
    for (SliceDirection Dir :
         {SliceDirection::Backward, SliceDirection::Forward})
      if (std::string D = diffDumps(
              std::string(Dir == SliceDirection::Backward ? "backward"
                                                          : "forward") +
                  " slice from expr " + std::to_string(T.index()),
              dumpSlice(Sub->module(), Sub->frozen(), T, Dir),
              dumpSlice(M, F, T, Dir));
          !D.empty())
        return Tag + ": " + D + "--- source ---\n" + Src;
  return "";
}

/// Publishes \p Sess's view and cross-checks every point answer —
/// `labelsOf` for all canonical expressions, `occurrencesOf` for all
/// canonical labels — and the lint and slice answers of the view's
/// substrate against a from-scratch pipeline over the session's current
/// source.  With \p UseBatch the delta side's rows come from
/// `labelsOfBatch` with the kernel threshold forced to zero, so the
/// word-parallel kernel (or its forced-scalar twin under
/// `STCFA_FORCE_SCALAR=1`) is the code under test instead of the
/// per-query DFS.  Returns "" on agreement, a reproducing report
/// otherwise.
inline std::string compareDeltaToFreshRebuild(DeltaSession &Sess,
                                              const std::string &Tag,
                                              bool UseBatch = false) {
  DeltaView V;
  if (Status S = Sess.freezeView(V); !S.isOk())
    return Tag + ": freezeView failed: " + S.toString();

  const std::string Src = Sess.currentSource();
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Src, Diags);
  if (!M)
    return Tag + ": current source does not parse:\n" + Diags.render() +
           "\n--- source ---\n" + Src;
  DiagnosticEngine InferDiags;
  (void)inferTypes(*M, InferDiags);

  SubtransitiveConfig Config;
  SubtransitiveGraph G(*M, Config);
  G.build();
  if (Status S = G.close(Deadline::infinite()); !S.isOk())
    return Tag + ": oracle close failed: " + S.toString();
  Status FS = Status::ok();
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, FS);
  if (!F)
    return Tag + ": oracle freeze failed: " + FS.toString();
  QueryEngine Fresh(*F, 1);

  if (V.NumExprs != M->numExprs())
    return Tag + ": canonical expr count " + std::to_string(V.NumExprs) +
           " != fresh parse " + std::to_string(M->numExprs()) +
           "\n--- source ---\n" + Src;
  if (V.NumLabels != M->numLabels())
    return Tag + ": canonical label count " + std::to_string(V.NumLabels) +
           " != fresh parse " + std::to_string(M->numLabels()) +
           "\n--- source ---\n" + Src;
  if (V.NumVars != M->numVars())
    return Tag + ": canonical binder count " + std::to_string(V.NumVars) +
           " != fresh parse " + std::to_string(M->numVars()) +
           "\n--- source ---\n" + Src;

  QueryEngine Delta(*V.Frozen, 1);
  std::vector<DenseBitset> BatchRows;
  if (UseBatch) {
    Delta.setKernelThreshold(0); // force the kernel path
    std::vector<ExprId> Es;
    Es.reserve(V.NumExprs);
    for (uint32_t E = 0; E != V.NumExprs; ++E)
      Es.push_back(ExprId(V.ExprToShadow[E]));
    BatchRows = Delta.labelsOfBatch(Es);
  }
  for (uint32_t E = 0; E != V.NumExprs; ++E) {
    DenseBitset DRow = UseBatch
                           ? std::move(BatchRows[E])
                           : Delta.labelsOf(ExprId(V.ExprToShadow[E]));
    DenseBitset FRow = Fresh.labelsOf(ExprId(E));
    for (uint32_t L = 0; L != V.NumLabels; ++L)
      if (DRow.contains(V.LabelToShadow[L]) != FRow.contains(L))
        return Tag + ": labelsOf(expr " + std::to_string(E) +
               ") disagrees at label " + std::to_string(L) + " (delta=" +
               (DRow.contains(V.LabelToShadow[L]) ? "1" : "0") +
               ", batch=" + (UseBatch ? "1" : "0") + ")\n--- source ---\n" +
               Src;
  }
  for (uint32_t L = 0; L != V.NumLabels; ++L) {
    std::vector<uint32_t> DOcc;
    for (ExprId Shadow : Delta.occurrencesOf(LabelId(V.LabelToShadow[L]))) {
      uint32_t C = V.ExprFromShadow[Shadow.index()];
      if (C != ~0u)
        DOcc.push_back(C);
    }
    std::sort(DOcc.begin(), DOcc.end());
    std::vector<uint32_t> FOcc;
    for (ExprId Id : Fresh.occurrencesOf(LabelId(L)))
      FOcc.push_back(Id.index());
    std::sort(FOcc.begin(), FOcc.end());
    if (DOcc != FOcc)
      return Tag + ": occurrencesOf(label " + std::to_string(L) +
             ") disagrees (delta has " + std::to_string(DOcc.size()) +
             ", fresh has " + std::to_string(FOcc.size()) +
             ")\n--- source ---\n" + Src;
  }
  return compareSubstrateToFresh(V, Src, *M, *F, Tag);
}

} // namespace stcfa

#endif // STCFA_TESTS_DELTATESTUTIL_H
