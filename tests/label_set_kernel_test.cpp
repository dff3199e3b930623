//===-- tests/label_set_kernel_test.cpp - Word-parallel kernel tests ------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The label-set kernel's contracts:
///
///   * bit-identical to per-query BFS (`Reachability`) on every program,
///     and to `StandardCFA` on pure programs under exact congruence, over
///     the whole generator corpus;
///   * lane-count independence (1 lane == 4 lanes, word for word);
///   * governed aborts: a kernel stopped at level k reports `Status`,
///     says exactly which label sets are complete, serves those
///     bit-identically to a full closure, and resumes from level k;
///   * forwarding rows: label-free single-successor components share
///     their successor's row, stay exact per node, never report complete
///     before the row they read, survive a snapshot round trip, and do
///     not hide the corrupt-row canary;
///   * `QueryEngine` dispatch: batches at/above the threshold ride the
///     kernel, point queries and sub-threshold batches do not, and an
///     aborted kernel degrades to the BFS path transparently.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/HybridCFA.h"
#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "core/Reachability.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "snapshot/Snapshot.h"
#include "support/FaultInjection.h"
#include "testgen/ShapeGen.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace stcfa;

namespace {

struct Workload {
  std::string Name;
  std::string Source;
  bool Pure; // exact vs StandardCFA under CongruenceMode::None
  // Mode for the main equivalence run.  The realistic corpus programs
  // recurse through datatypes and only close tractably with congruence
  // summaries (the same mode every other suite closes them under);
  // everything else runs summary-free.
  CongruenceMode Mode = CongruenceMode::None;
};

/// The full generator corpus (all program families) plus the realistic
/// corpus programs.
std::vector<Workload> corpus() {
  std::vector<Workload> W;
  for (int N : {1, 4, 12})
    W.push_back({"cubic:" + std::to_string(N), makeCubicFamily(N), true});
  W.push_back({"joinpoint:10", makeJoinPointFamily(10), true});
  W.push_back({"calledonce:8", makeCalledOnceFamily(8), true});
  W.push_back({"dispatch:8", makeDispatchFamily(8), true});
  // The effects family prints but neither refs nor widening: still exact.
  W.push_back({"effects:6", makeEffectsFamily(6), true});
  for (uint64_t Seed : {11ull, 12ull}) {
    RandomProgramOptions O;
    O.Seed = Seed;
    O.NumBindings = 60;
    W.push_back({"random-pure:" + std::to_string(Seed), makeRandomProgram(O),
                 true});
  }
  {
    // Refs make the graph a sound superset of StandardCFA, but the
    // kernel must still match the BFS bit for bit.
    RandomProgramOptions O;
    O.Seed = 21;
    O.NumBindings = 60;
    O.UseRefs = true;
    O.UseEffects = true;
    W.push_back({"random-refs:21", makeRandomProgram(O), false});
  }
  W.push_back({"life", lifeProgram(), false, CongruenceMode::ByType});
  W.push_back({"lexgen:10", makeLexgenLike(10), false, CongruenceMode::ByType});
  W.push_back({"minieval", miniEvalProgram(), false, CongruenceMode::ByType});
  W.push_back(
      {"parsercombo", parserComboProgram(), false, CongruenceMode::ByType});
  return W;
}

struct Built {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
};

Built build(const Workload &W, CongruenceMode Mode) {
  Built B;
  B.M = parseMaybeInfer(W.Source);
  if (!B.M)
    return B;
  SubtransitiveConfig C;
  C.Congruence = Mode;
  B.G = std::make_unique<SubtransitiveGraph>(*B.M, C);
  B.G->build();
  B.G->close();
  EXPECT_FALSE(B.G->aborted()) << W.Name;
  B.F = std::make_unique<FrozenGraph>(*B.G);
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// Equivalence: kernel vs BFS vs StandardCFA over the corpus
//===----------------------------------------------------------------------===//

TEST(LabelSetKernel, MatchesBfsAndStandardCFAOverCorpus) {
  for (const Workload &W : corpus()) {
    Built B = build(W, W.Mode);
    ASSERT_TRUE(B.M) << W.Name;

    LabelSetKernel K(*B.F);
    ASSERT_TRUE(K.run().isOk()) << W.Name;
    ASSERT_TRUE(K.complete()) << W.Name;
    EXPECT_TRUE(K.verify().isOk()) << W.Name << ": " << K.verify().toString();

    Reachability R(*B.G);
    StandardCFA Std(*B.M);
    Std.run();

    for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
      ExprId Ex(I);
      DenseBitset Kernel = K.labelsOf(Ex);
      DenseBitset Bfs = R.labelsOf(Ex);
      ASSERT_TRUE(Kernel == Bfs)
          << W.Name << ": kernel != BFS at expr " << I;
      if (W.Pure) {
        ASSERT_TRUE(Kernel == Std.labelSet(Ex))
            << W.Name << ": kernel != StandardCFA at expr " << I;
      } else {
        ASSERT_TRUE(Kernel.containsAll(Std.labelSet(Ex)))
            << W.Name << ": kernel unsound vs StandardCFA at expr " << I;
      }
    }
  }
}

TEST(LabelSetKernel, MatchesBfsUnderCongruence) {
  // Congruence summaries stress nodeOfExpr aliasing: many occurrences
  // share one canonical node and one kernel row.
  for (const Workload &W : corpus()) {
    Built B = build(W, CongruenceMode::ByType);
    ASSERT_TRUE(B.M) << W.Name;
    LabelSetKernel K(*B.F);
    ASSERT_TRUE(K.run().isOk()) << W.Name;
    Reachability R(*B.G);
    for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
      ASSERT_TRUE(K.labelsOf(ExprId(I)) == R.labelsOf(ExprId(I)))
          << W.Name << " expr " << I;
  }
}

TEST(LabelSetKernel, LaneCountDoesNotChangeResults) {
  Built B = build({"cubic:12", makeCubicFamily(12), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K1(*B.F, 1u);
  LabelSetKernel K4(*B.F, 4u);
  ASSERT_TRUE(K1.run().isOk());
  ASSERT_TRUE(K4.run().isOk());
  EXPECT_GT(K1.numLevels(), 1u);
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(K1.labelsOf(ExprId(I)) == K4.labelsOf(ExprId(I)))
        << "expr " << I;
}

//===----------------------------------------------------------------------===//
// Level-compressed (chunked) scheduling
//===----------------------------------------------------------------------===//

TEST(LabelSetKernel, ChunkRowsDoesNotChangeResults) {
  // The chunk size is pure scheduling: per-level (1), default, and
  // everything-in-one-chunk must produce word-identical label sets.
  for (const Workload &W : corpus()) {
    Built B = build(W, W.Mode);
    ASSERT_TRUE(B.M) << W.Name;
    LabelSetKernel PerLevel(*B.F);
    PerLevel.setChunkRows(1);
    LabelSetKernel Default(*B.F);
    LabelSetKernel OneChunk(*B.F);
    OneChunk.setChunkRows(UINT32_MAX);
    ASSERT_TRUE(PerLevel.run().isOk()) << W.Name;
    ASSERT_TRUE(Default.run().isOk()) << W.Name;
    ASSERT_TRUE(OneChunk.run().isOk()) << W.Name;
    for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
      ExprId Ex(I);
      ASSERT_TRUE(PerLevel.labelsOf(Ex) == Default.labelsOf(Ex))
          << W.Name << " expr " << I;
      ASSERT_TRUE(OneChunk.labelsOf(Ex) == Default.labelsOf(Ex))
          << W.Name << " expr " << I;
    }
  }
}

TEST(LabelSetKernel, ChunkGeometryInvariants) {
  Built B = build({"cubic:12", makeCubicFamily(12), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);

  // Per-level chunking: exactly one chunk per level.
  LabelSetKernel PerLevel(*B.F);
  PerLevel.setChunkRows(1);
  ASSERT_TRUE(PerLevel.run().isOk());
  EXPECT_EQ(PerLevel.numChunks(), PerLevel.numLevels());

  // An unbounded chunk budget collapses the whole schedule to one chunk.
  LabelSetKernel OneChunk(*B.F);
  OneChunk.setChunkRows(UINT32_MAX);
  ASSERT_TRUE(OneChunk.run().isOk());
  EXPECT_EQ(OneChunk.numChunks(), 1u);
  EXPECT_GT(OneChunk.numLevels(), 1u);

  // The default sits in between and never exceeds the level count; on
  // completion the chunk cursor matches the chunk count.
  LabelSetKernel Default(*B.F);
  ASSERT_TRUE(Default.run().isOk());
  EXPECT_LE(Default.numChunks(), Default.numLevels());
  EXPECT_GE(Default.numChunks(), 1u);
  EXPECT_EQ(Default.chunksCompleted(), Default.numChunks());
  EXPECT_EQ(Default.levelsCompleted(), Default.numLevels());
  // cubic:12 has many small levels — the default budget must actually
  // compress barriers, not degenerate to per-level.
  EXPECT_LT(Default.numChunks(), Default.numLevels());
}

TEST(LabelSetKernel, ChunkRowsIsStickyAcrossResume) {
  // setChunkRows applies before the first run; the schedule is built
  // once and survives resume (deadline abort at the very start).
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  K.setChunkRows(1);
  LabelSetKernel::Controls C;
  C.D = Deadline::afterMillis(-1);
  EXPECT_EQ(K.run(C).code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(K.chunksCompleted(), 0u);
  ASSERT_TRUE(K.run().isOk());
  EXPECT_EQ(K.numChunks(), K.numLevels());
  EXPECT_EQ(K.chunksCompleted(), K.numChunks());
}

#if STCFA_FAULT_INJECTION

TEST(LabelSetKernel, AbortAndResumeAtChunkGranularity) {
  Built B = build({"cubic:12", makeCubicFamily(12), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);

  LabelSetKernel Full(*B.F);
  ASSERT_TRUE(Full.run().isOk());

  // Force a multi-chunk schedule, then cancel after the first chunk's
  // barrier: the governor polls once per chunk, so `LevelsDone` must
  // land exactly on the first chunk boundary — whole chunks are either
  // fully complete or untouched.
  LabelSetKernel Part(*B.F);
  Part.setChunkRows(4);
  ASSERT_TRUE(armFault(fault::KernelLevelCancel, 1));
  Status S = Part.run();
  disarmFaults();
  EXPECT_EQ(S.code(), StatusCode::Cancelled);
  ASSERT_GE(Part.numChunks(), 3u) << "cubic:12 unexpectedly few chunks";
  EXPECT_EQ(Part.chunksCompleted(), 1u);
  EXPECT_GT(Part.levelsCompleted(), 0u);
  EXPECT_LT(Part.levelsCompleted(), Part.numLevels());

  // Every expr whose component sits below the completed chunk boundary
  // is flagged complete and answers identically to the full closure.
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
    ExprId Ex(I);
    if (Part.exprComplete(Ex))
      ASSERT_TRUE(Part.labelsOf(Ex) == Full.labelsOf(Ex)) << "expr " << I;
    else
      EXPECT_TRUE(Part.labelsOf(Ex).empty()) << "expr " << I;
  }

  // Resume picks up at the chunk cursor and finishes.
  ASSERT_TRUE(Part.run().isOk());
  EXPECT_TRUE(Part.complete());
  EXPECT_EQ(Part.chunksCompleted(), Part.numChunks());
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(Part.labelsOf(ExprId(I)) == Full.labelsOf(ExprId(I)));
}

#endif // STCFA_FAULT_INJECTION

//===----------------------------------------------------------------------===//
// Governed aborts: Status + exact partial-result reporting
//===----------------------------------------------------------------------===//

TEST(LabelSetKernel, ExpiredDeadlineAbortsBeforeAnyLevel) {
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  LabelSetKernel::Controls C;
  C.D = Deadline::afterMillis(-1);
  Status S = K.run(C);
  EXPECT_EQ(S.code(), StatusCode::DeadlineExceeded);
  EXPECT_FALSE(K.complete());
  EXPECT_EQ(K.levelsCompleted(), 0u);
  // Nothing is servable except no-node occurrences (trivially empty).
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
    ExprId Ex(I);
    if (B.F->nodeOfExpr(Ex) != FrozenGraph::None) {
      EXPECT_FALSE(K.exprComplete(Ex)) << "expr " << I;
    }
    EXPECT_TRUE(K.labelsOf(Ex).empty()) << "expr " << I;
  }
  // The partial kernel resumes to a complete, correct closure.
  ASSERT_TRUE(K.run().isOk());
  EXPECT_TRUE(K.complete());
  Reachability R(*B.G);
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(K.labelsOf(ExprId(I)) == R.labelsOf(ExprId(I)));
}

TEST(LabelSetKernel, PreCancelledTokenAborts) {
  Built B = build({"cubic:4", makeCubicFamily(4), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  LabelSetKernel::Controls C;
  C.Token = CancellationToken::create();
  C.Token.requestCancel();
  Status S = K.run(C);
  EXPECT_EQ(S.code(), StatusCode::Cancelled);
  EXPECT_EQ(K.levelsCompleted(), 0u);
  EXPECT_FALSE(K.complete());
}

#if STCFA_FAULT_INJECTION

TEST(LabelSetKernel, MidLevelAbortReportsExactlyWhatIsComplete) {
  Built B = build({"cubic:12", makeCubicFamily(12), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);

  // A reference closure to learn the level structure and the answers.
  LabelSetKernel Full(*B.F);
  ASSERT_TRUE(Full.run().isOk());
  const uint32_t Levels = Full.numLevels();
  ASSERT_GE(Levels, 3u) << "cubic:12 condensation unexpectedly shallow";
  const uint32_t K = Levels / 2;

  // Abort a fresh kernel at level K.  Chunk merging is pinned off so the
  // governor polls once per level — the site passes K polls, then fires
  // (under the default chunking cubic:12 collapses to one chunk and the
  // only abort point would be the very start).
  LabelSetKernel Part(*B.F);
  Part.setChunkRows(1);
  ASSERT_TRUE(armFault(fault::KernelLevelCancel, K));
  Status S = Part.run();
  disarmFaults();
  EXPECT_EQ(S.code(), StatusCode::Cancelled);
  EXPECT_FALSE(Part.complete());
  EXPECT_EQ(Part.levelsCompleted(), K);
  EXPECT_EQ(Part.numLevels(), Levels);

  // The partial-result contract: complete answers are bit-identical to
  // the full closure, incomplete ones are flagged and empty.  At a
  // mid-DAG abort both kinds must exist.
  uint32_t NumComplete = 0, NumIncomplete = 0;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
    ExprId Ex(I);
    if (Part.exprComplete(Ex)) {
      ++NumComplete;
      ASSERT_TRUE(Part.labelsOf(Ex) == Full.labelsOf(Ex))
          << "complete expr " << I << " differs from the full closure";
    } else {
      ++NumIncomplete;
      EXPECT_TRUE(Part.labelsOf(Ex).empty()) << "expr " << I;
    }
  }
  EXPECT_GT(NumComplete, 0u);
  EXPECT_GT(NumIncomplete, 0u);

  // Component-level reporting is consistent with itself across resumes:
  // a second run picks up at level K and finishes everything.
  ASSERT_TRUE(Part.run().isOk());
  EXPECT_TRUE(Part.complete());
  EXPECT_EQ(Part.levelsCompleted(), Levels);
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(Part.labelsOf(ExprId(I)) == Full.labelsOf(ExprId(I)));
}

TEST(LabelSetKernel, InjectedAllocFailureIsOutOfMemory) {
  Built B = build({"cubic:4", makeCubicFamily(4), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  ASSERT_TRUE(armFault(fault::KernelAlloc));
  Status S = K.run();
  disarmFaults();
  EXPECT_EQ(S.code(), StatusCode::OutOfMemory);
  EXPECT_FALSE(K.complete());
  EXPECT_EQ(K.levelsCompleted(), 0u);
  // The failed schedule build is retried on resume.
  ASSERT_TRUE(K.run().isOk());
  EXPECT_TRUE(K.complete());
}

#endif // STCFA_FAULT_INJECTION

//===----------------------------------------------------------------------===//
// Forwarding rows: label-free single-successor components share a row
//===----------------------------------------------------------------------===//

namespace {

Workload shape(const std::string &Spec) {
  ShapeSpec S;
  EXPECT_TRUE(parseShapeSpec(Spec, S)) << Spec;
  return {Spec, makeShapeProgram(S), true};
}

/// Every node's kernel row against the BFS answer (`QueryEngine` with the
/// kernel switched off).  Returns the number of nodes that differ.
uint32_t nodesDifferingFromBfs(const LabelSetKernel &K, const FrozenGraph &F) {
  QueryEngine Bfs(F, 1);
  Bfs.setKernelThreshold(0);
  uint32_t Differ = 0;
  for (uint32_t N = 0; N != F.numNodes(); ++N)
    Differ += !(K.labelsOfNode(N) == Bfs.labelsOfNode(N));
  return Differ;
}

/// The components the file comment calls forwarding, found directly:
/// no node carries a label and every cross-edge leads to one component.
/// Returns that successor per component (`FrozenGraph::None` if the
/// component does not forward).
std::vector<uint32_t> forwardingSuccessors(const FrozenGraph &F) {
  const Condensation &C = F.condensation();
  std::vector<uint32_t> Succ(C.numSccs(), FrozenGraph::None);
  std::vector<bool> Keeps(C.numSccs(), false); // labelled or fans out
  for (uint32_t N = 0; N != F.numNodes(); ++N) {
    uint32_t S = C.sccOf(N);
    Keeps[S] = Keeps[S] || F.labelArray()[N] != FrozenGraph::None;
    for (uint32_t J = F.outOffsets()[N]; J != F.outOffsets()[N + 1]; ++J) {
      uint32_t T = C.sccOf(F.outTargets()[J]);
      if (T == S)
        continue;
      Keeps[S] = Keeps[S] || (Succ[S] != FrozenGraph::None && Succ[S] != T);
      Succ[S] = T;
    }
  }
  for (uint32_t S = 0; S != C.numSccs(); ++S)
    if (Keeps[S])
      Succ[S] = FrozenGraph::None;
  return Succ;
}

} // namespace

TEST(LabelSetKernelRowSharing, ChainShapesShareRowsAndMatchBfs) {
  for (const char *Spec : {"deep:32", "skewed:24", "wide:32"}) {
    Workload W = shape(Spec);
    Built B = build(W, CongruenceMode::None);
    ASSERT_TRUE(B.M) << Spec;
    for (unsigned Lanes : {1u, 2u}) {
      LabelSetKernel K(*B.F, Lanes);
      ASSERT_TRUE(K.run().isOk()) << Spec;
      // Most components of these chain-heavy shapes forward.
      EXPECT_LT(K.numRows(), B.F->condensation().numSccs() / 2) << Spec;
      EXPECT_GT(K.numRows(), 0u) << Spec;
      EXPECT_EQ(nodesDifferingFromBfs(K, *B.F), 0u) << Spec;
    }
  }
}

TEST(LabelSetKernelRowSharing, EveryDirectForwarderSharesItsSuccessorsRow) {
  Built B = build(shape("deep:32"), CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  ASSERT_TRUE(K.run().isOk());
  std::vector<uint32_t> Succ = forwardingSuccessors(*B.F);
  uint32_t Forwarders = 0;
  for (uint32_t S = 0; S != Succ.size(); ++S) {
    if (Succ[S] == FrozenGraph::None)
      continue;
    ++Forwarders;
    // Sharing is storage, not just equal contents.
    EXPECT_EQ(K.rowSpan(S).data(), K.rowSpan(Succ[S]).data()) << "scc " << S;
  }
  EXPECT_GT(Forwarders, 0u);
  EXPECT_LE(K.numRows(), B.F->condensation().numSccs() - Forwarders);
}

TEST(LabelSetKernelRowSharing, LabelledComponentNeverForwards) {
  // A closed graph carries its labels on sinks, so a labelled component
  // with exactly one successor is planted by hand.  It must keep a row
  // of its own (its label plus the successor's), not forward.
  auto M = parseMaybeInfer("let f = fn x => x in let g = fn y => y in f g");
  ASSERT_TRUE(M);
  SubtransitiveConfig C;
  C.Congruence = CongruenceMode::None;
  SubtransitiveGraph G(*M, C);
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());
  G.addEdge(G.labelNode(LabelId(0)), G.labelNode(LabelId(1)));
  FrozenGraph F(G);
  ASSERT_TRUE(F.status().isOk());
  LabelSetKernel K(F);
  ASSERT_TRUE(K.run().isOk());
  EXPECT_EQ(nodesDifferingFromBfs(K, F), 0u);
  QueryEngine Bfs(F, 1);
  Bfs.setKernelThreshold(0);
  uint32_t Both = 0;
  for (uint32_t N = 0; N != F.numNodes(); ++N)
    Both += Bfs.labelsOfNode(N).count() == 2;
  EXPECT_GT(Both, 0u) << "the planted edge did not reach the frozen graph";
}

#if STCFA_FAULT_INJECTION

TEST(LabelSetKernelRowSharing, AbortAtEveryChunkBoundaryIsExact) {
  Built B = build(shape("deep:16"), CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel Full(*B.F);
  ASSERT_TRUE(Full.run().isOk());
  ASSERT_LT(Full.numRows(), B.F->condensation().numSccs());
  std::vector<uint32_t> Succ = forwardingSuccessors(*B.F);

  LabelSetKernel Probe(*B.F);
  Probe.setChunkRows(1);
  ASSERT_TRUE(Probe.run().isOk());
  const uint32_t Chunks = Probe.numChunks();
  ASSERT_GT(Chunks, 2u);

  for (uint32_t Stop = 0; Stop != Chunks; ++Stop) {
    SCOPED_TRACE("stop at chunk " + std::to_string(Stop));
    LabelSetKernel Part(*B.F);
    Part.setChunkRows(1);
    ASSERT_TRUE(armFault(fault::KernelLevelCancel, Stop));
    Status S = Part.run();
    disarmFaults();
    ASSERT_EQ(S.code(), StatusCode::Cancelled);
    ASSERT_EQ(Part.chunksCompleted(), Stop);

    for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
      ExprId Ex(I);
      if (Part.exprComplete(Ex))
        ASSERT_TRUE(Part.labelsOf(Ex) == Full.labelsOf(Ex)) << "expr " << I;
      else
        ASSERT_TRUE(Part.labelsOf(Ex).empty()) << "expr " << I;
    }
    // A forwarder's row is its successor's: it may only report complete
    // once the successor has.
    for (uint32_t C = 0; C != Succ.size(); ++C) {
      if (Succ[C] != FrozenGraph::None && !Part.sccComplete(Succ[C])) {
        ASSERT_FALSE(Part.sccComplete(C)) << "scc " << C;
      }
    }

    ASSERT_TRUE(Part.run().isOk());
    for (uint32_t N = 0; N != B.F->numNodes(); ++N)
      ASSERT_TRUE(Part.labelsOfNode(N) == Full.labelsOfNode(N)) << "node " << N;
  }
}

TEST(LabelSetKernelRowSharing, CorruptRowCanaryIsStillCaught) {
  Built B = build(shape("deep:32"), CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel Clean(*B.F);
  ASSERT_TRUE(Clean.run().isOk());
  ASSERT_EQ(nodesDifferingFromBfs(Clean, *B.F), 0u);

  LabelSetKernel Corrupt(*B.F);
  ASSERT_TRUE(armFault(fault::KernelRowCorrupt));
  ASSERT_TRUE(Corrupt.run().isOk());
  disarmFaults();
  ASSERT_LT(Corrupt.numRows(), B.F->condensation().numSccs());
  EXPECT_GT(nodesDifferingFromBfs(Corrupt, *B.F), 0u)
      << "a corrupted shared row went undetected";
}

#endif // STCFA_FAULT_INJECTION

TEST(LabelSetKernelRowSharing, SnapshotOfSharingKernelAdoptsBitIdentical) {
  Built B = build(shape("skewed:24"), CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  ASSERT_TRUE(K.run().isOk());
  const uint32_t Sccs = B.F->condensation().numSccs();
  ASSERT_LT(K.numRows(), Sccs);

  const std::string Path =
      testing::TempDir() + "stcfa_kernel_test_row_sharing.snap";
  SnapshotWriteOptions WO;
  WO.Kernel = &K;
  ASSERT_TRUE(writeSnapshot(Path, *B.F, *B.M, WO).isOk());
  Status S = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
  ASSERT_TRUE(Snap) << S.toString();
  std::unique_ptr<LabelSetKernel> Adopted = Snap->adoptKernel();
  ASSERT_TRUE(Adopted);
  EXPECT_TRUE(Adopted->complete());
  EXPECT_EQ(Adopted->numRows(), Sccs); // the file holds one row per component

  const FrozenGraph &LF = Snap->frozen();
  ASSERT_EQ(LF.numNodes(), B.F->numNodes());
  for (uint32_t N = 0; N != B.F->numNodes(); ++N) {
    std::span<const uint64_t> Want = K.rowSpan(B.F->condensation().sccOf(N));
    std::span<const uint64_t> Got = Adopted->rowSpan(LF.condensation().sccOf(N));
    ASSERT_TRUE(std::equal(Want.begin(), Want.end(), Got.begin(), Got.end()))
        << "node " << N;
    ASSERT_TRUE(Adopted->labelsOfNode(N) == K.labelsOfNode(N)) << "node " << N;
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// verify(): the matrix's structural invariants
//===----------------------------------------------------------------------===//

namespace {

/// \p K's rows tight-packed in component-id order: the layout a
/// snapshot persists and `LabelSetKernel(F, Rows, Words)` adopts.
std::vector<uint64_t> packedRows(const LabelSetKernel &K,
                                 const FrozenGraph &F) {
  std::vector<uint64_t> Rows;
  for (uint32_t S = 0; S != F.condensation().numSccs(); ++S) {
    std::span<const uint64_t> R = K.rowSpan(S);
    Rows.insert(Rows.end(), R.begin(), R.end());
  }
  return Rows;
}

} // namespace

TEST(LabelSetKernelVerify, HoldsOverEveryShapeFamily) {
  for (int Sh = 0; Sh != NumCondShapes; ++Sh)
    for (int N : {6, 40}) {
      ShapeSpec Spec;
      Spec.Shape = static_cast<CondShape>(Sh);
      Spec.N = N;
      Spec.Seed = 7;
      const std::string Name = shapeSpecString(Spec);
      Built B = build(shape(Name), CongruenceMode::None);
      ASSERT_TRUE(B.M) << Name;
      for (unsigned Lanes : {1u, 2u})
        for (uint32_t ChunkRows : {1u, LabelSetKernel::DefaultChunkRows}) {
          LabelSetKernel K(*B.F, Lanes);
          K.setChunkRows(ChunkRows);
          ASSERT_TRUE(K.run().isOk()) << Name;
          Status S = K.verify();
          EXPECT_TRUE(S.isOk()) << Name << " lanes " << Lanes << ": "
                                << S.toString();
          // The same rows adopted as a snapshot matrix: identity row
          // map, no forwarding, same supersets.
          std::vector<uint64_t> Rows = packedRows(K, *B.F);
          LabelSetKernel Adopted(*B.F, Rows, K.wordsPerSet());
          S = Adopted.verify();
          EXPECT_TRUE(S.isOk()) << Name << " adopted: " << S.toString();
        }
    }
}

TEST(LabelSetKernelVerify, IncompleteKernelIsRefused) {
  Built B = build(shape("deep:12"), CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  EXPECT_EQ(K.verify().code(), StatusCode::FailedPrecondition);
  LabelSetKernel::Controls Expired;
  Expired.D = Deadline::afterMillis(0);
  ASSERT_FALSE(K.run(Expired).isOk());
  EXPECT_EQ(K.verify().code(), StatusCode::FailedPrecondition);
}

TEST(LabelSetKernelVerify, ReportsBrokenAdoptedRows) {
  Built B = build(shape("skewed:12"), CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  ASSERT_TRUE(K.run().isOk());
  const FrozenGraph &F = *B.F;
  const Condensation &C = F.condensation();
  const uint32_t W = K.wordsPerSet();
  ASSERT_GT(W, 0u);

  // A component that reads a labelled successor loses that label.
  uint32_t Pred = FrozenGraph::None, Label = FrozenGraph::None;
  for (uint32_t N = 0; N != F.numNodes() && Pred == FrozenGraph::None; ++N)
    for (uint32_t J = F.outOffsets()[N]; J != F.outOffsets()[N + 1]; ++J) {
      uint32_t T = F.outTargets()[J];
      if (F.labelArray()[T] != FrozenGraph::None &&
          C.sccOf(T) != C.sccOf(N)) {
        Pred = C.sccOf(N);
        Label = F.labelArray()[T];
        break;
      }
    }
  ASSERT_NE(Pred, FrozenGraph::None);
  std::vector<uint64_t> Rows = packedRows(K, F);
  Rows[size_t(Pred) * W + Label / 64] &= ~(uint64_t(1) << (Label % 64));
  Status S = LabelSetKernel(F, Rows, W).verify();
  EXPECT_EQ(S.code(), StatusCode::Internal) << S.toString();

  // Every row cleared: labelled components lack their own labels.
  std::vector<uint64_t> Zero(Rows.size(), 0);
  S = LabelSetKernel(F, Zero, W).verify();
  EXPECT_EQ(S.code(), StatusCode::Internal) << S.toString();
  EXPECT_NE(S.message().find("label"), std::string::npos) << S.toString();

  // A bit past the last label would index past the label-name table.
  if (F.numLabels() % 64 != 0) {
    std::vector<uint64_t> Ghost = packedRows(K, F);
    Ghost[W - 1] |= uint64_t(1) << 63;
    S = LabelSetKernel(F, Ghost, W).verify();
    EXPECT_EQ(S.code(), StatusCode::Internal) << S.toString();
  }
}

//===----------------------------------------------------------------------===//
// QueryEngine dispatch
//===----------------------------------------------------------------------===//

TEST(QueryEngineKernel, BatchAboveThresholdUsesKernelAndMatchesBfs) {
  Built B = build({"cubic:10", makeCubicFamily(10), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    Es.push_back(ExprId(I));

  QueryEngine Kern(*B.F, 2);
  Kern.setKernelThreshold(1);
  QueryEngine Bfs(*B.F, 2);
  Bfs.setKernelThreshold(0); // kernel disabled: pure BFS engine

  std::vector<DenseBitset> A = Kern.labelsOfBatch(Es);
  std::vector<DenseBitset> Want = Bfs.labelsOfBatch(Es);
  ASSERT_NE(Kern.kernel(), nullptr);
  EXPECT_TRUE(Kern.kernel()->complete());
  EXPECT_EQ(Bfs.kernel(), nullptr);
  for (size_t I = 0; I != Es.size(); ++I)
    ASSERT_TRUE(A[I] == Want[I]) << "expr " << I;

  // Point queries agree too (they never touch the kernel).
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(Kern.labelsOf(ExprId(I)) == Want[I]) << "expr " << I;
}

TEST(QueryEngineKernel, LabelRowsReadKernelRowsInPlace) {
  Built B = build({"cubic:10", makeCubicFamily(10), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    Es.push_back(ExprId(I));
  QueryEngine Kern(*B.F, 2);
  Kern.setKernelThreshold(1);
  QueryEngine Bfs(*B.F, 2);
  Bfs.setKernelThreshold(0);

  LabelRows Rows = Kern.labelRowsOfBatch(Es);
  LabelRows BfsRows = Bfs.labelRowsOfBatch(Es);
  std::vector<DenseBitset> Want = Bfs.labelsOfBatch(Es);
  const LabelSetKernel *K = Kern.kernel();
  ASSERT_NE(K, nullptr);
  ASSERT_EQ(Rows.size(), Es.size());
  ASSERT_EQ(BfsRows.size(), Es.size());
  auto asSet = [&](SetWords W) {
    DenseBitset S(B.F->numLabels());
    S.orWords(W.data(), W.size());
    return S;
  };
  uint32_t InPlace = 0;
  for (size_t I = 0; I != Es.size(); ++I) {
    ASSERT_TRUE(asSet(Rows[I]) == Want[I]) << "expr " << I;
    ASSERT_TRUE(asSet(BfsRows[I]) == Want[I]) << "expr " << I;
    if (B.F->nodeOfExpr(Es[I]) == FrozenGraph::None)
      continue;
    // The view is the kernel's own row, not a copy of it.
    EXPECT_EQ(Rows[I].data(), K->labelWordsOf(Es[I]).data()) << "expr " << I;
    ++InPlace;
  }
  EXPECT_GT(InPlace, 0u);

  // Governed on the complete kernel with the deadline already passed:
  // nothing is answered, and every row reads as the empty set.
  BatchControl C;
  C.D = Deadline::afterMillis(0);
  BatchOutcome Out;
  LabelRows Stopped = Kern.labelRowsOfBatch(Es, C, Out);
  EXPECT_EQ(Out.S.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Out.Completed, 0u);
  ASSERT_EQ(Stopped.size(), Es.size());
  for (size_t I = 0; I != Es.size(); ++I)
    EXPECT_TRUE(Stopped[I].empty()) << "expr " << I;
}

TEST(QueryEngineKernel, SubThresholdBatchSkipsKernel) {
  Built B = build({"cubic:6", makeCubicFamily(6), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine E(*B.F, 1);
  E.setKernelThreshold(1000000);
  std::vector<ExprId> Small{B.M->root()};
  (void)E.labelsOfBatch(Small);
  EXPECT_EQ(E.kernel(), nullptr);
}

TEST(QueryEngineKernel, OccurrencesBatchMatchesReverseBfs) {
  for (const Workload &W : corpus()) {
    Built B = build(W, CongruenceMode::ByType);
    ASSERT_TRUE(B.M) << W.Name;
    std::vector<LabelId> Ls;
    for (uint32_t L = 0, E = B.M->numLabels(); L != E; ++L)
      Ls.push_back(LabelId(L));
    if (Ls.empty())
      continue;

    QueryEngine Kern(*B.F, 2);
    Kern.setKernelThreshold(1);
    QueryEngine Bfs(*B.F, 2);
    Bfs.setKernelThreshold(0);
    std::vector<std::vector<ExprId>> A = Kern.occurrencesOfBatch(Ls);
    std::vector<std::vector<ExprId>> Want = Bfs.occurrencesOfBatch(Ls);
    ASSERT_NE(Kern.kernel(), nullptr) << W.Name;
    for (size_t I = 0; I != Ls.size(); ++I) {
      ASSERT_EQ(A[I].size(), Want[I].size()) << W.Name << " label " << I;
      for (size_t J = 0; J != A[I].size(); ++J)
        ASSERT_TRUE(A[I][J] == Want[I][J]) << W.Name << " label " << I;
    }
  }
}

TEST(QueryEngineKernel, MembershipBatchReusesCompletedKernel) {
  Built B = build({"dispatch:8", makeDispatchFamily(8), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine Kern(*B.F, 1);
  Kern.setKernelThreshold(1);
  QueryEngine Bfs(*B.F, 1);
  Bfs.setKernelThreshold(0);

  // Prime the kernel through a big labels batch, then compare every
  // (expr, label) membership probe against the BFS engine.
  std::vector<ExprId> Es;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    Es.push_back(ExprId(I));
  (void)Kern.labelsOfBatch(Es);
  ASSERT_NE(Kern.kernel(), nullptr);

  std::vector<std::pair<ExprId, LabelId>> Qs;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    for (uint32_t L = 0, LE = B.M->numLabels(); L != LE; ++L)
      Qs.push_back({ExprId(I), LabelId(L)});
  EXPECT_EQ(Kern.isLabelInBatch(Qs), Bfs.isLabelInBatch(Qs));
}

TEST(QueryEngineKernel, GovernedBatchOnKernelPathReportsAllDone) {
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine E(*B.F, 2);
  E.setKernelThreshold(1);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = B.M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));
  BatchControl C;
  BatchOutcome Out;
  std::vector<DenseBitset> Sets = E.labelsOfBatch(Es, C, Out);
  EXPECT_TRUE(Out.S.isOk());
  EXPECT_EQ(Out.Completed, Es.size());
  ASSERT_NE(E.kernel(), nullptr);
  Reachability R(*B.G);
  for (size_t I = 0; I != Es.size(); ++I) {
    EXPECT_TRUE(Out.Done[I]);
    ASSERT_TRUE(Sets[I] == R.labelsOf(Es[I])) << "expr " << I;
  }
}

TEST(QueryEngineKernel, GovernedCancelledBatchAnswersNothing) {
  // A pre-cancelled token must stop both the kernel closure and the BFS
  // fallback: zero items answered, `Cancelled` reported.
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine E(*B.F, 2);
  E.setKernelThreshold(1);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = B.M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));
  BatchControl C;
  C.Token = CancellationToken::create();
  C.Token.requestCancel();
  BatchOutcome Out;
  std::vector<DenseBitset> Sets = E.labelsOfBatch(Es, C, Out);
  EXPECT_EQ(Out.S.code(), StatusCode::Cancelled);
  EXPECT_EQ(Out.Completed, 0u);
  for (size_t I = 0; I != Es.size(); ++I) {
    EXPECT_FALSE(Out.Done[I]);
    EXPECT_TRUE(Sets[I].empty());
  }
}

#if STCFA_FAULT_INJECTION

TEST(QueryEngineKernel, AbortedKernelFallsBackToBfsTransparently) {
  // With a kernel fault armed, batches above the threshold still answer
  // correctly through the BFS fallback — kernel degradation is invisible
  // to callers.
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = B.M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));

  for (std::string_view Site : {fault::KernelAlloc, fault::KernelLevelCancel}) {
    QueryEngine E(*B.F, 2);
    E.setKernelThreshold(1);
    ASSERT_TRUE(armFault(Site));
    std::vector<DenseBitset> Sets = E.labelsOfBatch(Es);
    disarmFaults();
    Reachability R(*B.G);
    for (size_t I = 0; I != Es.size(); ++I)
      ASSERT_TRUE(Sets[I] == R.labelsOf(Es[I]))
          << Site << " expr " << I;
  }
}

#endif // STCFA_FAULT_INJECTION

//===----------------------------------------------------------------------===//
// HybridCFA wiring
//===----------------------------------------------------------------------===//

TEST(QueryEngineKernel, ChunkRowsPlumbsThroughToKernel) {
  Built B = build({"cubic:10", makeCubicFamily(10), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine E(*B.F, 1);
  EXPECT_EQ(E.kernelChunkRows(), LabelSetKernel::DefaultChunkRows);
  E.setKernelChunkRows(1);
  EXPECT_EQ(E.kernelChunkRows(), 1u);
  E.setKernelThreshold(1);

  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = B.M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));
  std::vector<DenseBitset> Sets = E.labelsOfBatch(Es);
  ASSERT_NE(E.kernel(), nullptr);
  EXPECT_EQ(E.kernel()->chunkRows(), 1u);
  EXPECT_EQ(E.kernel()->numChunks(), E.kernel()->numLevels());

  QueryEngine Bfs(*B.F, 1);
  Bfs.setKernelThreshold(0);
  std::vector<DenseBitset> Want = Bfs.labelsOfBatch(Es);
  for (size_t I = 0; I != Es.size(); ++I)
    ASSERT_TRUE(Sets[I] == Want[I]) << "expr " << I;
}

TEST(QueryEngineKernel, HybridThreadsChunkRowsThrough) {
  auto M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  HybridOptions HO;
  HO.KernelThreshold = 1;
  HO.KernelChunkRows = 2;
  HybridCFA H(*M, HO);
  ASSERT_TRUE(H.solve().isOk());
  QueryEngine *E = H.queryEngine();
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->kernelChunkRows(), 2u);
}

TEST(QueryEngineKernel, HybridThreadsKernelThresholdThrough) {
  auto M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  HybridOptions HO;
  HO.Threads = 2;
  HO.KernelThreshold = 1;
  HybridCFA H(*M, HO);
  ASSERT_TRUE(H.solve().isOk());
  ASSERT_EQ(H.engine(), HybridCFA::Engine::Subtransitive);
  QueryEngine *E = H.queryEngine();
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->kernelThreshold(), 1u);

  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));
  std::vector<DenseBitset> Sets = E->labelsOfBatch(Es);
  ASSERT_NE(E->kernel(), nullptr);
  // Hybrid rung 1 is standard-CFA-exact; the kernel answers must be too.
  StandardCFA Std(*M);
  Std.run();
  for (size_t I = 0; I != Es.size(); ++I)
    ASSERT_TRUE(Sets[I] == Std.labelSet(Es[I])) << "expr " << I;
}
