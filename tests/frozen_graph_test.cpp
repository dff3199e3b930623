//===-- tests/frozen_graph_test.cpp - Snapshot / engine equivalence -------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frozen CSR snapshot and the parallel query engine must be
/// *bit-for-bit* interchangeable with the mutable-graph `Reachability`
/// baseline: every query kind, on every corpus program, under every
/// closure policy and congruence mode, at one worker lane and at four.
/// Plus unit tests for the `ThreadPool` primitive and for the apps'
/// CSR propagation branches.
///
//===----------------------------------------------------------------------===//

#include "apps/CallGraph.h"
#include "apps/EffectsAnalysis.h"
#include "apps/KLimitedCFA.h"
#include "analysis/DeadCodeAwareCFA.h"
#include "analysis/StandardCFA.h"
#include "core/Condensation.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/Reachability.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "lint/LintEngine.h"
#include "support/ThreadPool.h"

#include "TestUtil.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <set>
#include <thread>

using namespace stcfa;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(Hits.size(), [&](unsigned, size_t I) { ++Hits[I]; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool Pool(3);
  for (int Round = 0; Round != 50; ++Round) {
    std::atomic<uint64_t> Sum{0};
    Pool.parallelFor(100, [&](unsigned, size_t I) { Sum += I; });
    EXPECT_EQ(Sum.load(), 100u * 99u / 2);
  }
}

TEST(ThreadPool, WorkerIndexInRange) {
  ThreadPool Pool(2);
  std::vector<std::atomic<int>> PerWorker(2);
  Pool.parallelFor(64, [&](unsigned W, size_t) {
    ASSERT_LT(W, 2u);
    ++PerWorker[W];
  });
  int Total = PerWorker[0] + PerWorker[1];
  EXPECT_EQ(Total, 64);
}

TEST(ThreadPool, SingleWorkerAndEmptyBatch) {
  ThreadPool Pool(1);
  int Count = 0;
  Pool.parallelFor(0, [&](unsigned, size_t) { ++Count; });
  EXPECT_EQ(Count, 0);
  Pool.parallelFor(7, [&](unsigned W, size_t) {
    EXPECT_EQ(W, 0u);
    ++Count;
  });
  EXPECT_EQ(Count, 7);
}

TEST(ThreadPool, ConcurrentAndNestedCallersRunEveryTaskOnce) {
  // Four threads share one pool and every eighth task fans out again.
  // A batch that finds the lanes taken runs inline as worker 0, so no
  // batch ever has two of its tasks on one lane index at once.
  ThreadPool &Pool = ThreadPool::shared(3);
  EXPECT_EQ(&Pool, &ThreadPool::shared(3));
  EXPECT_EQ(Pool.size(), 3u);
  constexpr unsigned Callers = 4;
  constexpr size_t Outer = 256, Inner = 8;
  std::vector<std::atomic<int>> Hits(Callers * Outer);
  std::vector<std::atomic<int>> NestedHits(Callers * Outer * Inner);
  std::atomic<int> Overlaps{0};
  auto RunBatch = [&](size_t N, auto &&Task) {
    std::array<std::atomic<bool>, 3> Busy{};
    Pool.parallelFor(N, [&](unsigned W, size_t I) {
      ASSERT_LT(W, 3u);
      if (Busy[W].exchange(true))
        ++Overlaps;
      Task(I);
      Busy[W] = false;
    });
  };
  auto RunCaller = [&](unsigned C) {
    RunBatch(Outer, [&](size_t I) {
      ++Hits[C * Outer + I];
      if (I % 8 == 0)
        RunBatch(Inner, [&](size_t J) {
          ++NestedHits[(C * Outer + I) * Inner + J];
        });
    });
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Callers; ++C)
    Threads.emplace_back(RunCaller, C);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Overlaps.load(), 0);
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  for (size_t K = 0; K != NestedHits.size(); ++K)
    EXPECT_EQ(NestedHits[K].load(), (K / Inner) % Outer % 8 == 0 ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// FrozenGraph structure
//===----------------------------------------------------------------------===//

TEST(FrozenGraph, CsrMatchesLinkedLists) {
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  ASSERT_FALSE(G.aborted());
  FrozenGraph F(G);

  ASSERT_EQ(F.numNodes(), G.numNodes());
  uint64_t Edges = 0;
  for (uint32_t N = 0; N != G.numNodes(); ++N) {
    std::multiset<uint32_t> Want, Got;
    for (NodeId S : G.succs(NodeId(N)))
      Want.insert(S.index());
    for (uint32_t S : F.succs(N))
      Got.insert(S);
    EXPECT_EQ(Want, Got) << "succs mismatch at node " << N;
    Edges += Want.size();

    Want.clear();
    Got.clear();
    for (NodeId P : G.preds(NodeId(N)))
      Want.insert(P.index());
    for (uint32_t P : F.preds(N))
      Got.insert(P);
    EXPECT_EQ(Want, Got) << "preds mismatch at node " << N;

    EXPECT_EQ(F.op(N), G.op(NodeId(N)));
    LabelId L = G.labelOf(NodeId(N));
    EXPECT_EQ(F.labelAt(N), L.isValid() ? L.index() : FrozenGraph::None);
  }
  EXPECT_EQ(F.numEdges(), Edges);
}

TEST(FrozenGraph, CondensationIsCachedAndConsistent) {
  std::unique_ptr<Module> M = parseMaybeInfer(lifeProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);

  const Condensation &C1 = F.condensation();
  const Condensation &C2 = F.condensation();
  EXPECT_EQ(&C1, &C2) << "condensation must be computed once";
  EXPECT_EQ(C1.numNodes(), F.numNodes());

  // Edges never point from a lower SCC id to a higher one except within
  // the same SCC: completion order is reverse topological.
  for (uint32_t N = 0; N != F.numNodes(); ++N)
    for (uint32_t S : F.succs(N))
      if (C1.sccOf(N) != C1.sccOf(S)) {
        EXPECT_GT(C1.sccOf(N), C1.sccOf(S));
      }
}

//===----------------------------------------------------------------------===//
// QueryEngine vs Reachability, all corpora x configs x thread counts
//===----------------------------------------------------------------------===//

struct Config {
  const char *Name;
  ClosurePolicy Policy;
  CongruenceMode Congruence;
};

const Config Configs[] = {
    {"paper/bytype", ClosurePolicy::PaperExact, CongruenceMode::ByType},
    {"nodeexists/bytype", ClosurePolicy::NodeExists, CongruenceMode::ByType},
};

struct CorpusProgram {
  const char *Name;
  std::string Source;
};

std::vector<CorpusProgram> corpusPrograms() {
  return {{"life", lifeProgram()},
          {"lexgen", makeLexgenLike(/*States=*/12)},
          {"minieval", miniEvalProgram()},
          {"parsercombo", parserComboProgram()}};
}

void expectSameSet(const DenseBitset &A, const DenseBitset &B,
                   const char *What, const char *Where, uint32_t Index) {
  EXPECT_TRUE(A == B) << What << " mismatch on " << Where << " at index "
                      << Index;
}

/// Runs every query kind through Reachability and through a QueryEngine
/// with \p Threads lanes; everything must agree exactly.
void checkEquivalence(const Module &M, const SubtransitiveGraph &G,
                      unsigned Threads, const char *Where) {
  Reachability Reach(G);
  FrozenGraph F(G);
  QueryEngine Engine(F, Threads);

  // labelsOf: point and batched, every occurrence.
  std::vector<ExprId> AllExprs;
  for (uint32_t I = 0; I != M.numExprs(); ++I)
    AllExprs.push_back(ExprId(I));
  std::vector<DenseBitset> Batch = Engine.labelsOfBatch(AllExprs);
  ASSERT_EQ(Batch.size(), AllExprs.size());
  for (uint32_t I = 0; I != M.numExprs(); ++I) {
    DenseBitset Want = Reach.labelsOf(ExprId(I));
    expectSameSet(Want, Engine.labelsOf(ExprId(I)), "labelsOf", Where, I);
    expectSameSet(Want, Batch[I], "labelsOfBatch", Where, I);
  }

  // labelsOfVar: every binder.
  for (uint32_t V = 0; V != M.numVars(); ++V)
    expectSameSet(Reach.labelsOfVar(VarId(V)), Engine.labelsOfVar(VarId(V)),
                  "labelsOfVar", Where, V);

  // isLabelIn: every (occurrence, label) pair, point and batched.
  std::vector<std::pair<ExprId, LabelId>> Pairs;
  for (uint32_t I = 0; I != M.numExprs(); ++I)
    for (uint32_t L = 0; L != M.numLabels(); ++L)
      Pairs.emplace_back(ExprId(I), LabelId(L));
  std::vector<char> Mask = Engine.isLabelInBatch(Pairs);
  ASSERT_EQ(Mask.size(), Pairs.size());
  for (size_t I = 0; I != Pairs.size(); ++I) {
    bool Want = Reach.isLabelIn(Pairs[I].first, Pairs[I].second);
    EXPECT_EQ(Want, Engine.isLabelIn(Pairs[I].first, Pairs[I].second))
        << "isLabelIn mismatch on " << Where << " at pair " << I;
    EXPECT_EQ(Want, static_cast<bool>(Mask[I]))
        << "isLabelInBatch mismatch on " << Where << " at pair " << I;
  }

  // occurrencesOf: every label, point and batched; order is part of the
  // contract (ascending expression id).
  std::vector<LabelId> AllLabels;
  for (uint32_t L = 0; L != M.numLabels(); ++L)
    AllLabels.push_back(LabelId(L));
  std::vector<std::vector<ExprId>> OccBatch =
      Engine.occurrencesOfBatch(AllLabels);
  ASSERT_EQ(OccBatch.size(), AllLabels.size());
  for (uint32_t L = 0; L != M.numLabels(); ++L) {
    std::vector<ExprId> Want = Reach.occurrencesOf(LabelId(L));
    EXPECT_EQ(Want, Engine.occurrencesOf(LabelId(L)))
        << "occurrencesOf mismatch on " << Where << " at label " << L;
    EXPECT_EQ(Want, OccBatch[L])
        << "occurrencesOfBatch mismatch on " << Where << " at label " << L;
  }

  // allLabelSets: naive-vs-naive and SCC-vs-SCC, plus cross (the two
  // strategies must agree with each other anyway).
  std::vector<DenseBitset> WantAll = Reach.allLabelSets(/*UseScc=*/false);
  std::vector<DenseBitset> GotNaive = Engine.allLabelSets(/*UseScc=*/false);
  std::vector<DenseBitset> GotScc = Engine.allLabelSets(/*UseScc=*/true);
  ASSERT_EQ(WantAll.size(), GotNaive.size());
  ASSERT_EQ(WantAll.size(), GotScc.size());
  for (uint32_t I = 0; I != WantAll.size(); ++I) {
    expectSameSet(WantAll[I], GotNaive[I], "allLabelSets(naive)", Where, I);
    expectSameSet(WantAll[I], GotScc[I], "allLabelSets(scc)", Where, I);
  }
}

TEST(QueryEngine, MatchesReachabilityEverywhere) {
  for (const CorpusProgram &P : corpusPrograms()) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    for (const Config &C : Configs) {
      SubtransitiveConfig GC;
      GC.Policy = C.Policy;
      GC.Congruence = C.Congruence;
      SubtransitiveGraph G(*M, GC);
      G.build();
      G.close();
      ASSERT_FALSE(G.aborted()) << P.Name << " " << C.Name;
      std::string Where = std::string(P.Name) + "/" + C.Name;
      checkEquivalence(*M, G, /*Threads=*/1, Where.c_str());
      checkEquivalence(*M, G, /*Threads=*/4, (Where + "/t4").c_str());
    }
  }
}

TEST(QueryEngine, MatchesReachabilityUnderByBaseCongruence) {
  // The finer ByBaseAndType congruence diverges during close() on the
  // recursive corpus programs (a pre-existing limitation of ≈2, not of
  // the snapshot), so the bybase equivalence runs on programs where the
  // closure terminates: the cubic family and a small datatype program.
  struct {
    const char *Name;
    std::string Source;
  } Programs[] = {
      {"cubic30", makeCubicFamily(30)},
      {"flist", "data FList = FNil | FCons(Int -> Int, FList);\n"
                "let l = FCons(fn a => a, FCons(fn b => b, FNil)) in "
                "case l of FNil => (fn z => z) | FCons(h, t) => h end"},
  };
  for (const auto &P : Programs) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    SubtransitiveConfig GC;
    GC.Congruence = CongruenceMode::ByBaseAndType;
    SubtransitiveGraph G(*M, GC);
    G.build();
    G.close();
    ASSERT_FALSE(G.aborted()) << P.Name;
    std::string Where = std::string(P.Name) + "/paper/bybase";
    checkEquivalence(*M, G, /*Threads=*/1, Where.c_str());
    checkEquivalence(*M, G, /*Threads=*/4, (Where + "/t4").c_str());
  }
}

TEST(QueryEngine, SharedSnapshotIndependentEngines) {
  // Two engines over one snapshot answer independently (the documented
  // sharing model: share the FrozenGraph, not the engine).
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine A(F, 1), B(F, 2);
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(A.labelsOf(ExprId(I)) == B.labelsOf(ExprId(I)));
  // Both see the same cached condensation label sets.
  std::vector<DenseBitset> SA = A.allLabelSets(true);
  std::vector<DenseBitset> SB = B.allLabelSets(true);
  for (uint32_t I = 0; I != SA.size(); ++I)
    EXPECT_TRUE(SA[I] == SB[I]);
}

//===----------------------------------------------------------------------===//
// Apps over the frozen snapshot
//===----------------------------------------------------------------------===//

// The apps read only the frozen graph; each test checks it against an
// independent reference that never goes through freeze: the standard-CFA
// effects pipeline, or per-site callee sets from `Reachability` over the
// live graph.

/// A corpus program built, closed, and frozen under the default config.
struct FrozenProgram {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;

  explicit FrozenProgram(const std::string &Source) {
    M = parseMaybeInfer(Source);
    EXPECT_TRUE(M);
    if (!M)
      return;
    G = std::make_unique<SubtransitiveGraph>(*M);
    G->build();
    G->close();
    F = std::make_unique<FrozenGraph>(*G);
  }
};

TEST(FrozenApps, EffectsIdenticalWithAndWithoutSnapshot) {
  for (const CorpusProgram &P : corpusPrograms()) {
    FrozenProgram FP(P.Source);
    ASSERT_TRUE(FP.F);
    EffectsAnalysis Csr(*FP.M, *FP.F);
    Csr.run();
    StandardCFA Std(*FP.M);
    Std.run();
    EffectsAnalysisRef Ref(*FP.M, Std);
    Ref.run();
    EXPECT_EQ(Csr.numEffectful(), Ref.numEffectful()) << P.Name;
    for (uint32_t I = 0; I != FP.M->numExprs(); ++I)
      EXPECT_EQ(Csr.isEffectful(ExprId(I)), Ref.isEffectful(ExprId(I)))
          << P.Name << " expr " << I;
  }
}
TEST(FrozenApps, KLimitedIdenticalWithAndWithoutSnapshot) {
  for (const CorpusProgram &P : corpusPrograms()) {
    FrozenProgram FP(P.Source);
    ASSERT_TRUE(FP.F);
    Reachability R(*FP.G);
    for (uint32_t K : {1u, 3u}) {
      KLimitedCFA Csr(*FP.M, *FP.F, K);
      Csr.run();
      for (uint32_t I = 0; I != FP.M->numExprs(); ++I) {
        DenseBitset Exact = R.labelsOf(ExprId(I));
        const LimitedSet &S = Csr.ofExpr(ExprId(I));
        EXPECT_EQ(S.isMany(), Exact.count() > K) << P.Name << " expr " << I;
        if (S.isMany())
          continue;
        std::vector<uint32_t> Ids;
        Exact.forEach([&](uint32_t L) { Ids.push_back(L); });
        EXPECT_EQ(S.ids(), Ids) << P.Name << " expr " << I;
      }
    }
  }
}

TEST(FrozenApps, CalledOnceIdenticalWithAndWithoutSnapshot) {
  for (const CorpusProgram &P : corpusPrograms()) {
    FrozenProgram FP(P.Source);
    ASSERT_TRUE(FP.F);
    CalledOnceAnalysis Csr(*FP.M, *FP.F);
    Csr.run();
    // Brute force: the application sites whose operator may evaluate to
    // each label.
    Reachability R(*FP.G);
    std::vector<std::vector<ExprId>> SitesOf(FP.M->numLabels());
    for (uint32_t I = 0; I != FP.M->numExprs(); ++I)
      if (const auto *A = dyn_cast<AppExpr>(FP.M->expr(ExprId(I))))
        R.labelsOf(A->fn()).forEach(
            [&](uint32_t L) { SitesOf[L].push_back(ExprId(I)); });
    for (uint32_t L = 0; L != FP.M->numLabels(); ++L) {
      CalledOnceAnalysis::CallCount Want =
          SitesOf[L].empty()       ? CalledOnceAnalysis::CallCount::Never
          : SitesOf[L].size() == 1 ? CalledOnceAnalysis::CallCount::Once
                                   : CalledOnceAnalysis::CallCount::Many;
      EXPECT_EQ(Csr.countOf(LabelId(L)), Want) << P.Name << " label " << L;
      if (Want == CalledOnceAnalysis::CallCount::Once) {
        EXPECT_EQ(Csr.uniqueCallSite(LabelId(L)), SitesOf[L][0])
            << P.Name << " label " << L;
      }
    }
  }
}

TEST(FrozenApps, CallGraphIdenticalWithAndWithoutEngine) {
  for (const CorpusProgram &P : corpusPrograms()) {
    FrozenProgram FP(P.Source);
    ASSERT_TRUE(FP.F);
    QueryEngine Engine(*FP.F, 2);
    CallGraph Batched(*FP.M, Engine);
    Batched.run();
    // Every call site is attributed to exactly one caller, and each
    // caller's callees are the union of its sites' reachable labels.
    Reachability R(*FP.G);
    uint32_t NumSites = 0, NumApps = 0;
    for (uint32_t I = 0; I != FP.M->numExprs(); ++I)
      NumApps += isa<AppExpr>(FP.M->expr(ExprId(I)));
    for (uint32_t C = 0; C != Batched.numCallers(); ++C) {
      DenseBitset Want(FP.M->numLabels());
      for (ExprId Site : Batched.sitesOf(C))
        Want.unionWith(R.labelsOf(cast<AppExpr>(FP.M->expr(Site))->fn()));
      NumSites += Batched.sitesOf(C).size();
      EXPECT_TRUE(Batched.calleesOf(C) == Want) << P.Name << " caller " << C;
    }
    EXPECT_EQ(NumSites, NumApps) << P.Name;
  }
}

TEST(FrozenApps, EngineNeverCalledContainedInDeadCodeAware) {
  // The subtransitive flow over-approximates standard CFA, which in turn
  // over-approximates the liveness-gated analysis: a function the engine
  // never sees called must be dead-code-aware dead.
  for (const CorpusProgram &P : corpusPrograms()) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    FrozenGraph F(G);
    QueryEngine Engine(F, 2);
    CallGraph CG(*M, Engine);
    CG.run();
    DeadCodeAwareCFA Dc(*M);
    Dc.run();
    std::set<uint32_t> DcDead;
    for (LabelId L : Dc.deadFunctions())
      DcDead.insert(L.index());
    for (LabelId L : CG.deadFunctions()) {
      EXPECT_TRUE(DcDead.count(L.index()))
          << P.Name << ": engine-dead fn#" << L.index()
          << " not dead-code-aware dead";
    }
  }
}

//===----------------------------------------------------------------------===//
// A frozen graph is self-contained
//===----------------------------------------------------------------------===//

TEST(FrozenGraphLifetime, OutlivesItsSource) {
  // Freeze, take every answer, destroy the source graph, and ask again:
  // nothing downstream of close may reach back into the live graph.
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  auto G = std::make_unique<SubtransitiveGraph>(*M);
  G->build();
  G->close();
  auto F = std::make_unique<FrozenGraph>(*G);
  ASSERT_TRUE(F->status().isOk());

  struct Answers {
    std::vector<DenseBitset> Labels;
    std::vector<bool> Effectful;
    std::vector<CalledOnceAnalysis::CallCount> Calls;
    std::vector<std::string> Findings;
  };
  auto answer = [&] {
    Answers A;
    QueryEngine Engine(*F, 2);
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      A.Labels.push_back(Engine.labelsOf(ExprId(I)));
    EffectsAnalysis Eff(*M, *F);
    Eff.run();
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      A.Effectful.push_back(Eff.isEffectful(ExprId(I)));
    CalledOnceAnalysis CO(*M, *F);
    CO.run();
    for (uint32_t L = 0; L != M->numLabels(); ++L)
      A.Calls.push_back(CO.countOf(LabelId(L)));
    LintResult LR = LintEngine(*M, *F).run();
    for (const LintPassReport &Rep : LR.Reports)
      for (const LintDiagnostic &D : Rep.Findings)
        A.Findings.push_back(std::string(Rep.Info->Id) + ": " + D.Message);
    return A;
  };

  Answers Before = answer();
  G.reset();
  Answers After = answer();
  ASSERT_EQ(Before.Labels.size(), After.Labels.size());
  for (size_t I = 0; I != Before.Labels.size(); ++I)
    EXPECT_TRUE(Before.Labels[I] == After.Labels[I]) << "expr " << I;
  EXPECT_EQ(Before.Effectful, After.Effectful);
  EXPECT_EQ(Before.Calls, After.Calls);
  EXPECT_EQ(Before.Findings, After.Findings);
  EXPECT_FALSE(Before.Findings.empty());
}

//===----------------------------------------------------------------------===//
// Epoch wrap
//===----------------------------------------------------------------------===//

TEST(QueryEngine, ManyQueriesStayConsistent) {
  // Repeated queries exercise the epoch stamping; results must be stable.
  std::unique_ptr<Module> M = parseMaybeInfer(parserComboProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine Engine(F, 1);
  DenseBitset First = Engine.labelsOf(M->root());
  for (int I = 0; I != 1000; ++I)
    ASSERT_TRUE(First == Engine.labelsOf(M->root()));
  uint64_t Visited = Engine.nodesVisited();
  EXPECT_GT(Visited, 0u);
}

//===----------------------------------------------------------------------===//
// Governed freeze: Status instead of asserts
//===----------------------------------------------------------------------===//

TEST(FrozenGraph, FreezeBeforeCloseIsReportedNotUB) {
  std::unique_ptr<Module> M = parseMaybeInfer("let id = fn x => x in id id");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build(); // no close()
  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  EXPECT_EQ(F, nullptr);
  EXPECT_EQ(S.code(), StatusCode::FailedPrecondition);
}

TEST(FrozenGraph, FreezeOfAbortedGraphIsReportedNotUB) {
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  SubtransitiveConfig C;
  C.Congruence = CongruenceMode::None;
  C.MaxNodes = 64; // guaranteed blown
  SubtransitiveGraph G(*M, C);
  G.build();
  EXPECT_EQ(G.close(Deadline::infinite()).code(),
            StatusCode::ResourceExhausted);
  ASSERT_TRUE(G.aborted());

  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  EXPECT_EQ(F, nullptr);
  EXPECT_EQ(S.code(), StatusCode::FailedPrecondition);
  // The message carries the abort reason for the degradation report.
  EXPECT_NE(S.message().find("resource-exhausted"), std::string::npos)
      << S.toString();
}

TEST(FrozenGraph, FreezeUnderExpiredDeadlineIsInert) {
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  ASSERT_FALSE(G.aborted());
  Status S;
  std::unique_ptr<FrozenGraph> F =
      FrozenGraph::freeze(G, S, Deadline::afterMillis(0));
  EXPECT_EQ(F, nullptr);
  EXPECT_EQ(S.code(), StatusCode::DeadlineExceeded);

  // The governed constructor keeps the inert-but-well-defined snapshot.
  FrozenGraph Inert(G, Deadline::afterMillis(0));
  EXPECT_FALSE(Inert.status().isOk());
  EXPECT_EQ(Inert.numNodes(), 0u);
  QueryEngine E(Inert);
  EXPECT_TRUE(E.labelsOf(M->root()).empty());
  EXPECT_TRUE(E.labelsOfVar(VarId(0)).empty());
  EXPECT_TRUE(E.occurrencesOf(LabelId(0)).empty());
}

//===----------------------------------------------------------------------===//
// Worker-lane edge cases
//===----------------------------------------------------------------------===//

TEST(QueryEngine, ZeroThreadsClampsToSequential) {
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine E(F, /*Threads=*/0);
  EXPECT_EQ(E.threads(), 1u);
  QueryEngine Baseline(F, 1);
  EXPECT_EQ(E.labelsOf(M->root()), Baseline.labelsOf(M->root()));
  std::vector<ExprId> Es{M->root()};
  EXPECT_EQ(E.labelsOfBatch(Es), Baseline.labelsOfBatch(Es));
}

TEST(QueryEngine, MoreThreadsThanHardwareStillCorrect) {
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  unsigned Hw = std::thread::hardware_concurrency();
  unsigned Oversubscribed = (Hw ? Hw : 4) * 4 + 3;
  QueryEngine E(F, Oversubscribed);
  EXPECT_EQ(E.threads(), Oversubscribed);
  QueryEngine Baseline(F, 1);

  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));
  EXPECT_EQ(E.labelsOfBatch(Es), Baseline.labelsOfBatch(Es));

  // Governed batches shard item-per-lane here (more lanes than items).
  BatchControl Control;
  BatchOutcome Outcome;
  EXPECT_EQ(E.labelsOfBatch(Es, Control, Outcome), Baseline.labelsOfBatch(Es));
  EXPECT_TRUE(Outcome.S.isOk());
  EXPECT_EQ(Outcome.Completed, Es.size());
}

TEST(QueryEngine, EmptyBatchesAreNoOps) {
  std::unique_ptr<Module> M = parseMaybeInfer("let id = fn x => x in id id");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  for (unsigned Threads : {1u, 4u}) {
    QueryEngine E(F, Threads);
    EXPECT_TRUE(E.labelsOfBatch({}).empty());
    EXPECT_TRUE(E.isLabelInBatch({}).empty());
    EXPECT_TRUE(E.occurrencesOfBatch({}).empty());

    BatchControl Control;
    BatchOutcome Outcome;
    EXPECT_TRUE(E.labelsOfBatch({}, Control, Outcome).empty());
    EXPECT_TRUE(Outcome.S.isOk());
    EXPECT_EQ(Outcome.Completed, 0u);
    EXPECT_TRUE(Outcome.Done.empty());
  }
}

TEST(QueryEngine, GovernedBatchWithRealDeadlineFinishesPromptly) {
  // A generous real deadline on a small batch: everything completes.
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine E(F, 2);
  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));
  BatchControl Control;
  Control.D = Deadline::afterMillis(60000);
  BatchOutcome Outcome;
  std::vector<DenseBitset> Sets = E.labelsOfBatch(Es, Control, Outcome);
  EXPECT_TRUE(Outcome.S.isOk());
  EXPECT_EQ(Outcome.Completed, Es.size());

  // An already-expired deadline yields zero answers, not a hang or crash.
  Control.D = Deadline::afterMillis(0);
  Sets = E.labelsOfBatch(Es, Control, Outcome);
  EXPECT_EQ(Outcome.S.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Outcome.Completed, 0u);
  for (const DenseBitset &S : Sets)
    EXPECT_TRUE(S.empty());
}

TEST(QueryEngine, GovernedBatchCancellationToken) {
  // A pre-cancelled token stops the batch before any item runs.
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine E(F, 2);
  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));
  BatchControl Control;
  Control.Token = CancellationToken::create();
  Control.Token.requestCancel();
  BatchOutcome Outcome;
  (void)E.labelsOfBatch(Es, Control, Outcome);
  EXPECT_EQ(Outcome.S.code(), StatusCode::Cancelled);
  EXPECT_EQ(Outcome.Completed, 0u);
}

} // namespace
