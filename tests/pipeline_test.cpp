//===-- tests/pipeline_test.cpp - The source-to-engine pipeline -----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Pipeline` must answer exactly what each analysis answers when it is
/// driven by hand, for every analysis kind over the corpus and the
/// condensation-shape programs; a snapshot-backed pipeline must answer
/// bit-identically to the live one; and each way the sequence can stop
/// must surface as its own status.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/HybridCFA.h"
#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "pipeline/Pipeline.h"
#include "poly/Polyvariant.h"
#include "snapshot/Snapshot.h"
#include "testgen/ShapeGen.h"
#include "unify/UnificationCFA.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace stcfa;

namespace {

std::vector<std::string> programs() {
  std::vector<std::string> Out = {lifeProgram(), makeLexgenLike(12),
                                  makeCubicFamily(6), makeJoinPointFamily(4)};
  for (uint64_t Seed : {1, 2, 3}) {
    RandomProgramOptions R;
    R.Seed = Seed;
    R.NumBindings = 20;
    R.UseRefs = true;
    R.UseEffects = true;
    Out.push_back(makeRandomProgram(R));
  }
  for (int S = 0; S != NumCondShapes; ++S) {
    ShapeSpec Spec;
    Spec.Shape = static_cast<CondShape>(S);
    Spec.N = 12;
    Spec.Seed = 7 + S;
    Out.push_back(makeShapeProgram(Spec));
  }
  return Out;
}

/// Label sets of every occurrence under a frozen graph of \p G.
std::vector<DenseBitset> frozenAnswers(const SubtransitiveGraph &G) {
  FrozenGraph F(G);
  QueryEngine Q(F);
  std::vector<DenseBitset> Out;
  for (uint32_t I = 0; I != F.numExprs(); ++I)
    Out.push_back(Q.labelsOf(ExprId(I)));
  return Out;
}

/// What \p Kind answers when driven by hand over \p Source, plus whether
/// it produced frozen tables.
std::vector<DenseBitset> directAnswers(const std::string &Source,
                                      AnalysisKind Kind, bool &Frozen) {
  std::unique_ptr<Module> M = parseOrDie(Source);
  DiagnosticEngine Diags;
  (void)inferTypes(*M, Diags);
  std::vector<DenseBitset> Out;
  auto each = [&](const std::function<DenseBitset(ExprId)> &Fn) {
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      Out.push_back(Fn(ExprId(I)));
  };
  Frozen = Kind == AnalysisKind::Subtransitive || Kind == AnalysisKind::Poly;
  switch (Kind) {
  case AnalysisKind::Standard: {
    StandardCFA Std(*M);
    Std.run();
    each([&](ExprId E) { return Std.labelSet(E); });
    break;
  }
  case AnalysisKind::Unify: {
    UnificationCFA Uni(*M);
    Uni.run();
    each([&](ExprId E) { return Uni.labelSet(E); });
    break;
  }
  case AnalysisKind::Subtransitive: {
    SubtransitiveGraph G(*M);
    G.build();
    EXPECT_TRUE(G.close(Deadline::infinite()).isOk());
    Out = frozenAnswers(G);
    break;
  }
  case AnalysisKind::Poly: {
    PolyvariantCFA Poly(*M);
    Poly.run();
    Out = frozenAnswers(Poly.graph());
    break;
  }
  case AnalysisKind::Hybrid: {
    HybridCFA H(*M, HybridOptions{});
    EXPECT_TRUE(H.solve().isOk());
    Frozen = H.frozen() != nullptr;
    each([&](ExprId E) { return H.labelSet(E); });
    break;
  }
  }
  return Out;
}

void expectSameAnswers(Pipeline &P, const std::vector<DenseBitset> &Want,
                       const std::string &What) {
  ASSERT_TRUE(P.status().isOk()) << What << ": " << P.status().toString();
  ASSERT_EQ(P.module()->numExprs(), Want.size()) << What;
  for (uint32_t I = 0; I != Want.size(); ++I)
    ASSERT_TRUE(P.labelsOf(ExprId(I)) == Want[I]) << What << " expr " << I;
}

TEST(Pipeline, LabelsOfMatchesEveryAnalysisDrivenByHand) {
  const AnalysisKind Kinds[] = {AnalysisKind::Standard, AnalysisKind::Unify,
                                AnalysisKind::Subtransitive,
                                AnalysisKind::Poly, AnalysisKind::Hybrid};
  std::vector<std::string> Sources = programs();
  for (size_t S = 0; S != Sources.size(); ++S)
    for (AnalysisKind K : Kinds) {
      std::string What = "program " + std::to_string(S) + " analysis " +
                         std::to_string(static_cast<int>(K));
      bool WantFrozen = false;
      std::vector<DenseBitset> Want = directAnswers(Sources[S], K, WantFrozen);
      PipelineOptions PO;
      PO.Analysis = K;
      Pipeline P(Sources[S], PO);
      expectSameAnswers(P, Want, What);
      EXPECT_EQ(P.frozen() != nullptr, WantFrozen) << What;
      EXPECT_EQ(P.engine() != nullptr, WantFrozen) << What;
      EXPECT_EQ(P.graph() != nullptr, WantFrozen) << What;
    }
}

TEST(Pipeline, DegradedHybridHasNoFrozenTables) {
  // Recursive traversal of a recursive datatype with exact tracking
  // widens: the subtransitive rung gives up and the cubic rung serves.
  const std::string Source =
      "data FList = FNil | FCons(Int -> Int, FList);\n"
      "letrec map = fn f => fn l => case l of FNil => FNil "
      "| FCons(h, t) => FCons(f h, map f t) end in "
      "map (fn g => g) (FCons(fn x => x + 1, FNil))";
  bool WantFrozen = true;
  std::vector<DenseBitset> Want =
      directAnswers(Source, AnalysisKind::Hybrid, WantFrozen);
  EXPECT_FALSE(WantFrozen);
  PipelineOptions PO;
  PO.Analysis = AnalysisKind::Hybrid;
  Pipeline P(Source, PO);
  expectSameAnswers(P, Want, "standard rung");
  ASSERT_NE(P.hybrid(), nullptr);
  EXPECT_EQ(P.hybrid()->engine(), HybridCFA::Engine::Standard);
  EXPECT_STREQ(P.servedBy(), "standard");
  EXPECT_EQ(P.frozen(), nullptr);
  EXPECT_EQ(P.engine(), nullptr);

  // The partial rung: every set is the universal one.
  PO.Degrade = DegradeMode::Partial;
  PO.D = Deadline::afterMillis(0);
  Pipeline Partial(Source, PO);
  ASSERT_TRUE(Partial.status().isOk()) << Partial.status().toString();
  EXPECT_STREQ(Partial.servedBy(), "partial");
  EXPECT_EQ(Partial.frozen(), nullptr);
  const Module &M = *Partial.module();
  EXPECT_EQ(Partial.labelsOf(M.root()).count(), M.numLabels());
}

TEST(Pipeline, SnapshotPipelineAnswersBitIdenticallyToTheLiveOne) {
  std::vector<std::string> Sources = programs();
  for (size_t S = 0; S != Sources.size(); ++S) {
    const std::string Path = testing::TempDir() + "stcfa_pipeline_test_" +
                             std::to_string(S) + ".snap";
    PipelineOptions PO;
    PO.KernelThreshold = 1; // batches ride the (adopted) kernel
    Pipeline Live(Sources[S], PO);
    ASSERT_TRUE(Live.status().isOk());
    ASSERT_TRUE(writeSnapshotWithKernel(Path, *Live.frozen(), *Live.module(),
                                        /*Key=*/42, /*Threads=*/1)
                    .isOk());
    std::vector<ExprId> All;
    for (uint32_t I = 0; I != Live.module()->numExprs(); ++I)
      All.push_back(ExprId(I));
    std::vector<DenseBitset> Want = Live.engine()->labelsOfBatch(All);

    for (bool WithSource : {false, true}) {
      Status LS = Status::ok();
      std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, LS);
      ASSERT_NE(Snap, nullptr) << LS.toString();
      Pipeline Mapped =
          WithSource ? Pipeline(std::move(Snap), PO, Sources[S])
                     : Pipeline(std::move(Snap), PO);
      ASSERT_TRUE(Mapped.status().isOk()) << Mapped.status().toString();
      EXPECT_EQ(Mapped.module() != nullptr, WithSource);
      EXPECT_STREQ(Mapped.servedBy(), "snapshot");
      ASSERT_NE(Mapped.engine()->kernel(), nullptr) << "kernel not adopted";
      EXPECT_TRUE(Mapped.engine()->labelsOfBatch(All) == Want)
          << "program " << S;
      for (ExprId E : All)
        ASSERT_TRUE(Mapped.labelsOf(E) == Want[E.index()])
            << "program " << S << " expr " << E.index();
    }
    std::remove(Path.c_str());
  }
}

TEST(Pipeline, SnapshotOfAnotherProgramIsAFailedPrecondition) {
  const std::string Path = testing::TempDir() + "stcfa_pipeline_mismatch.snap";
  PipelineOptions PO;
  Pipeline Live(makeCubicFamily(4), PO);
  ASSERT_TRUE(Live.status().isOk());
  ASSERT_TRUE(writeSnapshotWithKernel(Path, *Live.frozen(), *Live.module(), 0,
                                      1)
                  .isOk());
  Status LS = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, LS);
  ASSERT_NE(Snap, nullptr) << LS.toString();
  Pipeline Mapped(std::move(Snap), PO, makeCubicFamily(5));
  EXPECT_EQ(Mapped.status(), StatusCode::FailedPrecondition);
  EXPECT_NE(Mapped.status().message().find("does not match"),
            std::string::npos);
  EXPECT_EQ(Mapped.engine(), nullptr);
  std::remove(Path.c_str());
}

TEST(Pipeline, ParseErrorIsInvalidArgumentWithTheDiagnostics) {
  const std::string Source = "let x = in x";
  DiagnosticEngine Diags;
  EXPECT_EQ(parseProgram(Source, Diags), nullptr);
  std::string Rendered = Diags.render();
  while (!Rendered.empty() && Rendered.back() == '\n')
    Rendered.pop_back();
  ASSERT_FALSE(Rendered.empty());
  for (AnalysisKind K : {AnalysisKind::Subtransitive, AnalysisKind::Hybrid}) {
    PipelineOptions PO;
    PO.Analysis = K;
    Pipeline P(Source, PO);
    EXPECT_EQ(P.status(), StatusCode::InvalidArgument);
    EXPECT_EQ(P.status().message(), Rendered);
    EXPECT_EQ(P.module(), nullptr);
    EXPECT_EQ(P.frozen(), nullptr);
  }
}

TEST(Pipeline, CloseBudgetAbortIsResourceExhausted) {
  for (AnalysisKind K : {AnalysisKind::Subtransitive, AnalysisKind::Poly}) {
    PipelineOptions PO;
    PO.Analysis = K;
    PO.Graph.MaxNodes = 4;
    Pipeline P(makeCubicFamily(8), PO);
    EXPECT_EQ(P.status(), StatusCode::ResourceExhausted)
        << P.status().toString();
    EXPECT_NE(P.module(), nullptr);
    EXPECT_EQ(P.frozen(), nullptr);
  }
}

TEST(Pipeline, UntypedProgramsStillAnalyze) {
  PipelineOptions PO;
  Pipeline P("let w = fn x => x x in w w", PO);
  EXPECT_TRUE(P.status().isOk()) << P.status().toString();
  EXPECT_FALSE(P.typed());
  EXPECT_FALSE(P.inferFailure().empty());
}

TEST(Pipeline, OptionSpellingsParseAndPinTheCacheKeyConfig) {
  PipelineOptions PO;
  EXPECT_TRUE(parseAnalysisKind("poly", PO.Analysis));
  EXPECT_EQ(PO.Analysis, AnalysisKind::Poly);
  EXPECT_FALSE(parseAnalysisKind("bogus", PO.Analysis));
  EXPECT_EQ(PO.Analysis, AnalysisKind::Poly);
  EXPECT_TRUE(parseCongruence("bybase", PO.Graph.Congruence));
  EXPECT_EQ(PO.Graph.Congruence, CongruenceMode::ByBaseAndType);
  EXPECT_TRUE(parsePolicy("undemanded", PO.Graph.Policy));
  EXPECT_EQ(PO.Graph.Policy, ClosurePolicy::Undemanded);
  EXPECT_TRUE(parseDegradeMode("off", PO.Degrade));
  EXPECT_EQ(PO.Degrade, DegradeMode::Off);
  EXPECT_FALSE(parseDegradeMode("sideways", PO.Degrade));
  // The strings hashed into snapshot cache keys: changing one orphans
  // every cached snapshot, so they are pinned here.
  EXPECT_EQ(snapshotConfig(PO),
            "analysis=poly;congruence=bybase;policy=undemanded");
  PipelineOptions Daemon;
  Daemon.Analysis = AnalysisKind::Hybrid;
  EXPECT_EQ(snapshotConfig(Daemon),
            "analysis=hybrid;congruence=bytype;policy=paper");
  EXPECT_EQ(snapshotConfig(PipelineOptions{}),
            "analysis=subtransitive;congruence=bytype;policy=paper");
}

} // namespace
