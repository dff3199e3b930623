//===-- pipeline/Pipeline.cpp - Source text to query engine ---------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "parser/Parser.h"
#include "sema/Infer.h"
#include "support/Diagnostics.h"
#include "support/Timer.h"

#include <cassert>

using namespace stcfa;

namespace {
// Spellings, indexed by enumerator value.
constexpr const char *AnalysisNames[] = {"standard", "unify", "subtransitive",
                                         "poly", "hybrid"};
constexpr const char *CongruenceNames[] = {"none", "bytype", "bybase"};
constexpr const char *PolicyNames[] = {"paper", "nodeexists", "undemanded"};
constexpr const char *DegradeNames[] = {"off", "standard", "partial"};

template <class EnumT, size_t N>
bool parseName(const char *const (&Names)[N], std::string_view Name,
               EnumT &Out) {
  for (size_t K = 0; K != N; ++K)
    if (Name == Names[K]) {
      Out = static_cast<EnumT>(K);
      return true;
    }
  return false;
}
} // namespace

static_assert(static_cast<int>(CongruenceMode::ByBaseAndType) == 2 &&
              static_cast<int>(ClosurePolicy::Undemanded) == 2 &&
              static_cast<int>(DegradeMode::Partial) == 2);

bool stcfa::parseAnalysisKind(std::string_view Name, AnalysisKind &Out) {
  return parseName(AnalysisNames, Name, Out);
}
bool stcfa::parseCongruence(std::string_view Name, CongruenceMode &Out) {
  return parseName(CongruenceNames, Name, Out);
}
bool stcfa::parsePolicy(std::string_view Name, ClosurePolicy &Out) {
  return parseName(PolicyNames, Name, Out);
}
bool stcfa::parseDegradeMode(std::string_view Name, DegradeMode &Out) {
  return parseName(DegradeNames, Name, Out);
}

std::string stcfa::snapshotConfig(const PipelineOptions &O) {
  return std::string("analysis=") +
         AnalysisNames[static_cast<int>(O.Analysis)] + ";congruence=" +
         CongruenceNames[static_cast<int>(O.Graph.Congruence)] +
         ";policy=" + PolicyNames[static_cast<int>(O.Graph.Policy)];
}

Pipeline::Pipeline(std::string_view Source, const PipelineOptions &O)
    : Opts(O) {
  if (parseAndInfer(Source))
    solve();
}

Pipeline::Pipeline(std::unique_ptr<LoadedSnapshot> Mapped,
                   const PipelineOptions &O,
                   std::optional<std::string_view> Source)
    : Opts(O), Snap(std::move(Mapped)) {
  const FrozenGraph &F = Snap->frozen();
  if (Source) {
    if (!parseAndInfer(*Source))
      return;
    if (M->numExprs() != F.numExprs()) {
      S = Status::failedPrecondition(
          "does not match the given input (" + std::to_string(F.numExprs()) +
          " vs " + std::to_string(M->numExprs()) + " occurrences)");
      return;
    }
  }
  startEngine(F);
  if (auto Kern = Snap->adoptKernel())
    Engine->adoptKernel(std::move(Kern));
}

Pipeline::~Pipeline() = default;

bool Pipeline::parseAndInfer(std::string_view Source) {
  DiagnosticEngine Diags;
  M = parseProgram(Source, Diags);
  if (!M) {
    std::string Rendered = Diags.render();
    while (!Rendered.empty() && Rendered.back() == '\n')
      Rendered.pop_back();
    S = Status::invalidArgument(std::move(Rendered));
    return false;
  }
  DiagnosticEngine InferDiags;
  Typed = inferTypes(*M, InferDiags);
  if (!Typed)
    InferFailure = InferDiags.diagnostics().empty()
                       ? "?"
                       : InferDiags.diagnostics().front().Message;
  return true;
}

void Pipeline::solve() {
  Timer T;
  switch (Opts.Analysis) {
  case AnalysisKind::Standard:
    Std = std::make_unique<StandardCFA>(*M);
    S = Std->run(Opts.D);
    break;
  case AnalysisKind::Unify:
    Uni = std::make_unique<UnificationCFA>(*M);
    Uni->run();
    break;
  case AnalysisKind::Poly:
    Poly = std::make_unique<PolyvariantCFA>(*M, Opts.Graph);
    Poly->run();
    S = Poly->graph().closeStatus();
    break;
  case AnalysisKind::Subtransitive:
    Graph = std::make_unique<SubtransitiveGraph>(*M, Opts.Graph);
    Graph->build();
    S = Graph->close(Opts.D);
    break;
  case AnalysisKind::Hybrid: {
    HybridOptions HO;
    HO.Threads = Opts.Threads;
    HO.D = Opts.D;
    HO.Degrade = Opts.Degrade;
    HO.KernelThreshold = Opts.KernelThreshold;
    HO.KernelChunkRows = Opts.KernelChunkRows;
    Hybrid = std::make_unique<HybridCFA>(*M, HO);
    S = Hybrid->solve();
    break;
  }
  }
  AnalysisMs = T.millis();
  // The graph analyses freeze ungoverned here; the hybrid ladder froze
  // (governed) inside its subtransitive rung.
  if (const SubtransitiveGraph *G = graph(); S.isOk() && G && !Hybrid) {
    Frozen = std::make_unique<FrozenGraph>(*G);
    startEngine(*Frozen);
  }
}

void Pipeline::startEngine(const FrozenGraph &F) {
  Engine = std::make_unique<QueryEngine>(F, Opts.Threads);
  Engine->setKernelThreshold(Opts.KernelThreshold);
  Engine->setKernelChunkRows(Opts.KernelChunkRows);
}

DenseBitset Pipeline::labelsOf(ExprId E) {
  assert(S.isOk() && "labelsOf on a pipeline that produced no answer");
  if (Std)
    return Std->labelSet(E);
  if (Uni)
    return Uni->labelSet(E);
  if (Hybrid)
    return Hybrid->labelSet(E); // engine, cubic table or universal set
  return Engine->labelsOf(E);
}

const SubtransitiveGraph *Pipeline::graph() const {
  if (Graph)
    return Graph.get();
  if (Poly)
    return &Poly->graph();
  if (Hybrid)
    return Hybrid->graph();
  return nullptr;
}

const FrozenGraph *Pipeline::frozen() const {
  if (Hybrid)
    return Hybrid->frozen();
  return Engine ? &Engine->frozen() : nullptr;
}

QueryEngine *Pipeline::engine() {
  return Hybrid ? Hybrid->queryEngine() : Engine.get();
}

const char *Pipeline::servedBy() const {
  if (Snap)
    return "snapshot";
  if (Hybrid)
    return engineName(Hybrid->engine());
  return AnalysisNames[static_cast<uint8_t>(Opts.Analysis)];
}
