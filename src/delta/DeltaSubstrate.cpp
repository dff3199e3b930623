//===-- delta/DeltaSubstrate.cpp - A delta view in canonical ids ----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "delta/DeltaSubstrate.h"

#include "parser/Parser.h"
#include "support/Diagnostics.h"
#include "support/Timer.h"

#include <string>

using namespace stcfa;

std::unique_ptr<DeltaSubstrate>
DeltaSubstrate::build(const DeltaView &V, std::string_view Source,
                      Status &Out) {
  std::unique_ptr<DeltaSubstrate> Sub(new DeltaSubstrate());
  Timer T;
  DiagnosticEngine Diags;
  Sub->M = parseProgram(Source, Diags);
  Sub->ParseMs = T.millis();
  if (!Sub->M) {
    Out = Status::internal("delta source reparse failed: " + Diags.render());
    return nullptr;
  }
  const Module &M = *Sub->M;
  if (M.numExprs() != V.NumExprs || M.numVars() != V.NumVars ||
      M.numLabels() != V.NumLabels) {
    Out = Status::internal(
        "delta view shape mismatch: the spliced source parses to " +
        std::to_string(M.numExprs()) + " exprs / " +
        std::to_string(M.numVars()) + " binders / " +
        std::to_string(M.numLabels()) + " labels, the view has " +
        std::to_string(V.NumExprs) + " / " + std::to_string(V.NumVars) +
        " / " + std::to_string(V.NumLabels));
    return nullptr;
  }

  const FrozenGraph &Shadow = *V.Frozen;
  constexpr uint32_t None = FrozenGraph::None;
  Sub->NodeOfExpr.resize(V.NumExprs);
  for (uint32_t C = 0; C != V.NumExprs; ++C)
    Sub->NodeOfExpr[C] = Shadow.nodeOfExpr(ExprId(V.ExprToShadow[C]));
  Sub->NodeOfVar.resize(V.NumVars);
  for (uint32_t C = 0; C != V.NumVars; ++C)
    Sub->NodeOfVar[C] = Shadow.nodeOfVar(VarId(V.VarToShadow[C]));
  Sub->LabelRoots.resize(2 * size_t(V.NumLabels));
  for (uint32_t C = 0; C != V.NumLabels; ++C) {
    auto [Lam, Carrier] = Shadow.labelRoots(LabelId(V.LabelToShadow[C]));
    Sub->LabelRoots[2 * size_t(C)] = Lam;
    Sub->LabelRoots[2 * size_t(C) + 1] = Carrier;
  }
  // Labels of garbage subtrees have no canonical id: "no label".
  Sub->LabelAt.resize(Shadow.numNodes());
  for (uint32_t N = 0, E = Shadow.numNodes(); N != E; ++N) {
    uint32_t L = Shadow.labelAt(N);
    Sub->LabelAt[N] = L == None ? None : V.LabelFromShadow[L];
  }

  FrozenGraph::Tables Tab = Shadow.tables(/*Condense=*/false);
  Tab.NumExprs = V.NumExprs;
  Tab.NumVars = V.NumVars;
  Tab.NumLabels = V.NumLabels;
  Tab.NodeOfExpr = Sub->NodeOfExpr;
  Tab.NodeOfVar = Sub->NodeOfVar;
  Tab.LabelAt = Sub->LabelAt;
  Tab.LabelRoots = Sub->LabelRoots;
  Sub->F = FrozenGraph::fromTables(Tab);
  Out = Status::ok();
  return Sub;
}
