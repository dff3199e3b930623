//===-- core/SubtransitiveGraph.cpp - The LC' graph -----------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/SubtransitiveGraph.h"

#include "ast/Printer.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace stcfa;

namespace {

// Field tags pack (is-tuple, constructor-or-arity, index) into 28 bits so
// the whole node identity fits one 64-bit hash-cons key.
constexpr uint32_t TagTupleBit = 1u << 27;

uint32_t packTag(bool IsTuple, uint32_t ConOrArity, uint32_t Index) {
  assert(ConOrArity < (1u << 15) && Index < (1u << 12) &&
         "field tag out of range");
  return (IsTuple ? TagTupleBit : 0u) | (ConOrArity << 12) | Index;
}

bool tagIsTuple(uint32_t Tag) { return (Tag & TagTupleBit) != 0; }
uint32_t tagConOrArity(uint32_t Tag) { return (Tag >> 12) & 0x7fff; }
uint32_t tagIndex(uint32_t Tag) { return Tag & 0xfff; }

uint64_t nodeKey(NodeOp Op, uint32_t A, uint32_t B) {
  assert(A < (1u << 28) && B < (1u << 28) && "node payload out of range");
  // +1 keeps the key non-zero (U64Map reserves 0).
  return ((uint64_t(Op) << 56) | (uint64_t(A) << 28) | B) + 1;
}

bool isHashConsed(NodeOp Op) {
  return Op == NodeOp::Summary || Op == NodeOp::Summary2 ||
         Op == NodeOp::Label || Op == NodeOp::Top;
}

bool isSummary(NodeOp Op) {
  return Op == NodeOp::Summary || Op == NodeOp::Summary2;
}

} // namespace

SubtransitiveGraph::SubtransitiveGraph(const Module &M,
                                       SubtransitiveConfig Config)
    : M(M), Config(Config) {
  // Binder types for node canonicalization, derived from inferred
  // occurrence types (invalid entries are fine: they just disable the
  // datatype congruence for that binder).
  VarType.assign(M.numVars(), TypeId::invalid());
  const TypeTable &TT = M.types();
  for (uint32_t I = 0, E = M.numVars(); I != E; ++I) {
    ExprId Binder = M.var(VarId(I)).Binder;
    if (!Binder.isValid())
      continue;
    const Expr *B = M.expr(Binder);
    if (const auto *Lam = dyn_cast<LamExpr>(B)) {
      TypeId LamTy = Lam->type();
      if (LamTy.isValid() && TT.type(LamTy).Kind == TypeKind::Arrow)
        VarType[I] = TT.type(LamTy).Args[0];
    } else if (const auto *Let = dyn_cast<LetExpr>(B)) {
      if (Let->var() == VarId(I))
        VarType[I] = M.expr(Let->init())->type();
    } else if (const auto *Case = dyn_cast<CaseExpr>(B)) {
      for (const CaseArm &Arm : Case->arms())
        for (size_t J = 0; J != Arm.Binders.size(); ++J)
          if (Arm.Binders[J] == VarId(I))
            VarType[I] = M.con(Arm.Con).ArgTypes[J];
    }
  }
}

void SubtransitiveGraph::reserveNodes(size_t Expected) {
  Ops.reserve(Expected);
  PayloadA.reserve(Expected);
  PayloadB.reserve(Expected);
  NodeType.reserve(Expected);
  NodeRoot.reserve(Expected);
  NodeDepth.reserve(Expected);
  InvolvesDecon.reserve(Expected);
  Demanded.reserve(Expected);
  Created.reserve(Expected);
  DomOf.reserve(Expected);
  RanOf.reserve(Expected);
  RefCellOf.reserve(Expected);
  FirstOut.reserve(Expected);
  FirstIn.reserve(Expected);
  FieldsOf.reserve(Expected);
  AliasesOf.reserve(Expected);
  Edges.reserve(Expected * 2);
}

bool SubtransitiveGraph::isDataType(TypeId Ty) const {
  return Ty.isValid() && M.types().type(Ty).Kind == TypeKind::Data;
}

NodeId SubtransitiveGraph::getNode(NodeOp Op, uint32_t A, uint32_t B) {
  // Only the shared ops probe the index; every other op reaches here once
  // per (op, a, b), from the caller's direct-table miss.
  uint32_t *Slot = nullptr;
  if (isHashConsed(Op)) {
    Slot = &NodeIndex.lookupOrInsert(nodeKey(Op, A, B), ~0u);
    if (*Slot != ~0u)
      return NodeId(*Slot);
  }
  NodeId N(static_cast<uint32_t>(Ops.size()));
  Ops.push_back(Op);
  PayloadA.push_back(A);
  PayloadB.push_back(B);
  NodeType.push_back(TypeId::invalid());
  NodeRoot.push_back(N);
  NodeDepth.push_back(0);
  InvolvesDecon.push_back(false);
  Demanded.push_back(false);
  Created.push_back(false);
  DomOf.push_back(NodeId::invalid());
  RanOf.push_back(NodeId::invalid());
  RefCellOf.push_back(NodeId::invalid());
  FirstOut.push_back(NoEdge);
  FirstIn.push_back(NoEdge);
  FieldsOf.emplace_back();
  AliasesOf.emplace_back();
  if (Slot)
    *Slot = N.index();
  if (InClosePhase)
    ++Stats.CloseNodes;
  else
    ++Stats.BuildNodes;
  return N;
}

NodeId SubtransitiveGraph::topNode() {
  if (Top.isValid())
    return Top;
  Top = getNode(NodeOp::Top, 0, 0);
  setDemanded(Top);
  // Soundness of the widening: Top conservatively evaluates to every
  // abstraction in the program.
  for (uint32_t L = 0, E = M.numLabels(); L != E; ++L)
    addEdge(Top, exprNode(M.lamOfLabel(LabelId(L))));
  return Top;
}

NodeId SubtransitiveGraph::canonicalizeBase(TypeId Ty, NodeOp Op,
                                            uint32_t Payload, NodeId &Slot) {
  NodeId N;
  if (Config.Congruence == CongruenceMode::ByType && isDataType(Ty))
    N = getNode(NodeOp::Summary, Ty.index(), 0);
  else
    N = getNode(Op, Payload, 0);
  // Publish before `onCreate`: under the Undemanded policy the template
  // can widen into Top, which asks for every abstraction's node, this one
  // included.
  Slot = N;
  if (!Created[N.index()]) {
    NodeType[N.index()] = Ty;
    onCreate(N);
  }
  return N;
}

NodeId SubtransitiveGraph::exprNode(ExprId E) {
  // Resize-preserving: the module can grow underneath a live graph (the
  // delta layer appends definition subtrees), and existing entries must
  // survive — `lookupExprNode` serves freeze and queries from this table.
  if (NodeOfExpr.size() < M.numExprs())
    NodeOfExpr.resize(M.numExprs(), NodeId::invalid());
  NodeId &Slot = NodeOfExpr[E.index()];
  if (Slot.isValid())
    return Slot;
  return canonicalizeBase(M.expr(E)->type(), NodeOp::Expr, E.index(), Slot);
}

NodeId SubtransitiveGraph::varNode(VarId V) {
  if (NodeOfVar.size() < M.numVars())
    NodeOfVar.resize(M.numVars(), NodeId::invalid());
  if (VarType.size() < M.numVars())
    VarType.resize(M.numVars(), TypeId::invalid());
  NodeId &Slot = NodeOfVar[V.index()];
  if (Slot.isValid())
    return Slot;
  return canonicalizeBase(VarType[V.index()], NodeOp::Var, V.index(), Slot);
}

NodeId SubtransitiveGraph::labelNode(LabelId L) {
  NodeId N = getNode(NodeOp::Label, L.index(), 0);
  if (!Created[N.index()])
    onCreate(N);
  return N;
}

TypeId SubtransitiveGraph::derivedType(NodeOp Op, NodeId Base,
                                       uint32_t Tag) const {
  const TypeTable &TT = M.types();
  TypeId BaseTy = NodeType[Base.index()];
  switch (Op) {
  case NodeOp::Dom:
    if (BaseTy.isValid() && TT.type(BaseTy).Kind == TypeKind::Arrow)
      return TT.type(BaseTy).Args[0];
    return TypeId::invalid();
  case NodeOp::Ran:
    if (BaseTy.isValid() && TT.type(BaseTy).Kind == TypeKind::Arrow)
      return TT.type(BaseTy).Args[1];
    return TypeId::invalid();
  case NodeOp::RefCell:
    if (BaseTy.isValid() && TT.type(BaseTy).Kind == TypeKind::Ref)
      return TT.type(BaseTy).Args[0];
    return TypeId::invalid();
  case NodeOp::Field:
    if (tagIsTuple(Tag)) {
      if (BaseTy.isValid() && TT.type(BaseTy).Kind == TypeKind::Tuple &&
          tagIndex(Tag) < TT.type(BaseTy).Args.size())
        return TT.type(BaseTy).Args[tagIndex(Tag)];
      return TypeId::invalid();
    }
    return M.con(ConId(tagConOrArity(Tag))).ArgTypes[tagIndex(Tag)];
  default:
    assert(false && "not a derived node op");
    return TypeId::invalid();
  }
}

NodeId SubtransitiveGraph::derived(NodeOp Op, NodeId Base, uint32_t Tag) {
  // All derivatives of Top are Top.
  if (Top.isValid() && Base == Top)
    return Top;

  // Fast path: the (op, base, tag) alias was resolved before.
  switch (Op) {
  case NodeOp::Dom:
    if (NodeId N = DomOf[Base.index()]; N.isValid())
      return N;
    break;
  case NodeOp::Ran:
    if (NodeId N = RanOf[Base.index()]; N.isValid())
      return N;
    break;
  case NodeOp::RefCell:
    if (NodeId N = RefCellOf[Base.index()]; N.isValid())
      return N;
    break;
  case NodeOp::Field:
    for (const auto &[T, N] : FieldsOf[Base.index()])
      if (T == Tag)
        return N;
    break;
  default:
    assert(false && "not a derived node op");
  }

  TypeId Ty = derivedType(Op, Base, Tag);
  NodeId Canonical;
  bool Decon = InvolvesDecon[Base.index()] || Op == NodeOp::Field;
  if (Config.Congruence == CongruenceMode::ByType && isDataType(Ty)) {
    Canonical = getNode(NodeOp::Summary, Ty.index(), 0);
  } else if (Config.Congruence == CongruenceMode::ByBaseAndType &&
             isDataType(Ty) && Decon) {
    Canonical = getNode(NodeOp::Summary2, NodeRoot[Base.index()].index(),
                        Ty.index());
  } else if (NodeDepth[Base.index()] + 1 > Config.MaxNodeDepth) {
    ++Stats.Widenings;
    return topNode();
  } else {
    Canonical = getNode(Op, Base.index(), Tag);
  }

  bool IsNew = !Created[Canonical.index()];
  if (IsNew) {
    NodeType[Canonical.index()] = Ty;
    NodeRoot[Canonical.index()] = op(Canonical) == NodeOp::Summary ||
                                          op(Canonical) == NodeOp::Summary2
                                      ? Canonical
                                      : NodeRoot[Base.index()];
    NodeDepth[Canonical.index()] = NodeDepth[Base.index()] + 1;
    InvolvesDecon[Canonical.index()] = Decon;
  }

  // Fill the cache, registering the (op, base, tag) alias so demand events
  // can scan the base's edges even when several aliases share one
  // summary node.  (The cache-miss above guarantees this runs once per
  // alias.)
  switch (Op) {
  case NodeOp::Dom:
    DomOf[Base.index()] = Canonical;
    break;
  case NodeOp::Ran:
    RanOf[Base.index()] = Canonical;
    break;
  case NodeOp::RefCell:
    RefCellOf[Base.index()] = Canonical;
    break;
  default:
    FieldsOf[Base.index()].emplace_back(Tag, Canonical);
    break;
  }
  if (isSummary(op(Canonical)))
    AliasesOf[Canonical.index()].push_back({Op, Base, Tag});
  if (Demanded[Canonical.index()])
    PendingDemand.push_back({Op, Base, Tag});

  if (IsNew)
    onCreate(Canonical);
  return Canonical;
}

NodeId SubtransitiveGraph::lookupLabelNode(LabelId L) const {
  uint32_t Slot = NodeIndex.lookup(nodeKey(NodeOp::Label, L.index(), 0), ~0u);
  return Slot == ~0u ? NodeId::invalid() : NodeId(Slot);
}

NodeId SubtransitiveGraph::lookupDerived(NodeOp Op, NodeId Base,
                                         uint32_t Tag) const {
  if (Top.isValid() && Base == Top)
    return Top;
  switch (Op) {
  case NodeOp::Dom:
    return DomOf[Base.index()];
  case NodeOp::Ran:
    return RanOf[Base.index()];
  case NodeOp::RefCell:
    return RefCellOf[Base.index()];
  case NodeOp::Field:
    for (const auto &[T, N] : FieldsOf[Base.index()])
      if (T == Tag)
        return N;
    return NodeId::invalid();
  default:
    assert(false && "not a derived node op");
    return NodeId::invalid();
  }
}

NodeId SubtransitiveGraph::domNode(NodeId Base) {
  return derived(NodeOp::Dom, Base, 0);
}
NodeId SubtransitiveGraph::ranNode(NodeId Base) {
  return derived(NodeOp::Ran, Base, 0);
}
NodeId SubtransitiveGraph::refCellNode(NodeId Base) {
  return derived(NodeOp::RefCell, Base, 0);
}
NodeId SubtransitiveGraph::conFieldNode(ConId Con, uint32_t Index,
                                        NodeId Base) {
  return derived(NodeOp::Field, Base, packTag(false, Con.index(), Index));
}
NodeId SubtransitiveGraph::tupleFieldNode(uint32_t Index, NodeId Base) {
  return derived(NodeOp::Field, Base, packTag(true, 0, Index));
}

void SubtransitiveGraph::onCreate(NodeId N) {
  Created[N.index()] = true;
  if (Config.Policy != ClosurePolicy::PaperExact)
    setDemanded(N);
  if (Config.Policy == ClosurePolicy::Undemanded)
    materializeTemplate(N);
}

void SubtransitiveGraph::setDemanded(NodeId N) {
  if (Demanded[N.index()])
    return;
  Demanded[N.index()] = true;
  pushAliases(N);
}

void SubtransitiveGraph::pushAliases(NodeId N) {
  switch (NodeOp Op = op(N)) {
  case NodeOp::Dom:
  case NodeOp::Ran:
  case NodeOp::RefCell:
  case NodeOp::Field:
    PendingDemand.push_back(
        {Op, NodeId(PayloadA[N.index()]), PayloadB[N.index()]});
    return;
  case NodeOp::Summary:
  case NodeOp::Summary2:
    for (const Alias &A : AliasesOf[N.index()])
      PendingDemand.push_back(A);
    return;
  default:
    return; // occurrences, binders, labels and Top are never aliases
  }
}

void SubtransitiveGraph::materializeTemplate(NodeId N) {
  uint64_t Key = N.index() + 1;
  if (!MaterializedSet.insert(Key))
    return;
  TypeId Ty = NodeType[N.index()];
  if (!Ty.isValid())
    return;
  const Type &T = M.types().type(Ty);
  switch (T.Kind) {
  case TypeKind::Arrow:
    domNode(N);
    ranNode(N);
    break;
  case TypeKind::Tuple:
    for (uint32_t I = 0; I != T.Args.size(); ++I)
      tupleFieldNode(I, N);
    break;
  case TypeKind::Ref:
    refCellNode(N);
    break;
  case TypeKind::Data:
    if (const DataDecl *D = M.findData(T.Name)) {
      for (ConId C : D->Cons)
        for (uint32_t I = 0; I != M.con(C).ArgTypes.size(); ++I)
          conFieldNode(C, I, N);
    }
    break;
  default:
    break;
  }
}

void SubtransitiveGraph::addEdge(NodeId A, NodeId B) {
  if (A == B)
    return;
  if (Journal)
    Journal->push_back({A, B});
  uint64_t Key = (uint64_t(A.index()) + 1) << 32 | (uint64_t(B.index()) + 1);
  if (!EdgeSet.insert(Key))
    return;
  if (InClosePhase)
    ++Stats.CloseEdges;
  else
    ++Stats.BuildEdges;
  uint32_t E = static_cast<uint32_t>(Edges.size());
  Edges.push_back({A, B, FirstOut[A.index()], FirstIn[B.index()]});
  FirstOut[A.index()] = E;
  FirstIn[B.index()] = E;
  setDemanded(B);
}

LabelId SubtransitiveGraph::labelOf(NodeId N) const {
  switch (op(N)) {
  case NodeOp::Expr: {
    const Expr *E = M.expr(ExprId(PayloadA[N.index()]));
    if (const auto *Lam = dyn_cast<LamExpr>(E))
      return Lam->label();
    return LabelId::invalid();
  }
  case NodeOp::Label:
    return LabelId(PayloadA[N.index()]);
  default:
    return LabelId::invalid();
  }
}

void SubtransitiveGraph::build() {
  assert(!Built && "build() called twice");
  Built = true;
  Span BuildSpan("build");
  // Empirically ~1.5 nodes per syntax node on realistic programs (E6),
  // and build plus close add a little over two edges per syntax node.
  reserveNodes(M.numExprs() + M.numExprs() / 2);
  EdgeSet.reserve(size_t(M.numExprs()) * 2);
  forEachExprPreorder(M, M.root(),
                      [&](ExprId Id, const Expr *E) { buildExpr(Id, E); });
  BuildSpan.arg("nodes", Stats.BuildNodes);
  BuildSpan.arg("edges", Stats.BuildEdges);
}

void SubtransitiveGraph::buildFragment(ExprId FragmentRoot) {
  assert(!Built && "buildFragment() after build()");
  Built = true;
  forEachExprPreorder(M, FragmentRoot,
                      [&](ExprId Id, const Expr *E) { buildExpr(Id, E); });
}

void SubtransitiveGraph::setExternalizedVars(std::vector<bool> Flags) {
  assert(!Built && "setExternalizedVars() after build()");
  assert(Flags.size() == M.numVars() && "flag vector size mismatch");
  Externalized = std::move(Flags);
}

void SubtransitiveGraph::buildExpr(ExprId Id, const Expr *E) {
  NodeId N = exprNode(Id);
  auto isExternalized = [&](VarId V) {
    return !Externalized.empty() && Externalized[V.index()];
  };
  switch (E->kind()) {
  case ExprKind::Var: {
    VarId V = cast<VarExpr>(E)->var();
    if (!isExternalized(V))
      addEdge(N, varNode(V));
    return;
  }
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    addEdge(varNode(L->param()), domNode(N)); // ABS-1
    addEdge(ranNode(N), exprNode(L->body())); // ABS-2
    return;
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    NodeId Fn = exprNode(A->fn());
    addEdge(domNode(Fn), exprNode(A->arg())); // APP-1
    addEdge(N, ranNode(Fn));                  // APP-2
    return;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    if (!isExternalized(L->var()))
      addEdge(varNode(L->var()), exprNode(L->init()));
    addEdge(N, exprNode(L->body()));
    return;
  }
  case ExprKind::LetRecN: {
    const auto *L = cast<LetRecNExpr>(E);
    for (const LetRecNExpr::Binding &B : L->bindings())
      if (!isExternalized(B.Var))
        addEdge(varNode(B.Var), exprNode(B.Init));
    addEdge(N, exprNode(L->body()));
    return;
  }
  case ExprKind::Lit:
    return;
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    addEdge(N, exprNode(I->thenExpr()));
    addEdge(N, exprNode(I->elseExpr()));
    return;
  }
  case ExprKind::Tuple: {
    const auto *T = cast<TupleExpr>(E);
    for (uint32_t I = 0; I != T->elems().size(); ++I)
      addEdge(tupleFieldNode(I, N), exprNode(T->elems()[I]));
    return;
  }
  case ExprKind::Proj: {
    const auto *P = cast<ProjExpr>(E);
    addEdge(N, tupleFieldNode(P->index(), exprNode(P->tuple())));
    return;
  }
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    for (uint32_t I = 0; I != C->args().size(); ++I)
      addEdge(conFieldNode(C->con(), I, N), exprNode(C->args()[I]));
    return;
  }
  case ExprKind::Case: {
    const auto *C = cast<CaseExpr>(E);
    NodeId Scrut = exprNode(C->scrutinee());
    for (const CaseArm &Arm : C->arms()) {
      addEdge(N, exprNode(Arm.Body));
      for (uint32_t I = 0; I != Arm.Binders.size(); ++I)
        addEdge(varNode(Arm.Binders[I]), conFieldNode(Arm.Con, I, Scrut));
    }
    return;
  }
  case ExprKind::Prim: {
    const auto *P = cast<PrimExpr>(E);
    switch (P->op()) {
    case PrimOp::RefNew:
      addEdge(refCellNode(N), exprNode(P->args()[0]));
      return;
    case PrimOp::RefGet:
      addEdge(N, refCellNode(exprNode(P->args()[0])));
      return;
    case PrimOp::RefSet:
      addEdge(refCellNode(exprNode(P->args()[0])), exprNode(P->args()[1]));
      return;
    default:
      return; // arithmetic/printing produce no tracked values
    }
  }
  }
  assert(false && "unknown expression kind");
}

Status SubtransitiveGraph::close(const Deadline &D,
                                 const CancellationToken &Token) {
  assert(Built && "close() before build()");
  InClosePhase = true;
  Span CloseSpan("close");
  Timer CloseTimer;
  const size_t NodesBefore = Ops.size(), EdgesBefore = Edges.size();
  uint64_t Polls = 0;
  auto finish = [&](Status S) {
    static Counter &Runs = counter("close.runs");
    static Counter &AbortsC = counter("close.aborts");
    static Counter &EdgesAdded = counter("close.edges_added");
    static Counter &NodesAdded = counter("close.nodes_added");
    static Counter &PollsC = counter("close.checkpoint_polls");
    static Histogram &Millis =
        histogram("close.millis", latencyBucketsMillis());
    Runs.inc();
    if (!S.isOk())
      AbortsC.inc();
    EdgesAdded.add(Edges.size() - EdgesBefore);
    NodesAdded.add(Ops.size() - NodesBefore);
    PollsC.add(Polls);
    Millis.observe(static_cast<uint64_t>(CloseTimer.millis()));
    CloseSpan.arg("nodes_added", Ops.size() - NodesBefore);
    CloseSpan.arg("edges_added", Edges.size() - EdgesBefore);
    CloseSpan.arg("checkpoint_polls", Polls);
    CloseSpan.arg("rule_firings", Stats.CloseRuleFirings);
    CloseSpan.arg("status", statusCodeName(S.code()));
    CloseStatus = std::move(S);
    return CloseStatus;
  };
  auto governedStop = [&](Status S) {
    Aborted = true;
    return finish(std::move(S));
  };
  // Budgets are O(1) compares, checked every iteration; the clock, the
  // token, and the fault points are polled once per stride (and on the
  // first iteration, so tiny inputs still hit the checkpoint).
  constexpr uint32_t GovernorStride = 1024;
  uint32_t Stride = 0;
  while (DemandCursor != PendingDemand.size() ||
         NextUnprocessedEdge != Edges.size()) {
    if ((Config.MaxNodes != 0 && Ops.size() > Config.MaxNodes) ||
        faultFires(fault::CloseNodeBudget))
      return governedStop(Status::resourceExhausted(
          "close phase exceeded the node budget (" +
          std::to_string(Config.MaxNodes) + ")"));
    if ((Config.MaxEdges != 0 && Edges.size() > Config.MaxEdges) ||
        faultFires(fault::CloseEdgeBudget))
      return governedStop(Status::resourceExhausted(
          "close phase exceeded the edge budget (" +
          std::to_string(Config.MaxEdges) + ")"));
    if (Stride++ % GovernorStride == 0) {
      ++Polls;
      if (Token.cancelled() || faultFires(fault::CloseCancel))
        return governedStop(Status::cancelled("close phase cancelled"));
      if (D.expired() || faultFires(fault::CloseDeadline))
        return governedStop(
            Status::deadlineExceeded("close phase exceeded its deadline"));
      if (faultFires(fault::CloseAlloc))
        return governedStop(
            Status::outOfMemory("close phase node-arena allocation failed"));
    }
    if (DemandCursor != PendingDemand.size()) {
      Alias A = PendingDemand[DemandCursor++];
      processDemand(A);
      continue;
    }
    const EdgeRec &E = Edges[NextUnprocessedEdge++];
    if (!E.From.isValid())
      continue; // tombstoned by the delta layer's retraction
    processEdge(E.From, E.To);
  }
  Closed = true;
  return finish(Status::ok());
}

void SubtransitiveGraph::processEdge(NodeId A, NodeId B) {
  // CLOSE-DOM': n1 -> n2 with dom(n2) demanded  ==>  dom(n2) -> dom(n1).
  if (NodeId D = DomOf[B.index()]; D.isValid() && Demanded[D.index()]) {
    ++Stats.CloseRuleFirings;
    addEdge(D, domNode(A));
  }
  // CLOSE-RAN': n1 -> n2 with ran(n1) demanded  ==>  ran(n1) -> ran(n2).
  if (NodeId R = RanOf[A.index()]; R.isValid() && Demanded[R.index()]) {
    ++Stats.CloseRuleFirings;
    addEdge(R, ranNode(B));
  }
  // Covariant deconstructor fields (Section 6).  Index-based loop: the
  // vector may grow while we create field nodes over B.
  for (size_t I = 0; I != FieldsOf[A.index()].size(); ++I) {
    auto [Tag, F] = FieldsOf[A.index()][I];
    if (Demanded[F.index()]) {
      ++Stats.CloseRuleFirings;
      addEdge(F, derived(NodeOp::Field, B, Tag));
    }
  }
  // Ref cells are invariant: close in both directions.
  if (NodeId R = RefCellOf[A.index()];
      R.isValid() && Demanded[R.index()]) {
    ++Stats.CloseRuleFirings;
    addEdge(R, refCellNode(B));
  }
  if (NodeId R = RefCellOf[B.index()];
      R.isValid() && Demanded[R.index()]) {
    ++Stats.CloseRuleFirings;
    addEdge(R, refCellNode(A));
  }
}

void SubtransitiveGraph::processDemand(const Alias &A) {
  NodeId Base = A.Base;
  NodeId Canonical = derived(A.Op, Base, A.Tag);
  // New edges prepend to the adjacency lists, so ranges captured here are
  // stable snapshots; edges added later re-fire through the per-edge
  // rules.
  switch (A.Op) {
  case NodeOp::Dom:
    for (NodeId X : preds(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, domNode(X));
    }
    return;
  case NodeOp::Ran:
    for (NodeId Y : succs(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, ranNode(Y));
    }
    return;
  case NodeOp::Field:
    for (NodeId Y : succs(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, derived(NodeOp::Field, Y, A.Tag));
    }
    return;
  case NodeOp::RefCell:
    for (NodeId Y : succs(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, refCellNode(Y));
    }
    for (NodeId X : preds(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, refCellNode(X));
    }
    return;
  default:
    assert(false && "demand event for a non-derived op");
  }
}

void SubtransitiveGraph::removeEdgeForDelta(NodeId A, NodeId B) {
  uint64_t Key = (uint64_t(A.index()) + 1) << 32 | (uint64_t(B.index()) + 1);
  if (!EdgeSet.erase(Key))
    return;
  // Find the pool entry through A's out list and unlink it there.
  uint32_t Idx = NoEdge;
  for (uint32_t *L = &FirstOut[A.index()]; *L != NoEdge;
       L = &Edges[*L].NextOut)
    if (Edges[*L].To == B) {
      Idx = *L;
      *L = Edges[Idx].NextOut;
      break;
    }
  assert(Idx != NoEdge && "edge set and adjacency lists out of sync");
  for (uint32_t *L = &FirstIn[B.index()]; *L != NoEdge; L = &Edges[*L].NextIn)
    if (*L == Idx) {
      *L = Edges[Idx].NextIn;
      break;
    }
  // Tombstone in place; the pool never compacts, so indices stay stable.
  Edges[Idx].From = NodeId::invalid();
  Edges[Idx].To = NodeId::invalid();
}

void SubtransitiveGraph::appendConsequencesForDelta(
    NodeId A, NodeId B, std::vector<std::pair<NodeId, NodeId>> &Out) const {
  // Mirror of `processEdge`: the conclusions each rule family could have
  // drawn from (A, B), restricted to node pairs that were actually
  // materialised.  (The widening path leaves `DomOf`/`RanOf` unfilled for
  // edges into `Top`; the delta layer refuses to run once a Top node
  // exists, so nothing is missed here.)
  if (NodeId DB = DomOf[B.index()]; DB.isValid())
    if (NodeId DA = DomOf[A.index()]; DA.isValid())
      Out.push_back({DB, DA}); // CLOSE-DOM'
  if (NodeId RA = RanOf[A.index()]; RA.isValid())
    if (NodeId RB = RanOf[B.index()]; RB.isValid())
      Out.push_back({RA, RB}); // CLOSE-RAN'
  for (const auto &[Tag, FA] : FieldsOf[A.index()])
    if (NodeId FB = lookupDerived(NodeOp::Field, B, Tag); FB.isValid())
      Out.push_back({FA, FB}); // covariant fields
  if (NodeId CA = RefCellOf[A.index()]; CA.isValid())
    if (NodeId CB = RefCellOf[B.index()]; CB.isValid()) {
      Out.push_back({CA, CB}); // ref cells are invariant:
      Out.push_back({CB, CA}); // both directions
    }
}

void SubtransitiveGraph::requeueAliasesForDelta(NodeId N) { pushAliases(N); }

void SubtransitiveGraph::notifyModuleGrown() {
  if (NodeOfExpr.size() < M.numExprs())
    NodeOfExpr.resize(M.numExprs(), NodeId::invalid());
  if (NodeOfVar.size() < M.numVars())
    NodeOfVar.resize(M.numVars(), NodeId::invalid());
  if (VarType.size() < M.numVars())
    VarType.resize(M.numVars(), TypeId::invalid());
  if (!Externalized.empty() && Externalized.size() < M.numVars())
    Externalized.resize(M.numVars(), false);
}

std::string SubtransitiveGraph::describe(NodeId N) const {
  switch (op(N)) {
  case NodeOp::Expr:
    return describeExpr(M, ExprId(PayloadA[N.index()]));
  case NodeOp::Var:
    return "var:" + std::string(M.text(M.var(VarId(PayloadA[N.index()])).Name));
  case NodeOp::Dom:
    return "dom(" + describe(NodeId(PayloadA[N.index()])) + ")";
  case NodeOp::Ran:
    return "ran(" + describe(NodeId(PayloadA[N.index()])) + ")";
  case NodeOp::RefCell:
    return "refcell(" + describe(NodeId(PayloadA[N.index()])) + ")";
  case NodeOp::Field: {
    uint32_t Tag = PayloadB[N.index()];
    std::string Head =
        tagIsTuple(Tag)
            ? "#" + std::to_string(tagIndex(Tag) + 1)
            : std::string(M.text(M.con(ConId(tagConOrArity(Tag))).Name)) +
                  "~" + std::to_string(tagIndex(Tag) + 1);
    return Head + "(" + describe(NodeId(PayloadA[N.index()])) + ")";
  }
  case NodeOp::Label:
    return "label:" + std::to_string(PayloadA[N.index()]);
  case NodeOp::Summary:
    return "summary[" +
           M.types().render(TypeId(PayloadA[N.index()]), M.strings()) + "]";
  case NodeOp::Summary2:
    return "summary2[" + describe(NodeId(PayloadA[N.index()])) + ":" +
           M.types().render(TypeId(PayloadB[N.index()]), M.strings()) + "]";
  case NodeOp::Top:
    return "top";
  }
  assert(false && "unknown node op");
  return "?";
}
