//===-- ast/Module.h - Program container and factories ----------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Module` owns one analysed program: the expression arena, the variable
/// binder table, the abstraction-label table, and the data-constructor
/// environment.  Front ends (the parser and the programmatic `Builder` used
/// by generators and tests) populate it; all analyses consume it read-only.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_AST_MODULE_H
#define STCFA_AST_MODULE_H

#include "ast/Expr.h"
#include "support/Arena.h"
#include "types/Type.h"

#include <algorithm>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>

namespace stcfa {

/// Metadata for one variable binder.
struct VarInfo {
  Symbol Name;
  /// The binding expression: a `LamExpr`, `LetExpr`, or `CaseExpr`.
  /// Invalid while the binder's expression is still under construction.
  ExprId Binder;
};

/// Metadata for one data constructor.
struct ConInfo {
  Symbol Name;
  /// The datatype this constructor belongs to.
  Symbol DataName;
  /// Declared field types (resolved into the module's `TypeTable`).
  std::vector<TypeId> ArgTypes;
  /// Result datatype as a `TypeId` (a `Data` type node).
  TypeId ResultType;
};

/// One `data` declaration.
struct DataDecl {
  Symbol Name;
  std::vector<ConId> Cons;
};

/// Owns a complete program.
///
/// Expression nodes live in a bump arena owned by the module, so a module
/// can be neither copied nor moved: the arena lives exactly as long as the
/// module whose expressions it holds.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;
  Module(Module &&) = delete;
  Module &operator=(Module &&) = delete;

  //===--------------------------------------------------------------------==//
  // Access
  //===--------------------------------------------------------------------==//

  /// The program body.
  ExprId root() const { return Root; }
  void setRoot(ExprId E) { Root = E; }

  const Expr *expr(ExprId Id) const {
    assert(Id.isValid() && Id.index() < Exprs.size() && "bad expression id");
    return Exprs[Id.index()].get();
  }
  Expr *expr(ExprId Id) {
    assert(Id.isValid() && Id.index() < Exprs.size() && "bad expression id");
    return Exprs[Id.index()].get();
  }

  /// Number of expression occurrences (the paper's program size `n`).
  uint32_t numExprs() const { return static_cast<uint32_t>(Exprs.size()); }
  uint32_t numVars() const { return static_cast<uint32_t>(Vars.size()); }
  /// Number of abstraction labels.
  uint32_t numLabels() const { return static_cast<uint32_t>(Lams.size()); }
  uint32_t numCons() const { return static_cast<uint32_t>(Cons.size()); }

  const VarInfo &var(VarId Id) const { return Vars[Id.index()]; }
  const ConInfo &con(ConId Id) const { return Cons[Id.index()]; }
  /// The abstraction carrying label \p L.
  ExprId lamOfLabel(LabelId L) const { return Lams[L.index()]; }
  const std::vector<DataDecl> &dataDecls() const { return Datas; }

  /// Looks up a constructor by name; returns an invalid id if unknown.
  ConId findCon(Symbol Name) const {
    auto It = ConIndex.find(Name);
    return It == ConIndex.end() ? ConId::invalid() : It->second;
  }

  /// Looks up a datatype declaration index by name; returns ~0u if unknown.
  const DataDecl *findData(Symbol Name) const {
    for (const DataDecl &D : Datas)
      if (D.Name == Name)
        return &D;
    return nullptr;
  }

  StringInterner &strings() { return Strings; }
  const StringInterner &strings() const { return Strings; }

  /// The module's type interner; populated by the parser (constructor
  /// signatures) and by `sema` (inference results on expressions).
  TypeTable &types() { return Types; }
  const TypeTable &types() const { return Types; }

  /// Shorthand: interns \p Text.
  Symbol sym(std::string_view Text) { return Strings.intern(Text); }
  /// Shorthand: text of \p S.
  std::string_view text(Symbol S) const { return Strings.text(S); }

  //===--------------------------------------------------------------------==//
  // Construction
  //===--------------------------------------------------------------------==//

  /// Registers a variable binder; `Binder` is patched once the binding
  /// expression exists (see `setVarBinder`).
  VarId makeVar(Symbol Name) {
    VarId Id(static_cast<uint32_t>(Vars.size()));
    Vars.push_back({Name, ExprId::invalid()});
    return Id;
  }

  void setVarBinder(VarId Var, ExprId Binder) {
    Vars[Var.index()].Binder = Binder;
  }

  /// Renames a binder (the delta layer's `rename` edit — alpha-conversion
  /// never changes analysis answers, so it is metadata-only).
  void setVarName(VarId Var, Symbol Name) { Vars[Var.index()].Name = Name; }

  /// Records the exclusive end position of \p E's surface extent (parser
  /// only; builder-made expressions keep their degenerate point ranges).
  void setExprEnd(ExprId E, SourceLoc End) { expr(E)->setEndLoc(End); }

  /// Declares a constructor of datatype \p DataName.
  ConId makeCon(Symbol Name, Symbol DataName, std::vector<TypeId> ArgTypes,
                TypeId ResultType) {
    assert(!findCon(Name).isValid() && "duplicate constructor");
    ConId Id(static_cast<uint32_t>(Cons.size()));
    Cons.push_back({Name, DataName, std::move(ArgTypes), ResultType});
    ConIndex.emplace(Name, Id);
    return Id;
  }

  /// Records a `data` declaration.
  void addDataDecl(Symbol Name, std::vector<ConId> DeclCons) {
    Datas.push_back({Name, std::move(DeclCons)});
  }

  ExprId makeVarRef(SourceLoc Loc, VarId Var) {
    return make<VarExpr>(Loc, Var);
  }

  ExprId makeLam(SourceLoc Loc, VarId Param, ExprId Body) {
    LabelId Label(static_cast<uint32_t>(Lams.size()));
    ExprId Id = make<LamExpr>(Loc, Label, Param, Body);
    Lams.push_back(Id);
    setVarBinder(Param, Id);
    return Id;
  }

  ExprId makeApp(SourceLoc Loc, ExprId Fn, ExprId Arg) {
    return make<AppExpr>(Loc, Fn, Arg);
  }

  ExprId makeLet(SourceLoc Loc, VarId Var, ExprId Init, ExprId Body,
                 bool IsRec) {
    ExprId Id = make<LetExpr>(Loc, Var, Init, Body, IsRec);
    setVarBinder(Var, Id);
    return Id;
  }

  ExprId makeLetRecN(SourceLoc Loc,
                     std::vector<LetRecNExpr::Binding> Bindings,
                     ExprId Body) {
    ExprId Id = make<LetRecNExpr>(Loc, std::move(Bindings), Body);
    for (const LetRecNExpr::Binding &B :
         cast<LetRecNExpr>(expr(Id))->bindings())
      setVarBinder(B.Var, Id);
    return Id;
  }

  ExprId makeIntLit(SourceLoc Loc, int64_t Value) {
    return make<LitExpr>(Loc, Value);
  }
  ExprId makeBoolLit(SourceLoc Loc, bool Value) {
    return make<LitExpr>(Loc, Value);
  }
  ExprId makeUnitLit(SourceLoc Loc) { return make<LitExpr>(Loc); }
  ExprId makeStringLit(SourceLoc Loc, Symbol Value) {
    return make<LitExpr>(Loc, Value);
  }

  ExprId makeIf(SourceLoc Loc, ExprId Cond, ExprId Then, ExprId Else) {
    return make<IfExpr>(Loc, Cond, Then, Else);
  }

  ExprId makeTuple(SourceLoc Loc, std::vector<ExprId> Elems) {
    return make<TupleExpr>(Loc, std::move(Elems));
  }

  ExprId makeProj(SourceLoc Loc, uint32_t Index, ExprId Tuple) {
    return make<ProjExpr>(Loc, Index, Tuple);
  }

  ExprId makeCon(SourceLoc Loc, ConId Con, std::vector<ExprId> Args) {
    return make<ConExpr>(Loc, Con, std::move(Args));
  }

  ExprId makeCase(SourceLoc Loc, ExprId Scrutinee, std::vector<CaseArm> Arms) {
    ExprId Id = make<CaseExpr>(Loc, Scrutinee, std::move(Arms));
    for (const CaseArm &Arm : cast<CaseExpr>(expr(Id))->arms())
      for (VarId B : Arm.Binders)
        setVarBinder(B, Id);
    return Id;
  }

  ExprId makePrim(SourceLoc Loc, PrimOp Op, std::vector<ExprId> Args) {
    return make<PrimExpr>(Loc, Op, std::move(Args));
  }

private:
  /// Constructs a `T` with the next id in the arena and appends it.
  template <typename T, typename... ArgTs> ExprId make(ArgTs &&...Args) {
    ExprId Id(static_cast<uint32_t>(Exprs.size()));
    void *Mem = Arena.allocate(sizeof(T), alignof(T));
    Exprs.emplace_back(new (Mem) T(Id, std::forward<ArgTs>(Args)...));
    return Id;
  }

  /// Declared before `Exprs`, so it outlives the in-place destructors
  /// `Exprs` runs on destruction.
  BumpArena Arena;
  std::vector<ExprPtr> Exprs;
  std::vector<VarInfo> Vars;
  std::vector<ExprId> Lams;
  std::vector<ConInfo> Cons;
  std::vector<DataDecl> Datas;
  std::unordered_map<Symbol, ConId> ConIndex;
  ExprId Root;
  StringInterner Strings;
  TypeTable Types;
};

/// Invokes \p Fn on each direct child of \p E, left to right.
template <typename FnT>
void forEachChild(const Expr *E, FnT Fn) {
  switch (E->kind()) {
  case ExprKind::Var:
  case ExprKind::Lit:
    return;
  case ExprKind::Lam:
    Fn(cast<LamExpr>(E)->body());
    return;
  case ExprKind::App:
    Fn(cast<AppExpr>(E)->fn());
    Fn(cast<AppExpr>(E)->arg());
    return;
  case ExprKind::Let:
    Fn(cast<LetExpr>(E)->init());
    Fn(cast<LetExpr>(E)->body());
    return;
  case ExprKind::LetRecN:
    for (const LetRecNExpr::Binding &B : cast<LetRecNExpr>(E)->bindings())
      Fn(B.Init);
    Fn(cast<LetRecNExpr>(E)->body());
    return;
  case ExprKind::If:
    Fn(cast<IfExpr>(E)->cond());
    Fn(cast<IfExpr>(E)->thenExpr());
    Fn(cast<IfExpr>(E)->elseExpr());
    return;
  case ExprKind::Tuple:
    for (ExprId C : cast<TupleExpr>(E)->elems())
      Fn(C);
    return;
  case ExprKind::Proj:
    Fn(cast<ProjExpr>(E)->tuple());
    return;
  case ExprKind::Con:
    for (ExprId C : cast<ConExpr>(E)->args())
      Fn(C);
    return;
  case ExprKind::Case:
    Fn(cast<CaseExpr>(E)->scrutinee());
    for (const CaseArm &Arm : cast<CaseExpr>(E)->arms())
      Fn(Arm.Body);
    return;
  case ExprKind::Prim:
    for (ExprId C : cast<PrimExpr>(E)->args())
      Fn(C);
    return;
  }
  assert(false && "unknown expression kind");
}

/// Invokes \p Fn on every expression reachable from \p RootId (including it),
/// parents before children.
template <typename FnT>
void forEachExprPreorder(const Module &M, ExprId RootId, FnT Fn) {
  std::vector<ExprId> Stack{RootId};
  while (!Stack.empty()) {
    ExprId Id = Stack.back();
    Stack.pop_back();
    const Expr *E = M.expr(Id);
    Fn(Id, E);
    // Push children, then reverse the new segment so they pop
    // left-to-right (no per-node allocation; this is on the hot path of
    // every analysis's build pass).
    size_t Mark = Stack.size();
    forEachChild(E, [&](ExprId C) { Stack.push_back(C); });
    std::reverse(Stack.begin() + Mark, Stack.end());
  }
}

} // namespace stcfa

#endif // STCFA_AST_MODULE_H
