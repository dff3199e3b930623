//===-- ast/Expr.h - Expression AST for the mini-ML language ----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression AST of the analysed language: the labeled lambda calculus
/// of the paper (Section 2) extended, as in Section 6, with `let`/`letrec`,
/// conditionals, tuples with projection, data constructors with `case`, and
/// primitive operations including mutable references and the side-effecting
/// `print` (the hook for Section 8's effects analysis).
///
/// Each `Expr` is an *occurrence* with a dense `ExprId`; every abstraction
/// carries a unique `LabelId` (the paper's labels).  The class hierarchy
/// uses a `Kind` discriminator with `isa`/`cast`/`dyn_cast` helpers instead
/// of RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_AST_EXPR_H
#define STCFA_AST_EXPR_H

#include "support/Diagnostics.h"
#include "support/Ids.h"
#include "support/StringInterner.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace stcfa {

/// Discriminates the concrete expression classes.
enum class ExprKind : uint8_t {
  Var,
  Lam,
  App,
  Let,
  LetRecN, // mutually recursive binding group
  Lit,
  If,
  Tuple,
  Proj,
  Con,
  Case,
  Prim,
};

/// Primitive operations.  `isEffectfulPrim` distinguishes the ones the
/// effects analysis treats as side-effecting.
enum class PrimOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Lt,
  Le,
  Eq,
  Not,
  Print,  // effectful
  RefNew, // allocates a mutable cell
  RefGet, // reads a cell
  RefSet, // effectful: writes a cell
};

/// True for primitives the effects analysis seeds as side-effecting.
inline bool isEffectfulPrim(PrimOp Op) {
  return Op == PrimOp::Print || Op == PrimOp::RefSet;
}

/// Number of operands the primitive takes.
inline uint32_t primArity(PrimOp Op) {
  switch (Op) {
  case PrimOp::Not:
  case PrimOp::Print:
  case PrimOp::RefNew:
  case PrimOp::RefGet:
    return 1;
  case PrimOp::Add:
  case PrimOp::Sub:
  case PrimOp::Mul:
  case PrimOp::Div:
  case PrimOp::Lt:
  case PrimOp::Le:
  case PrimOp::Eq:
  case PrimOp::RefSet:
    return 2;
  }
  assert(false && "unknown primitive");
  return 0;
}

/// Returns the surface-syntax spelling of \p Op.
const char *primName(PrimOp Op);

/// Base class of all expressions.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  ExprId id() const { return Id; }
  SourceLoc loc() const { return Loc; }

  /// One past the last source character of this occurrence.  Falls back
  /// to `loc()` (a degenerate range) for programmatically built ASTs,
  /// which carry no surface extent.
  SourceLoc endLoc() const { return EndLoc.isValid() ? EndLoc : Loc; }
  /// The parser records the exclusive end position after finishing the
  /// production (see `Module::setExprEnd`).
  void setEndLoc(SourceLoc End) { EndLoc = End; }

  /// The full `[loc(), endLoc())` span.
  SourceRange range() const { return {Loc, endLoc()}; }

  /// The inferred monotype of this occurrence; invalid until inference ran.
  TypeId type() const { return Type; }
  void setType(TypeId T) { Type = T; }

protected:
  Expr(ExprKind Kind, ExprId Id, SourceLoc Loc)
      : Kind(Kind), Id(Id), Loc(Loc) {}

private:
  ExprKind Kind;
  ExprId Id;
  SourceLoc Loc;
  SourceLoc EndLoc;
  TypeId Type;
};

/// Destroys an expression in place through its dynamic kind and frees
/// nothing: the owning `Module`'s arena holds the memory.  `Expr`
/// deliberately has no virtual functions (kind-tag dispatch throughout),
/// so destroying through the base pointer needs this explicit dispatch.
struct ExprDeleter {
  void operator()(Expr *E) const;
};

/// Owning pointer for arena-stored expressions: ends the object's
/// lifetime (its child vectors own heap memory), not its storage.
using ExprPtr = std::unique_ptr<Expr, ExprDeleter>;

/// `isa<T>(E)`: true iff `E` is a `T`.  Mirrors LLVM's casting helpers.
template <typename T> bool isa(const Expr *E) {
  assert(E && "isa on null expression");
  return T::classof(E);
}

template <typename T> const T *cast(const Expr *E) {
  assert(isa<T>(E) && "cast to wrong expression kind");
  return static_cast<const T *>(E);
}

template <typename T> T *cast(Expr *E) {
  assert(isa<T>(E) && "cast to wrong expression kind");
  return static_cast<T *>(E);
}

template <typename T> const T *dyn_cast(const Expr *E) {
  return isa<T>(E) ? static_cast<const T *>(E) : nullptr;
}

/// A variable occurrence, resolved to its binder.
///
/// Inside a `letrec … and …` group the parser may create an occurrence
/// before its binder exists (a forward reference to a later group member);
/// it is patched via `setVar` when the group closes.  After parsing every
/// occurrence is resolved.
class VarExpr : public Expr {
public:
  VarExpr(ExprId Id, SourceLoc Loc, VarId Var)
      : Expr(ExprKind::Var, Id, Loc), Var(Var) {}

  VarId var() const {
    assert(Var.isValid() && "unresolved forward reference survived parsing");
    return Var;
  }

  /// False only transiently, while a forward reference inside a letrec
  /// group awaits patching.
  bool isResolved() const { return Var.isValid(); }

  /// Resolves a deferred forward reference (parser only).
  void setVar(VarId V) {
    assert(!Var.isValid() && "occurrence already resolved");
    Var = V;
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Var; }

private:
  VarId Var;
};

/// A labeled abstraction `fn x => e`.
class LamExpr : public Expr {
public:
  LamExpr(ExprId Id, SourceLoc Loc, LabelId Label, VarId Param, ExprId Body)
      : Expr(ExprKind::Lam, Id, Loc), Label(Label), Param(Param), Body(Body) {}

  LabelId label() const { return Label; }
  VarId param() const { return Param; }
  ExprId body() const { return Body; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Lam; }

private:
  LabelId Label;
  VarId Param;
  ExprId Body;
};

/// An application `e1 e2`.
class AppExpr : public Expr {
public:
  AppExpr(ExprId Id, SourceLoc Loc, ExprId Fn, ExprId Arg)
      : Expr(ExprKind::App, Id, Loc), Fn(Fn), Arg(Arg) {}

  ExprId fn() const { return Fn; }
  ExprId arg() const { return Arg; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::App; }

private:
  ExprId Fn;
  ExprId Arg;
};

/// `let x = e1 in e2` / `letrec f = fn ... in e2`.
class LetExpr : public Expr {
public:
  LetExpr(ExprId Id, SourceLoc Loc, VarId Var, ExprId Init, ExprId Body,
          bool IsRec)
      : Expr(ExprKind::Let, Id, Loc), Var(Var), Init(Init), Body(Body),
        IsRec(IsRec) {}

  VarId var() const { return Var; }
  ExprId init() const { return Init; }
  ExprId body() const { return Body; }
  /// True for `letrec`; the initializer may then reference `var()` and must
  /// be an abstraction (enforced by the parser).
  bool isRec() const { return IsRec; }

  /// Spine surgery for the delta layer: repoint this let at a replacement
  /// initializer / body subtree.  The old subtree stays in the module as
  /// unreferenced garbage (the module arena is append-only).
  void setInit(ExprId NewInit) { Init = NewInit; }
  void setBody(ExprId NewBody) { Body = NewBody; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Let; }

private:
  VarId Var;
  ExprId Init;
  ExprId Body;
  bool IsRec;
};

/// `letrec f = fn … and g = fn … in e`: a mutually recursive group.  All
/// binders scope over every initializer (which must be abstractions) and
/// over the body.
class LetRecNExpr : public Expr {
public:
  /// One binding of the group.
  struct Binding {
    VarId Var;
    ExprId Init;
  };

  LetRecNExpr(ExprId Id, SourceLoc Loc, std::vector<Binding> Bindings,
              ExprId Body)
      : Expr(ExprKind::LetRecN, Id, Loc), Bindings(std::move(Bindings)),
        Body(Body) {
    assert(this->Bindings.size() >= 2 &&
           "single recursive bindings use LetExpr");
  }

  const std::vector<Binding> &bindings() const { return Bindings; }
  ExprId body() const { return Body; }

  /// Spine surgery for the delta layer (see `LetExpr::setBody`).
  void setBody(ExprId NewBody) { Body = NewBody; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::LetRecN; }

private:
  std::vector<Binding> Bindings;
  ExprId Body;
};

/// The base-type literals.
enum class LitKind : uint8_t { Int, Bool, Unit, String };

/// A literal constant.
class LitExpr : public Expr {
public:
  LitExpr(ExprId Id, SourceLoc Loc, int64_t Value)
      : Expr(ExprKind::Lit, Id, Loc), Lit(LitKind::Int), IntValue(Value) {}
  LitExpr(ExprId Id, SourceLoc Loc, bool Value)
      : Expr(ExprKind::Lit, Id, Loc), Lit(LitKind::Bool),
        IntValue(Value ? 1 : 0) {}
  LitExpr(ExprId Id, SourceLoc Loc)
      : Expr(ExprKind::Lit, Id, Loc), Lit(LitKind::Unit), IntValue(0) {}
  LitExpr(ExprId Id, SourceLoc Loc, Symbol Value)
      : Expr(ExprKind::Lit, Id, Loc), Lit(LitKind::String), Str(Value) {}

  LitKind litKind() const { return Lit; }
  int64_t intValue() const {
    assert(Lit == LitKind::Int && "not an int literal");
    return IntValue;
  }
  bool boolValue() const {
    assert(Lit == LitKind::Bool && "not a bool literal");
    return IntValue != 0;
  }
  Symbol stringValue() const {
    assert(Lit == LitKind::String && "not a string literal");
    return Str;
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Lit; }

private:
  LitKind Lit;
  int64_t IntValue = 0;
  Symbol Str;
};

/// `if e1 then e2 else e3`.
class IfExpr : public Expr {
public:
  IfExpr(ExprId Id, SourceLoc Loc, ExprId Cond, ExprId Then, ExprId Else)
      : Expr(ExprKind::If, Id, Loc), Cond(Cond), Then(Then), Else(Else) {}

  ExprId cond() const { return Cond; }
  ExprId thenExpr() const { return Then; }
  ExprId elseExpr() const { return Else; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::If; }

private:
  ExprId Cond;
  ExprId Then;
  ExprId Else;
};

/// A tuple `(e1, ..., en)` with n >= 2 (the paper's records).
class TupleExpr : public Expr {
public:
  TupleExpr(ExprId Id, SourceLoc Loc, std::vector<ExprId> Elems)
      : Expr(ExprKind::Tuple, Id, Loc), Elems(std::move(Elems)) {
    assert(this->Elems.size() >= 2 && "tuples have at least two fields");
  }

  const std::vector<ExprId> &elems() const { return Elems; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Tuple; }

private:
  std::vector<ExprId> Elems;
};

/// A projection `#j e` (0-based `index()`, 1-based in surface syntax).
class ProjExpr : public Expr {
public:
  ProjExpr(ExprId Id, SourceLoc Loc, uint32_t Index, ExprId Tuple)
      : Expr(ExprKind::Proj, Id, Loc), Index(Index), Tuple(Tuple) {}

  uint32_t index() const { return Index; }
  ExprId tuple() const { return Tuple; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Proj; }

private:
  uint32_t Index;
  ExprId Tuple;
};

/// A saturated data-constructor application `C(e1, ..., en)`.
class ConExpr : public Expr {
public:
  ConExpr(ExprId Id, SourceLoc Loc, ConId Con, std::vector<ExprId> Args)
      : Expr(ExprKind::Con, Id, Loc), Con(Con), Args(std::move(Args)) {}

  ConId con() const { return Con; }
  const std::vector<ExprId> &args() const { return Args; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Con; }

private:
  ConId Con;
  std::vector<ExprId> Args;
};

/// One arm of a `case`: `C(x1, ..., xn) => body`.
struct CaseArm {
  ConId Con;
  std::vector<VarId> Binders;
  ExprId Body;
};

/// `case e of C1(xs) => e1 | ... end`.
class CaseExpr : public Expr {
public:
  CaseExpr(ExprId Id, SourceLoc Loc, ExprId Scrutinee,
           std::vector<CaseArm> Arms)
      : Expr(ExprKind::Case, Id, Loc), Scrutinee(Scrutinee),
        Arms(std::move(Arms)) {}

  ExprId scrutinee() const { return Scrutinee; }
  const std::vector<CaseArm> &arms() const { return Arms; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Case; }

private:
  ExprId Scrutinee;
  std::vector<CaseArm> Arms;
};

/// A saturated primitive application `op(e1, ..., en)`.
class PrimExpr : public Expr {
public:
  PrimExpr(ExprId Id, SourceLoc Loc, PrimOp Op, std::vector<ExprId> Args)
      : Expr(ExprKind::Prim, Id, Loc), Op(Op), Args(std::move(Args)) {
    assert(this->Args.size() == primArity(Op) && "prim arity mismatch");
  }

  PrimOp op() const { return Op; }
  const std::vector<ExprId> &args() const { return Args; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Prim; }

private:
  PrimOp Op;
  std::vector<ExprId> Args;
};

} // namespace stcfa

#endif // STCFA_AST_EXPR_H
