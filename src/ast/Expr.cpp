//===-- ast/Expr.cpp - Expression AST helpers -----------------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ast/Expr.h"

using namespace stcfa;

void ExprDeleter::operator()(Expr *E) const {
  if (!E)
    return;
  switch (E->kind()) {
  case ExprKind::Var:
    static_cast<VarExpr *>(E)->~VarExpr();
    return;
  case ExprKind::Lam:
    static_cast<LamExpr *>(E)->~LamExpr();
    return;
  case ExprKind::App:
    static_cast<AppExpr *>(E)->~AppExpr();
    return;
  case ExprKind::Let:
    static_cast<LetExpr *>(E)->~LetExpr();
    return;
  case ExprKind::LetRecN:
    static_cast<LetRecNExpr *>(E)->~LetRecNExpr();
    return;
  case ExprKind::Lit:
    static_cast<LitExpr *>(E)->~LitExpr();
    return;
  case ExprKind::If:
    static_cast<IfExpr *>(E)->~IfExpr();
    return;
  case ExprKind::Tuple:
    static_cast<TupleExpr *>(E)->~TupleExpr();
    return;
  case ExprKind::Proj:
    static_cast<ProjExpr *>(E)->~ProjExpr();
    return;
  case ExprKind::Con:
    static_cast<ConExpr *>(E)->~ConExpr();
    return;
  case ExprKind::Case:
    static_cast<CaseExpr *>(E)->~CaseExpr();
    return;
  case ExprKind::Prim:
    static_cast<PrimExpr *>(E)->~PrimExpr();
    return;
  }
  assert(false && "unknown expression kind");
}

const char *stcfa::primName(PrimOp Op) {
  switch (Op) {
  case PrimOp::Add:
    return "+";
  case PrimOp::Sub:
    return "-";
  case PrimOp::Mul:
    return "*";
  case PrimOp::Div:
    return "/";
  case PrimOp::Lt:
    return "<";
  case PrimOp::Le:
    return "<=";
  case PrimOp::Eq:
    return "==";
  case PrimOp::Not:
    return "not";
  case PrimOp::Print:
    return "print";
  case PrimOp::RefNew:
    return "ref";
  case PrimOp::RefGet:
    return "!";
  case PrimOp::RefSet:
    return ":=";
  }
  assert(false && "unknown primitive");
  return "?";
}
