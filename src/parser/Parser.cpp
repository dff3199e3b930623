//===-- parser/Parser.cpp - Recursive-descent parser ----------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "parser/Lexer.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <unordered_map>

using namespace stcfa;

namespace {

/// The parser proper.  On the first error `Failed` is set and every entry
/// point returns an invalid id; callers bail out promptly.
class ParserImpl {
public:
  ParserImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Lex(Source, Diags), Diags(Diags),
        Owned(std::make_unique<Module>()), M(Owned.get()) {
    Tok = Lex.next();
  }

  /// Fragment mode: parse into an existing module (the delta layer's
  /// shadow module).  The module is only appended to; on failure the
  /// appended subtrees are unreachable garbage, never dangling.
  ParserImpl(std::string_view Source, DiagnosticEngine &Diags,
             Module &Existing)
      : Lex(Source, Diags), Diags(Diags), M(&Existing) {
    Tok = Lex.next();
  }

  std::unique_ptr<Module> run();

  /// Parses one `let name = expr;` / `letrec name = expr;` item with the
  /// given name environment in scope.  See `parseTopDefFragment`.
  bool runTopDefFragment(const FragmentEnv &Env, FragmentDef &Out,
                         VarId ReuseBinder);

  /// Parses one bare expression with the given environment in scope.
  ExprId runExprFragment(const FragmentEnv &Env);

private:
  //===--- token plumbing --------------------------------------------------//

  void bump() {
    // Track the end of the last consumed token: when a production
    // finishes, `PrevEnd` is the exclusive end of its source extent.
    PrevEnd = Tok.End;
    Tok = Lex.next();
  }

  /// Stamps \p E's end position with the end of the last consumed token.
  /// Every `M->make*` result funnels through here so all parsed
  /// expressions carry a full `[start, end)` span.
  ExprId fin(ExprId E) {
    if (E.isValid() && PrevEnd.isValid())
      M->setExprEnd(E, PrevEnd);
    return E;
  }

  bool at(TokenKind K) const { return Tok.Kind == K; }

  bool eat(TokenKind K) {
    if (!at(K))
      return false;
    bump();
    return true;
  }

  void expect(TokenKind K, const char *What) {
    if (eat(K))
      return;
    fail(std::string("expected ") + What);
  }

  void fail(std::string Message) {
    if (!Failed)
      Diags.errorRange({Tok.Loc, Tok.End}, std::move(Message));
    Failed = true;
  }

  //===--- recursion guard --------------------------------------------------//
  //
  // Every self-recursive grammar production passes through enter()/leave()
  // on one shared depth counter, so deeply nested input of *any* shape —
  // parens, prefix chains (`!!!...x`), projection chains (`#1 #1 ...`),
  // arrow/`Ref` types — produces a diagnostic instead of a stack overflow.

  bool enter(const char *What) {
    if (Depth >= MaxDepth) {
      fail(std::string(What) + " nesting too deep");
      return false;
    }
    ++Depth;
    return true;
  }

  void leave() { --Depth; }

  //===--- scopes ----------------------------------------------------------//

  VarId bindVar(Symbol Name) {
    VarId Id = M->makeVar(Name);
    Scopes[Name].push_back(Id);
    return Id;
  }

  void unbindVar(Symbol Name) {
    auto It = Scopes.find(Name);
    assert(It != Scopes.end() && !It->second.empty() && "unbalanced scope");
    It->second.pop_back();
  }

  /// The innermost binder of \p Name: a local one, else the fragment
  /// environment's.
  VarId lookupVar(Symbol Name) {
    auto It = Scopes.find(Name);
    if (It == Scopes.end() || It->second.empty())
      return outerVar(Name);
    return It->second.back();
  }

  VarId outerVar(Symbol Name) const {
    return Env ? Env->lookup(Name) : VarId::invalid();
  }

  //===--- grammar ---------------------------------------------------------//

  void parseDataDecl();
  TypeId parseType();
  TypeId parseTypeImpl();
  TypeId parseTypeAtom();
  ExprId parseExpr();
  ExprId parseExprImpl();

  /// A variable occurrence that referred forward to a later member of a
  /// `letrec ... and ...` group; patched when the group closes.
  struct PendingRef {
    ExprId Ref;
    Symbol Name;
    SourceLoc Loc;
  };

  /// Parses `name = init (and name = init)*` after `letrec`, leaving all
  /// names bound in scope.  Forward references among the inits are
  /// deferred and patched here; references that would resolve to an outer
  /// binding shadowed by a group member are rejected (ML scopes every
  /// group name over every initializer).
  bool parseRecBindings(std::vector<Symbol> &Names,
                        std::vector<LetRecNExpr::Binding> &Bindings);
  ExprId parseAssign();
  ExprId parseCompare();
  ExprId parseAdditive();
  ExprId parseMultiplicative();
  ExprId parseApps();
  ExprId parsePrefix();
  ExprId parseAtom();
  ExprId parseCase(SourceLoc Loc);
  ExprId parseParenOrTuple(SourceLoc Loc);

  /// True if the current token can begin a `prefix` expression (and hence
  /// continue an application chain).
  bool startsOperand() const {
    switch (Tok.Kind) {
    case TokenKind::Ident:
    case TokenKind::UIdent:
    case TokenKind::Int:
    case TokenKind::String:
    case TokenKind::KwTrue:
    case TokenKind::KwFalse:
    case TokenKind::KwUnit:
    case TokenKind::LParen:
    case TokenKind::Hash:
    case TokenKind::KwCase:
    case TokenKind::Bang:
    case TokenKind::KwNot:
    case TokenKind::KwPrint:
    case TokenKind::KwRef:
      return true;
    default:
      return false;
    }
  }

  /// Maximum expression nesting depth (each level costs several stack
  /// frames of recursive descent).
  static constexpr uint32_t MaxDepth = 1000;

  Lexer Lex;
  DiagnosticEngine &Diags;
  Token Tok;
  /// Exclusive end position of the last token `bump()` consumed.
  SourceLoc PrevEnd;
  uint32_t Depth = 0;
  bool Failed = false;
  /// Owned in whole-program mode; null in fragment mode, where `M` borrows
  /// the caller's module.
  std::unique_ptr<Module> Owned;
  Module *M;
  std::unordered_map<Symbol, std::vector<VarId>> Scopes;
  /// Fragment mode: the names bound outside the fragment, consulted when
  /// `Scopes` has no binder.  Null in whole-program mode.
  const FragmentEnv *Env = nullptr;
  /// One frame per letrec group currently being parsed.
  std::vector<std::vector<PendingRef>> PendingGroups;
  /// Datatype names referenced in types, for post-parse validation.
  std::vector<std::pair<Symbol, SourceLoc>> ReferencedDataNames;
  /// Names of declared datatypes.
  std::vector<Symbol> DeclaredDataNames;
};

} // namespace

std::unique_ptr<Module> ParserImpl::run() {
  struct TopBinding {
    SourceLoc Loc;
    std::vector<LetRecNExpr::Binding> Group; // singleton unless a rec group
    bool IsRec;
  };
  std::vector<TopBinding> Bindings;
  ExprId Final = ExprId::invalid();

  while (!Failed) {
    if (at(TokenKind::KwData)) {
      parseDataDecl();
      continue;
    }
    if (at(TokenKind::KwLetRec)) {
      SourceLoc Loc = Tok.Loc;
      bump();
      std::vector<Symbol> Names;
      std::vector<LetRecNExpr::Binding> GroupBindings;
      if (!parseRecBindings(Names, GroupBindings))
        break;
      if (eat(TokenKind::Semi)) {
        Bindings.push_back({Loc, std::move(GroupBindings), /*IsRec=*/true});
        continue;
      }
      expect(TokenKind::KwIn, "';' or 'in'");
      if (Failed)
        break;
      ExprId Body = parseExpr();
      if (Failed)
        break;
      for (size_t I = Names.size(); I != 0; --I)
        unbindVar(Names[I - 1]);
      Final = fin(GroupBindings.size() == 1
                      ? M->makeLet(Loc, GroupBindings[0].Var,
                                   GroupBindings[0].Init, Body, /*IsRec=*/true)
                      : M->makeLetRecN(Loc, std::move(GroupBindings), Body));
      break;
    }
    if (at(TokenKind::KwLet)) {
      SourceLoc Loc = Tok.Loc;
      bump();
      if (!at(TokenKind::Ident)) {
        fail("expected identifier after 'let'");
        break;
      }
      Symbol Name = M->sym(Tok.Text);
      bump();
      expect(TokenKind::Equal, "'='");
      ExprId Init = parseExpr();
      if (Failed)
        break;
      VarId Var = bindVar(Name);
      if (eat(TokenKind::Semi)) {
        Bindings.push_back({Loc, {{Var, Init}}, /*IsRec=*/false});
        continue;
      }
      expect(TokenKind::KwIn, "';' or 'in'");
      if (Failed)
        break;
      ExprId Body = parseExpr();
      if (Failed)
        break;
      unbindVar(Name);
      Final = fin(M->makeLet(Loc, Var, Init, Body, /*IsRec=*/false));
      break;
    }
    Final = parseExpr();
    break;
  }

  if (!Failed && !Final.isValid())
    fail("expected a program body expression");
  if (!Failed)
    expect(TokenKind::Eof, "end of input");

  // Validate datatype references.
  for (auto &[Name, Loc] : ReferencedDataNames) {
    bool Known = false;
    for (Symbol D : DeclaredDataNames)
      Known |= (D == Name);
    if (!Known) {
      Diags.error(Loc, "unknown type name '" + std::string(M->text(Name)) +
                           "'");
      Failed = true;
    }
  }

  if (Failed)
    return nullptr;

  // Fold the pending top-level bindings around the final expression,
  // innermost last.
  for (size_t I = Bindings.size(); I != 0; --I) {
    TopBinding &B = Bindings[I - 1];
    // The folded lets span to the end of the program body.
    if (B.Group.size() == 1)
      Final = fin(M->makeLet(B.Loc, B.Group[0].Var, B.Group[0].Init, Final,
                             B.IsRec));
    else
      Final = fin(M->makeLetRecN(B.Loc, std::move(B.Group), Final));
  }
  M->setRoot(Final);
  return std::move(Owned);
}

bool ParserImpl::runTopDefFragment(const FragmentEnv &OuterEnv,
                                   FragmentDef &Out, VarId ReuseBinder) {
  Env = &OuterEnv;

  Out.IsRec = at(TokenKind::KwLetRec);
  if (!eat(TokenKind::KwLetRec) && !eat(TokenKind::KwLet)) {
    fail("expected 'let' or 'letrec'");
    return false;
  }
  if (!at(TokenKind::Ident)) {
    fail("expected identifier after 'let'");
    return false;
  }
  Out.Name = M->sym(Tok.Text);
  SourceLoc Loc = Tok.Loc;
  bump();
  expect(TokenKind::Equal, "'='");
  if (Failed)
    return false;

  // Binder/initializer creation order mirrors `run()` exactly — the delta
  // layer's canonical<->shadow id arithmetic depends on it: a letrec binds
  // its name before the initializer, a plain let after.
  if (Out.IsRec) {
    Out.Binder = ReuseBinder.isValid() ? ReuseBinder : M->makeVar(Out.Name);
    Scopes[Out.Name].push_back(Out.Binder);
    Out.Init = parseExpr();
    if (Failed)
      return false;
    if (!isa<LamExpr>(M->expr(Out.Init))) {
      Diags.error(Loc, "letrec initializer must be an abstraction");
      Failed = true;
      return false;
    }
    if (at(TokenKind::KwAnd)) {
      fail("multi-binding letrec groups cannot be edited as fragments");
      return false;
    }
  } else {
    Out.Init = parseExpr();
    if (Failed)
      return false;
    Out.Binder = ReuseBinder.isValid() ? ReuseBinder : M->makeVar(Out.Name);
  }
  expect(TokenKind::Semi, "';' after the definition");
  if (!Failed)
    expect(TokenKind::Eof, "end of input");
  return !Failed;
}

ExprId ParserImpl::runExprFragment(const FragmentEnv &OuterEnv) {
  Env = &OuterEnv;
  ExprId E = parseExpr();
  if (!Failed)
    expect(TokenKind::Eof, "end of input");
  return Failed ? ExprId::invalid() : E;
}

bool ParserImpl::parseRecBindings(std::vector<Symbol> &Names,
                                  std::vector<LetRecNExpr::Binding> &Bindings) {
  PendingGroups.emplace_back();
  do {
    if (!at(TokenKind::Ident)) {
      fail("expected identifier after 'letrec'");
      break;
    }
    Symbol Name = M->sym(Tok.Text);
    SourceLoc Loc = Tok.Loc;
    bump();
    for (Symbol Prev : Names) {
      if (Prev == Name) {
        Diags.error(Loc, "duplicate name '" + std::string(M->text(Name)) +
                             "' in letrec group");
        Failed = true;
      }
    }
    expect(TokenKind::Equal, "'='");
    if (Failed)
      break;
    VarId Var = bindVar(Name);
    ExprId Init = parseExpr();
    if (Failed)
      break;
    if (!isa<LamExpr>(M->expr(Init))) {
      Diags.error(Loc, "letrec initializer must be an abstraction");
      Failed = true;
      break;
    }
    Names.push_back(Name);
    Bindings.push_back({Var, Init});
  } while (eat(TokenKind::KwAnd));

  // Patch forward references now that every group name is in scope;
  // unresolved names may still belong to an enclosing group.
  std::vector<PendingRef> Group = std::move(PendingGroups.back());
  PendingGroups.pop_back();
  for (const PendingRef &R : Group) {
    VarId V = lookupVar(R.Name);
    if (V.isValid()) {
      cast<VarExpr>(M->expr(R.Ref))->setVar(V);
      continue;
    }
    if (!PendingGroups.empty()) {
      PendingGroups.back().push_back(R);
      continue;
    }
    if (!Failed)
      Diags.error(R.Loc,
                  "unbound variable '" + std::string(M->text(R.Name)) + "'");
    Failed = true;
  }
  if (Failed)
    return false;

  // ML scopes every group name over every initializer, but this parser
  // resolves eagerly: an occurrence of a group name that bound to an
  // *outer* shadowed binding inside an earlier initializer would be
  // silently wrong — reject it instead.
  for (size_t I = 0; I != Names.size(); ++I) {
    auto It = Scopes.find(Names[I]);
    assert(It != Scopes.end() && It->second.size() >= 1);
    VarId Outer = It->second.size() >= 2 ? It->second[It->second.size() - 2]
                                         : outerVar(Names[I]);
    if (!Outer.isValid())
      continue;
    for (const LetRecNExpr::Binding &B : Bindings) {
      forEachExprPreorder(*M, B.Init, [&](ExprId, const Expr *E) {
        const auto *VE = dyn_cast<VarExpr>(E);
        if (VE && VE->isResolved() && VE->var() == Outer && !Failed) {
          // Appended, not `"'" + std::string(...)`: GCC 12's -O3
          // -Wrestrict misfires on that form (see the Release preset).
          std::string Message = "'";
          Message += M->text(Names[I]);
          Message += "' is shadowed by a later member of this letrec "
                     "group; rename one of them";
          Diags.error(M->expr(B.Init)->loc(), std::move(Message));
          Failed = true;
        }
      });
    }
  }
  return !Failed;
}

void ParserImpl::parseDataDecl() {
  SourceLoc Loc = Tok.Loc;
  bump(); // data
  if (!at(TokenKind::UIdent)) {
    fail("expected datatype name after 'data'");
    return;
  }
  Symbol DataName = M->sym(Tok.Text);
  bump();
  for (Symbol D : DeclaredDataNames) {
    if (D == DataName) {
      Diags.error(Loc, "duplicate datatype '" + std::string(M->text(DataName)) +
                           "'");
      Failed = true;
      return;
    }
  }
  DeclaredDataNames.push_back(DataName);
  expect(TokenKind::Equal, "'='");

  TypeId ResultType = M->types().dataType(DataName);
  std::vector<ConId> Cons;
  do {
    if (Failed)
      return;
    if (!at(TokenKind::UIdent)) {
      fail("expected constructor name");
      return;
    }
    Symbol ConName = M->sym(Tok.Text);
    SourceLoc ConLoc = Tok.Loc;
    bump();
    std::vector<TypeId> ArgTypes;
    if (eat(TokenKind::LParen)) {
      do {
        ArgTypes.push_back(parseType());
        if (Failed)
          return;
      } while (eat(TokenKind::Comma));
      expect(TokenKind::RParen, "')'");
    }
    if (M->findCon(ConName).isValid()) {
      Diags.error(ConLoc, "duplicate constructor '" +
                              std::string(M->text(ConName)) + "'");
      Failed = true;
      return;
    }
    Cons.push_back(M->makeCon(ConName, DataName, std::move(ArgTypes),
                              ResultType));
  } while (eat(TokenKind::Pipe));
  expect(TokenKind::Semi, "';' after data declaration");
  M->addDataDecl(DataName, std::move(Cons));
}

TypeId ParserImpl::parseType() {
  // Right-recursive arrow chains (`A -> A -> ...`) and nested tuple types
  // cost stack frames per level, exactly like expressions.
  if (!enter("type"))
    return M->types().unitType();
  TypeId Out = parseTypeImpl();
  leave();
  return Out;
}

TypeId ParserImpl::parseTypeImpl() {
  TypeId Left = parseTypeAtom();
  if (Failed)
    return Left;
  if (eat(TokenKind::Arrow)) {
    TypeId Right = parseType();
    return Failed ? Right : M->types().arrowType(Left, Right);
  }
  return Left;
}

TypeId ParserImpl::parseTypeAtom() {
  TypeTable &TT = M->types();
  if (at(TokenKind::UIdent)) {
    std::string_view Name = Tok.Text;
    SourceLoc Loc = Tok.Loc;
    bump();
    if (Name == "Int")
      return TT.intType();
    if (Name == "Bool")
      return TT.boolType();
    if (Name == "Unit")
      return TT.unitType();
    if (Name == "String")
      return TT.stringType();
    if (Name == "Ref") {
      // `Ref Ref Ref ... t` recurses without passing through parseType.
      if (!enter("type"))
        return TT.unitType();
      TypeId Inner = parseTypeAtom();
      leave();
      return TT.refType(Inner);
    }
    Symbol S = M->sym(Name);
    ReferencedDataNames.emplace_back(S, Loc);
    return TT.dataType(S);
  }
  if (eat(TokenKind::LParen)) {
    std::vector<TypeId> Fields;
    do {
      Fields.push_back(parseType());
      if (Failed)
        return Fields.back();
    } while (eat(TokenKind::Comma));
    expect(TokenKind::RParen, "')'");
    return Fields.size() == 1 ? Fields[0] : TT.tupleType(std::move(Fields));
  }
  fail("expected a type");
  return TT.unitType();
}

ExprId ParserImpl::parseExpr() {
  if (Failed)
    return ExprId::invalid();
  // Bound the recursive descent: deeply nested input must produce a
  // diagnostic, not a stack overflow.
  if (!enter("expression"))
    return ExprId::invalid();
  ExprId Out = parseExprImpl();
  leave();
  return Out;
}

ExprId ParserImpl::parseExprImpl() {
  SourceLoc Loc = Tok.Loc;

  if (eat(TokenKind::KwFn)) {
    if (!at(TokenKind::Ident)) {
      fail("expected parameter name after 'fn'");
      return ExprId::invalid();
    }
    Symbol Name = M->sym(Tok.Text);
    bump();
    expect(TokenKind::FatArrow, "'=>'");
    VarId Param = bindVar(Name);
    ExprId Body = parseExpr();
    unbindVar(Name);
    if (Failed)
      return ExprId::invalid();
    return fin(M->makeLam(Loc, Param, Body));
  }

  if (at(TokenKind::KwLetRec)) {
    bump();
    std::vector<Symbol> Names;
    std::vector<LetRecNExpr::Binding> Bindings;
    if (!parseRecBindings(Names, Bindings))
      return ExprId::invalid();
    expect(TokenKind::KwIn, "'in'");
    ExprId Body = parseExpr();
    for (size_t I = Names.size(); I != 0; --I)
      unbindVar(Names[I - 1]);
    if (Failed)
      return ExprId::invalid();
    if (Bindings.size() == 1)
      return fin(M->makeLet(Loc, Bindings[0].Var, Bindings[0].Init, Body,
                            /*IsRec=*/true));
    return fin(M->makeLetRecN(Loc, std::move(Bindings), Body));
  }

  if (at(TokenKind::KwLet)) {
    bump();
    if (!at(TokenKind::Ident)) {
      fail("expected identifier after 'let'");
      return ExprId::invalid();
    }
    Symbol Name = M->sym(Tok.Text);
    bump();
    expect(TokenKind::Equal, "'='");
    ExprId Init = parseExpr();
    if (Failed)
      return ExprId::invalid();
    VarId Var = bindVar(Name);
    expect(TokenKind::KwIn, "'in'");
    ExprId Body = parseExpr();
    unbindVar(Name);
    if (Failed)
      return ExprId::invalid();
    return fin(M->makeLet(Loc, Var, Init, Body, /*IsRec=*/false));
  }

  if (eat(TokenKind::KwIf)) {
    // All three positions admit full expressions; `then`/`else` terminate
    // the sub-parses, and a dangling `else` binds to the innermost `if`.
    ExprId Cond = parseExpr();
    expect(TokenKind::KwThen, "'then'");
    ExprId Then = parseExpr();
    expect(TokenKind::KwElse, "'else'");
    ExprId Else = parseExpr();
    if (Failed)
      return ExprId::invalid();
    return fin(M->makeIf(Loc, Cond, Then, Else));
  }

  return parseAssign();
}

ExprId ParserImpl::parseAssign() {
  ExprId Left = parseCompare();
  if (Failed)
    return ExprId::invalid();
  if (eat(TokenKind::Assign)) {
    // The right-hand side of `:=` admits full expressions (`r := fn x => x`
    // is common ML style).
    ExprId Right = parseExpr();
    if (Failed)
      return ExprId::invalid();
    return fin(M->makePrim(M->expr(Left)->loc(), PrimOp::RefSet, {Left, Right}));
  }
  return Left;
}

ExprId ParserImpl::parseCompare() {
  ExprId Left = parseAdditive();
  if (Failed)
    return ExprId::invalid();
  PrimOp Op;
  if (at(TokenKind::Less))
    Op = PrimOp::Lt;
  else if (at(TokenKind::LessEqual))
    Op = PrimOp::Le;
  else if (at(TokenKind::EqualEqual))
    Op = PrimOp::Eq;
  else
    return Left;
  bump();
  ExprId Right = parseAdditive();
  if (Failed)
    return ExprId::invalid();
  return fin(M->makePrim(M->expr(Left)->loc(), Op, {Left, Right}));
}

ExprId ParserImpl::parseAdditive() {
  ExprId Left = parseMultiplicative();
  while (!Failed && (at(TokenKind::Plus) || at(TokenKind::Minus))) {
    PrimOp Op = at(TokenKind::Plus) ? PrimOp::Add : PrimOp::Sub;
        bump();
    ExprId Right = parseMultiplicative();
    if (Failed)
      return ExprId::invalid();
    Left = fin(M->makePrim(M->expr(Left)->loc(), Op, {Left, Right}));
  }
  return Failed ? ExprId::invalid() : Left;
}

ExprId ParserImpl::parseMultiplicative() {
  ExprId Left = parseApps();
  while (!Failed && (at(TokenKind::Star) || at(TokenKind::Slash))) {
    PrimOp Op = at(TokenKind::Star) ? PrimOp::Mul : PrimOp::Div;
        bump();
    ExprId Right = parseApps();
    if (Failed)
      return ExprId::invalid();
    Left = fin(M->makePrim(M->expr(Left)->loc(), Op, {Left, Right}));
  }
  return Failed ? ExprId::invalid() : Left;
}

ExprId ParserImpl::parseApps() {
  ExprId Left = parsePrefix();
  while (!Failed && startsOperand()) {
        ExprId Arg = parsePrefix();
    if (Failed)
      return ExprId::invalid();
    Left = fin(M->makeApp(M->expr(Left)->loc(), Left, Arg));
  }
  return Failed ? ExprId::invalid() : Left;
}

ExprId ParserImpl::parsePrefix() {
  SourceLoc Loc = Tok.Loc;
  PrimOp Op;
  if (at(TokenKind::KwNot))
    Op = PrimOp::Not;
  else if (at(TokenKind::KwPrint))
    Op = PrimOp::Print;
  else if (at(TokenKind::KwRef))
    Op = PrimOp::RefNew;
  else if (at(TokenKind::Bang))
    Op = PrimOp::RefGet;
  else
    return parseAtom();
  bump();
  // Prefix chains (`!!!...x`, `ref ref ... x`) recurse without passing
  // through parseExpr, so they need their own depth accounting.
  if (!enter("expression"))
    return ExprId::invalid();
  ExprId Arg = parsePrefix();
  leave();
  if (Failed)
    return ExprId::invalid();
  return fin(M->makePrim(Loc, Op, {Arg}));
}

ExprId ParserImpl::parseAtom() {
  if (Failed)
    return ExprId::invalid();
  SourceLoc Loc = Tok.Loc;

  switch (Tok.Kind) {
  case TokenKind::Ident: {
    Symbol Name = M->sym(Tok.Text);
    VarId Var = lookupVar(Name);
    if (!Var.isValid()) {
      // Inside a letrec group this may be a forward reference to a later
      // member; defer resolution to the group close.
      if (!PendingGroups.empty()) {
        bump();
        ExprId Ref = fin(M->makeVarRef(Loc, VarId::invalid()));
        PendingGroups.back().push_back({Ref, Name, Loc});
        return Ref;
      }
      fail("unbound variable '" + std::string(Tok.Text) + "'");
      return ExprId::invalid();
    }
    bump();
    return fin(M->makeVarRef(Loc, Var));
  }
  case TokenKind::UIdent: {
    Symbol Name = M->sym(Tok.Text);
    ConId Con = M->findCon(Name);
    if (!Con.isValid()) {
      fail("unknown constructor '" + std::string(Tok.Text) + "'");
      return ExprId::invalid();
    }
    bump();
    size_t Arity = M->con(Con).ArgTypes.size();
    std::vector<ExprId> Args;
    if (Arity != 0) {
      expect(TokenKind::LParen, "'(' (constructor arguments)");
      do {
        Args.push_back(parseExpr());
        if (Failed)
          return ExprId::invalid();
      } while (eat(TokenKind::Comma));
      expect(TokenKind::RParen, "')'");
      if (!Failed && Args.size() != Arity) {
        fail("constructor '" + std::string(M->text(Name)) + "' expects " +
             std::to_string(Arity) + " arguments");
      }
    }
    if (Failed)
      return ExprId::invalid();
    return fin(M->makeCon(Loc, Con, std::move(Args)));
  }
  case TokenKind::Int: {
    int64_t Value = Tok.IntValue;
    bump();
    return fin(M->makeIntLit(Loc, Value));
  }
  case TokenKind::String: {
    Symbol S = M->sym(Tok.Text);
    bump();
    return fin(M->makeStringLit(Loc, S));
  }
  case TokenKind::KwTrue:
    bump();
    return fin(M->makeBoolLit(Loc, true));
  case TokenKind::KwFalse:
    bump();
    return fin(M->makeBoolLit(Loc, false));
  case TokenKind::KwUnit:
    bump();
    return fin(M->makeUnitLit(Loc));
  case TokenKind::Hash: {
    bump();
    if (!at(TokenKind::Int) || Tok.IntValue < 1) {
      fail("expected a positive field index after '#'");
      return ExprId::invalid();
    }
    uint32_t Index = static_cast<uint32_t>(Tok.IntValue - 1);
    bump();
    // Projection chains (`#1 #1 ... x`) recurse atom-to-atom.
    if (!enter("expression"))
      return ExprId::invalid();
    ExprId Tuple = parseAtom();
    leave();
    if (Failed)
      return ExprId::invalid();
    return fin(M->makeProj(Loc, Index, Tuple));
  }
  case TokenKind::KwCase:
    bump();
    return parseCase(Loc);
  case TokenKind::LParen:
    bump();
    return parseParenOrTuple(Loc);
  default:
    fail("expected an expression");
    return ExprId::invalid();
  }
}

ExprId ParserImpl::parseCase(SourceLoc Loc) {
  ExprId Scrutinee = parseExpr();
  expect(TokenKind::KwOf, "'of'");
  std::vector<CaseArm> Arms;
  do {
    if (Failed)
      return ExprId::invalid();
    if (!at(TokenKind::UIdent)) {
      fail("expected constructor pattern");
      return ExprId::invalid();
    }
    Symbol ConName = M->sym(Tok.Text);
    ConId Con = M->findCon(ConName);
    if (!Con.isValid()) {
      fail("unknown constructor '" + std::string(Tok.Text) + "'");
      return ExprId::invalid();
    }
    bump();
    size_t Arity = M->con(Con).ArgTypes.size();
    std::vector<VarId> Binders;
    std::vector<Symbol> BinderNames;
    if (Arity != 0) {
      expect(TokenKind::LParen, "'(' (pattern binders)");
      do {
        if (!at(TokenKind::Ident)) {
          fail("expected binder name in pattern");
          return ExprId::invalid();
        }
        Symbol B = M->sym(Tok.Text);
        bump();
        BinderNames.push_back(B);
        Binders.push_back(bindVar(B));
      } while (eat(TokenKind::Comma));
      expect(TokenKind::RParen, "')'");
      if (!Failed && Binders.size() != Arity)
        fail("pattern for '" + std::string(M->text(ConName)) + "' expects " +
             std::to_string(Arity) + " binders");
    }
    expect(TokenKind::FatArrow, "'=>'");
    // Arm bodies admit full expressions: `|` cannot begin an operand and
    // nested `case` is self-delimited by `end`, so there is no ambiguity.
    ExprId Body = Failed ? ExprId::invalid() : parseExpr();
    if (!Failed && !at(TokenKind::Pipe) && !at(TokenKind::KwEnd))
      fail("expected '|' or 'end' after case arm");
    for (size_t I = BinderNames.size(); I != 0; --I)
      unbindVar(BinderNames[I - 1]);
    if (Failed)
      return ExprId::invalid();
    Arms.push_back({Con, std::move(Binders), Body});
  } while (eat(TokenKind::Pipe));
  expect(TokenKind::KwEnd, "'end'");
  if (Failed)
    return ExprId::invalid();
  return fin(M->makeCase(Loc, Scrutinee, std::move(Arms)));
}

ExprId ParserImpl::parseParenOrTuple(SourceLoc Loc) {
  if (eat(TokenKind::RParen))
    return fin(M->makeUnitLit(Loc));
  std::vector<ExprId> Elems;
  do {
    Elems.push_back(parseExpr());
    if (Failed)
      return ExprId::invalid();
  } while (eat(TokenKind::Comma));
  expect(TokenKind::RParen, "')'");
  if (Failed)
    return ExprId::invalid();
  if (Elems.size() == 1)
    return Elems[0];
  return fin(M->makeTuple(Loc, std::move(Elems)));
}

// Case-arm body precedence note: arm bodies parse at `assign` level, so an
// abstraction or `let` in an arm must be parenthesized — the printer
// mirrors this.

std::unique_ptr<Module> stcfa::parseProgram(std::string_view Source,
                                            DiagnosticEngine &Diags) {
  Span ParseSpan("parse");
  ParseSpan.arg("source_bytes", Source.size());
  static Counter &Programs = counter("parse.programs");
  static Counter &Exprs = counter("parse.exprs");
  static Counter &Failures = counter("parse.failures");
  Programs.inc();
  ParserImpl P(Source, Diags);
  std::unique_ptr<Module> M = P.run();
  if (Diags.hasErrors()) {
    Failures.inc();
    ParseSpan.arg("status", "error");
    return nullptr;
  }
  Exprs.add(M->numExprs());
  ParseSpan.arg("exprs", M->numExprs());
  return M;
}

bool stcfa::parseTopDefFragment(Module &M, std::string_view Text,
                                const FragmentEnv &Env,
                                DiagnosticEngine &Diags, FragmentDef &Out,
                                VarId ReuseBinder) {
  static Counter &Fragments = counter("parse.fragments");
  static Counter &Failures = counter("parse.fragment_failures");
  Fragments.inc();
  ParserImpl P(Text, Diags, M);
  if (P.runTopDefFragment(Env, Out, ReuseBinder) && !Diags.hasErrors())
    return true;
  Failures.inc();
  return false;
}

ExprId stcfa::parseExprFragment(Module &M, std::string_view Text,
                                const FragmentEnv &Env,
                                DiagnosticEngine &Diags) {
  static Counter &Fragments = counter("parse.fragments");
  static Counter &Failures = counter("parse.fragment_failures");
  Fragments.inc();
  ParserImpl P(Text, Diags, M);
  ExprId E = P.runExprFragment(Env);
  if (!E.isValid() || Diags.hasErrors()) {
    Failures.inc();
    return ExprId::invalid();
  }
  return E;
}
