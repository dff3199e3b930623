//===-- parser/Parser.h - Recursive-descent parser --------------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing a scope-resolved `Module`.
///
/// Grammar (see README for the full description):
///
/// \code
///   program  := item* expr
///   item     := 'data' UIdent '=' conDef ('|' conDef)* ';'
///             | ('let'|'letrec') ident '=' expr ';'
///   conDef   := UIdent ('(' type (',' type)* ')')?
///   type     := tyAtom ('->' type)?
///   tyAtom   := 'Int' | 'Bool' | 'Unit' | 'String' | 'Ref' tyAtom
///             | UIdent | '(' type (',' type)* ')'
///   expr     := 'fn' ident '=>' expr
///             | ('let'|'letrec') ident '=' expr 'in' expr
///             | 'if' expr 'then' expr 'else' expr
///             | assign
///   assign   := compare (':=' assign)?
///   compare  := add (('<'|'<='|'==') add)?
///   add      := mul (('+'|'-') mul)*
///   mul      := apps (('*'|'/') apps)*
///   apps     := prefix+
///   prefix   := ('not'|'print'|'ref'|'!') prefix | atom
///   atom     := ident | UIdent ('(' expr (',' expr)* ')')?
///             | INT | STRING | 'true' | 'false' | 'unit' | '(' ')'
///             | '#' INT atom | '(' expr (',' expr)* ')'
///             | 'case' expr 'of' arm ('|' arm)* 'end'
///   arm      := UIdent ('(' ident (',' ident)* ')')? '=>' expr
/// \endcode
///
/// Scope resolution happens during parsing; variables must be bound,
/// constructors declared (with matching arity), and `letrec` initializers
/// must be abstractions.  Datatype names may be referenced before their
/// declaration; unresolved names are reported after the whole program is
/// parsed.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_PARSER_PARSER_H
#define STCFA_PARSER_PARSER_H

#include "ast/Module.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace stcfa {

/// Parses \p Source into a fresh module.  Returns nullptr (with diagnostics
/// in \p Diags) on any error.
std::unique_ptr<Module> parseProgram(std::string_view Source,
                                     DiagnosticEngine &Diags);

//===--- fragment parsing (the delta layer) --------------------------------//
//
// The edit-delta layer (src/delta) re-parses *one definition at a time*
// into a live module instead of re-parsing the whole program.  Both entry
// points append to \p M only — a failed parse leaves at most unreachable
// garbage subtrees, never dangling references — and resolve free names
// through an explicit environment instead of the whole-program scope
// stack.  The expression/binder creation order matches what `parseProgram`
// would produce for the same text in context; the delta layer's
// canonical<->shadow id mapping relies on that.

/// The free names a fragment resolves from outside itself: each name maps
/// to the binder of its latest `bind`.  The delta layer grows one of these
/// across a program's definitions, so parsing definition K costs the size
/// of its text, not K.
class FragmentEnv {
public:
  void bind(Symbol Name, VarId Binder) {
    if (Name.index() >= BinderOf.size())
      BinderOf.resize(Name.index() + 1, VarId::invalid());
    BinderOf[Name.index()] = Binder;
  }

  /// The binder \p Name resolves to; invalid when unbound.
  VarId lookup(Symbol Name) const {
    return Name.index() < BinderOf.size() ? BinderOf[Name.index()]
                                          : VarId::invalid();
  }

private:
  std::vector<VarId> BinderOf; // indexed by Symbol
};

/// One top-level definition parsed in isolation.
struct FragmentDef {
  Symbol Name;
  bool IsRec = false;
  /// The definition's binder: `ReuseBinder` when the caller supplied one
  /// (a replace edit keeps the old binder so downstream references stay
  /// resolved), otherwise freshly created.
  VarId Binder;
  ExprId Init;
};

/// Parses `let <name> = <expr>;` or `letrec <name> = <expr>;` into \p M,
/// resolving free names through \p Env.  Multi-binding
/// `letrec ... and ...` groups and `data` declarations are rejected.
/// Returns false with diagnostics in \p Diags on any error.
bool parseTopDefFragment(Module &M, std::string_view Text,
                         const FragmentEnv &Env, DiagnosticEngine &Diags,
                         FragmentDef &Out,
                         VarId ReuseBinder = VarId::invalid());

/// Parses one bare expression (e.g. a replacement program body) into \p M
/// under \p Env.  Returns an invalid id with diagnostics on error.
ExprId parseExprFragment(Module &M, std::string_view Text,
                         const FragmentEnv &Env, DiagnosticEngine &Diags);

} // namespace stcfa

#endif // STCFA_PARSER_PARSER_H
