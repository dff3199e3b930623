//===-- delta/DeltaSubstrate.h - A delta view in canonical ids --*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lint and slice substrate of a delta epoch: the closed graph an
/// incremental edit already froze, re-addressed in the canonical ids of a
/// fresh parse of the spliced text.  The passes that walk a `Module`
/// beside the graph (lint, the dependence graph) then run exactly as they
/// do over a from-scratch pipeline, without re-inferring or re-solving
/// anything.
///
/// A substrate is one plain `parseProgram` of the spliced source (canonical
/// expression, binder and label ids plus `SourceRange`s; no type
/// inference — neither lint nor the dependence graph reads types) and one
/// `FrozenGraph` that borrows the view's CSR rows, node ops and `ran`
/// ports, and owns the four id-indexed tables remapped to canonical ids:
/// the occurrence and binder node maps, the per-node label array and the
/// per-label search roots.  Node numbering stays the shadow graph's, so
/// every pass must be (and is) independent of node order.  Garbage
/// subtrees of the shadow module keep their nodes, but no canonical id
/// maps to them and their labels read as "no label".
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_DELTA_DELTASUBSTRATE_H
#define STCFA_DELTA_DELTASUBSTRATE_H

#include "ast/Module.h"
#include "core/FrozenGraph.h"
#include "delta/DeltaSession.h"
#include "support/Status.h"

#include <memory>
#include <string_view>
#include <vector>

namespace stcfa {

/// A delta view plus the canonical module, as lint and slice consume them.
/// Borrows \p V's frozen tables: the view must outlive the substrate.
class DeltaSubstrate {
public:
  /// Parses \p Source (the view's spliced program text) and remaps \p V's
  /// graph to its ids.  Returns null with \p Out set to `Internal` when
  /// the text does not parse or its shape (expressions, binders, labels)
  /// differs from the view's: the view and the text are out of step, and
  /// no answer over them would be right.
  static std::unique_ptr<DeltaSubstrate> build(const DeltaView &V,
                                               std::string_view Source,
                                               Status &Out);

  const Module &module() const { return *M; }
  const FrozenGraph &frozen() const { return *F; }
  /// Wall time of the parse alone.
  double parseMillis() const { return ParseMs; }

private:
  DeltaSubstrate() = default;

  std::unique_ptr<Module> M;
  std::vector<uint32_t> NodeOfExpr, NodeOfVar, LabelAt, LabelRoots;
  std::unique_ptr<FrozenGraph> F;
  double ParseMs = 0;
};

} // namespace stcfa

#endif // STCFA_DELTA_DELTASUBSTRATE_H
