//===-- serve/Epoch.h - Versioned analysis epochs for serve mode *- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An `Epoch` is one immutable loaded analysis: a `Pipeline` that is
/// either the live hybrid ladder (cache miss — the degradation ladder
/// decides which engine serves) or an engine over an mmap-backed snapshot
/// (cache hit — the crash-safe warm-restart path), or else the frozen
/// view an incremental edit published (a delta epoch).  A delta epoch
/// serves `lint` and `slice` from that same view, re-addressed in the
/// canonical ids of one plain parse of the spliced text
/// (`DeltaSubstrate`): an edit never re-infers or re-solves the program
/// for its diagnostics.  Epochs
/// are reference-counted via `shared_ptr`: a `load` installs a new epoch
/// while requests already dispatched keep answering against the one they
/// resolved at accept time; the old mapping is unmapped when the last
/// such reference drains (watch the `serve.epochs_live` gauge).
///
/// Query entry points serialize on an internal mutex — `QueryEngine` is
/// explicitly not re-entrant from multiple external threads, and the
/// daemon's worker pool is exactly such a caller.  Batched work still
/// shards across the process's shared lane pool under the lock.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SERVE_EPOCH_H
#define STCFA_SERVE_EPOCH_H

#include "core/QueryEngine.h"
#include "delta/DeltaSession.h"
#include "delta/DeltaSubstrate.h"
#include "lint/LintEngine.h"
#include "pipeline/Pipeline.h"
#include "slice/Slicer.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace stcfa {
namespace serve {

/// One loaded program at one version.  Immutable after construction
/// apart from the engine's internal scratch (guarded by `Mu`).
class Epoch {
public:
  /// Pipeline epoch: \p P served some answer.  It is either the live
  /// hybrid ladder (cache miss, edit fallback) or an engine over a mapped
  /// snapshot with the module reparsed beside it (cache hit).
  Epoch(uint64_t Id, std::unique_ptr<Pipeline> P);

  /// Delta epoch: published by an incremental `edit`.  The view's frozen
  /// snapshot uses the edit session's internal (shadow) numbering;
  /// queries translate between it and the canonical ids clients speak
  /// through the view's id maps.  \p Source is the session's current
  /// (spliced) source text: there is no module up front, but `lint` and
  /// `slice` parse it on first demand and run over the view's own graph
  /// in the parse's ids — the answers are bit-exact with a fresh full
  /// load of the same text.  \p Threads and \p KernelThreshold configure
  /// the view's query engine.
  Epoch(uint64_t Id, DeltaView V, std::string Source, unsigned Threads,
        size_t KernelThreshold);

  ~Epoch();

  Epoch(const Epoch &) = delete;
  Epoch &operator=(const Epoch &) = delete;

  uint64_t id() const { return EpochId; }

  /// The serving engine: "delta" for a delta epoch, "snapshot" for a
  /// mapped one, else the hybrid ladder's rung ("subtransitive",
  /// "standard", "partial").
  const char *engine() const;

  /// The CSR snapshot behind the query engine; null when the ladder
  /// degraded past the subtransitive rung (no frozen tables exist).
  const FrozenGraph *frozen() const;

  /// Admission cost in governor node units: CSR nodes when frozen,
  /// occurrence count under a degraded engine (its table reads scale
  /// with the program, not a graph).
  uint64_t cost() const;

  /// Canonical program shape (what clients address); for a delta epoch
  /// these come from the view, not a module.
  uint32_t numExprs() const { return CanonExprs; }
  uint32_t numLabels() const { return CanonLabels; }
  ExprId root() const { return RootId; }

  //===--- queries (thread-safe; serialized on the epoch mutex) ----------//

  Status labelsOf(ExprId E, const Deadline &D, DenseBitset &Out);
  Status isLabelIn(ExprId E, LabelId L, const Deadline &D, bool &Out);
  Status occurrencesOf(LabelId L, const Deadline &D,
                       std::vector<ExprId> &Out);
  /// One set per occurrence; `Done[I]` false for slots a governed batch
  /// left unanswered (status then says why).
  Status allLabels(const Deadline &D, std::vector<DenseBitset> &Out,
                   std::vector<char> &Done);

  /// Runs the checker passes under \p D.  Requires frozen tables: a
  /// degraded epoch returns `FailedPrecondition` (lint needs the
  /// subtransitive graph's ports, which the cubic and partial rungs never
  /// build).  On a delta epoch the view's substrate serves; a deadline
  /// that expires mid-run marks the passes it stopped partial, exactly as
  /// on a pipeline epoch.
  Status lint(const std::vector<std::string> &Passes, const Deadline &D,
              unsigned Threads, LintResult &Out);

  /// One slice answer, serve-shaped: canonical member occurrence ids and
  /// (when requested) one rendered witness chain per member.
  struct SliceReply {
    std::vector<ExprId> Members;
    std::vector<std::string> Witnesses; ///< parallel to Members, or empty
    bool Partial = false;
    /// Time this answer spent building the epoch's dependence graph
    /// (`DependenceGraph::buildMillis`); 0 when it was already cached.
    double GraphBuildMs = 0;
  };

  /// Demand-driven slice from \p Target over the epoch's dependence
  /// graph (built lazily, cached for the epoch's lifetime).  Same
  /// precondition as `lint`; delta epochs answer from the view's
  /// substrate.  An expired deadline before the start refuses; a governed
  /// abort mid-traversal returns Ok with `Out.Partial` set (slices are
  /// usable under-approximations).
  Status slice(ExprId Target, SliceDirection Dir, bool Witness,
               const Deadline &D, SliceReply &Out);

private:
  bool isDelta() const { return View.Frozen != nullptr; }

  /// Canonical ids to the serving engine's numbering (a delta view's
  /// shadow ids; the identity on a pipeline epoch) and a label row back.
  ExprId toEngine(ExprId E) const {
    return isDelta() ? ExprId(View.ExprToShadow[E.index()]) : E;
  }
  LabelId toEngine(LabelId L) const {
    return isDelta() ? LabelId(View.LabelToShadow[L.index()]) : L;
  }
  DenseBitset fromEngine(DenseBitset Row) const;

  /// The module and frozen tables lint and slice run over: a pipeline
  /// epoch's own, or a delta epoch's `DeltaSubstrate`, built on first
  /// demand and kept.  That build is a parse and a linear remap and is
  /// not governed: the request's deadline governs the passes over it.
  /// `FailedPrecondition`, naming \p Pass, when a pipeline epoch has no
  /// frozen tables; `Internal` when a delta epoch's text and view
  /// disagree.  Caller holds `Mu`.
  Status substrate(const char *Pass, const Module *&M, const FrozenGraph *&F);

  /// Counts a lint or slice answer a delta epoch's substrate served
  /// (`delta.view_substrates`).
  void countViewSubstrate() const;

  /// Builds (or returns the cached) dependence graph.  Caller holds `Mu`.
  Status dependenceGraph(const Deadline &D, const DependenceGraph *&Out);

  uint64_t EpochId;
  /// A pipeline epoch's pipeline; null on a delta epoch.
  std::unique_ptr<Pipeline> P;
  // Delta epoch: the view owns the self-contained frozen tables and the
  // canonical<->shadow id maps; `DeltaSource` is parsed into the lint and
  // slice substrate `Sub` (null until first demand).
  DeltaView View;
  std::unique_ptr<QueryEngine> ViewEngine;
  std::string DeltaSource;
  std::unique_ptr<DeltaSubstrate> Sub;

  // Slice subsystem: dependence graph cached on first successful build.
  std::unique_ptr<DependenceGraph> Deps;

  /// The engine serving point/batch queries, or null when degraded.
  QueryEngine *Q = nullptr;

  // Canonical shape, valid on every path.
  uint32_t CanonExprs = 0;
  uint32_t CanonLabels = 0;
  ExprId RootId = ExprId::invalid();

  std::mutex Mu; ///< serializes engine scratch across worker threads
};

/// The daemon's epoch registry: one current epoch, swapped atomically on
/// `load`; superseded epochs live until their last in-flight reference
/// drains.
class EpochManager {
public:
  /// The epoch new requests resolve against; null before the first load.
  std::shared_ptr<Epoch> current() const;

  /// A fresh monotonically increasing epoch id (first id is 1).
  uint64_t allocateId();

  /// Installs \p E as current; counts `serve.epoch_retirements` when it
  /// supersedes one.  The returned previous epoch (possibly null) keeps
  /// the caller in control of where the old mapping is released.
  std::shared_ptr<Epoch> install(std::shared_ptr<Epoch> E);

private:
  mutable std::mutex Mu;
  std::shared_ptr<Epoch> Cur;
  uint64_t NextId = 0;
};

} // namespace serve
} // namespace stcfa

#endif // STCFA_SERVE_EPOCH_H
