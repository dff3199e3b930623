//===-- core/LabelSetKernel.h - Word-parallel label-set closure -*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dense-bitset label-set engine: computes *every* label set of a
/// `FrozenGraph` in one pass instead of one BFS per query.
///
/// The paper's "compute all label sets" bound is O(n²), and that bound is
/// a transitive-closure-by-bitset computation (Van Horn & Mairson show
/// the closure is inherent to exhaustive 0-CFA), so the win available
/// here is constant-factor: word-parallelism and thread-parallelism.
/// The kernel propagates 64-bit label words in reverse topological order
/// over the cached Tarjan condensation of the snapshot:
///
///   * **Compacted label universe** — bit positions index only the
///     program's L abstraction labels, never graph nodes, so the closure
///     costs O(n·L/64) word-ORs rather than n²/64 (L ≪ n on real
///     programs: most nodes carry no label).
///   * **SIMD row-OR** — the inner `dst |= src` word loop runs on the
///     runtime-dispatched path in `support/SimdOps.h` (AVX-512 / AVX2 /
///     scalar, `STCFA_FORCE_SCALAR=1` pins scalar); the chosen path is
///     recorded in the `kernel.simd_path` gauge (0=scalar 1=avx2
///     2=avx512).
///   * **Chunked level scheduling** — condensation components are
///     grouped by DAG depth (level 0 = sinks); all components within a
///     level are independent.  Runs of shallow levels whose total row
///     count stays below `chunkRows()` are merged into one *chunk* and
///     swept sequentially by a single task, so deep skinny DAGs pay
///     O(levels/compression) barriers and governor polls instead of
///     O(levels); a level too large to merge forms its own chunk and
///     fans out across the `ThreadPool` lanes with one barrier.  Rows
///     are padded to 64-byte cache lines, so two lanes finalizing
///     adjacent components never write the same line (no false
///     sharing), and rows are laid out level-major with the most-read
///     components first (profile-guided by cross-edge in-degree), so a
///     chunk sweeps contiguous warm lines.
///   * **Forwarding rows** — a component that carries no label and whose
///     every cross-edge leads to one component (after resolving that
///     component's own forwarding) has exactly its successor's label
///     set, so it shares the successor's row instead of owning one.
///     Chains of label-free nodes are the bulk of a closed graph, so
///     the matrix holds `numRows()` ≪ components rows; sharing is
///     invisible to every reader, since all go through the row map.
///   * **Governed, resumable closure** — the deadline / cancellation
///     token / fault sites are polled once per chunk (the hot word loops
///     stay check-free), and an aborted run reports `Status` plus a
///     *well-defined* partial result: every component whose level is
///     below `levelsCompleted()` holds its final label set, and
///     `sccComplete()`/`exprComplete()` say exactly which answers are
///     servable.  A later `run()` resumes from the first unfinished
///     chunk — completed rows are never recomputed.
///
/// The kernel is the batched-query backend: `QueryEngine` dispatches
/// `labelsOf`/`occurrencesOf` batches here above a batch-size threshold,
/// amortising one closure across the batch instead of B independent BFS
/// walks.  Point queries never pay for it.
///
/// Thread safety: `run()` must not be called concurrently with itself or
/// with the accessors; after `run()` returns, all `const` accessors are
/// safe from any number of reader threads (the matrix is immutable until
/// a resuming `run()`, which only writes rows of still-incomplete
/// levels).
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_LABELSETKERNEL_H
#define STCFA_CORE_LABELSETKERNEL_H

#include "core/FrozenGraph.h"
#include "support/Deadline.h"
#include "support/DenseBitset.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <memory>
#include <span>
#include <vector>

namespace stcfa {

/// One-shot (but resumable) all-label-sets closure over a frozen graph.
class LabelSetKernel {
public:
  /// Resource controls for a governed run; the defaults never fire.
  struct Controls {
    Deadline D;
    CancellationToken Token;
  };

  /// Uses \p Pool (may be null: sequential) with \p Threads logical
  /// lanes.  The pool is borrowed and must outlive the kernel.
  LabelSetKernel(const FrozenGraph &F, ThreadPool *Pool, unsigned Threads);

  /// Standalone construction: borrows `ThreadPool::shared(Threads)`
  /// (sequential when \p Threads <= 1).
  explicit LabelSetKernel(const FrozenGraph &F, unsigned Threads = 1);

  /// Adopts a complete, precomputed row matrix (a persisted snapshot's
  /// kernel-rows section): one row per condensation component,
  /// \p WordsPerSet words each, tightly packed in component-id order.
  /// The kernel is born complete — `run()` returns `Ok` immediately and
  /// never writes a row — so \p Rows may live in a read-only mapping; it
  /// must outlive this kernel.
  LabelSetKernel(const FrozenGraph &F, std::span<const uint64_t> Rows,
                 uint32_t WordsPerSet);

  /// Runs (or resumes) the closure under \p C.  Returns `Ok` on a
  /// complete matrix; `DeadlineExceeded`/`Cancelled`/`OutOfMemory` on a
  /// governed abort, leaving every level below `levelsCompleted()`
  /// final.  Calling again resumes from the first unfinished level; a
  /// completed kernel returns `Ok` immediately.
  Status run(const Controls &C = {});

  /// True once `run()` finished every level.
  bool complete() const { return Ran && RunStatus.isOk(); }

  /// Outcome of the most recent `run()` (`FailedPrecondition` before the
  /// first call).
  const Status &status() const { return RunStatus; }

  /// Depth of the condensation DAG (0 for an empty graph; meaningful
  /// once `run()` built the schedule).
  uint32_t numLevels() const { return NumLevels; }

  /// Levels fully propagated so far; `== numLevels()` iff complete.
  uint32_t levelsCompleted() const { return LevelsDone; }

  //===--- chunked scheduling ----------------------------------------------//

  /// Default level-merge threshold (rows per chunk), measured on the
  /// bench corpus: large enough to swallow the long skinny tails of
  /// deep condensations, small enough that a merged chunk still fits in
  /// L2 alongside the successor rows it reads.
  static constexpr uint32_t DefaultChunkRows = 256;

  /// Sets the level-merge threshold: consecutive levels are merged into
  /// one scheduling chunk while their total row count stays <= \p Rows.
  /// 0 (and 1) disable merging — every level is its own chunk, which
  /// restores one governor poll per level.  Must be called before the
  /// first `run()`; once the schedule is built the chunking is frozen
  /// (resume points are chunk boundaries).
  void setChunkRows(uint32_t Rows) {
    assert(!LevelsBuilt && "chunking is frozen once the schedule is built");
    ChunkRows = Rows;
  }
  uint32_t chunkRows() const { return ChunkRows; }

  /// Scheduling chunks in the frozen schedule (== barrier/poll count for
  /// a full run); meaningful once `run()` built the schedule.  Always
  /// <= `numLevels()` — the ratio is the barrier compression the merge
  /// bought.
  uint32_t numChunks() const {
    return ChunkLevelOffsets.empty()
               ? 0
               : static_cast<uint32_t>(ChunkLevelOffsets.size() - 1);
  }

  /// Chunks fully propagated so far; `== numChunks()` iff complete.
  uint32_t chunksCompleted() const { return ChunksDone; }

  //===--- partial-result contract -----------------------------------------//

  /// True iff component \p Scc holds its final label set.
  bool sccComplete(uint32_t Scc) const {
    return LevelsBuilt && SccLevel[Scc] < LevelsDone;
  }

  /// True iff node \p N's label set is servable.
  bool nodeComplete(uint32_t N) const {
    return LevelsBuilt && SccLevel[Cond->sccOf(N)] < LevelsDone;
  }

  /// True iff `labelsOf(E)` is servable.  An occurrence with no graph
  /// node has the well-defined empty answer, so it is always complete.
  bool exprComplete(ExprId E) const {
    uint32_t N = F.nodeOfExpr(E);
    return N == FrozenGraph::None || nodeComplete(N);
  }

  //===--- answers ---------------------------------------------------------//

  /// The label set of occurrence \p E.  Only meaningful when
  /// `exprComplete(E)`; an incomplete query returns the empty set.
  DenseBitset labelsOf(ExprId E) const;

  /// `labelsOf(E)` read in place: its component's row (`wordsPerSet()`
  /// words, valid as long as the kernel), or an empty span when \p E has
  /// no node or its row is not final yet.
  SetWords labelWordsOf(ExprId E) const {
    uint32_t N = F.nodeOfExpr(E);
    if (N == FrozenGraph::None || !nodeComplete(N))
      return {};
    return rowSpan(Cond->sccOf(N));
  }

  /// The label set reachable from node \p N (same completeness caveat).
  DenseBitset labelsOfNode(uint32_t N) const;

  /// True iff label \p L is in node \p N's (complete) label set.
  bool hasLabel(uint32_t N, uint32_t Label) const {
    const uint64_t *R = row(Cond->sccOf(N));
    return (R[Label / 64] >> (Label % 64)) & 1;
  }

  /// Words per label-set row before cache-line padding: `⌈L/64⌉`.
  uint32_t wordsPerSet() const { return WordsPerSet; }

  /// The final row of component \p Scc — `wordsPerSet()` words, padding
  /// excluded — for the snapshot writer.  Requires `complete()`.
  std::span<const uint64_t> rowSpan(uint32_t Scc) const {
    return {row(Scc), WordsPerSet};
  }

  /// Physical rows in the matrix: one per condensation component that
  /// does not forward (see the file comment); every component of an
  /// adopted snapshot matrix.  Meaningful once `run()` built the
  /// schedule.
  uint32_t numRows() const { return NumRows; }

  /// Milliseconds spent inside `run()` so far (summed across resumes).
  double closureMillis() const { return ClosureMs; }

  /// Structural check of a complete matrix: the row map is a bijection
  /// from non-forwarding components onto the rows, each forwarding
  /// component shares exactly its owner's row, and each component's row
  /// holds its own nodes' labels and every successor component's row.
  /// Holds for an adopted snapshot matrix too.  Returns the first
  /// violation as `Internal`, or `FailedPrecondition` before `complete()`.
  Status verify() const;

private:
  Status buildSchedule();
  /// Physical row index of component \p Scc.  `RowOf` is the
  /// profile-guided layout map, many-to-one where components forward
  /// (empty = identity, as in adopted snapshots, whose rows are
  /// tight-packed in component-id order).
  size_t rowIndex(uint32_t Scc) const {
    return RowOf.empty() ? Scc : RowOf[Scc];
  }
  const uint64_t *row(uint32_t Scc) const {
    return Matrix + rowIndex(Scc) * RowWords;
  }
  uint64_t *rowMut(uint32_t Scc) { return Matrix + rowIndex(Scc) * RowWords; }
  void closeComponent(uint32_t Scc, uint64_t &WordOrs);

  const FrozenGraph &F;
  ThreadPool *Pool; // borrowed; null = sequential
  unsigned Threads;

  Status RunStatus;
  bool Ran = false;
  bool LevelsBuilt = false;
  uint32_t NumLevels = 0;
  uint32_t LevelsDone = 0;
  double ClosureMs = 0;

  // Schedule: the condensation (cached on the snapshot), nodes grouped
  // by component (CSR), components grouped by level (CSR), levels
  // merged into chunks (CSR over level indices), the profile-guided
  // row map, and which components forward (share a successor's row and
  // are never closed).
  const Condensation *Cond = nullptr;
  std::vector<uint32_t> SccNodeOffsets, SccNodes;
  std::vector<uint32_t> SccLevel;
  std::vector<uint32_t> LevelOffsets, LevelComps;
  uint32_t ChunkRows = DefaultChunkRows;
  std::vector<uint32_t> ChunkLevelOffsets;
  uint32_t ChunksDone = 0;
  std::vector<uint32_t> RowOf;
  std::vector<uint32_t> ForwardTo; // the shared row's owner, or None
  uint32_t NumRows = 0;
  // Per-node physical row (`RowOf[sccOf(node)]` precomputed), so the
  // close loop maps an edge target to its row with a single load.
  // Uninitialized-alloc array, not a vector: it is fully overwritten
  // right after allocation and the zero-fill would be pure waste.
  std::unique_ptr<uint32_t[]> NodeRow;

  // The label-set matrix: `NumRows` rows, `RowWords` 64-bit words
  // each.  `RowWords` is `WordsPerSet` rounded up to a full cache line
  // (multiple of 8 words) and `Matrix` is 64-byte aligned into
  // `MatrixStore`, so no two rows share a cache line.
  uint32_t WordsPerSet = 0;
  uint32_t RowWords = 0;
  std::vector<uint64_t> MatrixStore;
  uint64_t *Matrix = nullptr;
};

} // namespace stcfa

#endif // STCFA_CORE_LABELSETKERNEL_H
