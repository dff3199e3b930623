//===-- core/LabelSetKernel.cpp - Word-parallel label-set closure ---------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LabelSetKernel.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/SimdOps.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <string>

using namespace stcfa;

LabelSetKernel::LabelSetKernel(const FrozenGraph &F, ThreadPool *Pool,
                               unsigned Threads)
    : F(F), Pool(Pool), Threads(Threads ? Threads : 1),
      RunStatus(Status::failedPrecondition("run() not called")) {}

LabelSetKernel::LabelSetKernel(const FrozenGraph &F, unsigned Threads)
    : LabelSetKernel(F, Threads > 1 ? &ThreadPool::shared(Threads) : nullptr,
                     Threads) {}

LabelSetKernel::LabelSetKernel(const FrozenGraph &F,
                               std::span<const uint64_t> Rows,
                               uint32_t WordsPerSet)
    : F(F), Pool(nullptr), Threads(1), RunStatus(Status::ok()) {
  Cond = &F.condensation();
  this->WordsPerSet = WordsPerSet;
  RowWords = WordsPerSet; // snapshot rows are tight, no cache-line pad
  // The adopted matrix is never written: a born-complete kernel makes
  // `run()` short-circuit before any `rowMut`, so a read-only (mmap)
  // backing is safe behind this cast.
  Matrix = const_cast<uint64_t *>(Rows.data());
  SccLevel.assign(Cond->numSccs(), 0);
  NumRows = Cond->numSccs();
  NumLevels = LevelsDone = 1;
  ChunkLevelOffsets = {0, 1}; // one trivial, already-complete chunk
  ChunksDone = 1;
  LevelsBuilt = true;
  Ran = true;
}

/// Builds the level schedule and the row matrix.  One ascending-id sweep
/// suffices for levels: SCC ids are in completion order, so every
/// successor component's level is final before its consumers look at it.
Status LabelSetKernel::buildSchedule() {
  // The schedule + matrix allocation is the kernel's one big allocation;
  // the injected-alloc site sits on the same unwind the real bad_alloc
  // guard would take.
  if (faultFires(fault::KernelAlloc))
    return Status::outOfMemory("kernel level-schedule allocation failed");

  Cond = &F.condensation();
  const uint32_t NumNodes = F.numNodes();
  const uint32_t NumSccs = Cond->numSccs();

  // Nodes grouped by component: counting sort into CSR.
  SccNodeOffsets.assign(NumSccs + 1, 0);
  for (uint32_t N = 0; N != NumNodes; ++N)
    ++SccNodeOffsets[Cond->sccOf(N) + 1];
  for (uint32_t S = 0; S != NumSccs; ++S)
    SccNodeOffsets[S + 1] += SccNodeOffsets[S];
  SccNodes.resize(NumNodes);
  {
    std::vector<uint32_t> Fill(SccNodeOffsets.begin(),
                               SccNodeOffsets.end() - 1);
    for (uint32_t N = 0; N != NumNodes; ++N)
      SccNodes[Fill[Cond->sccOf(N)]++] = N;
  }

  // Level of a component = 1 + max level of its successor components
  // (sinks at level 0).  Cross-component edges always point to strictly
  // smaller levels, which is the no-races-within-a-level invariant the
  // parallel sweep relies on.  The same sweep reads each component's
  // *reader* count off the reverse CSR (`InReads`, the summed in-degree
  // of its nodes — intra-component predecessors included, which only
  // inflates the count and keeps the sum a pure sequential-read
  // reduction rather than per-edge scattered increments), the profile
  // that drives the row layout below.
  //
  // It also finds the *forwarding* components: no node carries a label
  // and every cross-edge leads to one row owner (a successor that
  // forwards itself is resolved to its owner, which the ascending sweep
  // has already fixed).  Such a component's final set is its owner's,
  // so it shares the owner's row and is never closed.  A label-free
  // sink has no owner and keeps its own (empty) row.
  constexpr uint32_t None = FrozenGraph::None;
  const uint32_t *Off = F.outOffsets();
  const uint32_t *Tgt = F.outTargets();
  const uint32_t *InOff = F.inOffsets();
  const uint32_t *Lab = F.labelArray();
  SccLevel.assign(NumSccs, 0);
  ForwardTo.assign(NumSccs, None);
  std::vector<uint32_t> InReads(NumSccs);
  NumLevels = 0;
  for (uint32_t Scc = 0; Scc != NumSccs; ++Scc) {
    uint32_t Lv = 0;
    uint32_t Reads = 0;
    bool Labelled = false, OneOwner = true;
    uint32_t Owner = None;
    for (uint32_t I = SccNodeOffsets[Scc], E = SccNodeOffsets[Scc + 1]; I != E;
         ++I) {
      uint32_t N = SccNodes[I];
      Reads += InOff[N + 1] - InOff[N];
      Labelled |= Lab[N] != None;
      for (uint32_t J = Off[N], JE = Off[N + 1]; J != JE; ++J) {
        uint32_t S = Cond->sccOf(Tgt[J]);
        if (S == Scc)
          continue;
        Lv = std::max(Lv, SccLevel[S] + 1);
        uint32_t O = ForwardTo[S] == None ? S : ForwardTo[S];
        OneOwner &= Owner == None || Owner == O;
        Owner = O;
      }
    }
    InReads[Scc] = Reads;
    SccLevel[Scc] = Lv;
    if (!Labelled && OneOwner)
      ForwardTo[Scc] = Owner; // stays None for a label-free sink
    NumLevels = std::max(NumLevels, Lv + 1);
  }

  // Components bucketed by level: counting sort into CSR.
  LevelOffsets.assign(NumLevels + 1, 0);
  for (uint32_t Scc = 0; Scc != NumSccs; ++Scc)
    ++LevelOffsets[SccLevel[Scc] + 1];
  for (uint32_t Lv = 0; Lv != NumLevels; ++Lv)
    LevelOffsets[Lv + 1] += LevelOffsets[Lv];
  LevelComps.resize(NumSccs);
  {
    std::vector<uint32_t> Fill(LevelOffsets.begin(), LevelOffsets.end() - 1);
    for (uint32_t Scc = 0; Scc != NumSccs; ++Scc)
      LevelComps[Fill[SccLevel[Scc]]++] = Scc;
  }

  // Profile-guided row layout: within each level, order components by
  // how many cross-edges read them (hottest first, ties in id order so
  // the layout is deterministic).  Rows are then assigned in this
  // level-major order, so a chunk's sequential sweep writes contiguous
  // lines and every level's most-re-read rows sit packed at its front,
  // still warm when the next level ORs them in.  `LevelComps` itself is
  // reordered too — execution order within a level is free.  A stable
  // counting sort on the read count capped at 63 (separating the
  // re-read rows from the rest is what matters, not a total order of
  // the long tail): a comparison sort here costs more than the whole
  // rest of the schedule build, and the cap keeps it O(n) — no
  // comparisons, no per-level allocations.
  {
    constexpr uint32_t ReadBuckets = 64;
    auto Key = [&InReads](uint32_t C) {
      return std::min(InReads[C], ReadBuckets - 1);
    };
    // Per-level key range, one *sequential* pass over components:
    // levels whose rows are all equally hot (the norm in regular
    // condensations like the cubic family) have nothing to reorder and
    // are skipped below without ever touching their components again.
    std::vector<uint32_t> LvLo(NumLevels, ReadBuckets), LvHi(NumLevels, 0);
    for (uint32_t Scc = 0; Scc != NumSccs; ++Scc) {
      uint32_t K = Key(Scc), Lv = SccLevel[Scc];
      LvLo[Lv] = std::min(LvLo[Lv], K);
      LvHi[Lv] = std::max(LvHi[Lv], K);
    }
    std::vector<uint32_t> Scratch; // sized on first non-uniform level
    uint32_t Count[ReadBuckets];
    for (uint32_t Lv = 0; Lv != NumLevels; ++Lv) {
      if (LvLo[Lv] >= LvHi[Lv])
        continue; // uniform (or empty) level
      uint32_t B = LevelOffsets[Lv], E = LevelOffsets[Lv + 1];
      if (Scratch.empty())
        Scratch.resize(NumSccs);
      std::fill(Count, Count + ReadBuckets, 0);
      for (uint32_t I = B; I != E; ++I)
        ++Count[Key(LevelComps[I])];
      uint32_t Pos = 0; // hottest bucket first
      for (uint32_t K = ReadBuckets; K-- != 0;) {
        uint32_t N = Count[K];
        Count[K] = Pos;
        Pos += N;
      }
      for (uint32_t I = B; I != E; ++I)
        Scratch[Count[Key(LevelComps[I])]++] = LevelComps[I];
      std::copy(Scratch.begin(), Scratch.begin() + (E - B),
                LevelComps.begin() + B);
    }
  }
  // The row map, then its node-level fusion (sccOf∘RowOf precomputed)
  // so the close loop maps an edge target to its row with a single load
  // — the map must not cost the hot loop a second dependent lookup.
  // Fresh rows go to non-forwarding components in `LevelComps` order; a
  // forwarding component takes its owner's row, which is already
  // assigned because the owner sits on a lower level.  `NodeRow` is
  // deliberately uninitialized storage: every node is written exactly
  // once by the streaming fill.
  RowOf.resize(NumSccs);
  NumRows = 0;
  for (uint32_t C : LevelComps)
    RowOf[C] = ForwardTo[C] == None ? NumRows++ : RowOf[ForwardTo[C]];
  static Counter &SharedC = counter("kernel.rows_shared");
  SharedC.add(NumSccs - NumRows);
  NodeRow = std::make_unique_for_overwrite<uint32_t[]>(NumNodes);
  const uint32_t *SccOfRaw = Cond->map().data();
  for (uint32_t N = 0; N != NumNodes; ++N)
    NodeRow[N] = RowOf[SccOfRaw[N]];

  // Chunking: merge consecutive levels while the running row total stays
  // within `ChunkRows`.  A merged chunk runs sequentially (its levels
  // depend on each other), trading dead parallelism on tiny levels for
  // one barrier + one governor poll per chunk instead of per level.  A
  // level too big to merge stands alone and fans out across the pool.
  // With `ChunkRows` <= 1 every level is its own chunk.
  ChunkLevelOffsets.clear();
  ChunkLevelOffsets.push_back(0);
  if (NumLevels != 0) {
    uint32_t RowsInChunk = 0;
    for (uint32_t Lv = 0; Lv != NumLevels; ++Lv) {
      uint32_t Rows = LevelOffsets[Lv + 1] - LevelOffsets[Lv];
      if (Lv != ChunkLevelOffsets.back() && RowsInChunk + Rows > ChunkRows) {
        ChunkLevelOffsets.push_back(Lv);
        RowsInChunk = 0;
      }
      RowsInChunk += Rows;
    }
    ChunkLevelOffsets.push_back(NumLevels);
  }

  // The matrix: rows padded to whole cache lines (multiples of 8 words)
  // and the base 64-byte aligned into an over-allocated store, so two
  // lanes finalizing different components never touch the same line.
  WordsPerSet = (F.numLabels() + 63) / 64;
  RowWords = (WordsPerSet + 7) & ~7u;
  size_t Need = size_t(NumRows) * RowWords;
  MatrixStore.assign(Need + 7, 0);
  Matrix = reinterpret_cast<uint64_t *>(
      (reinterpret_cast<uintptr_t>(MatrixStore.data()) + 63) &
      ~uintptr_t(63));

  LevelsBuilt = true;
  return Status::ok();
}

/// Finalizes one component's row: set the bits of labels carried by its
/// own nodes, then OR in every successor component's (already final)
/// row.  A forwarding component has nothing to do: its row is its
/// owner's, final since the owner's lower level closed.  Word-OR work
/// is summed into \p WordOrs, never into the global counter: with
/// thousands of tiny components the per-component atomic flushes would
/// rival the closure itself, so the caller flushes once per chunk (per
/// lane when fanned out).
void LabelSetKernel::closeComponent(uint32_t Scc, uint64_t &WordOrs) {
  if (ForwardTo[Scc] != FrozenGraph::None)
    return;
  const uint32_t MyRow = static_cast<uint32_t>(rowIndex(Scc));
  uint64_t *R = Matrix + size_t(MyRow) * RowWords;
  const uint32_t *Off = F.outOffsets();
  const uint32_t *Tgt = F.outTargets();
  const uint32_t *Lab = F.labelArray();
  const uint32_t *NR = NodeRow.get();
  const uint32_t W = WordsPerSet;
  // Edges into one forwarding chain land on one shared row; skipping a
  // repeat of the row just OR-ed is free and OR is idempotent.
  uint32_t LastRow = MyRow;
  for (uint32_t I = SccNodeOffsets[Scc], E = SccNodeOffsets[Scc + 1]; I != E;
       ++I) {
    uint32_t N = SccNodes[I];
    if (uint32_t L = Lab[N]; L != FrozenGraph::None)
      R[L / 64] |= uint64_t(1) << (L % 64);
    for (uint32_t J = Off[N], JE = Off[N + 1]; J != JE; ++J) {
      uint32_t RS = NR[Tgt[J]];
      if (RS == MyRow || RS == LastRow)
        continue;
      LastRow = RS;
      // The hot loop of the whole kernel: one dispatched row-OR (AVX-512
      // / AVX2 / scalar — see support/SimdOps.h) per cross-edge.
      simd::orWords(R, Matrix + size_t(RS) * RowWords, W);
      WordOrs += W;
    }
  }
}

Status LabelSetKernel::run(const Controls &C) {
  if (complete())
    return RunStatus;
  Span RunSpan("kernel.run");
  Timer T;
  static Counter &Runs = counter("kernel.runs");
  static Counter &Aborts = counter("kernel.aborts");
  static Counter &Levels = counter("kernel.levels_completed");
  static Counter &Chunks = counter("kernel.chunks_completed");
  static Counter &WordOrsC = counter("kernel.word_ors");
  static Counter &RowsC = counter("kernel.rows_finalized");
  static Gauge &SimdPath = gauge("kernel.simd_path");
  static Histogram &Millis =
      histogram("kernel.millis", latencyBucketsMillis());
  Runs.inc();
  SimdPath.set(static_cast<int64_t>(simd::activePath()));
  const uint32_t LevelsBefore = LevelsDone;
  const uint32_t ChunksBefore = ChunksDone;
  auto finish = [&](Status S) {
    if (!S.isOk())
      Aborts.inc();
    Levels.add(LevelsDone - LevelsBefore);
    Chunks.add(ChunksDone - ChunksBefore);
    Millis.observe(static_cast<uint64_t>(T.millis()));
    RunSpan.arg("levels_total", NumLevels);
    RunSpan.arg("levels_done", LevelsDone);
    RunSpan.arg("chunks_total", numChunks());
    RunSpan.arg("chunks_done", ChunksDone);
    RunSpan.arg("status", statusCodeName(S.code()));
    Ran = true;
    RunStatus = std::move(S);
    ClosureMs += T.millis();
    return RunStatus;
  };
  if (!LevelsBuilt)
    if (Status S = buildSchedule(); !S.isOk())
      return finish(std::move(S));
  RunSpan.arg("sccs", Cond->numSccs());
  RunSpan.arg("rows", NumRows);
  RunSpan.arg("rows_shared", Cond->numSccs() - NumRows);

  // One governor checkpoint per *chunk*; the word loops stay check-free.
  // `LevelsDone` only advances past a chunk's barrier, so an abort here
  // leaves every component below it final — that is the whole partial-
  // result contract.  Resume points are chunk boundaries: `ChunksDone`
  // indexes the first unfinished chunk.
  while (ChunksDone != numChunks()) {
    uint32_t Lv = LevelsDone;
    if (C.Token.cancelled() || faultFires(fault::KernelLevelCancel))
      return finish(Status::cancelled("label-set kernel cancelled at level " +
                                      std::to_string(Lv) + " of " +
                                      std::to_string(NumLevels)));
    if (C.D.expired())
      return finish(
          Status::deadlineExceeded("label-set kernel exceeded its deadline "
                                   "at level " +
                                   std::to_string(Lv) + " of " +
                                   std::to_string(NumLevels)));

    uint32_t LvEnd = ChunkLevelOffsets[ChunksDone + 1];
    size_t Begin = LevelOffsets[Lv], End = LevelOffsets[LvEnd];
    Span ChunkSpan("kernel.chunk");
    ChunkSpan.arg("chunk", ChunksDone);
    ChunkSpan.arg("levels", LvEnd - Lv);
    ChunkSpan.arg("components", End - Begin);
    if (LvEnd - Lv == 1 && Pool && Threads > 1 && End - Begin > 1) {
      // A single-level chunk is embarrassingly parallel; `parallelFor`
      // is the barrier: it returns only after every component in the
      // level is final, and its internal synchronisation orders those
      // writes before the next chunk's reads (TSan-clean cross-level
      // row reuse).  Word-OR work accumulates per lane (padded to a
      // cache line each, so lanes never bounce the accumulator line)
      // and flushes once after the barrier.
      struct alignas(64) LaneOrs {
        uint64_t V = 0;
      };
      std::vector<LaneOrs> Lane(Pool->size());
      Pool->parallelFor(End - Begin, [&](unsigned L, size_t I) {
        closeComponent(LevelComps[Begin + I], Lane[L].V);
      });
      uint64_t WordOrs = 0;
      for (const LaneOrs &L : Lane)
        WordOrs += L.V;
      WordOrsC.add(WordOrs);
    } else {
      // A merged chunk carries cross-level dependencies, so it runs as
      // one sequential task — `LevelComps` is level-major, so plain
      // ascending order closes each level before its consumers, and the
      // row layout makes this a contiguous forward sweep of the matrix.
      uint64_t WordOrs = 0;
      for (size_t I = Begin; I != End; ++I)
        closeComponent(LevelComps[I], WordOrs);
      WordOrsC.add(WordOrs);
    }
    RowsC.add(End - Begin);
    LevelsDone = LvEnd;
    ++ChunksDone;
  }

  // The corruption canary: a silently wrong row, so the differential
  // fuzz suite can prove it would catch a kernel bug.  Applied only on a
  // *successful* run — an aborted kernel falls back to BFS and a corrupt
  // row would never be read.
  if (faultFires(fault::KernelRowCorrupt) && WordsPerSet != 0) {
    for (uint32_t I = 0, E = F.numExprs(); I != E; ++I) {
      uint32_t N = F.nodeOfExpr(ExprId(I));
      if (N == FrozenGraph::None)
        continue;
      rowMut(Cond->sccOf(N))[0] ^= 1;
      break;
    }
  }

  return finish(Status::ok());
}

Status LabelSetKernel::verify() const {
  if (!complete())
    return Status::failedPrecondition("label-set kernel is not complete");
  constexpr uint32_t None = FrozenGraph::None;
  const uint32_t NumSccs = Cond->numSccs();
  auto fail = [](const std::string &What) {
    return Status::internal("label-set kernel: " + What);
  };
  auto name = [](const char *Kind, size_t Id) {
    return std::string(Kind) + " " + std::to_string(Id);
  };
  // Adopted snapshot matrices map components to rows by identity and
  // never forward.
  auto forwardsTo = [&](uint32_t Scc) {
    return ForwardTo.empty() ? None : ForwardTo[Scc];
  };

  std::vector<uint32_t> OwnerOfRow(NumRows, None);
  for (uint32_t Scc = 0; Scc != NumSccs; ++Scc) {
    const size_t R = rowIndex(Scc);
    if (R >= NumRows)
      return fail(name("component", Scc) + " maps past the last row");
    if (uint32_t O = forwardsTo(Scc); O != None) {
      if (O >= NumSccs || forwardsTo(O) != None)
        return fail(name("component", Scc) + " forwards to " +
                    name("component", O) + ", which owns no row");
      if (rowIndex(O) != R)
        return fail(name("component", Scc) + " does not share its owner's row");
      continue;
    }
    if (OwnerOfRow[R] != None)
      return fail(name("row", R) + " is owned by " +
                  name("component", OwnerOfRow[R]) + " and " +
                  name("component", Scc));
    OwnerOfRow[R] = Scc;
  }
  for (uint32_t R = 0; R != NumRows; ++R)
    if (OwnerOfRow[R] == None)
      return fail(name("row", R) + " has no owning component");

  auto has = [&](const uint64_t *Row, uint32_t L) {
    return (Row[L / 64] >> (L % 64)) & 1;
  };
  const uint32_t *Off = F.outOffsets();
  const uint32_t *Tgt = F.outTargets();
  const uint32_t *Lab = F.labelArray();
  const uint32_t Tail = F.numLabels() % 64;
  for (uint32_t Scc = 0; Scc != NumSccs; ++Scc)
    if (Tail != 0 && WordsPerSet != 0 &&
        (row(Scc)[WordsPerSet - 1] >> Tail) != 0)
      return fail(name("component", Scc) + "'s row has a bit past the last "
                                           "label");
  for (uint32_t N = 0; N != F.numNodes(); ++N) {
    const uint32_t Scc = Cond->sccOf(N);
    const uint64_t *R = row(Scc);
    const bool Forwards = forwardsTo(Scc) != None;
    if (uint32_t L = Lab[N]; L != None) {
      if (Forwards)
        return fail(name("labelled component", Scc) + " forwards");
      if (!has(R, L))
        return fail(name("component", Scc) + "'s row lacks its own " +
                    name("label", L));
    }
    for (uint32_t J = Off[N]; J != Off[N + 1]; ++J) {
      const uint32_t S = Cond->sccOf(Tgt[J]);
      if (S == Scc || rowIndex(S) == rowIndex(Scc))
        continue;
      if (Forwards)
        return fail(name("forwarding component", Scc) + " has a successor "
                                                          "off its owner's "
                                                          "row");
      const uint64_t *RS = row(S);
      for (uint32_t W = 0; W != WordsPerSet; ++W)
        if (RS[W] & ~R[W])
          return fail(name("component", Scc) + "'s row misses labels of "
                                               "its successor " +
                      name("component", S));
    }
  }
  return Status::ok();
}

DenseBitset LabelSetKernel::labelsOfNode(uint32_t N) const {
  DenseBitset Out(F.numLabels());
  if (nodeComplete(N))
    Out.orWords(row(Cond->sccOf(N)), WordsPerSet);
  return Out;
}

DenseBitset LabelSetKernel::labelsOf(ExprId E) const {
  DenseBitset Out(F.numLabels());
  SetWords Row = labelWordsOf(E);
  Out.orWords(Row.data(), Row.size());
  return Out;
}
