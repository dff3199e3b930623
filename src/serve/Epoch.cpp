//===-- serve/Epoch.cpp - Versioned analysis epochs for serve mode --------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Epoch.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace stcfa;
using namespace stcfa::serve;

namespace {
/// Epochs are constructed on the reader thread but destroyed on whatever
/// thread drops the last reference, so the live count must be a real
/// atomic; the gauge mirrors its post-op value.
std::atomic<int64_t> LiveEpochs{0};

void recordEpochDelta(int64_t Delta) {
  static Gauge &G = gauge("serve.epochs_live");
  G.set(LiveEpochs.fetch_add(Delta, std::memory_order_relaxed) + Delta);
}
} // namespace

Epoch::Epoch(uint64_t Id, std::unique_ptr<Pipeline> Served)
    : EpochId(Id), P(std::move(Served)) {
  assert(P->status().isOk() && P->module() && "epoch needs a served module");
  Q = P->engine(); // null when the ladder degraded
  CanonExprs = P->module()->numExprs();
  CanonLabels = P->module()->numLabels();
  RootId = P->module()->root();
  recordEpochDelta(+1);
}

Epoch::Epoch(uint64_t Id, DeltaView V, std::string Source, unsigned Threads,
             size_t KernelThreshold)
    : EpochId(Id), View(std::move(V)), DeltaSource(std::move(Source)) {
  assert(View.Frozen && "delta epoch needs a frozen view");
  ViewEngine = std::make_unique<QueryEngine>(*View.Frozen, Threads);
  ViewEngine->setKernelThreshold(KernelThreshold);
  Q = ViewEngine.get();
  CanonExprs = View.NumExprs;
  CanonLabels = View.NumLabels;
  // Canonical numbering puts the outermost spine let — the program root —
  // last (it is the last expression a fresh parse creates).
  RootId = ExprId(View.NumExprs - 1);
  recordEpochDelta(+1);
}

Epoch::~Epoch() { recordEpochDelta(-1); }

const char *Epoch::engine() const {
  return isDelta() ? "delta" : P->servedBy();
}

const FrozenGraph *Epoch::frozen() const {
  return isDelta() ? View.Frozen.get() : P->frozen();
}

uint64_t Epoch::cost() const {
  const FrozenGraph *F = frozen();
  uint64_t C = F ? F->numNodes() : CanonExprs;
  return C ? C : 1;
}

DenseBitset Epoch::fromEngine(DenseBitset Row) const {
  if (!isDelta())
    return Row;
  DenseBitset Out(CanonLabels);
  Row.forEach([&](uint32_t ShadowL) {
    uint32_t C = View.LabelFromShadow[ShadowL];
    if (C != ~0u)
      Out.insert(C);
  });
  return Out;
}

Status Epoch::labelsOf(ExprId E, const Deadline &D, DenseBitset &Out) {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  std::lock_guard<std::mutex> Lock(Mu);
  // A degraded rung answers by table read or the universal set.
  Out = Q ? fromEngine(Q->labelsOf(toEngine(E))) : P->labelsOf(E);
  return Status::ok();
}

Status Epoch::isLabelIn(ExprId E, LabelId L, const Deadline &D, bool &Out) {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  std::lock_guard<std::mutex> Lock(Mu);
  Out = Q ? Q->isLabelIn(toEngine(E), toEngine(L))
          : P->labelsOf(E).contains(L.index());
  return Status::ok();
}

Status Epoch::occurrencesOf(LabelId L, const Deadline &D,
                            std::vector<ExprId> &Out) {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  std::lock_guard<std::mutex> Lock(Mu);
  Out.clear();
  if (Q) {
    for (ExprId X : Q->occurrencesOf(toEngine(L))) {
      uint32_t C = isDelta() ? View.ExprFromShadow[X.index()] : X.index();
      if (C != ~0u)
        Out.push_back(ExprId(C));
    }
    if (isDelta()) // shadow order is not canonical order
      std::sort(Out.begin(), Out.end(),
                [](ExprId A, ExprId B) { return A.index() < B.index(); });
    return Status::ok();
  }
  // Degraded sweep: one table read per occurrence, polled coarsely.
  for (uint32_t I = 0, E = CanonExprs; I != E; ++I) {
    if ((I & 1023u) == 0 && D.expired())
      return Status::deadlineExceeded("occurrence sweep exceeded deadline");
    if (P->labelsOf(ExprId(I)).contains(L.index()))
      Out.push_back(ExprId(I));
  }
  return Status::ok();
}

Status Epoch::allLabels(const Deadline &D, std::vector<DenseBitset> &Out,
                        std::vector<char> &Done) {
  const uint32_t E = CanonExprs;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Q) {
    std::vector<ExprId> Es;
    Es.reserve(E);
    // A delta epoch batches over shadow ids in canonical order, so the
    // result and `Done` slots line up with canonical ids as-is.
    for (uint32_t I = 0; I != E; ++I)
      Es.push_back(toEngine(ExprId(I)));
    Status BS = Status::ok();
    if (D.isInfinite()) {
      Out = Q->labelsOfBatch(Es);
      Done.assign(E, 1);
    } else {
      BatchControl BC;
      BC.D = D;
      BatchOutcome Outcome;
      Out = Q->labelsOfBatch(Es, BC, Outcome);
      Done = std::move(Outcome.Done);
      BS = Outcome.S;
    }
    if (isDelta())
      for (DenseBitset &Row : Out)
        Row = fromEngine(std::move(Row));
    return BS;
  }
  Out.clear();
  Out.reserve(E);
  Done.assign(E, 0);
  for (uint32_t I = 0; I != E; ++I) {
    if ((I & 255u) == 0 && D.expired()) {
      Out.resize(E);
      return Status::deadlineExceeded("all-labels sweep exceeded deadline");
    }
    Out.push_back(P->labelsOf(ExprId(I)));
    Done[I] = 1;
  }
  return Status::ok();
}

Status Epoch::lint(const std::vector<std::string> &Passes, const Deadline &D,
                   unsigned Threads, LintResult &Out) {
  LintOptions LO;
  LO.Passes = Passes;
  LO.D = D;
  LO.Threads = Threads;
  std::lock_guard<std::mutex> Lock(Mu);
  const Module *M = nullptr;
  const FrozenGraph *F = nullptr;
  if (Status S = substrate("lint", M, F); !S.isOk())
    return S;
  LintEngine Lint(*M, *F);
  Out = Lint.run(LO);
  countViewSubstrate();
  return Status::ok();
}

void Epoch::countViewSubstrate() const {
  static Counter &Served = counter("delta.view_substrates");
  if (isDelta())
    Served.inc();
}

Status Epoch::substrate(const char *Pass, const Module *&M,
                        const FrozenGraph *&F) {
  if (!isDelta()) {
    F = P->frozen();
    if (!F || !F->status().isOk())
      return Status::failedPrecondition(
          std::string(Pass) +
          " requires the subtransitive engine; this epoch degraded to " +
          P->servedBy());
    M = P->module();
    return Status::ok();
  }
  if (!Sub) {
    Span SubSpan("serve.delta_substrate");
    Status BS = Status::ok();
    Sub = DeltaSubstrate::build(View, DeltaSource, BS);
    if (!Sub)
      return BS;
    SubSpan.arg("exprs", Sub->module().numExprs());
    SubSpan.arg("nodes", Sub->frozen().numNodes());
    SubSpan.arg("parse_us", static_cast<uint64_t>(Sub->parseMillis() * 1e3));
  }
  M = &Sub->module();
  F = &Sub->frozen();
  return Status::ok();
}

Status Epoch::dependenceGraph(const Deadline &D, const DependenceGraph *&Out) {
  if (Deps) {
    Out = Deps.get();
    return Status::ok();
  }
  const Module *M = nullptr;
  const FrozenGraph *F = nullptr;
  if (Status S = substrate("this pass", M, F); !S.isOk())
    return S;
  DependenceGraph::Options DO;
  DO.D = D;
  Status BS = Status::ok();
  std::unique_ptr<DependenceGraph> DG = DependenceGraph::build(*M, *F, BS, DO);
  if (!DG)
    return BS; // governed abort or injected alloc failure; retryable
  Deps = std::move(DG);
  Out = Deps.get();
  return Status::ok();
}

Status Epoch::slice(ExprId Target, SliceDirection Dir, bool Witness,
                    const Deadline &D, SliceReply &Out) {
  if (D.expired())
    return Status::deadlineExceeded("slice deadline expired before start");
  std::lock_guard<std::mutex> Lock(Mu);
  const bool Cached = Deps != nullptr;
  const DependenceGraph *DG = nullptr;
  if (Status S = dependenceGraph(D, DG); !S.isOk())
    return S;
  Out.GraphBuildMs = Cached ? 0 : DG->buildMillis();
  SliceOptions SO;
  SO.Dir = Dir;
  SO.D = D;
  Slicer Sl(*DG);
  SliceResult R = Sl.sliceFrom(Target, SO);
  if (!R.S.isOk() && !R.Partial)
    return R.S;
  Out.Members = R.Exprs;
  Out.Partial = R.Partial;
  Out.Witnesses.clear();
  if (Witness)
    for (ExprId Member : R.Exprs) {
      std::vector<WitnessStep> Steps;
      if (Status WS = Sl.witnessFor(R, Member, Steps); !WS.isOk())
        return WS;
      Out.Witnesses.push_back(Sl.renderWitness(Steps));
    }
  countViewSubstrate();
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// EpochManager
//===----------------------------------------------------------------------===//

std::shared_ptr<Epoch> EpochManager::current() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Cur;
}

uint64_t EpochManager::allocateId() {
  std::lock_guard<std::mutex> Lock(Mu);
  return ++NextId;
}

std::shared_ptr<Epoch> EpochManager::install(std::shared_ptr<Epoch> E) {
  static Counter &Retirements = counter("serve.epoch_retirements");
  std::shared_ptr<Epoch> Old;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Old = std::move(Cur);
    Cur = std::move(E);
  }
  if (Old)
    Retirements.inc();
  return Old;
}
