//===-- pipeline/Pipeline.h - Source text to query engine -------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place program text becomes a query engine: parse, infer,
/// solve (standard | unify | subtransitive | poly | hybrid), freeze,
/// engine.  A `Pipeline` owns the `Module`, the analysis, the CSR
/// `FrozenGraph` (frozen here, inside the hybrid ladder, or mapped from a
/// `LoadedSnapshot`) and the `QueryEngine`.  `status()` says how far the
/// sequence got: `InvalidArgument` (the source does not parse; the
/// message is the rendered diagnostics), `FailedPrecondition` (a
/// snapshot does not match the given source), or the analysis's own
/// governed status when no answer was produced.  A failed type inference
/// is not an error: untyped programs still analyze.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_PIPELINE_PIPELINE_H
#define STCFA_PIPELINE_PIPELINE_H

#include "analysis/HybridCFA.h"
#include "analysis/StandardCFA.h"
#include "ast/Module.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "poly/Polyvariant.h"
#include "snapshot/Snapshot.h"
#include "support/Deadline.h"
#include "support/Status.h"
#include "unify/UnificationCFA.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace stcfa {

/// The analyses a pipeline can run (`--analysis=<name>`).
enum class AnalysisKind : uint8_t { Standard, Unify, Subtransitive, Poly, Hybrid };

/// Parse `--analysis`, `--congruence`, `--policy` and `--degrade` values;
/// false for an unknown name.
bool parseAnalysisKind(std::string_view Name, AnalysisKind &Out);
bool parseCongruence(std::string_view Name, CongruenceMode &Out);
bool parsePolicy(std::string_view Name, ClosurePolicy &Out);
bool parseDegradeMode(std::string_view Name, DegradeMode &Out);

/// How program text becomes frozen tables and an engine; each analysis
/// ignores the options it has no use for.
struct PipelineOptions {
  AnalysisKind Analysis = AnalysisKind::Subtransitive;
  /// Congruence, closure policy and close budget of the subtransitive
  /// and poly analyses.
  SubtransitiveConfig Graph;
  /// How far the hybrid ladder may degrade.
  DegradeMode Degrade = DegradeMode::Standard;
  /// Query-engine lanes (and hybrid ladder threads).
  unsigned Threads = 1;
  /// Batch size at which batched queries dispatch to the label-set kernel
  /// (0 disables it).
  size_t KernelThreshold = QueryEngine::DefaultKernelThreshold;
  /// The kernel scheduler's level-merge threshold.
  uint32_t KernelChunkRows = LabelSetKernel::DefaultChunkRows;
  /// One absolute deadline over the whole sequence; infinite by default.
  Deadline D;
};

/// The configuration hashed into a snapshot cache key: every option that
/// shapes the frozen tables (analysis, congruence, policy), nothing else.
std::string snapshotConfig(const PipelineOptions &O);

/// One program from text (or a snapshot) to a query engine.  Immovable:
/// the engine and the analyses point into what the pipeline owns.
class Pipeline {
public:
  /// parse -> infer -> solve -> freeze -> engine over \p Source.
  Pipeline(std::string_view Source, const PipelineOptions &O);

  /// An engine over the mapped \p Snap, persisted kernel rows adopted.
  /// Parse-free unless \p Source is given: then it is reparsed and
  /// inferred for the AST-walking passes, and must match the snapshot's
  /// shape.
  Pipeline(std::unique_ptr<LoadedSnapshot> Snap, const PipelineOptions &O,
           std::optional<std::string_view> Source = std::nullopt);

  ~Pipeline();
  Pipeline(const Pipeline &) = delete;
  Pipeline &operator=(const Pipeline &) = delete;

  const Status &status() const { return S; }

  /// Null after a parse failure or for a parse-free snapshot pipeline.
  const Module *module() const { return M.get(); }
  bool typed() const { return Typed; }
  /// Why inference failed (its first diagnostic, or "?"); empty if typed.
  const std::string &inferFailure() const { return InferFailure; }
  /// Wall time of the solve stage alone.
  double analysisMillis() const { return AnalysisMs; }

  /// The labels flowing to \p E under whichever analysis or hybrid rung
  /// served.  Requires `status().isOk()`.
  DenseBitset labelsOf(ExprId E);

  /// The closed graph (subtransitive, poly, undegraded hybrid); else null.
  const SubtransitiveGraph *graph() const;
  /// The CSR tables queries run on; null for standard, unify and a
  /// degraded hybrid run.
  const FrozenGraph *frozen() const;
  /// The engine over `frozen()`; null exactly when `frozen()` is.
  QueryEngine *engine();

  /// Which engine serves: "snapshot" for a mapped pipeline, the hybrid
  /// rung's name, or the analysis name.
  const char *servedBy() const;

  const LoadedSnapshot *snapshot() const { return Snap.get(); }
  const HybridCFA *hybrid() const { return Hybrid.get(); }
  const StandardCFA *standard() const { return Std.get(); }
  const UnificationCFA *unify() const { return Uni.get(); }

private:
  /// False (status set) when \p Source does not parse.
  bool parseAndInfer(std::string_view Source);
  void solve();
  void startEngine(const FrozenGraph &F);

  PipelineOptions Opts;
  Status S;
  std::unique_ptr<Module> M;
  bool Typed = false;
  std::string InferFailure;
  double AnalysisMs = 0;

  std::unique_ptr<StandardCFA> Std;
  std::unique_ptr<UnificationCFA> Uni;
  std::unique_ptr<SubtransitiveGraph> Graph;
  std::unique_ptr<PolyvariantCFA> Poly;
  std::unique_ptr<HybridCFA> Hybrid;
  std::unique_ptr<LoadedSnapshot> Snap;
  std::unique_ptr<FrozenGraph> Frozen;
  std::unique_ptr<QueryEngine> Engine;
};

} // namespace stcfa

#endif // STCFA_PIPELINE_PIPELINE_H
