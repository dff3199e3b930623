//===-- support/Trace.h - Stage-level tracing spans -------------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-overhead-when-disabled tracing for the analysis pipeline.  Stages
/// open an RAII `Span` at their boundary (close phase, freeze, condense,
/// one per kernel level, one per query-batch lane, one per hybrid rung)
/// and may attach a handful of integer arguments plus one string argument
/// (typically a `statusCodeName()` cause).  Completed spans carry a
/// monotonic start timestamp, duration, the recording thread, and a link
/// to the enclosing span on the same thread; `writeChromeTrace()` dumps
/// everything in the Chrome `chrome://tracing` / Perfetto JSON array
/// format.
///
/// Gating mirrors FaultInjection:
///
///  * `STCFA_TRACING == 0` — `Span` is an empty struct, every call is an
///    inline no-op, and the whole facility folds away at compile time.
///  * `STCFA_TRACING == 1` (this repo's default, so tier-1 ctest
///    exercises the layer) — a span while collection is *disabled* costs
///    one relaxed atomic load in the constructor and a branch in the
///    destructor; no buffer is touched and nothing allocates
///    (`traceAllocationCount()` is the test hook for that claim).
///
/// Collection is enabled at runtime (`setTracingEnabled(true)`), by the
/// driver when `--trace-json=` is given, or by tests.  Span names and
/// argument keys must be string literals (or otherwise outlive the trace)
/// — the buffer stores the pointers, which is what keeps recording cheap.
///
/// Spans mark *stage* boundaries: per level, per component batch, per
/// lane shard.  Never open one inside a per-edge or per-word loop; that
/// is what the Metrics counters are for.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_TRACE_H
#define STCFA_SUPPORT_TRACE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#ifndef STCFA_TRACING
#define STCFA_TRACING 0
#endif

namespace stcfa {

/// True when tracing is compiled in.
constexpr bool tracingCompiledIn() { return STCFA_TRACING != 0; }

/// A completed event as tests and exporters see it.  Name/keys are copied
/// into std::string here, so snapshots outlive everything.
struct TraceEventView {
  std::string Name;
  char Phase = 'X';    ///< 'X' complete span, 'i' instant
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t Tid = 0;    ///< dense per-process trace thread id
  uint64_t Seq = 0;    ///< unique event id (allocation order)
  uint64_t Parent = 0; ///< Seq of the enclosing span on this thread, 0 = root
  std::vector<std::pair<std::string, uint64_t>> Args;
  std::string StrKey;  ///< empty when no string argument was attached
  std::string StrVal;
};

#if STCFA_TRACING

/// Runtime master switch.  Off by default; flipping it on/off is safe at
/// any quiescent point (tests, driver startup).
void setTracingEnabled(bool On);
bool tracingEnabled();

/// Discards all recorded events (buffer capacity is retained, so a
/// clear-then-record cycle does not count as an allocation).
void clearTraceEvents();

/// Number of heap allocations the trace layer has performed since process
/// start (buffer registration + vector growth).  Monotonic; tests assert
/// the delta is zero across a disabled-mode workload.
uint64_t traceAllocationCount();

/// All events recorded so far, across threads, in stable (Seq) order.
std::vector<TraceEventView> snapshotTraceEvents();

/// The events as a Chrome-tracing JSON array.
std::string chromeTraceJson();

/// Writes chromeTraceJson() to \p Path; false on I/O failure.
bool writeChromeTrace(const std::string &Path);

/// Records a zero-duration instant event (e.g. a rung transition or a
/// kernel→BFS fallback), with an optional cause string and integer arg.
void traceInstant(const char *Name);
void traceInstant(const char *Name, const char *Key, const char *Val);
void traceInstant(const char *Name, const char *Key, const char *Val,
                  const char *IntKey, uint64_t IntVal);

/// RAII span.  Construct at a stage boundary; attach args before the
/// scope closes.  Inactive (when collection is disabled) spans ignore
/// args and record nothing.
class Span {
public:
  explicit Span(const char *SpanName);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Integer arguments a span keeps; extras are dropped.
  static constexpr uint32_t MaxArgs = 8;

  /// Attaches an integer argument (up to `MaxArgs` per span).
  void arg(const char *Key, uint64_t Value);
  /// Attaches the span's single string argument (last call wins).
  void arg(const char *Key, const char *Value);

private:
  const char *Name = nullptr; ///< nullptr == inactive
  uint64_t StartNs = 0;
  uint64_t Seq = 0;
  uint64_t Parent = 0;
  uint32_t NumArgs = 0;
  const char *ArgKeys[MaxArgs] = {};
  uint64_t ArgVals[MaxArgs] = {};
  const char *StrKey = nullptr;
  const char *StrVal = nullptr;
};

#else // !STCFA_TRACING

inline void setTracingEnabled(bool) {}
inline constexpr bool tracingEnabled() { return false; }
inline void clearTraceEvents() {}
inline constexpr uint64_t traceAllocationCount() { return 0; }
inline std::vector<TraceEventView> snapshotTraceEvents() { return {}; }
inline std::string chromeTraceJson() { return "[]"; }
bool writeChromeTrace(const std::string &Path); // writes "[]"
inline void traceInstant(const char *) {}
inline void traceInstant(const char *, const char *, const char *) {}
inline void traceInstant(const char *, const char *, const char *,
                         const char *, uint64_t) {}

class Span {
public:
  static constexpr uint32_t MaxArgs = 8;
  explicit Span(const char *) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  void arg(const char *, uint64_t) {}
  void arg(const char *, const char *) {}
};

#endif // STCFA_TRACING

} // namespace stcfa

#endif // STCFA_SUPPORT_TRACE_H
