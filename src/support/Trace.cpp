//===-- support/Trace.cpp - Stage-level tracing spans ---------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include <cstdio>
#include <fstream>

#if STCFA_TRACING

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

using namespace stcfa;

namespace {

std::atomic<bool> Enabled{false};
std::atomic<uint64_t> AllocCount{0};
std::atomic<uint64_t> NextSeq{1};
std::atomic<uint32_t> NextTid{0};

uint64_t nowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Epoch)
          .count());
}

// One recorded event.  Name/key/value strings are literal (or otherwise
// immortal) pointers, so recording never copies characters.
struct Event {
  const char *Name;
  char Phase;
  uint64_t StartNs;
  uint64_t DurNs;
  uint64_t Seq;
  uint64_t Parent;
  uint32_t NumArgs;
  const char *ArgKeys[Span::MaxArgs];
  uint64_t ArgVals[Span::MaxArgs];
  const char *StrKey;
  const char *StrVal;
};

// Per-thread buffer.  Held by shared_ptr from both the thread_local slot
// and the global registry, so events recorded on a pool thread survive
// that thread's exit.  Appends take the buffer's own mutex — uncontended
// in practice, and spans are stage-granularity, never per-edge.
struct TraceBuffer {
  std::mutex M;
  std::vector<Event> Events;
  uint32_t Tid = 0;
};

struct Registry {
  std::mutex M;
  std::vector<std::shared_ptr<TraceBuffer>> Buffers;
};

Registry &registry() {
  static Registry R;
  return R;
}

TraceBuffer &localBuffer() {
  thread_local std::shared_ptr<TraceBuffer> Local = [] {
    auto B = std::make_shared<TraceBuffer>();
    B->Tid = NextTid.fetch_add(1, std::memory_order_relaxed);
    AllocCount.fetch_add(1, std::memory_order_relaxed);
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    if (R.Buffers.size() == R.Buffers.capacity())
      AllocCount.fetch_add(1, std::memory_order_relaxed);
    R.Buffers.push_back(B);
    return B;
  }();
  return *Local;
}

void append(const Event &E) {
  TraceBuffer &B = localBuffer();
  std::lock_guard<std::mutex> Lock(B.M);
  if (B.Events.size() == B.Events.capacity())
    AllocCount.fetch_add(1, std::memory_order_relaxed);
  B.Events.push_back(E);
}

// Per-thread stack of open span Seq ids, for parent linkage.  Fixed
// depth; spans are stage-granularity, so 64 is generous.
constexpr int MaxDepth = 64;
thread_local uint64_t SpanStack[MaxDepth];
thread_local int SpanDepth = 0;

void appendInstant(const char *Name, const char *Key, const char *Val,
                   const char *IntKey, uint64_t IntVal, bool HasInt) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  Event E{};
  E.Name = Name;
  E.Phase = 'i';
  E.StartNs = nowNs();
  E.Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  E.Parent = SpanDepth > 0 ? SpanStack[SpanDepth - 1] : 0;
  E.StrKey = Key;
  E.StrVal = Val;
  if (HasInt) {
    E.ArgKeys[0] = IntKey;
    E.ArgVals[0] = IntVal;
    E.NumArgs = 1;
  }
  append(E);
}

void escapeInto(std::string &Out, const char *S) {
  for (; *S; ++S) {
    if (*S == '"' || *S == '\\')
      Out.push_back('\\');
    Out.push_back(*S);
  }
}

void appendMicros(std::string &Out, uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03llu",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned long long>(Ns % 1000));
  Out += Buf;
}

} // namespace

void stcfa::setTracingEnabled(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

bool stcfa::tracingEnabled() {
  return Enabled.load(std::memory_order_relaxed);
}

void stcfa::clearTraceEvents() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  for (auto &B : R.Buffers) {
    std::lock_guard<std::mutex> BLock(B->M);
    B->Events.clear(); // keeps capacity — no future growth alloc
  }
}

uint64_t stcfa::traceAllocationCount() {
  return AllocCount.load(std::memory_order_relaxed);
}

Span::Span(const char *SpanName) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  Name = SpanName;
  StartNs = nowNs();
  Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  Parent = SpanDepth > 0 ? SpanStack[SpanDepth - 1] : 0;
  if (SpanDepth < MaxDepth)
    SpanStack[SpanDepth++] = Seq;
}

Span::~Span() {
  if (!Name)
    return;
  if (SpanDepth > 0 && SpanStack[SpanDepth - 1] == Seq)
    --SpanDepth;
  Event E{};
  E.Name = Name;
  E.Phase = 'X';
  E.StartNs = StartNs;
  E.DurNs = nowNs() - StartNs;
  E.Seq = Seq;
  E.Parent = Parent;
  E.NumArgs = NumArgs;
  for (uint32_t I = 0; I != NumArgs; ++I) {
    E.ArgKeys[I] = ArgKeys[I];
    E.ArgVals[I] = ArgVals[I];
  }
  E.StrKey = StrKey;
  E.StrVal = StrVal;
  append(E);
}

void Span::arg(const char *Key, uint64_t Value) {
  if (!Name || NumArgs >= MaxArgs)
    return;
  ArgKeys[NumArgs] = Key;
  ArgVals[NumArgs] = Value;
  ++NumArgs;
}

void Span::arg(const char *Key, const char *Value) {
  if (!Name)
    return;
  StrKey = Key;
  StrVal = Value;
}

void stcfa::traceInstant(const char *Name) {
  appendInstant(Name, nullptr, nullptr, nullptr, 0, false);
}

void stcfa::traceInstant(const char *Name, const char *Key, const char *Val) {
  appendInstant(Name, Key, Val, nullptr, 0, false);
}

void stcfa::traceInstant(const char *Name, const char *Key, const char *Val,
                         const char *IntKey, uint64_t IntVal) {
  appendInstant(Name, Key, Val, IntKey, IntVal, true);
}

std::vector<TraceEventView> stcfa::snapshotTraceEvents() {
  std::vector<std::pair<Event, uint32_t>> Raw;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    for (auto &B : R.Buffers) {
      std::lock_guard<std::mutex> BLock(B->M);
      for (const Event &E : B->Events)
        Raw.emplace_back(E, B->Tid);
    }
  }
  std::sort(Raw.begin(), Raw.end(),
            [](const auto &A, const auto &B) { return A.first.Seq < B.first.Seq; });
  std::vector<TraceEventView> Out;
  Out.reserve(Raw.size());
  for (const auto &[E, Tid] : Raw) {
    TraceEventView V;
    V.Name = E.Name;
    V.Phase = E.Phase;
    V.StartNs = E.StartNs;
    V.DurNs = E.DurNs;
    V.Tid = Tid;
    V.Seq = E.Seq;
    V.Parent = E.Parent;
    for (uint32_t I = 0; I != E.NumArgs; ++I)
      V.Args.emplace_back(E.ArgKeys[I], E.ArgVals[I]);
    if (E.StrKey) {
      V.StrKey = E.StrKey;
      V.StrVal = E.StrVal ? E.StrVal : "";
    }
    Out.push_back(std::move(V));
  }
  return Out;
}

std::string stcfa::chromeTraceJson() {
  std::vector<TraceEventView> Events = snapshotTraceEvents();
  std::string Out = "[";
  bool First = true;
  for (const TraceEventView &E : Events) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n  {\"name\": \"";
    escapeInto(Out, E.Name.c_str());
    Out += "\", \"ph\": \"";
    Out.push_back(E.Phase);
    Out += "\", \"ts\": ";
    appendMicros(Out, E.StartNs);
    if (E.Phase == 'X') {
      Out += ", \"dur\": ";
      appendMicros(Out, E.DurNs);
    } else {
      Out += ", \"s\": \"t\"";
    }
    Out += ", \"pid\": 1, \"tid\": " + std::to_string(E.Tid);
    Out += ", \"args\": {\"seq\": " + std::to_string(E.Seq) +
           ", \"parent\": " + std::to_string(E.Parent);
    for (const auto &[K, V] : E.Args) {
      Out += ", \"";
      escapeInto(Out, K.c_str());
      Out += "\": " + std::to_string(V);
    }
    if (!E.StrKey.empty()) {
      Out += ", \"";
      escapeInto(Out, E.StrKey.c_str());
      Out += "\": \"";
      escapeInto(Out, E.StrVal.c_str());
      Out += "\"";
    }
    Out += "}}";
  }
  Out += "\n]\n";
  return Out;
}

bool stcfa::writeChromeTrace(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << chromeTraceJson();
  return Out.good();
}

#else // !STCFA_TRACING

bool stcfa::writeChromeTrace(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "[]\n";
  return Out.good();
}

#endif // STCFA_TRACING
