//===-- perfbench/src/Ledger.h - Benchmark harness utilities ----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark harness: order statistics,
/// the in-memory span log the traced run records around calls into the
/// program's public functions, counter deltas taken from
/// `snapshotMetrics()` at the same boundaries, child-process timing for
/// the CLI workloads, and a closed-loop client for the `--serve` daemon.
///
/// Everything here lives in the benchmark, outside `src/`: the program
/// under test carries no benchmark-specific spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace ledger {

/// Monotonic nanoseconds (steady_clock).
uint64_t nowNs();

//===--- order statistics --------------------------------------------------//

/// The median, averaging the two middle values for an even count (the
/// definition Python's `statistics.median` uses).  0 for an empty input.
double median(std::vector<double> V);

/// Tracing overhead from matched replays: the median over pairs of
/// traced / untraced - 1 (pair i ran the same work both ways).
double pairedOverhead(const std::vector<double> &Traced,
                      const std::vector<double> &Untraced);

/// The highest percentile that still has at least ten samples beyond it,
/// with the sample count it was taken from.
struct Tail {
  double Value = 0;
  double Percentile = 0;
  size_t Samples = 0;
};

/// False when fewer than eleven samples exist (no tail can be named).
bool tailOf(std::vector<double> V, Tail &Out);

//===--- span log ----------------------------------------------------------//

/// Spans recorded in memory by the traced run: name, start, end and the
/// enclosing span.  Disabled logs record nothing, so the untraced replay
/// runs the same code path without the bookkeeping.
class SpanLog {
public:
  struct Span {
    std::string Name;
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    int32_t Parent = -1;
  };

  explicit SpanLog(bool Enabled) : On(Enabled) {}

  bool enabled() const { return On; }
  int32_t begin(const char *Name);
  void end(int32_t Id);

  /// Self time of every instance named \p Name, in recording order.
  std::vector<double> selfMillisOf(const std::string &Name) const;

  /// Per instance of \p Root, the summed self time of every span below
  /// it (the in-process layer time of one request or one invocation).
  std::vector<double> layerMillisUnder(const std::string &Root) const;

  /// Writes the spans as a Chrome/Perfetto trace-event array.
  bool writeChromeTrace(const std::string &Path) const;

private:
  /// Per span: its duration minus the time its direct children cover.
  std::vector<double> selfMillis() const;

  bool On;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// RAII span; a no-op on a disabled log.
class Scope {
public:
  Scope(SpanLog &L, const char *Name) : L(L), Id(L.begin(Name)) {}
  ~Scope() { L.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &L;
  int32_t Id;
};

//===--- counter deltas ----------------------------------------------------//

/// Counter values from `snapshotMetrics()` at one boundary; `since`
/// gives the growth of one counter up to a later boundary.
class CounterMark {
public:
  CounterMark();
  uint64_t since(const std::string &Name) const;

private:
  std::map<std::string, uint64_t> Before;
};

//===--- per-layer samples -------------------------------------------------//

/// Named samples collected over a run; a metric is the median of its
/// samples (0 when the layer did no work in the workload).
class Samples {
public:
  void add(const std::string &Name, double V) { S[Name].push_back(V); }
  double medianOf(const std::string &Name) const;
  bool has(const std::string &Name) const { return S.count(Name) != 0; }

private:
  std::map<std::string, std::vector<double>> S;
};

//===--- child processes ---------------------------------------------------//

struct ProcessResult {
  bool Started = false;
  int ExitCode = -1; ///< -1 when the child died on a signal
  double WallMs = 0;
  double MaxRssMb = 0; ///< the child's ru_maxrss
};

/// Runs \p Argv to completion with stdout redirected to \p StdoutPath
/// (stderr to \p StdoutPath + ".err"), timing fork-to-reap wall clock.
/// The child dies with the harness and under a CPU-time limit, so a hung
/// program cannot outlive the run.
ProcessResult runProcess(const std::vector<std::string> &Argv,
                         const std::string &StdoutPath);

/// A `stcfa --serve` child driven by one closed-loop client: each
/// request is written only after the previous reply line arrived.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(const std::vector<std::string> &Argv,
             const std::string &StderrPath);

  /// Writes one request line and blocks for one reply line; \p Ms is the
  /// time from the write to the reply's newline.  False on a dead pipe
  /// or after \p TimeoutMs without a reply.
  bool request(const std::string &Line, std::string &Reply, double &Ms,
               int TimeoutMs = 60000);

  /// Peak resident set (VmHWM) of the daemon so far, in MB.
  double peakRssMb() const;

  /// Sends `shutdown`, closes stdin and reaps the child; kills it if it
  /// has not exited within a few seconds.  True on a clean exit 0.
  bool stop();

private:
  void kill();

  pid_t Pid = -1;
  int ToChild = -1;
  int FromChild = -1;
  std::string Buffered;
};

//===--- files and output ----------------------------------------------------//

bool writeFile(const std::string &Path, const std::string &Data);
bool readFile(const std::string &Path, std::string &Out);
/// Byte-for-byte equality of two files, streamed.
bool filesEqual(const std::string &A, const std::string &B);
uint64_t fileSize(const std::string &Path);
bool makeDirs(const std::string &Path);
bool removeTree(const std::string &Path);

/// Shortest round-trip decimal form of \p V (all its digits, no padding).
std::string formatNumber(double V);

/// JSON string literal with escapes.
std::string quote(const std::string &S);

} // namespace ledger

#endif // PERFBENCH_LEDGER_H
