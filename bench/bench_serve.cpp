//===-- bench/bench_serve.cpp - Daemon request-latency percentiles --------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-latency benchmark for `--serve` mode (docs/SERVE.md).  Runs an
/// in-process daemon over pipe pairs — the same byte-level protocol a
/// client sees, minus process spawn — and measures the round trip of each
/// request individually: write the line, block until the reply line.
///
///   * Table 1 — per program: one-time `load` cost, then p50/p95/p99 over
///     a sweep of `labels` queries at rotating expressions, plus single
///     `all-labels` and `lint` round trips.
///
///   * Table 2 — the editor's edit -> lint round trip on deep:1024 with
///     four lanes: median and p90 of `edit` + `lint` over 60 rounds (one
///     request in flight), and the PIDs the kernel handed out per round,
///     read from the last-pid field of /proc/loadavg — every thread or
///     process started in the PID namespace, so a daemon that spawns no
///     thread on the request path reads ~0.  The committed
///     `edit_lint_round_trip_parent` rows are this table built against
///     the revision before the shared lane pool and streamed replies
///     (merged in by hand, like BENCH_delta.json's parent rows).
///
/// Emits `BENCH_serve.json` so CI can diff tail latencies across
/// revisions.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gen/Generators.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "support/TablePrinter.h"
#include "testgen/ShapeGen.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace stcfa;
using namespace stcfa::bench;

namespace {

/// In-process daemon over two pipe pairs.  Requests go down Req, replies
/// come back up Rep; the run loop executes on its own thread, exactly as
/// the driver wires it, so the measured path includes parse, dispatch,
/// admission, the worker hop, and reply serialization.
class ServeDaemon {
public:
  explicit ServeDaemon(serve::ServeOptions Opts = {}) {
    if (pipe(Req) != 0 || pipe(Rep) != 0) {
      std::perror("pipe");
      std::abort();
    }
    Daemon = std::make_unique<serve::Server>(Req[0], Rep[1], Opts);
    Runner = std::thread([this] { Daemon->run(); });
    In = fdopen(Rep[0], "r");
  }

  ~ServeDaemon() {
    close(Req[1]); // EOF -> the run loop drains and returns
    Runner.join();
    if (In)
      fclose(In); // closes Rep[0]
    close(Req[0]);
    close(Rep[1]);
  }

  /// One full round trip: write the request line, block for the reply
  /// line.  The single-request-in-flight discipline keeps the measured
  /// time attributable to this request alone.
  std::string roundTrip(const std::string &Request) {
    std::string Line = Request + "\n";
    ssize_t W = write(Req[1], Line.data(), Line.size());
    if (W != static_cast<ssize_t>(Line.size())) {
      std::fprintf(stderr, "bench_serve: short write\n");
      std::abort();
    }
    char *Buf = nullptr;
    size_t Cap = 0;
    ssize_t N = getline(&Buf, &Cap, In);
    std::string Reply = N > 0 ? std::string(Buf, static_cast<size_t>(N))
                              : std::string();
    free(Buf);
    return Reply;
  }

private:
  int Req[2] = {-1, -1};
  int Rep[2] = {-1, -1};
  std::unique_ptr<serve::Server> Daemon;
  std::thread Runner;
  std::FILE *In = nullptr;
};

std::string requestLine(int Id, const char *Verb, serve::JsonValue Params) {
  serve::JsonValue R = serve::JsonValue::object();
  R.set("id", serve::JsonValue::number(int64_t(Id)));
  R.set("verb", serve::JsonValue::string(Verb));
  R.set("params", std::move(Params));
  return serve::renderJson(R);
}

std::string loadLine(int Id, const std::string &Source) {
  serve::JsonValue P = serve::JsonValue::object();
  P.set("source", serve::JsonValue::string(Source));
  return requestLine(Id, "load", std::move(P));
}

std::string labelsLine(int Id, uint32_t Expr) {
  serve::JsonValue P = serve::JsonValue::object();
  P.set("kind", serve::JsonValue::string("labels"));
  P.set("expr", serve::JsonValue::number(int64_t(Expr)));
  return requestLine(Id, "query", std::move(P));
}

/// Aborts on an error reply so a red bench can't masquerade as a fast
/// one, and returns `result.exprs` from load replies (0 otherwise).
uint32_t checkReply(const std::string &Reply) {
  serve::JsonValue V;
  if (!serve::parseJson(Reply, V).isOk() || !V.field("ok") ||
      !V.field("ok")->asBool()) {
    std::fprintf(stderr, "bench_serve: error reply: %s", Reply.c_str());
    std::abort();
  }
  const serve::JsonValue *Result = V.field("result");
  const serve::JsonValue *Exprs = Result ? Result->field("exprs") : nullptr;
  return Exprs && Exprs->isInt() ? static_cast<uint32_t>(Exprs->asInt()) : 0;
}

/// The last PID the kernel allocated in this PID namespace (the fifth
/// field of /proc/loadavg); 0 when unreadable.
uint64_t lastPid() {
  std::FILE *F = std::fopen("/proc/loadavg", "r");
  if (!F)
    return 0;
  unsigned long long Pid = 0;
  if (std::fscanf(F, "%*s %*s %*s %*s %llu", &Pid) != 1)
    Pid = 0;
  std::fclose(F);
  return Pid;
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Index = static_cast<size_t>(P / 100.0 *
                                     static_cast<double>(Sorted.size() - 1) +
                                     0.5);
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

void printPaperTables() {
  std::printf("== Serve-mode request latency (in-process pipe) ==\n");
  TablePrinter Table({"prog", "exprs", "load(ms)", "queries", "p50(ms)",
                      "p95(ms)", "p99(ms)", "all-labels(ms)", "lint(ms)"});
  JsonReport Report("serve");

  struct Prog {
    std::string Name;
    std::string Source;
  };
  const Prog Progs[] = {{"cubic:16", makeCubicFamily(16)},
                        {"cubic:64", makeCubicFamily(64)},
                        {"joinpoint:64", makeJoinPointFamily(64)}};
  constexpr int kQueries = 200;

  for (const Prog &P : Progs) {
    ServeDaemon D;
    int Id = 0;

    Timer LoadTimer;
    uint32_t Exprs = checkReply(D.roundTrip(loadLine(++Id, P.Source)));
    double LoadMs = LoadTimer.millis();

    // Warm-up pass so first-touch page faults land outside the sweep.
    for (int I = 0; I != 8; ++I)
      checkReply(D.roundTrip(labelsLine(++Id, uint32_t(I) % Exprs)));

    std::vector<double> Millis;
    Millis.reserve(kQueries);
    for (int I = 0; I != kQueries; ++I) {
      Timer T;
      std::string Reply =
          D.roundTrip(labelsLine(++Id, uint32_t(I * 7) % Exprs));
      Millis.push_back(T.millis());
      checkReply(Reply);
    }
    std::sort(Millis.begin(), Millis.end());
    double P50 = percentile(Millis, 50), P95 = percentile(Millis, 95),
           P99 = percentile(Millis, 99);

    serve::JsonValue AllParams = serve::JsonValue::object();
    AllParams.set("kind", serve::JsonValue::string("all-labels"));
    Timer AllTimer;
    checkReply(
        D.roundTrip(requestLine(++Id, "query", std::move(AllParams))));
    double AllMs = AllTimer.millis();

    Timer LintTimer;
    checkReply(
        D.roundTrip(requestLine(++Id, "lint", serve::JsonValue::object())));
    double LintMs = LintTimer.millis();

    Table.addRow({P.Name, TablePrinter::num(uint64_t(Exprs)),
                  TablePrinter::num(LoadMs),
                  TablePrinter::num(uint64_t(kQueries)),
                  TablePrinter::num(P50), TablePrinter::num(P95),
                  TablePrinter::num(P99), TablePrinter::num(AllMs),
                  TablePrinter::num(LintMs)});
    Report.record("serve_latency")
        .add("prog", P.Name)
        .add("exprs", Exprs)
        .add("load_ms", LoadMs)
        .add("queries", kQueries)
        .add("p50_ms", P50)
        .add("p95_ms", P95)
        .add("p99_ms", P99)
        .add("all_labels_ms", AllMs)
        .add("lint_ms", LintMs);
  }

  std::printf("%s\n", Table.render().c_str());

  std::printf("== Editor round trip: edit -> lint (deep:1024, 4 lanes) ==\n");
  TablePrinter Rounds({"prog", "threads", "rounds", "p50(ms)", "p90(ms)",
                       "pids/round"});
  ShapeSpec Spec;
  if (!parseShapeSpec("deep:1024", Spec))
    std::abort();
  serve::ServeOptions Opts;
  Opts.Threads = 4;
  ServeDaemon D(Opts);
  int Id = 0;
  checkReply(D.roundTrip(loadLine(++Id, makeShapeProgram(Spec))));
  // Definition f<K> is rewritten to call an earlier f<J>; variants
  // alternate so every round edits for real.  Two warm-up rounds build
  // the edit session and fault in the lanes outside the sample.
  constexpr int kWarm = 2, kRounds = 60;
  std::vector<double> Millis;
  uint64_t PidsBefore = 0;
  for (int R = 0; R != kWarm + kRounds; ++R) {
    if (R == kWarm)
      PidsBefore = lastPid();
    const int K = 1 + (R * 389) % 1023, J = (R * 131) % K;
    serve::JsonValue P = serve::JsonValue::object();
    P.set("op", serve::JsonValue::string("replace"));
    P.set("name", serve::JsonValue::string("f" + std::to_string(K)));
    P.set("text", serve::JsonValue::string(
                      "let f" + std::to_string(K) + " = fn x => f" +
                      std::to_string(J) + (R % 2 ? " (f0 x);" : " x;")));
    std::string Edit = requestLine(++Id, "edit", std::move(P));
    std::string Lint = requestLine(++Id, "lint", serve::JsonValue::object());
    Timer T;
    checkReply(D.roundTrip(Edit));
    checkReply(D.roundTrip(Lint));
    if (R >= kWarm)
      Millis.push_back(T.millis());
  }
  const double PidsPerRound =
      static_cast<double>(lastPid() - PidsBefore) / kRounds;
  std::sort(Millis.begin(), Millis.end());
  const double P50 = percentile(Millis, 50), P90 = percentile(Millis, 90);
  Rounds.addRow({"deep:1024", "4", TablePrinter::num(uint64_t(kRounds)),
                 TablePrinter::num(P50), TablePrinter::num(P90),
                 TablePrinter::num(PidsPerRound)});
  Report.record("edit_lint_round_trip")
      .add("prog", std::string("deep:1024"))
      .add("threads", uint64_t(4))
      .add("rounds", uint64_t(kRounds))
      .add("p50_ms", P50)
      .add("p90_ms", P90)
      .add("pids_per_round", PidsPerRound);
  std::printf("%s\n", Rounds.render().c_str());
}

void BM_ServeLabelsRoundTrip(benchmark::State &State) {
  ServeDaemon D;
  int Id = 0;
  uint32_t Exprs = checkReply(D.roundTrip(
      loadLine(++Id, makeCubicFamily(static_cast<int>(State.range(0))))));
  uint32_t Expr = 0;
  for (auto _ : State) {
    std::string Reply = D.roundTrip(labelsLine(++Id, Expr++ % Exprs));
    benchmark::DoNotOptimize(Reply.data());
  }
}
BENCHMARK(BM_ServeLabelsRoundTrip)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

} // namespace

STCFA_BENCH_MAIN(printPaperTables)
