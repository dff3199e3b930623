//===-- bench/bench_frontend.cpp - Front-half stage ledger ----------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the front half every workload runs — parse, infer, build, close,
/// freeze, and the teardown of the frozen graph, the live graph and the
/// module — and counts the heap allocations each stage makes, per
/// expression.  This binary replaces the global `operator new` with a
/// counting one; no library does.
///
/// Programs: the `batch-lint` input (`makeRandomProgram`, seed 1, 16 000
/// bindings with tuples, datatypes, `if` and effects), `cubic:1600` and
/// `deep:1024`.  Every repetition runs in a fresh child process, as a CLI
/// run would; each stage reports the minimum over 10 repetitions, and
/// allocation counts, which are deterministic, come from the last one.
///
/// Usage:
///   bench_frontend          # writes BENCH_frontend.json (`frontend` rows)
///   bench_frontend --smoke  # small programs, 2 repetitions, checks only
///
/// The committed BENCH_frontend.json also holds `frontend_parent` rows:
/// this file built against the commit before the front-half allocation
/// work, its rows merged in by hand.  A re-run rewrites the file with the
/// `frontend` rows only.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FrozenGraph.h"
#include "core/SubtransitiveGraph.h"
#include "gen/Generators.h"
#include "testgen/ShapeGen.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sys/wait.h>
#include <unistd.h>

namespace {

uint64_t Allocations = 0;

// Out of line, so the compiler never pairs a `new` it inlined with the
// `free` below (GCC's -Wmismatched-new-delete would).
[[gnu::noinline]] void *countedAlloc(std::size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

[[gnu::noinline]] void release(void *P) noexcept { std::free(P); }

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { release(P); }
void operator delete[](void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }
void operator delete[](void *P, std::size_t) noexcept { release(P); }

using namespace stcfa;

namespace {

enum Stage { Parse, Infer, Build, Close, Freeze, Teardown, NumStages };
const char *const StageNames[NumStages] = {"parse", "infer",  "build",
                                           "close", "freeze", "teardown"};

struct Program {
  std::string Name;
  std::string Source;
};

/// One pass over the front half.
struct Pass {
  double Ms[NumStages] = {};
  uint64_t Allocs[NumStages] = {};
  uint32_t Exprs = 0;
  GraphStats Stats;
  uint32_t FrozenNodes = 0;
};

bool runPass(const Program &P, Pass &Out) {
  Timer T;
  uint64_t A = Allocations;
  auto stageDone = [&](Stage S) {
    Out.Ms[S] = T.millis();
    Out.Allocs[S] = Allocations - A;
    T.reset();
    A = Allocations;
  };
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(P.Source, Diags);
  if (!M)
    return false;
  stageDone(Parse);
  if (!inferTypes(*M, Diags))
    return false;
  stageDone(Infer);
  auto G = std::make_unique<SubtransitiveGraph>(*M);
  G->build();
  stageDone(Build);
  if (!G->close(Deadline::infinite()).isOk())
    return false;
  stageDone(Close);
  auto F = std::make_unique<FrozenGraph>(*G);
  if (!F->status().isOk())
    return false;
  stageDone(Freeze);
  Out.Exprs = M->numExprs();
  Out.Stats = G->stats();
  Out.FrozenNodes = F->numNodes();
  F.reset();
  G.reset();
  M.reset();
  stageDone(Teardown);
  return true;
}

/// Runs one pass in a forked child, so that every pass starts from the
/// cold heap a CLI process starts from: a heap warmed by earlier passes
/// hides part of what allocation costs.
bool runColdPass(const Program &P, Pass &Out) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return false;
  pid_t Pid = fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    close(Fd[0]);
    Pass R;
    bool Ok = runPass(P, R) && write(Fd[1], &R, sizeof R) == sizeof R;
    _exit(Ok ? 0 : 1);
  }
  close(Fd[1]);
  ssize_t Got = read(Fd[0], &Out, sizeof Out);
  close(Fd[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  return Got == sizeof Out && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

bool sameShape(const Pass &A, const Pass &B) {
  return A.Exprs == B.Exprs && A.FrozenNodes == B.FrozenNodes &&
         A.Stats.BuildNodes == B.Stats.BuildNodes &&
         A.Stats.BuildEdges == B.Stats.BuildEdges &&
         A.Stats.CloseNodes == B.Stats.CloseNodes &&
         A.Stats.CloseEdges == B.Stats.CloseEdges &&
         A.Stats.CloseRuleFirings == B.Stats.CloseRuleFirings &&
         std::equal(std::begin(A.Allocs), std::end(A.Allocs),
                    std::begin(B.Allocs));
}

std::vector<Program> programs(bool Smoke) {
  RandomProgramOptions R;
  R.Seed = 1;
  R.NumBindings = Smoke ? 400 : 16000;
  R.UseTuples = R.UseDatatypes = R.UseIf = R.UseEffects = true;
  ShapeSpec Deep;
  Deep.Shape = CondShape::Deep;
  Deep.N = Smoke ? 64 : 1024;
  const int Cubic = Smoke ? 50 : 1600;
  return {{"random:" + std::to_string(R.NumBindings), makeRandomProgram(R)},
          {"cubic:" + std::to_string(Cubic), makeCubicFamily(Cubic)},
          {"deep:" + std::to_string(Deep.N), makeShapeProgram(Deep)}};
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke")) {
      std::fprintf(stderr, "usage: bench_frontend [--smoke]\n");
      return 2;
    }
    Smoke = true;
  }
  const int Reps = Smoke ? 2 : 10;

  std::unique_ptr<bench::JsonReport> Report;
  if (!Smoke)
    Report = std::make_unique<bench::JsonReport>("frontend");
  std::printf("%-14s %8s", "program", "exprs");
  for (const char *S : StageNames)
    std::printf(" %9s", S);
  std::printf("   allocs/expr (parse infer build close)\n");

  for (const Program &P : programs(Smoke)) {
    Pass Best, Last;
    for (int R = 0; R != Reps; ++R) {
      Pass Cur;
      if (!runColdPass(P, Cur)) {
        std::fprintf(stderr, "%s: the front half failed\n", P.Name.c_str());
        return 1;
      }
      // Allocation counts and graph sizes are deterministic: a pass that
      // disagrees with the previous one is a bug, not noise.
      if (R > 0 && !sameShape(Cur, Last)) {
        std::fprintf(stderr, "%s: pass %d differs from pass %d\n",
                     P.Name.c_str(), R, R - 1);
        return 1;
      }
      for (int S = 0; S != NumStages; ++S)
        Best.Ms[S] = R == 0 ? Cur.Ms[S] : std::min(Best.Ms[S], Cur.Ms[S]);
      Last = Cur;
    }
    auto perExpr = [&](Stage S) {
      return static_cast<double>(Last.Allocs[S]) / Last.Exprs;
    };
    std::printf("%-14s %8u", P.Name.c_str(), Last.Exprs);
    for (double Ms : Best.Ms)
      std::printf(" %9.2f", Ms);
    std::printf("   %.2f %.2f %.2f %.2f\n", perExpr(Parse), perExpr(Infer),
                perExpr(Build), perExpr(Close));
    if (!Report)
      continue;
    auto &Row = Report->record("frontend")
                    .add("prog", P.Name)
                    .add("exprs", Last.Exprs)
                    .add("nodes", Last.Stats.totalNodes())
                    .add("edges", Last.Stats.totalEdges())
                    .add("frozen_nodes", Last.FrozenNodes)
                    .add("reps", Reps);
    for (int S = 0; S != NumStages; ++S)
      Row.add((std::string(StageNames[S]) + "_ms").c_str(), Best.Ms[S]);
    for (int S = 0; S != NumStages; ++S)
      Row.add((std::string(StageNames[S]) + "_allocs_per_expr").c_str(),
              perExpr(Stage(S)));
  }
  return 0;
}
