//===-- support/ThreadPool.h - Fixed-size worker pool -----------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size worker pool (`std::thread` + one work queue) for
/// sharding batched read-only queries.  One blocking entry point:
/// `parallelFor(NumTasks, Fn)` runs `Fn(Worker, Task)` for every task
/// index.  `Worker` is a stable lane index in `[0, size())`, so callers
/// can hand each lane its own scratch state (per-thread epoch/stamp
/// vectors) and run lock-free over shared immutable data.
///
/// The calling thread participates as worker 0, so a pool of size `N`
/// spawns `N - 1` background threads and `parallelFor` makes progress
/// even on a single-core machine; a pool of size 1 spawns no threads and
/// runs everything inline.
///
/// The query engine, the label-set kernel and the lint pass manager
/// borrow `shared(Width)`: one pool per width for the life of the
/// process, so a long-running daemon starts its lanes once, not once per
/// request.  A pool runs one batch at a time.  A caller that finds it
/// busy — a second thread, or a task of the running batch calling back
/// into the pool — runs its own batch inline as worker 0; it never
/// waits for the lanes, so neither case can deadlock or interleave two
/// batches' lane indices.
///
/// Tasks are claimed through one atomic cursor whose high half carries
/// the batch generation: a claim can only succeed against the batch it
/// was issued for, so a worker waking late (or holding a stale task
/// function) simply observes a generation mismatch and goes back to
/// sleep — it can never run a new batch's task with an old function.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_THREADPOOL_H
#define STCFA_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stcfa {

/// Fixed-size pool of worker threads with a single blocking fan-out.
class ThreadPool {
public:
  /// Creates a pool of logical size \p Size (>= 1): the caller plus
  /// `Size - 1` background threads.  Each thread started bumps the
  /// `support.threads_started` counter.
  explicit ThreadPool(unsigned Size);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The process-lifetime pool of logical size \p Size (0 reads as 1),
  /// created on first use.  It is never destroyed: its threads park on a
  /// condition variable until the process exits.  Thread-safe.
  static ThreadPool &shared(unsigned Size);

  /// Logical worker count (including the calling thread).
  unsigned size() const { return Size; }

  /// Runs `Fn(Worker, Task)` for every `Task` in `[0, NumTasks)`, then
  /// returns.  Tasks are claimed dynamically; `Worker` identifies the
  /// executing lane (0 = the calling thread).  Safe to call from several
  /// threads and from inside a running task: a caller that finds the
  /// pool busy runs its whole batch inline with `Worker` 0.
  void parallelFor(size_t NumTasks,
                   const std::function<void(unsigned, size_t)> &Fn);

private:
  void runTasks(unsigned Worker,
                const std::function<void(unsigned, size_t)> &Fn, uint32_t Tot,
                uint64_t Gen);
  void workerLoop(unsigned Worker);

  unsigned Size;

  /// Set while one caller owns the lanes for a batch.
  std::atomic<bool> Claimed{false};

  std::mutex Mutex; ///< guards the batch fields below
  std::condition_variable WorkReady, AllDone;
  const std::function<void(unsigned, size_t)> *Task = nullptr;
  uint32_t Total = 0;
  size_t Pending = 0;
  uint64_t Generation = 0;
  bool ShuttingDown = false;

  /// High 32 bits: batch generation (mod 2^32); low 32 bits: next
  /// unclaimed task index.
  std::atomic<uint64_t> Cursor{0};

  /// Declared last: the threads read every member above.
  std::vector<std::thread> Workers;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_THREADPOOL_H
