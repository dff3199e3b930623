//===-- support/ThreadPool.cpp - Fixed-size worker pool -------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Metrics.h"

#include <cassert>

using namespace stcfa;

ThreadPool::ThreadPool(unsigned Size) : Size(Size ? Size : 1) {
  static Counter &Started = counter("support.threads_started");
  Workers.reserve(this->Size - 1);
  for (unsigned W = 1; W != this->Size; ++W) {
    Workers.emplace_back([this, W] { workerLoop(W); });
    Started.inc();
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

ThreadPool &ThreadPool::shared(unsigned Size) {
  if (Size == 0)
    Size = 1;
  // Heap-allocated and never freed: the workers must outlive every static
  // destructor that might still run a batch during exit.
  static std::mutex Mu;
  static std::vector<ThreadPool *> &Pools = *new std::vector<ThreadPool *>;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Pools.size() <= Size)
    Pools.resize(Size + 1, nullptr);
  if (!Pools[Size])
    Pools[Size] = new ThreadPool(Size);
  return *Pools[Size];
}

void ThreadPool::parallelFor(size_t NumTasks,
                             const std::function<void(unsigned, size_t)> &Fn) {
  if (NumTasks == 0)
    return;
  if (Size == 1 || NumTasks == 1 ||
      Claimed.exchange(true, std::memory_order_acquire)) {
    for (size_t T = 0; T != NumTasks; ++T)
      Fn(0, T);
    return;
  }
  assert(NumTasks < (uint64_t(1) << 32) && "task count packs into 32 bits");
  uint64_t Gen;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Task = &Fn;
    Total = static_cast<uint32_t>(NumTasks);
    Pending = NumTasks;
    Gen = ++Generation;
    Cursor.store(Gen << 32, std::memory_order_release);
  }
  WorkReady.notify_all();
  runTasks(0, Fn, static_cast<uint32_t>(NumTasks), Gen);
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllDone.wait(Lock, [this] { return Pending == 0; });
    Task = nullptr;
  }
  Claimed.store(false, std::memory_order_release);
}

/// Claims and runs tasks of batch \p Gen until it drains (or a newer
/// batch supersedes it, which cannot happen while this batch has
/// unclaimed tasks — `Pending` keeps `parallelFor` blocked).
void ThreadPool::runTasks(unsigned Worker,
                          const std::function<void(unsigned, size_t)> &Fn,
                          uint32_t Tot, uint64_t Gen) {
  size_t Done = 0;
  const uint64_t GenBits = (Gen & 0xffffffffull) << 32;
  uint64_t C = Cursor.load(std::memory_order_acquire);
  while ((C & 0xffffffff00000000ull) == GenBits) {
    uint32_t T = static_cast<uint32_t>(C);
    if (T >= Tot)
      break;
    if (Cursor.compare_exchange_weak(C, C + 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      Fn(Worker, T);
      ++Done;
      C = Cursor.load(std::memory_order_acquire);
    }
  }
  if (Done) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Pending -= Done;
    if (Pending == 0)
      AllDone.notify_all();
  }
}

void ThreadPool::workerLoop(unsigned Worker) {
  uint64_t SeenGeneration = 0;
  for (;;) {
    const std::function<void(unsigned, size_t)> *Fn;
    uint32_t Tot;
    uint64_t Gen;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkReady.wait(Lock, [&] {
        return ShuttingDown || Generation != SeenGeneration;
      });
      if (ShuttingDown)
        return;
      SeenGeneration = Generation;
      if (Pending == 0)
        continue; // batch already drained
      Fn = Task;
      Tot = Total;
      Gen = Generation;
    }
    runTasks(Worker, *Fn, Tot, Gen);
  }
}
