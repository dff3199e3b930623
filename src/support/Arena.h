//===-- support/Arena.h - Bump-pointer allocation ---------------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena: many small objects that die together cost one
/// heap allocation per slab instead of one each.  The arena only hands
/// out memory; its owner runs the objects' destructors before the arena
/// itself goes away (see `Module`).
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_ARENA_H
#define STCFA_SUPPORT_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace stcfa {

class BumpArena {
public:
  BumpArena() = default;
  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  /// Returns \p Size bytes aligned to \p Align (a power of two no larger
  /// than `alignof(std::max_align_t)`), valid until the arena dies.
  void *allocate(size_t Size, size_t Align) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 &&
           Align <= alignof(std::max_align_t) && "bad alignment");
    uintptr_t P = (Cur + Align - 1) & ~uintptr_t(Align - 1);
    if (P + Size > End)
      return allocateSlow(Size, Align);
    Cur = P + Size;
    return reinterpret_cast<void *>(P);
  }

private:
  /// Slabs double from 4 KB to 1 MB, so a small module stays small and a
  /// large one makes a few dozen allocations in all.
  static constexpr size_t MinSlab = 4096;
  static constexpr size_t MaxSlab = 1 << 20;

  void *allocateSlow(size_t Size, size_t Align) {
    size_t Bytes = std::max(NextSlab, Size + Align);
    NextSlab = std::min(NextSlab * 2, MaxSlab);
    Slabs.push_back(std::make_unique_for_overwrite<std::byte[]>(Bytes));
    Cur = reinterpret_cast<uintptr_t>(Slabs.back().get());
    End = Cur + Bytes;
    return allocate(Size, Align);
  }

  std::vector<std::unique_ptr<std::byte[]>> Slabs;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t NextSlab = MinSlab;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_ARENA_H
