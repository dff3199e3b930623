//===-- support/LabelSetWriter.h - Streaming label-set output ---*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one formatter for `--query=labels|all-labels` output, live or
/// from a snapshot.
///
/// Exhaustive label-set output is inherently quadratic (Van Horn &
/// Mairson), so what matters is the cost per byte.  Label names are
/// resolved once into a table, and every line is appended into one
/// reused block buffer that goes to the stream in ~`BlockBytes` writes:
/// no per-label heap string, no per-line `printf`.  The bytes are those
/// of `printf("%-18s %s\n", expr, "{name, ...}")`.
///
/// 0-CFA's answer is a few distinct sets printed many times, so each
/// distinct set is formatted once: the writer memoises a set's `{...}`
/// text keyed on a hash of its words (a hit is confirmed by comparing
/// the words) and copies the stored text on a repeat.  The memo is keyed
/// on content, not on where the words came from, and holds at most
/// `MemoBytes`; once that is spent, new sets are formatted but no longer
/// stored.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_LABELSETWRITER_H
#define STCFA_SUPPORT_LABELSETWRITER_H

#include "support/DenseBitset.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace stcfa {

/// Streams label-set lines to a `FILE`, in order.
class LabelSetWriter {
public:
  /// The buffer is written out once it holds at least this many bytes.
  static constexpr size_t BlockBytes = 64 << 10;
  /// The expression column width (the `%-18s` of the line format).
  static constexpr size_t ExprColumn = 18;
  /// What the set memo may hold: stored words, text and index.
  static constexpr size_t MemoBytes = 4 << 20;

  /// Writes to \p Out; \p LabelNames[L] is label L's display name.
  /// \p MemoBudget bounds the set memo (tests pass a small one).
  LabelSetWriter(std::FILE *Out, std::vector<std::string> LabelNames,
                 size_t MemoBudget = MemoBytes);
  ~LabelSetWriter() { flush(); }
  LabelSetWriter(const LabelSetWriter &) = delete;
  LabelSetWriter &operator=(const LabelSetWriter &) = delete;

  /// `L(root) = {name, ...}`: the `--query=labels` line.
  void rootLine(SetWords Set);

  /// \p Expr left-justified in `ExprColumn` columns (never truncated),
  /// a space, then `{name, ...}`: one `--query=all-labels` line.
  void exprLine(std::string_view Expr, SetWords Set);

  /// The `--query=all-labels` body: an `exprLine` for each occurrence
  /// below \p NumExprs whose set is non-empty (\p SetOf returns its
  /// `SetWords`; an unanswered occurrence's is empty).
  template <class SetOfFn, class ExprNameFn>
  void allLabels(uint32_t NumExprs, SetOfFn &&SetOf, ExprNameFn &&ExprName) {
    for (uint32_t I = 0; I != NumExprs; ++I)
      if (SetWords Set = trimmed(SetOf(I)); !Set.empty())
        exprLine(ExprName(I), Set);
  }

  /// Writes out whatever the buffer holds.
  void flush();

  /// Lines and bytes formatted so far (flushed or not).
  uint64_t lines() const { return Lines; }
  uint64_t bytes() const { return Flushed + Buf.size(); }
  /// Non-empty sets formatted label by label, and sets whose text came
  /// from the memo instead.
  uint64_t setsFormatted() const { return Formatted; }
  uint64_t setsReused() const { return Reused; }

private:
  /// \p Set without its trailing zero words: the memo's key.
  static SetWords trimmed(SetWords Set) {
    size_t N = Set.size();
    while (N != 0 && Set[N - 1] == 0)
      --N;
    return Set.first(N);
  }
  void appendSet(SetWords Set);
  /// Stores the text `Buf[TextAt, end)` of \p Set (trimmed, hash \p H)
  /// if the budget allows.
  void remember(uint64_t H, SetWords Set, size_t TextAt);
  void endLine();

  std::FILE *Out;
  std::vector<std::string> Names;
  std::string Buf;
  uint64_t Lines = 0;
  uint64_t Flushed = 0;
  uint64_t Formatted = 0;
  uint64_t Reused = 0;

  /// One memoised set: its words in `MemoWords`, its text in `MemoText`.
  struct MemoEntry {
    uint64_t Hash;
    size_t WordsAt, NumWords;
    size_t TextAt, TextLen;
  };
  std::vector<MemoEntry> Entries;
  /// Open-addressing index over `Entries` (entry + 1; 0 = empty slot),
  /// a power of two at most half full.
  std::vector<uint32_t> Slots;
  std::vector<uint64_t> MemoWords;
  std::string MemoText;
  size_t MemoBudget;
  size_t MemoUsed = 0;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_LABELSETWRITER_H
