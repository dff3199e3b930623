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

  /// Writes to \p Out; \p LabelNames[L] is label L's display name.
  LabelSetWriter(std::FILE *Out, std::vector<std::string> LabelNames);
  ~LabelSetWriter() { flush(); }
  LabelSetWriter(const LabelSetWriter &) = delete;
  LabelSetWriter &operator=(const LabelSetWriter &) = delete;

  /// `L(root) = {name, ...}`: the `--query=labels` line.
  void rootLine(const DenseBitset &Set);

  /// \p Expr left-justified in `ExprColumn` columns (never truncated),
  /// a space, then `{name, ...}`: one `--query=all-labels` line.
  void exprLine(std::string_view Expr, const DenseBitset &Set);

  /// The `--query=all-labels` body: an `exprLine` for each occurrence
  /// below \p NumExprs whose set was answered (\p SetOf returns a
  /// `const DenseBitset *`, null when it was not) and is non-empty.
  template <class SetOfFn, class ExprNameFn>
  void allLabels(uint32_t NumExprs, SetOfFn &&SetOf, ExprNameFn &&ExprName) {
    for (uint32_t I = 0; I != NumExprs; ++I) {
      const DenseBitset *Set = SetOf(I);
      if (Set && !Set->empty())
        exprLine(ExprName(I), *Set);
    }
  }

  /// Writes out whatever the buffer holds.
  void flush();

  /// Lines and bytes formatted so far (flushed or not).
  uint64_t lines() const { return Lines; }
  uint64_t bytes() const { return Flushed + Buf.size(); }

private:
  void appendSet(const DenseBitset &Set);
  void endLine();

  std::FILE *Out;
  std::vector<std::string> Names;
  std::string Buf;
  uint64_t Lines = 0;
  uint64_t Flushed = 0;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_LABELSETWRITER_H
