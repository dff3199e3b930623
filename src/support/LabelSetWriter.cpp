//===-- support/LabelSetWriter.cpp - Streaming label-set output -----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/LabelSetWriter.h"

using namespace stcfa;

LabelSetWriter::LabelSetWriter(std::FILE *Out,
                               std::vector<std::string> LabelNames)
    : Out(Out), Names(std::move(LabelNames)) {
  // One line past a block's worth never reallocates in the common case.
  Buf.reserve(2 * BlockBytes);
}

void LabelSetWriter::appendSet(const DenseBitset &Set) {
  Buf += '{';
  bool First = true;
  Set.forEach([&](uint32_t L) {
    if (!First)
      Buf += ", ";
    First = false;
    Buf += Names[L];
  });
  Buf += '}';
}

void LabelSetWriter::endLine() {
  Buf += '\n';
  ++Lines;
  if (Buf.size() >= BlockBytes)
    flush();
}

void LabelSetWriter::rootLine(const DenseBitset &Set) {
  Buf += "L(root) = ";
  appendSet(Set);
  endLine();
}

void LabelSetWriter::exprLine(std::string_view Expr, const DenseBitset &Set) {
  Buf += Expr;
  if (Expr.size() < ExprColumn)
    Buf.append(ExprColumn - Expr.size(), ' ');
  Buf += ' ';
  appendSet(Set);
  endLine();
}

void LabelSetWriter::flush() {
  if (Buf.empty())
    return;
  // A short write leaves the stream's error flag set; the driver checks
  // it once before exiting, so it is not re-checked per block here.
  std::fwrite(Buf.data(), 1, Buf.size(), Out);
  Flushed += Buf.size();
  Buf.clear();
}
