//===-- support/LabelSetWriter.cpp - Streaming label-set output -----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/LabelSetWriter.h"

#include "support/Hashing.h"

#include <algorithm>
#include <bit>

using namespace stcfa;

LabelSetWriter::LabelSetWriter(std::FILE *Out,
                               std::vector<std::string> LabelNames,
                               size_t MemoBudget)
    : Out(Out), Names(std::move(LabelNames)), MemoBudget(MemoBudget) {
  // One line past a block's worth never reallocates in the common case.
  Buf.reserve(2 * BlockBytes);
}

void LabelSetWriter::appendSet(SetWords Set) {
  Set = trimmed(Set);
  if (Set.empty()) {
    Buf += "{}";
    return;
  }
  const uint64_t H = hashBytes(Set.data(), Set.size_bytes());
  if (const size_t Mask = Slots.size() - 1; !Slots.empty())
    for (size_t I = H & Mask; Slots[I] != 0; I = (I + 1) & Mask) {
      const MemoEntry &E = Entries[Slots[I] - 1];
      if (E.Hash == H && E.NumWords == Set.size() &&
          std::equal(Set.begin(), Set.end(), MemoWords.begin() + E.WordsAt)) {
        Buf.append(MemoText, E.TextAt, E.TextLen);
        ++Reused;
        return;
      }
    }

  const size_t TextAt = Buf.size();
  Buf += '{';
  bool First = true;
  for (size_t W = 0; W != Set.size(); ++W)
    for (uint64_t Bits = Set[W]; Bits != 0; Bits &= Bits - 1) {
      if (!First)
        Buf += ", ";
      First = false;
      Buf += Names[W * 64 + std::countr_zero(Bits)];
    }
  Buf += '}';
  ++Formatted;
  remember(H, Set, TextAt);
}

void LabelSetWriter::remember(uint64_t H, SetWords Set, size_t TextAt) {
  const size_t TextLen = Buf.size() - TextAt;
  // Two index slots per entry, as the table is kept at most half full.
  const size_t Cost = Set.size_bytes() + TextLen + sizeof(MemoEntry) +
                      2 * sizeof(uint32_t);
  if (MemoUsed + Cost > MemoBudget)
    return;
  MemoUsed += Cost;
  Entries.push_back(
      {H, MemoWords.size(), Set.size(), MemoText.size(), TextLen});
  MemoWords.insert(MemoWords.end(), Set.begin(), Set.end());
  MemoText.append(Buf, TextAt, TextLen);

  auto place = [this](uint32_t Entry) {
    const size_t Mask = Slots.size() - 1;
    size_t I = Entries[Entry].Hash & Mask;
    while (Slots[I] != 0)
      I = (I + 1) & Mask;
    Slots[I] = Entry + 1;
  };
  if (2 * Entries.size() > Slots.size()) {
    Slots.assign(std::max<size_t>(64, 2 * Slots.size()), 0);
    for (uint32_t E = 0; E != Entries.size(); ++E)
      place(E);
  } else {
    place(static_cast<uint32_t>(Entries.size() - 1));
  }
}

void LabelSetWriter::endLine() {
  Buf += '\n';
  ++Lines;
  if (Buf.size() >= BlockBytes)
    flush();
}

void LabelSetWriter::rootLine(SetWords Set) {
  Buf += "L(root) = ";
  appendSet(Set);
  endLine();
}

void LabelSetWriter::exprLine(std::string_view Expr, SetWords Set) {
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
