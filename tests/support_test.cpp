//===-- tests/support_test.cpp - Support library unit tests ---------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Deadline.h"
#include "support/DenseBitset.h"
#include "support/Diagnostics.h"
#include "support/Hashing.h"
#include "support/Ids.h"
#include "support/LabelSetWriter.h"
#include "support/Status.h"
#include "support/StringInterner.h"
#include "support/TablePrinter.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace stcfa;

namespace {

//===----------------------------------------------------------------------===//
// Ids
//===----------------------------------------------------------------------===//

TEST(Ids, DefaultIsInvalid) {
  ExprId E;
  EXPECT_FALSE(E.isValid());
  EXPECT_EQ(E, ExprId::invalid());
}

TEST(Ids, IndexRoundTrip) {
  ExprId E(7);
  EXPECT_TRUE(E.isValid());
  EXPECT_EQ(E.index(), 7u);
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  // Compile-time property; just exercise comparison within one space.
  EXPECT_NE(VarId(1), VarId(2));
  EXPECT_LT(VarId(1), VarId(2));
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInterner, InternIsIdempotent) {
  StringInterner SI;
  Symbol A = SI.intern("hello");
  Symbol B = SI.intern("hello");
  Symbol C = SI.intern("world");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(SI.text(A), "hello");
  EXPECT_EQ(SI.text(C), "world");
  EXPECT_EQ(SI.size(), 2u);
}

TEST(StringInterner, SurvivesRehashing) {
  StringInterner SI;
  std::vector<Symbol> Syms;
  for (int I = 0; I != 1000; ++I)
    Syms.push_back(SI.intern("sym" + std::to_string(I)));
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(SI.text(Syms[I]), "sym" + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// DenseBitset
//===----------------------------------------------------------------------===//

TEST(DenseBitset, InsertContainsCount) {
  DenseBitset S(130);
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(0));
  EXPECT_TRUE(S.insert(64));
  EXPECT_TRUE(S.insert(129));
  EXPECT_FALSE(S.insert(64));
  EXPECT_EQ(S.count(), 3u);
  EXPECT_TRUE(S.contains(129));
  EXPECT_FALSE(S.contains(1));
}

TEST(DenseBitset, UnionWithReportsAdditions) {
  DenseBitset A(100), B(100);
  A.insert(1);
  B.insert(1);
  B.insert(2);
  B.insert(99);
  EXPECT_EQ(A.unionWith(B), 2u);
  EXPECT_EQ(A.unionWith(B), 0u);
  EXPECT_EQ(A.count(), 3u);
}

TEST(DenseBitset, ForEachIsOrdered) {
  DenseBitset S(256);
  for (uint32_t I : {7u, 250u, 0u, 63u, 64u})
    S.insert(I);
  std::vector<uint32_t> Seen;
  S.forEach([&](uint32_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<uint32_t>{0, 7, 63, 64, 250}));
}

TEST(DenseBitset, OrWordsBulkUnion) {
  DenseBitset A(130), B(130);
  A.insert(1);
  A.insert(64);
  B.insert(64);
  B.insert(65);
  B.insert(129);
  A.orWords(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_TRUE(A.contains(1));
  EXPECT_TRUE(A.contains(64));
  EXPECT_TRUE(A.contains(65));
  EXPECT_TRUE(A.contains(129));
  EXPECT_EQ(A.count(), A.popcount());
}

TEST(DenseBitset, OrWordsMasksTailWord) {
  // Universe 130 occupies 3 words with only 2 valid bits in the last;
  // a source buffer with garbage beyond bit 129 (e.g. the kernel's
  // cache-line-padded rows) must not plant ghost bits.
  DenseBitset A(130);
  const uint64_t Src[3] = {1, 0, ~uint64_t(0)};
  A.orWords(Src, 3);
  EXPECT_EQ(A.count(), 3u); // bits 0, 128, 129 only
  EXPECT_TRUE(A.contains(0));
  EXPECT_TRUE(A.contains(128));
  EXPECT_TRUE(A.contains(129));
  EXPECT_EQ(A.count(), A.popcount());

  // Equality against a conventionally-built set proves no ghost bits
  // survived in the tail word's representation.
  DenseBitset B(130);
  B.insert(0);
  B.insert(128);
  B.insert(129);
  EXPECT_TRUE(A == B);
}

TEST(DenseBitset, OrWordsShortSourceAndPopcount) {
  // A source shorter than the destination ORs only its prefix.
  DenseBitset A(200);
  const uint64_t Src[1] = {uint64_t(1) << 63};
  A.orWords(Src, 1);
  EXPECT_EQ(A.count(), 1u);
  EXPECT_TRUE(A.contains(63));

  // An exact-multiple universe has no tail to mask: the last word keeps
  // every bit.
  DenseBitset C(128);
  const uint64_t Full[2] = {~uint64_t(0), ~uint64_t(0)};
  C.orWords(Full, 2);
  EXPECT_EQ(C.count(), 128u);
  EXPECT_EQ(C.popcount(), 128u);
}

TEST(DenseBitset, ContainsAllAndEquality) {
  DenseBitset A(64), B(64);
  A.insert(3);
  A.insert(9);
  B.insert(3);
  EXPECT_TRUE(A.containsAll(B));
  EXPECT_FALSE(B.containsAll(A));
  B.insert(9);
  EXPECT_TRUE(A == B);
}

//===----------------------------------------------------------------------===//
// U64Set / U64Map
//===----------------------------------------------------------------------===//

TEST(U64Set, InsertAndGrow) {
  U64Set S;
  for (uint64_t I = 1; I <= 5000; ++I)
    EXPECT_TRUE(S.insert(I * 2654435761u));
  for (uint64_t I = 1; I <= 5000; ++I)
    EXPECT_FALSE(S.insert(I * 2654435761u));
  EXPECT_EQ(S.size(), 5000u);
  EXPECT_TRUE(S.contains(2654435761u));
  EXPECT_FALSE(S.contains(12345));
}

TEST(U64Map, LookupOrInsert) {
  U64Map M;
  for (uint64_t I = 1; I <= 3000; ++I) {
    uint32_t &Slot = M.lookupOrInsert(I, ~0u);
    EXPECT_EQ(Slot, ~0u);
    Slot = static_cast<uint32_t>(I * 3);
  }
  for (uint64_t I = 1; I <= 3000; ++I) {
    EXPECT_EQ(M.lookup(I, 0), I * 3);
    EXPECT_EQ(M.lookupOrInsert(I, ~0u), I * 3);
  }
  EXPECT_EQ(M.lookup(999999, 42u), 42u);
  EXPECT_EQ(M.size(), 3000u);
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "23456"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  // Every line has the same length (header, separator, rows).
  size_t FirstLine = Out.find('\n');
  std::string Header = Out.substr(0, FirstLine);
  size_t Pos = FirstLine + 1;
  while (Pos < Out.size()) {
    size_t Next = Out.find('\n', Pos);
    EXPECT_EQ(Next - Pos, Header.size()) << Out;
    Pos = Next + 1;
  }
}

TEST(TablePrinter, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(uint64_t(42)), "42");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, RendersLineAndColumn) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.error({3, 14}, "something went wrong");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.render(), "3:14: something went wrong\n");
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(Hashing, AvalancheSmoke) {
  // Nearby keys hash far apart (weak but useful sanity check).
  EXPECT_NE(hashU64(1), hashU64(2));
  EXPECT_NE(hashU64(1) >> 32, hashU64(2) >> 32);
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

//===----------------------------------------------------------------------===//
// Status
//===----------------------------------------------------------------------===//

TEST(Status, DefaultAndFactoriesCarryTheirCode) {
  EXPECT_TRUE(Status().isOk());
  EXPECT_TRUE(Status::ok().isOk());
  EXPECT_EQ(Status::cancelled("stop"), StatusCode::Cancelled);
  EXPECT_EQ(Status::deadlineExceeded("late"), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Status::resourceExhausted("budget"),
            StatusCode::ResourceExhausted);
  EXPECT_EQ(Status::outOfMemory("alloc"), StatusCode::OutOfMemory);
  EXPECT_EQ(Status::failedPrecondition("order"),
            StatusCode::FailedPrecondition);
  EXPECT_EQ(Status::invalidArgument("flag"), StatusCode::InvalidArgument);
}

TEST(Status, ToStringNamesTheCodeAndKeepsTheMessage) {
  Status S = Status::deadlineExceeded("close ran out of time");
  EXPECT_FALSE(S.isOk());
  EXPECT_FALSE(static_cast<bool>(S));
  EXPECT_EQ(S.message(), "close ran out of time");
  EXPECT_NE(S.toString().find("deadline-exceeded"), std::string::npos);
  EXPECT_NE(S.toString().find("close ran out of time"), std::string::npos);
}

TEST(Status, CodeNamesAreStableStrings) {
  EXPECT_STREQ(statusCodeName(StatusCode::Ok), "ok");
  EXPECT_STREQ(statusCodeName(StatusCode::ResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(statusCodeName(StatusCode::FailedPrecondition),
               "failed-precondition");
}

//===----------------------------------------------------------------------===//
// Deadline and CancellationToken
//===----------------------------------------------------------------------===//

TEST(Deadline, InfiniteNeverExpires) {
  Deadline D = Deadline::infinite();
  EXPECT_TRUE(D.isInfinite());
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingMillis(), 1000000);
}

TEST(Deadline, ZeroBudgetExpiresImmediately) {
  Deadline D = Deadline::afterMillis(0);
  EXPECT_FALSE(D.isInfinite());
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remainingMillis(), 0);
}

TEST(Deadline, GenerousBudgetIsNotYetExpired) {
  Deadline D = Deadline::afterMillis(60000);
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingMillis(), 0);
}

TEST(Deadline, BudgetPastTheClockRangeSaturatesToInfinite) {
  // INT64_MAX milliseconds overflows the nanosecond steady clock; the
  // deadline must saturate, never wrap into the past.
  for (int64_t Ms : {INT64_MAX, INT64_MAX / 2, int64_t(9300000000000)}) {
    Deadline D = Deadline::afterMillis(Ms);
    EXPECT_TRUE(D.isInfinite()) << Ms;
    EXPECT_FALSE(D.expired()) << Ms;
  }
  // A large budget still inside the clock's range stays finite.
  Deadline Year = Deadline::afterMillis(int64_t(365) * 24 * 3600 * 1000);
  EXPECT_FALSE(Year.isInfinite());
  EXPECT_FALSE(Year.expired());
  EXPECT_GT(Year.remainingMillis(), int64_t(364) * 24 * 3600 * 1000);
}

TEST(CancellationToken, DefaultIsUnarmedAndNeverCancelled) {
  CancellationToken T;
  EXPECT_FALSE(T.armed());
  EXPECT_FALSE(T.cancelled());
  T.requestCancel(); // no-op on an unarmed token
  EXPECT_FALSE(T.cancelled());
}

TEST(CancellationToken, CancelPropagatesAcrossCopies) {
  CancellationToken T = CancellationToken::create();
  EXPECT_TRUE(T.armed());
  CancellationToken Copy = T;
  EXPECT_FALSE(Copy.cancelled());
  T.requestCancel();
  EXPECT_TRUE(T.cancelled());
  EXPECT_TRUE(Copy.cancelled());
}

//===----------------------------------------------------------------------===//
// LabelSetWriter
//===----------------------------------------------------------------------===//

/// Label names `a0`, `a1`, ... for a universe of \p N labels.
std::vector<std::string> namesUpTo(uint32_t N) {
  std::vector<std::string> Names;
  for (uint32_t L = 0; L != N; ++L)
    Names.push_back(std::string("a").append(std::to_string(L)));
  return Names;
}

DenseBitset setOf(uint32_t Universe, std::initializer_list<uint32_t> Ls) {
  DenseBitset S(Universe);
  for (uint32_t L : Ls)
    S.insert(L);
  return S;
}

/// What `printf("%-18s %s\n", Expr, Set)` prints.
std::string printfLine(const std::string &Expr, const std::string &Set) {
  int N = std::snprintf(nullptr, 0, "%-18s %s\n", Expr.c_str(), Set.c_str());
  std::string Line(N + 1, '\0');
  std::snprintf(Line.data(), Line.size(), "%-18s %s\n", Expr.c_str(),
                Set.c_str());
  Line.pop_back();
  return Line;
}

/// `{name, ...}` of \p S over \p Names, built label by label.
std::string braced(const std::vector<std::string> &Names,
                   const DenseBitset &S) {
  std::string Text = "{";
  S.forEach([&](uint32_t L) {
    Text += Text.size() > 1 ? ", " : "";
    Text += Names[L];
  });
  return Text + "}";
}

/// Runs \p Body over a writer on a temporary file; returns the file's
/// bytes once the writer is gone.
template <class BodyFn>
std::string writtenBy(std::vector<std::string> Names, BodyFn Body,
                      size_t MemoBudget = LabelSetWriter::MemoBytes) {
  std::FILE *Tmp = std::tmpfile();
  EXPECT_NE(Tmp, nullptr);
  if (!Tmp)
    return "";
  {
    LabelSetWriter W(Tmp, std::move(Names), MemoBudget);
    Body(W);
  }
  std::string Out;
  std::rewind(Tmp);
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof Buf, Tmp)) != 0;)
    Out.append(Buf, N);
  std::fclose(Tmp);
  return Out;
}

TEST(LabelSetWriter, ExprColumnMatchesPrintfPadding) {
  const std::string Short = "var@3(1:2)";             // 10 chars: padded
  const std::string Exact = "app@123456(78:901)";     // 18 chars: no pad
  const std::string Long = "letrec@1234567(890:12)";  // 22 chars: no cut
  ASSERT_EQ(Exact.size(), LabelSetWriter::ExprColumn);
  std::string Got = writtenBy(namesUpTo(4), [&](LabelSetWriter &W) {
    W.exprLine(Short, setOf(4, {1}).words());
    W.exprLine(Exact, setOf(4, {0, 3}).words());
    W.exprLine(Long, setOf(4, {2}).words());
  });
  EXPECT_EQ(Got, printfLine(Short, "{a1}") + printfLine(Exact, "{a0, a3}") +
                     printfLine(Long, "{a2}"));
}

TEST(LabelSetWriter, AllLabelsSkipsEmptyAndUnansweredSets) {
  std::vector<DenseBitset> Sets = {setOf(3, {0}), setOf(3, {}),
                                   setOf(3, {1, 2}), setOf(3, {2})};
  std::vector<bool> Answered = {true, true, true, false};
  uint64_t Lines = 0;
  std::string Got = writtenBy(namesUpTo(3), [&](LabelSetWriter &W) {
    W.allLabels(
        4,
        [&](uint32_t I) { return Answered[I] ? Sets[I].words() : SetWords(); },
        [](uint32_t I) { return std::string("e").append(std::to_string(I)); });
    Lines = W.lines();
  });
  EXPECT_EQ(Got, printfLine("e0", "{a0}") + printfLine("e2", "{a1, a2}"));
  EXPECT_EQ(Lines, 2u);
}

TEST(LabelSetWriter, SetsSpanningSeveralWords) {
  std::string Got = writtenBy(namesUpTo(200), [](LabelSetWriter &W) {
    W.exprLine("x", setOf(200, {199, 0, 64, 63, 130}).words());
  });
  EXPECT_EQ(Got, printfLine("x", "{a0, a63, a64, a130, a199}"));
}

TEST(LabelSetWriter, RootLine) {
  std::string Got = writtenBy(namesUpTo(70), [](LabelSetWriter &W) {
    W.rootLine(setOf(70, {69, 5}).words());
    W.rootLine(setOf(70, {}).words());
  });
  EXPECT_EQ(Got, "L(root) = {a5, a69}\nL(root) = {}\n");
}

TEST(LabelSetWriter, OutputLargerThanABlockStaysInOrder) {
  std::string Want;
  uint64_t Bytes = 0;
  std::string Got = writtenBy(namesUpTo(130), [&](LabelSetWriter &W) {
    for (uint32_t I = 0; I != 6000; ++I) {
      DenseBitset S = setOf(130, {I % 130, (I * 7) % 130});
      std::string Expr = std::string("e").append(std::to_string(I));
      W.exprLine(Expr, S.words());
      std::string Set = "{";
      S.forEach([&](uint32_t L) {
        Set += Set.size() > 1 ? ", a" : "a";
        Set += std::to_string(L);
      });
      Want += printfLine(Expr, Set + "}");
    }
    Bytes = W.bytes();
  });
  ASSERT_GT(Want.size(), 2 * LabelSetWriter::BlockBytes);
  EXPECT_EQ(Got, Want);
  EXPECT_EQ(Bytes, Want.size());
}

/// Writes `e<I>` lines for \p Sets in order and returns what printf
/// would print, collecting the writer's memo counts.
struct MemoRun {
  std::string Got, Want;
  uint64_t Formatted = 0, Reused = 0;
};

MemoRun writeSets(const std::vector<std::string> &Names,
                  const std::vector<DenseBitset> &Sets,
                  size_t MemoBudget = LabelSetWriter::MemoBytes) {
  MemoRun R;
  R.Got = writtenBy(
      Names,
      [&](LabelSetWriter &W) {
        for (size_t I = 0; I != Sets.size(); ++I)
          W.exprLine("e" + std::to_string(I), Sets[I].words());
        R.Formatted = W.setsFormatted();
        R.Reused = W.setsReused();
      },
      MemoBudget);
  for (size_t I = 0; I != Sets.size(); ++I)
    R.Want += printfLine("e" + std::to_string(I), braced(Names, Sets[I]));
  return R;
}

TEST(LabelSetWriter, RepeatedSetIsFormattedOnce) {
  std::vector<DenseBitset> Sets(50, setOf(8, {1, 3, 7}));
  MemoRun R = writeSets(namesUpTo(8), Sets);
  EXPECT_EQ(R.Got, R.Want);
  EXPECT_EQ(R.Formatted, 1u);
  EXPECT_EQ(R.Reused, 49u);
}

TEST(LabelSetWriter, EqualContentFromDistinctSourcesIsReused) {
  // A bitset's words and a padded row holding the same labels (as a
  // kernel row is padded to a cache line) are one set to the memo.
  DenseBitset S = setOf(70, {2, 65});
  const uint64_t Row[8] = {uint64_t(1) << 2, uint64_t(1) << 1, 0, 0, 0, 0, 0,
                           0};
  uint64_t Formatted = 0, Reused = 0;
  std::string Got = writtenBy(namesUpTo(70), [&](LabelSetWriter &W) {
    W.exprLine("bitset", S.words());
    W.exprLine("row", SetWords(Row));
    Formatted = W.setsFormatted();
    Reused = W.setsReused();
  });
  EXPECT_EQ(Got, printfLine("bitset", "{a2, a65}") +
                     printfLine("row", "{a2, a65}"));
  EXPECT_EQ(Formatted, 1u);
  EXPECT_EQ(Reused, 1u);
}

TEST(LabelSetWriter, InterleavedDistinctSetsKeepTheirOwnText) {
  const DenseBitset A = setOf(5, {0}), B = setOf(5, {1, 4}),
                    C = setOf(5, {0, 1, 2, 3, 4}), Empty = setOf(5, {});
  std::vector<DenseBitset> Sets = {A, B, A, C, Empty, B, C, A, Empty, C};
  MemoRun R = writeSets(namesUpTo(5), Sets);
  EXPECT_EQ(R.Got, R.Want);
  EXPECT_EQ(R.Formatted, 3u); // the empty set is never formatted
  EXPECT_EQ(R.Reused, 5u);
}

TEST(LabelSetWriter, MultiWordSetsDifferingInOneWordAreDistinct) {
  // Same first and last words, different middle word.
  std::vector<DenseBitset> Sets = {
      setOf(200, {0, 70, 199}), setOf(200, {0, 71, 199}),
      setOf(200, {0, 70, 199}), setOf(200, {0, 199}),
      setOf(200, {0, 71, 199})};
  MemoRun R = writeSets(namesUpTo(200), Sets);
  EXPECT_EQ(R.Got, R.Want);
  EXPECT_EQ(R.Formatted, 3u);
  EXPECT_EQ(R.Reused, 2u);
}

TEST(LabelSetWriter, SetTextLongerThanABlockIsReused) {
  std::vector<std::string> Names;
  for (uint32_t L = 0; L != 600; ++L)
    Names.push_back("label_with_a_long_display_name_" + std::string(100, 'x') +
                    std::to_string(L));
  DenseBitset All(600);
  for (uint32_t L = 0; L != 600; ++L)
    All.insert(L);
  ASSERT_GT(braced(Names, All).size(), LabelSetWriter::BlockBytes);
  std::vector<DenseBitset> Sets = {All, setOf(600, {5}), All, All};
  MemoRun R = writeSets(Names, Sets);
  EXPECT_EQ(R.Got, R.Want);
  EXPECT_EQ(R.Formatted, 2u);
  EXPECT_EQ(R.Reused, 2u);
}

TEST(LabelSetWriter, MemoPastItsBudgetStillPrintsEverySet) {
  // Room for the first set only: later distinct sets are formatted every
  // time they recur, and the bytes do not change.
  std::vector<DenseBitset> Sets;
  for (uint32_t Round = 0; Round != 3; ++Round)
    for (uint32_t L = 0; L != 10; ++L)
      Sets.push_back(setOf(10, {L}));
  const size_t OneEntry = 100; // an entry here costs about 60 bytes
  MemoRun Small = writeSets(namesUpTo(10), Sets, OneEntry);
  EXPECT_EQ(Small.Got, Small.Want);
  EXPECT_EQ(Small.Reused, 2u);     // only {a0} was stored
  EXPECT_EQ(Small.Formatted, 28u); // every other line formatted again
  MemoRun None = writeSets(namesUpTo(10), Sets, 0);
  EXPECT_EQ(None.Got, None.Want);
  EXPECT_EQ(None.Formatted, 30u);
  EXPECT_EQ(None.Reused, 0u);
  MemoRun Full = writeSets(namesUpTo(10), Sets);
  EXPECT_EQ(Full.Got, Full.Want);
  EXPECT_EQ(Full.Formatted, 10u);
  EXPECT_EQ(Full.Reused, 20u);
}

} // namespace
