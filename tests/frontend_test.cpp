//===-- tests/frontend_test.cpp - Same graph, same ids --------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Holds the front half (parse, infer, build, close) to its identity
/// contract: node, type and expression ids and graph sizes are a function
/// of the program alone, however the tables behind them are stored.
///
///  * every node is unique per (op, payloadA, payloadB), and each
///    occurrence, binder, derived and label node is exactly the node its
///    direct lookup returns, under every congruence and closure policy;
///  * golden build/close sizes and rule firings on fixed programs;
///  * `TypeTable` interning is structural and numbers types in creation
///    order;
///  * a module holding every expression kind tears down cleanly (the
///    sanitizer presets check the arena and the child vectors);
///  * `U64Set::reserve` changes no answer.
///
//===----------------------------------------------------------------------===//

#include "core/SubtransitiveGraph.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "support/Hashing.h"
#include "testgen/ShapeGen.h"

#include "TestUtil.h"

#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace stcfa;

namespace {

std::string shapeProgram(const char *Spec) {
  ShapeSpec S;
  EXPECT_TRUE(parseShapeSpec(Spec, S)) << Spec;
  return makeShapeProgram(S);
}

RandomProgramOptions lintLikeProgram(int Bindings) {
  RandomProgramOptions R;
  R.Seed = 1;
  R.NumBindings = Bindings;
  R.UseTuples = R.UseDatatypes = R.UseIf = R.UseEffects = true;
  return R;
}

//===----------------------------------------------------------------------===//
// (a) Hash-consing: one node per identity, reachable by its direct lookup
//===----------------------------------------------------------------------===//

/// Empty when \p G keeps the identity contract; else the first breach.
std::string checkNodeIdentity(const Module &M, const SubtransitiveGraph &G) {
  std::set<std::tuple<NodeOp, uint32_t, uint32_t>> Seen;
  for (uint32_t I = 0; I != G.numNodes(); ++I) {
    const NodeId N(I);
    const NodeOp Op = G.op(N);
    const uint32_t A = G.payloadA(N), B = G.payloadB(N);
    if (!Seen.insert({Op, A, B}).second)
      return "two nodes for " + G.describe(N);
    NodeId Direct = N;
    switch (Op) {
    case NodeOp::Expr:
      Direct = G.lookupExprNode(ExprId(A));
      break;
    case NodeOp::Var:
      Direct = G.lookupVarNode(VarId(A));
      break;
    case NodeOp::Dom:
    case NodeOp::Ran:
    case NodeOp::RefCell:
    case NodeOp::Field:
      Direct = G.lookupDerived(Op, NodeId(A), B);
      break;
    case NodeOp::Label:
      Direct = G.lookupLabelNode(LabelId(A));
      break;
    case NodeOp::Summary:
    case NodeOp::Summary2:
    case NodeOp::Top:
      break;
    }
    if (Direct != N)
      return "node " + std::to_string(I) + " (" + G.describe(N) +
             ") is not what its direct lookup returns";
  }
  // Conversely, each occurrence and binder resolves to its own node or
  // to a congruence summary.
  for (uint32_t E = 0; E != M.numExprs(); ++E) {
    NodeId N = G.lookupExprNode(ExprId(E));
    if (N.isValid() && G.op(N) != NodeOp::Summary &&
        !(G.op(N) == NodeOp::Expr && G.payloadA(N) == E))
      return "expression " + std::to_string(E) + " maps to " + G.describe(N);
  }
  for (uint32_t V = 0; V != M.numVars(); ++V) {
    NodeId N = G.lookupVarNode(VarId(V));
    if (N.isValid() && G.op(N) != NodeOp::Summary &&
        !(G.op(N) == NodeOp::Var && G.payloadA(N) == V))
      return "binder " + std::to_string(V) + " maps to " + G.describe(N);
  }
  return "";
}

TEST(FrontendIdentity, EveryNodeIsUniqueAndDirectlyReachable) {
  const std::vector<std::pair<std::string, std::string>> Programs = {
      {"life", lifeProgram()},
      {"lexgen:12", makeLexgenLike(12)},
      {"minieval", miniEvalProgram()},
      {"parsercombo", parserComboProgram()},
      {"cubic:16", makeCubicFamily(16)},
      {"wide:16", shapeProgram("wide:16")},
      {"deep:32", shapeProgram("deep:32")},
      {"diamond:8", shapeProgram("diamond:8")},
      {"skewed:16", shapeProgram("skewed:16")},
      {"random:200", makeRandomProgram(lintLikeProgram(200))},
  };
  const ClosurePolicy Policies[] = {ClosurePolicy::PaperExact,
                                    ClosurePolicy::NodeExists,
                                    ClosurePolicy::Undemanded};
  const CongruenceMode Modes[] = {CongruenceMode::None,
                                  CongruenceMode::ByType,
                                  CongruenceMode::ByBaseAndType};
  for (const auto &[Name, Source] : Programs) {
    std::unique_ptr<Module> M = parseMaybeInfer(Source);
    ASSERT_TRUE(M) << Name;
    for (ClosurePolicy P : Policies)
      for (CongruenceMode C : Modes) {
        // Eager templates over recursive datatypes that ≈1 does not
        // collapse recurse without bound during build, before any budget
        // is checked (a known limitation, see ROADMAP); the data-free
        // programs cover these pairs.
        if (P == ClosurePolicy::Undemanded && C != CongruenceMode::ByType &&
            !M->dataDecls().empty())
          continue;
        SubtransitiveConfig Config;
        Config.Policy = P;
        Config.Congruence = C;
        // ≈2 diverges on the recursive corpus programs; a budget stops
        // it, and an aborted graph must keep the contract too.
        Config.MaxNodes = 100000;
        SubtransitiveGraph G(*M, Config);
        G.build();
        EXPECT_EQ(checkNodeIdentity(*M, G), "")
            << Name << " after build, policy " << int(P) << ", congruence "
            << int(C);
        (void)G.close(Deadline::infinite());
        EXPECT_EQ(checkNodeIdentity(*M, G), "")
            << Name << " after close, policy " << int(P) << ", congruence "
            << int(C);
      }
  }
}

//===----------------------------------------------------------------------===//
// (b) Golden graph sizes
//===----------------------------------------------------------------------===//

struct Golden {
  const char *Name;
  std::string Source;
  GraphStats Want;
};

TEST(FrontendIdentity, GraphStatsMatchGoldens) {
  // Default configuration (PaperExact, ByType); {build nodes, build
  // edges, close nodes, close edges, rule firings, widenings}, recorded
  // before the node tables lost their redundant hashing.  Any change to
  // these numbers changes the graph, not just its speed.
  const Golden Goldens[] = {
      {"cubic:16", makeCubicFamily(16), {591, 459, 645, 864, 1643, 0}},
      {"deep:64", shapeProgram("deep:64"), {716, 520, 130, 260, 520, 0}},
      {"lexgen", makeLexgenLike(), {4276, 2960, 2099, 3561, 5977, 0}},
      {"random:2000", makeRandomProgram(lintLikeProgram(2000)),
       {27792, 20540, 11427, 16695, 31946, 0}},
  };
  for (const Golden &G : Goldens) {
    std::unique_ptr<Module> M = parseMaybeInfer(G.Source);
    ASSERT_TRUE(M) << G.Name;
    SubtransitiveGraph Graph(*M);
    Graph.build();
    ASSERT_TRUE(Graph.close(Deadline::infinite()).isOk()) << G.Name;
    const GraphStats &S = Graph.stats();
    EXPECT_EQ(S.BuildNodes, G.Want.BuildNodes) << G.Name;
    EXPECT_EQ(S.BuildEdges, G.Want.BuildEdges) << G.Name;
    EXPECT_EQ(S.CloseNodes, G.Want.CloseNodes) << G.Name;
    EXPECT_EQ(S.CloseEdges, G.Want.CloseEdges) << G.Name;
    EXPECT_EQ(S.CloseRuleFirings, G.Want.CloseRuleFirings) << G.Name;
    EXPECT_EQ(S.Widenings, G.Want.Widenings) << G.Name;
  }
}

//===----------------------------------------------------------------------===//
// (c) TypeTable interning
//===----------------------------------------------------------------------===//

TEST(FrontendIdentity, TypeTableInternsStructurallyInCreationOrder) {
  StringInterner Strings;
  TypeTable TT;
  const uint32_t Base = TT.size();
  // Builds one fixed set of structures, returning their ids in order.
  auto buildAll = [&] {
    TypeId V0 = TT.varType(0), V1 = TT.varType(1);
    TypeId Arrow = TT.arrowType(V0, TT.intType());
    TypeId Curried = TT.arrowType(V0, TT.arrowType(V1, V0));
    TypeId Pair = TT.tupleType({Arrow, TT.boolType()});
    TypeId Triple = TT.tupleType({V0, V1, TT.unitType()});
    TypeId Cell = TT.refType(Pair);
    TypeId List = TT.dataType(Strings.intern("List"));
    TypeId Tree = TT.dataType(Strings.intern("Tree"));
    TypeId Wide = TT.compoundType(TypeKind::Tuple, std::vector<TypeId>{
                                                       List, Tree, Cell, V1});
    return std::vector<TypeId>{V0,     V1,   Arrow, Curried, Pair,
                               Triple, Cell, List,  Tree,    Wide};
  };
  const std::vector<TypeId> First = buildAll();
  const uint32_t AfterFirst = TT.size();
  EXPECT_EQ(buildAll(), First) << "re-interning must return the same ids";
  EXPECT_EQ(TT.size(), AfterFirst) << "re-interning must create nothing";

  // Distinct structures, distinct ids.
  std::set<uint32_t> Distinct;
  for (TypeId T : First)
    Distinct.insert(T.index());
  EXPECT_EQ(Distinct.size(), First.size());

  // Ids are handed out in creation order: arguments before the types
  // built over them, with no gaps.  (`Curried` creates its inner arrow
  // first.)
  const std::vector<uint32_t> WantOffsets = {0, 1, 2, 4, 5, 6, 7, 8, 9, 10};
  ASSERT_EQ(AfterFirst - Base, 11u);
  for (size_t I = 0; I != First.size(); ++I)
    EXPECT_EQ(First[I].index() - Base, WantOffsets[I]) << "type " << I;

  // The structure behind an id is the one it was interned from.
  const Type &Wide = TT.type(First[9]);
  EXPECT_EQ(Wide.Kind, TypeKind::Tuple);
  EXPECT_EQ(Wide.Args, (std::vector<TypeId>{First[7], First[8], First[6],
                                             First[1]}));
  EXPECT_EQ(TT.type(First[3]).Args[1], TT.arrowType(First[1], First[0]));
}

TEST(FrontendIdentity, InferenceNumbersTypesDeterministically) {
  // Two inferences of one program intern the same types in the same order.
  const std::string Source = makeLexgenLike(12);
  std::unique_ptr<Module> A = parseAndInfer(Source), B = parseAndInfer(Source);
  ASSERT_TRUE(A && B);
  ASSERT_EQ(A->types().size(), B->types().size());
  for (uint32_t E = 0; E != A->numExprs(); ++E)
    EXPECT_EQ(A->expr(ExprId(E))->type(), B->expr(ExprId(E))->type());
  for (uint32_t T = 0; T != A->types().size(); ++T) {
    const Type &X = A->types().type(TypeId(T)), &Y = B->types().type(TypeId(T));
    EXPECT_EQ(X.Kind, Y.Kind);
    EXPECT_EQ(X.VarNum, Y.VarNum);
    EXPECT_EQ(X.Args, Y.Args);
  }
}

//===----------------------------------------------------------------------===//
// (d) Module teardown
//===----------------------------------------------------------------------===//

TEST(FrontendIdentity, ModuleWithEveryExprKindTearsDown) {
  // Tuple, Con, Case, Prim and LetRecN nodes own heap vectors inside the
  // arena-held expressions: the destructor must run each one in place.
  const char *Source =
      "data Shape = Dot | Box(Int, Int);\n"
      "letrec even = fn n => if n == 0 then true else odd (n - 1)\n"
      "and odd = fn n => if n == 0 then false else even (n - 1);\n"
      "let pair = (fn a => a, \"label\");\n"
      "let cell = ref (#1 pair);\n"
      "let area = fn s => case s of Dot => 0 | Box(w, h) => w * h end;\n"
      "let go = fn u => let v = cell := (fn b => b) in\n"
      "  print (area (Box(2, 3)));\n"
      "letrec loop = fn k => if even k then loop (k - 1) else go ();\n"
      "let nothing = () in (loop 4, !cell, not (odd 3), nothing)";
  std::unique_ptr<Module> M = parseAndInfer(Source);
  ASSERT_TRUE(M);
  std::set<ExprKind> Kinds;
  for (uint32_t E = 0; E != M->numExprs(); ++E)
    Kinds.insert(M->expr(ExprId(E))->kind());
  EXPECT_EQ(Kinds.size(), 12u) << "every expression kind occurs";
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  EXPECT_FALSE(G.aborted());
  M.reset(); // graph unused from here; the module dies first on purpose
}

//===----------------------------------------------------------------------===//
// (e) U64Set::reserve
//===----------------------------------------------------------------------===//

TEST(FrontendIdentity, U64SetReserveChangesNoAnswer) {
  for (size_t Reserve : {size_t(0), size_t(10), size_t(1000), size_t(50000)}) {
    U64Set Plain, Reserved;
    Reserved.reserve(Reserve);
    std::mt19937_64 Rng(Reserve + 7);
    for (int Step = 0; Step != 20000; ++Step) {
      // Small key space, so inserts, erases and hits all happen often.
      uint64_t Key = 1 + Rng() % 4096;
      switch (Rng() % 3) {
      case 0:
        ASSERT_EQ(Plain.insert(Key), Reserved.insert(Key)) << Step;
        break;
      case 1:
        ASSERT_EQ(Plain.erase(Key), Reserved.erase(Key)) << Step;
        break;
      default:
        ASSERT_EQ(Plain.contains(Key), Reserved.contains(Key)) << Step;
      }
      ASSERT_EQ(Plain.size(), Reserved.size()) << Step;
    }
    // Reserving on a populated set keeps every key.
    Reserved.reserve(Reserve * 4 + 100000);
    for (uint64_t Key = 1; Key <= 4096; ++Key)
      ASSERT_EQ(Plain.contains(Key), Reserved.contains(Key)) << Key;
  }
}

} // namespace
