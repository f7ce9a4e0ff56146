//===- tests/type_loss_test.cpp - Theorem 6.2's type-sensitivity gap ------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Section 6 proves transformer strings can be *less* precise than context
// strings under type sensitivity: "the implied context information of a
// fact pts(Y,H,t̂) is that Y ... points to ... for all reachable method
// contexts M of any method implemented in type t: method reachability
// information is merged by the implied interpretation."
//
// This is a minimal program exhibiting the loss. Two methods go1/go2 of
// the same class Shared each allocate a Util receiver locally and pass
// their parameter through Util.id. Because both Util allocation sites
// live in class Shared and both receivers' transformations are ε, the two
// id call edges collapse to the *same* transformer (entries = [Util's
// declaring class]) — so the RET rule flows go2's value back into go1's
// result and vice versa. The context-string edges keep the callers'
// distinct second context elements ([Shared, C1] vs [Shared, C2]) and
// block the cross flow.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "ir/Builder.h"

#include "PtsVec.h"
#include "gtest/gtest.h"

#include <algorithm>

using namespace ctp;
using namespace ctp::ir;
using ctx::Abstraction;

namespace {

struct LossProgram {
  facts::FactDB DB;
  VarId RGo1, RGo2, RA, RB;
  HeapId H1, H2;
};

LossProgram build() {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Util = B.addClass("Util", Obj);
  MethodId Id = B.addMethod(Util, "id", 1);
  B.addReturn(Id, B.formal(Id, 0));
  SigId IdSig = B.signature("id", 1);

  // Two methods of one class, each with its own local Util receiver.
  TypeId Shared = B.addClass("Shared", Obj);
  MethodId Go1 = B.addMethod(Shared, "go1", 1);
  VarId U1 = B.addLocal(Go1, "u");
  B.addNew(Go1, U1, Util, "usite1");
  VarId R1 = B.addLocal(Go1, "r");
  B.addVirtualCall(Go1, U1, IdSig, {B.formal(Go1, 0)}, R1, "I1");
  B.addReturn(Go1, R1);
  MethodId Go2 = B.addMethod(Shared, "go2", 1);
  VarId U2 = B.addLocal(Go2, "u");
  B.addNew(Go2, U2, Util, "usite2");
  VarId R2 = B.addLocal(Go2, "r");
  B.addVirtualCall(Go2, U2, IdSig, {B.formal(Go2, 0)}, R2, "I2");
  B.addReturn(Go2, R2);

  // Shared instances created inside two different classes, so go1 and
  // go2 run under distinct type contexts [Shared, C1] / [Shared, C2].
  TypeId C1 = B.addClass("C1", Obj);
  MethodId Mk1 = B.addMethod(C1, "make1", 0);
  VarId S1v = B.addLocal(Mk1, "s");
  B.addNew(Mk1, S1v, Shared, "s1site");
  B.addReturn(Mk1, S1v);
  TypeId C2 = B.addClass("C2", Obj);
  MethodId Mk2 = B.addMethod(C2, "make2", 0);
  VarId S2v = B.addLocal(Mk2, "s");
  B.addNew(Mk2, S2v, Shared, "s2site");
  B.addReturn(Mk2, S2v);

  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId F1 = B.addLocal(Main, "f1");
  B.addNew(Main, F1, C1, "hf1");
  VarId F2 = B.addLocal(Main, "f2");
  B.addNew(Main, F2, C2, "hf2");
  VarId S1 = B.addLocal(Main, "s1");
  B.addVirtualCall(Main, F1, B.signature("make1", 0), {}, S1, "mk1");
  VarId S2 = B.addLocal(Main, "s2");
  B.addVirtualCall(Main, F2, B.signature("make2", 0), {}, S2, "mk2");
  LossProgram P;
  VarId XA = B.addLocal(Main, "xa");
  P.H1 = B.addNew(Main, XA, Obj, "h1");
  VarId XB = B.addLocal(Main, "xb");
  P.H2 = B.addNew(Main, XB, Obj, "h2");
  P.RA = B.addLocal(Main, "ra");
  B.addVirtualCall(Main, S1, B.signature("go1", 1), {XA}, P.RA, "cg1");
  P.RB = B.addLocal(Main, "rb");
  B.addVirtualCall(Main, S2, B.signature("go2", 1), {XB}, P.RB, "cg2");
  P.RGo1 = R1;
  P.RGo2 = R2;
  P.DB = facts::extract(B.take());
  return P;
}

using U32s = std::vector<std::uint32_t>;

TEST(TypeLossTest, TransformerLosesPrecisionAtTwoTypeH) {
  LossProgram P = build();
  analysis::Results Cs =
      analysis::solve(P.DB, ctx::twoTypeH(Abstraction::ContextString));
  analysis::Results Ts =
      analysis::solve(P.DB, ctx::twoTypeH(Abstraction::TransformerString));

  // Context strings keep the two flows apart.
  EXPECT_EQ(test::ptsVec(Cs, P.RGo1), (U32s{P.H1}));
  EXPECT_EQ(test::ptsVec(Cs, P.RGo2), (U32s{P.H2}));
  // Transformer strings merge them — the paper's "(+n)" column.
  EXPECT_EQ(test::ptsVec(Ts, P.RGo1), (U32s{P.H1, P.H2}));
  EXPECT_EQ(test::ptsVec(Ts, P.RGo2), (U32s{P.H1, P.H2}));

  // The loss is one-directional (Theorem 6.1 still holds): ts ⊇ cs.
  auto CsCi = Cs.ciPts(), TsCi = Ts.ciPts();
  EXPECT_TRUE(std::includes(TsCi.begin(), TsCi.end(), CsCi.begin(),
                            CsCi.end()));
  EXPECT_EQ(TsCi.size(), CsCi.size() + 2);
}

TEST(TypeLossTest, NoLossUnderObjectSensitivity) {
  // The same program under 2-object+H: allocation-site contexts keep the
  // two Util receivers distinct, so both abstractions agree (Thm 6.2).
  LossProgram P = build();
  analysis::Results Cs =
      analysis::solve(P.DB, ctx::twoObjectH(Abstraction::ContextString));
  analysis::Results Ts = analysis::solve(
      P.DB, ctx::twoObjectH(Abstraction::TransformerString));
  EXPECT_EQ(Cs.ciPts(), Ts.ciPts());
  EXPECT_EQ(test::ptsVec(Ts, P.RGo1), (U32s{P.H1}));
  EXPECT_EQ(test::ptsVec(Ts, P.RA), (U32s{P.H1}));
}

TEST(TypeLossTest, NoLossUnderCallSiteSensitivity) {
  LossProgram P = build();
  ctx::Config Cs2{Abstraction::ContextString, ctx::Flavour::CallSite, 2,
                  1};
  ctx::Config Ts2{Abstraction::TransformerString, ctx::Flavour::CallSite,
                  2, 1};
  EXPECT_EQ(analysis::solve(P.DB, Cs2).ciPts(),
            analysis::solve(P.DB, Ts2).ciPts());
}

TEST(TypeLossTest, TopLevelResultsUnaffectedHere) {
  // The cross flow stops inside Shared: main's ra/rb stay precise even
  // under the transformer abstraction (return to main still filters on
  // the distinct caller edges). The loss is real but local — matching
  // the paper's observation that it is marginal in practice.
  LossProgram P = build();
  analysis::Results Ts =
      analysis::solve(P.DB, ctx::twoTypeH(Abstraction::TransformerString));
  EXPECT_EQ(test::ptsVec(Ts, P.RA), (U32s{P.H1}));
  EXPECT_EQ(test::ptsVec(Ts, P.RB), (U32s{P.H2}));
}

} // namespace
