//===- tests/hybrid_test.cpp - Hybrid context sensitivity -----------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// The paper notes the rule schema covers "call sites, heap allocation
// sites, class types, and combinations thereof [6]". This extension
// implements the Kastrinis–Smaragdakis-style hybrid: object contexts for
// virtual dispatch, call-site pushes for static invocations. These tests
// check the policy, cross-abstraction precision, and soundness.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "cfl/Oracle.h"
#include "facts/Extract.h"
#include "ir/Builder.h"
#include "workload/Generator.h"
#include "workload/PaperPrograms.h"

#include "PtsVec.h"
#include "gtest/gtest.h"

#include <algorithm>

using namespace ctp;
using namespace ctp::ir;
using ctx::Abstraction;
using ctx::Config;

namespace {

using U32s = std::vector<std::uint32_t>;

TEST(HybridTest, ConfigValidatesLikeObject) {
  EXPECT_EQ(ctx::twoHybridH(Abstraction::ContextString).validate(), "");
  EXPECT_EQ(ctx::twoHybridH(Abstraction::ContextString).name(),
            "2-hybrid+H(cs)");
  Config Bad{Abstraction::ContextString, ctx::Flavour::Hybrid, 2, 0};
  EXPECT_NE(Bad.validate(), "");
}

TEST(HybridTest, VirtualBehavesLikeObjectSensitivity) {
  // Figure 1: hybrid merges x1/y1 (same receiver) but separates x2/y2,
  // exactly like 2-object+H.
  workload::Figure1Program F = workload::figure1();
  facts::FactDB DB = facts::extract(F.P);
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    analysis::Results R = analysis::solve(DB, ctx::twoHybridH(A));
    EXPECT_EQ(test::ptsVec(R, F.X1), (U32s{F.H1, F.H2}));
    EXPECT_EQ(test::ptsVec(R, F.X2), (U32s{F.H1}));
    EXPECT_EQ(test::ptsVec(R, F.Y2), (U32s{F.H2}));
    EXPECT_TRUE(test::ptsVec(R, F.Z).empty());
  }
}

TEST(HybridTest, StaticCallsGainCallSitePrecision) {
  // Two static call sites into the same identity helper, invoked from an
  // *instance* method context: pure object sensitivity merges them (the
  // static call keeps the caller context), the hybrid separates them.
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Id = B.addStaticMethod(Obj, "id", 1);
  B.addReturn(Id, B.formal(Id, 0));

  TypeId Host = B.addClass("Host", Obj);
  MethodId Run = B.addMethod(Host, "run", 2);
  VarId R1 = B.addLocal(Run, "r1");
  B.addStaticCall(Run, Id, {B.formal(Run, 0)}, R1, "s1");
  VarId R2 = B.addLocal(Run, "r2");
  B.addStaticCall(Run, Id, {B.formal(Run, 1)}, R2, "s2");
  B.addReturn(Run, R1);
  SigId RunSig = B.signature("run", 2);

  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId H = B.addLocal(Main, "host");
  B.addNew(Main, H, Host, "hhost");
  VarId A = B.addLocal(Main, "a");
  HeapId HA = B.addNew(Main, A, Obj, "ha");
  VarId Bv = B.addLocal(Main, "b");
  HeapId HB = B.addNew(Main, Bv, Obj, "hb");
  VarId Out = B.addLocal(Main, "out");
  B.addVirtualCall(Main, H, RunSig, {A, Bv}, Out, "c0");
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction Ab :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    // 1-object (m = 1): id's context is run's receiver context for both
    // sites — merged.
    analysis::Results Obj1 = analysis::solve(DB, ctx::oneObject(Ab));
    EXPECT_EQ(test::ptsVec(Obj1, R1), (U32s{HA, HB}));
    // 1-hybrid (m = 1): the call-site element separates s1 from s2.
    Config Hy1{Ab, ctx::Flavour::Hybrid, 1, 0};
    analysis::Results Hy = analysis::solve(DB, Hy1);
    EXPECT_EQ(test::ptsVec(Hy, R1), (U32s{HA}));
    EXPECT_EQ(test::ptsVec(Hy, R2), (U32s{HB}));
  }
}

TEST(HybridTest, ElementKindsDoNotCollide) {
  // A heap site and an invocation with the same raw id must produce
  // distinct context elements; build a program where heap 0 and invoke 0
  // both appear in contexts and check the analyses stay precise.
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Id = B.addStaticMethod(Obj, "id", 1);
  B.addReturn(Id, B.formal(Id, 0));
  TypeId Box = B.addClass("Box", Obj);
  MethodId Get = B.addMethod(Box, "get", 1);
  VarId G1 = B.addLocal(Get, "g");
  B.addStaticCall(Get, Id, {B.formal(Get, 0)}, G1, "inner"); // invoke 0
  B.addReturn(Get, G1);
  SigId GetSig = B.signature("get", 1);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId Bx = B.addLocal(Main, "bx");
  B.addNew(Main, Bx, Box, "hbox"); // heap 0
  VarId X = B.addLocal(Main, "x");
  HeapId HX = B.addNew(Main, X, Obj, "hx");
  VarId Out = B.addLocal(Main, "out");
  B.addVirtualCall(Main, Bx, GetSig, {X}, Out, "outer");
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction Ab :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    analysis::Results R = analysis::solve(DB, ctx::twoHybridH(Ab));
    EXPECT_EQ(test::ptsVec(R, Out), (U32s{HX}));
  }
}

struct HybridProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridProperty, SoundAndAbstractionsAgree) {
  workload::WorkloadParams Params;
  Params.Drivers = 3;
  Params.Scenarios = 5;
  Params.PrivateScenarios = 4;
  Params.Seed = GetParam();
  facts::FactDB DB = facts::extract(workload::generate(Params));

  cfl::OracleResult O = cfl::solveInsensitive(DB);
  analysis::Results Cs =
      analysis::solve(DB, ctx::twoHybridH(Abstraction::ContextString));
  analysis::Results Ts =
      analysis::solve(DB, ctx::twoHybridH(Abstraction::TransformerString));
  auto CsCi = Cs.ciPts();
  EXPECT_TRUE(
      std::includes(O.Pts.begin(), O.Pts.end(), CsCi.begin(), CsCi.end()));
  EXPECT_EQ(CsCi, Ts.ciPts()) << "seed " << GetParam();
  EXPECT_EQ(Cs.ciCall(), Ts.ciCall()) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridProperty,
                         ::testing::Values(13u, 14u, 15u, 16u));

} // namespace
