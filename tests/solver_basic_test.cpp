//===- tests/solver_basic_test.cpp - Solver smoke and unit tests ----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Small hand-written programs with exactly known points-to results, run
// through every abstraction × flavour combination.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "ir/Builder.h"

#include "PtsVec.h"
#include "gtest/gtest.h"

using namespace ctp;
using namespace ctp::ir;
using ctx::Abstraction;
using ctx::Config;
using ctx::Flavour;

namespace {

std::vector<Config> allFigure6Configs(Abstraction A) {
  return {ctx::oneCall(A), ctx::oneCallH(A), ctx::oneObject(A),
          ctx::twoObjectH(A), ctx::twoTypeH(A)};
}

TEST(SolverBasicTest, DirectAllocation) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  HeapId H = B.addNew(Main, X, Obj, "h");
  VarId Y = B.addLocal(Main, "y");
  B.addAssign(Main, Y, X);
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString})
    for (const Config &Cfg : allFigure6Configs(A)) {
      analysis::Results R = analysis::solve(DB, Cfg);
      EXPECT_EQ(test::ptsVec(R, X), std::vector<std::uint32_t>{H})
          << Cfg.name();
      EXPECT_EQ(test::ptsVec(R, Y), std::vector<std::uint32_t>{H})
          << Cfg.name();
    }
}

TEST(SolverBasicTest, FieldStoreLoad) {
  // box = new Box; v = new Obj; box.f = v; w = box.f  =>  w -> {v's heap}.
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Box = B.addClass("Box", Obj);
  FieldId F = B.addField("f");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId BoxV = B.addLocal(Main, "box");
  B.addNew(Main, BoxV, Box, "hbox");
  VarId V = B.addLocal(Main, "v");
  HeapId HV = B.addNew(Main, V, Obj, "hv");
  B.addStore(Main, BoxV, F, V);
  VarId W = B.addLocal(Main, "w");
  B.addLoad(Main, W, BoxV, F);
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString})
    for (const Config &Cfg : allFigure6Configs(A)) {
      analysis::Results R = analysis::solve(DB, Cfg);
      EXPECT_EQ(test::ptsVec(R, W), std::vector<std::uint32_t>{HV})
          << Cfg.name();
    }
}

TEST(SolverBasicTest, DistinctBoxesDoNotLeak) {
  // b1.f = v1; b2.f = v2; w = b1.f  =>  w -> {h1} only.
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Box = B.addClass("Box", Obj);
  FieldId F = B.addField("f");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId B1 = B.addLocal(Main, "b1");
  B.addNew(Main, B1, Box, "hb1");
  VarId B2 = B.addLocal(Main, "b2");
  B.addNew(Main, B2, Box, "hb2");
  VarId V1 = B.addLocal(Main, "v1");
  HeapId H1 = B.addNew(Main, V1, Obj, "h1");
  VarId V2 = B.addLocal(Main, "v2");
  B.addNew(Main, V2, Obj, "h2");
  B.addStore(Main, B1, F, V1);
  B.addStore(Main, B2, F, V2);
  VarId W = B.addLocal(Main, "w");
  B.addLoad(Main, W, B1, F);
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    analysis::Results R = analysis::solve(DB, ctx::oneObject(A));
    EXPECT_EQ(test::ptsVec(R, W), std::vector<std::uint32_t>{H1});
  }
}

TEST(SolverBasicTest, StaticCallParameterAndReturn) {
  // static id(p) { return p; }  x = new; y = id(x).
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Id = B.addStaticMethod(Obj, "id", 1);
  VarId P0 = B.formal(Id, 0);
  B.addReturn(Id, P0);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  HeapId H = B.addNew(Main, X, Obj, "h");
  VarId Y = B.addLocal(Main, "y");
  B.addStaticCall(Main, Id, {X}, Y, "c0");
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString})
    for (const Config &Cfg : allFigure6Configs(A)) {
      analysis::Results R = analysis::solve(DB, Cfg);
      EXPECT_EQ(test::ptsVec(R, Y), std::vector<std::uint32_t>{H})
          << Cfg.name();
      EXPECT_EQ(test::ptsVec(R, P0), std::vector<std::uint32_t>{H})
          << Cfg.name();
    }
}

TEST(SolverBasicTest, VirtualDispatchSelectsOverride) {
  // Base.op returns fresh A-object; Derived.op returns fresh B-object.
  // Receiver holds a Derived => result points only to Derived's site.
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Base = B.addClass("Base", Obj);
  TypeId Der = B.addClass("Derived", Base);
  MethodId BaseOp = B.addMethod(Base, "op", 0);
  VarId BR = B.addLocal(BaseOp, "r");
  B.addNew(BaseOp, BR, Obj, "hbase");
  B.addReturn(BaseOp, BR);
  MethodId DerOp = B.addMethod(Der, "op", 0);
  VarId DR = B.addLocal(DerOp, "r");
  HeapId HDer = B.addNew(DerOp, DR, Obj, "hder");
  B.addReturn(DerOp, DR);
  SigId Op = B.signature("op", 0);

  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId Recv = B.addLocal(Main, "recv");
  B.addNew(Main, Recv, Der, "hrecv");
  VarId Out = B.addLocal(Main, "out");
  B.addVirtualCall(Main, Recv, Op, {}, Out, "c0");
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString})
    for (const Config &Cfg : allFigure6Configs(A)) {
      analysis::Results R = analysis::solve(DB, Cfg);
      EXPECT_EQ(test::ptsVec(R, Out), std::vector<std::uint32_t>{HDer})
          << Cfg.name();
      // Base.op must stay unreachable.
      auto Reached = R.ciReach();
      EXPECT_FALSE(std::binary_search(Reached.begin(), Reached.end(),
                                      BaseOp))
          << Cfg.name();
    }
}

TEST(SolverBasicTest, UnreachableCodeDerivesNothing) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Dead = B.addStaticMethod(Obj, "dead", 0);
  VarId DX = B.addLocal(Dead, "x");
  B.addNew(Dead, DX, Obj, "hdead");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  B.addNew(Main, X, Obj, "hlive");
  facts::FactDB DB = facts::extract(B.take());

  analysis::Results R =
      analysis::solve(DB, ctx::oneObject(Abstraction::TransformerString));
  EXPECT_TRUE(test::ptsVec(R, DX).empty());
  EXPECT_EQ(R.ciReach(), std::vector<std::uint32_t>{Main});
}

TEST(SolverBasicTest, StatsAreConsistent) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  B.addNew(Main, X, Obj, "h");
  facts::FactDB DB = facts::extract(B.take());
  analysis::Results R =
      analysis::solve(DB, ctx::oneCall(Abstraction::ContextString));
  EXPECT_EQ(R.Stat.NumPts, R.Pts.size());
  EXPECT_EQ(R.Stat.NumReach, R.Reach.size());
  EXPECT_EQ(R.Stat.total(), R.Pts.size() + R.Hpts.size() + R.Call.size());
  EXPECT_GT(R.Stat.WorkItems, 0u);
}

} // namespace
