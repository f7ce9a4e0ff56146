//===- tests/cast_test.cpp - Cast filtering and arrays --------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Checked downcasts (type-filtered assignments) and the merged-element
// array model, across both abstractions, both engines, the oracle, and
// the demand engine.
//
//===----------------------------------------------------------------------===//

#include "analysis/DatalogFrontend.h"
#include "analysis/Solver.h"
#include "cfl/Demand.h"
#include "cfl/Oracle.h"
#include "facts/Extract.h"
#include "ir/Builder.h"

#include "PtsVec.h"
#include "gtest/gtest.h"

using namespace ctp;
using namespace ctp::ir;
using ctx::Abstraction;

namespace {

using U32s = std::vector<std::uint32_t>;

/// x holds a Dog and a Cat object; d = (Dog) x; a = (Animal) x.
struct CastFixture {
  Program P;
  VarId X, D, A;
  HeapId HDog, HCat;
};

CastFixture makeCastProgram() {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Animal = B.addClass("Animal", Obj);
  TypeId Dog = B.addClass("Dog", Animal);
  TypeId Cat = B.addClass("Cat", Animal);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  CastFixture F;
  F.X = B.addLocal(Main, "x");
  F.HDog = B.addNew(Main, F.X, Dog, "hdog");
  F.HCat = B.addNew(Main, F.X, Cat, "hcat");
  F.D = B.addLocal(Main, "d");
  B.addCast(Main, F.D, Dog, F.X);
  F.A = B.addLocal(Main, "a");
  B.addCast(Main, F.A, Animal, F.X);
  F.P = B.take();
  return F;
}

TEST(CastTest, FiltersByRuntimeType) {
  CastFixture F = makeCastProgram();
  facts::FactDB DB = facts::extract(F.P);
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    for (auto Mk : {ctx::insensitive, ctx::oneCall, ctx::twoObjectH}) {
      analysis::Results R = analysis::solve(DB, Mk(A));
      EXPECT_EQ(test::ptsVec(R, F.X), (U32s{F.HDog, F.HCat}));
      EXPECT_EQ(test::ptsVec(R, F.D), (U32s{F.HDog})); // Cat filtered out.
      EXPECT_EQ(test::ptsVec(R, F.A), (U32s{F.HDog, F.HCat}));
    }
  }
}

TEST(CastTest, AllEnginesAgree) {
  CastFixture F = makeCastProgram();
  facts::FactDB DB = facts::extract(F.P);
  cfl::OracleResult O = cfl::solveInsensitive(DB);
  analysis::Results Solver =
      analysis::solve(DB, ctx::insensitive(Abstraction::TransformerString));
  analysis::Results Datalog = analysis::solveViaDatalog(
      DB, ctx::insensitive(Abstraction::TransformerString));
  EXPECT_EQ(O.Pts, Solver.ciPts());
  EXPECT_EQ(O.Pts, Datalog.ciPts());

  cfl::DemandSolver D(DB);
  EXPECT_EQ(D.query(F.D).Heaps, (U32s{F.HDog}));
  EXPECT_EQ(D.query(F.A).Heaps, (U32s{F.HDog, F.HCat}));
}

TEST(CastTest, SubtypeFactsAreReflexiveTransitive) {
  CastFixture F = makeCastProgram();
  facts::FactDB DB = facts::extract(F.P);
  auto Has = [&](facts::Id Sub, facts::Id Super) {
    for (const auto &S : DB.Subtypes)
      if (S.Sub == Sub && S.Super == Super)
        return true;
    return false;
  };
  // Type ids in declaration order: Object 0, Animal 1, Dog 2, Cat 3.
  EXPECT_TRUE(Has(2, 2)); // Reflexive.
  EXPECT_TRUE(Has(2, 1)); // Direct.
  EXPECT_TRUE(Has(2, 0)); // Transitive.
  EXPECT_FALSE(Has(1, 2));
  EXPECT_FALSE(Has(2, 3));
}

TEST(ArrayTest, ElementsMergeAcrossIndices) {
  // arr[*] = a; arr[*] = b; w = arr[*] => {ha, hb} (index-insensitive).
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId Arr = B.addLocal(Main, "arr");
  B.addNew(Main, Arr, Obj, "harr");
  VarId A = B.addLocal(Main, "a");
  HeapId HA = B.addNew(Main, A, Obj, "ha");
  VarId Bv = B.addLocal(Main, "b");
  HeapId HB = B.addNew(Main, Bv, Obj, "hb");
  B.addArrayStore(Main, Arr, A);
  B.addArrayStore(Main, Arr, Bv);
  VarId W = B.addLocal(Main, "w");
  B.addArrayLoad(Main, W, Arr);
  facts::FactDB DB = facts::extract(B.take());

  analysis::Results R =
      analysis::solve(DB, ctx::twoObjectH(Abstraction::TransformerString));
  EXPECT_EQ(test::ptsVec(R, W), (U32s{HA, HB}));
}

TEST(ArrayTest, DistinctArraysStaySeparate) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId A1 = B.addLocal(Main, "a1");
  B.addNew(Main, A1, Obj, "harr1");
  VarId A2 = B.addLocal(Main, "a2");
  B.addNew(Main, A2, Obj, "harr2");
  VarId V1 = B.addLocal(Main, "v1");
  HeapId H1 = B.addNew(Main, V1, Obj, "h1");
  VarId V2 = B.addLocal(Main, "v2");
  B.addNew(Main, V2, Obj, "h2");
  B.addArrayStore(Main, A1, V1);
  B.addArrayStore(Main, A2, V2);
  VarId W = B.addLocal(Main, "w");
  B.addArrayLoad(Main, W, A1);
  facts::FactDB DB = facts::extract(B.take());
  analysis::Results R =
      analysis::solve(DB, ctx::oneObject(Abstraction::ContextString));
  EXPECT_EQ(test::ptsVec(R, W), (U32s{H1}));
}

} // namespace
