//===- tests/extensions_test.cpp - Static fields and exceptions -----------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// The paper's evaluated implementation handles static fields and
// exceptions although Figure 3 elides them ("Rules for static fields,
// class initialization, reflection, exceptions ... are present in the
// evaluated implementation"). These tests pin down our renditions of
// those rules under both abstractions.
//
//===----------------------------------------------------------------------===//

#include "analysis/DatalogFrontend.h"
#include "analysis/Solver.h"
#include "cfl/Oracle.h"
#include "facts/Extract.h"
#include "ir/Builder.h"

#include "PtsVec.h"
#include "gtest/gtest.h"

using namespace ctp;
using namespace ctp::ir;
using ctx::Abstraction;
using ctx::Config;

namespace {

using U32s = std::vector<std::uint32_t>;

std::vector<Config> allConfigs(Abstraction A) {
  return {ctx::insensitive(A), ctx::oneCall(A), ctx::oneCallH(A),
          ctx::oneObject(A), ctx::twoObjectH(A), ctx::twoTypeH(A)};
}

TEST(GlobalFieldTest, StoreThenLoadFlows) {
  // G = x; y = G;  =>  y -> {hx}.
  Builder B;
  TypeId Obj = B.addClass("Object");
  GlobalId G = B.addGlobal("cache");
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  HeapId HX = B.addNew(Main, X, Obj, "hx");
  B.addGlobalStore(Main, G, X);
  VarId Y = B.addLocal(Main, "y");
  B.addGlobalLoad(Main, Y, G);
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString})
    for (const Config &Cfg : allConfigs(A)) {
      analysis::Results R = analysis::solve(DB, Cfg);
      EXPECT_EQ(test::ptsVec(R, Y), (U32s{HX})) << Cfg.name();
      EXPECT_EQ(R.Stat.NumGpts, 1u) << Cfg.name();
    }
}

TEST(GlobalFieldTest, FlowsAcrossMethodsWithoutCalls) {
  // producer() stores into G; consumer() reads G. The two methods are
  // only connected through the global.
  Builder B;
  TypeId Obj = B.addClass("Object");
  GlobalId G = B.addGlobal("chan");
  MethodId Producer = B.addStaticMethod(Obj, "producer", 0);
  VarId PX = B.addLocal(Producer, "x");
  HeapId HP = B.addNew(Producer, PX, Obj, "hp");
  B.addGlobalStore(Producer, G, PX);
  MethodId Consumer = B.addStaticMethod(Obj, "consumer", 0);
  VarId CY = B.addLocal(Consumer, "y");
  B.addGlobalLoad(Consumer, CY, G);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  B.addStaticCall(Main, Producer, {}, InvalidId, "c1");
  B.addStaticCall(Main, Consumer, {}, InvalidId, "c2");
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    analysis::Results R = analysis::solve(DB, ctx::twoObjectH(A));
    EXPECT_EQ(test::ptsVec(R, CY), (U32s{HP}));
  }
}

TEST(GlobalFieldTest, LoadInUnreachableMethodSeesNothing) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  GlobalId G = B.addGlobal("g");
  MethodId Dead = B.addStaticMethod(Obj, "dead", 0);
  VarId DY = B.addLocal(Dead, "y");
  B.addGlobalLoad(Dead, DY, G);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  B.addNew(Main, X, Obj, "hx");
  B.addGlobalStore(Main, G, X);
  facts::FactDB DB = facts::extract(B.take());
  analysis::Results R =
      analysis::solve(DB, ctx::oneCall(Abstraction::TransformerString));
  EXPECT_TRUE(test::ptsVec(R, DY).empty());
}

TEST(GlobalFieldTest, LoadEnumeratesReachContextsInBothAbstractions) {
  // Loading a global re-enters concrete method contexts (retarget joins
  // with reach), so both abstractions enumerate one fact per reachable
  // context of the loading method — the transformer fact carries a
  // wildcard (∗·M̂) since the store context is severed. Keeping the reach
  // join preserves the feasibility filtering of downstream compositions,
  // hence identical precision between the abstractions.
  Builder B;
  TypeId Obj = B.addClass("Object");
  GlobalId G = B.addGlobal("g");
  MethodId Reader = B.addStaticMethod(Obj, "reader", 0);
  VarId RY = B.addLocal(Reader, "y");
  B.addGlobalLoad(Reader, RY, G);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  HeapId HX = B.addNew(Main, X, Obj, "hx");
  B.addGlobalStore(Main, G, X);
  for (int I = 0; I < 4; ++I)
    B.addStaticCall(Main, Reader, {}, InvalidId,
                    "site" + std::to_string(I));
  facts::FactDB DB = facts::extract(B.take());

  analysis::Results Cs =
      analysis::solve(DB, ctx::oneCall(Abstraction::ContextString));
  analysis::Results Ts =
      analysis::solve(DB, ctx::oneCall(Abstraction::TransformerString));
  auto CountY = [&](const analysis::Results &R) {
    std::size_t N = 0;
    for (const auto &F : R.Pts)
      if (F.Var == RY)
        ++N;
    return N;
  };
  EXPECT_EQ(CountY(Cs), 4u); // One per reachable context of reader.
  EXPECT_EQ(CountY(Ts), 4u); // Same: one ∗·M̂ fact per context.
  bool AllWild = true;
  for (const auto &F : Ts.Pts)
    if (F.Var == RY)
      AllWild &= Ts.Dom->transformer(F.T).Wild;
  EXPECT_TRUE(AllWild);
  EXPECT_EQ(test::ptsVec(Cs, RY), (U32s{HX}));
  EXPECT_EQ(test::ptsVec(Ts, RY), (U32s{HX}));
}

TEST(ExceptionTest, ThrownObjectReachesCatch) {
  // thrower() { e = new; throw e; }  main: call with catch(y).
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Thrower = B.addStaticMethod(Obj, "thrower", 0);
  VarId E = B.addLocal(Thrower, "e");
  HeapId HE = B.addNew(Thrower, E, Obj, "he");
  B.addThrow(Thrower, E);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  InvokeId I = B.addStaticCall(Main, Thrower, {}, InvalidId, "c0");
  VarId Y = B.addLocal(Main, "y");
  B.setCatchVar(I, Y);
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString})
    for (const Config &Cfg : allConfigs(A)) {
      analysis::Results R = analysis::solve(DB, Cfg);
      EXPECT_EQ(test::ptsVec(R, Y), (U32s{HE})) << Cfg.name();
    }
}

TEST(ExceptionTest, UnhandledExceptionVanishes) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Thrower = B.addStaticMethod(Obj, "thrower", 0);
  VarId E = B.addLocal(Thrower, "e");
  B.addNew(Thrower, E, Obj, "he");
  B.addThrow(Thrower, E);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  B.addStaticCall(Main, Thrower, {}, InvalidId, "c0"); // No catch var.
  facts::FactDB DB = facts::extract(B.take());
  analysis::Results R =
      analysis::solve(DB, ctx::oneObject(Abstraction::ContextString));
  // Nothing in main points to the exception object.
  for (const auto &F : R.Pts)
    EXPECT_NE(DB.VarParent[F.Var], static_cast<std::uint32_t>(Main));
}

TEST(ExceptionTest, ContextSensitiveCatchPrecision) {
  // echoThrow(p) throws its parameter; two call sites with different
  // arguments must catch different objects under 1-call sensitivity.
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Echo = B.addStaticMethod(Obj, "echoThrow", 1);
  B.addThrow(Echo, B.formal(Echo, 0));
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X1 = B.addLocal(Main, "x1");
  HeapId H1 = B.addNew(Main, X1, Obj, "h1");
  VarId X2 = B.addLocal(Main, "x2");
  HeapId H2 = B.addNew(Main, X2, Obj, "h2");
  InvokeId I1 = B.addStaticCall(Main, Echo, {X1}, InvalidId, "c1");
  VarId Y1 = B.addLocal(Main, "y1");
  B.setCatchVar(I1, Y1);
  InvokeId I2 = B.addStaticCall(Main, Echo, {X2}, InvalidId, "c2");
  VarId Y2 = B.addLocal(Main, "y2");
  B.setCatchVar(I2, Y2);
  facts::FactDB DB = facts::extract(B.take());

  // Context-insensitively the two catches merge...
  analysis::Results CI =
      analysis::solve(DB, ctx::insensitive(Abstraction::ContextString));
  EXPECT_EQ(test::ptsVec(CI, Y1), (U32s{H1, H2}));
  // ...1-call separates them, under both abstractions.
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    analysis::Results R = analysis::solve(DB, ctx::oneCall(A));
    EXPECT_EQ(test::ptsVec(R, Y1), (U32s{H1}));
    EXPECT_EQ(test::ptsVec(R, Y2), (U32s{H2}));
  }
}

TEST(ExtensionsTest, DatalogFrontendAgreesOnGlobalsAndExceptions) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  GlobalId G = B.addGlobal("g");
  MethodId Thrower = B.addStaticMethod(Obj, "thrower", 1);
  VarId E = B.addLocal(Thrower, "e");
  B.addNew(Thrower, E, Obj, "he");
  B.addThrow(Thrower, E);
  B.addGlobalStore(Thrower, G, B.formal(Thrower, 0));
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId X = B.addLocal(Main, "x");
  B.addNew(Main, X, Obj, "hx");
  InvokeId I = B.addStaticCall(Main, Thrower, {X}, InvalidId, "c0");
  VarId Y = B.addLocal(Main, "y");
  B.setCatchVar(I, Y);
  VarId Z = B.addLocal(Main, "z");
  B.addGlobalLoad(Main, Z, G);
  facts::FactDB DB = facts::extract(B.take());

  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    ctx::Config Cfg = ctx::twoObjectH(A);
    analysis::Results Fast = analysis::solve(DB, Cfg);
    analysis::Results Slow = analysis::solveViaDatalog(DB, Cfg);
    EXPECT_EQ(Fast.Stat.NumPts, Slow.Stat.NumPts) << Cfg.name();
    EXPECT_EQ(Fast.Stat.NumGpts, Slow.Stat.NumGpts) << Cfg.name();
    EXPECT_EQ(Fast.ciPts(), Slow.ciPts()) << Cfg.name();
  }
}

TEST(ExtensionsTest, OracleCoversGlobalsAndExceptions) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  GlobalId G = B.addGlobal("g");
  MethodId Thrower = B.addStaticMethod(Obj, "thrower", 0);
  VarId E = B.addLocal(Thrower, "e");
  HeapId HE = B.addNew(Thrower, E, Obj, "he");
  B.addThrow(Thrower, E);
  B.addGlobalStore(Thrower, G, E);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  InvokeId I = B.addStaticCall(Main, Thrower, {}, InvalidId, "c0");
  VarId Y = B.addLocal(Main, "y");
  B.setCatchVar(I, Y);
  VarId Z = B.addLocal(Main, "z");
  B.addGlobalLoad(Main, Z, G);
  facts::FactDB DB = facts::extract(B.take());

  cfl::OracleResult O = cfl::solveInsensitive(DB);
  analysis::Results R = analysis::solve(
      DB, ctx::insensitive(Abstraction::TransformerString));
  EXPECT_EQ(O.Pts, R.ciPts());
  // Both paths deliver the exception object.
  EXPECT_EQ(test::ptsVec(R, Y), (U32s{HE}));
  EXPECT_EQ(test::ptsVec(R, Z), (U32s{HE}));
}

} // namespace
