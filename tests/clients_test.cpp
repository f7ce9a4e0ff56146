//===- tests/clients_test.cpp - Downstream client tests -------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "clients/Alias.h"
#include "clients/Devirtualize.h"
#include "clients/Reachability.h"
#include "facts/Extract.h"
#include "ir/Builder.h"
#include "workload/PaperPrograms.h"

#include "gtest/gtest.h"

using namespace ctp;
using namespace ctp::ir;
using ctx::Abstraction;

namespace {

TEST(DevirtTest, Figure1AllSitesMonomorphic) {
  workload::Figure1Program F = workload::figure1();
  facts::FactDB DB = facts::extract(F.P);
  analysis::Results R =
      analysis::solve(DB, ctx::oneObject(Abstraction::TransformerString));
  clients::DevirtSummary S = clients::devirtualize(DB, R);
  EXPECT_EQ(S.VirtualSites, 7u);
  EXPECT_EQ(S.ReachedSites, 7u);
  // Only class T implements id/id2/m: every site has one target.
  EXPECT_EQ(S.MonomorphicSites, 7u);
  EXPECT_EQ(S.PolymorphicSites, 0u);
}

TEST(DevirtTest, PolymorphicReceiverDetected) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Base = B.addClass("Base", Obj, /*IsAbstract=*/true);
  TypeId D1 = B.addClass("D1", Base);
  TypeId D2 = B.addClass("D2", Base);
  MethodId Op1 = B.addMethod(D1, "op", 0);
  B.addReturn(Op1, B.thisVar(Op1));
  MethodId Op2 = B.addMethod(D2, "op", 0);
  B.addReturn(Op2, B.thisVar(Op2));
  SigId Op = B.signature("op", 0);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  VarId Recv = B.addLocal(Main, "recv");
  B.addNew(Main, Recv, D1, "h1");
  B.addNew(Main, Recv, D2, "h2");
  VarId Out = B.addLocal(Main, "out");
  B.addVirtualCall(Main, Recv, Op, {}, Out, "c0");
  facts::FactDB DB = facts::extract(B.take());

  analysis::Results R =
      analysis::solve(DB, ctx::oneObject(Abstraction::ContextString));
  clients::DevirtSummary S = clients::devirtualize(DB, R);
  EXPECT_EQ(S.ReachedSites, 1u);
  EXPECT_EQ(S.PolymorphicSites, 1u);
  ASSERT_EQ(S.PerSite.size(), 1u);
  EXPECT_EQ(S.PerSite[0].Targets.size(), 2u);
}

/// A program with one monomorphic site, one polymorphic site, and one
/// virtual site inside a dead method that no configuration can reach.
ir::Program devirtClassificationProgram() {
  Builder B;
  TypeId Obj = B.addClass("Object");
  TypeId Base = B.addClass("Base", Obj, /*IsAbstract=*/true);
  TypeId D1 = B.addClass("D1", Base);
  TypeId D2 = B.addClass("D2", Base);
  MethodId Op1 = B.addMethod(D1, "op", 0);
  B.addReturn(Op1, B.thisVar(Op1));
  MethodId Op2 = B.addMethod(D2, "op", 0);
  B.addReturn(Op2, B.thisVar(Op2));
  SigId Op = B.signature("op", 0);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  // Monomorphic: only D1 flows into this receiver.
  VarId Mono = B.addLocal(Main, "mono");
  B.addNew(Main, Mono, D1, "h_mono");
  B.addVirtualCall(Main, Mono, Op, {}, InvalidId, "c_mono");
  // Polymorphic: D1 and D2 both flow.
  VarId Poly = B.addLocal(Main, "poly");
  B.addNew(Main, Poly, D1, "h_p1");
  B.addNew(Main, Poly, D2, "h_p2");
  B.addVirtualCall(Main, Poly, Op, {}, InvalidId, "c_poly");
  // Unreachable: the enclosing method is never called, so the site gets
  // no call-graph targets under ANY configuration.
  MethodId Dead = B.addStaticMethod(Obj, "dead", 0);
  VarId DR = B.addLocal(Dead, "dr");
  B.addNew(Dead, DR, D2, "h_dead");
  B.addVirtualCall(Dead, DR, Op, {}, InvalidId, "c_dead");
  return B.take();
}

TEST(DevirtTest, ClassificationStableAcrossContextConfigurations) {
  facts::FactDB DB = facts::extract(devirtClassificationProgram());
  // The classification is a property of the program here, not of the
  // context abstraction: every configuration must agree.
  const ctx::Config Configs[] = {
      ctx::insensitive(Abstraction::TransformerString),
      ctx::oneCall(Abstraction::ContextString),
      ctx::twoObjectH(Abstraction::TransformerString),
  };
  for (const ctx::Config &Cfg : Configs) {
    analysis::Results R = analysis::solve(DB, Cfg);
    clients::DevirtSummary S = clients::devirtualize(DB, R);
    EXPECT_EQ(S.VirtualSites, 3u) << Cfg.name();
    // c_dead never acquires targets: reached < total.
    EXPECT_EQ(S.ReachedSites, 2u) << Cfg.name();
    EXPECT_EQ(S.MonomorphicSites, 1u) << Cfg.name();
    EXPECT_EQ(S.PolymorphicSites, 1u) << Cfg.name();
    ASSERT_EQ(S.PerSite.size(), 2u) << Cfg.name();
    // PerSite is ordered by invoke id and holds only reached sites.
    EXPECT_EQ(S.PerSite[0].Targets.size(), 1u) << Cfg.name();
    EXPECT_EQ(S.PerSite[1].Targets.size(), 2u) << Cfg.name();
  }
}

TEST(AliasTest, Figure1AliasRelations) {
  workload::Figure1Program F = workload::figure1();
  facts::FactDB DB = facts::extract(F.P);
  // 2-call+H separates the two id() calls on the shared receiver r
  // (object sensitivity cannot — both calls dispatch on h3).
  analysis::Results Precise = analysis::solve(
      DB, ctx::Config{Abstraction::TransformerString,
                      ctx::Flavour::CallSite, 2, 1});
  // x and x1 both point to h1 — aliased.
  EXPECT_TRUE(clients::mayAlias(Precise, F.X, F.X1));
  // x1 (h1) and y1 (h2) are separated under 2-call.
  EXPECT_FALSE(clients::mayAlias(Precise, F.X1, F.Y1));
  // a and b point to m1 objects with distinct heap contexts, but the CI
  // alias query merges contexts: they still may-alias on heap site m1.
  EXPECT_TRUE(clients::mayAlias(Precise, F.A, F.B));

  analysis::Results Coarse =
      analysis::solve(DB, ctx::insensitive(Abstraction::ContextString));
  std::vector<std::uint32_t> Vars = {F.X1, F.Y1, F.X2, F.Y2};
  // Precision shows up as strictly fewer alias pairs.
  EXPECT_LT(clients::countAliasPairs(Precise, Vars),
            clients::countAliasPairs(Coarse, Vars));
}

TEST(AliasTest, OutOfRangeVarIsEmpty) {
  workload::Figure7Program F = workload::figure7();
  facts::FactDB DB = facts::extract(F.P);
  analysis::Results R =
      analysis::solve(DB, ctx::oneCall(Abstraction::ContextString));
  EXPECT_TRUE(R.ptsOf(99999).empty());
  EXPECT_FALSE(clients::mayAlias(R, 99999, F.V));
}

TEST(ReachabilityTest, DeadMethodsReported) {
  Builder B;
  TypeId Obj = B.addClass("Object");
  MethodId Dead = B.addStaticMethod(Obj, "dead", 0);
  MethodId Live = B.addStaticMethod(Obj, "live", 0);
  MethodId Main = B.addStaticMethod(Obj, "main", 0);
  B.setMain(Main);
  B.addStaticCall(Main, Live, {}, InvalidId, "c0");
  facts::FactDB DB = facts::extract(B.take());
  analysis::Results R =
      analysis::solve(DB, ctx::oneCall(Abstraction::TransformerString));
  clients::ReachabilitySummary S = clients::reachableMethods(DB, R);
  EXPECT_EQ(S.TotalMethods, 3u);
  EXPECT_EQ(S.ReachableMethods,
            (std::vector<std::uint32_t>{Live, Main}));
  EXPECT_EQ(S.DeadMethods, (std::vector<std::uint32_t>{Dead}));
}

} // namespace
