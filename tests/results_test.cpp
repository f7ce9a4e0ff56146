//===- tests/results_test.cpp - Results, projections, determinism ---------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/DatalogFrontend.h"
#include "analysis/Solver.h"
#include "ctx/Domain.h"
#include "facts/Extract.h"
#include "workload/Generator.h"
#include "workload/PaperPrograms.h"

#include "PtsVec.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <latch>
#include <map>
#include <set>
#include <thread>

using namespace ctp;
using ctx::Abstraction;

namespace {

TEST(ResultsTest, ProjectionsAreSortedAndUnique) {
  facts::FactDB DB = facts::extract(workload::figure1().P);
  analysis::Results R =
      analysis::solve(DB, ctx::oneCallH(Abstraction::ContextString));
  auto Pts = R.ciPts();
  for (std::size_t I = 1; I < Pts.size(); ++I)
    EXPECT_LT(Pts[I - 1], Pts[I]);
  auto Calls = R.ciCall();
  for (std::size_t I = 1; I < Calls.size(); ++I)
    EXPECT_LT(Calls[I - 1], Calls[I]);
  auto Reach = R.ciReach();
  for (std::size_t I = 1; I < Reach.size(); ++I)
    EXPECT_LT(Reach[I - 1], Reach[I]);
}

TEST(ResultsTest, SolverIsDeterministic) {
  workload::WorkloadParams P;
  P.Drivers = 3;
  P.Scenarios = 5;
  P.Seed = 77;
  facts::FactDB DB = facts::extract(workload::generate(P));
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    analysis::Results R1 = analysis::solve(DB, ctx::twoObjectH(A));
    analysis::Results R2 = analysis::solve(DB, ctx::twoObjectH(A));
    EXPECT_EQ(R1.Stat.NumPts, R2.Stat.NumPts);
    EXPECT_EQ(R1.Stat.NumCall, R2.Stat.NumCall);
    EXPECT_EQ(R1.Stat.WorkItems, R2.Stat.WorkItems);
    // Fact sets identical, including the interned transform ids (the
    // evaluation order is deterministic, so interning order is too).
    std::set<std::array<std::uint32_t, 4>> S1, S2;
    for (const auto &F : R1.Pts)
      S1.insert(analysis::keyOf(F));
    for (const auto &F : R2.Pts)
      S2.insert(analysis::keyOf(F));
    EXPECT_EQ(S1, S2);
  }
}

TEST(ResultsTest, DomainToStringRendersBothAbstractions) {
  facts::FactDB DB = facts::extract(workload::figure5().P);
  analysis::Results Ts =
      analysis::solve(DB, ctx::oneCallH(Abstraction::TransformerString));
  bool SawEpsilon = false;
  for (const auto &F : Ts.Pts)
    SawEpsilon |= Ts.Dom->toString(F.T).find("eps") != std::string::npos;
  EXPECT_TRUE(SawEpsilon);

  analysis::Results Cs =
      analysis::solve(DB, ctx::oneCallH(Abstraction::ContextString));
  ASSERT_FALSE(Cs.Pts.empty());
  EXPECT_NE(Cs.Dom->toString(Cs.Pts[0].T).find("->"), std::string::npos);
}

using analysis::Results;
using U32s = std::vector<std::uint32_t>;

/// Reference projection: the sort+unique of \p Project over \p Facts.
template <class Fact, class ProjectT>
auto referenceCi(const std::vector<Fact> &Facts, ProjectT Project) {
  std::vector<decltype(Project(Facts.front()))> Out;
  for (const Fact &F : Facts)
    Out.push_back(Project(F));
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

/// Reference slices of sorted \p Rows, keyed by the leading id.
template <class Row> auto referenceSlices(const std::vector<Row> &Rows) {
  std::map<std::uint32_t, std::vector<Row>> Out;
  for (const Row &R : Rows)
    Out[R[0]].push_back(R);
  return Out;
}

/// Checks every projection and every slice lookup of \p R against the
/// sort+unique reference, including ids past the last fact.
void expectMatchesReference(const Results &R, const std::string &What) {
  const auto Pts = referenceCi(R.Pts, [](const analysis::PtsFact &F) {
    return Results::CiPair{F.Var, F.Heap};
  });
  const auto Hpts = referenceCi(R.Hpts, [](const analysis::HptsFact &F) {
    return Results::CiTriple{F.Base, F.Field, F.Heap};
  });
  const auto Call = referenceCi(R.Call, [](const analysis::CallFact &F) {
    return Results::CiPair{F.Invoke, F.Method};
  });
  const auto Reach = referenceCi(
      R.Reach, [](const analysis::ReachFact &F) { return F.Method; });
  EXPECT_EQ(R.ciPts(), Pts) << What;
  EXPECT_EQ(R.ciHpts(), Hpts) << What;
  EXPECT_EQ(R.ciCall(), Call) << What;
  EXPECT_EQ(R.ciReach(), Reach) << What;

  auto PtsBy = referenceSlices(Pts);
  auto HptsBy = referenceSlices(Hpts);
  auto CallBy = referenceSlices(Call);
  const std::uint32_t Past = 2 + (Pts.empty() ? 0 : Pts.back()[0]) +
                             (Hpts.empty() ? 0 : Hpts.back()[0]) +
                             (Call.empty() ? 0 : Call.back()[0]);
  for (std::uint32_t Id = 0; Id < Past; ++Id) {
    U32s WantPts, WantCallees;
    for (const auto &Row : PtsBy[Id])
      WantPts.push_back(Row[1]);
    for (const auto &Row : CallBy[Id])
      WantCallees.push_back(Row[1]);
    auto Callees = R.calleesOf(Id);
    auto Hp = R.hptsOf(Id);
    EXPECT_EQ(test::ptsVec(R, Id), WantPts) << What << " var " << Id;
    EXPECT_EQ(U32s(Callees.begin(), Callees.end()), WantCallees)
        << What << " invoke " << Id;
    EXPECT_EQ(std::vector<Results::CiTriple>(Hp.begin(), Hp.end()),
              HptsBy[Id])
        << What << " base " << Id;
  }
  EXPECT_TRUE(R.ptsOf(UINT32_MAX).empty()) << What;
  EXPECT_TRUE(R.hptsOf(UINT32_MAX).empty()) << What;
  EXPECT_TRUE(R.calleesOf(UINT32_MAX).empty()) << What;
}

/// A Results with duplicate rows (several transformations per CI row),
/// rows out of order, and gaps in every leading id.
Results handBuilt() {
  Results R;
  R.Pts = {{5, 2, 0}, {1, 7, 0}, {5, 2, 1}, {5, 0, 3}, {1, 7, 2}, {9, 9, 0}};
  R.Hpts = {{4, 1, 3, 0}, {4, 0, 3, 1}, {4, 1, 3, 2}, {2, 6, 6, 0}};
  R.Call = {{3, 8, 0}, {3, 6, 1}, {3, 8, 2}, {0, 1, 0}};
  R.Reach = {{6, 0}, {1, 0}, {6, 1}, {8, 2}};
  return R;
}

TEST(ResultsTest, HandBuiltProjectionsAndSlices) {
  Results R = handBuilt();
  expectMatchesReference(R, "hand-built");
  EXPECT_EQ(R.ciPts(), (std::vector<Results::CiPair>{
                           {1, 7}, {5, 0}, {5, 2}, {9, 9}}));
  EXPECT_EQ(R.ciReach(), (U32s{1, 6, 8}));
  EXPECT_EQ(test::ptsVec(R, 5), (U32s{0, 2}));
  EXPECT_TRUE(R.ptsOf(0).empty());
  EXPECT_TRUE(R.ptsOf(6).empty());
  EXPECT_TRUE(R.ptsOf(10).empty());
  EXPECT_EQ(R.hptsOf(4).size(), 2u);
  EXPECT_EQ(R.calleesOf(3).size(), 2u);
}

TEST(ResultsTest, EmptyResultsHaveEmptyProjections) {
  Results R;
  expectMatchesReference(R, "empty");
  EXPECT_TRUE(R.ciPts().empty());
  EXPECT_TRUE(R.ciReach().empty());
  EXPECT_TRUE(R.ptsOf(0).empty());
  EXPECT_TRUE(R.hptsOf(0).empty());
  EXPECT_TRUE(R.calleesOf(0).empty());
}

TEST(ResultsTest, PointsToOfUnknownVarIsEmpty) {
  facts::FactDB DB = facts::extract(workload::figure7().P);
  analysis::Results R =
      analysis::solve(DB, ctx::oneCall(Abstraction::ContextString));
  EXPECT_TRUE(R.ptsOf(123456).empty());
}

TEST(ResultsTest, EachProjectionIsBuiltOnce) {
  facts::FactDB DB = facts::extract(workload::figure1().P);
  Results R = analysis::solve(DB, ctx::oneCallH(Abstraction::ContextString));
  EXPECT_EQ(&R.ciPts(), &R.ciPts());
  EXPECT_EQ(&R.ciHpts(), &R.ciHpts());
  EXPECT_EQ(&R.ciCall(), &R.ciCall());
  EXPECT_EQ(&R.ciReach(), &R.ciReach());
  // The slices are views into the same rows, and a move keeps them.
  ASSERT_FALSE(R.ciPts().empty());
  const std::uint32_t V = R.ciPts().front()[0];
  EXPECT_EQ(&*R.ptsOf(V).begin(), &R.ciPts().front()[1]);
  const auto *Rows = &R.ciPts();
  Results Moved = std::move(R);
  EXPECT_EQ(&Moved.ciPts(), Rows);
}

TEST(ResultsTest, ConcurrentFirstUseBuildsOneProjection) {
  facts::FactDB DB = facts::extract(workload::figure1().P);
  Results R = analysis::solve(DB, ctx::twoObjectH(Abstraction::ContextString));
  constexpr int Threads = 4;
  std::latch Go(Threads);
  struct Seen {
    const void *Pts, *Hpts, *Call, *Reach;
    U32s Heaps, Callees;
    std::size_t HptsRows = 0;
  };
  std::vector<Seen> Out(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      const auto Id = static_cast<std::uint32_t>(T);
      Seen &S = Out[T];
      // Each thread reaches the four projections first through a
      // different lookup or accessor.
      auto Touch = [&](int Which) {
        switch (Which) {
        case 0:
          S.Heaps = test::ptsVec(R, Id);
          break;
        case 1:
          S.HptsRows = R.hptsOf(Id).size();
          break;
        case 2: {
          auto Callees = R.calleesOf(Id);
          S.Callees.assign(Callees.begin(), Callees.end());
          break;
        }
        default:
          S.Reach = &R.ciReach();
          break;
        }
      };
      Go.arrive_and_wait();
      for (int I = 0; I < 4; ++I)
        Touch((T + I) % 4);
      S.Pts = &R.ciPts();
      S.Hpts = &R.ciHpts();
      S.Call = &R.ciCall();
    });
  for (std::thread &T : Pool)
    T.join();
  for (int T = 0; T < Threads; ++T) {
    const auto Id = static_cast<std::uint32_t>(T);
    auto Callees = R.calleesOf(Id);
    EXPECT_EQ(Out[T].Pts, &R.ciPts());
    EXPECT_EQ(Out[T].Hpts, &R.ciHpts());
    EXPECT_EQ(Out[T].Call, &R.ciCall());
    EXPECT_EQ(Out[T].Reach, &R.ciReach());
    EXPECT_EQ(Out[T].Heaps, test::ptsVec(R, Id));
    EXPECT_EQ(Out[T].Callees, U32s(Callees.begin(), Callees.end()));
    EXPECT_EQ(Out[T].HptsRows, R.hptsOf(Id).size());
  }
  expectMatchesReference(R, "concurrent");
}

#ifndef NDEBUG
TEST(ResultsDeathTest, ChangingARelationAfterItsProjectionWasReadAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Results R = handBuilt();
  ASSERT_EQ(R.ciPts().size(), 4u);
  R.Pts.push_back({0, 0, 0});
  EXPECT_DEATH((void)R.ciPts(), "relation changed");
}
#endif

/// Random generator programs through both back-ends and both
/// abstractions.
struct ResultsSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResultsSeedTest, ProjectionsMatchSortUniqueReference) {
  workload::WorkloadParams P;
  P.DataClasses = 3;
  P.Factories = 2;
  P.Containers = 2;
  P.Drivers = 3;
  P.Scenarios = 4;
  P.AstScenarios = GetParam() % 2 ? 2 : 0;
  P.Seed = GetParam();
  facts::FactDB DB = facts::extract(workload::generate(P));
  for (Abstraction A :
       {Abstraction::ContextString, Abstraction::TransformerString}) {
    const ctx::Config Cfg = ctx::twoObjectH(A);
    const std::string Tag = Cfg.name() + " seed " + std::to_string(GetParam());
    Results Native = analysis::solve(DB, Cfg);
    ASSERT_FALSE(Native.ciPts().empty()) << Tag;
    expectMatchesReference(Native, "native " + Tag);
    expectMatchesReference(analysis::solveViaDatalog(DB, Cfg),
                           "datalog " + Tag);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResultsSeedTest,
                         ::testing::Values(5u, 18u, 31u, 46u));

TEST(DomainTest, RetargetAndGlobalizeContextString) {
  auto D = ctx::makeDomain(ctx::oneCallH(Abstraction::ContextString),
                           {0});
  ctx::CtxtVec M;
  M.push_back(ctx::elemOfEntity(5));
  ctx::TransformId B = D->record(M); // ([e5], [e5]) at h = 1.
  ctx::TransformId G = D->globalize(B);
  EXPECT_EQ(D->ctxtPair(G).In, M);
  EXPECT_TRUE(D->ctxtPair(G).Out.empty());
  ctx::CtxtVec M2;
  M2.push_back(ctx::elemOfEntity(9));
  ctx::TransformId RT = D->retarget(G, M2);
  EXPECT_EQ(D->ctxtPair(RT).In, M);
  EXPECT_EQ(D->ctxtPair(RT).Out, M2);
}

TEST(DomainTest, RetargetAndGlobalizeTransformer) {
  auto D = ctx::makeDomain(ctx::oneCallH(Abstraction::TransformerString),
                           {0});
  ctx::CtxtVec M;
  M.push_back(ctx::elemOfEntity(5));
  // Build a transform with entries via merge_s, then invert it so the
  // exits side is populated: Ǐ5.
  ctx::TransformId C = D->mergeStatic(5, M); // Î5.
  ctx::TransformId Inv = D->inv(C);          // Ǐ5.
  ctx::TransformId G = D->globalize(Inv);
  const ctx::Transformer &TG = D->transformer(G);
  EXPECT_EQ(TG.Exits.size(), 1u);
  EXPECT_TRUE(TG.Entries.empty());
  // globalize of an entries-bearing transform must wildcard.
  ctx::TransformId G2 = D->globalize(C);
  EXPECT_TRUE(D->transformer(G2).Wild);
  EXPECT_TRUE(D->transformer(G2).Entries.empty());
  // retarget re-enters the loader's context with a wildcard.
  ctx::CtxtVec M2;
  M2.push_back(ctx::elemOfEntity(9));
  ctx::TransformId RT = D->retarget(G, M2);
  const ctx::Transformer &TR = D->transformer(RT);
  EXPECT_TRUE(TR.Wild);
  EXPECT_EQ(TR.Entries, M2);
  EXPECT_EQ(TR.Exits, TG.Exits);
}

} // namespace
