//===- tests/fig5_test.cpp - Figure 5 derivation comparison ---------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Figure 5 derives every fact of the example program under m = 1, h = 1
// call-site sensitivity for both abstractions. This test checks the exact
// fact counts of the two columns and the key transformer values.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "workload/PaperPrograms.h"

#include "PtsVec.h"
#include "gtest/gtest.h"

using namespace ctp;
using ctx::Abstraction;
using ctx::CtxtVec;
using ctx::elemOfEntity;
using ctx::Transformer;

namespace {

class Fig5Test : public ::testing::Test {
protected:
  void SetUp() override {
    F = workload::figure5();
    DB = facts::extract(F.P);
  }
  workload::Figure5Program F;
  facts::FactDB DB;
};

TEST_F(Fig5Test, ContextStringColumnCounts) {
  analysis::Results R =
      analysis::solve(DB, ctx::oneCallH(Abstraction::ContextString));
  // Figure 5, left column: pts facts h:2, p:2, r:4, x:2, y:2 = 12.
  EXPECT_EQ(R.Stat.NumPts, 12u);
  // call: main->m at m1 and m2, m->id under two contexts = 4 edges.
  EXPECT_EQ(R.Stat.NumCall, 4u);
  // reach: main/[entry], m/[m1], m/[m2], id/[id1] = 4.
  EXPECT_EQ(R.Stat.NumReach, 4u);
}

TEST_F(Fig5Test, TransformerColumnCounts) {
  analysis::Results R =
      analysis::solve(DB, ctx::oneCallH(Abstraction::TransformerString));
  // Figure 5, right column: pts facts h:1, p:1, r:1, x:1, y:1 = 5.
  EXPECT_EQ(R.Stat.NumPts, 5u);
  // call: m̂1, m̂2, and one id̂1 edge = 3.
  EXPECT_EQ(R.Stat.NumCall, 3u);
  EXPECT_EQ(R.Stat.NumReach, 4u);
}

TEST_F(Fig5Test, TransformerValuesMatchTheTable) {
  analysis::Results R =
      analysis::solve(DB, ctx::oneCallH(Abstraction::TransformerString));
  auto FindPts = [&](ir::VarId V) -> const Transformer & {
    for (const auto &P : R.Pts)
      if (P.Var == V) {
        EXPECT_EQ(P.Heap, F.H1);
        return R.Dom->transformer(P.T);
      }
    ADD_FAILURE() << "no pts fact for variable";
    static Transformer Dummy;
    return Dummy;
  };

  // pts(h, h1, ε).
  EXPECT_TRUE(FindPts(F.H).isIdentity());
  // pts(p, h1, id̂1): entries [id1].
  const Transformer &Pp = FindPts(F.Pvar);
  EXPECT_TRUE(Pp.Exits.empty());
  ASSERT_EQ(Pp.Entries.size(), 1u);
  EXPECT_EQ(Pp.Entries[0], elemOfEntity(F.Id1));
  // pts(r, h1, ε).
  EXPECT_TRUE(FindPts(F.R).isIdentity());
  // pts(x, h1, m̌1): exits [m1].
  const Transformer &Px = FindPts(F.X);
  ASSERT_EQ(Px.Exits.size(), 1u);
  EXPECT_EQ(Px.Exits[0], elemOfEntity(F.M1));
  EXPECT_TRUE(Px.Entries.empty());
  // pts(y, h1, m̌2).
  const Transformer &Py = FindPts(F.Y);
  ASSERT_EQ(Py.Exits.size(), 1u);
  EXPECT_EQ(Py.Exits[0], elemOfEntity(F.M2));
}

TEST_F(Fig5Test, PrecisionIsIdentical) {
  analysis::Results Cs =
      analysis::solve(DB, ctx::oneCallH(Abstraction::ContextString));
  analysis::Results Ts =
      analysis::solve(DB, ctx::oneCallH(Abstraction::TransformerString));
  EXPECT_EQ(Cs.ciPts(), Ts.ciPts());
  EXPECT_EQ(Cs.ciCall(), Ts.ciCall());
  // x and y both point to h1 (the single allocation site) either way.
  EXPECT_EQ(test::ptsVec(Cs, F.X), std::vector<std::uint32_t>{F.H1});
  EXPECT_EQ(test::ptsVec(Ts, F.Y), std::vector<std::uint32_t>{F.H1});
}

TEST_F(Fig5Test, FactReductionMatchesPaperStory) {
  analysis::Results Cs =
      analysis::solve(DB, ctx::oneCallH(Abstraction::ContextString));
  analysis::Results Ts =
      analysis::solve(DB, ctx::oneCallH(Abstraction::TransformerString));
  EXPECT_LT(Ts.Stat.total(), Cs.Stat.total());
}

} // namespace
