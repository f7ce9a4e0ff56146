//===- tests/fig1_test.cpp - Figure 1 / Section 2 narrative ---------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Reproduces the precision claims of Section 2 on the Figure 1 program
// for every flavour/level the narrative discusses, under both
// abstractions (which must agree — Theorem 6.2 in practice).
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "facts/Extract.h"
#include "workload/PaperPrograms.h"

#include "PtsVec.h"
#include "gtest/gtest.h"

using namespace ctp;
using ctx::Abstraction;
using ctx::Config;
using ctx::Flavour;

namespace {

class Fig1Test : public ::testing::TestWithParam<Abstraction> {
protected:
  void SetUp() override {
    F = workload::figure1();
    DB = facts::extract(F.P);
  }

  std::vector<std::uint32_t> pts(const analysis::Results &R,
                                 ir::VarId V) const {
    return test::ptsVec(R, V);
  }

  workload::Figure1Program F;
  facts::FactDB DB;
};

using U32s = std::vector<std::uint32_t>;

TEST_P(Fig1Test, ContextInsensitiveMergesEverything) {
  analysis::Results R =
      analysis::solve(DB, ctx::insensitive(GetParam()));
  EXPECT_EQ(pts(R, F.X1), (U32s{F.H1, F.H2}));
  EXPECT_EQ(pts(R, F.Y1), (U32s{F.H1, F.H2}));
  EXPECT_EQ(pts(R, F.X2), (U32s{F.H1, F.H2}));
  EXPECT_EQ(pts(R, F.Y2), (U32s{F.H1, F.H2}));
  // Without heap contexts a.f and b.f alias: z "points to" h1.
  EXPECT_EQ(pts(R, F.Z), (U32s{F.H1}));
}

TEST_P(Fig1Test, OneCallSeparatesDirectCalls) {
  analysis::Results R = analysis::solve(DB, ctx::oneCall(GetParam()));
  // id analyzed per call site: c2 and c3 are distinguished.
  EXPECT_EQ(pts(R, F.X1), (U32s{F.H1}));
  EXPECT_EQ(pts(R, F.Y1), (U32s{F.H2}));
  // But c4/c5 both reach id through c1: merged.
  EXPECT_EQ(pts(R, F.X2), (U32s{F.H1, F.H2}));
  EXPECT_EQ(pts(R, F.Y2), (U32s{F.H1, F.H2}));
}

TEST_P(Fig1Test, TwoCallRecoversNestedPrecision) {
  Config Cfg{GetParam(), Flavour::CallSite, 2, 0};
  analysis::Results R = analysis::solve(DB, Cfg);
  EXPECT_EQ(pts(R, F.X1), (U32s{F.H1}));
  EXPECT_EQ(pts(R, F.Y1), (U32s{F.H2}));
  EXPECT_EQ(pts(R, F.X2), (U32s{F.H1}));
  EXPECT_EQ(pts(R, F.Y2), (U32s{F.H2}));
}

TEST_P(Fig1Test, OneObjectMergesSameReceiverButSplitsNesting) {
  analysis::Results R = analysis::solve(DB, ctx::oneObject(GetParam()));
  // Both id(x) and id(y) use receiver h3: merged.
  EXPECT_EQ(pts(R, F.X1), (U32s{F.H1, F.H2}));
  EXPECT_EQ(pts(R, F.Y1), (U32s{F.H1, F.H2}));
  // id2 and its nested id run under receiver contexts h4 vs h5: precise.
  EXPECT_EQ(pts(R, F.X2), (U32s{F.H1}));
  EXPECT_EQ(pts(R, F.Y2), (U32s{F.H2}));
}

TEST_P(Fig1Test, HeapContextsDisambiguateFactoryObjects) {
  // Without heap context the two m() results are one abstract object and
  // z picks up h1.
  analysis::Results NoH = analysis::solve(DB, ctx::oneObject(GetParam()));
  EXPECT_EQ(pts(NoH, F.Z), (U32s{F.H1}));
  EXPECT_EQ(pts(NoH, F.A), (U32s{F.M1}));
  EXPECT_EQ(pts(NoH, F.B), (U32s{F.M1}));

  // With one level of heap context (either flavour, per Section 2), the
  // objects from c6 and c7 are distinguished and z points to nothing.
  analysis::Results CallH = analysis::solve(DB, ctx::oneCallH(GetParam()));
  EXPECT_TRUE(pts(CallH, F.Z).empty());
  analysis::Results ObjH = analysis::solve(DB, ctx::twoObjectH(GetParam()));
  EXPECT_TRUE(pts(ObjH, F.Z).empty());
}

TEST_P(Fig1Test, TwoObjectHKeepsObjectLimits) {
  // Deeper object contexts cannot separate x1/y1: both calls dispatch on
  // the same receiver object h3 (this is inherent to object sensitivity,
  // not a depth limitation).
  analysis::Results R = analysis::solve(DB, ctx::twoObjectH(GetParam()));
  EXPECT_EQ(pts(R, F.X1), (U32s{F.H1, F.H2}));
  EXPECT_EQ(pts(R, F.Y1), (U32s{F.H1, F.H2}));
  EXPECT_EQ(pts(R, F.X2), (U32s{F.H1}));
  EXPECT_EQ(pts(R, F.Y2), (U32s{F.H2}));
  EXPECT_TRUE(pts(R, F.Z).empty());
}

INSTANTIATE_TEST_SUITE_P(BothAbstractions, Fig1Test,
                         ::testing::Values(Abstraction::ContextString,
                                           Abstraction::TransformerString),
                         [](const auto &Info) {
                           return Info.param ==
                                          Abstraction::ContextString
                                      ? "ContextString"
                                      : "TransformerString";
                         });

} // namespace
