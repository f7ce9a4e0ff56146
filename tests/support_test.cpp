//===- tests/support_test.cpp - Support library tests ---------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "support/BoundedVector.h"
#include "support/FlatTable.h"
#include "support/Hashing.h"
#include "support/Interner.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Tsv.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <string>

using namespace ctp;

namespace {

TEST(BoundedVectorTest, BasicOps) {
  BoundedVector<std::uint32_t, 4> V;
  EXPECT_TRUE(V.empty());
  V.push_back(10);
  V.push_back(20);
  EXPECT_EQ(V.size(), 2u);
  EXPECT_EQ(V[0], 10u);
  EXPECT_EQ(V.back(), 20u);
  V.pop_back();
  EXPECT_EQ(V.size(), 1u);
}

TEST(BoundedVectorTest, PrefixAndDrop) {
  BoundedVector<std::uint32_t, 4> V = {1, 2, 3};
  EXPECT_EQ(V.takePrefix(2), (BoundedVector<std::uint32_t, 4>{1, 2}));
  EXPECT_EQ(V.takePrefix(9), V);
  EXPECT_EQ(V.dropPrefix(1), (BoundedVector<std::uint32_t, 4>{2, 3}));
  EXPECT_EQ(V.dropPrefix(9), (BoundedVector<std::uint32_t, 4>{}));
}

TEST(BoundedVectorTest, EqualityIgnoresStalePastEnd) {
  BoundedVector<std::uint32_t, 4> A = {1, 2, 3};
  A.pop_back();
  BoundedVector<std::uint32_t, 4> B = {1, 2};
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
}

TEST(BoundedVectorTest, LexicographicOrder) {
  BoundedVector<std::uint32_t, 4> A = {1, 2};
  BoundedVector<std::uint32_t, 4> B = {1, 2, 0};
  BoundedVector<std::uint32_t, 4> C = {1, 3};
  EXPECT_TRUE(A < B);
  EXPECT_TRUE(B < C);
  EXPECT_FALSE(C < A);
}

TEST(InternerTest, StableIdsAndLookup) {
  Interner<std::string> I;
  std::uint32_t A = I.intern("alpha");
  std::uint32_t B = I.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(I.intern("alpha"), A);
  EXPECT_EQ(I[A], "alpha");
  EXPECT_EQ(I.lookup("beta"), B);
  EXPECT_EQ(I.lookup("gamma"), UINT32_MAX);
  EXPECT_EQ(I.size(), 2u);
}

TEST(InternerTest, ManyValuesReferenceStability) {
  Interner<std::string> I;
  std::uint32_t First = I.intern("v0");
  const std::string &Ref = I[First];
  for (int K = 1; K < 1000; ++K)
    I.intern("v" + std::to_string(K));
  EXPECT_EQ(Ref, "v0"); // Deque storage keeps references valid.
  EXPECT_EQ(I.size(), 1000u);
}

TEST(RngTest, DeterministicStreams) {
  Rng A(42), B(42), C(43);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Diverged = false;
  Rng A2(42);
  for (int I = 0; I < 100; ++I)
    if (A2.next() != C.next())
      Diverged = true;
  EXPECT_TRUE(Diverged);
}

TEST(RngTest, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(R.nextBelow(10), 10u);
    std::uint64_t X = R.nextInRange(5, 8);
    EXPECT_GE(X, 5u);
    EXPECT_LE(X, 8u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(HashingTest, MixDistinguishesNeighbours) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(hashCombine(0, 1), hashCombine(1, 0));
}

struct U64Traits {
  static std::uint64_t empty() { return UINT64_MAX; }
  static std::uint64_t hash(std::uint64_t K) { return mix64(K); }
};

TEST(FlatTableTest, DuplicateInsertKeepsFirstValue) {
  FlatTable<std::uint64_t, std::uint32_t, U64Traits> T;
  EXPECT_TRUE(T.insert(7, 70));
  EXPECT_FALSE(T.insert(7, 71));
  ASSERT_NE(T.find(7), nullptr);
  EXPECT_EQ(*T.find(7), 70u);
  EXPECT_EQ(T.size(), 1u);
}

TEST(FlatTableTest, AbsentKeysMiss) {
  FlatSet<std::uint64_t, U64Traits> S;
  EXPECT_EQ(S.find(0), nullptr); // Before the first allocation.
  EXPECT_TRUE(S.insert(0));
  EXPECT_NE(S.find(0), nullptr);
  EXPECT_EQ(S.find(1), nullptr);
  EXPECT_EQ(S.find(UINT64_MAX - 1), nullptr);
}

TEST(FlatTableTest, ContentsSurviveGrowth) {
  FlatTable<std::uint64_t, std::uint32_t, U64Traits> T;
  const std::uint32_t N = 5000; // Several doublings from the first 16.
  for (std::uint32_t I = 0; I < N; ++I)
    EXPECT_TRUE(T.insert(std::uint64_t(I) * 3, I));
  EXPECT_EQ(T.size(), N);
  EXPECT_GE(T.capacity(), 2 * N); // Load stays at or below one half.
  for (std::uint32_t I = 0; I < N; ++I) {
    const std::uint32_t *V = T.find(std::uint64_t(I) * 3);
    ASSERT_NE(V, nullptr) << I;
    EXPECT_EQ(*V, I);
    EXPECT_EQ(T.find(std::uint64_t(I) * 3 + 1), nullptr);
    EXPECT_FALSE(T.insert(std::uint64_t(I) * 3, 0));
  }
}

TEST(FlatTableDeathTest, SentinelInsertAsserts) {
  FlatSet<std::uint64_t, U64Traits> S;
  // Only checked where assertions are compiled in; elsewhere the insert
  // runs and must still leave the table empty.
  EXPECT_DEBUG_DEATH(S.insert(UINT64_MAX), "sentinel");
#ifdef NDEBUG
  EXPECT_EQ(S.size(), 0u);
#endif
}

TEST(StatsTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({4.0}), 4.0);
  EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geometricMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(TsvTest, SplitJoinRoundTrip) {
  std::vector<std::string> Fields = {"a", "", "b c", "d"};
  EXPECT_EQ(splitTsvLine(joinTsvLine(Fields)), Fields);
  EXPECT_EQ(splitTsvLine("solo"), std::vector<std::string>{"solo"});
}

TEST(TsvTest, FileRoundTrip) {
  std::string Path = ::testing::TempDir() + "/ctp_tsv_test.facts";
  std::vector<std::vector<std::string>> Rows = {
      {"x", "y"}, {"1", "2"}, {"hello world", "tab\\less"}};
  ASSERT_TRUE(writeTsvFile(Path, Rows));
  std::vector<std::vector<std::string>> Back;
  ASSERT_TRUE(readTsvFile(Path, Back));
  EXPECT_EQ(Back, Rows);
  std::remove(Path.c_str());
}

TEST(TsvTest, MissingFileFails) {
  std::vector<std::vector<std::string>> Rows;
  EXPECT_FALSE(readTsvFile("/nonexistent/path/file.facts", Rows));
}

} // namespace
