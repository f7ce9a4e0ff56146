//===- tests/domain_test.cpp - Figure-4 flavour policy tests --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Checks record / merge / merge_s / target under each abstraction and each
// flavour against the definitions of Figure 4.
//
//===----------------------------------------------------------------------===//

#include "analysis/Solver.h"
#include "ctx/Domain.h"
#include "facts/Extract.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace ctp;
using namespace ctp::ctx;

namespace {

CtxtVec vec(std::initializer_list<CtxtElem> E) {
  CtxtVec V;
  for (CtxtElem X : E)
    V.push_back(X);
  return V;
}

// Heap site 0 belongs to class 5; heap site 1 to class 6.
std::vector<std::uint32_t> classTable() { return {5, 6}; }

TEST(DomainTest, ContextStringRecord) {
  Config Cfg = oneCallH(Abstraction::ContextString); // m = 1, h = 1.
  auto D = makeDomain(Cfg, classTable());
  CtxtVec M = vec({elemOfEntity(3)});
  TransformId T = D->record(M);
  const CtxtPair &P = D->ctxtPair(T);
  EXPECT_EQ(P.In, M);
  EXPECT_EQ(P.Out, M);
}

TEST(DomainTest, TransformerRecordIsIdentity) {
  auto D = makeDomain(twoObjectH(Abstraction::TransformerString),
                      classTable());
  TransformId T = D->record(vec({EntryElem}));
  EXPECT_TRUE(D->transformer(T).isIdentity());
  // Same id regardless of the reach context — the compact representation.
  EXPECT_EQ(T, D->record(vec({elemOfEntity(9), EntryElem})));
}

TEST(DomainTest, CallSiteMergeStatic) {
  // merge_s^c(I, M) = (M, I·prefix_{m-1}(M)).
  Config Cfg{Abstraction::ContextString, Flavour::CallSite, 2, 0};
  auto D = makeDomain(Cfg, classTable());
  CtxtVec M = vec({elemOfEntity(1), EntryElem});
  TransformId T = D->mergeStatic(/*Invoke=*/4, M);
  const CtxtPair &P = D->ctxtPair(T);
  EXPECT_EQ(P.In, M);
  EXPECT_EQ(P.Out, vec({elemOfEntity(4), elemOfEntity(1)}));
  // target is the callee context.
  EXPECT_EQ(D->target(T), P.Out);
}

TEST(DomainTest, CallSiteMergeStaticTransformer) {
  // merge_s^t(I, _) = Î, independent of the reach context.
  Config Cfg{Abstraction::TransformerString, Flavour::CallSite, 2, 0};
  auto D = makeDomain(Cfg, classTable());
  TransformId T = D->mergeStatic(4, vec({EntryElem}));
  const Transformer &Tr = D->transformer(T);
  EXPECT_TRUE(Tr.Exits.empty());
  EXPECT_FALSE(Tr.Wild);
  EXPECT_EQ(Tr.Entries, vec({elemOfEntity(4)}));
  EXPECT_EQ(T, D->mergeStatic(4, vec({elemOfEntity(8), EntryElem})));
}

TEST(DomainTest, ObjectMergeStaticIsPrefixFilter) {
  // merge_s^t(I, M) = M̌·M̂ under object sensitivity (the N·N̂ trick).
  auto D = makeDomain(twoObjectH(Abstraction::TransformerString),
                      classTable());
  CtxtVec M = vec({elemOfEntity(0), EntryElem});
  TransformId T = D->mergeStatic(4, M);
  const Transformer &Tr = D->transformer(T);
  EXPECT_EQ(Tr.Exits, M);
  EXPECT_EQ(Tr.Entries, M);
  EXPECT_FALSE(Tr.Wild);
  EXPECT_EQ(D->target(T), M);
}

TEST(DomainTest, ObjectMergeVirtualContextString) {
  // merge^c(H, I, (H', M)) = (M, H·H') with h = 1, m = 2.
  auto D = makeDomain(twoObjectH(Abstraction::ContextString), classTable());
  // Receiver pts transformation: heap ctx [e9], method ctx [e9, entry].
  CtxtVec Hp = vec({elemOfEntity(9)});
  CtxtVec Mc = vec({elemOfEntity(9), EntryElem});
  // Intern the pair by running it through record on an equivalent path:
  // build via comp of record? Simpler: record gives (prefix_1(M), M).
  TransformId B = D->record(Mc); // (prefix_1 = [e9], [e9, entry]).
  TransformId C = D->mergeVirtual(/*Heap=*/1, /*Invoke=*/7, B);
  const CtxtPair &P = D->ctxtPair(C);
  EXPECT_EQ(P.In, Mc);
  EXPECT_EQ(P.Out, vec({elemOfEntity(1), elemOfEntity(9)}));
  (void)Hp;
}

TEST(DomainTest, ObjectMergeVirtualTransformer) {
  // merge^t(H, I, Ǎ·w·B̂) = B̌·w·Â·Ĥ: exits = entries(B), entries = H·A.
  auto D = makeDomain(twoObjectH(Abstraction::TransformerString),
                      classTable());
  Transformer B;
  B.Exits = vec({elemOfEntity(3)});   // A — receiver's heap context path.
  B.Entries = vec({elemOfEntity(4)}); // B.
  // Intern B through compose: record ∘ ... — instead reach inside: use
  // comp with identity to intern an arbitrary transformer is not exposed,
  // so drive it through mergeVirtual on the identity and compose by hand.
  // Here we check the policy directly through the public surface:
  TransformId Eps = D->record(vec({EntryElem}));
  // With B = ε: merge = (exits ε-entries = [], entries = [H]).
  TransformId C = D->mergeVirtual(/*Heap=*/0, /*Invoke=*/7, Eps);
  const Transformer &Tc = D->transformer(C);
  EXPECT_TRUE(Tc.Exits.empty());
  EXPECT_EQ(Tc.Entries, vec({elemOfEntity(0)}));
  EXPECT_FALSE(Tc.Wild);
}

TEST(DomainTest, TypeMergeUsesClassOfHeap) {
  auto D = makeDomain(twoTypeH(Abstraction::TransformerString),
                      classTable());
  TransformId Eps = D->record(vec({EntryElem}));
  TransformId C = D->mergeVirtual(/*Heap=*/1, /*Invoke=*/7, Eps);
  // classOf(heap 1) = type 6.
  EXPECT_EQ(D->transformer(C).Entries, vec({elemOfEntity(6)}));
}

TEST(DomainTest, CallSiteMergeVirtualTransformer) {
  // merge^t(H, I, Ǎ·w·B̂) = trunc_{m,m}(B̌·B̂·Î): exits = entries,
  // entries = I·entries.
  Config Cfg{Abstraction::TransformerString, Flavour::CallSite, 2, 1};
  auto D = makeDomain(Cfg, classTable());
  TransformId Eps = D->record(vec({EntryElem}));
  TransformId C = D->mergeVirtual(0, /*Invoke=*/7, Eps);
  const Transformer &Tc = D->transformer(C);
  EXPECT_TRUE(Tc.Exits.empty());
  EXPECT_EQ(Tc.Entries, vec({elemOfEntity(7)}));
}

TEST(DomainTest, CompMemoizationIsStable) {
  auto D = makeDomain(oneCallH(Abstraction::TransformerString),
                      classTable());
  TransformId Eps = D->record(vec({EntryElem}));
  TransformId C = D->mergeStatic(2, vec({EntryElem}));
  auto R1 = D->comp(Eps, C, 1, 1);
  auto R2 = D->comp(Eps, C, 1, 1);
  ASSERT_TRUE(R1.has_value());
  ASSERT_TRUE(R2.has_value());
  EXPECT_EQ(*R1, *R2);
}

TEST(DomainTest, CompBottomIsFiltered) {
  auto D = makeDomain(oneCallH(Abstraction::TransformerString),
                      classTable());
  TransformId C2 = D->mergeStatic(2, vec({EntryElem})); // Î2
  TransformId C3 = D->mergeStatic(3, vec({EntryElem})); // Î3
  TransformId Inv3 = D->inv(C3);                        // Ǐ3
  // Î2 ; Ǐ3 = ⊥.
  EXPECT_FALSE(D->comp(C2, Inv3, 1, 1).has_value());
  // ⊥ is decided from the values on every call; it never enters the memo.
  EXPECT_FALSE(D->comp(C2, Inv3, 1, 1).has_value());
  EXPECT_EQ(D->counters().CompBottom, 2u);
  EXPECT_EQ(D->counters().MemoMisses, 0u);
}

/// The domain a converged solve of a small preset leaves behind: a
/// realistic population of interned transformations.
std::unique_ptr<Domain> solvedDomain(Abstraction A) {
  facts::FactDB DB = facts::extract(workload::generatePreset("luindex"));
  analysis::Results R = analysis::solve(DB, twoObjectH(A));
  return std::move(R.Dom);
}

/// Checks comp against the reference composition on every pair of the
/// first \p Cap interned ids, under the (MaxExits, MaxEntries) pairs the
/// rules use — (h, h) and (h, m) — on a first and on a repeat call.
void expectCompMatchesReference(Domain &D, std::size_t Cap) {
  const Config &Cfg = D.config();
  const std::pair<unsigned, unsigned> Dims[] = {
      {Cfg.HeapDepth, Cfg.HeapDepth}, {Cfg.HeapDepth, Cfg.MethodDepth}};
  const bool Cs = Cfg.Abs == Abstraction::ContextString;
  const TransformId N =
      static_cast<TransformId>(std::min<std::size_t>(D.size(), Cap));
  std::size_t Bottoms = 0, Composed = 0;
  for (auto [I, K] : Dims)
    for (TransformId A = 0; A < N; ++A)
      for (TransformId B = 0; B < N; ++B) {
        std::optional<TransformId> First = D.comp(A, B, I, K);
        std::size_t Size = D.size();
        std::optional<TransformId> Again = D.comp(A, B, I, K);
        EXPECT_EQ(First, Again);
        EXPECT_EQ(D.size(), Size) << "a repeat comp interned a value";
        bool Bottom;
        if (Cs) {
          std::optional<CtxtPair> Ref =
              composePairs(D.ctxtPair(A), D.ctxtPair(B));
          Bottom = !Ref;
          if (Ref && First) {
            EXPECT_EQ(D.ctxtPair(*First), *Ref);
          }
        } else {
          std::optional<Transformer> Ref =
              composeTruncated(D.transformer(A), D.transformer(B), I, K);
          Bottom = !Ref;
          if (Ref && First) {
            EXPECT_EQ(D.transformer(*First), *Ref);
          }
        }
        EXPECT_EQ(First.has_value(), !Bottom) << A << ";" << B;
        ++(Bottom ? Bottoms : Composed);
      }
  // The sample must exercise both outcomes to mean anything.
  EXPECT_GT(Bottoms, 0u);
  EXPECT_GT(Composed, 0u);
  const DomainCounters &C = D.counters();
  EXPECT_EQ(C.CompCalls, C.CompBottom + C.MemoHits + C.MemoMisses);
}

TEST(DomainTest, ContextStringCompMatchesReference) {
  auto D = solvedDomain(Abstraction::ContextString);
  expectCompMatchesReference(*D, 150);
}

TEST(DomainTest, TransformerCompMatchesReference) {
  auto D = solvedDomain(Abstraction::TransformerString);
  expectCompMatchesReference(*D, 150);
}

TEST(DomainTest, ContextStringInverseIsCachedInvolution) {
  auto D = solvedDomain(Abstraction::ContextString);
  const TransformId N = static_cast<TransformId>(D->size());
  for (TransformId A = 0; A < N; ++A) {
    TransformId Inv = D->inv(A);
    EXPECT_EQ(D->ctxtPair(Inv), inversePair(D->ctxtPair(A)));
    EXPECT_EQ(D->inv(Inv), A);
  }
  // Every inverse is interned now: repeats hit the cache and intern
  // nothing.
  std::size_t Size = D->size();
  std::uint64_t Hits = D->counters().InvCacheHits;
  for (TransformId A = 0; A < N; ++A)
    D->inv(A);
  EXPECT_EQ(D->size(), Size);
  EXPECT_EQ(D->counters().InvCacheHits, Hits + N);
}

TEST(DomainTest, InsensitiveConfigCollapsesEverything) {
  auto D = makeDomain(insensitive(Abstraction::TransformerString), {});
  CtxtVec Empty;
  TransformId R1 = D->record(Empty);
  TransformId C = D->mergeStatic(3, Empty);
  // With m = 0, merge_s truncates Î to a pure wildcard.
  const Transformer &Tc = D->transformer(C);
  EXPECT_TRUE(Tc.Exits.empty());
  EXPECT_TRUE(Tc.Entries.empty());
  EXPECT_TRUE(Tc.Wild);
  EXPECT_TRUE(D->transformer(R1).isIdentity());
}

} // namespace
