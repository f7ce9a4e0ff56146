//===- tests/PtsVec.h - pts_ci sets as vectors for assertions ---*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#ifndef CTP_TESTS_PTSVEC_H
#define CTP_TESTS_PTSVEC_H

#include "analysis/Results.h"

#include <cstdint>
#include <vector>

namespace ctp {
namespace test {

/// pts_ci(\p V) of \p R as a vector, for EXPECT_EQ against a heap list.
inline std::vector<std::uint32_t> ptsVec(const analysis::Results &R,
                                         std::uint32_t V) {
  auto Heaps = R.ptsOf(V);
  return {Heaps.begin(), Heaps.end()};
}

} // namespace test
} // namespace ctp

#endif // CTP_TESTS_PTSVEC_H
