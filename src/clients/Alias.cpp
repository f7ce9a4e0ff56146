//===- clients/Alias.cpp - May-alias queries ------------------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "clients/Alias.h"

using namespace ctp;
using namespace ctp::clients;

bool clients::mayAlias(const analysis::Results &R, std::uint32_t V1,
                       std::uint32_t V2) {
  auto A = R.ptsOf(V1), B = R.ptsOf(V2);
  // Sorted-set intersection test.
  auto I = A.begin(), J = B.begin();
  while (I != A.end() && J != B.end()) {
    if (*I == *J)
      return true;
    if (*I < *J)
      ++I;
    else
      ++J;
  }
  return false;
}

std::size_t clients::countAliasPairs(const analysis::Results &R,
                                     const std::vector<std::uint32_t> &Vars) {
  std::size_t Count = 0;
  for (std::size_t I = 0; I < Vars.size(); ++I)
    for (std::size_t J = I + 1; J < Vars.size(); ++J)
      if (mayAlias(R, Vars[I], Vars[J]))
        ++Count;
  return Count;
}
