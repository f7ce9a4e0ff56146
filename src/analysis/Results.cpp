//===- analysis/Results.cpp - Analysis results and projections ------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "analysis/Results.h"

#include <algorithm>

using namespace ctp;
using namespace ctp::analysis;

void Results::countRelations() {
  Stat.NumPts = Pts.size();
  Stat.NumHpts = Hpts.size();
  Stat.NumHload = Hload.size();
  Stat.NumCall = Call.size();
  Stat.NumReach = Reach.size();
  Stat.NumGpts = Gpts.size();
}

std::vector<std::array<std::uint32_t, 2>> Results::ciPts() const {
  std::vector<std::array<std::uint32_t, 2>> Out;
  Out.reserve(Pts.size());
  for (const PtsFact &F : Pts)
    Out.push_back({F.Var, F.Heap});
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<std::array<std::uint32_t, 3>> Results::ciHpts() const {
  std::vector<std::array<std::uint32_t, 3>> Out;
  Out.reserve(Hpts.size());
  for (const HptsFact &F : Hpts)
    Out.push_back({F.Base, F.Field, F.Heap});
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<std::array<std::uint32_t, 2>> Results::ciCall() const {
  std::vector<std::array<std::uint32_t, 2>> Out;
  Out.reserve(Call.size());
  for (const CallFact &F : Call)
    Out.push_back({F.Invoke, F.Method});
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<std::uint32_t> Results::ciReach() const {
  std::vector<std::uint32_t> Out;
  Out.reserve(Reach.size());
  for (const ReachFact &F : Reach)
    Out.push_back(F.Method);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

std::vector<std::uint32_t> Results::pointsTo(std::uint32_t Var) const {
  std::vector<std::uint32_t> Out;
  for (const PtsFact &F : Pts)
    if (F.Var == Var)
      Out.push_back(F.Heap);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}
