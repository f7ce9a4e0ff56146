//===- clients/Devirtualize.cpp - Call-site devirtualization --------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "clients/Devirtualize.h"

#include <set>

using namespace ctp;
using namespace ctp::clients;

DevirtSummary clients::devirtualize(const facts::FactDB &DB,
                                    const analysis::Results &R) {
  DevirtSummary S;
  std::set<std::uint32_t> VirtualSites;
  for (const auto &F : DB.VirtualInvokes)
    VirtualSites.insert(F.Invoke);
  S.VirtualSites = VirtualSites.size();

  for (std::uint32_t Invoke : VirtualSites) {
    auto Callees = R.calleesOf(Invoke);
    if (Callees.empty())
      continue;
    CallSiteTargets CS;
    CS.Invoke = Invoke;
    CS.Targets.assign(Callees.begin(), Callees.end());
    if (CS.Targets.size() == 1)
      ++S.MonomorphicSites;
    else
      ++S.PolymorphicSites;
    S.PerSite.push_back(std::move(CS));
  }
  S.ReachedSites = S.PerSite.size();
  return S;
}
