//===- clients/Escape.cpp - Field-sensitive escape analysis ---------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "clients/Escape.h"

#include <deque>
#include <set>

using namespace ctp;
using namespace ctp::clients;

namespace {

/// Adds \p Bits to heap \p H's mask and enqueues it if anything changed.
void mark(std::vector<std::uint8_t> &Mask, std::deque<facts::Id> &Work,
          facts::Id H, std::uint8_t Bits) {
  if (H >= Mask.size())
    return;
  std::uint8_t Old = Mask[H];
  if ((Old | Bits) == Old)
    return;
  Mask[H] = static_cast<std::uint8_t>(Old | Bits);
  Work.push_back(H);
}

} // namespace

EscapeInfo clients::computeEscape(const facts::FactDB &DB,
                                  const analysis::Results &R) {
  EscapeInfo Info;
  const std::size_t NH = DB.numHeaps();
  Info.Mask.assign(NH, NoEscape);
  Info.ThreadShared.assign(NH, false);
  Info.HasSpawns = !DB.Spawns.empty();

  // Context-insensitive inputs only (the monotonicity argument rests on
  // this): pts_ci for variable contents, hpts_ci for the heap graph, Gpts
  // for statics.
  std::deque<facts::Id> Work;

  // Seed 1: statics. Everything a global points to escapes globally.
  std::set<facts::Id> GlobalHeaps;
  for (const auto &G : R.Gpts)
    GlobalHeaps.insert(G.Heap);
  for (facts::Id H : GlobalHeaps)
    mark(Info.Mask, Work, H, GlobalEscape);

  // Seed 2: returns out of the allocating method. return(Z, P) with
  // pts_ci(Z, H) and parent(H) == P means P hands its own allocation
  // upward.
  for (const auto &F : DB.Returns)
    for (facts::Id H : R.ptsOf(F.Var))
      if (H < DB.HeapParent.size() && DB.HeapParent[H] == F.Method)
        mark(Info.Mask, Work, H, ReturnEscape);

  // Seed 3: thread boundaries. Objects passed as actuals of a spawn — or
  // serving as its receiver, i.e. the worker object itself — cross onto
  // the new thread.
  std::set<facts::Id> SpawnInvokes;
  for (const auto &S : DB.Spawns)
    SpawnInvokes.insert(S.Invoke);
  if (!SpawnInvokes.empty()) {
    for (const auto &A : DB.Actuals)
      if (SpawnInvokes.count(A.Invoke))
        for (facts::Id H : R.ptsOf(A.Var))
          mark(Info.Mask, Work, H, ThreadEscape);
    for (const auto &V : DB.VirtualInvokes)
      if (SpawnInvokes.count(V.Invoke))
        for (facts::Id H : R.ptsOf(V.Receiver))
          mark(Info.Mask, Work, H, ThreadEscape);
  }

  // Closure over the heap graph: whatever an escaping object's fields
  // point to escapes the same way.
  while (!Work.empty()) {
    facts::Id H = Work.front();
    Work.pop_front();
    std::uint8_t Bits = Info.Mask[H];
    for (const auto &Row : R.hptsOf(H))
      mark(Info.Mask, Work, Row[2], Bits);
  }

  // Thread-shared: thread-escaping heaps always; global-escaping heaps
  // too once any thread exists (a static is readable from every thread).
  // Both sets are already field-closed by the loop above.
  for (facts::Id H = 0; H < NH; ++H)
    Info.ThreadShared[H] = (Info.Mask[H] & ThreadEscape) ||
                           (Info.HasSpawns && (Info.Mask[H] & GlobalEscape));
  return Info;
}

void clients::checkEscape(const facts::FactDB &DB, const analysis::Results &R,
                          const SourceMap &SM, Report &Out) {
  EscapeInfo Info = computeEscape(DB, R);
  for (facts::Id H = 0; H < Info.Mask.size(); ++H) {
    std::uint8_t M = Info.Mask[H];
    if (M == NoEscape)
      continue;
    const std::string &Name = DB.HeapNames[H];
    Location Loc = SM.heap(H);
    if (M & GlobalEscape)
      Out.add("escape.global", Severity::Warning, Loc,
              "object '" + Name + "' escapes through a static field", Name);
    if (M & ThreadEscape)
      Out.add("escape.thread", Severity::Warning, Loc,
              "object '" + Name + "' escapes into a spawned thread", Name);
    if (M & ReturnEscape)
      Out.add("escape.return", Severity::Note, Loc,
              "object '" + Name + "' is returned out of its allocating method",
              Name);
  }
}
