//===- clients/RaceCandidates.cpp - Data-race candidate pairs -------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "clients/RaceCandidates.h"

#include "clients/Escape.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

using namespace ctp;
using namespace ctp::clients;

namespace {

/// One field access site: the containing method, whether it writes, and a
/// tie-breaking index (position in the Stores/Loads fact vector).
struct Access {
  facts::Id Method;
  bool IsWrite;
  std::uint32_t Idx;

  bool operator<(const Access &O) const {
    if (Method != O.Method)
      return Method < O.Method;
    if (IsWrite != O.IsWrite)
      return IsWrite; // writes first, so representatives prefer them
    return Idx < O.Idx;
  }
  bool operator==(const Access &O) const {
    return Method == O.Method && IsWrite == O.IsWrite && Idx == O.Idx;
  }
};

} // namespace

RaceSummary clients::findRaceCandidates(const facts::FactDB &DB,
                                        const analysis::Results &R) {
  RaceSummary S;
  if (DB.Spawns.empty())
    return S; // single-threaded program: nothing can race

  // 1. Thread entries: resolved targets of spawn invocations.
  std::set<facts::Id> SpawnInvokes;
  for (const auto &Sp : DB.Spawns)
    SpawnInvokes.insert(Sp.Invoke);
  const auto &Call = R.ciCall(); // sorted (Invoke, Method)
  std::set<facts::Id> Concurrent;
  std::deque<facts::Id> Work;
  for (const auto &Edge : Call)
    if (SpawnInvokes.count(Edge[0]) && Concurrent.insert(Edge[1]).second)
      Work.push_back(Edge[1]);
  S.ThreadEntries = Work.size();

  // 2. Concurrent closure over the call graph: anything callable from a
  // thread entry may execute on that thread.
  std::map<facts::Id, std::vector<facts::Id>> CalleesOf;
  for (const auto &Edge : Call)
    if (Edge[0] < DB.InvokeParent.size())
      CalleesOf[DB.InvokeParent[Edge[0]]].push_back(Edge[1]);
  while (!Work.empty()) {
    facts::Id M = Work.front();
    Work.pop_front();
    auto It = CalleesOf.find(M);
    if (It == CalleesOf.end())
      continue;
    for (facts::Id Callee : It->second)
      if (Concurrent.insert(Callee).second)
        Work.push_back(Callee);
  }
  S.ConcurrentMethods = Concurrent.size();

  // 3. Thread-shared objects, from the escape analysis.
  EscapeInfo Esc = computeEscape(DB, R);

  // 4. Bucket accesses by (field, shared heap) through pts_ci of the
  // base variable. Variables of unreachable methods have empty pts, so
  // dead accesses drop out without an explicit reach check.
  auto ForEachSharedHeap = [&](facts::Id Base, auto &&Fn) {
    for (facts::Id H : R.ptsOf(Base))
      if (H < Esc.ThreadShared.size() && Esc.ThreadShared[H])
        Fn(H);
  };

  std::map<std::pair<facts::Id, facts::Id>, std::vector<Access>> Buckets;
  for (std::uint32_t I = 0; I < DB.Stores.size(); ++I) {
    const auto &St = DB.Stores[I];
    facts::Id M =
        St.Base < DB.VarParent.size() ? DB.VarParent[St.Base] : facts::InvalidId;
    ForEachSharedHeap(St.Base, [&](facts::Id H) {
      Buckets[{St.Field, H}].push_back({M, true, I});
    });
  }
  for (std::uint32_t I = 0; I < DB.Loads.size(); ++I) {
    const auto &Ld = DB.Loads[I];
    facts::Id M =
        Ld.Base < DB.VarParent.size() ? DB.VarParent[Ld.Base] : facts::InvalidId;
    ForEachSharedHeap(Ld.Base, [&](facts::Id H) {
      Buckets[{Ld.Field, H}].push_back({M, false, I});
    });
  }

  // 5. One candidate per bucket holding a (write, other-access) pair with
  // at least one side on a spawned thread. The representative pair is the
  // lexicographically first valid one, so output is deterministic.
  for (auto &[Key, Accs] : Buckets) {
    std::sort(Accs.begin(), Accs.end());
    Accs.erase(std::unique(Accs.begin(), Accs.end()), Accs.end());
    bool Found = false;
    for (std::size_t WI = 0; WI < Accs.size() && !Found; ++WI) {
      if (!Accs[WI].IsWrite)
        continue;
      for (std::size_t AI = 0; AI < Accs.size() && !Found; ++AI) {
        if (AI == WI)
          continue;
        if (!Concurrent.count(Accs[WI].Method) &&
            !Concurrent.count(Accs[AI].Method))
          continue;
        S.Candidates.push_back({Key.first, Key.second, Accs[WI].Method,
                                Accs[AI].Method, Accs[AI].IsWrite});
        Found = true;
      }
    }
  }
  // Buckets iterate in (Field, Heap) order already; keep that order.
  return S;
}

void clients::checkRaces(const facts::FactDB &DB, const analysis::Results &R,
                         const SourceMap &SM, Report &Out) {
  RaceSummary S = findRaceCandidates(DB, R);
  for (const RaceCandidate &C : S.Candidates) {
    const std::string &FieldName = DB.FieldNames[C.Field];
    const std::string &HeapName = DB.HeapNames[C.Heap];
    std::string Msg = "field '" + FieldName + "' of thread-shared object '" +
                      HeapName + "' may race: written in '" +
                      DB.MethodNames[C.WriteMethod] + "', " +
                      (C.OtherIsWrite ? "also written" : "read") + " in '" +
                      DB.MethodNames[C.OtherMethod] + "'";
    Out.add("race.candidate", Severity::Warning, SM.heap(C.Heap), Msg,
            FieldName + "\x1f" + HeapName);
  }
}
