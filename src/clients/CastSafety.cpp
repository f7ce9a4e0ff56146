//===- clients/CastSafety.cpp - Downcast safety proofs --------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "clients/CastSafety.h"

#include <set>

using namespace ctp;
using namespace ctp::clients;

CastSummary clients::checkCasts(const facts::FactDB &DB,
                                const analysis::Results &R) {
  CastSummary S;

  // heap -> run-time type, and the materialized subtype relation.
  std::vector<facts::Id> TypeOf(DB.numHeaps(), facts::InvalidId);
  for (const auto &HT : DB.HeapTypes)
    if (HT.Heap < TypeOf.size())
      TypeOf[HT.Heap] = HT.Type;
  std::set<std::pair<facts::Id, facts::Id>> Subtype;
  for (const auto &Sub : DB.Subtypes)
    Subtype.emplace(Sub.Sub, Sub.Super);

  for (std::uint32_t CI = 0; CI < DB.Casts.size(); ++CI) {
    const auto &C = DB.Casts[CI];
    CastResult Res;
    Res.CastIndex = CI;
    Res.WitnessHeap = facts::InvalidId;
    for (facts::Id H : R.ptsOf(C.From)) {
      ++Res.NumPointees;
      facts::Id T = H < TypeOf.size() ? TypeOf[H] : facts::InvalidId;
      if (T == facts::InvalidId || !Subtype.count({T, C.Type})) {
        ++Res.NumIllTyped;
        if (Res.WitnessHeap == facts::InvalidId)
          Res.WitnessHeap = H; // pts is sorted: first hit is the smallest
      }
    }
    if (Res.NumPointees == 0) {
      Res.Verdict = CastVerdict::Unreachable;
      ++S.Unreachable;
    } else if (Res.NumIllTyped > 0) {
      Res.Verdict = CastVerdict::Unsafe;
      ++S.Unsafe;
    } else {
      Res.Verdict = CastVerdict::Safe;
      ++S.Safe;
    }
    S.PerCast.push_back(Res);
  }
  return S;
}

void clients::checkCastSafety(const facts::FactDB &DB,
                              const analysis::Results &R, const SourceMap &SM,
                              Report &Out) {
  CastSummary S = checkCasts(DB, R);
  for (const CastResult &Res : S.PerCast) {
    const auto &C = DB.Casts[Res.CastIndex];
    const std::string &FromName = DB.VarNames[C.From];
    const std::string &ToName = DB.VarNames[C.To];
    const std::string &TypeName = DB.TypeNames[C.Type];
    // Anchor at the method declaring the destination variable.
    facts::Id M =
        C.To < DB.VarParent.size() ? DB.VarParent[C.To] : facts::InvalidId;
    Location Loc = SM.method(M);
    std::string StableKey = FromName + "\x1f" + ToName + "\x1f" + TypeName;
    switch (Res.Verdict) {
    case CastVerdict::Safe:
      break; // proven safe: nothing to report
    case CastVerdict::Unsafe:
      Out.add("cast.unsafe", Severity::Warning, Loc,
              "cast of '" + FromName + "' to " + TypeName + " may fail: " +
                  std::to_string(Res.NumIllTyped) + " of " +
                  std::to_string(Res.NumPointees) +
                  " pointed-to objects are not subtypes (e.g. '" +
                  DB.HeapNames[Res.WitnessHeap] + "')",
              StableKey);
      break;
    case CastVerdict::Unreachable:
      Out.add("cast.unreachable", Severity::Note, Loc,
              "cast of '" + FromName + "' to " + TypeName +
                  " never executes: no objects flow into it",
              StableKey);
      break;
    }
  }
}
