//===- tests/input_schema_test.cpp - Every input predicate round-trips ----===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
// Every input predicate, one by one, through every path that encodes the
// input facts: the fact-delta language (rm the first row, add it back:
// the fingerprint returns and InputDelta records the predicate's
// incremental role), the facts-directory writer and reader (the layout
// hash survives), and the content hashes themselves (pinned on two
// presets, so a rewrite of the hashing cannot silently change them and
// orphan every existing checkpoint and journal). The predicate list here
// is written out by hand on purpose: it cross-checks the schema table in
// facts/Schema.h rather than reusing it.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "facts/Extract.h"
#include "facts/TsvIO.h"
#include "serve/Delta.h"
#include "workload/Presets.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

using namespace ctp;
using facts::FactDB;
using facts::Id;

namespace {

const FactDB &pmd() {
  static const FactDB DB = facts::extract(workload::generatePreset("pmd"));
  return DB;
}

enum class Role { Narrow, Wide, Client };

/// (added, removed) row counts of a narrow predicate's InputDelta lists.
using Sizes = std::pair<std::size_t, std::size_t>;

/// One predicate row in delta-op form.
struct Case {
  std::string Pred;
  std::string Args; ///< the row's operands; empty when the DB has none
  Role R;
  std::function<Sizes(const analysis::InputDelta &)> Lists; ///< narrow only
  /// implements rows (operands) that must go before the row can, and
  /// come back after it.
  std::vector<std::string> Blockers = {};
};

/// The first row of every input predicate of \p DB (both attachment
/// kinds of the taint predicates), formatted by hand.
std::vector<Case> cases(const FactDB &DB) {
  auto V = [&](Id I) { return DB.VarNames[I]; };
  auto H = [&](Id I) { return DB.HeapNames[I]; };
  auto M = [&](Id I) { return DB.MethodNames[I]; };
  auto I = [&](Id X) { return DB.InvokeNames[X]; };
  auto F = [&](Id X) { return DB.FieldNames[X]; };
  auto T = [&](Id X) { return DB.TypeNames[X]; };
  auto S = [&](Id X) { return DB.SigNames[X]; };
  auto G = [&](Id X) { return DB.GlobalNames[X]; };
  auto N = [](Id X) { return std::to_string(X); };
  auto Cat = [](std::initializer_list<std::string> Parts) {
    std::string Out;
    for (const std::string &P : Parts)
      Out += (Out.empty() ? "" : " ") + P;
    return Out;
  };
  std::vector<Case> C;
  auto Add = [&](const char *Pred, const auto &Rows, Role R, auto Fmt,
                 std::function<Sizes(const analysis::InputDelta &)> L =
                     nullptr) {
    C.push_back({Pred, Rows.empty() ? "" : Fmt(Rows.front()), R, L});
  };
  using D = analysis::InputDelta;
  Add("entry", DB.EntryMethods, Role::Narrow, [&](Id E) { return M(E); },
      [](const D &X) {
        return Sizes{X.AddEntries.size(), X.RmEntries.size()};
      });
  Add("actual", DB.Actuals, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.Var), I(R.Invoke), N(R.Ordinal)}); },
      [](const D &X) {
        return Sizes{X.AddActuals.size(), X.RmActuals.size()};
      });
  Add("assign", DB.Assigns, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.From), V(R.To)}); },
      [](const D &X) {
        return Sizes{X.AddAssigns.size(), X.RmAssigns.size()};
      });
  Add("assign_new", DB.AssignNews, Role::Narrow,
      [&](const auto &R) { return Cat({H(R.Heap), V(R.To), M(R.InMethod)}); },
      [](const D &X) {
        return Sizes{X.AddAssignNews.size(), X.RmAssignNews.size()};
      });
  Add("assign_return", DB.AssignReturns, Role::Narrow,
      [&](const auto &R) { return Cat({I(R.Invoke), V(R.To)}); },
      [](const D &X) {
        return Sizes{X.AddAssignReturns.size(), X.RmAssignReturns.size()};
      });
  Add("formal", DB.Formals, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.Var), M(R.Method), N(R.Ordinal)}); },
      [](const D &X) {
        return Sizes{X.AddFormals.size(), X.RmFormals.size()};
      });
  Add("heap_type", DB.HeapTypes, Role::Wide,
      [&](const auto &R) { return Cat({H(R.Heap), T(R.Type)}); });
  Add("implements", DB.Implements, Role::Wide,
      [&](const auto &R) { return Cat({M(R.Method), T(R.Type), S(R.Sig)}); });
  Add("load", DB.Loads, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.Base), F(R.Field), V(R.To)}); },
      [](const D &X) { return Sizes{X.AddLoads.size(), X.RmLoads.size()}; });
  Add("return", DB.Returns, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.Var), M(R.Method)}); },
      [](const D &X) {
        return Sizes{X.AddReturns.size(), X.RmReturns.size()};
      });
  Add("static_invoke", DB.StaticInvokes, Role::Narrow,
      [&](const auto &R) {
        return Cat({I(R.Invoke), M(R.Target), M(R.InMethod)});
      },
      [](const D &X) {
        return Sizes{X.AddStaticInvokes.size(), X.RmStaticInvokes.size()};
      });
  Add("store", DB.Stores, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.From), F(R.Field), V(R.Base)}); },
      [](const D &X) {
        return Sizes{X.AddStores.size(), X.RmStores.size()};
      });
  Add("this_var", DB.ThisVars, Role::Wide,
      [&](const auto &R) { return Cat({V(R.Var), M(R.Method)}); });
  // rm this_var is refused while an implements row names the method.
  if (!DB.ThisVars.empty())
    for (const auto &Im : DB.Implements)
      if (Im.Method == DB.ThisVars.front().Method)
        C.back().Blockers.push_back(
            Cat({M(Im.Method), T(Im.Type), S(Im.Sig)}));
  Add("virtual_invoke", DB.VirtualInvokes, Role::Narrow,
      [&](const auto &R) {
        return Cat({I(R.Invoke), V(R.Receiver), S(R.Sig)});
      },
      [](const D &X) {
        return Sizes{X.AddVirtualInvokes.size(), X.RmVirtualInvokes.size()};
      });
  Add("global_store", DB.GlobalStores, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.From), G(R.Global)}); },
      [](const D &X) {
        return Sizes{X.AddGlobalStores.size(), X.RmGlobalStores.size()};
      });
  Add("global_load", DB.GlobalLoads, Role::Narrow,
      [&](const auto &R) { return Cat({G(R.Global), V(R.To), M(R.InMethod)}); },
      [](const D &X) {
        return Sizes{X.AddGlobalLoads.size(), X.RmGlobalLoads.size()};
      });
  Add("throw", DB.Throws, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.Var), M(R.Method)}); },
      [](const D &X) {
        return Sizes{X.AddThrows.size(), X.RmThrows.size()};
      });
  Add("catch", DB.Catches, Role::Narrow,
      [&](const auto &R) { return Cat({I(R.Invoke), V(R.To)}); },
      [](const D &X) {
        return Sizes{X.AddCatches.size(), X.RmCatches.size()};
      });
  Add("cast", DB.Casts, Role::Narrow,
      [&](const auto &R) { return Cat({V(R.From), V(R.To), T(R.Type)}); },
      [](const D &X) { return Sizes{X.AddCasts.size(), X.RmCasts.size()}; });
  Add("subtype", DB.Subtypes, Role::Wide,
      [&](const auto &R) { return Cat({T(R.Sub), T(R.Super)}); });
  Add("spawn", DB.Spawns, Role::Client,
      [&](const auto &R) { return I(R.Invoke); });
  // Both attachment kinds of both taint predicates.
  auto Attach = [&](const auto &R) {
    return R.IsField != 0 ? Cat({"field", F(R.Entity)})
                          : Cat({"invoke", I(R.Entity)});
  };
  for (Id Kind : {0u, 1u}) {
    std::vector<facts::TaintSourceFact> Src;
    for (const auto &R : DB.TaintSources)
      if (R.IsField == Kind)
        Src.push_back(R);
    Add("taint_source", Src, Role::Client, Attach);
    std::vector<facts::TaintSinkFact> Sink;
    for (const auto &R : DB.TaintSinks)
      if (R.IsField == Kind)
        Sink.push_back(R);
    Add("taint_sink", Sink, Role::Client, Attach);
  }
  Add("sanitizer", DB.Sanitizers, Role::Client,
      [&](const auto &R) { return I(R.Invoke); });
  return C;
}

TEST(InputSchema, PmdHasARowOfEveryPredicateAndBothTaintKinds) {
  for (const Case &C : cases(pmd()))
    EXPECT_FALSE(C.Args.empty()) << C.Pred;
}

TEST(InputSchema, EveryPredicateRoundTripsThroughTheDeltaLanguage) {
  const std::uint64_t Fp0 = pmd().fingerprint();
  const std::size_t N0 = pmd().numInputFacts();
  for (const Case &C : cases(pmd())) {
    if (C.Args.empty())
      continue;
    SCOPED_TRACE(C.Pred + " " + C.Args);
    FactDB DB = pmd();
    analysis::InputDelta Unblock, D;
    for (const std::string &B : C.Blockers)
      ASSERT_EQ(serve::applyDeltaOp("rm implements " + B, DB, Unblock), "");
    ASSERT_EQ(serve::applyDeltaOp("rm " + C.Pred + " " + C.Args, DB, D), "");
    EXPECT_NE(DB.fingerprint(), Fp0);
    switch (C.R) {
    case Role::Narrow:
      EXPECT_EQ(C.Lists(D), Sizes(0, 1));
      EXPECT_TRUE(D.hasRemovals());
      EXPECT_FALSE(D.hasAdditions());
      break;
    case Role::Wide:
      EXPECT_TRUE(D.WideRemove);
      EXPECT_TRUE(D.hasRemovals());
      EXPECT_FALSE(D.hasAdditions());
      break;
    case Role::Client:
      EXPECT_TRUE(D.ClientFactsChanged);
      EXPECT_FALSE(D.solverVisible());
      break;
    }
    // An exact edit: the same rm again finds nothing, nor does the
    // database change.
    const std::uint64_t FpRm = DB.fingerprint();
    EXPECT_NE(serve::applyDeltaOp("rm " + C.Pred + " " + C.Args, DB, D), "");
    EXPECT_EQ(DB.fingerprint(), FpRm);

    ASSERT_EQ(serve::applyDeltaOp("add " + C.Pred + " " + C.Args, DB, D),
              "");
    for (const std::string &B : C.Blockers)
      ASSERT_EQ(serve::applyDeltaOp("add implements " + B, DB, Unblock), "");
    EXPECT_EQ(DB.fingerprint(), Fp0);
    EXPECT_EQ(DB.numInputFacts(), N0);
    EXPECT_EQ(DB.validate(), "");
    switch (C.R) {
    case Role::Narrow:
      EXPECT_EQ(C.Lists(D), Sizes(1, 1));
      EXPECT_TRUE(D.hasAdditions());
      EXPECT_FALSE(D.WideAdd || D.WideRemove || D.ClientFactsChanged);
      break;
    case Role::Wide:
      EXPECT_TRUE(D.WideAdd);
      EXPECT_FALSE(D.ClientFactsChanged);
      break;
    case Role::Client:
      EXPECT_FALSE(D.solverVisible());
      break;
    }
    EXPECT_NE(serve::applyDeltaOp("add " + C.Pred + " " + C.Args, DB, D), "");
  }
}

TEST(InputSchema, DispatchTargetsKeepTheirThisVar) {
  FactDB DB = pmd();
  ASSERT_FALSE(DB.Implements.empty());
  const Id Target = DB.Implements.front().Method;
  const facts::ThisVarFact *Row = nullptr;
  for (const auto &R : DB.ThisVars)
    if (R.Method == Target)
      Row = &R;
  ASSERT_NE(Row, nullptr);
  const std::string Method = DB.MethodNames[Target];
  const std::string Op = "rm this_var " + DB.VarNames[Row->Var] + " " + Method;
  analysis::InputDelta D;
  EXPECT_EQ(serve::applyDeltaOp(Op, DB, D),
            "method '" + Method +
                "' is a dispatch target (implements row); remove those rows "
                "first");
  EXPECT_FALSE(D.solverVisible());
}

TEST(InputSchema, EveryPredicateRoundTripsThroughTheFactsDirectory) {
  const FactDB &DB = pmd();
  std::string Dir = ::testing::TempDir() + "/ctp_input_schema";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  ASSERT_EQ(facts::writeFactsDir(DB, Dir), "");
  FactDB Back;
  ASSERT_EQ(facts::readFactsDir(Dir, Back), "");
  EXPECT_EQ(Back.numInputFacts(), DB.numInputFacts());
  EXPECT_EQ(Back.layoutHash(), DB.layoutHash());
  EXPECT_EQ(Back.fingerprint(), DB.fingerprint());
  std::filesystem::remove_all(Dir);
}

TEST(InputSchema, HashesArePinned) {
  struct Pin {
    const char *Preset;
    std::uint64_t Fingerprint, Layout;
  };
  for (const Pin &P :
       {Pin{"luindex", 0xb8ee4f896307d671ull, 0x12d8ee86035a4201ull},
        Pin{"pmd", 0xb7cf64156fffa65aull, 0x9f3392c7d4be0794ull}}) {
    FactDB DB = P.Preset == std::string("pmd")
                    ? pmd()
                    : facts::extract(workload::generatePreset(P.Preset));
    EXPECT_EQ(DB.fingerprint(), P.Fingerprint) << P.Preset;
    EXPECT_EQ(DB.layoutHash(), P.Layout) << P.Preset;
  }
}

} // namespace
