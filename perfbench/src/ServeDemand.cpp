//===- perfbench/src/ServeDemand.cpp - Demand-only service queries ----===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A serve::Service whose startup derivation cap is too small for any
/// ladder rung to converge, so it serves in cfl mode and the cfl demand
/// engine answers every query. A pass sweeps a pts query over every
/// variable (in seeded order) plus a fixed seeded set of alias queries,
/// then re-indexes the demand engine after each edit of a two-edit pool
/// and after its revert, and restarts the service. A derivation cap,
/// unlike a deadline, cannot make the mode depend on machine speed.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cfl/Demand.h"
#include "serve/Delta.h"
#include "serve/Service.h"
#include "serve/Wire.h"

#include <memory>

namespace perfbench {

namespace {

struct Answer {
  serve::Response R;
  std::string Rendered;
  double Ms = 0;
  /// Error and overloaded responses are failed operations.
  bool failed() const {
    return R.Status == serve::StatusError ||
           R.Status == serve::StatusOverloaded;
  }
};

/// A closed-loop client that calls serve::Service::answer directly (never
/// serve(), so no socket and no worker threads): each request is timed
/// across parseRequest -> answer -> renderResponse, one at a time.
class Client {
public:
  explicit Client(Report &Rep) : Rep(Rep) {}

  /// Sends "<id>\t<Verb>[\t<Args>]"; the span is "serve.<Verb>".
  Answer ask(serve::Service &Svc, const std::string &Verb,
             const std::vector<std::string> &Args) {
    const std::uint64_t Id = ++Next;
    std::string Line = "q" + std::to_string(Id) + "\t" + Verb;
    for (const std::string &A : Args)
      Line += "\t" + A;
    const std::string SpanName = "serve." + Verb;
    Answer Out;
    ++Rep.Attempted;
    std::int64_t T0 = nowNs();
    {
      Span Sp(SpanName.c_str(), Id);
      serve::Request Q;
      std::string E = serve::parseRequest(Line, Q);
      if (!E.empty()) {
        Out.R.Status = serve::StatusError;
        Out.R.Body = E;
      } else {
        Out.R = Svc.answer(Q);
      }
      Out.Rendered = serve::renderResponse(Out.R);
    }
    Out.Ms = msBetween(T0, nowNs());
    if (Out.failed())
      Rep.fail("request '" + Line + "' answered " + Out.Rendered);
    return Out;
  }

private:
  Report &Rep;
  std::uint64_t Next = 0;
};

/// Constructs and initializes a service inside span \p SpanName; \p Ms
/// receives the wall time. \returns null (and fails the run) on an init
/// error.
std::unique_ptr<serve::Service>
startService(Report &Rep, const serve::ServiceOptions &O,
             const char *SpanName, double &Ms) {
  ++Rep.Attempted;
  std::int64_t T0 = nowNs();
  std::unique_ptr<serve::Service> Svc;
  std::string E;
  {
    Span Sp(SpanName);
    Svc = std::make_unique<serve::Service>(O);
    E = Svc->init();
  }
  Ms = msBetween(T0, nowNs());
  if (!E.empty()) {
    Rep.fail(std::string(SpanName) + ": " + E);
    return nullptr;
  }
  return Svc;
}

/// One set-up: build the bloat facts dir under \p Dir and start a
/// service on it with options \p O; \p Ms receives the wall time of
/// both. The facts keep the generator's row order, and the seed drives
/// the query and edit streams instead. \returns null (and fails the run)
/// on an init error.
std::unique_ptr<serve::Service> setUpService(Report &Rep,
                                             serve::ServiceOptions O,
                                             const std::string &Dir,
                                             std::vector<Input> &Inputs,
                                             double &Ms) {
  double BuildMs = 0;
  Inputs = buildInputs({{"bloat", 1}}, DefaultSeed, Dir, BuildMs);
  O.FactsDir = Inputs[0].FactsDir;
  double InitMs = 0;
  std::unique_ptr<serve::Service> Svc =
      startService(Rep, O, "serve.init", InitMs);
  Ms = BuildMs + InitMs;
  return Svc;
}

/// Startup derivation cap of rung 0; rung k gets it halved k times.
constexpr std::uint64_t StartupCap = 1000;
constexpr std::size_t AliasPerPass = 128;
/// Re-index samples per edit and pass.
constexpr unsigned ReindexRepeats = 16;
/// Restarts per untraced pass; restart_s is their median.
constexpr unsigned RestartsPerPass = 2;

/// A commit, as far as a demand-only engine is concerned: fold the op
/// into a copy of the facts, rebuild the demand index, and answer the
/// edited variable again. \returns the answer's heap set.
std::vector<std::uint32_t> reindex(const facts::FactDB &Base,
                                   const std::string &Op,
                                   std::uint32_t Var, std::size_t Budget,
                                   facts::FactDB &Edited, Report &Rep,
                                   double &Ms) {
  Edited = Base;
  ++Rep.Attempted;
  std::int64_t T0 = nowNs();
  analysis::InputDelta D;
  std::string E;
  {
    Span Sp("serve.apply_delta");
    E = serve::applyDeltaOps({Op}, Edited, D);
  }
  std::unique_ptr<cfl::DemandSolver> Dem;
  {
    Span Sp("cfl.index");
    Dem = std::make_unique<cfl::DemandSolver>(Edited);
  }
  cfl::DemandAnswer Ans;
  {
    Span Sp("cfl.query");
    Ans = Dem->query(Var, Budget);
  }
  Ms = msBetween(T0, nowNs());
  if (!E.empty())
    Rep.fail("edit '" + Op + "': " + E);
  return Ans.Heaps;
}

std::uint32_t varId(const facts::FactDB &DB, const std::string &Name) {
  for (std::size_t V = 0; V < DB.VarNames.size(); ++V)
    if (DB.VarNames[V] == Name)
      return static_cast<std::uint32_t>(V);
  return 0;
}

} // namespace

void serveDemand(const Args &A, Report &Rep) {
  Digests Pinned;
  Pinned.load(A.DigestFile, "serve-demand");
  Tracer &T = Tracer::get();
  EndToEnd E2E;

  serve::ServiceOptions O;
  O.ConfigName = "2-object+H";
  O.StartupBudget.MaxDerivations = StartupCap;
  // Set-up 0's service is the one queried; the others only start.
  std::vector<Input> Inputs;
  std::unique_ptr<serve::Service> Svc;
  SetUps Setups(A, [&](unsigned I) {
    std::vector<Input> Built;
    double Ms = 0;
    std::unique_ptr<serve::Service> S =
        setUpService(Rep, O, A.WorkDir, Built, Ms);
    if (S && S->modeTag() != "cfl")
      Rep.fail("service started in mode " + S->modeTag() + ", not cfl");
    if (I == 0) {
      Svc = std::move(S);
      Inputs = std::move(Built);
    }
    return Ms;
  });
  Setups.upTo(0.0);
  if (!Svc)
    return;
  O.FactsDir = Inputs[0].FactsDir;
  const facts::FactDB &DB = Inputs[0].DB;

  // The traced run answers each pts query a second time on its own demand
  // engine over the same facts, to see the cfl layer under the service.
  std::unique_ptr<cfl::DemandSolver> Replay;
  if (A.Trace) {
    T.On = true;
    Span Sp("cfl.index", 0, /*Replay=*/true);
    Replay = std::make_unique<cfl::DemandSolver>(DB);
  }
  T.On = false;

  std::vector<std::uint32_t> Sweep(DB.numVars());
  for (std::size_t V = 0; V < Sweep.size(); ++V)
    Sweep[V] = static_cast<std::uint32_t>(V);
  shuffle(Sweep, A.Seed, "sweep");
  // The alias pairs are one fixed sample, asked in seeded order: an
  // alias query costs either microseconds or two multi-millisecond
  // queries, so a per-seed sample would move round_s by its mix.
  Rng AliasRng = streamRng(DefaultSeed, "alias");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> AliasPairs;
  for (std::size_t I = 0; I < AliasPerPass; ++I)
    AliasPairs.push_back(
        {static_cast<std::uint32_t>(AliasRng.nextBelow(DB.numVars())),
         static_cast<std::uint32_t>(AliasRng.nextBelow(DB.numVars()))});
  shuffle(AliasPairs, A.Seed, "alias-order");
  std::vector<Edit> Pool = editPool(DB, 2);
  if (Pool.size() != 2)
    Rep.fail("edit pool has " + std::to_string(Pool.size()) + " edits");
  shuffle(Pool, A.Seed, "edit-order");

  Client C(Rep);
  const std::size_t Budget = O.CflBudget;
  OpLatency QueryLat;
  std::uint64_t StreamDigest = FnvBasis;
  std::uint64_t Queries = 0, Exhausted = 0;

  PassLoop Loop;
  Loop.run(A, Setups, [&](int P) {
    std::int64_t PassStart = nowNs();
    std::int64_t UntimedNs = 0;
    std::size_t NextQuery = 0;
    std::uint64_t PassExhausted = 0, Steps = 0, Relevant = 0;
    auto Record = [&](const Answer &An) {
      QueryLat.add(NextQuery++, An.Ms);
      ++Queries;
      if (P == 0)
        StreamDigest = fnvAppend(StreamDigest, An.Rendered + "\n");
      if (An.R.Mode == "cfl-exhausted")
        ++PassExhausted;
      else if (An.R.Mode != "cfl")
        Rep.fail("query answered in mode " + An.R.Mode + ", not cfl");
    };
    for (std::uint32_t V : Sweep) {
      Record(C.ask(*Svc, "pts", {DB.VarNames[V]}));
      if (T.On) {
        Span Sp("cfl.query", 0, /*Replay=*/true);
        cfl::DemandAnswer Ans = Replay->query(V, Budget);
        Steps += Ans.Steps;
        Relevant += Ans.RelevantVars;
      }
    }
    for (const auto &[V1, V2] : AliasPairs)
      Record(C.ask(*Svc, "alias", {DB.VarNames[V1], DB.VarNames[V2]}));
    Exhausted += PassExhausted;
    Rep.count("pass.exhausted", PassExhausted);
    if (T.On) {
      Rep.count("pass.cfl_steps", Steps);
      Rep.count("pass.cfl_relevant_vars", Relevant);
      Rep.metric("cfl.steps", static_cast<double>(Steps), "count");
      Rep.metric("cfl.relevant_vars", static_cast<double>(Relevant), "count");
    }

    for (const Edit &E : Pool) {
      const std::uint32_t To =
          varId(DB, E.Add.substr(E.Add.rfind(' ') + 1));
      for (unsigned R = 0; R < ReindexRepeats; ++R) {
        facts::FactDB Added, Reverted;
        double Ms = 0;
        reindex(DB, E.Add, To, Budget, Added, Rep, Ms);
        E2E.AddMs.push_back(Ms);
        std::vector<std::uint32_t> After =
            reindex(Added, E.Rm, To, Budget, Reverted, Rep, Ms);
        E2E.RmMs.push_back(Ms);
        std::int64_t C0 = nowNs();
        if (R == 0 && P == 0 &&
            After != cfl::DemandSolver(DB).query(To, Budget).Heaps)
          Rep.fail("pts of the edited variable changed across '" + E.Add +
                   "' and its revert");
        UntimedNs += nowNs() - C0;
      }
    }

    // A restarted demand-only service descends the capped ladder into cfl
    // mode again. It runs without a state directory: nothing it could
    // keep would let it warm-start, and the snapshot fsyncs of its capped
    // rungs would make restart_s a disk-latency figure. A few restarts run
    // after every untraced pass, outside the pass time, so that restart_s
    // samples the whole run rather than one moment of it.
    std::int64_t R0 = nowNs();
    for (unsigned I = 0; I < RestartsPerPass && !T.On; ++I) {
      double Ms = 0;
      std::unique_ptr<serve::Service> Again =
          startService(Rep, O, "serve.restart", Ms);
      if (!Again)
        break;
      E2E.RestartMs.push_back(Ms);
      if (Again->modeTag() != "cfl")
        Rep.fail("restart served mode " + Again->modeTag() + ", not cfl");
    }
    UntimedNs += nowNs() - R0;
    return msBetween(PassStart, nowNs()) - static_cast<double>(UntimedNs) / 1e6;
  });
  if (A.Seed == DefaultSeed || A.PrintDigests)
    Rep.checkDigest(Pinned, "stream-seed" + std::to_string(A.Seed),
                    StreamDigest, A.PrintDigests);

  // Percentiles are over the pts sweep, the same variable set at every
  // seed. Demand latencies are tri-modal (tens of microseconds, a few
  // tenths of a millisecond, several milliseconds) and the median falls
  // in the middle mode, which is why query_p50_ms is a per-layer metric.
  E2E.SetupMs = Setups.ms();
  E2E.OpMs = QueryLat.perOp();
  E2E.QueryMs.assign(E2E.OpMs.begin(), E2E.OpMs.begin() + Sweep.size());
  E2E.report(Rep, Loop);
  if (!A.Trace)
    return;
  setupMetrics(Rep, Inputs, E2E.SetupMs.size());
  for (const char *Verb : {"pts", "alias"})
    Rep.metric(std::string("serve.") + Verb + "_p50_ms",
               median(T.durationsMs(std::string("serve.") + Verb)), "ms");
  double CflMs = 0;
  for (const SpanRec &S : T.spans())
    if (S.Pass >= 0 && S.Name == "cfl.query" && S.Replay)
      CflMs += S.ms();
  Rep.metric("cfl.query_ms", CflMs / std::max(1, Loop.tracedPasses()), "ms");
  Rep.metric("cfl.exhausted_ratio",
             Queries ? static_cast<double>(Exhausted) / Queries : 0.0,
             "ratio");
  traceMetrics(Rep, Loop, E2E.SetupMs.size());
}

} // namespace perfbench
