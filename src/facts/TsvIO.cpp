//===- facts/TsvIO.cpp - Doop-style facts directory I/O -------------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "facts/TsvIO.h"

#include "facts/Schema.h"
#include "support/Tsv.h"

#include <unordered_map>
#include <unordered_set>

using namespace ctp;
using namespace ctp::facts;

namespace {

using Rows = std::vector<std::vector<std::string>>;

/// Maps entity names back to ids when reading. Names are unique per domain
/// by construction of the extractor and the workload generator.
class NameMap {
public:
  explicit NameMap(const std::vector<std::string> &Names) {
    for (std::size_t I = 0; I < Names.size(); ++I)
      Ids.emplace(Names[I], static_cast<Id>(I));
  }

  /// \returns InvalidId when the name is unknown.
  Id lookup(const std::string &Name) const {
    auto It = Ids.find(Name);
    return It == Ids.end() ? InvalidId : It->second;
  }

private:
  std::unordered_map<std::string, Id> Ids;
};

std::string writeDomain(const std::string &Dir, const std::string &File,
                        const std::vector<std::string> &Names) {
  Rows R;
  R.reserve(Names.size());
  for (const std::string &N : Names)
    R.push_back({N});
  if (!writeTsvFile(Dir + "/" + File, R))
    return "cannot write " + File;
  return "";
}

std::string location(const std::string &File, unsigned LineNo) {
  return File + ":" + std::to_string(LineNo);
}

/// Shared malformed-line policy: strict reads fail on the first bad line,
/// lenient reads count and skip it.
class ErrorSink {
public:
  ErrorSink(bool Lenient, FactsReadReport *Report)
      : Lenient(Lenient), Report(Report) {}

  /// Reports a malformed line. \returns true when the read should abort
  /// (strict mode); lenient mode records the warning and continues.
  bool malformed(const std::string &Diag) {
    if (!Lenient) {
      if (Err.empty())
        Err = Diag;
      return true;
    }
    if (Report) {
      ++Report->SkippedLines;
      Report->Warnings.push_back(Diag);
    }
    return false;
  }

  /// Unconditional failure (I/O errors abort even lenient reads).
  void fail(const std::string &Diag) {
    if (Err.empty())
      Err = Diag;
  }

  bool failed() const { return !Err.empty(); }
  const std::string &error() const { return Err; }

private:
  bool Lenient;
  FactsReadReport *Report;
  std::string Err;
};

/// Funnels raw-line rejections (NUL bytes, over-long lines) into the
/// shared malformed-line policy with the usual "File:LINE: reason"
/// shape. \returns true when the read should abort (strict mode).
bool reportRejects(const std::string &File,
                   const std::vector<TsvReject> &Rejects,
                   ErrorSink &Sink) {
  for (const TsvReject &Rej : Rejects)
    if (Sink.malformed(location(File, Rej.LineNo) + ": " + Rej.Reason))
      return true;
  return false;
}

void readDomain(const std::string &Dir, const std::string &File,
                std::vector<std::string> &Names, ErrorSink &Sink) {
  if (Sink.failed())
    return;
  std::vector<TsvLine> R;
  std::vector<TsvReject> Rejects;
  if (!readTsvLines(Dir + "/" + File, R, &Rejects)) {
    Sink.fail("cannot read " + File);
    return;
  }
  if (reportRejects(File, Rejects, Sink))
    return;
  Names.clear();
  std::unordered_set<std::string> Seen;
  for (auto &Row : R) {
    if (Row.Fields.size() != 1) {
      if (Sink.malformed(location(File, Row.LineNo) +
                         ": expected 1 field, got " +
                         std::to_string(Row.Fields.size())))
        return;
      continue;
    }
    if (!Seen.insert(Row.Fields[0]).second) {
      if (Sink.malformed(location(File, Row.LineNo) +
                         ": duplicate domain entry '" + Row.Fields[0] +
                         "'"))
        return;
      continue;
    }
    Names.push_back(std::move(Row.Fields[0]));
  }
}

} // namespace

std::string facts::writeFactsDir(const FactDB &DB, const std::string &Dir) {
  std::string Err;
  auto Check = [&](const std::string &E) {
    if (Err.empty())
      Err = E;
  };

  for (const DomainDesc &D : Domains)
    Check(writeDomain(Dir, "Domain." + std::string(D.Tag), DB.*D.Names));
  if (!Err.empty())
    return Err;

  auto W = [&](const std::string &File, const Rows &R) {
    if (!writeTsvFile(Dir + "/" + File, R))
      Check("cannot write " + File);
  };

  Rows R;
  for (Id E : DB.EntryMethods)
    R.push_back({DB.MethodNames[E]});
  W("Entry.facts", R);

  forEachInput([&](auto Tr) {
    using T = decltype(Tr);
    R.clear();
    for (const auto &F : T::in(DB)) {
      std::vector<std::string> &Row = R.emplace_back();
      encodeRow<T>(DB, F,
                   [&Row](std::string S) { Row.push_back(std::move(S)); });
    }
    W(T::File, R);
  });

  auto Parents = [&](const std::string &File, Col Child, Col Parent,
                     const std::vector<Id> &Table) {
    const auto &C = DB.*domainOf(Child, 0).Names,
               &P = DB.*domainOf(Parent, 0).Names;
    R.clear();
    for (std::size_t X = 0; X < Table.size(); ++X)
      R.push_back({C[X], P[Table[X]]});
    W(File, R);
  };
  Parents("VarParent.facts", Col::Var, Col::Method, DB.VarParent);
  Parents("HeapParent.facts", Col::Heap, Col::Method, DB.HeapParent);
  Parents("InvokeParent.facts", Col::Invoke, Col::Method, DB.InvokeParent);
  Parents("MethodClass.facts", Col::Method, Col::Type, DB.MethodClass);

  return Err;
}

std::string facts::readFactsDir(const std::string &Dir, FactDB &DB) {
  return readFactsDir(Dir, DB, FactsReadOptions(), nullptr);
}

std::string facts::readFactsDir(const std::string &Dir, FactDB &DB,
                                const FactsReadOptions &Opts,
                                FactsReadReport *Report) {
  DB = FactDB();
  ErrorSink Sink(Opts.Lenient, Report);

  for (const DomainDesc &D : Domains)
    readDomain(Dir, "Domain." + std::string(D.Tag), DB.*D.Names, Sink);
  if (Sink.failed())
    return Sink.error();

  std::vector<NameMap> Maps;
  for (const DomainDesc &D : Domains)
    Maps.emplace_back(DB.*D.Names);
  auto Resolve = [&Maps](const DomainDesc &D, const std::string &Name) {
    return Maps[static_cast<std::size_t>(&D - Domains)].lookup(Name);
  };

  /// Reads \p File row by row through \p Handler. A missing \p Optional
  /// file reads as empty.
  auto Read = [&](const std::string &File, std::size_t Arity, bool Optional,
                  auto &&Handler) {
    if (Sink.failed())
      return;
    std::vector<TsvLine> R;
    std::vector<TsvReject> Rejects;
    if (!readTsvLines(Dir + "/" + File, R, &Rejects)) {
      if (!Optional)
        Sink.fail("cannot read " + File);
      return;
    }
    if (reportRejects(File, Rejects, Sink))
      return;
    for (auto &Row : R) {
      if (Row.Fields.size() != Arity) {
        if (Sink.malformed(location(File, Row.LineNo) + ": expected " +
                           std::to_string(Arity) + " fields, got " +
                           std::to_string(Row.Fields.size())))
          return;
        continue;
      }
      if (!Handler(Row.Fields)) {
        if (Sink.malformed(location(File, Row.LineNo) +
                           ": unknown entity name or malformed ordinal "
                           "in '" +
                           joinTsvLine(Row.Fields) + "'"))
          return;
        continue;
      }
    }
  };

  auto Ok = [](Id X) { return X != InvalidId; };

  Read("Entry.facts", 1, false, [&](const std::vector<std::string> &Row) {
    Id M = Resolve(domainOf(Col::Method, 0), Row[0]);
    if (!Ok(M))
      return false;
    DB.EntryMethods.push_back(M);
    return true;
  });

  forEachInput([&](auto Tr) {
    using T = decltype(Tr);
    Read(T::File, std::size(T::Cols), T::Optional,
         [&](const std::vector<std::string> &Row) {
           typename T::Fact F;
           if (!decodeRow<T>(Row.data(), Resolve, F).empty())
             return false;
           T::in(DB).push_back(F);
           return true;
         });
  });

  // One row per entity of the Child domain, naming its Parent entity.
  auto Parents = [&](const std::string &File, Col Child, Col Parent,
                     std::vector<Id> &Table) {
    const DomainDesc &C = domainOf(Child, 0), &P = domainOf(Parent, 0);
    Table.assign((DB.*C.Names).size(), InvalidId);
    Read(File, 2, false, [&](const std::vector<std::string> &Row) {
      Id X = Resolve(C, Row[0]), Y = Resolve(P, Row[1]);
      if (!Ok(X) || !Ok(Y))
        return false;
      Table[X] = Y;
      return true;
    });
  };
  Parents("VarParent.facts", Col::Var, Col::Method, DB.VarParent);
  Parents("HeapParent.facts", Col::Heap, Col::Method, DB.HeapParent);
  Parents("InvokeParent.facts", Col::Invoke, Col::Method, DB.InvokeParent);
  Parents("MethodClass.facts", Col::Method, Col::Type, DB.MethodClass);

  if (Sink.failed())
    return Sink.error();
  return DB.validate();
}
