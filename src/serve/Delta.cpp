//===- serve/Delta.cpp - Fact-delta language implementation ---------------===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//

#include "serve/Delta.h"

#include "facts/Schema.h"

using namespace ctp;
using namespace ctp::serve;
using facts::FactDB;
using facts::Id;

namespace {

std::vector<std::string> tokenize(const std::string &Line, std::string &Err) {
  std::vector<std::string> Toks;
  std::size_t I = 0;
  while (I < Line.size()) {
    std::size_t J = Line.find(' ', I);
    if (J == std::string::npos)
      J = Line.size();
    if (J == I) {
      Err = "empty token (doubled or leading space)";
      return {};
    }
    Toks.push_back(Line.substr(I, J - I));
    I = J + 1;
  }
  if (!Line.empty() && Line.back() == ' ')
    Err = "trailing space";
  if (Toks.empty() && Err.empty())
    Err = "empty op";
  return Toks;
}

Id findName(const std::vector<std::string> &Names, const std::string &Name) {
  for (std::size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return static_cast<Id>(I);
  return facts::InvalidId;
}

std::string resolve(const std::vector<std::string> &Names,
                    const std::string &Name, const char *Kind, Id &Out) {
  Out = findName(Names, Name);
  if (Out == facts::InvalidId)
    return std::string("unknown ") + Kind + " '" + Name + "'";
  return {};
}

template <typename T, typename Eq>
std::string addRow(std::vector<T> &Rows, const T &Row, Eq Same,
                   const char *Pred) {
  for (const T &R : Rows)
    if (Same(R, Row))
      return std::string("duplicate ") + Pred + " row";
  Rows.push_back(Row);
  return {};
}

template <typename T, typename Eq>
std::string rmRow(std::vector<T> &Rows, const T &Row, Eq Same,
                  const char *Pred) {
  for (auto It = Rows.begin(); It != Rows.end(); ++It)
    if (Same(*It, Row)) {
      Rows.erase(It); // In place: the remaining rows keep their order,
      return {};      // exactly like a hand edit of the TSV file.
    }
  return std::string("no such ") + Pred + " row";
}

std::string applyEntity(const std::vector<std::string> &T, FactDB &DB) {
  if (T.size() < 4)
    return "usage: add entity <kind> <name> [<parent>]";
  const std::string &Kind = T[2], &Name = T[3];
  const facts::DomainDesc *Dom = nullptr;
  for (const facts::DomainDesc &D : facts::Domains)
    if (Kind == D.Tag)
      Dom = &D;
  auto Is = [Dom](facts::Col C) { return Dom == &facts::domainOf(C, 0); };
  // var, heap and invoke entities name their parent method, a method its
  // class type; the parent tables grow in step with the name tables.
  std::vector<Id> *Parent = Is(facts::Col::Var)      ? &DB.VarParent
                            : Is(facts::Col::Heap)   ? &DB.HeapParent
                            : Is(facts::Col::Invoke) ? &DB.InvokeParent
                            : Is(facts::Col::Method) ? &DB.MethodClass
                                                     : nullptr;
  const bool IsMethod = Parent == &DB.MethodClass;
  Id ParentId = facts::InvalidId;
  if (Parent) {
    if (T.size() != 5)
      return "usage: add entity " + Kind +
             (IsMethod ? " <name> <class-type>" : " <name> <parent-method>");
    if (auto E = IsMethod ? resolve(DB.TypeNames, T[4], "type", ParentId)
                          : resolve(DB.MethodNames, T[4], "method", ParentId);
        !E.empty())
      return E;
  } else if (T.size() != 4) {
    return "usage: add entity " + Kind + " <name>";
  }
  if (!Dom)
    return "unknown entity kind '" + Kind + "' (var, heap, invoke, method, "
           "field, type, sig, global)";
  std::vector<std::string> &Names = DB.*Dom->Names;
  if (findName(Names, Name) != facts::InvalidId)
    return std::string(Dom->Noun) + " '" + Name + "' already exists";
  Names.push_back(Name);
  if (Parent)
    Parent->push_back(ParentId);
  return {};
}

/// The cross-predicate rule the solver relies on: a dispatch target (a
/// method named by an implements row) has a this_var row, since virtual
/// dispatch flows the receiver into it. Rows of other predicates pass.
template <class Fact>
std::string crossCheck(const FactDB &, const Fact &, bool,
                       const std::vector<std::string> &) {
  return {};
}

std::string crossCheck(const FactDB &DB, const facts::ImplementsFact &F,
                       bool Add, const std::vector<std::string> &T) {
  if (Add) {
    for (const auto &TV : DB.ThisVars)
      if (TV.Method == F.Method)
        return {};
    return "method '" + T[2] + "' has no this_var row (add one before "
           "making it a dispatch target)";
  }
  return {};
}

std::string crossCheck(const FactDB &DB, const facts::ThisVarFact &F,
                       bool Add, const std::vector<std::string> &T) {
  if (!Add)
    for (const auto &Im : DB.Implements)
      if (Im.Method == F.Method)
        return "method '" + T[3] + "' is a dispatch target (implements "
               "row); remove those rows first";
  return {};
}

/// Applies `add|rm <T::Name> <columns...>` (tokens \p T) to \p DB and
/// records it in \p D by the predicate's role.
template <class Tr>
std::string applyRow(const std::vector<std::string> &T, bool Add, FactDB &DB,
                     analysis::InputDelta &D) {
  using Fact = typename Tr::Fact;
  const std::size_t Arity = std::size(Tr::Cols);
  if (T.size() != Arity + 2)
    return T[1] + " takes " + std::to_string(Arity) + " argument(s), got " +
           std::to_string(T.size() - 2);
  Fact F{};
  auto Resolve = [&DB](const facts::DomainDesc &Dom, const std::string &N) {
    return findName(DB.*Dom.Names, N);
  };
  if (auto E = facts::decodeRow<Tr>(&T[2], Resolve, F); !E.empty())
    return E;
  if (auto E = crossCheck(DB, F, Add, T); !E.empty())
    return E;
  auto Same = [](const Fact &A, const Fact &B) {
    for (const auto &C : Tr::Cols)
      if (A.*C.Member != B.*C.Member)
        return false;
    return true;
  };
  if (auto E = Add ? addRow(Tr::in(DB), F, Same, Tr::Name)
                   : rmRow(Tr::in(DB), F, Same, Tr::Name);
      !E.empty())
    return E;
  if constexpr (Tr::Role == facts::DeltaRole::Narrow)
    D.edits<Fact>(Add).push_back(F);
  else if constexpr (Tr::Role == facts::DeltaRole::Wide)
    (Add ? D.WideAdd : D.WideRemove) = true;
  else
    D.ClientFactsChanged = true;
  return {};
}

} // namespace

std::string serve::applyDeltaOp(const std::string &Line, FactDB &DB,
                                analysis::InputDelta &D) {
  std::string Err;
  std::vector<std::string> T = tokenize(Line, Err);
  if (!Err.empty())
    return Err;
  const bool Add = T[0] == "add";
  if (!Add && T[0] != "rm")
    return "op must start with add or rm, got '" + T[0] + "'";
  if (T.size() < 2)
    return "missing predicate after " + T[0];
  const std::string &Pred = T[1];

  if (Pred == "entity") {
    if (!Add)
      return "rm entity is not supported: entity ids are append-only so "
             "every transaction keeps prior ids stable";
    return applyEntity(T, DB);
  }

  if (Pred == "entry") {
    if (T.size() != 3)
      return "entry takes 1 argument(s), got " + std::to_string(T.size() - 2);
    Id M;
    if (auto E = resolve(DB.MethodNames, T[2], "method", M); !E.empty())
      return E;
    auto Same = [](Id A, Id B) { return A == B; };
    if (auto E = Add ? addRow(DB.EntryMethods, M, Same, "entry")
                     : rmRow(DB.EntryMethods, M, Same, "entry");
        !E.empty())
      return E;
    (Add ? D.AddEntries : D.RmEntries).push_back(M);
    return {};
  }

  bool Known = false;
  facts::forEachInput([&](auto Tr) {
    if (!Known && Pred == Tr.Name) {
      Known = true;
      Err = applyRow<decltype(Tr)>(T, Add, DB, D);
    }
  });
  if (!Known)
    return "unknown predicate '" + Pred + "'";
  return Err;
}

std::string serve::applyDeltaOps(const std::vector<std::string> &Lines,
                                 FactDB &DB, analysis::InputDelta &D) {
  for (std::size_t I = 0; I < Lines.size(); ++I)
    if (std::string E = applyDeltaOp(Lines[I], DB, D); !E.empty())
      return "op " + std::to_string(I + 1) + ": " + E;
  return {};
}
