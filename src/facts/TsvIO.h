//===- facts/TsvIO.h - Doop-style facts directory I/O -----------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a FactDB to a directory of Doop-style tab-separated ".facts"
/// files (one file per predicate, one fact per line, entity names as
/// attributes) and reads such a directory back. This matches the exchange
/// format of the paper's pipeline, where a Soot-based generator writes
/// facts to disk and the Datalog engine reads them.
///
/// Files written: Domain.<tag> for each entity domain (var, heap, method,
/// invoke, field, type, sig, global), Entry.facts, one file per input
/// predicate as named in facts/Schema.h (ordinals in decimal; taint rows
/// "invoke\t<name>" or "field\t<name>"), and VarParent.facts,
/// HeapParent.facts, InvokeParent.facts, MethodClass.facts. The files of
/// the client annotations (Spawn, TaintSource, TaintSink, Sanitizer) are
/// optional on read: directories from before the schema gained them load
/// without those annotations.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_FACTS_TSVIO_H
#define CTP_FACTS_TSVIO_H

#include "facts/FactDB.h"

#include <string>
#include <vector>

namespace ctp {
namespace facts {

/// Writes \p DB into directory \p Dir (which must already exist).
/// \returns an empty string on success, else an error description.
std::string writeFactsDir(const FactDB &DB, const std::string &Dir);

/// How readFactsDir treats malformed input.
struct FactsReadOptions {
  /// Strict (default): the first malformed line aborts the read with a
  /// "File:LINE: ..." diagnostic. Lenient: malformed lines (wrong arity,
  /// unknown entity names, bad ordinals, duplicate domain entries,
  /// embedded NUL bytes, lines over MaxTsvLineBytes) are skipped and
  /// counted instead; only I/O failures abort.
  bool Lenient = false;
};

/// What a (lenient) read skipped.
struct FactsReadReport {
  /// Lines dropped in lenient mode.
  std::size_t SkippedLines = 0;
  /// One "File:LINE: reason" entry per skipped line.
  std::vector<std::string> Warnings;
};

/// Reads a facts directory previously written by writeFactsDir (or by any
/// producer following the same schema) into \p DB.
/// \returns an empty string on success, else an error description. Every
/// malformed-input diagnostic carries the file name, 1-based line number,
/// and — for arity errors — the expected and actual field counts.
std::string readFactsDir(const std::string &Dir, FactDB &DB);

/// As above with explicit \p Opts; \p Report (may be null) receives the
/// skip counts accumulated in lenient mode.
std::string readFactsDir(const std::string &Dir, FactDB &DB,
                         const FactsReadOptions &Opts,
                         FactsReadReport *Report = nullptr);

} // namespace facts
} // namespace ctp

#endif // CTP_FACTS_TSVIO_H
