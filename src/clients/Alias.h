//===- clients/Alias.h - May-alias queries ----------------------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// May-alias client: two variables may alias iff their (context-
/// insensitive projections of) points-to sets intersect. The paper's
/// Section 2 motivates heap contexts with exactly such a query ("the
/// analysis would imprecisely conclude that the heap accesses a.f and b.f
/// are aliased").
///
//===----------------------------------------------------------------------===//

#ifndef CTP_CLIENTS_ALIAS_H
#define CTP_CLIENTS_ALIAS_H

#include "analysis/Results.h"

#include <cstdint>
#include <vector>

namespace ctp {
namespace clients {

/// True iff \p V1 and \p V2 may point to a common heap object.
bool mayAlias(const analysis::Results &R, std::uint32_t V1, std::uint32_t V2);

/// Number of may-aliasing unordered pairs among \p Vars; a standard
/// precision metric (smaller = more precise, for a sound analysis).
std::size_t countAliasPairs(const analysis::Results &R,
                            const std::vector<std::uint32_t> &Vars);

} // namespace clients
} // namespace ctp

#endif // CTP_CLIENTS_ALIAS_H
