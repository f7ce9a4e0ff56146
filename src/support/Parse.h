//===- support/Parse.h - Strict decimal count parsing -----------*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser for unsigned decimal numbers arriving from outside the
/// program: command-line counts, wire-protocol options and epochs, and
/// the ordinal column of the input facts (TSV files and fact deltas).
/// std::strtoull would accept a sign, leading space and a base prefix,
/// wrap "-5" to a huge value and saturate on overflow; this accepts
/// digits only and reports overflow.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_SUPPORT_PARSE_H
#define CTP_SUPPORT_PARSE_H

#include <cstdint>
#include <string_view>

namespace ctp {

enum class ParseStatus { Ok, NotANumber, OutOfRange };

/// Parses \p S as one or more ASCII digits and nothing else, whose value
/// is at most \p Max (leading zeros allowed). \p Out is written only on
/// ParseStatus::Ok.
inline ParseStatus parseCount(std::string_view S, std::uint64_t &Out,
                              std::uint64_t Max = UINT64_MAX) {
  if (S.empty())
    return ParseStatus::NotANumber;
  for (char C : S)
    if (C < '0' || C > '9')
      return ParseStatus::NotANumber;
  std::uint64_t V = 0;
  for (char C : S) {
    const auto Digit = static_cast<std::uint64_t>(C - '0');
    if (Digit > Max || V > (Max - Digit) / 10)
      return ParseStatus::OutOfRange;
    V = V * 10 + Digit;
  }
  Out = V;
  return ParseStatus::Ok;
}

} // namespace ctp

#endif // CTP_SUPPORT_PARSE_H
