//===- support/FlatTable.h - Flat open-addressed hash table -----*- C++ -*-===//
//
// Part of the ctp project: a reproduction of "Context Transformations for
// Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An insert-only hash table stored in one flat array: linear probing over
/// a power-of-two number of slots, an explicit empty-key sentinel instead
/// of per-slot occupancy flags, and doubling whenever an insert would push
/// the load past one half. It backs the solver's hot lookups — the
/// domain's comp memo and the derived relations' dedup sets — where a
/// node-based std::unordered_map pays an allocation per entry and a
/// pointer chase per probe. There is no erase and no iteration, so the
/// table's slot order can never leak into results.
///
//===----------------------------------------------------------------------===//

#ifndef CTP_SUPPORT_FLATTABLE_H
#define CTP_SUPPORT_FLATTABLE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ctp {

/// Value type of a FlatTable used as a set; occupies no space in a slot.
struct FlatSetTag {};

/// Maps keys to values with linear probing. \p Traits provides
///   static Key empty();                  // sentinel, never inserted
///   static std::uint64_t hash(const Key &); // well-mixed in the low bits
template <typename Key, typename Value, typename Traits> class FlatTable {
public:
  /// \returns the value stored under \p K, or null when absent.
  const Value *find(const Key &K) const {
    if (Slots.empty())
      return nullptr;
    for (std::size_t I = Traits::hash(K) & mask();; I = (I + 1) & mask()) {
      const Slot &S = Slots[I];
      if (S.K == K)
        return &S.V;
      if (S.K == Traits::empty())
        return nullptr;
    }
  }

  /// Stores \p V under \p K unless \p K is already present.
  /// \returns true when \p K was inserted.
  bool insert(const Key &K, const Value &V = Value()) {
    assert(!(K == Traits::empty()) && "FlatTable key equals the sentinel");
    if ((Count + 1) * 2 > Slots.size())
      grow();
    for (std::size_t I = Traits::hash(K) & mask();; I = (I + 1) & mask()) {
      Slot &S = Slots[I];
      if (S.K == K)
        return false;
      if (S.K == Traits::empty()) {
        S.K = K;
        S.V = V;
        ++Count;
        return true;
      }
    }
  }

  std::size_t size() const { return Count; }
  std::size_t capacity() const { return Slots.size(); }

private:
  struct Slot {
    Key K = Traits::empty();
    [[no_unique_address]] Value V{};
  };

  static constexpr std::size_t InitialSlots = 16;

  std::size_t mask() const { return Slots.size() - 1; }

  void grow() {
    std::vector<Slot> Old(Slots.empty() ? InitialSlots : 2 * Slots.size());
    Old.swap(Slots);
    for (const Slot &S : Old) {
      if (S.K == Traits::empty())
        continue;
      std::size_t I = Traits::hash(S.K) & mask();
      while (!(Slots[I].K == Traits::empty()))
        I = (I + 1) & mask();
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  std::size_t Count = 0;
};

/// A FlatTable holding keys only.
template <typename Key, typename Traits>
using FlatSet = FlatTable<Key, FlatSetTag, Traits>;

} // namespace ctp

#endif // CTP_SUPPORT_FLATTABLE_H
