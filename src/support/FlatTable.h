//===- support/FlatTable.h - Open-addressed table without tombstones -------==//
//
// The one flat hash index of the simulators: Hydra's speculative tag arrays
// (hydra::SpecTagTable) and the tracer's timestamp-store indexes
// (tracer::HeapStoreTimestamps, TraceEngine's local-slot index) all sit on
// the per-access path, so they share one open-addressed layout:
//   - power-of-two slot count, linear probing, load factor <= 1/2;
//   - one Fibonacci hash over a 64-bit image of the key;
//   - growth by rehash when an insert would pass half full;
//   - backward-shift deletion, so lookups never meet tombstones.
// Nothing iterates a FlatTable, so the hash and probe order never reach an
// output.
//
// The slot type carries the key and the payload and supplies only:
//   using Key = ...;                          // compared with ==
//   Key key() const;
//   static std::uint64_t hash(const Key &);   // the image the table hashes
//   bool occupied() const;                    // false on a Slot{}
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_SUPPORT_FLATTABLE_H
#define JRPM_SUPPORT_FLATTABLE_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace jrpm {

template <typename Slot> class FlatTable {
public:
  using Key = typename Slot::Key;

  /// A table that holds \p Entries entries before it first grows.
  explicit FlatTable(std::uint64_t Entries = 0) { reset(slotsFor(Entries)); }

  /// The slot count for \p Entries entries at load <= 1/2: the smallest
  /// power of two >= 2 * Entries, at least 8. Computed in 64 bits, so
  /// twice a 32-bit capacity cannot wrap.
  static std::size_t slotsFor(std::uint64_t Entries) {
    return std::bit_ceil(std::max<std::uint64_t>(8, 2 * Entries));
  }

  /// The occupied slot holding \p K, or null.
  const Slot *find(const Key &K) const {
    for (std::size_t I = home(K);; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (!S.occupied())
        return nullptr;
      if (S.key() == K)
        return &S;
    }
  }
  Slot *find(const Key &K) {
    return const_cast<Slot *>(std::as_const(*this).find(K));
  }

  /// Stores \p S, whose key find() just reported absent, and returns its
  /// slot. Growth may move every slot, so earlier slot pointers die here.
  Slot &insertAbsent(const Slot &S) {
    if ((Count + 1) * 2 > Slots.size())
      grow();
    ++Count;
    return place(S);
  }

  /// Removes the slot \p S points into; \p S and later slots of its probe
  /// run may move.
  void erase(Slot &S) {
    --Count;
    std::size_t Hole = static_cast<std::size_t>(&S - Slots.data());
    // Backward shift: a follower moves into the hole unless its home lies
    // after the hole (cyclically), where moving it would put it before the
    // start of its own probe run.
    for (std::size_t J = (Hole + 1) & Mask; Slots[J].occupied();
         J = (J + 1) & Mask) {
      if (((J - home(Slots[J].key())) & Mask) < ((J - Hole) & Mask))
        continue;
      Slots[Hole] = Slots[J];
      Hole = J;
    }
    Slots[Hole] = Slot{};
  }

  /// Removes \p K's slot; a key without one is ignored.
  void erase(const Key &K) {
    if (Slot *S = find(K))
      erase(*S);
  }

  void clear() {
    std::fill(Slots.begin(), Slots.end(), Slot{});
    Count = 0;
  }

  std::size_t size() const { return Count; }
  std::size_t capacity() const { return Slots.size(); }
  /// The slot where \p K's probe run starts.
  std::size_t home(const Key &K) const {
    return static_cast<std::size_t>((Slot::hash(K) * 0x9E3779B97F4A7C15ull) >>
                                    Shift);
  }

private:
  void reset(std::size_t NumSlots) {
    Slots.assign(NumSlots, Slot{});
    Mask = NumSlots - 1;
    Shift = 64 - static_cast<unsigned>(std::countr_zero(NumSlots));
  }

  /// Rehashes into the slot count for one more entry. Kept out of line so
  /// that insertAbsent, and the find-or-insert paths of the callers, stay
  /// small enough to inline into the per-access code.
  [[gnu::noinline]] void grow() {
    std::vector<Slot> Old = std::move(Slots);
    reset(slotsFor(Count + 1));
    for (const Slot &S : Old)
      if (S.occupied())
        place(S);
  }

  /// Writes \p S into the first free slot of its probe run.
  Slot &place(const Slot &S) {
    std::size_t I = home(S.key());
    while (Slots[I].occupied())
      I = (I + 1) & Mask;
    Slots[I] = S;
    return Slots[I];
  }

  std::vector<Slot> Slots;
  std::size_t Count = 0;
  std::size_t Mask = 0;
  unsigned Shift = 0;
};

} // namespace jrpm

#endif // JRPM_SUPPORT_FLATTABLE_H
