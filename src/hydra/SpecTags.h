//===- hydra/SpecTags.h - Speculative tag bits as per-core masks -----------==//
//
// Hydra marks speculative state with tag bits next to the data: a read bit
// per core on every L1 line (and word) a thread loaded, a written bit per
// core on every store-buffer word and line (DESIGN.md §1). SpecTagTable
// models one such array as an open-addressed map from a word address or
// line index to two core masks, so one lookup answers what used to take a
// hash-set probe per thread:
//   - forwarding: Written & (cores running earlier iterations);
//   - violation detection: Read & (cores running later iterations).
// The word table also holds each writer's buffered value, in a block of
// per-core words that a written entry points to.
// An entry lives only while some core holds a bit on it: the engine clears
// a core's bits by walking the keys it tagged (commit, squash, overflow
// drain), and an entry whose masks reach zero is removed.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_HYDRA_SPECTAGS_H
#define JRPM_HYDRA_SPECTAGS_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace jrpm {
namespace hydra {

class SpecTagTable {
public:
  /// Cores a mask can name.
  static constexpr std::uint32_t MaxCores = 32;

  struct Entry {
    std::uint32_t Key = 0;
    std::uint32_t Read = 0;    ///< cores holding a read bit
    std::uint32_t Written = 0; ///< cores holding a written bit
    std::uint32_t Values = 0;  ///< value block, while Written != 0
    bool live() const { return (Read | Written) != 0; }
  };

  /// \p ValueCores > 0 keeps one value word per core for every written
  /// entry (the word table's store-buffer data); 0 keeps tags only.
  explicit SpecTagTable(std::uint32_t ValueCores = 0)
      : ValueCores(ValueCores) {
    rehash(InitialCapacity);
  }

  /// The entry for \p Key, or null when no core holds a bit on it.
  Entry *find(std::uint32_t Key) {
    for (std::uint32_t I = home(Key);; I = (I + 1) & Mask) {
      Entry &E = Slots[I];
      if (!E.live())
        return nullptr;
      if (E.Key == Key)
        return &E;
    }
  }

  /// The entry for \p Key, inserted untagged when absent. The caller must
  /// set a bit on it (or write() it) before the next insert or clear: an
  /// untagged entry reads as an empty slot. Insertion may move entries.
  Entry &insert(std::uint32_t Key) {
    if (Entry *E = find(Key))
      return *E;
    return insertAbsent(Key);
  }

  /// insert() of a \p Key that find() just reported absent: one probe, not
  /// two. (Not asserted: the check would be the probe this saves.)
  Entry &insertAbsent(std::uint32_t Key) {
    if ((Count + 1) * 2 > Slots.size())
      rehash(static_cast<std::uint32_t>(Slots.size() * 2));
    ++Count;
    std::uint32_t I = home(Key);
    while (Slots[I].live())
      I = (I + 1) & Mask;
    Slots[I].Key = Key;
    return Slots[I];
  }

  /// Sets \p Core's written bit on \p E and returns its value word (word
  /// table only).
  std::uint64_t &write(Entry &E, std::uint32_t Core) {
    assert(Core < ValueCores && "no value column for this core");
    if (!E.Written) {
      if (FreeBlocks.empty()) {
        E.Values = static_cast<std::uint32_t>(Pool.size() / ValueCores);
        Pool.resize(Pool.size() + ValueCores);
      } else {
        E.Values = FreeBlocks.back();
        FreeBlocks.pop_back();
      }
    }
    E.Written |= 1u << Core;
    return Pool[E.Values * ValueCores + Core];
  }

  /// \p Core's buffered value on \p E, which carries its written bit.
  std::uint64_t value(const Entry &E, std::uint32_t Core) const {
    assert((E.Written >> Core & 1) && "core holds no written bit here");
    return Pool[E.Values * ValueCores + Core];
  }

  /// Clears \p ReadBits and \p WrittenBits on \p Key's entry, removing it
  /// once no bit is left. A key without an entry is ignored.
  void clear(std::uint32_t Key, std::uint32_t ReadBits,
             std::uint32_t WrittenBits) {
    if (Entry *E = find(Key))
      clear(*E, ReadBits, WrittenBits);
  }

  /// clear() on an entry already looked up; \p E is invalid afterwards.
  void clear(Entry &E, std::uint32_t ReadBits, std::uint32_t WrittenBits) {
    bool HadValues = E.Written != 0;
    E.Read &= ~ReadBits;
    E.Written &= ~WrittenBits;
    if (HadValues && !E.Written)
      FreeBlocks.push_back(E.Values);
    if (!E.live())
      erase(static_cast<std::uint32_t>(&E - Slots.data()));
  }

  std::uint32_t size() const { return Count; }

private:
  static constexpr std::uint32_t InitialCapacity = 256;

  std::uint32_t home(std::uint32_t Key) const {
    return (Key * 0x9E3779B1u) >> Shift; // Fibonacci hashing
  }

  /// Backward-shift deletion: later entries of the probe run move into the
  /// hole unless that would put them before their home slot, so lookups
  /// never need tombstones.
  void erase(std::uint32_t Hole) {
    --Count;
    for (std::uint32_t J = (Hole + 1) & Mask; Slots[J].live();
         J = (J + 1) & Mask) {
      std::uint32_t FromHome = (J - home(Slots[J].Key)) & Mask;
      std::uint32_t FromHole = (J - Hole) & Mask;
      if (FromHome < FromHole)
        continue; // J's home lies after the hole: it must stay
      Slots[Hole] = Slots[J];
      Hole = J;
    }
    Slots[Hole] = Entry();
  }

  void rehash(std::uint32_t Capacity) {
    std::vector<Entry> Old = std::move(Slots);
    Slots.assign(Capacity, Entry());
    Mask = Capacity - 1;
    Shift = 32 - static_cast<std::uint32_t>(std::countr_zero(Capacity));
    for (const Entry &E : Old) {
      if (!E.live())
        continue;
      std::uint32_t I = home(E.Key);
      while (Slots[I].live())
        I = (I + 1) & Mask;
      Slots[I] = E;
    }
  }

  std::uint32_t ValueCores;
  std::vector<Entry> Slots; ///< power-of-two capacity, at most half full
  std::uint32_t Count = 0;
  std::uint32_t Mask = 0;
  std::uint32_t Shift = 0;
  /// Value blocks of ValueCores words, one per written entry, recycled
  /// through FreeBlocks.
  std::vector<std::uint64_t> Pool;
  std::vector<std::uint32_t> FreeBlocks;
};

} // namespace hydra
} // namespace jrpm

#endif // JRPM_HYDRA_SPECTAGS_H
