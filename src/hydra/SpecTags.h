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

#include "support/FlatTable.h"

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
    using Key = std::uint32_t;
    std::uint32_t Addr = 0;    ///< word address or line index
    std::uint32_t Read = 0;    ///< cores holding a read bit
    std::uint32_t Written = 0; ///< cores holding a written bit
    std::uint32_t Values = 0;  ///< value block, while Written != 0
    Key key() const { return Addr; }
    static std::uint64_t hash(Key K) { return K; }
    bool occupied() const { return (Read | Written) != 0; }
  };

  /// \p ValueCores > 0 keeps one value word per core for every written
  /// entry (the word table's store-buffer data); 0 keeps tags only.
  explicit SpecTagTable(std::uint32_t ValueCores = 0)
      : ValueCores(ValueCores), Tags(InitialEntries) {}

  /// The entry for \p Key, or null when no core holds a bit on it.
  Entry *find(std::uint32_t Key) { return Tags.find(Key); }

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
  Entry &insertAbsent(std::uint32_t Key) { return Tags.insertAbsent({Key}); }

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
    if (!E.occupied())
      Tags.erase(E);
  }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(Tags.size());
  }

private:
  static constexpr std::uint32_t InitialEntries = 128;

  std::uint32_t ValueCores;
  FlatTable<Entry> Tags;
  /// Value blocks of ValueCores words, one per written entry, recycled
  /// through FreeBlocks.
  std::vector<std::uint64_t> Pool;
  std::vector<std::uint32_t> FreeBlocks;
};

} // namespace hydra
} // namespace jrpm

#endif // JRPM_HYDRA_SPECTAGS_H
