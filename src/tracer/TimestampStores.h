//===- tracer/TimestampStores.h - Store-buffer timestamp storage -----------==//
//
// During profiling, Hydra's five speculation write buffers hold event
// timestamps instead of speculative data (Section 5.3): three buffers hold
// heap-access store timestamps (a 192-line FIFO of write history), one holds
// cache-line timestamps for the overflow analysis (direct mapped), and one
// holds local-variable store timestamps (64 slots, reserved stack-style by
// `sloop`).
//
// All three stores are flat arrays — no node-based containers on the
// per-event path. The heap history keeps its FIFO *implicitly*: line
// entries are (re)assigned in strict rotation order, so the entry assigned
// longest ago is always the next eviction victim, and the only auxiliary
// structure is a small line->entry FlatTable.
//
//===----------------------------------------------------------------------===//

#ifndef JRPM_TRACER_TIMESTAMPSTORES_H
#define JRPM_TRACER_TIMESTAMPSTORES_H

#include "sim/Config.h"
#include "support/FastDivMod.h"
#include "support/FlatTable.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace jrpm {
namespace tracer {

/// Timestamp value meaning "no record".
inline constexpr std::uint64_t NoTimestamp = 0;

/// FIFO history of heap store timestamps at word granularity within
/// cache-line entries. Holds the most recent `Capacity` written lines; older
/// history is lost, which bounds how distant a dependency the tracer can
/// observe (a deliberate imprecision the paper discusses in Section 6.2).
///
/// Layout: per-line word timestamps live in one contiguous array, one
/// stride of WordsPerLine per entry; the FIFO is the rotation order of
/// entry slots; a FlatTable maps a line number to its entry slot.
class HeapStoreTimestamps {
public:
  /// One line -> entry mapping of the index.
  struct LineSlot {
    using Key = std::uint32_t;
    static constexpr std::uint32_t NoEntry = ~std::uint32_t(0);
    std::uint32_t Line = 0;
    std::uint32_t Entry = NoEntry;
    Key key() const { return Line; }
    static std::uint64_t hash(Key K) { return K; }
    bool occupied() const { return Entry != NoEntry; }
  };

  HeapStoreTimestamps(std::uint32_t CapacityLines, std::uint32_t WordsPerLine)
      : Capacity(std::max<std::uint32_t>(CapacityLines, 1)),
        WordsPerLine(WordsPerLine), Split(WordsPerLine), Index(Capacity),
        Lines(Capacity, 0),
        WordTs(static_cast<std::size_t>(Capacity) * WordsPerLine,
               NoTimestamp) {}

  /// Records that word \p Addr was stored at \p Cycle. The hit path (line
  /// already tracked) is a probe and one store, small enough to inline into
  /// the per-event sweeps; the insert/evict path is outlined.
  void recordStore(std::uint32_t Addr, std::uint64_t Cycle) {
    std::uint32_t Line = Split.div(Addr);
    const LineSlot *S = Index.find(Line);
    std::uint32_t E = S ? S->Entry : insertLine(Line);
    WordTs[static_cast<std::size_t>(E) * WordsPerLine + Split.mod(Addr)] =
        Cycle;
  }

  /// Returns the last store timestamp recorded for word \p Addr, or
  /// NoTimestamp when the history has no record.
  std::uint64_t lookup(std::uint32_t Addr) const {
    const LineSlot *S = Index.find(Split.div(Addr));
    if (!S)
      return NoTimestamp;
    return WordTs[static_cast<std::size_t>(S->Entry) * WordsPerLine +
                  Split.mod(Addr)];
  }

  void clear() {
    Index.clear();
    Live = 0;
    NextSlot = 0;
  }

  /// Lines whose history was dropped because the FIFO wrapped. Monotonic
  /// across clear() — an observability counter, not analysis state.
  std::uint64_t evictions() const { return Evictions; }
  /// Peak number of simultaneously tracked lines.
  std::uint32_t peakOccupancy() const { return Peak; }

private:
  /// Assigns the next FIFO entry slot to \p Line (evicting the slot's
  /// previous line once the history is full) and returns the slot.
  std::uint32_t insertLine(std::uint32_t Line) {
    std::uint32_t E = NextSlot;
    NextSlot = NextSlot + 1 == Capacity ? 0 : NextSlot + 1;
    if (Live == Capacity) {
      Index.erase(Lines[E]);
      ++Evictions;
    } else {
      ++Live;
      Peak = std::max(Peak, Live);
    }
    Lines[E] = Line;
    std::uint64_t *W = &WordTs[static_cast<std::size_t>(E) * WordsPerLine];
    std::fill(W, W + WordsPerLine, NoTimestamp);
    Index.insertAbsent({Line, E});
    return E;
  }

  std::uint32_t Capacity;
  std::uint32_t WordsPerLine;
  FastDivMod Split;
  std::uint32_t NextSlot = 0; ///< next FIFO slot to assign (oldest entry)
  std::uint32_t Live = 0;     ///< entries currently tracked
  std::uint32_t Peak = 0;
  std::uint64_t Evictions = 0;
  FlatTable<LineSlot> Index;         ///< line -> entry slot
  std::vector<std::uint32_t> Lines;  ///< line number per entry slot
  std::vector<std::uint64_t> WordTs; ///< WordsPerLine stamps per entry slot
};

/// Direct-mapped table of cache-line timestamps used by the speculative
/// state overflow analysis (Figure 4). Not accounting for the real caches'
/// associativity "introduces some error into the overflow analysis" — kept
/// faithfully; an ablation bench quantifies it against a set-associative
/// variant.
///
/// Structure-of-arrays: one contiguous key array (line + 1, so 0 means an
/// empty way — no Valid flag to pointer-chase, and no tag division: the
/// full line number identifies a line within its set just as well) and one
/// contiguous timestamp array. The dominant direct-mapped configuration is
/// a single branch-light exchange on each array.
class CacheLineTimestampTable {
public:
  explicit CacheLineTimestampTable(std::uint32_t NumEntries,
                                   std::uint32_t WordsPerLine,
                                   std::uint32_t Associativity = 1)
      : WordsPerLine(WordsPerLine), Assoc(Associativity),
        Sets(NumEntries / Associativity), WordSplit(WordsPerLine),
        SetSplit(NumEntries / Associativity), Keys(NumEntries, 0),
        Ts(NumEntries, NoTimestamp) {
    assert(Associativity >= 1 && NumEntries % Associativity == 0 &&
           "bad table geometry");
  }

  /// Looks up the line containing \p Addr, returns its previous timestamp
  /// (NoTimestamp on tag mismatch), and records \p Cycle for it. Forced
  /// inline into the per-event sweeps, which otherwise call an out-of-line
  /// copy; wider geometries than direct-mapped take the outlined way scan.
  [[gnu::always_inline]] std::uint64_t exchange(std::uint32_t Addr,
                                                std::uint64_t Cycle) {
    std::uint32_t Line = WordSplit.div(Addr);
    std::uint32_t Set = SetSplit.mod(Line);
    std::uint64_t Key = static_cast<std::uint64_t>(Line) + 1;
    if (Assoc == 1) {
      // Hit and miss collapse to one conditional move per array.
      bool Hit = Keys[Set] == Key;
      Evictions += !Hit && Keys[Set] != 0;
      Live += Keys[Set] == 0;
      std::uint64_t Old = Hit ? Ts[Set] : NoTimestamp;
      Keys[Set] = Key;
      Ts[Set] = Cycle;
      return Old;
    }
    return exchangeSetAssoc(Set, Key, Cycle);
  }

  void clear() {
    std::fill(Keys.begin(), Keys.end(), 0);
    std::fill(Ts.begin(), Ts.end(), NoTimestamp);
    Peak = std::max(Peak, Live);
    Live = 0;
  }

  /// Misses that overwrote a previously valid way. Monotonic across
  /// clear().
  std::uint64_t evictions() const { return Evictions; }
  /// Peak number of valid ways (entries never leave except via clear()).
  std::uint32_t peakOccupancy() const { return std::max(Peak, Live); }

private:
  [[gnu::noinline]] std::uint64_t
  exchangeSetAssoc(std::uint32_t Set, std::uint64_t Key, std::uint64_t Cycle) {
    std::uint32_t Base = Set * Assoc;
    // Hit: refresh in place.
    for (std::uint32_t W = 0; W < Assoc; ++W) {
      if (Keys[Base + W] == Key) {
        std::uint64_t Old = Ts[Base + W];
        Ts[Base + W] = Cycle;
        return Old;
      }
    }
    // Miss: evict the oldest-timestamp way (preferring empty ways).
    std::uint32_t Victim = 0;
    for (std::uint32_t W = 1; W < Assoc; ++W)
      if (Keys[Base + W] == 0 || Ts[Base + W] < Ts[Base + Victim])
        Victim = W;
    Evictions += Keys[Base + Victim] != 0;
    Live += Keys[Base + Victim] == 0;
    Keys[Base + Victim] = Key;
    Ts[Base + Victim] = Cycle;
    return NoTimestamp;
  }

  std::uint32_t WordsPerLine;
  std::uint32_t Assoc;
  std::uint32_t Sets;
  FastDivMod WordSplit;
  FastDivMod SetSplit;
  std::uint32_t Live = 0;
  std::uint32_t Peak = 0;
  std::uint64_t Evictions = 0;
  std::vector<std::uint64_t> Keys; ///< line + 1; 0 = empty way
  std::vector<std::uint64_t> Ts;
};

/// Outcome of LocalVarTimestampFile::release. Anything but Ok means the
/// caller tried a non-stack release — possible only when a malformed
/// module survives with unbalanced `sloop`/`eloop`; the file is left
/// unchanged so the failure is deterministic instead of UB.
enum class SlotReleaseResult : std::uint8_t {
  Ok,
  NonStackRelease,
};

/// The 64-slot local-variable store-timestamp file. `sloop n` reserves n
/// slots stack-style; `eloop` releases them. Slots are cleared on
/// reservation so stale timestamps from released reservations cannot leak
/// across activations.
class LocalVarTimestampFile {
public:
  explicit LocalVarTimestampFile(std::uint32_t NumSlots)
      : Slots(NumSlots, NoTimestamp) {}

  /// Attempts to reserve \p Count slots; returns the base slot index or -1
  /// when the file is full.
  int reserve(std::uint32_t Count) {
    if (Top + Count > Slots.size())
      return -1;
    int Base = static_cast<int>(Top);
    for (std::uint32_t S = 0; S < Count; ++S)
      Slots[Top + S] = NoTimestamp;
    Top += Count;
    return Base;
  }

  /// Releases the most recent reservation of \p Count slots at \p Base.
  /// Asserts stack discipline in debug builds; in release builds a
  /// non-stack release is refused and reported instead of corrupting Top.
  [[nodiscard]] SlotReleaseResult release(std::uint32_t Base,
                                          std::uint32_t Count) {
    assert(static_cast<std::uint64_t>(Base) + Count == Top &&
           "non-stack release");
    if (static_cast<std::uint64_t>(Base) + Count != Top)
      return SlotReleaseResult::NonStackRelease;
    Top = Base;
    return SlotReleaseResult::Ok;
  }

  std::uint64_t read(std::uint32_t Slot) const { return Slots[Slot]; }
  void write(std::uint32_t Slot, std::uint64_t Cycle) { Slots[Slot] = Cycle; }

  std::uint32_t used() const { return Top; }
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(Slots.size());
  }

private:
  std::vector<std::uint64_t> Slots;
  std::uint32_t Top = 0;
};

/// One (activation, register) -> slot mapping of TraceEngine's index of
/// live local-variable reservations. At most one active bank reserves a
/// given pair — TraceEngine::onLoopStart skips registers already covered by
/// an enclosing reservation of the same activation — so a local-variable
/// event resolves to its owning slot in one probe.
struct LocalSlot {
  struct Key {
    std::uint64_t Activation = 0;
    std::uint16_t Reg = 0;
    bool operator==(const Key &) const = default;
  };
  static constexpr std::uint32_t NoSlot = ~std::uint32_t(0);
  std::uint64_t Activation = 0;
  std::uint32_t Slot = NoSlot;
  std::uint16_t Reg = 0;
  Key key() const { return {Activation, Reg}; }
  static std::uint64_t hash(const Key &K) {
    return K.Activation ^ (static_cast<std::uint64_t>(K.Reg) << 17);
  }
  bool occupied() const { return Slot != NoSlot; }
};

} // namespace tracer
} // namespace jrpm

#endif // JRPM_TRACER_TIMESTAMPSTORES_H
