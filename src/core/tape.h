#ifndef CRACKDB_CORE_TAPE_H_
#define CRACKDB_CORE_TAPE_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "cracking/crack.h"
#include "cracking/cracker_index.h"

namespace crackdb {

/// One replayable event in a cracker tape. Alignment (paper Section 3.2)
/// works because every entry is applied through deterministic operations:
/// two structures that replay the same entry prefix from the same initial
/// state are byte-identical.
///
/// An entry is 24 bytes: two value slots, a key, the kind and flag bits.
/// Build entries through the factories and read them through the
/// accessors, each valid for the kinds named next to it.
class TapeEntry {
 public:
  enum class Kind : uint8_t {
    /// Physical reorganization on a selection predicate
    /// (full-map tapes log whole predicates).
    kCrack,
    /// Physical reorganization at a single bound (area-local tapes of
    /// partial maps log one bound per boundary crack).
    kCrackBound,
    /// Ripple-insert of the row `key` with organizing value `head_value`;
    /// each map resolves its own tail value through the base columns.
    kInsert,
    /// Ripple-delete at position `pos` (a position in the aligned layout at
    /// this tape point); `key` is kept so a chunk map can drain the entry
    /// physically by key when a tape is removed.
    kDelete,
    /// Stable sort of the piece whose lower split is `piece_lower`
    /// (absent = first piece); logged when a head column is dropped after
    /// full cracking (paper Section 4.1).
    kSort,
  };

  static TapeEntry Crack(const RangePredicate& pred) {
    return TapeEntry(Kind::kCrack, pred.low, pred.high, kInvalidKey,
                     Flags(pred.low_inclusive, pred.high_inclusive));
  }
  static TapeEntry CrackBound(const Bound& bound) {
    return TapeEntry(Kind::kCrackBound, bound.value, 0, kInvalidKey,
                     Flags(bound.inclusive, false));
  }
  static TapeEntry Insert(Key key, Value head_value) {
    return TapeEntry(Kind::kInsert, head_value, 0, key, 0);
  }
  static TapeEntry Delete(size_t pos, Key key, Value head_value) {
    return TapeEntry(Kind::kDelete, head_value, static_cast<Value>(pos), key,
                     0);
  }
  static TapeEntry Sort(const std::optional<Bound>& piece_lower);

  Kind kind() const { return kind_; }

  RangePredicate pred() const {  // kCrack
    assert(kind_ == Kind::kCrack);
    return {a_, b_, (flags_ & kFirstInclusive) != 0,
            (flags_ & kSecondInclusive) != 0};
  }
  Bound bound() const {  // kCrackBound
    assert(kind_ == Kind::kCrackBound);
    return {a_, (flags_ & kFirstInclusive) != 0};
  }
  Key key() const {  // kInsert, kDelete
    assert(kind_ == Kind::kInsert || kind_ == Kind::kDelete);
    return key_;
  }
  Value head_value() const {  // kInsert, kDelete
    assert(kind_ == Kind::kInsert || kind_ == Kind::kDelete);
    return a_;
  }
  size_t pos() const {  // kDelete
    assert(kind_ == Kind::kDelete);
    return static_cast<size_t>(b_);
  }
  std::optional<Bound> piece_lower() const {  // kSort
    assert(kind_ == Kind::kSort);
    if ((flags_ & kHasPieceLower) == 0) return std::nullopt;
    return Bound{a_, (flags_ & kFirstInclusive) != 0};
  }

 private:
  static constexpr uint8_t kFirstInclusive = 1;   // pred.low / bound
  static constexpr uint8_t kSecondInclusive = 2;  // pred.high
  static constexpr uint8_t kHasPieceLower = 4;

  static uint8_t Flags(bool first_inclusive, bool second_inclusive) {
    return static_cast<uint8_t>((first_inclusive ? kFirstInclusive : 0) |
                                (second_inclusive ? kSecondInclusive : 0));
  }

  TapeEntry(Kind kind, Value a, Value b, Key key, uint8_t flags)
      : a_(a), b_(b), key_(key), kind_(kind), flags_(flags) {}

  // Slot use by kind: kCrack (pred.low, pred.high), kCrackBound
  // (bound.value, -), kInsert (head_value, -), kDelete (head_value, pos),
  // kSort (piece_lower.value, -).
  Value a_;
  Value b_;
  Key key_;
  Kind kind_;
  uint8_t flags_;
};

static_assert(sizeof(TapeEntry) == 24, "tape entries are 24 bytes");

/// Applies one tape entry to a cracked store and its index: the single
/// replay routine behind every map, chunk and chunk-map area. Replay is a
/// deterministic function of (store, index, entry), which is what keeps
/// structures that replay the same tape aligned. `insert_tail` is the tail
/// value a kInsert entry stores — the row's value in the structure's tail
/// column, or the key itself for key-tailed stores; other kinds ignore it.
void ReplayTapeEntry(CrackPairs& store, CrackerIndex& index,
                     const TapeEntry& entry, Value insert_tail);

/// The cracker tape T_A of a map set S_A (or of one chunk-map area): an
/// append-only log of every crack/update/sort applied to any structure of
/// the set, in occurrence order. Every structure keeps a cursor into the
/// tape; aligning a structure means replaying entries from its cursor to
/// the end (paper Section 3.2).
class CrackerTape {
 public:
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const TapeEntry& at(size_t i) const { return entries_[i]; }

  void AppendCrack(const RangePredicate& pred) {
    entries_.push_back(TapeEntry::Crack(pred));
  }
  void AppendCrackBound(const Bound& bound) {
    entries_.push_back(TapeEntry::CrackBound(bound));
  }
  void AppendInsert(Key key, Value head_value) {
    entries_.push_back(TapeEntry::Insert(key, head_value));
  }
  void AppendDelete(size_t pos, Key key, Value head_value) {
    entries_.push_back(TapeEntry::Delete(pos, key, head_value));
  }
  void AppendSort(const std::optional<Bound>& piece_lower) {
    entries_.push_back(TapeEntry::Sort(piece_lower));
  }

  void Clear() { entries_.clear(); }

 private:
  std::vector<TapeEntry> entries_;
};

}  // namespace crackdb

#endif  // CRACKDB_CORE_TAPE_H_
