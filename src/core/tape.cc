#include "core/tape.h"

#include "updates/ripple.h"

namespace crackdb {

// Out of line: inlined into a caller passing std::nullopt, GCC 12 warns
// that the disengaged optional's payload may be read uninitialized.
TapeEntry TapeEntry::Sort(const std::optional<Bound>& piece_lower) {
  if (!piece_lower.has_value()) {
    return TapeEntry(Kind::kSort, 0, 0, kInvalidKey, 0);
  }
  return TapeEntry(Kind::kSort, piece_lower->value, 0, kInvalidKey,
                   Flags(piece_lower->inclusive, false) | kHasPieceLower);
}

void ReplayTapeEntry(CrackPairs& store, CrackerIndex& index,
                     const TapeEntry& entry, Value insert_tail) {
  switch (entry.kind()) {
    case TapeEntry::Kind::kCrack:
      CrackOnPredicate(store, index, entry.pred());
      break;
    case TapeEntry::Kind::kCrackBound:
      EnsureSplit(store, index, entry.bound());
      break;
    case TapeEntry::Kind::kInsert:
      RippleInsert(store, index, entry.head_value(), insert_tail);
      break;
    case TapeEntry::Kind::kDelete:
      RippleDeleteAt(store, index, entry.pos());
      break;
    case TapeEntry::Kind::kSort:
      SortPiece(store, index, entry.piece_lower());
      break;
  }
}

}  // namespace crackdb
