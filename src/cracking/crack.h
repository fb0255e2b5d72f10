#ifndef CRACKDB_CRACKING_CRACK_H_
#define CRACKDB_CRACKING_CRACK_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"
#include "cracking/cracker_index.h"

namespace crackdb {

/// A two-column cracked store: `head` holds the organizing attribute's
/// values, `tail` the payload — a projection attribute for cracker maps
/// M_AB, or tuple keys for cracker columns, chunk maps H_A and the per-set
/// M_A,key deletion maps. Both columns are permuted together by the crack
/// algorithms, which is what keeps head and tail positionally aligned
/// without materializing keys (paper Section 3.1).
///
/// The head may be *dropped* (paper Section 4.1 "Dropping the Head
/// Column"): the tail stays usable read-only, and cracking requires head
/// recovery first.
struct CrackPairs {
  std::vector<Value> head;
  std::vector<Value> tail;
  bool head_dropped = false;

  size_t size() const { return tail.size(); }
  bool empty() const { return tail.empty(); }

  void Reserve(size_t n) {
    head.reserve(n);
    tail.reserve(n);
  }

  void PushBack(Value h, Value t) {
    head.push_back(h);
    tail.push_back(t);
  }

  void SwapEntries(size_t i, size_t j) {
    std::swap(head[i], head[j]);
    std::swap(tail[i], tail[j]);
  }

  void MoveEntry(size_t from, size_t to) {
    head[to] = head[from];
    tail[to] = tail[from];
  }

  void SetEntry(size_t i, Value h, Value t) {
    head[i] = h;
    tail[i] = t;
  }

  void PopBack() {
    head.pop_back();
    tail.pop_back();
  }

  /// Drops the head column, retaining the tail (see class comment).
  void DropHead();

  /// Reinstates a recovered head column; `recovered.size()` must equal
  /// `tail.size()`.
  void RestoreHead(std::vector<Value> recovered);

  /// Bytes of storage currently held (capacity-insensitive, element count
  /// based); used by the storage manager, which accounts in tuples.
  size_t NumStoredValues() const {
    return tail.size() + (head_dropped ? 0 : head.size());
  }
};

/// Result of cracking a store on a predicate.
struct CrackResult {
  /// Contiguous positions of all qualifying tuples.
  PositionRange area;
  /// Whether any physical reorganization happened (false when the
  /// predicate matched existing piece boundaries — the "learned" case).
  bool reorganized = false;
};

/// Two-way partition of positions [begin, end): entries NOT satisfying
/// `bound` first, satisfying entries last. Returns the first position of
/// the satisfying part. Runs through the dispatched kernel arm
/// (src/kernels/); every arm is deterministic for a given input and the
/// arm is fixed per process, so the alignment guarantee of Section 3.2
/// (tape replay reproducing layouts) holds within a process. Forcing
/// CRACKDB_KERNEL_ISA=scalar reproduces the historical Hoare-partition
/// layouts exactly.
size_t CrackInTwo(CrackPairs& store, size_t begin, size_t end,
                  const Bound& bound);

/// Three-way partition of [begin, end) into: not satisfying `lo` /
/// satisfying `lo` but not `hi` / satisfying `hi`. Returns the start
/// positions of the middle and upper parts. Requires cut(lo) <= cut(hi).
std::pair<size_t, size_t> CrackInThree(CrackPairs& store, size_t begin,
                                       size_t end, const Bound& lo,
                                       const Bound& hi);

/// Ensures a split exists for `bound`, cracking the piece it falls into
/// when it does not. Returns {split position, whether a crack happened}.
std::pair<size_t, bool> EnsureSplit(CrackPairs& store, CrackerIndex& index,
                                    const Bound& bound);

/// The single entry point used everywhere a structure is cracked on a
/// selection: finds / creates the splits for `pred` in `index`, physically
/// reorganizing `store` as needed (crack-in-three when both new bounds fall
/// into one piece, crack-in-two otherwise), and returns the contiguous
/// qualifying area.
///
/// All alignment logic (tapes, Section 3.2) replays predicates through this
/// same function; since its decisions depend only on (index state, pred)
/// and its physical reorganizations only on (head values, range, bounds),
/// identical histories yield identical layouts.
CrackResult CrackOnPredicate(CrackPairs& store, CrackerIndex& index,
                             const RangePredicate& pred);

/// Stable-sorts the piece identified by `piece_lower` (absence = first
/// piece) by head value, registering no new splits. Used when the head of
/// a fully-cracked chunk is about to be dropped (Section 4.1): a sorted
/// piece can later be cracked by binary search. Stable order makes the
/// permutation deterministic, so sorting is replayable through tapes.
/// Returns the sorted piece's position range.
PositionRange SortPiece(CrackPairs& store, CrackerIndex& index,
                        const std::optional<Bound>& piece_lower);

/// Looks up the contiguous area for `pred` without reorganizing; the area
/// may include false hits in its boundary pieces. Used for estimation and
/// by read-only paths.
PositionRange PeekArea(const CrackerIndex& index, const RangePredicate& pred,
                       size_t store_size);

/// True iff every entry of `store` within `area` satisfies `pred` and no
/// entry outside does; test helper enforcing the crack invariant.
bool CheckCrackInvariant(const CrackPairs& store, const CrackerIndex& index);

}  // namespace crackdb

#endif  // CRACKDB_CRACKING_CRACK_H_
