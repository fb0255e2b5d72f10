#ifndef CRACKDB_UPDATES_RIPPLE_H_
#define CRACKDB_UPDATES_RIPPLE_H_

#include <cstddef>
#include <optional>

#include "common/types.h"
#include "cracking/crack.h"
#include "cracking/cracker_index.h"

namespace crackdb {

/// The Ripple algorithm (paper [8], "Updating a Cracked Database"): merges
/// pending insertions and deletions into a cracked store without destroying
/// the knowledge in its cracker index. An insertion ripples a hole from the
/// end of the store down to the piece the new value belongs to, shifting
/// each intervening piece by one position while keeping every piece
/// value-consistent; a deletion ripples the hole out to the end.
///
/// Both operations are deterministic functions of (store, index, operands),
/// so they can be logged in cracker tapes and replayed on every map of a
/// set in the same order (paper Section 3.5). Each is one walk over the
/// splits above the updated value: O(log P + those splits) for P splits.

/// Inserts (head_value, tail_value) into its value-correct piece.
/// Positions of all pieces after the target shift by +1 (reflected in the
/// index).
void RippleInsert(CrackPairs& store, CrackerIndex& index, Value head_value,
                  Value tail_value);

/// Removes the entry at `pos`; pieces after the containing piece shift by
/// -1 (reflected in the index). `pos` must be < store.size().
void RippleDeleteAt(CrackPairs& store, CrackerIndex& index, size_t pos);

/// Locates the entry with the given head and tail values by narrowing to
/// the piece that can contain `head_value` and scanning it. Returns the
/// position, or nullopt if absent.
std::optional<size_t> FindEntry(const CrackPairs& store,
                                const CrackerIndex& index, Value head_value,
                                Value tail_value);

}  // namespace crackdb

#endif  // CRACKDB_UPDATES_RIPPLE_H_
