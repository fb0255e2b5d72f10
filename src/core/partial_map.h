#ifndef CRACKDB_CORE_PARTIAL_MAP_H_
#define CRACKDB_CORE_PARTIAL_MAP_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/chunk_map.h"
#include "core/tape.h"
#include "cracking/crack.h"
#include "cracking/cracker_index.h"
#include "storage/relation.h"

namespace crackdb {

/// One chunk of a partial map M_AB: the (A, B) pairs of one chunk-map area,
/// cracked independently with its own index and its own cursor into the
/// area's tape (paper Section 4.1). Chunks are the unit of materialization,
/// alignment, eviction, and head dropping.
struct MapChunk {
  AreaStart area_start;
  CrackPairs store;  // head = A values (droppable), tail = B values
  CrackerIndex index;
  size_t cursor = 0;
  size_t accesses = 0;
  /// `accesses` value when this chunk last physically cracked; feeds the
  /// "not cracked recently" head-drop policy.
  size_t last_crack_access = 0;
  /// StorageManager entry id (0 = not registered).
  uint64_t sm_id = 0;

  size_t size() const { return store.size(); }

  /// Storage in half-tuples (head and tail counted separately so a dropped
  /// head halves the cost).
  size_t StorageHalfTuples() const { return store.NumStoredValues(); }
};

/// A partial sideways-cracking map M_AB: a dynamic collection of chunks,
/// materialized, aligned, dropped, and recreated independently per area
/// (paper Section 4.1).
class PartialMap {
 public:
  PartialMap(const Relation& relation, std::string head_attr,
             std::string tail_attr);

  PartialMap(const PartialMap&) = delete;
  PartialMap& operator=(const PartialMap&) = delete;

  const std::string& tail_attr() const { return tail_attr_; }

  MapChunk* FindChunk(const AreaStart& start);
  bool HasChunk(const AreaStart& start) const;

  /// Materializes the chunk for `area` from the chunk map: the caller must
  /// have called ChunkMap::FetchArea (which aligns the area), so the new
  /// chunk is born at the tape end with an exact clone of the area's
  /// index — the precondition for deterministic replay alongside older
  /// sibling chunks.
  MapChunk& CreateChunk(ChunkMapArea& area);

  /// Drops a chunk (storage reclamation). The caller releases the area
  /// reference through ChunkMap::ReleaseArea.
  void DropChunk(const AreaStart& start);

  /// Replays the area tape on `chunk` up to `target_cursor` (partial
  /// alignment when below the tape end). Recovers or rebuilds the head if
  /// it was dropped and replay needs it.
  void AlignChunk(MapChunk& chunk, ChunkMapArea& area, size_t target_cursor);

  /// Drops the head column of `chunk`, halving its storage (paper
  /// Section 4.1 "Dropping the Head Column").
  void DropHead(MapChunk& chunk);

  /// Reinstates the head of a head-dropped chunk, aligned at the chunk's
  /// cursor: replayed from the area's own store when the area is at or
  /// behind the chunk (scratch replay), otherwise the chunk is rebuilt
  /// from the area's current state (tail values refetched from base).
  void RecoverHead(MapChunk& chunk, ChunkMapArea& area);

  /// Total storage across chunks, in half-tuples.
  size_t StorageHalfTuples() const;

  std::map<AreaStart, MapChunk, AreaStartLess>& chunks() { return chunks_; }
  const std::map<AreaStart, MapChunk, AreaStartLess>& chunks() const {
    return chunks_;
  }

 private:
  Value TailForKey(Key key) const { return (*tail_column_)[key]; }

  const Relation* relation_;
  std::string head_attr_;
  std::string tail_attr_;
  const Column* tail_column_;
  std::map<AreaStart, MapChunk, AreaStartLess> chunks_;
};

}  // namespace crackdb

#endif  // CRACKDB_CORE_PARTIAL_MAP_H_
