#include "core/partial_map.h"

#include <cassert>

namespace crackdb {

PartialMap::PartialMap(const Relation& relation, std::string head_attr,
                       std::string tail_attr)
    : relation_(&relation),
      head_attr_(std::move(head_attr)),
      tail_attr_(std::move(tail_attr)),
      tail_column_(&relation.column(tail_attr_)) {}

MapChunk* PartialMap::FindChunk(const AreaStart& start) {
  auto it = chunks_.find(start);
  return it == chunks_.end() ? nullptr : &it->second;
}

bool PartialMap::HasChunk(const AreaStart& start) const {
  return chunks_.count(start) != 0;
}

MapChunk& PartialMap::CreateChunk(ChunkMapArea& area) {
  assert(area.h_cursor == area.tape.size() && "area must be aligned");
  MapChunk chunk;
  chunk.area_start = area.start;
  const size_t n = area.store.size();
  chunk.store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    chunk.store.PushBack(area.store.head[i],
                         TailForKey(static_cast<Key>(area.store.tail[i])));
  }
  chunk.index = area.index.CloneLive();
  chunk.cursor = area.tape.size();
  auto [it, inserted] = chunks_.insert_or_assign(area.start, std::move(chunk));
  (void)inserted;
  return it->second;
}

void PartialMap::DropChunk(const AreaStart& start) { chunks_.erase(start); }

void PartialMap::AlignChunk(MapChunk& chunk, ChunkMapArea& area,
                            size_t target_cursor) {
  assert(target_cursor <= area.tape.size());
  if (chunk.cursor >= target_cursor) return;
  if (chunk.store.head_dropped) RecoverHead(chunk, area);
  while (chunk.cursor < target_cursor) {
    const TapeEntry& entry = area.tape.at(chunk.cursor);
    const Value insert_tail = entry.kind() == TapeEntry::Kind::kInsert
                                  ? TailForKey(entry.key())
                                  : 0;
    ReplayTapeEntry(chunk.store, chunk.index, entry, insert_tail);
    ++chunk.cursor;
  }
}

void PartialMap::DropHead(MapChunk& chunk) {
  if (chunk.store.head_dropped) return;
  chunk.store.DropHead();
}

void PartialMap::RecoverHead(MapChunk& chunk, ChunkMapArea& area) {
  if (!chunk.store.head_dropped) return;
  if (area.h_cursor <= chunk.cursor) {
    // Scratch replay (the paper's head-recovery from a less-aligned source;
    // here the chunk map's own area store is that source): copy the area's
    // (A,key) state, replay forward to the chunk's cursor — determinism
    // makes the resulting head column exactly the chunk's layout.
    CrackPairs scratch;
    scratch.head = area.store.head;
    scratch.tail = area.store.tail;
    CrackerIndex scratch_index = area.index.CloneLive();
    for (size_t c = area.h_cursor; c < chunk.cursor; ++c) {
      const TapeEntry& entry = area.tape.at(c);
      ReplayTapeEntry(scratch, scratch_index, entry, KeyTail(entry));
    }
    assert(scratch.head.size() == chunk.store.tail.size());
    chunk.store.RestoreHead(std::move(scratch.head));
    return;
  }
  // The area has replayed past this chunk — rebuild the chunk from the
  // area's current state instead (tail values refetched from base).
  MapChunk rebuilt;
  rebuilt.area_start = chunk.area_start;
  const size_t n = area.store.size();
  rebuilt.store.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rebuilt.store.PushBack(area.store.head[i],
                           TailForKey(static_cast<Key>(area.store.tail[i])));
  }
  rebuilt.index = area.index.CloneLive();
  rebuilt.cursor = area.h_cursor;
  rebuilt.accesses = chunk.accesses;
  rebuilt.last_crack_access = chunk.last_crack_access;
  rebuilt.sm_id = chunk.sm_id;  // keep the storage-manager identity
  chunk = std::move(rebuilt);
}

size_t PartialMap::StorageHalfTuples() const {
  size_t total = 0;
  for (const auto& [start, chunk] : chunks_) {
    total += chunk.StorageHalfTuples();
  }
  return total;
}

}  // namespace crackdb
