#ifndef CRACKDB_CORE_MAP_SET_H_
#define CRACKDB_CORE_MAP_SET_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/cracker_map.h"
#include "core/tape.h"
#include "storage/relation.h"
#include "updates/pending.h"

namespace crackdb {

/// The map set S_A of relation attribute A (paper Section 3.1): all fully
/// materialized cracker maps with head A, the cracker tape T_A, and the
/// per-set deletion map M_A,key (Section 3.5).
///
/// Alignment protocol (Section 3.2): the set snapshots the (A, key) layout
/// at creation; every map starts from that snapshot and advances by
/// replaying tape entries through deterministic operations. Maps whose
/// cursors are equal are positionally aligned. New maps created later also
/// start from the snapshot and replay the whole tape, which reproduces the
/// map-creation-plus-alignment peaks of the paper's Figure 9.
class MapSet {
 public:
  MapSet(const Relation& relation, const std::string& head_attr);

  MapSet(const MapSet&) = delete;
  MapSet& operator=(const MapSet&) = delete;

  const std::string& head_attr() const { return head_attr_; }
  const Relation& relation() const { return *relation_; }

  bool HasMap(const std::string& tail_attr) const;

  /// Returns M_{A,tail_attr}, creating it from the set snapshot (cursor 0,
  /// unaligned) if absent. `created` (optional) reports whether a new map
  /// was materialized.
  CrackerMap& GetOrCreateMap(const std::string& tail_attr,
                             bool* created = nullptr);

  /// Drops a map entirely (storage-restricted operation). The tape keeps
  /// the set's knowledge, so a recreated map re-learns by replay.
  void DropMap(const std::string& tail_attr);

  /// The sideways.select core (Section 3.2 steps 1-8): pulls pending
  /// updates relevant to `pred` into the tape, aligns `map`, cracks it on
  /// `pred` (logging the crack), and returns the contiguous qualifying
  /// area. Tail values of the area are the operator's non-materialized
  /// view.
  PositionRange SidewaysSelect(CrackerMap& map, const RangePredicate& pred);

  /// Replays tape entries from map.cursor() to the tape end.
  void Align(CrackerMap& map);

  /// Replays tape entries up to `target_cursor` only (partial alignment is
  /// a partial-map concept, but full maps reuse the mechanism in tests).
  void AlignTo(CrackerMap& map, size_t target_cursor);

  /// Self-organizing histogram (Section 3.3): estimates how many tuples
  /// match `pred` using the cracker index of the most aligned map of the
  /// set; falls back to [0, n] when the set has no knowledge.
  CrackerIndex::Estimate EstimateMatches(const RangePredicate& pred) const;

  const CrackerTape& tape() const { return tape_; }

  /// Ingests relation-log updates relevant to `pred` as tape entries
  /// (insertions logged directly; deletions resolved to aligned positions
  /// through M_A,key). Exposed for engines that must sync before
  /// estimation.
  void PullUpdates(const RangePredicate& pred);

  /// Total auxiliary tuples held by the set's maps (M_A,key excluded, as
  /// in the paper's storage accounting).
  size_t MapStorageTuples() const;

  std::vector<std::string> MapNames() const;

  /// Number of live rows the snapshot holds (initial map size).
  size_t snapshot_size() const { return snapshot_head_.size(); }

 private:
  Value TailValueForKey(const CrackerMap& map, Key key) const;
  std::unique_ptr<CrackerMap> BuildFromSnapshot(const std::string& tail_attr) const;

  const Relation* relation_;
  std::string head_attr_;
  /// Creation-time (A value, key) pairs of live rows in insertion order —
  /// the deterministic starting state every map replays from.
  std::vector<Value> snapshot_head_;
  std::vector<Key> snapshot_keys_;
  CrackerTape tape_;
  PendingQueue pending_;
  /// M_A,key: resolves deletion keys to aligned positions (Section 3.5).
  std::unique_ptr<CrackerMap> key_map_;
  std::map<std::string, std::unique_ptr<CrackerMap>> maps_;
};

/// Sentinel tail-attribute name of the per-set deletion map.
inline constexpr char kKeyMapAttr[] = "__key__";

}  // namespace crackdb

#endif  // CRACKDB_CORE_MAP_SET_H_
