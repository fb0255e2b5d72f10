// The benchmark's workloads and their seeded input generators.
// Every input (query ranges, insert rows, delete choices, tick positions)
// is generated from the seed before any timing starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "adaptive/adaptive_config.h"
#include "common/types.h"
#include "engine/query.h"
#include "storage/partitioner.h"
#include "storage/relation.h"

namespace perfbench {

/// Query terminal of one op.
enum class Consume : uint8_t { kMaterialize, kCount, kSum };

struct Op {
  enum class Kind : uint8_t { kQuery, kWrite, kTick };

  Kind kind = Kind::kQuery;
  Consume consume = Consume::kCount;
  uint8_t tail_attr = 0;   // 1-based attribute of a second selection, 0 = none
  uint8_t out_attr = 0;    // 1-based projected / folded attribute
  uint16_t inserts = 0;    // kWrite: rows appended ...
  uint16_t deletes = 0;    // ... and rows deleted, in that order
  uint32_t insert_row = 0;   // first row in ClientInputs::insert_values
  uint32_t delete_draw = 0;  // first draw in ClientInputs::delete_draws
  crackdb::RangePredicate head;  // on A1, the organizing attribute
  crackdb::RangePredicate tail;  // on A<tail_attr>
};

/// The client's pre-generated inputs.
struct ClientInputs {
  std::vector<Op> ops;  // the cold ops, then the steady ops
  std::vector<crackdb::Value> insert_values;  // num_attrs values per row
  std::vector<uint32_t> delete_draws;
};

struct WorkloadSpec {
  std::string name;
  std::string engine;
  size_t rows = 0;
  size_t attrs = 0;
  crackdb::Value domain = 0;
  size_t partitions = 0;
  size_t pool_threads = 0;
  bool adaptive = false;
  /// Fresh registrations, each followed by a cold phase; setup_s and
  /// cold_s are their medians. The first reps - reps / 2 run before the
  /// steady phase (the last of them goes on into it), the rest after it,
  /// so that one stretch of machine noise does not cover all of them.
  size_t reps = 1;
  /// Ops per client in the cold phase, and the cap on steady ops.
  size_t cold_ops = 0;
  size_t steady_cap = 0;
  /// Share of ops that are ApplyBatch writes; each batch has batch_rows
  /// rows, each an insert with probability insert_share, else a delete of
  /// a live row.
  double write_share = 0;
  uint16_t batch_rows = 0;
  double insert_share = 0;
  /// Ingest: inserts land in the current hot window, so cold partitions
  /// see no writes.
  bool ingest_hot = false;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The table every workload serves.
inline constexpr const char* kTable = "R";

/// Every k-th query's answer is checked.
inline constexpr size_t kCheckEvery = 97;

/// Adaptive workloads: a MaybeRepartition tick every k-th op.
inline constexpr size_t kTickEvery = 1'024;

/// The source relation: A1..A<attrs>, uniform in [1, domain].
void FillSource(const WorkloadSpec& spec, uint64_t seed,
                crackdb::Relation* out);

ClientInputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed);

crackdb::Query BuildQuery(const Op& op, bool trace);

crackdb::PartitionSpec MakePartitionSpec(const WorkloadSpec& spec);
crackdb::AdaptiveConfig MakeAdaptiveConfig(const WorkloadSpec& spec);

}  // namespace perfbench
