#include "workloads.h"

#include <algorithm>

#include "bench_util/workload.h"
#include "common/rng.h"

namespace perfbench {

using crackdb::AggregateOp;
using crackdb::RangePredicate;
using crackdb::Rng;
using crackdb::Value;
using crackdb::bench::AttrName;

namespace {

// Why each workload exists is recorded in perfbench/README.md.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    WorkloadSpec qi;
    qi.name = "paper_qi";
    qi.engine = "sideways";
    qi.rows = 2'000'000;  // x 11 attributes x 8 B = 176 MB, above the LLC
    qi.attrs = 11;
    qi.domain = 10'000'000;
    qi.partitions = 16;
    qi.pool_threads = 0;
    qi.reps = 9;
    qi.cold_ops = 1'000;
    qi.steady_cap = 400'000;
    // ~1% of ops' worth of rows in small batches (0.1 written rows per
    // op), issued as two-row batches so write_p99 has enough samples.
    qi.write_share = 0.05;
    qi.batch_rows = 2;
    qi.insert_share = 0.5;
    v.push_back(qi);

    WorkloadSpec drift;
    drift.name = "drift_ingest";
    drift.engine = "partial";
    drift.rows = 1'000'000;  // x 4 attributes x 8 B = 32 MB
    drift.attrs = 4;
    drift.domain = 10'000'000;
    drift.partitions = 16;
    drift.pool_threads = 3;
    drift.adaptive = true;
    drift.reps = 8;
    // Long enough that query work, not the first chunk allocations,
    // dominates the cold phase: with 2000 ops cold_s varied by up to 36%.
    drift.cold_ops = 8'000;
    drift.steady_cap = 400'000;
    // Inserts only: a partition with a deleted row can never be compressed
    // again, and the moving window would leave deletes in every partition.
    drift.write_share = 0.20;
    drift.batch_rows = 8;
    drift.insert_share = 1.0;
    drift.ingest_hot = true;
    v.push_back(drift);
    return v;
  }();
  return specs;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Rng StreamRng(uint64_t seed, uint64_t stream) {
  return Rng(SplitMix(SplitMix(seed) ^ (stream * 0x632BE59BD9B4E019ull)));
}

Value AttrValue(const WorkloadSpec& spec, Rng* rng) {
  return rng->Uniform(1, spec.domain);
}

/// Section 4.2's Qi: A1 range of ~1% AND a ~50% range on Bi = A(1+i),
/// projecting Ci = A(6+i), i in 1..5.
Op PaperQiQuery(const WorkloadSpec& spec, Rng* rng) {
  Op op;
  const uint8_t i = static_cast<uint8_t>(rng->Uniform(1, 5));
  op.head = crackdb::bench::RandomRange(rng, 1, spec.domain, 0.01);
  op.tail_attr = static_cast<uint8_t>(1 + i);
  op.tail = crackdb::bench::RandomRange(rng, 1, spec.domain, 0.50);
  op.out_attr = static_cast<uint8_t>(6 + i);
  const double u = rng->NextDouble();
  op.consume = u < 0.80   ? Consume::kMaterialize
               : u < 0.90 ? Consume::kCount
                          : Consume::kSum;
  return op;
}

/// Ranges of a drifting hotspot. Rows are materialized only inside the
/// hot window; the rest of the domain sees scalar queries, which
/// compressed partitions answer without decompressing.
Op DriftQuery(crackdb::bench::DriftingHotspotGen* gen, Rng* rng) {
  Op op;
  const RangePredicate hot = gen->HotWindow();
  op.head = gen->Next(rng);
  op.out_attr = static_cast<uint8_t>(rng->Uniform(2, 4));
  const bool in_window = op.head.low >= hot.low && op.head.high <= hot.high;
  const double u = rng->NextDouble();
  op.consume = u < 0.30                 ? Consume::kCount
               : u < 0.70 || !in_window ? Consume::kSum
                                        : Consume::kMaterialize;
  return op;
}

/// A workload's query stream; the drifting hotspot keeps its phase clock.
class QueryGen {
 public:
  explicit QueryGen(const WorkloadSpec& spec) : spec_(spec) {
    drift_.domain_lo = 1;
    drift_.domain_hi = spec.domain;
    drift_.queries_per_phase = 4'000;
    // A fifth of the queries land anywhere in the domain, so the
    // compressed partitions the window left behind keep serving some.
    drift_.hot_probability = 0.80;
  }

  Op Next(Rng* rng) {
    if (spec_.name == "paper_qi") return PaperQiQuery(spec_, rng);
    return DriftQuery(&drift_, rng);
  }

  /// The drifting hotspot's current window (where drift_ingest ingests).
  RangePredicate HotWindow() const { return drift_.HotWindow(); }

 private:
  const WorkloadSpec& spec_;
  crackdb::bench::DriftingHotspotGen drift_;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

void FillSource(const WorkloadSpec& spec, uint64_t seed,
                crackdb::Relation* out) {
  for (size_t a = 1; a <= spec.attrs; ++a) out->AddColumn(AttrName(a));
  Rng rng = StreamRng(seed, 0);
  std::vector<Value> row(spec.attrs);
  for (size_t r = 0; r < spec.rows; ++r) {
    for (Value& v : row) v = AttrValue(spec, &rng);
    out->BulkLoadRow(row);
  }
}

ClientInputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed) {
  ClientInputs in;
  Rng rng = StreamRng(seed, 1);
  QueryGen queries(spec);
  const size_t total = spec.cold_ops + spec.steady_cap;
  in.ops.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    if (spec.adaptive && i % kTickEvery == kTickEvery - 1) {
      Op tick;
      tick.kind = Op::Kind::kTick;
      in.ops.push_back(tick);
      continue;
    }
    if (rng.Bernoulli(spec.write_share)) {
      Op w;
      w.kind = Op::Kind::kWrite;
      for (size_t r = 0; r < spec.batch_rows; ++r) {
        ++(rng.Bernoulli(spec.insert_share) ? w.inserts : w.deletes);
      }
      w.insert_row =
          static_cast<uint32_t>(in.insert_values.size() / spec.attrs);
      w.delete_draw = static_cast<uint32_t>(in.delete_draws.size());
      for (size_t r = 0; r < w.inserts; ++r) {
        for (size_t a = 1; a <= spec.attrs; ++a) {
          in.insert_values.push_back(AttrValue(spec, &rng));
        }
        if (spec.ingest_hot) {
          const RangePredicate hot = queries.HotWindow();
          in.insert_values[in.insert_values.size() - spec.attrs] =
              rng.Uniform(hot.low, hot.high);
        }
      }
      for (size_t d = 0; d < w.deletes; ++d) {
        in.delete_draws.push_back(static_cast<uint32_t>(rng.Next()));
      }
      in.ops.push_back(w);
      continue;
    }
    in.ops.push_back(queries.Next(&rng));
  }
  return in;
}

crackdb::Query BuildQuery(const Op& op, bool trace) {
  crackdb::QueryBuilder b(kTable);
  b.Where(AttrName(1), op.head);
  if (op.tail_attr != 0) b.Where(AttrName(op.tail_attr), op.tail);
  const std::string out = AttrName(op.out_attr);
  switch (op.consume) {
    case Consume::kMaterialize:
      b.Project(out);
      break;
    case Consume::kCount:
      b.Count();
      break;
    case Consume::kSum:
      b.Aggregate(AggregateOp::kSum, out);
      break;
  }
  if (trace) b.Trace();
  return b.Build();
}

crackdb::PartitionSpec MakePartitionSpec(const WorkloadSpec& spec) {
  crackdb::PartitionSpec p;
  p.kind = crackdb::PartitionSpec::Kind::kRange;
  p.num_partitions = spec.partitions;
  p.column = AttrName(1);
  p.domain_lo = 1;
  p.domain_hi = spec.domain;
  return p;
}

crackdb::AdaptiveConfig MakeAdaptiveConfig(const WorkloadSpec& spec) {
  crackdb::AdaptiveConfig cfg;
  if (!spec.adaptive) return cfg;
  cfg.enabled = true;
  // Ticks come only from the benchmark's client at fixed op counts: no
  // timer-driven background work.
  cfg.trigger_interval = 0;
  // bench_adaptive_repartition's split settings: split deep under the
  // hotspot. No merges: a merge decompresses both slices, and with merges
  // on, a split or a merge qualified on every tick, so no tick was left to
  // compress a cold partition and none stayed compressed.
  cfg.min_accesses = 64;
  cfg.hot_share = 0.22;
  cfg.cold_share = 0;
  cfg.min_partition_rows = std::max<size_t>(512, spec.rows / 128);
  cfg.max_partitions = 32;
  cfg.cooldown_ticks = 1;
  cfg.decay = 0.5;
  cfg.compression.enabled = true;
  cfg.compression.compress_on_load = true;
  return cfg;
}

}  // namespace perfbench
