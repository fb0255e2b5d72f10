// crackbench: runs one benchmark workload against the crackdb library in a
// fresh process and prints one JSON object on its last stdout line.
//
//   crackbench --workload paper_qi --seed 1 --seconds 10 [--trace 1]
//              [--spans out.tsv]
//
// Phases: load (RegisterSharded) -> cold (a fixed number of ops on the
// fresh table) -> steady (a closed-loop client for --seconds). Load and
// cold are repeated on fresh databases, before and after the steady phase;
// setup_s and cold_s are the medians. Only library calls are timed; the
// oracle runs after the run. With --trace 1 every query is built with
// Trace() and the per-layer metrics are computed from the spans.
// perfbench/run.py builds this binary and turns its output into the
// benchmark's report.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "engine/database.h"
#include "engine/partial_engine.h"
#include "engine/sideways_engine.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using crackdb::Database;
using crackdb::Key;
using crackdb::TableStats;
using crackdb::WriteOp;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0;
}

/// A check of one query's answer, replayed against the mirror after the
/// run: the answer's digest and how many writes preceded it.
struct PendingCheck {
  uint32_t op = 0;
  size_t writes_before = 0;
  Digest digest;
};

struct Client {
  const ClientInputs* in = nullptr;
  SpanLog log;
  size_t next_op = 0;
  std::vector<Key> delete_pool;
  std::vector<WriteRecord> writes;
  std::vector<PendingCheck> checks;

  uint64_t queries[4] = {};  // per Phase
  uint64_t write_rows = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t failures = 0;
  std::string first_error;

  // Steady-phase samples.
  std::vector<double> query_us;
  std::vector<double> write_us;
  std::vector<double> tick_us;
  // Traced runs: the select time of every steady query, in order, and of
  // the first query after each steady write batch.
  std::vector<double> steady_select;
  std::vector<double> post_write_select;
  double apply_us = 0;
  uint64_t apply_rows = 0;
  bool after_write = false;

  void Fail(const std::string& what) {
    ++failures;
    if (first_error.empty()) first_error = what;
  }
};

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  bool trace = false;
  Phase phase = Phase::kCold;
  size_t op_end = 0;      // ops [next_op, op_end) of the client
  double deadline = 0;    // NowMicros() bound; 0 = none
};

void RunQuery(Database& db, Client& c, const RunConfig& cfg, const Op& op,
              uint32_t qid) {
  crackdb::Query query = BuildQuery(op, cfg.trace);
  const double t0 = NowMicros();
  crackdb::Expected<crackdb::ExecuteResult> r = db.Execute(std::move(query));
  const double t1 = NowMicros();
  ++c.queries[static_cast<int>(cfg.phase)];
  if (!r.ok()) {
    c.Fail("query: " + r.error());
    return;
  }
  const bool steady = cfg.phase == Phase::kSteady;
  if (steady) c.query_us.push_back(t1 - t0);
  if (cfg.trace) {
    const uint32_t span =
        c.log.Add(Span::kNoParent, "execute", qid, cfg.phase, t0, t1);
    double select_us = 0;
    if (r->trace != nullptr) {
      select_us = c.log.AddProgramTrace(span, *r->trace, qid, cfg.phase, t0);
    }
    if (steady) {
      c.steady_select.push_back(select_us);
      if (c.after_write) c.post_write_select.push_back(select_us);
    }
  }
  c.after_write = false;
  const uint64_t n = c.queries[static_cast<int>(Phase::kCold)] +
                     c.queries[static_cast<int>(Phase::kSteady)];
  if (n % kCheckEvery == 0) {
    c.checks.push_back(PendingCheck{qid, c.writes.size(), DigestOf(*r)});
  }
}

void RunWrite(Database& db, Client& c, const RunConfig& cfg, const Op& op,
              uint32_t qid) {
  const size_t attrs = cfg.spec->attrs;
  std::vector<WriteOp> batch;
  batch.reserve(op.inserts + op.deletes);
  for (size_t r = 0; r < op.inserts; ++r) {
    const crackdb::Value* row =
        c.in->insert_values.data() + (op.insert_row + r) * attrs;
    batch.push_back(WriteOp::MakeInsert(std::vector<crackdb::Value>(
        row, row + attrs)));
  }
  for (size_t d = 0; d < op.deletes && !c.delete_pool.empty(); ++d) {
    const size_t i = c.in->delete_draws[op.delete_draw + d] %
                     c.delete_pool.size();
    batch.push_back(WriteOp::MakeDelete(c.delete_pool[i]));
    c.delete_pool[i] = c.delete_pool.back();
    c.delete_pool.pop_back();
  }
  const double t0 = NowMicros();
  const std::vector<crackdb::WriteOutcome> out =
      db.ApplyBatch(kTable, batch);
  const double t1 = NowMicros();
  c.write_rows += batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    const bool insert = batch[i].kind == WriteOp::Kind::kInsert;
    if (!out[i].ok) {
      c.Fail(insert ? "insert refused" : "delete of a live key refused");
      continue;
    }
    if (insert) {
      c.delete_pool.push_back(out[i].key);
      c.writes.push_back(WriteRecord{true, out[i].key,
                                     static_cast<uint32_t>(op.insert_row + i)});
      ++c.inserts;
    } else {
      c.writes.push_back(WriteRecord{false, batch[i].key, 0});
      ++c.deletes;
    }
  }
  if (cfg.phase == Phase::kSteady) {
    c.write_us.push_back(t1 - t0);
    if (cfg.trace) {
      c.apply_us += t1 - t0;
      c.apply_rows += batch.size();
    }
  }
  if (cfg.trace) {
    c.log.Add(Span::kNoParent, "apply_batch", qid, cfg.phase, t0, t1);
  }
  c.after_write = true;
}

void RunTick(Database& db, Client& c, const RunConfig& cfg, uint32_t qid) {
  const double t0 = NowMicros();
  db.MaybeRepartition(kTable);
  const double t1 = NowMicros();
  if (cfg.phase == Phase::kSteady) c.tick_us.push_back(t1 - t0);
  if (cfg.trace) c.log.Add(Span::kNoParent, "tick", qid, cfg.phase, t0, t1);
}

void RunClient(Database& db, Client& c, const RunConfig& cfg) {
  const size_t end = std::min(cfg.op_end, c.in->ops.size());
  while (c.next_op < end) {
    if (cfg.deadline > 0 && NowMicros() >= cfg.deadline) break;
    const uint32_t qid = static_cast<uint32_t>(c.next_op);
    const Op& op = c.in->ops[c.next_op++];
    switch (op.kind) {
      case Op::Kind::kQuery:
        RunQuery(db, c, cfg, op, qid);
        break;
      case Op::Kind::kWrite:
        RunWrite(db, c, cfg, op, qid);
        break;
      case Op::Kind::kTick:
        RunTick(db, c, cfg, qid);
        break;
    }
  }
}

/// Runs the client over its ops up to cfg.op_end (or the deadline) on the
/// calling thread; returns the phase's wall time in seconds.
double RunPhase(Database& db, Client& c, const RunConfig& cfg) {
  const double start = NowMicros();
  RunClient(db, c, cfg);
  return (NowMicros() - start) / 1e6;
}

using Registry = std::map<std::string, double>;

/// Table stats (which also flushes the engine's deferred metric tallies
/// into the registry), then a registry snapshot into `registry` if given.
TableStats Snapshot(Database& db, SpanLog& log, Phase phase,
                    Registry* registry) {
  const double t0 = NowMicros();
  TableStats stats = db.Stats(kTable);
  log.Add(Span::kNoParent, "stats", 0, phase, t0, NowMicros());
  if (registry == nullptr) return stats;
  registry->clear();
  for (const crackdb::obs::MetricSample& m :
       crackdb::obs::MetricsRegistry::Global().Snapshot()) {
    (*registry)[m.name] = m.value;
  }
  return stats;
}

double Delta(const Registry& before, const Registry& after,
             const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Auxiliary tuples held by the cracking structures of every partition.
size_t AuxTuples(Database& db) {
  crackdb::ShardedEngine& sharded = db.engine(kTable);
  size_t total = 0;
  for (size_t i = 0; i < sharded.num_partitions(); ++i) {
    crackdb::Engine& e = sharded.partition_engine(i);
    if (auto* s = dynamic_cast<crackdb::SidewaysEngine*>(&e)) {
      total += s->MapStorageTuples();
    } else if (auto* p = dynamic_cast<crackdb::PartialSidewaysEngine*>(&e)) {
      total += p->ChunkStorageTuples();
    }
  }
  return total;
}

/// Replays the client's write log into the mirror and compares every
/// recorded answer at its position in the op sequence.
uint64_t ReplayCheck(const crackdb::Relation& source, const Client& c,
                     size_t final_live_rows, uint64_t* attempted) {
  Mirror mirror(source);
  uint64_t mismatches = 0;
  size_t applied = 0;
  auto apply_until = [&](size_t n) {
    for (; applied < n; ++applied) {
      if (!mirror.Apply(c.writes[applied], *c.in)) ++mismatches;
    }
  };
  for (const PendingCheck& check : c.checks) {
    apply_until(check.writes_before);
    ++*attempted;
    if (!(mirror.Answer(BuildQuery(c.in->ops[check.op], false)) ==
          check.digest)) {
      ++mismatches;
    }
  }
  apply_until(c.writes.size());
  ++*attempted;
  if (mirror.live_rows() != final_live_rows) ++mismatches;
  return mismatches;
}

/// Samples strictly above the p99 that crackdb::Summarize reports (its
/// nearest rank is round(0.99 n)).
size_t BeyondP99(size_t n) {
  if (n == 0) return 0;
  const size_t rank = static_cast<size_t>(0.99 * static_cast<double>(n) + 0.5);
  return n - std::clamp<size_t>(rank, 1, n);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Flat JSON object builder.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + JsonString(key) + ":" + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// What the steady phase left behind, for the per-layer metrics.
struct SteadyEnd {
  TableStats stats;
  Registry before;  // the registry at the start of the steady phase ...
  Registry after;   // ... and at its end
  size_t aux_tuples = 0;
};

using Totals = std::map<std::string, SpanTotals>;

SpanTotals Find(const Totals& totals, const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Self time per steady query and share of the bench execute time, per
/// span name.
JsonObject SpanTable(const Totals& steady, uint64_t queries) {
  const double execute = Find(steady, "execute").total_us;
  JsonObject table;
  for (const auto& [name, t] : steady) {
    JsonObject row;
    row.Num("count", static_cast<double>(t.count))
        .Num("queries", static_cast<double>(t.queries))
        .Num("us_per_query", Ratio(t.self_us, static_cast<double>(queries)))
        .Num("share", Ratio(t.self_us, execute));
    table.Raw(name, row.Json());
  }
  return table;
}

/// Steady-phase deltas of the registry's counters that moved.
JsonObject CounterDeltas(const SteadyEnd& end) {
  JsonObject counters;
  for (const auto& [name, value] : end.after) {
    const double d = Delta(end.before, end.after, name);
    const bool counter = name.size() > 6 &&
                         name.compare(name.size() - 6, 6, "_total") == 0;
    if (counter && d != 0) counters.Num(name, d);
  }
  return counters;
}

/// The per-layer metrics of a traced run (perfbench/README.md defines
/// each). A metric that does not apply to this workload is left out, and
/// `na` receives the reason.
JsonObject LayerMetrics(const WorkloadSpec& spec, const Client& c,
                        const Totals& steady, const Totals& cold,
                        const SteadyEnd& end, JsonObject* na) {
  // Growth: mean select time of the last tenth of the steady queries over
  // that of the first tenth.
  const std::vector<double>& selects = c.steady_select;
  const size_t tenth = selects.size() / 10;
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < tenth; ++i) {
    first += selects[i];
    last += selects[selects.size() - 1 - i];
  }

  auto self = [&steady](const char* name) {
    return Find(steady, name).self_us;
  };
  auto delta = [&end](const char* name) {
    return Delta(end.before, end.after, name);
  };
  const double nq = static_cast<double>(selects.size());
  const double pruned = delta("engine_partitions_pruned_total");
  const double subqueries = delta("engine_subqueries_total");
  const double actions = delta("adaptive_splits_total") +
                         delta("adaptive_merges_total") +
                         delta("adaptive_compressions_total") +
                         delta("adaptive_decompressions_total");
  const SpanTotals decompress = Find(steady, "decompress");
  const double cold_queries =
      static_cast<double>(c.queries[static_cast<int>(Phase::kCold)]);

  JsonObject m;
  m.Num("engine.execute_us", Ratio(Find(steady, "execute").total_us, nq))
      .Num("engine.admission_us", Ratio(self("admission"), nq))
      .Num("engine.fetch_us", Ratio(self("fetch") + self("visit"), nq))
      .Num("engine.merge_us", Ratio(self("merge"), nq))
      .Num("engine.partitions_per_query",
           Ratio(static_cast<double>(Find(steady, "partition").count), nq))
      .Num("engine.pruned_share", Ratio(pruned, pruned + subqueries))
      .Num("core.select_us", Ratio(self("select"), nq))
      .Num("core.cold_select_us",
           Ratio(Find(cold, "select").self_us, cold_queries))
      .Num("core.select_growth", Ratio(last, first))
      .Num("core.aux_tuples_per_row",
           Ratio(static_cast<double>(end.aux_tuples),
                 static_cast<double>(end.stats.live_rows)))
      .Num("kernels.fold_us", Ratio(self("fold"), nq))
      .Num("updates.apply_us_per_row",
           Ratio(c.apply_us, static_cast<double>(c.apply_rows)))
      .Num("obs.query_span_coverage",
           Ratio(Find(steady, "query").total_us,
                 Find(steady, "execute").total_us));

  const char* one_client =
      "one client: no other thread takes a partition lock (the pool's "
      "workers serve different partitions of the same query)";
  na->Str("engine.lock_wait_us", one_client)
      .Str("engine.lock_wait_share", one_client);
  if (c.post_write_select.empty()) {
    na->Str("updates.post_write_select_us",
            "no write batch in the steady phase");
  } else {
    m.Num("updates.post_write_select_us",
          crackdb::Summarize(c.post_write_select).mean);
  }
  if (spec.pool_threads == 0) {
    na->Str("common.queue_wait_us",
            "no pool: partitions run inline, and a queue_wait span only "
            "covers the earlier partitions of the same query")
        .Str("common.steal_ratio", "no pool");
  } else {
    m.Num("common.queue_wait_us", Ratio(self("queue_wait"), nq))
        .Num("common.steal_ratio",
             Ratio(delta("pool_steals_total"), delta("pool_tasks_total")));
  }
  if (!spec.adaptive) {
    for (const char* name :
         {"adaptive.tick_us", "adaptive.actions", "adaptive.action_ratio"}) {
      na->Str(name, "adaptivity off: no ticks");
    }
    for (const char* name :
         {"storage.encoded_fold_us", "storage.encoded_share",
          "storage.compressed_partitions", "storage.decompress_us"}) {
      na->Str(name, "compression off");
    }
    return m;
  }
  m.Num("adaptive.tick_us", crackdb::Summarize(c.tick_us).mean)
      .Num("adaptive.actions", actions)
      .Num("adaptive.action_ratio",
           Ratio(actions, static_cast<double>(c.tick_us.size())))
      .Num("storage.encoded_fold_us", Ratio(self("encoded_fold"), nq))
      .Num("storage.encoded_share",
           Ratio(delta("engine_encoded_subqueries_total"), subqueries))
      .Num("storage.compressed_partitions",
           static_cast<double>(end.stats.compressed_partitions));
  if (decompress.queries == 0) {
    na->Str("storage.decompress_us", "no query decompressed a partition");
  } else {
    m.Num("storage.decompress_us",
          Ratio(decompress.self_us, static_cast<double>(decompress.queries)));
  }
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: crackbench --workload <name> --seed <n> --seconds "
                 "<s> [--trace 0|1] [--spans <file>]\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  // Freed memory stays in the heap, so every registration after the first
  // reuses pages that are already mapped: setup_s measures the copy into
  // the partitions, not ~40k first-touch page faults per registration.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  // --- Inputs, generated before any timing. ---
  crackdb::Relation source(kTable);
  FillSource(spec, args.seed, &source);
  const ClientInputs inputs = GenerateInputs(spec, args.seed);
  std::vector<Key> initial_keys;
  if (spec.insert_share < 1) {
    for (Key k = 0; k < spec.rows; ++k) initial_keys.push_back(k);
  }
  SpanLog main_log;
  uint64_t attempted = 0;
  uint64_t earlier_failures = 0;

  // --- Load + cold on a fresh database: setup_s is the median
  // RegisterSharded time, cold_s the median wall time of a fixed number of
  // ops on the freshly registered table (the adaptation cost). ---
  crackdb::DatabaseOptions options;
  options.pool_threads = spec.pool_threads;
  RunConfig cfg;
  cfg.spec = &spec;
  cfg.trace = args.trace;
  cfg.phase = Phase::kCold;
  cfg.op_end = spec.cold_ops;
  std::vector<double> setup_s;
  std::vector<double> cold_s;
  auto load_and_cold = [&](Client* c) {
    *c = Client{};
    c->in = &inputs;
    c->delete_pool = initial_keys;
    auto db = std::make_unique<Database>(options);
    const double t0 = NowMicros();
    db->RegisterSharded(kTable, source, MakePartitionSpec(spec), spec.engine,
                        MakeAdaptiveConfig(spec));
    const double t1 = NowMicros();
    main_log.Add(Span::kNoParent, "register", 0, Phase::kSetup, t0, t1);
    setup_s.push_back((t1 - t0) / 1e6);
    cold_s.push_back(RunPhase(*db, *c, cfg));
    return db;
  };
  // Counts the ops of a repetition that does not go on to the steady phase.
  auto tally = [&](const Client& c) {
    attempted += c.queries[static_cast<int>(Phase::kCold)] + c.write_rows;
    earlier_failures += c.failures;
  };
  const size_t reps_before = spec.reps - spec.reps / 2;
  std::unique_ptr<Database> db;
  Client client;
  for (size_t r = 0; r < reps_before; ++r) {
    if (db != nullptr) tally(client);
    db.reset();
    db = load_and_cold(&client);
  }

  // --- Steady: the closed-loop client for --seconds. ---
  SteadyEnd end;
  Snapshot(*db, main_log, Phase::kSteady, &end.before);
  cfg.phase = Phase::kSteady;
  cfg.op_end = spec.cold_ops + spec.steady_cap;
  cfg.deadline = NowMicros() + args.seconds * 1e6;
  const double steady_s = RunPhase(*db, client, cfg);
  const bool exhausted = client.next_op >= inputs.ops.size();
  end.stats = Snapshot(*db, main_log, Phase::kSteady, &end.after);
  const double peak_rss_mb = PeakRssMb();
  end.aux_tuples = AuxTuples(*db);
  const TableStats& stats = end.stats;
  db.reset();

  // --- The remaining load + cold repetitions. ---
  cfg.phase = Phase::kCold;
  cfg.op_end = spec.cold_ops;
  cfg.deadline = 0;
  for (size_t r = reps_before; r < spec.reps; ++r) {
    Client extra;
    load_and_cold(&extra);
    tally(extra);
  }

  // --- Verification, outside every timed region. ---
  uint64_t mismatches = 0;
  ++attempted;
  if (stats.live_rows != spec.rows + client.inserts - client.deletes) {
    ++mismatches;
  }
  mismatches += ReplayCheck(source, client, stats.live_rows, &attempted);

  // --- End-to-end metrics. ---
  const uint64_t steady_queries =
      client.queries[static_cast<int>(Phase::kSteady)];
  const uint64_t cold_queries = client.queries[static_cast<int>(Phase::kCold)];
  attempted += cold_queries + steady_queries + client.write_rows;
  const uint64_t failures = client.failures + mismatches + earlier_failures;
  const crackdb::SeriesSummary q = crackdb::Summarize(client.query_us);
  const crackdb::SeriesSummary w = crackdb::Summarize(client.write_us);
  const crackdb::SeriesSummary setup = crackdb::Summarize(setup_s);
  const crackdb::SeriesSummary cold = crackdb::Summarize(cold_s);

  JsonObject e2e;
  e2e.Num("setup_s", setup.median)
      .Num("cold_s", cold.median)
      .Num("qps", static_cast<double>(steady_queries) / steady_s)
      .Num("query_p50_us", q.median)
      .Num("query_p99_us", q.p99)
      .Num("write_p50_us", w.median)
      .Num("write_p99_us", w.p99)
      .Num("peak_rss_mb", peak_rss_mb)
      .Num("bytes_per_row", stats.bytes_per_row)
      .Num("error_rate", static_cast<double>(failures) /
                             static_cast<double>(attempted));

  JsonObject samples;
  samples.Num("query", static_cast<double>(q.count))
      .Num("query_beyond_p99", static_cast<double>(BeyondP99(q.count)))
      .Num("write", static_cast<double>(w.count))
      .Num("write_beyond_p99", static_cast<double>(BeyondP99(w.count)))
      .Num("reps", static_cast<double>(setup.count))
      .Num("setup_min_s", setup.min)
      .Num("setup_max_s", setup.max)
      .Num("cold_min_s", cold.min)
      .Num("cold_max_s", cold.max)
      .Num("cold_queries", static_cast<double>(cold_queries));

  JsonObject info;
  info.Num("steady_s", steady_s)
      .Num("steady_ops_exhausted", exhausted ? 1 : 0)
      .Num("partitions_final", static_cast<double>(stats.partitions))
      .Num("live_rows", static_cast<double>(stats.live_rows))
      .Num("inserts", static_cast<double>(client.inserts))
      .Num("deletes", static_cast<double>(client.deletes))
      .Num("mismatches", static_cast<double>(mismatches))
      .Str("first_error", client.first_error);

  JsonObject out;
  out.Str("workload", spec.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("trace", args.trace ? 1 : 0)
      .Raw("correct", failures == 0 ? "true" : "false")
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failures))
      .Raw("metrics", e2e.Json())
      .Raw("samples", samples.Json())
      .Raw("info", info.Json());
  if (args.trace) {
    const std::vector<const SpanLog*> logs{&main_log, &client.log};
    const Totals steady_spans = TotalsByName(logs, Phase::kSteady);
    const Totals cold_spans = TotalsByName(logs, Phase::kCold);
    JsonObject na;
    const JsonObject layers =
        LayerMetrics(spec, client, steady_spans, cold_spans, end, &na);
    out.Raw("layers", layers.Json())
        .Raw("na", na.Json())
        .Raw("spans", SpanTable(steady_spans, steady_queries).Json())
        .Raw("counters", CounterDeltas(end).Json());
    if (!args.spans_path.empty() && !WriteSpans(args.spans_path, logs)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_path.c_str());
      return 1;
    }
  }
  std::printf("%s\n", out.Json().c_str());
  if (!client.first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", client.first_error.c_str());
  }
  return failures == 0 ? 0 : 1;
}
}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
