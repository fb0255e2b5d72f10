// The benchmark's own span recorder. The client and the set-up code each
// own one SpanLog; the benchmark opens a span around every call it makes
// into the library (RegisterSharded, Execute, ApplyBatch,
// MaybeRepartition, Stats) and, for a traced query, copies the program's
// QueryTrace under its Execute span.
// Spans stay in memory until the run ends; the analysis below derives
// self times (duration minus the union of the children's intervals).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Micros since the process's first call (steady clock).
double NowMicros();

enum class Phase : uint8_t { kSetup = 0, kCold = 1, kSteady = 2, kCheck = 3 };

const char* PhaseName(Phase phase);

struct Span {
  static constexpr uint32_t kNoParent = 0xffffffffu;

  uint32_t parent = kNoParent;  // index into the same log
  uint32_t query = 0;           // the client's op sequence number
  Phase phase = Phase::kSetup;
  std::string name;
  double start = 0;  // NowMicros() timeline
  double end = 0;
};

class SpanLog {
 public:
  uint32_t Add(uint32_t parent, std::string name, uint32_t query, Phase phase,
               double start, double end);

  /// Copies `trace` under bench span `parent`. The program's timeline is
  /// relative to its own epoch, taken inside Execute after validation; it
  /// is anchored at `anchor` (the bench span's start), so the copied tree
  /// lies inside the bench span. "select[<engine>]" becomes "select".
  /// Returns the summed duration of the copied select spans.
  double AddProgramTrace(uint32_t parent, const crackdb::obs::QueryTrace& trace,
                       uint32_t query, Phase phase, double anchor);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct SpanTotals {
  size_t count = 0;
  size_t queries = 0;   // distinct queries with at least one such span
  double total_us = 0;  // summed durations
  double self_us = 0;   // summed self times
};

/// Per span name, over the spans of `phase` in all logs.
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanLog*>& logs, Phase phase);

/// Writes every span as one tab-separated line: log (its position in
/// `logs`), index, parent, query, phase, name, start_us, end_us.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
