#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double NowMicros() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSetup:
      return "setup";
    case Phase::kCold:
      return "cold";
    case Phase::kSteady:
      return "steady";
    case Phase::kCheck:
      return "check";
  }
  return "?";
}

uint32_t SpanLog::Add(uint32_t parent, std::string name, uint32_t query,
                      Phase phase, double start, double end) {
  spans_.push_back(Span{parent, query, phase, std::move(name), start, end});
  return static_cast<uint32_t>(spans_.size() - 1);
}

double SpanLog::AddProgramTrace(uint32_t parent,
                              const crackdb::obs::QueryTrace& trace,
                              uint32_t query, Phase phase, double anchor) {
  const std::vector<crackdb::obs::TraceSpan> program = trace.Spans();
  // Program span ids are dense from 0 and parents precede children, so a
  // fixed base maps them into this log.
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  double select_us = 0;
  for (const crackdb::obs::TraceSpan& s : program) {
    std::string name = s.name;
    if (name.rfind("select[", 0) == 0) {
      name = "select";
      select_us += s.duration_micros;
    }
    const uint32_t mapped_parent =
        s.parent == crackdb::obs::TraceSpan::kNoParent ? parent
                                                       : base + s.parent;
    const double start = anchor + s.start_micros;
    spans_.push_back(Span{mapped_parent, query, phase, std::move(name), start,
                          start + s.duration_micros});
  }
  return select_us;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
double UnionWithin(std::vector<std::pair<double, double>>& intervals,
                   double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double cur_lo = 0;
  double cur_hi = -1;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanLog*>& logs, Phase phase) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    // A query's spans are contiguous in the client's log.
    std::map<std::string, uint32_t> last_query;
    const std::vector<Span>& spans = log->spans();
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent != Span::kNoParent) {
        children[s.parent].emplace_back(s.start, s.end);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.phase != phase) continue;
      SpanTotals& t = totals[s.name];
      const double dur = s.end - s.start;
      ++t.count;
      auto [it, fresh] = last_query.try_emplace(s.name, s.query);
      if (fresh || it->second != s.query) {
        ++t.queries;
        it->second = s.query;
      }
      t.total_us += dur;
      t.self_us += dur - UnionWithin(children[i], s.start, s.end);
    }
  }
  return totals;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "log\tindex\tparent\tquery\tphase\tname\tstart_us\t"
               "end_us\n");
  for (size_t c = 0; c < logs.size(); ++c) {
    const std::vector<Span>& spans = logs[c]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%ld\t%u\t%s\t%s\t%.3f\t%.3f\n", c, i,
                   s.parent == Span::kNoParent ? -1L
                                               : static_cast<long>(s.parent),
                   s.query, PhaseName(s.phase), s.name.c_str(), s.start,
                   s.end);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
