// Trace export and analysis over drained TraceData (src/obs/trace.hpp).
//
// Two export formats plus the aggregation the sp_trace CLI prints:
//
//  * Chrome trace-event JSON (chrome://tracing, Perfetto's legacy loader):
//    every span is a complete ("ph":"X") event on its thread's track;
//    span links become flow events ("s"/"f") so a WAL group-commit batch
//    visibly connects to the requests it committed.
//  * Folded stacks (root;child;leaf weight) — the flamegraph.pl /
//    speedscope input format; weights are self-time microseconds.
//  * Phase breakdown: per span-name totals, self-time (duration minus the
//    union of child intervals — the critical-path attribution) and p50,
//    aggregated across traces.
//
// The binary dump format lives in src/codec/trace_records.hpp — the codec
// library can depend on obs, not the other way around.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace sp::obs {

/// Chrome about:tracing JSON for a set of traces ({"traceEvents": [...]}).
/// Timestamps are steady-clock microseconds (self-consistent, not wall).
[[nodiscard]] std::string to_chrome_json(std::span<const TraceData> traces);

/// Folded-stack lines ("sp.request;sp.attempt;sp.access 1234\n"), weights =
/// aggregated self-time in microseconds. Feed to flamegraph.pl / speedscope.
[[nodiscard]] std::string to_folded_stacks(std::span<const TraceData> traces);

/// Aggregated per-phase (per span-name) statistics across traces.
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0;  ///< sum of span durations
  double self_ms = 0;   ///< sum of durations minus child-interval coverage
  double p50_ms = 0;    ///< median span duration
  double max_ms = 0;
};

/// Breakdown sorted by self-time, descending — the critical-path view:
/// self-time is where the wall clock actually went, double counting none of
/// the parent/child overlap.
[[nodiscard]] std::vector<PhaseStat> phase_breakdown(std::span<const TraceData> traces);

/// Indices of the N slowest traces (by root duration), slowest first.
[[nodiscard]] std::vector<std::size_t> slowest_traces(std::span<const TraceData> traces,
                                                      std::size_t n);

/// Human-readable span tree of one trace: indentation = depth, with
/// durations, status and attributes per span.
[[nodiscard]] std::string format_trace_tree(const TraceData& trace);

}  // namespace sp::obs
