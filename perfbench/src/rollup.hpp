/**
 * @file
 * Per-span-name rollup of a tracer snapshot: count, total time and self
 * time, where self time is a span's duration minus the part of it that
 * child spans on the same thread cover. Async spans (a request's queue
 * wait, begun on the submitting thread and ended on a worker) nest under
 * nothing and have no children: their self time equals their total.
 */

#ifndef CLM_PERFBENCH_ROLLUP_HPP
#define CLM_PERFBENCH_ROLLUP_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/** Aggregate of every span sharing one name. */
struct SpanTotals
{
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
};

/** Span name -> totals. */
using Rollup = std::map<std::string, SpanTotals>;

/**
 * Roll up @p spans (as Tracer::snapshotSpans() returns them). Nesting is
 * recovered from intervals, not from SpanRecord::depth, because some
 * program spans (the offload stage timers) are recorded at depth 0
 * whatever encloses them: on one thread, a span that starts inside an
 * open span is its child, and a child's coverage is clipped to its
 * parent's interval, so clock skew between a parent and a child that
 * were timed by different clocks cannot make self time negative.
 */
Rollup rollupSpans(const std::vector<clm::SpanRecord> &spans);

/** Totals for @p name, or zeros when no such span was recorded. */
SpanTotals totalsOf(const Rollup &rollup, const std::string &name);

} // namespace perfbench

#endif // CLM_PERFBENCH_ROLLUP_HPP
