#include "rollup.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

namespace {

/** One open span on a thread's stack. */
struct Open
{
    const clm::SpanRecord *span;
    uint64_t covered_ns;    //!< Child time inside this span so far.
};

uint64_t
durationOf(const clm::SpanRecord &s)
{
    return s.t1_ns > s.t0_ns ? s.t1_ns - s.t0_ns : 0;
}

void
closeSpan(const Open &open, Rollup &rollup)
{
    SpanTotals &t = rollup[open.span->name];
    const uint64_t dur = durationOf(*open.span);
    t.count += 1;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, open.covered_ns);
}

} // namespace

Rollup
rollupSpans(const std::vector<clm::SpanRecord> &spans)
{
    Rollup rollup;
    std::unordered_map<uint32_t, std::vector<const clm::SpanRecord *>>
        by_thread;
    for (const clm::SpanRecord &s : spans) {
        if (s.kind == clm::SpanKind::Async) {
            SpanTotals &t = rollup[s.name];
            t.count += 1;
            t.total_ns += durationOf(s);
            t.self_ns += durationOf(s);
        } else {
            by_thread[s.tid].push_back(&s);
        }
    }

    for (auto &entry : by_thread) {
        std::vector<const clm::SpanRecord *> &list = entry.second;
        // Parents before the children they contain: earlier start first,
        // and on equal starts the longer span, then the shallower one.
        std::sort(list.begin(), list.end(),
                  [](const clm::SpanRecord *a, const clm::SpanRecord *b) {
                      if (a->t0_ns != b->t0_ns)
                          return a->t0_ns < b->t0_ns;
                      if (a->t1_ns != b->t1_ns)
                          return a->t1_ns > b->t1_ns;
                      return a->depth < b->depth;
                  });
        std::vector<Open> stack;
        for (const clm::SpanRecord *s : list) {
            while (!stack.empty() && stack.back().span->t1_ns <= s->t0_ns) {
                closeSpan(stack.back(), rollup);
                stack.pop_back();
            }
            // Children of one parent never overlap: a span that starts
            // before the top of the stack ends becomes the top's child.
            if (!stack.empty()) {
                Open &parent = stack.back();
                const uint64_t hi = std::min(s->t1_ns, parent.span->t1_ns);
                if (hi > s->t0_ns)
                    parent.covered_ns += hi - s->t0_ns;
            }
            stack.push_back(Open{s, 0});
        }
        while (!stack.empty()) {
            closeSpan(stack.back(), rollup);
            stack.pop_back();
        }
    }
    return rollup;
}

SpanTotals
totalsOf(const Rollup &rollup, const std::string &name)
{
    auto it = rollup.find(name);
    return it == rollup.end() ? SpanTotals{} : it->second;
}

} // namespace perfbench
