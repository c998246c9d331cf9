// Span rollup on synthetic span sets: nesting, siblings, threads, async
// spans and skewed child clocks.

#include <gtest/gtest.h>

#include "rollup.hpp"

using clm::SpanKind;
using clm::SpanRecord;
using perfbench::rollupSpans;
using perfbench::totalsOf;

namespace {

SpanRecord
span(const char *name, uint64_t t0, uint64_t t1, uint32_t tid = 1,
     uint32_t depth = 0, SpanKind kind = SpanKind::Thread)
{
    SpanRecord s;
    s.name = name;
    s.t0_ns = t0;
    s.t1_ns = t1;
    s.tid = tid;
    s.depth = depth;
    s.kind = kind;
    return s;
}

} // namespace

TEST(Rollup, NestedSpansSubtractOnlyDirectChildren)
{
    // batch [0,100) > compute [10,90) > forward [20,50), backward [50,80)
    // Children are recorded before their parents, as laps and RAII
    // spans end first.
    auto r = rollupSpans({span("forward", 20, 50, 1, 2),
                          span("backward", 50, 80, 1, 2),
                          span("compute", 10, 90, 1, 1),
                          span("batch", 0, 100, 1, 0)});
    EXPECT_EQ(totalsOf(r, "batch").total_ns, 100u);
    EXPECT_EQ(totalsOf(r, "batch").self_ns, 20u);
    EXPECT_EQ(totalsOf(r, "compute").self_ns, 20u);
    EXPECT_EQ(totalsOf(r, "forward").self_ns, 30u);
    EXPECT_EQ(totalsOf(r, "backward").self_ns, 30u);
}

TEST(Rollup, SiblingsWithTheSameNameAccumulate)
{
    auto r = rollupSpans({span("step", 0, 10), span("step", 10, 30),
                          span("step", 40, 45)});
    EXPECT_EQ(totalsOf(r, "step").count, 3u);
    EXPECT_EQ(totalsOf(r, "step").total_ns, 35u);
    EXPECT_EQ(totalsOf(r, "step").self_ns, 35u);
}

TEST(Rollup, DepthZeroChildIsNestedByInterval)
{
    // An offload stage timer records depth 0 even inside a depth-0
    // benchmark span: the interval alone decides nesting.
    auto r = rollupSpans({span("stage", 10, 40, 1, 0),
                          span("batch", 0, 50, 1, 0)});
    EXPECT_EQ(totalsOf(r, "batch").self_ns, 20u);
    EXPECT_EQ(totalsOf(r, "stage").self_ns, 30u);
}

TEST(Rollup, OtherThreadsNeverCoverAParent)
{
    auto r = rollupSpans({span("batch", 0, 100, 1),
                          span("gather", 10, 60, 2),
                          span("finalize", 20, 90, 3)});
    EXPECT_EQ(totalsOf(r, "batch").self_ns, 100u);
    EXPECT_EQ(totalsOf(r, "gather").self_ns, 50u);
    EXPECT_EQ(totalsOf(r, "finalize").self_ns, 70u);
}

TEST(Rollup, AsyncSpansNestNothingAndAreNotChildren)
{
    // A queue wait recorded on the worker's ring overlaps the worker's
    // render span but belongs to the request, not to the render.
    auto r = rollupSpans(
        {span("queue_wait", 0, 30, 2, 0, SpanKind::Async),
         span("render", 20, 60, 2),
         span("queue_wait", 25, 70, 2, 0, SpanKind::Async)});
    EXPECT_EQ(totalsOf(r, "render").self_ns, 40u);
    EXPECT_EQ(totalsOf(r, "queue_wait").count, 2u);
    EXPECT_EQ(totalsOf(r, "queue_wait").total_ns, 75u);
    EXPECT_EQ(totalsOf(r, "queue_wait").self_ns, 75u);
}

TEST(Rollup, SkewedChildIsClippedToItsParent)
{
    // A child timed by another clock overruns its parent's end by 5 ns.
    auto r = rollupSpans({span("parent", 0, 100), span("child", 60, 105)});
    EXPECT_EQ(totalsOf(r, "parent").self_ns, 60u);
    EXPECT_EQ(totalsOf(r, "child").self_ns, 45u);
}

TEST(Rollup, SpanStartingInsideAnotherIsItsChild)
{
    // b starts before a ends, so it nests under a (clipped), and only a
    // covers the parent.
    auto r = rollupSpans({span("parent", 0, 100), span("a", 10, 50),
                          span("b", 40, 70)});
    EXPECT_EQ(totalsOf(r, "parent").self_ns, 60u);
    EXPECT_EQ(totalsOf(r, "a").self_ns, 30u);
    EXPECT_EQ(totalsOf(r, "b").self_ns, 30u);
}

TEST(Rollup, MissingNameIsZero)
{
    auto r = rollupSpans({});
    EXPECT_EQ(totalsOf(r, "nothing").count, 0u);
    EXPECT_EQ(totalsOf(r, "nothing").self_ns, 0u);
}
