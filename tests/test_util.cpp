/**
 * @file
 * Tests for the util layer: logging error paths, the table printer, the
 * timer, image file output, the thread pool, and the blocking MPMC
 * queue behind the render service.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <cstdlib>

#include "render/image.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/mpmc_queue.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace clm {
namespace {

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(CLM_PANIC("boom ", 42), std::logic_error);
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(CLM_FATAL("bad config"), std::runtime_error);
}

TEST(Logging, AssertPassesAndFails)
{
    CLM_ASSERT(1 + 1 == 2, "fine");
    EXPECT_THROW(CLM_ASSERT(false, "value was ", 7), std::logic_error);
}

TEST(Logging, LevelsAreSettable)
{
    LogLevel old_level = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    warn("suppressed");    // must not crash
    inform("suppressed");
    setLogLevel(old_level);
}

TEST(Table, PrintsAlignedMarkdown)
{
    Table t({"A", "Long header"});
    t.addRow({"1", "x"});
    t.addRow({"22", "yy"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("| A "), std::string::npos);
    EXPECT_NE(s.find("Long header"), std::string::npos);
    // Header + separator + 2 rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsWrongArity)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), std::logic_error);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
    EXPECT_EQ(Table::fmtBytes(1024.0), "1.00 KB");
    EXPECT_EQ(Table::fmtBytes(1536.0 * 1024 * 1024), "1.50 GB");
}

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    double ms = t.millis();
    EXPECT_GE(ms, 10.0);
    EXPECT_LT(ms, 2000.0);
    t.reset();
    EXPECT_LT(t.millis(), 10.0);
}

TEST(Image, PpmRoundTripHeader)
{
    Image img(4, 3, {1.0f, 0.0f, 0.5f});
    std::string path = "/tmp/clm_test_img.ppm";
    img.writePpm(path);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char magic[3] = {};
    ASSERT_EQ(std::fscanf(f, "%2s", magic), 1);
    EXPECT_STREQ(magic, "P6");
    int w = 0, h = 0, maxv = 0;
    ASSERT_EQ(std::fscanf(f, "%d %d %d", &w, &h, &maxv), 3);
    EXPECT_EQ(w, 4);
    EXPECT_EQ(h, 3);
    EXPECT_EQ(maxv, 255);
    std::fgetc(f);    // newline
    // First pixel: clamped bytes 255, 0, 127|128.
    int r = std::fgetc(f), g = std::fgetc(f), b = std::fgetc(f);
    EXPECT_EQ(r, 255);
    EXPECT_EQ(g, 0);
    EXPECT_NEAR(b, 128, 1);
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(Env, IntParsesClampsAndRejectsGarbage)
{
    // The one shared env-parsing policy (util/env.hpp): unset -> the
    // fallback, numbers clamp into range, garbage warns and falls back
    // instead of silently turning into 0.
    ASSERT_EQ(unsetenv("CLM_TEST_ENV"), 0);
    EXPECT_EQ(envInt("CLM_TEST_ENV", 7, 1, 100), 7);
    ASSERT_EQ(setenv("CLM_TEST_ENV", "42", 1), 0);
    EXPECT_EQ(envInt("CLM_TEST_ENV", 7, 1, 100), 42);
    ASSERT_EQ(setenv("CLM_TEST_ENV", "-5", 1), 0);
    EXPECT_EQ(envInt("CLM_TEST_ENV", 7, 1, 100), 1);    // clamp low
    ASSERT_EQ(setenv("CLM_TEST_ENV", "4096", 1), 0);
    EXPECT_EQ(envInt("CLM_TEST_ENV", 7, 1, 100), 100);    // clamp high
    // strtol-style leading whitespace is tolerated.
    ASSERT_EQ(setenv("CLM_TEST_ENV", " 3", 1), 0);
    EXPECT_EQ(envInt("CLM_TEST_ENV", 7, 1, 100), 3);
    for (const char *garbage :
         {"", "abc", "12abc", "1.5", "999999999999999999999"}) {
        ASSERT_EQ(setenv("CLM_TEST_ENV", garbage, 1), 0);
        EXPECT_EQ(envInt("CLM_TEST_ENV", 7, 1, 100), 7)
            << "value \"" << garbage << "\"";
    }
    ASSERT_EQ(unsetenv("CLM_TEST_ENV"), 0);
}

TEST(Env, ChoiceMatchesExactlyOrFallsBack)
{
    static const char *const kChoices[] = {"avx2", "sse2", "scalar"};
    ASSERT_EQ(unsetenv("CLM_TEST_ENV"), 0);
    EXPECT_EQ(envChoice("CLM_TEST_ENV", kChoices, 3, nullptr), nullptr);
    ASSERT_EQ(setenv("CLM_TEST_ENV", "sse2", 1), 0);
    // Matches return the canonical table pointer (pointer identity).
    EXPECT_EQ(envChoice("CLM_TEST_ENV", kChoices, 3, nullptr),
              kChoices[1]);
    for (const char *garbage : {"SSE2", "sse", "sse2 ", "", "banana"}) {
        ASSERT_EQ(setenv("CLM_TEST_ENV", garbage, 1), 0);
        EXPECT_EQ(envChoice("CLM_TEST_ENV", kChoices, 3, kChoices[2]),
                  kChoices[2])
            << "value \"" << garbage << "\"";
    }
    ASSERT_EQ(unsetenv("CLM_TEST_ENV"), 0);
}

TEST(ThreadPool, ClmThreadsEnvPinsDefaultWorkerCount)
{
    // CLM_THREADS pins the default (threads == 0) pool size through
    // util/env.hpp: numeric values clamp into [1, 1024], garbage warns
    // and falls back to hardware concurrency, unset falls back
    // silently. Local pools read the env at construction, exactly
    // like the lazily-constructed global() pool does.
    ASSERT_EQ(setenv("CLM_THREADS", "3", 1), 0);
    {
        ThreadPool pool;
        EXPECT_EQ(pool.threads(), 3u);
    }
    ASSERT_EQ(setenv("CLM_THREADS", "0", 1), 0);
    {
        ThreadPool pool;
        EXPECT_EQ(pool.threads(), 1u);    // clamped to >= 1
    }
    ASSERT_EQ(setenv("CLM_THREADS", "-4", 1), 0);
    {
        ThreadPool pool;
        EXPECT_EQ(pool.threads(), 1u);
    }
    ASSERT_EQ(unsetenv("CLM_THREADS"), 0);
    {
        ThreadPool pool;
        EXPECT_GE(pool.threads(), 1u);
    }
    // Garbage warns and falls back to hardware concurrency, the same
    // count an unset variable selects.
    ASSERT_EQ(setenv("CLM_THREADS", "lots", 1), 0);
    {
        ThreadPool pool;
        EXPECT_EQ(pool.threads(),
                  std::max(1u, std::thread::hardware_concurrency()));
    }
    // An explicit count always wins over the environment.
    ASSERT_EQ(setenv("CLM_THREADS", "5", 1), 0);
    {
        ThreadPool pool(2);
        EXPECT_EQ(pool.threads(), 2u);
    }
    ASSERT_EQ(unsetenv("CLM_THREADS"), 0);
}

TEST(ThreadPool, ZeroBytesClearsExactlyTheRange)
{
    // Below, at and above the parallel threshold, with a partial last
    // page and an unaligned start; guard bytes on both sides stay.
    for (size_t bytes : {size_t(0), size_t(1), size_t(4095),
                         kParallelZeroBytes - 1, kParallelZeroBytes,
                         kParallelZeroBytes + 4097,
                         3 * kParallelZeroBytes + 123}) {
        std::vector<unsigned char> buf(bytes + 2, 0xAB);
        zeroBytes(buf.data() + 1, bytes);
        EXPECT_EQ(buf.front(), 0xAB) << bytes;
        EXPECT_EQ(buf.back(), 0xAB) << bytes;
        EXPECT_TRUE(std::all_of(buf.begin() + 1, buf.end() - 1,
                                [](unsigned char c) { return c == 0; }))
            << bytes;
    }
}

TEST(ThreadPool, ZeroBytesInsidePoolTaskRunsSerially)
{
    // From a pool task zeroBytes must not fork onto the pool it runs
    // in; every task finishes and clears its own buffer.
    EXPECT_FALSE(ThreadPool::onWorkerThread());
    const size_t tasks = 2 * ThreadPool::global().threads();
    std::vector<std::vector<unsigned char>> bufs(
        tasks, std::vector<unsigned char>(2 * kParallelZeroBytes, 0xCD));
    std::atomic<size_t> on_worker{0};
    ThreadPool::global().parallelFor(tasks, [&](size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
            if (ThreadPool::onWorkerThread())
                ++on_worker;
            zeroBytes(bufs[t].data(), bufs[t].size());
        }
    });
    if (tasks > 1) {
        EXPECT_EQ(on_worker.load(), tasks);
    }
    for (const auto &b : bufs)
        EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                                [](unsigned char c) { return c == 0; }));
}

TEST(ThreadPool, ConcurrentParallelForCallersDoNotWaitOnEachOther)
{
    // Caller A's chunks block until caller B's parallelFor has returned.
    // B must return as soon as its own chunks are done; a pool-wide
    // "nothing in flight" wait would hold B behind A's blocked chunks
    // until A's bounded wait times out.
    ThreadPool pool(4);
    std::mutex m;
    std::condition_variable cv;
    int a_started = 0;
    bool b_returned = false;
    bool a_saw_b_return = true;

    std::thread a([&] {
        pool.parallelFor(2, [&](size_t, size_t) {
            std::unique_lock<std::mutex> lock(m);
            ++a_started;
            cv.notify_all();
            if (!cv.wait_for(lock, std::chrono::seconds(2),
                             [&] { return b_returned; }))
                a_saw_b_return = false;
        });
    });
    {
        // Both of A's chunks occupy workers before B is issued.
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return a_started == 2; });
    }
    std::atomic<int> b_items{0};
    pool.parallelFor(8, [&](size_t begin, size_t end) {
        b_items += static_cast<int>(end - begin);
    });
    {
        std::lock_guard<std::mutex> lock(m);
        b_returned = true;
    }
    cv.notify_all();
    a.join();
    EXPECT_EQ(b_items.load(), 8);
    EXPECT_TRUE(a_saw_b_return)
        << "a parallelFor caller waited on another caller's chunks";
}

/** MpmcQueue::popBatch with nothing ever expired. */
template <typename T>
bool
popFresh(MpmcQueue<T> &q, std::vector<T> &out, size_t max_items)
{
    std::vector<T> expired;
    return q.popBatch(
        out, max_items, [](const T &) { return false; }, expired);
}

TEST(MpmcQueue, PopBatchDrainsInFifoOrderUpToCap)
{
    MpmcQueue<int> q(16);
    for (int i = 0; i < 7; ++i)
        EXPECT_TRUE(q.push(i));
    EXPECT_EQ(q.size(), 7u);

    std::vector<int> batch;
    EXPECT_TRUE(popFresh(q, batch, 4));
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(popFresh(q, batch, 4));
    EXPECT_EQ(batch, (std::vector<int>{4, 5, 6}));
}

TEST(MpmcQueue, CloseDrainsRemainderThenFails)
{
    MpmcQueue<int> q(8);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    q.close();
    EXPECT_FALSE(q.push(3));    // dropped

    std::vector<int> batch;
    EXPECT_TRUE(popFresh(q, batch, 8));
    EXPECT_EQ(batch, (std::vector<int>{1, 2}));
    EXPECT_FALSE(popFresh(q, batch, 8));    // closed and empty
    EXPECT_TRUE(batch.empty());
}

TEST(MpmcQueue, BoundedPushBlocksUntilConsumed)
{
    MpmcQueue<int> q(2);
    EXPECT_TRUE(q.push(0));
    EXPECT_TRUE(q.push(1));
    std::atomic<bool> third_pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2));    // blocks until a pop makes room
        third_pushed = true;
    });
    // The producer must be parked on the full queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(third_pushed.load());
    std::vector<int> batch;
    EXPECT_TRUE(popFresh(q, batch, 1));
    producer.join();
    EXPECT_TRUE(third_pushed.load());
    EXPECT_TRUE(popFresh(q, batch, 4));
    EXPECT_EQ(batch, (std::vector<int>{1, 2}));
}

TEST(MpmcQueue, ManyProducersOneConsumer)
{
    MpmcQueue<int> q(32);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 50;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i)
                EXPECT_TRUE(q.push(p * kPerProducer + i));
        });
    std::vector<int> got;
    std::vector<int> batch;
    while (got.size() < kProducers * kPerProducer) {
        ASSERT_TRUE(popFresh(q, batch, 8));
        EXPECT_GE(batch.size(), 1u);
        EXPECT_LE(batch.size(), 8u);
        got.insert(got.end(), batch.begin(), batch.end());
    }
    for (auto &t : producers)
        t.join();
    std::sort(got.begin(), got.end());
    for (int i = 0; i < kProducers * kPerProducer; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(MpmcQueue, TryPushRejectsWithoutConsumingTheItem)
{
    MpmcQueue<std::unique_ptr<int>> q(2);
    auto a = std::make_unique<int>(1);
    auto b = std::make_unique<int>(2);
    auto c = std::make_unique<int>(3);
    EXPECT_EQ(q.tryPush(a), QueuePush::Ok);
    EXPECT_EQ(a, nullptr);    // consumed on Ok
    EXPECT_EQ(q.tryPush(b), QueuePush::Ok);
    EXPECT_EQ(q.tryPush(c), QueuePush::Full);
    ASSERT_NE(c, nullptr);    // NOT consumed on Full
    EXPECT_EQ(*c, 3);
    q.close();
    EXPECT_EQ(q.tryPush(c), QueuePush::Closed);
    ASSERT_NE(c, nullptr);    // NOT consumed on Closed either
}

TEST(MpmcQueue, PopBatchSweepsAllExpiredItems)
{
    MpmcQueue<int> q(16);
    // 0..9 queued; odd values "expired". Cap of 3 applies to FRESH
    // items only; every expired item is swept out in one pop.
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(q.push(i));
    std::vector<int> out, expired;
    EXPECT_TRUE(q.popBatch(
        out, 3, [](int v) { return v % 2 == 1; }, expired));
    EXPECT_EQ(out, (std::vector<int>{0, 2, 4}));
    EXPECT_EQ(expired, (std::vector<int>{1, 3, 5, 7, 9}));
    EXPECT_EQ(q.size(), 2u);    // 6, 8 still queued
    EXPECT_TRUE(q.popBatch(
        out, 3, [](int v) { return v % 2 == 1; }, expired));
    EXPECT_EQ(out, (std::vector<int>{6, 8}));
    EXPECT_TRUE(expired.empty());

    // All-expired wakeup: returns true with an empty fresh batch (the
    // consumer loops again) — not the closed-and-drained false.
    EXPECT_TRUE(q.push(11));
    EXPECT_TRUE(q.popBatch(
        out, 3, [](int v) { return v % 2 == 1; }, expired));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(expired, (std::vector<int>{11}));
    q.close();
    EXPECT_FALSE(q.popBatch(
        out, 3, [](int v) { return v % 2 == 1; }, expired));
}

/**
 * Satellite regression (close/push/pop races): producers blocking on a
 * full queue while a consumer drains and a third thread closes
 * mid-stream. Every item reported Ok by its push must be popped exactly
 * once, every push after close must fail without consuming, and nothing
 * may deadlock — this also exercises the notify-only-when-items-were-
 * removed fix (a closed-and-drained popBatch frees no capacity and must
 * not need to notify producers for the test to terminate).
 */
TEST(MpmcQueue, CloseWhileProducersBlockedAndConsumerDraining)
{
    for (int round = 0; round < 8; ++round) {
        MpmcQueue<int> q(4);
        constexpr int kProducers = 4;
        constexpr int kPerProducer = 64;
        std::array<std::atomic<int>, kProducers> pushed_ok{};
        std::vector<std::thread> producers;
        for (int p = 0; p < kProducers; ++p)
            producers.emplace_back([&, p] {
                for (int i = 0; i < kPerProducer; ++i) {
                    int v = p * kPerProducer + i;
                    if (!q.push(v))
                        break;    // closed: stop producing
                    pushed_ok[p].fetch_add(1);
                }
            });
        std::atomic<int> popped{0};
        std::thread consumer([&] {
            std::vector<int> batch;
            while (popFresh(q, batch, 3))
                popped.fetch_add(static_cast<int>(batch.size()));
        });
        // Let the system churn briefly, then slam the door.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        q.close();
        for (auto &t : producers)
            t.join();
        consumer.join();
        int ok = 0;
        for (int p = 0; p < kProducers; ++p)
            ok += pushed_ok[p].load();
        EXPECT_EQ(popped.load(), ok) << "round " << round;
        EXPECT_EQ(q.size(), 0u);
        // Closed queue: every intake fails and leaves the item alone.
        int v = -1;
        EXPECT_FALSE(q.push(v));
        EXPECT_EQ(q.tryPush(v), QueuePush::Closed);
    }
}

} // namespace
} // namespace clm
