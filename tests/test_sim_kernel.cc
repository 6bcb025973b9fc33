/**
 * @file
 * Unit tests for the discrete-event simulation kernel: event ordering,
 * clock semantics, coroutine tasks, and synchronization primitives.
 *
 * Idiom note: coroutines here are capture-less lambdas taking their context
 * as parameters. Captures of a lambda coroutine live in the lambda object
 * (destroyed at end of statement), not the coroutine frame — parameters are
 * stored in the frame and stay valid across suspensions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace lfs::sim {
namespace {

TEST(Simulation, StartsAtTimeZero)
{
    Simulation sim;
    EXPECT_EQ(sim.now(), 0);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, RunsEventsInTimeOrder)
{
    Simulation sim;
    std::vector<int> order;
    sim.schedule(msec(30), [&] { order.push_back(3); });
    sim.schedule(msec(10), [&] { order.push_back(1); });
    sim.schedule(msec(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), msec(30));
}

TEST(Simulation, SameTimeEventsRunFifo)
{
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(msec(5), [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[i], i);
    }
}

TEST(Simulation, NegativeDelayClampsToNow)
{
    Simulation sim;
    sim.schedule(msec(10), [&] {
        sim.schedule(-msec(5), [&] { EXPECT_EQ(sim.now(), msec(10)); });
    });
    sim.run();
    EXPECT_EQ(sim.now(), msec(10));
}

TEST(Simulation, EventsCanScheduleMoreEvents)
{
    Simulation sim;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5) {
            sim.schedule(msec(1), chain);
        }
    };
    sim.schedule(0, chain);
    sim.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.now(), msec(4));
}

TEST(Simulation, RunUntilAdvancesClockWithoutEvents)
{
    Simulation sim;
    sim.run_until(sec(5));
    EXPECT_EQ(sim.now(), sec(5));
}

TEST(Simulation, RunUntilExecutesDueEventsOnly)
{
    Simulation sim;
    int ran = 0;
    sim.schedule(sec(1), [&] { ++ran; });
    sim.schedule(sec(3), [&] { ++ran; });
    sim.run_until(sec(2));
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.now(), sec(2));
    sim.run();
    EXPECT_EQ(ran, 2);
}

TEST(Simulation, StopHaltsTheLoop)
{
    Simulation sim;
    int ran = 0;
    sim.schedule(msec(1), [&] {
        ++ran;
        sim.stop();
    });
    sim.schedule(msec(2), [&] { ++ran; });
    sim.run();
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(sim.stopped());
    sim.resume();
    sim.run();
    EXPECT_EQ(ran, 2);
}

Task<int>
co_value()
{
    co_return 42;
}

TEST(Task, AwaitReturnsValue)
{
    Simulation sim;
    int got = 0;
    spawn([](int& out) -> Task<void> { out = co_await co_value(); }(got));
    sim.run();
    EXPECT_EQ(got, 42);
}

TEST(Task, DelaySuspendsForSimulatedTime)
{
    Simulation sim;
    SimTime woke = -1;
    spawn([](Simulation& s, SimTime& out) -> Task<void> {
        co_await delay(s, msec(7));
        out = s.now();
    }(sim, woke));
    sim.run();
    EXPECT_EQ(woke, msec(7));
}

Task<int>
co_inner(Simulation& sim)
{
    co_await delay(sim, msec(3));
    co_return 7;
}

Task<int>
co_middle(Simulation& sim)
{
    int v = co_await co_inner(sim);
    co_await delay(sim, msec(4));
    co_return v * 2;
}

TEST(Task, NestedAwaitsAccumulateDelays)
{
    Simulation sim;
    int got = 0;
    spawn([](Simulation& s, int& out) -> Task<void> {
        out = co_await co_middle(s);
    }(sim, got));
    sim.run();
    EXPECT_EQ(got, 14);
    EXPECT_EQ(sim.now(), msec(7));
}

Task<void>
co_thrower(Simulation& sim)
{
    co_await delay(sim, msec(1));
    throw std::runtime_error("boom");
}

TEST(Task, ExceptionPropagatesToAwaiter)
{
    Simulation sim;
    bool caught = false;
    spawn([](Simulation& s, bool& out) -> Task<void> {
        try {
            co_await co_thrower(s);
        } catch (const std::runtime_error&) {
            out = true;
        }
    }(sim, caught));
    sim.run();
    EXPECT_TRUE(caught);
}

Task<void>
co_set_flag(bool& flag)
{
    flag = true;
    co_return;
}

TEST(Task, UnstartedTaskIsDestroyedSafely)
{
    Simulation sim;
    bool ran = false;
    {
        auto t = co_set_flag(ran);
        // Never awaited: frame must be released without running.
        EXPECT_TRUE(t.valid());
    }
    sim.run();
    EXPECT_FALSE(ran);
}

TEST(OneShot, DeliversValueToWaiter)
{
    Simulation sim;
    OneShot<int> cell(sim);
    int got = 0;
    spawn([](OneShot<int>& c, int& out) -> Task<void> {
        out = co_await c.wait();
    }(cell, got));
    sim.schedule(msec(5), [&] { cell.try_set(99); });
    sim.run();
    EXPECT_EQ(got, 99);
}

TEST(OneShot, FirstSetWins)
{
    Simulation sim;
    OneShot<int> cell(sim);
    EXPECT_TRUE(cell.try_set(1));
    EXPECT_FALSE(cell.try_set(2));
    int got = 0;
    spawn([](OneShot<int>& c, int& out) -> Task<void> {
        out = co_await c.wait();
    }(cell, got));
    sim.run();
    EXPECT_EQ(got, 1);
}

Task<void>
co_try_set_after(Simulation& sim, std::shared_ptr<OneShot<int>> cell,
                 SimTime after, int value)
{
    co_await delay(sim, after);
    cell->try_set(value);
}

TEST(OneShot, TimeoutRaceResolvedByTrySet)
{
    Simulation sim;
    auto cell = std::make_shared<OneShot<int>>(sim);
    // Timeout at 10ms, "response" at 20ms: timeout must win.
    spawn(co_try_set_after(sim, cell, msec(10), -1));
    spawn(co_try_set_after(sim, cell, msec(20), 42));
    int got = 0;
    spawn([](std::shared_ptr<OneShot<int>> c, int& out) -> Task<void> {
        out = co_await c->wait();
    }(cell, got));
    sim.run();
    EXPECT_EQ(got, -1);
}

TEST(OneShot, ExpireAfterSetsTheTimeoutValueWhenNoReplyArrives)
{
    Simulation sim;
    auto cell = std::make_shared<OneShot<int>>(sim);
    cell->expire_after(msec(10), [] { return -1; });
    spawn(co_try_set_after(sim, cell, msec(20), 42));
    int got = 0;
    spawn([](std::shared_ptr<OneShot<int>> c, int& out) -> Task<void> {
        out = co_await c->wait();
    }(cell, got));
    sim.run_until(msec(15));
    EXPECT_EQ(got, -1);
    sim.run();
    EXPECT_EQ(got, -1);  // the late reply loses
}

TEST(OneShot, WinningTrySetCancelsTheTimer)
{
    Simulation sim;
    auto cell = std::make_shared<OneShot<int>>(sim);
    cell->expire_after(msec(200), [] { return -1; });
    spawn(co_try_set_after(sim, cell, msec(1), 42));
    int got = 0;
    spawn([](std::shared_ptr<OneShot<int>> c, int& out) -> Task<void> {
        out = co_await c->wait();
    }(cell, got));
    sim.run();
    EXPECT_EQ(got, 42);
    // The 200 ms timer never ran and never moved the clock.
    EXPECT_EQ(sim.now(), msec(1));
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(OneShot, DestroyingAnUnsetCellCancelsItsTimer)
{
    Simulation sim;
    {
        OneShot<int> cell(sim);
        cell.expire_after(msec(5), [] { return -1; });
        EXPECT_EQ(sim.pending(), 1u);
    }
    EXPECT_EQ(sim.pending(), 0u);
    sim.run();
    EXPECT_EQ(sim.events_executed(), 0u);
    EXPECT_EQ(sim.now(), 0);
}

/**
 * Event payload for the cancellation tests: records that it ran and
 * counts its own destructions (moved-from copies do not count).
 */
struct Probe {
    std::vector<int>* ran;
    std::vector<int>* destroyed;
    int label;
    bool armed = true;

    Probe(std::vector<int>* r, std::vector<int>* d, int l)
        : ran(r), destroyed(d), label(l)
    {
    }
    Probe(Probe&& o) noexcept
        : ran(o.ran), destroyed(o.destroyed), label(o.label)
    {
        o.armed = false;
    }
    Probe(const Probe&) = delete;
    ~Probe()
    {
        if (armed) {
            ++(*destroyed)[static_cast<size_t>(label)];
        }
    }
    void operator()() { ran->push_back(label); }
};

TEST(SimulationCancel, CancelledEventNeverRunsOrMovesTheClock)
{
    Simulation sim;
    std::vector<int> ran;
    std::vector<int> destroyed(3, 0);
    auto a = sim.schedule(msec(10), Probe(&ran, &destroyed, 0));
    sim.schedule(msec(20), Probe(&ran, &destroyed, 1));
    auto c = sim.schedule(msec(30), Probe(&ran, &destroyed, 2));
    EXPECT_EQ(sim.pending(), 3u);
    EXPECT_TRUE(sim.cancel(a));
    EXPECT_EQ(destroyed[0], 1);  // the payload goes at cancel time
    EXPECT_FALSE(sim.cancel(a));  // a second cancel is a no-op
    EXPECT_FALSE(sim.cancel(Simulation::EventId{}));
    EXPECT_EQ(sim.pending(), 2u);

    // run_until must not stop on the cancelled event's time.
    sim.run_until(msec(15));
    EXPECT_EQ(sim.now(), msec(15));
    EXPECT_TRUE(ran.empty());
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(sim.now(), msec(20));
    EXPECT_EQ(ran, std::vector<int>{1});
    EXPECT_TRUE(sim.cancel(c));
    EXPECT_FALSE(sim.step());  // only a tombstone was left
    EXPECT_EQ(sim.now(), msec(20));
    EXPECT_EQ(sim.events_executed(), 1u);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(destroyed, (std::vector<int>{1, 1, 1}));
}

TEST(SimulationCancel, RunningEventCannotBeCancelled)
{
    Simulation sim;
    Simulation::EventId self;
    bool cancelled_self = true;
    self = sim.schedule(msec(1), [&] { cancelled_self = sim.cancel(self); });
    sim.run();
    EXPECT_FALSE(cancelled_self);
    EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulationCancel, TeardownDestroysEachPendingPayloadOnce)
{
    std::vector<int> ran;
    std::vector<int> destroyed(4, 0);
    {
        Simulation sim;
        sim.schedule(msec(1), Probe(&ran, &destroyed, 0));
        auto b = sim.schedule(msec(2), Probe(&ran, &destroyed, 1));
        sim.schedule(0, Probe(&ran, &destroyed, 2));
        auto d = sim.schedule(0, Probe(&ran, &destroyed, 3));
        sim.cancel(b);
        sim.cancel(d);
    }
    EXPECT_TRUE(ran.empty());
    EXPECT_EQ(destroyed, (std::vector<int>{1, 1, 1, 1}));
}

/**
 * Seeded mix of schedule, schedule-at-now, cancel and step checked
 * against a (when, seq)-ordered model, with bursts of mass cancellation
 * that force heap compaction: survivors must run in model order, the
 * clock only ever lands on a survivor's time, and pending() /
 * peak_pending() count live events only.
 */
TEST(SimulationCancel, MatchesOrderedModelThroughCompaction)
{
    Simulation sim;
    Rng rng(20260417);
    std::vector<int> ran;
    std::vector<int> destroyed;
    std::vector<bool> cancelled;
    std::vector<Simulation::EventId> ids;
    std::map<std::pair<SimTime, uint64_t>, int> model;
    std::vector<int> live;  // labels in model (for random cancels)
    uint64_t seq = 0;
    size_t peak = 0;
    uint64_t executed = 0;

    auto schedule = [&](SimTime delay) {
        int label = static_cast<int>(ids.size());
        destroyed.push_back(0);
        cancelled.push_back(false);
        ids.push_back(sim.schedule(delay, Probe(&ran, &destroyed, label)));
        model.emplace(std::make_pair(sim.now() + delay, seq++), label);
        live.push_back(label);
        peak = std::max(peak, model.size());
    };
    auto cancel_random = [&] {
        size_t i = rng.index(live.size());
        int label = live[i];
        live[i] = live.back();
        live.pop_back();
        for (auto it = model.begin(); it != model.end(); ++it) {
            if (it->second == label) {
                model.erase(it);
                break;
            }
        }
        ASSERT_TRUE(sim.cancel(ids[static_cast<size_t>(label)]));
        ASSERT_EQ(destroyed[static_cast<size_t>(label)], 1);
        cancelled[static_cast<size_t>(label)] = true;
    };
    auto step = [&] {
        ASSERT_FALSE(model.empty());
        auto front = model.begin();
        const auto [when, s] = front->first;
        const int label = front->second;
        model.erase(front);
        live.erase(std::find(live.begin(), live.end(), label));
        ASSERT_TRUE(sim.step());
        ++executed;
        ASSERT_EQ(ran.back(), label);
        ASSERT_EQ(sim.now(), when);
    };

    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 500; ++i) {
            double action = rng.uniform();
            if (action < 0.35) {
                schedule(usec(rng.uniform_int(1, 400)));
            } else if (action < 0.5) {
                schedule(0);
            } else if (action < 0.7 && !live.empty()) {
                cancel_random();
            } else if (!model.empty()) {
                step();
            }
            ASSERT_EQ(sim.pending(), model.size());
        }
        // Mass cancellation: tombstones come to outnumber live entries.
        const size_t keep = live.size() / 4;
        while (live.size() > keep) {
            cancel_random();
        }
        ASSERT_EQ(sim.pending(), model.size());
    }
    while (!model.empty()) {
        step();
    }
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.peak_pending(), peak);
    EXPECT_EQ(sim.events_executed(), executed);
    for (int label : ran) {
        EXPECT_FALSE(cancelled[static_cast<size_t>(label)]);
    }
    // Every payload, run or cancelled, was destroyed exactly once.
    for (size_t i = 0; i < destroyed.size(); ++i) {
        ASSERT_EQ(destroyed[i], 1) << "label " << i;
    }
    EXPECT_EQ(ran.size() + static_cast<size_t>(std::count(
                               cancelled.begin(), cancelled.end(), true)),
              ids.size());
}

Task<void>
co_wait_gate(Gate& gate, int& released)
{
    co_await gate.wait();
    ++released;
}

TEST(Gate, ReleasesAllWaiters)
{
    Simulation sim;
    Gate gate(sim);
    int released = 0;
    for (int i = 0; i < 5; ++i) {
        spawn(co_wait_gate(gate, released));
    }
    sim.schedule(msec(3), [&] { gate.set(); });
    sim.run();
    EXPECT_EQ(released, 5);
    EXPECT_TRUE(gate.is_set());
}

TEST(Gate, SetBeforeWaitPassesImmediately)
{
    Simulation sim;
    Gate gate(sim);
    gate.set();
    int released = 0;
    spawn(co_wait_gate(gate, released));
    sim.run();
    EXPECT_EQ(released, 1);
}

Task<void>
co_use_semaphore(Simulation& sim, Semaphore& sem, int& active, int& max_active)
{
    co_await sem.acquire();
    ++active;
    max_active = std::max(max_active, active);
    co_await delay(sim, msec(10));
    --active;
    sem.release();
}

TEST(Semaphore, LimitsConcurrency)
{
    Simulation sim;
    Semaphore sem(sim, 2);
    int active = 0;
    int max_active = 0;
    for (int i = 0; i < 6; ++i) {
        spawn(co_use_semaphore(sim, sem, active, max_active));
    }
    sim.run();
    EXPECT_EQ(max_active, 2);
    EXPECT_EQ(sim.now(), msec(30));  // 6 jobs / 2 wide / 10ms each
}

TEST(Semaphore, TryAcquireDoesNotBlock)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    EXPECT_TRUE(sem.try_acquire());
    EXPECT_FALSE(sem.try_acquire());
    sem.release();
    EXPECT_TRUE(sem.try_acquire());
}

Task<void>
co_staggered_acquire(Simulation& sim, Semaphore& sem, int id,
                     std::vector<int>& order)
{
    co_await delay(sim, msec(id));  // stagger arrival
    co_await sem.acquire();
    order.push_back(id);
    co_await delay(sim, msec(10));
    sem.release();
}

TEST(Semaphore, FifoHandoff)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        spawn(co_staggered_acquire(sim, sem, i, order));
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

Task<void>
co_drain_channel(Channel<int>& ch, std::vector<int>& got)
{
    while (true) {
        auto v = co_await ch.pop();
        if (!v) {
            break;
        }
        got.push_back(*v);
    }
}

TEST(Channel, DeliversInOrder)
{
    Simulation sim;
    Channel<int> ch(sim);
    std::vector<int> got;
    spawn(co_drain_channel(ch, got));
    sim.schedule(msec(1), [&] { ch.push(1); });
    sim.schedule(msec(2), [&] { ch.push(2); });
    sim.schedule(msec(3), [&] { ch.close(); });
    sim.run();
    EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

Task<void>
co_pop_expect_closed(Channel<int>& ch, int& done)
{
    auto v = co_await ch.pop();
    EXPECT_FALSE(v.has_value());
    ++done;
}

TEST(Channel, CloseWakesWaitingConsumers)
{
    Simulation sim;
    Channel<int> ch(sim);
    int done = 0;
    for (int i = 0; i < 3; ++i) {
        spawn(co_pop_expect_closed(ch, done));
    }
    sim.schedule(msec(1), [&] { ch.close(); });
    sim.run();
    EXPECT_EQ(done, 3);
}

Task<void>
co_worker(Simulation& sim, WaitGroup& wg, SimTime work, int& completed)
{
    co_await delay(sim, work);
    ++completed;
    wg.done();
}

Task<void>
co_wait_group(Simulation& sim, WaitGroup& wg, SimTime& finish)
{
    co_await wg.wait();
    finish = sim.now();
}

TEST(WaitGroup, WaitsForAllChildren)
{
    Simulation sim;
    WaitGroup wg(sim);
    int completed = 0;
    SimTime finish = -1;
    for (int i = 1; i <= 3; ++i) {
        wg.add();
        spawn(co_worker(sim, wg, msec(i * 10), completed));
    }
    spawn(co_wait_group(sim, wg, finish));
    sim.run();
    EXPECT_EQ(completed, 3);
    EXPECT_EQ(finish, msec(30));
}

TEST(WaitGroup, ZeroCountPassesImmediately)
{
    Simulation sim;
    WaitGroup wg(sim);
    SimTime finish = -1;
    spawn(co_wait_group(sim, wg, finish));
    sim.run();
    EXPECT_EQ(finish, 0);
}

Task<void>
co_random_sleep(Simulation& sim, Rng& rng, std::vector<SimTime>& trace)
{
    co_await delay(sim, usec(rng.uniform_int(1, 1000)));
    trace.push_back(sim.now());
}

TEST(Determinism, SameSeedSameSchedule)
{
    // Two identical runs must produce identical event traces.
    auto run_once = [] {
        Simulation sim;
        Rng rng(1234);
        std::vector<SimTime> trace;
        for (int i = 0; i < 100; ++i) {
            spawn(co_random_sleep(sim, rng, trace));
        }
        sim.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace lfs::sim
