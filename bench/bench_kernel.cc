/**
 * @file
 * Event-kernel microbenchmark: measures raw simulator dispatch throughput
 * (events/sec of wall-clock time) for the scheduling patterns every λFS
 * experiment is built from. This is the binary the perf-smoke gate runs —
 * it prints machine-readable `events_per_sec` lines per case.
 *
 * Cases:
 *   callback_churn   schedule+dispatch of small lambda events, mixed delays
 *   same_time_fifo   bursts of same-timestamp events (seq tie-break path)
 *   coroutine_ping   processes co_awaiting delay() in a loop (handle path)
 *   semaphore_chain  contended Semaphore FIFO hand-off between processes
 *   task_chain       one RPC's shape: spawn, then depth-4 nested Task
 *                    awaits over delay() (the coroutine-frame pool path)
 *   timeout_cancel   the client's RPC race: arm a 200 ms timeout per RPC
 *                    and cancel it when the ~1 ms reply wins (the
 *                    cancellable-event path)
 *   tracing_overhead disabled-tracer start_span vs no call at all; a
 *                    report only: host noise alone moves it past 5%, so
 *                    the gate is the clock-free ctest
 *                    TracedLambdaFs.TracingOffTouchesNoTracerState
 *   attribution      end-to-end λFS stat microbench with the attribution
 *                    stack (ledger, histograms, flight recorder) armed
 *                    vs off; asserts enabled costs <5% (DESIGN.md §11)
 *
 * Measurement: best-of-LFS_KERNEL_REPS (default 5) wall time per case over
 * LFS_KERNEL_EVENTS events (default 2M); best-of damps scheduler noise.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/harness.h"
#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/latency.h"
#include "src/sim/primitives.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/workload/microbench.h"

namespace lfs::bench {
namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int
total_events()
{
    return env_int("LFS_KERNEL_EVENTS", 2'000'000);
}

int
reps()
{
    return env_int("LFS_KERNEL_REPS", 5);
}

/** LFS_KERNEL_CASES: comma-separated case filter (empty = all). */
bool
case_enabled(const char* name)
{
    const char* filter = std::getenv("LFS_KERNEL_CASES");
    if (filter == nullptr || *filter == '\0') {
        return true;
    }
    std::string padded = ",";
    padded += filter;
    padded += ',';
    std::string needle = ",";
    needle += name;
    needle += ',';
    return padded.find(needle) != std::string::npos;
}

/** Run @p body reps() times; report the best run's events/sec. */
template <typename Body>
double
measure_case(const char* name, Body&& body)
{
    if (!case_enabled(name)) {
        return 0.0;
    }
    double best_wall = 1e300;
    uint64_t events = 0;
    for (int r = 0; r < reps(); ++r) {
        Clock::time_point t0 = Clock::now();
        events = body();
        double wall = seconds_since(t0);
        if (wall < best_wall) {
            best_wall = wall;
        }
    }
    double eps = static_cast<double>(events) / best_wall;
    std::printf("[bench_kernel] case=%s events=%llu wall_s=%.4f "
                "events_per_sec=%.0f\n",
                name, static_cast<unsigned long long>(events), best_wall,
                eps);
    bench_log_entry(name, events, best_wall, eps);
    return eps;
}

/** Shared state for the churn functor below. */
struct ChurnCtx {
    sim::Simulation* sim;
    int scheduled = 0;
    int budget = 0;
};

/**
 * Self-rescheduling 24-byte functor with an inline xorshift delay stream —
 * the shape of a production call site (a fresh small lambda per schedule,
 * larger than std::function's 16-byte SBO, so the pre-pool kernel paid one
 * heap allocation per event).
 */
struct ChurnFire {
    ChurnCtx* ctx;
    uint64_t rng;

    void
    operator()()
    {
        if (ctx->scheduled < ctx->budget) {
            ++ctx->scheduled;
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            ctx->sim->schedule(sim::usec(static_cast<int64_t>(rng & 15)),
                               ChurnFire{ctx, rng});
        }
    }
};

/** 4096 in-flight self-rescheduling events with small mixed delays. */
uint64_t
run_callback_churn()
{
    sim::Simulation sim;
    ChurnCtx ctx{&sim, 0, total_events()};
    sim.reserve_events(4096);
    for (int i = 0; i < 4096 && ctx.scheduled < ctx.budget; ++i) {
        ++ctx.scheduled;
        sim.schedule(sim::usec(i & 15),
                     ChurnFire{&ctx, 0x9E3779B97F4A7C15ull + uint64_t(i)});
    }
    sim.run();
    return sim.events_executed();
}

/** Bursts of events at one instant: exercises the seq FIFO tie-break. */
uint64_t
run_same_time_fifo()
{
    sim::Simulation sim;
    const int budget = total_events();
    const int burst = 256;
    int scheduled = 0;
    std::function<void()> pump = [&] {
        for (int i = 0; i < burst && scheduled < budget; ++i) {
            ++scheduled;
            sim.schedule(0, [] {});
        }
        if (scheduled < budget) {
            ++scheduled;
            sim.schedule(sim::usec(1), pump);
        }
    };
    pump();
    sim.run();
    return sim.events_executed();
}

sim::Task<void>
co_ping(sim::Simulation& sim, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await sim::delay(sim, sim::usec(1));
    }
}

/** Coroutine resume path: delay() awaits are the dominant sim event. */
uint64_t
run_coroutine_ping()
{
    sim::Simulation sim;
    const int procs = 64;
    const int rounds = total_events() / procs;
    for (int p = 0; p < procs; ++p) {
        sim::spawn(co_ping(sim, rounds));
    }
    sim.run();
    return sim.events_executed();
}

sim::Task<void>
co_chain(sim::Simulation& sim, sim::Semaphore& sem, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await sem.acquire();
        co_await sim::delay(sim, sim::usec(1));
        sem.release();
    }
}

/** Contended semaphore: wake-ups flow through the kernel queue. */
uint64_t
run_semaphore_chain()
{
    sim::Simulation sim;
    sim::Semaphore sem(sim, 4);
    const int procs = 32;
    const int rounds = total_events() / (3 * procs);
    for (int p = 0; p < procs; ++p) {
        sim::spawn(co_chain(sim, sem, rounds));
    }
    sim.run();
    return sim.events_executed();
}

sim::Task<void>
co_hop(sim::Simulation& sim, int depth)
{
    co_await sim::delay(sim, sim::usec(1));
    if (depth > 0) {
        co_await co_hop(sim, depth - 1);
    }
}

sim::Task<void>
co_rpc(sim::Simulation& sim, sim::WaitGroup* wg)
{
    co_await co_hop(sim, 4);
    wg->done();
}

sim::Task<void>
co_rpc_client(sim::Simulation& sim, int rpcs)
{
    for (int i = 0; i < rpcs; ++i) {
        sim::WaitGroup wg(sim);
        wg.add();
        sim::spawn(co_rpc(sim, &wg));
        co_await wg.wait();
    }
}

/**
 * Frame churn: each RPC spawns a process whose five nested frames live
 * for one delay each — every event creates or frees a coroutine frame.
 */
uint64_t
run_task_chain()
{
    sim::Simulation sim;
    const int procs = 64;
    const int rpcs = total_events() / (6 * procs);
    for (int p = 0; p < procs; ++p) {
        sim::spawn(co_rpc_client(sim, rpcs));
    }
    sim.run();
    return sim.events_executed();
}

int
timed_out()
{
    return -1;
}

sim::Task<void>
co_reply(sim::Simulation& sim, sim::OneShot<int>* cell, sim::SimTime after)
{
    co_await sim::delay(sim, after);
    cell->try_set(1);
}

sim::Task<void>
co_timeout_client(sim::Simulation& sim, int rpcs, uint64_t rng)
{
    for (int i = 0; i < rpcs; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        sim::OneShot<int> cell(sim);
        cell.expire_after(sim::msec(200), &timed_out);
        sim::spawn(co_reply(sim, &cell,
                            sim::usec(500 + static_cast<int64_t>(rng % 1000))));
        co_await cell.wait();
    }
}

/**
 * Timer churn: every RPC arms a timeout 200x its reply latency, so
 * without cancellation ~200 dead timers per client would sit in the heap
 * and each would run as a no-op. Counts the events that do run.
 */
uint64_t
run_timeout_cancel()
{
    sim::Simulation sim;
    const int procs = 64;
    const int rpcs = total_events() / (2 * procs);
    for (int p = 0; p < procs; ++p) {
        sim::spawn(co_timeout_client(sim, rpcs,
                                     0x9E3779B97F4A7C15ull + uint64_t(p)));
    }
    sim.run();
    return sim.events_executed();
}

/**
 * Disabled-path overhead report. The event hot path may touch
 * Tracer/MetricsRegistry only behind a single predictable branch; this
 * times a run that *calls* start_span on a disabled tracer against one
 * whose loop body omits the call (the compiled-out shape). The two differ
 * by one branch, so the printed delta is mostly host noise and gates
 * nothing: the structural check is a ctest (no span, slot write or
 * tracer heap after a λFS run with tracing off).
 */
void
run_tracing_overhead_report()
{
    const int budget = total_events();

    auto run_with_tracing_call = [&]() -> uint64_t {
        sim::Simulation sim;
        // Tracing stays disabled: start_span must be one branch + return.
        int scheduled = 0;
        std::function<void()> fire = [&] {
            sim::Span s = sim.tracer().start_trace("bench", "noop");
            if (scheduled < budget) {
                ++scheduled;
                sim.schedule(sim::usec(1), fire);
            }
        };
        for (int i = 0; i < 32 && scheduled < budget; ++i) {
            ++scheduled;
            sim.schedule(sim::usec(i), fire);
        }
        sim.run();
        return sim.events_executed();
    };
    auto run_compiled_out = [&]() -> uint64_t {
        sim::Simulation sim;
        int scheduled = 0;
        std::function<void()> fire = [&] {
            if (scheduled < budget) {
                ++scheduled;
                sim.schedule(sim::usec(1), fire);
            }
        };
        for (int i = 0; i < 32 && scheduled < budget; ++i) {
            ++scheduled;
            sim.schedule(sim::usec(i), fire);
        }
        sim.run();
        return sim.events_executed();
    };

    if (!case_enabled("tracing_off")) {
        return;
    }
    // Interleave A/B reps so machine-load drift hits both variants
    // equally; best-of per variant damps the remaining jitter.
    double best_with = 1e300;
    double best_without = 1e300;
    uint64_t events = 0;
    for (int r = 0; r < reps(); ++r) {
        Clock::time_point t0 = Clock::now();
        events = run_with_tracing_call();
        best_with = std::min(best_with, seconds_since(t0));
        t0 = Clock::now();
        events = run_compiled_out();
        best_without = std::min(best_without, seconds_since(t0));
    }
    double with_call = static_cast<double>(events) / best_with;
    double without = static_cast<double>(events) / best_without;
    std::printf("[bench_kernel] case=tracing_off events=%llu wall_s=%.4f "
                "events_per_sec=%.0f\n",
                static_cast<unsigned long long>(events), best_with,
                with_call);
    std::printf("[bench_kernel] case=tracing_compiled_out events=%llu "
                "wall_s=%.4f events_per_sec=%.0f\n",
                static_cast<unsigned long long>(events), best_without,
                without);
    double delta = (without - with_call) / without;
    std::printf("[bench_kernel] case=tracing_delta delta_pct=%.2f "
                "(report)\n",
                delta * 100.0);
}

/**
 * Satellite: attribution overhead audit. Runs the same closed-loop λFS
 * stat microbenchmark with the recording that --attribution arms
 * (ledger finalize, per-op histogram recording, worst-k flight
 * recorder) and with it off, and compares wall-clock events/sec. Every
 * layer stamps the ledger in both arms, so the audit prices the
 * recording. Enabled must run within 5% of disabled — the ledger is a
 * fixed array with no allocation, and the recorder rejects non-tail ops
 * against the k-th worst before copying anything. (Exemplar span capture
 * is priced under tracing, not here: it only happens when --trace-out
 * arms the tracer.)
 */
bool
run_attribution_overhead_audit()
{
    if (!case_enabled("attribution")) {
        return true;
    }

    // Times ONLY the closed-loop run, not system construction or tree
    // building — those are attribution-independent and their malloc-heavy
    // noise would otherwise dominate the comparison.
    struct VariantRun {
        uint64_t events;
        double seconds;
    };
    auto run_variant = [&](bool enabled) -> VariantRun {
        sim::Simulation sim;
        sim.set_attribution(enabled);
        sim.flight_recorder().set_enabled(enabled);
        core::LambdaFsConfig config;
        config.num_deployments = 4;
        config.total_vcpus = 64.0;
        config.function.vcpus = 4.0;
        config.num_client_vms = 4;
        config.clients_per_vm = 16;
        config.prewarm_per_deployment = 1;
        core::LambdaFs fs(sim, config);
        ns::TreeSpec spec;
        ns::BuiltTree built = ns::build_balanced_tree(
            fs.authoritative_tree(), spec, ns::UserContext{}, 0);
        workload::MicrobenchConfig mcfg;
        mcfg.op = OpType::kStat;
        mcfg.num_clients = 64;
        mcfg.ops_per_client = 384;
        mcfg.seed = 7;
        Clock::time_point t0 = Clock::now();
        workload::run_microbench(sim, fs, std::move(built), mcfg);
        return {sim.events_executed(), seconds_since(t0)};
    };

    // Untimed warm-up: the first run through the bench path eats page
    // faults and allocator growth that would otherwise be charged to
    // whichever variant happens to go first.
    run_variant(false);

    // Paired A/B reps: each rep times both variants back-to-back, so both
    // halves see the same machine weather (CPU steal on a shared host
    // lasts longer than one rep) and the pair's delta cancels it; the
    // order alternates per rep to cancel positional bias too. The median
    // over pairs then discards reps where a spike landed inside one half.
    // An unpaired best-of-N comparison is NOT robust here: back-to-back
    // best-of-12 runs of the identical variant were observed 5% apart on
    // this class of machine.
    double best_on = 1e300;
    double best_off = 1e300;
    uint64_t events = 0;
    auto measure_batch = [&](int pairs) -> double {
        std::vector<double> deltas;
        for (int r = 0; r < pairs; ++r) {
            bool on_first = (r % 2 == 0);
            VariantRun first = run_variant(on_first);
            VariantRun second = run_variant(!on_first);
            double on_s = on_first ? first.seconds : second.seconds;
            double off_s = on_first ? second.seconds : first.seconds;
            events = first.events;
            best_on = std::min(best_on, on_s);
            best_off = std::min(best_off, off_s);
            deltas.push_back((on_s - off_s) / off_s);
        }
        std::sort(deltas.begin(), deltas.end());
        return deltas[deltas.size() / 2];
    };

    // More pairs than the default best-of reps: the median's variance is
    // what sets this gate's flake rate, and each pair is only ~0.3 s. A
    // failing first batch gets one fresh batch — a steal burst long
    // enough to bias a whole batch still clears between batches, while a
    // real regression fails both.
    int pairs = std::max(reps(), 15);
    double delta = measure_batch(pairs);
    int batches = 1;
    if (delta > 0.05) {
        std::printf("[bench_kernel] attribution delta %.2f%% over budget; "
                    "re-measuring once to reject machine noise\n",
                    delta * 100.0);
        delta = std::min(delta, measure_batch(pairs));
        batches = 2;
    }
    double on = static_cast<double>(events) / best_on;
    double off = static_cast<double>(events) / best_off;
    std::printf("[bench_kernel] case=attribution_on events=%llu wall_s=%.4f "
                "events_per_sec=%.0f\n",
                static_cast<unsigned long long>(events), best_on, on);
    std::printf("[bench_kernel] case=attribution_off events=%llu "
                "wall_s=%.4f events_per_sec=%.0f\n",
                static_cast<unsigned long long>(events), best_off, off);
    bench_log_entry("attribution_on", events, best_on, on);
    bench_log_entry("attribution_off", events, best_off, off);
    std::printf("[bench_kernel] case=attribution_delta delta_pct=%.2f "
                "(limit 5.00, median of %d paired reps x %d batch%s)\n",
                delta * 100.0, pairs, batches, batches > 1 ? "es" : "");
    if (delta > 0.05) {
        std::fprintf(stderr,
                     "FAIL: enabled attribution costs %.2f%% (>5%%) on the "
                     "end-to-end bench path\n",
                     delta * 100.0);
        return false;
    }
    return true;
}

}  // namespace
}  // namespace lfs::bench

int
main(int argc, char** argv)
{
    using namespace lfs::bench;
    parse_args(argc, argv);
    print_banner("bench_kernel",
                 "Event-kernel dispatch throughput (wall-clock)");

    measure_case("callback_churn", run_callback_churn);
    measure_case("same_time_fifo", run_same_time_fifo);
    measure_case("coroutine_ping", run_coroutine_ping);
    measure_case("semaphore_chain", run_semaphore_chain);
    measure_case("task_chain", run_task_chain);
    measure_case("timeout_cancel", run_timeout_cancel);
    run_tracing_overhead_report();
    bool ok = run_attribution_overhead_audit();

    if (!ok) {
        return 1;
    }
    std::printf("bench_kernel ok\n");
    return 0;
}
