/**
 * @file
 * End-to-end determinism regression for the metadata op surface: a
 * scripted, seeded sequence of operations through the full λFS stack
 * (client -> NameNode -> coherence -> store) must produce exactly the
 * same outcomes forever. Two things are pinned separately:
 *
 *  - the outcome hash: each op's completion time, status, inode id and
 *    version, plus the final clock. The legacy golden predates the
 *    extended op surface (links/setattr/statfs/sessions/GC), so it proves
 *    the new op plumbing leaves every legacy schedule byte-identical while
 *    the new ops are not used — the same property the perf-smoke gate
 *    checks for fig11 output;
 *  - the number of events executed. It moves when the kernel stops
 *    running events that provably do nothing (e.g. cancelled timeouts),
 *    which changes no outcome.
 *
 * The full-alphabet run is pinned on the HopsFS and HopsFS+Cache presets
 * as well.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace lfs::core {
namespace {

/** FNV-1a accumulator for order-sensitive trace hashing. */
class TraceHash {
  public:
    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

std::string
random_path(sim::Rng& rng, int max_depth)
{
    std::string p;
    int depth = static_cast<int>(rng.uniform_int(1, max_depth));
    for (int i = 0; i < depth; ++i) {
        p += "/n" + std::to_string(rng.uniform_int(0, 4));
    }
    return p;
}

LambdaFsConfig
small_config(uint64_t seed)
{
    LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.seed = seed;
    return config;
}

/** HopsFS (@p cached: HopsFS+Cache) on four 16-vCPU NameNodes. */
LambdaFsConfig
hops_config(uint64_t seed, bool cached)
{
    LambdaFsConfig config = hopsfs_config(64.0, cached);
    config.num_client_vms = 1;
    config.clients_per_vm = 2;
    config.seed = seed;
    return config;
}

/**
 * Drive @p steps seeded legacy operations (create/mkdir/rm -r/mv/stat)
 * through client 0, folding every outcome into @p hash. The rng is
 * consumed inside the loop, so any divergence in op outcomes or timing
 * cascades into a different trace.
 */
sim::Task<void>
co_legacy_driver(sim::Simulation& sim, LambdaFs& fs, sim::Rng& rng,
                 int steps, TraceHash& hash, bool& done)
{
    for (int step = 0; step < steps; ++step) {
        Op op;
        double action = rng.uniform();
        if (action < 0.3) {
            op.type = OpType::kCreateFile;
            op.path = random_path(rng, 4);
        } else if (action < 0.5) {
            op.type = OpType::kMkdir;
            op.path = random_path(rng, 3);
        } else if (action < 0.6) {
            op.type = OpType::kSubtreeDelete;
            op.path = random_path(rng, 4);
        } else if (action < 0.7) {
            op.type = OpType::kMv;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
        } else if (action < 0.8) {
            op.type = OpType::kLs;
            op.path = random_path(rng, 3);
        } else {
            op.type = OpType::kStat;
            op.path = random_path(rng, 4);
        }
        OpResult result = co_await fs.client(0).execute(op);
        hash.mix(static_cast<uint64_t>(sim.now()));
        hash.mix(static_cast<uint64_t>(result.status.code()));
        hash.mix(static_cast<uint64_t>(result.inode.id));
        hash.mix(result.inode.version);
    }
    done = true;
}

/** One scripted run's outcome hash and kernel event count. */
struct RunTrace {
    uint64_t outcome = 0;
    uint64_t events = 0;

    bool
    operator==(const RunTrace& o) const
    {
        return outcome == o.outcome && events == o.events;
    }
};

RunTrace
run_legacy_workload(uint64_t seed, int steps)
{
    sim::Simulation sim;
    LambdaFs fs(sim, small_config(seed));
    sim.run_until(sim::sec(2));

    TraceHash hash;
    sim::Rng rng(seed);
    bool done = false;
    sim::spawn(co_legacy_driver(sim, fs, rng, steps, hash, done));
    sim.run_until(sim.now() + sim::sec(100000));
    EXPECT_TRUE(done);
    hash.mix(static_cast<uint64_t>(sim.now()));
    return RunTrace{hash.value(), sim.events_executed()};
}

/**
 * Golden outcome hash of the 400-step legacy-op λFS run; the schedule it
 * describes was captured BEFORE the extended op surface existed. The
 * extended ops must not perturb it while they are unused.
 */
constexpr uint64_t kLegacyGoldenHash = 0x647d6da80d6e6cebull;
/** Events the same run executes (cancelled timers never run). */
constexpr uint64_t kLegacyGoldenEvents = 4400;

TEST(OpDeterminism, LegacyOpsGoldenTrace)
{
    RunTrace run = run_legacy_workload(0x0b5e55ed, 400);
    EXPECT_EQ(run.outcome, kLegacyGoldenHash)
        << "legacy-op λFS outcomes diverged from the pre-extension trace";
    EXPECT_EQ(run.events, kLegacyGoldenEvents)
        << "legacy-op λFS run executed a different number of events";
}

TEST(OpDeterminism, LegacyRepeatRunsAreBitIdentical)
{
    EXPECT_EQ(run_legacy_workload(77, 150), run_legacy_workload(77, 150));
}

/**
 * Drive the FULL op alphabet — legacy ops plus links, setattr, statfs,
 * sessions, and GC — folding outcomes (including statfs counters and
 * GC reclaim counts) into the trace hash.
 */
sim::Task<void>
co_extended_driver(sim::Simulation& sim, LambdaFs& fs, sim::Rng& rng,
                   int steps, TraceHash& hash, bool& done)
{
    uint64_t next_sid = 1;
    std::vector<uint64_t> open_sids;
    for (int step = 0; step < steps; ++step) {
        Op op;
        double action = rng.uniform();
        if (action < 0.2) {
            op.type = OpType::kCreateFile;
            op.path = random_path(rng, 4);
        } else if (action < 0.35) {
            op.type = OpType::kMkdir;
            op.path = random_path(rng, 3);
        } else if (action < 0.43) {
            op.type = OpType::kSubtreeDelete;
            op.path = random_path(rng, 4);
        } else if (action < 0.51) {
            op.type = OpType::kMv;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
        } else if (action < 0.6) {
            op.type = OpType::kSymlink;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
        } else if (action < 0.68) {
            op.type = OpType::kHardLink;
            op.path = random_path(rng, 4);
            op.dst = random_path(rng, 4);
        } else if (action < 0.75) {
            op.type = OpType::kSetAttr;
            op.path = random_path(rng, 4);
            op.attr.mask = AttrUpdate::kMode;
            op.attr.mode = rng.bernoulli(0.5) ? 0600 : 0644;
        } else if (action < 0.82) {
            op.type = OpType::kOpenSession;
            op.path = random_path(rng, 4);
            op.session_id = next_sid++;
            op.lease_ttl = sim::msec(800);
        } else if (action < 0.87) {
            op.type = OpType::kCloseSession;
            op.path = "/";
            if (!open_sids.empty()) {
                size_t idx = rng.index(open_sids.size());
                op.session_id = open_sids[idx];
                open_sids[idx] = open_sids.back();
                open_sids.pop_back();
            } else {
                op.session_id = next_sid + 50000;
            }
        } else if (action < 0.9) {
            op.type = OpType::kGcPrune;
            op.path = "/";
        } else if (action < 0.94) {
            op.type = OpType::kStatFs;
            op.path = "/";
        } else {
            op.type = OpType::kReadFile;
            op.path = random_path(rng, 4);
        }
        OpType sent = op.type;
        uint64_t sid = op.session_id;
        OpResult result = co_await fs.client(0).execute(op);
        if (sent == OpType::kOpenSession && result.status.ok()) {
            open_sids.push_back(sid);
        }
        hash.mix(static_cast<uint64_t>(sim.now()));
        hash.mix(static_cast<uint64_t>(result.status.code()));
        hash.mix(static_cast<uint64_t>(result.inode.id));
        hash.mix(result.inode.version);
        hash.mix(static_cast<uint64_t>(result.inodes_touched));
        hash.mix(static_cast<uint64_t>(result.stats.inodes));
        hash.mix(static_cast<uint64_t>(result.stats.open_sessions));
        hash.mix(static_cast<uint64_t>(result.stats.orphans));
    }
    done = true;
}

RunTrace
run_extended_workload(const LambdaFsConfig& config, int steps)
{
    const uint64_t seed = config.seed;
    sim::Simulation sim;
    LambdaFs fs(sim, config);
    sim.run_until(sim::sec(2));

    TraceHash hash;
    sim::Rng rng(seed);
    bool done = false;
    sim::spawn(co_extended_driver(sim, fs, rng, steps, hash, done));
    sim.run_until(sim.now() + sim::sec(100000));
    EXPECT_TRUE(done);
    hash.mix(static_cast<uint64_t>(sim.now()));
    return RunTrace{hash.value(), sim.events_executed()};
}

/**
 * Golden outcome hash of the 400-step full-alphabet λFS run. Pins the
 * extended op surface itself: any timing or outcome change in
 * link/session/GC plumbing shows up here.
 */
constexpr uint64_t kExtendedGoldenHash = 0xeccb9f6a98358516ull;
/** Events the same run executes (cancelled timers never run). */
constexpr uint64_t kExtendedGoldenEvents = 4627;

TEST(OpDeterminism, ExtendedOpsGoldenTrace)
{
    RunTrace run = run_extended_workload(small_config(0x5ca1ab1e), 400);
    EXPECT_EQ(run.outcome, kExtendedGoldenHash)
        << "extended-op λFS outcomes diverged from their golden trace";
    EXPECT_EQ(run.events, kExtendedGoldenEvents)
        << "extended-op λFS run executed a different number of events";
}

TEST(OpDeterminism, ExtendedRepeatRunsAreBitIdentical)
{
    EXPECT_EQ(run_extended_workload(small_config(99), 150),
              run_extended_workload(small_config(99), 150));
}

/**
 * Golden outcome hashes and event counts of the same full-alphabet run on
 * the HopsFS presets, the denominator of most of the paper's ratios.
 */
constexpr uint64_t kHopsFsGoldenHash = 0x4190c7af20e55ac4ull;
constexpr uint64_t kHopsFsGoldenEvents = 2847;
constexpr uint64_t kHopsFsCacheGoldenHash = 0xf371d2dca49e3405ull;
constexpr uint64_t kHopsFsCacheGoldenEvents = 4181;

TEST(OpDeterminism, HopsFsExtendedOpsGoldenTrace)
{
    RunTrace run = run_extended_workload(hops_config(0x5ca1ab1e, false), 400);
    EXPECT_EQ(run.outcome, kHopsFsGoldenHash)
        << "extended-op HopsFS outcomes diverged from their golden trace";
    EXPECT_EQ(run.events, kHopsFsGoldenEvents)
        << "extended-op HopsFS run executed a different number of events";
}

TEST(OpDeterminism, HopsFsCacheExtendedOpsGoldenTrace)
{
    RunTrace run = run_extended_workload(hops_config(0x5ca1ab1e, true), 400);
    EXPECT_EQ(run.outcome, kHopsFsCacheGoldenHash)
        << "extended-op HopsFS+Cache outcomes diverged from their golden "
           "trace";
    EXPECT_EQ(run.events, kHopsFsCacheGoldenEvents)
        << "extended-op HopsFS+Cache run executed a different number of "
           "events";
}

}  // namespace
}  // namespace lfs::core
