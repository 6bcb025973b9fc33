/**
 * @file
 * Tests for the latency attribution ledger (DESIGN.md §11): the ledger
 * arithmetic itself, the segments-sum-to-end-to-end invariant across
 * λFS and every baseline, the ledger's independence of the attribution
 * switch (which arms recording only), the attribution-off determinism
 * guarantee (enabling it never changes simulated results), the
 * tail-exemplar flight recorder, and the histogram bucket export that
 * scripts/lfs_report.py consumes.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cephfs/cephfs.h"
#include "src/core/lambda_fs.h"
#include "src/indexfs/indexfs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/latency.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"
#include "src/workload/microbench.h"

namespace lfs {
namespace {

using sim::LatencyLedger;
using sim::LatSeg;
using sim::Simulation;
using sim::Task;

// ---------------------------------------------------------------------
// Ledger arithmetic
// ---------------------------------------------------------------------

TEST(LatencyLedger, AddAccumulatesAndIgnoresNonPositive)
{
    LatencyLedger ledger;
    EXPECT_TRUE(ledger.empty());
    EXPECT_EQ(ledger.total(), 0);

    ledger.add(LatSeg::kNetClient, 100);
    ledger.add(LatSeg::kNetClient, 50);
    ledger.add(LatSeg::kStoreService, 200);
    ledger.add(LatSeg::kNameNodeCpu, 0);    // ignored
    ledger.add(LatSeg::kNameNodeCpu, -25);  // ignored

    EXPECT_EQ(ledger.get(LatSeg::kNetClient), 150);
    EXPECT_EQ(ledger.get(LatSeg::kStoreService), 200);
    EXPECT_EQ(ledger.get(LatSeg::kNameNodeCpu), 0);
    EXPECT_EQ(ledger.total(), 350);
    EXPECT_FALSE(ledger.empty());

    ledger.clear();
    EXPECT_TRUE(ledger.empty());
    EXPECT_EQ(ledger.total(), 0);
}

TEST(LatencyLedger, MergeSumsSegmentWise)
{
    LatencyLedger a;
    a.add(LatSeg::kNetClient, 10);
    a.add(LatSeg::kGatewayQueue, 5);
    LatencyLedger b;
    b.add(LatSeg::kNetClient, 7);
    b.add(LatSeg::kColdStartWait, 300);
    a.merge(b);
    EXPECT_EQ(a.get(LatSeg::kNetClient), 17);
    EXPECT_EQ(a.get(LatSeg::kGatewayQueue), 5);
    EXPECT_EQ(a.get(LatSeg::kColdStartWait), 300);
    EXPECT_EQ(a.total(), 322);
}

TEST(LatencyLedger, FinalizeAttributesRemainderAndClampsOverrun)
{
    LatencyLedger ledger;
    ledger.add(LatSeg::kNetClient, 100);
    ledger.add(LatSeg::kStoreService, 250);
    ledger.finalize(500);
    EXPECT_EQ(ledger.get(LatSeg::kUnattributed), 150);
    EXPECT_EQ(ledger.total(), 500);

    // Over-attributed (measurement jitter): the remainder clamps at
    // zero rather than going negative.
    LatencyLedger over;
    over.add(LatSeg::kNetClient, 600);
    over.finalize(500);
    EXPECT_EQ(over.get(LatSeg::kUnattributed), 0);
}

TEST(LatencyLedger, SegmentNamesAreUniqueAndSnakeCase)
{
    std::set<std::string> names;
    for (size_t i = 0; i < sim::kLatSegCount; ++i) {
        std::string name = sim::lat_seg_name(static_cast<LatSeg>(i));
        EXPECT_FALSE(name.empty());
        for (char c : name) {
            EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_')
                << "segment name not snake_case: " << name;
        }
        names.insert(name);
    }
    EXPECT_EQ(names.size(), sim::kLatSegCount);
}

// ---------------------------------------------------------------------
// The invariant: attributed time never exceeds the measured end-to-end
// latency, and finalize() closes the gap exactly. Checked against λFS
// and every baseline system.
// ---------------------------------------------------------------------

Op
make_op(OpType type, std::string p)
{
    Op op;
    op.type = type;
    op.path = std::move(p);
    return op;
}

Op
make_dst_op(OpType type, std::string p, std::string dst)
{
    Op op = make_op(type, std::move(p));
    op.dst = std::move(dst);
    return op;
}

Op
make_session_op(OpType type, std::string p, uint64_t sid)
{
    Op op = make_op(type, std::move(p));
    op.session_id = sid;
    op.lease_ttl = sim::sec(5);
    return op;
}

Op
make_chmod_op(std::string p)
{
    Op op = make_op(OpType::kSetAttr, std::move(p));
    op.attr.mask = AttrUpdate::kMode;
    op.attr.mode = 0600;
    return op;
}

struct TimedResult {
    OpResult result;
    sim::SimTime e2e = 0;
    sim::SimTime end = 0;  ///< completion time (sim.now() keeps advancing)
};

Task<void>
co_timed(workload::DfsClient& client, Op op, Simulation& sim,
         TimedResult& out)
{
    sim::SimTime start = sim.now();
    out.result = co_await client.execute(std::move(op));
    out.e2e = sim.now() - start;
    out.end = sim.now();
}

TimedResult
run_timed(Simulation& sim, workload::Dfs& fs, size_t client, Op op)
{
    TimedResult out;
    sim::spawn(co_timed(fs.client(client), std::move(op), sim, out));
    sim.run_until(sim.now() + sim::sec(60));
    return out;
}

void
expect_invariant(const TimedResult& timed, const std::string& what)
{
    ASSERT_TRUE(timed.result.status.ok()) << what;
    const LatencyLedger& ledger = timed.result.ledger;
    EXPECT_FALSE(ledger.empty()) << what << ": no segments attributed";
    EXPECT_LE(ledger.total(), timed.e2e)
        << what << ": attributed more time than the op took";
    LatencyLedger finalized = ledger;
    finalized.finalize(timed.e2e);
    EXPECT_EQ(finalized.total(), timed.e2e)
        << what << ": finalized ledger does not sum to end-to-end";
}

/**
 * Satellite invariant sweep: every extended op kind (links, setattr,
 * statfs, sessions, GC) must satisfy the sum-to-e2e ledger invariant on
 * the given system. @p base is an existing directory with file @p file
 * in it; new names are created inside @p base.
 */
void
expect_extended_ops_invariant(Simulation& sim, workload::Dfs& fs,
                              const std::string& base,
                              const std::string& file, const char* system)
{
    std::string prefix(system);
    auto tag = [&prefix](const char* op) { return prefix + " " + op; };
    expect_invariant(
        run_timed(sim, fs, 0,
                  make_dst_op(OpType::kHardLink, file, base + "/attr_ln")),
        tag("hardlink"));
    expect_invariant(
        run_timed(sim, fs, 0,
                  make_dst_op(OpType::kSymlink, base + "/attr_sl", file)),
        tag("symlink"));
    // Read through the link: exercises the symlink-chase ledger merge.
    expect_invariant(
        run_timed(sim, fs, 1, make_op(OpType::kReadFile, base + "/attr_sl")),
        tag("read via symlink"));
    expect_invariant(run_timed(sim, fs, 0, make_chmod_op(file)),
                     tag("setattr"));
    expect_invariant(run_timed(sim, fs, 1, make_op(OpType::kStatFs, "/")),
                     tag("statfs"));
    expect_invariant(
        run_timed(sim, fs, 0,
                  make_session_op(OpType::kOpenSession, file, 4001)),
        tag("open session"));
    expect_invariant(
        run_timed(sim, fs, 0,
                  make_session_op(OpType::kCloseSession, file, 4001)),
        tag("close session"));
    expect_invariant(run_timed(sim, fs, 0, make_op(OpType::kGcPrune, "/")),
                     tag("gc prune"));
}

TEST(AttributionInvariant, LambdaFs)
{
    Simulation sim;
    sim.set_attribution(true);
    core::LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    config.prewarm_per_deployment = 1;
    core::LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/f", root, 0);
    sim.run_until(sim::sec(5));

    expect_invariant(run_timed(sim, fs, 0, make_op(OpType::kStat, "/d/f")),
                     "lambda-fs stat");
    expect_invariant(
        run_timed(sim, fs, 1, make_op(OpType::kCreateFile, "/d/g")),
        "lambda-fs create");
    // Cached re-read: still attributed (client/NN time), still bounded.
    expect_invariant(run_timed(sim, fs, 0, make_op(OpType::kStat, "/d/f")),
                     "lambda-fs cached stat");
    expect_extended_ops_invariant(sim, fs, "/d", "/d/f", "lambda-fs");
}

TEST(AttributionInvariant, HopsFs)
{
    Simulation sim;
    sim.set_attribution(true);
    core::LambdaFsConfig config = core::hopsfs_config(64.0, false);
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    core::LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/f", root, 0);
    sim.run_until(sim::sec(1));

    expect_invariant(run_timed(sim, fs, 0, make_op(OpType::kStat, "/d/f")),
                     "hopsfs stat");
    expect_invariant(
        run_timed(sim, fs, 1, make_op(OpType::kCreateFile, "/d/g")),
        "hopsfs create");
    expect_extended_ops_invariant(sim, fs, "/d", "/d/f", "hopsfs");
}

TEST(AttributionInvariant, CephFs)
{
    Simulation sim;
    sim.set_attribution(true);
    cephfs::CephFsConfig config;
    config.num_mds = 2;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    cephfs::CephFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/f", root, 0);

    expect_invariant(run_timed(sim, fs, 0, make_op(OpType::kStat, "/d/f")),
                     "cephfs stat");
    // Capability hit: served locally, attributed as metadata-service CPU.
    expect_invariant(run_timed(sim, fs, 0, make_op(OpType::kStat, "/d/f")),
                     "cephfs cap-hit stat");
    expect_extended_ops_invariant(sim, fs, "/d", "/d/f", "cephfs");
}

TEST(AttributionInvariant, IndexFs)
{
    Simulation sim;
    sim.set_attribution(true);
    indexfs::IndexFsConfig config;
    config.num_servers = 2;
    config.num_client_vms = 2;
    config.clients_per_vm = 4;
    indexfs::IndexFs fs(sim, config);
    fs.preload("/tt/d0", ns::INodeType::kDirectory);
    sim.run_until(sim::sec(1));

    expect_invariant(
        run_timed(sim, fs, 0, make_op(OpType::kCreateFile, "/tt/d0/n1")),
        "indexfs create");
    expect_invariant(
        run_timed(sim, fs, 1, make_op(OpType::kStat, "/tt/d0/n1")),
        "indexfs stat");
    expect_extended_ops_invariant(sim, fs, "/tt/d0", "/tt/d0/n1",
                                  "indexfs");
}

TEST(AttributionInvariant, LambdaIndexFs)
{
    Simulation sim;
    sim.set_attribution(true);
    core::LambdaFsConfig config = core::lambda_indexfs_config();
    config.num_deployments = 2;
    config.total_vcpus = 16.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 4;
    config.store.num_data_nodes = 2;
    core::LambdaFs fs(sim, config);
    fs.preload("/tt/d0", ns::INodeType::kDirectory);
    sim.run_until(sim::sec(5));

    expect_invariant(
        run_timed(sim, fs, 0, make_op(OpType::kCreateFile, "/tt/d0/n1")),
        "lambda-indexfs create");
    expect_invariant(
        run_timed(sim, fs, 1, make_op(OpType::kStat, "/tt/d0/n1")),
        "lambda-indexfs stat");
    expect_extended_ops_invariant(sim, fs, "/tt/d0", "/tt/d0/n1",
                                  "lambda-indexfs");
}

TEST(AttributionInvariant, InfiniCache)
{
    Simulation sim;
    sim.set_attribution(true);
    core::LambdaFsConfig config = core::infinicache_config();
    config.num_deployments = 4;
    config.total_vcpus = 32.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    core::LambdaFs fs(sim, config);
    fs.set_max_instances_per_deployment(1);
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(5));

    expect_invariant(run_timed(sim, fs, 0, make_op(OpType::kStat, "/f")),
                     "infinicache stat");
    ns::UserContext setup_root;
    fs.authoritative_tree().mkdirs("/d", setup_root, 0);
    fs.authoritative_tree().create_file("/d/f", setup_root, 0);
    expect_extended_ops_invariant(sim, fs, "/d", "/d/f", "infinicache");
}

/** Builds a system on @p sim and returns the directory its ops use. */
using MakeDfs = std::function<std::string(Simulation& sim,
                                          std::unique_ptr<workload::Dfs>&)>;

/** One op issued and recorded the way the workload drivers do it. */
Task<void>
co_recorded(Simulation& sim, workload::Dfs& fs, Op op, TimedResult& out)
{
    const OpType type = op.type;
    const std::string path = op.path;
    sim::SimTime start = sim.now();
    out.result = co_await fs.client(0).execute(std::move(op));
    out.e2e = sim.now() - start;
    workload::record_op(sim, fs, type, path, out.result, out.e2e,
                        out.result.status.ok());
}

/** The finalized ledgers of a create then a stat of one new file. */
std::vector<LatencyLedger>
create_then_stat_ledgers(bool attribution, const MakeDfs& make)
{
    Simulation sim;
    sim.set_attribution(attribution);
    std::unique_ptr<workload::Dfs> fs;
    const std::string file = make(sim, fs) + "/n1";
    sim.run_until(sim::sec(5));
    std::vector<LatencyLedger> ledgers;
    for (OpType type : {OpType::kCreateFile, OpType::kStat}) {
        TimedResult timed;
        sim::spawn(co_recorded(sim, *fs, make_op(type, file), timed));
        sim.run_until(sim.now() + sim::sec(60));
        EXPECT_TRUE(timed.result.status.ok()) << op_name(type);
        timed.result.ledger.finalize(timed.e2e);
        ledgers.push_back(timed.result.ledger);
    }
    // The switch arms the recording only: attr.* metrics exist iff on.
    const bool exported = sim.metrics().to_json(sim.now()).find(
                              "\"attr.") != std::string::npos;
    EXPECT_EQ(exported, attribution);
    return ledgers;
}

void
expect_stamped_whatever_the_switch(const MakeDfs& make, const char* system)
{
    std::vector<LatencyLedger> off = create_then_stat_ledgers(false, make);
    std::vector<LatencyLedger> on = create_then_stat_ledgers(true, make);
    ASSERT_EQ(off.size(), on.size());
    for (size_t op = 0; op < off.size(); ++op) {
        EXPECT_GT(off[op].total(), off[op].get(LatSeg::kUnattributed))
            << system << " op " << op << ": nothing stamped";
        for (size_t i = 0; i < sim::kLatSegCount; ++i) {
            auto seg = static_cast<LatSeg>(i);
            EXPECT_EQ(off[op].get(seg), on[op].get(seg))
                << system << " op " << op << " " << sim::lat_seg_name(seg);
        }
    }
}

TEST(AttributionInvariant, LedgerIsStampedWithTheSwitchOff)
{
    expect_stamped_whatever_the_switch(
        [](Simulation& sim, std::unique_ptr<workload::Dfs>& out) {
            core::LambdaFsConfig config;
            config.num_deployments = 2;
            config.total_vcpus = 32.0;
            config.function.vcpus = 4.0;
            config.num_client_vms = 1;
            config.clients_per_vm = 4;
            config.prewarm_per_deployment = 1;
            auto fs = std::make_unique<core::LambdaFs>(sim, config);
            fs->authoritative_tree().mkdirs("/d", ns::UserContext{}, 0);
            out = std::move(fs);
            return std::string("/d");
        },
        "lambda-fs");
    expect_stamped_whatever_the_switch(
        [](Simulation& sim, std::unique_ptr<workload::Dfs>& out) {
            core::LambdaFsConfig config = core::hopsfs_config(32.0, false);
            config.num_client_vms = 1;
            config.clients_per_vm = 2;
            auto fs = std::make_unique<core::LambdaFs>(sim, config);
            fs->authoritative_tree().mkdirs("/d", ns::UserContext{}, 0);
            out = std::move(fs);
            return std::string("/d");
        },
        "hopsfs");
    expect_stamped_whatever_the_switch(
        [](Simulation& sim, std::unique_ptr<workload::Dfs>& out) {
            indexfs::IndexFsConfig config;
            config.num_servers = 2;
            config.num_client_vms = 1;
            config.clients_per_vm = 2;
            auto fs = std::make_unique<indexfs::IndexFs>(sim, config);
            fs->preload("/tt/d0", ns::INodeType::kDirectory);
            out = std::move(fs);
            return std::string("/tt/d0");
        },
        "indexfs");
}

// ---------------------------------------------------------------------
// Determinism: attribution observes, it never schedules. A bench run
// with the ledger + flight recorder armed must produce byte-identical
// simulated results to the same run with them off.
// ---------------------------------------------------------------------

workload::MicrobenchResult
run_small_microbench(bool attribution, uint64_t* events,
                     sim::SimTime* end_time)
{
    Simulation sim;
    sim.set_attribution(attribution);
    sim.flight_recorder().set_enabled(attribution);
    core::LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 2;
    config.clients_per_vm = 8;
    config.prewarm_per_deployment = 1;
    core::LambdaFs fs(sim, config);
    ns::NamespaceTree& tree = fs.authoritative_tree();
    ns::TreeSpec spec;
    spec.depth = 2;
    spec.fanout = 3;
    spec.files_per_dir = 4;
    ns::BuiltTree built =
        ns::build_balanced_tree(tree, spec, ns::UserContext{}, 0);

    workload::MicrobenchConfig mcfg;
    mcfg.op = OpType::kStat;
    mcfg.num_clients = 16;
    mcfg.ops_per_client = 16;
    mcfg.seed = 42;
    workload::MicrobenchResult r =
        workload::run_microbench(sim, fs, std::move(built), mcfg);
    *events = sim.events_executed();
    *end_time = sim.now();
    return r;
}

TEST(AttributionDeterminism, EnablingAttributionDoesNotChangeResults)
{
    uint64_t events_off = 0;
    uint64_t events_on = 0;
    sim::SimTime end_off = 0;
    sim::SimTime end_on = 0;
    workload::MicrobenchResult off =
        run_small_microbench(false, &events_off, &end_off);
    workload::MicrobenchResult on =
        run_small_microbench(true, &events_on, &end_on);

    EXPECT_EQ(off.completed, on.completed);
    EXPECT_EQ(off.failed, on.failed);
    EXPECT_EQ(off.elapsed, on.elapsed);
    EXPECT_EQ(end_off, end_on);
    EXPECT_EQ(events_off, events_on);
    EXPECT_EQ(off.ops_per_sec, on.ops_per_sec);
    EXPECT_EQ(off.p99_latency_ms, on.p99_latency_ms);
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(FlightRecorder, RetainsWorstKPerWindow)
{
    sim::FlightRecorder recorder;
    recorder.set_enabled(true);
    const int k = recorder.config().worst_k;

    LatencyLedger ledger;
    ledger.add(LatSeg::kStoreService, 1);
    // 100 ops in one window with latencies 1..100: only the worst k
    // survive, and the worst overall leads the reservoir.
    for (int i = 1; i <= 100; ++i) {
        recorder.observe(sim::msec(i), "stat", "/f", "test",
                         sim::msec(i), true, 0, ledger, nullptr);
    }
    EXPECT_EQ(recorder.retained(), static_cast<size_t>(k));
    std::vector<const sim::Exemplar*> exemplars = recorder.exemplars();
    ASSERT_FALSE(exemplars.empty());
    EXPECT_EQ(exemplars.front()->latency, sim::msec(100));
    // The k-th worst is 100-k+1; anything slower was rejected.
    for (const sim::Exemplar* e : exemplars) {
        EXPECT_GE(e->latency, sim::msec(100 - k + 1));
    }
}

TEST(FlightRecorder, WindowRollMovesSurvivorsToArchive)
{
    sim::FlightRecorder recorder;
    recorder.set_enabled(true);
    recorder.config().worst_k = 4;
    LatencyLedger ledger;
    ledger.add(LatSeg::kNetClient, 1);
    for (int w = 0; w < 3; ++w) {
        sim::SimTime base = sim::sec(31) * w;
        for (int i = 1; i <= 10; ++i) {
            recorder.observe(base + sim::msec(i), "read", "/f", "test",
                             sim::msec(i), true, 0, ledger, nullptr);
        }
    }
    // Two rolled windows in the archive + the live one: 3 * worst_k.
    EXPECT_EQ(recorder.retained(), 12u);
    EXPECT_GE(recorder.retained(), 8u);  // the acceptance floor
    std::string json = recorder.to_json();
    EXPECT_NE(json.find("\"op\":\"read\""), std::string::npos);
    EXPECT_NE(json.find("\"net_client\""), std::string::npos);
}

TEST(FlightRecorder, DisabledObserveIsANoOp)
{
    sim::FlightRecorder recorder;
    LatencyLedger ledger;
    recorder.observe(0, "stat", "/f", "test", sim::msec(5), true, 0,
                     ledger, nullptr);
    EXPECT_EQ(recorder.retained(), 0u);
}

TEST(FlightRecorder, ExemplarsCarrySpanTreesWhenTracerEnabled)
{
    Simulation sim;
    sim.set_attribution(true);
    sim.flight_recorder().set_enabled(true);
    sim.tracer().set_enabled(true);
    sim.tracer().set_annotations_enabled(false);
    core::LambdaFsConfig config;
    config.num_deployments = 2;
    config.total_vcpus = 32.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 1;
    config.clients_per_vm = 4;
    config.prewarm_per_deployment = 1;
    core::LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(5));

    TimedResult timed = run_timed(sim, fs, 0, make_op(OpType::kStat, "/f"));
    ASSERT_TRUE(timed.result.status.ok());
    LatencyLedger finalized = timed.result.ledger;
    finalized.finalize(timed.e2e);
    // Observe at the op's completion time, as the production call sites
    // do — the recorder derives the span-scan bound from now - latency.
    sim.flight_recorder().observe(timed.end, "stat", "/f", "lambda-fs",
                                  timed.e2e, true, timed.result.trace_id,
                                  finalized, &sim.tracer());
    ASSERT_EQ(sim.flight_recorder().retained(), 1u);
    const sim::Exemplar* exemplar = sim.flight_recorder().exemplars()[0];
    EXPECT_NE(exemplar->trace_id, 0u);
    EXPECT_FALSE(exemplar->spans.empty())
        << "traced exemplar should carry its span tree";
}

// ---------------------------------------------------------------------
// Histogram export (what lfs_report.py consumes)
// ---------------------------------------------------------------------

TEST(HistogramExport, NonzeroBucketsCoverAllSamples)
{
    sim::Histogram h;
    h.record(10);
    h.record(10);
    h.record(5000);
    h.record(1000000);
    uint64_t total = 0;
    int64_t prev_edge = -1;
    for (const auto& [le, count] : h.nonzero_buckets()) {
        EXPECT_GT(le, prev_edge);  // ascending edges
        prev_edge = le;
        total += count;
    }
    EXPECT_EQ(total, h.count());
}

TEST(HistogramExport, RegistryJsonIncludesBuckets)
{
    sim::MetricsRegistry registry;
    sim::Histogram& h =
        registry.histogram("attr.segment", {{"seg", "net_client"}});
    h.record(100);
    h.record(200);
    std::string json = registry.to_json(0);
    EXPECT_NE(json.find("\"buckets\":[{\"le\":"), std::string::npos);
    EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

TEST(HistogramExport, DeltaSemanticsSurviveBucketExport)
{
    sim::Histogram h;
    h.record(100);
    h.record(200);
    sim::Histogram snapshot = h;
    h.record(300);
    h.record(400);
    sim::Histogram window = h.delta(snapshot);
    EXPECT_EQ(window.count(), 2u);
    uint64_t total = 0;
    for (const auto& [le, count] : window.nonzero_buckets()) {
        (void)le;
        total += count;
    }
    EXPECT_EQ(total, 2u);
}

TEST(HistogramExport, ForEachHistogramVisitsWholeFamily)
{
    sim::MetricsRegistry registry;
    registry.histogram("attr.segment", {{"seg", "net_client"}}).record(1);
    registry.histogram("attr.segment", {{"seg", "store_queue"}}).record(2);
    registry.histogram("attr.total", {}).record(3);
    std::set<std::string> segs;
    registry.for_each_histogram(
        "attr.segment",
        [&](const sim::MetricLabels& labels, const sim::Histogram& hist) {
            EXPECT_EQ(hist.count(), 1u);
            for (const auto& [key, value] : labels) {
                if (key == "seg") {
                    segs.insert(value);
                }
            }
        });
    EXPECT_EQ(segs, (std::set<std::string>{"net_client", "store_queue"}));
}

}  // namespace
}  // namespace lfs
