/**
 * @file
 * Tests for the λFS client library's resilience policies: straggler
 * mitigation resolves silent instance deaths, resubmitted requests are
 * deduplicated by the NameNode result cache, a retained result is
 * released once its op's only request copy has been answered (and kept
 * while a duplicate copy may still arrive), anti-thrashing mode engages
 * on latency blow-ups, and exponential backoff grows and is jittered.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/namespace/tree_builder.h"
#include "src/sim/fault.h"
#include "src/sim/simulation.h"

namespace lfs::core {
namespace {

using sim::Simulation;
using sim::Task;

LambdaFsConfig
policy_config()
{
    LambdaFsConfig config;
    config.num_deployments = 2;
    config.total_vcpus = 16.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 1;
    config.clients_per_vm = 4;
    return config;
}

Op
make_op(OpType type, std::string p)
{
    Op op;
    op.type = type;
    op.path = std::move(p);
    return op;
}

Task<void>
co_execute_timed(Simulation& sim, workload::DfsClient& client, Op op,
                 OpResult& out, sim::SimTime& done_at)
{
    out = co_await client.execute(std::move(op));
    done_at = sim.now();
}

OpResult
run_to_completion(Simulation& sim, LambdaFs& fs, size_t client, Op op)
{
    OpResult result;
    sim::SimTime done = -1;
    sim::spawn(co_execute_timed(sim, fs.client(client), std::move(op),
                                result, done));
    while (done < 0 && sim.step()) {
    }
    return result;
}

TEST(ClientPolicies, StragglerMitigationRecoversFromSilentDeath)
{
    Simulation sim;
    LambdaFs fs(sim, policy_config());
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(3));

    // Establish a TCP connection and a latency baseline.
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(run_to_completion(sim, fs, 0,
                                      make_op(OpType::kStat, "/f"))
                        .status.ok());
    }
    LfsClient& client = fs.lfs_client(0);
    uint64_t timeouts_before = client.timeouts();

    // Kill the connected NameNode the instant a request departs: the
    // reply never arrives (silent death) and only the straggler timeout
    // can resolve the attempt.
    int target = fs.partitioner().deployment_for("/f");
    OpResult result;
    sim::SimTime done = -1;
    sim::spawn(co_execute_timed(sim, fs.client(0),
                                make_op(OpType::kStat, "/f"), result, done));
    sim.schedule(sim::usec(100),
                 [&fs, target] { fs.kill_name_node(target); });
    while (done < 0 && sim.step()) {
    }
    EXPECT_TRUE(result.status.ok());  // resubmission succeeded
    EXPECT_GT(client.timeouts(), timeouts_before);
    EXPECT_GT(client.resubmissions(), 0u);
}

TEST(ClientPolicies, ResubmittedRequestsAreDeduplicatedServerSide)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.straggler_threshold = 2.0;  // aggressive resubmission
    config.client.tcp_timeout_floor = sim::msec(1);
    LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    sim.run_until(sim::sec(3));

    // Warm the latency window with fast reads so the straggler threshold
    // is tight, then issue a create whose first attempt will straggle
    // behind an artificially busy NameNode.
    fs.authoritative_tree().create_file("/d/warm", root, 0);
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(run_to_completion(sim, fs, 0,
                                      make_op(OpType::kStat, "/d/warm"))
                        .status.ok());
    }
    OpResult create =
        run_to_completion(sim, fs, 0, make_op(OpType::kCreateFile, "/d/x"));
    // Whether or not the first attempt straggled, the operation must
    // succeed exactly once: a duplicate execution would surface as
    // ALREADY_EXISTS here (the resubmission hits the result cache
    // instead).
    EXPECT_TRUE(create.status.ok()) << create.status.to_string();
    EXPECT_TRUE(
        fs.authoritative_tree().stat("/d/x", root).ok());
}

/** Drop every client-bound reply for 100 ms starting now. */
void
drop_replies_briefly(sim::Simulation& sim, sim::FaultPlan& plan)
{
    sim::MessageFaultWindow w;
    w.from = sim.now();
    w.until = sim.now() + sim::msec(100);
    w.channels = sim::channel_bit(sim::FaultChannel::kClientRpc) |
                 sim::channel_bit(sim::FaultChannel::kGateway);
    w.drop_reply_p = 1.0;
    plan.add_message_faults(w);
}

TEST(ClientPolicies, CommittedCreateWithLostReplyIsNotAlreadyExists)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.anti_thrashing = false;  // keep routing deployment-stable
    LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/warm", root, 0);
    sim.run_until(sim::sec(3));
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(run_to_completion(sim, fs, 0,
                                      make_op(OpType::kStat, "/d/warm"))
                        .status.ok());
    }

    // The first create attempt commits server-side, but its reply is
    // lost; the resubmission must land on the deployment's retained
    // results and report the original success, not ALREADY_EXISTS.
    sim::FaultPlan plan(sim, 1);
    drop_replies_briefly(sim, plan);
    LfsClient& client = fs.lfs_client(0);
    OpResult create =
        run_to_completion(sim, fs, 0, make_op(OpType::kCreateFile, "/d/x"));
    EXPECT_TRUE(create.status.ok()) << create.status.to_string();
    EXPECT_GE(client.resubmissions(), 1u);
    EXPECT_TRUE(fs.authoritative_tree().stat("/d/x", root).ok());
}

TEST(ClientPolicies, CreateRetryReconcilesOwnCommitWithoutDedup)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.anti_thrashing = false;
    // Force the server-side dedup miss so the client's ctime-guarded
    // reconciliation probe is the only thing standing between a lost
    // reply and a spurious ALREADY_EXISTS.
    config.name_node.result_cache_entries = 0;
    LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/warm", root, 0);
    sim.run_until(sim::sec(3));
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(run_to_completion(sim, fs, 0,
                                      make_op(OpType::kStat, "/d/warm"))
                        .status.ok());
    }

    sim::FaultPlan plan(sim, 1);
    drop_replies_briefly(sim, plan);
    LfsClient& client = fs.lfs_client(0);
    OpResult create =
        run_to_completion(sim, fs, 0, make_op(OpType::kCreateFile, "/d/x"));
    EXPECT_TRUE(create.status.ok()) << create.status.to_string();
    EXPECT_GE(client.reconciled_creates(), 1u);
    EXPECT_TRUE(fs.authoritative_tree().stat("/d/x", root).ok());
}

Op
make_mv(std::string from, std::string to)
{
    Op op = make_op(OpType::kMv, std::move(from));
    op.dst = std::move(to);
    return op;
}

/**
 * One closed-loop client: per round, create a file, stat it, list its
 * directory, and move it. Counts every op that did not end OK.
 */
Task<void>
co_file_rounds(LambdaFs& fs, size_t client, int rounds, int& not_ok,
               sim::WaitGroup& wg)
{
    const std::string dir = "/w/c" + std::to_string(client);
    for (int i = 0; i < rounds; ++i) {
        const std::string file = dir + "/f" + std::to_string(i);
        const std::string moved = dir + "/g" + std::to_string(i);
        for (Op op : {make_op(OpType::kCreateFile, file),
                      make_op(OpType::kStat, file),
                      make_op(OpType::kLs, dir), make_mv(file, moved)}) {
            OpResult r = co_await fs.client(client).execute(std::move(op));
            if (!r.status.ok()) {
                ++not_ok;
            }
        }
    }
    wg.done();
}

/** Run co_file_rounds on every client of @p fs; @return not-OK ops. */
int
run_file_rounds(Simulation& sim, LambdaFs& fs, int rounds)
{
    ns::UserContext root;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        fs.authoritative_tree().mkdirs("/w/c" + std::to_string(c), root, 0);
    }
    sim.run_until(sim::sec(3));
    int not_ok = 0;
    sim::WaitGroup wg(sim);
    for (size_t c = 0; c < fs.client_count(); ++c) {
        wg.add();
        sim::spawn(co_file_rounds(fs, c, rounds, not_ok, wg));
    }
    sim.run_until(sim.now() + sim::sec(600));
    EXPECT_EQ(wg.count(), 0) << "clients did not finish";
    return not_ok;
}

/** Every round's file ends moved: created once, moved once. */
void
expect_every_file_moved_once(LambdaFs& fs, int rounds)
{
    ns::UserContext root;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        const std::string dir = "/w/c" + std::to_string(c);
        auto listing = fs.authoritative_tree().list(dir, root);
        ASSERT_TRUE(listing.ok());
        EXPECT_EQ(listing->size(), static_cast<size_t>(rounds)) << dir;
        for (int i = 0; i < rounds; ++i) {
            EXPECT_TRUE(fs.authoritative_tree()
                            .stat(dir + "/g" + std::to_string(i), root)
                            .ok())
                << dir << " g" << i;
        }
    }
}

uint64_t
total_result_cache_hits(LambdaFs& fs)
{
    uint64_t hits = 0;
    for (int d = 0; d < fs.partitioner().deployment_count(); ++d) {
        hits += fs.result_cache(d).hits();
    }
    return hits;
}

TEST(ClientPolicies, FaultFreeRunLeavesNoRetainedResults)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.http_replace_probability = 0.3;  // both transports
    LambdaFs fs(sim, config);
    const int rounds = 25;
    EXPECT_EQ(run_file_rounds(sim, fs, rounds), 0);
    expect_every_file_moved_once(fs, rounds);
    uint64_t tcp = 0;
    uint64_t http = 0;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        ASSERT_EQ(fs.lfs_client(c).resubmissions(), 0u);
        tcp += fs.lfs_client(c).tcp_rpcs();
        http += fs.lfs_client(c).http_rpcs();
    }
    EXPECT_GT(tcp, 0u);
    EXPECT_GT(http, 0u);
    // Every op ended on its only attempt, so every record was released.
    for (int d = 0; d < fs.partitioner().deployment_count(); ++d) {
        EXPECT_EQ(fs.result_cache(d).live(), 0u) << "deployment " << d;
    }
    EXPECT_EQ(total_result_cache_hits(fs), 0u);
}

TEST(ClientPolicies, DuplicatedRequestsAndLostRepliesStayExactlyOnce)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.http_replace_probability = 0.3;
    LambdaFs fs(sim, config);
    sim::FaultPlan plan(sim, 7);
    sim::MessageFaultWindow w;
    w.from = sim::sec(3);
    w.until = sim::sec(600);
    w.channels = sim::channel_bit(sim::FaultChannel::kClientRpc) |
                 sim::channel_bit(sim::FaultChannel::kGateway);
    w.duplicate_p = 0.3;
    w.drop_reply_p = 0.05;
    plan.add_message_faults(w);
    const int rounds = 25;
    const uint64_t writes_before = fs.store().total_writes();
    EXPECT_EQ(run_file_rounds(sim, fs, rounds), 0);
    expect_every_file_moved_once(fs, rounds);
    EXPECT_GT(plan.messages_duplicated(), 0u);
    EXPECT_GT(plan.messages_dropped(), 0u);
    // Duplicates and resubmissions were answered from retained results:
    // the store ran one write transaction per create and per mv.
    EXPECT_GT(total_result_cache_hits(fs), 0u);
    EXPECT_EQ(fs.store().total_writes() - writes_before,
              2u * static_cast<uint64_t>(rounds) * fs.client_count());
    uint64_t reconciled = 0;
    for (size_t c = 0; c < fs.client_count(); ++c) {
        reconciled += fs.lfs_client(c).reconciled_creates();
    }
    EXPECT_EQ(reconciled, 0u);
}

TEST(ClientPolicies, DuplicatedAttemptKeepsItsRecordUntilTheCopyIsServed)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.http_replace_probability = 0.0;
    config.client.anti_thrashing = false;
    LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().mkdirs("/d", root, 0);
    fs.authoritative_tree().create_file("/d/warm", root, 0);
    sim.run_until(sim::sec(3));
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(run_to_completion(sim, fs, 0,
                                      make_op(OpType::kStat, "/d/warm"))
                        .status.ok());
    }
    // Client 0 issues create A, whose only attempt is sent twice, and a
    // microsecond later create B, sent once; both are in flight at once.
    // Every invocation stalls for a random 0-50 ms before reaching the
    // NameNode, so one copy of A is served well after A's reply is in.
    const sim::SimTime t0 = sim.now();
    sim::FaultPlan plan(sim, 5);
    sim::MessageFaultWindow dup;
    dup.from = t0;
    dup.until = t0 + 1;
    dup.channels = sim::channel_bit(sim::FaultChannel::kClientRpc);
    dup.duplicate_p = 1.0;
    plan.add_message_faults(dup);
    sim::InstanceFaultWindow stall;
    stall.from = t0;
    stall.until = t0 + sim::msec(10);
    stall.stall_p = 1.0;
    plan.add_instance_faults(stall);

    const int deployment_a = fs.partitioner().deployment_for("/d/a");
    const uint64_t writes_before = fs.store().total_writes();
    OpResult a;
    OpResult b;
    sim::SimTime a_done = -1;
    sim::SimTime b_done = -1;
    sim::spawn(co_execute_timed(sim, fs.client(0),
                                make_op(OpType::kCreateFile, "/d/a"), a,
                                a_done));
    sim.schedule(1, [&] {
        sim::spawn(co_execute_timed(sim, fs.client(0),
                                    make_op(OpType::kCreateFile, "/d/b"), b,
                                    b_done));
    });
    while (a_done < 0 && sim.step()) {
    }
    ASSERT_TRUE(a.status.ok()) << a.status.to_string();
    // The late copy has not reached the NameNode yet: A's record must
    // still be there for it.
    ASSERT_EQ(total_result_cache_hits(fs), 0u);
    EXPECT_GE(fs.result_cache(deployment_a).live(), 1u);
    sim.run_until(sim.now() + sim::sec(5));
    ASSERT_GE(b_done, 0);
    EXPECT_TRUE(b.status.ok()) << b.status.to_string();
    EXPECT_EQ(plan.messages_duplicated(), 1u);
    EXPECT_EQ(fs.lfs_client(0).resubmissions(), 0u);
    // The copy was answered from A's record instead of creating again,
    // and A's record outlives it while B's was released.
    EXPECT_EQ(total_result_cache_hits(fs), 1u);
    EXPECT_EQ(fs.store().total_writes() - writes_before, 2u);
    EXPECT_EQ(fs.result_cache(deployment_a).live(), 1u);
    size_t live = 0;
    for (int d = 0; d < fs.partitioner().deployment_count(); ++d) {
        live += fs.result_cache(d).live();
    }
    EXPECT_EQ(live, 1u);
}

TEST(ClientPolicies, AntiThrashModeEngagesOnLatencySpike)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.thrash_threshold = 2.0;
    config.client.anti_thrash_duration = sim::sec(30);
    LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(3));

    LfsClient& client = fs.lfs_client(0);
    // Build a fast baseline over TCP.
    for (int i = 0; i < 30; ++i) {
        run_to_completion(sim, fs, 0, make_op(OpType::kStat, "/f"));
    }
    EXPECT_FALSE(client.in_anti_thrash_mode());
    // Kill the whole fleet: the next op cold-starts over HTTP, observing
    // a latency far above the moving average -> anti-thrash engages.
    for (int d = 0; d < fs.platform().deployment_count(); ++d) {
        while (fs.kill_name_node(d)) {
        }
    }
    OpResult slow = run_to_completion(sim, fs, 0, make_op(OpType::kStat, "/f"));
    EXPECT_TRUE(slow.status.ok());
    EXPECT_TRUE(client.in_anti_thrash_mode());
    // The mode expires after the configured duration.
    sim.run_until(sim.now() + sim::sec(40));
    EXPECT_FALSE(client.in_anti_thrash_mode());
}

TEST(ClientPolicies, HttpReplacementProbabilityZeroStaysOnTcp)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.http_replace_probability = 0.0;
    LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(3));
    LfsClient& client = fs.lfs_client(0);
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(run_to_completion(sim, fs, 0,
                                      make_op(OpType::kStat, "/f"))
                        .status.ok());
    }
    // Exactly one HTTP RPC (the bootstrap that established the TCP
    // connection); everything after rides TCP.
    EXPECT_EQ(client.http_rpcs(), 1u);
    EXPECT_GE(client.tcp_rpcs(), 49u);
}

TEST(ClientPolicies, HttpReplacementProbabilityOneIsAllHttp)
{
    Simulation sim;
    LambdaFsConfig config = policy_config();
    config.client.http_replace_probability = 1.0;
    config.client.anti_thrashing = false;  // would otherwise force TCP
    LambdaFs fs(sim, config);
    ns::UserContext root;
    fs.authoritative_tree().create_file("/f", root, 0);
    sim.run_until(sim::sec(3));
    LfsClient& client = fs.lfs_client(0);
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(run_to_completion(sim, fs, 0,
                                      make_op(OpType::kStat, "/f"))
                        .status.ok());
    }
    EXPECT_EQ(client.tcp_rpcs(), 0u);
    EXPECT_GE(client.http_rpcs(), 20u);
}

}  // namespace
}  // namespace lfs::core
