/**
 * @file
 * Cross-system agreement of the one op applier (ns::apply): one seeded
 * stream over the full op alphabet, issued as the superuser and as two
 * unprivileged principals, must produce the same outcome on every
 * tree-backed system. The metadata store is driven through its timed
 * read_op/write_op/subtree_op with no cache in front.
 *
 *  - CephFS must agree with the store on every mutation (its reads may
 *    be served from a client capability, which by design skips the
 *    permission check).
 *  - Vanilla HopsFS (λFS's NameNode on a stateless serverful pool) must
 *    agree with the store on every op, reads included: it has no cache
 *    to answer from.
 *  - IndexFS and λIndexFS run the stream filtered to the ops they serve
 *    and must agree with the store, on the same filtered stream, on every
 *    result field of every op their namespace answers. An answer from
 *    IndexFS' client lease or λIndexFS' function cache is counted, not
 *    compared: a lease is stale for up to its TTL by design, and a warm
 *    hit re-checks neither ancestor permissions (ROADMAP item 1) nor the
 *    attributes a child's create or delete changes on its directory.
 *
 * Every system must end with the store's lifecycle-clean tree. Lease
 * TTLs outlast the run, so GC outcomes depend on namespace state only,
 * never on each system's timing.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/cephfs/cephfs.h"
#include "src/core/lambda_fs.h"
#include "src/indexfs/indexfs.h"
#include "src/net/network.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/store/metadata_store.h"
#include "tests/oracle/lifecycle_oracle.h"

namespace lfs {
namespace {

using sim::Task;

constexpr int kPrincipals = 3;

/** Principal @p i: the superuser, then two plain uid/gid pairs. */
ns::UserContext
principal(int i)
{
    static const ns::UserContext kUsers[kPrincipals] = {
        {0, 0}, {1000, 1000}, {1001, 1001}};
    return kUsers[i];
}

std::string
random_path(sim::Rng& rng)
{
    std::string p;
    int depth = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < depth; ++i) {
        p += "/n" + std::to_string(rng.uniform_int(0, 3));
    }
    return p;
}

Op
make_op(OpType type, std::string p, ns::UserContext user,
        std::string dst = "")
{
    Op op;
    op.type = type;
    op.path = std::move(p);
    op.dst = std::move(dst);
    op.user = user;
    // Far beyond the run: no lease expires before the last GC pass.
    op.lease_ttl = sim::sec(1000000);
    return op;
}

/**
 * A fixed prelude that pins the cases each system once hand-coded
 * (deleting a hard-linked and a session-held file, statfs, ls, a read
 * through a symlink), then a seeded stream over the whole alphabet.
 */
std::vector<Op>
build_stream(uint64_t seed, int steps)
{
    const ns::UserContext root = principal(0);
    std::vector<Op> ops = {
        make_op(OpType::kMkdir, "/n0", root),
        make_op(OpType::kCreateFile, "/n0/n1", root),
        make_op(OpType::kHardLink, "/n0/n1", root, "/n2"),
        make_op(OpType::kDeleteFile, "/n2", root),
        make_op(OpType::kOpenSession, "/n0/n1", root),
        make_op(OpType::kDeleteFile, "/n0/n1", root),
        make_op(OpType::kStatFs, "/", root),
        make_op(OpType::kLs, "/n0", root),
        make_op(OpType::kCloseSession, "", root),
        make_op(OpType::kGcPrune, "", root),
        make_op(OpType::kSymlink, "/n3", root, "/n0"),
        make_op(OpType::kCreateFile, "/n0/n2", root),
        make_op(OpType::kReadFile, "/n3/n2", root),
    };
    ops[4].session_id = 1;
    ops[8].session_id = 1;
    uint64_t sessions = 1;

    sim::Rng rng(seed);
    static const uint16_t kModes[] = {0777, 0755, 0750, 0711, 0700,
                                      0644, 0600, 0000};
    for (int step = 0; step < steps; ++step) {
        ns::UserContext user =
            principal(static_cast<int>(rng.uniform_int(0, kPrincipals - 1)));
        std::string p = random_path(rng);
        double action = rng.uniform();
        Op op;
        if (action < 0.14) {
            op = make_op(OpType::kCreateFile, p, user);
        } else if (action < 0.25) {
            op = make_op(OpType::kMkdir, p, user);
        } else if (action < 0.32) {
            op = make_op(OpType::kDeleteFile, p, user);
        } else if (action < 0.37) {
            op = make_op(OpType::kMv, p, user, random_path(rng));
        } else if (action < 0.40) {
            op = make_op(OpType::kSubtreeDelete, p, user);
        } else if (action < 0.43) {
            op = make_op(OpType::kSubtreeMv, p, user, random_path(rng));
        } else if (action < 0.49) {
            op = make_op(OpType::kHardLink, p, user, random_path(rng));
        } else if (action < 0.55) {
            // Targets may dangle, and a link may point at itself or at
            // another link (loops resolve to ELOOP).
            op = make_op(OpType::kSymlink, p, user,
                         rng.uniform() < 0.2 ? p : random_path(rng));
        } else if (action < 0.63) {
            op = make_op(OpType::kSetAttr, p, user);
            op.attr.mask = AttrUpdate::kMode;
            op.attr.mode = kModes[rng.uniform_int(0, 7)];
            if (rng.uniform() < 0.3) {
                // chown is superuser-only; plain users must be refused.
                op.attr.mask |= AttrUpdate::kOwner | AttrUpdate::kGroup;
                op.attr.owner = principal(
                    static_cast<int>(rng.uniform_int(1, 2))).uid;
                op.attr.group = op.attr.owner;
            }
        } else if (action < 0.69) {
            op = make_op(OpType::kOpenSession, p, user);
            op.session_id = ++sessions;
        } else if (action < 0.73) {
            op = make_op(OpType::kCloseSession, "", user);
            op.session_id =
                static_cast<uint64_t>(rng.uniform_int(1, sessions + 1));
        } else if (action < 0.75) {
            op = make_op(OpType::kGcPrune, "", user);
        } else if (action < 0.77) {
            op = make_op(OpType::kStatFs, "/", user);
        } else if (action < 0.85) {
            op = make_op(OpType::kReadFile, p, user);
        } else if (action < 0.93) {
            op = make_op(OpType::kStat, p, user);
        } else {
            op = make_op(OpType::kLs, rng.uniform() < 0.2 ? "/" : p, user);
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

Task<void>
co_drive_store(store::MetadataStore& store, const std::vector<Op>& ops,
               std::vector<OpResult>& out)
{
    for (const Op& op : ops) {
        if (is_subtree_op(op.type)) {
            out.push_back(co_await store.subtree_op(op));
        } else if (is_read_op(op.type)) {
            out.push_back(co_await store.read_op(op));
        } else {
            out.push_back(co_await store.write_op(op));
        }
    }
}

/** Each principal issues through its own client. */
Task<void>
co_drive_dfs(workload::Dfs& fs, const std::vector<Op>& ops,
             std::vector<OpResult>& out)
{
    for (const Op& op : ops) {
        out.push_back(co_await fs.client(op.user.uid == 0 ? 0
                                         : op.user.uid == 1000 ? 1
                                                               : 2)
                          .execute(op));
    }
}

std::string
describe(const Op& op, size_t i)
{
    std::ostringstream out;
    out << "op #" << i << " " << op_name(op.type) << " " << op.path;
    if (!op.dst.empty()) {
        out << " -> " << op.dst;
    }
    out << " as uid " << op.user.uid;
    return out.str();
}

/**
 * Everything the namespace holds apart from timestamps (and lease
 * expiries, which are absolute times): the systems commit at different
 * simulated instants.
 */
std::string
dump_tree(const ns::NamespaceTree& tree)
{
    std::ostringstream out;
    std::vector<ns::INodeId> stack{ns::kRootId};
    while (!stack.empty()) {
        ns::INodeId id = stack.back();
        stack.pop_back();
        ns::INode n = *tree.get(id);
        out << tree.full_path(id) << " id=" << n.id
            << " type=" << static_cast<int>(n.type) << " v=" << n.version
            << " mode=" << n.perms.mode << " own=" << n.perms.owner << ":"
            << n.perms.group << " nlink=" << n.nlink << " size=" << n.size
            << " target=" << n.symlink_target << "\n";
        std::vector<ns::INodeId> kids = tree.children(id);
        stack.insert(stack.end(), kids.rbegin(), kids.rend());
    }
    for (const auto& s : tree.sessions()) {
        out << "session " << s.id << " inode=" << s.inode << "\n";
    }
    for (ns::INodeId id : tree.orphan_ids()) {
        out << "orphan " << id << "\n";
    }
    return out.str();
}

void
expect_same_stats(const ns::FsStats& a, const ns::FsStats& b,
                  const std::string& what)
{
    EXPECT_EQ(a.inodes, b.inodes) << what;
    EXPECT_EQ(a.files, b.files) << what;
    EXPECT_EQ(a.dirs, b.dirs) << what;
    EXPECT_EQ(a.symlinks, b.symlinks) << what;
    EXPECT_EQ(a.open_sessions, b.open_sessions) << what;
    EXPECT_EQ(a.orphans, b.orphans) << what;
    EXPECT_EQ(a.metadata_bytes, b.metadata_bytes) << what;
}

void
expect_lifecycle_clean(const ns::NamespaceTree& tree, const char* system)
{
    oracle::LifecycleReport report = oracle::audit_lifecycle(tree);
    EXPECT_EQ(report.violations(), 0)
        << system << ": "
        << (report.details.empty() ? "" : report.details.front());
}

class ApplyAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApplyAgreement, CachelessSystemsAgreeOpForOp)
{
    const std::vector<Op> ops = build_stream(GetParam(), 400);

    sim::Simulation store_sim;
    net::Network network(store_sim, sim::Rng(1));
    store::MetadataStore store(store_sim, network, sim::Rng(2));
    std::vector<OpResult> from_store;
    sim::spawn(co_drive_store(store, ops, from_store));
    store_sim.run();

    sim::Simulation ceph_sim;
    cephfs::CephFsConfig ceph_config;
    ceph_config.num_client_vms = 1;
    ceph_config.clients_per_vm = kPrincipals;
    cephfs::CephFs ceph_fs(ceph_sim, ceph_config);
    std::vector<OpResult> from_ceph;
    sim::spawn(co_drive_dfs(ceph_fs, ops, from_ceph));
    ceph_sim.run();

    sim::Simulation hops_sim;
    core::LambdaFsConfig hops_config = core::hopsfs_config(32.0, false);
    hops_config.num_client_vms = 1;
    hops_config.clients_per_vm = kPrincipals;
    core::LambdaFs hops_fs(hops_sim, hops_config);
    std::vector<OpResult> from_hops;
    sim::spawn(co_drive_dfs(hops_fs, ops, from_hops));
    hops_sim.run();

    ASSERT_EQ(from_store.size(), ops.size());
    ASSERT_EQ(from_ceph.size(), ops.size());
    ASSERT_EQ(from_hops.size(), ops.size());
    int failed = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        const OpResult& s = from_store[i];
        failed += s.status.ok() ? 0 : 1;
        const std::string what = describe(ops[i], i);
        const OpResult& h = from_hops[i];
        EXPECT_FALSE(h.cache_hit) << "hopsfs " << what;
        EXPECT_EQ(s.status.code(), h.status.code()) << "hopsfs " << what;
        EXPECT_EQ(s.inode.id, h.inode.id) << "hopsfs " << what;
        EXPECT_EQ(s.inodes_touched, h.inodes_touched) << "hopsfs " << what;
        if (is_read_op(ops[i].type)) {
            continue;
        }
        const OpResult& c = from_ceph[i];
        EXPECT_EQ(s.status.code(), c.status.code()) << what;
        EXPECT_EQ(s.inode.id, c.inode.id) << what;
        EXPECT_EQ(s.inodes_touched, c.inodes_touched) << what;
    }
    // The stream must exercise both outcomes, not fail (or pass) wholesale.
    EXPECT_GT(failed, static_cast<int>(ops.size()) / 10);
    EXPECT_LT(failed, static_cast<int>(ops.size()) * 9 / 10);

    EXPECT_EQ(dump_tree(ceph_fs.authoritative_tree()), dump_tree(store.tree()));
    EXPECT_EQ(dump_tree(hops_fs.authoritative_tree()), dump_tree(store.tree()));
    expect_lifecycle_clean(store.tree(), "store");
    expect_lifecycle_clean(ceph_fs.authoritative_tree(), "cephfs");
    expect_lifecycle_clean(hops_fs.authoritative_tree(), "hopsfs");
}

/**
 * build_stream() filtered to the ops the IndexFS family serves (its
 * metadata table's point ops: no mv, subtree op or ls). Each stat and
 * read is issued twice more, by the same principal (a lease or cache hit)
 * and by the next one (a warm hit answered to another user).
 */
std::vector<Op>
indexfs_stream(uint64_t seed, int steps)
{
    std::vector<Op> ops;
    for (Op& op : build_stream(seed, steps)) {
        switch (op.type) {
          case OpType::kMv:
          case OpType::kSubtreeDelete:
          case OpType::kSubtreeMv:
          case OpType::kLs:
            continue;
          default:
            break;
        }
        ops.push_back(std::move(op));
        if (ops.back().type == OpType::kStat ||
            ops.back().type == OpType::kReadFile) {
            ops.push_back(ops.back());
            ops.push_back(ops.back());
            ops.back().user =
                principal((ops.back().user.uid == 0 ? 1
                           : ops.back().user.uid == 1000 ? 2
                                                         : 0));
        }
    }
    return ops;
}

/**
 * Compare @p got (one IndexFS-family system's results) with the store's
 * @p want, op for op, on every result field of every answer the
 * namespace gave. @return the number of answers that came from a lease
 * or function cache instead.
 */
int
expect_agreement(const std::vector<Op>& ops,
                 const std::vector<OpResult>& want,
                 const std::vector<OpResult>& got, const char* system)
{
    EXPECT_EQ(got.size(), ops.size()) << system;
    int hits = 0;
    for (size_t i = 0; i < ops.size() && i < got.size(); ++i) {
        const OpResult& s = want[i];
        const OpResult& x = got[i];
        if (x.cache_hit) {
            ++hits;
            continue;
        }
        const std::string what =
            std::string(system) + " " + describe(ops[i], i);
        EXPECT_EQ(s.status.code(), x.status.code()) << what;
        EXPECT_EQ(s.inode.id, x.inode.id) << what;
        EXPECT_EQ(s.inode.version, x.inode.version) << what;
        EXPECT_EQ(s.inodes_touched, x.inodes_touched) << what;
        EXPECT_EQ(s.via_symlink, x.via_symlink) << what;
        expect_same_stats(s.stats, x.stats, what);
    }
    return hits;
}

TEST_P(ApplyAgreement, IndexFsFamilyAgreesWithTheStore)
{
    const std::vector<Op> ops = indexfs_stream(GetParam(), 400);

    sim::Simulation store_sim;
    net::Network network(store_sim, sim::Rng(1));
    store::MetadataStore store(store_sim, network, sim::Rng(2));
    std::vector<OpResult> from_store;
    sim::spawn(co_drive_store(store, ops, from_store));
    store_sim.run();
    ASSERT_EQ(from_store.size(), ops.size());

    sim::Simulation index_sim;
    indexfs::IndexFsConfig index_config;
    index_config.num_client_vms = 1;
    index_config.clients_per_vm = kPrincipals;
    indexfs::IndexFs index_fs(index_sim, index_config);
    std::vector<OpResult> from_index;
    sim::spawn(co_drive_dfs(index_fs, ops, from_index));
    index_sim.run();

    sim::Simulation lambda_sim;
    core::LambdaFsConfig lambda_config = core::lambda_indexfs_config();
    lambda_config.num_client_vms = 1;
    lambda_config.clients_per_vm = kPrincipals;
    core::LambdaFs lambda_fs(lambda_sim, lambda_config);
    std::vector<OpResult> from_lambda;
    sim::spawn(co_drive_dfs(lambda_fs, ops, from_lambda));
    lambda_sim.run();

    int failed = 0;
    for (const OpResult& s : from_store) {
        failed += s.status.ok() ? 0 : 1;
    }
    EXPECT_GT(failed, static_cast<int>(ops.size()) / 10);
    EXPECT_LT(failed, static_cast<int>(ops.size()) * 9 / 10);
    const int lease_hits =
        expect_agreement(ops, from_store, from_index, "indexfs");
    const int cache_hits =
        expect_agreement(ops, from_store, from_lambda, "lambda-indexfs");
    // Both warm paths run; most answers still come from the namespace.
    EXPECT_GT(lease_hits, 0);
    EXPECT_GT(cache_hits, 0);
    EXPECT_LT(lease_hits + cache_hits, static_cast<int>(ops.size()));

    const std::string want = dump_tree(store.tree());
    EXPECT_EQ(dump_tree(index_fs.authoritative_tree()), want);
    EXPECT_EQ(dump_tree(lambda_fs.authoritative_tree()), want);
    expect_lifecycle_clean(index_fs.authoritative_tree(), "indexfs");
    expect_lifecycle_clean(lambda_fs.authoritative_tree(), "lambda-indexfs");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApplyAgreement,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace lfs
