/**
 * @file
 * Oracle-based fuzzing of the namespace engine: random operation
 * sequences are applied simultaneously to NamespaceTree and to a simple
 * map-of-paths oracle; after every step the observable state (existence,
 * type, subtree membership) must agree. This guards the semantic engine
 * every system in the repository is built on.
 *
 * A second fuzz drives the same oracle through the full λFS stack
 * (client -> NameNode -> coherence -> store) while a FaultPlan drops,
 * duplicates, and delays messages and crashes instances: the end-to-end
 * retry pipeline must hide every injected fault behind exactly-once
 * semantics, keeping each operation's outcome and the final namespace in
 * lockstep with the oracle.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/core/lambda_fs.h"
#include "src/namespace/namespace_tree.h"
#include "src/sim/fault.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/util/path.h"
#include "tests/oracle/lifecycle_oracle.h"

namespace lfs::ns {
namespace {

/** The oracle: path -> is_directory. Root is implicit. */
class Oracle {
  public:
    Oracle() { entries_["/"] = true; }

    bool exists(const std::string& p) const { return entries_.count(p); }
    bool
    is_dir(const std::string& p) const
    {
        auto it = entries_.find(p);
        return it != entries_.end() && it->second;
    }

    bool
    create_file(const std::string& p)
    {
        if (exists(p) || !is_dir(path::parent(p))) {
            return false;
        }
        entries_[p] = false;
        return true;
    }

    bool
    mkdirs(const std::string& p)
    {
        // Fails if any prefix is a file.
        std::string cur = "/";
        for (std::string_view c : path::PathView(p)) {
            cur = path::join(cur, c);
            if (exists(cur) && !is_dir(cur)) {
                return false;
            }
        }
        cur = "/";
        for (std::string_view c : path::PathView(p)) {
            cur = path::join(cur, c);
            entries_[cur] = true;
        }
        return true;
    }

    bool
    remove_recursive(const std::string& p)
    {
        if (p == "/" || !exists(p)) {
            return false;
        }
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (path::is_under(it->first, p)) {
                it = entries_.erase(it);
            } else {
                ++it;
            }
        }
        return true;
    }

    bool
    rename(const std::string& src, const std::string& dst)
    {
        if (src == "/" || !exists(src) || exists(dst) ||
            !is_dir(path::parent(dst)) || path::is_under(dst, src)) {
            return false;
        }
        std::map<std::string, bool> moved;
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (path::is_under(it->first, src)) {
                std::string suffix = it->first.substr(src.size());
                moved[dst + suffix] = it->second;
                it = entries_.erase(it);
            } else {
                ++it;
            }
        }
        entries_.insert(moved.begin(), moved.end());
        return true;
    }

    const std::map<std::string, bool>& entries() const { return entries_; }

  private:
    std::map<std::string, bool> entries_;  // path -> is_dir
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

class NamespaceFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NamespaceFuzzTest, TreeAgreesWithOracle)
{
    NamespaceTree tree;
    Oracle oracle;
    UserContext root;
    sim::Rng rng(GetParam());

    for (int step = 0; step < 3000; ++step) {
        double action = rng.uniform();
        if (action < 0.3) {
            std::string p = random_path(rng, 4);
            bool oracle_ok = oracle.create_file(p);
            bool tree_ok = tree.create_file(p, root, step).ok();
            ASSERT_EQ(tree_ok, oracle_ok) << "create " << p << " @" << step;
        } else if (action < 0.55) {
            std::string p = random_path(rng, 3);
            bool oracle_ok = oracle.mkdirs(p);
            bool tree_ok = tree.mkdirs(p, root, step).ok();
            ASSERT_EQ(tree_ok, oracle_ok) << "mkdirs " << p << " @" << step;
        } else if (action < 0.7) {
            std::string p = random_path(rng, 4);
            bool oracle_ok = oracle.remove_recursive(p);
            bool tree_ok = tree.remove(p, root, true, step).ok();
            ASSERT_EQ(tree_ok, oracle_ok) << "rm -r " << p << " @" << step;
        } else if (action < 0.85) {
            std::string src = random_path(rng, 3);
            std::string dst = random_path(rng, 3);
            bool oracle_ok = oracle.rename(src, dst);
            bool tree_ok = tree.rename(src, dst, root, step).ok();
            ASSERT_EQ(tree_ok, oracle_ok)
                << "mv " << src << " -> " << dst << " @" << step;
        } else {
            // Probe a random path for agreement.
            std::string p = random_path(rng, 4);
            auto st = tree.stat(p, root);
            ASSERT_EQ(st.ok(), oracle.exists(p)) << "stat " << p;
            if (st.ok()) {
                ASSERT_EQ(st->is_dir(), oracle.is_dir(p)) << p;
            }
        }
    }

    // Full-state audit: every oracle entry resolves in the tree with the
    // right type, and the inode counts match (oracle + root already has /).
    for (const auto& [p, dir] : oracle.entries()) {
        auto st = tree.stat(p, root);
        ASSERT_TRUE(st.ok()) << p;
        EXPECT_EQ(st->is_dir(), dir) << p;
    }
    EXPECT_EQ(tree.inode_count(), oracle.entries().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NamespaceFuzzTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---------------------------------------------------------------------
// Extended op surface: links, symlinks, setattr, sessions, GC
// ---------------------------------------------------------------------

/**
 * Exact model of the extended NamespaceTree semantics for the root user:
 * entries keyed by canonical path, hard links as shared link-groups,
 * symlink resolution via the same splice-and-restart walk with the same
 * follow bound, and the session/orphan/GC state machine of DESIGN.md
 * §12. Built so fuzz outcomes (including close/GC reclaim *counts*) can
 * be compared bit-for-bit against the tree.
 */
class ExtendedOracle {
  public:
    enum class Kind { kDir, kFile, kSymlink };
    struct Entry {
        Kind kind = Kind::kFile;
        std::string target;  ///< symlink target (normalized)
        uint64_t gid = 0;    ///< link group (file inode identity)
    };
    struct Resolved {
        bool ok = false;
        std::string canon;  ///< canonical path of the final entry
    };

    ExtendedOracle() { entries_["/"] = {Kind::kDir, "", 0}; }

    const Entry* find(const std::string& p) const
    {
        auto it = entries_.find(p);
        return it == entries_.end() ? nullptr : &it->second;
    }

    /** Mirror of NamespaceTree::resolve_ids_ex (root user: permissions pass). */
    Resolved resolve(const std::string& p, bool follow_final,
                     int depth = 0) const
    {
        Resolved out;
        std::string cur = "/";
        size_t i = 0;
        while (i < p.size()) {
            while (i < p.size() && p[i] == '/') {
                ++i;
            }
            size_t start = i;
            while (i < p.size() && p[i] != '/') {
                ++i;
            }
            if (i == start) {
                break;
            }
            const Entry* cur_e = find(cur);
            if (cur_e == nullptr || cur_e->kind != Kind::kDir) {
                return out;  // "not a directory on path"
            }
            std::string child =
                path::join(cur, p.substr(start, i - start));
            const Entry* child_e = find(child);
            if (child_e == nullptr) {
                return out;  // "no such path"
            }
            bool last = p.find_first_not_of('/', i) == std::string::npos;
            if (child_e->kind == Kind::kSymlink && (!last || follow_final)) {
                if (depth + 1 > kMaxSymlinkFollows) {
                    return out;  // ELOOP
                }
                std::string next = child_e->target;
                next.append(p.substr(i));
                return resolve(next, follow_final, depth + 1);
            }
            cur = child;
        }
        out.ok = true;
        out.canon = cur;
        return out;
    }

    bool exists_nofollow(const std::string& p) const
    {
        return resolve(p, false).ok;
    }

    bool create_file(const std::string& p)
    {
        const Entry* parent = resolve_dir_parent(p);
        if (parent == nullptr) {
            return false;
        }
        std::string full = path::join(parent_canon_, path::basename(p));
        if (find(full) != nullptr) {
            return false;
        }
        uint64_t gid = next_gid_++;
        entries_[full] = {Kind::kFile, "", gid};
        counts_[gid] = 1;
        return true;
    }

    bool mkdirs(const std::string& p)
    {
        // No symlink following — mirrors the tree's component walk.
        std::string cur = "/";
        for (std::string_view c : path::PathView(p)) {
            if (find(cur)->kind != Kind::kDir) {
                return false;
            }
            std::string child = path::join(cur, c);
            if (find(child) == nullptr) {
                entries_[child] = {Kind::kDir, "", 0};
            }
            cur = child;
        }
        return find(cur)->kind == Kind::kDir;
    }

    bool remove_recursive(const std::string& p)
    {
        if (p == "/") {
            return false;
        }
        Resolved r = resolve(p, false);
        if (!r.ok) {
            return false;
        }
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (path::is_under(it->first, r.canon)) {
                if (it->second.kind == Kind::kFile) {
                    drop_file_ref(it->second.gid);
                }
                it = entries_.erase(it);
            } else {
                ++it;
            }
        }
        return true;
    }

    bool rename(const std::string& src, const std::string& dst)
    {
        if (src == "/") {
            return false;
        }
        Resolved rs = resolve(src, false);
        if (!rs.ok || path::is_under(dst, src)) {
            return false;
        }
        const Entry* dst_parent = resolve_dir_parent(dst);
        if (dst_parent == nullptr) {
            return false;
        }
        std::string full = path::join(parent_canon_, path::basename(dst));
        if (find(full) != nullptr ||
            path::is_under(parent_canon_, rs.canon)) {
            return false;
        }
        std::map<std::string, Entry> moved;
        for (auto it = entries_.begin(); it != entries_.end();) {
            if (path::is_under(it->first, rs.canon)) {
                moved[full + it->first.substr(rs.canon.size())] =
                    it->second;
                it = entries_.erase(it);
            } else {
                ++it;
            }
        }
        entries_.insert(moved.begin(), moved.end());
        return true;
    }

    bool symlink(const std::string& link_path, const std::string& target)
    {
        if (link_path == "/") {
            return false;
        }
        const Entry* parent = resolve_dir_parent(link_path);
        if (parent == nullptr) {
            return false;
        }
        std::string full =
            path::join(parent_canon_, path::basename(link_path));
        if (find(full) != nullptr) {
            return false;
        }
        entries_[full] = {Kind::kSymlink, path::normalize(target), 0};
        return true;
    }

    bool link(const std::string& src, const std::string& dst)
    {
        if (src == "/" || dst == "/") {
            return false;
        }
        Resolved rs = resolve(src, false);
        if (!rs.ok || find(rs.canon)->kind != Kind::kFile) {
            return false;
        }
        uint64_t gid = find(rs.canon)->gid;
        const Entry* parent = resolve_dir_parent(dst);
        if (parent == nullptr) {
            return false;
        }
        std::string full = path::join(parent_canon_, path::basename(dst));
        if (find(full) != nullptr) {
            return false;
        }
        entries_[full] = {Kind::kFile, "", gid};
        counts_[gid] += 1;
        return true;
    }

    bool setattr(const std::string& p) { return resolve(p, true).ok; }

    bool open_session(const std::string& p, uint64_t sid,
                      sim::SimTime expiry)
    {
        if (sessions_.count(sid) != 0) {
            return false;
        }
        Resolved r = resolve(p, true);
        if (!r.ok || find(r.canon)->kind != Kind::kFile) {
            return false;
        }
        uint64_t gid = find(r.canon)->gid;
        sessions_[sid] = {gid, expiry};
        holds_[gid] += 1;
        return true;
    }

    /** @return reclaimed count, or -1 when the session does not exist. */
    int64_t close_session(uint64_t sid)
    {
        auto it = sessions_.find(sid);
        if (it == sessions_.end()) {
            return -1;
        }
        uint64_t gid = it->second.gid;
        sessions_.erase(it);
        return release_hold(gid);
    }

    struct GcCounts {
        int64_t expired = 0;
        int64_t reclaimed = 0;
    };

    GcCounts gc(sim::SimTime now)
    {
        GcCounts out;
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            if (it->second.expiry <= now) {
                uint64_t gid = it->second.gid;
                it = sessions_.erase(it);
                ++out.expired;
                out.reclaimed += release_hold(gid);
            } else {
                ++it;
            }
        }
        for (auto it = orphans_.begin(); it != orphans_.end();) {
            if (holds_.count(*it) == 0) {
                ++out.reclaimed;
                it = orphans_.erase(it);
            } else {
                ++it;
            }
        }
        return out;
    }

    /** Counters matching NamespaceTree::statfs (metadata_bytes aside). */
    ns::FsStats statfs() const
    {
        ns::FsStats stats;
        for (const auto& [p, e] : entries_) {
            stats.dirs += e.kind == Kind::kDir ? 1 : 0;
            stats.symlinks += e.kind == Kind::kSymlink ? 1 : 0;
        }
        stats.files = static_cast<int64_t>(counts_.size()) +
                      static_cast<int64_t>(orphans_.size());
        stats.inodes = stats.dirs + stats.symlinks + stats.files;
        stats.open_sessions = static_cast<int64_t>(sessions_.size());
        stats.orphans = static_cast<int64_t>(orphans_.size());
        return stats;
    }

    const std::map<std::string, Entry>& entries() const { return entries_; }
    size_t session_count() const { return sessions_.size(); }

  private:
    struct Session {
        uint64_t gid = 0;
        sim::SimTime expiry = 0;
    };

    /** Resolve the parent dir of @p p (follow); canonical path lands in
        parent_canon_. Null when missing or not a directory. */
    const Entry* resolve_dir_parent(const std::string& p)
    {
        Resolved r = resolve(path::parent(p), true);
        if (!r.ok) {
            return nullptr;
        }
        const Entry* e = find(r.canon);
        if (e == nullptr || e->kind != Kind::kDir) {
            return nullptr;
        }
        parent_canon_ = r.canon;
        return e;
    }

    void drop_file_ref(uint64_t gid)
    {
        if (--counts_[gid] == 0) {
            counts_.erase(gid);
            if (holds_.count(gid) != 0) {
                orphans_.insert(gid);
            }
        }
    }

    int64_t release_hold(uint64_t gid)
    {
        if (--holds_[gid] == 0) {
            holds_.erase(gid);
            if (orphans_.erase(gid) > 0) {
                return 1;
            }
        }
        return 0;
    }

    std::map<std::string, Entry> entries_;
    std::map<uint64_t, int32_t> counts_;  ///< link group -> entry count
    std::map<uint64_t, int32_t> holds_;   ///< link group -> open sessions
    std::set<uint64_t> orphans_;
    std::map<uint64_t, Session> sessions_;
    std::string parent_canon_;
    uint64_t next_gid_ = 1;
};

void
expect_stats_agree(const ns::NamespaceTree& tree, const ExtendedOracle& oracle,
                   int step)
{
    ns::FsStats got = tree.statfs();
    ns::FsStats want = oracle.statfs();
    ASSERT_EQ(got.files, want.files) << "@" << step;
    ASSERT_EQ(got.dirs, want.dirs) << "@" << step;
    ASSERT_EQ(got.symlinks, want.symlinks) << "@" << step;
    ASSERT_EQ(got.inodes, want.inodes) << "@" << step;
    ASSERT_EQ(got.open_sessions, want.open_sessions) << "@" << step;
    ASSERT_EQ(got.orphans, want.orphans) << "@" << step;
}

class ExtendedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtendedFuzzTest, FullOpSurfaceAgreesWithOracle)
{
    NamespaceTree tree;
    ExtendedOracle oracle;
    UserContext root;
    sim::Rng rng(GetParam());
    std::vector<uint64_t> open_sids;
    uint64_t next_sid = 1;

    for (int step = 1; step <= 4000; ++step) {
        double action = rng.uniform();
        sim::SimTime now = step;
        if (action < 0.16) {
            std::string p = random_path(rng, 4);
            ASSERT_EQ(tree.create_file(p, root, now).ok(),
                      oracle.create_file(p))
                << "create " << p << " @" << step;
        } else if (action < 0.30) {
            std::string p = random_path(rng, 3);
            ASSERT_EQ(tree.mkdirs(p, root, now).ok(), oracle.mkdirs(p))
                << "mkdirs " << p << " @" << step;
        } else if (action < 0.41) {
            std::string p = random_path(rng, 4);
            ASSERT_EQ(tree.remove(p, root, true, now).ok(),
                      oracle.remove_recursive(p))
                << "rm -r " << p << " @" << step;
        } else if (action < 0.52) {
            std::string src = random_path(rng, 3);
            std::string dst = random_path(rng, 3);
            ASSERT_EQ(tree.rename(src, dst, root, now).ok(),
                      oracle.rename(src, dst))
                << "mv " << src << " -> " << dst << " @" << step;
        } else if (action < 0.61) {
            std::string lp = random_path(rng, 3);
            std::string target = random_path(rng, 3);
            ASSERT_EQ(tree.symlink(lp, target, root, now).ok(),
                      oracle.symlink(lp, target))
                << "ln -s " << target << " " << lp << " @" << step;
        } else if (action < 0.69) {
            std::string src = random_path(rng, 4);
            std::string dst = random_path(rng, 4);
            ASSERT_EQ(tree.link(src, dst, root, now).ok(),
                      oracle.link(src, dst))
                << "ln " << src << " " << dst << " @" << step;
        } else if (action < 0.75) {
            std::string p = random_path(rng, 4);
            AttrUpdate update;
            update.mask = AttrUpdate::kMode;
            update.mode = rng.bernoulli(0.5) ? 0600 : 0644;
            ASSERT_EQ(tree.setattr(p, update, root, now).ok(),
                      oracle.setattr(p))
                << "setattr " << p << " @" << step;
        } else if (action < 0.82) {
            std::string p = random_path(rng, 4);
            uint64_t sid = next_sid++;
            sim::SimTime expiry = now + sim::SimTime(rng.uniform_int(5, 120));
            bool oracle_ok = oracle.open_session(p, sid, expiry);
            bool tree_ok = tree.open_session(p, sid, expiry, root).ok();
            ASSERT_EQ(tree_ok, oracle_ok) << "open " << p << " @" << step;
            if (tree_ok) {
                open_sids.push_back(sid);
            }
        } else if (action < 0.88) {
            // Close a known session most of the time; a bogus id sometimes.
            uint64_t sid = 0;
            if (!open_sids.empty() && !rng.bernoulli(0.1)) {
                size_t idx = rng.index(open_sids.size());
                sid = open_sids[idx];
                open_sids[idx] = open_sids.back();
                open_sids.pop_back();
            } else {
                sid = next_sid + 1000;
            }
            int64_t want = oracle.close_session(sid);
            auto got = tree.close_session(sid, now);
            ASSERT_EQ(got.ok(), want >= 0) << "close " << sid << " @" << step;
            if (got.ok()) {
                ASSERT_EQ(*got, want) << "close reclaim " << sid;
            }
        } else if (action < 0.91) {
            auto got = tree.gc_prune(now);
            ExtendedOracle::GcCounts want = oracle.gc(now);
            ASSERT_EQ(got.expired_sessions, want.expired) << "@" << step;
            ASSERT_EQ(got.reclaimed, want.reclaimed) << "@" << step;
            // Sessions the GC expired are gone; drop them from the pool.
            std::set<uint64_t> live;
            for (const auto& s : tree.sessions()) {
                live.insert(s.id);
            }
            std::erase_if(open_sids,
                          [&](uint64_t sid) { return live.count(sid) == 0; });
            EXPECT_TRUE(oracle::no_expired_orphans(tree, now));
        } else if (action < 0.94) {
            expect_stats_agree(tree, oracle, step);
        } else {
            std::string p = random_path(rng, 4);
            auto st = tree.stat(p, root);
            ExtendedOracle::Resolved r = oracle.resolve(p, false);
            ASSERT_EQ(st.ok(), r.ok) << "stat " << p << " @" << step;
            if (st.ok()) {
                const ExtendedOracle::Entry* e = oracle.find(r.canon);
                ASSERT_NE(e, nullptr);
                ASSERT_EQ(st->is_dir(),
                          e->kind == ExtendedOracle::Kind::kDir)
                    << p;
                ASSERT_EQ(st->is_symlink(),
                          e->kind == ExtendedOracle::Kind::kSymlink)
                    << p;
                if (st->is_symlink()) {
                    ASSERT_EQ(st->symlink_target, e->target) << p;
                }
            }
        }
        if (step % 500 == 0) {
            oracle::LifecycleReport report = oracle::audit_lifecycle(tree);
            ASSERT_EQ(report.violations(), 0)
                << "@" << step << " "
                << (report.details.empty() ? "" : report.details.front());
        }
    }

    // Final full-state audit: counters, structure, and per-entry type.
    expect_stats_agree(tree, oracle, -1);
    oracle::LifecycleReport report = oracle::audit_lifecycle(tree);
    EXPECT_EQ(report.violations(), 0)
        << (report.details.empty() ? "" : report.details.front());
    for (const auto& [p, e] : oracle.entries()) {
        auto st = tree.stat(p, root);
        ASSERT_TRUE(st.ok()) << p;
        EXPECT_EQ(st->is_dir(), e.kind == ExtendedOracle::Kind::kDir) << p;
        EXPECT_EQ(st->is_symlink(),
                  e.kind == ExtendedOracle::Kind::kSymlink)
            << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtendedFuzzTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// ---------------------------------------------------------------------
// Fuzzing the full λFS stack under an active FaultPlan
// ---------------------------------------------------------------------

/**
 * Sequential fuzz driver: one client issues random namespace operations
 * through λFS, mirroring each one into the oracle, and records any
 * outcome disagreement. gtest ASSERTs cannot be used inside a coroutine
 * (they expand to a plain `return`), so mismatches are collected and
 * asserted by the test after the run. The driver stops at the first
 * mismatch to avoid cascading noise.
 */
sim::Task<void>
co_fuzz_driver(core::LambdaFs& fs, Oracle& oracle, sim::Rng& rng, int steps,
               std::vector<std::string>& mismatches, bool& done)
{
    auto check = [&](bool lfs_ok, bool oracle_ok, const std::string& what,
                     int step) {
        if (lfs_ok != oracle_ok) {
            mismatches.push_back(what + " @" + std::to_string(step) +
                                 ": lfs=" + (lfs_ok ? "ok" : "fail") +
                                 " oracle=" + (oracle_ok ? "ok" : "fail"));
        }
    };
    for (int step = 0; step < steps && mismatches.empty(); ++step) {
        double action = rng.uniform();
        Op op;
        if (action < 0.3) {
            op.type = OpType::kCreateFile;
            op.path = random_path(rng, 4);
            bool oracle_ok = oracle.create_file(op.path);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok, "create " + op.path, step);
        } else if (action < 0.55) {
            op.type = OpType::kMkdir;
            op.path = random_path(rng, 3);
            bool oracle_ok = oracle.mkdirs(op.path);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok, "mkdirs " + op.path, step);
        } else if (action < 0.7) {
            op.type = OpType::kSubtreeDelete;
            op.path = random_path(rng, 4);
            bool oracle_ok = oracle.remove_recursive(op.path);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok, "rm -r " + op.path, step);
        } else if (action < 0.85) {
            op.type = OpType::kMv;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
            bool oracle_ok = oracle.rename(op.path, op.dst);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok,
                  "mv " + op.path + " -> " + op.dst, step);
        } else {
            op.type = OpType::kStat;
            op.path = random_path(rng, 4);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle.exists(op.path),
                  "stat " + op.path, step);
            if (result.status.ok() &&
                result.inode.is_dir() != oracle.is_dir(op.path)) {
                mismatches.push_back("stat type mismatch " + op.path +
                                     " @" + std::to_string(step));
            }
        }
    }
    done = true;
}

class NamespaceFaultFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NamespaceFaultFuzzTest, LambdaFsAgreesWithOracleUnderFaults)
{
    sim::Simulation sim;
    core::LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 1;
    config.clients_per_vm = 1;
    config.seed = GetParam();
    // Deployment-stable routing + deep retries: every resubmission must
    // reach the deployment whose retained-result table saw the original,
    // making each operation's final outcome definitive.
    config.client.anti_thrashing = false;
    config.client.max_attempts = 30;
    config.client.http_timeout = sim::sec(3);
    core::LambdaFs fs(sim, config);

    sim::FaultPlan plan(sim, GetParam() * 31 + 7);
    // An early fault slice rather than the whole run: a dropped subtree
    // request is only discovered by its (deliberately huge) timeout, so
    // each such loss stalls the sequential driver for a long stretch of
    // sim time. Bounding the window bounds the number of stalls.
    sim::MessageFaultWindow msg;
    msg.from = sim::sec(3);
    msg.until = sim::sec(60);
    msg.drop_request_p = 0.05;
    msg.drop_reply_p = 0.05;
    msg.duplicate_p = 0.03;
    msg.delay_p = 0.10;
    msg.delay_min = sim::usec(100);
    msg.delay_max = sim::msec(2);
    plan.add_message_faults(msg);
    sim::InstanceFaultWindow inst;
    inst.from = sim::sec(3);
    inst.until = sim::sec(60);
    inst.crash_p = 0.01;
    inst.stall_p = 0.02;
    plan.add_instance_faults(inst);

    sim.run_until(sim::sec(3));

    Oracle oracle;
    sim::Rng rng(GetParam());
    std::vector<std::string> mismatches;
    bool done = false;
    sim::spawn(co_fuzz_driver(fs, oracle, rng, 600, mismatches, done));
    sim.run_until(sim.now() + sim::sec(200000));

    ASSERT_TRUE(done) << "fuzz driver did not finish";
    EXPECT_TRUE(mismatches.empty())
        << "first mismatch: " << mismatches.front();
    EXPECT_GT(plan.messages_dropped(), 0u)
        << "fault window injected nothing";

    // Full-state audit against the authoritative tree.
    UserContext root;
    for (const auto& [p, dir] : oracle.entries()) {
        auto st = fs.authoritative_tree().stat(p, root);
        ASSERT_TRUE(st.ok()) << p;
        EXPECT_EQ(st->is_dir(), dir) << p;
    }
    EXPECT_EQ(fs.authoritative_tree().inode_count(),
              oracle.entries().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NamespaceFaultFuzzTest,
                         ::testing::Values(3u, 9u));

// ---------------------------------------------------------------------
// Fault fuzz over the extended op surface through the full λFS stack
// ---------------------------------------------------------------------

/**
 * Like co_fuzz_driver but over the full op alphabet: links, symlinks,
 * setattr, statfs, and file sessions all flow through client -> NameNode
 * -> coherence -> store while faults fire, mirrored into ExtendedOracle.
 * Leases are effectively infinite so GC outcomes stay deterministic
 * under retry-induced timing noise.
 */
sim::Task<void>
co_extended_fuzz_driver(core::LambdaFs& fs, ExtendedOracle& oracle,
                        sim::Rng& rng, int steps,
                        std::vector<std::string>& mismatches, bool& done)
{
    constexpr sim::SimTime kForever = sim::sec(1'000'000);
    auto check = [&](bool lfs_ok, bool oracle_ok, const std::string& what,
                     int step) {
        if (lfs_ok != oracle_ok) {
            mismatches.push_back(what + " @" + std::to_string(step) +
                                 ": lfs=" + (lfs_ok ? "ok" : "fail") +
                                 " oracle=" + (oracle_ok ? "ok" : "fail"));
        }
    };
    std::vector<uint64_t> open_sids;
    uint64_t next_sid = 1;
    for (int step = 0; step < steps && mismatches.empty(); ++step) {
        double action = rng.uniform();
        Op op;
        if (action < 0.18) {
            op.type = OpType::kCreateFile;
            op.path = random_path(rng, 4);
            bool oracle_ok = oracle.create_file(op.path);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok, "create " + op.path, step);
        } else if (action < 0.32) {
            op.type = OpType::kMkdir;
            op.path = random_path(rng, 3);
            bool oracle_ok = oracle.mkdirs(op.path);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok, "mkdirs " + op.path, step);
        } else if (action < 0.42) {
            op.type = OpType::kSubtreeDelete;
            op.path = random_path(rng, 4);
            bool oracle_ok = oracle.remove_recursive(op.path);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok, "rm -r " + op.path, step);
        } else if (action < 0.52) {
            op.type = OpType::kMv;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
            bool oracle_ok = oracle.rename(op.path, op.dst);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok,
                  "mv " + op.path + " -> " + op.dst, step);
        } else if (action < 0.61) {
            op.type = OpType::kSymlink;
            op.path = random_path(rng, 3);
            op.dst = random_path(rng, 3);
            bool oracle_ok = oracle.symlink(op.path, op.dst);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok,
                  "ln -s " + op.dst + " " + op.path, step);
        } else if (action < 0.69) {
            op.type = OpType::kHardLink;
            op.path = random_path(rng, 4);
            op.dst = random_path(rng, 4);
            bool oracle_ok = oracle.link(op.path, op.dst);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok,
                  "ln " + op.path + " " + op.dst, step);
        } else if (action < 0.75) {
            op.type = OpType::kSetAttr;
            op.path = random_path(rng, 4);
            op.attr.mask = AttrUpdate::kMode;
            op.attr.mode = rng.bernoulli(0.5) ? 0600 : 0644;
            bool oracle_ok = oracle.setattr(op.path);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok, "setattr " + op.path, step);
        } else if (action < 0.82) {
            op.type = OpType::kOpenSession;
            op.path = random_path(rng, 4);
            op.session_id = next_sid++;
            op.lease_ttl = kForever;
            bool oracle_ok =
                oracle.open_session(op.path, op.session_id, kForever);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok, "open " + op.path, step);
            if (result.status.ok()) {
                open_sids.push_back(op.session_id);
            }
        } else if (action < 0.88) {
            // Close a known session only: closing a never-opened id is
            // legitimately reconciled to OK after an ambiguous attempt
            // (a NOT_FOUND retry result could be our own commit), so it
            // cannot be oracle-compared under faults. The bogus-id path
            // is covered by the fault-free ExtendedFuzzTest.
            if (open_sids.empty()) {
                continue;
            }
            op.type = OpType::kCloseSession;
            size_t idx = rng.index(open_sids.size());
            op.session_id = open_sids[idx];
            open_sids[idx] = open_sids.back();
            open_sids.pop_back();
            op.path = "/";
            bool oracle_ok = oracle.close_session(op.session_id) >= 0;
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), oracle_ok,
                  "close " + std::to_string(op.session_id), step);
        } else if (action < 0.93) {
            op.type = OpType::kStatFs;
            op.path = "/";
            OpResult result = co_await fs.client(0).execute(op);
            ns::FsStats want = oracle.statfs();
            if (!result.status.ok()) {
                mismatches.push_back("statfs failed @" +
                                     std::to_string(step));
            } else if (result.stats.files != want.files ||
                       result.stats.dirs != want.dirs ||
                       result.stats.symlinks != want.symlinks ||
                       result.stats.inodes != want.inodes ||
                       result.stats.open_sessions != want.open_sessions ||
                       result.stats.orphans != want.orphans) {
                mismatches.push_back("statfs counters diverge @" +
                                     std::to_string(step));
            }
        } else {
            op.type = OpType::kStat;
            op.path = random_path(rng, 4);
            ExtendedOracle::Resolved r = oracle.resolve(op.path, false);
            OpResult result = co_await fs.client(0).execute(op);
            check(result.status.ok(), r.ok, "stat " + op.path, step);
            if (result.status.ok() && r.ok) {
                const ExtendedOracle::Entry* e = oracle.find(r.canon);
                if (e != nullptr &&
                    (result.inode.is_dir() !=
                         (e->kind == ExtendedOracle::Kind::kDir) ||
                     result.inode.is_symlink() !=
                         (e->kind == ExtendedOracle::Kind::kSymlink))) {
                    mismatches.push_back("stat type mismatch " + op.path +
                                         " @" + std::to_string(step));
                }
            }
        }
    }
    done = true;
}

class ExtendedFaultFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtendedFaultFuzzTest, LambdaFsFullSurfaceAgreesUnderFaults)
{
    sim::Simulation sim;
    core::LambdaFsConfig config;
    config.num_deployments = 4;
    config.total_vcpus = 64.0;
    config.function.vcpus = 4.0;
    config.num_client_vms = 1;
    config.clients_per_vm = 1;
    config.seed = GetParam();
    config.client.anti_thrashing = false;
    config.client.max_attempts = 30;
    config.client.http_timeout = sim::sec(3);
    core::LambdaFs fs(sim, config);

    sim::FaultPlan plan(sim, GetParam() * 31 + 7);
    sim::MessageFaultWindow msg;
    msg.from = sim::sec(3);
    msg.until = sim::sec(60);
    msg.drop_request_p = 0.05;
    msg.drop_reply_p = 0.05;
    msg.duplicate_p = 0.03;
    msg.delay_p = 0.10;
    msg.delay_min = sim::usec(100);
    msg.delay_max = sim::msec(2);
    plan.add_message_faults(msg);
    sim::InstanceFaultWindow inst;
    inst.from = sim::sec(3);
    inst.until = sim::sec(60);
    inst.crash_p = 0.01;
    inst.stall_p = 0.02;
    plan.add_instance_faults(inst);

    sim.run_until(sim::sec(3));

    ExtendedOracle oracle;
    sim::Rng rng(GetParam());
    std::vector<std::string> mismatches;
    bool done = false;
    sim::spawn(
        co_extended_fuzz_driver(fs, oracle, rng, 600, mismatches, done));
    sim.run_until(sim.now() + sim::sec(200000));

    ASSERT_TRUE(done) << "fuzz driver did not finish";
    EXPECT_TRUE(mismatches.empty())
        << "first mismatch: " << mismatches.front();
    EXPECT_GT(plan.messages_dropped(), 0u) << "fault window injected nothing";

    // Full-state audit: structure, lifecycle invariants, and counters.
    const NamespaceTree& tree = fs.authoritative_tree();
    UserContext root;
    for (const auto& [p, e] : oracle.entries()) {
        auto st = tree.stat(p, root);
        ASSERT_TRUE(st.ok()) << p;
        EXPECT_EQ(st->is_dir(), e.kind == ExtendedOracle::Kind::kDir) << p;
        EXPECT_EQ(st->is_symlink(),
                  e.kind == ExtendedOracle::Kind::kSymlink)
            << p;
    }
    ns::FsStats got = tree.statfs();
    ns::FsStats want = oracle.statfs();
    EXPECT_EQ(got.files, want.files);
    EXPECT_EQ(got.dirs, want.dirs);
    EXPECT_EQ(got.symlinks, want.symlinks);
    EXPECT_EQ(got.inodes, want.inodes);
    EXPECT_EQ(got.open_sessions, want.open_sessions);
    EXPECT_EQ(got.orphans, want.orphans);
    oracle::LifecycleReport report = oracle::audit_lifecycle(tree);
    EXPECT_EQ(report.violations(), 0)
        << (report.details.empty() ? "" : report.details.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtendedFaultFuzzTest,
                         ::testing::Values(5u, 13u));

}  // namespace
}  // namespace lfs::ns
