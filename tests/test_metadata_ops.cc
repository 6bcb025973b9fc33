/**
 * @file
 * Semantic tests for the extended metadata op surface on the
 * authoritative NamespaceTree: hard links, symlinks, setattr, statfs,
 * file sessions, and GC (DESIGN.md §12) — plus rename regression tests
 * for the two classic corruption cases (directory into its own subtree,
 * rename onto a non-empty directory). Every scenario finishes with a
 * full lifecycle-oracle audit so no op can leave the tree structurally
 * inconsistent.
 */
#include <gtest/gtest.h>

#include "src/namespace/apply.h"
#include "src/namespace/namespace_tree.h"
#include "tests/oracle/lifecycle_oracle.h"

namespace lfs::ns {
namespace {

UserContext
root_user()
{
    return UserContext{0, 0};
}

UserContext
plain_user()
{
    return UserContext{1000, 1000};
}

/** Open-for-read of @p p as the superuser, through the op applier. */
OpResult
read_file(NamespaceTree& tree, const std::string& p)
{
    Op op;
    op.type = OpType::kReadFile;
    op.path = p;
    op.user = root_user();
    return apply(tree, op, 0);
}

void
expect_clean(const NamespaceTree& tree)
{
    oracle::LifecycleReport report = oracle::audit_lifecycle(tree);
    EXPECT_EQ(report.violations(), 0)
        << (report.details.empty() ? "" : report.details.front());
}

// ----------------------------------------------------------------------
// Hard links
// ----------------------------------------------------------------------

TEST(HardLink, SharesInodeAndBumpsLinkCount)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a", root_user(), 1).ok());
    auto f = tree.create_file("/a/f", root_user(), 2);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->nlink, 1);

    auto linked = tree.link("/a/f", "/a/g", root_user(), 3);
    ASSERT_TRUE(linked.ok());
    EXPECT_EQ(linked->id, f->id);
    EXPECT_EQ(linked->nlink, 2);

    auto st = tree.stat("/a/g", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->id, f->id);
    expect_clean(tree);
}

TEST(HardLink, RejectsDirectoriesAndSymlinks)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/d", root_user(), 1).ok());
    ASSERT_TRUE(tree.symlink("/sl", "/d", root_user(), 2).ok());
    EXPECT_EQ(tree.link("/d", "/d2", root_user(), 3).code(),
              Code::kFailedPrecondition);
    EXPECT_EQ(tree.link("/sl", "/sl2", root_user(), 4).code(),
              Code::kFailedPrecondition);
    expect_clean(tree);
}

TEST(HardLink, RejectsExistingDestinationAndMissingSource)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    ASSERT_TRUE(tree.create_file("/g", root_user(), 2).ok());
    EXPECT_EQ(tree.link("/f", "/g", root_user(), 3).code(),
              Code::kAlreadyExists);
    EXPECT_EQ(tree.link("/missing", "/h", root_user(), 4).code(),
              Code::kNotFound);
    expect_clean(tree);
}

TEST(HardLink, DeleteOneNameKeepsTheOther)
{
    NamespaceTree tree;
    auto f = tree.create_file("/f", root_user(), 1);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(tree.link("/f", "/g", root_user(), 2).ok());
    ASSERT_TRUE(tree.remove("/f", root_user(), false, 3).ok());

    auto st = tree.stat("/g", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->id, f->id);
    EXPECT_EQ(st->nlink, 1);
    EXPECT_EQ(tree.stat("/f", root_user()).code(), Code::kNotFound);
    expect_clean(tree);

    // Removing the last name reclaims the inode.
    ASSERT_TRUE(tree.remove("/g", root_user(), false, 4).ok());
    EXPECT_EQ(tree.get(f->id), nullptr);
    expect_clean(tree);
}

TEST(HardLink, SetAttrVisibleThroughEveryName)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    ASSERT_TRUE(tree.link("/f", "/g", root_user(), 2).ok());

    AttrUpdate update;
    update.mask = AttrUpdate::kMode;
    update.mode = 0600;
    ASSERT_TRUE(tree.setattr("/g", update, root_user(), 3).ok());

    auto st = tree.stat("/f", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->perms.mode, 0600);
    expect_clean(tree);
}

// ----------------------------------------------------------------------
// Symlinks
// ----------------------------------------------------------------------

TEST(Symlink, ResolvesThroughToTarget)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/data", root_user(), 1).ok());
    auto f = tree.create_file("/data/f", root_user(), 2);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(tree.symlink("/alias", "/data/f", root_user(), 3).ok());

    OpResult read = read_file(tree, "/alias");
    ASSERT_TRUE(read.status.ok());
    EXPECT_EQ(read.inode.id, f->id);
    expect_clean(tree);
}

TEST(Symlink, StatIsLstat)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    ASSERT_TRUE(tree.symlink("/sl", "/f", root_user(), 2).ok());

    auto st = tree.stat("/sl", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->is_symlink());
    EXPECT_EQ(st->symlink_target, "/f");
    expect_clean(tree);
}

TEST(Symlink, DanglingLinksAreLegalButUnreadable)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.symlink("/sl", "/never/made", root_user(), 1).ok());
    EXPECT_TRUE(tree.stat("/sl", root_user()).ok());
    EXPECT_EQ(read_file(tree, "/sl").status.code(), Code::kNotFound);
    expect_clean(tree);
}

TEST(Symlink, MidPathComponentIsFollowed)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/real/dir", root_user(), 1).ok());
    auto f = tree.create_file("/real/dir/f", root_user(), 2);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(tree.symlink("/shortcut", "/real/dir", root_user(), 3).ok());

    OpResult read = read_file(tree, "/shortcut/f");
    ASSERT_TRUE(read.status.ok());
    EXPECT_EQ(read.inode.id, f->id);
    expect_clean(tree);
}

TEST(Symlink, LoopFailsWithEloop)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.symlink("/a", "/b", root_user(), 1).ok());
    ASSERT_TRUE(tree.symlink("/b", "/a", root_user(), 2).ok());
    EXPECT_EQ(read_file(tree, "/a").status.code(),
              Code::kFailedPrecondition);
    expect_clean(tree);
}

TEST(Symlink, ChainDepthIsBounded)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 0).ok());
    // sl0 -> /f, sl1 -> sl0, ... — each hop consumes one follow.
    std::string prev = "/f";
    for (int i = 0; i <= kMaxSymlinkFollows; ++i) {
        std::string name = "/sl" + std::to_string(i);
        ASSERT_TRUE(tree.symlink(name, prev, root_user(), i + 1).ok());
        prev = name;
    }
    // Depth == bound resolves; one past it trips ELOOP.
    std::string at_bound = "/sl" + std::to_string(kMaxSymlinkFollows - 1);
    EXPECT_TRUE(read_file(tree, at_bound).status.ok());
    EXPECT_EQ(read_file(tree, prev).status.code(),
              Code::kFailedPrecondition);
    expect_clean(tree);
}

TEST(Symlink, RejectsRelativeTargetAndExistingName)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    EXPECT_EQ(tree.symlink("/sl", "not/absolute", root_user(), 2).code(),
              Code::kInvalidArgument);
    EXPECT_EQ(tree.symlink("/f", "/anything", root_user(), 3).code(),
              Code::kAlreadyExists);
    expect_clean(tree);
}

TEST(Symlink, RenameMovesTheLinkNotTheTarget)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    ASSERT_TRUE(tree.symlink("/sl", "/f", root_user(), 2).ok());
    ASSERT_TRUE(tree.rename("/sl", "/sl2", root_user(), 3).ok());

    auto st = tree.stat("/sl2", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->is_symlink());
    EXPECT_TRUE(tree.stat("/f", root_user()).ok());
    expect_clean(tree);
}

// ----------------------------------------------------------------------
// setattr
// ----------------------------------------------------------------------

TEST(SetAttr, UpdatesModeOwnerAndTimes)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());

    AttrUpdate update;
    update.mask = AttrUpdate::kMode | AttrUpdate::kOwner |
                  AttrUpdate::kGroup | AttrUpdate::kTimes;
    update.mode = 0640;
    update.owner = 1000;
    update.group = 1000;
    update.mtime = 99;
    auto out = tree.setattr("/f", update, root_user(), 50);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->perms.mode, 0640);
    EXPECT_EQ(out->perms.owner, 1000);
    EXPECT_EQ(out->perms.group, 1000);
    EXPECT_EQ(out->mtime, 99);
    EXPECT_EQ(out->ctime, 50);
    expect_clean(tree);
}

TEST(SetAttr, NonOwnerIsRejected)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    AttrUpdate update;
    update.mask = AttrUpdate::kMode;
    update.mode = 0777;
    EXPECT_EQ(tree.setattr("/f", update, plain_user(), 2).code(),
              Code::kPermissionDenied);
    expect_clean(tree);
}

TEST(SetAttr, ChownIsSuperuserOnly)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    AttrUpdate chown;
    chown.mask = AttrUpdate::kOwner;
    chown.owner = 1000;
    ASSERT_TRUE(tree.setattr("/f", chown, root_user(), 2).ok());

    // The new owner may chmod their file but not give it away again.
    AttrUpdate chmod;
    chmod.mask = AttrUpdate::kMode;
    chmod.mode = 0600;
    EXPECT_TRUE(tree.setattr("/f", chmod, plain_user(), 3).ok());
    AttrUpdate steal;
    steal.mask = AttrUpdate::kOwner;
    steal.owner = 0;
    EXPECT_EQ(tree.setattr("/f", steal, plain_user(), 4).code(),
              Code::kPermissionDenied);
    expect_clean(tree);
}

TEST(SetAttr, FollowsFinalSymlink)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    ASSERT_TRUE(tree.symlink("/sl", "/f", root_user(), 2).ok());
    AttrUpdate update;
    update.mask = AttrUpdate::kMode;
    update.mode = 0600;
    ASSERT_TRUE(tree.setattr("/sl", update, root_user(), 3).ok());

    auto target = tree.stat("/f", root_user());
    ASSERT_TRUE(target.ok());
    EXPECT_EQ(target->perms.mode, 0600);
    auto link = tree.stat("/sl", root_user());
    ASSERT_TRUE(link.ok());
    EXPECT_NE(link->perms.mode, 0600);
    expect_clean(tree);
}

// ----------------------------------------------------------------------
// statfs
// ----------------------------------------------------------------------

TEST(StatFs, CountersTrackEveryMutation)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a/b", root_user(), 1).ok());
    ASSERT_TRUE(tree.create_file("/a/f", root_user(), 2).ok());
    ASSERT_TRUE(tree.create_file("/a/g", root_user(), 3).ok());
    ASSERT_TRUE(tree.symlink("/a/sl", "/a/f", root_user(), 4).ok());
    ASSERT_TRUE(tree.link("/a/f", "/a/b/ln", root_user(), 5).ok());

    FsStats stats = tree.statfs();
    EXPECT_EQ(stats.files, 2);  // hard link shares an inode
    EXPECT_EQ(stats.dirs, 3);   // /, /a, /a/b
    EXPECT_EQ(stats.symlinks, 1);
    EXPECT_EQ(stats.inodes, 6);
    EXPECT_EQ(stats.open_sessions, 0);
    EXPECT_EQ(stats.orphans, 0);
    EXPECT_GT(stats.metadata_bytes, 0u);
    expect_clean(tree);

    ASSERT_TRUE(tree.remove("/a", root_user(), true, 6).ok());
    stats = tree.statfs();
    EXPECT_EQ(stats.files, 0);
    EXPECT_EQ(stats.dirs, 1);
    EXPECT_EQ(stats.symlinks, 0);
    expect_clean(tree);
}

// ----------------------------------------------------------------------
// File sessions, orphans, and GC
// ----------------------------------------------------------------------

TEST(Sessions, OpenCloseRoundTrip)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 1).ok());
    ASSERT_TRUE(tree.open_session("/f", 7, sim::msec(100), root_user()).ok());
    EXPECT_EQ(tree.open_session_count(), 1u);
    EXPECT_EQ(tree.statfs().open_sessions, 1);
    expect_clean(tree);

    auto closed = tree.close_session(7, 10);
    ASSERT_TRUE(closed.ok());
    EXPECT_EQ(*closed, 0);  // file still linked: nothing to reclaim
    EXPECT_EQ(tree.open_session_count(), 0u);
    expect_clean(tree);
}

TEST(Sessions, OpenRejectsDirectoriesAndUnknownSessions)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/d", root_user(), 1).ok());
    EXPECT_EQ(tree.open_session("/d", 1, sim::msec(1), root_user()).code(),
              Code::kFailedPrecondition);
    EXPECT_EQ(tree.close_session(99, 2).code(), Code::kNotFound);
    expect_clean(tree);
}

TEST(Sessions, DeleteWhileOpenOrphansUntilClose)
{
    NamespaceTree tree;
    auto f = tree.create_file("/f", root_user(), 1);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(tree.open_session("/f", 1, sim::msec(500), root_user()).ok());
    ASSERT_TRUE(tree.remove("/f", root_user(), false, 2).ok());

    // Name is gone but the inode survives as an orphan.
    EXPECT_EQ(tree.stat("/f", root_user()).code(), Code::kNotFound);
    ASSERT_NE(tree.get(f->id), nullptr);
    EXPECT_EQ(tree.orphan_count(), 1u);
    EXPECT_EQ(tree.statfs().orphans, 1);
    expect_clean(tree);

    auto closed = tree.close_session(1, 3);
    ASSERT_TRUE(closed.ok());
    EXPECT_EQ(*closed, 1);
    EXPECT_EQ(tree.get(f->id), nullptr);
    EXPECT_EQ(tree.orphan_count(), 0u);
    expect_clean(tree);
}

TEST(Sessions, HardLinkKeepsDeletedOpenFileLinked)
{
    NamespaceTree tree;
    auto f = tree.create_file("/f", root_user(), 1);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(tree.link("/f", "/g", root_user(), 2).ok());
    ASSERT_TRUE(tree.open_session("/f", 1, sim::msec(500), root_user()).ok());
    ASSERT_TRUE(tree.remove("/f", root_user(), false, 3).ok());

    // Still reachable via the second name: not an orphan.
    EXPECT_EQ(tree.orphan_count(), 0u);
    EXPECT_TRUE(tree.stat("/g", root_user()).ok());
    ASSERT_TRUE(tree.close_session(1, 4).ok());
    EXPECT_NE(tree.get(f->id), nullptr);
    expect_clean(tree);
}

TEST(Sessions, GcReclaimsExpiredLeases)
{
    NamespaceTree tree;
    auto f = tree.create_file("/f", root_user(), 1);
    ASSERT_TRUE(f.ok());
    // Crashed client: opens, unlinks, never closes.
    ASSERT_TRUE(tree.open_session("/f", 1, sim::msec(100), root_user()).ok());
    ASSERT_TRUE(tree.remove("/f", root_user(), false, 2).ok());

    // Before expiry GC must not touch the lease.
    auto early = tree.gc_prune(sim::msec(50));
    EXPECT_EQ(early.expired_sessions, 0);
    EXPECT_EQ(early.reclaimed, 0);
    EXPECT_TRUE(oracle::no_expired_orphans(tree, sim::msec(50)));
    expect_clean(tree);

    auto late = tree.gc_prune(sim::msec(200));
    EXPECT_EQ(late.expired_sessions, 1);
    EXPECT_EQ(late.reclaimed, 1);
    EXPECT_EQ(tree.get(f->id), nullptr);
    EXPECT_EQ(tree.open_session_count(), 0u);
    EXPECT_EQ(tree.orphan_count(), 0u);
    EXPECT_TRUE(oracle::no_expired_orphans(tree, sim::msec(200)));
    expect_clean(tree);
}

TEST(Sessions, TwoSessionsBothMustReleaseTheOrphan)
{
    NamespaceTree tree;
    auto f = tree.create_file("/f", root_user(), 1);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(tree.open_session("/f", 1, sim::msec(500), root_user()).ok());
    ASSERT_TRUE(tree.open_session("/f", 2, sim::msec(500), root_user()).ok());
    ASSERT_TRUE(tree.remove("/f", root_user(), false, 2).ok());

    auto first = tree.close_session(1, 3);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(*first, 0);
    EXPECT_NE(tree.get(f->id), nullptr);
    expect_clean(tree);

    auto second = tree.close_session(2, 4);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*second, 1);
    EXPECT_EQ(tree.get(f->id), nullptr);
    expect_clean(tree);
}

// ----------------------------------------------------------------------
// Rename regressions (the two classic namespace-corruption cases; the
// tree already rejects both — these pin the behaviour)
// ----------------------------------------------------------------------

TEST(RenameRegression, DirIntoItsOwnSubtreeIsRejected)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a/b/c", root_user(), 1).ok());
    EXPECT_FALSE(tree.rename("/a", "/a/b/c/a2", root_user(), 2).ok());
    EXPECT_FALSE(tree.rename("/a", "/a/inside", root_user(), 3).ok());

    // Namespace unchanged and structurally sound.
    EXPECT_TRUE(tree.stat("/a/b/c", root_user()).ok());
    EXPECT_EQ(tree.inode_count(), 4u);
    expect_clean(tree);
}

TEST(RenameRegression, OntoExistingNonEmptyDirIsRejected)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/src", root_user(), 1).ok());
    ASSERT_TRUE(tree.mkdirs("/dst", root_user(), 2).ok());
    ASSERT_TRUE(tree.create_file("/dst/keep", root_user(), 3).ok());
    EXPECT_FALSE(tree.rename("/src", "/dst", root_user(), 4).ok());

    // The occupant survives untouched.
    EXPECT_TRUE(tree.stat("/dst/keep", root_user()).ok());
    EXPECT_TRUE(tree.stat("/src", root_user()).ok());
    expect_clean(tree);
}

}  // namespace
}  // namespace lfs::ns
