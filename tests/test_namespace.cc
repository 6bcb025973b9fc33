/**
 * @file
 * Tests for the semantic namespace engine: resolution, permissions, and
 * every mutation with its error paths.
 */
#include <gtest/gtest.h>

#include "src/namespace/apply.h"
#include "src/namespace/namespace_tree.h"
#include "src/namespace/tree_builder.h"
#include "src/util/path.h"

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

TEST(NamespaceTree, StartsWithRootOnly)
{
    NamespaceTree tree;
    EXPECT_EQ(tree.inode_count(), 1u);
    auto st = tree.stat("/", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->id, kRootId);
    EXPECT_TRUE(st->is_dir());
}

TEST(NamespaceTree, CreateFileAndStat)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a", root_user(), 10).ok());
    auto created = tree.create_file("/a/f", root_user(), 20);
    ASSERT_TRUE(created.ok());
    EXPECT_TRUE(created->is_file());
    EXPECT_EQ(created->name, "f");

    auto st = tree.stat("/a/f", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->id, created->id);
    EXPECT_EQ(st->ctime, 20);
}

TEST(NamespaceTree, CreateRequiresExistingParent)
{
    NamespaceTree tree;
    auto created = tree.create_file("/no/such/f", root_user(), 0);
    EXPECT_EQ(created.code(), Code::kNotFound);
}

TEST(NamespaceTree, CreateRejectsDuplicates)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 0).ok());
    EXPECT_EQ(tree.create_file("/f", root_user(), 0).code(),
              Code::kAlreadyExists);
}

TEST(NamespaceTree, MkdirsCreatesIntermediates)
{
    NamespaceTree tree;
    auto made = tree.mkdirs("/a/b/c", root_user(), 5);
    ASSERT_TRUE(made.ok());
    EXPECT_TRUE(tree.stat("/a", root_user()).ok());
    EXPECT_TRUE(tree.stat("/a/b", root_user()).ok());
    EXPECT_EQ(tree.inode_count(), 4u);  // root + 3
}

TEST(NamespaceTree, MkdirsIsIdempotent)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a/b", root_user(), 0).ok());
    ASSERT_TRUE(tree.mkdirs("/a/b", root_user(), 1).ok());
    EXPECT_EQ(tree.inode_count(), 3u);
}

TEST(NamespaceTree, MkdirsFailsOverFile)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 0).ok());
    EXPECT_FALSE(tree.mkdirs("/f/sub", root_user(), 0).ok());
    EXPECT_EQ(tree.mkdirs("/f", root_user(), 0).code(),
              Code::kAlreadyExists);
}

TEST(NamespaceTree, ReadFileChecksType)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/d", root_user(), 0).ok());
    Op read;
    read.type = OpType::kReadFile;
    read.path = "/d";
    read.user = root_user();
    EXPECT_EQ(apply(tree, read, 0).status.code(), Code::kFailedPrecondition);
}

TEST(NamespaceTree, ListDirectory)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/d", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/d/x", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/d/y", root_user(), 0).ok());
    auto listed = tree.list("/d", root_user());
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(*listed, (std::vector<std::string>{"x", "y"}));
}

TEST(NamespaceTree, ListFileListsItself)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 0).ok());
    auto listed = tree.list("/f", root_user());
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(*listed, std::vector<std::string>{"f"});
}

TEST(NamespaceTree, DeleteFile)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 0).ok());
    auto removed = tree.remove("/f", root_user(), false, 1);
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(*removed, 1);
    EXPECT_EQ(tree.stat("/f", root_user()).code(), Code::kNotFound);
}

TEST(NamespaceTree, DeleteNonEmptyDirRequiresRecursive)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/d", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/d/f", root_user(), 0).ok());
    EXPECT_EQ(tree.remove("/d", root_user(), false, 1).code(),
              Code::kFailedPrecondition);
    auto removed = tree.remove("/d", root_user(), true, 1);
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(*removed, 2);
    EXPECT_EQ(tree.inode_count(), 1u);
}

TEST(NamespaceTree, DeleteRootRejected)
{
    NamespaceTree tree;
    EXPECT_EQ(tree.remove("/", root_user(), true, 0).code(),
              Code::kInvalidArgument);
}

TEST(NamespaceTree, RenameFile)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a", root_user(), 0).ok());
    ASSERT_TRUE(tree.mkdirs("/b", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/a/f", root_user(), 0).ok());
    ASSERT_TRUE(tree.rename("/a/f", "/b/g", root_user(), 9).ok());
    EXPECT_EQ(tree.stat("/a/f", root_user()).code(), Code::kNotFound);
    auto st = tree.stat("/b/g", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->name, "g");
}

TEST(NamespaceTree, RenameMovesSubtree)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a/sub", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/a/sub/f", root_user(), 0).ok());
    ASSERT_TRUE(tree.rename("/a", "/z", root_user(), 1).ok());
    EXPECT_TRUE(tree.stat("/z/sub/f", root_user()).ok());
    EXPECT_EQ(tree.stat("/a", root_user()).code(), Code::kNotFound);
}

TEST(NamespaceTree, RenameRejectsExistingDestination)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.create_file("/f", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/g", root_user(), 0).ok());
    EXPECT_EQ(tree.rename("/f", "/g", root_user(), 0).code(),
              Code::kAlreadyExists);
}

TEST(NamespaceTree, RenameRejectsMoveUnderSelf)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a/b", root_user(), 0).ok());
    EXPECT_EQ(tree.rename("/a", "/a/b/c", root_user(), 0).code(),
              Code::kInvalidArgument);
}

TEST(NamespaceTree, PermissionDeniedForOtherUsersWrite)
{
    NamespaceTree tree;
    // Root creates /private with mode 0755 owned by uid 0.
    ASSERT_TRUE(tree.mkdirs("/private", root_user(), 0).ok());
    auto created = tree.create_file("/private/f", plain_user(), 0);
    EXPECT_EQ(created.code(), Code::kPermissionDenied);
}

TEST(NamespaceTree, OwnerCanWriteOwnDirectory)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/home", root_user(), 0).ok());
    // Root-owned /home is 0755: the plain user cannot create there,
    // but in a dir they own they can.
    NamespaceTree tree2;
    ASSERT_TRUE(tree2.mkdirs("/u", plain_user(), 0).ok());
    EXPECT_TRUE(tree2.create_file("/u/f", plain_user(), 0).ok());
}

TEST(NamespaceTree, SubtreeSizeCountsAllInodes)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a/b", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/a/f1", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/a/b/f2", root_user(), 0).ok());
    auto size = tree.subtree_size("/a", root_user());
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 4);  // a, b, f1, f2
}

TEST(NamespaceTree, FullPathRoundTrips)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/x/y", root_user(), 0).ok());
    auto st = tree.stat("/x/y", root_user());
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(tree.full_path(st->id), "/x/y");
    EXPECT_EQ(tree.full_path(kRootId), "/");
}

TEST(NamespaceTree, ResolveReturnsFullChain)
{
    NamespaceTree tree;
    ASSERT_TRUE(tree.mkdirs("/a/b", root_user(), 0).ok());
    ASSERT_TRUE(tree.create_file("/a/b/f", root_user(), 0).ok());
    auto resolved = tree.resolve("/a/b/f", root_user());
    ASSERT_TRUE(resolved.ok());
    ASSERT_EQ(resolved->chain.size(), 4u);
    EXPECT_EQ(resolved->chain[0].id, kRootId);
    EXPECT_EQ(resolved->chain[3].name, "f");
}

// ---------------------------------------------------------------------
// Tree builders
// ---------------------------------------------------------------------

TEST(TreeBuilder, BalancedTreeShape)
{
    NamespaceTree tree;
    TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 2;
    spec.fanout = 3;
    spec.files_per_dir = 2;
    BuiltTree built = build_balanced_tree(tree, spec, root_user(), 0);
    // Dirs: 1 + 3 + 9 = 13; files: 2 per dir = 26.
    EXPECT_EQ(built.dirs.size(), 13u);
    EXPECT_EQ(built.files.size(), 26u);
    for (const auto& f : built.files) {
        EXPECT_TRUE(tree.stat(f, root_user()).ok()) << f;
    }
}

TEST(TreeBuilder, FlatDirectory)
{
    NamespaceTree tree;
    BuiltTree built =
        build_flat_directory(tree, "/big", 1000, root_user(), 0);
    EXPECT_EQ(built.files.size(), 1000u);
    auto size = tree.subtree_size("/big", root_user());
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, 1001);
}

TEST(TreeBuilder, WideSubtreeApproximatesBudget)
{
    NamespaceTree tree;
    BuiltTree built =
        build_wide_subtree(tree, "/wide", 5000, 8, root_user(), 0);
    auto size = tree.subtree_size("/wide", root_user());
    ASSERT_TRUE(size.ok());
    EXPECT_GE(*size, 4900);
    EXPECT_LE(*size, 5100);
    EXPECT_FALSE(built.files.empty());
    EXPECT_GT(built.dirs.size(), 1u);
}

}  // namespace
}  // namespace lfs::ns
