/**
 * @file
 * Unit tests for the interned path-resolution stack: the PathView
 * component iterator (edge paths: "/", trailing slashes, duplicate
 * slashes, deep nesting), the allocation-free path helpers built on it,
 * the NameTable interner, and the NamespaceTree behaviours that the
 * interned child maps must preserve (sorted listings, heterogeneous
 * lookup, unseen-name fast path).
 */
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/namespace/namespace_tree.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs {
namespace {

std::vector<std::string>
components(std::string_view p)
{
    std::vector<std::string> out;
    for (std::string_view c : path::PathView(p)) {
        out.emplace_back(c);
    }
    return out;
}

TEST(PathView, RootYieldsNoComponents)
{
    EXPECT_TRUE(components("/").empty());
    EXPECT_TRUE(components("").empty());
    EXPECT_TRUE(components("///").empty());
}

TEST(PathView, SimplePath)
{
    EXPECT_EQ(components("/a/b/c"),
              (std::vector<std::string>{"a", "b", "c"}));
}

TEST(PathView, TrailingAndDuplicateSlashes)
{
    EXPECT_EQ(components("/a/"), (std::vector<std::string>{"a"}));
    EXPECT_EQ(components("//a//b///c//"),
              (std::vector<std::string>{"a", "b", "c"}));
}

TEST(PathView, ViewsAliasTheInputBuffer)
{
    std::string p = "/alpha/beta";
    for (std::string_view c : path::PathView(p)) {
        EXPECT_GE(c.data(), p.data());
        EXPECT_LE(c.data() + c.size(), p.data() + p.size());
    }
}

TEST(PathView, DeepNestingMatchesSplit)
{
    std::string p;
    for (int i = 0; i < 200; ++i) {
        p += "/d" + std::to_string(i);
    }
    std::vector<std::string> via_split = path::split(p);
    EXPECT_EQ(components(p), via_split);
    EXPECT_EQ(via_split.size(), 200u);
    EXPECT_EQ(path::depth(p), 200);
}

TEST(PathHelpers, ParentOfMessyPathsIsNormalized)
{
    EXPECT_EQ(path::parent("//a//b/"), "/a");
    EXPECT_EQ(path::parent("/a"), "/");
    EXPECT_EQ(path::parent("/"), "/");
    EXPECT_EQ(path::parent(""), "/");
}

TEST(PathHelpers, BasenameViewPointsIntoInput)
{
    std::string p = "/a/b/name";
    std::string_view b = path::basename_view(p);
    EXPECT_EQ(b, "name");
    EXPECT_GE(b.data(), p.data());
    EXPECT_EQ(path::basename_view("/"), "");
    EXPECT_EQ(path::basename_view("/x//"), "x");
}

TEST(PathHelpers, IsUnderComponentWise)
{
    EXPECT_TRUE(path::is_under("/a/b/c", "/a/b"));
    EXPECT_TRUE(path::is_under("/a/b", "/a/b"));
    EXPECT_TRUE(path::is_under("/anything", "/"));
    EXPECT_FALSE(path::is_under("/ab", "/a"));
    EXPECT_FALSE(path::is_under("/a", "/a/b"));
    // Non-normalized spellings compare by components, like before.
    EXPECT_TRUE(path::is_under("//a//b//c", "/a/b/"));
}

TEST(StringHashTest, HeterogeneousAndIncremental)
{
    EXPECT_EQ(StringHash{}(std::string_view("/a/b")),
              StringHash{}(std::string("/a/b")));
    // Hashing pieces equals hashing the concatenation.
    uint64_t h = kFnv1aBasis;
    h = fnv1a_mix(h, "/");
    h = fnv1a_mix(h, "a");
    EXPECT_EQ(h, fnv1a("/a"));
}

TEST(NameTable, InternsToStableIds)
{
    ns::NameTable names;
    uint32_t a = names.intern("alpha");
    uint32_t b = names.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(names.intern("alpha"), a);
    EXPECT_EQ(names.name(a), "alpha");
    EXPECT_EQ(names.name(b), "beta");
    EXPECT_EQ(names.size(), 2u);
    EXPECT_EQ(names.find("alpha"), a);
    EXPECT_EQ(names.find("never-seen"), ns::NameTable::kNoName);
}

TEST(NameTable, ManyNamesSurviveStorageGrowth)
{
    ns::NameTable names;
    std::vector<uint32_t> ids;
    for (int i = 0; i < 5000; ++i) {
        ids.push_back(names.intern("n" + std::to_string(i)));
    }
    for (int i = 0; i < 5000; ++i) {
        EXPECT_EQ(names.name(ids[i]), "n" + std::to_string(i));
        EXPECT_EQ(names.find("n" + std::to_string(i)), ids[i]);
    }
}

class InternedTreeTest : public ::testing::Test {
  protected:
    ns::NamespaceTree tree_;
    ns::UserContext user_;
};

TEST_F(InternedTreeTest, ListIsSortedLexicographically)
{
    ASSERT_TRUE(tree_.mkdirs("/d", user_, 0).ok());
    // Insert out of order; the hashed child map must not leak its order.
    for (const char* name : {"zeta", "alpha", "mu", "beta", "omega"}) {
        ASSERT_TRUE(
            tree_.create_file(std::string("/d/") + name, user_, 0).ok());
    }
    auto listed = tree_.list("/d", user_);
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(*listed, (std::vector<std::string>{"alpha", "beta", "mu",
                                                 "omega", "zeta"}));
}

TEST_F(InternedTreeTest, ChildrenOrderedByName)
{
    ASSERT_TRUE(tree_.mkdirs("/d", user_, 0).ok());
    for (const char* name : {"c", "a", "b"}) {
        ASSERT_TRUE(
            tree_.create_file(std::string("/d/") + name, user_, 0).ok());
    }
    ns::INodeId dir = tree_.stat("/d", user_)->id;
    std::vector<ns::INodeId> kids = tree_.children(dir);
    ASSERT_EQ(kids.size(), 3u);
    EXPECT_EQ(tree_.get(kids[0])->name, "a");
    EXPECT_EQ(tree_.get(kids[1])->name, "b");
    EXPECT_EQ(tree_.get(kids[2])->name, "c");
}

TEST_F(InternedTreeTest, LookupChildTakesStringView)
{
    ASSERT_TRUE(tree_.mkdirs("/dir", user_, 0).ok());
    ASSERT_TRUE(tree_.create_file("/dir/file", user_, 0).ok());
    ns::INodeId dir = tree_.stat("/dir", user_)->id;
    std::string buffer = "some/file/suffix";
    std::string_view name(buffer.data() + 5, 4);  // "file", not 0-terminated
    EXPECT_NE(tree_.lookup_child(dir, name), ns::kInvalidId);
    // Unseen names short-circuit in the name table, never touching maps.
    EXPECT_EQ(tree_.lookup_child(dir, "no-such-name"), ns::kInvalidId);
}

TEST_F(InternedTreeTest, SameNameInManyDirectoriesInternsOnce)
{
    for (int i = 0; i < 16; ++i) {
        std::string dir = "/d" + std::to_string(i);
        ASSERT_TRUE(tree_.mkdirs(dir, user_, 0).ok());
        ASSERT_TRUE(
            tree_.create_file(dir + "/part-00000", user_, 0).ok());
    }
    // 16 dirs + 1 shared file name: 17 distinct names.
    EXPECT_EQ(tree_.interned_names(), 17u);
}

TEST_F(InternedTreeTest, RenameRelinksInternedEntries)
{
    ASSERT_TRUE(tree_.mkdirs("/a", user_, 0).ok());
    ASSERT_TRUE(tree_.mkdirs("/b", user_, 0).ok());
    ASSERT_TRUE(tree_.create_file("/a/f", user_, 0).ok());
    ASSERT_TRUE(tree_.rename("/a/f", "/b/g", user_, 1).ok());
    EXPECT_FALSE(tree_.stat("/a/f", user_).ok());
    EXPECT_EQ(tree_.stat("/b/g", user_)->name, "g");
    auto listed = tree_.list("/a", user_);
    ASSERT_TRUE(listed.ok());
    EXPECT_TRUE(listed->empty());
}

TEST_F(InternedTreeTest, ResolveAcceptsMessySpellings)
{
    ASSERT_TRUE(tree_.mkdirs("/x/y", user_, 0).ok());
    ASSERT_TRUE(tree_.create_file("/x/y/z", user_, 0).ok());
    EXPECT_TRUE(tree_.stat("//x//y/z/", user_).ok());
    EXPECT_EQ(tree_.stat("//x//y/z/", user_)->id,
              tree_.stat("/x/y/z", user_)->id);
}

TEST_F(InternedTreeTest, RootSpelledWithSlashesIsNeitherDeletedNorMoved)
{
    ASSERT_TRUE(tree_.mkdirs("/a", user_, 0).ok());
    auto removed = tree_.remove("//", user_, /*recursive=*/true, 1);
    EXPECT_EQ(removed.status().code(), Code::kInvalidArgument);
    Status moved = tree_.rename("///", "/a/b", user_, 1);
    EXPECT_EQ(moved.code(), Code::kInvalidArgument);
    EXPECT_EQ(tree_.inode_count(), 2u);
}

// ---------------------------------------------------------------------
// Status parity: mutations resolve by inode-id chain, yet must answer
// exactly as the INode-chain walk did. The expectations below were
// recorded from that walk: code, message and the inode count after the
// call, per case, each on a fresh copy of one fixture tree.
// ---------------------------------------------------------------------

/**
 * Fixture: /d (root 0755) with file f, dir sub and final symlink lf ->
 * /d/f; /locked (0700) hiding x/f; /ln -> /d (intermediate symlink);
 * /loop1 <-> /loop2 (ELOOP); /dangling -> /nowhere; /u owned by uid
 * 1000 holding file g.
 */
void
build_parity_tree(ns::NamespaceTree& t)
{
    const ns::UserContext root;
    const ns::UserContext alice{1000, 1000};
    ASSERT_TRUE(t.mkdirs("/d/sub", root, 0).ok());
    ASSERT_TRUE(t.create_file("/d/f", root, 0).ok());
    ASSERT_TRUE(t.symlink("/d/lf", "/d/f", root, 0).ok());
    ASSERT_TRUE(t.mkdirs("/locked/x", root, 0).ok());
    ASSERT_TRUE(t.create_file("/locked/x/f", root, 0).ok());
    AttrUpdate lock;
    lock.mask = AttrUpdate::kMode;
    lock.mode = 0700;
    ASSERT_TRUE(t.setattr("/locked", lock, root, 0).ok());
    ASSERT_TRUE(t.symlink("/ln", "/d", root, 0).ok());
    ASSERT_TRUE(t.symlink("/loop1", "/loop2", root, 0).ok());
    ASSERT_TRUE(t.symlink("/loop2", "/loop1", root, 0).ok());
    ASSERT_TRUE(t.symlink("/dangling", "/nowhere", root, 0).ok());
    ASSERT_TRUE(t.mkdirs("/u", root, 0).ok());
    AttrUpdate to_alice;
    to_alice.mask = AttrUpdate::kOwner | AttrUpdate::kGroup;
    to_alice.owner = alice.uid;
    to_alice.group = alice.gid;
    ASSERT_TRUE(t.setattr("/u", to_alice, root, 0).ok());
    ASSERT_TRUE(t.create_file("/u/g", alice, 0).ok());
}

struct ParityCase {
    const char* op;   ///< create, mkdir, delete, mv, link, setattr
    const char* src;
    const char* dst;  ///< mv and link only
    int32_t uid;      ///< 0 (root) or 1000 (owns /u)
    const char* want;
};

std::string
run_parity_case(const ParityCase& c)
{
    ns::NamespaceTree t;
    build_parity_tree(t);
    const ns::UserContext user{c.uid, c.uid};
    const std::string op = c.op;
    Status st;
    if (op == "create") {
        st = t.create_file(c.src, user, 1).status();
    } else if (op == "mkdir") {
        st = t.mkdirs(c.src, user, 1).status();
    } else if (op == "delete") {
        st = t.remove(c.src, user, /*recursive=*/false, 1).status();
    } else if (op == "mv") {
        st = t.rename(c.src, c.dst, user, 1);
    } else if (op == "link") {
        st = t.link(c.src, c.dst, user, 1).status();
    } else {
        AttrUpdate mode;
        mode.mask = AttrUpdate::kMode;
        mode.mode = 0750;
        st = t.setattr(c.src, mode, user, 1).status();
    }
    return st.to_string() + " #" + std::to_string(t.inode_count());
}

// clang-format off
const ParityCase kParityCases[] = {
    {"create", "/nope/x", nullptr, 0,
     "NOT_FOUND: no such path: /nope #14"},
    {"create", "/d/f/x", nullptr, 0,
     "FAILED_PRECONDITION: parent not a directory: /d/f/x #14"},
    {"create", "/locked/x/y", nullptr, 0,
     "OK #15"},
    {"create", "/locked/x/f", nullptr, 0,
     "ALREADY_EXISTS: exists: /locked/x/f #14"},
    {"create", "/ln/new", nullptr, 0,
     "OK #15"},
    {"create", "/ln/f", nullptr, 0,
     "ALREADY_EXISTS: exists: /ln/f #14"},
    {"create", "/d/lf", nullptr, 0,
     "ALREADY_EXISTS: exists: /d/lf #14"},
    {"create", "/loop1/x", nullptr, 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1 #14"},
    {"create", "/loop1", nullptr, 0,
     "ALREADY_EXISTS: exists: /loop1 #14"},
    {"create", "//d///sub//x/", nullptr, 0,
     "OK #15"},
    {"create", "//nope///x/", nullptr, 0,
     "NOT_FOUND: no such path: /nope #14"},
    {"create", "//d/f//x", nullptr, 0,
     "FAILED_PRECONDITION: parent not a directory: //d/f//x #14"},
    {"create", "/dangling/x", nullptr, 0,
     "NOT_FOUND: no such path: /nowhere #14"},
    {"create", "/u/new", nullptr, 0,
     "OK #15"},
    {"create", "/u/g", nullptr, 0,
     "ALREADY_EXISTS: exists: /u/g #14"},
    {"create", "/d/new", nullptr, 0,
     "OK #15"},
    {"create", "//u//new//", nullptr, 0,
     "OK #15"},
    {"create", "/", nullptr, 0,
     "INVALID_ARGUMENT: bad path: / #14"},
    {"create", "/d/sub", nullptr, 0,
     "ALREADY_EXISTS: exists: /d/sub #14"},
    {"create", "//ln///sub//x/", nullptr, 0,
     "OK #15"},
    {"create", "//loop1//x//y", nullptr, 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1/x #14"},
    {"create", "/ln//sub/x", nullptr, 0,
     "OK #15"},
    {"mkdir", "/nope/x", nullptr, 0,
     "OK #16"},
    {"mkdir", "/d/f/x", nullptr, 0,
     "FAILED_PRECONDITION: file on path: /d/f/x #14"},
    {"mkdir", "/locked/x/y", nullptr, 0,
     "OK #15"},
    {"mkdir", "/locked/x/f", nullptr, 0,
     "ALREADY_EXISTS: file exists: /locked/x/f #14"},
    {"mkdir", "/ln/new", nullptr, 0,
     "FAILED_PRECONDITION: file on path: /ln/new #14"},
    {"mkdir", "/ln/f", nullptr, 0,
     "FAILED_PRECONDITION: file on path: /ln/f #14"},
    {"mkdir", "/d/lf", nullptr, 0,
     "ALREADY_EXISTS: file exists: /d/lf #14"},
    {"mkdir", "/loop1/x", nullptr, 0,
     "FAILED_PRECONDITION: file on path: /loop1/x #14"},
    {"mkdir", "/loop1", nullptr, 0,
     "ALREADY_EXISTS: file exists: /loop1 #14"},
    {"mkdir", "//d///sub//x/", nullptr, 0,
     "OK #15"},
    {"mkdir", "//nope///x/", nullptr, 0,
     "OK #16"},
    {"mkdir", "//d/f//x", nullptr, 0,
     "FAILED_PRECONDITION: file on path: //d/f//x #14"},
    {"mkdir", "/dangling/x", nullptr, 0,
     "FAILED_PRECONDITION: file on path: /dangling/x #14"},
    {"mkdir", "/u/new", nullptr, 0,
     "OK #15"},
    {"mkdir", "/u/g", nullptr, 0,
     "ALREADY_EXISTS: file exists: /u/g #14"},
    {"mkdir", "/d/new", nullptr, 0,
     "OK #15"},
    {"mkdir", "//u//new//", nullptr, 0,
     "OK #15"},
    {"mkdir", "/", nullptr, 0,
     "OK #14"},
    {"mkdir", "/d/sub", nullptr, 0,
     "OK #14"},
    {"mkdir", "//ln///sub//x/", nullptr, 0,
     "FAILED_PRECONDITION: file on path: //ln///sub//x/ #14"},
    {"mkdir", "//loop1//x//y", nullptr, 0,
     "FAILED_PRECONDITION: file on path: //loop1//x//y #14"},
    {"mkdir", "/ln//sub/x", nullptr, 0,
     "FAILED_PRECONDITION: file on path: /ln//sub/x #14"},
    {"delete", "/nope/x", nullptr, 0,
     "NOT_FOUND: no such path: /nope/x #14"},
    {"delete", "/d/f/x", nullptr, 0,
     "NOT_FOUND: not a directory on path: /d/f/x #14"},
    {"delete", "/locked/x/y", nullptr, 0,
     "NOT_FOUND: no such path: /locked/x/y #14"},
    {"delete", "/locked/x/f", nullptr, 0,
     "OK #13"},
    {"delete", "/ln/new", nullptr, 0,
     "NOT_FOUND: no such path: /d/new #14"},
    {"delete", "/ln/f", nullptr, 0,
     "OK #13"},
    {"delete", "/d/lf", nullptr, 0,
     "OK #13"},
    {"delete", "/loop1/x", nullptr, 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1/x #14"},
    {"delete", "/loop1", nullptr, 0,
     "OK #13"},
    {"delete", "//d///sub//x/", nullptr, 0,
     "NOT_FOUND: no such path: //d///sub//x/ #14"},
    {"delete", "//nope///x/", nullptr, 0,
     "NOT_FOUND: no such path: //nope///x/ #14"},
    {"delete", "//d/f//x", nullptr, 0,
     "NOT_FOUND: not a directory on path: //d/f//x #14"},
    {"delete", "/dangling/x", nullptr, 0,
     "NOT_FOUND: no such path: /nowhere/x #14"},
    {"delete", "/u/new", nullptr, 0,
     "NOT_FOUND: no such path: /u/new #14"},
    {"delete", "/u/g", nullptr, 0,
     "OK #13"},
    {"delete", "/d/new", nullptr, 0,
     "NOT_FOUND: no such path: /d/new #14"},
    {"delete", "//u//new//", nullptr, 0,
     "NOT_FOUND: no such path: //u//new// #14"},
    {"delete", "/", nullptr, 0,
     "INVALID_ARGUMENT: cannot delete root #14"},
    {"delete", "/d/sub", nullptr, 0,
     "OK #13"},
    {"delete", "//ln///sub//x/", nullptr, 0,
     "NOT_FOUND: no such path: /d///sub//x/ #14"},
    {"delete", "//loop1//x//y", nullptr, 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1//x//y #14"},
    {"delete", "/ln//sub/x", nullptr, 0,
     "NOT_FOUND: no such path: /d//sub/x #14"},
    {"setattr", "/nope/x", nullptr, 0,
     "NOT_FOUND: no such path: /nope/x #14"},
    {"setattr", "/d/f/x", nullptr, 0,
     "NOT_FOUND: not a directory on path: /d/f/x #14"},
    {"setattr", "/locked/x/y", nullptr, 0,
     "NOT_FOUND: no such path: /locked/x/y #14"},
    {"setattr", "/locked/x/f", nullptr, 0,
     "OK #14"},
    {"setattr", "/ln/new", nullptr, 0,
     "NOT_FOUND: no such path: /d/new #14"},
    {"setattr", "/ln/f", nullptr, 0,
     "OK #14"},
    {"setattr", "/d/lf", nullptr, 0,
     "OK #14"},
    {"setattr", "/loop1/x", nullptr, 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1/x #14"},
    {"setattr", "/loop1", nullptr, 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1 #14"},
    {"setattr", "//d///sub//x/", nullptr, 0,
     "NOT_FOUND: no such path: //d///sub//x/ #14"},
    {"setattr", "//nope///x/", nullptr, 0,
     "NOT_FOUND: no such path: //nope///x/ #14"},
    {"setattr", "//d/f//x", nullptr, 0,
     "NOT_FOUND: not a directory on path: //d/f//x #14"},
    {"setattr", "/dangling/x", nullptr, 0,
     "NOT_FOUND: no such path: /nowhere/x #14"},
    {"setattr", "/u/new", nullptr, 0,
     "NOT_FOUND: no such path: /u/new #14"},
    {"setattr", "/u/g", nullptr, 0,
     "OK #14"},
    {"setattr", "/d/new", nullptr, 0,
     "NOT_FOUND: no such path: /d/new #14"},
    {"setattr", "//u//new//", nullptr, 0,
     "NOT_FOUND: no such path: //u//new// #14"},
    {"setattr", "/", nullptr, 0,
     "OK #14"},
    {"setattr", "/d/sub", nullptr, 0,
     "OK #14"},
    {"setattr", "//ln///sub//x/", nullptr, 0,
     "NOT_FOUND: no such path: /d///sub//x/ #14"},
    {"setattr", "//loop1//x//y", nullptr, 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1//x//y #14"},
    {"setattr", "/ln//sub/x", nullptr, 0,
     "NOT_FOUND: no such path: /d//sub/x #14"},
    {"mv", "/d/f", "/nope/x", 0,
     "NOT_FOUND: no such path: /nope #14"},
    {"mv", "/d/f", "/d/f/x", 0,
     "INVALID_ARGUMENT: cannot move under itself #14"},
    {"mv", "/d/f", "//d///sub//x/", 0,
     "OK #14"},
    {"mv", "/d/f", "/locked/x/y", 0,
     "OK #14"},
    {"mv", "/u/g", "/u/h", 0,
     "OK #14"},
    {"mv", "/u/g", "//u//h//", 0,
     "OK #14"},
    {"mv", "/u/g", "/ln/sub/g2", 0,
     "OK #14"},
    {"mv", "/d/lf", "/d/sub/lf", 0,
     "OK #14"},
    {"mv", "/loop1/x", "/d/y", 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1/x #14"},
    {"mv", "/d/f", "/loop1/x", 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1 #14"},
    {"mv", "/d/sub", "/d/sub/inner", 0,
     "INVALID_ARGUMENT: cannot move under itself #14"},
    {"mv", "/nope/x", "/d/y", 0,
     "NOT_FOUND: no such path: /nope/x #14"},
    {"mv", "/d/f", "/d/sub", 0,
     "ALREADY_EXISTS: destination exists: /d/sub #14"},
    {"mv", "//d//f", "//d//sub//g//", 0,
     "OK #14"},
    {"mv", "/u/g", "/d/g", 0,
     "OK #14"},
    {"mv", "/dangling/x", "/d/z", 0,
     "NOT_FOUND: no such path: /nowhere/x #14"},
    {"mv", "/d/f", "/dangling/x", 0,
     "NOT_FOUND: no such path: /nowhere #14"},
    {"mv", "/ln/f", "/u/f2", 0,
     "OK #14"},
    {"mv", "/locked/x/f", "/u/f3", 0,
     "OK #14"},
    {"mv", "/d/f", "//nope//x/", 0,
     "NOT_FOUND: no such path: /nope #14"},
    {"link", "/d/f", "/d/f2", 0,
     "OK #14"},
    {"link", "/d/sub", "/d/s2", 0,
     "FAILED_PRECONDITION: hard link target not a file: /d/sub #14"},
    {"link", "/d/lf", "/d/l2", 0,
     "FAILED_PRECONDITION: hard link target not a file: /d/lf #14"},
    {"link", "/d/f", "/nope/x", 0,
     "NOT_FOUND: no such path: /nope #14"},
    {"link", "/d/f", "//d///sub//x/", 0,
     "OK #14"},
    {"link", "/d/f", "/loop1/x", 0,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1 #14"},
    {"link", "/u/g", "/u/g2", 0,
     "OK #14"},
    {"link", "/u/g", "/d/g2", 0,
     "OK #14"},
    {"link", "/d/f", "/d/sub", 0,
     "ALREADY_EXISTS: exists: /d/sub #14"},
    {"link", "/nope/x", "/d/y", 0,
     "NOT_FOUND: no such path: /nope/x #14"},
    {"link", "/d/f", "/locked/x/y", 0,
     "OK #14"},
    {"link", "/d/f", "//nope//x/", 0,
     "NOT_FOUND: no such path: /nope #14"},
    {"link", "/ln/f", "/u/f2", 0,
     "OK #14"},
    {"link", "/d/f", "/ln/sub/f3", 0,
     "OK #14"},
    {"link", "/d/f/x", "/u/y", 0,
     "NOT_FOUND: not a directory on path: /d/f/x #14"},
    {"create", "/nope/x", nullptr, 1000,
     "NOT_FOUND: no such path: /nope #14"},
    {"create", "/d/f/x", nullptr, 1000,
     "FAILED_PRECONDITION: parent not a directory: /d/f/x #14"},
    {"create", "/locked/x/y", nullptr, 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"create", "/locked/x/f", nullptr, 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"create", "/ln/new", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /ln/new #14"},
    {"create", "/ln/f", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /ln/f #14"},
    {"create", "/d/lf", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /d/lf #14"},
    {"create", "/loop1/x", nullptr, 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1 #14"},
    {"create", "/loop1", nullptr, 1000,
     "ALREADY_EXISTS: exists: /loop1 #14"},
    {"create", "//d///sub//x/", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of //d///sub//x/ #14"},
    {"create", "//nope///x/", nullptr, 1000,
     "NOT_FOUND: no such path: /nope #14"},
    {"create", "//d/f//x", nullptr, 1000,
     "FAILED_PRECONDITION: parent not a directory: //d/f//x #14"},
    {"create", "/dangling/x", nullptr, 1000,
     "NOT_FOUND: no such path: /nowhere #14"},
    {"create", "/u/new", nullptr, 1000,
     "OK #15"},
    {"create", "/u/g", nullptr, 1000,
     "ALREADY_EXISTS: exists: /u/g #14"},
    {"create", "/d/new", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /d/new #14"},
    {"create", "//u//new//", nullptr, 1000,
     "OK #15"},
    {"create", "/", nullptr, 1000,
     "INVALID_ARGUMENT: bad path: / #14"},
    {"create", "/d/sub", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /d/sub #14"},
    {"create", "//ln///sub//x/", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of //ln///sub//x/ #14"},
    {"create", "//loop1//x//y", nullptr, 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1/x #14"},
    {"create", "/ln//sub/x", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /ln//sub/x #14"},
    {"mkdir", "/nope/x", nullptr, 1000,
     "OK #16"},
    {"mkdir", "/d/f/x", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: /d/f/x #14"},
    {"mkdir", "/locked/x/y", nullptr, 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"mkdir", "/locked/x/f", nullptr, 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"mkdir", "/ln/new", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: /ln/new #14"},
    {"mkdir", "/ln/f", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: /ln/f #14"},
    {"mkdir", "/d/lf", nullptr, 1000,
     "ALREADY_EXISTS: file exists: /d/lf #14"},
    {"mkdir", "/loop1/x", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: /loop1/x #14"},
    {"mkdir", "/loop1", nullptr, 1000,
     "ALREADY_EXISTS: file exists: /loop1 #14"},
    {"mkdir", "//d///sub//x/", nullptr, 1000,
     "PERMISSION_DENIED: no write on /d/sub #14"},
    {"mkdir", "//nope///x/", nullptr, 1000,
     "OK #16"},
    {"mkdir", "//d/f//x", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: //d/f//x #14"},
    {"mkdir", "/dangling/x", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: /dangling/x #14"},
    {"mkdir", "/u/new", nullptr, 1000,
     "OK #15"},
    {"mkdir", "/u/g", nullptr, 1000,
     "ALREADY_EXISTS: file exists: /u/g #14"},
    {"mkdir", "/d/new", nullptr, 1000,
     "PERMISSION_DENIED: no write on /d #14"},
    {"mkdir", "//u//new//", nullptr, 1000,
     "OK #15"},
    {"mkdir", "/", nullptr, 1000,
     "OK #14"},
    {"mkdir", "/d/sub", nullptr, 1000,
     "OK #14"},
    {"mkdir", "//ln///sub//x/", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: //ln///sub//x/ #14"},
    {"mkdir", "//loop1//x//y", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: //loop1//x//y #14"},
    {"mkdir", "/ln//sub/x", nullptr, 1000,
     "FAILED_PRECONDITION: file on path: /ln//sub/x #14"},
    {"delete", "/nope/x", nullptr, 1000,
     "NOT_FOUND: no such path: /nope/x #14"},
    {"delete", "/d/f/x", nullptr, 1000,
     "NOT_FOUND: not a directory on path: /d/f/x #14"},
    {"delete", "/locked/x/y", nullptr, 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"delete", "/locked/x/f", nullptr, 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"delete", "/ln/new", nullptr, 1000,
     "NOT_FOUND: no such path: /d/new #14"},
    {"delete", "/ln/f", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /ln/f #14"},
    {"delete", "/d/lf", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /d/lf #14"},
    {"delete", "/loop1/x", nullptr, 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1/x #14"},
    {"delete", "/loop1", nullptr, 1000,
     "OK #13"},
    {"delete", "//d///sub//x/", nullptr, 1000,
     "NOT_FOUND: no such path: //d///sub//x/ #14"},
    {"delete", "//nope///x/", nullptr, 1000,
     "NOT_FOUND: no such path: //nope///x/ #14"},
    {"delete", "//d/f//x", nullptr, 1000,
     "NOT_FOUND: not a directory on path: //d/f//x #14"},
    {"delete", "/dangling/x", nullptr, 1000,
     "NOT_FOUND: no such path: /nowhere/x #14"},
    {"delete", "/u/new", nullptr, 1000,
     "NOT_FOUND: no such path: /u/new #14"},
    {"delete", "/u/g", nullptr, 1000,
     "OK #13"},
    {"delete", "/d/new", nullptr, 1000,
     "NOT_FOUND: no such path: /d/new #14"},
    {"delete", "//u//new//", nullptr, 1000,
     "NOT_FOUND: no such path: //u//new// #14"},
    {"delete", "/", nullptr, 1000,
     "INVALID_ARGUMENT: cannot delete root #14"},
    {"delete", "/d/sub", nullptr, 1000,
     "PERMISSION_DENIED: no write on parent of /d/sub #14"},
    {"delete", "//ln///sub//x/", nullptr, 1000,
     "NOT_FOUND: no such path: /d///sub//x/ #14"},
    {"delete", "//loop1//x//y", nullptr, 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1//x//y #14"},
    {"delete", "/ln//sub/x", nullptr, 1000,
     "NOT_FOUND: no such path: /d//sub/x #14"},
    {"setattr", "/nope/x", nullptr, 1000,
     "NOT_FOUND: no such path: /nope/x #14"},
    {"setattr", "/d/f/x", nullptr, 1000,
     "NOT_FOUND: not a directory on path: /d/f/x #14"},
    {"setattr", "/locked/x/y", nullptr, 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"setattr", "/locked/x/f", nullptr, 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"setattr", "/ln/new", nullptr, 1000,
     "NOT_FOUND: no such path: /d/new #14"},
    {"setattr", "/ln/f", nullptr, 1000,
     "PERMISSION_DENIED: not the owner of /ln/f #14"},
    {"setattr", "/d/lf", nullptr, 1000,
     "PERMISSION_DENIED: not the owner of /d/lf #14"},
    {"setattr", "/loop1/x", nullptr, 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1/x #14"},
    {"setattr", "/loop1", nullptr, 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1 #14"},
    {"setattr", "//d///sub//x/", nullptr, 1000,
     "NOT_FOUND: no such path: //d///sub//x/ #14"},
    {"setattr", "//nope///x/", nullptr, 1000,
     "NOT_FOUND: no such path: //nope///x/ #14"},
    {"setattr", "//d/f//x", nullptr, 1000,
     "NOT_FOUND: not a directory on path: //d/f//x #14"},
    {"setattr", "/dangling/x", nullptr, 1000,
     "NOT_FOUND: no such path: /nowhere/x #14"},
    {"setattr", "/u/new", nullptr, 1000,
     "NOT_FOUND: no such path: /u/new #14"},
    {"setattr", "/u/g", nullptr, 1000,
     "OK #14"},
    {"setattr", "/d/new", nullptr, 1000,
     "NOT_FOUND: no such path: /d/new #14"},
    {"setattr", "//u//new//", nullptr, 1000,
     "NOT_FOUND: no such path: //u//new// #14"},
    {"setattr", "/", nullptr, 1000,
     "PERMISSION_DENIED: not the owner of / #14"},
    {"setattr", "/d/sub", nullptr, 1000,
     "PERMISSION_DENIED: not the owner of /d/sub #14"},
    {"setattr", "//ln///sub//x/", nullptr, 1000,
     "NOT_FOUND: no such path: /d///sub//x/ #14"},
    {"setattr", "//loop1//x//y", nullptr, 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1//x//y #14"},
    {"setattr", "/ln//sub/x", nullptr, 1000,
     "NOT_FOUND: no such path: /d//sub/x #14"},
    {"mv", "/d/f", "/nope/x", 1000,
     "NOT_FOUND: no such path: /nope #14"},
    {"mv", "/d/f", "/d/f/x", 1000,
     "INVALID_ARGUMENT: cannot move under itself #14"},
    {"mv", "/d/f", "//d///sub//x/", 1000,
     "PERMISSION_DENIED: no write for rename #14"},
    {"mv", "/d/f", "/locked/x/y", 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"mv", "/u/g", "/u/h", 1000,
     "OK #14"},
    {"mv", "/u/g", "//u//h//", 1000,
     "OK #14"},
    {"mv", "/u/g", "/ln/sub/g2", 1000,
     "PERMISSION_DENIED: no write for rename #14"},
    {"mv", "/d/lf", "/d/sub/lf", 1000,
     "PERMISSION_DENIED: no write for rename #14"},
    {"mv", "/loop1/x", "/d/y", 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1/x #14"},
    {"mv", "/d/f", "/loop1/x", 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1 #14"},
    {"mv", "/d/sub", "/d/sub/inner", 1000,
     "INVALID_ARGUMENT: cannot move under itself #14"},
    {"mv", "/nope/x", "/d/y", 1000,
     "NOT_FOUND: no such path: /nope/x #14"},
    {"mv", "/d/f", "/d/sub", 1000,
     "ALREADY_EXISTS: destination exists: /d/sub #14"},
    {"mv", "//d//f", "//d//sub//g//", 1000,
     "PERMISSION_DENIED: no write for rename #14"},
    {"mv", "/u/g", "/d/g", 1000,
     "PERMISSION_DENIED: no write for rename #14"},
    {"mv", "/dangling/x", "/d/z", 1000,
     "NOT_FOUND: no such path: /nowhere/x #14"},
    {"mv", "/d/f", "/dangling/x", 1000,
     "NOT_FOUND: no such path: /nowhere #14"},
    {"mv", "/ln/f", "/u/f2", 1000,
     "PERMISSION_DENIED: no write for rename #14"},
    {"mv", "/locked/x/f", "/u/f3", 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"mv", "/d/f", "//nope//x/", 1000,
     "NOT_FOUND: no such path: /nope #14"},
    {"link", "/d/f", "/d/f2", 1000,
     "PERMISSION_DENIED: no write on parent of /d/f2 #14"},
    {"link", "/d/sub", "/d/s2", 1000,
     "FAILED_PRECONDITION: hard link target not a file: /d/sub #14"},
    {"link", "/d/lf", "/d/l2", 1000,
     "FAILED_PRECONDITION: hard link target not a file: /d/lf #14"},
    {"link", "/d/f", "/nope/x", 1000,
     "NOT_FOUND: no such path: /nope #14"},
    {"link", "/d/f", "//d///sub//x/", 1000,
     "PERMISSION_DENIED: no write on parent of //d///sub//x/ #14"},
    {"link", "/d/f", "/loop1/x", 1000,
     "FAILED_PRECONDITION: symlink loop (ELOOP): /loop1 #14"},
    {"link", "/u/g", "/u/g2", 1000,
     "OK #14"},
    {"link", "/u/g", "/d/g2", 1000,
     "PERMISSION_DENIED: no write on parent of /d/g2 #14"},
    {"link", "/d/f", "/d/sub", 1000,
     "PERMISSION_DENIED: no write on parent of /d/sub #14"},
    {"link", "/nope/x", "/d/y", 1000,
     "NOT_FOUND: no such path: /nope/x #14"},
    {"link", "/d/f", "/locked/x/y", 1000,
     "PERMISSION_DENIED: no traverse on /locked #14"},
    {"link", "/d/f", "//nope//x/", 1000,
     "NOT_FOUND: no such path: /nope #14"},
    {"link", "/ln/f", "/u/f2", 1000,
     "OK #14"},
    {"link", "/d/f", "/ln/sub/f3", 1000,
     "PERMISSION_DENIED: no write on parent of /ln/sub/f3 #14"},
    {"link", "/d/f/x", "/u/y", 1000,
     "NOT_FOUND: not a directory on path: /d/f/x #14"},
};
// clang-format on

TEST(IdChainMutations, StatusParityWithChainWalk)
{
    for (const ParityCase& c : kParityCases) {
        EXPECT_EQ(run_parity_case(c), c.want)
            << c.op << " " << c.src << (c.dst != nullptr ? " " : "")
            << (c.dst != nullptr ? c.dst : "") << " as uid " << c.uid;
    }
}

}  // namespace
}  // namespace lfs
