#include "src/namespace/apply.h"

#include <utility>

namespace lfs::ns {

namespace {

/** Record a tree call's inode in @p r, or its error. */
void
take_inode(StatusOr<INode> got, OpResult& r)
{
    if (got.ok()) {
        r.inode = got.take();
    } else {
        r.status = got.status();
    }
}

/** Record a tree call's reclaimed-inode count in @p r, or its error. */
void
take_count(StatusOr<int64_t> got, OpResult& r)
{
    if (got.ok()) {
        r.inodes_touched = got.take();
    } else {
        r.status = got.status();
    }
}

/**
 * read, stat and ls: resolve once and return the target with its chain.
 * Open-for-read also checks the target is a readable file; ls lists the
 * directory it resolved instead of resolving it a second time.
 */
void
apply_resolved(const NamespaceTree& tree, const Op& op, OpResult& r)
{
    // lstat semantics: a final symlink stats the link itself. The chain
    // fills the caller's buffer; a failure leaves it empty.
    r.status = tree.resolve_into(
        op.path, op.user,
        op.type == OpType::kStat ? Follow::kNoFinal : Follow::kFinal,
        r.chain, &r.via_symlink);
    if (r.status.ok() && op.type == OpType::kReadFile) {
        const INode& target = r.chain.back();
        if (!target.is_file()) {
            r.status = Status::failed_precondition("not a file: " + op.path);
        } else if (!check_access(target, op.user, Access::kRead)) {
            r.status = Status::permission_denied("no read on " + op.path);
        }
    }
    if (!r.status.ok()) {
        r.chain.clear();
        r.via_symlink = false;
        return;
    }
    r.inode = r.chain.back();
    if (op.type == OpType::kLs) {
        auto listed = tree.list_resolved(r.inode, op.path, op.user);
        if (!listed.ok()) {
            r.status = listed.status();
            return;
        }
        r.children = listed.take();
    }
}

/**
 * Subtree delete and mv report the rows of the subtree they act on — the
 * unit the batched subtree protocol locks and walks — committed or not.
 * The subtree is sized as the caller, so a path it may not traverse
 * fails before anything is touched.
 */
void
apply_subtree(NamespaceTree& tree, const Op& op, sim::SimTime now,
              OpResult& r)
{
    auto rows = tree.subtree_size(op.path, op.user);
    if (!rows.ok()) {
        r.status = rows.status();
        return;
    }
    if (op.type == OpType::kSubtreeDelete) {
        auto removed = tree.remove(op.path, op.user, /*recursive=*/true, now);
        if (!removed.ok()) {
            r.status = removed.status();
        }
    } else {
        r.status = tree.rename(op.path, op.dst, op.user, now);
    }
    r.inodes_touched = *rows;
}

}  // namespace

OpResult
apply(NamespaceTree& tree, const Op& op, sim::SimTime now,
      std::vector<INode> chain)
{
    OpResult r;
    r.chain = std::move(chain);
    switch (op.type) {
      case OpType::kReadFile:
      case OpType::kStat:
      case OpType::kLs:
        apply_resolved(tree, op, r);
        break;
      case OpType::kStatFs:
        r.stats = tree.statfs();
        r.inode = *tree.get(kRootId);
        r.inodes_touched = r.stats.inodes;
        break;
      case OpType::kCreateFile:
        take_inode(tree.create_file(op.path, op.user, now), r);
        break;
      case OpType::kMkdir:
        take_inode(tree.mkdirs(op.path, op.user, now), r);
        break;
      case OpType::kDeleteFile:
        take_count(tree.remove(op.path, op.user, /*recursive=*/false, now),
                   r);
        break;
      case OpType::kMv:
        r.status = tree.rename(op.path, op.dst, op.user, now);
        break;
      case OpType::kSubtreeDelete:
      case OpType::kSubtreeMv:
        apply_subtree(tree, op, now, r);
        break;
      case OpType::kHardLink:
        take_inode(tree.link(op.path, op.dst, op.user, now), r);
        break;
      case OpType::kSymlink:
        take_inode(tree.symlink(op.path, op.dst, op.user, now), r);
        break;
      case OpType::kSetAttr:
        take_inode(tree.setattr(op.path, op.attr, op.user, now), r);
        break;
      case OpType::kOpenSession:
        take_inode(tree.open_session(op.path, op.session_id,
                                     now + op.lease_ttl, op.user),
                   r);
        break;
      case OpType::kCloseSession:
        take_count(tree.close_session(op.session_id, now), r);
        break;
      case OpType::kGcPrune:
        r.inodes_touched = tree.gc_prune(now).reclaimed;
        r.stats = tree.statfs();
        break;
      default:
        r.status = Status::invalid_argument("not an op");
        break;
    }
    return r;
}

std::optional<OpResult>
apply_cached(const NamespaceTree& tree, const Op& op, const INode& cached)
{
    if (cached.is_symlink() &&
        (op.type == OpType::kReadFile || op.type == OpType::kLs)) {
        return std::nullopt;
    }
    std::optional<OpResult> out(std::in_place);
    OpResult& r = *out;
    if (op.type == OpType::kReadFile) {
        // Same checks, same order and same statuses as the cold path.
        if (!cached.is_file()) {
            r.status = Status::failed_precondition("not a file: " + op.path);
            return out;
        }
        if (!check_access(cached, op.user, Access::kRead)) {
            r.status = Status::permission_denied("no read on " + op.path);
            return out;
        }
    }
    r.inode = cached;
    r.cache_hit = true;
    if (op.type == OpType::kLs) {
        // Child names come from the tree's directory index; the cached
        // inode avoids the expensive path-resolve round trip.
        auto listed = tree.list(op.path, op.user);
        if (!listed.ok()) {
            r.status = listed.status();
            return out;
        }
        r.children = listed.take();
    }
    return out;
}

}  // namespace lfs::ns
