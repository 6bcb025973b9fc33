/**
 * @file
 * Bookkeeping shared by the two IndexFS variants, whose metadata lives as
 * flat path-keyed rows in LSM stores rather than in a NamespaceTree:
 *
 *  - RowRegistry mirrors the *types* of live rows so `statfs` counters
 *    are O(1) to collect. It is pure bookkeeping: updating it costs no
 *    simulated time, so the legacy row operations keep their exact
 *    timing.
 *  - SessionRegistry implements the file-session lease state machine
 *    (DESIGN.md §12) over row paths. Unlinking a row somebody holds open
 *    stashes the inode as an orphan; the last close — or a GC pass over
 *    expired leases — reclaims it.
 *
 * Both registries use ordered containers where iteration order is
 * observable (GC sweeps), keeping runs deterministic.
 *
 * Both variants also keep a mirror NamespaceTree — the logical namespace
 * behind authoritative_tree() — updated by the untimed helpers at the
 * end of this file.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/namespace/inode.h"
#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"
#include "src/sim/time.h"
#include "src/util/hash.h"
#include "src/util/path.h"

namespace lfs::indexfs {

/** Live-row type counts for one flat keyspace (or one partition of it). */
class RowRegistry {
  public:
    /** Record that @p key now holds @p inode (put is an upsert). */
    void
    note_put(const std::string& key, const ns::INode& inode)
    {
        auto it = rows_.find(key);
        if (it != rows_.end()) {
            count_for(it->second.type) -= 1;
            bytes_ -= it->second.bytes;
            it->second = Row{inode.type,
                             static_cast<int64_t>(inode.metadata_bytes())};
        } else {
            it = rows_.emplace(key,
                               Row{inode.type,
                                   static_cast<int64_t>(
                                       inode.metadata_bytes())})
                     .first;
        }
        count_for(inode.type) += 1;
        bytes_ += it->second.bytes;
    }

    /** Record that @p key's row was deleted (no-op if unknown). */
    void
    note_del(const std::string& key)
    {
        auto it = rows_.find(key);
        if (it == rows_.end()) {
            return;
        }
        count_for(it->second.type) -= 1;
        bytes_ -= it->second.bytes;
        rows_.erase(it);
    }

    int64_t rows() const { return static_cast<int64_t>(rows_.size()); }
    int64_t files() const { return files_; }
    int64_t dirs() const { return dirs_; }
    int64_t symlinks() const { return symlinks_; }
    int64_t metadata_bytes() const { return bytes_; }

  private:
    struct Row {
        ns::INodeType type = ns::INodeType::kFile;
        int64_t bytes = 0;
    };

    int64_t&
    count_for(ns::INodeType type)
    {
        switch (type) {
          case ns::INodeType::kDirectory:
            return dirs_;
          case ns::INodeType::kSymlink:
            return symlinks_;
          case ns::INodeType::kFile:
            break;
        }
        return files_;
    }

    std::unordered_map<std::string, Row, StringHash, std::equal_to<>> rows_;
    int64_t files_ = 0;
    int64_t dirs_ = 0;
    int64_t symlinks_ = 0;
    int64_t bytes_ = 0;
};

/**
 * File sessions and orphaned rows for a flat keyspace. Session ops here
 * are idempotent (re-opening the same session refreshes its lease,
 * closing an unknown one is a no-op): the IndexFS clients retry through
 * an at-least-once RPC layer without the λFS client's reconciliation
 * probes, so the registry absorbs duplicates instead.
 */
class SessionRegistry {
  public:
    /** Open (or refresh) session @p sid on @p path until @p expiry. */
    void
    open(uint64_t sid, const std::string& path, sim::SimTime expiry)
    {
        auto it = sessions_.find(sid);
        if (it != sessions_.end()) {
            it->second.expiry = expiry;  // duplicate of a committed open
            return;
        }
        sessions_.emplace(sid, Session{path, expiry});
        open_counts_[path] += 1;
    }

    /**
     * Close session @p sid. @return the reclaimed orphan inode count
     * (1 when this was the last session holding an unlinked row).
     */
    int64_t
    close(uint64_t sid)
    {
        auto it = sessions_.find(sid);
        if (it == sessions_.end()) {
            return 0;  // unknown or already closed: idempotent
        }
        std::string path = std::move(it->second.path);
        sessions_.erase(it);
        return release(path);
    }

    /** Sessions currently holding @p path open. */
    int32_t
    open_count(const std::string& path) const
    {
        auto it = open_counts_.find(path);
        return it == open_counts_.end() ? 0 : it->second;
    }

    /**
     * The caller unlinked @p path's row while sessions hold it open:
     * stash @p inode until the last holder closes (or GC expires them).
     */
    void
    orphan(const std::string& path, const ns::INode& inode)
    {
        orphans_[path] = inode;
    }

    /**
     * Expire every session whose lease passed at @p now and reclaim the
     * orphans they were holding. @return {expired, reclaimed}.
     */
    std::pair<int64_t, int64_t>
    gc(sim::SimTime now)
    {
        std::vector<uint64_t> expired;
        for (const auto& [sid, session] : sessions_) {
            if (session.expiry <= now) {
                expired.push_back(sid);
            }
        }
        int64_t reclaimed = 0;
        for (uint64_t sid : expired) {  // std::map: ascending, deterministic
            reclaimed += close(sid);
        }
        return {static_cast<int64_t>(expired.size()), reclaimed};
    }

    int64_t open_sessions() const
    {
        return static_cast<int64_t>(sessions_.size());
    }
    int64_t orphans() const { return static_cast<int64_t>(orphans_.size()); }

  private:
    struct Session {
        std::string path;
        sim::SimTime expiry = 0;
    };

    /** Drop one open count on @p path; reclaim its orphan at zero. */
    int64_t
    release(const std::string& path)
    {
        auto cit = open_counts_.find(path);
        if (cit == open_counts_.end()) {
            return 0;
        }
        if (--cit->second > 0) {
            return 0;
        }
        open_counts_.erase(cit);
        return orphans_.erase(path) > 0 ? 1 : 0;
    }

    std::map<uint64_t, Session> sessions_;  ///< ordered: deterministic GC
    std::unordered_map<std::string, int32_t> open_counts_;
    std::map<std::string, ns::INode> orphans_;
};

/**
 * Mirror a committed mutation into @p mirror as the superuser. Flat rows
 * carry no parent directories, so the parents of a new entry are made on
 * demand. Other ops (mv, subtree ops, sessions, GC) leave the mirror
 * untouched.
 */
inline void
apply_to_mirror(ns::NamespaceTree& mirror, const Op& op, sim::SimTime now)
{
    ns::UserContext root;
    switch (op.type) {
      case OpType::kCreateFile:
        mirror.mkdirs(path::parent(op.path), root, now);
        mirror.create_file(op.path, root, now);
        break;
      case OpType::kMkdir:
        mirror.mkdirs(op.path, root, now);
        break;
      case OpType::kDeleteFile:
        mirror.remove(op.path, root, false, now);
        break;
      case OpType::kSymlink:
        mirror.mkdirs(path::parent(op.path), root, now);
        mirror.symlink(op.path, op.dst, root, now);
        break;
      case OpType::kHardLink:
        mirror.mkdirs(path::parent(op.dst), root, now);
        mirror.link(op.path, op.dst, root, now);
        break;
      case OpType::kSetAttr:
        mirror.setattr(op.path, op.attr, root, now);
        break;
      default:
        break;
    }
}

/** Untimed preload of @p p (and its parents) into @p mirror. */
inline void
preload_mirror(ns::NamespaceTree& mirror, const std::string& p,
               ns::INodeType type)
{
    ns::UserContext root;
    if (type == ns::INodeType::kDirectory) {
        mirror.mkdirs(p, root, 0);
    } else {
        mirror.mkdirs(path::parent(p), root, 0);
        mirror.create_file(p, root, 0);
    }
}

}  // namespace lfs::indexfs
