/**
 * @file
 * λFS namespace partitioning (§3.3): the file-system namespace is divided
 * among n function deployments by consistently hashing the *parent
 * directory* of each path, so all entries of one directory are cached by
 * the same deployment and a single directory read never fans out.
 */
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/util/hash.h"

namespace lfs::core {

class NamespacePartitioner {
  public:
    /** Partition across deployments 0..n-1. */
    explicit NamespacePartitioner(int num_deployments, int vnodes = 64);

    int deployment_count() const { return num_deployments_; }

    /**
     * Deployment responsible for caching the metadata of @p p — the one
     * hashing its parent directory.
     */
    int deployment_for(std::string_view p) const;

    /**
     * deployment_for() of a path whose parent directory hashes to
     * @p parent_hash (path::parent_hash), for walks that fold it as
     * they descend.
     */
    int deployment_for_parent(uint64_t parent_hash) const;

    /**
     * Deployments that a single-inode write on @p p must invalidate: the
     * partition holding p (keyed by p's parent) and the partition
     * holding p's parent (keyed by the grandparent), deduplicated.
     */
    std::vector<int> write_target_deployments(const std::string& p) const;

    /** All deployment ids (subtree operations invalidate everywhere). */
    std::vector<int> all_deployments() const;

  private:
    int num_deployments_;
    ConsistentHashRing ring_;
};

}  // namespace lfs::core
