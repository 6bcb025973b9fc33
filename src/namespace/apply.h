/**
 * @file
 * The one op applier: the only code that maps an OpType onto
 * NamespaceTree calls. Every system applies ops here — λFS (and
 * InfiniCache, a λFS preset), HopsFS and HopsFS+Cache through the
 * metadata store, CephFS, and IndexFS and λIndexFS over their LSM timing
 * backend — so the systems differ in timing, locking and caching and
 * never in what an op does (DESIGN.md §12).
 */
#pragma once

#include <optional>
#include <vector>

#include "src/namespace/namespace_tree.h"
#include "src/namespace/op.h"
#include "src/sim/time.h"

namespace lfs::ns {

/**
 * Apply @p op to @p tree at simulated time @p now (no timing, no
 * locking). Reads, stats and listings return the resolved chain and
 * whether a symlink was followed; statfs reports the namespace counters,
 * the root inode and inodes_touched = stats.inodes; deletes, session
 * closes and GC report the inodes they reclaimed, and subtree ops the
 * rows of their subtree. kCount and other non-op types fail with
 * INVALID_ARGUMENT. A resolved chain fills @p chain's capacity, which
 * rides in the result either way (a store's recycled buffer).
 */
OpResult apply(NamespaceTree& tree, const Op& op, sim::SimTime now,
               std::vector<INode> chain = {});

/**
 * Answer a read-type @p op from a metadata cache entry or IndexFS client
 * lease @p cached, or nullopt when the entry cannot serve it: a cached symlink satisfies
 * lstat, but follow-ops (read, ls) need the target under its own
 * canonical path. Opening a non-file fails FAILED_PRECONDITION, and
 * opening without read permission on the cached inode PERMISSION_DENIED,
 * as on the cold path; ls lists the children through an untimed tree
 * listing. Callers never pass statfs (namespace-wide counters are never
 * cached).
 */
std::optional<OpResult> apply_cached(const NamespaceTree& tree, const Op& op,
                                     const INode& cached);

}  // namespace lfs::ns
