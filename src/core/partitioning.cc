#include "src/core/partitioning.h"

#include <algorithm>

#include "src/util/path.h"

namespace lfs::core {

NamespacePartitioner::NamespacePartitioner(int num_deployments, int vnodes)
    : num_deployments_(num_deployments), ring_(vnodes)
{
    for (int d = 0; d < num_deployments; ++d) {
        ring_.add_member(d);
    }
}

int
NamespacePartitioner::deployment_for(std::string_view p) const
{
    // Same point as ring_.lookup(path::parent(p)), minus the string.
    return deployment_for_parent(path::parent_hash(p));
}

int
NamespacePartitioner::deployment_for_parent(uint64_t parent_hash) const
{
    return ring_.lookup_hash(mix64(parent_hash));
}

std::vector<int>
NamespacePartitioner::write_target_deployments(const std::string& p) const
{
    std::vector<int> out;
    out.push_back(deployment_for(p));
    // parent_hash folds components, so an unnormalized view hashes as
    // the parent string would.
    int parent_home = deployment_for(path::parent_view(p));
    if (parent_home != out[0]) {
        out.push_back(parent_home);
    }
    return out;
}

std::vector<int>
NamespacePartitioner::all_deployments() const
{
    std::vector<int> out(static_cast<size_t>(num_deployments_));
    for (int d = 0; d < num_deployments_; ++d) {
        out[static_cast<size_t>(d)] = d;
    }
    return out;
}

}  // namespace lfs::core
