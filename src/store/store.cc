#include "src/store/store.h"

#include "src/namespace/apply.h"
#include "src/util/path.h"

namespace lfs::store {

void
Store::preload(const std::string& p, ns::INodeType type)
{
    (void)preload_path(tree(), p, type);
}

void
Store::recycle_chain(std::vector<ns::INode>& chain)
{
    if (chain.capacity() == 0) {
        return;
    }
    free_chains_.emplace_back().swap(chain);
    free_chains_.back().clear();
}

std::vector<ns::INode>
Store::take_chain()
{
    if (free_chains_.empty()) {
        return {};
    }
    std::vector<ns::INode> out = std::move(free_chains_.back());
    free_chains_.pop_back();
    return out;
}

OpResult
preload_path(ns::NamespaceTree& tree, const std::string& p,
             ns::INodeType type)
{
    Op op;  // the superuser's
    op.type = OpType::kMkdir;
    op.path = type == ns::INodeType::kDirectory ? p : path::parent(p);
    OpResult r = ns::apply(tree, op, 0);
    if (type != ns::INodeType::kDirectory) {
        op.type = OpType::kCreateFile;
        op.path = p;
        r = ns::apply(tree, op, 0);
    }
    return r;
}

}  // namespace lfs::store
