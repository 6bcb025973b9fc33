/**
 * @file
 * λIndexFS demo (§4, §5.7): the λFS serverless caching layer ported in
 * front of IndexFS' LSM (LevelDB-model) stores — a core::LambdaFs built
 * from core::lambda_indexfs_config() — driven by a miniature
 * tree-test: a write phase of mknods followed by a read phase of random
 * getattrs, with the LSM internals (flushes, compactions, bloom-filtered
 * reads) visible.
 *
 *   ./build/examples/example_indexfs_port
 */
#include <cstdio>

#include "src/core/lambda_fs.h"
#include "src/indexfs/indexfs.h"
#include "src/sim/simulation.h"
#include "src/workload/tree_test.h"

using namespace lfs;

namespace {

void
report(const char* label, const workload::TreeTestResult& r)
{
    std::printf("  %-16s writes %8.0f ops/s, reads %8.0f ops/s, "
                "aggregate %8.0f ops/s (%lld failures)\n",
                label, r.write_ops_per_sec, r.read_ops_per_sec,
                r.agg_ops_per_sec, static_cast<long long>(r.failures));
}

}  // namespace

int
main()
{
    workload::TreeTestConfig tcfg;
    tcfg.num_clients = 32;
    tcfg.ops_per_client = 500;
    tcfg.num_dirs = 32;

    std::printf("tree-test: %d clients x %lld mknods then %lld getattrs\n\n",
                tcfg.num_clients,
                static_cast<long long>(tcfg.ops_per_client),
                static_cast<long long>(tcfg.ops_per_client));
    {
        sim::Simulation sim;
        indexfs::IndexFsConfig config;
        config.clients_per_vm = 8;
        indexfs::IndexFs fs(sim, config);
        workload::TreeTestResult r = workload::run_tree_test(
            sim, fs, tcfg, [&fs](const std::string& dir) {
                fs.preload(dir, ns::INodeType::kDirectory);
            });
        report("indexfs", r);
        std::printf("    lsm[0]: %llu flushes, %llu compactions, %llu "
                    "sstable reads\n",
                    static_cast<unsigned long long>(
                        fs.server(0).lsm().flushes()),
                    static_cast<unsigned long long>(
                        fs.server(0).lsm().compactions()),
                    static_cast<unsigned long long>(
                        fs.server(0).lsm().sstable_reads()));
    }
    {
        sim::Simulation sim;
        core::LambdaFsConfig config = core::lambda_indexfs_config();
        config.clients_per_vm = 8;
        core::LambdaFs fs(sim, config);
        workload::TreeTestResult r = workload::run_tree_test(
            sim, fs, tcfg, [&fs](const std::string& dir) {
                fs.preload(dir, ns::INodeType::kDirectory);
            });
        report("lambda-indexfs", r);
        std::printf("    serverless cache nodes active: %d\n",
                    fs.active_name_nodes());
    }
    return 0;
}
