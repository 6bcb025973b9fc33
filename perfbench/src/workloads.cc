// Workload generation: every op of every workload is produced here from the
// seed, before the system exists. Deletes and mvs only ever touch files the
// same client created earlier in its own stream, and a client issues its
// stream in order, so every generated op succeeds however clients
// interleave — which is what lets a repetition check the final tree
// exactly.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "perfbench.h"
#include "src/sim/random.h"
#include "src/util/hash.h"
#include "src/util/path.h"
#include "src/workload/op_mix.h"

namespace perfbench {

namespace {

constexpr int kClientVms = 8;

/** The bench harness's λFS sizing rule (bench/common/harness.cc). */
core::LambdaFsConfig
lambda_config(double total_vcpus, int clients, double store_scale)
{
    core::LambdaFsConfig config;
    config.total_vcpus = total_vcpus;
    config.function.vcpus = std::clamp(total_vcpus / 32.0, 0.5, 6.25);
    config.num_deployments = std::clamp(
        static_cast<int>(total_vcpus / config.function.vcpus / 2.0), 2, 16);
    config.function.idle_reclaim = sim::sec(120);
    config.function.memory_gb = 6.0 * config.function.vcpus / 6.25;
    config.num_client_vms = kClientVms;
    config.clients_per_vm = clients / kClientVms;
    config.store.data_node.concurrency =
        std::max(1, static_cast<int>(std::lround(16 * store_scale)));
    return config;
}

/** The standard microbenchmark tree: 4,681 dirs, 9,362 files. */
ns::TreeSpec
bench_tree()
{
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 4;
    spec.fanout = 8;
    spec.files_per_dir = 2;
    return spec;
}

/** The industrial tree at the harness's default 0.125 scale. */
ns::TreeSpec
industrial_tree()
{
    ns::TreeSpec spec;
    spec.root = "/bench";
    spec.depth = 3;
    spec.fanout = 8;
    spec.files_per_dir = 6;
    return spec;
}

/**
 * One client's op stream. Reads target the shared base tree; creates get
 * client-unique names; deletes and mvs consume the client's own files and
 * (empty) directories. With no such file left, a delete or mv becomes a
 * create, so the stream stays valid.
 */
class ClientStream {
  public:
    ClientStream(size_t client, const ns::BuiltTree& base, sim::Rng rng,
                 bool stat_recent_parent)
        : client_(client),
          base_(base),
          rng_(rng),
          stat_recent_parent_(stat_recent_parent)
    {
    }

    PlannedOp
    next(OpType type)
    {
        PlannedOp op;
        op.type = type;
        switch (type) {
          case OpType::kReadFile:
            op.path = random_file();
            break;
          case OpType::kStat:
            // write-churn stats the directory its last write changed, so
            // the invalidated directories get cached again.
            op.path = stat_recent_parent_ && !last_parent_.empty()
                          ? last_parent_
                          : random_file();
            break;
          case OpType::kLs:
            op.path = random_dir();
            break;
          case OpType::kMkdir:
            op.path = fresh("n");
            dirs_.push_back(op.path);
            break;
          case OpType::kDeleteFile:
            if (!files_.empty()) {
                op.path = take(files_);
            } else if (!dirs_.empty()) {
                op.path = take(dirs_);
            } else {
                return next(OpType::kCreateFile);
            }
            break;
          case OpType::kMv:
            if (files_.empty()) {
                return next(OpType::kCreateFile);
            }
            op.path = take(files_);
            op.dst = fresh("m");
            files_.push_back(op.dst);
            break;
          case OpType::kCreateFile:
          default:
            op.type = OpType::kCreateFile;
            op.path = fresh("w");
            files_.push_back(op.path);
            break;
        }
        if (!is_read_op(op.type)) {
            last_parent_ = path::parent(op.path);
        }
        return op;
    }

  private:
    const std::string&
    random_file()
    {
        return base_.files[rng_.index(base_.files.size())];
    }

    const std::string&
    random_dir()
    {
        return base_.dirs[rng_.index(base_.dirs.size())];
    }

    std::string
    fresh(const char* prefix)
    {
        return path::join(random_dir(), prefix + std::to_string(client_) +
                                             "_" + std::to_string(next_++));
    }

    std::string
    take(std::vector<std::string>& pool)
    {
        size_t i = rng_.index(pool.size());
        std::string p = std::move(pool[i]);
        pool[i] = std::move(pool.back());
        pool.pop_back();
        return p;
    }

    size_t client_;
    const ns::BuiltTree& base_;
    sim::Rng rng_;
    bool stat_recent_parent_;
    uint64_t next_ = 0;
    std::vector<std::string> files_;
    std::vector<std::string> dirs_;
    std::string last_parent_;
};

uint64_t
hash_bytes(uint64_t h, const void* data, size_t n)
{
    return fnv1a_mix(h, std::string_view(static_cast<const char*>(data), n));
}

uint64_t
hash_plan(const WorkloadPlan& plan)
{
    uint64_t h = fnv1a(plan.name);
    for (const std::string& p : plan.warm_paths) {
        h = fnv1a_mix(h, p);
    }
    for (size_t c = 0; c < plan.window.size(); ++c) {
        h = hash_bytes(h, &c, sizeof(c));
        for (const PlannedOp& op : plan.window[c]) {
            auto type = static_cast<uint8_t>(op.type);
            h = hash_bytes(h, &type, sizeof(type));
            h = hash_bytes(h, &op.due, sizeof(op.due));
            h = fnv1a_mix(fnv1a_mix(h, op.path), "\n");
            h = fnv1a_mix(fnv1a_mix(h, op.dst), "\n");
        }
    }
    return h;
}

/** Closed loop: each client gets @p ops_per_client ops from @p mix. */
void
plan_closed_loop(WorkloadPlan& plan, const ns::BuiltTree& base,
                 const workload::OpMix& mix, int ops_per_client,
                 bool stat_recent_parent)
{
    sim::Rng master(plan.seed);
    size_t clients = static_cast<size_t>(plan.config.num_client_vms *
                                         plan.config.clients_per_vm);
    plan.window.resize(clients);
    for (size_t c = 0; c < clients; ++c) {
        sim::Rng rng = master.fork();
        ClientStream stream(c, base, rng.fork(), stat_recent_parent);
        for (int i = 0; i < ops_per_client; ++i) {
            plan.window[c].push_back(stream.next(mix.sample(rng)));
        }
    }
}

/**
 * Open loop, Spotify style (§5.2.1): 15-s epochs at base x a Pareto(2)
 * multiplier capped at 7, the third epoch forced to the cap. The other
 * multipliers are the Pareto quantiles at the strata midpoints (i+½)/n,
 * in ascending order: every seed offers the same load profile, and the
 * seed moves only the ops themselves. (Drawing the multipliers at random,
 * as the harness does, moves p50 by a third between seeds.) Within a
 * second the ops are due at even spacing; op k goes to client k mod n, so
 * each client is one independent user issuing on a schedule.
 */
void
plan_open_loop(WorkloadPlan& plan, const ns::BuiltTree& base,
               double base_rate, int epochs, sim::SimTime epoch)
{
    constexpr double kAlpha = 2.0;
    constexpr double kCap = 7.0;
    constexpr int kPeakEpoch = 2;
    sim::Rng master(plan.seed);
    std::vector<double> multipliers;
    for (int i = 0; i < epochs - 1; ++i) {
        double u = (i + 0.5) / (epochs - 1);
        multipliers.push_back(
            std::min(kCap, std::pow(1.0 - u, -1.0 / kAlpha)));
    }
    multipliers.insert(multipliers.begin() + std::min(kPeakEpoch, epochs - 1),
                       kCap);

    size_t clients = static_cast<size_t>(plan.config.num_client_vms *
                                         plan.config.clients_per_vm);
    plan.window.resize(clients);
    std::vector<ClientStream> streams;
    for (size_t c = 0; c < clients; ++c) {
        streams.emplace_back(c, base, master.fork(), false);
    }
    const workload::OpMix mix = workload::OpMix::spotify();
    sim::Rng type_rng = master.fork();
    double carry = 0.0;
    uint64_t k = 0;
    for (sim::SimTime second = 0; second < epoch * epochs;
         second += sim::sec(1)) {
        double rate = base_rate * multipliers[static_cast<size_t>(
                                      second / epoch)];
        carry += rate;
        auto n = static_cast<int64_t>(carry);
        carry -= static_cast<double>(n);
        for (int64_t j = 0; j < n; ++j, ++k) {
            size_t c = k % clients;
            PlannedOp op = streams[c].next(mix.sample(type_rng));
            op.due = second + sim::sec(1) * j / n;
            plan.window[c].push_back(std::move(op));
        }
    }
}

}  // namespace

size_t
WorkloadPlan::op_count() const
{
    size_t n = 0;
    for (const auto& ops : window) {
        n += ops.size();
    }
    return n;
}

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names = {
        "read-hot", "write-churn", "spotify-small-cache"};
    return names;
}

bool
make_plan(const std::string& name, uint64_t seed, double size,
          WorkloadPlan* out)
{
    WorkloadPlan plan;
    plan.name = name;
    plan.seed = seed;
    size_t metadata_bytes = 0;
    ns::BuiltTree base;
    auto build_base = [&](const ns::TreeSpec& spec) {
        plan.tree = spec;
        ns::NamespaceTree scratch;
        base = ns::build_balanced_tree(scratch, spec, ns::UserContext{}, 0);
        metadata_bytes = scratch.total_metadata_bytes();
    };
    auto scaled = [size](int n) {
        return std::max(1, static_cast<int>(std::lround(n * size)));
    };
    if (name == "read-hot") {
        // Fig 11's clients and vCPU pool with two NameNode instances per
        // deployment, each of which keeps its own cache. With the default
        // scale-out (~5 instances per deployment) a path hits only where
        // it was served before: the hit rate stalls near 0.9 and the
        // store saturates on the misses. With one instance, the closed
        // loop saturates the NameNode CPUs. Either way p99 swings by
        // ±20% between seeds. With two instances and six warm-up passes,
        // about 99% of reads hit and p99 moves by under 1%.
        plan.config = lambda_config(512.0, 512, 1.0);
        plan.max_instances_per_deployment = 2;
        plan.warm_passes = 6;
        build_base(bench_tree());
        const workload::OpMix mix({{OpType::kReadFile, 69.22},
                                   {OpType::kStat, 17.0},
                                   {OpType::kLs, 9.01}});
        plan_closed_loop(plan, base, mix, scaled(400), false);
    } else if (name == "write-churn") {
        // Table 2's write side, create : mv : delete : mkdir = 2.7 : 1.3 :
        // 0.75 : 0.02 (as in OpMix::spotify()), plus stats at 10% of ops
        // (0.53 of 5.3) on the directory the client last changed.
        plan.config = lambda_config(512.0, 128, 1.0);
        build_base(bench_tree());
        const workload::OpMix mix({{OpType::kCreateFile, 2.7},
                                   {OpType::kMv, 1.3},
                                   {OpType::kDeleteFile, 0.75},
                                   {OpType::kMkdir, 0.02},
                                   {OpType::kStat, 0.53}});
        plan_closed_loop(plan, base, mix, scaled(400), true);
    } else if (name == "spotify-small-cache") {
        // The harness's default 0.125 scale: base 3,125 ops/s, 64 vCPUs,
        // 128 clients; each deployment caches 0.4x its working-set share
        // (§5.2.3's reduced-cache λFS).
        plan.open_loop = true;
        plan.config = lambda_config(64.0, 128, 0.125);
        build_base(industrial_tree());
        plan.config.name_node.cache_bytes = static_cast<size_t>(
            static_cast<double>(metadata_bytes) /
            plan.config.num_deployments * 0.4);
        plan_open_loop(plan, base, 3125.0, 4,
                       std::max(sim::sec(1),
                                static_cast<sim::SimTime>(
                                    static_cast<double>(sim::sec(15)) *
                                    size)));
    } else {
        return false;
    }
    plan.warm_paths = base.dirs;
    plan.warm_paths.insert(plan.warm_paths.end(), base.files.begin(),
                           base.files.end());
    plan.hash = hash_plan(plan);
    *out = std::move(plan);
    return true;
}

}  // namespace perfbench
