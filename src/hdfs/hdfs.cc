#include "src/hdfs/hdfs.h"

#include <cmath>

#include "src/namespace/apply.h"
#include "src/store/lock_table.h"

namespace lfs::hdfs {

namespace {

/** Sentinel row id representing the global FSNamesystem lock. */
constexpr ns::INodeId kGlobalLock = 1;

}  // namespace

Hdfs::Hdfs(sim::Simulation& sim, HdfsConfig config)
    : sim_(sim),
      config_(config),
      rng_(config.seed),
      network_(sim, rng_.fork(), config.network),
      metrics_(sim.metrics(), config.label)
{
    cpu_ = std::make_unique<sim::Semaphore>(
        sim_, std::max<int64_t>(1, std::llround(config_.vcpus)));
    // The namespace lock is shared/exclusive; we reuse the store's
    // FIFO-fair lock table with a single sentinel row.
    lock_table_ = std::make_unique<store::LockTable>(sim_);
    journal_ =
        std::make_unique<sim::Semaphore>(sim_, config_.journal_concurrency);
    int total_clients = config_.num_client_vms * config_.clients_per_vm;
    for (int i = 0; i < total_clients; ++i) {
        clients_.push_back(
            std::make_unique<HdfsClient>(*this, i, rng_.fork()));
    }
}

Hdfs::~Hdfs() = default;

sim::Task<OpResult>
Hdfs::name_node_serve(Op op)
{
    const bool attr = sim_.attribution();
    const bool read = is_read_op(op.type);
    sim::SimTime cpu_start = sim_.now();
    co_await cpu_->acquire();
    co_await sim::delay(sim_, read ? config_.read_cpu : config_.write_cpu);
    cpu_->release();
    // Reads take a short shared hold of the global namespace lock;
    // mutations hold it exclusively across the edit.
    sim::SimTime lock_start = sim_.now();
    if (read) {
        co_await lock_table_->lock_shared(kGlobalLock);
    } else {
        co_await lock_table_->lock_exclusive(kGlobalLock);
    }
    sim::SimTime lock_acquired = sim_.now();
    co_await sim::delay(sim_, read ? config_.read_lock_hold
                                   : config_.write_lock_hold);
    if (read) {
        lock_table_->unlock_shared(kGlobalLock);
    }
    sim::SimTime lock_end = sim_.now();
    OpResult result = ns::apply(tree_, op, lock_end);
    if (!read) {
        lock_table_->unlock_exclusive(kGlobalLock);
    }
    if (attr) {
        result.ledger.add(sim::LatSeg::kNameNodeCpu,
                          (lock_start - cpu_start) +
                              (lock_end - lock_acquired));
        result.ledger.add(sim::LatSeg::kStoreLockWait,
                          lock_acquired - lock_start);
    }
    if (result.status.ok() && !read) {
        // Edit-log append to the JournalNode quorum (and the Standby).
        sim::SimTime journal_start = sim_.now();
        co_await journal_->acquire();
        sim::SimTime net_start = sim_.now();
        co_await network_.round_trip(net::LatencyClass::kTcp);
        sim::SimTime net_end = sim_.now();
        co_await sim::delay(sim_, config_.journal_service);
        journal_->release();
        ++journal_entries_;
        if (attr) {
            result.ledger.add(sim::LatSeg::kStoreQueue,
                              net_start - journal_start);
            result.ledger.add(sim::LatSeg::kNetStore, net_end - net_start);
            result.ledger.add(sim::LatSeg::kStoreService,
                              sim_.now() - net_end);
        }
    }
    co_return result;
}

HdfsClient::HdfsClient(Hdfs& fs, int id, sim::Rng rng)
    : fs_(fs), id_(id), rng_(rng)
{
}

sim::Task<OpResult>
HdfsClient::execute(Op op)
{
    (void)id_;
    (void)rng_;
    sim::Simulation& sim = fs_.network().simulation();
    sim::SimTime t0 = sim.now();
    co_await fs_.network().transfer(net::LatencyClass::kTcp);
    sim::SimTime t1 = sim.now();
    OpResult result = co_await fs_.name_node_serve(std::move(op));
    sim::SimTime t2 = sim.now();
    co_await fs_.network().transfer(net::LatencyClass::kTcp);
    if (sim.attribution()) {
        result.ledger.add(sim::LatSeg::kNetClient,
                          (t1 - t0) + (sim.now() - t2));
    }
    co_return result;
}

double
Hdfs::cost_so_far() const
{
    // Active + Standby NameNodes are provisioned around the clock.
    return cost::vm_cost(config_.vcpus * 2.0, sim_.now());
}

}  // namespace lfs::hdfs
