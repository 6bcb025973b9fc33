#include "src/workload/dfs_interface.h"

namespace lfs::workload {

bool
counts_as_completed(const Status& status)
{
    switch (status.code()) {
      case Code::kOk:
      case Code::kNotFound:
      case Code::kAlreadyExists:
      case Code::kFailedPrecondition:
      case Code::kPermissionDenied:
      case Code::kInvalidArgument:
        return true;
      default:
        return false;
    }
}

void
record_op(sim::Simulation& sim, Dfs& dfs, OpType type,
          const std::string& path, OpResult& result, sim::SimTime latency,
          bool ok)
{
    if (!sim.attribution()) {
        return;
    }
    result.ledger.finalize(latency);
    dfs.metrics().record_attribution(result.ledger, latency);
    sim.flight_recorder().observe(sim.now(), op_name(type), path,
                                  dfs.metrics().system_label(), latency, ok,
                                  result.trace_id, result.ledger,
                                  &sim.tracer());
}

}  // namespace lfs::workload
