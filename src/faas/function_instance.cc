#include "src/faas/function_instance.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/sim/fault.h"

namespace lfs::faas {

FunctionInstance::FunctionInstance(
    sim::Simulation& sim, sim::Rng rng, int deployment_id, int instance_id,
    FunctionConfig config, const AppFactory& factory,
    std::function<void(FunctionInstance&)> on_dead)
    : sim_(sim),
      rng_(rng),
      deployment_id_(deployment_id),
      instance_id_(instance_id),
      config_(config),
      on_dead_(std::move(on_dead)),
      warm_gate_(sim),
      cpu_(sim, std::max<int64_t>(1, std::llround(config.vcpus))),
      created_at_(sim.now()),
      last_activity_(sim.now())
{
    app_ = factory(*this);
}

FunctionInstance::~FunctionInstance() = default;

void
FunctionInstance::start_cold()
{
    sim::SimTime cold =
        rng_.uniform_duration(config_.cold_start_min, config_.cold_start_max);
    if (cold <= 0) {
        // No cold start: a server that is up before the workload (a
        // serverful pool) takes requests at once.
        become_warm();
        return;
    }
    // shared_ptr: Span is move-only but Simulation::schedule needs a
    // copyable callable. Null when tracing is off (no allocation).
    std::shared_ptr<sim::Span> span;
    if (sim_.tracer().enabled()) {
        span = std::make_shared<sim::Span>(
            sim_.tracer().start_trace("faas", "cold_start"));
        span->annotate("deployment", static_cast<int64_t>(deployment_id_));
        span->annotate("instance", static_cast<int64_t>(instance_id_));
    }
    sim_.schedule(cold, [this, span] {
        if (span) {
            span->end();
        }
        if (state_ == State::kColdStarting) {
            become_warm();
        }
    });
}

void
FunctionInstance::become_warm()
{
    state_ = State::kWarm;
    last_activity_ = sim_.now();
    warm_gate_.set();
    schedule_idle_check();
}

void
FunctionInstance::kill()
{
    if (state_ == State::kDead) {
        return;
    }
    state_ = State::kDead;
    died_at_ = sim_.now();
    if (busy_since_ >= 0) {
        busy_accum_ += sim_.now() - busy_since_;
        busy_since_ = -1;
    }
    // Open the warm gate so invocations parked on a cold start observe the
    // death instead of hanging forever.
    warm_gate_.set();
    app_->on_shutdown();
    if (on_dead_) {
        on_dead_(*this);
    }
}

bool
FunctionInstance::http_slot_available() const
{
    return alive() && http_inflight_ < config_.concurrency_level;
}

void
FunctionInstance::begin_request()
{
    if (inflight_ == 0) {
        busy_since_ = sim_.now();
    }
    ++inflight_;
    last_activity_ = sim_.now();
}

void
FunctionInstance::end_request()
{
    assert(inflight_ > 0);
    --inflight_;
    last_activity_ = sim_.now();
    if (inflight_ == 0 && busy_since_ >= 0) {
        busy_accum_ += sim_.now() - busy_since_;
        busy_since_ = -1;
        schedule_idle_check();
    }
    if (on_request_done) {
        on_request_done();
    }
}

void
FunctionInstance::schedule_idle_check()
{
    if (config_.idle_reclaim <= 0) {
        return;  // reclamation disabled
    }
    // The previous check can only pass while last_activity_ still equals
    // its snapshot; once activity has moved past it the check is a
    // certain no-op, so drop it instead of leaving it queued for the
    // rest of idle_reclaim.
    if (last_activity_ > idle_check_snapshot_) {
        sim_.cancel(idle_check_);
    }
    sim::SimTime snapshot = last_activity_;
    idle_check_snapshot_ = snapshot;
    idle_check_ = sim_.schedule(config_.idle_reclaim, [this, snapshot] {
        if (alive() && inflight_ == 0 && last_activity_ == snapshot) {
            kill();
        }
    });
}

sim::Task<OpResult>
FunctionInstance::serve(Invocation inv, bool via_http)
{
    sim::Span exec_span = sim_.tracer().start_span(
        "faas", via_http ? "exec_http" : "exec_tcp", inv.op.trace);
    exec_span.annotate("deployment", static_cast<int64_t>(deployment_id_));
    exec_span.annotate("instance", static_cast<int64_t>(instance_id_));
    inv.op.trace = exec_span.context();
    sim::SimTime cold_wait = 0;
    if (!warm()) {
        sim::Span wait_span = sim_.tracer().start_span(
            "faas", "cold_start_wait", exec_span.context());
        sim::SimTime wait_start = sim_.now();
        co_await warm_gate_.wait();
        cold_wait = sim_.now() - wait_start;
        wait_span.end();
    }
    // Fault injection (FaultPlan): the invoker may stall before handing
    // the request to the app, and the instance may be scheduled to crash
    // mid-invocation. kill() is idempotent and instances outlive the
    // simulation run, so the deferred crash callback is always safe.
    if (alive()) {
        if (sim::FaultPlan* plan = sim_.fault_plan()) {
            sim::InvocationFault fault = plan->on_invocation(deployment_id_);
            if (fault.crash_after >= 0) {
                sim_.schedule(fault.crash_after, [this] { kill(); });
            }
            if (fault.stall > 0) {
                co_await sim::delay(sim_, fault.stall);
            }
        }
    }
    if (!alive()) {
        OpResult result;
        result.status = Status::unavailable("function instance dead");
        if (via_http) {
            --http_inflight_;
        }
        co_return result;
    }
    begin_request();
    requests_.add();
    OpResult result = co_await app_->handle(std::move(inv));
    result.ledger.add(sim::LatSeg::kColdStartWait, cold_wait);
    // Release the HTTP concurrency slot before end_request() so the
    // deployment's queue-drain hook sees this slot as free.
    if (via_http) {
        --http_inflight_;
    }
    end_request();
    if (!alive()) {
        result.status = Status::unavailable("function instance died");
    }
    co_return result;
}

sim::Task<OpResult>
FunctionInstance::serve_http(Invocation inv)
{
    assert(http_inflight_ > 0 && "serve_http requires reserve_http_slot()");
    OpResult result = co_await serve(std::move(inv), /*via_http=*/true);
    co_return result;
}

sim::Task<OpResult>
FunctionInstance::serve_tcp(Invocation inv)
{
    OpResult result = co_await serve(std::move(inv), /*via_http=*/false);
    co_return result;
}

sim::Task<void>
FunctionInstance::compute(sim::SimTime cpu_time)
{
    co_await cpu_.acquire();
    co_await sim::delay(sim_, cpu_time);
    cpu_.release();
}

sim::SimTime
FunctionInstance::busy_time() const
{
    sim::SimTime total = busy_accum_;
    if (busy_since_ >= 0) {
        total += sim_.now() - busy_since_;
    }
    return total;
}

sim::SimTime
FunctionInstance::provisioned_time() const
{
    sim::SimTime end = died_at_ >= 0 ? died_at_ : sim_.now();
    return end - created_at_;
}

}  // namespace lfs::faas
