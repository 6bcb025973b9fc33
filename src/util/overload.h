/**
 * @file
 * Overload control (DESIGN.md §9, "Overload control & graceful
 * degradation"): the one switch every shedding layer reads, and the
 * building blocks those layers share:
 *
 *  - OverloadControlConfig: the switch plus the few values a run tunes.
 *    LambdaFs hands the same struct to its clients (through LfsRuntime),
 *    its function deployments, its store and the store's shards; the
 *    values no run tunes are the named constants beside it.
 *  - RetryBudget: a token-bucket that caps client retries at a fixed
 *    fraction of fresh traffic, breaking the retry-amplification feedback
 *    loop of a metastable failure.
 *  - CircuitBreaker: a rolling-window closed -> open -> half-open state
 *    machine that lets callers fail fast against a persistently failing
 *    backend (a store shard in brownout or outage) instead of tying up
 *    concurrency slots on doomed work.
 *
 * All are driven entirely by sim time passed in by the caller — no clock
 * or RNG access — so they are deterministic and layer-agnostic (core,
 * faas and store all use them without dependency cycles).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace lfs::util {

/**
 * End-to-end overload control, off by default. Enabled, it turns on
 * every layer at once: client deadlines, retry budgets and
 * decorrelated-jitter backoff; bounded, deadline-aware gateway admission
 * queues; bounded store shard queues that fail fast during outages; and
 * per-shard circuit breakers (tuned by BreakerConfig{} defaults).
 */
struct OverloadControlConfig {
    bool enabled = false;
    /** Relative deadline stamped on every non-subtree op. */
    sim::SimTime op_deadline = sim::sec(8);
    /** CoDel-style sojourn limit in store shard queues. */
    sim::SimTime store_sojourn_limit = sim::msec(500);
};

/** Store shard queue bound per transaction class. */
inline constexpr int kStoreQueueDepth = 512;
/** Gateway admission queue bound per deployment. */
inline constexpr int kGatewayQueueDepth = 256;
/** CoDel-style sojourn limit in a deployment's gateway queue. */
inline constexpr sim::SimTime kGatewaySojournLimit = sim::sec(2);
/** Retry tokens a deployment's budget earns per fresh request. */
inline constexpr double kRetryBudgetRatio = 0.1;
/** Retry token bucket capacity. */
inline constexpr double kRetryBudgetBurst = 64.0;

/**
 * Token-bucket retry budget. Every fresh (first-attempt) request accrues
 * `ratio` tokens up to a `burst` cap; every retry spends one whole token.
 * In steady state retries therefore never exceed `ratio` of fresh
 * traffic, no matter how badly the backend misbehaves.
 */
class RetryBudget {
  public:
    RetryBudget(double ratio, double burst)
        : ratio_(ratio), burst_(burst), tokens_(burst)
    {
    }

    /** Account one first-attempt request (accrues @c ratio tokens). */
    void
    on_fresh_request()
    {
        ++fresh_;
        tokens_ = std::min(burst_, tokens_ + ratio_);
    }

    /** Spend one token for a retry; false = budget exhausted, don't. */
    bool
    try_spend()
    {
        if (tokens_ >= 1.0) {
            tokens_ -= 1.0;
            ++allowed_;
            return true;
        }
        ++denied_;
        return false;
    }

    double tokens() const { return tokens_; }
    uint64_t fresh_requests() const { return fresh_; }
    uint64_t retries_allowed() const { return allowed_; }
    uint64_t retries_denied() const { return denied_; }

  private:
    double ratio_;
    double burst_;
    double tokens_;
    uint64_t fresh_ = 0;
    uint64_t allowed_ = 0;
    uint64_t denied_ = 0;
};

/** Circuit-breaker tuning (see CircuitBreaker). */
struct BreakerConfig {
    /** Rolling outcome window size (most recent calls). */
    int window = 32;
    /** Minimum outcomes in the window before the breaker may trip. */
    int min_samples = 8;
    /** Failure fraction in the window at which the breaker opens. */
    double failure_threshold = 0.5;
    /** How long an open breaker rejects before probing (half-open). */
    sim::SimTime open_duration = sim::msec(500);
    /** Trial requests admitted while half-open. */
    int half_open_probes = 2;
};

/**
 * Rolling-window circuit breaker. Closed: all calls pass, outcomes are
 * recorded; once at least `min_samples` of the last `window` outcomes are
 * failures at `failure_threshold` fraction, the breaker opens. Open:
 * calls fail fast for `open_duration`, then the breaker half-opens and
 * admits `half_open_probes` trial calls. A probe success closes the
 * breaker (window reset); a probe failure re-opens it for another
 * `open_duration`.
 */
class CircuitBreaker {
  public:
    enum class State : uint8_t { kClosed = 0, kOpen, kHalfOpen };

    explicit CircuitBreaker(BreakerConfig config);

    /** May a call proceed right now? False = fail fast (counted). */
    bool allow(sim::SimTime now);

    void record_success(sim::SimTime now);
    void record_failure(sim::SimTime now);

    State state() const { return state_; }
    uint64_t opens() const { return opens_; }
    uint64_t fast_failures() const { return fast_failures_; }

  private:
    void trip(sim::SimTime now);
    void record(bool failure, sim::SimTime now);

    BreakerConfig config_;
    State state_ = State::kClosed;
    /** Ring buffer of recent outcomes (1 = failure). */
    std::vector<uint8_t> outcomes_;
    size_t cursor_ = 0;
    size_t count_ = 0;
    size_t failures_ = 0;
    sim::SimTime opened_at_ = 0;
    int probes_issued_ = 0;
    uint64_t opens_ = 0;
    uint64_t fast_failures_ = 0;
};

}  // namespace lfs::util
