// Per-connection path manager: validation state machine + estimators.
//
// Owned by each connection endpoint (sender and receiver role alike).
// The connection forwards three kinds of evidence:
//
//   on_datagram()   every inbound packet's source address + size —
//                   feeds per-path receive accounting and turns an
//                   unknown source on an established connection into a
//                   migration candidate (passive rebind detection)
//   on_challenge()/ the path validation probes themselves
//   on_response()
//   on_data_sent()/ the sender's per-packet fate, so acked/lost bytes
//   on_feedback()   are attributed to the path each packet travelled
//
// and the manager calls back through `on_path_changed` when the active
// path switches, so the connection can re-point its transmit address,
// emit the API event and bump metrics. All probe traffic (challenges,
// responses) is sent by the manager itself through the connection's
// environment.
//
// Determinism contract: with cfg.enabled == false every method is an
// inert early-return and the manager draws no randomness — frozen
// scenario trace hashes cannot be perturbed. Enabled, all randomness
// comes from the substrate's seeded RNG stream.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/environment.hpp"
#include "packet/segment.hpp"
#include "path/path.hpp"
#include "trace/tracer.hpp"

namespace vtp::path {

class manager {
public:
    /// cause values handed to on_path_changed / trace path_changed aux.
    static constexpr std::uint8_t cause_migrate = 0;    ///< explicit migrate()
    static constexpr std::uint8_t cause_rebind = 1;     ///< passive peer rebind
    static constexpr std::uint8_t cause_path_added = 2; ///< add_path() validated

    manager() = default;

    void configure(const manager_config& cfg, std::uint32_t flow_id) {
        cfg_ = cfg;
        flow_id_ = flow_id;
    }
    bool enabled() const { return cfg_.enabled; }
    const manager_config& config() const { return cfg_; }

    /// Install the initial peer address as the validated active path.
    /// Call once the environment is known (agent start / first packet).
    void start(qtp::environment& env, std::uint32_t initial_peer);
    /// Cancel the validation timer (connection close/destruction).
    void stop();
    /// The validation timer is scheduled.
    bool timer_armed() const { return timer_ != qtp::no_timer; }

    void set_tracer(trace::tracer* t) { tracer_ = t; }
    /// (old_remote, new_remote, cause) — fired on active-path switches
    /// only, after the manager's own state is consistent.
    void set_on_path_changed(std::function<void(std::uint32_t, std::uint32_t, std::uint8_t)> cb) {
        on_path_changed_ = std::move(cb);
    }

    /// Destination for control traffic (and data, single-path mode).
    std::uint32_t active_remote() const { return active_remote_; }

    // -- inbound evidence ------------------------------------------------

    /// Every inbound packet. `established` gates candidate creation: a
    /// source change before the handshake completes is never a
    /// migration (pre-established traffic is the accept guard's job).
    void on_datagram(std::uint32_t src, std::uint32_t size_bytes, bool established);

    /// A path_challenge arrived (from `src`). Answers with a response
    /// (budget permitting) and, on an established connection, treats an
    /// unknown source as a migration candidate to validate ourselves.
    void on_challenge(const packet::path_challenge_segment& c, std::uint32_t src,
                      bool established);

    /// A path_response arrived. Token must match a pending challenge;
    /// matching is by token, not source, because NATs may rewrite the
    /// return path. A mutated or replayed token is counted and ignored.
    void on_response(const packet::path_response_segment& r, std::uint32_t src);

    // -- local intent ----------------------------------------------------

    /// Probe an additional remote address (multipath). No active switch
    /// on validation; the scheduler starts steering to it.
    void add_path(std::uint32_t remote);

    /// Validate `remote` and switch the active path to it once proven.
    /// `remote == active_remote()` re-probes the current path (the
    /// client-after-rebind case: prove the new 4-tuple end to end).
    void migrate(std::uint32_t remote);

    // -- sender accounting ----------------------------------------------

    /// A data packet of `bytes` was steered to `remote`.
    void on_data_sent(std::uint64_t seq, std::uint32_t remote, std::uint32_t bytes);

    /// Feedback digested: per-packet fates attributed back to the path
    /// each sequence travelled. `rtt_sample` (0 = none) updates the
    /// srtt of the acked packets' path.
    void on_acked(std::uint64_t seq, util::sim_time rtt_sample);
    void on_lost(std::uint64_t seq);

    // -- introspection ---------------------------------------------------

    const manager_stats& stats() const { return stats_; }
    std::vector<path_info> paths() const;
    /// Validated paths only, active first (scheduler input).
    std::size_t validated_count() const;

    // One tracked path. Public so path::scheduler can steer without a
    // copy per pick; treat as read-only outside path/.
    struct entry {
        std::uint32_t remote = 0;
        path_state state = path_state::candidate;
        bool locally_initiated = false;
        std::uint64_t token = 0; ///< pending challenge token (validating)
        util::sim_time challenge_sent_at = 0;
        util::sim_time deadline = 0; ///< current attempt expires then
        std::uint32_t attempts = 0;
        util::sim_time srtt = 0;
        std::uint64_t bytes_sent = 0;
        std::uint64_t bytes_received = 0;
        std::uint64_t packets_sent = 0;
        std::uint64_t packets_acked = 0;
        std::uint64_t packets_lost = 0;
        double loss_ewma = 0.0;
        // Windowed delivery-rate estimator (acked bytes / window).
        util::sim_time window_start = 0;
        std::uint64_t window_bytes = 0;
        double delivery_rate_bps = 0.0;
        // Scheduler token bucket (bytes); refilled in scheduler::pick.
        double budget_bytes = 0.0;
        util::sim_time budget_refill_at = 0;
    };
    const std::deque<entry>& table() const { return paths_; }
    std::deque<entry>& table() { return paths_; }

private:
    entry* find(std::uint32_t remote);
    entry* find_by_token(std::uint64_t token);
    /// Send (or re-send) the challenge for `e`, arming the timer.
    void probe(entry& e);
    /// True when `bytes` more toward `e` fits the amplification budget
    /// (always true for validated or locally initiated paths).
    bool budget_allows(const entry& e, std::uint32_t bytes) const;
    void switch_active(entry& e, std::uint8_t cause);
    void on_validation_timer();
    void arm_timer();
    std::uint64_t fresh_token();
    void send_segment(std::uint32_t dst, packet::segment seg);
    void trace(trace::record_type type, std::uint8_t aux, std::uint64_t a, std::uint64_t b);

    manager_config cfg_{};
    std::uint32_t flow_id_ = 0;
    qtp::environment* env_ = nullptr;
    trace::tracer* tracer_ = nullptr;
    std::function<void(std::uint32_t, std::uint32_t, std::uint8_t)> on_path_changed_;

    std::deque<entry> paths_;
    std::uint32_t active_remote_ = 0;
    /// Non-zero while an explicit migrate() awaits validation of this
    /// remote; distinguishes migrate from add_path at validation time.
    std::uint32_t migrate_pending_ = 0;
    bool started_ = false;
    qtp::timer_id timer_ = qtp::no_timer;
    manager_stats stats_{};

    // seq -> path attribution for in-flight data. Sequences are
    // monotone (retransmissions get fresh sequence numbers), so a deque
    // + binary search is enough; entries are tombstoned on ack/loss and
    // trimmed from the front. Bounded as a backstop.
    struct sent_entry {
        std::uint64_t seq;
        std::uint32_t remote;
        std::uint32_t bytes;
    };
    static constexpr std::size_t max_sent_entries = 1u << 16;
    std::deque<sent_entry> sent_;
    sent_entry* find_sent(std::uint64_t seq);
    void settle_sent(std::uint64_t seq, bool acked, util::sim_time rtt_sample);
};

} // namespace vtp::path
