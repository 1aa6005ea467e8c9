// Connection-establishment and renegotiation state machines.
//
// QTP negotiates the profile in a two-segment exchange: the initiator's
// SYN carries the proposed profile, the responder's SYN-ACK the accepted
// (possibly downgraded) one. Mid-connection, either endpoint may propose
// a profile change through the same downgrade rules: a `reneg` segment
// carries the proposal (tagged with a token so retransmissions and stale
// acks are idempotent), the peer answers `reneg_ack` with the accepted
// profile and the data sequence number from which it applies. All four
// machines are pure state — the owning agents do the actual packet I/O
// and retransmission timing — so the logic is unit-testable without a
// network.
#pragma once

#include <optional>

#include "core/environment.hpp"
#include "core/profile.hpp"
#include "packet/segment.hpp"

namespace vtp::qtp {

class handshake_initiator {
public:
    explicit handshake_initiator(profile proposal) : proposal_(proposal) {}

    /// The SYN to (re)send while waiting for the SYN-ACK.
    packet::handshake_segment make_syn() const;

    /// Feed an incoming handshake segment. Returns the accepted profile
    /// when the SYN-ACK arrives (idempotent on duplicates).
    std::optional<profile> on_segment(const packet::handshake_segment& seg);

    bool established() const { return established_; }
    const profile& proposal() const { return proposal_; }
    const profile& accepted() const { return accepted_; }

private:
    profile proposal_;
    profile accepted_{};
    bool established_ = false;
};

class handshake_responder {
public:
    explicit handshake_responder(capabilities caps) : caps_(caps) {}

    struct response {
        packet::handshake_segment syn_ack;
        profile accepted;
    };

    /// Feed an incoming handshake segment. A SYN (including a duplicate)
    /// yields the SYN-ACK to send back.
    std::optional<response> on_segment(const packet::handshake_segment& seg);

    bool established() const { return established_; }
    const profile& accepted() const { return accepted_; }

private:
    capabilities caps_;
    profile accepted_{};
    bool established_ = false;
};

/// Proposing side of a mid-connection renegotiation. One exchange may be
/// outstanding at a time; a new propose() supersedes an unacknowledged
/// one (its stale ack no longer matches the token).
class reneg_initiator {
public:
    /// Start proposing `p`; returns the reneg segment to send.
    packet::handshake_segment propose(const profile& p);

    /// The outstanding proposal, for retransmission. Valid while pending().
    const packet::handshake_segment& current() const { return current_; }

    /// Feed an incoming segment. Returns the accepted profile when a
    /// reneg_ack matches the latest token — exactly once. This includes
    /// an ack arriving *after* abandon(): the responder has already
    /// applied the accepted profile by the time it acks, so consuming the
    /// late answer is what keeps the two endpoints convergent.
    std::optional<profile> on_segment(const packet::handshake_segment& seg);

    /// Stop waiting for the ack (retry budget exhausted, or yielding to a
    /// crossed proposal from the peer). A late matching ack still applies.
    void abandon() {
        if (state_ == state::pending) state_ = state::abandoned;
    }

    bool pending() const { return state_ == state::pending; }
    const profile& proposal() const { return proposal_; }

private:
    enum class state { idle, pending, abandoned };

    packet::handshake_segment current_{};
    profile proposal_{};
    std::uint32_t next_token_ = 0;
    state state_ = state::idle;
};

/// Responding side of a mid-connection renegotiation: applies the same
/// capability downgrade as the SYN/SYN-ACK handshake.
class reneg_responder {
public:
    explicit reneg_responder(capabilities caps) : caps_(caps) {}

    struct response {
        packet::handshake_segment ack;
        profile accepted;
        /// False for a duplicate proposal (ack must be re-sent but the
        /// profile must not be re-applied).
        bool is_new = false;
    };

    /// Feed an incoming segment. A reneg proposal yields the ack to send
    /// back; `boundary_seq` is the first data sequence number the caller
    /// will handle under the accepted profile (stamped into the ack).
    std::optional<response> on_segment(const packet::handshake_segment& seg,
                                       std::uint64_t boundary_seq);

    const capabilities& caps() const { return caps_; }

private:
    capabilities caps_;
    packet::handshake_segment last_ack_{};
    profile last_accepted_{};
    std::uint32_t last_token_ = 0;
    bool any_ = false;
};

/// Initiator-side renegotiation I/O driver, shared by connection_sender
/// and connection_receiver: proposal retransmission with a bounded retry
/// budget, ack matching, and the yield rule for crossed proposals.
class reneg_driver {
public:
    /// Propose `p` to the peer on `flow_id`, retransmitting every `rtx`
    /// up to 10 times. Supersedes any proposal still outstanding.
    void start(environment& env, std::uint32_t flow_id, std::uint32_t peer_addr,
               util::sim_time rtx, const char* tag, const profile& p);

    /// Feed a reneg_ack. A matching ack applies exactly once — including
    /// after yield()/retry exhaustion (see reneg_initiator::on_segment).
    std::optional<profile> on_ack(environment& env, const packet::handshake_segment& seg);

    /// Crossed-proposal tie-break: stop pushing our proposal (the peer's
    /// wins) but keep accepting a late ack for it.
    void yield(environment& env);

    /// Drop all renegotiation I/O (connection teardown).
    void cancel(environment& env);

    bool pending() const { return init_.pending(); }
    /// A proposal retransmission is scheduled.
    bool timer_armed() const { return timer_ != no_timer; }

    /// Local proposals started (counts each start(), not retransmissions).
    std::uint64_t proposals_sent() const { return proposals_sent_; }
    /// Local proposals answered by a matching ack (including late acks
    /// after yield / retry exhaustion).
    std::uint64_t proposals_accepted() const { return proposals_accepted_; }

private:
    void send_step(environment& env);
    void cancel_timer(environment& env);

    reneg_initiator init_;
    std::uint64_t proposals_sent_ = 0;
    std::uint64_t proposals_accepted_ = 0;
    std::uint32_t flow_id_ = 0;
    std::uint32_t peer_addr_ = 0;
    util::sim_time rtx_ = 0;
    const char* tag_ = "reneg";
    timer_id timer_ = no_timer;
    int attempts_ = 0;
};

} // namespace vtp::qtp
