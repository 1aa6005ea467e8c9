#include "core/connection.hpp"

#include <algorithm>

#include "packet/wire.hpp"
#include "tfrc/equation.hpp"
#include "util/logging.hpp"

namespace vtp::qtp {

// ---------------------------------------------------------------------------
// connection_sender
// ---------------------------------------------------------------------------

namespace {

stream::stream_options stream0_options(const connection_config& cfg) {
    stream::stream_options opts;
    opts.follow_profile = true; // stream 0 tracks the connection profile
    opts.message_size = cfg.message_size;
    opts.message_deadline = cfg.message_deadline;
    opts.max_transmissions = cfg.max_transmissions;
    return opts;
}

// Striping interleaves paths with unequal delay, so a slow-path packet
// is routinely overtaken by more than the single-path horizon before it
// is SACKed; finalising it would retransmit data that is still in
// flight (see path::manager_config::multipath_reorder_tolerance).
sack::scoreboard_config effective_scoreboard(const connection_config& cfg) {
    sack::scoreboard_config sb = cfg.scoreboard;
    if (cfg.path.enabled && cfg.path.multipath) {
        sb.finalize_horizon = std::max<std::uint64_t>(
            sb.finalize_horizon,
            2 * static_cast<std::uint64_t>(cfg.path.multipath_reorder_tolerance));
    }
    return sb;
}

} // namespace

cc::algorithm_config connection_sender::cc_config(double floor_bps) const {
    cc::algorithm_config acfg;
    acfg.packet_size = cfg_.packet_size;
    acfg.guaranteed_rate_bps = floor_bps;
    acfg.tfrc_rate = cfg_.rate;
    return acfg;
}

connection_sender::connection_sender(connection_config cfg)
    : cfg_(cfg),
      handshake_(cfg.proposal),
      reneg_resp_(cfg.caps),
      estimator_(cfg.estimator),
      mux_(stream0_options(cfg), cfg.total_bytes, cfg.stream_open,
           effective_scoreboard(cfg), cfg.scheduler),
      events_(cfg.event_queue_capacity) {
    cfg_.rate.equation.packet_size_bytes = cfg_.packet_size;
    // Pre-handshake placeholder controller (nothing paces until
    // established); the negotiated profile rebuilds it in on_handshake.
    cc_ = cc::make_algorithm(cfg_.proposal.congestion,
                             cc_config(cfg_.rate.guaranteed_rate_bps));
    if (cfg_.trace_ring_records > 0) {
        tracer_ = std::make_unique<trace::tracer>(cfg_.flow_id, cfg_.trace_ring_records,
                                                  cfg_.trace_sink);
        mux_.set_tracer(tracer_.get());
    }
    if (cfg_.reneg_rate_bps > 0.0)
        reneg_bucket_.emplace(cfg_.reneg_rate_bps, cfg_.reneg_burst_bytes);
    path_.configure(cfg_.path, cfg_.flow_id);
    // Striping reorders across paths; see multipath_reorder_tolerance.
    if (cfg_.path.enabled && cfg_.path.multipath)
        tracker_.set_reorder_threshold(
            static_cast<std::uint64_t>(cfg_.path.multipath_reorder_tolerance));
}

void connection_sender::attach_tracer(std::size_t ring_records,
                                      trace::sink* sink) {
    mux_.set_tracer(nullptr);
    tracer_ = std::make_unique<trace::tracer>(
        cfg_.flow_id, ring_records != 0 ? ring_records : 4096, sink);
    mux_.set_tracer(tracer_.get());
    path_.set_tracer(tracer_.get());
}

void connection_sender::detach_tracer() {
    mux_.set_tracer(nullptr);
    path_.set_tracer(nullptr);
    tracer_.reset();
}

void connection_sender::start(environment& env) {
    env_ = &env;
    start_paths();
    send_syn();
}

void connection_sender::start_paths() {
    if (!path_.enabled()) return;
    path_.set_tracer(tracer_.get());
    path_.set_on_path_changed(
        [this](std::uint32_t old_remote, std::uint32_t new_remote, std::uint8_t cause) {
            // Control traffic (reneg, FIN) and single-path data follow
            // the config address; the CC controller and every stream
            // scoreboard are untouched — the transfer continues at the
            // established operating point on the new 4-tuple.
            cfg_.peer_addr = new_remote;
            util::log(util::log_level::info, "qtp-send", "path changed: ", old_remote,
                      " -> ", new_remote, " cause ", static_cast<int>(cause));
            event ev;
            ev.type = event_type::path_changed;
            ev.offset = old_remote;
            ev.bytes = new_remote;
            emit(ev);
        });
    path_.start(*env_, cfg_.peer_addr);
}

void connection_sender::migrate(std::uint32_t remote) {
    if (!path_.enabled() || env_ == nullptr || closed_) return;
    path_.migrate(remote == 0 ? cfg_.peer_addr : remote);
}

void connection_sender::add_path(std::uint32_t remote) {
    if (!path_.enabled() || env_ == nullptr || closed_ || remote == 0) return;
    path_.add_path(remote);
}

bool connection_sender::on_path_frame(const packet::packet& pkt) {
    if (!path_.enabled()) return false;
    const bool est = handshake_.established();
    if (const auto* pc = std::get_if<packet::path_challenge_segment>(pkt.body.get())) {
        path_.on_challenge(*pc, pkt.src, est);
        return true;
    }
    if (const auto* pr = std::get_if<packet::path_response_segment>(pkt.body.get())) {
        path_.on_response(*pr, pkt.src);
        return true;
    }
    path_.on_datagram(pkt.src, pkt.size_bytes, est);
    return false;
}

void connection_sender::send_syn() {
    if (handshake_.established()) return;
    packet::handshake_segment syn = handshake_.make_syn();
    // Echo the listener's address-validation cookie once we hold one;
    // the first SYN carries 0 and draws a retry from a guarded listener.
    syn.boundary_seq = retry_cookie_;
    env_->send(packet::make_packet(cfg_.flow_id, env_->local_addr(), cfg_.peer_addr, syn));
    handshake_timer_ = env_->schedule(cfg_.handshake_rtx, [this] {
        handshake_timer_ = qtp::no_timer;
        if (tracer_)
            tracer_->push(env_->now(), trace::record_type::timer_fire,
                          static_cast<std::uint8_t>(trace::timer_kind::handshake), 0,
                          0, 0);
        send_syn();
    });
}

void connection_sender::on_handshake(const packet::handshake_segment& seg) {
    if (seg.type == packet::handshake_segment::kind::retry) {
        // Stateless address validation: the listener answered our SYN
        // with a cookie instead of spawning state. Echo it immediately
        // in a fresh SYN (no need to wait for the retransmit timer).
        if (handshake_.established()) return;
        retry_cookie_ = seg.boundary_seq;
        ++syn_retries_received_;
        if (handshake_timer_ != qtp::no_timer) {
            env_->cancel(handshake_timer_);
            handshake_timer_ = qtp::no_timer;
        }
        send_syn();
        return;
    }
    const bool was_established = handshake_.established();
    const auto accepted = handshake_.on_segment(seg);
    if (!accepted || was_established) return;

    active_ = *accepted;
    mux_.set_profile_mode(active_.reliability);
    if (handshake_timer_ != qtp::no_timer) {
        env_->cancel(handshake_timer_);
        handshake_timer_ = qtp::no_timer;
    }

    // The negotiated profile decides the algorithm and rate floor (gTFRC).
    cc_ = cc::make_algorithm(
        active_.congestion,
        cc_config(active_.qos_aware ? active_.target_rate_bps : 0.0));

    util::log(util::log_level::info, "qtp-send", "established: ", active_.describe());
    if (tracer_)
        tracer_->push(env_->now(), trace::record_type::established,
                      static_cast<std::uint8_t>(active_.congestion), 0,
                      active_.encode(), 0);
    event ev;
    ev.type = event_type::established;
    ev.prof = active_;
    emit(ev);
    arm_nofeedback_timer();
    send_next();
}

bool connection_sender::emit(const event& ev) {
    switch (ev.type) {
    case event_type::established:
        if (on_established_) {
            on_established_(ev.prof);
            return true;
        }
        break;
    case event_type::profile_changed:
        if (on_profile_changed_) {
            on_profile_changed_(ev.prof);
            return true;
        }
        break;
    case event_type::closed:
        if (on_closed_) {
            on_closed_();
            return true;
        }
        break;
    default: break;
    }
    if (sink_ != nullptr) {
        std::vector<std::uint8_t> none;
        if (sink_->on_session_event(cfg_.flow_id, ev, none)) return true;
        events_.count_external_drop();
        return false;
    }
    // Callback-mode sessions never poll: discard (the legacy surface).
    if (legacy_mode_) return true;
    return events_.push(ev);
}

void connection_sender::set_event_sink(event_sink* sink) {
    sink_ = sink;
    if (sink_ == nullptr) return;
    // Events queued before the sink existed (established fires while the
    // accept path is still installing it) drain through now.
    event ev;
    std::vector<std::uint8_t> none;
    while (events_.poll(&ev, 1) == 1)
        if (!sink_->on_session_event(cfg_.flow_id, ev, none))
            events_.count_external_drop();
}

bool connection_sender::writable() const {
    return cfg_.max_buffered_bytes == 0 ||
           mux_.buffered_bytes() < cfg_.max_buffered_bytes;
}

void connection_sender::maybe_emit_writable() {
    if (!tx_blocked_ || cfg_.max_buffered_bytes == 0) return;
    const std::uint64_t buffered = mux_.buffered_bytes();
    // Low-watermark hysteresis: one writable per blocked -> half-drained
    // transition, so a fast producer is not woken per packet.
    if (buffered > cfg_.max_buffered_bytes / 2) return;
    event ev;
    ev.type = event_type::writable;
    ev.bytes = cfg_.max_buffered_bytes - buffered;
    // Re-arm the edge if the event was lost to a full queue — otherwise
    // a blocked producer would wait for a writable that never comes.
    tx_blocked_ = !emit(ev);
}

std::uint64_t connection_sender::offer(std::uint32_t stream_id, std::uint64_t n) {
    // Rejected once the stream end was announced (finish), not just once
    // the FIN went out: the receiver may already have seen an
    // end-of-stream marker for the current length.
    if (fin_sent_ || closed_) return 0;
    const std::uint64_t accepted = mux_.offer(stream_id, n, cfg_.max_buffered_bytes);
    if (accepted < n) tx_blocked_ = true; // arm the writable edge
    if (accepted > 0 && env_ != nullptr && handshake_.established() &&
        send_timer_ == qtp::no_timer)
        send_next();
    return accepted;
}

std::uint64_t connection_sender::offer_bytes(std::uint32_t stream_id,
                                             const std::uint8_t* data, std::uint64_t n) {
    if (fin_sent_ || closed_) return 0;
    const std::uint64_t accepted =
        mux_.offer_bytes(stream_id, data, n, cfg_.max_buffered_bytes);
    if (accepted < n) tx_blocked_ = true;
    if (accepted > 0 && env_ != nullptr && handshake_.established() &&
        send_timer_ == qtp::no_timer)
        send_next();
    return accepted;
}

std::uint32_t connection_sender::open_stream(const stream::stream_options& opts) {
    if (fin_sent_ || closed_) return stream::invalid_stream;
    return mux_.open_stream(opts);
}

void connection_sender::finish_stream() {
    mux_.finish_all();
    after_finish();
}

void connection_sender::finish_stream(std::uint32_t stream_id) {
    mux_.finish(stream_id);
    after_finish();
}

void connection_sender::after_finish() {
    if (env_ == nullptr || !handshake_.established()) return;
    maybe_begin_close();
    // Everything already sent: announce the stream length with a
    // zero-payload end-of-stream marker so the receiver can finalise.
    if (!fin_sent_ && send_timer_ == qtp::no_timer && work_available()) send_next();
}

void connection_sender::request_renegotiate(const profile& p) {
    if (!handshake_.established() || closed_ || env_ == nullptr) return;
    reneg_.start(*env_, cfg_.flow_id, cfg_.peer_addr, cfg_.handshake_rtx, "qtp-send", p);
    if (tracer_)
        tracer_->push(env_->now(), trace::record_type::reneg_proposed, 0, 0,
                      p.encode(), static_cast<std::uint64_t>(p.target_rate_bps));
}

void connection_sender::apply_profile(const profile& p, std::uint64_t boundary_seq) {
    // Any reliability-mode change restarts the coverage the scoreboards
    // of profile-following streams are accountable for: bytes sent under
    // the previous mode keep its semantics (untracked under none,
    // possibly abandoned under partial) and must not gate
    // full-reliability completion afterwards.
    const cc::algorithm_id prev_cc = active_.congestion;
    mux_.set_profile_mode(p.reliability);
    active_ = p;
    ++renegotiations_;
    last_reneg_boundary_ = boundary_seq;
    // Swap micro-mechanisms in place: the congestion state (rate, RTT,
    // loss history) survives the switch; only the composition changes.
    // The estimator has recorded every transmission since the start, so
    // flipping to sender-side estimation mid-flight has send times for
    // packets already in the air.
    const double floor_bps = active_.qos_aware ? active_.target_rate_bps : 0.0;
    if (active_.congestion != prev_cc) {
        // Congestion-controller swap: the successor imports the
        // incumbent's measured bandwidth/RTT so the flow resumes at its
        // operating point instead of restarting from slow-start.
        const cc::cc_state st = cc_->export_state();
        cc_ = cc::make_algorithm(active_.congestion, cc_config(floor_bps));
        cc_->import_state(st);
        ++cc_swaps_;
        // The pending send slot was paced at the old algorithm's rate.
        if (send_timer_ != qtp::no_timer) {
            env_->cancel(send_timer_);
            send_timer_ = qtp::no_timer;
            schedule_next_send();
        }
    } else {
        cc_->set_guaranteed_rate(floor_bps);
    }
    util::log(util::log_level::info, "qtp-send", "renegotiated: ", active_.describe(),
              " from seq ", boundary_seq);
    if (tracer_)
        tracer_->push(env_->now(), trace::record_type::reneg_applied,
                      static_cast<std::uint8_t>(active_.congestion), 0,
                      active_.encode(), boundary_seq);
    event ev;
    ev.type = event_type::profile_changed;
    ev.prof = active_;
    emit(ev);
    // A reliability switch changes what counts as pending work (tail
    // probes appear or disappear), so re-evaluate the pacing loop.
    if (send_timer_ == qtp::no_timer && work_available()) send_next();
}

void connection_sender::on_reneg(const packet::handshake_segment& seg) {
    if (!handshake_.established()) return;
    if (seg.type == packet::handshake_segment::kind::reneg) {
        // A peer can retransmit proposals arbitrarily fast and each one
        // costs responder work; the budget drops the excess up front.
        if (reneg_bucket_ &&
            !reneg_bucket_->consume(packet::wire_size(packet::segment{seg}),
                                    env_->now())) {
            ++reneg_rate_limited_;
            return;
        }
        // Simultaneous proposals tie-break by role: the sender's wins.
        // While our own proposal is outstanding we defer answering; the
        // receiver yields (see connection_receiver::on_reneg), so its
        // retransmissions are answered once our exchange settles.
        if (reneg_.pending()) return;
        // Peer proposes; we are the responder. The boundary is our next
        // transmission: everything from next_seq_ runs the new profile.
        const auto resp = reneg_resp_.on_segment(seg, next_seq_);
        if (!resp) return;
        if (resp->is_new) apply_profile(resp->accepted, resp->ack.boundary_seq);
        env_->send(packet::make_packet(cfg_.flow_id, env_->local_addr(), cfg_.peer_addr,
                                       resp->ack));
        return;
    }
    if (const auto accepted = reneg_.on_ack(*env_, seg)) {
        // Our own proposal came back accepted: it governs our packets
        // from the next transmission on.
        apply_profile(*accepted, next_seq_);
    }
}

stream::send_policy connection_sender::send_policy_now() const {
    stream::send_policy pol;
    // A retransmission is pointless if it cannot beat the deadline:
    // allow one-way delay (RTT/2) plus scheduling slack.
    const util::sim_time rtt =
        cc_->has_rtt() ? cc_->smoothed_rtt() : util::milliseconds(100);
    pol.partial_margin = rtt / 2 + util::milliseconds(5);
    pol.packet_size = cfg_.packet_size;
    return pol;
}

bool connection_sender::work_available() const {
    if (mux_.has_payload_work()) return true;
    // Tail phase: outstanding transmissions whose fate is unknown. We
    // keep sending zero-payload probes so the receiver's highest sequence
    // advances and the scoreboards can finalise the tail (else a loss in
    // the last `horizon` packets would stall the transfer forever).
    return mux_.probe_needed() && !closed_;
}

bool connection_sender::reapable() const {
    return closed_ && send_timer_ == qtp::no_timer && nofeedback_timer_ == qtp::no_timer &&
           handshake_timer_ == qtp::no_timer && fin_timer_ == qtp::no_timer &&
           !reneg_.timer_armed() && !path_.timer_armed();
}

void connection_sender::on_packet(const packet::packet& pkt) {
    // A closed sender is inert: late feedback must not re-arm a timer and
    // so keep it from becoming reapable().
    if (closed_) return;
    if (on_path_frame(pkt)) return;
    if (const auto* hs = std::get_if<packet::handshake_segment>(pkt.body.get())) {
        if (hs->type == packet::handshake_segment::kind::fin_ack) {
            if (fin_sent_) {
                closed_ = true;
                if (fin_timer_ != qtp::no_timer) env_->cancel(fin_timer_);
                fin_timer_ = qtp::no_timer;
                if (nofeedback_timer_ != qtp::no_timer) env_->cancel(nofeedback_timer_);
                nofeedback_timer_ = qtp::no_timer;
                reneg_.cancel(*env_);
                path_.stop();
                util::log(util::log_level::info, "qtp-send", "closed");
                if (tracer_) {
                    tracer_->push(env_->now(), trace::record_type::closed, 0, 0, 0, 0);
                    tracer_->flush();
                }
                event ev;
                ev.type = event_type::closed;
                emit(ev);
            }
            return;
        }
        if (hs->type == packet::handshake_segment::kind::reneg ||
            hs->type == packet::handshake_segment::kind::reneg_ack) {
            on_reneg(*hs);
            return;
        }
        on_handshake(*hs);
        return;
    }
    if (const auto* fb = std::get_if<packet::sack_feedback_segment>(pkt.body.get())) {
        if (handshake_.established()) {
            on_sack_feedback(*fb);
            maybe_begin_close();
        }
        return;
    }
}

void connection_sender::maybe_begin_close() {
    if (fin_sent_ || !handshake_.established()) return;
    // Every stream finished and complete under its own reliability mode
    // (an unlimited synthetic source never closes, as before).
    if (!mux_.all_done()) return;
    fin_sent_ = true;
    send_fin();
}

void connection_sender::send_fin() {
    fin_timer_ = qtp::no_timer;
    if (closed_ || fin_attempts_ >= 10) return;
    ++fin_attempts_;
    if (tracer_ && fin_attempts_ > 1)
        tracer_->push(env_->now(), trace::record_type::timer_fire,
                      static_cast<std::uint8_t>(trace::timer_kind::fin), 0,
                      static_cast<std::uint64_t>(fin_attempts_), 0);
    packet::handshake_segment fin;
    fin.type = packet::handshake_segment::kind::fin;
    env_->send(packet::make_packet(cfg_.flow_id, env_->local_addr(), cfg_.peer_addr, fin));
    const util::sim_time retry =
        std::max<util::sim_time>(cc_->has_rtt() ? 2 * cc_->smoothed_rtt() : 0,
                                 util::milliseconds(200));
    fin_timer_ = env_->schedule(retry, [this] { send_fin(); });
}

void connection_sender::on_sack_feedback(const packet::sack_feedback_segment& fb) {
    const util::sim_time now = env_->now();
    const util::sim_time sample =
        std::max<util::sim_time>(now - fb.ts_echo - fb.t_delay, util::microseconds(1));

    // Loss estimation: locally (QTPlight) or trusted from the receiver.
    double p = 0.0;
    if (active_.estimation == tfrc::estimation_mode::sender_side) {
        const util::sim_time rtt_for_grouping =
            cc_->has_rtt() ? cc_->smoothed_rtt() : sample;
        const bool new_event = estimator_.on_feedback(fb, now, rtt_for_grouping);
        if (new_event && estimator_.history().loss_events() == 1 &&
            estimator_.history().intervals().empty()) {
            const double p_init = tfrc::loss_rate_for_throughput(
                cfg_.rate.equation,
                util::to_seconds(std::max<util::sim_time>(rtt_for_grouping, 1)), fb.x_recv);
            estimator_.history().seed_first_interval(p_init);
        }
        p = estimator_.loss_event_rate();
    } else {
        p = fb.has_p ? fb.p : 0.0;
    }

    // The ack tracker digests the SACK into newly-acked/lost vectors for
    // the congestion controller (pure bookkeeping: no timers, no sends).
    cc::ack_tracker::feedback_delta delta = tracker_.on_feedback(fb);
    cc::congestion_event cev;
    cev.now = now;
    cev.rtt_sample = sample;
    cev.x_recv_bytes = fb.x_recv;
    cev.loss_event_rate = p;
    cev.prior_bytes_in_flight = delta.prior_bytes_in_flight;
    cev.acked = std::move(delta.acked);
    cev.lost = std::move(delta.lost);
    cc_->on_congestion_event(cev);
    if (path_.enabled()) {
        // Attribute each packet's fate to the path it travelled so the
        // per-path RTT/loss/rate estimators stay honest under steering.
        for (const cc::packet_sample& s : cev.acked) path_.on_acked(s.seq, sample);
        for (const cc::packet_sample& s : cev.lost) path_.on_lost(s.seq);
    }
    if (tracer_) {
        tracer_->push(now, trace::record_type::ack_rx, 0, 0,
                      static_cast<std::uint64_t>(sample),
                      static_cast<std::uint64_t>(fb.x_recv));
        if (!cev.lost.empty())
            tracer_->push(now, trace::record_type::loss_event, 0, 0,
                          cev.lost.size(), static_cast<std::uint64_t>(p * 1e9));
        tracer_->push(now, trace::record_type::cc_sample,
                      static_cast<std::uint8_t>(cc_->id()), 0,
                      static_cast<std::uint64_t>(cc_->pacing_rate()),
                      static_cast<std::uint64_t>(cc_->bandwidth_estimate_bps()));
        if (const std::uint64_t cwnd = cc_->cwnd_bytes(); cwnd > 0)
            tracer_->push(now, trace::record_type::cc_window,
                          cc_->in_slow_start() ? 1 : 0, 0, cwnd,
                          cev.prior_bytes_in_flight);
    }
    arm_nofeedback_timer();

    // Reliability: every stream's scoreboard sees the connection-wide
    // SACK; newly finalised losses queue on their own stream under that
    // stream's policy.
    mux_.on_sack(fb, send_policy_now());
    maybe_emit_writable();

    // Re-pace: the pending send slot was computed at the old rate.
    if (send_timer_ != qtp::no_timer) {
        env_->cancel(send_timer_);
        send_timer_ = qtp::no_timer;
        schedule_next_send();
    } else if (work_available()) {
        send_next();
    }
}

void connection_sender::send_next() {
    send_timer_ = qtp::no_timer;
    if (!handshake_.established()) return;
    // Batching substrates (engine shards) let a slot carry several
    // segments back-to-back — one timer wake-up, one sendmmsg flush — and
    // the next sleep stretches by the burst so the paced rate holds.
    // Probes and eos markers never burst (one per slot is plenty).
    const std::uint32_t burst = std::max<std::uint32_t>(1, env_->send_burst());
    std::uint32_t sent = 0;
    while (sent < burst) {
        // Window gate (NewReno/Westwood); TFRC is rate-paced and always
        // passes. A window-blocked sender resumes on the next feedback.
        if (!cc_->can_send(tracker_.bytes_in_flight())) break;
        const int kind = send_one();
        if (kind == 0) break;
        ++sent;
        if (kind == 2) break;
    }
    if (sent > 0) {
        schedule_next_send(sent);
        maybe_emit_writable(); // transmissions drained the offer backlog
    }
    if (!work_available()) maybe_begin_close(); // unreliable finite stream
}

int connection_sender::send_one() {
    const util::sim_time now = env_->now();

    // The mux fills the slot: scheduler picks the stream, the stream cuts
    // a retransmission, new bytes, or a pending end-of-stream marker.
    std::optional<stream::payload_pick> pick =
        mux_.next_payload(now, send_policy_now(), next_seq_);

    bool is_probe = false;
    if (!pick && mux_.probe_needed() && !closed_) {
        // Zero-payload tail probe (new sequence number, no stream bytes)
        // so the receiver's highest sequence keeps advancing and the
        // scoreboards can finalise their tails.
        const stream::outbound_stream& s0 = mux_.stream0();
        stream::payload_pick probe;
        probe.stream_id = 0;
        probe.byte_offset = s0.next_offset();
        probe.payload_len = 0;
        probe.end_of_stream =
            !s0.open() && !s0.unlimited() && !s0.has_new_data();
        pick = probe;
        is_probe = true;
    }
    if (!pick) return 0; // nothing to do: pacing resumes on next feedback
    if (pick->payload_len == 0) is_probe = true; // eos markers count as probes

    const std::uint64_t seq = next_seq_++;
    const util::sim_time rtt_estimate = cc_->has_rtt() ? cc_->smoothed_rtt() : 0;

    // Real application bytes ride in the segment; length-only streams
    // (synthetic sources) skip the copy and the allocation entirely.
    std::vector<std::uint8_t> payload;
    if (pick->payload_len > 0) {
        if (const stream::outbound_stream* s = mux_.find(pick->stream_id);
            s != nullptr && s->carries_payload()) {
            payload.assign(pick->payload_len, 0);
            mux_.fetch_payload(*pick, payload.data());
        }
    }

    // Stream 0 travels as the legacy data segment (wire-compatible with
    // pre-mux endpoints); other streams use the multiplexed kind.
    packet::segment body;
    if (pick->stream_id == 0) {
        packet::data_segment seg;
        seg.seq = seq;
        seg.byte_offset = pick->byte_offset;
        seg.payload_len = pick->payload_len;
        seg.ts = now;
        seg.rtt_estimate = rtt_estimate;
        seg.message_id = pick->message_id;
        seg.deadline = pick->deadline;
        seg.is_retransmission = pick->is_retransmission;
        seg.end_of_stream = pick->end_of_stream;
        seg.payload = std::move(payload);
        body = std::move(seg);
    } else {
        packet::data_stream_segment seg;
        seg.seq = seq;
        seg.stream_id = pick->stream_id;
        seg.stream_offset = pick->byte_offset;
        seg.payload_len = pick->payload_len;
        seg.ts = now;
        seg.rtt_estimate = rtt_estimate;
        seg.message_id = pick->message_id;
        seg.deadline = pick->deadline;
        seg.reliability = static_cast<std::uint8_t>(pick->mode);
        seg.is_retransmission = pick->is_retransmission;
        seg.end_of_stream = pick->end_of_stream;
        seg.payload = std::move(payload);
        body = std::move(seg);
    }

    // Record transmissions whenever sender-side estimation is active or
    // could become active through renegotiation (our capabilities allow
    // it): a switch mid-flight must find send times for packets already
    // in the air. Endpoints that can never estimate locally skip the
    // bookkeeping (~512 KB per long-lived connection).
    if (active_.estimation == tfrc::estimation_mode::sender_side ||
        cfg_.caps.support_sender_estimation)
        estimator_.on_send(seq, now);

    ++packets_sent_;
    bytes_sent_ += pick->payload_len;
    if (is_probe) ++probes_sent_;
    if (tracer_)
        tracer_->push(now, trace::record_type::packet_tx,
                      static_cast<std::uint8_t>((pick->is_retransmission ? 1u : 0u) |
                                                (is_probe ? 2u : 0u)),
                      static_cast<std::uint16_t>(pick->stream_id), seq,
                      pick->payload_len);
    tracker_.on_packet_sent(seq, pick->payload_len, now);
    cc_->on_packet_sent(seq, pick->payload_len, tracker_.bytes_in_flight(), now);
    std::uint32_t dst = cfg_.peer_addr;
    if (path_.enabled()) {
        // Dual-path steering: the scheduler picks where this paced slot
        // goes (single validated path short-circuits to the active one).
        const bool urgent =
            pick->deadline != util::time_never && pick->deadline > 0;
        dst = path_sched_.pick(path_, now, cc_->pacing_rate(),
                               std::max<std::uint32_t>(pick->payload_len, 64u), urgent);
        path_.on_data_sent(seq, dst, pick->payload_len);
    }
    env_->send(packet::make_packet(cfg_.flow_id, env_->local_addr(), dst,
                                   std::move(body)));

    // Mode-none streams get no SACKs, so their payload buffer releases
    // on transmission (other modes release on feedback in mux_.on_sack).
    if (pick->mode == sack::reliability_mode::none && pick->payload_len > 0)
        mux_.trim_after_send(pick->stream_id);

    return is_probe ? 2 : 1;
}

void connection_sender::schedule_next_send(std::uint32_t just_sent) {
    if (send_timer_ != qtp::no_timer || !work_available()) return;
    const double rate = std::max(cc_->pacing_rate(), 1.0);
    // A burst of n segments consumes n slots of rate budget, so the
    // following sleep is n packet-spacings long.
    double spacing_s =
        static_cast<double>(cfg_.packet_size) * std::max<std::uint32_t>(just_sent, 1) /
        rate;
    if (!mux_.has_payload_work()) {
        // Only probes left: a few per RTT are plenty.
        const util::sim_time rtt =
            cc_->has_rtt() ? cc_->smoothed_rtt() : util::milliseconds(100);
        spacing_s = std::max(spacing_s, util::to_seconds(rtt) / 4.0);
    }
    const util::sim_time spacing = std::clamp<util::sim_time>(
        util::from_seconds(spacing_s), util::microseconds(10), util::seconds(2));
    send_timer_ = env_->schedule(spacing, [this] { send_next(); });
}

void connection_sender::arm_nofeedback_timer() {
    if (nofeedback_timer_ != qtp::no_timer) env_->cancel(nofeedback_timer_);
    nofeedback_timer_ = env_->schedule(cc_->nofeedback_interval(), [this] {
        nofeedback_timer_ = qtp::no_timer;
        if (tracer_)
            tracer_->push(env_->now(), trace::record_type::timer_fire,
                          static_cast<std::uint8_t>(trace::timer_kind::nofeedback),
                          0, 0, 0);
        // The whole flight is presumed lost (pure bookkeeping — for TFRC
        // this only keeps the tracker warm for a later algorithm swap).
        const std::uint64_t prior_flight = tracker_.bytes_in_flight();
        tracker_.on_rto();
        cc_->on_rto(prior_flight, env_->now());
        arm_nofeedback_timer();
        // Window algorithms: the RTO emptied the flight and reset cwnd,
        // so sending can resume even though no feedback will arrive to
        // kick the pacing loop. TFRC is excluded to keep its event
        // sequence byte-identical to the pre-subsystem sender.
        if (cc_->id() != cc::algorithm_id::tfrc && send_timer_ == qtp::no_timer &&
            work_available())
            send_next();
    });
}

bool connection_sender::transfer_complete() const {
    const stream::outbound_stream& s0 = mux_.stream0();
    if (s0.unlimited()) return false;
    if (active_.reliability == sack::reliability_mode::full) {
        // Only bytes sent while reliability was active are in the
        // scoreboard; anything before a none -> full renegotiation went
        // out untracked and must not gate completion.
        if (s0.reliable_from_offset() >= s0.total_bytes())
            return s0.next_offset() >= s0.total_bytes();
        return s0.next_offset() >= s0.total_bytes() &&
               s0.reliability().delivered().contains(s0.reliable_from_offset(),
                                                     s0.total_bytes());
    }
    return s0.next_offset() >= s0.total_bytes();
}

// ---------------------------------------------------------------------------
// connection_receiver
// ---------------------------------------------------------------------------

connection_receiver::connection_receiver(connection_config cfg)
    : cfg_(cfg),
      responder_(cfg.caps),
      reneg_resp_(cfg.caps),
      // A striping peer interleaves paths with unequal delay, so holes
      // heal later than the single-path tolerance allows; widen it or
      // reordering masquerades as loss (see manager_config).
      history_(tfrc::loss_history_config{
          .num_intervals = tfrc::loss_history_config{}.num_intervals,
          .reorder_tolerance = cfg.path.enabled && cfg.path.multipath
                                   ? cfg.path.multipath_reorder_tolerance
                                   : tfrc::loss_history_config{}.reorder_tolerance}),
      events_(cfg.event_queue_capacity) {
    if (cfg_.trace_ring_records > 0)
        tracer_ = std::make_unique<trace::tracer>(cfg_.flow_id, cfg_.trace_ring_records,
                                                  cfg_.trace_sink);
    if (cfg_.reneg_rate_bps > 0.0)
        reneg_bucket_.emplace(cfg_.reneg_rate_bps, cfg_.reneg_burst_bytes);
    path_.configure(cfg_.path, cfg_.flow_id);
}

void connection_receiver::start_paths() {
    if (!path_.enabled()) return;
    path_.set_tracer(tracer_.get());
    path_.set_on_path_changed(
        [this](std::uint32_t old_remote, std::uint32_t new_remote, std::uint8_t cause) {
            // Feedback, FIN-ACKs and reneg answers now go to the peer's
            // new (validated) address.
            cfg_.peer_addr = new_remote;
            util::log(util::log_level::info, "qtp-recv", "path changed: ", old_remote,
                      " -> ", new_remote, " cause ", static_cast<int>(cause));
            event ev;
            ev.type = event_type::path_changed;
            ev.offset = old_remote;
            ev.bytes = new_remote;
            emit(ev);
        });
    path_.start(*env_, cfg_.peer_addr);
}

bool connection_receiver::on_path_frame(const packet::packet& pkt) {
    if (!path_.enabled()) return false;
    const bool est = responder_.established();
    if (const auto* pc = std::get_if<packet::path_challenge_segment>(pkt.body.get())) {
        path_.on_challenge(*pc, pkt.src, est);
        return true;
    }
    if (const auto* pr = std::get_if<packet::path_response_segment>(pkt.body.get())) {
        path_.on_response(*pr, pkt.src);
        return true;
    }
    path_.on_datagram(pkt.src, pkt.size_bytes, est);
    return false;
}

void connection_receiver::start(environment& env) {
    env_ = &env;
    start_paths();
    // Liveness deadline: an endpoint spawned by a (possibly spoofed) SYN
    // must hear something only a reachable peer sends — data, a reneg,
    // a FIN — before the deadline, or it closes itself for reaping.
    if (cfg_.handshake_deadline > 0)
        handshake_deadline_timer_ = env_->schedule(cfg_.handshake_deadline, [this] {
            handshake_deadline_timer_ = qtp::no_timer;
            on_handshake_deadline();
        });
}

void connection_receiver::attach_tracer(std::size_t ring_records,
                                        trace::sink* sink) {
    tracer_ = std::make_unique<trace::tracer>(
        cfg_.flow_id, ring_records != 0 ? ring_records : 4096, sink);
    path_.set_tracer(tracer_.get());
}

void connection_receiver::detach_tracer() {
    path_.set_tracer(nullptr);
    tracer_.reset();
}

void connection_receiver::set_half_open_gauge(std::atomic<std::uint64_t>* g) {
    leave_half_open();
    if (g == nullptr || remote_closed_ || received_packets_ > 0) return;
    half_open_gauge_ = g;
    g->fetch_add(1, std::memory_order_relaxed);
}

void connection_receiver::leave_half_open() {
    if (half_open_gauge_ == nullptr) return;
    half_open_gauge_->fetch_sub(1, std::memory_order_relaxed);
    half_open_gauge_ = nullptr;
}

void connection_receiver::on_handshake_deadline() {
    if (remote_closed_) return;
    handshake_timed_out_ = true;
    remote_closed_ = true;
    leave_half_open();
    if (feedback_timer_ != qtp::no_timer) {
        env_->cancel(feedback_timer_);
        feedback_timer_ = qtp::no_timer;
    }
    reneg_.cancel(*env_);
    path_.stop();
    util::log(util::log_level::debug, "qtp-recv", "handshake deadline: half-open, closing");
    if (tracer_) {
        tracer_->push(env_->now(), trace::record_type::timer_fire,
                      static_cast<std::uint8_t>(trace::timer_kind::handshake), 0, 0, 0);
        tracer_->push(env_->now(), trace::record_type::closed, 0, 0, 0, 0);
        tracer_->flush();
    }
    event ev;
    ev.type = event_type::closed;
    emit(ev);
}

void connection_receiver::cancel_handshake_deadline() {
    if (handshake_deadline_timer_ == qtp::no_timer) return;
    env_->cancel(handshake_deadline_timer_);
    handshake_deadline_timer_ = qtp::no_timer;
}

bool connection_receiver::emit(const event& ev) {
    switch (ev.type) {
    case event_type::established:
        if (on_established_) {
            on_established_(ev.prof);
            return true;
        }
        break;
    case event_type::profile_changed:
        if (on_profile_changed_) {
            on_profile_changed_(ev.prof);
            return true;
        }
        break;
    case event_type::closed:
        if (on_closed_) {
            on_closed_();
            return true;
        }
        break;
    case event_type::stream_opened:
        // The demux already fired the legacy hook when one is registered.
        if (on_stream_open_) return true;
        break;
    default: break;
    }
    if (sink_ != nullptr) {
        std::vector<std::uint8_t> none;
        if (sink_->on_session_event(cfg_.flow_id, ev, none)) return true;
        events_.count_external_drop();
        return false;
    }
    if (legacy_mode_) return true;
    return events_.push(ev);
}

void connection_receiver::set_event_sink(event_sink* sink) {
    sink_ = sink;
    if (sink_ == nullptr) return;
    // The accept path installs the sink after the SYN was processed:
    // drain whatever queued meanwhile (established, possibly more).
    event ev;
    std::vector<std::uint8_t> none;
    while (events_.poll(&ev, 1) == 1)
        if (!sink_->on_session_event(cfg_.flow_id, ev, none))
            events_.count_external_drop();
    export_chunks();
}

void connection_receiver::wire_demux_hooks() {
    if (demux_ == nullptr) return;
    // Hooks are installed only when the application registered the
    // corresponding callback: an unhooked demux runs the poll path with
    // no std::function dispatch per packet.
    if (deliver_) demux_->set_legacy_deliver(deliver_);
    if (stream_deliver_) demux_->set_deliver(stream_deliver_);
    if (on_stream_open_) demux_->set_on_stream_open(on_stream_open_);
}

void connection_receiver::export_chunks() {
    if (sink_ == nullptr || demux_ == nullptr) return;
    std::uint32_t id = 0;
    stream::ready_chunk chunk;
    while (demux_->pop_chunk_any(id, chunk)) {
        event rd;
        rd.type = event_type::readable;
        rd.stream_id = id;
        rd.offset = chunk.offset;
        rd.bytes = chunk.bytes.size();
        if (!sink_->on_session_event(cfg_.flow_id, rd, chunk.bytes)) {
            // Export ring full: the bytes were handed back — park the
            // chunk again and retry on the next delivery or feedback
            // tick. Fully-acked payload must never be destroyed.
            demux_->unpop_chunk(id, std::move(chunk));
            return;
        }
    }
}

std::size_t connection_receiver::recv(std::uint32_t stream_id, std::uint8_t* out,
                                      std::size_t cap) {
    return demux_ != nullptr ? demux_->read(stream_id, out, cap) : 0;
}

bool connection_receiver::recv_chunk(std::uint32_t& stream_id_out,
                                     stream::ready_chunk& out) {
    return demux_ != nullptr && demux_->pop_chunk_any(stream_id_out, out);
}

std::uint64_t connection_receiver::recv_buffered_bytes() const {
    return demux_ != nullptr ? demux_->buffered_payload_bytes() : 0;
}

std::uint64_t connection_receiver::recv_dropped_bytes() const {
    return demux_ != nullptr ? demux_->payload_dropped_bytes() : 0;
}

void connection_receiver::on_packet(const packet::packet& pkt) {
    if (on_path_frame(pkt)) return;
    if (const auto* hs = std::get_if<packet::handshake_segment>(pkt.body.get())) {
        if (hs->type == packet::handshake_segment::kind::fin) {
            const bool first_fin = !remote_closed_;
            remote_closed_ = true;
            leave_half_open();
            cancel_handshake_deadline();
            if (feedback_timer_ != qtp::no_timer) {
                env_->cancel(feedback_timer_);
                feedback_timer_ = qtp::no_timer;
            }
            reneg_.cancel(*env_);
            path_.stop();
            packet::handshake_segment ack;
            ack.type = packet::handshake_segment::kind::fin_ack;
            env_->send(packet::make_packet(cfg_.flow_id, env_->local_addr(),
                                           cfg_.peer_addr, ack));
            // Retry stranded exports on every FIN (the feedback timer is
            // gone; FIN retransmissions are the last periodic trigger).
            export_chunks();
            if (first_fin) {
                if (tracer_) {
                    tracer_->push(env_->now(), trace::record_type::closed, 0, 0, 0,
                                  0);
                    tracer_->flush();
                }
                event ev;
                ev.type = event_type::closed;
                emit(ev);
            }
            return;
        }
        if (hs->type == packet::handshake_segment::kind::reneg ||
            hs->type == packet::handshake_segment::kind::reneg_ack) {
            on_reneg(*hs);
            return;
        }
        on_handshake(*hs);
        return;
    }
    if (const auto* data = std::get_if<packet::data_segment>(pkt.body.get())) {
        if (responder_.established()) on_data(*data);
        return;
    }
    if (const auto* sdata = std::get_if<packet::data_stream_segment>(pkt.body.get())) {
        if (responder_.established()) on_stream_data(*sdata);
        return;
    }
}

void connection_receiver::on_handshake(const packet::handshake_segment& seg) {
    const auto resp = responder_.on_segment(seg);
    if (!resp) return;

    if (demux_ == nullptr) {
        active_ = resp->accepted;
        const auto order = active_.reliability == sack::reliability_mode::full
                               ? sack::delivery_order::ordered
                               : sack::delivery_order::immediate;
        demux_ = std::make_unique<stream::stream_demux>(order);
        demux_->set_store_limit(cfg_.recv_buffer_bytes);
        wire_demux_hooks();
        util::log(util::log_level::info, "qtp-recv", "accepted: ", active_.describe());
        if (tracer_)
            tracer_->push(env_->now(), trace::record_type::established,
                          static_cast<std::uint8_t>(active_.congestion), 0,
                          active_.encode(), 0);
        event ev;
        ev.type = event_type::established;
        ev.prof = active_;
        emit(ev);
    }
    env_->send(packet::make_packet(cfg_.flow_id, env_->local_addr(), cfg_.peer_addr,
                                   resp->syn_ack));
}

void connection_receiver::request_renegotiate(const profile& p) {
    if (!responder_.established() || remote_closed_ || env_ == nullptr) return;
    reneg_.start(*env_, cfg_.flow_id, cfg_.peer_addr, cfg_.handshake_rtx, "qtp-recv", p);
    if (tracer_)
        tracer_->push(env_->now(), trace::record_type::reneg_proposed, 0, 0,
                      p.encode(), static_cast<std::uint64_t>(p.target_rate_bps));
}

void connection_receiver::apply_profile(const profile& p) {
    active_ = p;
    ++renegotiations_;
    // The estimation locus and feedback contents (has_p) follow active_
    // directly; the loss history simply goes idle or starts warming up.
    // The reassembly delivery order deliberately stays as negotiated at
    // accept time: switching ordered->immediate mid-stream would hand the
    // application bytes past an open gap.
    util::log(util::log_level::info, "qtp-recv", "renegotiated: ", active_.describe());
    if (tracer_)
        tracer_->push(env_->now(), trace::record_type::reneg_applied,
                      static_cast<std::uint8_t>(active_.congestion), 0,
                      active_.encode(), 0);
    event ev;
    ev.type = event_type::profile_changed;
    ev.prof = active_;
    emit(ev);
}

void connection_receiver::on_reneg(const packet::handshake_segment& seg) {
    if (!responder_.established()) return;
    if (seg.type == packet::handshake_segment::kind::reneg) {
        // A peer can retransmit proposals arbitrarily fast and each one
        // costs responder work; the budget drops the excess up front.
        if (reneg_bucket_ &&
            !reneg_bucket_->consume(packet::wire_size(packet::segment{seg}),
                                    env_->now())) {
            ++reneg_rate_limited_;
            return;
        }
        cancel_handshake_deadline(); // a reneg proposal is proof of liveness
        // Simultaneous proposals tie-break by role: the sender's wins.
        // Yield our own outstanding proposal (a late ack for it is still
        // honoured — the sender applies when it answers) and respond.
        reneg_.yield(*env_);
        // The sender proposes; our boundary estimate is the next unseen
        // sequence number (the sender states its own in the data stream).
        const std::uint64_t boundary = ranges_.empty() ? 0 : ranges_.back().end;
        const auto resp = reneg_resp_.on_segment(seg, boundary);
        if (!resp) return;
        if (resp->is_new) apply_profile(resp->accepted);
        env_->send(packet::make_packet(cfg_.flow_id, env_->local_addr(), cfg_.peer_addr,
                                       resp->ack));
        return;
    }
    if (const auto accepted = reneg_.on_ack(*env_, seg)) {
        apply_profile(*accepted);
    }
}

void connection_receiver::on_data(const packet::data_segment& seg) {
    // Legacy single-stream kind: stream 0, delivery order as negotiated.
    // The payload pointer is only trusted when it matches payload_len
    // (the decoder guarantees it; typed sim injection might not).
    const std::uint8_t* payload =
        seg.payload.size() == seg.payload_len && !seg.payload.empty()
            ? seg.payload.data()
            : nullptr;
    ingest_data(seg.seq, seg.ts, seg.rtt_estimate, 0, active_.reliability,
                seg.byte_offset, seg.payload_len, seg.end_of_stream, payload);
}

void connection_receiver::on_stream_data(const packet::data_stream_segment& seg) {
    // The wire decoder validated stream id and reliability bits; on the
    // simulator the typed segment arrives unchecked, so clamp here too.
    if (seg.stream_id >= stream::max_streams ||
        (seg.reliability & packet::stream_reliability_mask) == packet::stream_reliability_mask)
        return;
    const std::uint8_t* payload =
        seg.payload.size() == seg.payload_len && !seg.payload.empty()
            ? seg.payload.data()
            : nullptr;
    ingest_data(seg.seq, seg.ts, seg.rtt_estimate, seg.stream_id,
                static_cast<sack::reliability_mode>(seg.reliability), seg.stream_offset,
                seg.payload_len, seg.end_of_stream, payload);
}

void connection_receiver::ingest_data(std::uint64_t seq, util::sim_time ts,
                                      util::sim_time rtt_estimate,
                                      std::uint32_t stream_id,
                                      sack::reliability_mode mode, std::uint64_t offset,
                                      std::uint32_t len, bool end_of_stream,
                                      const std::uint8_t* payload) {
    cancel_handshake_deadline(); // data proves the peer is live and reachable
    // A decoder-accepted but corrupted (or hostile) segment can carry an
    // absurd sequence jump. Tracking the implied hole costs O(gap) in the
    // receiver-side loss history and poisons SACK feedback, so gate the
    // jump by a window far beyond any honest in-flight amount. (Found by
    // the conformance harness's mutant-injection corrupt mode.)
    const std::uint64_t next_unseen = ranges_.empty() ? 0 : ranges_.back().end;
    if (seq >= next_unseen + cfg_.max_seq_jump) {
        ++wild_seq_rejected_;
        return;
    }
    const util::sim_time now = env_->now();
    ++received_packets_;
    if (received_packets_ == 1) leave_half_open();
    ++packets_since_feedback_;
    received_bytes_ += len;
    bytes_since_feedback_ += len;
    if (tracer_)
        tracer_->push(now, trace::record_type::packet_rx, 0,
                      static_cast<std::uint16_t>(stream_id), seq, len);
    if (rtt_estimate > 0) last_rtt_hint_ = rtt_estimate;
    last_data_ts_ = ts;
    last_data_arrival_ = now;

    record_seq(seq);

    bool new_event = false;
    if (active_.estimation == tfrc::estimation_mode::receiver_side) {
        new_event = history_.on_packet(seq, now, last_rtt_hint_);
        if (new_event && history_.loss_events() == 1 && history_.intervals().empty()) {
            const util::sim_time elapsed =
                now - last_feedback_at_ > 0 ? now - last_feedback_at_ : last_rtt_hint_;
            const double x_recv = util::to_seconds(elapsed) > 0.0
                                      ? static_cast<double>(bytes_since_feedback_) /
                                            util::to_seconds(elapsed)
                                      : 0.0;
            tfrc::equation_params eq;
            eq.packet_size_bytes = cfg_.packet_size;
            history_.seed_first_interval(tfrc::loss_rate_for_throughput(
                eq, util::to_seconds(last_rtt_hint_), x_recv));
        }
    }

    const stream::stream_demux::frame_result fr =
        demux_->on_frame(stream_id, mode, offset, len, end_of_stream, payload, now);
    if (fr.opened) {
        event ev;
        ev.type = event_type::stream_opened;
        ev.stream_id = stream_id;
        ev.reliability = mode;
        emit(ev);
    }
    if (sink_ != nullptr) {
        if (fr.delivered.any()) export_chunks();
    } else if (fr.became_readable) {
        event ev;
        ev.type = event_type::readable;
        ev.stream_id = stream_id;
        ev.bytes = demux_->readable_bytes(stream_id);
        // A lost edge must re-arm, or the consumer never learns about
        // the buffered data (readable is its only wake-up).
        if (!emit(ev)) demux_->clear_readable_signal(stream_id);
    }
    if (fr.finished) {
        event ev;
        ev.type = event_type::fin;
        ev.stream_id = stream_id;
        if (const sack::reassembly* ra = demux_->find(stream_id))
            ev.bytes = ra->stream_length();
        emit(ev);
    }

    if (!seen_data_) {
        seen_data_ = true;
        last_feedback_at_ = now;
        send_feedback();
        return;
    }
    if (new_event) send_feedback();
}

void connection_receiver::record_seq(std::uint64_t seq) {
    if (!ranges_.empty() && ranges_.back().end == seq) {
        ranges_.back().end = seq + 1;
    } else {
        auto it = std::lower_bound(
            ranges_.begin(), ranges_.end(), seq,
            [](const packet::sack_block& b, std::uint64_t s) { return b.end < s; });
        if (it != ranges_.end() && it->begin <= seq && seq < it->end) return;
        if (it != ranges_.end() && it->begin == seq + 1) {
            it->begin = seq;
        } else if (it != ranges_.end() && it->end == seq) {
            it->end = seq + 1;
            auto next = std::next(it);
            if (next != ranges_.end() && next->begin == it->end) {
                it->end = next->end;
                ranges_.erase(next);
            }
        } else {
            ranges_.insert(it, packet::sack_block{seq, seq + 1});
        }
    }
    while (ranges_.size() > 64) ranges_.pop_front();
    // Sequence numbers past the sender's finalisation horizon are settled
    // (retransmissions travel under fresh sequence numbers), so ranges
    // far behind the newest one can be pruned in every reliability mode.
    constexpr std::uint64_t active_window = 256;
    const std::uint64_t highest_end = ranges_.back().end;
    while (ranges_.front().end + active_window < highest_end) {
        ranges_.pop_front();
    }
}

void connection_receiver::arm_feedback_timer() {
    if (feedback_timer_ != qtp::no_timer) env_->cancel(feedback_timer_);
    feedback_timer_ = env_->schedule(last_rtt_hint_, [this] {
        feedback_timer_ = qtp::no_timer;
        // Chunks stranded by a momentarily full export ring retry here
        // (the ring drains as the application polls).
        export_chunks();
        // Zero-payload tail probes count as packets: they must be
        // acknowledged or the sender could never finalise its tail.
        if (bytes_since_feedback_ > 0 || packets_since_feedback_ > 0) send_feedback();
        else arm_feedback_timer();
    });
}

void connection_receiver::send_feedback() {
    const util::sim_time now = env_->now();
    packet::sack_feedback_segment fb;
    fb.cum_ack = ranges_.empty() ? 0 : ranges_.front().begin;
    const std::size_t max_blocks = packet::max_wire_sack_blocks;
    const std::size_t first = ranges_.size() > max_blocks ? ranges_.size() - max_blocks : 0;
    for (std::size_t i = first; i < ranges_.size(); ++i) fb.blocks.push_back(ranges_[i]);
    fb.ts_echo = last_data_ts_;
    fb.t_delay = now - last_data_arrival_;
    const util::sim_time elapsed = now - last_feedback_at_;
    const double window =
        elapsed > 0 ? util::to_seconds(elapsed) : util::to_seconds(last_rtt_hint_);
    fb.x_recv = window > 0.0 ? static_cast<double>(bytes_since_feedback_) / window : 0.0;
    if (active_.estimation == tfrc::estimation_mode::receiver_side) {
        fb.has_p = true;
        fb.p = history_.loss_event_rate();
    }

    packet::packet out = packet::make_packet(cfg_.flow_id, env_->local_addr(),
                                             cfg_.peer_addr, std::move(fb));
    feedback_bytes_ += out.size_bytes;
    ++feedback_sent_;
    if (tracer_)
        tracer_->push(now, trace::record_type::feedback_tx, 0, 0,
                      ranges_.empty() ? 0 : ranges_.back().end,
                      packets_since_feedback_);
    env_->send(std::move(out));

    bytes_since_feedback_ = 0;
    packets_since_feedback_ = 0;
    last_feedback_at_ = now;
    arm_feedback_timer();
}

std::size_t connection_receiver::state_bytes() const {
    std::size_t total = sizeof(*this) + ranges_.size() * sizeof(packet::sack_block);
    if (active_.estimation == tfrc::estimation_mode::receiver_side)
        total += history_.state_bytes();
    if (demux_ != nullptr) total += demux_->state_bytes();
    return total;
}

} // namespace vtp::qtp
