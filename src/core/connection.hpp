// Composed QTP connection endpoints.
//
// `connection_sender` and `connection_receiver` assemble the
// micro-mechanisms — congestion control behind the pluggable
// send-algorithm interface (cc::send_algorithm: TFRC, NewReno or
// Westwood), loss estimation at either end (tfrc::loss_history /
// tfrc::sender_estimator), and SACK reliability (sack::scoreboard +
// sack::retransmit_queue / sack::reassembly) — according to the profile
// negotiated at handshake.
// The profile is not frozen there: either endpoint may call
// request_renegotiate() mid-connection; the reneg/reneg_ack exchange
// (core/negotiation.hpp) runs the proposal through the peer's
// capabilities and both sides swap micro-mechanisms at the acknowledged
// sequence boundary. Most applications should use the vtp::session /
// vtp::server facade in api/session.hpp instead of these classes.
//
// Data flow, sender side:
//   pacing timer (rate from the cc algorithm) -> stream::stream_mux picks the stream
//   for this slot (weighted round-robin, deadline promotion) and cuts its
//   payload = that stream's retransmission-queue front (policy-filtered)
//   or new stream bytes -> data / data_stream segment with a fresh
//   connection-wide sequence number -> per-stream scoreboard + (QTPlight)
//   estimator record. Stream 0 is the legacy single stream; open_stream()
//   adds more, each with its own reliability mode, weight and deadline.
// Feedback path:
//   SACK feedback -> estimator (sender-side p) or embedded p (receiver
//   side) -> rate controller; SACK blocks -> scoreboard -> lost ranges ->
//   retransmission queue.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include <optional>

#include "cc/ack_tracker.hpp"
#include "cc/send_algorithm.hpp"
#include "core/environment.hpp"
#include "path/manager.hpp"
#include "path/scheduler.hpp"
#include "diffserv/token_bucket.hpp"
#include "core/events.hpp"
#include "core/negotiation.hpp"
#include "core/profile.hpp"
#include "sack/reassembly.hpp"
#include "sack/retransmit.hpp"
#include "sack/scoreboard.hpp"
#include "stream/stream_mux.hpp"
#include "tfrc/loss_history.hpp"
#include "tfrc/receiver.hpp"
#include "tfrc/sender.hpp"
#include "tfrc/sender_estimator.hpp"
#include "trace/tracer.hpp"

namespace vtp::qtp {

struct connection_config {
    std::uint32_t flow_id = 0;
    std::uint32_t peer_addr = 0;
    std::uint32_t packet_size = 1000; ///< payload bytes per data packet

    profile proposal{};    ///< sender side: profile to propose
    /// What this endpoint supports. The receiver uses it to answer the
    /// SYN; both sides use it to answer mid-connection reneg proposals.
    capabilities caps{};

    tfrc::rate_controller_config rate{};
    tfrc::sender_estimator_config estimator{};
    sack::scoreboard_config scoreboard{};
    /// Retransmission cap for partial reliability (0 = unlimited).
    std::uint32_t max_transmissions = 0;

    /// Application source: stream length in bytes (UINT64_MAX = unlimited
    /// synthetic source, the usual benchmark configuration).
    std::uint64_t total_bytes = UINT64_MAX;

    /// Application-driven source (the vtp::session API): the stream grows
    /// through connection_sender::offer() and only ends once
    /// finish_stream() is called — until then no FIN is sent even when
    /// every offered byte is delivered. `total_bytes` is the initial
    /// backlog (use 0 with this flag).
    bool stream_open = false;

    /// Message framing for partial reliability: the stream is cut into
    /// `message_size`-byte messages; each message expires
    /// `message_deadline` after its first transmission. 0 disables
    /// framing (plain byte stream). Applies to stream 0; further streams
    /// carry their own framing in stream::stream_options.
    std::uint32_t message_size = 0;
    util::sim_time message_deadline = util::time_never;

    /// Cap on offered-but-unsent bytes across all streams; offer()
    /// returns how much was accepted. 0 = unlimited (legacy behaviour).
    std::uint64_t max_buffered_bytes = 0;

    /// Per-session event ring capacity (poll-based API).
    std::size_t event_queue_capacity = 256;

    /// Receiver: cap on payload bytes buffered for recv(); chunks beyond
    /// it are dropped and counted (session_stats::recv_dropped_bytes).
    /// 0 = unlimited.
    std::uint64_t recv_buffer_bytes = 16u << 20;

    /// Sender stream scheduler (weights quantum, deadline promotion).
    stream::stream_scheduler_config scheduler{};

    /// Handshake retransmission interval.
    util::sim_time handshake_rtx = util::milliseconds(500);

    /// Receiver liveness deadline: a spawned endpoint whose peer shows no
    /// sign of life (no data, renegotiation, or FIN) within this window
    /// transitions to closed so the owner's reap path collects it — the
    /// half-open flood fix. 0 disables.
    util::sim_time handshake_deadline = util::seconds(30);

    /// Bound on incoming renegotiation-proposal processing (token bucket
    /// over wire bytes; 0 = unbounded). A peer retransmitting proposals
    /// beyond the budget sees them dropped and counted
    /// (session_stats::reneg_rate_limited).
    double reneg_rate_bps = 0.0;
    std::size_t reneg_burst_bytes = 0;

    /// Receiver gate: data whose sequence jumps this many packets past
    /// the highest range seen is rejected as corruption/hostile input
    /// (tracking the implied hole costs O(gap) in the loss history).
    /// The default allows ~64 MB in flight at 1 kB packets; raise it for
    /// high-BDP paths whose flight exceeds that.
    std::uint64_t max_seq_jump = 1u << 16;

    /// Flight-recorder tracing (trace/record.hpp): ring capacity in
    /// records, 0 disables every hook (the default — hooks then cost one
    /// null test). Without a sink the ring keeps the most recent events
    /// and counts overwrites (session_stats::trace_events_dropped); with
    /// `trace_sink` set, full rings spill to it as lossless frames
    /// (trace/writer.hpp) and flush at close.
    std::size_t trace_ring_records = 0;
    trace::sink* trace_sink = nullptr;

    /// Connection migration / multipath (path/path.hpp). Disabled by
    /// default: the manager is inert, packet sources are ignored and no
    /// randomness is drawn — wire behaviour is bit-identical to the
    /// pre-path tree (the frozen trace-hash configuration).
    path::manager_config path{};
};

class connection_sender : public qtp::agent {
public:
    explicit connection_sender(connection_config cfg);

    void start(environment& env) override;
    void on_packet(const packet::packet& pkt) override;
    std::string name() const override { return "qtp-send"; }

    /// Append `n` bytes to stream 0 (application write; only meaningful
    /// with cfg.stream_open). Returns how many bytes were accepted
    /// (bounded by cfg.max_buffered_bytes).
    std::uint64_t offer(std::uint64_t n) { return offer(0, n); }
    /// Append `n` bytes to stream `id`; returns the accepted count.
    std::uint64_t offer(std::uint32_t stream_id, std::uint64_t n);
    /// Append real application bytes to stream `id`: the accepted prefix
    /// is carried end-to-end in data segments and retained until no
    /// retransmission can need it. A clamped return arms the writable
    /// event for when buffer space frees up.
    std::uint64_t offer_bytes(std::uint32_t stream_id, const std::uint8_t* data,
                              std::uint64_t n);
    /// Buffer space available without clamping (true when unlimited).
    bool writable() const;
    /// No more bytes will be offered on any stream; the FIN handshake may
    /// begin once everything offered is delivered.
    void finish_stream();
    /// Half-close one stream (its end-of-stream marker goes out once the
    /// last offered byte has been transmitted).
    void finish_stream(std::uint32_t stream_id);

    /// Open an additional application stream multiplexed on this
    /// connection. Returns the stream id, or stream::invalid_stream when
    /// the connection is closing or out of ids (256 per connection).
    std::uint32_t open_stream(const stream::stream_options& opts);

    /// Propose switching the connection to profile `p`. The proposal is
    /// retransmitted until acknowledged; on acceptance (possibly
    /// downgraded by the peer's capabilities) both endpoints swap
    /// micro-mechanisms and on_profile_changed fires.
    void request_renegotiate(const profile& p);
    bool renegotiation_pending() const { return reneg_.pending(); }
    std::uint32_t renegotiations() const { return renegotiations_; }
    std::uint64_t reneg_proposals_sent() const { return reneg_.proposals_sent(); }
    std::uint64_t reneg_proposals_accepted() const { return reneg_.proposals_accepted(); }
    /// First sequence number governed by the latest accepted profile.
    std::uint64_t last_reneg_boundary() const { return last_reneg_boundary_; }

    void set_on_established(std::function<void(const profile&)> cb) {
        on_established_ = std::move(cb);
        legacy_mode_ = true;
    }
    void set_on_closed(std::function<void()> cb) {
        on_closed_ = std::move(cb);
        legacy_mode_ = true;
    }
    void set_on_profile_changed(std::function<void(const profile&)> cb) {
        on_profile_changed_ = std::move(cb);
        legacy_mode_ = true;
    }

    /// Drain queued session events (the poll-based API).
    std::size_t poll(event* out, std::size_t max) { return events_.poll(out, max); }
    /// Export events to `sink` instead of the ring (the engine's
    /// cross-thread binding); already queued events are drained into it.
    void set_event_sink(event_sink* sink);
    std::uint64_t events_dropped() const { return events_.dropped(); }

    /// Flight recorder (null when cfg.trace_ring_records == 0).
    const trace::tracer* tracer() const { return tracer_.get(); }
    std::uint64_t trace_recorded() const {
        return tracer_ ? tracer_->recorded() : 0;
    }
    std::uint64_t trace_dropped() const { return tracer_ ? tracer_->dropped() : 0; }
    /// Attach a flight-recorder tap at runtime (admin plane). Replaces
    /// any existing tracer, flushing it first; `sink` must outlive the
    /// tap (detach_tracer or connection destruction flushes into it).
    void attach_tracer(std::size_t ring_records, trace::sink* sink);
    /// Flush and drop the active tracer (no-op when none).
    void detach_tracer();

    /// Validate `remote` end to end and switch the transmit path to it
    /// once proven (path_changed event). `remote == 0` (or the current
    /// peer) re-probes the active 4-tuple — the client-after-rebind
    /// case. No-op unless cfg.path.enabled, and once closed.
    void migrate(std::uint32_t remote);
    /// Probe `remote` as an additional send path; once validated the
    /// dual-path scheduler starts steering to it (cfg.path.multipath).
    /// No-op once closed.
    void add_path(std::uint32_t remote);
    /// Path manager introspection (per-path stats, migration counters).
    const path::manager& paths() const { return path_; }

    bool established() const { return handshake_.established(); }
    const profile& active_profile() const { return active_; }
    /// The active congestion controller (selected at handshake, swapped
    /// by renegotiation).
    const cc::send_algorithm& cc() const { return *cc_; }
    /// Mid-flow congestion-controller swaps applied so far.
    std::uint32_t cc_swaps() const { return cc_swaps_; }
    /// Stream 0's scoreboard (legacy single-stream accessor).
    const sack::scoreboard& reliability() const { return mux_.stream0().reliability(); }
    /// Stream 0's retransmission queue (legacy single-stream accessor).
    const sack::retransmit_queue& retransmissions() const {
        return mux_.stream0().retransmissions();
    }
    const tfrc::sender_estimator& estimator() const { return estimator_; }
    /// The multiplexer: per-stream scoreboards, queues and accounting.
    const stream::stream_mux& mux() const { return mux_; }
    std::vector<stream::stream_info> stream_infos() const { return mux_.infos(); }

    std::uint64_t packets_sent() const { return packets_sent_; }
    std::uint64_t bytes_sent() const { return bytes_sent_; }
    std::uint64_t new_bytes_sent() const { return mux_.stream0().next_offset(); }
    /// Current stream 0 length: total_bytes, grown by offer() when
    /// application-driven (UINT64_MAX = unlimited synthetic source).
    std::uint64_t stream_length() const { return mux_.stream0().total_bytes(); }
    /// Retransmitted bytes across all streams.
    std::uint64_t rtx_bytes_sent() const { return mux_.rtx_bytes_sent_total(); }
    std::uint64_t probes_sent() const { return probes_sent_; }
    /// Full-reliability completion: every stream byte acknowledged.
    bool transfer_complete() const;
    /// FIN sent and FIN-ACK received: the connection is fully closed.
    /// Inbound packets are ignored from then on.
    bool closed() const { return closed_; }
    /// Closed, and no timer of its own left armed (the pacing slot may
    /// still run out after the FIN-ACK): its host may detach (free) it now.
    bool reapable() const;
    bool fin_sent() const { return fin_sent_; }
    /// Stateless-retry rounds answered (listener address validation).
    std::uint64_t syn_retries_received() const { return syn_retries_received_; }
    /// Reneg proposals dropped by the processing budget (cfg.reneg_rate_bps).
    std::uint64_t reneg_rate_limited() const { return reneg_rate_limited_; }

private:
    void send_syn();
    void on_handshake(const packet::handshake_segment& seg);
    void on_reneg(const packet::handshake_segment& seg);
    void on_sack_feedback(const packet::sack_feedback_segment& fb);
    void apply_profile(const profile& p, std::uint64_t boundary_seq);
    void send_next();
    /// One slot's transmission: 0 = nothing to send, 1 = stream payload,
    /// 2 = probe/eos marker (pace these at RTT/4, never in a burst).
    int send_one();
    void schedule_next_send(std::uint32_t just_sent = 1);
    void arm_nofeedback_timer();
    bool work_available() const;
    stream::send_policy send_policy_now() const;
    void after_finish();
    void maybe_begin_close();
    void send_fin();
    /// Route an event: legacy callback for its type, else sink, else ring
    /// (discarded on callback-mode sessions — the legacy API surface).
    /// Returns false only when a poll/sink consumer exists and the event
    /// was dropped — edge-triggered emitters must then re-arm their edge.
    bool emit(const event& ev);
    void maybe_emit_writable();
    /// Build the cc::algorithm_config for the current connection config
    /// with gTFRC floor `floor_bps`.
    cc::algorithm_config cc_config(double floor_bps) const;
    /// Dispatch path_challenge / path_response frames and feed per-path
    /// receive accounting; returns true when the packet was a path
    /// probe (fully consumed). Inert when cfg.path.enabled is false.
    bool on_path_frame(const packet::packet& pkt);
    /// Wire the manager callbacks and install the initial peer path.
    void start_paths();

    connection_config cfg_;
    environment* env_ = nullptr;
    handshake_initiator handshake_;
    reneg_driver reneg_;
    reneg_responder reneg_resp_;
    profile active_{};

    /// The pluggable congestion controller (cc/send_algorithm.hpp); the
    /// pacing loop reads only this interface. TFRC's adapter is
    /// byte-identical to the rate_controller it wraps.
    std::unique_ptr<cc::send_algorithm> cc_;
    /// Flight/ack bookkeeping feeding acked/lost vectors to cc_. Passive
    /// (no timers), so it is invisible to the deterministic scheduler.
    cc::ack_tracker tracker_;
    tfrc::sender_estimator estimator_;
    /// All per-stream sender state: byte spaces, scoreboards,
    /// retransmission queues, framing, and the slot scheduler.
    stream::stream_mux mux_;

    std::uint64_t next_seq_ = 0;

    qtp::timer_id send_timer_ = qtp::no_timer;
    qtp::timer_id nofeedback_timer_ = qtp::no_timer;
    qtp::timer_id handshake_timer_ = qtp::no_timer;
    qtp::timer_id fin_timer_ = qtp::no_timer;
    bool fin_sent_ = false;
    bool closed_ = false;
    int fin_attempts_ = 0;

    /// Address-validation cookie from the listener's retry; echoed in
    /// every subsequent SYN (0 = none yet).
    std::uint64_t retry_cookie_ = 0;
    std::uint64_t syn_retries_received_ = 0;
    std::optional<diffserv::token_bucket> reneg_bucket_;
    std::uint64_t reneg_rate_limited_ = 0;

    std::function<void(const profile&)> on_established_;
    std::function<void()> on_closed_;
    std::function<void(const profile&)> on_profile_changed_;

    event_ring events_;
    event_sink* sink_ = nullptr;
    bool legacy_mode_ = false; ///< any set_on_* registered
    bool tx_blocked_ = false;  ///< an offer was clamped; writable pending

    std::unique_ptr<trace::tracer> tracer_; ///< null = tracing disabled

    /// Path validation / migration / multipath steering. Inert (and
    /// random-draw free) unless cfg.path.enabled.
    path::manager path_;
    path::scheduler path_sched_;

    std::uint64_t packets_sent_ = 0;
    std::uint64_t bytes_sent_ = 0;
    std::uint64_t probes_sent_ = 0;
    std::uint32_t renegotiations_ = 0;
    std::uint64_t last_reneg_boundary_ = 0;
    std::uint32_t cc_swaps_ = 0;
};

class connection_receiver : public qtp::agent {
public:
    /// Delivery hook: (stream offset, length).
    using deliver_fn = std::function<void(std::uint64_t, std::uint32_t)>;

    explicit connection_receiver(connection_config cfg);
    ~connection_receiver() override { leave_half_open(); }

    void start(environment& env) override;
    void on_packet(const packet::packet& pkt) override;
    std::string name() const override { return "qtp-recv"; }

    void set_delivery(deliver_fn cb) {
        deliver_ = std::move(cb);
        legacy_mode_ = true;
        wire_demux_hooks();
    }
    /// Multi-stream delivery hook: (stream id, stream offset, length).
    /// Fires for every stream, including stream 0.
    void set_stream_delivery(stream::stream_demux::deliver_fn cb) {
        stream_deliver_ = std::move(cb);
        legacy_mode_ = true;
        wire_demux_hooks();
    }
    /// A stream beyond 0 was seen for the first time.
    void set_on_stream_open(stream::stream_demux::stream_open_fn cb) {
        on_stream_open_ = std::move(cb);
        legacy_mode_ = true;
        wire_demux_hooks();
    }

    // --- poll-based API --------------------------------------------------
    /// Drain queued session events.
    std::size_t poll(event* out, std::size_t max) { return events_.poll(out, max); }
    /// Export events (readable ones carrying their payload chunk) to
    /// `sink` instead of the ring; queued events drain into it first.
    void set_event_sink(event_sink* sink);
    /// Read up to `cap` delivered payload bytes of stream `stream_id` in
    /// delivery order; 0 when nothing is buffered (drain until 0 after a
    /// readable event — it is edge-triggered).
    std::size_t recv(std::uint32_t stream_id, std::uint8_t* out, std::size_t cap);
    /// Pop one delivered chunk with its delivery metadata (offset and
    /// substrate timestamp) — the trace-faithful consumption the
    /// conformance harness uses.
    bool recv_chunk(std::uint32_t& stream_id_out, stream::ready_chunk& out);
    std::uint64_t events_dropped() const { return events_.dropped(); }
    /// Payload bytes buffered for recv() / dropped on a full buffer.
    std::uint64_t recv_buffered_bytes() const;
    std::uint64_t recv_dropped_bytes() const;

    /// Flight recorder (null when cfg.trace_ring_records == 0).
    const trace::tracer* tracer() const { return tracer_.get(); }
    std::uint64_t trace_recorded() const {
        return tracer_ ? tracer_->recorded() : 0;
    }
    std::uint64_t trace_dropped() const { return tracer_ ? tracer_->dropped() : 0; }
    /// Attach a flight-recorder tap at runtime (admin plane). Replaces
    /// any existing tracer, flushing it first; `sink` must outlive the
    /// tap (detach_tracer or connection destruction flushes into it).
    void attach_tracer(std::size_t ring_records, trace::sink* sink);
    /// Flush and drop the active tracer (no-op when none).
    void detach_tracer();

    /// Propose switching the connection to profile `p` (e.g. a mobile
    /// receiver dropping to sender-side estimation on battery pressure).
    void request_renegotiate(const profile& p);
    bool renegotiation_pending() const { return reneg_.pending(); }
    std::uint32_t renegotiations() const { return renegotiations_; }
    std::uint64_t reneg_proposals_sent() const { return reneg_.proposals_sent(); }
    std::uint64_t reneg_proposals_accepted() const { return reneg_.proposals_accepted(); }

    void set_on_established(std::function<void(const profile&)> cb) {
        on_established_ = std::move(cb);
        legacy_mode_ = true;
    }
    void set_on_closed(std::function<void()> cb) {
        on_closed_ = std::move(cb);
        legacy_mode_ = true;
    }
    void set_on_profile_changed(std::function<void(const profile&)> cb) {
        on_profile_changed_ = std::move(cb);
        legacy_mode_ = true;
    }

    /// Path manager introspection (rebind validations, per-path stats).
    const path::manager& paths() const { return path_; }

    bool established() const { return responder_.established(); }
    const profile& active_profile() const { return active_; }
    /// Stream 0's reassembly (legacy single-stream accessor).
    const sack::reassembly& stream() const { return demux_->stream0(); }
    /// The demultiplexer (per-stream reassembly); null until established.
    const stream::stream_demux* demux() const { return demux_.get(); }
    const tfrc::loss_history& history() const { return history_; }
    /// Peer announced it is done (FIN seen) — or the handshake deadline
    /// declared it dead (handshake_timed_out()).
    bool remote_closed() const { return remote_closed_; }
    /// The handshake deadline fired: the peer never proved liveness and
    /// this endpoint closed itself for reaping (half-open flood fix).
    bool handshake_timed_out() const { return handshake_timed_out_; }
    /// Reneg proposals dropped by the processing budget (cfg.reneg_rate_bps).
    std::uint64_t reneg_rate_limited() const { return reneg_rate_limited_; }

    /// Bind an owner-maintained half-open gauge (the engine's per-shard
    /// counter). Increments it if this receiver is currently half-open
    /// (no data yet, not closed) and decrements exactly once when it
    /// leaves that state — first payload packet, FIN, handshake
    /// deadline, or destruction — so the gauge tracks half-open
    /// population incrementally instead of by O(sessions) recount.
    /// Updates happen only on the owning shard thread; the atomic
    /// exists for cross-thread readers.
    void set_half_open_gauge(std::atomic<std::uint64_t>* g);

    std::uint64_t received_packets() const { return received_packets_; }
    std::uint64_t received_bytes() const { return received_bytes_; }
    /// Most recent RTT estimate announced by the sender in its data
    /// segments (the feedback-interval clock; 100 ms until data arrives).
    util::sim_time rtt_hint() const { return last_rtt_hint_; }
    /// Data segments rejected for a sequence number absurdly beyond the
    /// receive window (decoder-accepted corruption / hostile input).
    std::uint64_t wild_seq_rejected() const { return wild_seq_rejected_; }
    std::uint64_t feedback_sent() const { return feedback_sent_; }
    std::uint64_t feedback_bytes() const { return feedback_bytes_; }
    /// Resident per-connection state (E4 memory metric).
    std::size_t state_bytes() const;

private:
    void on_handshake(const packet::handshake_segment& seg);
    void on_reneg(const packet::handshake_segment& seg);
    void on_data(const packet::data_segment& seg);
    void on_stream_data(const packet::data_stream_segment& seg);
    /// Shared per-packet path of both data kinds: sequence bookkeeping,
    /// loss estimation, reassembly (through the demux) and feedback.
    void ingest_data(std::uint64_t seq, util::sim_time ts, util::sim_time rtt_estimate,
                     std::uint32_t stream_id, sack::reliability_mode mode,
                     std::uint64_t offset, std::uint32_t len, bool end_of_stream,
                     const std::uint8_t* payload);
    void apply_profile(const profile& p);
    /// See connection_sender::emit — false means a consumer lost the
    /// event to a full queue (edge emitters must re-arm).
    bool emit(const event& ev);
    void wire_demux_hooks();
    /// Sink mode: hand buffered chunks to the sink; a full export ring
    /// leaves the remainder parked for the next delivery/feedback tick.
    void export_chunks();
    void record_seq(std::uint64_t seq);
    /// See connection_sender::on_path_frame.
    bool on_path_frame(const packet::packet& pkt);
    void start_paths();
    void send_feedback();
    void arm_feedback_timer();
    void on_handshake_deadline();
    void cancel_handshake_deadline();

    connection_config cfg_;
    environment* env_ = nullptr;
    handshake_responder responder_;
    reneg_driver reneg_;
    reneg_responder reneg_resp_;
    profile active_{};

    std::unique_ptr<stream::stream_demux> demux_;
    tfrc::loss_history history_; ///< used only with receiver-side estimation
    deliver_fn deliver_;
    stream::stream_demux::deliver_fn stream_deliver_;
    stream::stream_demux::stream_open_fn on_stream_open_;

    std::deque<packet::sack_block> ranges_; ///< merged received seq ranges
    util::sim_time last_rtt_hint_ = util::milliseconds(100);
    util::sim_time last_data_ts_ = 0;
    util::sim_time last_data_arrival_ = 0;
    std::uint64_t bytes_since_feedback_ = 0;
    std::uint64_t packets_since_feedback_ = 0;
    util::sim_time last_feedback_at_ = 0;
    qtp::timer_id feedback_timer_ = qtp::no_timer;
    qtp::timer_id handshake_deadline_timer_ = qtp::no_timer;
    bool seen_data_ = false;
    bool remote_closed_ = false;
    bool handshake_timed_out_ = false;
    /// Decrement the bound half-open gauge once (idempotent).
    void leave_half_open();
    std::atomic<std::uint64_t>* half_open_gauge_ = nullptr;
    std::optional<diffserv::token_bucket> reneg_bucket_;
    std::uint64_t reneg_rate_limited_ = 0;

    std::function<void(const profile&)> on_established_;
    std::function<void()> on_closed_;
    std::function<void(const profile&)> on_profile_changed_;

    event_ring events_;
    event_sink* sink_ = nullptr;
    bool legacy_mode_ = false;

    std::unique_ptr<trace::tracer> tracer_; ///< null = tracing disabled

    /// Passive rebind detection: validates a peer that shows up from a
    /// new source address mid-connection. Inert unless cfg.path.enabled.
    path::manager path_;

    std::uint64_t received_packets_ = 0;
    std::uint64_t received_bytes_ = 0;
    std::uint64_t wild_seq_rejected_ = 0;
    std::uint64_t feedback_sent_ = 0;
    std::uint64_t feedback_bytes_ = 0;
    std::uint32_t renegotiations_ = 0;
};

} // namespace vtp::qtp
