// Single-threaded traced host for the per-layer run. It implements
// qtp::environment from the engine's public parts — timer_wheel,
// buffer_pool, recv_batch/send_batch and the packet codec, with the
// engine's datagram framing — and puts every agent callback, timer and
// transmit inside a span, so vtp::server and client sessions run on it
// unmodified while the benchmark times each layer from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/environment.hpp"
#include "engine/buffer_pool.hpp"
#include "engine/timer_wheel.hpp"
#include "engine/udp_io.hpp"
#include "ledger.hpp"
#include "relay.hpp"

namespace vtp::qtp {
class connection_receiver;
}

namespace perfbench {

/// One data segment as a receiver saw it: the sub-layer replay input.
struct data_capture {
    std::uint32_t flow = 0;
    std::uint64_t seq = 0;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    bool end_of_stream = false;
    ns_t at = 0;
    ns_t rtt = 0;
};

class traced_host final : public vtp::qtp::environment {
    enum class role : std::uint8_t { listener, receiver, sender };
    struct context {
        role r = role::listener;
        std::uint32_t flow = 0;
    };

public:
    /// Binds 127.0.0.1:`port` (throws std::runtime_error).
    traced_host(std::uint16_t port, std::uint64_t rng_seed, span_log& log);
    ~traced_host() override;
    traced_host(const traced_host&) = delete;
    traced_host& operator=(const traced_host&) = delete;

    // --- qtp::environment ---
    vtp::util::sim_time now() const override { return mono_ns(); }
    vtp::qtp::timer_id schedule(vtp::util::sim_time delay, std::function<void()> fn) override;
    void cancel(vtp::qtp::timer_id id) override { wheel_.cancel(id); }
    void send(vtp::packet::packet pkt) override;
    std::uint32_t local_addr() const override { return port_; }
    vtp::util::rng& random() override { return rng_; }
    void attach_dynamic(std::uint32_t flow_id, std::unique_ptr<vtp::qtp::agent> a) override;
    void detach_dynamic(std::uint32_t flow_id) override { agents_.erase(flow_id); }
    void set_default_agent(vtp::qtp::agent* a) override { default_agent_ = a; }
    std::uint32_t send_burst() const override { return 8; } // engine default

    /// Drop outgoing datagrams by `d` at flush (the lossy workload).
    void set_drop(drop_sequence* d) { drop_ = d; }
    /// Record every data segment a receiver agent is handed.
    void set_capture(std::vector<data_capture>* c) { capture_ = c; }

    /// One recvmmsg batch, each datagram decoded and dispatched.
    void receive();
    /// Fire due timers; the span's self time is the wheel's own work.
    void run_timers() {
        scoped_span s(log_, span_name::engine_timers, 0);
        wheel_.advance(mono_ns());
    }
    void flush();
    int fd() const { return fd_; }
    ns_t next_deadline() const { return wheel_.next_deadline_hint(); }
    /// Flows whose agent was attached or handed a packet since the last
    /// call. Timer callbacks do not count: a stalled receiver's feedback
    /// timer fires every wheel tick, and polling its session each time
    /// would swamp the ledger with load-generator work.
    void take_dirty(std::vector<std::uint32_t>& out);

    /// Attributes the caller's calls into the session of `flow` (and the
    /// timers they arm) to that session's agent.
    class api_scope {
    public:
        api_scope(traced_host& h, std::uint32_t flow);
        ~api_scope() { host_.cur_ = saved_; }
        api_scope(const api_scope&) = delete;
        api_scope& operator=(const api_scope&) = delete;

    private:
        traced_host& host_;
        context saved_;
    };

private:
    struct entry {
        std::unique_ptr<vtp::qtp::agent> agent;
        role r = role::listener;
        vtp::qtp::connection_receiver* rx = nullptr;
    };

    void dispatch(const std::uint8_t* dgram, std::size_t len);
    static span_name timer_span(role r);

    std::uint16_t port_;
    span_log& log_;
    vtp::util::rng rng_;
    int fd_ = -1;
    vtp::engine::timer_wheel wheel_;
    vtp::engine::buffer_pool pool_;
    vtp::engine::rx_batch rx_;
    std::vector<vtp::engine::tx_item> tx_pending_;
    std::vector<vtp::engine::tx_item> tx_out_;
    std::unordered_map<std::uint32_t, entry> agents_;
    vtp::qtp::agent* default_agent_ = nullptr;
    context cur_{};
    std::unordered_set<std::uint32_t> dirty_;
    drop_sequence* drop_ = nullptr;
    std::vector<data_capture>* capture_ = nullptr;
};

} // namespace perfbench
