#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <variant>

#include "core/connection.hpp"
#include "packet/wire.hpp"

namespace perfbench {

namespace vp = vtp::packet;

traced_host::traced_host(std::uint16_t port, std::uint64_t rng_seed, span_log& log)
    : port_(port),
      log_(log),
      rng_(rng_seed),
      fd_(vtp::engine::open_udp_socket(port, false, 1 << 21, 1 << 21)),
      wheel_(mono_ns()),
      pool_(4096, vtp::engine::max_datagram),
      rx_(64) {
    tx_pending_.reserve(64);
    tx_out_.reserve(64);
}

traced_host::~traced_host() {
    // Agents cancel their timers on destruction; tear them down while
    // the wheel still exists.
    agents_.clear();
    if (fd_ >= 0) ::close(fd_);
}

traced_host::api_scope::api_scope(traced_host& h, std::uint32_t flow)
    : host_(h), saved_(h.cur_) {
    const auto it = h.agents_.find(flow);
    h.cur_ = context{it == h.agents_.end() ? role::listener : it->second.r, flow};
}

span_name traced_host::timer_span(role r) {
    switch (r) {
    case role::receiver: return span_name::core_rx_timer;
    case role::sender: return span_name::core_tx_timer;
    case role::listener: break;
    }
    return span_name::core_handshake;
}

vtp::qtp::timer_id traced_host::schedule(vtp::util::sim_time delay, std::function<void()> fn) {
    const context c = cur_;
    return wheel_.schedule_at(
        mono_ns() + std::max<vtp::util::sim_time>(delay, 0),
        [this, c, fn = std::move(fn)] {
            const context saved = cur_;
            cur_ = c;
            {
                scoped_span s(log_, timer_span(c.r), c.flow);
                fn();
            }
            cur_ = saved;
        });
}

void traced_host::attach_dynamic(std::uint32_t flow_id, std::unique_ptr<vtp::qtp::agent> a) {
    vtp::qtp::agent* raw = a.get();
    entry e;
    e.rx = dynamic_cast<vtp::qtp::connection_receiver*>(raw);
    e.r = e.rx != nullptr ? role::receiver
          : dynamic_cast<vtp::qtp::connection_sender*>(raw) != nullptr ? role::sender
                                                                       : role::listener;
    e.agent = std::move(a);
    const role r = e.r;
    agents_[flow_id] = std::move(e);
    const context saved = cur_;
    cur_ = context{r, flow_id};
    raw->start(*this);
    cur_ = saved;
    dirty_.insert(flow_id);
}

void traced_host::send(vp::packet pkt) {
    {
        scoped_span s(log_, span_name::packet_encode, pkt.flow_id);
        std::uint8_t* buf = pool_.acquire();
        if (buf == nullptr) return; // unreachable: at most 64 of 4096 buffers are pending
        const std::uint32_t flow = pkt.flow_id;
        for (int i = 0; i < 4; ++i) buf[i] = static_cast<std::uint8_t>(flow >> (24 - 8 * i));
        for (int i = 0; i < 4; ++i) buf[4 + i] = static_cast<std::uint8_t>(port_ >> (24 - 8 * i));
        std::size_t body = 0;
        try {
            body = vp::encode_segment_into(*pkt.body, buf + 8, vtp::engine::max_datagram - 8);
        } catch (const std::length_error&) {
            pool_.release(buf);
            return;
        }
        tx_pending_.push_back(vtp::engine::tx_item{
            buf, 8 + body, vtp::engine::loopback_addr(static_cast<std::uint16_t>(pkt.dst))});
    }
    if (tx_pending_.size() >= 64) flush();
}

void traced_host::flush() {
    if (tx_pending_.empty()) return;
    tx_out_.clear();
    for (const vtp::engine::tx_item& it : tx_pending_)
        if (drop_ == nullptr || !drop_->next()) tx_out_.push_back(it);
    if (!tx_out_.empty()) {
        scoped_span s(log_, span_name::io_send, 0);
        vtp::engine::send_batch(fd_, tx_out_.data(), tx_out_.size());
    }
    for (const vtp::engine::tx_item& it : tx_pending_)
        pool_.release(const_cast<std::uint8_t*>(it.data));
    tx_pending_.clear();
}

void traced_host::receive() {
    std::size_t n = 0;
    {
        scoped_span s(log_, span_name::io_recv, 0);
        n = vtp::engine::recv_batch(fd_, rx_);
    }
    for (std::size_t i = 0; i < n; ++i)
        if (!rx_.truncated(i) && rx_.len(i) >= 8) dispatch(rx_.data(i), rx_.len(i));
}

void traced_host::dispatch(const std::uint8_t* dgram, std::size_t len) {
    std::uint32_t flow = 0;
    std::uint32_t src = 0;
    for (int i = 0; i < 4; ++i) flow = (flow << 8) | dgram[i];
    for (int i = 4; i < 8; ++i) src = (src << 8) | dgram[i];
    vp::packet pkt;
    pkt.flow_id = flow;
    pkt.src = src;
    pkt.dst = port_;
    try {
        scoped_span s(log_, span_name::packet_decode, flow);
        pkt.body = std::make_shared<const vp::segment>(vp::decode_segment(dgram + 8, len - 8));
        pkt.size_bytes = vp::wire_size(*pkt.body);
    } catch (const std::exception&) {
        return;
    }

    vtp::qtp::agent* target = default_agent_;
    context c{role::listener, flow};
    span_name name = span_name::core_handshake;
    const auto it = agents_.find(flow);
    if (it != agents_.end()) {
        target = it->second.agent.get();
        c.r = it->second.r;
        const vp::segment& body = *pkt.body;
        if (c.r == role::receiver && (std::holds_alternative<vp::data_segment>(body) ||
                                      std::holds_alternative<vp::data_stream_segment>(body))) {
            const bool light = it->second.rx->active_profile().estimation ==
                               vtp::tfrc::estimation_mode::sender_side;
            name = light ? span_name::core_rx_data_light : span_name::core_rx_data_classic;
            const auto* d = std::get_if<vp::data_segment>(&body);
            if (capture_ != nullptr && d != nullptr)
                capture_->push_back(data_capture{flow, d->seq, d->byte_offset, d->payload_len,
                                                 d->end_of_stream, mono_ns(), d->rtt_estimate});
        } else if (c.r == role::sender &&
                   (std::holds_alternative<vp::sack_feedback_segment>(body) ||
                    std::holds_alternative<vp::tfrc_feedback_segment>(body))) {
            name = span_name::core_tx_feedback;
        }
    }
    if (target == nullptr) return;
    const context saved = cur_;
    cur_ = c;
    {
        scoped_span s(log_, name, flow);
        target->on_packet(pkt);
    }
    cur_ = saved;
    dirty_.insert(flow);
}

void traced_host::take_dirty(std::vector<std::uint32_t>& out) {
    out.assign(dirty_.begin(), dirty_.end());
    dirty_.clear();
}

} // namespace perfbench
