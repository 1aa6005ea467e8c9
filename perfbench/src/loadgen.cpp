#include "loadgen.hpp"

#include <algorithm>

namespace perfbench {

namespace {
/// Bulk sessions are fed in chunks with at most this much handed to the
/// transport beyond what the server application has received, so the
/// generator's buffers stay constant-size whatever the stream length.
constexpr std::uint64_t chunk_bytes = 256 * 1024;
constexpr std::uint64_t inflight_bytes = 1024 * 1024;
} // namespace

op_table::op_table(const workload& w, const plan& p, ns_t t0, double seconds)
    : w_(w), t0_(t0) {
    ops_.reserve(p.ops.size());
    for (const op_plan& o : p.ops) {
        op_state s;
        s.p = o;
        s.v = stream_verifier(o.key, o.bytes);
        by_flow_.emplace(o.flow, ops_.size());
        ops_.push_back(std::move(s));
    }
    if (w_.open_loop) {
        window_end_ = t0 + (ops_.empty() ? 0 : ops_.back().p.due);
    } else {
        window_end_ = t0 + static_cast<ns_t>(seconds * 1e9);
        slot_free_.assign(w_.slots, t0);
    }
}

void op_table::take_due(ns_t now, std::vector<std::size_t>& out) {
    if (w_.open_loop) {
        while (next_ < ops_.size() && t0_ + ops_[next_].p.due <= now) {
            op_state& o = ops_[next_];
            o.due = t0_ + o.p.due;
            o.issued = now;
            lag_ms_.push_back(static_cast<double>(now - o.due) / 1e6);
            out.push_back(next_++);
            ++issued_;
        }
        return;
    }
    if (!in_window(now)) return;
    for (std::size_t s = 0; s < slot_free_.size() && next_ < ops_.size(); ++s) {
        if (slot_free_[s] == 0) continue;
        op_state& o = ops_[next_];
        o.due = slot_free_[s];
        o.issued = now;
        o.slot = s;
        slot_free_[s] = 0;
        lag_ms_.push_back(static_cast<double>(now - o.due) / 1e6);
        out.push_back(next_++);
        ++issued_;
    }
}

ns_t op_table::next_due() const {
    if (!w_.open_loop || next_ >= ops_.size()) return 0;
    return t0_ + ops_[next_].p.due;
}

std::size_t op_table::find(std::uint32_t flow) const {
    const auto it = by_flow_.find(flow);
    return it == by_flow_.end() ? npos : it->second;
}

bool op_table::next_chunk(std::size_t i, std::uint64_t& off, std::size_t& len) const {
    const op_state& o = ops_[i];
    if (o.established == 0 || o.queued >= o.p.bytes) return false;
    const std::uint64_t remaining = o.p.bytes - o.queued;
    const std::uint64_t in_flight = o.queued - o.v.delivered();
    const std::uint64_t want = std::min(remaining, chunk_bytes);
    if (in_flight + want > inflight_bytes) return false;
    off = o.queued;
    len = static_cast<std::size_t>(want);
    return true;
}

bool op_table::ready_to_close(std::size_t i) const {
    const op_state& o = ops_[i];
    return o.established != 0 && !o.close_sent && o.queued == o.p.bytes;
}

bool op_table::on_chunk(std::uint32_t flow, std::uint64_t offset, const std::uint8_t* data,
                        std::size_t len, ns_t now) {
    const std::size_t i = find(flow);
    if (i == npos) return true;
    op_state& o = ops_[i];
    if (!o.v.on_chunk(offset, data, len)) {
        error_ = "flow " + std::to_string(flow) + ": " + o.v.error();
        return false;
    }
    const std::uint64_t pkts = packets_completed(offset, len);
    total_pkts_ += pkts;
    if (in_window(now)) {
        window_bytes_ += len;
        window_pkts_ += pkts;
    }
    return true;
}

bool op_table::on_fin(std::uint32_t flow, std::uint64_t len, ns_t now) {
    const std::size_t i = find(flow);
    if (i == npos) return true;
    op_state& o = ops_[i];
    if (o.issued == 0 || o.fin != 0 || !o.v.on_fin(len)) {
        error_ = "flow " + std::to_string(flow) + ": " +
                 (o.v.error().empty() ? std::string("unexpected fin") : o.v.error());
        return false;
    }
    o.fin = now;
    const std::uint64_t tail = fin_tail_packets(len);
    total_pkts_ += tail;
    if (in_window(now)) window_pkts_ += tail;
    if (o.complete()) ++completed_;
    return true;
}

void op_table::on_closed(std::uint32_t flow, ns_t now) {
    const std::size_t i = find(flow);
    if (i == npos || ops_[i].closed != 0) return;
    op_state& o = ops_[i];
    o.closed = now;
    if (o.complete()) ++completed_;
    if (!w_.open_loop) slot_free_[o.slot] = now;
}

bool op_table::done(ns_t now) const {
    const bool more = w_.open_loop ? next_ < ops_.size()
                                   : (in_window(now) && next_ < ops_.size());
    return !more && completed_ == issued_;
}

std::vector<double> op_table::deliver_ms() const {
    std::vector<double> out;
    for (const op_state& o : ops_)
        if (o.complete()) out.push_back(static_cast<double>(o.fin - o.due) / 1e6);
    return out;
}

std::vector<double> op_table::close_ms() const {
    std::vector<double> out;
    for (const op_state& o : ops_)
        if (o.complete()) out.push_back(static_cast<double>(o.closed - o.due) / 1e6);
    return out;
}

std::size_t op_table::late() const {
    if (w_.late_limit_ms <= 0.0) return 0;
    std::size_t n = 0;
    for (const op_state& o : ops_)
        if (o.complete() && static_cast<double>(o.fin - o.due) / 1e6 > w_.late_limit_ms) ++n;
    return n;
}

} // namespace perfbench
