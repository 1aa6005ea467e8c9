// In-memory span recorder of the traced run. A span has a name, a start,
// an end, the span that caused it and the flow id as request id. Spans
// nest strictly (one thread), so a span's self time is its duration
// minus the durations of its direct children.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

enum class span_name : std::uint8_t {
    io_recv,
    io_send,
    packet_decode,
    packet_encode,
    core_rx_data_classic,
    core_rx_data_light,
    core_rx_timer,
    core_tx_feedback,
    core_tx_timer,
    core_handshake,
    api_connect,
    api_send,
    api_poll,
    bench_verify,
    bench_generate,
    engine_timers,
    count_
};
inline constexpr std::size_t span_kinds = static_cast<std::size_t>(span_name::count_);
const char* span_label(span_name n);

struct span_record {
    ns_t start = 0;
    ns_t end = 0;
    std::uint32_t parent = 0; ///< index + 1 of the parent; 0 = top level
    std::uint32_t flow = 0;
    span_name name = span_name::io_recv;
};

class span_log {
public:
    /// A disabled log records nothing and reads no clock.
    explicit span_log(bool enabled) : enabled_(enabled) {
        if (enabled_) records_.reserve(1 << 20);
    }

    bool enabled() const { return enabled_; }

    std::uint32_t open(span_name n, std::uint32_t flow) {
        if (!enabled_) return 0;
        span_record r;
        r.parent = stack_.empty() ? 0 : stack_.back() + 1;
        r.flow = flow;
        r.name = n;
        const auto id = static_cast<std::uint32_t>(records_.size());
        stack_.push_back(id);
        r.start = mono_ns();
        records_.push_back(r);
        return id;
    }

    void close(std::uint32_t id) {
        if (!enabled_) return;
        records_[id].end = mono_ns();
        stack_.pop_back();
    }

    const std::vector<span_record>& records() const { return records_; }
    /// Dump the records as raw span_record structs.
    bool write(const std::string& path) const;

private:
    bool enabled_;
    std::vector<span_record> records_;
    std::vector<std::uint32_t> stack_;
};

class scoped_span {
public:
    scoped_span(span_log& log, span_name n, std::uint32_t flow)
        : log_(log), id_(log.open(n, flow)) {}
    ~scoped_span() { log_.close(id_); }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_log& log_;
    std::uint32_t id_;
};

struct span_totals {
    std::uint64_t calls = 0;
    double self_ns = 0.0;
};

struct ledger_summary {
    std::array<span_totals, span_kinds> by_name{};
    double top_level_ns = 0.0; ///< wall time covered by top-level spans
};
ledger_summary summarize(const std::vector<span_record>& spans);

} // namespace perfbench
