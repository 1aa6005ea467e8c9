// The load generator's bookkeeping, shared by the live-engine run and
// the traced replay: which op is due, what payload to hand the transport
// next, byte-exact verification of what the server application
// received, and per-op timestamps. The runners only move bytes and
// events between this table and their transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct op_state {
    op_plan p;
    ns_t due = 0;     ///< absolute due time
    ns_t issued = 0;  ///< connect() called
    ns_t established = 0;
    ns_t fin = 0;     ///< fin drained at the server (verified)
    ns_t closed = 0;  ///< client closed event drained
    std::uint64_t queued = 0; ///< bytes handed to the transport
    bool close_sent = false;
    std::size_t slot = 0; ///< closed loop: which concurrent slot
    stream_verifier v;

    bool complete() const { return fin != 0 && closed != 0; }
};

class op_table {
public:
    /// The measured window starts at `t0`: open loop, it lasts until the
    /// last op is due; closed loop, `seconds` long, with new ops started
    /// only inside it.
    op_table(const workload& w, const plan& p, ns_t t0, double seconds);

    ns_t window_end() const { return window_end_; }
    bool in_window(ns_t now) const { return now < window_end_; }

    /// Ops to connect now (appended to `out`); records generator lag.
    void take_due(ns_t now, std::vector<std::size_t>& out);
    /// Earliest future due time of the open loop (0 when none).
    ns_t next_due() const;

    op_state& op(std::size_t i) { return ops_[i]; }
    std::size_t find(std::uint32_t flow) const;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Next payload chunk of op `i` to hand over, within the in-flight
    /// window; false when nothing should be sent now. The caller fills
    /// `len` bytes from fill_pattern(op.p.key, off, ...) and, once the
    /// transport took them, calls sent().
    bool next_chunk(std::size_t i, std::uint64_t& off, std::size_t& len) const;
    void sent(std::size_t i, std::size_t len) { ops_[i].queued += len; }
    bool ready_to_close(std::size_t i) const;

    void on_established(std::size_t i, ns_t now) { ops_[i].established = now; }
    /// Server application received a chunk of `flow`. False on a
    /// verification failure (error() says why); unknown flows are
    /// ignored (warm-up sessions).
    bool on_chunk(std::uint32_t flow, std::uint64_t offset, const std::uint8_t* data,
                  std::size_t len, ns_t now);
    bool on_fin(std::uint32_t flow, std::uint64_t len, ns_t now);
    void on_closed(std::uint32_t flow, ns_t now);

    /// Every op that will ever start has started and completed.
    bool done(ns_t now) const;

    const std::string& error() const { return error_; }
    std::size_t attempted() const { return issued_; }
    std::size_t completed() const { return completed_; }
    std::uint64_t window_bytes() const { return window_bytes_; }
    std::uint64_t window_pkts() const { return window_pkts_; }
    std::uint64_t total_pkts() const { return total_pkts_; }
    const std::vector<double>& lag_ms() const { return lag_ms_; }
    /// Latency samples of completed ops, ms from their due time.
    std::vector<double> deliver_ms() const;
    std::vector<double> close_ms() const;
    /// Completed ops whose fin came later than the workload's limit.
    std::size_t late() const;
    const std::vector<op_state>& ops() const { return ops_; }

private:
    const workload& w_;
    std::vector<op_state> ops_;
    std::unordered_map<std::uint32_t, std::size_t> by_flow_;
    ns_t t0_;
    ns_t window_end_;
    std::size_t next_ = 0;   ///< next op of the plan to start
    std::size_t issued_ = 0;
    std::size_t completed_ = 0;
    std::vector<ns_t> slot_free_; ///< closed loop: when each slot became free (0 = busy)
    std::uint64_t window_bytes_ = 0;
    std::uint64_t window_pkts_ = 0;
    std::uint64_t total_pkts_ = 0;
    std::vector<double> lag_ms_;
    std::string error_;
};

} // namespace perfbench
