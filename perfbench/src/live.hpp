// The untraced run: a 2-shard engine::server, a 1-shard client
// engine::server hosting every client session, and one thread that
// generates the load, verifies it and, on lossy, runs the drop relay, all
// in one process. Produces the end-to-end metrics and the engine.* layer
// numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"

namespace perfbench {

struct port_block {
    std::uint16_t server = 0;
    std::uint16_t client = 0;
    std::uint16_t relay = 0;
    std::uint16_t traced_server = 0;
    std::uint16_t traced_client = 0;
    static constexpr std::size_t size = 5;
    static port_block from_base(std::uint16_t base) {
        return {base, static_cast<std::uint16_t>(base + 1),
                static_cast<std::uint16_t>(base + 2), static_cast<std::uint16_t>(base + 3),
                static_cast<std::uint16_t>(base + 4)};
    }
};

struct engine_layer {
    double handoff_frac = 0.0;
    double rx_batch_fill = 0.0;
    double tx_batch_fill = 0.0;
    double turns_per_pkt = 0.0;
    double turn_p50_ns = 0.0;
    double turn_p99_ns = 0.0;
    double timer_late_p99_ns = 0.0;
    double event_ring_max = 0.0;
    double server_cpu_frac = 0.0;
    double client_cpu_frac = 0.0;
    double wire_per_payload_pkt = 0.0;
    std::uint64_t drops = 0;
};

struct live_result {
    std::string error; ///< non-empty: a correctness failure
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t late = 0;
    double window_s = 0.0;
    std::uint64_t window_bytes = 0;
    std::uint64_t window_pkts = 0;
    double engine_cpu_ns = 0.0; ///< shard threads of both engines, in the window
    double generator_cpu_ns = 0.0;
    std::vector<double> setup_s;
    std::vector<double> deliver_ms;
    std::vector<double> close_ms;
    std::vector<double> lag_ms;
    std::vector<op_state> ops; ///< every op of the plan, for the per-op record
    engine_layer layer;
};

/// Run `p` on live engines. Set-up (engines, relay, warm-up session) is
/// repeated `setup_reps` times and timed each time; the last instance
/// carries the measured phase. Ops still incomplete `deadline_s` after
/// the phase started count as failed.
live_result run_live(const workload& w, const plan& p, const port_block& ports,
                     double seconds, std::size_t setup_reps, double deadline_s,
                     std::uint64_t seed);

} // namespace perfbench
