// The traced run: the same workload, same seed, replayed on two
// traced_hosts (server and client side) driven by one thread, with the
// generator's own calls into vtp::session spanned as api.*. Also replays
// the data segments the receivers saw into fresh sack::reassembly and
// tfrc::loss_history instances to split core.rx_data by module.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "host.hpp"
#include "ledger.hpp"

namespace perfbench {

struct traced_result {
    std::string error; ///< non-empty: a correctness failure
    double busy_ns = 0.0; ///< host loop wall time outside the poll wait
    ledger_summary ledger;
    std::size_t spans = 0;
    std::uint64_t payload_pkts = 0;
    // session_stats, summed over closed sessions
    std::uint64_t rtx_bytes = 0;
    std::uint64_t stream_bytes_sent = 0;
    std::uint64_t feedback_sent = 0;
    std::uint64_t packets_received = 0;
    double loss_rate_sum = 0.0;
    std::size_t loss_rate_n = 0;
    // sub-layer replay, mean ns per call
    double reassembly_ns = 0.0;
    double loss_history_ns = 0.0;
    std::uint64_t replay_calls = 0;
};

/// Replay `p` on traced hosts. Ops still open `drain_s` after the last
/// one started are abandoned (the traced run only feeds the ledger).
/// With `spans_on`, spans are written to `span_path` (if non-empty).
traced_result run_traced(const workload& w, const plan& p, std::uint16_t server_port,
                         std::uint16_t client_port, double seconds, double drain_s,
                         bool spans_on, std::uint64_t seed, const std::string& span_path);

} // namespace perfbench
