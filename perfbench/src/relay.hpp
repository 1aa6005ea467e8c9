// The lossy workload's client->server relay. The client engine sends to
// the relay port; the relay forwards each datagram unchanged to the
// server port unless the seeded drop sequence says otherwise. The
// framing header carries the client's port, so server->client feedback
// bypasses the relay.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/udp_io.hpp"

namespace perfbench {

/// Seeded Bernoulli draws: the k-th decision depends only on (seed, k).
class drop_sequence {
public:
    drop_sequence(std::uint64_t seed, double p) : seed_(seed), p_(p) {}
    /// True: drop the next datagram.
    bool next();
    std::uint64_t drops() const { return drops_; }

private:
    std::uint64_t seed_;
    double p_;
    std::uint64_t draws_ = 0;
    std::uint64_t drops_ = 0;
};

class relay {
public:
    /// Binds 127.0.0.1:`listen_port` (throws std::runtime_error) and
    /// forwards to 127.0.0.1:`target_port`, transparent until arm().
    relay(std::uint16_t listen_port, std::uint16_t target_port);
    ~relay();
    relay(const relay&) = delete;
    relay& operator=(const relay&) = delete;

    /// Start dropping with probability `p` from a fresh sequence.
    void arm(std::uint64_t seed, double p) { drop_ = drop_sequence(seed, p); }

    /// Forward everything readable now; returns datagrams received.
    std::size_t pump();
    int fd() const { return fd_; }
    std::uint64_t dropped() const { return drop_.drops(); }

private:
    int fd_ = -1;
    sockaddr_in target_{};
    vtp::engine::rx_batch rx_;
    std::vector<vtp::engine::tx_item> tx_;
    drop_sequence drop_{0, 0.0};
};

} // namespace perfbench
