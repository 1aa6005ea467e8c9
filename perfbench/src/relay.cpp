#include "relay.hpp"

#include <unistd.h>

#include "common.hpp"

namespace perfbench {

bool drop_sequence::next() {
    const std::uint64_t r = mix64(seed_ ^ mix64(draws_++));
    const bool drop = static_cast<double>(r >> 11) * 0x1.0p-53 < p_;
    drops_ += drop ? 1 : 0;
    return drop;
}

relay::relay(std::uint16_t listen_port, std::uint16_t target_port)
    : fd_(vtp::engine::open_udp_socket(listen_port, false, 1 << 21, 1 << 21)),
      target_(vtp::engine::loopback_addr(target_port)),
      rx_(64) {
    tx_.reserve(64);
}

relay::~relay() {
    if (fd_ >= 0) ::close(fd_);
}

std::size_t relay::pump() {
    std::size_t total = 0;
    for (;;) {
        const std::size_t n = vtp::engine::recv_batch(fd_, rx_);
        if (n == 0) return total;
        total += n;
        tx_.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (rx_.truncated(i) || drop_.next()) continue;
            tx_.push_back({rx_.data(i), rx_.len(i), target_});
        }
        if (!tx_.empty()) vtp::engine::send_batch(fd_, tx_.data(), tx_.size());
    }
}

} // namespace perfbench
