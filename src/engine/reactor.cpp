#include "engine/reactor.hpp"

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <stdexcept>

#ifdef __linux__
#include <sys/epoll.h>
#include <unistd.h>
#else
#include <poll.h>
#endif

namespace vtp::engine {

namespace {

// `timeout` as a timespec (negative clamps to zero). Callers pass no
// timespec at all for util::time_never.
timespec to_timespec(util::sim_time timeout) {
    const util::sim_time t = timeout > 0 ? timeout : 0;
    timespec ts{};
    ts.tv_sec = static_cast<std::time_t>(t / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(t % 1'000'000'000);
    return ts;
}

// The ms-rounded timeout of the fallback waits (epoll_wait, poll):
// rounded up so we never spin-wake before a deadline; -1 (block) for no
// timespec.
[[maybe_unused]] int fallback_timeout_ms(const timespec* wait) {
    if (wait == nullptr) return -1;
    const std::time_t ms = wait->tv_sec * 1000 + (wait->tv_nsec + 999'999) / 1'000'000;
    return static_cast<int>(std::min<std::time_t>(ms, 60'000));
}

} // namespace

#ifdef __linux__

reactor::reactor() {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) throw std::runtime_error("reactor: epoll_create1() failed");
}

reactor::~reactor() {
    if (epfd_ >= 0) ::close(epfd_);
}

void reactor::add_fd(int fd, std::function<void()> on_readable) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
        throw std::runtime_error("reactor: epoll_ctl(ADD) failed");
    handlers_[fd] = std::move(on_readable);
}

void reactor::remove_fd(int fd) {
    if (handlers_.erase(fd) > 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

int reactor::poll_once(util::sim_time timeout) {
    epoll_event events[32];
    const timespec ts = to_timespec(timeout);
    const timespec* wait = timeout == util::time_never ? nullptr : &ts;
    int n = -1;
    if (!pwait2_unavailable_) {
        n = ::epoll_pwait2(epfd_, events, 32, wait, nullptr);
        // Not in the kernel (ENOSYS, pre-5.11) or refused by a seccomp
        // filter (EPERM): wait in whole milliseconds from now on.
        if (n < 0 && errno != EINTR) pwait2_unavailable_ = true;
    }
    if (pwait2_unavailable_) n = ::epoll_wait(epfd_, events, 32, fallback_timeout_ms(wait));
    int dispatched = 0;
    for (int i = 0; i < n; ++i) {
        // Re-look-up per event: a callback may remove another fd.
        const auto it = handlers_.find(events[i].data.fd);
        if (it == handlers_.end()) continue;
        it->second();
        ++dispatched;
    }
    return dispatched;
}

#else // ppoll(2) fallback; poll(2) on macOS, which has no ppoll

reactor::reactor() = default;
reactor::~reactor() = default;

void reactor::add_fd(int fd, std::function<void()> on_readable) {
    handlers_[fd] = std::move(on_readable);
}

void reactor::remove_fd(int fd) { handlers_.erase(fd); }

int reactor::poll_once(util::sim_time timeout) {
    std::vector<pollfd> pfds;
    pfds.reserve(handlers_.size());
    for (const auto& [fd, cb] : handlers_) pfds.push_back(pollfd{fd, POLLIN, 0});
    const timespec ts = to_timespec(timeout);
    const timespec* wait = timeout == util::time_never ? nullptr : &ts;
#ifdef __APPLE__
    const int ready =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), fallback_timeout_ms(wait));
#else
    const int ready = ::ppoll(pfds.data(), static_cast<nfds_t>(pfds.size()), wait, nullptr);
#endif
    int dispatched = 0;
    if (ready > 0) {
        for (const auto& p : pfds) {
            if ((p.revents & POLLIN) == 0) continue;
            const auto it = handlers_.find(p.fd);
            if (it == handlers_.end()) continue;
            it->second();
            ++dispatched;
        }
    }
    return dispatched;
}

#endif

} // namespace vtp::engine
