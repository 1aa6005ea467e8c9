// Readiness reactor: epoll(7) on Linux (O(1) per wait, no per-iteration
// fd-set rebuild), ppoll(2) elsewhere (poll(2) on macOS). One reactor per shard thread and
// one behind the legacy net::event_loop. Level-triggered: a callback
// that does not fully drain its fd simply runs again next turn, which
// is how shards bound their per-turn receive work without losing data.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace vtp::engine {

class reactor {
public:
    reactor();
    ~reactor();

    reactor(const reactor&) = delete;
    reactor& operator=(const reactor&) = delete;

    /// Watch `fd` for readability. One callback per fd.
    void add_fd(int fd, std::function<void()> on_readable);
    void remove_fd(int fd);

    /// Block up to `timeout` (nanoseconds; 0 or negative = poll,
    /// util::time_never = block indefinitely), then dispatch every
    /// readable fd's callback. Returns the number of callbacks dispatched.
    ///
    /// The sleep honours `timeout` at nanosecond resolution (epoll_pwait2
    /// on Linux, ppoll elsewhere), up to the kernel's timer slack: a shard
    /// that sleeps until its next timer-wheel deadline wakes within
    /// microseconds of it, which is what keeps rate-paced senders on their
    /// schedule. Where epoll_pwait2 fails (ENOSYS on a pre-5.11 kernel,
    /// EPERM under a seccomp filter that does not list it), the reactor
    /// falls back for good to epoll_wait, rounded up to whole
    /// milliseconds; macOS, which has no ppoll, uses poll(2) the same way.
    int poll_once(util::sim_time timeout);

private:
    std::unordered_map<int, std::function<void()>> handlers_;
#ifdef __linux__
    int epfd_ = -1;
    /// epoll_pwait2 failed once: every later wait uses epoll_wait.
    bool pwait2_unavailable_ = false;
#endif
};

} // namespace vtp::engine
