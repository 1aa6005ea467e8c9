#include "proc.hpp"

#include <sys/socket.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "engine/udp_io.hpp"

namespace perfbench {

std::vector<int> list_tids() {
    std::vector<int> out;
    for (const auto& e : std::filesystem::directory_iterator("/proc/self/task"))
        out.push_back(std::stoi(e.path().filename().string()));
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<int> new_tids(const std::vector<int>& before, const std::vector<int>& after) {
    std::vector<int> out;
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(out));
    return out;
}

std::uint64_t threads_cpu_ns(const std::vector<int>& tids) {
    std::uint64_t total = 0;
    for (const int tid : tids) {
        std::ifstream f("/proc/self/task/" + std::to_string(tid) + "/schedstat");
        std::uint64_t on_cpu = 0;
        if (f >> on_cpu) total += on_cpu;
    }
    return total;
}

std::uint64_t self_thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kb = 0.0;
            is >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::string kernel_release() {
    utsname u{};
    return ::uname(&u) == 0 ? std::string(u.release) : std::string("unknown");
}

unsigned online_cpus() { return std::max(1u, std::thread::hardware_concurrency()); }

bool udp_available() {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    ::close(fd);
    return true;
}

std::uint16_t pick_port_block(std::size_t n, std::uint64_t seed) {
    constexpr std::uint32_t lo = 20000;
    constexpr std::uint32_t hi = 60000;
    const std::uint32_t blocks = static_cast<std::uint32_t>((hi - lo) / n);
    const std::uint32_t start = static_cast<std::uint32_t>(
        mix64(seed ^ static_cast<std::uint64_t>(::getpid())) % blocks);
    for (std::uint32_t k = 0; k < blocks; ++k) {
        const auto base =
            static_cast<std::uint16_t>(lo + ((start + k) % blocks) * n);
        std::vector<int> fds;
        bool ok = true;
        for (std::size_t i = 0; i < n && ok; ++i) {
            try {
                fds.push_back(vtp::engine::open_udp_socket(
                    static_cast<std::uint16_t>(base + i), false));
            } catch (const std::exception&) {
                ok = false;
            }
        }
        for (const int fd : fds) ::close(fd);
        if (ok) return base;
    }
    throw std::runtime_error("no free block of loopback UDP ports");
}

} // namespace perfbench
