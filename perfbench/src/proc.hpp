// Process introspection for the benchmark: per-thread CPU from
// /proc/self/task, peak RSS, host facts for the run record, and the
// choice of a free block of loopback UDP ports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::vector<int> list_tids();
/// Thread ids in `after` that are not in `before`.
std::vector<int> new_tids(const std::vector<int>& before, const std::vector<int>& after);
/// CPU time of the given threads of this process (schedstat, ns).
std::uint64_t threads_cpu_ns(const std::vector<int>& tids);
/// CPU time of the calling thread, ns.
std::uint64_t self_thread_cpu_ns();
double peak_rss_mb();

std::string kernel_release();
unsigned online_cpus();

/// False when this host cannot open a UDP socket at all.
bool udp_available();
/// First port of `n` consecutive loopback UDP ports that could all be
/// bound just now, searched from a seed-dependent start. Throws
/// std::runtime_error when no block is free.
std::uint16_t pick_port_block(std::size_t n, std::uint64_t seed);

} // namespace perfbench
