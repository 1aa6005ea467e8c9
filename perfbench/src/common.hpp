// Shared definitions of the repository benchmark: the three workloads,
// the seeded operation plan, the payload pattern and its verifier, and
// the percentile rules every reported timing follows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using ns_t = std::int64_t;

/// CLOCK_MONOTONIC in ns — the clock the engine shards use, so event
/// stamps and engine timestamps are comparable.
ns_t mono_ns();

std::uint64_t mix64(std::uint64_t x);

/// Payload bytes per data packet for every session of every workload.
inline constexpr std::uint32_t packet_size = 1200;

enum class profile_kind : std::uint8_t { classic, light };

struct workload {
    std::string name;
    std::string why;
    bool open_loop = false;
    double rate_per_s = 0.0;      ///< open loop: Poisson arrival rate
    std::size_t slots = 0;        ///< closed loop: concurrent sessions
    std::uint64_t op_bytes = 0;   ///< stream length of one session
    double drop = 0.0;            ///< client->server drop probability
    bool alternate_light = false; ///< odd ops use QTPlight
    double late_limit_ms = 0.0;   ///< 0: no latency limit
};

const std::vector<workload>& all_workloads();
const workload* find_workload(const std::string& name);

/// One session of a run, as generated from the seed.
struct op_plan {
    std::uint32_t flow = 0;
    ns_t due = 0; ///< open loop: offset from the start of the measured phase
    profile_kind prof = profile_kind::classic;
    std::uint64_t bytes = 0;
    std::uint64_t key = 0; ///< payload pattern key
};

/// Everything the seed decides: arrivals, flow ids, profiles, payload
/// keys and the drop sequence seed. Open loop: max(min_ops, rate x
/// seconds) arrivals. Closed loop: a pool of ops handed out in order.
struct plan {
    std::vector<op_plan> ops;
    std::uint64_t drop_seed = 0;
};
plan make_plan(const workload& w, std::uint64_t seed, double seconds,
               std::size_t min_ops);

// --- payload pattern ------------------------------------------------------
inline std::uint8_t pattern_byte(std::uint64_t key, std::uint64_t offset) {
    return static_cast<std::uint8_t>(((offset ^ key) * 0x9e3779b97f4a7c15ULL) >> 56);
}
void fill_pattern(std::uint64_t key, std::uint64_t offset, std::uint8_t* out,
                  std::size_t n);

/// Checks one reliable stream: chunks must arrive in order, match the
/// pattern byte for byte, and the fin length must equal the bytes sent.
class stream_verifier {
public:
    stream_verifier() = default;
    stream_verifier(std::uint64_t key, std::uint64_t expect_len)
        : key_(key), expect_(expect_len) {}

    /// False (with error() set) on a gap, overlap, overrun or mismatch.
    bool on_chunk(std::uint64_t offset, const std::uint8_t* data, std::size_t len);
    /// False (with error() set) unless `len` equals the bytes sent and
    /// every one of them was delivered.
    bool on_fin(std::uint64_t len);

    std::uint64_t delivered() const { return next_; }
    const std::string& error() const { return error_; }

private:
    std::uint64_t key_ = 0;
    std::uint64_t expect_ = 0;
    std::uint64_t next_ = 0;
    std::string error_;
};

/// Payload packets a chunk [offset, offset+len) completes, counting
/// packet boundaries at multiples of packet_size; the final short packet
/// of a stream is counted by fin_tail_packets().
std::uint64_t packets_completed(std::uint64_t offset, std::uint64_t len);
std::uint64_t fin_tail_packets(std::uint64_t stream_len);

// --- percentiles ------------------------------------------------------------
/// Nearest-rank q-quantile, reported only when at least `min_beyond`
/// samples rank beyond it; nullopt otherwise.
std::optional<double> supported_percentile(std::vector<double> v, double q,
                                           std::size_t min_beyond = 10);
/// The highest of p99 / p90 / p50 that supported_percentile() reports,
/// with the quantile it used.
std::optional<std::pair<double, double>> tail_percentile(const std::vector<double>& v);
double median(std::vector<double> v);

/// Histogram buckets as (inclusive upper bound, count), ascending — the
/// shape trace::histogram::nonzero_buckets() returns.
using buckets = std::map<std::uint64_t, std::uint64_t>;
buckets bucket_delta(const buckets& later, const buckets& earlier);
/// q-quantile with linear interpolation inside the bucket that holds it
/// (0 when empty).
double bucket_quantile(const buckets& b, double q);
std::uint64_t bucket_total(const buckets& b);

} // namespace perfbench
