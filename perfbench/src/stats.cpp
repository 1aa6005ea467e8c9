#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "common.hpp"
#include "trace/metrics.hpp"

namespace perfbench {

ns_t mono_ns() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<ns_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

const std::vector<workload>& all_workloads() {
    static const std::vector<workload> w = [] {
        std::vector<workload> v;
        workload bulk;
        bulk.name = "bulk";
        bulk.why = "4 concurrent 12 MB reliable streams on clean loopback: the "
                   "steady-state datapath (I/O, codec, pacing, in-order ingest, "
                   "feedback) does nearly all the work";
        bulk.slots = 4;
        bulk.op_bytes = 12ull << 20;
        v.push_back(bulk);

        workload churn;
        churn.name = "churn";
        churn.why = "open loop, 200 sessions/s of one 16 KB stream each: handshake, "
                    "accept, FIN exchange and reaping dominate; pacing and "
                    "reassembly barely run";
        churn.open_loop = true;
        churn.rate_per_s = 200.0;
        churn.op_bytes = 16 * 1024;
        churn.late_limit_ms = 50.0;
        v.push_back(churn);

        workload lossy;
        lossy.name = "lossy";
        lossy.why = "open loop, 50 sessions/s of 64 KB, 2% seeded client->server "
                    "drop, reliable and QTPlight alternating: holes, SACK, "
                    "retransmission and loss intervals at both estimation loci";
        lossy.open_loop = true;
        lossy.rate_per_s = 50.0;
        lossy.op_bytes = 64 * 1024;
        lossy.drop = 0.02;
        lossy.alternate_light = true;
        lossy.late_limit_ms = 1000.0;
        v.push_back(lossy);
        return v;
    }();
    return w;
}

const workload* find_workload(const std::string& name) {
    for (const workload& w : all_workloads())
        if (w.name == name) return &w;
    return nullptr;
}

plan make_plan(const workload& w, std::uint64_t seed, double seconds,
               std::size_t min_ops) {
    plan p;
    std::uint64_t state = mix64(seed ^ 0x7065726662656e63ULL);
    const auto next = [&state] { return mix64(state++); };
    p.drop_seed = next();

    std::size_t n = 0;
    if (w.open_loop)
        n = std::max(min_ops, static_cast<std::size_t>(std::llround(w.rate_per_s * seconds)));
    else
        n = w.slots * 256; // far more than one run can finish
    std::unordered_set<std::uint32_t> used;
    double t = 0.0;
    p.ops.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        op_plan op;
        do {
            op.flow = 0x10000000u + static_cast<std::uint32_t>(next() % 0x40000000u);
        } while (!used.insert(op.flow).second);
        if (w.open_loop) {
            // Exponential gaps from a 53-bit uniform in (0, 1].
            const double u =
                (static_cast<double>(next() >> 11) + 1.0) / 9007199254740992.0;
            t += -std::log(u) / w.rate_per_s;
            op.due = static_cast<ns_t>(t * 1e9);
        }
        op.prof = w.alternate_light && (i % 2 == 1) ? profile_kind::light
                                                    : profile_kind::classic;
        op.bytes = w.op_bytes;
        op.key = next();
        p.ops.push_back(op);
    }
    return p;
}

void fill_pattern(std::uint64_t key, std::uint64_t offset, std::uint8_t* out,
                  std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = pattern_byte(key, offset + i);
}

bool stream_verifier::on_chunk(std::uint64_t offset, const std::uint8_t* data,
                               std::size_t len) {
    if (!error_.empty()) return false;
    if (offset != next_) {
        error_ = "chunk at offset " + std::to_string(offset) + ", expected " +
                 std::to_string(next_);
        return false;
    }
    if (offset + len > expect_) {
        error_ = "chunk runs past the " + std::to_string(expect_) + " bytes sent";
        return false;
    }
    for (std::size_t i = 0; i < len; ++i) {
        if (data[i] != pattern_byte(key_, offset + i)) {
            error_ = "payload byte mismatch at offset " + std::to_string(offset + i);
            return false;
        }
    }
    next_ += len;
    return true;
}

bool stream_verifier::on_fin(std::uint64_t len) {
    if (!error_.empty()) return false;
    if (len != expect_ || next_ != expect_) {
        error_ = "fin length " + std::to_string(len) + " with " +
                 std::to_string(next_) + " bytes delivered, " +
                 std::to_string(expect_) + " sent";
        return false;
    }
    return true;
}

std::uint64_t packets_completed(std::uint64_t offset, std::uint64_t len) {
    return (offset + len) / packet_size - offset / packet_size;
}

std::uint64_t fin_tail_packets(std::uint64_t stream_len) {
    return stream_len % packet_size != 0 ? 1 : 0;
}

std::optional<double> supported_percentile(std::vector<double> v, double q,
                                           std::size_t min_beyond) {
    if (v.empty()) return std::nullopt;
    const std::size_t n = v.size();
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < min_beyond) return std::nullopt;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
    return v[rank - 1];
}

std::optional<std::pair<double, double>> tail_percentile(const std::vector<double>& v) {
    for (const double q : {0.99, 0.90, 0.50})
        if (const auto x = supported_percentile(v, q)) return std::make_pair(q, *x);
    return std::nullopt;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

buckets bucket_delta(const buckets& later, const buckets& earlier) {
    buckets out;
    for (const auto& [upper, count] : later) {
        const auto it = earlier.find(upper);
        const std::uint64_t before = it == earlier.end() ? 0 : it->second;
        if (count > before) out[upper] = count - before;
    }
    return out;
}

std::uint64_t bucket_total(const buckets& b) {
    std::uint64_t n = 0;
    for (const auto& [upper, count] : b) n += count;
    return n;
}

double bucket_quantile(const buckets& b, double q) {
    const std::uint64_t n = bucket_total(b);
    if (n == 0) return 0.0;
    const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
    double seen = 0.0;
    for (const auto& [upper, count] : b) {
        if (seen + static_cast<double>(count) >= target) {
            const std::size_t idx = vtp::trace::histogram::bucket_index(upper);
            const double lower =
                idx == 0 ? 0.0
                         : static_cast<double>(vtp::trace::histogram::bucket_upper(idx - 1) + 1);
            const double frac = (target - seen) / static_cast<double>(count);
            return lower + frac * (static_cast<double>(upper) + 1.0 - lower);
        }
        seen += static_cast<double>(count);
    }
    return static_cast<double>(b.rbegin()->first);
}

} // namespace perfbench
