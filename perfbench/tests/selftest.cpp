// Self-tests of the benchmark's own machinery: the verifier, the
// percentile rule, span self-time arithmetic and the drop relay.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "ledger.hpp"
#include "proc.hpp"
#include "relay.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
    }
}

void verifier_catches_flipped_byte_and_short_fin() {
    const std::uint64_t key = 0xabcdef;
    std::vector<std::uint8_t> data(3000);
    fill_pattern(key, 0, data.data(), data.size());

    stream_verifier good(key, data.size());
    check(good.on_chunk(0, data.data(), 1200), "clean chunk accepted");
    check(good.on_chunk(1200, data.data() + 1200, 1800), "clean tail accepted");
    check(good.on_fin(3000), "exact fin accepted");

    std::vector<std::uint8_t> flipped = data;
    flipped[1717] ^= 0x01;
    stream_verifier bad(key, data.size());
    check(bad.on_chunk(0, flipped.data(), 1200), "chunk before the flip accepted");
    check(!bad.on_chunk(1200, flipped.data() + 1200, 1800), "flipped byte caught");

    stream_verifier short_fin(key, data.size());
    check(short_fin.on_chunk(0, data.data(), 3000), "whole stream accepted");
    check(!short_fin.on_fin(2999), "short fin length caught");

    stream_verifier undelivered(key, data.size());
    check(undelivered.on_chunk(0, data.data(), 1200), "partial stream accepted");
    check(!undelivered.on_fin(3000), "fin before all bytes arrived caught");

    stream_verifier gap(key, data.size());
    check(!gap.on_chunk(1200, data.data() + 1200, 100), "gap caught");
}

void percentile_needs_ten_samples_beyond() {
    std::vector<double> v;
    for (int i = 1; i <= 999; ++i) v.push_back(i);
    check(!supported_percentile(v, 0.99).has_value(), "p99 of 999 samples withheld");
    v.push_back(1000);
    const auto p99 = supported_percentile(v, 0.99);
    check(p99.has_value() && *p99 == 990.0, "p99 of 1000 samples is rank 990");
    std::vector<double> small(19, 1.0);
    check(!supported_percentile(small, 0.5).has_value(), "p50 of 19 samples withheld");
    small.push_back(2.0);
    check(supported_percentile(small, 0.5).has_value(), "p50 of 20 samples reported");
    const auto tail = tail_percentile(small);
    check(tail.has_value() && tail->first == 0.5, "tail of 20 samples falls back to p50");
}

void span_self_time_of_nested_spans() {
    // a [0,100) holds b [10,40) and c [50,90); b holds d [15,25).
    std::vector<span_record> s(4);
    s[0] = {0, 100, 0, 1, span_name::core_tx_timer};
    s[1] = {10, 40, 1, 1, span_name::packet_encode};
    s[2] = {15, 25, 2, 1, span_name::io_send};
    s[3] = {50, 90, 1, 1, span_name::packet_encode};
    const ledger_summary sum = summarize(s);
    const auto at = [&](span_name n) { return sum.by_name[static_cast<std::size_t>(n)]; };
    check(at(span_name::core_tx_timer).self_ns == 30.0, "parent self = 100 - 30 - 40");
    check(at(span_name::packet_encode).self_ns == 20.0 + 40.0, "child self = 20 + 40");
    check(at(span_name::packet_encode).calls == 2, "two encode calls");
    check(at(span_name::io_send).self_ns == 10.0, "leaf self = duration");
    check(sum.top_level_ns == 100.0, "top level covers 100");

    span_log log(true);
    {
        scoped_span outer(log, span_name::core_rx_timer, 7);
        scoped_span inner(log, span_name::packet_encode, 7);
    }
    check(log.records().size() == 2 && log.records()[1].parent == 1 &&
              log.records()[0].parent == 0,
          "recorder links the nested span to its parent");
    span_log off(false);
    {
        scoped_span s2(off, span_name::core_rx_timer, 7);
    }
    check(off.records().empty(), "disabled recorder keeps nothing");
}

void drop_sequence_is_seeded() {
    drop_sequence a(42, 0.02), b(42, 0.02), c(43, 0.02);
    bool same = true;
    bool differs = false;
    for (int i = 0; i < 100000; ++i) {
        const bool x = a.next();
        same = same && x == b.next();
        differs = differs || x != c.next();
    }
    check(same, "same seed, same drop sequence");
    check(differs, "another seed, another drop sequence");
    check(a.drops() > 1700 && a.drops() < 2300, "drop rate near 2%");
}

void relay_is_transparent_without_drop() {
    const std::uint16_t base = pick_port_block(3, 99);
    relay r(base, static_cast<std::uint16_t>(base + 1));
    const int sink = vtp::engine::open_udp_socket(static_cast<std::uint16_t>(base + 1));
    const int src = vtp::engine::open_udp_socket(static_cast<std::uint16_t>(base + 2));
    std::vector<std::vector<std::uint8_t>> sent;
    std::vector<vtp::engine::tx_item> items;
    for (int i = 0; i < 40; ++i) {
        std::vector<std::uint8_t> d(8 + static_cast<std::size_t>(i * 37));
        fill_pattern(static_cast<std::uint64_t>(i), 0, d.data(), d.size());
        sent.push_back(std::move(d));
    }
    for (const auto& d : sent)
        items.push_back({d.data(), d.size(), vtp::engine::loopback_addr(base)});
    check(vtp::engine::send_batch(src, items.data(), items.size()) == items.size(),
          "test datagrams sent");
    std::vector<std::vector<std::uint8_t>> got;
    vtp::engine::rx_batch rx(64);
    const ns_t give_up = mono_ns() + 2'000'000'000;
    while (got.size() < sent.size() && mono_ns() < give_up) {
        r.pump();
        const std::size_t n = vtp::engine::recv_batch(sink, rx);
        for (std::size_t i = 0; i < n; ++i)
            got.emplace_back(rx.data(i), rx.data(i) + rx.len(i));
        if (n == 0) ::usleep(200);
    }
    check(got == sent, "relay forwards every datagram unchanged and in order at 0% drop");
    check(r.dropped() == 0, "relay dropped nothing at 0%");
    ::close(sink);
    ::close(src);
}

} // namespace

int main() {
    verifier_catches_flipped_byte_and_short_fin();
    percentile_needs_ten_samples_beyond();
    span_self_time_of_nested_spans();
    drop_sequence_is_seeded();
    if (udp_available()) relay_is_transparent_without_drop();
    if (failures == 0) std::fprintf(stderr, "perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
