#include "live.hpp"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <memory>

#include "api/session_options.hpp"
#include "loadgen.hpp"
#include "engine/server.hpp"
#include "proc.hpp"
#include "relay.hpp"

namespace perfbench {

namespace {

using vtp::engine::engine_event;
using vtp::qtp::event_type;

vtp::session_options session_for(profile_kind k, std::uint32_t flow) {
    vtp::session_options o = k == profile_kind::light
                                 ? vtp::session_options::light(vtp::sack::reliability_mode::full)
                                 : vtp::session_options::reliable();
    o.flow_id = flow;
    o.packet_size = packet_size;
    return o;
}

vtp::engine::engine_config engine_config_for(std::uint16_t port, std::size_t shards,
                                             std::uint64_t seed) {
    vtp::engine::engine_config c;
    c.port = port;
    c.shards = shards;
    c.rng_seed = seed;
    // The generator drains every ~100 us; bulk delivers ~15k chunks/s.
    c.event_queue_capacity = 1 << 14;
    return c;
}

/// Both engines (and the relay) of one set-up, plus the shard threads
/// each engine started.
struct rig {
    std::unique_ptr<vtp::engine::server> server;
    std::unique_ptr<vtp::engine::server> client;
    std::unique_ptr<relay> rel;
    std::vector<int> server_tids;
    std::vector<int> client_tids;
    std::uint16_t target = 0; ///< where client sessions connect

    ~rig() {
        // Stop the client first so nothing races a stopped server.
        client.reset();
        server.reset();
        rel.reset();
    }
};

void idle_wait(const relay* rel, ns_t max_ns) {
    const ns_t wait = std::clamp<ns_t>(max_ns, 0, 50'000);
    timespec ts{0, static_cast<long>(wait)};
    if (rel != nullptr) {
        pollfd pfd{rel->fd(), POLLIN, 0};
        ::ppoll(&pfd, 1, &ts, nullptr);
    } else {
        ::nanosleep(&ts, nullptr);
    }
}

/// Poll both engines (and pump the relay) until the client reports
/// `want` for `flow`; false after 5 s.
bool wait_client_event(rig& r, std::uint32_t flow, event_type want) {
    std::vector<engine_event> evs(256);
    const ns_t give_up = mono_ns() + 5'000'000'000;
    while (mono_ns() < give_up) {
        if (r.rel) r.rel->pump();
        while (r.server->poll_events(evs.data(), evs.size()) > 0) {
        }
        const std::size_t n = r.client->poll_events(evs.data(), evs.size());
        for (std::size_t i = 0; i < n; ++i)
            if (evs[i].flow == flow && evs[i].ev.type == want) return true;
        if (n == 0) idle_wait(r.rel.get(), 20'000);
    }
    return false;
}

struct snapshot {
    vtp::engine::engine_stats s{};
    vtp::engine::engine_stats c{};
    buckets turn;
    buckets late;
    double ring_max = 0.0;
    std::uint64_t cpu_s = 0;
    std::uint64_t cpu_c = 0;
    std::uint64_t cpu_generator = 0;
    ns_t t = 0;
};

buckets to_buckets(const vtp::trace::histogram& h) {
    buckets b;
    for (const auto& [upper, count] : h.nonzero_buckets()) b[upper] = count;
    return b;
}

snapshot take_snapshot(rig& r) {
    snapshot out;
    out.t = mono_ns();
    out.cpu_s = threads_cpu_ns(r.server_tids);
    out.cpu_c = threads_cpu_ns(r.client_tids);
    out.cpu_generator = self_thread_cpu_ns();
    out.s = r.server->stats();
    out.c = r.client->stats();
    const auto reg = r.server->metrics();
    out.turn = to_buckets(reg->get_histogram("vtp_shard_turn_ns"));
    out.late = to_buckets(reg->get_histogram("vtp_timer_fire_latency_ns"));
    out.ring_max = static_cast<double>(reg->get_histogram("vtp_event_ring_occupancy").max());
    return out;
}

std::uint64_t drop_counters(const vtp::engine::engine_stats& s) {
    return s.handoff_dropped + s.tx_dropped + s.pool_exhausted + s.truncated_dropped +
           s.decode_errors + s.events_dropped + s.commands_dropped;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

} // namespace

live_result run_live(const workload& w, const plan& p, const port_block& ports,
                     double seconds, std::size_t setup_reps, double deadline_s,
                     std::uint64_t seed) {
    live_result res;
    std::unique_ptr<rig> r;
    const std::size_t reps = std::max<std::size_t>(setup_reps, 1);
    for (std::size_t rep = 0; rep < reps; ++rep) {
        r.reset(); // the previous set-up's threads are joined before the next
        const ns_t t_setup = mono_ns();
        r = std::make_unique<rig>();
        const std::vector<int> tids0 = list_tids();
        r->server = std::make_unique<vtp::engine::server>(engine_config_for(ports.server, 2, seed));
        r->server->start();
        const std::vector<int> tids1 = list_tids();
        r->client =
            std::make_unique<vtp::engine::server>(engine_config_for(ports.client, 1, seed + 1));
        r->client->start();
        const std::vector<int> tids2 = list_tids();
        r->server_tids = new_tids(tids0, tids1);
        r->client_tids = new_tids(tids1, tids2);
        r->target = ports.server;
        if (w.drop > 0.0) {
            r->rel = std::make_unique<relay>(ports.relay, ports.server);
            r->target = ports.relay;
        }
        const std::uint32_t warm_flow = 0x100u + static_cast<std::uint32_t>(rep);
        r->client->connect(r->target, session_for(profile_kind::classic, warm_flow), nullptr);
        if (!wait_client_event(*r, warm_flow, event_type::established)) {
            res.error = "warm-up session was never established";
            return res;
        }
        res.setup_s.push_back(static_cast<double>(mono_ns() - t_setup) / 1e9);
        if (rep + 1 == reps) {
            r->client->close(0, warm_flow);
            if (!wait_client_event(*r, warm_flow, event_type::closed)) {
                res.error = "warm-up session never closed";
                return res;
            }
        }
    }
    if (r->rel) r->rel->arm(p.drop_seed, w.drop);

    const snapshot start = take_snapshot(*r);
    op_table tab(w, p, start.t, seconds);
    const ns_t deadline = start.t + static_cast<ns_t>(deadline_s * 1e9);
    std::vector<engine_event> evs(512);
    std::vector<std::uint8_t> buf(256 * 1024);
    std::vector<std::size_t> due;
    std::vector<std::size_t> active; ///< established ops with data or close pending
    snapshot end;
    bool window_closed = false;
    for (;;) {
        ns_t now = mono_ns();
        bool busy = false;
        due.clear();
        tab.take_due(now, due);
        for (const std::size_t i : due) {
            const op_state& o = tab.op(i);
            r->client->connect(r->target, session_for(o.p.prof, o.p.flow), nullptr);
            busy = true;
        }
        if (r->rel && r->rel->pump() > 0) busy = true;

        for (std::size_t n; (n = r->client->poll_events(evs.data(), evs.size())) > 0;) {
            busy = true;
            now = mono_ns();
            for (std::size_t k = 0; k < n; ++k) {
                const engine_event& e = evs[k];
                const std::size_t i = tab.find(e.flow);
                if (i == op_table::npos) continue;
                if (e.ev.type == event_type::established) {
                    tab.on_established(i, now);
                    active.push_back(i);
                } else if (e.ev.type == event_type::closed) {
                    tab.on_closed(e.flow, now);
                }
            }
        }
        for (std::size_t n; (n = r->server->poll_events(evs.data(), evs.size())) > 0;) {
            busy = true;
            now = mono_ns();
            for (std::size_t k = 0; k < n; ++k) {
                const engine_event& e = evs[k];
                bool ok = true;
                if (e.ev.type == event_type::readable)
                    ok = tab.on_chunk(e.flow, e.ev.offset, e.payload.data(), e.payload.size(), now);
                else if (e.ev.type == event_type::fin)
                    ok = tab.on_fin(e.flow, e.ev.bytes, now);
                if (!ok) {
                    res.error = tab.error();
                    return res;
                }
            }
        }
        for (std::size_t a = 0; a < active.size();) {
            const std::size_t i = active[a];
            op_state& o = tab.op(i);
            std::uint64_t off = 0;
            std::size_t len = 0;
            while (tab.next_chunk(i, off, len)) {
                fill_pattern(o.p.key, off, buf.data(), len);
                if (!r->client->send(0, o.p.flow, 0, buf.data(), len)) break;
                tab.sent(i, len);
                busy = true;
            }
            if (tab.ready_to_close(i) && r->client->close(0, o.p.flow)) o.close_sent = true;
            if (o.close_sent) {
                active[a] = active.back();
                active.pop_back();
            } else {
                ++a;
            }
        }

        now = mono_ns();
        if (!window_closed && !tab.in_window(now)) {
            end = take_snapshot(*r);
            window_closed = true;
        }
        if (window_closed && tab.done(now)) break;
        if (now > deadline) break;
        if (!busy) {
            const ns_t next = tab.next_due();
            idle_wait(r->rel.get(), next != 0 ? next - now : 50'000);
        }
    }
    if (!window_closed) end = take_snapshot(*r);
    const vtp::engine::engine_stats final_s = r->server->stats();
    const vtp::engine::engine_stats final_c = r->client->stats();

    res.attempted = tab.attempted();
    res.failed = tab.attempted() - tab.completed();
    res.late = tab.late();
    res.window_s = static_cast<double>(end.t - start.t) / 1e9;
    res.window_bytes = tab.window_bytes();
    res.window_pkts = tab.window_pkts();
    res.engine_cpu_ns =
        static_cast<double>((end.cpu_s - start.cpu_s) + (end.cpu_c - start.cpu_c));
    res.generator_cpu_ns = static_cast<double>(end.cpu_generator - start.cpu_generator);
    res.deliver_ms = tab.deliver_ms();
    res.close_ms = tab.close_ms();
    res.lag_ms = tab.lag_ms();
    res.ops = tab.ops();

    const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(a - b); };
    engine_layer& L = res.layer;
    const double srv_rx = d(end.s.datagrams_rx, start.s.datagrams_rx);
    const double srv_dgrams = srv_rx + d(end.s.datagrams_tx, start.s.datagrams_tx);
    L.handoff_frac = ratio(d(end.s.handoff_out, start.s.handoff_out), srv_rx);
    L.rx_batch_fill = ratio(srv_rx + d(end.c.datagrams_rx, start.c.datagrams_rx),
                            d(end.s.rx_batches, start.s.rx_batches) +
                                d(end.c.rx_batches, start.c.rx_batches));
    L.tx_batch_fill = ratio(d(end.s.datagrams_tx, start.s.datagrams_tx) +
                                d(end.c.datagrams_tx, start.c.datagrams_tx),
                            d(end.s.tx_batches, start.s.tx_batches) +
                                d(end.c.tx_batches, start.c.tx_batches));
    const buckets turns = bucket_delta(end.turn, start.turn);
    const buckets late = bucket_delta(end.late, start.late);
    L.turns_per_pkt = ratio(static_cast<double>(bucket_total(turns)), srv_dgrams);
    L.turn_p50_ns = bucket_quantile(turns, 0.50);
    L.turn_p99_ns = bucket_quantile(turns, 0.99);
    L.timer_late_p99_ns = bucket_quantile(late, 0.99);
    L.event_ring_max = end.ring_max;
    L.server_cpu_frac = ratio(d(end.cpu_s, start.cpu_s), res.window_s * 1e9 * 2.0);
    L.client_cpu_frac = ratio(d(end.cpu_c, start.cpu_c), res.window_s * 1e9);
    L.wire_per_payload_pkt = ratio(srv_dgrams, static_cast<double>(res.window_pkts));
    L.drops = drop_counters(final_s) + drop_counters(final_c);
    return res;
}

} // namespace perfbench
