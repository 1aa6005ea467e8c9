#include "traced.hpp"

#include <poll.h>

#include <algorithm>
#include <span>
#include <unordered_map>

#include "api/server.hpp"
#include "api/session.hpp"
#include "loadgen.hpp"
#include "sack/reassembly.hpp"
#include "tfrc/loss_history.hpp"

namespace perfbench {

namespace {

vtp::session_options session_for(profile_kind k, std::uint32_t flow) {
    vtp::session_options o = k == profile_kind::light
                                 ? vtp::session_options::light(vtp::sack::reliability_mode::full)
                                 : vtp::session_options::reliable();
    o.flow_id = flow;
    o.packet_size = packet_size;
    return o;
}

/// Median over three passes of the per-module replay cost, ns per call.
void replay_sublayers(const std::vector<data_capture>& cap, traced_result& out) {
    std::unordered_map<std::uint32_t, std::vector<const data_capture*>> by_flow;
    for (const data_capture& c : cap) by_flow[c.flow].push_back(&c);
    std::vector<double> ra_ns;
    std::vector<double> lh_ns;
    for (int pass = 0; pass < 3; ++pass) {
        double ra = 0.0;
        double lh = 0.0;
        for (const auto& [flow, segs] : by_flow) {
            vtp::sack::reassembly r(vtp::sack::delivery_order::ordered);
            ns_t t = mono_ns();
            for (const data_capture* c : segs) r.on_data(c->offset, c->len, c->end_of_stream);
            ra += static_cast<double>(mono_ns() - t);
            vtp::tfrc::loss_history h;
            t = mono_ns();
            for (const data_capture* c : segs) h.on_packet(c->seq, c->at, c->rtt);
            lh += static_cast<double>(mono_ns() - t);
        }
        ra_ns.push_back(ra);
        lh_ns.push_back(lh);
    }
    const double calls = static_cast<double>(std::max<std::size_t>(cap.size(), 1));
    out.replay_calls = cap.size();
    out.reassembly_ns = median(ra_ns) / calls;
    out.loss_history_ns = median(lh_ns) / calls;
}

} // namespace

traced_result run_traced(const workload& w, const plan& p, std::uint16_t server_port,
                         std::uint16_t client_port, double seconds, double drain_s,
                         bool spans_on, std::uint64_t seed, const std::string& span_path) {
    traced_result res;
    span_log log(spans_on);
    std::vector<data_capture> capture;
    drop_sequence drop(p.drop_seed, w.drop);
    traced_host server_host(server_port, seed, log);
    traced_host client_host(client_port, seed + 1, log);
    if (w.drop > 0.0) client_host.set_drop(&drop);
    if (spans_on) server_host.set_capture(&capture);

    vtp::server srv(server_host);
    std::unordered_map<std::uint32_t, vtp::session> client_sessions;

    const ns_t t0 = mono_ns();
    op_table tab(w, p, t0, seconds);
    const ns_t deadline = tab.window_end() + static_cast<ns_t>(drain_s * 1e9);
    ns_t next_reap = t0 + 1'000'000'000;
    ns_t next_sweep = t0;
    std::vector<std::size_t> due;
    std::vector<std::size_t> active;
    std::vector<std::uint32_t> dirty;
    std::vector<std::uint8_t> buf(256 * 1024);
    vtp::event evs[32];
    pollfd pfds[2] = {{client_host.fd(), POLLIN, 0}, {server_host.fd(), POLLIN, 0}};
    bool readable[2] = {false, false};

    for (;;) {
        const ns_t iter = mono_ns();
        due.clear();
        tab.take_due(iter, due);
        for (const std::size_t i : due) {
            const op_state& o = tab.op(i);
            scoped_span s(log, span_name::api_connect, o.p.flow);
            client_sessions.emplace(
                o.p.flow, vtp::session::connect(client_host, server_port,
                                                session_for(o.p.prof, o.p.flow)));
        }
        if (readable[0]) client_host.receive();
        if (readable[1]) server_host.receive();
        client_host.run_timers();
        server_host.run_timers();

        // Poll the sessions that saw packets, and every open one at the
        // sweep cadence for events raised from timers.
        const bool sweep = iter >= next_sweep;
        if (sweep) next_sweep = iter + 100'000'000;
        client_host.take_dirty(dirty);
        if (sweep)
            for (const op_state& o : tab.ops())
                if (o.issued != 0 && o.closed == 0) dirty.push_back(o.p.flow);
        for (const std::uint32_t flow : dirty) {
            const auto it = client_sessions.find(flow);
            const std::size_t i = tab.find(flow);
            if (it == client_sessions.end() || i == op_table::npos) continue;
            vtp::session& s = it->second;
            traced_host::api_scope scope(client_host, flow);
            for (;;) {
                std::size_t n = 0;
                {
                    scoped_span sp(log, span_name::api_poll, flow);
                    n = s.poll(evs, 32);
                }
                if (n == 0) break;
                const ns_t now = mono_ns();
                for (std::size_t k = 0; k < n; ++k) {
                    if (evs[k].type == vtp::event_type::established) {
                        tab.on_established(i, now);
                        active.push_back(i);
                    } else if (evs[k].type == vtp::event_type::closed) {
                        const vtp::session_stats st = s.stats();
                        res.rtx_bytes += st.rtx_bytes_sent;
                        res.stream_bytes_sent += st.stream_bytes_sent;
                        res.loss_rate_sum += st.loss_event_rate;
                        ++res.loss_rate_n;
                        tab.on_closed(flow, now);
                    }
                }
            }
        }
        server_host.take_dirty(dirty);
        if (sweep)
            srv.for_each_session([&](std::uint32_t flow, vtp::session&) { dirty.push_back(flow); });
        for (const std::uint32_t flow : dirty) {
            // Accepted sessions live in srv until reap_closed(); a closed
            // one polls empty, since its closed event fires once.
            vtp::session* sp = srv.find(flow);
            if (sp == nullptr) continue;
            vtp::session& s = *sp;
            traced_host::api_scope scope(server_host, flow);
            bool fin = false;
            bool closed = false;
            std::uint64_t fin_len = 0;
            for (;;) {
                std::size_t n = 0;
                {
                    scoped_span sp(log, span_name::api_poll, flow);
                    n = s.poll(evs, 32);
                }
                if (n == 0) break;
                for (std::size_t k = 0; k < n; ++k) {
                    if (evs[k].type == vtp::event_type::fin) {
                        fin = true;
                        fin_len = evs[k].bytes;
                    } else if (evs[k].type == vtp::event_type::closed) {
                        closed = true;
                    }
                }
            }
            for (;;) {
                std::uint32_t sid = 0;
                vtp::stream::ready_chunk chunk;
                bool got = false;
                {
                    scoped_span sp(log, span_name::api_poll, flow);
                    got = s.recv_chunk(sid, chunk);
                }
                if (!got) break;
                scoped_span sp(log, span_name::bench_verify, flow);
                if (!tab.on_chunk(flow, chunk.offset, chunk.bytes.data(), chunk.bytes.size(),
                                  mono_ns())) {
                    res.error = tab.error();
                    return res;
                }
            }
            if (fin && !tab.on_fin(flow, fin_len, mono_ns())) {
                res.error = tab.error();
                return res;
            }
            if (closed) {
                const vtp::session_stats st = s.stats();
                res.feedback_sent += st.feedback_sent;
                res.packets_received += st.packets_received;
            }
        }

        for (std::size_t a = 0; a < active.size();) {
            const std::size_t i = active[a];
            op_state& o = tab.op(i);
            vtp::session& s = client_sessions.at(o.p.flow);
            traced_host::api_scope scope(client_host, o.p.flow);
            std::uint64_t off = 0;
            std::size_t len = 0;
            while (tab.next_chunk(i, off, len)) {
                {
                    scoped_span sp(log, span_name::bench_generate, o.p.flow);
                    fill_pattern(o.p.key, off, buf.data(), len);
                }
                scoped_span sp(log, span_name::api_send, o.p.flow);
                tab.sent(i, s.send(0, std::span<const std::uint8_t>(buf.data(), len)));
            }
            if (tab.ready_to_close(i)) {
                scoped_span sp(log, span_name::api_send, o.p.flow);
                s.close();
                o.close_sent = true;
            }
            if (o.close_sent) {
                active[a] = active.back();
                active.pop_back();
            } else {
                ++a;
            }
        }
        client_host.flush();
        server_host.flush();

        const ns_t now = mono_ns();
        if (now >= next_reap) {
            srv.reap_closed();
            next_reap = now + 1'000'000'000;
        }
        res.busy_ns += static_cast<double>(now - iter);
        if ((!tab.in_window(now) && tab.done(now)) || now > deadline) break;

        ns_t wake = std::min(client_host.next_deadline(), server_host.next_deadline());
        if (const ns_t nd = tab.next_due(); nd != 0) wake = std::min(wake, nd);
        wake = std::min(wake, now + 1'000'000);
        const ns_t wait = std::max<ns_t>(wake - now, 0);
        timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                    static_cast<long>(wait % 1'000'000'000)};
        pfds[0].revents = pfds[1].revents = 0;
        ::ppoll(pfds, 2, &ts, nullptr);
        readable[0] = (pfds[0].revents & POLLIN) != 0;
        readable[1] = (pfds[1].revents & POLLIN) != 0;
    }

    res.payload_pkts = tab.total_pkts();
    if (spans_on) {
        res.ledger = summarize(log.records());
        res.spans = log.records().size();
        if (!span_path.empty()) log.write(span_path);
        replay_sublayers(capture, res);
    }
    return res;
}

} // namespace perfbench
