// perfbench — the repository benchmark.
//
//   perfbench --workload bulk|churn|lossy --seed N --seconds S --trace 0|1
//
// --trace 0 runs the workload against live engines and prints the
// end-to-end metrics; --trace 1 prints the per-layer ledger: engine.*
// from an untraced live run, core/io/packet/api/sack/tfrc from a traced
// replay of the same seed, and the tracing overhead from a replay with
// spans off. Every run first checks its outputs: a payload mismatch, a
// wrong fin length, a failed op or an engine drop on bulk or churn exits
// non-zero without printing any number. The last stdout line is one
// JSON object; a fuller record (run facts included) goes to
// $PERFBENCH_OUT/<workload>-seed<N>-trace<T>.json.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "live.hpp"
#include "proc.hpp"
#include "traced.hpp"

using namespace perfbench;

namespace {

struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
};

bool parse(int argc, char** argv, options& o) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") o.workload = v;
        else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds") o.seconds = std::atof(v);
        else if (k == "--trace") o.trace = std::atoi(v);
        else return false;
    }
    return argc % 2 == 1 && find_workload(o.workload) != nullptr && o.seconds > 0.0 &&
           (o.trace == 0 || o.trace == 1);
}

std::string num(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

/// One reported metric; `in_json` marks the ones BENCHMARK.json lists.
struct metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool in_json = true;
};

struct run_info {
    std::string commit;
    std::string kernel;
    unsigned nproc = 0;
    std::uint16_t port_base = 0;
};

std::filesystem::path out_dir() {
    const char* env = std::getenv("PERFBENCH_OUT");
    std::filesystem::path dir = env != nullptr ? env : ".bench_out";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

void emit(const options& o, const run_info& info, std::size_t attempted, std::size_t failed,
          const std::vector<metric>& ms) {
    std::printf("# perfbench workload=%s seed=%llu seconds=%s trace=%d commit=%s build=%s "
                "nproc=%u kernel=%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                num(o.seconds).c_str(), o.trace, info.commit.c_str(), PERFBENCH_BUILD_TYPE,
                info.nproc, info.kernel.c_str());
    std::printf("# ops attempted=%zu failed=%zu\n", attempted, failed);
    for (const metric& m : ms)
        std::printf("%-28s %14.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.c_str());

    std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    std::string all = "{";
    bool first = true;
    for (const metric& m : ms) {
        const std::string entry = "\"" + m.name + "\": {\"value\": " + num(m.value) +
                                  ", \"unit\": \"" + m.unit + "\"}";
        all += std::string(all.size() > 1 ? ", " : "") + entry;
        if (!m.in_json) continue;
        json += std::string(first ? "" : ", ") + entry;
        first = false;
    }
    json += "}}";
    all += "}";

    std::ofstream rec(out_dir() / (o.workload + "-seed" + std::to_string(o.seed) + "-trace" +
                             std::to_string(o.trace) + ".json"));
    rec << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
        << ", \"seconds\": " << num(o.seconds) << ", \"trace\": " << o.trace
        << ", \"commit\": \"" << info.commit << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"nproc\": " << info.nproc << ", \"kernel\": \"" << info.kernel
        << "\", \"port_base\": " << info.port_base << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": " << all << "}\n";

    std::printf("%s\n", json.c_str());
}

/// Per-op record of an end-to-end run: profile and latencies from the
/// due time (empty latencies for ops that never completed).
void write_ops(const options& o, const live_result& r) {
    std::ofstream f(out_dir() / (o.workload + "-seed" + std::to_string(o.seed) + "-ops.csv"));
    f << "flow,profile,due_ms,deliver_ms,close_ms\n";
    const ns_t t0 = r.ops.empty() ? 0 : r.ops.front().due;
    for (const op_state& op : r.ops) {
        if (op.issued == 0) continue;
        f << op.p.flow << ',' << (op.p.prof == profile_kind::light ? "light" : "classic") << ','
          << num(static_cast<double>(op.due - t0) / 1e6) << ',';
        if (op.complete())
            f << num(static_cast<double>(op.fin - op.due) / 1e6) << ','
              << num(static_cast<double>(op.closed - op.due) / 1e6);
        else
            f << ',';
        f << '\n';
    }
}

int fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    return 1;
}

/// Correctness gate shared by both modes.
std::string gate(const workload& w, const live_result& r) {
    if (!r.error.empty()) return r.error;
    if (r.attempted == 0) return "no op was attempted";
    if (w.drop == 0.0 && r.failed > 0)
        return std::to_string(r.failed) + " ops failed on a lossless workload";
    if (w.drop == 0.0 && r.layer.drops > 0)
        return "engine dropped " + std::to_string(r.layer.drops) + " datagrams/events/commands";
    return "";
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }
double ratio(std::uint64_t a, std::uint64_t b) {
    return ratio(static_cast<double>(a), static_cast<double>(b));
}

std::string samples(const std::vector<double>& v) { return "n=" + std::to_string(v.size()); }

/// Median, mean, p99 (when supported) and tail of one latency series.
/// The result JSON carries the mean of deliver latency and the median and
/// tail of close latency: those read steady on every workload, while the
/// deliver median of lossy is bimodal (QTPlight sessions pile up at
/// ~103 ms) and the deliver p99 of churn follows rare host-wide stalls.
bool latency_metrics(const std::string& base, const std::vector<double>& v,
                     std::vector<metric>& out, std::string& err) {
    const auto p50 = supported_percentile(v, 0.50);
    const auto tail = tail_percentile(v);
    if (!p50 || !tail) {
        err = base + ": too few completed ops (" + samples(v) + ") for a median";
        return false;
    }
    const bool close = base == "close";
    double sum = 0.0;
    for (const double x : v) sum += x;
    out.push_back({base + "_p50_ms", *p50, "ms", samples(v), close});
    out.push_back(
        {base + "_mean_ms", sum / static_cast<double>(v.size()), "ms", samples(v), !close});
    if (const auto p99 = supported_percentile(v, 0.99))
        out.push_back({base + "_p99_ms", *p99, "ms", samples(v), false});
    out.push_back({base + "_tail_ms", tail->second, "ms",
                   "p" + num(tail->first * 100) + ", " + samples(v), close});
    return true;
}

double lag_tail_ms(const std::vector<double>& lag) {
    if (const auto t = tail_percentile(lag)) return t->second;
    double mx = 0.0;
    for (const double x : lag) mx = std::max(mx, x);
    return mx;
}

int run_e2e(const options& o, const workload& w, const port_block& ports, const run_info& info) {
    const plan p = make_plan(w, o.seed, o.seconds, w.open_loop ? 1000 : 0);
    const live_result r = run_live(w, p, ports, o.seconds, 21, o.seconds * 1.1 + 120.0, o.seed);
    if (const std::string g = gate(w, r); !g.empty()) return fail(g);

    std::vector<metric> ms;
    ms.push_back({"goodput_mbps", static_cast<double>(r.window_bytes) * 8.0 / r.window_s / 1e6,
                  "Mb/s", "window " + num(r.window_s) + " s"});
    // Printed, not gated: on a shared 4-vCPU VM the same workload read
    // 43-71 us per packet within 12 minutes, wider than any bound. The
    // per-layer ledger tracks it as engine.cpu_ns_per_pkt.
    ms.push_back({"cpu_ns_per_pkt", ratio(r.engine_cpu_ns, static_cast<double>(r.window_pkts)),
                  "ns", std::to_string(r.window_pkts) + " payload pkts", false});
    std::string err;
    if (!latency_metrics("deliver", r.deliver_ms, ms, err) ||
        !latency_metrics("close", r.close_ms, ms, err))
        return fail(err);
    if (w.late_limit_ms > 0.0)
        ms.push_back({"late_frac", ratio(r.late + r.failed, r.attempted), "ratio",
                      "limit " + num(w.late_limit_ms) + " ms", false});
    ms.push_back({"failed_frac", ratio(r.failed, r.attempted), "ratio", "", false});
    ms.push_back(
        {"setup_s", median(r.setup_s), "s", "median of " + std::to_string(r.setup_s.size())});
    ms.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
    ms.push_back({"bench.driver_cpu_frac", ratio(r.generator_cpu_ns, r.window_s * 1e9), "ratio",
                  "", false});
    ms.push_back(
        {"bench.driver_lag_tail_ms", lag_tail_ms(r.lag_ms), "ms", samples(r.lag_ms), false});
    write_ops(o, r);
    emit(o, info, r.attempted, r.failed, ms);
    return 0;
}

void span_metrics(const std::string& label, const span_totals& t, double pkts,
                  std::vector<metric>& out, bool in_json) {
    out.push_back({label + ".ns", ratio(t.self_ns, static_cast<double>(t.calls)), "ns",
                   std::to_string(t.calls) + " calls", in_json});
    out.push_back({label + ".per_pkt", ratio(static_cast<double>(t.calls), pkts), "ratio", "",
                   in_json});
}

int run_layers(const options& o, const workload& w, const port_block& ports,
               const run_info& info) {
    // Three phases share the run: the live engines for engine.*, then
    // the traced replay with spans on and with spans off.
    const double live_s = o.seconds / 2.0;
    const double replay_s = o.seconds / 4.0;
    // Replayed ops still stalled this long after the last start are left
    // behind: the ledger needs their work, not their completion.
    constexpr double traced_drain_s = 8.0;
    const plan pl = make_plan(w, o.seed, live_s, 0);
    const live_result r = run_live(w, pl, ports, live_s, 1, live_s + 90.0, o.seed);
    if (const std::string g = gate(w, r); !g.empty()) return fail(g);

    const plan pt = make_plan(w, o.seed, replay_s, 0);
    const std::string dir = out_dir().string();
    const traced_result on = run_traced(w, pt, ports.traced_server, ports.traced_client, replay_s,
                                        traced_drain_s, true, o.seed,
                                        dir + "/spans-" + o.workload + ".bin");
    if (!on.error.empty()) return fail("traced run: " + on.error);
    const traced_result off = run_traced(w, pt, ports.traced_server, ports.traced_client, replay_s,
                                         traced_drain_s, false, o.seed, "");
    if (!off.error.empty()) return fail("traced run: " + off.error);

    std::vector<metric> ms;
    const engine_layer& L = r.layer;
    ms.push_back({"engine.handoff_frac", L.handoff_frac, "ratio", ""});
    ms.push_back({"engine.rx_batch_fill", L.rx_batch_fill, "count", ""});
    ms.push_back({"engine.tx_batch_fill", L.tx_batch_fill, "count", ""});
    ms.push_back({"engine.turns_per_pkt", L.turns_per_pkt, "ratio", ""});
    ms.push_back({"engine.turn_p50_ns", L.turn_p50_ns, "ns", ""});
    ms.push_back({"engine.turn_p99_ns", L.turn_p99_ns, "ns", ""});
    ms.push_back({"engine.timer_late_p99_ns", L.timer_late_p99_ns, "ns", ""});
    ms.push_back({"engine.event_ring_max", L.event_ring_max, "count", ""});
    ms.push_back({"engine.server_cpu_frac", L.server_cpu_frac, "ratio", ""});
    ms.push_back({"engine.client_cpu_frac", L.client_cpu_frac, "ratio", ""});
    ms.push_back({"engine.wire_per_payload_pkt", L.wire_per_payload_pkt, "ratio", ""});
    ms.push_back({"engine.drops", static_cast<double>(L.drops), "count", ""});
    ms.push_back({"engine.cpu_ns_per_pkt",
                  ratio(r.engine_cpu_ns, static_cast<double>(r.window_pkts)), "ns",
                  "shard threads of both engines"});

    const double pkts = static_cast<double>(on.payload_pkts);
    const auto& by = on.ledger.by_name;
    const auto at = [&](span_name n) { return by[static_cast<std::size_t>(n)]; };
    span_metrics("io.recv", at(span_name::io_recv), pkts, ms, true);
    span_metrics("io.send", at(span_name::io_send), pkts, ms, true);
    span_metrics("packet.decode", at(span_name::packet_decode), pkts, ms, true);
    span_metrics("packet.encode", at(span_name::packet_encode), pkts, ms, true);
    span_totals rx = at(span_name::core_rx_data_classic);
    const span_totals light = at(span_name::core_rx_data_light);
    rx.calls += light.calls;
    rx.self_ns += light.self_ns;
    span_metrics("core.rx_data", rx, pkts, ms, true);
    span_metrics("core.rx_data_classic", at(span_name::core_rx_data_classic), pkts, ms, false);
    span_metrics("core.rx_data_light", light, pkts, ms, false);
    span_metrics("core.rx_timer", at(span_name::core_rx_timer), pkts, ms, true);
    span_metrics("core.tx_feedback", at(span_name::core_tx_feedback), pkts, ms, true);
    span_metrics("core.tx_timer", at(span_name::core_tx_timer), pkts, ms, true);
    span_metrics("core.handshake", at(span_name::core_handshake), pkts, ms, true);
    span_metrics("api.connect", at(span_name::api_connect), pkts, ms, false);
    span_metrics("api.send", at(span_name::api_send), pkts, ms, true);
    span_metrics("api.poll", at(span_name::api_poll), pkts, ms, true);
    span_metrics("bench.verify", at(span_name::bench_verify), pkts, ms, false);
    span_metrics("bench.generate", at(span_name::bench_generate), pkts, ms, false);
    span_metrics("engine.timers", at(span_name::engine_timers), pkts, ms, false);
    ms.push_back({"sack.reassembly.ns", on.reassembly_ns, "ns",
                  std::to_string(on.replay_calls) + " replayed segments"});
    ms.push_back({"tfrc.loss_history.ns", on.loss_history_ns, "ns", ""});
    ms.push_back({"sack.rtx_frac", ratio(on.rtx_bytes, on.stream_bytes_sent), "ratio", ""});
    ms.push_back({"tfrc.loss_event_rate",
                  ratio(on.loss_rate_sum, static_cast<double>(on.loss_rate_n)), "ratio",
                  "mean of " + std::to_string(on.loss_rate_n) + " senders"});
    ms.push_back(
        {"core.feedback_per_pkt", ratio(on.feedback_sent, on.packets_received), "ratio", ""});
    ms.push_back({"host.unattributed_frac", ratio(on.busy_ns - on.ledger.top_level_ns, on.busy_ns),
                  "ratio", "busy " + num(on.busy_ns / 1e6) + " ms"});
    ms.push_back({"trace.overhead_frac", ratio(on.busy_ns - off.busy_ns, off.busy_ns), "ratio",
                  "spans off busy " + num(off.busy_ns / 1e6) + " ms, " +
                      std::to_string(on.spans) + " spans"});
    ms.push_back({"bench.driver_lag_tail_ms", lag_tail_ms(r.lag_ms), "ms", samples(r.lag_ms)});
    ms.push_back(
        {"bench.driver_cpu_frac", ratio(r.generator_cpu_ns, r.window_s * 1e9), "ratio", ""});
    emit(o, info, r.attempted, r.failed, ms);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    options o;
    if (!parse(argc, argv, o)) {
        std::fprintf(stderr, "usage: perfbench --workload bulk|churn|lossy --seed N "
                             "--seconds S --trace 0|1\n");
        return 2;
    }
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
        return fail(std::string("refusing to measure a '") + PERFBENCH_BUILD_TYPE +
                    "' build; configure with -DCMAKE_BUILD_TYPE=Release");
    if (!udp_available()) {
        // The one environment where measuring is impossible rather than
        // broken: no UDP sockets at all.
        std::printf("perfbench: skipped, this host has no UDP sockets\n");
        return 0;
    }
    const workload& w = *find_workload(o.workload);
    run_info info;
    const char* commit = std::getenv("PERFBENCH_COMMIT");
    info.commit = commit != nullptr ? commit : "unknown";
    info.kernel = kernel_release();
    info.nproc = online_cpus();
    try {
        info.port_base = pick_port_block(port_block::size, o.seed);
        const port_block ports = port_block::from_base(info.port_base);
        return o.trace == 0 ? run_e2e(o, w, ports, info) : run_layers(o, w, ports, info);
    } catch (const std::exception& e) {
        return fail(e.what());
    }
}
