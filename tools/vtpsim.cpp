// vtpsim — scenario runner for the versatile transport protocol library.
//
// Runs one configurable dumbbell scenario and prints (or CSV-traces) the
// per-interval rate of the measured flow. Meant for quick what-if runs
// without writing C++:
//
//   vtpsim --proto qtp-af --target 4 --bottleneck 10 --loss 0.5
//          --competing-tcp 2 --duration 60 --rio --trace rate.csv
//
// Options (all optional):
//   --proto {tfrc|qtp|qtp-af|qtp-light|tcp}   measured flow (default tfrc)
//   --target <Mb/s>       gTFRC committed rate (qtp-af; also edge-marked)
//   --bottleneck <Mb/s>   bottleneck rate            (default 10)
//   --rtt <ms>            base path RTT              (default 60)
//   --loss <percent>      wireless loss on bottleneck (default 0)
//   --competing-tcp <n>   background TCP flows        (default 0)
//   --duration <s>        simulated seconds           (default 30)
//   --interval <ms>       rate sample interval        (default 500)
//   --rio                 RIO (AF) bottleneck queue instead of DropTail
//   --seed <n>            RNG seed                    (default 1)
//   --trace <file.csv>    write t,rate_mbps samples to a CSV
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "core/qtp.hpp"
#include "diffserv/conditioner.hpp"
#include "diffserv/rio.hpp"
#include "sim/topology.hpp"
#include "tcp/tcp_receiver.hpp"
#include "tcp/tcp_sender.hpp"
#include "tfrc/receiver.hpp"
#include "tfrc/sender.hpp"
#include "util/trace.hpp"

namespace {

using namespace vtp;
using util::milliseconds;
using util::seconds;

struct options {
    std::string proto = "tfrc";
    double target_mbps = 0.0;
    double bottleneck_mbps = 10.0;
    double rtt_ms = 60.0;
    double loss_percent = 0.0;
    int competing_tcp = 0;
    double duration_s = 30.0;
    double interval_ms = 500.0;
    bool rio = false;
    std::uint64_t seed = 1;
    std::string trace_path;
};

bool parse(int argc, char** argv, options& opt) {
    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) return nullptr;
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* v = nullptr;
        if (arg == "--proto" && (v = need_value(i))) opt.proto = v;
        else if (arg == "--target" && (v = need_value(i))) opt.target_mbps = atof(v);
        else if (arg == "--bottleneck" && (v = need_value(i))) opt.bottleneck_mbps = atof(v);
        else if (arg == "--rtt" && (v = need_value(i))) opt.rtt_ms = atof(v);
        else if (arg == "--loss" && (v = need_value(i))) opt.loss_percent = atof(v);
        else if (arg == "--competing-tcp" && (v = need_value(i))) opt.competing_tcp = atoi(v);
        else if (arg == "--duration" && (v = need_value(i))) opt.duration_s = atof(v);
        else if (arg == "--interval" && (v = need_value(i))) opt.interval_ms = atof(v);
        else if (arg == "--rio") opt.rio = true;
        else if (arg == "--seed" && (v = need_value(i))) opt.seed = strtoull(v, nullptr, 10);
        else if (arg == "--trace" && (v = need_value(i))) opt.trace_path = v;
        else {
            std::fprintf(stderr, "unknown or incomplete option: %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int main(int argc, char** argv) {
    options opt;
    if (!parse(argc, argv, opt)) return 2;

    sim::dumbbell_config cfg;
    cfg.pairs = static_cast<std::size_t>(1 + opt.competing_tcp);
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = opt.bottleneck_mbps * 1e6;
    cfg.bottleneck_delay =
        util::from_seconds(opt.rtt_ms / 1000.0 / 2.0) - milliseconds(2);
    cfg.seed = opt.seed;
    if (opt.rio) {
        cfg.bottleneck_queue = [&opt] {
            return std::make_unique<diffserv::rio_queue>(
                diffserv::default_rio_params(60, 1050), opt.seed * 7 + 1);
        };
    }
    sim::dumbbell net(cfg);
    if (opt.loss_percent > 0) {
        net.forward_bottleneck().set_loss_model(std::make_unique<sim::bernoulli_loss>(
            opt.loss_percent / 100.0, opt.seed + 11));
    }

    diffserv::conditioner edge(net.sched());
    if (opt.target_mbps > 0) {
        edge.set_profile(1, opt.target_mbps * 1e6,
                         static_cast<std::size_t>(opt.target_mbps * 1e6 / 8 * 0.03));
        edge.install_egress(net.left_node(0));
    }

    for (int i = 0; i < opt.competing_tcp; ++i) {
        tcp::tcp_sender_config s;
        s.flow_id = static_cast<std::uint32_t>(100 + i);
        s.peer_addr = net.right_addr(static_cast<std::size_t>(1 + i));
        tcp::tcp_receiver_config r;
        r.flow_id = s.flow_id;
        r.peer_addr = net.left_addr(static_cast<std::size_t>(1 + i));
        net.right_host(static_cast<std::size_t>(1 + i))
            .attach(s.flow_id, std::make_unique<tcp::tcp_receiver_agent>(r));
        net.left_host(static_cast<std::size_t>(1 + i))
            .attach(s.flow_id, std::make_unique<tcp::tcp_sender_agent>(s));
    }

    // Measured flow.
    std::function<std::uint64_t()> received_bytes;
    if (opt.proto == "tfrc" || opt.proto == "tfrc-light") {
        tfrc::sender_config s;
        s.flow_id = 1;
        s.peer_addr = net.right_addr(0);
        s.mode = opt.proto == "tfrc-light" ? tfrc::estimation_mode::sender_side
                                           : tfrc::estimation_mode::receiver_side;
        if (opt.proto == "tfrc-light") {
            tfrc::light_receiver_config r;
            r.flow_id = 1;
            r.peer_addr = net.left_addr(0);
            auto* rx = net.right_host(0).attach(
                1, std::make_unique<tfrc::light_receiver_agent>(r));
            received_bytes = [rx] { return rx->received_bytes(); };
        } else {
            tfrc::receiver_config r;
            r.flow_id = 1;
            r.peer_addr = net.left_addr(0);
            auto* rx =
                net.right_host(0).attach(1, std::make_unique<tfrc::receiver_agent>(r));
            received_bytes = [rx] { return rx->received_bytes(); };
        }
        net.left_host(0).attach(1, std::make_unique<tfrc::sender_agent>(s));
    } else if (opt.proto == "qtp" || opt.proto == "qtp-af" || opt.proto == "qtp-light") {
        qtp::connection_pair pair =
            opt.proto == "qtp-af"
                ? qtp::make_qtp_af(1, net.left_addr(0), net.right_addr(0),
                                   opt.target_mbps * 1e6)
                : (opt.proto == "qtp-light"
                       ? qtp::make_qtp_light(1, net.left_addr(0), net.right_addr(0))
                       : qtp::make_qtp_default(1, net.left_addr(0), net.right_addr(0)));
        auto* rx = net.right_host(0).attach(1, std::move(pair.receiver));
        net.left_host(0).attach(1, std::move(pair.sender));
        received_bytes = [rx] { return rx->received_bytes(); };
    } else if (opt.proto == "tcp") {
        tcp::tcp_sender_config s;
        s.flow_id = 1;
        s.peer_addr = net.right_addr(0);
        tcp::tcp_receiver_config r;
        r.flow_id = 1;
        r.peer_addr = net.left_addr(0);
        auto* rx =
            net.right_host(0).attach(1, std::make_unique<tcp::tcp_receiver_agent>(r));
        net.left_host(0).attach(1, std::make_unique<tcp::tcp_sender_agent>(s));
        received_bytes = [rx] { return rx->delivered_bytes(); };
    } else {
        std::fprintf(stderr, "unknown --proto %s\n", opt.proto.c_str());
        return 2;
    }

    std::unique_ptr<util::csv_trace> trace;
    if (!opt.trace_path.empty()) {
        trace = std::make_unique<util::csv_trace>(
            opt.trace_path, std::vector<std::string>{"t_s", "rate_mbps"});
        if (!trace->ok()) {
            std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
            return 2;
        }
    }

    std::printf("vtpsim: proto=%s bottleneck=%.1fMb/s rtt=%.0fms loss=%.2f%% "
                "competing_tcp=%d target=%.1fMb/s queue=%s\n",
                opt.proto.c_str(), opt.bottleneck_mbps, opt.rtt_ms, opt.loss_percent,
                opt.competing_tcp, opt.target_mbps, opt.rio ? "RIO" : "DropTail");

    const util::sim_time interval = util::from_seconds(opt.interval_ms / 1000.0);
    const util::sim_time duration = util::from_seconds(opt.duration_s);
    std::uint64_t last = 0;
    for (util::sim_time t = interval; t <= duration; t += interval) {
        net.sched().run_until(t);
        const std::uint64_t bytes = received_bytes();
        const double mbps =
            (bytes - last) * 8.0 / util::to_seconds(interval) / 1e6;
        last = bytes;
        if (trace) trace->row({util::to_seconds(t), mbps});
        else std::printf("  t=%6.1fs  rate=%7.3f Mb/s\n", util::to_seconds(t), mbps);
    }

    // Application goodput excludes ~5% header overhead; the contract is
    // on wire bytes, so >= 95% of target means the reservation held.
    const double mean = received_bytes() * 8.0 / opt.duration_s / 1e6;
    std::printf("mean goodput: %.3f Mb/s over %.0f s%s\n", mean, opt.duration_s,
                opt.target_mbps > 0 ? (mean >= 0.95 * opt.target_mbps
                                           ? "  [target met]"
                                           : "  [below target]")
                                    : "");
    if (trace) std::printf("trace written: %s (%zu rows)\n", opt.trace_path.c_str(),
                           trace->rows_written());
    return 0;
}
