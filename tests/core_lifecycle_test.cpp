// Connection lifecycle: FIN/FIN-ACK teardown and the passive listener.
#include <gtest/gtest.h>

#include "core/listener.hpp"
#include "sim_fixtures.hpp"

namespace {

using namespace vtp;
using namespace vtp::testing;
using util::milliseconds;
using util::seconds;

sim::dumbbell_config base_config(std::size_t pairs = 1, double bottleneck = 20e6) {
    sim::dumbbell_config cfg;
    cfg.pairs = pairs;
    cfg.access_rate_bps = 100e6;
    cfg.access_delay = milliseconds(1);
    cfg.bottleneck_rate_bps = bottleneck;
    cfg.bottleneck_delay = milliseconds(20);
    return cfg;
}

TEST(teardown_test, reliable_transfer_closes_cleanly) {
    sim::dumbbell net(base_config());
    qtp::connection_config app;
    app.total_bytes = 500'000;
    auto pair = qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                     qtp::qtp_af_profile(0.0), qtp::capabilities{}, app);
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
    net.sched().run_until(seconds(30));
    EXPECT_TRUE(flow.sender->transfer_complete());
    EXPECT_TRUE(flow.sender->closed());
    EXPECT_TRUE(flow.receiver->remote_closed());
}

TEST(teardown_test, close_only_after_every_byte_is_acked) {
    // Under loss, the FIN must wait for the retransmissions to finish.
    sim::dumbbell net(base_config());
    net.forward_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.03, 7));
    qtp::connection_config app;
    app.total_bytes = 500'000;
    auto pair = qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                     qtp::qtp_af_profile(0.0), qtp::capabilities{}, app);
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
    net.sched().run_until(seconds(60));
    ASSERT_TRUE(flow.sender->closed());
    EXPECT_TRUE(flow.receiver->stream().complete());
    EXPECT_EQ(flow.receiver->stream().received_bytes(), 500'000u);
}

TEST(teardown_test, fin_retransmitted_through_loss) {
    // Heavy loss on the ack path kills FIN-ACKs; the FIN retry must win.
    sim::dumbbell net(base_config());
    qtp::connection_config app;
    app.total_bytes = 100'000;
    auto pair = qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                     qtp::qtp_af_profile(0.0), qtp::capabilities{}, app);
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
    // Lose 70% of reverse-path packets from t=0 (feedback + FIN-ACK).
    net.reverse_bottleneck().set_loss_model(
        std::make_unique<sim::bernoulli_loss>(0.7, 3));
    net.sched().run_until(seconds(60));
    EXPECT_TRUE(flow.sender->fin_sent());
    EXPECT_TRUE(flow.sender->closed());
}

TEST(teardown_test, closed_sender_arms_no_timer_again) {
    // A closed sender is inert: path requests, a renegotiation proposal
    // and late inbound packets arm no timer, so once reapable() its host
    // may free it (engine::server reaps closed outgoing sessions so).
    sim::dumbbell net(base_config());
    qtp::connection_config app;
    app.total_bytes = 100'000;
    app.path.enabled = true;
    auto pair = qtp::make_connection(1, net.left_addr(0), net.right_addr(0),
                                     qtp::qtp_af_profile(0.0), qtp::capabilities{}, app);
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
    net.sched().run_until(seconds(30));
    ASSERT_TRUE(flow.sender->closed());
    ASSERT_TRUE(flow.sender->reapable());
    const std::uint64_t challenges = flow.sender->paths().stats().challenges_sent;

    constexpr std::uint32_t other_addr = 4242;
    flow.sender->migrate(0);
    flow.sender->migrate(other_addr);
    flow.sender->add_path(other_addr + 1);
    flow.sender->request_renegotiate(qtp::qtp_af_profile(1e6));
    packet::path_challenge_segment pc;
    pc.token = 7;
    flow.sender->on_packet(packet::make_packet(1, other_addr, net.left_addr(0), pc));
    flow.sender->on_packet(packet::make_packet(1, net.right_addr(0), net.left_addr(0),
                                               packet::sack_feedback_segment{}));

    EXPECT_TRUE(flow.sender->reapable());
    EXPECT_FALSE(flow.sender->renegotiation_pending());
    EXPECT_EQ(flow.sender->paths().stats().challenges_sent, challenges);
    EXPECT_EQ(flow.sender->paths().stats().challenges_received, 0u);
}

TEST(teardown_test, unreliable_finite_stream_also_closes) {
    sim::dumbbell net(base_config());
    qtp::connection_config app;
    app.total_bytes = 200'000;
    auto pair = qtp::make_qtp_light(1, net.left_addr(0), net.right_addr(0),
                                    sack::reliability_mode::none, app);
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
    net.sched().run_until(seconds(30));
    EXPECT_TRUE(flow.sender->closed());
    EXPECT_TRUE(flow.receiver->remote_closed());
}

TEST(teardown_test, infinite_stream_never_closes) {
    sim::dumbbell net(base_config());
    auto pair = qtp::make_qtp_default(1, net.left_addr(0), net.right_addr(0));
    auto flow = add_qtp_flow(net, 0, 1, std::move(pair));
    net.sched().run_until(seconds(10));
    EXPECT_FALSE(flow.sender->fin_sent());
    EXPECT_FALSE(flow.sender->closed());
}

TEST(listener_test, accepts_multiple_connections_on_one_host) {
    sim::dumbbell net(base_config(2, 50e6));

    qtp::listener_config lcfg;
    auto* accept_log = new std::vector<std::uint32_t>; // owned by lambda below
    qtp::listener listen(lcfg);
    listen.set_on_accept([accept_log](std::uint32_t flow, qtp::connection_receiver&) {
        accept_log->push_back(flow);
    });
    listen.start(net.right_host(0));
    net.right_host(0).set_default_agent(&listen);

    // Two independent senders target the same server host.
    qtp::connection_config app;
    app.total_bytes = 300'000;
    auto mk_sender = [&](std::uint32_t flow) {
        qtp::connection_config cfg = app;
        cfg.flow_id = flow;
        cfg.peer_addr = net.right_addr(0);
        cfg.proposal = qtp::qtp_af_profile(0.0);
        return std::make_unique<qtp::connection_sender>(cfg);
    };
    auto* tx1 = net.left_host(0).attach(101, mk_sender(101));
    auto* tx2 = net.left_host(1).attach(102, mk_sender(102));

    net.sched().run_until(seconds(40));
    EXPECT_EQ(listen.accepted(), 2u);
    ASSERT_EQ(accept_log->size(), 2u);
    EXPECT_TRUE(tx1->transfer_complete());
    EXPECT_TRUE(tx2->transfer_complete());
    EXPECT_TRUE(tx1->closed());
    EXPECT_TRUE(tx2->closed());
    delete accept_log;
}

TEST(listener_test, non_syn_strays_are_counted_not_accepted) {
    sim::dumbbell net(base_config());
    qtp::listener listen(qtp::listener_config{});
    listen.start(net.right_host(0));
    net.right_host(0).set_default_agent(&listen);

    // A lone data packet for an unknown flow: must not spawn an endpoint.
    class stray : public qtp::agent {
    public:
        explicit stray(std::uint32_t dst) : dst_(dst) {}
        void start(qtp::environment& env) override {
            packet::data_segment d;
            d.payload_len = 100;
            env.send(packet::make_packet(55, env.local_addr(), dst_, d));
        }
        void on_packet(const packet::packet&) override {}
        std::string name() const override { return "stray"; }

    private:
        std::uint32_t dst_;
    };
    net.left_host(0).attach(55, std::make_unique<stray>(net.right_addr(0)));
    net.sched().run_until(seconds(2));
    EXPECT_EQ(listen.accepted(), 0u);
    EXPECT_EQ(listen.stray_packets(), 1u);
}

TEST(listener_test, negotiation_applies_listener_capabilities) {
    sim::dumbbell net(base_config());
    qtp::listener_config lcfg;
    lcfg.caps.support_receiver_estimation = false; // light server
    qtp::listener listen(lcfg);
    listen.start(net.right_host(0));
    net.right_host(0).set_default_agent(&listen);

    qtp::connection_config cfg;
    cfg.flow_id = 9;
    cfg.peer_addr = net.right_addr(0);
    cfg.proposal = qtp::qtp_default_profile(); // asks for receiver-side
    auto* tx = net.left_host(0).attach(9, std::make_unique<qtp::connection_sender>(cfg));

    net.sched().run_until(seconds(5));
    ASSERT_TRUE(tx->established());
    EXPECT_EQ(tx->active_profile().estimation, tfrc::estimation_mode::sender_side);
}

} // namespace
