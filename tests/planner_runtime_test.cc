// End-to-end tests of the lease planner wired into the serving runtime:
// real sockets, worker threads feeding the planner thread through their
// observation queues, planner-assigned lease lengths on the wire, and
// metrics aggregation.  These also run under the ThreadSanitizer leg of
// tools/check.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dns/zone_text.h"
#include "net/udp_transport.h"
#include "runtime/runtime.h"

namespace dnscup::runtime {
namespace {

constexpr const char* kZoneText = R"($ORIGIN example.com.
@ IN SOA ns1.example.com. admin.example.com. 1 7200 900 604800 300
@ 300 IN NS ns1.example.com.
ns1 300 IN A 10.0.0.1
hot 300 IN A 10.1.0.10
cold 300 IN A 10.1.0.11
)";

dns::Zone test_zone() {
  auto zone =
      dns::parse_zone_text(kZoneText, dns::Name::parse("example.com").value());
  EXPECT_TRUE(zone.ok()) << (zone.ok() ? "" : zone.error().to_string());
  return std::move(zone).value();
}

Config planner_config(double storage_budget) {
  Config config;
  config.port = 0;
  config.workers = 1;
  config.max_lease = net::seconds(86400);
  config.planner = true;
  config.planner_config.storage_budget = storage_budget;
  config.planner_config.poll_interval = net::milliseconds(1);
  config.planner_config.replan_interval = net::seconds(1);
  // One shard: the budget is split per shard, and these tests reason
  // about exact grant/deny outcomes against the whole budget.
  config.planner_config.shards = 1;
  config.planner_config.capacity = 4096;
  return config;
}

/// Client socket sending EXT queries with a configurable reported RRC.
class Client {
 public:
  Client() {
    auto bound = net::UdpTransport::bind(0);
    EXPECT_TRUE(bound.ok());
    udp_ = std::move(bound).value();
    udp_->set_receive_handler(
        [this](const net::Endpoint&, std::span<const uint8_t> data) {
          auto message = dns::Message::decode(data);
          if (!message.ok()) return;
          std::lock_guard lock(mutex_);
          messages_.push_back(std::move(message).value());
          cv_.notify_all();
        });
  }

  dns::Message query(const net::Endpoint& server, const std::string& name,
                     double rate_qps) {
    dns::Message query;
    query.id = next_id_++;
    query.flags.opcode = dns::Opcode::kQuery;
    query.flags.rd = true;
    query.flags.ext = true;
    query.questions.push_back(dns::Question{
        dns::Name::parse(name).value(), dns::RRType::kA, dns::RRClass::kIN,
        dns::rrc_from_rate(rate_qps)});
    udp_->send(server, query.encode());
    dns::Message response;
    std::unique_lock lock(mutex_);
    const bool got =
        cv_.wait_for(lock, std::chrono::seconds(5), [&] {
          for (const dns::Message& m : messages_) {
            if (m.flags.qr && m.id == query.id) {
              response = m;
              return true;
            }
          }
          return false;
        });
    EXPECT_TRUE(got) << "no response for " << name;
    return response;
  }

 private:
  std::unique_ptr<net::UdpTransport> udp_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<dns::Message> messages_;
  uint16_t next_id_ = 100;
};

void wait_applied(ServingRuntime& rt, uint64_t target) {
  ASSERT_NE(rt.planner(), nullptr);
  for (int i = 0; i < 5000 && rt.planner()->applied() < target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(rt.planner()->applied(), target);
}

TEST(PlannerRuntime, HotPairKeepsLeaseUnderTightBudget) {
  // Budget ≈ 1 expected live lease: the hot pair's long lease consumes
  // it all; cold pairs must end up planned-but-denied.
  auto started = ServingRuntime::start(planner_config(1.0), {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();
  const net::Endpoint server = rt.endpoints()[0];

  Client hot;
  std::vector<std::unique_ptr<Client>> cold;
  for (int i = 0; i < 6; ++i) cold.push_back(std::make_unique<Client>());

  hot.query(server, "hot.example.com", /*rate_qps=*/50.0);
  for (auto& client : cold) {
    client->query(server, "cold.example.com", /*rate_qps=*/0.01);
  }
  wait_applied(rt, 7);  // planner has processed every pair once

  // Planner-assigned: hot keeps the maximal lease (P ≈ 1 fills the
  // budget), the cold pairs are denied new leases.
  const auto hot_response = hot.query(server, "hot.example.com", 50.0);
  EXPECT_EQ(hot_response.flags.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(hot_response.llt, dns::llt_from_seconds(86400));
  wait_applied(rt, 8);

  int denied = 0;
  for (auto& client : cold) {
    const auto response = client->query(server, "cold.example.com", 0.01);
    EXPECT_EQ(response.flags.rcode, dns::Rcode::kNoError);
    ASSERT_FALSE(response.answers.empty());  // answer unaffected by denial
    if (response.llt == 0) ++denied;
  }
  EXPECT_GE(denied, 5);
  rt.stop();
}

TEST(PlannerRuntime, UnplannedIsDeniedThenThePlannedPairIsGranted) {
  // A pair's first EXT query reaches the authority before the planner has
  // seen it: denied, plain TTL.  Once the planner has applied that
  // observation, the pair's next query gets the planned lease (the
  // budget holds it whole).
  auto started = ServingRuntime::start(planner_config(100.0), {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();
  const net::Endpoint server = rt.endpoints()[0];

  Client client;
  const auto first = client.query(server, "hot.example.com", 5.0);
  EXPECT_EQ(first.llt, 0) << "an unplanned pair must be denied";
  EXPECT_EQ(first.flags.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(first.answers.empty());  // answer unaffected by denial
  wait_applied(rt, 1);
  const auto second = client.query(server, "hot.example.com", 5.0);
  EXPECT_EQ(second.llt, dns::llt_from_seconds(86400));
  rt.stop();
}

TEST(PlannerRuntime, MetricsIncludePlannerInstruments) {
  auto started = ServingRuntime::start(planner_config(100.0), {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();
  const net::Endpoint server = rt.endpoints()[0];

  Client client;
  client.query(server, "hot.example.com", 5.0);
  wait_applied(rt, 1);
  const auto snapshot = rt.metrics();
  EXPECT_GE(snapshot.counter_total("planner_observations"), 1u);
  const auto* pairs = snapshot.find("planner_pairs");
  ASSERT_NE(pairs, nullptr);
  EXPECT_GE(pairs->gauge_value, 1.0);
  rt.stop();
}

TEST(PlannerRuntime, CleanStopUnderQueryChurn) {
  auto started = ServingRuntime::start(planner_config(10.0), {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();
  const net::Endpoint server = rt.endpoints()[0];

  // Clients are constructed here, not inside the threads: binding a
  // transport registers instruments, and registry registration is
  // single-threaded by design.
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < 3; ++c) clients.push_back(std::make_unique<Client>());
  std::vector<std::thread> churn;
  for (int c = 0; c < 3; ++c) {
    churn.emplace_back([&server, &clients, c] {
      for (int i = 0; i < 30; ++i) {
        clients[c]->query(
            server, (c % 2 == 0 ? "hot.example.com" : "cold.example.com"),
            1.0 + c);
      }
    });
  }
  for (auto& t : churn) t.join();
  rt.planner()->replan_now();
  rt.stop();  // planner stops after workers join; nothing may hang
  EXPECT_GE(rt.planner()->applied(), 1u);
}

}  // namespace
}  // namespace dnscup::runtime
