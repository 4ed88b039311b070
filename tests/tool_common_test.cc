// Coverage for the daemons' shared CLI plumbing (tools/tool_common.h):
// serving-flag parsing (including the io-backend, pin-cpus and push-plane
// flags and their rejection paths), strict numeric flag values, endpoint
// parsing with error reporting, the metrics dump helper and counter
// aggregation.
#include "../tools/tool_common.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace dnscup::tools {
namespace {

/// argv-shaped cursor: parse_serving_flag consumes value arguments
/// through the same `next` closure the daemons use.
struct Args {
  explicit Args(std::vector<std::string> argv) : argv_(std::move(argv)) {}

  FlagParse parse(ServingFlags& flags) {
    const std::string arg = argv_.at(i_++);
    return parse_serving_flag(
        arg,
        [this]() -> const char* {
          return i_ < argv_.size() ? argv_[i_++].c_str() : nullptr;
        },
        flags);
  }

  std::vector<std::string> argv_;
  std::size_t i_ = 0;
};

TEST(ServingFlagsTest, ParsesCoreServingFlags) {
  ServingFlags flags(5300);
  EXPECT_EQ(flags.port, 5300);

  EXPECT_EQ(Args({"--port", "4000"}).parse(flags), FlagParse::kMatched);
  EXPECT_EQ(flags.port, 4000);
  EXPECT_EQ(Args({"--workers", "4"}).parse(flags), FlagParse::kMatched);
  EXPECT_EQ(flags.workers, 4);
  EXPECT_EQ(Args({"--batch", "64"}).parse(flags), FlagParse::kMatched);
  EXPECT_EQ(flags.batch, 64);
  EXPECT_EQ(Args({"--no-reuseport"}).parse(flags), FlagParse::kMatched);
  EXPECT_FALSE(flags.reuseport);
  EXPECT_EQ(Args({"--no-dnscup"}).parse(flags), FlagParse::kMatched);
  EXPECT_FALSE(flags.dnscup);

  // Zero/negative worker and batch counts are rejected, not clamped.
  EXPECT_EQ(Args({"--workers", "0"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--batch", "-1"}).parse(flags), FlagParse::kError);
  // A value flag at the end of argv has no value to consume.
  EXPECT_EQ(Args({"--port"}).parse(flags), FlagParse::kError);
  // Unknown flags are left for the daemon's own parser.
  EXPECT_EQ(Args({"--zone"}).parse(flags), FlagParse::kUnmatched);
}

TEST(ServingFlagsTest, NumericServingFlagsParseStrictly) {
  ServingFlags flags(5300);
  // Out-of-range values are errors, not wrapped or clamped ones.
  EXPECT_EQ(Args({"--port", "70000"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--port", "-1"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(flags.port, 5300);
  EXPECT_EQ(Args({"--port", "65535"}).parse(flags), FlagParse::kMatched);
  EXPECT_EQ(flags.port, 65535);
  EXPECT_EQ(Args({"--workers", "100000"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--batch", "0"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--rcvbuf", "-5"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--sndbuf", "99999999999"}).parse(flags),
            FlagParse::kError);
  EXPECT_EQ(Args({"--metrics-interval", "0"}).parse(flags),
            FlagParse::kError);
  EXPECT_EQ(Args({"--push-listen", "-1"}).parse(flags), FlagParse::kError);

  // Trailing garbage is rejected, not truncated at the first non-digit.
  EXPECT_EQ(Args({"--batch", "32x"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--workers", "4.5"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--rcvbuf", "1M"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--metrics-interval", "5s"}).parse(flags),
            FlagParse::kError);
  EXPECT_EQ(Args({"--push-listen", "4444 "}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--port", ""}).parse(flags), FlagParse::kError);
  EXPECT_EQ(flags.batch, 32);
  EXPECT_EQ(flags.workers, 1);
  EXPECT_EQ(flags.rcvbuf, 1 << 20);
  EXPECT_FALSE(flags.push_plane);

  EXPECT_EQ(Args({"--rcvbuf", "0"}).parse(flags), FlagParse::kMatched);
  EXPECT_EQ(flags.rcvbuf, 0);  // 0 keeps the OS default
  EXPECT_EQ(Args({"--metrics-interval", "1"}).parse(flags),
            FlagParse::kMatched);
  EXPECT_EQ(flags.metrics_interval_s, 1);
}

/// dnsq's argv shape: parse_query_flag peeks at the entry after the flag.
FlagParse parse_query(std::vector<std::string> argv, QueryFlags& flags,
                      std::size_t* consumed = nullptr) {
  std::size_t i = 1;
  const FlagParse result = parse_query_flag(
      argv.at(0), argv.size() > 1 ? argv[1].c_str() : nullptr,
      [&]() -> const char* {
        return i < argv.size() ? argv[i++].c_str() : nullptr;
      },
      flags);
  if (consumed != nullptr) *consumed = i;
  return result;
}

TEST(QueryFlagsTest, ExtTakesAnOptionalWholeRrc) {
  QueryFlags flags;
  std::size_t consumed = 0;
  EXPECT_EQ(parse_query({"--ext", "360"}, flags, &consumed),
            FlagParse::kMatched);
  EXPECT_TRUE(flags.ext);
  EXPECT_EQ(flags.rrc, 360);
  EXPECT_EQ(consumed, 2u);

  // A bare --ext (or one followed by the query type) keeps RRC 0.
  QueryFlags bare;
  EXPECT_EQ(parse_query({"--ext"}, bare), FlagParse::kMatched);
  EXPECT_TRUE(bare.ext);
  EXPECT_EQ(bare.rrc, 0);
  QueryFlags typed;
  EXPECT_EQ(parse_query({"--ext", "A"}, typed, &consumed),
            FlagParse::kMatched);
  EXPECT_EQ(typed.rrc, 0);
  EXPECT_EQ(consumed, 1u) << "the type stays for the caller";

  // A fraction, garbage or an out-of-range RRC is an error, not RRC 0.
  for (const char* bad : {"0.5", "10x", "70000"}) {
    QueryFlags flags2;
    EXPECT_EQ(parse_query({"--ext", bad}, flags2), FlagParse::kError) << bad;
  }
}

TEST(QueryFlagsTest, TimeoutParsesStrictly) {
  QueryFlags flags;
  EXPECT_EQ(parse_query({"--timeout", "500"}, flags), FlagParse::kMatched);
  EXPECT_EQ(flags.timeout_ms, 500);
  EXPECT_EQ(parse_query({"--timeout", "0"}, flags), FlagParse::kError);
  EXPECT_EQ(parse_query({"--timeout", "2s"}, flags), FlagParse::kError);
  EXPECT_EQ(parse_query({"--timeout"}, flags), FlagParse::kError);
  EXPECT_EQ(flags.timeout_ms, 500);
  EXPECT_EQ(parse_query({"--update"}, flags), FlagParse::kUnmatched);
}

TEST(ServingFlagsTest, ParsesIoBackend) {
  ServingFlags flags(5300);
  EXPECT_EQ(Args({"--io-backend", "portable"}).parse(flags),
            FlagParse::kMatched);
  EXPECT_EQ(flags.io_backend, net::IoBackendKind::kPortable);
  EXPECT_EQ(Args({"--io-backend", "uring"}).parse(flags),
            FlagParse::kMatched);
  EXPECT_EQ(flags.io_backend, net::IoBackendKind::kUring);
  EXPECT_EQ(Args({"--io-backend", "default"}).parse(flags),
            FlagParse::kMatched);
  EXPECT_EQ(flags.io_backend, net::IoBackendKind::kDefault);
  EXPECT_EQ(Args({"--io-backend", "dpdk"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--io-backend"}).parse(flags), FlagParse::kError);
}

TEST(ServingFlagsTest, ParsesPinCpus) {
  ServingFlags flags(5300);
  EXPECT_EQ(Args({"--pin-cpus", "0,2,4"}).parse(flags), FlagParse::kMatched);
  EXPECT_EQ(flags.pin_cpus, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(Args({"--pin-cpus", "7"}).parse(flags), FlagParse::kMatched);
  EXPECT_EQ(flags.pin_cpus, (std::vector<int>{7}));

  EXPECT_EQ(Args({"--pin-cpus", ""}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--pin-cpus", "0,"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--pin-cpus", "0,x"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--pin-cpus", "-1"}).parse(flags), FlagParse::kError);
  EXPECT_EQ(Args({"--pin-cpus", "9999"}).parse(flags), FlagParse::kError);
}

TEST(ServingFlagsTest, ParsesPushPlaneFlags) {
  ServingFlags flags(5300);
  EXPECT_FALSE(flags.push_plane);

  EXPECT_EQ(Args({"--push-plane"}).parse(flags), FlagParse::kMatched);
  EXPECT_TRUE(flags.push_plane);

  // --push-listen and --push-authority imply --push-plane on their own.
  ServingFlags listen(5300);
  EXPECT_EQ(Args({"--push-listen", "4444"}).parse(listen),
            FlagParse::kMatched);
  EXPECT_TRUE(listen.push_plane);
  EXPECT_EQ(listen.push_listen, 4444);
  EXPECT_EQ(Args({"--push-listen", "99999"}).parse(listen),
            FlagParse::kError);

  ServingFlags authority(5301);
  EXPECT_EQ(Args({"--push-authority", "127.0.0.1:5300"}).parse(authority),
            FlagParse::kMatched);
  EXPECT_TRUE(authority.push_plane);
  EXPECT_EQ(authority.push_authority,
            (net::Endpoint{net::make_ip(127, 0, 0, 1), 5300}));
  EXPECT_EQ(Args({"--push-authority", "127.0.0.1:53x"}).parse(authority),
            FlagParse::kError);
}

TEST(ParseNumberTest, AcceptsNumbersInRange) {
  int64_t seconds = 0;
  EXPECT_TRUE(parse_number("--max-lease", "3600", int64_t{1},
                           int64_t{1000000}, seconds));
  EXPECT_EQ(seconds, 3600);
  double budget = -1;
  EXPECT_TRUE(parse_number("--lease-storage-budget", "2.5e3", 0.0, 1e9,
                           budget));
  EXPECT_DOUBLE_EQ(budget, 2500.0);
  int shards = 0;
  EXPECT_TRUE(parse_number("--planner-shards", "256", 1, 256, shards));
  EXPECT_EQ(shards, 256);
}

TEST(ParseNumberTest, RejectsTrailingGarbage) {
  // Regression: atof read "5k" as a budget of 5.
  double budget = -1;
  EXPECT_FALSE(parse_number("--lease-storage-budget", "5k", 0.0, 1e9,
                            budget));
  EXPECT_DOUBLE_EQ(budget, -1);  // untouched on error
  int64_t seconds = 7;
  EXPECT_FALSE(parse_number("--max-lease", "60s", int64_t{1},
                            int64_t{1000000}, seconds));
  EXPECT_FALSE(parse_number("--max-lease", "60 ", int64_t{1},
                            int64_t{1000000}, seconds));
  EXPECT_FALSE(parse_number("--max-lease", " 60", int64_t{1},
                            int64_t{1000000}, seconds));
  EXPECT_EQ(seconds, 7);
}

TEST(ParseNumberTest, RejectsEmptyMissingAndNonNumeric) {
  // Regression: atoll read "abc" as a max lease of 0, denying every lease.
  int64_t seconds = 7;
  EXPECT_FALSE(parse_number("--max-lease", "abc", int64_t{1},
                            int64_t{1000000}, seconds));
  EXPECT_FALSE(parse_number("--max-lease", "", int64_t{1}, int64_t{1000000},
                            seconds));
  EXPECT_FALSE(parse_number("--max-lease", nullptr, int64_t{1},
                            int64_t{1000000}, seconds));
  double budget = -1;
  EXPECT_FALSE(parse_number("--lease-msg-budget", "nan", 0.0, 1e9, budget));
  EXPECT_FALSE(parse_number("--lease-msg-budget", "inf", 0.0, 1e9, budget));
  EXPECT_EQ(seconds, 7);
  EXPECT_DOUBLE_EQ(budget, -1);
}

TEST(ParseNumberTest, RejectsNegativeAndOutOfRange) {
  int64_t seconds = 7;
  EXPECT_FALSE(parse_number("--snapshot-interval", "-5", int64_t{1},
                            int64_t{1000000}, seconds));
  EXPECT_FALSE(parse_number("--snapshot-interval", "0", int64_t{1},
                            int64_t{1000000}, seconds));
  double budget = -1;
  EXPECT_FALSE(parse_number("--lease-msg-budget", "-0.5", 0.0, 1e9, budget));
  int shards = 0;
  EXPECT_FALSE(parse_number("--planner-shards", "257", 1, 256, shards));
  EXPECT_EQ(seconds, 7);
  EXPECT_DOUBLE_EQ(budget, -1);
  EXPECT_EQ(shards, 0);
}

TEST(ParseNumberTest, RejectsOverflow) {
  int64_t capacity = 7;
  EXPECT_FALSE(parse_number("--planner-capacity", "9223372036854775808",
                            int64_t{1}, std::numeric_limits<int64_t>::max(),
                            capacity));
  int shards = 0;
  EXPECT_FALSE(parse_number("--planner-shards", "99999999999", 1, 256,
                            shards));
  double budget = -1;
  EXPECT_FALSE(parse_number("--lease-storage-budget", "1e999", 0.0,
                            std::numeric_limits<double>::max(), budget));
  EXPECT_EQ(capacity, 7);
  EXPECT_EQ(shards, 0);
  EXPECT_DOUBLE_EQ(budget, -1);
}

TEST(ParseEndpointTest, AcceptsCanonicalForm) {
  const auto endpoint = net::parse_endpoint("10.1.2.3:53");
  ASSERT_TRUE(endpoint.has_value());
  EXPECT_EQ(endpoint->ip, net::make_ip(10, 1, 2, 3));
  EXPECT_EQ(endpoint->port, 53);
  EXPECT_EQ(endpoint->to_string(), "10.1.2.3:53");
}

TEST(ParseEndpointTest, RejectsTrailingGarbageAfterThePort) {
  // Regression: "127.0.0.1:53x" must not parse as port 53.
  std::string error;
  EXPECT_FALSE(net::parse_endpoint("127.0.0.1:53x", &error).has_value());
  EXPECT_NE(error.find("127.0.0.1:53x"), std::string::npos)
      << "error must name the offending input: " << error;
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  EXPECT_FALSE(net::parse_endpoint("127.0.0.1:53 ").has_value());
  EXPECT_FALSE(net::parse_endpoint("127.0.0.1:53:54").has_value());
}

TEST(ParseEndpointTest, RejectsMalformedInputsWithSpecificErrors) {
  std::string error;
  EXPECT_FALSE(net::parse_endpoint("", &error).has_value());
  EXPECT_FALSE(net::parse_endpoint("127.0.0.1", &error).has_value());
  EXPECT_NE(error.find("missing ':port'"), std::string::npos) << error;
  EXPECT_FALSE(net::parse_endpoint("300.0.0.1:53", &error).has_value());
  EXPECT_NE(error.find("malformed IPv4"), std::string::npos) << error;
  EXPECT_FALSE(net::parse_endpoint("1.2.3:53", &error).has_value());
  EXPECT_FALSE(net::parse_endpoint("127.0.0.1:0", &error).has_value());
  EXPECT_NE(error.find("port 0"), std::string::npos) << error;
  EXPECT_FALSE(net::parse_endpoint("127.0.0.1:65536", &error).has_value());
  EXPECT_FALSE(net::parse_endpoint("127.0.0.1:", &error).has_value());
  // The null-error overload still just rejects.
  EXPECT_FALSE(net::parse_endpoint("bogus").has_value());
}

TEST(MetricsHelpersTest, DumpWritesSnapshotJson) {
  metrics::MetricsRegistry registry;
  metrics::Counter requests = registry.counter("tool_test_requests");
  requests.inc(3);

  const std::string path = "tool_common_test_metrics.json";
  dump_metrics(registry.snapshot(123), path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "dump did not create " << path;
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("tool_test_requests"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsHelpersTest, CounterSumCollapsesWorkersAndFiltersLabels) {
  metrics::MetricsRegistry a;
  metrics::MetricsRegistry b;
  a.counter("events", {{"result", "ok"}}).inc(2);
  a.counter("events", {{"result", "err"}}).inc(1);
  b.counter("events", {{"result", "ok"}}).inc(5);
  b.counter("other", {{"result", "ok"}}).inc(100);

  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(counter_sum(merged, "events"), 8u);
  EXPECT_EQ(counter_sum(merged, "events", "result", "ok"), 7u);
  EXPECT_EQ(counter_sum(merged, "events", "result", "err"), 1u);
  EXPECT_EQ(counter_sum(merged, "events", "result", "missing"), 0u);
}

}  // namespace
}  // namespace dnscup::tools
