// In-process socket tests for the scale-out serving path (src/net/):
// the epoll ScoreServer front door over a real loopback TCP connection,
// the error-handling split (payload malformation answers and keeps the
// connection; frame malformation closes it), QoS rejection surfacing,
// and the Router fanning one client across two live backends — with
// bit-identical scores against the direct in-process ServeFrontend as
// the hard equivalence check. Pipelined bursts pin exactly-once delivery
// and write coalescing; a backend stopped mid-burst and a client that
// never reads pin the router's failure and backpressure paths. The
// EventLoop core both roles share is pinned directly too: tasks posted
// from many threads run once each, on the loop thread, and none runs
// after Stop() returns.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/mace_detector.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/router.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/frontend.h"
#include "ts/generator.h"
#include "wire/frame.h"
#include "wire/messages.h"

namespace mace::net {
namespace {

std::vector<ts::ServiceData> TinyWorkload() {
  std::vector<ts::ServiceData> services;
  Rng rng(11);
  for (int s = 0; s < 2; ++s) {
    ts::NormalPattern pattern;
    pattern.kind =
        s == 0 ? ts::WaveformKind::kSinusoid : ts::WaveformKind::kSquare;
    pattern.period = 8.0 + 4.0 * s;
    pattern.noise_stddev = 0.05;
    pattern.feature_weights = {1.0, 0.7};
    pattern.feature_lags = {0.0, 2.0};
    ts::ServiceData service;
    service.name = "svc" + std::to_string(s);
    service.train = ts::GenerateNormal(pattern, 320, 0, &rng);
    service.test = ts::GenerateNormal(pattern, 160, 320, &rng);
    services.push_back(std::move(service));
  }
  return services;
}

std::shared_ptr<const core::MaceDetector> FittedModel() {
  static const std::shared_ptr<const core::MaceDetector> model = [] {
    core::MaceConfig config;
    config.epochs = 1;
    auto detector = std::make_shared<core::MaceDetector>(config);
    MACE_CHECK_OK(detector->Fit(TinyWorkload()));
    return detector;
  }();
  return model;
}

std::unique_ptr<serve::ServeFrontend> MakeFrontend(size_t shards = 2) {
  serve::ServeConfig config;
  config.num_shards = shards;
  auto created = serve::ServeFrontend::Create(FittedModel(), config);
  MACE_CHECK_OK(created.status());
  return std::move(created).value();
}

std::unique_ptr<WireClient> Connect(uint16_t port) {
  auto client = WireClient::Connect("127.0.0.1", port);
  MACE_CHECK_OK(client.status());
  return std::move(client).value();
}

/// Streams observations through one tenant session over the wire and
/// concatenates every score batch the server returns.
std::vector<double> SocketScores(
    WireClient* client, const std::string& tenant, int32_t service,
    const std::vector<std::vector<double>>& observations) {
  std::vector<double> scores;
  for (const std::vector<double>& observation : observations) {
    wire::ScoreRequest request;
    request.tenant = tenant;
    request.service = service;
    request.values = observation;
    auto response = client->Score(request);
    MACE_CHECK_OK(response.status());
    MACE_CHECK(response->ok()) << response->message;
    scores.insert(scores.end(), response->scores.begin(),
                  response->scores.end());
  }
  return scores;
}

/// The same stream through the in-process frontend — the ground truth
/// the socket path must match bit for bit.
std::vector<double> DirectScores(
    serve::ServeFrontend* frontend, const std::string& tenant,
    int32_t service, const std::vector<std::vector<double>>& observations) {
  std::vector<double> scores;
  for (const std::vector<double>& observation : observations) {
    auto submitted = frontend->Submit(tenant, service, observation);
    MACE_CHECK_OK(submitted.status());
    serve::ScoreBatch batch = submitted->get();
    MACE_CHECK_OK(batch.status);
    scores.insert(scores.end(), batch.scores.begin(), batch.scores.end());
  }
  return scores;
}

bool BitIdentical(const std::vector<double>& a,
                  const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Reads frames from a blocking socket until `count` have arrived. Stops
/// early on EOF, a framing error, or `timeout_ms` without input, so a
/// lost response fails the caller's count check instead of hanging.
std::vector<wire::OwnedFrame> ReadFrames(int fd, size_t count,
                                         int timeout_ms = 20000) {
  std::vector<wire::OwnedFrame> frames;
  wire::FrameDecoder decoder;
  uint8_t buffer[64 * 1024];
  while (frames.size() < count) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) break;
    auto n = RecvSome(fd, buffer, sizeof(buffer));
    if (!n.ok() || *n == 0) break;
    decoder.Append(buffer, *n);
    for (;;) {
      auto next = decoder.Next();
      if (!next.ok()) return frames;
      if (!next->has_value()) break;
      frames.push_back(std::move(**next));
    }
  }
  return frames;
}

std::vector<std::string> Names(const std::string& prefix, int count) {
  std::vector<std::string> names;
  for (int k = 0; k < count; ++k) names.push_back(prefix + std::to_string(k));
  return names;
}

/// Tenant names, `per_backend` of them placed on each of `backends` by
/// the router's ring (placement follows the ephemeral ports, so names
/// are probed rather than fixed).
std::vector<std::string> SpreadTenants(
    const std::string& prefix, const std::vector<std::string>& backends,
    size_t per_backend) {
  std::vector<std::string> tenants;
  std::vector<size_t> placed(backends.size(), 0);
  for (int k = 0; tenants.size() < per_backend * backends.size(); ++k) {
    const std::string tenant = prefix + std::to_string(k);
    const size_t b = Router::RingPick(backends, 64, tenant);
    if (placed[b] == per_backend) continue;
    ++placed[b];
    tenants.push_back(tenant);
  }
  return tenants;
}

/// A pipelined burst: the tenants take turns over the first `steps`
/// observations of the test split (tenant k on service k % 2), so each
/// tenant's requests go out in order under increasing ids.
struct Burst {
  std::vector<std::string> tenants;
  std::vector<uint8_t> bytes;  ///< every frame, for one write
  std::map<uint64_t, size_t> tenant_of;  ///< request id → tenant index

  Burst(std::vector<std::string> names, int steps)
      : tenants(std::move(names)) {
    const auto workload = TinyWorkload();
    const size_t tenant_count = tenants.size();
    uint64_t id = 1;
    for (int t = 0; t < steps; ++t) {
      for (size_t k = 0; k < tenant_count; ++k) {
        wire::ScoreRequest request;
        request.tenant = tenants[k];
        request.service = k % 2;
        request.values = workload[k % 2].test.values()[t];
        std::vector<uint8_t> payload;
        wire::EncodeScoreRequest(request, &payload);
        wire::AppendFrame(&bytes, wire::FrameType::kScoreRequest, id,
                          payload);
        tenant_of[id++] = k;
      }
    }
  }

  size_t frames() const { return tenant_of.size(); }

  /// Checks every request was answered exactly once and OK, and that
  /// each tenant's scores, in request order, memcmp-equal the same
  /// stream through `reference`.
  void ExpectAnsweredOnceAndBitIdentical(
      const std::vector<wire::OwnedFrame>& responses,
      serve::ServeFrontend* reference, int steps) const {
    ASSERT_EQ(responses.size(), frames()) << "responses lost";
    std::map<uint64_t, wire::ScoreResponse> by_id;
    for (const wire::OwnedFrame& frame : responses) {
      ASSERT_EQ(frame.type, wire::FrameType::kScoreResponse);
      ASSERT_EQ(tenant_of.count(frame.request_id), 1u)
          << "unknown response id " << frame.request_id;
      auto decoded = wire::DecodeScoreResponse(frame.payload.data(),
                                               frame.payload.size());
      ASSERT_TRUE(decoded.ok());
      ASSERT_TRUE(decoded->ok()) << decoded->message;
      ASSERT_TRUE(by_id.emplace(frame.request_id, *decoded).second)
          << "duplicate response id " << frame.request_id;
    }
    const auto workload = TinyWorkload();
    for (size_t k = 0; k < tenants.size(); ++k) {
      std::vector<double> wire_scores;
      for (const auto& [id, response] : by_id) {
        if (tenant_of.at(id) != k) continue;
        wire_scores.insert(wire_scores.end(), response.scores.begin(),
                           response.scores.end());
      }
      const auto& values = workload[k % 2].test.values();
      const std::vector<std::vector<double>> steps_in(
          values.begin(), values.begin() + steps);
      const auto direct =
          DirectScores(reference, "ref-" + tenants[k],
                       static_cast<int32_t>(k % 2), steps_in);
      EXPECT_FALSE(direct.empty());
      EXPECT_TRUE(BitIdentical(wire_scores, direct))
          << tenants[k] << " diverged under the pipelined burst";
    }
  }
};

TEST(ScoreServerTest, PingStatsAndCleanStop) {
  auto frontend = MakeFrontend();
  auto server = ScoreServer::Start(frontend.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_NE((*server)->port(), 0);

  auto client = Connect((*server)->port());
  MACE_CHECK_OK(client->Ping());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->empty());
  EXPECT_EQ((*server)->connections_opened(), 1u);
  EXPECT_GE((*server)->frames_received(), 2u);
}

TEST(ScoreServerTest, ScoresBitIdenticalToDirectFrontend) {
  auto frontend = MakeFrontend();
  auto server = ScoreServer::Start(frontend.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().message();
  auto client = Connect((*server)->port());

  const auto workload = TinyWorkload();
  for (int service = 0; service < 2; ++service) {
    const std::vector<std::vector<double>>& values =
        workload[service].test.values();
    const auto socket_scores =
        SocketScores(client.get(), "wire-tenant", service, values);
    const auto direct_scores =
        DirectScores(frontend.get(), "direct-tenant", service, values);
    EXPECT_FALSE(socket_scores.empty());
    EXPECT_TRUE(BitIdentical(socket_scores, direct_scores))
        << "service " << service << " diverged across the socket";
  }

  // Close returns the session tail; both paths must agree there too.
  auto closed = client->CloseSession("wire-tenant", 0);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->ok());
}

TEST(ScoreServerTest, MalformedPayloadAnswersAndKeepsConnection) {
  auto frontend = MakeFrontend();
  auto server = ScoreServer::Start(frontend.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().message();
  auto client = Connect((*server)->port());

  // A structurally valid frame whose ScoreRequest payload is garbage:
  // the server must answer with an error response, not drop the link.
  const std::vector<uint8_t> junk = {0xde, 0xad, 0xbe};
  auto fd = TcpConnect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> bytes;
  wire::AppendFrame(&bytes, wire::FrameType::kScoreRequest, 77, junk);
  MACE_CHECK_OK(SendAll(fd->get(), bytes.data(), bytes.size()));

  wire::FrameDecoder decoder;
  uint8_t buffer[512];
  wire::OwnedFrame frame;
  for (;;) {
    auto n = RecvSome(fd->get(), buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u) << "server closed instead of answering";
    decoder.Append(buffer, *n);
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (next->has_value()) {
      frame = std::move(**next);
      break;
    }
  }
  EXPECT_EQ(frame.type, wire::FrameType::kScoreResponse);
  EXPECT_EQ(frame.request_id, 77u);
  auto response =
      wire::DecodeScoreResponse(frame.payload.data(), frame.payload.size());
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok()) << "garbage payload must not score";

  // The same connection still serves well-formed traffic.
  bytes.clear();
  wire::AppendFrame(&bytes, wire::FrameType::kPing, 78, nullptr, 0);
  MACE_CHECK_OK(SendAll(fd->get(), bytes.data(), bytes.size()));
  for (;;) {
    auto n = RecvSome(fd->get(), buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    decoder.Append(buffer, *n);
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (next->has_value()) {
      EXPECT_EQ((*next)->type, wire::FrameType::kPong);
      break;
    }
  }
  (void)client;
}

TEST(ScoreServerTest, FrameErrorClosesConnection) {
  auto frontend = MakeFrontend();
  auto server = ScoreServer::Start(frontend.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().message();

  auto fd = TcpConnect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> bytes;
  wire::AppendFrame(&bytes, wire::FrameType::kPing, 1, nullptr, 0);
  bytes[0] = 'X';  // corrupt the magic: framing is unrecoverable
  MACE_CHECK_OK(SendAll(fd->get(), bytes.data(), bytes.size()));

  // The server must hang up; a blocking read drains to orderly EOF.
  uint8_t buffer[64];
  for (;;) {
    auto n = RecvSome(fd->get(), buffer, sizeof(buffer));
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
  }
  EXPECT_GE((*server)->protocol_errors(), 1u);
}

TEST(ScoreServerTest, QosRefusalSetsRejectedFlagAndKeepsConnection) {
  auto frontend = MakeFrontend();
  ScoreServerOptions options;
  options.qos.rate_per_tenant = 0.001;  // effectively no refill in-test
  options.qos.burst = 2.0;
  options.qos.reserve_fraction = 0.0;
  auto server = ScoreServer::Start(frontend.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  auto client = Connect((*server)->port());

  wire::ScoreRequest request;
  request.tenant = "throttled";
  request.service = 0;
  request.values = TinyWorkload()[0].test.values()[0];
  for (int i = 0; i < 2; ++i) {
    auto response = client->Score(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok()) << "burst token " << i << " refused";
    EXPECT_FALSE(response->rejected);
  }
  auto refused = client->Score(request);
  ASSERT_TRUE(refused.ok()) << "QoS refusal must be a response, not a hangup";
  EXPECT_FALSE(refused->ok());
  EXPECT_TRUE(refused->rejected);
  EXPECT_GE((*server)->qos().rejected(serve::Priority::kNormal), 1u);
  MACE_CHECK_OK(client->Ping());
}

TEST(ScoreServerTest, PipelinedBurstAnsweredOnceAndCoalesced) {
  // Two shard workers complete responses concurrently and race on the
  // loop's wake edge; every response must still be flushed exactly once.
  auto frontend = MakeFrontend(2);
  auto server = ScoreServer::Start(frontend.get(), {});
  ASSERT_TRUE(server.ok()) << server.status().message();
  auto reference = MakeFrontend(1);

  constexpr int kSteps = 64;
  const Burst first(Names("direct-a", 8), kSteps);
  const Burst second(Names("direct-b", 8), kSteps);
  auto fd_a = TcpConnect("127.0.0.1", (*server)->port());
  auto fd_b = TcpConnect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd_a.ok() && fd_b.ok());
  MACE_CHECK_OK(SendAll(fd_a->get(), first.bytes.data(), first.bytes.size()));
  MACE_CHECK_OK(
      SendAll(fd_b->get(), second.bytes.data(), second.bytes.size()));

  first.ExpectAnsweredOnceAndBitIdentical(
      ReadFrames(fd_a->get(), first.frames()), reference.get(), kSteps);
  second.ExpectAnsweredOnceAndBitIdentical(
      ReadFrames(fd_b->get(), second.frames()), reference.get(), kSteps);
  EXPECT_EQ((*server)->frames_sent(), first.frames() + second.frames());
  EXPECT_GT((*server)->socket_writes(), 0u);
  EXPECT_LT((*server)->socket_writes(), (*server)->frames_sent())
      << "responses were not coalesced into shared writes";
}

// -- router ----------------------------------------------------------------

struct TwoBackendTopology {
  std::unique_ptr<serve::ServeFrontend> frontend_a;
  std::unique_ptr<serve::ServeFrontend> frontend_b;
  std::unique_ptr<ScoreServer> backend_a;
  std::unique_ptr<ScoreServer> backend_b;
  std::unique_ptr<Router> router;
  std::vector<std::string> addresses;  ///< the router's backend list

  explicit TwoBackendTopology(size_t shards = 1,
                              RouterOptions options = {}) {
    frontend_a = MakeFrontend(shards);
    frontend_b = MakeFrontend(shards);
    auto a = ScoreServer::Start(frontend_a.get(), {});
    auto b = ScoreServer::Start(frontend_b.get(), {});
    MACE_CHECK_OK(a.status());
    MACE_CHECK_OK(b.status());
    backend_a = std::move(*a);
    backend_b = std::move(*b);
    addresses = {"127.0.0.1:" + std::to_string(backend_a->port()),
                 "127.0.0.1:" + std::to_string(backend_b->port())};
    options.backends = addresses;
    auto started = Router::Start(options);
    MACE_CHECK_OK(started.status());
    router = std::move(*started);
  }
};

TEST(RouterTest, BitIdenticalThroughRouterAndBothBackendsUsed) {
  TwoBackendTopology topology;
  auto client = Connect(topology.router->port());
  auto reference = MakeFrontend(1);

  const auto values = TinyWorkload()[0].test.values();
  const std::vector<std::vector<double>> steps(values.begin(),
                                               values.begin() + 48);
  std::vector<uint64_t> placed(2, 0);  ///< requests RingPick sends each way
  for (int k = 0; k < 12; ++k) {
    const std::string tenant = "tenant-" + std::to_string(k);
    placed[Router::RingPick(topology.addresses, 64, tenant)] += steps.size();
    const auto routed = SocketScores(client.get(), tenant, 0, steps);
    const auto direct = DirectScores(reference.get(), tenant, 0, steps);
    EXPECT_FALSE(routed.empty());
    EXPECT_TRUE(BitIdentical(routed, direct))
        << tenant << " diverged through the router";
  }

  // The ring hash must actually spread these tenants: both backends see
  // traffic (the regression pin for the FNV clustering bug is in
  // wire_test; this is the end-to-end counterpart).
  EXPECT_GT(topology.backend_a->frames_received(), 0u);
  EXPECT_GT(topology.backend_b->frames_received(), 0u);
  EXPECT_EQ(topology.router->forwarded(),
            topology.backend_a->frames_received() +
                topology.backend_b->frames_received());
  // RingPick is the ring that routes, not a copy of it.
  EXPECT_EQ(topology.backend_a->frames_received(), placed[0]);
  EXPECT_EQ(topology.backend_b->frames_received(), placed[1]);
  EXPECT_EQ(topology.router->backend_errors(), 0u);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("router"), std::string::npos) << *stats;
}

TEST(RouterTest, PlacementIsStableAcrossBackendListOrder) {
  const std::vector<std::string> forward = {"10.0.0.1:7000", "10.0.0.2:7000",
                                            "10.0.0.3:7000"};
  const std::vector<std::string> shuffled = {"10.0.0.3:7000", "10.0.0.1:7000",
                                             "10.0.0.2:7000"};
  int moved = 0;
  for (int k = 0; k < 32; ++k) {
    const std::string tenant = "tenant-" + std::to_string(k);
    const size_t a = Router::RingPick(forward, 64, tenant);
    const size_t b = Router::RingPick(shuffled, 64, tenant);
    // Map indices back to addresses: placement must follow the address,
    // not the list position.
    if (forward[a] != shuffled[b]) ++moved;
  }
  EXPECT_EQ(moved, 0) << "ring placement depends on backend list order";
}

TEST(RouterTest, StartFailsWhenBackendUnreachable) {
  RouterOptions options;
  options.backends = {"127.0.0.1:1"};  // nothing listens on port 1
  auto started = Router::Start(options);
  EXPECT_FALSE(started.ok());
}

TEST(RouterTest, CloseSessionRoundTripsThroughRouter) {
  TwoBackendTopology topology;
  auto client = Connect(topology.router->port());
  const auto values = TinyWorkload()[0].test.values();
  const std::vector<std::vector<double>> steps(values.begin(),
                                               values.begin() + 32);
  (void)SocketScores(client.get(), "close-me", 0, steps);
  auto closed = client->CloseSession("close-me", 0);
  ASSERT_TRUE(closed.ok());
  EXPECT_TRUE(closed->ok()) << closed->message;
}

TEST(RouterTest, PipelinedBurstAnsweredOnceBitIdenticalAndCoalesced) {
  // 2 shards per backend: two worker threads race on each backend's wake
  // edge while the router interleaves two clients over both backends.
  TwoBackendTopology topology(/*shards=*/2);
  auto reference = MakeFrontend(1);

  constexpr int kSteps = 64;
  const Burst first(SpreadTenants("routed-a", topology.addresses, 4),
                    kSteps);
  const Burst second(SpreadTenants("routed-b", topology.addresses, 4),
                     kSteps);
  auto fd_a = TcpConnect("127.0.0.1", topology.router->port());
  auto fd_b = TcpConnect("127.0.0.1", topology.router->port());
  ASSERT_TRUE(fd_a.ok() && fd_b.ok());
  MACE_CHECK_OK(SendAll(fd_a->get(), first.bytes.data(), first.bytes.size()));
  MACE_CHECK_OK(
      SendAll(fd_b->get(), second.bytes.data(), second.bytes.size()));

  first.ExpectAnsweredOnceAndBitIdentical(
      ReadFrames(fd_a->get(), first.frames()), reference.get(), kSteps);
  second.ExpectAnsweredOnceAndBitIdentical(
      ReadFrames(fd_b->get(), second.frames()), reference.get(), kSteps);

  const uint64_t requests = first.frames() + second.frames();
  EXPECT_EQ(topology.router->forwarded(), requests);
  EXPECT_GT(topology.backend_a->frames_received(), 0u);
  EXPECT_GT(topology.backend_b->frames_received(), 0u);
  // Every request was sent once to a backend and once back to a client.
  const uint64_t frames_sent = topology.router->forwarded() + requests;
  EXPECT_GT(topology.router->socket_writes(), 0u);
  EXPECT_LT(topology.router->socket_writes(), frames_sent)
      << "router wrote one frame per send()";
}

TEST(RouterTest, BackendStoppedMidBurstResolvesEveryRequestOnce) {
  TwoBackendTopology topology(/*shards=*/2);
  // Hold backend A's shards so its share of the burst is still in flight
  // when A stops.
  std::promise<void> gate;
  std::shared_future<void> gate_future(gate.get_future());
  for (int shard = 0; shard < 2; ++shard) {
    topology.frontend_a->pool_for_test().BlockShardUntilForTest(
        shard, gate_future);
  }
  const size_t on_a = 0;
  auto backend_of = [&](const std::string& tenant) {
    return Router::RingPick(topology.addresses, 64, tenant);
  };

  constexpr int kSteps = 64;
  const Burst burst(SpreadTenants("doomed", topology.addresses, 4), kSteps);

  auto fd = TcpConnect("127.0.0.1", topology.router->port());
  ASSERT_TRUE(fd.ok());
  MACE_CHECK_OK(SendAll(fd->get(), burst.bytes.data(), burst.bytes.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (topology.backend_a->frames_received() +
                 topology.backend_b->frames_received() <
             burst.frames() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(topology.backend_a->frames_received() +
                topology.backend_b->frames_received(),
            burst.frames());

  // Stop() joins A's loop, then waits for its shards; open the gate only
  // after the loop is gone so A's queued responses are never written.
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    gate.set_value();
  });
  topology.backend_a->Stop();
  opener.join();

  const auto responses = ReadFrames(fd->get(), burst.frames());
  ASSERT_EQ(responses.size(), burst.frames()) << "a request hung or was lost";
  std::set<uint64_t> seen;
  size_t io_errors = 0;
  for (const wire::OwnedFrame& frame : responses) {
    ASSERT_TRUE(seen.insert(frame.request_id).second)
        << "duplicate response id " << frame.request_id;
    ASSERT_EQ(burst.tenant_of.count(frame.request_id), 1u);
    auto response = wire::DecodeScoreResponse(frame.payload.data(),
                                              frame.payload.size());
    ASSERT_TRUE(response.ok());
    const std::string& tenant =
        burst.tenants[burst.tenant_of.at(frame.request_id)];
    if (backend_of(tenant) != on_a) {
      EXPECT_TRUE(response->ok()) << tenant << ": " << response->message;
      continue;
    }
    if (response->ok()) continue;  // answered before A went down
    EXPECT_EQ(response->code, StatusCode::kIoError) << response->message;
    EXPECT_FALSE(response->rejected);
    ++io_errors;
  }
  EXPECT_GT(io_errors, 0u) << "no request was in flight on the stopped backend";
  EXPECT_EQ(topology.router->backend_errors(), 1u);

  // A's tenants are now refused up front; B's still score.
  auto client = Connect(topology.router->port());
  const auto values = TinyWorkload()[0].test.values();
  for (const std::string& tenant : burst.tenants) {
    wire::ScoreRequest request;
    request.tenant = tenant;
    request.service = 0;
    request.values = values[0];
    auto response = client->Score(request);
    ASSERT_TRUE(response.ok());
    if (backend_of(tenant) == on_a) {
      EXPECT_TRUE(response->rejected);
      EXPECT_NE(response->message.find("is down"), std::string::npos)
          << response->message;
    } else {
      EXPECT_TRUE(response->ok()) << response->message;
    }
  }
}

TEST(RouterTest, CloseInFlightOnStoppedBackendGetsTypedCloseError) {
  TwoBackendTopology topology(/*shards=*/1);
  std::promise<void> gate;
  std::shared_future<void> gate_future(gate.get_future());
  topology.frontend_a->pool_for_test().BlockShardUntilForTest(0,
                                                              gate_future);
  std::string tenant;
  for (int k = 0; tenant.empty(); ++k) {
    const std::string name = "closing-" + std::to_string(k);
    if (Router::RingPick(topology.addresses, 64, name) == 0) tenant = name;
  }

  auto fd = TcpConnect("127.0.0.1", topology.router->port());
  ASSERT_TRUE(fd.ok());
  wire::CloseRequest request;
  request.tenant = tenant;
  request.service = 0;
  std::vector<uint8_t> payload;
  wire::EncodeCloseRequest(request, &payload);
  std::vector<uint8_t> bytes;
  wire::AppendFrame(&bytes, wire::FrameType::kCloseRequest, 42, payload);
  MACE_CHECK_OK(SendAll(fd->get(), bytes.data(), bytes.size()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (topology.backend_a->frames_received() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(topology.backend_a->frames_received(), 1u);

  // The close is parked on A's gated shard; A stops under it.
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    gate.set_value();
  });
  topology.backend_a->Stop();
  opener.join();

  const auto responses = ReadFrames(fd->get(), 2, /*timeout_ms=*/500);
  ASSERT_EQ(responses.size(), 1u) << "close answered other than once";
  EXPECT_EQ(responses[0].type, wire::FrameType::kCloseResponse);
  EXPECT_EQ(responses[0].request_id, 42u);
  auto response = wire::DecodeScoreResponse(responses[0].payload.data(),
                                            responses[0].payload.size());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kIoError) << response->message;
  EXPECT_FALSE(response->rejected);
}

/// Pipelines score and stats requests from a client that does not read
/// until `read_pauses()` reports that the peer on `port` stopped reading
/// it, then reads and checks every request is answered exactly once.
void ExpectReadPausedThenAnsweredOnce(
    uint16_t port, const std::function<uint64_t()>& read_pauses) {
  // A small receive buffer, set before connect so the advertised window
  // stays small: the kernel cannot absorb the peer's backlog for us.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  Fd owned(fd);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  MACE_CHECK_OK(SetNonBlocking(fd));

  // Alternate score and stats requests without reading a byte.
  const auto values = TinyWorkload()[0].test.values();
  std::vector<uint8_t> unsent;
  size_t offset = 0;
  uint64_t next_id = 1;
  auto append_frames = [&](int count) {
    for (int i = 0; i < count; ++i, ++next_id) {
      if (next_id % 2 == 0) {
        wire::AppendFrame(&unsent, wire::FrameType::kStatsRequest, next_id,
                          nullptr, 0);
        continue;
      }
      wire::ScoreRequest request;
      request.tenant = "silent-" + std::to_string(next_id % 8);
      request.service = 0;
      request.values = values[(next_id / 8) % values.size()];
      std::vector<uint8_t> payload;
      wire::EncodeScoreRequest(request, &payload);
      wire::AppendFrame(&unsent, wire::FrameType::kScoreRequest, next_id,
                        payload);
    }
  };
  auto send_some = [&] {
    const ssize_t n = ::send(fd, unsent.data() + offset,
                             unsent.size() - offset, MSG_NOSIGNAL);
    if (n > 0) offset += static_cast<size_t>(n);
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (read_pauses() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (offset == unsent.size()) {
      unsent.clear();
      offset = 0;
      append_frames(256);
    }
    send_some();
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, 5);
  }
  ASSERT_GT(read_pauses(), 0u)
      << "an unread client was buffered without bound";

  // Now read: the backlog drains, reading resumes, and every request
  // (including the tail still unsent) is answered exactly once.
  const uint64_t expected = next_id - 1;
  std::vector<bool> answered(expected + 1, false);
  uint64_t received = 0;
  wire::FrameDecoder decoder;
  uint8_t buffer[64 * 1024];
  while (received < expected &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, static_cast<short>(POLLIN |
                                      (offset < unsent.size() ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, 1000) <= 0) continue;
    if (offset < unsent.size()) send_some();
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n == 0) break;
    if (n < 0) continue;
    decoder.Append(buffer, static_cast<size_t>(n));
    for (;;) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      const uint64_t id = (*next)->request_id;
      ASSERT_TRUE(id >= 1 && id <= expected) << "unknown id " << id;
      ASSERT_FALSE(answered[id]) << "duplicate response id " << id;
      answered[id] = true;
      ++received;
      EXPECT_EQ((*next)->type, id % 2 == 0 ? wire::FrameType::kStatsResponse
                                           : wire::FrameType::kScoreResponse);
    }
  }
  EXPECT_EQ(received, expected);
  EXPECT_EQ(offset, unsent.size());
}

TEST(ScoreServerTest, ClientThatNeverReadsIsReadPausedThenAnsweredOnce) {
  auto frontend = MakeFrontend(1);
  ScoreServerOptions options;
  options.write_buffer_limit = 4096;
  auto server = ScoreServer::Start(frontend.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  ExpectReadPausedThenAnsweredOnce(
      (*server)->port(), [&] { return (*server)->read_pauses(); });
}

TEST(RouterTest, ClientThatNeverReadsIsReadPausedThenAnsweredOnce) {
  // Score requests are answered through a backend, stats requests by the
  // router itself; both count against the client's backlog.
  RouterOptions options;
  options.write_buffer_limit = 4096;
  TwoBackendTopology topology(/*shards=*/1, options);
  ExpectReadPausedThenAnsweredOnce(
      topology.router->port(), [&] { return topology.router->read_pauses(); });
}

// -- event loop -------------------------------------------------------------

TEST(EventLoopTest, PostFromManyThreadsRunsEachTaskOnceOnTheLoopThread) {
  EventLoop loop("test", 1u << 20);
  MACE_CHECK_OK(loop.Open());
  loop.Start();
  std::promise<std::thread::id> loop_thread;
  loop.Post([&] { loop_thread.set_value(std::this_thread::get_id()); });
  const std::thread::id loop_id = loop_thread.get_future().get();

  // 4 producers race on the inbox's empty → non-empty wake edge.
  constexpr int kProducers = 4;
  constexpr int kTasks = 10000;
  std::vector<int> runs(kProducers * kTasks, 0);  // loop thread writes
  std::atomic<int> ran{0};
  std::atomic<int> off_loop{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kTasks; ++i) {
        loop.Post([&, slot = p * kTasks + i] {
          ++runs[slot];
          if (std::this_thread::get_id() != loop_id) off_loop.fetch_add(1);
          ran.fetch_add(1);
        });
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (ran.load() < kProducers * kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ran.load(), kProducers * kTasks) << "a posted task was lost";
  for (size_t slot = 0; slot < runs.size(); ++slot) {
    ASSERT_EQ(runs[slot], 1) << "task " << slot;
  }
  EXPECT_EQ(off_loop.load(), 0);

  // A producer posting across Stop(): whatever it posted either ran
  // before Stop() returned or was destroyed unrun — nothing runs late and
  // every captured token is released.
  struct Token {
    explicit Token(std::atomic<int>* released) : released(released) {}
    ~Token() { released->fetch_add(1); }
    std::atomic<int>* released;
  };
  std::atomic<int> made{0};
  std::atomic<int> released{0};
  std::atomic<bool> stop_returned{false};
  std::atomic<int> ran_late{0};
  std::atomic<bool> producing{true};
  std::thread producer([&] {
    while (producing.load()) {
      auto token = std::make_shared<Token>(&released);
      made.fetch_add(1);
      loop.Post([&, token] {
        if (stop_returned.load()) ran_late.fetch_add(1);
      });
    }
  });
  while (made.load() < 1000) std::this_thread::yield();
  loop.Stop();
  stop_returned.store(true);
  const int made_at_stop = made.load();
  while (made.load() < made_at_stop + 1000) std::this_thread::yield();
  producing.store(false);
  producer.join();
  EXPECT_EQ(ran_late.load(), 0);
  EXPECT_EQ(released.load(), made.load()) << "a dropped task leaked";
}

}  // namespace
}  // namespace mace::net
