#include "net/router.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace mace::net {

Router::Ring Router::BuildRing(const std::vector<std::string>& backends,
                               size_t vnodes) {
  Ring ring;
  ring.reserve(backends.size() * vnodes);
  for (size_t b = 0; b < backends.size(); ++b) {
    for (size_t v = 0; v < vnodes; ++v) {
      const std::string key = backends[b] + "#" + std::to_string(v);
      ring.emplace_back(wire::RingHash64(key), b);
    }
  }
  std::sort(ring.begin(), ring.end());
  return ring;
}

size_t Router::Pick(const Ring& ring, const std::string& tenant) {
  const uint64_t h = wire::RingHash64(tenant);
  auto it = std::lower_bound(
      ring.begin(), ring.end(), std::make_pair(h, size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring.end()) it = ring.begin();
  return it->second;
}

size_t Router::RingPick(const std::vector<std::string>& backends,
                        size_t vnodes, const std::string& tenant) {
  return Pick(BuildRing(backends, vnodes), tenant);
}

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      qos_(options_.qos),
      forwarded_("mace_net_router_forwarded_total",
                 "Requests forwarded to a backend", "router"),
      rejected_("mace_net_router_rejected_total",
                "Requests rejected (QoS, backend overload, backend down)",
                "router"),
      backend_errors_("mace_net_router_backend_errors_total",
                      "Backend connection failures", "router"),
      inflight_gauge_(obs::Metrics().GetGauge(
          "mace_net_router_inflight", "Requests awaiting a backend response",
          {{"role", "router"}})),
      loop_("router", options_.write_buffer_limit) {}

Router::~Router() { Stop(); }

Result<std::unique_ptr<Router>> Router::Start(RouterOptions options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  if (options.vnodes < 1) {
    return Status::InvalidArgument("vnodes must be >= 1");
  }
  std::unique_ptr<Router> router(new Router(std::move(options)));
  MACE_RETURN_IF_ERROR(router->Init());
  router->loop_.Start();
  return router;
}

Status Router::Init() {
  MACE_RETURN_IF_ERROR(loop_.Open());
  // Connect every backend up front: a router that can't reach its
  // backends should fail fast at start, not shed live traffic later.
  for (const std::string& address : options_.backends) {
    MACE_ASSIGN_OR_RETURN(auto host_port, SplitHostPort(address));
    MACE_ASSIGN_OR_RETURN(Fd fd,
                          TcpConnect(host_port.first, host_port.second));
    auto backend =
        std::make_unique<Backend>(this, backends_.size(), address);
    MACE_ASSIGN_OR_RETURN(backend->conn,
                          loop_.Adopt(std::move(fd), backend.get()));
    backends_.push_back(std::move(backend));
  }
  ring_ = BuildRing(options_.backends, options_.vnodes);
  MACE_ASSIGN_OR_RETURN(port_,
                        loop_.Listen(options_.host, options_.port,
                                     options_.max_connections, this));
  return Status::OK();
}

void Router::Stop() { loop_.Stop(); }

bool Router::OnFrame(FramedConn& client, wire::OwnedFrame frame) {
  switch (frame.type) {
    case wire::FrameType::kPing:
      client.Send(wire::FrameType::kPong, frame.request_id, {});
      return true;
    case wire::FrameType::kStatsRequest: {
      std::vector<uint8_t> payload;
      wire::EncodeStatsResponse(StatsLine(), &payload);
      client.Send(wire::FrameType::kStatsResponse, frame.request_id,
                  payload);
      return true;
    }
    case wire::FrameType::kScoreRequest: {
      Result<wire::ScoreRouting> routing = wire::PeekScoreRouting(
          frame.payload.data(), frame.payload.size());
      if (!routing.ok()) {
        SendRejection(client, wire::FrameType::kScoreResponse,
                      frame.request_id, routing.status().message());
        return true;
      }
      ForwardOrReject(client, frame, routing.value().tenant,
                      routing.value().priority);
      return true;
    }
    case wire::FrameType::kCloseRequest: {
      Result<wire::CloseRequest> request = wire::DecodeCloseRequest(
          frame.payload.data(), frame.payload.size());
      if (!request.ok()) {
        SendRejection(client, wire::FrameType::kCloseResponse,
                      frame.request_id, request.status().message());
        return true;
      }
      // Closes ride the same ring and pending table; priority high so a
      // session teardown is never refused behind scoring QoS.
      ForwardOrReject(client, frame, request.value().tenant,
                      /*priority=*/0);
      return true;
    }
    default:
      return false;
  }
}

void Router::ForwardOrReject(FramedConn& client,
                             const wire::OwnedFrame& frame,
                             const std::string& tenant, uint8_t priority) {
  const wire::FrameType response_type =
      frame.type == wire::FrameType::kScoreRequest
          ? wire::FrameType::kScoreResponse
          : wire::FrameType::kCloseResponse;
  if (frame.type == wire::FrameType::kScoreRequest &&
      !qos_.Admit(tenant, static_cast<serve::Priority>(priority),
                  SteadySeconds())) {
    SendRejection(client, response_type, frame.request_id,
                  "rate limited by per-tenant QoS");
    return;
  }
  const size_t index = Pick(ring_, tenant);
  Backend& backend = *backends_[index];
  if (!backend.alive()) {
    SendRejection(client, response_type, frame.request_id,
                  "backend " + backend.address + " is down");
    return;
  }
  if (backend.inflight >= options_.max_inflight_per_backend ||
      backend.conn->backlog() > options_.write_buffer_limit) {
    SendRejection(client, response_type, frame.request_id,
                  "backend " + backend.address + " overloaded");
    return;
  }
  const uint64_t router_id = next_router_id_++;
  pending_.emplace(router_id, Pending{client.id(), frame.request_id, index,
                                      response_type});
  backend.conn->Send(frame.type, router_id, frame.payload);
  backend.inflight++;
  forwarded_.Add();
  inflight_gauge_->Set(static_cast<double>(pending_.size()));
}

bool Router::HandleBackendFrame(size_t backend_index,
                                wire::OwnedFrame frame) {
  if (frame.type != wire::FrameType::kScoreResponse &&
      frame.type != wire::FrameType::kCloseResponse) {
    return false;  // the loop closes the backend → FailBackend
  }
  auto it = pending_.find(frame.request_id);
  if (it == pending_.end()) return true;  // client gone or duplicate: drop
  const Pending pending = it->second;
  pending_.erase(it);
  backends_[backend_index]->inflight--;
  inflight_gauge_->Set(static_cast<double>(pending_.size()));
  if (FramedConn* client = loop_.Find(pending.client_conn_id)) {
    client->Send(frame.type, pending.client_request_id, frame.payload);
  }
  return true;
}

void Router::FailBackend(size_t backend_index, const std::string& reason) {
  Backend& backend = *backends_[backend_index];
  backend_errors_.Add();
  // Every request waiting on this backend gets a terminal error of the
  // type its client expects — the client is never left hanging on a
  // response that cannot come.
  const std::string message = reason + " (" + backend.address + ")";
  for (auto it = pending_.begin(); it != pending_.end();) {
    const Pending& pending = it->second;
    if (pending.backend != backend_index) {
      ++it;
      continue;
    }
    if (FramedConn* client = loop_.Find(pending.client_conn_id)) {
      client->SendError(pending.response_type, pending.client_request_id,
                        StatusCode::kIoError, message, /*rejected=*/false);
    }
    it = pending_.erase(it);
  }
  backend.inflight = 0;
  inflight_gauge_->Set(static_cast<double>(pending_.size()));
}

void Router::SendRejection(FramedConn& client, wire::FrameType type,
                           uint64_t request_id, const std::string& message) {
  rejected_.Add();
  client.SendError(type, request_id, StatusCode::kFailedPrecondition,
                   message, /*rejected=*/true);
}

std::string Router::StatsLine() const {
  size_t alive = 0;
  for (const auto& backend : backends_) {
    if (backend->alive()) ++alive;
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "router backends %zu/%zu | clients %zu | inflight %zu | "
                "forwarded %llu rejected %llu backend_errors %llu",
                alive, backends_.size(), loop_.accepted_open(),
                pending_.size(),
                static_cast<unsigned long long>(forwarded_.value()),
                static_cast<unsigned long long>(rejected_.value()),
                static_cast<unsigned long long>(backend_errors_.value()));
  return line;
}

}  // namespace mace::net
