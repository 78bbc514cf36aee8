#include "net/server.h"

#include <utility>

namespace mace::net {

ScoreServer::ScoreServer(serve::ServeFrontend* frontend,
                         ScoreServerOptions options)
    : frontend_(frontend),
      options_(std::move(options)),
      qos_(options_.qos),
      loop_("backend", options_.write_buffer_limit) {}

ScoreServer::~ScoreServer() { Stop(); }

Result<std::unique_ptr<ScoreServer>> ScoreServer::Start(
    serve::ServeFrontend* frontend, ScoreServerOptions options) {
  if (frontend == nullptr) {
    return Status::InvalidArgument("frontend must not be null");
  }
  std::unique_ptr<ScoreServer> server(
      new ScoreServer(frontend, std::move(options)));
  MACE_RETURN_IF_ERROR(server->loop_.Open());
  MACE_ASSIGN_OR_RETURN(
      server->port_,
      server->loop_.Listen(server->options_.host, server->options_.port,
                           server->options_.max_connections, server.get()));
  server->loop_.Start();
  return server;
}

void ScoreServer::Stop() {
  // The loop is gone before the frontend drains, so no new submissions
  // exist; every in-flight callback still runs and its Post is dropped.
  loop_.Stop();
  frontend_->Flush();
}

bool ScoreServer::OnFrame(FramedConn& conn, wire::OwnedFrame frame) {
  switch (frame.type) {
    case wire::FrameType::kPing:
      conn.Send(wire::FrameType::kPong, frame.request_id, {});
      return true;
    case wire::FrameType::kStatsRequest: {
      std::vector<uint8_t> payload;
      wire::EncodeStatsResponse(frontend_->Stats().FormatLine(), &payload);
      conn.Send(wire::FrameType::kStatsResponse, frame.request_id, payload);
      return true;
    }
    case wire::FrameType::kScoreRequest:
      HandleScore(conn, frame);
      return true;
    case wire::FrameType::kCloseRequest: {
      Result<wire::CloseRequest> request =
          wire::DecodeCloseRequest(frame.payload.data(),
                                   frame.payload.size());
      if (!request.ok()) {
        conn.SendError(wire::FrameType::kCloseResponse, frame.request_id,
                       request.status().code(), request.status().message(),
                       /*rejected=*/false);
        return true;
      }
      frontend_->CloseAsync(
          request.value().tenant, request.value().service,
          Reply(conn, wire::FrameType::kCloseResponse, frame.request_id));
      return true;
    }
    default:
      // Response-direction frames arriving at the server lost framing
      // sync (or the peer is hostile): connection-fatal.
      return false;
  }
}

void ScoreServer::HandleScore(FramedConn& conn,
                              const wire::OwnedFrame& frame) {
  Result<wire::ScoreRequest> decoded = wire::DecodeScoreRequest(
      frame.payload.data(), frame.payload.size());
  if (!decoded.ok()) {
    conn.SendError(wire::FrameType::kScoreResponse, frame.request_id,
                   decoded.status().code(), decoded.status().message(),
                   /*rejected=*/false);
    return;
  }
  wire::ScoreRequest& request = decoded.value();
  serve::RequestOptions options;
  options.priority = static_cast<serve::Priority>(request.priority);
  if (request.policy_override != wire::kNoPolicyOverride) {
    options.non_finite_policy =
        static_cast<ts::NonFinitePolicy>(request.policy_override);
  }
  if (!qos_.Admit(request.tenant, options.priority, SteadySeconds())) {
    conn.SendError(wire::FrameType::kScoreResponse, frame.request_id,
                   StatusCode::kFailedPrecondition,
                   "rate limited by per-tenant QoS", /*rejected=*/true);
    return;
  }
  const Status submitted = frontend_->SubmitAsync(
      request.tenant, request.service, std::move(request.values), options,
      Reply(conn, wire::FrameType::kScoreResponse, frame.request_id));
  if (!submitted.ok()) {
    conn.SendError(wire::FrameType::kScoreResponse, frame.request_id,
                   submitted.code(), submitted.message(),
                   /*rejected=*/false);
  }
}

std::function<void(serve::ScoreBatch&&)> ScoreServer::Reply(
    const FramedConn& conn, wire::FrameType type, uint64_t request_id) {
  return [this, conn_id = conn.id(), type,
          request_id](serve::ScoreBatch&& batch) {
    wire::ScoreResponse response;
    response.code = batch.status.code();
    response.message = batch.status.message();
    response.first_step = batch.first_step;
    response.dropped = batch.dropped;
    response.contaminated = batch.contaminated;
    response.scores = std::move(batch.scores);
    std::vector<uint8_t> payload;
    wire::EncodeScoreResponse(response, &payload);
    std::vector<uint8_t> frame;
    wire::AppendFrame(&frame, type, request_id, payload);
    loop_.Post([this, conn_id, frame = std::move(frame)] {
      if (FramedConn* conn = loop_.Find(conn_id)) conn->SendEncoded(frame);
    });
  };
}

}  // namespace mace::net
