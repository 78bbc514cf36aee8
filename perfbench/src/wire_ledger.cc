// wire-router: mace_router in front of two mace_serve_backend processes,
// loaded by a closed loop over two connections, and the wire ledger that
// splits a round trip into socket, serve, codec and router shares.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <regex>
#include <unordered_map>

#include "eval/roc.h"
#include "ledgers.h"
#include "net/client.h"
#include "net/spawn.h"
#include "serve/frontend.h"
#include "wire/frame.h"
#include "wire/messages.h"

namespace perfbench {
namespace {

using mace::net::Subprocess;
using mace::net::WireClient;

constexpr int kBackends = 2;
constexpr int kConnections = 2;
constexpr size_t kInFlight = 64;  // per connection
constexpr int kSpawnTimeoutMs = 60000;
constexpr size_t kWarmupSteps = 48;

/// The backends' serving config, shared by the in-bench replay frontend.
mace::serve::ServeConfig BackendServeConfig() {
  mace::serve::ServeConfig config;
  config.num_shards = 1;
  config.queue_capacity = 4096;
  config.overload_policy = mace::serve::OverloadPolicy::kBlock;
  return config;
}

struct Topology {
  std::vector<std::unique_ptr<Subprocess>> backends;
  std::vector<uint16_t> backend_ports;
  std::unique_ptr<Subprocess> router;
  uint16_t router_port = 0;

  std::vector<int> Pids() const {
    std::vector<int> pids{router->pid()};
    for (const auto& b : backends) pids.push_back(b->pid());
    return pids;
  }
  // Router first so no client-facing socket outlives its backends. The
  // backends' shutdown poll and the reap loop run here, never inside a
  // timed phase.
  ~Topology() {
    if (router) router->KillAndReap();
    for (auto& backend : backends) backend->KillAndReap();
  }
};

std::unique_ptr<Topology> SpawnTopology(const std::string& model_path,
                                        Outcome* outcome) {
  auto topo = std::make_unique<Topology>();
  std::string list;
  for (int b = 0; b < kBackends; ++b) {
    auto spawned = Subprocess::Spawn(
        {PERFBENCH_BACKEND_BIN, "--model", model_path, "--shards", "1",
         "--queue", "4096", "--policy", "block"});
    if (!spawned.ok()) {
      outcome->Fail("spawn backend: " + spawned.status().ToString());
      return nullptr;
    }
    auto port = spawned.value()->WaitForListeningPort(kSpawnTimeoutMs);
    if (!port.ok()) {
      outcome->Fail("backend listen: " + port.status().ToString());
      return nullptr;
    }
    topo->backends.push_back(std::move(spawned).value());
    topo->backend_ports.push_back(*port);
    list += (b > 0 ? "," : "") + std::string("127.0.0.1:") +
            std::to_string(*port);
  }
  auto spawned = Subprocess::Spawn({PERFBENCH_ROUTER_BIN, "--backends", list});
  if (!spawned.ok()) {
    outcome->Fail("spawn router: " + spawned.status().ToString());
    return nullptr;
  }
  auto port = spawned.value()->WaitForListeningPort(kSpawnTimeoutMs);
  if (!port.ok()) {
    outcome->Fail("router listen: " + port.status().ToString());
    return nullptr;
  }
  topo->router = std::move(spawned).value();
  topo->router_port = *port;
  return topo;
}

/// One tenant stream: the test split of `service` from `offset`, one
/// observation per frame. Scores of steps [0, L) are kept by step.
struct Stream {
  std::string tenant;
  int service = 0;
  size_t offset = 0;
  size_t sent = 0;
  std::vector<double> first_pass;  ///< L slots
  size_t filled = 0;
};

/// A traced round trip and its replay through the in-bench frontend.
struct TracedTrip {
  int64_t send_ns = 0, recv_ns = 0, replay_start_ns = 0, replay_end_ns = 0;
};

/// One client connection driving its share of the streams as a closed
/// loop with kInFlight requests outstanding.
class Connection {
 public:
  Connection(const std::vector<mace::ts::ServiceData>* services,
             std::vector<Stream*> streams)
      : services_(services), streams_(std::move(streams)) {
    latencies.reserve(1u << 18);
  }

  mace::Status Open(uint16_t port) {
    auto client = WireClient::Connect("127.0.0.1", port);
    if (!client.ok()) return client.status();
    client_ = std::move(client).value();
    return client_->Ping();
  }

  /// Sends until kInFlight requests are outstanding, round-robin over the
  /// streams; with `min_steps` > 0 only to streams that have sent fewer.
  void Fill(size_t min_steps) {
    while (!broken_ && pending_.size() < kInFlight) {
      Stream* s = nullptr;
      for (size_t k = 0; k < streams_.size() && s == nullptr; ++k) {
        Stream* candidate = streams_[next_++ % streams_.size()];
        if (min_steps == 0 || candidate->sent < min_steps) s = candidate;
      }
      if (s == nullptr) return;
      Send(s);
    }
  }

  size_t pending() const { return pending_.size(); }

  Outcome outcome;
  uint64_t completed = 0;
  std::vector<float> latencies;
  std::vector<TracedTrip> trips;
  std::vector<mace::wire::ScoreRequest> sent_requests;
  std::vector<mace::wire::ScoreResponse> responses;
  uint64_t rejected = 0;  ///< QoS refusals; pool drops show in the stats
  bool record_frames = false;  ///< keep the first frames for the codec probe

 private:
  struct Pending {
    Stream* stream = nullptr;
    size_t step = 0;
    int64_t send_ns = 0;
  };

  void Send(Stream* s) {
    const mace::ts::TimeSeries& test =
        (*services_)[static_cast<size_t>(s->service)].test;
    mace::wire::ScoreRequest request;
    request.tenant = s->tenant;
    request.service = s->service;
    request.values = test.values()[(s->offset + s->sent) % test.length()];
    const int64_t now = NowNs();
    auto id = client_->SendScore(request);
    ++outcome.attempted;
    if (!id.ok()) {
      outcome.Fail("SendScore: " + id.status().ToString());
      broken_ = true;
      return;
    }
    if (record_frames && sent_requests.size() < 4096) {
      sent_requests.push_back(request);
    }
    pending_[*id] = Pending{s, s->sent++, now};
  }

 public:
  /// Blocks for one response and books it. With `replay` set, the same
  /// observation is also scored by that in-process frontend and compared.
  void Receive(mace::serve::ServeFrontend* replay, bool sample) {
    auto frame = client_->NextResponse();
    const int64_t now = NowNs();
    if (!frame.ok()) {
      // The connection is gone: every outstanding request is lost.
      outcome.Fail("NextResponse: " + frame.status().ToString());
      outcome.failed += pending_.size() - 1;
      pending_.clear();
      broken_ = true;
      return;
    }
    auto it = pending_.find(frame->request_id);
    if (it == pending_.end()) {
      outcome.Fail("unmatched or duplicate response id");
      return;
    }
    const Pending p = it->second;
    pending_.erase(it);
    if (sample && (completed & 7) == 0 &&
        latencies.size() < latencies.capacity()) {
      latencies.push_back(static_cast<float>(1e-3 * (now - p.send_ns)));
    }
    ++completed;
    auto response = mace::wire::DecodeScoreResponse(frame->payload.data(),
                                                    frame->payload.size());
    if (!response.ok()) {
      outcome.Fail("DecodeScoreResponse: " + response.status().ToString());
      return;
    }
    if (record_frames && responses.size() < 4096) {
      responses.push_back(*response);
    }
    if (response->rejected || response->dropped || !response->ok()) {
      rejected += response->rejected ? 1 : 0;
      outcome.Fail("response not scored: " + response->message);
      return;
    }
    Stream* s = p.stream;
    for (size_t j = 0; j < response->scores.size(); ++j) {
      const size_t step = response->first_step + j;
      if (step < s->first_pass.size()) {
        s->first_pass[step] = response->scores[j];
        ++s->filled;
      }
    }
    if (replay != nullptr) {
      const mace::ts::TimeSeries& test =
          (*services_)[static_cast<size_t>(s->service)].test;
      const int64_t start = NowNs();
      auto batch = replay->Score(
          s->tenant, s->service,
          test.values()[(s->offset + p.step) % test.length()]);
      const int64_t end = NowNs();
      trips.push_back(TracedTrip{p.send_ns, now, start, end});
      if (!batch.ok() || !batch->status.ok() ||
          batch->scores.size() != response->scores.size() ||
          !SameBits(batch->scores.data(), response->scores.data(),
                    batch->scores.size())) {
        outcome.Fail("socket scores differ from the in-process frontend");
      }
    }
  }

 private:
  const std::vector<mace::ts::ServiceData>* services_;
  std::vector<Stream*> streams_;
  std::unique_ptr<WireClient> client_;
  std::unordered_map<uint64_t, Pending> pending_;
  size_t next_ = 0;
  bool broken_ = false;  ///< the connection failed; send nothing more
};

/// Streams for `tenants` tenants named `prefix`-i, tenant i on service
/// i mod S from a seeded offset, split over the connections.
std::vector<Stream> MakeStreams(const Fixture& fixture, int tenants,
                                const std::string& prefix, uint64_t seed) {
  const size_t length = fixture.services.front().test.length();
  mace::Rng rng(seed ^ 0xC0FFEEull);
  std::vector<Stream> streams(static_cast<size_t>(tenants));
  for (int i = 0; i < tenants; ++i) {
    Stream& s = streams[static_cast<size_t>(i)];
    s.tenant = prefix + "-" + std::to_string(i);
    s.service = i % static_cast<int>(fixture.services.size());
    s.offset = static_cast<size_t>(rng.UniformInt(length));
    s.first_pass.assign(length, 0.0);
  }
  return streams;
}

/// Everything one closed-loop run needs: its streams and connections.
struct Load {
  std::vector<Stream> streams;
  std::vector<std::unique_ptr<Connection>> conns;

  Load(const Fixture& fixture, int tenants, const std::string& prefix,
       uint64_t seed, uint16_t port, Outcome* outcome)
      : streams(MakeStreams(fixture, tenants, prefix, seed)) {
    for (int c = 0; c < kConnections; ++c) {
      std::vector<Stream*> mine;
      for (size_t i = static_cast<size_t>(c); i < streams.size();
           i += kConnections) {
        mine.push_back(&streams[i]);
      }
      conns.push_back(
          std::make_unique<Connection>(&fixture.services, std::move(mine)));
      mace::Status opened = conns.back()->Open(port);
      if (!opened.ok()) outcome->Fail("connect: " + opened.ToString());
    }
  }

  struct Sample {
    std::vector<double> rates;      ///< per slice, obs/s
    std::vector<double> cpu_us;     ///< per slice, CPU us per obs
    std::vector<double> pid_cpu_s;  ///< per pid, over the timed span
    double seconds = 0.0;
    uint64_t obs = 0;
  };

  /// Drives every connection from the calling thread, one response from
  /// each in turn (each keeps kInFlight outstanding, so a blocking read
  /// always has work behind it). With `min_steps` > 0, runs until every
  /// stream has sent that many; otherwise for `seconds`, sampling
  /// completions and the CPU of `pids` at `slice_s` boundaries. Either
  /// way it drains before returning; the drain is outside the sample.
  Sample Run(size_t min_steps, double seconds,
             mace::serve::ServeFrontend* replay, bool sample,
             const std::vector<int>& pids, double slice_s) {
    Sample out;
    auto cpu_of = [&]() {
      double cpu = 0.0;
      for (int pid : pids) cpu += ProcCpuSeconds(pid);
      return cpu;
    };
    auto completed = [&]() {
      uint64_t n = 0;
      for (auto& c : conns) n += c->completed;
      return n;
    };
    std::vector<double> pid_begin;
    for (int pid : pids) pid_begin.push_back(ProcCpuSeconds(pid));
    const int slices =
        min_steps > 0 ? 0 : std::max(1, static_cast<int>(seconds / slice_s));
    const Clock::time_point begin = Clock::now();
    auto boundary = [&](int k) {
      return begin + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(k * seconds / slices));
    };
    const uint64_t done_begin = completed();
    uint64_t slice_done = done_begin;
    double slice_cpu = cpu_of();
    Clock::time_point slice_begin = begin;
    int slice = 0;
    bool stopping = false;
    while (true) {
      bool waiting = false;
      for (auto& c : conns) {
        if (!stopping) c->Fill(min_steps);
        if (c->pending() > 0) {
          c->Receive(replay, sample);
          waiting = true;
        }
      }
      if (!waiting) break;
      if (stopping || slices == 0) continue;
      const Clock::time_point now = Clock::now();
      if (now < boundary(slice + 1)) continue;
      const double cpu = cpu_of();
      const uint64_t done = completed();
      const double dt = std::chrono::duration<double>(now - slice_begin).count();
      const double obs = static_cast<double>(done - slice_done);
      out.rates.push_back(obs / dt);
      out.cpu_us.push_back(1e6 * (cpu - slice_cpu) / std::max(obs, 1.0));
      slice_begin = now;
      slice_cpu = cpu;
      slice_done = done;
      if (++slice == slices) {
        stopping = true;
        out.obs = done - done_begin;
        out.seconds = SecondsSince(begin);
        for (size_t i = 0; i < pids.size(); ++i) {
          out.pid_cpu_s.push_back(ProcCpuSeconds(pids[i]) - pid_begin[i]);
        }
      }
    }
    if (slices == 0) {
      out.obs = completed() - done_begin;
      out.seconds = SecondsSince(begin);
    }
    return out;
  }

  std::vector<double> Latencies() const {
    std::vector<double> all;
    for (const auto& c : conns) {
      all.insert(all.end(), c->latencies.begin(), c->latencies.end());
    }
    return all;
  }

  void ClearLatencies() {
    for (auto& c : conns) c->latencies.clear();
  }

  void Collect(Outcome* outcome) {
    for (auto& c : conns) {
      outcome->Merge(c->outcome);
      c->outcome = Outcome();
    }
  }
};

/// Every stream's first pass through the router must be bitwise equal to
/// the same observations scored by an in-process ServeFrontend on the
/// same model file.
void CheckAgainstFrontend(const Fixture& fixture, Load* load,
                          Outcome* outcome) {
  auto frontend =
      mace::serve::ServeFrontend::Create(fixture.model, BackendServeConfig());
  if (!frontend.ok()) {
    outcome->Fail("ServeFrontend: " + frontend.status().ToString());
    return;
  }
  const size_t length = fixture.services.front().test.length();
  for (Stream& s : load->streams) {
    const mace::ts::TimeSeries& test =
        fixture.services[static_cast<size_t>(s.service)].test;
    std::vector<std::future<mace::serve::ScoreBatch>> futures;
    for (size_t step = 0; step < length + 2 * kWindow; ++step) {
      auto f = (*frontend)->Submit(s.tenant, s.service,
                                   test.values()[(s.offset + step) % length]);
      if (!f.ok()) {
        outcome->Fail("Submit: " + f.status().ToString());
        return;
      }
      futures.push_back(std::move(*f));
    }
    std::vector<double> expected(length, 0.0);
    for (auto& f : futures) {
      mace::serve::ScoreBatch batch = f.get();
      for (size_t j = 0; j < batch.scores.size(); ++j) {
        if (batch.first_step + j < length) {
          expected[batch.first_step + j] = batch.scores[j];
        }
      }
    }
    ++outcome->attempted;
    if (s.filled != length ||
        !SameBits(expected.data(), s.first_pass.data(), length)) {
      outcome->Fail("tenant " + s.tenant +
                    ": router scores differ from the in-process frontend");
    }
  }
}

double FirstPassAuroc(const Fixture& fixture, const Load& load,
                      Outcome* outcome) {
  std::vector<double> scores;
  std::vector<uint8_t> labels;
  for (const Stream& s : load.streams) {
    const auto& test_labels =
        fixture.services[static_cast<size_t>(s.service)].test.labels();
    for (size_t k = 0; k < s.first_pass.size(); ++k) {
      scores.push_back(s.first_pass[k]);
      labels.push_back(test_labels[(s.offset + k) % s.first_pass.size()]);
    }
  }
  auto ranking = mace::eval::ComputeRanking(scores, labels);
  if (!ranking.ok()) {
    outcome->Fail("ComputeRanking: " + ranking.status().ToString());
    return 0.0;
  }
  return ranking->auroc;
}

struct Codec {
  double encode_ns = 0.0;      ///< per frame, payload + framing
  double decode_ns = 0.0;      ///< per frame, reassembly + payload
  double bytes_per_obs = 0.0;  ///< request + response frame bytes
};

/// Times MWIREv1 encoding and decoding of the given request and response
/// messages (one observation each), as whole frames.
Codec ProbeCodec(const std::vector<mace::wire::ScoreRequest>& requests,
                 const std::vector<mace::wire::ScoreResponse>& responses,
                 Outcome* outcome) {
  std::vector<std::vector<uint8_t>> frames;
  std::vector<uint8_t> payload;
  auto encode_all = [&]() {
    frames.clear();
    for (size_t i = 0; i < requests.size(); ++i) {
      payload.clear();
      mace::wire::EncodeScoreRequest(requests[i], &payload);
      frames.emplace_back();
      mace::wire::AppendFrame(&frames.back(),
                              mace::wire::FrameType::kScoreRequest, i + 1,
                              payload);
    }
    for (size_t i = 0; i < responses.size(); ++i) {
      payload.clear();
      mace::wire::EncodeScoreResponse(responses[i], &payload);
      frames.emplace_back();
      mace::wire::AppendFrame(&frames.back(),
                              mace::wire::FrameType::kScoreResponse, i + 1,
                              payload);
    }
  };
  auto decode_all = [&]() {
    mace::wire::FrameDecoder decoder;
    size_t ok = 0;
    for (const auto& frame : frames) {
      decoder.Append(frame.data(), frame.size());
      auto next = decoder.Next();
      if (!next.ok() || !next->has_value()) continue;
      const auto& f = **next;
      const bool decoded =
          f.type == mace::wire::FrameType::kScoreRequest
              ? mace::wire::DecodeScoreRequest(f.payload.data(),
                                               f.payload.size())
                    .ok()
              : mace::wire::DecodeScoreResponse(f.payload.data(),
                                                f.payload.size())
                    .ok();
      ok += decoded ? 1 : 0;
    }
    return ok;
  };
  // Each side repeats over the same frames for at least 0.2 s.
  auto time_passes = [](const auto& pass) {
    int passes = 0;
    const Clock::time_point begin = Clock::now();
    while (passes < 3 || SecondsSince(begin) < 0.2) {
      pass();
      ++passes;
    }
    return SecondsSince(begin) / passes;
  };
  Codec codec;
  const double count =
      static_cast<double>(std::max<size_t>(requests.size() + responses.size(), 1));
  codec.encode_ns = 1e9 * time_passes(encode_all) / count;
  bool decoded_all = true;
  codec.decode_ns = 1e9 *
                    time_passes([&] {
                      decoded_all &= decode_all() == frames.size();
                    }) /
                    count;
  if (!decoded_all) outcome->Fail("frame decode failed");
  double bytes = 0.0;
  for (const auto& f : frames) bytes += static_cast<double>(f.size());
  codec.bytes_per_obs =
      bytes / static_cast<double>(std::max<size_t>(requests.size(), 1));
  return codec;
}

double SumPeakRssMb(const std::vector<int>& pids) {
  double mb = ProcStatusMb(0, "VmHWM:");
  for (int pid : pids) mb += ProcStatusMb(pid, "VmHWM:");
  return mb;
}

}  // namespace

Outcome RunWireRouter(const Args& args) {
  Outcome outcome;
  const Scale& scale = args.scale;
  const size_t length = scale.test_length;
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::optional<Fixture> fixture;
  std::unique_ptr<Topology> topo;
  std::unique_ptr<Load> load;
  for (int rep = 0; rep < scale.setup_reps; ++rep) {
    // Tear the previous repetition down before its successor's clock runs.
    load.reset();
    topo.reset();
    fixture.reset();
    const Clock::time_point start =
        rep == 0 ? args.process_start : Clock::now();
    double fit_seconds = 0.0;
    fixture.emplace(MakeFixture(args, /*score_stride=*/kWindow,
                                scale.wire_tenants,
                                args.work_dir + "/wire-model.mace",
                                &fit_seconds, &outcome));
    if (outcome.failed > 0) return outcome;
    fit_s.push_back(fit_seconds);
    topo = SpawnTopology(fixture->model_path, &outcome);
    if (topo == nullptr) return outcome;
    load = std::make_unique<Load>(*fixture, scale.wire_tenants, "tenant",
                                  args.seed, topo->router_port, &outcome);
    if (outcome.failed > 0) return outcome;
    load->Run(kWarmupSteps, 0.0, nullptr, false, {}, 1.0);
    load->Collect(&outcome);
    setup_s.push_back(SecondsSince(start));
  }

  const std::vector<int> pids = topo->Pids();
  std::vector<int> all_pids = pids;
  all_pids.push_back(0);
  Load::Sample timed = load->Run(0, args.seconds, nullptr, true, all_pids,
                                 std::min(1.0, args.seconds));
  const double rss_mb = SumPeakRssMb(pids);
  std::vector<double> lat = load->Latencies();
  // Finish every first pass (plus the windows covering its last steps)
  // outside the timed phase.
  load->Run(length + 2 * kWindow, 0.0, nullptr, false, {}, 1.0);
  load->Collect(&outcome);
  const double auroc = FirstPassAuroc(*fixture, *load, &outcome);
  CheckAgainstFrontend(*fixture, load.get(), &outcome);
  load.reset();
  topo.reset();
  std::remove(fixture->model_path.c_str());

  std::string slices;
  for (double r : timed.rates) slices += " " + std::to_string(static_cast<int>(r));
  Note("wire-router slice obs/s:" + slices);
  Note("wire-router: " + std::to_string(scale.wire_tenants) + " tenants, " +
       std::to_string(kConnections) + " connections x " +
       std::to_string(kInFlight) + " in flight, " +
       std::to_string(timed.rates.size()) +
       " one-second slices, latency samples " + std::to_string(lat.size()) +
       " (every 8th round trip)");
  outcome.Set("obs_per_s", Median(timed.rates), "obs/s");
  outcome.Set("cpu_us_per_obs", Median(timed.cpu_us), "us/obs");
  outcome.Set("latency_p50_us", Median(lat), "us");
  outcome.Set("fit_s", Median(fit_s), "s");
  outcome.Set("rss_mb", rss_mb, "MB");
  outcome.Set("setup_s", Median(setup_s), "s");
  outcome.Set("auroc", auroc, "ratio");
  return outcome;
}

Outcome WireLedger(const Fixture& fixture, const Args& args, Tracer* tracer,
                   bool own_workload) {
  Outcome outcome;
  const double phase_s = args.scale.smoke ? 0.5 : 3.0;
  const int tenants = args.scale.wire_tenants;
  std::unique_ptr<Topology> topo = SpawnTopology(fixture.model_path, &outcome);
  if (topo == nullptr) return outcome;
  auto frontend =
      mace::serve::ServeFrontend::Create(fixture.model, BackendServeConfig());
  if (!frontend.ok()) {
    outcome.Fail("ServeFrontend: " + frontend.status().ToString());
    return outcome;
  }

  // Router, untraced: rate, round-trip percentiles, per-process CPU.
  const std::vector<int> pids = topo->Pids();
  Load routed(fixture, tenants, "router", args.seed, topo->router_port,
              &outcome);
  routed.Run(kWarmupSteps, 0.0, nullptr, false, {}, 1.0);
  routed.ClearLatencies();
  Load::Sample router_run =
      routed.Run(0, phase_s, nullptr, true, pids, phase_s);
  const std::vector<double> router_lat = routed.Latencies();
  routed.Collect(&outcome);
  const double router_rate =
      static_cast<double>(router_run.obs) / router_run.seconds;

  // Router, traced: every round trip is a span; the same observation is
  // replayed through the in-bench frontend as its child. Fresh tenants, so
  // both sides stream from step 0 and their scores must match bitwise.
  Load traced(fixture, tenants, "traced", args.seed, topo->router_port,
              &outcome);
  for (auto& c : traced.conns) c->record_frames = true;
  Load::Sample traced_run =
      traced.Run(0, phase_s, frontend->get(), false, pids, phase_s);
  traced.Collect(&outcome);
  const double traced_rate =
      static_cast<double>(traced_run.obs) / traced_run.seconds;
  const int trip_name = tracer->Name("net.router.RoundTrip");
  const int serve_name = tracer->Name("serve.ServeFrontend.Score");
  uint64_t op = 0;
  for (auto& c : traced.conns) {
    for (const TracedTrip& trip : c->trips) {
      const uint32_t id =
          tracer->Record(trip_name, 0, op, trip.send_ns, trip.recv_ns);
      if (id != 0) {
        tracer->Record(serve_name, id, op, trip.replay_start_ns,
                       trip.replay_end_ns);
      }
      ++op;
    }
  }

  // Direct: the same closed loop sent straight to one backend.
  Load direct(fixture, tenants, "direct", args.seed,
              topo->backend_ports.front(), &outcome);
  direct.Run(kWarmupSteps, 0.0, nullptr, false, {}, 1.0);
  direct.ClearLatencies();
  Load::Sample direct_run = direct.Run(0, phase_s, nullptr, true, {}, phase_s);
  const std::vector<double> direct_lat = direct.Latencies();
  direct.Collect(&outcome);

  // Backend queue wait and shed, from each backend's ShardStats line.
  double wait_us = 0.0;
  double shed = 0.0;
  for (uint16_t port : topo->backend_ports) {
    auto client = WireClient::Connect("127.0.0.1", port);
    auto line = client.ok() ? (*client)->Stats()
                            : mace::Result<std::string>(client.status());
    std::smatch match;
    static const std::regex kStats("shed (\\d+) .*wait (\\d+)us");
    if (!line.ok() || !std::regex_search(*line, match, kStats)) {
      outcome.Fail("backend stats line unreadable");
      continue;
    }
    shed += std::stod(match[1]);
    wait_us += std::stod(match[2]) / kBackends;
  }

  // In-bench serve path: one thread SubmitAsync-ing the same kind of
  // streams as fast as the frontend takes them.
  double serve_ns_per_obs = 0.0;
  {
    auto serve = mace::serve::ServeFrontend::Create(fixture.model,
                                                    BackendServeConfig());
    std::vector<Stream> streams =
        MakeStreams(fixture, tenants, "serve", args.seed);
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> bad{0};
    uint64_t submitted = 0;
    const Clock::time_point begin = Clock::now();
    while (SecondsSince(begin) < phase_s) {
      for (Stream& s : streams) {
        const auto& test = fixture.services[static_cast<size_t>(s.service)].test;
        mace::Status st = (*serve)->SubmitAsync(
            s.tenant, s.service,
            test.values()[(s.offset + s.sent++) % test.length()],
            mace::serve::RequestOptions{},
            [&](mace::serve::ScoreBatch&& batch) {
              if (!batch.status.ok() || batch.dropped) bad.fetch_add(1);
              done.fetch_add(1);
            });
        ++submitted;
        if (!st.ok()) outcome.Fail("SubmitAsync: " + st.ToString());
      }
    }
    (*serve)->Flush();
    serve_ns_per_obs = 1e9 * SecondsSince(begin) / static_cast<double>(submitted);
    outcome.attempted += submitted;
    if (done.load() != submitted || bad.load() != 0) {
      outcome.Fail("in-bench serve lost or failed observations");
    }
    shed += static_cast<double>((*serve)->Stats().Totals().shed);
  }

  // Wire codec on the run's actual frames.
  std::vector<mace::wire::ScoreRequest> requests;
  std::vector<mace::wire::ScoreResponse> responses;
  for (auto& c : traced.conns) {
    requests.insert(requests.end(), c->sent_requests.begin(),
                    c->sent_requests.end());
    responses.insert(responses.end(), c->responses.begin(),
                     c->responses.end());
  }
  const Codec codec = ProbeCodec(requests, responses, &outcome);

  uint64_t rejected = 0;
  for (Load* l : {&routed, &traced, &direct}) {
    for (auto& c : l->conns) rejected += c->rejected;
  }
  const double router_p50 = Median(router_lat);
  const double direct_p50 = Median(direct_lat);
  double backend_cpu = 0.0;
  for (size_t i = 1; i < pids.size(); ++i) {
    backend_cpu += router_run.pid_cpu_s[i] / (pids.size() - 1);
  }
  outcome.Set("serve.ns_per_obs", serve_ns_per_obs, "ns");
  outcome.Set("serve.queue_wait_us", wait_us, "us");
  outcome.Set("serve.shed", shed, "count");
  outcome.Set("wire.encode_ns_per_frame", codec.encode_ns, "ns");
  outcome.Set("wire.decode_ns_per_frame", codec.decode_ns, "ns");
  outcome.Set("wire.bytes_per_obs", codec.bytes_per_obs, "B");
  outcome.Set("net.direct.obs_per_s",
              static_cast<double>(direct_run.obs) / direct_run.seconds,
              "obs/s");
  outcome.Set("net.direct.rtt_p50_us", direct_p50, "us");
  outcome.Set("net.router.tax_us", router_p50 - direct_p50, "us");
  outcome.Set("net.router.cpu_share",
              router_run.pid_cpu_s.front() / router_run.seconds, "cpu");
  outcome.Set("net.backend.cpu_share", backend_cpu / router_run.seconds,
              "cpu");
  outcome.Set("net.rtt_p99_us", Quantile(router_lat, 0.99), "us");
  outcome.Set("qos.rejected", static_cast<double>(rejected), "count");
  Note("wire ledger: router " + std::to_string(router_rate) +
       " obs/s p50 " + std::to_string(router_p50) + " us; direct p50 " +
       std::to_string(direct_p50) + " us; traced round trips " +
       std::to_string(op) + ", socket self time " +
       std::to_string(1e6 * tracer->SelfSeconds(trip_name) /
                      std::max<double>(op, 1)) +
       " us per trip over the in-process serve path");
  if (own_workload) {
    outcome.Set("trace.overhead_pct",
                100.0 * (router_rate / traced_rate - 1.0), "%");
  }
  return outcome;
}

}  // namespace perfbench
