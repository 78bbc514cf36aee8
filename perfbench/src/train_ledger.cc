// The train ledger: pattern extraction, one training step, and Fit and
// batch Score at one versus two threads.
#include <optional>

#include "common/rng.h"
#include "core/dualistic_conv.h"
#include "core/mace_model.h"
#include "core/pattern_extractor.h"
#include "ledgers.h"
#include "nn/optimizer.h"
#include "ts/scaler.h"

namespace perfbench {
namespace {

using mace::core::MaceDetector;

/// Stage-1-amplified copy of a scaled series (what pattern extraction and
/// training see).
mace::ts::TimeSeries Amplified(const mace::ts::TimeSeries& scaled,
                               const mace::core::MaceConfig& config) {
  std::vector<std::vector<double>> values(
      scaled.length(), std::vector<double>(scaled.num_features()));
  for (int f = 0; f < scaled.num_features(); ++f) {
    const std::vector<double> amplified = mace::core::DualisticAmplify(
        scaled.Feature(f), config.time_kernel, config.gamma_t,
        config.sigma_t);
    for (size_t t = 0; t < scaled.length(); ++t) {
      values[t][static_cast<size_t>(f)] = amplified[t];
    }
  }
  return mace::ts::TimeSeries(std::move(values));
}

}  // namespace

Outcome TrainLedger(const Fixture& fixture, const Args& args, Tracer* tracer) {
  Outcome outcome;
  const double probe_s = args.scale.smoke ? 0.05 : 0.3;
  // Training knobs (epochs, minibatch, threads) are not part of a saved
  // model, so the config comes from the workload, not the reloaded model.
  const mace::core::MaceConfig model_config =
      ModelConfig(args.scale, fixture.model->score_stride());
  const auto& services = fixture.services;

  // fft: pattern extraction on each service's amplified, scaled train split.
  std::vector<mace::ts::TimeSeries> amplified;
  std::vector<mace::ts::TimeSeries> scaled;
  for (const auto& service : services) {
    mace::ts::StandardScaler scaler;
    scaler.Fit(service.train);
    scaled.push_back(scaler.Transform(service.train));
    amplified.push_back(Amplified(scaled.back(), model_config));
  }
  mace::core::PatternExtractorOptions options;
  options.window = model_config.window;
  options.stride = model_config.train_stride;
  options.num_bases = model_config.num_bases;
  options.strongest_per_window = model_config.strongest_per_window;
  const int extract_name = tracer->Name("fft.ExtractPattern");
  size_t extracted = 0;
  Clock::time_point begin = Clock::now();
  while (extracted < services.size() || SecondsSince(begin) < probe_s) {
    const auto& series = amplified[extracted % services.size()];
    const int64_t start = NowNs();
    auto pattern = mace::core::ExtractPattern(series, options);
    tracer->Record(extract_name, 0, extracted, start, NowNs());
    ++outcome.attempted;
    if (!pattern.ok()) outcome.Fail("ExtractPattern: " + pattern.status().ToString());
    ++extracted;
  }
  const double pattern_ms = 1e3 * tracer->TotalSeconds(extract_name) /
                            static_cast<double>(extracted);

  // nn: one 128-window minibatch step (ForwardBatch with loss, Backward,
  // clip, Adam) on one thread, with service 0's transforms.
  double train_us_per_window = 0.0;
  {
    const auto& bases = fixture.model->subspaces().front().bases;
    const mace::core::ServiceTransforms transforms =
        mace::core::MakeServiceTransforms(model_config.window, bases);
    auto windows = mace::ts::MakeWindows(scaled.front(), model_config.window,
                                         model_config.train_stride);
    if (!windows.ok()) {
      outcome.Fail("MakeWindows: " + windows.status().ToString());
      return outcome;
    }
    std::vector<mace::tensor::Tensor> batch;
    const size_t m = static_cast<size_t>(scaled.front().num_features());
    const size_t w = static_cast<size_t>(model_config.window);
    for (size_t i = 0; batch.size() < 128; ++i) {
      const auto& data = windows->windows[i % windows->windows.size()].data();
      std::vector<double> out(m * w);
      for (size_t f = 0; f < m; ++f) {
        mace::core::DualisticAmplifyInto(
            data.data() + f * w, w, model_config.time_kernel,
            model_config.gamma_t, model_config.sigma_t, out.data() + f * w);
      }
      batch.push_back(mace::tensor::Tensor::FromVector(
          std::move(out), mace::tensor::Shape{static_cast<int64_t>(m),
                                              static_cast<int64_t>(w)}));
    }
    mace::Rng rng(model_config.seed);
    mace::core::MaceModel net(model_config, static_cast<int>(m),
                              2 * static_cast<int>(bases.size()), &rng);
    mace::nn::Adam adam(net.Parameters(), model_config.learning_rate);
    const int step_name = tracer->Name("nn.TrainStep");
    int steps = 0;
    begin = Clock::now();
    while (steps < 3 || SecondsSince(begin) < probe_s) {
      const int64_t start = NowNs();
      adam.ZeroGrad();
      auto out = net.ForwardBatch(transforms, batch,
                                  /*want_step_errors=*/false,
                                  /*want_loss=*/true);
      out.loss.Backward();
      adam.ClipGradNorm(model_config.grad_clip);
      adam.Step();
      tracer->Record(step_name, 0, static_cast<uint64_t>(steps), start,
                     NowNs());
      ++steps;
    }
    train_us_per_window =
        1e6 * tracer->TotalSeconds(step_name) / (128.0 * steps);
  }

  // core.fit: the same Fit at 1 and at 2 threads; both must score alike.
  const int fit_name = tracer->Name("core.fit.Fit");
  double windows_per_fit = 0.0;
  for (const auto& series : scaled) {
    windows_per_fit += static_cast<double>(
        (series.length() - static_cast<size_t>(model_config.window)) /
            static_cast<size_t>(model_config.train_stride) +
        1);
  }
  windows_per_fit *= model_config.epochs;
  double fit_wps[2] = {0.0, 0.0};
  std::optional<MaceDetector> fitted[2];
  for (int threads = 1; threads <= 2; ++threads) {
    mace::core::MaceConfig config = model_config;
    config.fit_threads = threads;
    config.score_threads = 2;
    fitted[threads - 1].emplace(config);
    const int64_t start = NowNs();
    mace::Status status = fitted[threads - 1]->Fit(services);
    const int64_t end = NowNs();
    tracer->Record(fit_name, 0, static_cast<uint64_t>(threads), start, end);
    ++outcome.attempted;
    if (!status.ok()) {
      outcome.Fail("Fit: " + status.ToString());
      return outcome;
    }
    fit_wps[threads - 1] = windows_per_fit / (1e-9 * (end - start));
  }

  // core.score: batch Score at 1 thread (the reloaded model) and at 2
  // (the fit_threads 2 model). `kept` receives the first pass's scores.
  const int score_name = tracer->Name("core.score.Score");
  auto score_loop = [&](MaceDetector* detector, int min_calls,
                        std::vector<std::vector<double>>* kept) -> double {
    uint64_t obs = 0;
    int64_t ns = 0;
    int calls = 0;
    const Clock::time_point loop_begin = Clock::now();
    while (calls < min_calls || SecondsSince(loop_begin) < probe_s) {
      const size_t s = static_cast<size_t>(calls) % services.size();
      const int64_t start = NowNs();
      auto scores = detector->Score(static_cast<int>(s), services[s].test);
      const int64_t end = NowNs();
      tracer->Record(score_name, 0, static_cast<uint64_t>(calls), start, end);
      ++outcome.attempted;
      if (!scores.ok()) {
        outcome.Fail("Score: " + scores.status().ToString());
        return 0.0;
      }
      if (kept != nullptr && kept->size() < services.size()) {
        kept->push_back(std::move(*scores));
      }
      ns += end - start;
      obs += services[s].test.length();
      ++calls;
    }
    return static_cast<double>(ns) / static_cast<double>(obs);
  };
  const int min_calls = static_cast<int>(services.size());
  std::vector<std::vector<double>> two_thread_scores;
  const double score_ns_1 =
      score_loop(fixture.model.get(), min_calls, nullptr);
  const double score_ns_2 =
      score_loop(&*fitted[1], min_calls, &two_thread_scores);
  if (two_thread_scores.size() < services.size()) return outcome;
  // fit_threads 1 and 2 must train bit-identical models.
  for (size_t s = 0; s < services.size(); ++s) {
    auto one = fitted[0]->Score(static_cast<int>(s), services[s].test);
    ++outcome.attempted;
    const auto& two = two_thread_scores[s];
    if (!one.ok() || one->size() != two.size() ||
        !SameBits(one->data(), two.data(), two.size())) {
      outcome.Fail("service " + std::to_string(s) +
                   ": fit_threads 1 and 2 score differently");
    }
  }

  outcome.Set("fft.pattern_ms_per_service", pattern_ms, "ms");
  outcome.Set("nn.train_us_per_window", train_us_per_window, "us");
  outcome.Set("core.fit.windows_per_s", fit_wps[1], "windows/s");
  outcome.Set("core.fit.thread_scaling", fit_wps[1] / fit_wps[0], "x");
  outcome.Set("core.score.ns_per_obs", score_ns_1, "ns");
  outcome.Set("core.score.thread_scaling", score_ns_1 / score_ns_2, "x");
  return outcome;
}

}  // namespace perfbench
