// stream-unified: one unified model serving a fleet of tenants through
// StreamingScorer::PushMany from a single driver thread, and the stream
// ledger that replays each call one layer down.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "core/fused_plan_builder.h"
#include "core/mace_model.h"
#include "core/streaming.h"
#include "eval/roc.h"
#include "kernel/fused_kernel.h"
#include "ledgers.h"

namespace perfbench {
namespace {

using mace::core::StreamingScorer;
using Rows = std::vector<std::vector<double>>;

/// A fleet of tenants streaming the labeled test splits. Tenant i streams
/// service i mod S from its own phase offset (a multiple of the chunk),
/// wrapping around the split, kChunk observations per PushMany call.
/// Every tenant's first pass over its split (steps [0, L)) is recorded
/// for the AUROC and the batch-equality check.
struct Fleet {
  struct Tenant {
    int service = 0;
    size_t offset = 0;
    size_t steps = 0;    ///< observations pushed
    size_t emitted = 0;  ///< scores emitted
    std::optional<StreamingScorer> scorer;
    std::vector<double> first_pass;  ///< scores of steps [0, L)
  };

  mace::core::MaceDetector* model = nullptr;
  const std::vector<mace::ts::ServiceData>* services = nullptr;
  size_t length = 0;                  ///< L, the test split length
  std::vector<std::vector<Rows>> chunks;  ///< [service][chunk index]
  std::vector<Tenant> tenants;

  Fleet(const Fixture& fixture, int num_tenants, uint64_t seed) {
    model = fixture.model.get();
    services = &fixture.services;
    length = fixture.services.front().test.length();
    chunks.resize(services->size());
    for (size_t s = 0; s < services->size(); ++s) {
      const Rows& values = (*services)[s].test.values();
      for (size_t c = 0; c + kChunk <= length; c += kChunk) {
        chunks[s].emplace_back(values.begin() + static_cast<ptrdiff_t>(c),
                               values.begin() +
                                   static_cast<ptrdiff_t>(c + kChunk));
      }
    }
    mace::Rng rng(seed ^ 0x5EEDF1EE7ull);
    tenants.resize(static_cast<size_t>(num_tenants));
    for (size_t i = 0; i < tenants.size(); ++i) {
      Tenant& t = tenants[i];
      t.service = static_cast<int>(i % services->size());
      t.offset = kChunk * static_cast<size_t>(rng.UniformInt(length / kChunk));
      t.scorer.emplace(
          std::move(StreamingScorer::Create(model, t.service)).value());
      t.first_pass.reserve(length);
    }
  }

  const Rows& NextChunk(const Tenant& t) const {
    return chunks[static_cast<size_t>(t.service)]
                 [((t.offset + t.steps) % length) / kChunk];
  }

  /// Books the scores one PushMany returned.
  void Record(Tenant* t, const Rows& per_observation) {
    t->steps += kChunk;
    for (const std::vector<double>& scores : per_observation) {
      for (double score : scores) {
        if (t->emitted < length) t->first_pass.push_back(score);
        ++t->emitted;
      }
    }
  }

  /// The tenant's stream as a finite series: one pass from its offset.
  mace::ts::TimeSeries Rotated(const Tenant& t) const {
    const mace::ts::TimeSeries& test =
        (*services)[static_cast<size_t>(t.service)].test;
    Rows values;
    std::vector<uint8_t> labels;
    for (size_t k = 0; k < length; ++k) {
      values.push_back(test.values()[(t.offset + k) % length]);
      labels.push_back(test.labels()[(t.offset + k) % length]);
    }
    return mace::ts::TimeSeries(std::move(values), std::move(labels));
  }
};

/// One PushMany for every tenant, in order. Returns false on a failed call.
bool PushRound(Fleet* fleet, Outcome* outcome, std::vector<float>* latencies,
               uint64_t* calls, int64_t* call_ns) {
  for (Fleet::Tenant& t : fleet->tenants) {
    const Rows& chunk = fleet->NextChunk(t);
    const int64_t start = NowNs();
    auto result = t.scorer->PushMany(chunk);
    const int64_t end = NowNs();
    ++outcome->attempted;
    *call_ns += end - start;
    if (latencies != nullptr && (*calls & 3) == 0 &&
        latencies->size() < latencies->capacity()) {
      latencies->push_back(static_cast<float>(1e-3 * (end - start)));
    }
    ++*calls;
    if (!result.ok()) {
      outcome->Fail("PushMany: " + result.status().ToString());
      return false;
    }
    fleet->Record(&t, *result);
  }
  return true;
}

/// AUROC of every tenant's first pass against the labels of those steps.
double FirstPassAuroc(const Fleet& fleet, Outcome* outcome) {
  std::vector<double> scores;
  std::vector<uint8_t> labels;
  for (const Fleet::Tenant& t : fleet.tenants) {
    if (t.first_pass.size() < fleet.length) {
      outcome->Fail("tenant streamed less than one pass");
      continue;
    }
    const auto& test_labels =
        (*fleet.services)[static_cast<size_t>(t.service)].test.labels();
    for (size_t k = 0; k < fleet.length; ++k) {
      scores.push_back(t.first_pass[k]);
      labels.push_back(test_labels[(t.offset + k) % fleet.length]);
    }
  }
  auto ranking = mace::eval::ComputeRanking(scores, labels);
  if (!ranking.ok()) {
    outcome->Fail("ComputeRanking: " + ranking.status().ToString());
    return 0.0;
  }
  return ranking->auroc;
}

/// streaming == batch, bitwise. Every tenant's recorded first pass must
/// equal MaceDetector::Score of its rotated series on the steps no wrap
/// window covers; the sampled tenants are also streamed afresh through
/// PushMany + Finish and must equal Score on every step.
void CheckAgainstBatch(Fleet* fleet, int sample_tenants, Outcome* outcome) {
  mace::core::MaceDetector* model = fleet->model;
  const size_t interior = fleet->length - static_cast<size_t>(kWindow);
  std::map<std::pair<int, size_t>, std::vector<double>> batch_cache;
  for (size_t i = 0; i < fleet->tenants.size(); ++i) {
    const Fleet::Tenant& t = fleet->tenants[i];
    auto key = std::make_pair(t.service, t.offset);
    if (!batch_cache.count(key)) {
      auto batch = model->Score(t.service, fleet->Rotated(t));
      ++outcome->attempted;
      if (!batch.ok()) {
        outcome->Fail("Score: " + batch.status().ToString());
        continue;
      }
      batch_cache[key] = std::move(*batch);
    }
    const std::vector<double>& batch = batch_cache[key];
    ++outcome->attempted;
    if (t.first_pass.size() < interior ||
        !SameBits(t.first_pass.data(), batch.data(), interior)) {
      outcome->Fail("tenant " + std::to_string(i) +
                    ": streamed scores differ from batch Score");
    }
    if (static_cast<int>(i) >= sample_tenants) continue;
    auto fresh = StreamingScorer::Create(model, t.service);
    std::vector<double> streamed;
    bool ok = fresh.ok();
    for (size_t k = 0; ok && k < fleet->length; k += kChunk) {
      auto out = fresh->PushMany(fleet->chunks[static_cast<size_t>(
          t.service)][((t.offset + k) % fleet->length) / kChunk]);
      ok = out.ok();
      if (ok) {
        for (const auto& scores : *out) {
          streamed.insert(streamed.end(), scores.begin(), scores.end());
        }
      }
    }
    if (ok) {
      const std::vector<double> tail = fresh->Finish();
      streamed.insert(streamed.end(), tail.begin(), tail.end());
    }
    ++outcome->attempted;
    if (!ok || streamed.size() != batch.size() ||
        !SameBits(streamed.data(), batch.data(), batch.size())) {
      outcome->Fail("tenant " + std::to_string(i) +
                    ": PushMany + Finish differs from batch Score");
    }
  }
}

constexpr int kWarmupRounds = 8;  // 80 observations per tenant

}  // namespace

Outcome RunStreamUnified(const Args& args) {
  Outcome outcome;
  const Scale& scale = args.scale;
  // Each set-up repetition is followed by an equal share of the timed
  // phase, in slices of whole rounds of about a second, so that the
  // set-up and Fit samples spread over the whole run as the slices do: a
  // shared host's speed moves by a fifth in spells of 5-15 s, and set-ups
  // done back to back at the start all see the same spell. One set-up per
  // five seconds of timed phase, at least setup_reps. Only the last fleet
  // is checked.
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::vector<float> latencies;
  latencies.reserve(1u << 20);
  std::vector<double> slice_rate;
  std::vector<double> slice_cpu_us;
  uint64_t calls = 0;
  int64_t call_ns = 0;
  std::optional<Fixture> fixture;
  std::optional<Fleet> fleet;
  const int reps =
      std::max(scale.setup_reps, static_cast<int>(args.seconds / 5.0));
  const double block_s = args.seconds / reps;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start =
        rep == 0 ? args.process_start : Clock::now();
    fleet.reset();
    fixture.reset();
    double fit_seconds = 0.0;
    fixture.emplace(MakeFixture(args, kStreamStride, scale.stream_tenants,
                                args.work_dir + "/stream-model.mace",
                                &fit_seconds, &outcome));
    if (outcome.failed > 0) return outcome;
    fit_s.push_back(fit_seconds);
    fleet.emplace(*fixture, scale.stream_tenants, args.seed);
    for (int r = 0; r < kWarmupRounds; ++r) {
      if (!PushRound(&*fleet, &outcome, nullptr, &calls, &call_ns)) {
        return outcome;
      }
    }
    setup_s.push_back(SecondsSince(start));

    const int slices = std::max(1, static_cast<int>(block_s));
    const Clock::time_point begin = Clock::now();
    Clock::time_point slice_begin = begin;
    double slice_cpu = ProcessCpuSeconds();
    uint64_t slice_obs = 0;
    for (int slice = 0; slice < slices;) {
      if (!PushRound(&*fleet, &outcome, &latencies, &calls, &call_ns)) {
        return outcome;
      }
      slice_obs += kChunk * fleet->tenants.size();
      if (SecondsSince(begin) >= block_s * (slice + 1) / slices) {
        ++slice;
        const double slice_s = SecondsSince(slice_begin);
        const double cpu = ProcessCpuSeconds();
        slice_rate.push_back(static_cast<double>(slice_obs) / slice_s);
        slice_cpu_us.push_back(1e6 * (cpu - slice_cpu) /
                               static_cast<double>(slice_obs));
        slice_begin = Clock::now();
        slice_cpu = cpu;
        slice_obs = 0;
      }
    }
  }
  const double rss_mb = ProcStatusMb(0, "VmHWM:");
  // Enough further rounds that every first pass is complete (covered by
  // every window), outside the timed phase.
  while (std::any_of(fleet->tenants.begin(), fleet->tenants.end(),
                     [&](const Fleet::Tenant& t) {
                       return t.first_pass.size() < fleet->length;
                     })) {
    if (!PushRound(&*fleet, &outcome, nullptr, &calls, &call_ns)) {
      return outcome;
    }
  }
  const double auroc = FirstPassAuroc(*fleet, &outcome);
  CheckAgainstBatch(&*fleet, scale.check_tenants, &outcome);
  std::remove(fixture->model_path.c_str());

  std::vector<double> lat(latencies.begin(), latencies.end());
  std::string slices;
  for (double r : slice_rate) slices += " " + std::to_string(static_cast<int>(r));
  Note("stream-unified slice obs/s:" + slices);
  Note("stream-unified: " + std::to_string(fleet->tenants.size()) +
       " tenants, " + std::to_string(slice_rate.size()) +
       " slices of about a second, latency samples " +
       std::to_string(lat.size()) + " (every 4th PushMany of " +
       std::to_string(kChunk) + " obs)");
  outcome.Set("obs_per_s", Median(slice_rate), "obs/s");
  outcome.Set("cpu_us_per_obs", Median(slice_cpu_us), "us/obs");
  outcome.Set("latency_p50_us", Median(lat), "us");
  outcome.Set("fit_s", Median(fit_s), "s");
  outcome.Set("rss_mb", rss_mb, "MB");
  outcome.Set("setup_s", Median(setup_s), "s");
  outcome.Set("auroc", auroc, "ratio");
  return outcome;
}

Outcome StreamLedger(const Fixture& fixture, const Args& args,
                     Tracer* tracer, bool own_workload) {
  Outcome outcome;
  const mace::core::MaceDetector& model = *fixture.model;
  const mace::core::MaceConfig& config = model.config();
  const int m = model.num_features();
  const size_t window = static_cast<size_t>(config.window);
  const size_t stride = static_cast<size_t>(config.score_stride);
  const double phase_s = args.scale.smoke ? 0.3 : 3.0;

  // Session memory: RSS growth per opened (and filled) session.
  double kb_per_tenant = 0.0;
  {
    const int sessions = args.scale.smoke ? 64 : 4096;
    malloc_trim(0);
    const double before = ProcStatusMb(0, "VmRSS:");
    std::vector<StreamingScorer> opened;
    opened.reserve(static_cast<size_t>(sessions));
    const Rows& rows = fixture.services.front().test.values();
    const Rows fill(rows.begin(), rows.begin() + 48);
    for (int i = 0; i < sessions; ++i) {
      const int service = i % model.num_services();
      opened.push_back(
          std::move(StreamingScorer::Create(&model, service)).value());
      if (!opened.back().PushMany(fill).ok()) outcome.Fail("fill PushMany");
    }
    kb_per_tenant =
        1024.0 * (ProcStatusMb(0, "VmRSS:") - before) / sessions;
  }

  // Kernel plans of the same shapes as the model's own: a fresh network
  // of this config, the model's selected bases per service.
  const int coeff_columns =
      2 * static_cast<int>(model.subspaces().front().bases.size());
  mace::Rng rng(config.seed);
  mace::core::MaceModel shaped(config, m, coeff_columns, &rng);
  const mace::kernel::FusedModelPlan model_plan =
      mace::core::BuildFusedModelPlan(config, m, coeff_columns, shaped);
  std::vector<mace::kernel::FusedServicePlan> service_plans;
  for (const auto& subspace : model.subspaces()) {
    service_plans.push_back(mace::core::BuildFusedServicePlan(
        model_plan,
        mace::core::MakeServiceTransforms(config.window, subspace.bases)));
  }

  Fleet fleet(fixture, fixture.stream_tenants, args.seed);
  uint64_t calls = 0;
  int64_t call_ns = 0;
  for (int r = 0; r < kWarmupRounds; ++r) {
    if (!PushRound(&fleet, &outcome, nullptr, &calls, &call_ns)) {
      return outcome;
    }
  }

  // Untraced and traced rounds alternate in blocks, so host drift lands
  // on both alike; the untraced blocks give the reference the traced
  // ledger must account for.
  //
  // In a traced block each PushMany is a top-level span. Its due windows,
  // re-derived from a mirror of the scaled observations, are replayed
  // through ScoreWindowBatch (child) and, gathered feature-major, through
  // kernel::ScoreWindows (grandchild). Replays run after each whole round
  // of real calls, so a call meets the caches the fleet itself left
  // rather than a replay's.
  const int push_name = tracer->Name("core.stream.PushMany");
  const int batch_name = tracer->Name("core.batch.ScoreWindowBatch");
  const int kernel_name = tracer->Name("kernel.ScoreWindows");
  // Mirror: per tenant, the last `window` scaled rows in a fixed ring.
  std::vector<Rows> rings(fleet.tenants.size(),
                          Rows(window, std::vector<double>(m)));
  auto mirror = [&](size_t i, size_t step) -> bool {
    const Fleet::Tenant& t = fleet.tenants[i];
    const Rows& values =
        fixture.services[static_cast<size_t>(t.service)].test.values();
    auto scaled = model.ScaleObservation(
        t.service, values[(t.offset + step) % fleet.length]);
    if (!scaled.ok()) {
      outcome.Fail("ScaleObservation: " + scaled.status().ToString());
      return false;
    }
    rings[i][step % window] = *scaled;
    return true;
  };
  std::vector<float> latencies;
  latencies.reserve(1u << 18);
  uint64_t untraced_obs = 0;
  double untraced_s = 0.0;
  int64_t untraced_ns = 0;
  uint64_t traced_obs = 0;
  double traced_s = 0.0;
  uint64_t windows = 0;
  uint64_t kernel_calls = 0;
  std::vector<uint32_t> push_ids(fleet.tenants.size());
  std::vector<uint64_t> ops(fleet.tenants.size());
  std::vector<Rows> due;
  std::vector<double> gathered;
  std::vector<double> errors;
  const double block_s = phase_s / 6;
  for (int block = 0; block < 12 && !tracer->full(); ++block) {
    Clock::time_point begin = Clock::now();
    if (block % 2 == 0) {
      uint64_t block_calls = 0;
      while (SecondsSince(begin) < block_s) {
        if (!PushRound(&fleet, &outcome, &latencies, &block_calls,
                       &untraced_ns)) {
          return outcome;
        }
        untraced_obs += kChunk * fleet.tenants.size();
      }
      untraced_s += SecondsSince(begin);
      calls += block_calls;
      continue;
    }
    for (size_t i = 0; i < fleet.tenants.size(); ++i) {
      for (size_t k = fleet.tenants[i].steps - window;
           k < fleet.tenants[i].steps; ++k) {
        if (!mirror(i, k)) return outcome;
      }
    }
    begin = Clock::now();
    while (SecondsSince(begin) < block_s && !tracer->full()) {
      for (size_t i = 0; i < fleet.tenants.size(); ++i) {
        Fleet::Tenant& t = fleet.tenants[i];
        const int64_t start = NowNs();
        auto result = t.scorer->PushMany(fleet.NextChunk(t));
        const int64_t end = NowNs();
        ++outcome.attempted;
        if (!result.ok()) {
          outcome.Fail("PushMany: " + result.status().ToString());
          return outcome;
        }
        fleet.Record(&t, *result);
        traced_obs += kChunk;
        ops[i] = calls++;
        push_ids[i] = tracer->Record(push_name, 0, ops[i], start, end);
      }
      for (size_t i = 0; i < fleet.tenants.size(); ++i) {
        const Fleet::Tenant& t = fleet.tenants[i];
        size_t due_count = 0;
        for (size_t step = t.steps - kChunk; step < t.steps; ++step) {
          if (!mirror(i, step)) return outcome;
          if (step + 1 >= window && (step + 1 - window) % stride == 0) {
            if (due.size() <= due_count) due.emplace_back(window);
            for (size_t k = 0; k < window; ++k) {
              due[due_count][k] = rings[i][(step + 1 + k) % window];
            }
            ++due_count;
          }
        }
        if (due_count == 0 || push_ids[i] == 0) continue;
        due.resize(due_count);
        const int64_t batch_start = NowNs();
        auto batch = model.ScoreWindowBatch(t.service, due);
        const int64_t batch_end = NowNs();
        if (!batch.ok()) {
          outcome.Fail("ScoreWindowBatch: " + batch.status().ToString());
          return outcome;
        }
        const uint32_t batch_id = tracer->Record(
            batch_name, push_ids[i], ops[i], batch_start, batch_end);
        gathered.resize(due_count * static_cast<size_t>(m) * window);
        errors.resize(due_count * window);
        for (size_t w = 0; w < due_count; ++w) {
          for (size_t step = 0; step < window; ++step) {
            for (size_t f = 0; f < static_cast<size_t>(m); ++f) {
              gathered[(w * static_cast<size_t>(m) + f) * window + step] =
                  due[w][step][f];
            }
          }
        }
        const int64_t kernel_start = NowNs();
        mace::kernel::ScoreWindows(
            model_plan, service_plans[static_cast<size_t>(t.service)],
            gathered.data(), static_cast<int>(due_count), errors.data());
        const int64_t kernel_end = NowNs();
        tracer->Record(kernel_name, batch_id, ops[i], kernel_start,
                       kernel_end);
        windows += due_count;
        ++kernel_calls;
      }
    }
    traced_s += SecondsSince(begin);
  }
  const double untraced_rate = static_cast<double>(untraced_obs) / untraced_s;
  const double traced_rate = static_cast<double>(traced_obs) / traced_s;
  const double stream_ns_per_obs =
      static_cast<double>(untraced_ns) / static_cast<double>(untraced_obs);
  std::vector<double> lat(latencies.begin(), latencies.end());

  // Only calls whose whole chain was recorded enter the ledger.
  const double push_s = tracer->TotalSeconds(push_name);
  const double push_self_s = tracer->SelfSeconds(push_name);
  const double batch_s = tracer->TotalSeconds(batch_name);
  const double batch_self_s = tracer->SelfSeconds(batch_name);
  const double kernel_s = tracer->TotalSeconds(kernel_name);
  const double push_obs =
      static_cast<double>(tracer->Count(push_name) * kChunk);
  const double win = static_cast<double>(std::max<uint64_t>(windows, 1));
  const double kernel_ns_per_window = 1e9 * kernel_s / win;
  const double batch_tax_ns = 1e9 * batch_self_s / win;
  const double stream_tax_ns = 1e9 * push_self_s / push_obs;
  const double windows_per_obs = win / push_obs;
  const double sum_ns = (kernel_ns_per_window + batch_tax_ns) *
                            windows_per_obs +
                        stream_tax_ns;
  Note("stream ledger: stride " + std::to_string(stride) + ", " +
       std::to_string(fleet.tenants.size()) + " tenants, traced calls " +
       std::to_string(tracer->Count(push_name)) + ", due windows/obs " +
       std::to_string(windows_per_obs) + "; kernel + batch tax + stream " +
       "tax = " + std::to_string(sum_ns) + " ns/obs (traced PushMany " +
       std::to_string(1e9 * push_s / push_obs) + ") vs untraced " +
       std::to_string(stream_ns_per_obs) + " ns/obs");

  outcome.Set("kernel.ns_per_window", kernel_ns_per_window, "ns");
  outcome.Set("kernel.windows_per_call",
              win / static_cast<double>(std::max<uint64_t>(kernel_calls, 1)),
              "windows");
  outcome.Set("core.batch.ns_per_window", 1e9 * batch_s / win, "ns");
  outcome.Set("core.batch.tax_ns_per_window", batch_tax_ns, "ns");
  outcome.Set("core.stream.ns_per_obs", stream_ns_per_obs, "ns");
  outcome.Set("core.stream.tax_ns_per_obs", stream_tax_ns, "ns");
  outcome.Set("core.stream.ledger_closure_pct",
              100.0 * (sum_ns / stream_ns_per_obs - 1.0), "%");
  outcome.Set("core.stream.call_p99_us", Quantile(lat, 0.99), "us");
  outcome.Set("core.stream.kb_per_tenant", kb_per_tenant, "KB");
  if (own_workload) {
    outcome.Set("trace.overhead_pct",
                100.0 * (untraced_rate / traced_rate - 1.0), "%");
  }
  return outcome;
}

}  // namespace perfbench
