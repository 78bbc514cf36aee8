// The three workloads (untraced timed runs that yield the end-to-end
// metrics) and the per-layer ledgers of the traced run.
//
// A traced run sets up one workload's fixture — its data, its fitted and
// reloaded model — and runs every ledger on it, so each per-layer metric
// is measured in every traced run under that workload's configuration.
// Layers are measured from outside the program: each ledger times calls
// into one module's public functions.
#ifndef PERFBENCH_LEDGERS_H_
#define PERFBENCH_LEDGERS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/mace_detector.h"
#include "harness.h"

namespace perfbench {

/// Window length of every model, and observations per PushMany call in
/// the streaming workload.
inline constexpr int kWindow = 40;
inline constexpr size_t kChunk = 10;
/// score_stride of the streaming workload's model, the default one. It
/// divides kChunk, so every PushMany scores the same number of windows and
/// the per-call latency has one mode (with 8-observation calls, calls
/// scoring one or two windows put the median on the edge between modes).
inline constexpr int kStreamStride = 5;
static_assert(kChunk % kStreamStride == 0);

/// One workload's inputs and model, as the traced run's ledgers see them.
struct Fixture {
  std::vector<mace::ts::ServiceData> services;
  /// Loaded back from `model_path`, as every serving process loads it.
  std::shared_ptr<mace::core::MaceDetector> model;
  std::string model_path;
  int stream_tenants = 0;
};

/// Generates the data, fits with `score_stride`, saves and reloads.
/// Returns the Fit wall time through `fit_seconds`.
Fixture MakeFixture(const Args& args, int score_stride, int stream_tenants,
                    const std::string& model_path,
                    double* fit_seconds, Outcome* outcome);

Outcome RunStreamUnified(const Args& args);
Outcome RunWireRouter(const Args& args);

/// kernel / core.batch / core.stream: PushMany -> ScoreWindowBatch ->
/// kernel::ScoreWindows, each replayed on the same due windows.
Outcome StreamLedger(const Fixture& fixture, const Args& args,
                     Tracer* tracer, bool own_workload);
/// serve / wire / net / qos: router and direct-socket loops against real
/// backend processes, replayed into an in-bench ServeFrontend.
Outcome WireLedger(const Fixture& fixture, const Args& args, Tracer* tracer,
                   bool own_workload);
/// fft / nn / core.fit / core.score: the model-building path and batch
/// Score at one versus two threads.
Outcome TrainLedger(const Fixture& fixture, const Args& args, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGERS_H_
