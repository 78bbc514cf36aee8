// The layered benchmark binary.
//
//   perfbench --workload stream-unified|wire-router --seed N
//             --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//             [--source-id ID]
//
// --trace 0 runs the workload and prints its end-to-end metrics; --trace 1
// sets up the same workload and prints the per-layer ledger instead. The
// last stdout line is one JSON object: correct, attempted, failed and
// metrics ({name: {value, unit}}). Lines before it start with "# ".
#include <sys/stat.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "kernel/fused_kernel.h"
#include "ledgers.h"

namespace perfbench {

Fixture MakeFixture(const Args& args, int score_stride, int stream_tenants,
                    const std::string& model_path,
                    double* fit_seconds, Outcome* outcome) {
  Fixture fixture;
  fixture.services = MakeServices(args.scale, args.seed);
  fixture.model_path = model_path;
  fixture.stream_tenants = stream_tenants;
  mace::core::MaceDetector detector(ModelConfig(args.scale, score_stride));
  const Clock::time_point start = Clock::now();
  mace::Status fitted = detector.Fit(fixture.services);
  *fit_seconds = SecondsSince(start);
  ++outcome->attempted;
  if (!fitted.ok()) {
    outcome->Fail("Fit: " + fitted.ToString());
    return fixture;
  }
  mace::Status saved = detector.Save(model_path);
  auto loaded = mace::core::MaceDetector::Load(model_path);
  ++outcome->attempted;
  if (!saved.ok() || !loaded.ok()) {
    outcome->Fail("model save/load: " + saved.ToString() + " / " +
                  loaded.status().ToString());
    return fixture;
  }
  fixture.model =
      std::make_shared<mace::core::MaceDetector>(std::move(loaded).value());
  return fixture;
}

namespace {

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stream-unified|wire-router --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR] [--source-id ID]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.process_start = Clock::now();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.scale = Scale::For(true);
      continue;
    }
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--source-id") {
        args.source_id = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "stream-unified" && args.workload != "wire-router") {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  return args;
}

/// Ends the process if a run hangs (a lost response blocks its client);
/// spawned servers die with it (they hold PR_SET_PDEATHSIG).
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %.0f s\n", seconds);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

std::string KernelArm() {
  using mace::kernel::Backend;
  if (mace::kernel::ResolveBackend(Backend::kAuto) == Backend::kScalar) {
    return "scalar";
  }
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")
             ? "simd-avx512"
             : "simd-avx2";
}

Outcome TracedRun(const Args& args) {
  Outcome outcome;
  const Scale& scale = args.scale;
  int stride = kStreamStride;
  int tenants = scale.stream_tenants;
  if (args.workload == "wire-router") {
    stride = kWindow;
    tenants = scale.wire_tenants;
  }
  double fit_seconds = 0.0;
  const Fixture fixture =
      MakeFixture(args, stride, tenants,
                  args.work_dir + "/traced-model.mace", &fit_seconds, &outcome);
  if (outcome.failed > 0) return outcome;
  Tracer tracer(1u << 20);
  outcome.Merge(StreamLedger(fixture, args, &tracer,
                             args.workload == "stream-unified"));
  outcome.Merge(
      WireLedger(fixture, args, &tracer, args.workload == "wire-router"));
  outcome.Merge(TrainLedger(fixture, args, &tracer));
  const auto serve = outcome.metrics.find("serve.ns_per_obs");
  const auto stream = outcome.metrics.find("core.stream.ns_per_obs");
  if (serve != outcome.metrics.end() && stream != outcome.metrics.end()) {
    outcome.Set("serve.tax_ns_per_obs",
                serve->second.value - stream->second.value, "ns");
  }
  const std::string path = args.work_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".tsv";
  if (tracer.WriteTsv(path)) {
    Note("spans written to " + path);
  } else {
    outcome.Fail("cannot write " + path);
  }
  std::remove(fixture.model_path.c_str());
  return outcome;
}

void PrintResult(const Outcome& outcome) {
  std::string json = "{\"correct\": ";
  json += outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, metric] : outcome.metrics) {
    std::snprintf(value, sizeof(value), "%.10g", metric.value);
    json += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  ::mkdir(args.work_dir.c_str(), 0755);
  const double probe_before = HostProbeMops();
  const auto steal_before = HostStealTicks();
  Outcome outcome;
  {
    Watchdog watchdog(170.0);
    if (args.trace) {
      outcome = TracedRun(args);
    } else if (args.workload == "stream-unified") {
      outcome = RunStreamUnified(args);
    } else {
      outcome = RunWireRouter(args);
    }
  }
  const double probe_after = HostProbeMops();
  const auto steal_after = HostStealTicks();
  const double steal_pct =
      100.0 * (steal_after.first - steal_before.first) /
      std::max(1.0, steal_after.second - steal_before.second);
  if (args.trace) {
    outcome.Set("host.probe_mops", 0.5 * (probe_before + probe_after), "Mops");
  }
  char host[512];
  std::snprintf(host, sizeof(host),
                "host {\"cores\": %u, \"kernel_arm\": \"%s\", \"compiler\": "
                "\"%s\", \"build_type\": \"%s\", \"source\": \"%s\", "
                "\"probe_mops_before\": %.1f, \"probe_mops_after\": %.1f, "
                "\"steal_pct\": %.2f}",
                std::thread::hardware_concurrency(), KernelArm().c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                args.source_id.c_str(), probe_before, probe_after, steal_pct);
  Note(host);
  Note("workload " + args.workload + " seed " + std::to_string(args.seed) +
       (args.trace ? " traced" : " untraced") +
       (args.scale.smoke ? " smoke" : ""));
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }
  PrintResult(outcome);
  return 0;
}
