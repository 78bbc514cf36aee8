// Shared machinery of the layered benchmark: clocks, order statistics,
// /proc readings, the host probe, the in-memory span tracer, run sizes
// and arguments, the seeded data and model config, and the outcome record.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/mace_config.h"
#include "ts/time_series.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary fixed origin.
int64_t NowNs();
double SecondsSince(Clock::time_point start);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Quantile by the nearest-rank rule on a copy of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// CPU seconds (user + system) a process has used so far, read from
/// /proc/<pid>/stat; pid 0 means this process. -1 when unreadable.
double ProcCpuSeconds(int pid);
/// A "VmHWM:" / "VmRSS:" style line of /proc/<pid>/status, in MB; pid 0
/// means this process. -1 when unreadable.
double ProcStatusMb(int pid, const char* field);
/// CPU seconds of this process from CLOCK_PROCESS_CPUTIME_ID (ns
/// resolution, all threads).
double ProcessCpuSeconds();
/// Host-wide CPU ticks from /proc/stat: {steal, total}. The steal share
/// over a run says how much of the machine a hypervisor took away.
std::pair<double, double> HostStealTicks();

/// A fixed xorshift loop that touches no program code: millions of loop
/// iterations per second, best of five rounds. Timed before and after
/// each run so a host-speed shift between sets of runs is visible.
double HostProbeMops();

/// \brief Spans of the traced run, kept in memory and written out at the
/// end. A span names one call into a layer; `parent` links a replayed
/// child (the same inputs fed one layer down) to the call it explains,
/// and every span of one top-level operation carries its `op` id.
class Tracer {
 public:
  struct Span {
    int name = 0;  ///< interned by Name()
    uint32_t id = 0;
    uint32_t parent = 0;  ///< 0 = top-level
    uint64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  /// Interns a span name.
  int Name(const std::string& name);
  /// Records a finished span; returns its id (0 once the buffer is full,
  /// so children of an unrecorded parent are dropped too).
  uint32_t Record(int name, uint32_t parent, uint64_t op, int64_t start_ns,
                  int64_t end_ns);

  /// Sum of the durations of every span with this name.
  double TotalSeconds(int name) const;
  /// Sum over spans of `name` of (duration minus the durations of their
  /// direct children): the layer's self time.
  double SelfSeconds(int name) const;
  size_t Count(int name) const;
  bool full() const { return spans_.size() == spans_.capacity(); }

  /// Writes one tab-separated line per span (id, parent, op, name,
  /// start_ns, end_ns); returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Sizes of one run: the canonical configuration, or the tiny smoke one.
struct Scale {
  bool smoke = false;
  int services = 10;
  size_t train_length = 1200;
  /// Test split length, a multiple of the PushMany chunk. Long enough
  /// that AUROC pools ~100 anomaly events per seed.
  size_t test_length = 4000;
  int epochs = 8;
  int stream_tenants = 512;
  int wire_tenants = 64;
  int setup_reps = 5;
  int check_tenants = 8;

  static Scale For(bool smoke);
};

/// The benchmark's command line and host context.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
  std::string source_id = "unknown";
  Scale scale;
  Clock::time_point process_start;
};

/// SMD-profile services generated from the benchmark seed: per service
/// a normal train split and a labeled test split.
std::vector<mace::ts::ServiceData> MakeServices(const Scale& scale,
                                                uint64_t seed);

/// The unified model of every workload: the default inference config
/// (window 40, fused engine) with the Fig 6(a) training protocol —
/// `epochs` epochs, minibatch 128 — on one fit and one score thread. On a
/// shared host, two threads that meet at every minibatch slow down
/// together whenever either one loses its core, which spread `fit_s` and
/// the score rate by 40% and more across runs; one thread spreads only as
/// much as the host's speed. Thread scaling is a per-layer metric of the
/// traced run.
mace::core::MaceConfig ModelConfig(const Scale& scale, int score_stride);

/// Bitwise equality of two score vectors (NaN-safe).
bool SameBits(const double* a, const double* b, size_t n);

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload or a traced run hands back to main.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for stderr
  std::map<std::string, Metric> metrics;

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Adds another outcome's counts, failures and metrics.
  void Merge(const Outcome& other);
};

/// Writes `text` as an informational line on stdout (prefixed "# ").
void Note(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
