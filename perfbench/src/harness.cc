#include "harness.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ts/profiles.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  return values[idx];
}

double ProcCpuSeconds(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/stat" : "/proc/" + std::to_string(pid) + "/stat";
  std::ifstream in(path);
  std::string text;
  if (!std::getline(in, text)) return -1.0;
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcStatusMb(int pid, const char* field) {
  const std::string path = pid == 0 ? "/proc/self/status"
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::stod(line.substr(len)) / 1024.0;  // kB -> MB
    }
  }
  return -1.0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::pair<double, double> HostStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  double total = 0.0;
  double steal = 0.0;
  double value = 0.0;
  for (int i = 0; i < 8 && in >> value; ++i) {
    total += value;
    if (i == 7) steal = value;
  }
  return {steal, total};
}

double HostProbeMops() {
  // A dependent xorshift chain: bound by core speed alone, with no memory
  // traffic, so it tracks frequency and co-tenant pressure. Best of five
  // short rounds, so one preemption does not decide the reading.
  constexpr uint64_t kIters = 4'000'000;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  double best = 0.0;
  for (int round = 0; round < 5; ++round) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    best = std::max(best, static_cast<double>(kIters) / SecondsSince(start));
  }
  if (x == 0) std::printf("# unreachable\n");  // keeps the chain live
  return best / 1e6;
}

int Tracer::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

uint32_t Tracer::Record(int name, uint32_t parent, uint64_t op,
                        int64_t start_ns, int64_t end_ns) {
  if (full()) return 0;
  Span span;
  span.name = name;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return span.id;
}

double Tracer::TotalSeconds(int name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

double Tracer::SelfSeconds(int name) const {
  // Ids are dense (id = index + 1), so each child charges its parent
  // directly.
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
    if (s.parent != 0 && spans_[s.parent - 1].name == name) {
      ns -= s.end_ns - s.start_ns;
    }
  }
  return 1e-9 * static_cast<double>(ns);
}

size_t Tracer::Count(int name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [name](const Span& s) { return s.name == name; }));
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "id\tparent\top\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << s.id << '\t' << s.parent << '\t' << s.op << '\t'
        << names_[static_cast<size_t>(s.name)] << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

Scale Scale::For(bool smoke) {
  Scale s;
  if (!smoke) return s;
  s.smoke = true;
  s.services = 3;
  s.train_length = 400;
  s.test_length = 240;
  s.epochs = 1;
  s.stream_tenants = 12;
  s.wire_tenants = 8;
  s.setup_reps = 1;
  s.check_tenants = 2;
  return s;
}

std::vector<mace::ts::ServiceData> MakeServices(const Scale& scale,
                                                uint64_t seed) {
  mace::ts::DatasetProfile profile = mace::ts::SmdProfile();
  profile.num_services = scale.services;
  profile.train_length = scale.train_length;
  profile.test_length = scale.test_length;
  profile.seed = seed;
  return mace::ts::GenerateDataset(profile).services;
}

mace::core::MaceConfig ModelConfig(const Scale& scale, int score_stride) {
  mace::core::MaceConfig config;
  config.score_stride = score_stride;
  config.epochs = scale.epochs;
  config.batch_size = 128;
  config.fit_threads = 1;
  config.score_threads = 1;
  return config;
}

bool SameBits(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::Merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
  for (const auto& [name, metric] : other.metrics) metrics[name] = metric;
}

void Note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
