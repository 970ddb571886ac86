// Shared pieces of the end-to-end benchmark: command line, clocks,
// statistics, the span recorder used by traced runs, and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selfCheck = false;
  bool figures = false;
  unsigned threads = 4;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--self-check]
/// [--threads T]` or `--figures`; exits with a usage message on bad input.
Options parseOptions(int argc, char **argv);

double now();

double median(std::vector<double> xs);
/// The fastest sample: other processes on a shared machine only ever add
/// time, so the fastest of a run's samples is its steadiest estimate.
double best(const std::vector<double> &xs);

/// Set-ups each workload performs; setup_s is the fastest.
constexpr int kSetups = 9;
/// Quantile by linear interpolation between order statistics, q in [0,1].
double quantile(std::vector<double> xs, double q);
double geomean(const std::vector<double> &xs);

/// Deterministic 64-bit mixer: derives independent sub-seeds from the
/// workload seed, so every generator draws from its own stream.
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/// Peak resident set of this process in MB.
double peakRssMb();

/// Spans recorded by the benchmark around calls into the program's public
/// functions. Disabled (the untraced runs) it records nothing; enabled, it
/// keeps every span in memory until the run ends.
class Tracer {
public:
  struct Record {
    std::string name;
    double start, end;
    int parent; ///< index of the enclosing span, -1 at top level
  };

  static Tracer &instance();
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  int begin(const std::string &name);
  void end(int id);

  /// Summed duration of every span with this name.
  double total(const std::string &name) const;

private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// RAII span; a no-op unless the tracer is enabled.
class Span {
public:
  explicit Span(const std::string &name)
      : id_(Tracer::instance().enabled() ? Tracer::instance().begin(name)
                                         : -1) {}
  ~Span() {
    if (id_ >= 0)
      Tracer::instance().end(id_);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int id_;
};

/// The run's outcome, printed as the last line of stdout.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;

  void add(const std::string &name, double value, const std::string &unit) {
    metrics.push_back({name, {value, unit}});
  }
  std::string json() const;
};

/// Names of the per-layer metrics, in the order every traced run prints
/// them (see README.md for the layer-to-end-to-end map).
std::vector<std::pair<std::string, std::string>> perLayerMetricNames();

/// Fills every per-layer metric from `values`; a layer the workload does
/// not reach reads 0.
void addPerLayer(Result &r, const std::map<std::string, double> &values);

/// Runtime probes shared by the traced runs: one empty parallel region
/// and one team-barrier episode, in microseconds, at `threads`.
void probeRuntime(unsigned threads, std::map<std::string, double> &out);

} // namespace perfbench
