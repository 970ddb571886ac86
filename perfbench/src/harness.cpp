#include "harness.h"

#include "rodinia/rodinia.h"
#include "runtime/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>

namespace perfbench {

namespace {

[[noreturn]] void usage(const char *why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rodinia-exec|compile-batch|resnet-train --seed N "
               "--seconds S --trace 0|1 [--threads T]\n"
               "       perfbench --self-check | --figures [--threads T]\n",
               why);
  std::exit(2);
}

} // namespace

Options parseOptions(int argc, char **argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--self-check" || a == "--figures") {
      (a == "--figures" ? o.figures : o.selfCheck) = true;
      continue;
    }
    if (i + 1 >= argc)
      usage(("missing value for " + a).c_str());
    const char *v = argv[++i];
    char *endp = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &endp, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &endp);
    } else if (a == "--trace") {
      o.trace = std::strtol(v, &endp, 10) != 0;
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(std::strtoul(v, &endp, 10));
    } else {
      usage(("unknown option " + a).c_str());
    }
    if (endp && *endp)
      usage(("bad value for " + a).c_str());
  }
  if (!o.selfCheck && !o.figures && o.workload.empty())
    usage("--workload is required");
  if (o.seconds <= 0 || o.threads < 1 || o.threads > 64)
    usage("--seconds must be positive and --threads in 1..64");
  return o;
}

double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double best(const std::vector<double> &xs) {
  return xs.empty() ? 0 : *std::min_element(xs.begin(), xs.end());
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty())
    return 0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double> &xs) {
  if (xs.empty())
    return 0;
  double s = 0;
  for (double x : xs)
    s += std::log(x);
  return std::exp(s / static_cast<double>(xs.size()));
}

uint64_t mixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double peakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

Tracer &Tracer::instance() {
  static Tracer t;
  return t;
}

int Tracer::begin(const std::string &name) {
  int parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back({name, now(), 0, parent});
  int id = static_cast<int>(records_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  records_[static_cast<size_t>(id)].end = now();
  if (!stack_.empty() && stack_.back() == id)
    stack_.pop_back();
}

double Tracer::total(const std::string &name) const {
  double s = 0;
  for (const auto &r : records_)
    if (r.name == name)
      s += r.end - r.start;
  return s;
}

std::string Result::json() const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second.first);
    if (i)
      s += ", ";
    s += "\"" + metrics[i].first + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  s += "}}";
  return s;
}

std::vector<std::pair<std::string, std::string>> perLayerMetricNames() {
  std::vector<std::pair<std::string, std::string>> n = {
      {"frontend.parse_s", "s"}, {"ir.hash_s", "s"}, {"ir.ops_out", "count"}};
  for (const char *p :
       {"inline", "canonicalize", "cse", "mem2reg", "store-forward", "licm",
        "barrier-elim", "barrier-motion", "unroll", "cpuify", "omp-lower"})
    n.push_back({std::string("pass.") + p + "_s", "s"});
  for (const char *c : {"hits", "misses", "stores", "waits"})
    n.push_back({std::string("cache.") + c, "count"});
  n.push_back({"session.job_p50_s", "s"});
  n.push_back({"session.job_p95_s", "s"});
  for (const char *c : {"tasks", "steals", "parks"})
    n.push_back({std::string("scheduler.") + c, "count"});
  n.push_back({"runtime.fork_join_us", "us"});
  n.push_back({"runtime.barrier_us", "us"});
  n.push_back({"vm.compile_s", "s"});
  n.push_back({"vm.verify_s", "s"});
  n.push_back({"vm.bytecode_insts", "count"});
  for (const auto &b : paralift::rodinia::suite())
    for (const char *k : {"cuda_s", "omp_s", "cuda_1t_s", "omp_1t_s"})
      n.push_back({"exec." + b.id + "." + k, "s"});
  n.push_back({"moccuda.step_s", "s"});
  n.push_back({"moccuda.vm_kernels_s", "s"});
  n.push_back({"moccuda.conv_s", "s"});
  return n;
}

void addPerLayer(Result &r, const std::map<std::string, double> &values) {
  for (const auto &[name, unit] : perLayerMetricNames()) {
    auto it = values.find(name);
    r.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto &[name, v] : values) {
    bool known = false;
    for (const auto &m : r.metrics)
      known |= m.first == name;
    if (!known)
      std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n",
                   name.c_str());
  }
}

void probeRuntime(unsigned threads, std::map<std::string, double> &out) {
  paralift::runtime::ThreadPool pool(threads);
  const paralift::runtime::TeamFn empty = [](unsigned,
                                             paralift::runtime::Team &) {};
  const int regions = 2000, barriers = 2000;
  for (int i = 0; i < 100; ++i)
    pool.parallel(empty);
  std::vector<double> forkJoin;
  for (int rep = 0; rep < 5; ++rep) {
    Span s("runtime.fork_join");
    double t0 = now();
    for (int i = 0; i < regions; ++i)
      pool.parallel(empty);
    forkJoin.push_back((now() - t0) / regions * 1e6);
  }
  std::vector<double> barrier;
  for (int rep = 0; rep < 5; ++rep) {
    Span s("runtime.barrier");
    double inner = 0;
    pool.parallel([&](unsigned tid, paralift::runtime::Team &team) {
      team.barrier();
      double t0 = now();
      for (int i = 0; i < barriers; ++i)
        team.barrier();
      if (tid == 0)
        inner = now() - t0;
    });
    barrier.push_back(inner / barriers * 1e6);
  }
  out["runtime.fork_join_us"] = median(forkJoin);
  out["runtime.barrier_us"] = median(barrier);
}

} // namespace perfbench
