// `perfbench --figures`: one command that measures the paper's Fig. 12,
// Fig. 13 (ablation and transpiled CUDA vs OpenMP), Fig. 14 (1, 2 and 4
// threads) and Fig. 15, each as the median and interquartile range of
// `kReps` repetitions, beside the paper's value. Every program output is
// checked as in the workloads; geomeans over Rodinia cover the programs
// without a named fault, so both sides of a ratio do the same work.
#include "common.h"

#include "moccuda/resnet.h"
#include "transforms/pass_cache.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>

namespace perfbench {

using namespace paralift;

namespace {

constexpr int kReps = 5;

struct Spread {
  double median, q1, q3;
};

Spread spread(const std::vector<double> &xs) {
  return {quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75)};
}

void row(const char *what, const std::vector<double> &xs, const char *unit,
         const char *paper) {
  Spread s = spread(xs);
  std::printf("  %-44s %9.3f%-5s IQR %.3f-%.3f   paper: %s\n", what, s.median,
              unit, s.q1, s.q3, paper);
}

std::string machine(unsigned threads) {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model = "unknown CPU";
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  return model + ", " + std::to_string(threads) + " threads";
}

/// One program side compiled under one pipeline, bound to its inputs.
struct Compiled {
  std::unique_ptr<driver::CompilerSession> session;
  std::vector<Runnable> runs;
};

/// Compiles `sides` of every Rodinia program under `opts` and binds each to
/// the Full inputs of seed 1.
Compiled compileSuite(const transforms::PipelineOptions &opts,
                      const std::vector<Side> &sides,
                      runtime::ThreadPool &pool) {
  Compiled c;
  c.session = std::make_unique<driver::CompilerSession>(sessionOptions(1));
  for (const Program &p : programs())
    for (Side s : sides)
      c.session->addSource(p.id(), p.source(s), opts);
  c.session->compileAll();
  c.runs.resize(c.session->jobCount());
  size_t j = 0;
  for (const Program &p : programs()) {
    Inputs in = p.make(1, Size::Full);
    std::vector<double> want = p.reference(in);
    for (Side s : sides) {
      Runnable &r = c.runs[j];
      r.prog = &p;
      r.side = s;
      std::string err;
      if (!c.session->job(j).ok() ||
          !prepare(r, c.session->job(j).result().module.get(), pool, &err)) {
        std::fprintf(stderr, "figures: %s does not compile\n", p.id().c_str());
        std::exit(1);
      }
      bindInputs(r, in, want);
      ++j;
    }
  }
  return c;
}

bool equalWork(const Program &p) { return !p.cudaFault && !p.ompFault; }

/// Calls `r` once, checks it, and returns its time.
double timedCall(Runnable &r, Result &res) {
  CallOutcome c = callOnce(r);
  account(res, *r.prog, r.side, c, false);
  return c.seconds;
}

// A tiled matrix multiply, the kernel of the paper's Fig. 12.
const char *kMatmul = R"(
#define TS 16
__global__ void mm(float* c, float* a, float* b, int n) {
  __shared__ float ta[TS][TS];
  __shared__ float tb[TS][TS];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int row = blockIdx.y * TS + ty;
  int col = blockIdx.x * TS + tx;
  float acc = 0.0f;
  for (int k0 = 0; k0 < n; k0 = k0 + TS) {
    ta[ty][tx] = a[row * n + k0 + tx];
    tb[ty][tx] = b[(k0 + ty) * n + col];
    __syncthreads();
    for (int k = 0; k < TS; k++) {
      acc += ta[ty][k] * tb[k][tx];
    }
    __syncthreads();
  }
  c[row * n + col] = acc;
}
void run(float* c, float* a, float* b, int n) {
  mm<<<dim3(n / TS, n / TS), dim3(TS, TS)>>>(c, a, b, n);
}
)";

void figure12(runtime::ThreadPool &pool, Result &res) {
  const int n = 96;
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<float> d(-1, 1);
  std::vector<float> a(n * n), b(n * n);
  for (auto &v : a)
    v = d(rng);
  for (auto &v : b)
    v = d(rng);
  std::vector<double> want(n * n, 0);
  for (int i = 0; i < n; ++i)
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        want[i * n + j] += double(a[i * n + k]) * b[k * n + j];

  transforms::PipelineOptions innerPar;
  innerPar.innerSerialize = false;
  struct V {
    const char *name;
    transforms::PipelineOptions opts;
    runtime::NestedPolicy nested;
  } variants[] = {
      {"MCUDA", transforms::PipelineOptions::mcuda(),
       runtime::NestedPolicy::Serialize},
      {"InnerPar", innerPar, runtime::NestedPolicy::Spawn},
      {"InnerSer", transforms::PipelineOptions{},
       runtime::NestedPolicy::Serialize},
  };
  std::vector<std::vector<double>> t(3);
  std::vector<std::unique_ptr<driver::CompilerSession>> keep;
  std::vector<Runnable> runs(3);
  Program mm; // matmul's reference check goes through a Program record
  mm.outputs = [](const Inputs &in, Side) {
    return std::vector<double>(in.f[0].begin(), in.f[0].end());
  };
  mm.relTol = 1e-4;
  mm.absTol = 1e-4;
  static const rodinia::Benchmark mmBench{"matmul", "matmul", true, kMatmul,
                                          nullptr, nullptr};
  mm.bench = &mmBench;
  for (int v = 0; v < 3; ++v) {
    keep.push_back(std::make_unique<driver::CompilerSession>(sessionOptions(1)));
    driver::CompileJob &job = keep.back()->addSource("matmul", kMatmul,
                                                     variants[v].opts);
    keep.back()->compileAll();
    std::string err;
    runs[v].prog = &mm;
    if (!job.ok() || !prepare(runs[v], job.result().module.get(), pool, &err)) {
      std::fprintf(stderr, "figures: matmul (%s) does not compile\n%s",
                   variants[v].name, job.diagnostics().str().c_str());
      std::exit(1);
    }
    Inputs in;
    in.addF(std::vector<float>(n * n, 0));
    in.addF(a);
    in.addF(b);
    in.addInt(n);
    bindInputs(runs[v], in, want);
  }
  for (int rep = 0; rep < kReps; ++rep)
    for (int v = 0; v < 3; ++v) {
      pool.setNestedPolicy(variants[v].nested);
      t[v].push_back(timedCall(runs[v], res));
    }
  pool.setNestedPolicy(runtime::NestedPolicy::Serialize);
  std::vector<double> par, ser;
  for (int rep = 0; rep < kReps; ++rep) {
    par.push_back(t[0][rep] / t[1][rep]);
    ser.push_back(t[0][rep] / t[2][rep]);
  }
  std::printf("Fig. 12: %dx%d tiled matmul, speedup over MCUDA\n", n, n);
  row("InnerPar / MCUDA", par, "x", "~1.0x (within 1.3%)");
  row("InnerSer / MCUDA", ser, "x", "~1.15x");
}

/// Per repetition, the geomean over equal-work programs of base / other.
std::vector<double> geomeanRatios(const std::vector<std::vector<double>> &base,
                                  const std::vector<std::vector<double>> &other) {
  std::vector<double> out;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<double> r;
    for (size_t k = 0; k < programs().size(); ++k)
      if (equalWork(programs()[k]))
        r.push_back(base[k][rep] / other[k][rep]);
    out.push_back(geomean(r));
  }
  return out;
}

void figure13(runtime::ThreadPool &pool, Result &res) {
  using transforms::PipelineOptions;
  std::vector<std::pair<const char *, PipelineOptions>> stages;
  PipelineOptions o = PipelineOptions::optDisabled();
  stages.push_back({"OptDisabled", o});
  o.minCut = true;
  stages.push_back({"+mincut", o});
  o.barrierMotion = true;
  stages.push_back({"+motion", o});
  o.openmpOpt = true;
  stages.push_back({"+openmpopt", o});
  o.affineOpts = true;
  stages.push_back({"+affine", o});
  o.innerSerialize = true;
  stages.push_back({"+innerser", o});

  // Left: ablation, every stage's CUDA programs timed against OptDisabled.
  std::vector<Compiled> compiled;
  for (auto &s : stages)
    compiled.push_back(compileSuite(s.second, {Side::Cuda}, pool));
  size_t np = programs().size();
  std::vector<std::vector<std::vector<double>>> t(
      stages.size(), std::vector<std::vector<double>>(np));
  for (int rep = 0; rep < kReps; ++rep)
    for (size_t k = 0; k < np; ++k)
      for (size_t s = 0; s < stages.size(); ++s) {
        pool.setNestedPolicy(stages[s].second.innerSerialize
                                 ? runtime::NestedPolicy::Serialize
                                 : runtime::NestedPolicy::Spawn);
        t[s][k].push_back(timedCall(compiled[s].runs[k], res));
      }
  pool.setNestedPolicy(runtime::NestedPolicy::Serialize);
  std::printf("Fig. 13 (left): ablation, geomean speedup over OptDisabled\n");
  const char *paper[] = {"", "+4.1% (barrier programs)", "(not in paper)",
                         "+8.9%", "+4.6%", "(innerser, see right)"};
  for (size_t s = 1; s < stages.size(); ++s)
    row(stages[s].first, geomeanRatios(t[0], t[s]), "x", paper[s]);

  // Warm-cache row: wall clock of compiling the whole ablation sweep
  // (every stage's 16 CUDA sources) with no cache, then twice against one
  // cache: populating it, then replaying from it.
  std::vector<double> off, populate, warm;
  for (int rep = 0; rep < kReps; ++rep) {
    auto sweep = [&](transforms::PassResultCache *cache) {
      double t0 = now();
      for (auto &s : stages) {
        driver::SessionOptions so = sessionOptions(4);
        so.cache = cache;
        driver::CompilerSession session(so);
        for (const Program &p : programs())
          session.addSource(p.id(), p.source(Side::Cuda), s.second);
        session.compileAll();
      }
      return now() - t0;
    };
    transforms::PassResultCache cache;
    off.push_back(sweep(nullptr));
    populate.push_back(sweep(&cache));
    warm.push_back(sweep(&cache));
  }
  std::vector<double> warmSpeedup;
  for (int rep = 0; rep < kReps; ++rep)
    warmSpeedup.push_back(off[rep] / warm[rep]);
  row("sweep compile, cache off (wall)", off, "s", "-");
  row("sweep compile, cache populate (wall)", populate, "s", "-");
  row("sweep compile, cache warm (wall)", warm, "s", "-");
  row("warm-cache speedup over cache off (wall)", warmSpeedup, "x", "-");

  // Right: OpenMP time over transpiled-CUDA time.
  PipelineOptions innerPar;
  innerPar.innerSerialize = false;
  Compiled par = compileSuite(innerPar, {Side::Cuda}, pool);
  Compiled omp = compileSuite(PipelineOptions{}, {Side::Omp}, pool);
  std::vector<std::vector<double>> tp(np), to(np);
  for (int rep = 0; rep < kReps; ++rep)
    for (size_t k = 0; k < np; ++k) {
      pool.setNestedPolicy(runtime::NestedPolicy::Spawn);
      tp[k].push_back(timedCall(par.runs[k], res));
      pool.setNestedPolicy(runtime::NestedPolicy::Serialize);
      to[k].push_back(timedCall(omp.runs[k], res));
    }
  std::printf("Fig. 13 (right): OpenMP time / transpiled CUDA time, geomean "
              "over the programs without a named fault\n");
  row("InnerSer", geomeanRatios(to, t.back()), "x", "1.76x");
  row("InnerPar", geomeanRatios(to, tp), "x", "1.437x");
}

void figure14(runtime::ThreadPool &pool, Result &res) {
  Compiled c = compileSuite(transforms::PipelineOptions{},
                            {Side::Cuda, Side::Omp}, pool);
  size_t np = programs().size();
  const unsigned threads[] = {1, 2, 4};
  // t[thread][run][rep]
  std::vector<std::vector<std::vector<double>>> t(
      3, std::vector<std::vector<double>>(2 * np));
  for (int rep = 0; rep < kReps; ++rep)
    for (int ti = 0; ti < 3; ++ti) {
      pool.setNumThreads(threads[ti]);
      for (size_t k = 0; k < 2 * np; ++k)
        t[ti][k].push_back(timedCall(c.runs[k], res));
    }
  pool.setNumThreads(pool.capacity());
  std::printf("Fig. 14: scaling T1/Tn, geomean over the programs without a "
              "named fault\n");
  for (int ti = 1; ti < 3; ++ti)
    for (int side = 0; side < 2; ++side) {
      std::vector<double> out;
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<double> r;
        for (size_t k = 0; k < np; ++k)
          if (equalWork(programs()[k]))
            r.push_back(t[0][2 * k + side][rep] / t[ti][2 * k + side][rep]);
        out.push_back(geomean(r));
      }
      std::string what = std::string(side ? "OpenMP" : "CUDA-OpenMP") +
                         " at " + std::to_string(threads[ti]) + " threads";
      row(what.c_str(), out, "x",
          side ? "7.1x at 32 threads" : "14.9x at 32 threads");
    }
}

void figure15(unsigned threads) {
  runtime::ThreadPool pool(threads);
  const int batch = 8;
  std::mt19937_64 rng(15);
  moccuda::Tensor images(batch, 3, 32, 32);
  std::uniform_real_distribution<float> d(-1, 1);
  for (auto &v : images.data)
    v = d(rng);
  std::vector<int32_t> labels(batch);
  for (int k = 0; k < batch; ++k)
    labels[k] = k % 10;
  const moccuda::Backend backends[] = {
      moccuda::Backend::Native, moccuda::Backend::OneDnnLike,
      moccuda::Backend::MocCudaExpert, moccuda::Backend::MocCudaPolygeist};
  std::vector<std::unique_ptr<moccuda::MiniResNet>> models;
  for (auto b : backends) {
    models.push_back(std::make_unique<moccuda::MiniResNet>(b, pool, 16));
    models.back()->trainStep(images, labels);
  }
  std::vector<std::vector<double>> ips(4);
  for (int rep = 0; rep < kReps; ++rep)
    for (int b = 0; b < 4; ++b) {
      double t0 = now();
      for (int s = 0; s < 3; ++s)
        models[b]->trainStep(images, labels);
      ips[b].push_back(3 * batch / (now() - t0));
    }
  std::printf("Fig. 15: MiniResNet training, batch %d, %u threads\n", batch,
              threads);
  for (int b = 0; b < 4; ++b)
    row((std::string(moccuda::backendName(backends[b])) + " img/s").c_str(),
        ips[b], "", "-");
  std::vector<double> overDnn, overExpert;
  for (int rep = 0; rep < kReps; ++rep) {
    overDnn.push_back(ips[3][rep] / ips[1][rep]);
    overExpert.push_back(ips[3][rep] / ips[2][rep]);
  }
  row("MocCUDA+Polygeist / OneDNN-like", overDnn, "x", "2.7x (Fugaku)");
  row("MocCUDA+Polygeist / MocCUDA+Expert", overExpert, "x", "comparable");
}

} // namespace

int runFigures(const Options &o) {
  std::printf("Paper figures on %s; %d repetitions, median and IQR\n",
              machine(o.threads).c_str(), kReps);
  runtime::ThreadPool pool(o.threads);
  Result res;
  figure12(pool, res);
  figure13(pool, res);
  figure14(pool, res);
  figure15(o.threads);
  std::printf("checked calls: %llu, failed: %llu (named faults), correct: "
              "%s\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              res.correct ? "yes" : "NO");
  return res.correct ? 0 : 1;
}

} // namespace perfbench
