// Workload rodinia-exec: the paper's Fig. 13/14 traffic. All 32 Rodinia
// sources are compiled in set-up; the timed loop then calls every
// transpiled-CUDA program and its OpenMP reference in turn, one call at a
// time, and checks each call's declared outputs against the benchmark's
// own reference.
#include "common.h"

#include <cstdio>

namespace perfbench {

using namespace paralift;

namespace {

struct ExecSet {
  std::unique_ptr<driver::CompilerSession> session;
  std::unique_ptr<runtime::ThreadPool> ownPool;
  runtime::ThreadPool *pool = nullptr;
  std::vector<Runnable> runs; ///< program k: CUDA at 2k, OpenMP at 2k + 1
  SessionCounters before, after;
};

/// The program's set-up: one cold batch compile of the 32 sources through
/// a fresh session, then bytecode compilation and verification of each.
bool setUp(ExecSet &set, unsigned threads) {
  set.session = std::make_unique<driver::CompilerSession>(sessionOptions(threads));
  for (const Source &s : rodiniaSources())
    set.session->addSource(s.name, s.text);
  set.before.snapshot();
  {
    Span span("driver.compileAll");
    set.session->compileAll();
  }
  set.after.snapshot();
  set.pool = &execPool(*set.session, set.ownPool);
  set.runs.clear();
  set.runs.resize(2 * programs().size());
  for (size_t k = 0; k < set.runs.size(); ++k) {
    Runnable &r = set.runs[k];
    r.prog = &programs()[k / 2];
    r.side = k % 2 ? Side::Omp : Side::Cuda;
    driver::CompileJob &job = set.session->job(k);
    std::string err;
    if (!job.ok() || !prepare(r, job.result().module.get(), *set.pool, &err)) {
      std::fprintf(stderr, "ERROR: %s failed to compile:\n%s%s\n",
                   job.name().c_str(), job.diagnostics().str().c_str(),
                   err.c_str());
      return false;
    }
  }
  return true;
}

} // namespace

Result runRodiniaExec(const Options &o) {
  Result res;
  std::vector<double> setups;
  ExecSet set;
  for (int s = 0; s < kSetups; ++s) {
    set.runs.clear(); // interpreters first, then the pool they run on
    set = ExecSet();
    double t0 = now();
    if (!setUp(set, o.threads)) {
      res.correct = false;
      return res;
    }
    setups.push_back(now() - t0);
  }
  for (size_t k = 0; k < programs().size(); ++k) {
    const Program &p = programs()[k];
    Inputs in = p.make(o.seed, Size::Full);
    std::vector<double> want = p.reference(in);
    bindInputs(set.runs[2 * k], in, want);
    bindInputs(set.runs[2 * k + 1], in, want);
  }

  // Warm-up: one untimed, unchecked call of each.
  for (Runnable &r : set.runs)
    callOnce(r);

  // Closed loop of whole rounds: each round calls all 32 once, CUDA and
  // OpenMP of one program back to back, the order of the pair swapped
  // every round.
  std::vector<std::vector<double>> times(set.runs.size());
  double start = now();
  for (int round = 0; round == 0 || now() - start < o.seconds; ++round) {
    for (size_t k = 0; k < programs().size(); ++k)
      for (size_t j = 0; j < 2; ++j) {
        Runnable &r = set.runs[2 * k + (j ^ (round & 1))];
        CallOutcome c = callOnce(r);
        times[&r - set.runs.data()].push_back(c.seconds);
        account(res, *r.prog, r.side, c, round == 0);
      }
  }

  // Per program, the fastest call of the run (see README.md, "Statistics").
  std::vector<double> cuda, omp, cudaMedian, ompMedian;
  for (size_t k = 0; k < set.runs.size(); ++k) {
    (k % 2 ? omp : cuda).push_back(best(times[k]));
    (k % 2 ? ompMedian : cudaMedian).push_back(median(times[k]));
  }
  double cudaExec = geomean(cuda), ompExec = geomean(omp);

  std::fprintf(stderr, "rodinia-exec: %zu rounds at %u threads\n",
               times[0].size(), o.threads);
  std::fprintf(stderr, "%-26s %12s %12s %9s\n", "program", "cuda_s", "omp_s",
               "omp/cuda");
  std::vector<double> ratios;
  for (size_t k = 0; k < programs().size(); ++k) {
    const Program &p = programs()[k];
    double r = omp[k] / cuda[k];
    bool equalWork = !p.cudaFault && !p.ompFault;
    if (equalWork)
      ratios.push_back(r);
    std::fprintf(stderr, "%-26s %12.6f %12.6f %8.3fx%s\n", p.id().c_str(),
                 cuda[k], omp[k], r, equalWork ? "" : "  (named fault)");
  }
  std::fprintf(stderr,
               "cuda_exec_s %.6f s, omp_exec_s %.6f s (medians %.6f s, %.6f "
               "s); OpenMP/CUDA geomean %.3fx over all 16, %.3fx over the %zu "
               "without a named fault (paper, Fig. 13: 1.76x)\n",
               cudaExec, ompExec, geomean(cudaMedian), geomean(ompMedian),
               ompExec / cudaExec, geomean(ratios), ratios.size());

  if (!o.trace) {
    res.add("setup_s", best(setups), "s");
    res.add("primary_s", cudaExec, "s");
    res.add("paired_s", ompExec, "s");
    res.add("peak_rss_mb", peakRssMb(), "MB");
    return res;
  }

  std::map<std::string, double> layers;
  double ops = 0, insts = 0;
  for (size_t k = 0; k < set.runs.size(); ++k) {
    Runnable &r = set.runs[k];
    const char *side = k % 2 ? "omp" : "cuda";
    layers["exec." + r.prog->id() + "." + side + "_s"] = median(times[k]);
    ops += static_cast<double>(r.irOps);
    insts += static_cast<double>(countInsts(*r.bc));
  }
  set.pool->setNumThreads(1);
  for (size_t k = 0; k < set.runs.size(); ++k) {
    Runnable &r = set.runs[k];
    std::vector<double> xs;
    for (int rep = 0; rep < 3; ++rep)
      xs.push_back(callOnce(r).seconds);
    layers["exec." + r.prog->id() + "." + (k % 2 ? "omp" : "cuda") +
           "_1t_s"] = median(xs);
  }
  set.pool->setNumThreads(o.threads);
  // The three set-ups compiled the same modules; report one set-up's
  // bytecode work.
  const Tracer &t = Tracer::instance();
  layers["vm.compile_s"] = t.total("vm.compileModule") / kSetups;
  layers["vm.verify_s"] = t.total("vm.verifyModule") / kSetups;
  layers["vm.bytecode_insts"] = insts;
  layers["ir.ops_out"] = ops;
  set.after.deltaInto(set.before, layers);
  jobLatencies(*set.session, 0, layers);
  layers["cache.hits"] = layers["cache.misses"] = layers["cache.stores"] =
      layers["cache.waits"] = 0; // set-up compiles without a pass cache
  probeCompileLayers(rodiniaSources(), layers);
  probeMissingLayers(o.seed, o.threads, layers);
  addPerLayer(res, layers);
  return res;
}

} // namespace perfbench
