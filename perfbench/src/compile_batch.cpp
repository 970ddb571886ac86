// Workload compile-batch: the compile service's traffic. A seeded batch
// of renamed copies of all 32 Rodinia sources is compiled through one
// CompilerSession with an empty pass cache (cold), then recompiled
// against the warm cache after a seeded edit renames one kernel in a
// tenth of the modules. Every compiled module is verified, run once on a
// small input and checked; every warm module must print exactly as a cold
// compile of the same source does.
#include "common.h"

#include "ir/printer.h"
#include "ir/verifier.h"
#include "transforms/pass_cache.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <regex>

namespace perfbench {

using namespace paralift;

namespace {

/// Copies of every Rodinia source per batch: 160 modules, so one edited
/// CUDA module per program is a tenth of the batch.
constexpr int kCopies = 5;

struct Module {
  const Program *prog = nullptr;
  Side side = Side::Cuda;
  std::string name, source, entry;
  bool edited = false;
  std::string editedSource, editedEntry;
};

/// Names of the functions a source defines.
std::vector<std::string> definedFunctions(const std::string &src) {
  static const std::regex def(R"(\b(?:void|int|float)\s+([A-Za-z_]\w*)\s*\()");
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(src.begin(), src.end(), def);
       it != std::sregex_iterator(); ++it)
    if (std::find(names.begin(), names.end(), (*it)[1].str()) == names.end())
      names.push_back((*it)[1].str());
  return names;
}

std::vector<std::string> kernels(const std::string &src) {
  static const std::regex def(R"(__global__\s+void\s+([A-Za-z_]\w*))");
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(src.begin(), src.end(), def);
       it != std::sregex_iterator(); ++it)
    names.push_back((*it)[1].str());
  return names;
}

std::string renameWord(const std::string &src, const std::string &from,
                       const std::string &to) {
  return std::regex_replace(src, std::regex("\\b" + from + "\\b"), to);
}

/// The seeded batch: kCopies renamed copies of each source in a seeded
/// order. The edit renames one seeded kernel in one seeded copy of each
/// program's CUDA source: a tenth of the modules, one per program, so the
/// recompiled work is alike from seed to seed.
std::vector<Module> makeBatch(uint64_t seed) {
  std::mt19937_64 rng(mixSeed(seed, 77));
  std::vector<Module> batch;
  for (int c = 0; c < kCopies; ++c) {
    char tag[32];
    std::snprintf(tag, sizeof tag, "_c%d_%04x", c,
                  static_cast<unsigned>(rng() & 0xffff));
    for (const Program &p : programs())
      for (Side side : {Side::Cuda, Side::Omp}) {
        Module m;
        m.prog = &p;
        m.side = side;
        m.source = p.source(side);
        m.entry = "run";
        for (const std::string &f : definedFunctions(m.source))
          m.source = renameWord(m.source, f, f + tag);
        m.entry += tag;
        m.name = p.id() + (side == Side::Cuda ? ".cu" : ".omp") + tag;
        batch.push_back(std::move(m));
      }
  }
  for (const Program &p : programs()) {
    size_t copy = rng() % kCopies;
    Module &m = batch[copy * 2 * programs().size() +
                      2 * static_cast<size_t>(&p - programs().data())];
    std::vector<std::string> ks = kernels(m.source);
    const std::string &k = ks[rng() % ks.size()];
    m.edited = true;
    m.editedSource = renameWord(m.source, k, k + "_edit");
    m.editedEntry = m.entry;
  }
  std::shuffle(batch.begin(), batch.end(), rng);
  return batch;
}

struct Reference {
  Inputs in;
  std::vector<double> want;
};

/// Checks one compiled module: IR verifier, bytecode verifier, and one
/// call on the small input against the reference. Returns the call's
/// outcome (mismatches > 0 on any failure).
CallOutcome checkModule(const Module &m, bool warm, driver::CompileJob &job,
                        runtime::ThreadPool &pool, const Reference &ref) {
  CallOutcome c;
  if (!job.ok() || !ir::verifyOk(job.result().module.get().op)) {
    c.mismatches = 1;
    c.why = "compile or IR verification failed: " + job.diagnostics().str();
    return c;
  }
  Runnable r;
  r.prog = m.prog;
  r.side = m.side;
  r.entry = warm && m.edited ? m.editedEntry : m.entry;
  if (!prepare(r, job.result().module.get(), pool, &c.why)) {
    c.mismatches = 1;
    c.why = "bytecode verification failed: " + c.why;
    return c;
  }
  bindInputs(r, ref.in, ref.want);
  return callOnce(r);
}

} // namespace

Result runCompileBatch(const Options &o) {
  Result res;
  std::vector<Module> batch = makeBatch(o.seed);
  std::vector<Reference> refs;
  for (const Program &p : programs()) {
    Reference r{p.make(o.seed, Size::Small), {}};
    r.want = p.reference(r.in);
    refs.push_back(std::move(r));
  }
  auto refOf = [&](const Module &m) -> const Reference & {
    return refs[static_cast<size_t>(m.prog - programs().data())];
  };
  // What each edited module must print: a cold compile of its edited
  // source in a fresh session without a cache.
  std::map<std::string, std::string> editedPrints;
  {
    driver::CompilerSession fresh(sessionOptions(o.threads));
    for (const Module &m : batch)
      if (m.edited)
        fresh.addSource(m.name, m.editedSource);
    fresh.compileAll();
    for (size_t k = 0; k < fresh.jobCount(); ++k)
      if (fresh.job(k).ok())
        editedPrints[fresh.job(k).name()] =
            ir::printOp(fresh.job(k).result().module.get().op);
  }

  // Set-up: a pass cache and a session, warmed by one cold compile of the
  // 32 plain sources.
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    double t0 = now();
    transforms::PassResultCache cache;
    driver::SessionOptions so = sessionOptions(o.threads);
    so.cache = &cache;
    driver::CompilerSession session(so);
    for (const Source &src : rodiniaSources())
      session.addSource(src.name, src.text);
    session.compileAll();
    setups.push_back(now() - t0);
  }

  std::vector<double> cold, warm;
  std::map<std::string, double> layers;
  double ops = 0;
  const size_t n = batch.size();
  double start = now();
  for (int round = 0; round == 0 || now() - start < o.seconds; ++round) {
    transforms::PassResultCache cache;
    driver::SessionOptions so = sessionOptions(o.threads);
    so.cache = &cache;
    driver::CompilerSession session(so);
    for (const Module &m : batch)
      session.addSource(m.name, m.source);
    SessionCounters before, after;
    before.snapshot();
    {
      Span span("driver.compileAll.cold");
      double t0 = now();
      session.compileAll();
      cold.push_back(now() - t0);
    }
    after.snapshot();
    for (const Module &m : batch)
      session.addSource(m.name + ".warm", m.edited ? m.editedSource : m.source);
    {
      Span span("driver.compileAll.warm");
      double t0 = now();
      session.compileAll();
      warm.push_back(now() - t0);
    }
    if (round == 0 && o.trace) {
      transforms::PassResultCache::StatsSnapshot st = cache.stats();
      layers["cache.hits"] = static_cast<double>(st.hits);
      layers["cache.misses"] = static_cast<double>(st.misses);
      layers["cache.stores"] = static_cast<double>(st.stores);
      layers["cache.waits"] = static_cast<double>(st.waits);
      after.deltaInto(before, layers);
      std::vector<double> lat;
      for (size_t k = 0; k < n; ++k)
        lat.push_back(session.job(k).latencySeconds());
      layers["session.job_p50_s"] = quantile(lat, 0.5);
      layers["session.job_p95_s"] = quantile(lat, 0.95);
      for (size_t k = 0; k < n; ++k)
        if (session.job(k).ok())
          ops += static_cast<double>(
              countOps(session.job(k).result().module.get().op));
    }

    // Correctness, outside the timed windows.
    std::unique_ptr<runtime::ThreadPool> own;
    runtime::ThreadPool &pool = execPool(session, own);
    for (size_t k = 0; k < 2 * n; ++k) {
      const Module &m = batch[k % n];
      bool isWarm = k >= n;
      driver::CompileJob &job = session.job(k);
      CallOutcome c = checkModule(m, isWarm, job, pool, refOf(m));
      account(res, *m.prog, m.side, c, round == 0);
      if (!isWarm || !job.ok())
        continue;
      // A warm module must print exactly as a cold compile of its source.
      std::string got = ir::printOp(job.result().module.get().op);
      std::string expect;
      if (m.edited) {
        expect = editedPrints[m.name];
      } else if (session.job(k - n).ok()) {
        expect = ir::printOp(session.job(k - n).result().module.get().op);
      }
      if (got != expect) {
        std::fprintf(stderr, "ERROR: warm recompile of %s prints differently "
                     "from a cold compile\n", m.name.c_str());
        res.correct = false;
        if (c.mismatches == 0)
          ++res.failed;
      }
    }
  }

  std::fprintf(stderr,
               "compile-batch: %zu modules (%d copies of 32 sources, %zu "
               "edited), %zu rounds at %u threads\n",
               n, kCopies, programs().size(), cold.size(), o.threads);
  std::fprintf(stderr, "compile_s %.6f s (cold), recompile_s %.6f s (warm), "
               "warm/cold %.3f; medians %.6f s, %.6f s\n", best(cold),
               best(warm), best(warm) / best(cold), median(cold),
               median(warm));

  if (!o.trace) {
    res.add("setup_s", best(setups), "s");
    res.add("primary_s", best(cold), "s");
    res.add("paired_s", best(warm), "s");
    res.add("peak_rss_mb", peakRssMb(), "MB");
    return res;
  }
  const Tracer &t = Tracer::instance();
  double rounds = static_cast<double>(cold.size());
  layers["vm.compile_s"] = t.total("vm.compileModule") / rounds;
  layers["vm.verify_s"] = t.total("vm.verifyModule") / rounds;
  layers["ir.ops_out"] = ops;
  std::vector<Source> coldSources;
  for (const Module &m : batch)
    coldSources.push_back({m.name, m.source});
  probeCompileLayers(coldSources, layers);
  probeMissingLayers(o.seed, o.threads, layers);
  addPerLayer(res, layers);
  return res;
}

} // namespace perfbench
