#include "common.h"

#include "frontend/irgen.h"
#include "ir/hasher.h"
#include "moccuda/resnet.h"
#include "support/metrics.h"
#include "transforms/passes.h"
#include "transforms/registry.h"
#include "vm/compile.h"

#include <cmath>
#include <cstdio>
#include <random>

namespace perfbench {

using namespace paralift;

std::vector<Source> rodiniaSources() {
  std::vector<Source> out;
  for (const Program &p : programs()) {
    out.push_back({p.id() + ".cu", p.source(Side::Cuda)});
    out.push_back({p.id() + ".omp", p.source(Side::Omp)});
  }
  return out;
}

runtime::ThreadPool &execPool(driver::CompilerSession &session,
                              std::unique_ptr<runtime::ThreadPool> &own) {
  if (session.pool())
    return *session.pool();
  own = std::make_unique<runtime::ThreadPool>(1);
  return *own;
}

bool prepare(Runnable &r, ir::ModuleOp module, runtime::ThreadPool &pool,
             std::string *err) {
  r.irOps = countOps(module.op);
  r.bc = std::make_unique<vm::BCModule>();
  {
    Span s("vm.compileModule");
    *r.bc = vm::compileModule(module);
  }
  vm::VerifyResult vr;
  {
    Span s("vm.verifyModule");
    r.token = vm::VerifiedModule::create(*r.bc, &vr);
  }
  if (!r.token) {
    if (err)
      *err = vr.str();
    return false;
  }
  vm::ExecOptions eo;
  // Bounds checks stay on: the module under test is not trusted.
  eo.boundsCheck = true;
  r.interp = std::make_unique<vm::Interp>(*r.token, pool, eo);
  return true;
}

void bindInputs(Runnable &r, const Inputs &in,
                const std::vector<double> &want) {
  r.pristine = in;
  r.work = in;
  r.want = want;
  r.slots = r.work.slots(*r.interp);
}

CallOutcome callOnce(Runnable &r) {
  CallOutcome c;
  r.work.restore(r.pristine);
  vm::CallResult res;
  {
    Span s("exec." + r.prog->id() +
           (r.side == Side::Cuda ? ".cuda" : ".omp"));
    double t0 = now();
    res = r.interp->tryCall(r.entry, r.slots);
    c.seconds = now() - t0;
  }
  if (!res.ok()) {
    c.mismatches = r.want.size() + 1;
    c.why = "call failed: " + res.error;
    return c;
  }
  c.mismatches =
      countMismatches(*r.prog, r.prog->outputs(r.work, r.side), r.want, &c.why);
  return c;
}

void account(Result &res, const Program &p, Side s, const CallOutcome &c,
             bool verbose) {
  ++res.attempted;
  const char *fault = p.fault(s);
  const char *side = s == Side::Cuda ? "cuda" : "omp";
  if (c.mismatches == 0) {
    if (fault && verbose)
      std::fprintf(stderr, "note: %s (%s) now matches the reference; its "
                   "named fault may be mended\n", p.id().c_str(), side);
    return;
  }
  ++res.failed;
  if (verbose)
    std::fprintf(stderr, "%s: %s (%s): %zu outputs differ from the "
                 "reference (%s)%s%s\n", fault ? "known fault" : "ERROR",
                 p.id().c_str(), side, c.mismatches, c.why.c_str(),
                 fault ? ": " : "", fault ? fault : "");
  if (!fault)
    res.correct = false;
}

size_t countOps(ir::Op *root) {
  size_t n = 0;
  root->walk([&](ir::Op *) { ++n; });
  return n;
}

size_t countInsts(const vm::BCModule &bc) {
  size_t n = 0;
  for (const auto &fn : bc.fns)
    n += fn.instrs.size();
  return n;
}

driver::SessionOptions sessionOptions(unsigned threads) {
  driver::SessionOptions so;
  so.threads = threads;
  so.useEnvCache = false;
  return so;
}

void probeCompileLayers(const std::vector<Source> &batch,
                        std::map<std::string, double> &out) {
  DiagnosticEngine diag;
  std::vector<ir::OwnedModule> mods;
  double parse = 0, hash = 0;
  for (const Source &s : batch) {
    Span span("frontend.compileToIR");
    double t0 = now();
    mods.push_back(frontend::compileToIR(s.text, diag));
    parse += now() - t0;
  }
  for (auto &m : mods)
    for (ir::Op *fn : m.get().body()) {
      Span span("ir.hashOp");
      double t0 = now();
      ir::Hash128 h = ir::hashOp(fn);
      hash += now() - t0;
      (void)h;
    }
  out["frontend.parse_s"] = parse;
  out["ir.hash_s"] = hash;

  // The default pipeline, flattened: a repeat stage contributes its
  // children once per round.
  transforms::PassManager full;
  transforms::buildPipeline(full, transforms::PipelineOptions{});
  auto specs = transforms::parsePipelineSpec(full.pipelineSpec(), diag);
  std::vector<transforms::PassSpec> flat;
  for (const auto &ps : specs ? *specs : std::vector<transforms::PassSpec>{}) {
    if (ps.name != "repeat") {
      flat.push_back(ps);
      continue;
    }
    int rounds = 2;
    for (const auto &[k, v] : ps.options)
      if (k == "n")
        rounds = std::stoi(v);
    for (int r = 0; r < rounds; ++r)
      flat.insert(flat.end(), ps.nested.begin(), ps.nested.end());
  }
  for (const auto &ps : flat)
    out["pass." + ps.name + "_s"] = 0;
  for (auto &m : mods)
    for (const auto &ps : flat) {
      transforms::PassManager pm;
      pm.addPass(transforms::instantiatePassSpec(ps, diag));
      Span span("pass." + ps.name);
      double t0 = now();
      pm.run(m.get(), diag);
      out["pass." + ps.name + "_s"] += now() - t0;
    }
}

void SessionCounters::snapshot() {
  auto &m = metrics::MetricsRegistry::instance();
  tasks = m.counterValue("scheduler.tasks");
  steals = m.counterValue("scheduler.steals");
  parks = m.counterValue("scheduler.parks");
}

void SessionCounters::deltaInto(const SessionCounters &before,
                                std::map<std::string, double> &out) const {
  out["scheduler.tasks"] = static_cast<double>(tasks - before.tasks);
  out["scheduler.steals"] = static_cast<double>(steals - before.steals);
  out["scheduler.parks"] = static_cast<double>(parks - before.parks);
}

void jobLatencies(driver::CompilerSession &session, size_t first,
                  std::map<std::string, double> &out) {
  std::vector<double> lat;
  for (size_t k = first; k < session.jobCount(); ++k)
    lat.push_back(session.job(k).latencySeconds());
  out["session.job_p50_s"] = quantile(lat, 0.5);
  out["session.job_p95_s"] = quantile(lat, 0.95);
}

void probeExecLayers(uint64_t seed, Size size, unsigned threads,
                     std::map<std::string, double> &out) {
  std::vector<Source> sources = rodiniaSources();
  driver::CompilerSession session(sessionOptions(threads));
  for (const Source &s : sources)
    session.addSource(s.name, s.text);
  session.compileAll();
  std::unique_ptr<runtime::ThreadPool> own;
  runtime::ThreadPool &pool = execPool(session, own);
  double ops = 0, insts = 0, vmCompile = 0, vmVerify = 0;
  size_t j = 0;
  for (const Program &p : programs()) {
    Inputs in = p.make(seed, size);
    std::vector<double> want = p.reference(in);
    for (Side side : {Side::Cuda, Side::Omp}) {
      driver::CompileJob &job = session.job(j++);
      Runnable r;
      r.prog = &p;
      r.side = side;
      if (!job.ok())
        continue;
      std::string err;
      if (!prepare(r, job.result().module.get(), pool, &err))
        continue;
      bindInputs(r, in, want);
      ops += static_cast<double>(r.irOps);
      insts += static_cast<double>(countInsts(*r.bc));
      const char *k = side == Side::Cuda ? "cuda" : "omp";
      for (unsigned t : {threads, 1u}) {
        pool.setNumThreads(t);
        std::vector<double> xs;
        for (int rep = 0; rep < 3; ++rep)
          xs.push_back(callOnce(r).seconds);
        out["exec." + p.id() + "." + k + (t == 1 ? "_1t_s" : "_s")] =
            median(xs);
      }
      pool.setNumThreads(threads);
      double c0 = now();
      vm::BCModule bc = vm::compileModule(job.result().module.get());
      double c1 = now();
      vm::verifyModule(bc);
      vmCompile += c1 - c0;
      vmVerify += now() - c1;
    }
  }
  // The workload's own figures, where it has them, take precedence.
  out.emplace("ir.ops_out", ops);
  out.emplace("vm.bytecode_insts", insts);
  out.emplace("vm.compile_s", vmCompile);
  out.emplace("vm.verify_s", vmVerify);
}

namespace {

moccuda::Tensor randomTensor(std::mt19937_64 &rng, int n, int c, int h, int w,
                             float lo, float hi) {
  moccuda::Tensor t(n, c, h, w);
  std::uniform_real_distribution<float> d(lo, hi);
  for (auto &v : t.data)
    v = d(rng);
  return t;
}

} // namespace

void probeMoccudaLayers(int batch, int steps, unsigned threads,
                        std::map<std::string, double> &out) {
  constexpr int kChannels = 16, kDim = 32, kClasses = 10;
  runtime::ThreadPool pool(threads);
  std::mt19937_64 rng(mixSeed(batch, 15));
  moccuda::Tensor images = randomTensor(rng, batch, 3, kDim, kDim, -1, 1);
  std::vector<int32_t> labels(batch);
  for (int k = 0; k < batch; ++k)
    labels[k] = k % kClasses;
  moccuda::MiniResNet model(moccuda::Backend::MocCudaPolygeist, pool,
                            kChannels);
  model.trainStep(images, labels);
  std::vector<double> step;
  for (int s = 0; s < steps; ++s) {
    Span span("moccuda.trainStep");
    double t0 = now();
    model.trainStep(images, labels);
    step.push_back(now() - t0);
  }
  out["moccuda.step_s"] = median(step);

  // The step's VM kernels at its shapes: three ReLUs and one residual add
  // over an activation, and the loss over the logits.
  moccuda::PolygeistKernels k(threads);
  moccuda::Tensor act = randomTensor(rng, batch, kChannels, kDim, kDim, -1, 1);
  moccuda::Tensor other = act;
  moccuda::Tensor logits = randomTensor(rng, batch, kClasses, 1, 1, -2, 2);
  std::vector<float> dLogits(logits.size());
  int n = static_cast<int>(act.size());
  std::vector<double> vmk;
  for (int s = 0; s < steps; ++s) {
    moccuda::Tensor a = act;
    Span span("moccuda.vmKernels");
    double t0 = now();
    for (int r = 0; r < 3; ++r)
      k.relu(a.data.data(), n);
    k.add(a.data.data(), other.data.data(), n);
    k.nllLoss(logits.data.data(), labels.data(), dLogits.data(), batch,
              kClasses);
    vmk.push_back(now() - t0);
  }
  out["moccuda.vm_kernels_s"] = median(vmk);

  // The step's convolutions: three forward and three backward.
  moccuda::ConvParams cp;
  moccuda::Tensor w1 = randomTensor(rng, kChannels, 3, 3, 3, -0.1f, 0.1f);
  moccuda::Tensor w2 = randomTensor(rng, kChannels, kChannels, 3, 3, -0.1f, 0.1f);
  std::vector<double> conv;
  for (int s = 0; s < steps; ++s) {
    moccuda::Tensor y, dx, dw;
    Span span("moccuda.conv");
    double t0 = now();
    moccuda::convIm2colForward(pool, images, w1, y, cp);
    moccuda::convIm2colForward(pool, act, w2, y, cp);
    moccuda::convIm2colForward(pool, act, w2, y, cp);
    moccuda::convIm2colBackward(pool, images, w1, act, dx, dw, cp);
    moccuda::convIm2colBackward(pool, act, w2, act, dx, dw, cp);
    moccuda::convIm2colBackward(pool, act, w2, act, dx, dw, cp);
    conv.push_back(now() - t0);
  }
  out["moccuda.conv_s"] = median(conv);
}

void probeMissingLayers(uint64_t seed, unsigned threads,
                        std::map<std::string, double> &out) {
  if (!out.count("frontend.parse_s"))
    probeCompileLayers(rodiniaSources(), out);
  if (!out.count("runtime.fork_join_us"))
    probeRuntime(threads, out);
  if (!out.count("exec." + programs().front().id() + ".cuda_s"))
    probeExecLayers(seed, Size::Small, threads, out);
  if (!out.count("moccuda.step_s"))
    probeMoccudaLayers(2, 5, threads, out);
  if (!out.count("session.job_p50_s")) {
    driver::CompilerSession session(sessionOptions(threads));
    for (const Source &s : rodiniaSources())
      session.addSource(s.name, s.text);
    SessionCounters before, after;
    before.snapshot();
    session.compileAll();
    after.snapshot();
    after.deltaInto(before, out);
    jobLatencies(session, 0, out);
  }
}

} // namespace perfbench
