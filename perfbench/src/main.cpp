// perfbench: the end-to-end benchmark of ParaLift. One process runs one
// workload for a fixed time and prints its metrics as the last line of
// stdout (see README.md):
//
//   perfbench --workload rodinia-exec --seed 1 --seconds 10 --trace 0
//   perfbench --self-check
//   perfbench --figures
#include "common.h"

#include <cstdio>
#include <random>

using namespace perfbench;
using namespace paralift;

namespace {

/// One corrupted declared-output element per program side must be caught,
/// and every side without a named fault must pass before the corruption.
bool selfCheckPrograms(unsigned threads, uint64_t seed) {
  driver::CompilerSession session(sessionOptions(threads));
  for (const Source &s : rodiniaSources())
    session.addSource(s.name, s.text);
  session.compileAll();
  std::unique_ptr<runtime::ThreadPool> own;
  runtime::ThreadPool &pool = execPool(session, own);
  bool ok = true;
  size_t j = 0;
  for (const Program &p : programs()) {
    Inputs in = p.make(seed, Size::Small);
    std::vector<double> want = p.reference(in);
    for (Side side : {Side::Cuda, Side::Omp}) {
      driver::CompileJob &job = session.job(j++);
      Runnable r;
      r.prog = &p;
      r.side = side;
      std::string err;
      if (!job.ok() || !prepare(r, job.result().module.get(), pool, &err)) {
        std::printf("FAIL %s: does not compile\n", job.name().c_str());
        ok = false;
        continue;
      }
      bindInputs(r, in, want);
      CallOutcome clean = callOnce(r);
      std::vector<double> got = p.outputs(r.work, side);
      size_t k = std::mt19937_64(mixSeed(seed, j))() % got.size();
      got[k] += 1 + 10 * std::fabs(got[k]);
      size_t caught = countMismatches(p, got, want, nullptr);
      bool expectClean = !p.fault(side);
      bool pass = (clean.mismatches == 0) == expectClean && caught >= 1 &&
                  (!expectClean || caught == 1);
      std::printf("%s %-24s %-4s clean: %zu of %zu differ%s; corrupted "
                  "element %zu caught: %s\n",
                  pass ? "ok  " : "FAIL", p.id().c_str(),
                  side == Side::Cuda ? "cuda" : "omp", clean.mismatches,
                  want.size(), expectClean ? "" : " (named fault)", k,
                  caught ? "yes" : "no");
      ok &= pass;
    }
  }
  return ok;
}

bool selfCheckKernels(unsigned threads, uint64_t seed) {
  runtime::ThreadPool pool(threads);
  std::mt19937_64 rng(seed);
  moccuda::Tensor images(8, 3, 32, 32);
  std::uniform_real_distribution<float> d(-1, 1);
  for (auto &v : images.data)
    v = d(rng);
  std::vector<int32_t> labels = {0, 1, 2, 3, 4, 5, 6, 7};
  moccuda::MiniResNet model(moccuda::Backend::MocCudaPolygeist, pool, 16);
  model.trainStep(images, labels);
  bool ok = true;
  const char *names[] = {"relu", "add", "nll"};
  for (int corrupt = -1; corrupt < 3; ++corrupt) {
    Result r;
    checkKernels(r, model, images, labels, seed, threads, corrupt);
    bool pass = corrupt < 0 ? r.failed == 0 : r.failed == 1;
    std::printf("%s vm kernels, %s: %llu of %llu checks failed\n",
                pass ? "ok  " : "FAIL",
                corrupt < 0 ? "clean" : names[corrupt],
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    ok &= pass;
  }
  return ok;
}

} // namespace

int perfbench::runSelfCheck(const Options &o) {
  bool ok = selfCheckPrograms(o.threads, o.seed);
  ok &= selfCheckKernels(o.threads, o.seed);
  // The two other workloads end to end at small size and short length.
  Options quick = o;
  quick.seconds = 0.2;
  Result cb = runCompileBatch(quick);
  std::printf("%s compile-batch: correct=%d, %llu of %llu failed (named "
              "faults)\n", cb.correct ? "ok  " : "FAIL", cb.correct,
              static_cast<unsigned long long>(cb.failed),
              static_cast<unsigned long long>(cb.attempted));
  Result rt = runResnetTrain(quick);
  std::printf("%s resnet-train: correct=%d, %llu of %llu failed\n",
              rt.correct ? "ok  " : "FAIL", rt.correct,
              static_cast<unsigned long long>(rt.failed),
              static_cast<unsigned long long>(rt.attempted));
  ok &= cb.correct && rt.correct;
  std::printf("self-check: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int main(int argc, char **argv) {
  Options o = parseOptions(argc, argv);
  if (o.selfCheck)
    return runSelfCheck(o);
  if (o.figures)
    return runFigures(o);
  if (o.trace)
    Tracer::instance().enable();
  Result r;
  if (o.workload == "rodinia-exec")
    r = runRodiniaExec(o);
  else if (o.workload == "compile-batch")
    r = runCompileBatch(o);
  else if (o.workload == "resnet-train")
    r = runResnetTrain(o);
  else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 o.workload.c_str());
    return 2;
  }
  std::fflush(stderr);
  std::printf("%s\n", r.json().c_str());
  return 0;
}
