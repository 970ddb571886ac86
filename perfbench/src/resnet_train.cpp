// Workload resnet-train: the paper's Fig. 15 traffic. MiniResNet training
// steps on the MocCUDA+Polygeist backend, whose elementwise and loss
// kernels are transpiled CUDA run on the VM, alternate with the same step
// on the hand-written MocCUDA+Expert backend, each on its own fixed,
// seeded batch. The checks: every loss finite, the first step's loss the
// same on both backends, the Polygeist loss falling over the run, and the
// three VM kernels equal to plain C++ on the step's shapes.
#include "common.h"

#include "moccuda/resnet.h"

#include <cmath>
#include <cstdio>
#include <random>

namespace perfbench {

using namespace paralift;
using moccuda::Tensor;

namespace {

constexpr int kBatch = 8, kChannels = 16, kDim = 32, kClasses = 10;

Tensor seeded(std::mt19937_64 &rng, int n, int c, int h, int w) {
  Tensor t(n, c, h, w);
  std::uniform_real_distribution<float> d(-1, 1);
  for (auto &v : t.data)
    v = d(rng);
  return t;
}

bool close(double got, double want, double rel) {
  return std::isfinite(got) && std::fabs(got - want) <= rel * (1 + std::fabs(want));
}

/// Counts one check as an operation; a failed check makes the run wrong.
void check(Result &res, bool ok, const char *what) {
  ++res.attempted;
  if (ok)
    return;
  ++res.failed;
  res.correct = false;
  std::fprintf(stderr, "ERROR: resnet-train check failed: %s\n", what);
}

} // namespace

/// The three VM kernels against plain C++: ReLU and add on tensors of the
/// step's activation shape, the NLL loss and its gradient on the model's
/// own logits. `corrupt` (0 relu, 1 add, 2 nll) damages one element of
/// that kernel's output before the comparison, for the self-check.
void checkKernels(Result &res, moccuda::MiniResNet &model, const Tensor &images,
                  const std::vector<int32_t> &labels, uint64_t seed,
                  unsigned threads, int corrupt) {
  moccuda::PolygeistKernels k(threads);
  std::mt19937_64 rng(mixSeed(seed, 9));
  Tensor a = seeded(rng, kBatch, kChannels, kDim, kDim);
  Tensor b = seeded(rng, kBatch, kChannels, kDim, kDim);
  int n = static_cast<int>(a.size());

  Tensor relu = a;
  k.relu(relu.data.data(), n);
  if (corrupt == 0)
    relu.data[n / 3] += 0.5f;
  bool ok = true;
  for (size_t i = 0; i < a.size(); ++i)
    ok &= relu.data[i] == std::max(a.data[i], 0.0f);
  check(res, ok, "relu kernel differs from max(x, 0)");

  Tensor sum = a;
  k.add(sum.data.data(), b.data.data(), n);
  if (corrupt == 1)
    sum.data[n / 5] += 0.5f;
  ok = true;
  for (size_t i = 0; i < a.size(); ++i)
    ok &= close(sum.data[i], double(a.data[i]) + b.data[i], 1e-6);
  check(res, ok, "add kernel differs from a + b");

  Tensor logits = model.forward(images);
  std::vector<float> grad(logits.size());
  double loss = k.nllLoss(logits.data.data(), labels.data(), grad.data(),
                          kBatch, kClasses);
  if (corrupt == 2)
    grad[kClasses + 1] += 0.01f;
  double want = 0;
  ok = true;
  for (int s = 0; s < kBatch; ++s) {
    const float *z = &logits.data[static_cast<size_t>(s) * kClasses];
    double m = *std::max_element(z, z + kClasses), denom = 0;
    for (int c = 0; c < kClasses; ++c)
      denom += std::exp(z[c] - m);
    double lse = m + std::log(denom);
    want += (lse - z[labels[s]]) / kBatch;
    for (int c = 0; c < kClasses; ++c) {
      double g = (std::exp(z[c] - lse) - (c == labels[s])) / kBatch;
      ok &= close(grad[static_cast<size_t>(s) * kClasses + c], g, 1e-4);
    }
  }
  check(res, ok && close(loss, want, 1e-4),
        "nll kernel loss or gradient differs from log-softmax");
}

Result runResnetTrain(const Options &o) {
  Result res;
  runtime::ThreadPool pool(o.threads);
  std::mt19937_64 rng(mixSeed(o.seed, 3));
  Tensor images = seeded(rng, kBatch, 3, kDim, kDim);
  std::vector<int32_t> labels(kBatch);
  for (auto &l : labels)
    l = static_cast<int32_t>(rng() % kClasses);

  // Set-up: both models built and taken through one step (the first
  // Polygeist model also transpiles the kernel module).
  std::unique_ptr<moccuda::MiniResNet> poly, expert;
  float firstPoly = 0, firstExpert = 0;
  std::vector<double> setups;
  for (int s = 0; s < kSetups; ++s) {
    double t0 = now();
    poly = std::make_unique<moccuda::MiniResNet>(
        moccuda::Backend::MocCudaPolygeist, pool, kChannels, kClasses);
    expert = std::make_unique<moccuda::MiniResNet>(
        moccuda::Backend::MocCudaExpert, pool, kChannels, kClasses);
    firstPoly = poly->trainStep(images, labels);
    firstExpert = expert->trainStep(images, labels);
    setups.push_back(now() - t0);
  }
  check(res, close(firstPoly, firstExpert, 1e-4),
        "first-step loss differs between Polygeist and Expert backends");

  // Closed loop of whole rounds: one Polygeist step, then one Expert step.
  std::vector<double> polyTimes, expertTimes, losses;
  double start = now();
  for (int round = 0; round == 0 || now() - start < o.seconds; ++round) {
    float loss;
    {
      Span span("moccuda.trainStep");
      double t0 = now();
      loss = poly->trainStep(images, labels);
      polyTimes.push_back(now() - t0);
    }
    losses.push_back(loss);
    check(res, std::isfinite(loss), "Polygeist loss is not finite");
    double t0 = now();
    float lossExpert = expert->trainStep(images, labels);
    expertTimes.push_back(now() - t0);
    check(res, std::isfinite(lossExpert), "Expert loss is not finite");
  }
  size_t q = std::max<size_t>(1, losses.size() / 4);
  double head = 0, tail = 0;
  for (size_t k = 0; k < q; ++k) {
    head += losses[k];
    tail += losses[losses.size() - 1 - k];
  }
  check(res, losses.size() >= 2 && tail < head,
        "Polygeist loss did not fall over the run");
  checkKernels(res, *poly, images, labels, o.seed, o.threads, -1);

  double step = best(polyTimes), stepExpert = best(expertTimes);
  std::fprintf(stderr,
               "resnet-train: %zu rounds, batch %d at %u threads; loss %.4f "
               "-> %.4f\ntrain_imgs_per_s %.2f img/s (Polygeist), %.2f img/s "
               "(Expert); Polygeist/Expert %.3fx (paper, Fig. 15: comparable); "
               "median steps %.6f s, %.6f s\n",
               polyTimes.size(), kBatch, o.threads, losses.front(),
               losses.back(), kBatch / step, kBatch / stepExpert,
               stepExpert / step, median(polyTimes), median(expertTimes));
  if (!o.trace) {
    res.add("setup_s", best(setups), "s");
    res.add("primary_s", step, "s");
    res.add("paired_s", stepExpert, "s");
    res.add("peak_rss_mb", peakRssMb(), "MB");
    return res;
  }
  std::map<std::string, double> layers;
  probeMoccudaLayers(kBatch, 10, o.threads, layers);
  layers["moccuda.step_s"] = step;
  probeMissingLayers(o.seed, o.threads, layers);
  addPerLayer(res, layers);
  return res;
}

} // namespace perfbench
