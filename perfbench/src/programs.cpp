#include "programs.h"

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <set>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

std::vector<float> &Inputs::addF(std::vector<float> v) {
  f.push_back(std::move(v));
  args_.push_back({Arg::F32, f.size() - 1});
  return f.back();
}

std::vector<int32_t> &Inputs::addI(std::vector<int32_t> v) {
  i.push_back(std::move(v));
  args_.push_back({Arg::I32, i.size() - 1});
  return i.back();
}

void Inputs::addInt(int64_t v) { args_.push_back({Arg::Int, 0, v}); }

void Inputs::restore(const Inputs &src) {
  for (size_t k = 0; k < f.size(); ++k)
    std::copy(src.f[k].begin(), src.f[k].end(), f[k].begin());
  for (size_t k = 0; k < i.size(); ++k)
    std::copy(src.i[k].begin(), src.i[k].end(), i[k].begin());
}

std::vector<paralift::vm::Slot> Inputs::slots(paralift::vm::Interp &interp) {
  using paralift::ir::TypeKind;
  std::vector<paralift::vm::Slot> out;
  for (const Arg &a : args_) {
    paralift::vm::Slot s;
    switch (a.kind) {
    case Arg::F32:
      s = interp.makeMemRef(TypeKind::F32, f[a.idx].data(),
                            {static_cast<int64_t>(f[a.idx].size())});
      break;
    case Arg::I32:
      s = interp.makeMemRef(TypeKind::I32, i[a.idx].data(),
                            {static_cast<int64_t>(i[a.idx].size())});
      break;
    case Arg::Int:
      s.i = a.iv;
      break;
    }
    out.push_back(s);
  }
  return out;
}

int64_t Inputs::intArg(size_t k) const {
  for (const Arg &a : args_)
    if (a.kind == Arg::Int && k-- == 0)
      return a.iv;
  return 0;
}

size_t countMismatches(const Program &p, const std::vector<double> &got,
                       const std::vector<double> &want, std::string *why) {
  if (got.size() != want.size()) {
    if (why)
      *why = "output has " + std::to_string(got.size()) +
             " elements, reference " + std::to_string(want.size());
    return std::max(got.size(), want.size());
  }
  size_t bad = 0;
  for (size_t k = 0; k < got.size(); ++k) {
    double tol = p.absTol + p.relTol * std::fabs(want[k]);
    if (std::isfinite(got[k]) && std::fabs(got[k] - want[k]) <= tol)
      continue;
    if (bad++ == 0 && why) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "element %zu: got %.9g, want %.9g", k,
                    got[k], want[k]);
      *why = buf;
    }
  }
  return bad;
}

//===----------------------------------------------------------------------===//
// Generators and references
//===----------------------------------------------------------------------===//

namespace {

using Rng = std::mt19937_64;

std::vector<float> uniformF(Rng &rng, size_t n, float lo, float hi) {
  std::uniform_real_distribution<float> d(lo, hi);
  std::vector<float> v(n);
  for (auto &x : v)
    x = d(rng);
  return v;
}

std::vector<int32_t> uniformI(Rng &rng, size_t n, int lo, int hi) {
  std::uniform_int_distribution<int> d(lo, hi);
  std::vector<int32_t> v(n);
  for (auto &x : v)
    x = d(rng);
  return v;
}

template <typename T> std::vector<double> widen(const std::vector<T> &v) {
  return std::vector<double>(v.begin(), v.end());
}

template <typename T>
void append(std::vector<double> &out, const std::vector<T> &v, size_t from = 0,
            size_t to = SIZE_MAX) {
  to = std::min(to, v.size());
  for (size_t k = from; k < to; ++k)
    out.push_back(static_cast<double>(v[k]));
}

/// Seed used by programs with a named fault: their inputs must not depend
/// on the workload seed, so the fault fails every run the same way.
constexpr uint64_t kFixedSeed = 20230225;

Rng rngFor(uint64_t seed, const char *id) {
  uint64_t salt = 0;
  for (const char *c = id; *c; ++c)
    salt = salt * 131 + static_cast<unsigned char>(*c);
  return Rng(mixSeed(seed, salt));
}

// --- b+tree ------------------------------------------------------------------
// A B+tree of order 16 stored as flattened node arrays: 17 sorted, distinct
// keys per node and 16 child indices. A query descends `height` levels,
// at each level following the child whose key interval holds the key.

constexpr int kOrder = 16;

struct Tree {
  std::vector<int32_t> keys, children;
  int nodes = 0, height = 4;
};

Tree makeTree(Rng &rng, int nodes) {
  Tree t;
  t.nodes = nodes;
  std::uniform_int_distribution<int> key(0, 1000), child(0, nodes - 1);
  for (int n = 0; n < nodes; ++n) {
    std::set<int32_t> ks;
    while (ks.size() < kOrder + 1)
      ks.insert(key(rng));
    t.keys.insert(t.keys.end(), ks.begin(), ks.end());
    for (int c = 0; c < kOrder; ++c)
      t.children.push_back(child(rng));
  }
  return t;
}

/// The node a descent for `key` ends at.
int32_t descend(const std::vector<int32_t> &keys,
                const std::vector<int32_t> &children, int nodes, int height,
                int32_t key) {
  int32_t node = 0;
  for (int level = 0; level < height; ++level) {
    const int32_t *k = &keys[static_cast<size_t>(node) * (kOrder + 1)];
    for (int s = 0; s < kOrder; ++s)
      if (k[s] <= key && key < k[s + 1]) {
        int32_t c = children[static_cast<size_t>(node) * kOrder + s];
        if (c < nodes)
          node = c;
        break;
      }
  }
  return node;
}

/// Slot of `key` in a leaf, or -1.
int slotOf(const std::vector<int32_t> &keys, int32_t node, int32_t key) {
  for (int s = 0; s < kOrder; ++s)
    if (keys[static_cast<size_t>(node) * (kOrder + 1) + s] == key)
      return s;
  return -1;
}

Program findK() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "btree_findk");
    int count = size == Size::Full ? 24 * 120 : 24;
    Tree t = makeTree(rng, 64);
    Inputs in;
    in.addI(t.keys);
    in.addI(t.children);
    in.addI(uniformI(rng, 1024, 0, 1000)); // records
    in.addI(std::vector<int32_t>(count, 0));
    in.addI(std::vector<int32_t>(count, 0));
    // Half the queries are keys stored in the tree, so leaves hit.
    std::vector<int32_t> q = uniformI(rng, count, 0, 1000);
    std::uniform_int_distribution<size_t> pick(0, t.keys.size() - 1);
    for (size_t k = 0; k < q.size(); k += 2)
      q[k] = t.keys[pick(rng)];
    in.addI(q);
    in.addI(std::vector<int32_t>(count, -1));
    in.addInt(t.height);
    in.addInt(t.nodes);
    in.addInt(count);
    return in;
  };
  p.reference = [](const Inputs &in) {
    const auto &keys = in.i[0], &children = in.i[1], &records = in.i[2],
               &q = in.i[5];
    int height = static_cast<int>(in.intArg(0));
    int nodes = static_cast<int>(in.intArg(1));
    std::vector<double> ans;
    for (int32_t key : q) {
      int32_t leaf = descend(keys, children, nodes, height, key);
      int s = slotOf(keys, leaf, key);
      ans.push_back(s < 0 ? -1
                          : records[children[static_cast<size_t>(leaf) *
                                                 kOrder +
                                             s]]);
    }
    return ans;
  };
  p.outputs = [](const Inputs &in, Side) { return widen(in.i[6]); };
  return p;
}

Program findRangeK() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "btree_findrangek");
    int count = size == Size::Full ? 24 * 80 : 24;
    Tree t = makeTree(rng, 64);
    Inputs in;
    in.addI(t.keys);
    in.addI(t.children);
    for (int k = 0; k < 4; ++k)
      in.addI(std::vector<int32_t>(count, 0));
    std::vector<int32_t> start = uniformI(rng, count, 0, 1000), end(count);
    std::uniform_int_distribution<size_t> pick(0, t.keys.size() - 1);
    for (int k = 0; k < count; ++k) {
      if (k % 2 == 0)
        start[k] = t.keys[pick(rng)];
      end[k] = std::min(1000, start[k] + 50);
    }
    in.addI(start);
    in.addI(end);
    in.addI(std::vector<int32_t>(count, 0)); // recstart
    in.addI(std::vector<int32_t>(count, 0)); // reclength
    in.addInt(t.height);
    in.addInt(t.nodes);
    in.addInt(count);
    return in;
  };
  p.reference = [](const Inputs &in) {
    const auto &keys = in.i[0], &children = in.i[1];
    int height = static_cast<int>(in.intArg(0));
    int nodes = static_cast<int>(in.intArg(1));
    size_t count = in.i[6].size();
    std::vector<double> start(count), length(count);
    for (size_t q = 0; q < count; ++q) {
      int32_t a = descend(keys, children, nodes, height, in.i[6][q]);
      int32_t b = descend(keys, children, nodes, height, in.i[7][q]);
      int sa = slotOf(keys, a, in.i[6][q]);
      int sb = slotOf(keys, b, in.i[7][q]);
      int32_t rs = sa < 0 ? 0 : children[static_cast<size_t>(a) * kOrder + sa];
      start[q] = rs;
      length[q] = sb < 0 ? 0
                         : children[static_cast<size_t>(b) * kOrder + sb] -
                               rs + 1;
    }
    start.insert(start.end(), length.begin(), length.end());
    return start;
  };
  p.outputs = [](const Inputs &in, Side) {
    std::vector<double> out = widen(in.i[8]);
    append(out, in.i[9]);
    return out;
  };
  return p;
}

// --- bfs -----------------------------------------------------------------------
// Breadth-first search from node 0 over a random graph in CSR form with
// out-degree 2..5; the output is each node's hop count (-1: unreached).

Program bfs() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "bfs");
    int n = size == Size::Full ? 256 * 48 : 256;
    std::uniform_int_distribution<int> degree(2, 5), node(0, n - 1);
    std::vector<int32_t> starts, nums, edges;
    for (int v = 0; v < n; ++v) {
      starts.push_back(static_cast<int32_t>(edges.size()));
      int d = degree(rng);
      nums.push_back(d);
      for (int e = 0; e < d; ++e)
        edges.push_back(node(rng));
    }
    Inputs in;
    in.addI(starts);
    in.addI(nums);
    in.addI(edges);
    std::vector<int32_t> mask(n, 0), visited(n, 0), cost(n, -1);
    mask[0] = visited[0] = 1;
    cost[0] = 0;
    in.addI(mask);
    in.addI(std::vector<int32_t>(n, 0));
    in.addI(visited);
    in.addI(cost);
    in.addI(std::vector<int32_t>(1, 0));
    in.addInt(n);
    return in;
  };
  p.reference = [](const Inputs &in) {
    const auto &starts = in.i[0], &nums = in.i[1], &edges = in.i[2];
    std::vector<double> dist(starts.size(), -1);
    std::vector<int32_t> frontier = {0};
    dist[0] = 0;
    while (!frontier.empty()) {
      std::vector<int32_t> next;
      for (int32_t v : frontier)
        for (int32_t e = starts[v]; e < starts[v] + nums[v]; ++e)
          if (dist[edges[e]] < 0) {
            dist[edges[e]] = dist[v] + 1;
            next.push_back(edges[e]);
          }
      frontier = std::move(next);
    }
    return dist;
  };
  p.outputs = [](const Inputs &in, Side) { return widen(in.i[6]); };
  return p;
}

// --- backprop ------------------------------------------------------------------
// One hidden layer of a fully connected network: weights w[k][j] with
// k = 0..in (row 0 is the bias unit) and j = 0..hid (column 0 unused).

constexpr int kHid = 16;

Program layerforward() {
  Program p;
  p.make = [](uint64_t, Size size) {
    Rng rng = rngFor(kFixedSeed, "backprop_layerforward");
    int in = 16 * (size == Size::Full ? 64 : 2);
    Inputs x;
    x.addF(uniformF(rng, in + 1, 0, 1));
    x.addF(uniformF(rng, static_cast<size_t>(in + 1) * (kHid + 1), 0, 1));
    x.addF(std::vector<float>(static_cast<size_t>(in / 16) * kHid, 0));
    x.addInt(in);
    x.addInt(kHid);
    x.addInt(4); // repetitions, as makeWorkload at scale > 1
    return x;
  };
  // Each hidden unit's net input: sum over input units of weight * input.
  // Repeating the forward pass recomputes the same sums.
  p.reference = [](const Inputs &x) {
    int in = static_cast<int>(x.intArg(0));
    std::vector<double> h(kHid, 0);
    for (int j = 0; j < kHid; ++j)
      for (int k = 1; k <= in; ++k)
        h[j] += double(x.f[1][static_cast<size_t>(k) * (kHid + 1) + j + 1]) *
                x.f[0][k];
    return h;
  };
  // The CUDA host sums the per-block partial sums (by * hid + j); the
  // OpenMP version writes the full sums to the first hid slots.
  p.outputs = [](const Inputs &x, Side s) {
    std::vector<double> h(kHid, 0);
    int blocks = static_cast<int>(x.intArg(0)) / 16;
    for (int j = 0; j < kHid; ++j) {
      if (s == Side::Omp) {
        h[j] = x.f[2][j];
        continue;
      }
      for (int b = 0; b < blocks; ++b)
        h[j] += x.f[2][static_cast<size_t>(b) * kHid + j];
    }
    return h;
  };
  p.relTol = 1e-4;
  p.absTol = 1e-4;
  p.cudaFault = "the kernel writes its reduced products back into the "
                "weights, so each of the 4 repetitions sums different "
                "weights";
  return p;
}

Program adjustWeights() {
  Program p;
  p.make = [](uint64_t, Size size) {
    Rng rng = rngFor(kFixedSeed, "backprop_adjust_weights");
    int in = 16 * (size == Size::Full ? 160 : 2);
    size_t nw = static_cast<size_t>(in + 1) * (kHid + 1);
    Inputs x;
    x.addF(uniformF(rng, kHid + 1, 0, 1)); // delta
    x.addF(uniformF(rng, in + 1, 0, 1));   // ly, including ly[0]
    x.addF(uniformF(rng, nw, 0, 1));       // w
    x.addF(uniformF(rng, nw, 0, 1));       // oldw
    x.addInt(in);
    x.addInt(kHid);
    x.addInt(4);
    return x;
  };
  // Momentum update of every weight feeding a hidden unit j = 1..hid from
  // unit k = 0..in: dw = eta * delta[j] * ly[k] + momentum * oldw.
  p.reference = [](const Inputs &x) {
    int in = static_cast<int>(x.intArg(0));
    int reps = static_cast<int>(x.intArg(2));
    std::vector<double> w = widen(x.f[2]), old = widen(x.f[3]);
    for (int r = 0; r < reps; ++r)
      for (int k = 0; k <= in; ++k)
        for (int j = 1; j <= kHid; ++j) {
          size_t at = static_cast<size_t>(k) * (kHid + 1) + j;
          double dw = 0.3 * x.f[0][j] * x.f[1][k] + 0.3 * old[at];
          w[at] += dw;
          old[at] = dw;
        }
    w.insert(w.end(), old.begin(), old.end());
    return w;
  };
  p.outputs = [](const Inputs &x, Side) {
    std::vector<double> out = widen(x.f[2]);
    append(out, x.f[3]);
    return out;
  };
  p.relTol = 1e-4;
  p.absTol = 1e-5;
  p.cudaFault = "the kernel updates the bias row as if ly[0] were 1";
  return p;
}

// --- cfd -----------------------------------------------------------------------
// Euler-solver step factors and a pressure flux over each cell's four
// neighbours (a neighbour index of -1 is a boundary face).

Program cfd() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "cfd");
    int nelr = size == Size::Full ? 256 * 16 : 256;
    std::vector<float> dens = uniformF(rng, nelr, 0.9f, 1.1f);
    std::vector<float> mom = uniformF(rng, static_cast<size_t>(nelr) * 3,
                                      -0.1f, 0.1f);
    std::vector<float> energy = uniformF(rng, nelr, 2.0f, 3.0f);
    std::vector<float> vars(static_cast<size_t>(nelr) * 5);
    for (int k = 0; k < nelr; ++k) {
      vars[k] = dens[k];
      for (int d = 0; d < 3; ++d)
        vars[k + (d + 1) * nelr] = mom[static_cast<size_t>(d) * nelr + k];
      vars[k + 4 * nelr] = energy[k];
    }
    Inputs in;
    in.addF(vars);
    in.addF(uniformF(rng, nelr, 0.5f, 2.0f));
    in.addF(std::vector<float>(nelr, 0));
    in.addI(uniformI(rng, static_cast<size_t>(nelr) * 4, -1, nelr - 1));
    in.addF(std::vector<float>(nelr, 0));
    in.addInt(nelr);
    in.addInt(10); // time steps, as makeWorkload at scale 10
    return in;
  };
  p.reference = [](const Inputs &in) {
    const auto &v = in.f[0], &areas = in.f[1];
    const auto &nb = in.i[0];
    int n = static_cast<int>(in.intArg(0));
    std::vector<double> step(n), flux(n, 0);
    auto pressure = [](double rho, double e, double speedSqd) {
      return 0.4 * (e - 0.5 * rho * speedSqd); // (gamma - 1) = 0.4
    };
    for (int c = 0; c < n; ++c) {
      double rho = v[c], e = v[c + 4 * n];
      double m2 = 0;
      for (int d = 1; d <= 3; ++d)
        m2 += double(v[c + d * n]) * v[c + d * n];
      double speedSqd = m2 / (rho * rho);
      double sound = std::sqrt(1.4 * pressure(rho, e, speedSqd) / rho);
      step[c] = 0.5 / (std::sqrt(double(areas[c])) *
                       (std::sqrt(speedSqd) + sound));
      for (int f = 0; f < 4; ++f) {
        int32_t o = nb[static_cast<size_t>(c) * 4 + f];
        if (o < 0)
          continue;
        // The flux model evaluates pressure with a unit speed term.
        double pc = pressure(rho, e, 1.0), po = pressure(v[o], v[o + 4 * n], 1.0);
        flux[c] += 0.5 * (pc + po) * (double(v[o]) - rho);
      }
    }
    step.insert(step.end(), flux.begin(), flux.end());
    return step;
  };
  p.outputs = [](const Inputs &in, Side) {
    std::vector<double> out = widen(in.f[2]);
    append(out, in.f[3]);
    return out;
  };
  p.relTol = 1e-4;
  p.absTol = 1e-5;
  return p;
}

// --- myocyte -------------------------------------------------------------------
// Explicit-Euler integration (dt = 0.01) of a two-variable excitable cell
// model per instance: v' = u v - v^3 / 3 + 0.7, u' = 0.08 (v + 0.7 - 0.8 u).

Program myocyte() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "myocyte");
    int n = size == Size::Full ? 64 * 16 : 64;
    Inputs in;
    in.addF(uniformF(rng, n, -1, 1));
    in.addF(uniformF(rng, n, -1, 1));
    in.addInt(n);
    in.addInt(size == Size::Full ? 500 : 50); // steps (scale 10 / 1)
    return in;
  };
  p.reference = [](const Inputs &in) {
    int n = static_cast<int>(in.intArg(0));
    int steps = static_cast<int>(in.intArg(1));
    std::vector<double> y(n), u(n);
    for (int c = 0; c < n; ++c) {
      double v = in.f[0][c], w = in.f[1][c];
      for (int s = 0; s < steps; ++s) {
        double dv = w * v - v * v * v / 3 + 0.7;
        double dw = 0.08 * (v + 0.7 - 0.8 * w);
        v += 0.01 * dv;
        w += 0.01 * dw;
      }
      y[c] = v;
      u[c] = w;
    }
    y.insert(y.end(), u.begin(), u.end());
    return y;
  };
  p.outputs = [](const Inputs &in, Side) {
    std::vector<double> out = widen(in.f[0]);
    append(out, in.f[1]);
    return out;
  };
  p.relTol = 1e-3;
  p.absTol = 1e-4;
  return p;
}

// --- particlefilter ------------------------------------------------------------
// Gaussian likelihood of each particle's offset, then weight update and
// normalization, repeated per frame.

Program particlefilter() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "particlefilter_float");
    int n = size == Size::Full ? 128 * 24 : 128;
    Inputs in;
    in.addF(uniformF(rng, n, -1, 1));
    in.addF(uniformF(rng, n, -1, 1));
    in.addF(std::vector<float>(n, 0));
    in.addF(std::vector<float>(n, 1.0f));
    in.addF(std::vector<float>((n + 63) / 64, 0)); // scratch partial sums
    in.addInt(n);
    in.addInt(size == Size::Full ? 10 : 1); // frames (scale 10 / 1)
    return in;
  };
  p.reference = [](const Inputs &in) {
    int n = static_cast<int>(in.intArg(0));
    int frames = static_cast<int>(in.intArg(1));
    std::vector<double> lk(n), w(in.f[3].begin(), in.f[3].end());
    for (int k = 0; k < n; ++k)
      lk[k] = -0.5 * (double(in.f[0][k]) * in.f[0][k] +
                      double(in.f[1][k]) * in.f[1][k]);
    for (int t = 0; t < frames; ++t) {
      double sum = 0;
      for (int k = 0; k < n; ++k)
        sum += (w[k] *= std::exp(lk[k]));
      for (double &x : w)
        x /= sum;
    }
    lk.insert(lk.end(), w.begin(), w.end());
    return lk;
  };
  p.outputs = [](const Inputs &in, Side) {
    std::vector<double> out = widen(in.f[2]);
    append(out, in.f[3]);
    return out;
  };
  p.relTol = 1e-3;
  p.absTol = 1e-9;
  return p;
}

// --- streamcluster -------------------------------------------------------------
// Gain of reassigning each weighted point to a candidate centre: points
// whose weighted squared distance beats their current cost switch.

Program streamcluster() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "streamcluster");
    int num = size == Size::Full ? 256 * 16 : 256, dim = 8;
    std::vector<float> coord = uniformF(rng, static_cast<size_t>(num) * dim, 0, 1);
    std::vector<float> weight = uniformF(rng, num, 0.5f, 1.5f);
    std::vector<float> work = uniformF(rng, static_cast<size_t>(num) * 2, 0.5f, 2.0f);
    std::vector<float> centre = uniformF(rng, dim, 0, 1);
    // Keep every point clear of a tie between its cost and the candidate
    // cost, where rounding could decide the switch either way.
    for (int k = 0; k < num; ++k) {
      double d = 0;
      for (int j = 0; j < dim; ++j) {
        double diff = double(coord[static_cast<size_t>(j) * num + k]) - centre[j];
        d += diff * diff;
      }
      double cost = d * weight[k];
      if (std::fabs(cost - work[k]) < 1e-3 * std::max(1.0, cost))
        work[k] = static_cast<float>(cost + 0.01);
    }
    Inputs in;
    in.addF(coord);
    in.addF(weight);
    in.addI(std::vector<int32_t>(num, 0)); // centre table (unused)
    in.addI(std::vector<int32_t>(num, 0)); // switch membership
    in.addF(work);
    in.addF(centre);
    in.addInt(num);
    in.addInt(dim);
    in.addInt(10); // repetitions, as makeWorkload at scale 10
    return in;
  };
  p.reference = [](const Inputs &in) {
    int num = static_cast<int>(in.intArg(0)), dim = static_cast<int>(in.intArg(1));
    std::vector<double> sw(num, 0), gain(num, 0);
    for (int k = 0; k < num; ++k) {
      double d = 0;
      for (int j = 0; j < dim; ++j) {
        double diff = double(in.f[0][static_cast<size_t>(j) * num + k]) - in.f[3][j];
        d += diff * diff;
      }
      double cost = d * in.f[1][k], current = in.f[2][k];
      if (cost < current) {
        sw[k] = 1;
        gain[k] = cost - current;
      }
    }
    sw.insert(sw.end(), gain.begin(), gain.end());
    return sw;
  };
  p.outputs = [](const Inputs &in, Side) {
    std::vector<double> out = widen(in.i[1]);
    append(out, in.f[2], in.f[2].size() / 2);
    return out;
  };
  p.relTol = 1e-4;
  p.absTol = 1e-5;
  return p;
}

// --- hotspot -------------------------------------------------------------------
// Chip temperature: explicit time steps of a 5-point thermal stencil with
// power input and ambient leakage, edges clamped to the cell itself.

Program hotspot() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "hotspot");
    int n = size == Size::Full ? 96 : 32;
    Inputs in;
    in.addF(uniformF(rng, static_cast<size_t>(n) * n, 0, 1));
    in.addF(uniformF(rng, static_cast<size_t>(n) * n, 70, 90));
    in.addF(std::vector<float>(static_cast<size_t>(n) * n, 0));
    in.addInt(n);
    in.addInt(n);
    in.addInt(size == Size::Full ? 20 : 2); // even: result lands in temp_a
    return in;
  };
  p.reference = [](const Inputs &in) {
    int cols = static_cast<int>(in.intArg(0)), rows = static_cast<int>(in.intArg(1));
    int steps = static_cast<int>(in.intArg(2));
    const double rx = 0.1, ry = 0.1, rz = 0.33, cap = 0.0005, amb = 80;
    std::vector<double> t = widen(in.f[1]), next(t.size());
    for (int s = 0; s < steps; ++s) {
      for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
          auto at = [&](int rr, int cc) {
            rr = std::clamp(rr, 0, rows - 1);
            cc = std::clamp(cc, 0, cols - 1);
            return t[static_cast<size_t>(rr) * cols + cc];
          };
          double tc = at(r, c);
          next[static_cast<size_t>(r) * cols + c] =
              tc + cap * (in.f[0][static_cast<size_t>(r) * cols + c] +
                          (at(r + 1, c) + at(r - 1, c) - 2 * tc) * ry +
                          (at(r, c + 1) + at(r, c - 1) - 2 * tc) * rx +
                          (amb - tc) * rz);
        }
      t.swap(next);
    }
    return t;
  };
  p.outputs = [](const Inputs &in, Side) { return widen(in.f[1]); };
  p.relTol = 1e-5;
  p.absTol = 1e-4;
  return p;
}

Program hotspot3d() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "hotspot3d");
    int nx = size == Size::Full ? 32 : 16, nz = size == Size::Full ? 8 : 4;
    size_t cells = static_cast<size_t>(nx) * nx * nz;
    Inputs in;
    in.addF(uniformF(rng, cells, 0, 1));
    in.addF(uniformF(rng, cells, 70, 90));
    in.addF(std::vector<float>(cells, 0));
    in.addInt(nx);
    in.addInt(nx);
    in.addInt(nz);
    in.addInt(size == Size::Full ? 20 : 2); // even: result lands in tIn
    return in;
  };
  // 7-point stencil: 0.82 of the cell, 0.03 of each face neighbour (edges
  // clamped), 0.82 of the power, plus the ambient term 0.03 * 80 * 0.01.
  p.reference = [](const Inputs &in) {
    int nx = static_cast<int>(in.intArg(0)), ny = static_cast<int>(in.intArg(1));
    int nz = static_cast<int>(in.intArg(2)), steps = static_cast<int>(in.intArg(3));
    std::vector<double> t = widen(in.f[1]), next(t.size());
    auto idx = [&](int i, int j, int k) {
      i = std::clamp(i, 0, nx - 1);
      j = std::clamp(j, 0, ny - 1);
      k = std::clamp(k, 0, nz - 1);
      return static_cast<size_t>(i) + static_cast<size_t>(j) * nx +
             static_cast<size_t>(k) * nx * ny;
    };
    for (int s = 0; s < steps; ++s) {
      for (int k = 0; k < nz; ++k)
        for (int j = 0; j < ny; ++j)
          for (int i = 0; i < nx; ++i) {
            double nbrs = t[idx(i - 1, j, k)] + t[idx(i + 1, j, k)] +
                          t[idx(i, j - 1, k)] + t[idx(i, j + 1, k)] +
                          t[idx(i, j, k - 1)] + t[idx(i, j, k + 1)];
            next[idx(i, j, k)] = 0.82 * t[idx(i, j, k)] + 0.03 * nbrs +
                                 0.82 * in.f[0][idx(i, j, k)] +
                                 0.03 * 80 * 0.01;
          }
      t.swap(next);
    }
    return t;
  };
  p.outputs = [](const Inputs &in, Side) { return widen(in.f[1]); };
  p.relTol = 1e-5;
  p.absTol = 1e-4;
  return p;
}

// --- pathfinder ----------------------------------------------------------------
// Minimum-cost path down a grid: row by row, each column adds its wall
// cost to the cheapest of the three cells above it. The repository's
// version has no ghost zones, so a column sees only neighbours inside its
// own 64-column block (both sides document this simplification).

constexpr int kPathBlock = 64;

Program pathfinder() {
  Program p;
  p.make = [](uint64_t, Size size) {
    Rng rng = rngFor(kFixedSeed, "pathfinder");
    int cols = size == Size::Full ? 128 * 12 : 128;
    int rows = size == Size::Full ? 81 : 9; // 8 * scale + 1
    Inputs in;
    in.addI(uniformI(rng, static_cast<size_t>(rows) * cols, 0, 10));
    in.addI(uniformI(rng, cols, 0, 10));
    in.addI(std::vector<int32_t>(cols, 0));
    in.addInt(cols);
    in.addInt(rows);
    in.addInt(4); // pyramid height
    return in;
  };
  // Row r of the wall is added in step r (r = 0 .. rows - 2), starting from
  // the initial row in `src`.
  p.reference = [](const Inputs &in) {
    int cols = static_cast<int>(in.intArg(0)), rows = static_cast<int>(in.intArg(1));
    std::vector<double> cur = widen(in.i[1]), next(cols);
    for (int r = 0; r + 1 < rows; ++r) {
      for (int x = 0; x < cols; ++x) {
        double best = cur[x];
        if (x % kPathBlock > 0)
          best = std::min(best, cur[x - 1]);
        if (x % kPathBlock < kPathBlock - 1 && x + 1 < cols)
          best = std::min(best, cur[x + 1]);
        next[x] = best + in.i[0][static_cast<size_t>(r) * cols + x];
      }
      cur.swap(next);
    }
    return cur;
  };
  // The CUDA host picks source and destination by the parity of the step
  // it starts from; every launch therefore writes `dst`. The OpenMP
  // version alternates per row, so the last row lands in `src` when the
  // number of steps is even.
  p.outputs = [](const Inputs &in, Side s) {
    int rows = static_cast<int>(in.intArg(1));
    bool inSrc = s == Side::Omp && (rows - 1) % 2 == 0;
    return widen(in.i[inSrc ? 1 : 2]);
  };
  p.cudaFault = "the host picks src/dst by startStep % 2, which is always "
                "even with pyramid height 4, so every launch restarts from "
                "the input row";
  return p;
}

// --- lud -----------------------------------------------------------------------
// In-place LU decomposition without pivoting (Doolittle: unit lower
// triangle below the diagonal, upper triangle on and above it) of a
// diagonally dominant matrix.

Program lud() {
  Program p;
  p.make = [](uint64_t, Size size) {
    Rng rng = rngFor(kFixedSeed, "lud");
    int dim = size == Size::Full ? 16 * 7 : 32;
    std::vector<float> m = uniformF(rng, static_cast<size_t>(dim) * dim, 0.1f, 1);
    for (int k = 0; k < dim; ++k)
      m[static_cast<size_t>(k) * dim + k] += static_cast<float>(dim);
    Inputs in;
    in.addF(m);
    in.addInt(dim);
    return in;
  };
  p.reference = [](const Inputs &in) {
    int n = static_cast<int>(in.intArg(0));
    std::vector<double> a = widen(in.f[0]);
    for (int k = 0; k < n; ++k)
      for (int r = k + 1; r < n; ++r) {
        double l = a[static_cast<size_t>(r) * n + k] /= a[static_cast<size_t>(k) * n + k];
        for (int c = k + 1; c < n; ++c)
          a[static_cast<size_t>(r) * n + c] -= l * a[static_cast<size_t>(k) * n + c];
      }
    return a;
  };
  p.outputs = [](const Inputs &in, Side) { return widen(in.f[0]); };
  p.relTol = 1e-3;
  p.absTol = 1e-4;
  p.cudaFault = p.ompFault =
      "no perimeter step: the row and column panels beside each diagonal "
      "block are never divided by its factors, so only the first diagonal "
      "block is factored right";
  return p;
}

// --- nw ------------------------------------------------------------------------
// Needleman-Wunsch alignment score matrix: each cell is the best of the
// diagonal plus the substitution score and either gap with penalty.

Program nw() {
  Program p;
  p.make = [](uint64_t, Size size) {
    Rng rng = rngFor(kFixedSeed, "nw");
    int cols = 16 * (size == Size::Full ? 28 : 2) + 1;
    std::vector<int32_t> matrix(static_cast<size_t>(cols) * cols, 0);
    for (int k = 0; k < cols; ++k)
      matrix[k] = matrix[static_cast<size_t>(k) * cols] = -k;
    Inputs in;
    in.addI(uniformI(rng, static_cast<size_t>(cols) * cols, -2, 2));
    in.addI(matrix);
    in.addInt(cols);
    in.addInt(10); // gap penalty
    return in;
  };
  p.reference = [](const Inputs &in) {
    int n = static_cast<int>(in.intArg(0)), gap = static_cast<int>(in.intArg(1));
    std::vector<double> m = widen(in.i[1]);
    for (int r = 1; r < n; ++r)
      for (int c = 1; c < n; ++c) {
        size_t at = static_cast<size_t>(r) * n + c;
        m[at] = std::max({m[at - n - 1] + in.i[0][at], m[at - 1] - gap,
                          m[at - n] - gap});
      }
    return m;
  };
  p.outputs = [](const Inputs &in, Side) { return widen(in.i[1]); };
  p.cudaFault = p.ompFault =
      "only the first half of the block wavefront runs (the anti-diagonals "
      "up to the main one), so the lower-right blocks are never filled";
  return p;
}

// --- srad ----------------------------------------------------------------------
// Speckle-reducing anisotropic diffusion: per iteration, the diffusion
// coefficient from the local gradient and Laplacian against the image's
// speckle scale q0^2, then an update from the north/west (own) and
// south/east (neighbour) coefficients. Edges are clamped.

double diffusion(double jc, double n, double s, double w, double e,
                 double q0sqr) {
  double dn = n - jc, ds = s - jc, dw = w - jc, de = e - jc;
  double g2 = (dn * dn + ds * ds + dw * dw + de * de) / (jc * jc);
  double l = (dn + ds + dw + de) / jc;
  double num = 0.5 * g2 - (1.0 / 16.0) * l * l;
  double den = 1 + 0.25 * l;
  double qsqr = num / (den * den);
  den = (qsqr - q0sqr) / (q0sqr * (1 + q0sqr));
  return std::clamp(1 / (1 + den), 0.0, 1.0);
}

/// One SRAD iteration on a column-major (v1) or row-major (v2) image.
void sradStep(std::vector<double> &img, int rows, int cols, double q0sqr,
              double lambda, bool columnMajor) {
  auto at = [&](int r, int c) -> size_t {
    r = std::clamp(r, 0, rows - 1);
    c = std::clamp(c, 0, cols - 1);
    return columnMajor ? static_cast<size_t>(c) * rows + r
                       : static_cast<size_t>(r) * cols + c;
  };
  std::vector<double> coef(img.size());
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      coef[at(r, c)] = diffusion(img[at(r, c)], img[at(r - 1, c)],
                                 img[at(r + 1, c)], img[at(r, c - 1)],
                                 img[at(r, c + 1)], q0sqr);
  std::vector<double> next(img.size());
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) {
      double jc = img[at(r, c)], cc = coef[at(r, c)];
      double d = cc * (img[at(r - 1, c)] - jc) +
                 coef[at(r + 1, c)] * (img[at(r + 1, c)] - jc) +
                 cc * (img[at(r, c - 1)] - jc) +
                 coef[at(r, c + 1)] * (img[at(r, c + 1)] - jc);
      next[at(r, c)] = jc + 0.25 * lambda * d;
    }
  img.swap(next);
}

Program sradV1() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "srad_v1");
    int n = size == Size::Full ? 48 : 16;
    int ne = n * n;
    Inputs in;
    in.addF(uniformF(rng, ne, 0.5f, 1.5f));
    in.addF(std::vector<float>(ne, 0)); // scratch: reduction sums
    in.addF(std::vector<float>(ne, 0));
    std::vector<int32_t> north(n), south(n), west(n), east(n);
    for (int k = 0; k < n; ++k) {
      north[k] = std::max(0, k - 1);
      south[k] = std::min(n - 1, k + 1);
      west[k] = std::max(0, k - 1);
      east[k] = std::min(n - 1, k + 1);
    }
    in.addI(north);
    in.addI(south);
    in.addI(east);
    in.addI(west);
    for (int k = 0; k < 5; ++k) // scratch: gradients and coefficients
      in.addF(std::vector<float>(ne, 0));
    in.addInt(n);
    in.addInt(n);
    in.addInt(size == Size::Full ? 10 : 1); // iterations (scale 10 / 1)
    return in;
  };
  p.reference = [](const Inputs &in) {
    int rows = static_cast<int>(in.intArg(0)), cols = static_cast<int>(in.intArg(1));
    int iters = static_cast<int>(in.intArg(2));
    std::vector<double> img = widen(in.f[0]);
    double ne = static_cast<double>(img.size());
    for (int t = 0; t < iters; ++t) {
      double sum = 0, sum2 = 0;
      for (double v : img) {
        sum += v;
        sum2 += v * v;
      }
      double mean = sum / ne, var = sum2 / ne - mean * mean;
      sradStep(img, rows, cols, var / (mean * mean), 0.5, true);
    }
    return img;
  };
  p.outputs = [](const Inputs &in, Side) { return widen(in.f[0]); };
  p.relTol = 1e-3;
  p.absTol = 1e-4;
  return p;
}

Program sradV2() {
  Program p;
  p.make = [](uint64_t seed, Size size) {
    Rng rng = rngFor(seed, "srad_v2");
    int n = size == Size::Full ? 96 : 32;
    size_t ne = static_cast<size_t>(n) * n;
    Inputs in;
    for (int k = 0; k < 4; ++k) // scratch: E, W, N, S derivatives
      in.addF(std::vector<float>(ne, 0));
    in.addF(uniformF(rng, ne, 0.5f, 1.5f)); // J
    in.addF(std::vector<float>(ne, 0));     // scratch: coefficients
    in.addInt(n);
    in.addInt(n);
    in.addInt(size == Size::Full ? 10 : 1);
    return in;
  };
  // srad_v2 fixes q0^2 = 0.05 instead of measuring it.
  p.reference = [](const Inputs &in) {
    int cols = static_cast<int>(in.intArg(0)), rows = static_cast<int>(in.intArg(1));
    int iters = static_cast<int>(in.intArg(2));
    std::vector<double> img = widen(in.f[4]);
    for (int t = 0; t < iters; ++t)
      sradStep(img, rows, cols, 0.05, 0.5, false);
    return img;
  };
  p.outputs = [](const Inputs &in, Side) { return widen(in.f[4]); };
  p.relTol = 1e-3;
  p.absTol = 1e-4;
  return p;
}

} // namespace

const std::vector<Program> &programs() {
  static const std::vector<Program> all = [] {
    std::vector<Program> v;
    for (const auto &b : paralift::rodinia::suite()) {
      Program p;
      const std::string &id = b.id;
      if (id == "btree_findk") p = findK();
      else if (id == "btree_findrangek") p = findRangeK();
      else if (id == "bfs") p = bfs();
      else if (id == "backprop_layerforward") p = layerforward();
      else if (id == "backprop_adjust_weights") p = adjustWeights();
      else if (id == "cfd") p = cfd();
      else if (id == "myocyte") p = myocyte();
      else if (id == "particlefilter_float") p = particlefilter();
      else if (id == "streamcluster") p = streamcluster();
      else if (id == "hotspot") p = hotspot();
      else if (id == "hotspot3d") p = hotspot3d();
      else if (id == "pathfinder") p = pathfinder();
      else if (id == "lud") p = lud();
      else if (id == "nw") p = nw();
      else if (id == "srad_v1") p = sradV1();
      else if (id == "srad_v2") p = sradV2();
      else {
        std::fprintf(stderr, "perfbench: no reference for Rodinia program %s\n",
                     id.c_str());
        std::exit(2);
      }
      p.bench = &b;
      v.push_back(std::move(p));
    }
    return v;
  }();
  return all;
}

} // namespace perfbench
