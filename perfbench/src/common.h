// Pieces shared by the three workloads: compiling a batch of sources
// through one CompilerSession, turning a compiled module into something
// the benchmark can call and check, and the layer probes of traced runs.
#pragma once

#include "harness.h"
#include "programs.h"

#include "driver/session.h"
#include "moccuda/resnet.h"
#include "runtime/thread_pool.h"
#include "vm/interp.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Source {
  std::string name;
  std::string text;
};

/// The 32 Rodinia sources: each program's CUDA then OpenMP version.
std::vector<Source> rodiniaSources();

/// One compiled module bound to the inputs of one program side, ready to
/// be called through the VM on a shared pool.
struct Runnable {
  const Program *prog = nullptr;
  Side side = Side::Cuda;
  std::string entry = "run";
  std::unique_ptr<paralift::vm::BCModule> bc;
  std::optional<paralift::vm::VerifiedModule> token;
  std::unique_ptr<paralift::vm::Interp> interp;
  Inputs pristine, work;
  std::vector<double> want;
  std::vector<paralift::vm::Slot> slots;
  size_t irOps = 0;
};

/// The pool that runs compiled code: the session's own workers, idle once
/// its batch is compiled, so a workload never holds more than `threads`
/// threads of the program at once. A one-thread session has no pool; then
/// `own` gets a pool of one.
paralift::runtime::ThreadPool &
execPool(paralift::driver::CompilerSession &session,
         std::unique_ptr<paralift::runtime::ThreadPool> &own);

/// Bytecode-compiles and verifies `module` (spans vm.compile, vm.verify)
/// and builds an interpreter on `pool`. Returns false with `err` set when
/// the bytecode is rejected.
bool prepare(Runnable &r, paralift::ir::ModuleOp module,
             paralift::runtime::ThreadPool &pool, std::string *err);

/// Gives a prepared Runnable its inputs and reference outputs.
void bindInputs(Runnable &r, const Inputs &in, const std::vector<double> &want);

struct CallOutcome {
  double seconds = 0;
  size_t mismatches = 0;
  std::string why;
};

/// Restores the inputs, times one call of the entry point, and checks the
/// declared outputs against the reference (outside the timed window).
CallOutcome callOnce(Runnable &r);

/// Counts a checked call: failed when the outputs mismatch; the run stays
/// correct only if every failure is a named fault of that side.
void account(Result &res, const Program &p, Side s, const CallOutcome &c,
             bool verbose);

/// Ops in a module (every nested op).
size_t countOps(paralift::ir::Op *root);
/// Instructions over every function of a bytecode module.
size_t countInsts(const paralift::vm::BCModule &bc);

/// Session options every workload uses: `threads` workers, no cache from
/// the environment.
paralift::driver::SessionOptions sessionOptions(unsigned threads);

/// Per-layer compile probe over `batch`: frontend::compileToIR, ir::hashOp
/// over every function, and each pass of the default pipeline run alone
/// over the batch, stage by stage.
void probeCompileLayers(const std::vector<Source> &batch,
                        std::map<std::string, double> &out);

/// Session-level counters of one compile batch, from the metrics snapshot
/// and the jobs' latencies.
struct SessionCounters {
  uint64_t tasks = 0, steals = 0, parks = 0;
  void snapshot();
  void deltaInto(const SessionCounters &before,
                 std::map<std::string, double> &out) const;
};
void jobLatencies(paralift::driver::CompilerSession &session, size_t first,
                  std::map<std::string, double> &out);

/// Times every program side at `threads` and at 1 thread on `size` inputs
/// (exec.*, vm.*, ir.ops_out). Used by traced runs whose own traffic does
/// not execute the Rodinia programs at that size.
void probeExecLayers(uint64_t seed, Size size, unsigned threads,
                     std::map<std::string, double> &out);

/// MocCUDA probe: one training step's kernels at `batch` images.
void probeMoccudaLayers(int batch, int steps, unsigned threads,
                        std::map<std::string, double> &out);

/// Fills the layers a workload's own traffic did not reach, so every
/// traced run reports a measured value for every per-layer metric.
void probeMissingLayers(uint64_t seed, unsigned threads,
                        std::map<std::string, double> &out);

/// The resnet-train kernel checks (see resnet_train.cpp); `corrupt` in
/// 0..2 damages one element of one kernel's output first, -1 none.
void checkKernels(Result &res, paralift::moccuda::MiniResNet &model,
                  const paralift::moccuda::Tensor &images,
                  const std::vector<int32_t> &labels, uint64_t seed,
                  unsigned threads, int corrupt);

Result runRodiniaExec(const Options &o);
Result runCompileBatch(const Options &o);
Result runResnetTrain(const Options &o);
/// Proves the checks can fail: corrupts one output element per program
/// side and per VM kernel and expects each corruption to be caught.
int runSelfCheck(const Options &o);
/// Measures the paper's figures (see figures.cpp).
int runFigures(const Options &o);

} // namespace perfbench
