// The benchmark's side of the 16 Rodinia programs: seeded input
// generators, plain C++ references written from what each original
// Rodinia benchmark computes, and the output buffers a Rodinia host
// program reads back. The program's sources come from rodinia::suite();
// nothing here is shared with the program's own workloads or oracle.
#pragma once

#include "rodinia/rodinia.h"
#include "vm/interp.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Buffers and scalars for one `run(...)` call, in argument order.
class Inputs {
public:
  std::vector<float> &addF(std::vector<float> v);
  std::vector<int32_t> &addI(std::vector<int32_t> v);
  void addInt(int64_t v);

  std::vector<std::vector<float>> f;
  std::vector<std::vector<int32_t>> i;

  /// Copies buffer contents from `src` (same shapes) without moving any
  /// buffer, so argument slots made once stay valid.
  void restore(const Inputs &src);
  /// Argument slots for `interp`, pointing at this object's buffers.
  std::vector<paralift::vm::Slot> slots(paralift::vm::Interp &interp);
  /// Scalar argument by position among the scalars.
  int64_t intArg(size_t k) const;

private:
  struct Arg {
    enum Kind { F32, I32, Int } kind;
    size_t idx = 0;
    int64_t iv = 0;
  };
  std::vector<Arg> args_;
};

enum class Side { Cuda, Omp };
enum class Size { Small, Full };

struct Program {
  const paralift::rodinia::Benchmark *bench = nullptr;
  /// Inputs for one call; deterministic in (seed, size). Programs with a
  /// named fault ignore the seed, so their failure repeats exactly.
  std::function<Inputs(uint64_t seed, Size size)> make;
  /// Expected declared outputs, computed from the inputs before the call.
  std::function<std::vector<double>(const Inputs &)> reference;
  /// The declared outputs after a call, as the host program reads them.
  std::function<std::vector<double>(const Inputs &, Side)> outputs;
  double absTol = 0, relTol = 0;
  /// Why this side fails against the reference (named faults), or null.
  const char *cudaFault = nullptr;
  const char *ompFault = nullptr;

  const std::string &id() const { return bench->id; }
  const char *source(Side s) const {
    return s == Side::Cuda ? bench->cudaSource : bench->openmpSource;
  }
  const char *fault(Side s) const {
    return s == Side::Cuda ? cudaFault : ompFault;
  }
};

/// The 16 programs, in rodinia::suite() order.
const std::vector<Program> &programs();

/// Compares outputs against the reference; on mismatch returns how many
/// elements differ and describes the first in `why`.
size_t countMismatches(const Program &p, const std::vector<double> &got,
                       const std::vector<double> &want, std::string *why);

} // namespace perfbench
