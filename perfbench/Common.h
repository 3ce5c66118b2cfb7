//===- Common.h - Shared pieces of the end-to-end benchmark ---------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, seeded generator, quantiles, the CPU-bound probe, the in-memory
/// span recorder of traced runs, and the program instances every workload
/// draws from. See README.md in this directory for what is measured and
/// why.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "BenchCommon.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// splitmix64: every input the benchmark generates derives from the
/// workload seed through this generator.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

/// Sorted-sample quantile with linear interpolation between order
/// statistics (the "inclusive" definition); \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);

/// The fixed CPU-bound probe: map inserts of pseudo-random keys, then a
/// sort. Returns its wall time in ms. It touches no program code, so its
/// time tracks only the speed the host gives this process.
double runProbe();

/// The probe's median on the reference machine (README.md). Scaled time
/// metrics are multiplied by NominalProbeMs / (this run's median probe).
constexpr double NominalProbeMs = 11.0;

//===----------------------------------------------------------------------===//
// Spans of traced runs
//===----------------------------------------------------------------------===//

/// Records spans (name, start, end, parent, operation id) in memory and
/// writes them out when the run ends. Inert unless enabled.
class Tracer {
public:
  static Tracer &get();

  void enable(size_t Capacity);
  bool enabled() const { return Enabled; }
  uint64_t dropped() const { return Dropped; }

  /// Opens a span on the calling thread; returns its index or -1.
  int64_t open(const char *Name, uint64_t Op);
  void close(int64_t Idx);

  /// Writes a Chrome trace (chrome://tracing, Perfetto) to \p Path.
  bool writeChromeTrace(const std::string &Path) const;
  /// Per span name: count, total and self time (total minus the time its
  /// child spans cover), as a text table.
  std::string selfTimeTable() const;

private:
  struct SpanRec {
    const char *Name;
    uint64_t StartNs, EndNs, Op;
    int64_t Parent;
    unsigned Tid;
  };
  bool Enabled = false;
  size_t Capacity = 0;
  uint64_t Dropped = 0;
  mutable std::mutex Mu;
  std::vector<SpanRec> Spans;
};

/// RAII span around one call into a layer; a null name records nothing.
class Span {
public:
  Span(const char *Name, uint64_t Op = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  int64_t Idx = -1;
};

//===----------------------------------------------------------------------===//
// Program instances
//===----------------------------------------------------------------------===//

/// One §8.1 program at one oracle size, with the facts its known answer
/// is computed from.
struct Instance {
  asdf::BenchAlgorithm Alg = asdf::BenchAlgorithm::BV;
  unsigned N = 0;
  /// Q#-style program compiled without inlining (QIR callables, no flat
  /// circuit).
  bool NoInline = false;
  /// BV secret (bit string, first character = first oracle bit).
  std::string Secret;
  /// Simon / period-finding mask of f(x) = x & mask.
  std::string Mask;
  asdf::BenchProgram Prog;

  std::string label() const;
};

/// Builds an instance. BV secrets are drawn from \p R with exactly N/2 ones,
/// so gate counts do not depend on the seed; the other programs are the
/// fixed generators of bench/BenchCommon.
Instance makeInstance(asdf::BenchAlgorithm Alg, unsigned N, bool NoInline,
                      Rng &R);

/// A BV instance with an explicit secret.
Instance makeBvInstance(unsigned N, const std::string &Secret);

/// The \p Rank-th N-bit string with exactly K ones, in lexicographic
/// order of the combinatorial number system; distinct ranks give distinct
/// strings.
std::string unrankCombination(unsigned N, unsigned K, uint64_t Rank);
uint64_t binomial(unsigned N, unsigned K);

/// Seeded Fisher-Yates shuffle.
template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

} // namespace pb

#endif // PERFBENCH_COMMON_H
