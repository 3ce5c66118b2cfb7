//===- Checks.h - Independent output checks of the benchmark --------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every check here is computed from first principles in the benchmark's
/// own code — a gate-counting rule, a reference statevector, known answers
/// of the §8.1 algorithms, and binomial / chi-square / total-variation
/// bounds — never from the program's own statistics. Each returns false
/// with a reason on failure; `perfbench --self-test` feeds each a
/// corrupted output to show it can fail.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Common.h"

#include "qcirc/Circuit.h"
#include "sim/Backend.h"

#include <map>
#include <string>

namespace pb {

/// Gate counts under the benchmark's own rule.
struct GateCounts {
  /// Every T/Tdg, plus each rotation or controlled phase whose angle is
  /// not a multiple of pi/2 (symbolic angles count).
  uint64_t T = 0;
  /// Singly-controlled X.
  uint64_t Cx = 0;
  uint64_t Qubits = 0;
  /// Uncontrolled, unconditioned T/Tdg: the `t`/`tdg` lines of the QASM.
  uint64_t PlainT = 0;
};
GateCounts countGates(const asdf::Circuit &C);

/// The emitted OpenQASM 3 \p Qasm has as many `t`/`tdg` lines as \p C has
/// uncontrolled T/Tdg gates, as many `cx` lines as singly-controlled X
/// gates, and declares C.NumQubits qubits.
bool checkQasmText(const std::string &Qasm, const asdf::Circuit &C,
                   std::string &Why);

/// Exact output distribution of \p C (keyed like formatShotBits) from a
/// dense reference statevector. Supports terminal measurements only; at
/// most 14 qubits. False with a reason otherwise.
bool referenceDistribution(const asdf::Circuit &C,
                           std::map<std::string, double> &Out,
                           std::string &Why);

/// The ideal Grover success probability for oracle size \p N:
/// sin^2((2k+1) asin(2^(-N/2))), k = min(floor(pi/4 sqrt(2^N)), 12).
double groverSuccess(unsigned N);

/// The exact output distribution the algorithm of \p I must produce
/// (Grover: only the marked string's probability is fixed).
bool checkExactDistribution(const Instance &I,
                            const std::map<std::string, double> &Dist,
                            std::string &Why);

/// Known answer for one sampled shot: BV returns the secret, balanced DJ
/// all ones, Simon y.s = 0, period finding a multiple of 2^N / r. Grover
/// shots are checked only in aggregate.
bool checkShot(const Instance &I, const std::string &Bits, std::string &Why);

/// Aggregate checks over \p Shots sampled outputs: Grover success count
/// within a binomial bound, Simon outputs uniform over the valid set
/// within a chi-square bound. Other algorithms pass.
bool checkFrequencies(const Instance &I,
                      const std::map<std::string, unsigned> &Counts,
                      unsigned Shots, std::string &Why);

/// True if \p K successes of \p N trials are within a 6-sigma binomial
/// bound (plus continuity slack) of probability range [PLo, PHi].
bool binomialWithin(uint64_t K, uint64_t N, double PLo, double PHi);

/// Pearson chi-square statistic of \p Counts against the uniform
/// distribution over \p Cells cells, and its 8-sigma acceptance bound.
double chiSquareUniform(const std::map<std::string, unsigned> &Counts,
                        uint64_t Cells, unsigned Shots);
double chiSquareBound(uint64_t Cells);

/// Number of channel applications per shot of a model that puts one
/// channel on every qubit every gate touches.
uint64_t channelAppsPerShot(const asdf::Circuit &C);

/// Noisy-run checks for depolarizing probability \p P: the success
/// frequency lies between (1-p)^k P_ideal and that plus 1-(1-p)^k within
/// sampling error; ChannelApps == k * shots; ErrorBranches / ChannelApps
/// within a binomial bound of p.
bool checkNoisy(uint64_t Successes, uint64_t Shots, double PIdeal,
                uint64_t K, double P, uint64_t ChannelApps,
                uint64_t ErrorBranches, std::string &Why);

/// Service determinism: the daemon's shots \p Got equal, bit for bit, an
/// in-process runBatch \p Ref of \p C with the same seed.
bool checkSameShots(const std::vector<std::string> &Got, const asdf::Circuit &C,
                    const std::vector<asdf::ShotResult> &Ref,
                    std::string &Why);

/// One bind-run point of `'0' | ij.rotate($theta) | std.measure`: the
/// frequency of "1" is within a binomial bound of sin^2(theta/2).
bool checkRyPoint(double ThetaDeg, const std::vector<std::string> &Shots,
                  std::string &Why);

/// Total-variation distance between two empirical distributions of
/// \p Shots samples each.
double tvDistance(const std::map<std::string, unsigned> &A,
                  const std::map<std::string, unsigned> &B, unsigned Shots);

} // namespace pb

#endif // PERFBENCH_CHECKS_H
