//===- Workloads.h - The benchmark's four workloads -----------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Checks.h"
#include "Common.h"

#include <map>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Process start, the zero of setup_s.
  Clock::time_point Start;
};

/// What one timed phase measured. A phase is a sequence of rounds; the
/// probe runs after each round, when no operation is in flight.
struct Phase {
  std::vector<double> LatencyMs; ///< One per operation.
  double BusyS = 0;              ///< Wall time with operations in flight.
  std::vector<double> ProbeMs;   ///< One per round.
  std::vector<size_t> RoundEnd;  ///< LatencyMs.size() at each round's end.
  std::vector<double> RoundBusyS;

  /// Closes a round: records its busy time, then runs the probe.
  void endRound() {
    double Before = 0;
    for (double S : RoundBusyS)
      Before += S;
    RoundBusyS.push_back(BusyS - Before);
    RoundEnd.push_back(LatencyMs.size());
    ProbeMs.push_back(runProbe());
  }

  double medianProbe() const { return quantile(ProbeMs, 0.5); }
  double rawRate() const { return BusyS > 0 ? LatencyMs.size() / BusyS : 0; }
  /// Each operation's time scaled by the probe of its own round to the
  /// nominal probe time.
  std::vector<double> scaledLatencies() const;
  /// The median over rounds of each round's rate, scaled the same way.
  double scaledRate() const;
};

struct Result {
  std::vector<std::string> Failures;
  /// Operations sent, and those that returned an error (any error also
  /// fails the run).
  uint64_t Attempted = 0, Failed = 0;
  double SetupS = 0;
  Phase Timed;
  GateCounts Totals;
  double PeakRssMb = 0;
  /// Per-layer metrics of a traced run, by name (README.md).
  std::map<std::string, double> Layer;

  void fail(const std::string &Why) {
    if (Failures.size() < 20)
      Failures.push_back(Why);
    else if (Failures.size() == 20)
      Failures.push_back("(further failures omitted)");
  }
  bool correct() const { return Failures.empty(); }
};

Result runCompile(const Options &O);
Result runSimulate(const Options &O);
Result runNoisy(const Options &O);
Result runService(const Options &O);

/// Peak resident set (VmHWM) of process \p Pid (0 = self), in MiB.
double peakRssMb(int Pid = 0);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
