//===- main.cpp - End-to-end and per-layer benchmark driver ---------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload compile|simulate|noisy|service --seed <n>
//             --seconds <s> --trace 0|1
//   perfbench --self-test
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when an output check fails.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace pb;

int runSelfTest();

namespace {

struct Metric {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric, in BENCHMARK.json order; a workload that does
/// not reach a layer reports 0 for it.
const Metric PerLayer[] = {
    {"ast.ms", "ms"},
    {"qwerty.ms", "ms"},
    {"qcirc.ms", "ms"},
    {"circuit.ms", "ms"},
    {"codegen.ms", "ms"},
    {"estimate.ms", "ms"},
    {"ir.qwerty_ops", "count"},
    {"ir.qcirc_ops", "count"},
    {"ir.circuit_gates", "count"},
    {"estimate.t_count", "gates"},
    {"sim.select_ms", "ms"},
    {"sim.fuse_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.amps_touched", "count"},
    {"sim.gate_kernels", "count"},
    {"sim.fused_ops", "count"},
    {"sim.amps_per_s", "amps/s"},
    {"sim.roofline_frac", "frac"},
    {"sim.spawn_us", "us"},
    {"noise.apps_per_shot", "count"},
    {"noise.error_branches", "count"},
    {"noise.us_per_app", "us"},
    {"service.rtt_compile_hit_ms", "ms"},
    {"service.rtt_compile_miss_ms", "ms"},
    {"service.rtt_run_ms", "ms"},
    {"service.rtt_bind_run_ms", "ms"},
    {"service.server_compile_s", "s"},
    {"service.hit_ratio", "frac"},
    {"service.coalesced", "count"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.dropped_spans", "count"},
    {"bench.probe_ms", "ms"},
    {"bench.raw_ops_per_s", "ops/s"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile|simulate|noisy|service "
               "--seed <n> --seconds <s> --trace 0|1\n"
               "       perfbench --self-test\n");
}

std::string num(double V) {
  // Only a failed run (already "correct": false) can produce a non-finite
  // value; keep the line valid JSON.
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.Start = Clock::now();
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--self-test")
      return runSelfTest();
    if (I + 1 >= Argc) {
      usage();
      return 2;
    }
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else {
      usage();
      return 2;
    }
  }
  if (!(O.Seconds > 0)) {
    usage();
    return 2;
  }

  Result R;
  if (O.Workload == "compile")
    R = runCompile(O);
  else if (O.Workload == "simulate")
    R = runSimulate(O);
  else if (O.Workload == "noisy")
    R = runNoisy(O);
  else if (O.Workload == "service")
    R = runService(O);
  else {
    usage();
    return 2;
  }
  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", F.c_str());

  const Phase &P = R.Timed;
  std::vector<double> Lat = P.scaledLatencies();
  double P50 = quantile(Lat, 0.5), P90 = quantile(Lat, 0.9);
  std::fprintf(stderr,
               "%s seed %llu: %zu ops in %zu rounds; raw %.6g ops/s, p50 "
               "%.6g ms, p90 %.6g ms; probe median %.6g ms; setup %.6g s\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               P.LatencyMs.size(), P.ProbeMs.size(), P.rawRate(),
               quantile(P.LatencyMs, 0.5), quantile(P.LatencyMs, 0.9),
               P.medianProbe(), R.SetupS);

  std::string Metrics;
  auto Add = [&](const char *Name, double Value, const char *Unit) {
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + Name +
               "\": {\"value\": " + num(Value) + ", \"unit\": \"" + Unit +
               "\"}";
  };
  if (!O.Trace) {
    Add("setup_s", R.SetupS * NominalProbeMs / P.medianProbe(), "s");
    Add("ops_per_s", P.scaledRate(), "ops/s");
    Add("latency_p50_ms", P50, "ms");
    Add("latency_p90_ms", P90, "ms");
    Add("peak_rss_mb", R.PeakRssMb, "MiB");
    Add("t_count", static_cast<double>(R.Totals.T), "gates");
    Add("cx_count", static_cast<double>(R.Totals.Cx), "gates");
    Add("qubit_count", static_cast<double>(R.Totals.Qubits), "qubits");
  } else {
    for (const Metric &M : PerLayer) {
      auto It = R.Layer.find(M.Name);
      Add(M.Name, It == R.Layer.end() ? 0.0 : It->second, M.Unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.correct() ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return R.correct() ? 0 : 1;
}
