//===- Workloads.cpp - The benchmark's four workloads ---------------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every workload is a closed loop: one caller (two for `service`) sends an
// operation and waits for it before sending the next. A run is made of
// whole rounds over a fixed operation list, so `attempted` is always a
// multiple of the round size. The probe runs between operations, never
// while one is in flight. Output checks run between operations too and
// are not part of any operation's time.
//
// A traced run (--trace 1) splits its time into an untraced half and a
// traced half; the per-layer metrics come from the traced half, and the
// ratio of the two halves' probe-scaled rates is the tracing overhead.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "codegen/QasmEmitter.h"
#include "codegen/QirEmitter.h"
#include "compiler/CompileSession.h"
#include "estimate/ResourceEstimator.h"
#include "noise/NoiseModel.h"
#include "noise/NoiseSpec.h"
#include "service/Client.h"
#include "sim/Fusion.h"
#include "sim/Simulator.h"
#include "support/Json.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace pb;
using namespace asdf;

namespace {

const char *OutDir = ".bench_out";

/// A phase runs whole rounds until its time is up and it holds at least
/// this many operations, so ten or more lie beyond the 90th percentile.
const size_t MinOps = 100;

double secondsSince(Clock::time_point T0) { return msSince(T0) / 1e3; }

void ensureOutDir() { ::mkdir(OutDir, 0755); }

void writeText(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
}

/// Runs \p Phase for \p Seconds untraced, or — in a traced run — half
/// untraced and half traced, recording the tracing overhead. Returns the
/// phase whose operations the end-to-end or per-layer metrics describe.
template <typename PhaseFn>
Phase runPhases(const Options &O, Result &R, PhaseFn RunPhase) {
  if (!O.Trace)
    return RunPhase(O.Seconds, false);
  Phase Plain = RunPhase(O.Seconds / 2, false);
  Tracer::get().enable(size_t(1) << 20);
  Phase Traced = RunPhase(O.Seconds / 2, true);
  R.Layer["obs.trace_overhead_frac"] =
      Plain.scaledRate() / Traced.scaledRate() - 1.0;
  R.Layer["bench.raw_ops_per_s"] = Plain.rawRate();
  R.Attempted += Plain.LatencyMs.size();
  return Traced;
}

/// Writes the traced run's Chrome trace and self-time table.
void writeTrace(const Options &O, Result &R, const Phase &Traced) {
  if (!O.Trace)
    return;
  ensureOutDir();
  std::string Base = std::string(OutDir) + "/" + O.Workload;
  if (!Tracer::get().writeChromeTrace(Base + "-trace.json"))
    R.fail("cannot write " + Base + "-trace.json");
  std::string Table = Tracer::get().selfTimeTable();
  writeText(Base + "-selftime.txt", Table);
  std::fprintf(stderr, "self time per span (%s):\n%s", O.Workload.c_str(),
               Table.c_str());
  R.Layer["obs.dropped_spans"] += Tracer::get().dropped();
  R.Layer["bench.probe_ms"] = Traced.medianProbe();
}

/// Mean wall time, in microseconds, of an empty parallelIndexLoop at two
/// jobs: the cost of starting and joining the simulator's workers.
double spawnMicros() {
  const unsigned Reps = 200;
  auto T0 = Clock::now();
  for (unsigned I = 0; I < Reps; ++I)
    parallelIndexLoop(2, 2, 1, [](uint64_t, uint64_t) {});
  return msSince(T0) * 1e3 / Reps;
}

/// In-place complex scaling over 2^21 amplitudes on two threads: the
/// memory bandwidth, in amplitudes per second, that dense kernels are
/// judged against.
double bandwidthAmpsPerS() {
  const size_t N = size_t(1) << 21;
  const unsigned Reps = 10;
  std::vector<std::complex<double>> V(N, {1.0, 0.5});
  const std::complex<double> F(0.999, 0.001);
  auto Work = [&](size_t Lo, size_t Hi) {
    for (unsigned Rep = 0; Rep < Reps; ++Rep)
      for (size_t I = Lo; I < Hi; ++I)
        V[I] *= F;
  };
  auto T0 = Clock::now();
  std::thread T(Work, 0, N / 2);
  Work(N / 2, N);
  T.join();
  return static_cast<double>(N) * Reps / secondsSince(T0);
}

/// Prints each program's median operation time, one row per program.
void printPerProgram(const std::vector<Instance> &Insts,
                     const std::vector<std::vector<double>> &Ms) {
  std::fprintf(stderr, "%-14s %8s %12s\n", "program", "ops", "median_ms");
  for (size_t K = 0; K < Insts.size(); ++K)
    if (!Ms[K].empty())
      std::fprintf(stderr, "%-14s %8zu %12.4f\n", Insts[K].label().c_str(),
                   Ms[K].size(), quantile(Ms[K], 0.5));
}

//===----------------------------------------------------------------------===//
// Compiling
//===----------------------------------------------------------------------===//

/// Per-stage wall times of compiles, summed.
struct StageMs {
  double Ast = 0, Qwerty = 0, QCirc = 0, Circuit = 0, Codegen = 0,
         Estimate = 0;
  uint64_t Compiles = 0;
};

/// The artifacts and IR sizes of one compile.
struct Compiled {
  std::unique_ptr<CompileSession> Session;
  std::string Artifact;
  ResourceEstimate Estimate;
  bool Ok = false;
};

/// One cold compile of \p I through CompileSession, to its artifact (QASM
/// for inlined programs, QIR callables for no-inline ones) followed by a
/// resource estimate where a flat circuit exists.
Compiled compileInstance(const Instance &I, bool CollectTimings, uint64_t Op,
                         StageMs &T) {
  // Operation 0 is a set-up or check compile: no spans.
  auto Name = [Op](const char *N) { return Op ? N : nullptr; };
  Span Whole(Name("compile"), Op);
  Compiled Out;
  SessionOptions SO;
  SO.Entry = I.Prog.Entry;
  SO.CollectTimings = CollectTimings;
  if (I.NoInline)
    SO.Plan.Qwerty = presetPlan("no-opt").Qwerty;
  Out.Session = std::make_unique<CompileSession>(I.Prog.Source,
                                                 I.Prog.Bindings, SO);
  CompileSession &S = *Out.Session;
  auto Lap = Clock::now();
  auto Stage = [&](double &Acc) {
    auto Now = Clock::now();
    Acc += std::chrono::duration<double, std::milli>(Now - Lap).count();
    Lap = Now;
  };
  bool Ok;
  {
    Span Sp(Name("ast"), Op);
    Ok = S.ast() != nullptr;
  }
  Stage(T.Ast);
  {
    Span Sp(Name("qwerty"), Op);
    Ok = Ok && S.qwertyIR() != nullptr;
  }
  Stage(T.Qwerty);
  {
    Span Sp(Name("qcirc"), Op);
    Ok = Ok && S.qcircIR() != nullptr;
  }
  Stage(T.QCirc);
  if (!I.NoInline) {
    Span Sp(Name("circuit"), Op);
    Ok = Ok && S.flatCircuit() != nullptr;
  }
  Stage(T.Circuit);
  if (Ok) {
    Span Sp(Name("codegen"), Op);
    Out.Artifact = I.NoInline ? emitQirUnrestricted(*S.qcircIR())
                              : emitOpenQasm3(*S.flatCircuit());
  }
  Stage(T.Codegen);
  if (Ok && !I.NoInline) {
    Span Sp(Name("estimate"), Op);
    Out.Estimate = estimateResources(*S.flatCircuit());
  }
  Stage(T.Estimate);
  ++T.Compiles;
  Out.Ok = Ok;
  return Out;
}

void reportStages(Result &R, const StageMs &T) {
  double N = T.Compiles ? static_cast<double>(T.Compiles) : 1.0;
  R.Layer["ast.ms"] = T.Ast / N;
  R.Layer["qwerty.ms"] = T.Qwerty / N;
  R.Layer["qcirc.ms"] = T.QCirc / N;
  R.Layer["circuit.ms"] = T.Circuit / N;
  R.Layer["codegen.ms"] = T.Codegen / N;
  R.Layer["estimate.ms"] = T.Estimate / N;
}

/// Adds one distinct program's gate counts (benchmark rule) and IR sizes.
void addProgram(Result &R, Compiled &C) {
  CompileSession &S = *C.Session;
  R.Layer["ir.qwerty_ops"] += unitStats(*S.qwertyIR()).Ops;
  R.Layer["ir.qcirc_ops"] += unitStats(*S.qcircIR()).Ops;
  if (Circuit *Flat = S.flatCircuit()) {
    GateCounts G = countGates(*Flat);
    R.Totals.T += G.T;
    R.Totals.Cx += G.Cx;
    R.Totals.Qubits += G.Qubits;
    R.Layer["ir.circuit_gates"] += Flat->Instrs.size();
    R.Layer["estimate.t_count"] += C.Estimate.TCount;
  }
}

/// QASM text and reference-statevector checks of one compiled instance.
void checkCompiled(Result &R, const Instance &I, Compiled &C,
                   const std::string &Qasm) {
  Circuit *Flat = C.Session->flatCircuit();
  std::string Why;
  if (!checkQasmText(Qasm, *Flat, Why))
    R.fail(I.label() + ": " + Why);
  if (Flat->NumQubits > 12)
    return;
  std::map<std::string, double> Dist;
  if (!referenceDistribution(*Flat, Dist, Why) ||
      !checkExactDistribution(I, Dist, Why))
    R.fail(I.label() + ": " + Why);
}

} // namespace

std::vector<double> Phase::scaledLatencies() const {
  std::vector<double> Out;
  size_t Begin = 0;
  for (size_t K = 0; K < RoundEnd.size(); ++K) {
    for (size_t I = Begin; I < RoundEnd[K]; ++I)
      Out.push_back(LatencyMs[I] * NominalProbeMs / ProbeMs[K]);
    Begin = RoundEnd[K];
  }
  return Out;
}

double Phase::scaledRate() const {
  std::vector<double> Rates;
  size_t Begin = 0;
  for (size_t K = 0; K < RoundEnd.size(); ++K) {
    Rates.push_back((RoundEnd[K] - Begin) / RoundBusyS[K] * ProbeMs[K] /
                    NominalProbeMs);
    Begin = RoundEnd[K];
  }
  return quantile(Rates, 0.5);
}

double pb::peakRssMb(int Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

Result pb::runCompile(const Options &O) {
  Result R;
  Rng Gen(O.Seed);
  // 25 instances, so the median and the 90th percentile of the latencies
  // fall inside one instance's samples rather than between two.
  std::vector<Instance> Insts;
  auto Add = [&](BenchAlgorithm A, std::initializer_list<unsigned> Ns,
                 bool NoInline) {
    for (unsigned N : Ns)
      Insts.push_back(makeInstance(A, N, NoInline, Gen));
  };
  Add(BenchAlgorithm::BV, {8, 12, 16, 24}, false);
  Add(BenchAlgorithm::DJ, {8, 12, 16}, false);
  Add(BenchAlgorithm::Grover, {4, 5, 6, 7, 8}, false);
  Add(BenchAlgorithm::Simon, {4, 5, 6, 8}, false);
  Add(BenchAlgorithm::PeriodFinding, {4, 5, 6, 8}, false);
  Add(BenchAlgorithm::BV, {8}, true);
  Add(BenchAlgorithm::DJ, {8}, true);
  Add(BenchAlgorithm::Grover, {6}, true);
  Add(BenchAlgorithm::Simon, {6}, true);
  Add(BenchAlgorithm::PeriodFinding, {6}, true);

  // Set-up: one untimed warm-up pass; its artifacts are the reference
  // every later compile of the same instance must reproduce.
  std::vector<Compiled> First;
  StageMs Warm;
  for (const Instance &I : Insts) {
    First.push_back(compileInstance(I, false, 0, Warm));
    if (!First.back().Ok)
      R.fail(I.label() + ": " + First.back().Session->errorMessage());
  }
  R.SetupS = secondsSince(O.Start);
  if (!R.correct())
    return R;

  std::map<std::string, double> PassSecs;
  StageMs Stages;
  uint64_t OpId = 0;
  std::vector<std::vector<double>> PerProgram(Insts.size());
  auto RunPhase = [&](double Secs, bool Traced) {
    Phase P;
    std::vector<size_t> Order(Insts.size());
    auto T0 = Clock::now();
    do {
      for (size_t K = 0; K < Order.size(); ++K)
        Order[K] = K;
      shuffle(Order, Gen);
      for (size_t K : Order) {
        auto Op0 = Clock::now();
        StageMs Scratch;
        Compiled C = compileInstance(Insts[K], Traced, ++OpId,
                                     Traced ? Stages : Scratch);
        double Ms = msSince(Op0);
        P.LatencyMs.push_back(Ms);
        P.BusyS += Ms / 1e3;
        PerProgram[K].push_back(Ms);
        R.Failed += !C.Ok;
        if (!C.Ok || C.Artifact != First[K].Artifact)
          R.fail(Insts[K].label() + ": compile differs from the warm-up");
        if (Traced)
          for (const PassTiming &PT : C.Session->timings())
            PassSecs[std::string(pipelineStageName(PT.Stage)) + ":" +
                     PT.PassName] += PT.Seconds;
      }
      P.endRound();
    } while (secondsSince(T0) < Secs || P.LatencyMs.size() < MinOps);
    return P;
  };
  R.Timed = runPhases(O, R, RunPhase);
  R.Attempted += R.Timed.LatencyMs.size();
  R.PeakRssMb = peakRssMb();
  printPerProgram(Insts, PerProgram);

  for (size_t K = 0; K < Insts.size(); ++K) {
    addProgram(R, First[K]);
    if (!Insts[K].NoInline)
      checkCompiled(R, Insts[K], First[K], First[K].Artifact);
  }
  if (O.Trace) {
    reportStages(R, Stages);
    R.Layer["sim.spawn_us"] = spawnMicros();
    std::ostringstream OS;
    for (const auto &[Name, Secs] : PassSecs)
      OS << Name << " " << Secs * 1e3 << " ms\n";
    ensureOutDir();
    writeText(std::string(OutDir) + "/compile-passes.txt", OS.str());
    std::fprintf(stderr, "per-pass time (traced half):\n%s",
                 OS.str().c_str());
    writeTrace(O, R, R.Timed);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// simulate and noisy
//===----------------------------------------------------------------------===//

namespace {

/// Shared body of the dense workloads: compiled instances run through the
/// dense engine at two workers, \p Shots shots per operation, with
/// \p Noise (null = ideal).
struct DenseSetup {
  std::vector<Instance> Insts;
  std::vector<Compiled> Programs;
  /// Operation list of one round: indices into Insts.
  std::vector<size_t> Round;
  unsigned Shots = 0;
  const NoiseModel *Noise = nullptr;
  double NoiseP = 0;
};

struct PerInstance {
  std::map<std::string, unsigned> Counts;
  uint64_t Shots = 0, Successes = 0, ChannelApps = 0, ErrorBranches = 0;
};

std::string successString(const Instance &I) {
  return I.Alg == BenchAlgorithm::BV ? I.Secret : std::string(I.N, '1');
}

void runDense(const Options &O, DenseSetup &D, Rng &Gen, Result &R) {
  StageMs Stages;
  for (const Instance &I : D.Insts) {
    D.Programs.push_back(compileInstance(I, false, 0, Stages));
    if (!D.Programs.back().Ok)
      R.fail(I.label() + ": " + D.Programs.back().Session->errorMessage());
  }
  R.SetupS = secondsSince(O.Start);
  if (!R.correct())
    return;

  SimBackend *Sv = BackendRegistry::instance().lookup("sv");
  std::vector<PerInstance> Seen(D.Insts.size());
  std::vector<std::vector<double>> PerProgram(D.Insts.size());
  SimStats Sim;
  double SelectMs = 0, FuseMs = 0, RunMs = 0;
  uint64_t TracedOps = 0, TracedShots = 0, TracedApps = 0,
           TracedBranches = 0;
  uint64_t OpId = 0;
  auto RunPhase = [&](double Secs, bool Traced) {
    Phase P;
    std::vector<size_t> Order = D.Round;
    auto T0 = Clock::now();
    do {
      shuffle(Order, Gen);
      for (size_t K : Order) {
        const Circuit &C = *D.Programs[K].Session->flatCircuit();
        uint64_t Seed = Gen.next();
        RunOptions RO;
        RO.Jobs = 2;
        RO.Noise = D.Noise;
        NoiseStats NS;
        RO.NoiseCounters = D.Noise ? &NS : nullptr;
        RO.SimCounters = Traced ? &Sim : nullptr;
        std::vector<ShotResult> Shots;
        auto Op0 = Clock::now();
        {
          Span Whole("sim.op", ++OpId);
          if (Traced) {
            // Backend selection and fusion, timed on their own; runBatch
            // below repeats both internally.
            auto S0 = Clock::now();
            {
              Span Sp("sim.select", OpId);
              BackendRegistry::instance().select(C, BackendKind::Auto,
                                                 nullptr, D.Noise);
            }
            auto F0 = Clock::now();
            {
              Span Sp("sim.fuse", OpId);
              fuseCircuit(C, D.Noise, RO.FuseMaxQubits);
            }
            SelectMs += std::chrono::duration<double, std::milli>(F0 - S0)
                            .count();
            FuseMs += msSince(F0);
          }
          Span Sp("sim.run", OpId);
          auto R0 = Clock::now();
          Shots = Sv->runBatch(C, D.Shots, Seed, RO);
          if (Traced)
            RunMs += msSince(R0);
        }
        double Ms = msSince(Op0);
        P.LatencyMs.push_back(Ms);
        P.BusyS += Ms / 1e3;
        PerProgram[K].push_back(Ms);

        const Instance &I = D.Insts[K];
        PerInstance &S = Seen[K];
        std::string Want = successString(I), Why;
        for (const ShotResult &Shot : Shots) {
          std::string Bits = formatShotBits(C, Shot);
          ++S.Counts[Bits];
          S.Successes += Bits == Want;
          if (!D.Noise && !checkShot(I, Bits, Why))
            R.fail(Why);
        }
        S.Shots += Shots.size();
        S.ChannelApps += NS.ChannelApps.load();
        S.ErrorBranches += NS.ErrorBranches.load();
        if (Shots.size() != D.Shots)
          R.fail(I.label() + ": run returned too few shots");
        if (Traced) {
          ++TracedOps;
          TracedShots += Shots.size();
          TracedApps += NS.ChannelApps.load();
          TracedBranches += NS.ErrorBranches.load();
        }
      }
      P.endRound();
    } while (secondsSince(T0) < Secs || P.LatencyMs.size() < MinOps);
    return P;
  };
  R.Timed = runPhases(O, R, RunPhase);
  R.Attempted += R.Timed.LatencyMs.size();
  R.PeakRssMb = peakRssMb();
  printPerProgram(D.Insts, PerProgram);

  // Output checks over everything the run sampled.
  std::vector<bool> Counted(D.Insts.size(), false);
  for (size_t K : D.Round) {
    if (Counted[K])
      continue;
    Counted[K] = true;
    const Instance &I = D.Insts[K];
    Compiled &Prog = D.Programs[K];
    const Circuit &C = *Prog.Session->flatCircuit();
    addProgram(R, Prog);
    checkCompiled(R, I, Prog, emitOpenQasm3(C));
    const PerInstance &S = Seen[K];
    std::string Why;
    if (!D.Noise) {
      if (!checkFrequencies(I, S.Counts, S.Shots, Why))
        R.fail(Why);
      continue;
    }
    double PIdeal =
        I.Alg == BenchAlgorithm::Grover ? groverSuccess(I.N) : 1.0;
    if (!checkNoisy(S.Successes, S.Shots, PIdeal, channelAppsPerShot(C),
                    D.NoiseP, S.ChannelApps, S.ErrorBranches, Why))
      R.fail(I.label() + ": " + Why);
  }

  if (O.Trace) {
    reportStages(R, Stages);
    double Ops = TracedOps ? static_cast<double>(TracedOps) : 1.0;
    R.Layer["sim.select_ms"] = SelectMs / Ops;
    R.Layer["sim.fuse_ms"] = FuseMs / Ops;
    R.Layer["sim.run_ms"] = RunMs / Ops;
    R.Layer["sim.amps_touched"] = Sim.AmplitudesTouched / Ops;
    R.Layer["sim.gate_kernels"] = Sim.GatesApplied / Ops;
    R.Layer["sim.fused_ops"] = Sim.FusedOps / Ops;
    double AmpsPerS = Sim.AmplitudesTouched / (RunMs / 1e3);
    R.Layer["sim.amps_per_s"] = AmpsPerS;
    R.Layer["sim.roofline_frac"] = AmpsPerS / bandwidthAmpsPerS();
    R.Layer["sim.spawn_us"] = spawnMicros();
    if (D.Noise && TracedShots) {
      R.Layer["noise.apps_per_shot"] =
          static_cast<double>(TracedApps) / TracedShots;
      R.Layer["noise.error_branches"] =
          static_cast<double>(TracedBranches) / TracedShots;
      R.Layer["noise.us_per_app"] = RunMs * 1e3 / TracedApps;
    }
    writeTrace(O, R, R.Timed);
  }
}

} // namespace

Result pb::runSimulate(const Options &O) {
  Result R;
  Rng Gen(O.Seed);
  DenseSetup D;
  // 13-17 qubits, with operation times about twice apart, so the median
  // and the 90th percentile each sit inside one program's samples. Grover
  // is gate-heavy (fusion and kernels); the others are short circuits
  // whose time goes to the measurement and fork tail.
  D.Insts.push_back(makeInstance(BenchAlgorithm::BV, 12, false, Gen));
  D.Insts.push_back(makeInstance(BenchAlgorithm::Simon, 7, false, Gen));
  D.Insts.push_back(makeInstance(BenchAlgorithm::Grover, 8, false, Gen));
  D.Insts.push_back(makeInstance(BenchAlgorithm::PeriodFinding, 8, false,
                                 Gen));
  D.Insts.push_back(makeInstance(BenchAlgorithm::DJ, 16, false, Gen));
  D.Round = {0, 1, 2, 3, 4};
  D.Shots = 64;
  runDense(O, D, Gen, R);
  return R;
}

Result pb::runNoisy(const Options &O) {
  Result R;
  Rng Gen(O.Seed);
  DenseSetup D;
  D.NoiseP = 1e-4;
  D.Insts.push_back(makeInstance(BenchAlgorithm::Grover, 6, false, Gen));
  D.Insts.push_back(makeInstance(BenchAlgorithm::BV, 10, false, Gen));
  D.Insts.push_back(makeInstance(BenchAlgorithm::BV, 11, false, Gen));
  D.Insts.push_back(makeInstance(BenchAlgorithm::BV, 9, false, Gen));
  // Grover twice per round: it carries most of the channel applications.
  D.Round = {0, 0, 1, 2, 3};
  D.Shots = 8;
  NoiseModel Model;
  std::string Err;
  char Spec[64];
  std::snprintf(Spec, sizeof(Spec), "[gate:*]\ndepolarizing = %g\n", D.NoiseP);
  if (!parseNoiseSpec(Spec, Model, Err)) {
    R.fail("noise spec: " + Err);
    return R;
  }
  D.Noise = &Model;
  runDense(O, D, Gen, R);
  if (!R.correct())
    return R;

  // Clifford BV under the same model: dense trajectories and stabilizer
  // Pauli frames must sample the same distribution.
  const Circuit &Bv = *D.Programs[1].Session->flatCircuit();
  const unsigned Shots = 4000;
  RunOptions RO;
  RO.Jobs = 2;
  RO.Noise = &Model;
  std::map<std::string, unsigned> FromSv, FromStab;
  uint64_t Seed = Gen.next();
  for (const ShotResult &S :
       BackendRegistry::instance().lookup("sv")->runBatch(Bv, Shots, Seed,
                                                          RO))
    ++FromSv[formatShotBits(Bv, S)];
  for (const ShotResult &S :
       BackendRegistry::instance().lookup("stab")->runBatch(Bv, Shots,
                                                            Seed + 1, RO))
    ++FromStab[formatShotBits(Bv, S)];
  double Tv = pb::tvDistance(FromSv, FromStab, Shots);
  if (Tv > 0.05)
    R.fail("noisy BV: sv and stab differ by TV " + std::to_string(Tv));
  return R;
}

//===----------------------------------------------------------------------===//
// service
//===----------------------------------------------------------------------===//

namespace {

/// An asdfd child process on a unix socket in the output directory.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }

  bool start(const std::string &TracePath, std::string &Err) {
    ensureOutDir();
    Socket = std::string(OutDir) + "/asdfd-" + std::to_string(::getpid()) +
             (TracePath.empty() ? "" : "-t") + ".sock";
    ::unlink(Socket.c_str());
    Pid = ::fork();
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    if (Pid == 0) {
      // Die with the benchmark, and keep its stdout for the result line.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(2, 1);
      // A 1 MiB cache fills with cold compiles within seconds and then
      // evicts, so the daemon's memory does not grow with the run length.
      std::vector<const char *> Argv = {"asdfd",     "--socket",
                                        Socket.c_str(), "--workers",
                                        "2",         "--cache-mb",
                                        "1"};
      if (!TracePath.empty()) {
        Argv.push_back("--trace");
        Argv.push_back(TracePath.c_str());
      }
      Argv.push_back(nullptr);
      ::execv(PERFBENCH_ASDFD_PATH, const_cast<char *const *>(Argv.data()));
      _exit(127);
    }
    // Wait for the first answer.
    for (int Try = 0; Try < 1000; ++Try) {
      ServiceClient C;
      std::string E;
      ServiceRequest Q;
      Q.TheKind = ServiceRequest::Kind::Stats;
      ServiceResponse A;
      if (C.connect(Socket, E) && C.call(Q, A, E, 10.0) && A.Ok)
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "asdfd exited during start-up";
        return false;
      }
      ::usleep(10 * 1000);
    }
    Err = "asdfd did not answer";
    return false;
  }

  /// Drains the daemon with a shutdown request and waits for it.
  bool stop(std::string &Err) {
    ServiceClient C;
    ServiceRequest Q;
    Q.TheKind = ServiceRequest::Kind::Shutdown;
    ServiceResponse A;
    if (!C.connect(Socket, Err) || !C.call(Q, A, Err, 30.0))
      return false;
    C.close();
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      Err = "asdfd exited abnormally";
      return false;
    }
    return true;
  }

  int pid() const { return Pid; }
  const std::string &socket() const { return Socket; }

private:
  pid_t Pid = -1;
  std::string Socket;
};

enum class ReqKind { Hit, Miss, Run, BindRun };

const char *reqKindName(ReqKind K) {
  switch (K) {
  case ReqKind::Hit:
    return "client.compile_hit";
  case ReqKind::Miss:
    return "client.compile_miss";
  case ReqKind::Run:
    return "client.run";
  case ReqKind::BindRun:
    return "client.bind_run";
  }
  return "client";
}

struct Planned {
  ReqKind Kind = ReqKind::Hit;
  size_t Inst = 0; ///< Into the warm, run or cold instance list.
  ServiceRequest Req;
  ServiceResponse Resp;
  std::string Error;
  double Ms = 0;
};

ServiceRequest programRequest(const Instance &I, ServiceRequest::Kind K) {
  ServiceRequest Q;
  Q.TheKind = K;
  Q.Source = I.Prog.Source;
  Q.Entry = I.Prog.Entry;
  Q.Bindings = I.Prog.Bindings;
  return Q;
}

const char *RyProgram = "qpu kernel() -> bit {\n"
                        "    return '0' | ij.rotate($theta) | std.measure\n"
                        "}\n";

/// The request mix: warm compiles (hits), cold compiles of BV with a
/// never-used secret (misses and inserts), small runs on stabilizer and
/// dense programs, and bind-run sweeps of an RY program.
struct ServiceMix {
  std::vector<Instance> Warm, Runs;
  std::vector<std::string> WarmQasm;
  std::vector<Compiled> RunPrograms;
  std::vector<Instance> Cold; ///< Every cold compile sent, in order.
  uint64_t ColdBase = 0;
  static constexpr unsigned ColdN = 20, RunShots = 256, SweepShots = 64;

  Instance nextCold() {
    uint64_t Space = binomial(ColdN, ColdN / 2);
    Cold.push_back(makeBvInstance(
        ColdN, unrankCombination(ColdN, ColdN / 2,
                                 (ColdBase + Cold.size()) % Space)));
    return Cold.back();
  }

  /// One round of 25 requests in seeded order: 10 hits, 5 misses, 5 runs,
  /// 5 sweeps. 25 keeps the median and the 90th percentile inside one
  /// request kind's samples.
  std::vector<Planned> round(Rng &Gen, uint64_t &NextId) {
    std::vector<Planned> Out;
    for (unsigned K = 0; K < 10; ++K) {
      Planned P;
      P.Kind = ReqKind::Hit;
      P.Inst = K % Warm.size();
      P.Req = programRequest(Warm[P.Inst], ServiceRequest::Kind::Compile);
      Out.push_back(std::move(P));
    }
    for (unsigned K = 0; K < 5; ++K) {
      Planned P;
      P.Kind = ReqKind::Miss;
      P.Inst = Cold.size();
      P.Req = programRequest(nextCold(), ServiceRequest::Kind::Compile);
      Out.push_back(std::move(P));
    }
    for (unsigned K = 0; K < 5; ++K) {
      Planned P;
      P.Kind = ReqKind::Run;
      P.Inst = K % Runs.size();
      P.Req = programRequest(Runs[P.Inst], ServiceRequest::Kind::Run);
      P.Req.Shots = RunShots;
      P.Req.Seed = Gen.next();
      Out.push_back(std::move(P));
    }
    for (unsigned K = 0; K < 5; ++K) {
      Planned P;
      P.Kind = ReqKind::BindRun;
      P.Req.TheKind = ServiceRequest::Kind::BindRun;
      P.Req.Source = RyProgram;
      P.Req.SweepParams = {"theta"};
      for (unsigned Pt = 0; Pt < 4; ++Pt)
        P.Req.Points.push_back({static_cast<double>(Gen.below(181))});
      P.Req.Shots = SweepShots;
      P.Req.Seed = Gen.next();
      Out.push_back(std::move(P));
    }
    shuffle(Out, Gen);
    for (Planned &P : Out)
      P.Req.Id = ++NextId;
    return Out;
  }
};

/// Sends \p Reqs[K] for K = First, First+2, ... over connection \p C, each
/// after the previous answer arrived.
void clientLoop(ServiceClient &C, std::vector<Planned> &Reqs, size_t First) {
  for (size_t K = First; K < Reqs.size(); K += 2) {
    Planned &P = Reqs[K];
    Span Sp(reqKindName(P.Kind), P.Req.Id);
    auto T0 = Clock::now();
    if (!C.call(P.Req, P.Resp, P.Error, 60.0) && P.Error.empty())
      P.Error = "transport failure";
    P.Ms = msSince(T0);
  }
}

/// Checks one answered request against independent computations.
void checkResponse(Result &R, ServiceMix &Mix, const Planned &P) {
  std::string Why;
  if (!P.Error.empty() || !P.Resp.Ok) {
    ++R.Failed;
    R.fail("service request failed: " +
           (P.Error.empty() ? P.Resp.Error.Message : P.Error));
    return;
  }
  switch (P.Kind) {
  case ReqKind::Hit:
    if (P.Resp.Artifact != Mix.WarmQasm[P.Inst])
      R.fail("service: warm artifact differs from the primed one");
    break;
  case ReqKind::Miss: {
    if (P.Resp.CacheHit)
      R.fail("service: first request for a new key reported a hit");
    StageMs Unused;
    Compiled C = compileInstance(Mix.Cold[P.Inst], false, 0, Unused);
    if (!C.Ok || !checkQasmText(P.Resp.Artifact, *C.Session->flatCircuit(),
                                Why))
      R.fail("service cold compile: " + Why);
    break;
  }
  case ReqKind::Run: {
    const Instance &I = Mix.Runs[P.Inst];
    const Circuit &C = *Mix.RunPrograms[P.Inst].Session->flatCircuit();
    RunOptions RO;
    RO.Jobs = 1;
    std::vector<ShotResult> Ref =
        BackendRegistry::instance()
            .select(C, BackendKind::Auto)
            .runBatch(C, P.Req.Shots, P.Req.Seed, RO);
    if (!checkSameShots(P.Resp.Results, C, Ref, Why)) {
      R.fail("service run " + I.label() + ": " + Why);
      break;
    }
    std::map<std::string, unsigned> Counts;
    for (const std::string &Bits : P.Resp.Results) {
      if (!checkShot(I, Bits, Why))
        R.fail("service run: " + Why);
      ++Counts[Bits];
    }
    if (!checkFrequencies(I, Counts, Ref.size(), Why))
      R.fail("service run: " + Why);
    break;
  }
  case ReqKind::BindRun:
    if (P.Resp.PointResults.size() != P.Req.Points.size()) {
      R.fail("service bind-run: wrong number of points");
      break;
    }
    for (size_t Pt = 0; Pt < P.Req.Points.size(); ++Pt)
      if (P.Resp.PointResults[Pt].size() != P.Req.Shots ||
          !checkRyPoint(P.Req.Points[Pt][0], P.Resp.PointResults[Pt], Why))
        R.fail("service bind-run: " + Why);
    break;
  }
}

/// Sends the warm set once so later compiles of it are hits.
bool primeWarmSet(const Daemon &D, ServiceMix &Mix, Result &R) {
  ServiceClient C;
  std::string Err;
  if (!C.connect(D.socket(), Err)) {
    R.fail("connect: " + Err);
    return false;
  }
  Mix.WarmQasm.clear();
  for (const Instance &I : Mix.Warm) {
    ServiceRequest Q = programRequest(I, ServiceRequest::Kind::Compile);
    ServiceResponse A;
    if (!C.call(Q, A, Err, 60.0) || !A.Ok) {
      R.fail("priming " + I.label() + " failed");
      return false;
    }
    Mix.WarmQasm.push_back(A.Artifact);
  }
  return true;
}

/// Counts, per thread, the spans of the daemon's exported trace; a thread
/// at the 8192-span ring limit has dropped spans.
uint64_t daemonThreadsAtSpanLimit(const std::string &Path, Result &R) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  json::Value Doc;
  std::string Err;
  if (!json::parse(Buf.str(), Doc, Err) || !Doc.get("traceEvents")) {
    R.fail("daemon trace " + Path + " unreadable: " + Err);
    return 0;
  }
  std::map<uint64_t, uint64_t> PerTid;
  for (const json::Value &Ev : Doc.get("traceEvents")->elements())
    if (const json::Value *Tid = Ev.get("tid"))
      ++PerTid[Tid->asU64()];
  uint64_t Full = 0;
  for (const auto &KV : PerTid)
    Full += KV.second >= 8192;
  return Full;
}

} // namespace

Result pb::runService(const Options &O) {
  Result R;
  Rng Gen(O.Seed);
  ServiceMix Mix;
  Mix.Warm = {makeInstance(BenchAlgorithm::Grover, 6, false, Gen),
              makeInstance(BenchAlgorithm::PeriodFinding, 8, false, Gen),
              makeInstance(BenchAlgorithm::Simon, 8, false, Gen),
              makeInstance(BenchAlgorithm::DJ, 12, false, Gen),
              makeInstance(BenchAlgorithm::BV, 12, false, Gen)};
  // At most 12 qubits: BV, DJ and Simon are stabilizer-eligible, Grover
  // and period finding take the dense engine.
  Mix.Runs = {makeInstance(BenchAlgorithm::BV, 10, false, Gen),
              makeInstance(BenchAlgorithm::DJ, 8, false, Gen),
              makeInstance(BenchAlgorithm::Simon, 5, false, Gen),
              makeInstance(BenchAlgorithm::Grover, 5, false, Gen),
              makeInstance(BenchAlgorithm::PeriodFinding, 4, false, Gen)};
  Mix.ColdBase = Gen.below(binomial(ServiceMix::ColdN, ServiceMix::ColdN / 2));

  Daemon Main;
  std::string Err;
  if (!Main.start("", Err) || !primeWarmSet(Main, Mix, R)) {
    R.fail("service set-up: " + Err);
    return R;
  }
  R.SetupS = secondsSince(O.Start);

  // In-process references for the output checks (not part of set-up).
  StageMs Unused;
  for (const Instance &I : Mix.Runs)
    Mix.RunPrograms.push_back(compileInstance(I, false, 0, Unused));
  for (size_t K = 0; K < Mix.Warm.size(); ++K) {
    Compiled C = compileInstance(Mix.Warm[K], false, 0, Unused);
    checkCompiled(R, Mix.Warm[K], C, Mix.WarmQasm[K]);
    addProgram(R, C);
  }
  for (Compiled &C : Mix.RunPrograms)
    addProgram(R, C);
  {
    // One representative cold-compile program: every secret has the
    // same weight, so the counts do not depend on which.
    Compiled C = compileInstance(makeBvInstance(ServiceMix::ColdN,
                                                unrankCombination(
                                                    ServiceMix::ColdN,
                                                    ServiceMix::ColdN / 2, 0)),
                                 false, 0, Unused);
    addProgram(R, C);
  }

  uint64_t NextId = 0;
  std::map<ReqKind, std::vector<double>> KindMs;
  std::map<std::string, std::vector<double>> PerRequest;
  double ServerCompileS = 0;
  uint64_t CompileReqs = 0, Hits = 0;
  // The daemon keeps 8192 spans per thread; a traced half stays well
  // below that.
  const unsigned MaxTracedRounds = 12;
  auto RunOn = [&](const Daemon &D, double Secs, bool Traced) {
    Phase P;
    // The two client connections, open for the whole phase.
    ServiceClient First, Second;
    std::string Err;
    if (!First.connect(D.socket(), Err) || !Second.connect(D.socket(), Err)) {
      R.fail("connect: " + Err);
      return P;
    }
    unsigned Rounds = 0;
    auto T0 = Clock::now();
    do {
      std::vector<Planned> Reqs = Mix.round(Gen, NextId);
      auto R0 = Clock::now();
      std::thread Other(clientLoop, std::ref(Second), std::ref(Reqs),
                        size_t(1));
      clientLoop(First, Reqs, 0);
      Other.join();
      P.BusyS += secondsSince(R0);
      for (const Planned &Q : Reqs) {
        P.LatencyMs.push_back(Q.Ms);
        PerRequest[std::string(reqKindName(Q.Kind)) + " " +
                   (Q.Kind == ReqKind::Hit    ? Mix.Warm[Q.Inst].label()
                    : Q.Kind == ReqKind::Run ? Mix.Runs[Q.Inst].label()
                                             : std::string())]
            .push_back(Q.Ms);
        checkResponse(R, Mix, Q);
        if (!Traced)
          continue;
        KindMs[Q.Kind].push_back(Q.Ms);
        ServerCompileS += Q.Resp.CompileSecs;
        if (Q.Kind == ReqKind::Hit || Q.Kind == ReqKind::Miss) {
          ++CompileReqs;
          Hits += Q.Resp.CacheHit;
        }
      }
      P.endRound();
      ++Rounds;
    } while ((secondsSince(T0) < Secs || P.LatencyMs.size() < MinOps) &&
             (!Traced || Rounds < MaxTracedRounds));
    return P;
  };

  // In a traced run this is the untraced half.
  R.Timed = RunOn(Main, O.Trace ? O.Seconds / 2 : O.Seconds, false);
  R.Attempted += R.Timed.LatencyMs.size();
  if (O.Trace)
    R.Layer["bench.raw_ops_per_s"] = R.Timed.rawRate();
  R.PeakRssMb = peakRssMb(Main.pid());
  std::fprintf(stderr, "%-34s %8s %12s\n", "request", "ops", "median_ms");
  for (const auto &[Name, Ms] : PerRequest)
    std::fprintf(stderr, "%-34s %8zu %12.4f\n", Name.c_str(), Ms.size(),
                 quantile(Ms, 0.5));
  if (!Main.stop(Err))
    R.fail("service shutdown: " + Err);
  if (!O.Trace || !R.correct())
    return R;

  // Traced half: a second daemon with its own tracing on.
  ensureOutDir();
  std::string DaemonTrace = std::string(OutDir) + "/service-daemon-trace.json";
  Daemon Traced;
  Tracer::get().enable(size_t(1) << 20);
  if (!Traced.start(DaemonTrace, Err) || !primeWarmSet(Traced, Mix, R)) {
    R.fail("traced daemon: " + Err);
    return R;
  }
  Phase TP = RunOn(Traced, O.Seconds / 2, true);
  R.Attempted += TP.LatencyMs.size();
  R.Layer["obs.trace_overhead_frac"] =
      R.Timed.scaledRate() / TP.scaledRate() - 1.0;
  {
    ServiceClient C;
    ServiceRequest Q;
    Q.TheKind = ServiceRequest::Kind::Stats;
    ServiceResponse A;
    if (C.connect(Traced.socket(), Err) && C.call(Q, A, Err, 30.0) && A.Ok) {
      const json::Value *Req = A.StatsBody.get("requests");
      const json::Value *Co = Req ? Req->get("coalesced") : nullptr;
      R.Layer["service.coalesced"] = Co ? Co->asDouble() : 0.0;
    } else {
      R.fail("stats request failed: " + Err);
    }
  }
  if (!Traced.stop(Err))
    R.fail("traced daemon shutdown: " + Err);
  R.Layer["obs.dropped_spans"] = daemonThreadsAtSpanLimit(DaemonTrace, R);
  R.Layer["service.rtt_compile_hit_ms"] = quantile(KindMs[ReqKind::Hit], 0.5);
  R.Layer["service.rtt_compile_miss_ms"] =
      quantile(KindMs[ReqKind::Miss], 0.5);
  R.Layer["service.rtt_run_ms"] = quantile(KindMs[ReqKind::Run], 0.5);
  R.Layer["service.rtt_bind_run_ms"] =
      quantile(KindMs[ReqKind::BindRun], 0.5);
  R.Layer["service.server_compile_s"] = ServerCompileS;
  R.Layer["service.hit_ratio"] =
      CompileReqs ? static_cast<double>(Hits) / CompileReqs : 0.0;
  R.Layer["sim.spawn_us"] = spawnMicros();
  writeTrace(O, R, TP);
  return R;
}
