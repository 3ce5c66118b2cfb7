//===- SelfTest.cpp - Every output check must reject a corrupted output ---===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// `perfbench --self-test` runs each check of Checks.h once on a genuine
// output, which it must accept, and once on a corrupted copy — a flipped
// bit, a shifted frequency or a wrong count — which it must reject. Exits
// nonzero if any check accepts a corruption or rejects the genuine output.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "codegen/QasmEmitter.h"
#include "compiler/CompileSession.h"
#include "sim/Simulator.h"

#include <cmath>
#include <cstdio>

using namespace pb;
using namespace asdf;

namespace {

unsigned Failures = 0;

void expect(const char *What, bool Accepted, bool WantAccepted,
            const std::string &Why) {
  bool Ok = Accepted == WantAccepted;
  Failures += !Ok;
  std::printf("%-4s %-58s %s%s\n", Ok ? "ok" : "FAIL", What,
              Accepted ? "accepted" : "rejected: ",
              Accepted ? "" : Why.c_str());
}

Circuit compileFlat(const Instance &I) {
  SessionOptions SO;
  SO.Entry = I.Prog.Entry;
  CompileSession S(I.Prog.Source, I.Prog.Bindings, SO);
  Circuit *C = S.flatCircuit();
  if (!C) {
    std::fprintf(stderr, "%s: %s\n", I.label().c_str(),
                 S.errorMessage().c_str());
    std::exit(2);
  }
  return *C;
}

std::string flipBit(std::string S, size_t K) {
  S[K] = S[K] == '1' ? '0' : '1';
  return S;
}

/// Draws \p Shots samples from \p Dist.
std::map<std::string, unsigned>
sample(const std::map<std::string, double> &Dist, unsigned Shots, Rng &R) {
  std::map<std::string, unsigned> Out;
  for (unsigned S = 0; S < Shots; ++S) {
    double U = (R.next() >> 11) * 0x1.0p-53, Acc = 0;
    std::string Pick = Dist.rbegin()->first;
    for (const auto &[Bits, P] : Dist)
      if ((Acc += P) > U) {
        Pick = Bits;
        break;
      }
    ++Out[Pick];
  }
  return Out;
}

} // namespace

int runSelfTest() {
  Rng R(7);
  std::string Why;
  Instance Bv = makeInstance(BenchAlgorithm::BV, 8, false, R);
  Instance Dj = makeInstance(BenchAlgorithm::DJ, 6, false, R);
  Instance Gr = makeInstance(BenchAlgorithm::Grover, 4, false, R);
  Instance Si = makeInstance(BenchAlgorithm::Simon, 5, false, R);
  Instance Pf = makeInstance(BenchAlgorithm::PeriodFinding, 5, false, R);

  // Emitted text against the circuit.
  Circuit GrC = compileFlat(Gr);
  std::string Qasm = emitOpenQasm3(GrC);
  expect("qasm: genuine Grover/4", checkQasmText(Qasm, GrC, Why), true, Why);
  {
    std::string NoT = Qasm;
    size_t At = NoT.find("\nt ");
    NoT.erase(At, NoT.find('\n', At + 1) - At);
    expect("qasm: one t line dropped (wrong count)",
           checkQasmText(NoT, GrC, Why), false, Why);
    std::string CxToCz = Qasm;
    CxToCz.replace(CxToCz.find("\ncx "), 4, "\ncz ");
    expect("qasm: a cx line turned into cz", checkQasmText(CxToCz, GrC, Why),
           false, Why);
    std::string Wide = Qasm;
    Wide.replace(Wide.find("qubit["), 6, "qubit[1");
    expect("qasm: wrong qubit declaration", checkQasmText(Wide, GrC, Why),
           false, Why);
  }

  // Reference statevector against known answers.
  for (const Instance *I : {&Bv, &Dj, &Gr, &Si, &Pf}) {
    std::map<std::string, double> Dist;
    bool Ok = referenceDistribution(compileFlat(*I), Dist, Why) &&
              checkExactDistribution(*I, Dist, Why);
    expect(("reference: genuine " + I->label()).c_str(), Ok, true, Why);
    if (!Ok)
      continue;
    // Corrupt the most likely outcome: flip its first bit.
    auto Top = Dist.begin();
    for (auto It = Dist.begin(); It != Dist.end(); ++It)
      if (It->second > Top->second)
        Top = It;
    std::map<std::string, double> Bad = Dist;
    double P = Top->second;
    Bad.erase(Top->first);
    Bad[flipBit(Top->first, 0)] += P;
    expect(("reference: flipped bit, " + I->label()).c_str(),
           checkExactDistribution(*I, Bad, Why), false, Why);
  }
  {
    std::map<std::string, double> Dist;
    referenceDistribution(GrC, Dist, Why);
    Dist[std::string(Gr.N, '1')] += 1e-6;
    expect("reference: Grover success shifted by 1e-6",
           checkExactDistribution(Gr, Dist, Why), false, Why);
  }

  // Known answers per shot.
  expect("shot: BV secret", checkShot(Bv, Bv.Secret, Why), true, Why);
  expect("shot: BV secret with a flipped bit",
         checkShot(Bv, flipBit(Bv.Secret, 3), Why), false, Why);
  expect("shot: DJ all ones", checkShot(Dj, "111111", Why), true, Why);
  expect("shot: DJ with a flipped bit", checkShot(Dj, "111011", Why), false,
         Why);
  expect("shot: Simon y.s = 0", checkShot(Si, "10110", Why), true, Why);
  expect("shot: Simon y.s = 1", checkShot(Si, "10111", Why), false, Why);
  expect("shot: period multiple of 2^N/r", checkShot(Pf, "10110", Why), true,
         Why);
  expect("shot: period off the multiples", checkShot(Pf, "10111", Why),
         false, Why);

  // Frequencies: Grover binomial bound, Simon chi-square.
  {
    const unsigned Shots = 4000;
    std::map<std::string, double> Dist;
    referenceDistribution(GrC, Dist, Why);
    std::map<std::string, unsigned> Counts = sample(Dist, Shots, R);
    expect("frequency: Grover/4 sampled",
           checkFrequencies(Gr, Counts, Shots, Why), true, Why);
    std::string Win(Gr.N, '1');
    unsigned Move = Shots / 20;
    Counts[Win] -= Move;
    Counts["0000"] += Move;
    expect("frequency: Grover success shifted by 5%",
           checkFrequencies(Gr, Counts, Shots, Why), false, Why);

    std::map<std::string, double> SiDist;
    referenceDistribution(compileFlat(Si), SiDist, Why);
    std::map<std::string, unsigned> SiCounts = sample(SiDist, Shots, R);
    expect("frequency: Simon/5 sampled",
           checkFrequencies(Si, SiCounts, Shots, Why), true, Why);
    // Move a third of each odd-valued outcome onto its neighbour.
    std::map<std::string, unsigned> Skewed = SiCounts;
    for (auto &[Bits, N] : SiCounts)
      if (Bits[0] == '1') {
        unsigned Move3 = N / 3;
        Skewed[Bits] -= Move3;
        Skewed[flipBit(Bits, 0)] += Move3;
      }
    expect("frequency: Simon skewed toward y0 = 0",
           checkFrequencies(Si, Skewed, Shots, Why), false, Why);
  }

  // Noisy-run bounds: k = 100 applications per shot at p = 1e-3.
  {
    const uint64_t K = 100, Shots = 10000, Apps = K * Shots;
    const double P = 1e-3;
    uint64_t Branches = static_cast<uint64_t>(Apps * P);
    uint64_t Succ = static_cast<uint64_t>(Shots * std::pow(1 - P, K) + 20);
    expect("noisy: consistent counts",
           checkNoisy(Succ, Shots, 1.0, K, P, Apps, Branches, Why), true, Why);
    expect("noisy: ChannelApps off by one",
           checkNoisy(Succ, Shots, 1.0, K, P, Apps + 1, Branches, Why), false,
           Why);
    expect("noisy: error branches doubled",
           checkNoisy(Succ, Shots, 1.0, K, P, Apps, 2 * Branches, Why), false,
           Why);
    expect("noisy: success frequency shifted down 10%",
           checkNoisy(Succ - Shots / 10, Shots, 1.0, K, P, Apps, Branches,
                      Why),
           false, Why);
  }

  // Cross-engine distance.
  {
    std::map<std::string, unsigned> A = {{"00", 500}, {"11", 500}};
    std::map<std::string, unsigned> B = {{"00", 450}, {"11", 550}};
    expect("tv: 0.05 apart is within 0.05", pb::tvDistance(A, B, 1000) <= 0.05,
           true, "");
    B = {{"00", 400}, {"11", 500}, {"01", 100}};
    expect("tv: 10% moved to a new outcome", pb::tvDistance(A, B, 1000) <= 0.05,
           false, "tv " + std::to_string(pb::tvDistance(A, B, 1000)));
  }

  // Service: shots bit-identical to runBatch; bind-run against sin^2.
  {
    Circuit DjC = compileFlat(Dj);
    std::vector<ShotResult> Ref =
        BackendRegistry::instance().select(DjC, BackendKind::Auto).runBatch(
            DjC, 16, 99);
    std::vector<std::string> Got;
    for (const ShotResult &S : Ref)
      Got.push_back(formatShotBits(DjC, S));
    expect("service: shots equal runBatch",
           checkSameShots(Got, DjC, Ref, Why), true, Why);
    Got[5] = flipBit(Got[5], 2);
    expect("service: one shot with a flipped bit",
           checkSameShots(Got, DjC, Ref, Why), false, Why);
    std::vector<std::string> Ry(400, "0");
    for (unsigned K = 0; K < 100; ++K)
      Ry[K] = "1";
    expect("bind-run: 100/400 ones at 60 deg", checkRyPoint(60, Ry, Why),
           true, Why);
    for (unsigned K = 100; K < 160; ++K)
      Ry[K] = "1";
    expect("bind-run: 160/400 ones at 60 deg", checkRyPoint(60, Ry, Why),
           false, Why);
  }

  std::printf("%u self-test failure(s)\n", Failures);
  return Failures ? 1 : 0;
}
