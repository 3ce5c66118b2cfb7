//===- Checks.cpp - Independent output checks of the benchmark ------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "sim/Simulator.h"

#include <cmath>
#include <complex>
#include <sstream>

using namespace pb;
using asdf::BenchAlgorithm;
using asdf::Circuit;
using asdf::CircuitInstr;
using asdf::GateKind;

namespace {

using Amp = std::complex<double>;

bool isQuarterTurn(double Theta) {
  double R = Theta / (M_PI / 2);
  return std::fabs(R - std::nearbyint(R)) < 1e-9;
}

bool isRotation(GateKind G) {
  return G == GateKind::P || G == GateKind::RX || G == GateKind::RY ||
         G == GateKind::RZ;
}

/// 2x2 matrix of a single-qubit gate, row-major.
bool gateMatrix(GateKind G, double Th, Amp M[4]) {
  const Amp I(0, 1);
  switch (G) {
  case GateKind::X:
    M[0] = 0, M[1] = 1, M[2] = 1, M[3] = 0;
    return true;
  case GateKind::Y:
    M[0] = 0, M[1] = -I, M[2] = I, M[3] = 0;
    return true;
  case GateKind::Z:
    M[0] = 1, M[1] = 0, M[2] = 0, M[3] = -1;
    return true;
  case GateKind::H: {
    double R = 1 / std::sqrt(2.0);
    M[0] = R, M[1] = R, M[2] = R, M[3] = -R;
    return true;
  }
  case GateKind::S:
  case GateKind::Sdg:
  case GateKind::T:
  case GateKind::Tdg:
  case GateKind::P: {
    double Phase = G == GateKind::S     ? M_PI / 2
                   : G == GateKind::Sdg ? -M_PI / 2
                   : G == GateKind::T   ? M_PI / 4
                   : G == GateKind::Tdg ? -M_PI / 4
                                        : Th;
    M[0] = 1, M[1] = 0, M[2] = 0, M[3] = std::exp(I * Phase);
    return true;
  }
  case GateKind::RX:
    M[0] = std::cos(Th / 2), M[1] = -I * std::sin(Th / 2);
    M[2] = -I * std::sin(Th / 2), M[3] = std::cos(Th / 2);
    return true;
  case GateKind::RY:
    M[0] = std::cos(Th / 2), M[1] = -std::sin(Th / 2);
    M[2] = std::sin(Th / 2), M[3] = std::cos(Th / 2);
    return true;
  case GateKind::RZ:
    M[0] = std::exp(-I * (Th / 2)), M[1] = 0;
    M[2] = 0, M[3] = std::exp(I * (Th / 2));
    return true;
  case GateKind::Swap:
    return false;
  }
  return false;
}

std::string allOnes(unsigned N) { return std::string(N, '1'); }

/// Simon: y is valid iff it is 0 wherever the mask is 0 (y.s = 0 for every
/// s in the kernel of x -> x & mask).
bool simonValid(const Instance &I, const std::string &Y) {
  if (Y.size() != I.Mask.size())
    return false;
  for (size_t K = 0; K < Y.size(); ++K)
    if (I.Mask[K] == '0' && Y[K] != '0')
      return false;
  return true;
}

uint64_t simonCells(const Instance &I) {
  uint64_t Ones = 0;
  for (char C : I.Mask)
    Ones += C == '1';
  return uint64_t(1) << Ones;
}

/// Period finding with f(x) = x & mask, mask = 0..01..1 (m low ones, first
/// character most significant): f(x) = x mod 2^m, so r = 2^m and every
/// measured phase is a multiple of 2^N / r.
bool periodStep(const Instance &I, uint64_t &Step, uint64_t &R) {
  unsigned M = 0;
  for (char C : I.Mask)
    M += C == '1';
  if (I.Mask != std::string(I.N - M, '0') + std::string(M, '1'))
    return false;
  R = uint64_t(1) << M;
  Step = (uint64_t(1) << I.N) / R;
  return true;
}

uint64_t bitsValue(const std::string &Bits) {
  uint64_t V = 0;
  for (char C : Bits)
    V = V * 2 + (C == '1');
  return V;
}

} // namespace

GateCounts pb::countGates(const Circuit &C) {
  GateCounts G;
  G.Qubits = C.NumQubits;
  for (const CircuitInstr &I : C.Instrs) {
    if (I.TheKind != CircuitInstr::Kind::Gate)
      continue;
    bool IsT = I.Gate == GateKind::T || I.Gate == GateKind::Tdg;
    if (IsT)
      ++G.T;
    else if (isRotation(I.Gate) &&
             (I.isSymbolic() || !isQuarterTurn(I.Param)))
      ++G.T;
    if (IsT && I.Controls.empty() && I.CondBit < 0)
      ++G.PlainT;
    if (I.Gate == GateKind::X && I.Controls.size() == 1)
      ++G.Cx;
  }
  return G;
}

bool pb::checkQasmText(const std::string &Qasm, const Circuit &C,
                       std::string &Why) {
  GateCounts G = countGates(C);
  uint64_t TLines = 0, CxLines = 0, Declared = 0;
  std::istringstream In(Qasm);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("if (", 0) == 0) {
      size_t Brace = Line.find("{ ");
      if (Brace == std::string::npos)
        continue;
      Line = Line.substr(Brace + 2);
    }
    if (Line.rfind("t ", 0) == 0 || Line.rfind("tdg ", 0) == 0)
      ++TLines;
    else if (Line.rfind("cx ", 0) == 0)
      ++CxLines;
    else if (Line.rfind("qubit[", 0) == 0)
      Declared = std::strtoull(Line.c_str() + 6, nullptr, 10);
  }
  std::ostringstream OS;
  if (TLines != G.PlainT)
    OS << "qasm has " << TLines << " t/tdg lines, circuit " << G.PlainT
       << " uncontrolled T/Tdg; ";
  if (CxLines != G.Cx)
    OS << "qasm has " << CxLines << " cx lines, circuit " << G.Cx
       << " singly-controlled X; ";
  if (Declared != C.NumQubits)
    OS << "qasm declares " << Declared << " qubits, circuit has "
       << C.NumQubits;
  Why = OS.str();
  return Why.empty();
}

bool pb::referenceDistribution(const Circuit &C,
                               std::map<std::string, double> &Out,
                               std::string &Why) {
  unsigned N = C.NumQubits;
  if (N > 14) {
    Why = "reference statevector: more than 14 qubits";
    return false;
  }
  std::vector<Amp> Psi(size_t(1) << N, 0.0);
  Psi[0] = 1.0;
  auto Bit = [N](unsigned Q) { return size_t(1) << (N - 1 - Q); };
  std::vector<int> MeasuredQubit(C.NumBits, -1);
  std::vector<bool> Measured(N, false);
  for (const CircuitInstr &I : C.Instrs) {
    if (I.CondBit >= 0) {
      Why = "reference statevector: classical condition";
      return false;
    }
    if (I.TheKind == CircuitInstr::Kind::Reset) {
      // Terminal resets of measured qubits, or of qubits already in |0>,
      // leave the output distribution unchanged.
      unsigned Q = I.Targets[0];
      double P1 = 0;
      for (size_t K = 0; K < Psi.size(); ++K)
        if (K & Bit(Q))
          P1 += std::norm(Psi[K]);
      if (!Measured[Q] && P1 > 1e-12) {
        Why = "reference statevector: reset of an entangled qubit";
        return false;
      }
      Measured[Q] = true;
      continue;
    }
    if (I.TheKind == CircuitInstr::Kind::Measure) {
      MeasuredQubit[static_cast<size_t>(I.Cbit)] = I.Targets[0];
      Measured[I.Targets[0]] = true;
      continue;
    }
    size_t CtlMask = 0;
    for (unsigned Q : I.Controls)
      CtlMask |= Bit(Q);
    for (unsigned Q : I.Targets)
      if (Measured[Q]) {
        Why = "reference statevector: gate after measurement";
        return false;
      }
    if (I.isSymbolic()) {
      Why = "reference statevector: unbound parameter";
      return false;
    }
    if (I.Gate == GateKind::Swap) {
      size_t A = Bit(I.Targets[0]), B = Bit(I.Targets[1]);
      for (size_t K = 0; K < Psi.size(); ++K)
        if ((K & CtlMask) == CtlMask && (K & A) && !(K & B))
          std::swap(Psi[K], Psi[(K & ~A) | B]);
      continue;
    }
    Amp M[4];
    gateMatrix(I.Gate, I.Param, M);
    size_t T = Bit(I.Targets[0]);
    for (size_t K = 0; K < Psi.size(); ++K) {
      if ((K & T) || (K & CtlMask) != CtlMask)
        continue;
      Amp A0 = Psi[K], A1 = Psi[K | T];
      Psi[K] = M[0] * A0 + M[1] * A1;
      Psi[K | T] = M[2] * A0 + M[3] * A1;
    }
  }
  Out.clear();
  for (size_t K = 0; K < Psi.size(); ++K) {
    double P = std::norm(Psi[K]);
    if (P < 1e-15)
      continue;
    std::string S;
    for (int B : C.OutputBits) {
      if (B < 0) {
        S.push_back(B == -2 ? '1' : '0');
        continue;
      }
      int Q = MeasuredQubit[static_cast<size_t>(B)];
      S.push_back(Q >= 0 && (K & Bit(static_cast<unsigned>(Q))) ? '1' : '0');
    }
    Out[S] += P;
  }
  return true;
}

double pb::groverSuccess(unsigned N) {
  double K = std::min(std::floor(M_PI / 4 * std::sqrt(std::pow(2.0, N))),
                      12.0);
  double S = std::sin((2 * K + 1) * std::asin(std::pow(2.0, -0.5 * N)));
  return S * S;
}

bool pb::checkExactDistribution(const Instance &I,
                                const std::map<std::string, double> &Dist,
                                std::string &Why) {
  const double Tol = 1e-9;
  auto ProbOf = [&](const std::string &S) {
    auto It = Dist.find(S);
    return It == Dist.end() ? 0.0 : It->second;
  };
  std::ostringstream OS;
  switch (I.Alg) {
  case BenchAlgorithm::BV:
  case BenchAlgorithm::DJ: {
    std::string Want = I.Alg == BenchAlgorithm::BV ? I.Secret : allOnes(I.N);
    if (std::fabs(ProbOf(Want) - 1.0) > Tol)
      OS << "P(" << Want << ") = " << ProbOf(Want) << ", expected 1";
    break;
  }
  case BenchAlgorithm::Grover: {
    double Want = groverSuccess(I.N);
    if (std::fabs(ProbOf(allOnes(I.N)) - Want) > Tol)
      OS << "P(success) = " << ProbOf(allOnes(I.N)) << ", expected "
         << Want;
    break;
  }
  case BenchAlgorithm::Simon: {
    double Want = 1.0 / static_cast<double>(simonCells(I));
    uint64_t Seen = 0;
    for (const auto &[S, P] : Dist) {
      if (!simonValid(I, S)) {
        OS << "P(" << S << ") = " << P << " outside y.s = 0";
        break;
      }
      if (std::fabs(P - Want) > Tol) {
        OS << "P(" << S << ") = " << P << ", expected " << Want;
        break;
      }
      ++Seen;
    }
    if (OS.str().empty() && Seen != simonCells(I))
      OS << Seen << " outcomes, expected " << simonCells(I);
    break;
  }
  case BenchAlgorithm::PeriodFinding: {
    uint64_t Step = 0, R = 0;
    if (!periodStep(I, Step, R)) {
      OS << "unsupported period-finding mask " << I.Mask;
      break;
    }
    for (const auto &[S, P] : Dist)
      if (bitsValue(S) % Step != 0 || std::fabs(P - 1.0 / R) > Tol) {
        OS << "P(" << S << ") = " << P << ", expected 1/" << R
           << " on multiples of " << Step;
        break;
      }
    if (OS.str().empty() && Dist.size() != R)
      OS << Dist.size() << " outcomes, expected " << R;
    break;
  }
  }
  Why = OS.str();
  return Why.empty();
}

bool pb::checkShot(const Instance &I, const std::string &Bits,
                   std::string &Why) {
  bool Ok = Bits.size() == I.N;
  switch (I.Alg) {
  case BenchAlgorithm::BV:
    Ok = Ok && Bits == I.Secret;
    break;
  case BenchAlgorithm::DJ:
    Ok = Ok && Bits == allOnes(I.N);
    break;
  case BenchAlgorithm::Grover:
    Ok = Ok && Bits.find_first_not_of("01") == std::string::npos;
    break;
  case BenchAlgorithm::Simon:
    Ok = Ok && simonValid(I, Bits);
    break;
  case BenchAlgorithm::PeriodFinding: {
    uint64_t Step = 0, R = 0;
    Ok = Ok && periodStep(I, Step, R) && bitsValue(Bits) % Step == 0;
    break;
  }
  }
  if (!Ok)
    Why = I.label() + ": shot " + Bits + " is not a valid answer";
  return Ok;
}

bool pb::binomialWithin(uint64_t K, uint64_t N, double PLo, double PHi) {
  double Nd = static_cast<double>(N), Kd = static_cast<double>(K);
  double Lo = Nd * PLo - 6 * std::sqrt(Nd * PLo * (1 - PLo)) - 3;
  double Hi = Nd * PHi + 6 * std::sqrt(Nd * PHi * (1 - PHi)) + 3;
  return Kd >= Lo && Kd <= Hi;
}

double pb::chiSquareUniform(const std::map<std::string, unsigned> &Counts,
                            uint64_t Cells, unsigned Shots) {
  double E = static_cast<double>(Shots) / static_cast<double>(Cells);
  double X2 = 0;
  uint64_t Seen = 0;
  for (const auto &KV : Counts) {
    double D = KV.second - E;
    X2 += D * D / E;
    ++Seen;
  }
  // Cells never observed contribute (0 - E)^2 / E = E each.
  return X2 + static_cast<double>(Cells - std::min(Seen, Cells)) * E;
}

double pb::chiSquareBound(uint64_t Cells) {
  // Equiprobable Pearson chi-square: mean K-1, variance below 2(K-1).
  double Df = static_cast<double>(Cells - 1);
  return Df + 8 * std::sqrt(2 * Df);
}

bool pb::checkFrequencies(const Instance &I,
                          const std::map<std::string, unsigned> &Counts,
                          unsigned Shots, std::string &Why) {
  std::ostringstream OS;
  if (I.Alg == BenchAlgorithm::Grover) {
    auto It = Counts.find(allOnes(I.N));
    uint64_t K = It == Counts.end() ? 0 : It->second;
    double P = groverSuccess(I.N);
    if (!binomialWithin(K, Shots, P, P))
      OS << I.label() << ": " << K << "/" << Shots
         << " successes, outside the binomial bound of p = " << P;
  } else if (I.Alg == BenchAlgorithm::Simon) {
    uint64_t Cells = simonCells(I);
    double X2 = chiSquareUniform(Counts, Cells, Shots);
    if (X2 > chiSquareBound(Cells))
      OS << I.label() << ": chi-square " << X2 << " over " << Cells
         << " cells exceeds " << chiSquareBound(Cells);
  }
  Why = OS.str();
  return Why.empty();
}

uint64_t pb::channelAppsPerShot(const Circuit &C) {
  uint64_t K = 0;
  for (const CircuitInstr &I : C.Instrs)
    if (I.TheKind == CircuitInstr::Kind::Gate)
      K += I.Targets.size() + I.Controls.size();
  return K;
}

bool pb::checkNoisy(uint64_t Successes, uint64_t Shots, double PIdeal,
                    uint64_t K, double P, uint64_t ChannelApps,
                    uint64_t ErrorBranches, std::string &Why) {
  std::ostringstream OS;
  double Clean = std::pow(1 - P, static_cast<double>(K));
  double Lo = Clean * PIdeal, Hi = std::min(1.0, Lo + 1 - Clean);
  if (!binomialWithin(Successes, Shots, Lo, Hi))
    OS << Successes << "/" << Shots << " successes outside [" << Lo << ", "
       << Hi << "]; ";
  if (ChannelApps != K * Shots)
    OS << "ChannelApps " << ChannelApps << " != k*shots " << K * Shots
       << "; ";
  if (!binomialWithin(ErrorBranches, ChannelApps, P, P))
    OS << "ErrorBranches " << ErrorBranches << " of " << ChannelApps
       << " outside the binomial bound of p = " << P;
  Why = OS.str();
  return Why.empty();
}

double pb::tvDistance(const std::map<std::string, unsigned> &A,
                      const std::map<std::string, unsigned> &B,
                      unsigned Shots) {
  std::map<std::string, double> Diff;
  for (const auto &KV : A)
    Diff[KV.first] += KV.second;
  for (const auto &KV : B)
    Diff[KV.first] -= KV.second;
  double L1 = 0;
  for (const auto &KV : Diff)
    L1 += std::fabs(KV.second);
  return L1 / (2.0 * Shots);
}

bool pb::checkSameShots(const std::vector<std::string> &Got, const Circuit &C,
                        const std::vector<asdf::ShotResult> &Ref,
                        std::string &Why) {
  if (Got.size() != Ref.size()) {
    Why = "got " + std::to_string(Got.size()) + " shots, expected " +
          std::to_string(Ref.size());
    return false;
  }
  for (size_t S = 0; S < Ref.size(); ++S)
    if (Got[S] != asdf::formatShotBits(C, Ref[S])) {
      Why = "shot " + std::to_string(S) + " is " + Got[S] +
            ", in-process runBatch gives " + asdf::formatShotBits(C, Ref[S]);
      return false;
    }
  return true;
}

bool pb::checkRyPoint(double ThetaDeg, const std::vector<std::string> &Shots,
                      std::string &Why) {
  double S = std::sin(ThetaDeg * M_PI / 360.0);
  uint64_t Ones = 0;
  for (const std::string &Bits : Shots)
    Ones += Bits == "1";
  if (binomialWithin(Ones, Shots.size(), S * S, S * S))
    return true;
  Why = std::to_string(Ones) + "/" + std::to_string(Shots.size()) +
        " ones at theta = " + std::to_string(ThetaDeg) +
        " deg, expected sin^2(theta/2) = " + std::to_string(S * S);
  return false;
}
