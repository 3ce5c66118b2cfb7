//===- Common.cpp - Shared pieces of the end-to-end benchmark -------------===//
//
// Part of the Asdf reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace pb;
using asdf::BenchAlgorithm;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

double pb::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double pb::runProbe() {
  auto T0 = Clock::now();
  // 32768 map nodes plus the key vector, about 2.5 MiB, spill out of a
  // 2 MiB L2: the probe feels contention for the shared cache as well as
  // clock speed, as the larger compiles do.
  const unsigned N = 32768;
  std::map<uint64_t, uint64_t> M;
  std::vector<uint64_t> Keys;
  Keys.reserve(N);
  uint64_t X = 0x2545F4914F6CDD1DULL;
  for (unsigned I = 0; I < N; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    M[X] = I;
    Keys.push_back(X);
  }
  for (unsigned Rep = 0; Rep < 2; ++Rep) {
    std::vector<uint64_t> Copy = Keys;
    std::sort(Copy.begin(), Copy.end());
    Keys[Rep] ^= Copy[Rep] + M.begin()->second;
  }
  volatile uint64_t Sink = Keys[0] + M.size();
  (void)Sink;
  return msSince(T0);
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace {

thread_local std::vector<int64_t> OpenStack;

unsigned threadIndex() {
  static std::mutex Mu;
  static std::map<std::thread::id, unsigned> Ids;
  thread_local unsigned Idx = [] {
    std::lock_guard<std::mutex> L(Mu);
    return Ids.emplace(std::this_thread::get_id(), Ids.size()).first->second;
  }();
  return Idx;
}

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

void Tracer::enable(size_t Cap) {
  Enabled = true;
  Capacity = Cap;
  Spans.reserve(Cap);
}

int64_t Tracer::open(const char *Name, uint64_t Op) {
  int64_t Parent = OpenStack.empty() ? -1 : OpenStack.back();
  unsigned Tid = threadIndex();
  uint64_t Start = nowNs();
  std::lock_guard<std::mutex> L(Mu);
  if (Spans.size() >= Capacity) {
    ++Dropped;
    return -1;
  }
  Spans.push_back({Name, Start, 0, Op, Parent, Tid});
  int64_t Idx = static_cast<int64_t>(Spans.size() - 1);
  OpenStack.push_back(Idx);
  return Idx;
}

void Tracer::close(int64_t Idx) {
  uint64_t End = nowNs();
  std::lock_guard<std::mutex> L(Mu);
  Spans[static_cast<size_t>(Idx)].EndNs = End;
  OpenStack.pop_back();
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "{\"traceEvents\": [";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %zu, \"parent\": %lld, \"op\": %llu}}",
                  I ? "," : "", S.Name, S.Tid, (S.StartNs - Base) / 1e3,
                  (S.EndNs - S.StartNs) / 1e3, I,
                  static_cast<long long>(S.Parent),
                  static_cast<unsigned long long>(S.Op));
    Out << Buf;
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

std::string Tracer::selfTimeTable() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const SpanRec &S : Spans)
    if (S.Parent >= 0)
      ChildMs[static_cast<size_t>(S.Parent)] += (S.EndNs - S.StartNs) / 1e6;
  struct Row {
    uint64_t Count = 0;
    double TotalMs = 0, SelfMs = 0;
  };
  std::map<std::string, Row> Rows;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Row &R = Rows[Spans[I].Name];
    double Ms = (Spans[I].EndNs - Spans[I].StartNs) / 1e6;
    ++R.Count;
    R.TotalMs += Ms;
    R.SelfMs += Ms - ChildMs[I];
  }
  std::ostringstream OS;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%-28s %10s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  OS << Buf;
  for (const auto &[Name, R] : Rows) {
    std::snprintf(Buf, sizeof(Buf), "%-28s %10llu %12.3f %12.3f\n",
                  Name.c_str(), static_cast<unsigned long long>(R.Count),
                  R.TotalMs, R.SelfMs);
    OS << Buf;
  }
  return OS.str();
}

Span::Span(const char *Name, uint64_t Op) {
  Tracer &T = Tracer::get();
  if (Name && T.enabled())
    Idx = T.open(Name, Op);
}

Span::~Span() {
  if (Idx >= 0)
    Tracer::get().close(Idx);
}

//===----------------------------------------------------------------------===//
// Instances
//===----------------------------------------------------------------------===//

uint64_t pb::binomial(unsigned N, unsigned K) {
  if (K > N)
    return 0;
  uint64_t R = 1;
  for (unsigned I = 1; I <= K; ++I)
    R = R * (N - K + I) / I;
  return R;
}

std::string pb::unrankCombination(unsigned N, unsigned K, uint64_t Rank) {
  std::string S(N, '0');
  for (unsigned Pos = 0; Pos < N && K > 0; ++Pos) {
    // Strings with a '0' here come first: C(N-Pos-1, K) of them.
    uint64_t WithZero = binomial(N - Pos - 1, K);
    if (Rank < WithZero)
      continue;
    Rank -= WithZero;
    S[Pos] = '1';
    --K;
  }
  return S;
}

std::string Instance::label() const {
  std::string L = asdf::benchAlgorithmName(Alg);
  L += "/" + std::to_string(N);
  if (NoInline)
    L += "/qs";
  return L;
}

namespace {

std::string captureBits(const asdf::BenchProgram &P, const char *Func,
                        const char *Param) {
  auto F = P.Bindings.Captures.find(Func);
  if (F == P.Bindings.Captures.end())
    return "";
  auto V = F->second.find(Param);
  if (V == F->second.end())
    return "";
  std::string S;
  for (bool B : V->second.Bits)
    S.push_back(B ? '1' : '0');
  return S;
}

} // namespace

Instance pb::makeInstance(BenchAlgorithm Alg, unsigned N, bool NoInline,
                          Rng &R) {
  Instance I;
  I.Alg = Alg;
  I.N = N;
  I.NoInline = NoInline;
  I.Prog = NoInline ? asdf::makeQSharpStyleProgram(Alg, N)
                    : asdf::makeBenchProgram(Alg, N);
  if (Alg == BenchAlgorithm::BV) {
    I.Secret = unrankCombination(N, N / 2, R.below(binomial(N, N / 2)));
    I.Prog.Bindings.Captures["f"]["secret"] =
        asdf::CaptureValue::bitsFromString(I.Secret);
  }
  if (Alg == BenchAlgorithm::Simon || Alg == BenchAlgorithm::PeriodFinding)
    I.Mask = captureBits(I.Prog, "f", "mask");
  return I;
}

Instance pb::makeBvInstance(unsigned N, const std::string &Secret) {
  Instance I;
  I.Alg = BenchAlgorithm::BV;
  I.N = N;
  I.Prog = asdf::makeBenchProgram(BenchAlgorithm::BV, N);
  I.Secret = Secret;
  I.Prog.Bindings.Captures["f"]["secret"] =
      asdf::CaptureValue::bitsFromString(Secret);
  return I;
}
