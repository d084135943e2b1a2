//===--- HostSpeed.cpp - How fast the host runs right now ------------------===//

#include "HostSpeed.h"

#include <chrono>
#include <cstdint>
#include <vector>

namespace {

/// The kernel's time on the calibration host (4-core x86) at its fastest.
constexpr double NominalSeconds = 3.3e-3;

struct Node {
  Node *Next = nullptr;
  long Payload[5] = {1, 2, 3, 4, 5};
};

/// Allocated once, before main() runs, so where the nodes lie does not
/// depend on what the workload has done to the heap.
std::vector<Node> Pool(30000);

volatile long Sink;

/// Links the pool at random and chases 200000 links.
long kernelRound(std::uint64_t &S) {
  for (Node &N : Pool) {
    S = S * 6364136223846793005ULL + 1;
    N.Next = &Pool[(S >> 33) % Pool.size()];
  }
  long Acc = 0;
  const Node *P = &Pool[0];
  for (int I = 0; I < 200000; ++I) {
    Acc += P->Payload[I % 5];
    P = P->Next;
  }
  return Acc;
}

} // namespace

double perfbench::hostFactor() {
  std::uint64_t S = 12345;
  // An untimed round first brings the pool back into the caches the
  // workload has evicted it from.
  long Acc = kernelRound(S);
  auto T0 = std::chrono::steady_clock::now();
  for (int Round = 0; Round < 6; ++Round)
    Acc += kernelRound(S);
  Sink = Acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
             .count() /
         NominalSeconds;
}
