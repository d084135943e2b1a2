//===--- main.cpp - The repository benchmark's runner ----------------------===//
//
// Runs one workload and prints its result as one JSON line on stdout:
//
//   perfbench --workload table3|synth_batch|daemon_edit --seed N
//             --seconds S --trace 0|1 --expected DIR [--trace-out PREFIX]
//             [--tamper]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones.  Report lines go to stderr.  `--write-expected DIR`
// regenerates the committed expected answers instead.
// run.py builds this program and is the command to use.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table3|synth_batch|daemon_edit "
               "--seed N --seconds S --trace 0|1 --expected DIR "
               "[--trace-out PREFIX] [--tamper]\n"
               "       perfbench --write-expected DIR\n");
  return 2;
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (std::size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
}

} // namespace

int main(int argc, char **argv) {
  Config C;
  std::string WriteDir;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if (A == "--tamper") {
      C.Tamper = true;
      continue;
    }
    if (!V)
      return usage();
    ++I;
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      C.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::atoi(V);
    else if (A == "--trace")
      C.Traced = std::strcmp(V, "0") != 0;
    else if (A == "--expected")
      C.ExpectedDir = V;
    else if (A == "--trace-out")
      C.TraceOut = V;
    else if (A == "--write-expected")
      WriteDir = V;
    else
      return usage();
  }

  if (!WriteDir.empty())
    return writeExpected(WriteDir) ? 0 : 1;
  if (C.Seconds < 1 || C.ExpectedDir.empty())
    return usage();

  Outcome Out;
  if (C.Workload == "table3")
    Out = runTable3(C);
  else if (C.Workload == "synth_batch")
    Out = runSynthBatch(C);
  else if (C.Workload == "daemon_edit")
    Out = runDaemonEdit(C);
  else
    return usage();

  for (const std::string &N : Out.Notes)
    std::fprintf(stderr, "%s\n", N.c_str());
  if (Out.Attempted == 0) {
    std::fprintf(stderr, "%s: no op ran\n", C.Workload.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: %ld ops, %ld failed, error_rate %.6f\n",
               C.Workload.c_str(), Out.Attempted, Out.Failed,
               static_cast<double>(Out.Failed) /
                   static_cast<double>(Out.Attempted));

  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              Out.Correct && Out.Failed == 0 ? "true" : "false", Out.Attempted,
              Out.Failed);
  printMetrics(C.Traced ? Out.PerLayer : Out.EndToEnd);
  std::printf("}}\n");
  return 0;
}
