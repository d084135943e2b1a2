//===--- Workloads.h - The repository benchmark's workloads -----*- C++ -*-===//
//
// Part of the c4b repository benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads.  Each one sets up (timed separately, several times,
/// as `setup_s`), runs a fixed seeded sequence of rounds whose number
/// depends only on --seconds, and then checks every op's output against a
/// known answer outside the timed phase.  table3's timings are
/// host-corrected (see HostSpeed.h).
///
///  - table3: serial passes over the 59 corpus programs; one op takes one
///    program through parse, lower, verify, scheduled analysis,
///    certificate build and certificate check.
///  - synth_batch: rounds of one cold BatchAnalyzer run with 2 workers
///    over a seeded synthetic corpus; one op is one module analyzed.
///  - daemon_edit: rounds of a fresh in-process BoundsServer with durable
///    stores and 2 closed-loop clients; one op is one request, about 80%
///    one-tick edits and 20% unchanged resubmits.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string Workload;
  std::uint64_t Seed = 0;
  int Seconds = 20;
  bool Traced = false;
  /// Directory of the committed expected answers (table3.tsv, synth.tsv).
  std::string ExpectedDir;
  /// Traced runs write `<TraceOut>.spans.json` and `<TraceOut>.layers.txt`;
  /// empty writes nothing.
  std::string TraceOut;
  /// Self-check: corrupt one expected answer, so the run must report
  /// failed ops.
  bool Tamper = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Outcome {
  long Attempted = 0;
  long Failed = 0;
  /// False when an op failed or the set-up's own answers were wrong.
  bool Correct = true;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Human-readable report lines (failures, self-time table).
  std::vector<std::string> Notes;
};

Outcome runTable3(const Config &C);
Outcome runSynthBatch(const Config &C);
Outcome runDaemonEdit(const Config &C);

/// Regenerates the expected answers into \p Dir: table3.tsv (bound or
/// typed verdict per corpus program) and synth.tsv (bound digest of each
/// module of the seed-0 synth_batch corpus).
bool writeExpected(const std::string &Dir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
