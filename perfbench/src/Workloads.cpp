//===--- Workloads.cpp - The repository benchmark's workloads --------------===//
//
// Every call into the library below is a public one, timed from here.
// Checks against known answers run after the timed phase.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "HostSpeed.h"
#include "Trace.h"

#include "c4b/cert/Certificate.h"
#include "c4b/corpus/Corpus.h"
#include "c4b/corpus/Synthetic.h"
#include "c4b/lp/Solver.h"
#include "c4b/pipeline/Batch.h"
#include "c4b/pipeline/Pipeline.h"
#include "c4b/sem/Interp.h"
#include "c4b/service/Client.h"
#include "c4b/service/Server.h"
#include "c4b/support/Hash.h"

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

using namespace c4b;
using namespace perfbench;

namespace {

// Rounds per second of --seconds.  Calibrated once, on a 4-core x86 host
// at the commit that introduced the benchmark, so that the timed phase of
// a run lasts about --seconds there.  They are constants, not measured
// rates: every commit runs the same ops for the same --seconds, and a
// faster one finishes sooner instead of doing more work.
constexpr double Table3PassesPerSecond = 6.0;
constexpr double SynthRoundsPerSecond = 0.6;
constexpr double DaemonRoundsPerSecond = 0.4;
/// Modules of one synth_batch round.
constexpr int SynthModules = 20;
/// Modules a synth_batch set-up warms up on: about half a second of work.
constexpr int SynthWarmModules = 6;
/// Modules of the daemon's project; each client owns half of them.
constexpr int DaemonModules = 4;
/// Every ResubmitEvery-th edit is followed by an unchanged resubmit, so
/// 80% of daemon requests are edits.
constexpr int ResubmitEvery = 4;
/// Worker threads of the batch analyzer and the daemon, and daemon
/// clients: 2 keeps a shared 4-core host from being oversubscribed.
constexpr int Workers = 2;
/// Set-ups per table3 and synth_batch run (daemon_edit sets up once per
/// round); setup_s is their median.
constexpr int SetupRepeats = 5;
/// Threads for the one-shot re-analyses of the (untimed) checks.
constexpr int VerifyWorkers = 4;

/// SplitMix64, seeded per purpose so that adding a draw in one stream
/// leaves the others unchanged.
class Rng {
public:
  Rng(std::uint64_t Seed, std::uint64_t Stream)
      : S(Seed * 0x9E3779B97F4A7C15ULL ^ (Stream + 0x632BE59BD9B4E019ULL)) {}
  std::uint64_t next() {
    std::uint64_t Z = (S += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  int pick(int N) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(N));
  }
  std::int64_t inRange(std::int64_t Lo, std::int64_t Hi) {
    return Lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(Hi - Lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  std::uint64_t S;
};

enum Stream : std::uint64_t {
  PassOrder = 1,
  InterpInputs = 2,
  EditPlan = 3,
  OneShotSample = 4,
  TickAmounts = 5
};

/// Positions of the amounts of every `tick(` in \p Src.
std::vector<std::size_t> tickAmounts(const std::string &Src) {
  std::vector<std::size_t> Out;
  for (std::size_t P = Src.find("tick("); P != std::string::npos;
       P = Src.find("tick(", P + 5))
    Out.push_back(P + 5);
  return Out;
}

/// Replaces the amount of one `tick(...)` of \p Src with \p Value.
std::string setTick(const std::string &Src, std::size_t At, long Value) {
  std::size_t Close = Src.find(')', At);
  return Src.substr(0, At) + std::to_string(Value) + Src.substr(Close);
}

/// The synthetic corpus of a run: the first \p NumModules modules of the
/// library's default corpus, each with all its tick amounts multiplied by
/// a factor in 1..4 drawn from \p Seed.  Each seed so has its own bounds,
/// while the loop and call shapes, and with them the LPs' pivot paths, stay
/// those of the default corpus: a corpus drawn afresh per seed swings the
/// cost of a run by a third.
std::vector<SyntheticModule> seededCorpus(int NumModules, std::uint64_t Seed) {
  SyntheticSpec Spec;
  Spec.NumModules = NumModules;
  std::vector<SyntheticModule> Mods = generateSyntheticCorpus(Spec);
  Rng R(Seed, TickAmounts);
  for (SyntheticModule &M : Mods) {
    long Factor = static_cast<long>(R.inRange(1, 4));
    std::vector<std::size_t> Ticks = tickAmounts(M.Source);
    for (auto It = Ticks.rbegin(); It != Ticks.rend(); ++It)
      M.Source = setTick(
          M.Source, *It,
          Factor * std::stol(M.Source.substr(*It, M.Source.find(')', *It))));
  }
  return Mods;
}

int scaled(int Seconds, double PerSecond) {
  return std::max(1, static_cast<int>(std::lround(Seconds * PerSecond)));
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Linear interpolation between closest ranks.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Starts a new peak-RSS window: hands freed heap back to the system and
/// resets the kernel's high-water mark of the resident set.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The resident set's high-water mark (VmHWM) since the last reset, in MB.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // Given in kB.
  return 0;
}

std::string boundsDigest(const std::map<std::string, Bound> &Bounds) {
  std::uint64_t H = stableHash64("");
  for (const auto &[Fn, B] : Bounds)
    H = foldString(foldString(H, Fn), B.toString());
  return hex16(H);
}

std::map<std::string, std::string>
boundStrings(const std::map<std::string, Bound> &Bounds) {
  std::map<std::string, std::string> Out;
  for (const auto &[Fn, B] : Bounds)
    Out[Fn] = B.toString();
  return Out;
}

/// `name<TAB>answer` lines.
std::map<std::string, std::string> readTsv(const std::string &Path) {
  std::map<std::string, std::string> Out;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    std::size_t Tab = Line.find('\t');
    if (Tab != std::string::npos)
      Out[Line.substr(0, Tab)] = Line.substr(Tab + 1);
  }
  return Out;
}

/// Checks the bound of \p Fn against the interpreter's peak cost on
/// \p Trials seeded inputs in [Lo, Hi].  Runs outside the qualitative
/// precondition (assert, division by zero) or out of fuel decide nothing.
/// Returns false on the first input whose peak cost exceeds the bound.
bool boundDominatesPeak(const IRProgram &IR, const std::string &Fn,
                        const Bound &B, Rng &R, int Trials, std::int64_t Lo,
                        std::int64_t Hi, std::string *Why) {
  const IRFunction *F = IR.findFunction(Fn);
  if (!F) {
    *Why = "no function " + Fn;
    return false;
  }
  Interpreter I(IR, ResourceMetric::ticks());
  for (int T = 0; T < Trials; ++T) {
    std::vector<std::int64_t> Args;
    std::map<std::string, std::int64_t> Env(IR.Globals.begin(),
                                            IR.Globals.end());
    for (const std::string &P : F->Params) {
      Args.push_back(R.inRange(Lo, Hi));
      Env[P] = Args.back();
    }
    I.seed(R.next());
    ExecResult E = I.run(Fn, Args);
    if (!E.finished())
      continue;
    Rational BV = B.evaluate(Env);
    if (BV < E.PeakCost) {
      *Why = Fn + ": bound " + B.toString() + " = " + BV.toString() +
             " < peak cost " + E.PeakCost.toString();
      return false;
    }
  }
  return true;
}

std::optional<IRProgram> lowerSource(const std::string &Source) {
  LoweredModule L = frontend(Source);
  if (!L.ok())
    return std::nullopt;
  return std::move(*L.IR);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// The timed phase of a run: rounds that each repeat one op sequence.
/// Times are stored divided by their host factor (see HostClock).
struct Rounds {
  std::vector<double> Walls;     ///< Raw wall seconds.
  std::vector<double> Corrected; ///< Wall seconds over the host factor.
  std::vector<double> PeakRss;   ///< Peak resident set of each round, MB.
  /// OpSeconds[R][K]: op K of round R, over the host factor.
  std::vector<std::vector<double>> OpSeconds;

  /// Adds a round timed by HostClock::measured(), corrected by its one
  /// host factor.
  void add(const std::array<double, 3> &Measured, std::vector<double> Ops) {
    for (double &S : Ops)
      S /= Measured[1];
    Walls.push_back(Measured[0]);
    Corrected.push_back(Measured[0] / Measured[1]);
    PeakRss.push_back(Measured[2]);
    OpSeconds.push_back(std::move(Ops));
  }
  std::vector<double> factors() const {
    std::vector<double> F;
    for (std::size_t R = 0; R < Walls.size(); ++R)
      F.push_back(Walls[R] / Corrected[R]);
    return F;
  }
  double totalWall() const {
    double Sum = 0;
    for (double W : Walls)
      Sum += W;
    return Sum;
  }
  long ops() const {
    long N = 0;
    for (const std::vector<double> &R : OpSeconds)
      N += static_cast<long>(R.size());
    return N;
  }
  /// Median over rounds of ops per second of corrected wall time.
  double opsPerSecond() const {
    std::vector<double> Rates;
    for (std::size_t R = 0; R < Walls.size(); ++R)
      Rates.push_back(double(OpSeconds[R].size()) / Corrected[R]);
    return median(Rates);
  }
  /// Latencies of the ops K of round R with Keep(R, K).
  template <typename Pred> std::vector<double> opSeconds(Pred Keep) const {
    std::vector<double> Out;
    for (std::size_t R = 0; R < OpSeconds.size(); ++R)
      for (std::size_t K = 0; K < OpSeconds[R].size(); ++K)
        if (Keep(R, K))
          Out.push_back(OpSeconds[R][K]);
    return Out;
  }
};

/// Times set-ups and rounds, when \p Corrected between host-factor
/// measurements (see HostSpeed.h); back-to-back intervals share the
/// measurement between them.  The kernel runs on the calling thread and so
/// reads the speed of that thread's CPU, which is where table3 does all its
/// work.  synth_batch and daemon_edit work on pool and daemon threads on
/// the other CPUs, and there the factor widened the spread of ops_per_s
/// between runs instead of narrowing it (five seeds: 7.6% raw against 7.8%
/// corrected on synth_batch, 6.4% against 12.4% on daemon_edit), so they
/// are timed raw.
class HostClock {
public:
  explicit HostClock(bool Corrected) : Corrected(Corrected) {}

  /// Runs \p Body in a fresh peak-RSS window; returns {wall seconds, host
  /// factor (the mean of the measurements at its two ends, or 1 when not
  /// corrected), peak RSS in MB}.
  template <typename Fn> std::array<double, 3> measured(Fn Body) {
    if (Corrected && Last == 0)
      Last = hostFactor();
    resetPeakRss();
    double T0 = now();
    Body();
    double Wall = now() - T0;
    double Rss = peakRssMb();
    if (!Corrected)
      return {Wall, 1.0, Rss};
    double F1 = hostFactor();
    double F = (Last + F1) / 2;
    Last = F1;
    return {Wall, F, Rss};
  }

private:
  bool Corrected;
  double Last = 0;
};

/// Counters and times of one run, gathered from what the public calls
/// return.  A field a workload cannot observe from outside stays 0.
struct Layers {
  double LpSolveS = 0;
  long LpPivots = 0, LpSolves = 0, LpRefactors = 0, LpWarmStarts = 0;
  double GenerateS = 0;
  long Constraints = 0, Splices = 0, SccsSolved = 0, SccsReused = 0;
  long StoreHits = 0, StoreWrites = 0;
  long Queries = 0, Tier1 = 0, Tier2 = 0, LpFallbacks = 0, LogicPivots = 0;
  long ConstraintsChecked = 0;
  long SourceBytes = 0;
  double BusyS = 0, MaxJobS = 0;
  long CacheLookups = 0, CacheHits = 0, CacheStores = 0, CacheEntries = 0;
  double EditCallS = 0, HitCallS = 0, HitP50Ms = 0;
  long RequestBytes = 0, Rejected = 0;

  void addStage(const StageTimings &T) {
    LpSolveS += T.SolveSeconds;
    LpPivots += T.SolvePivots;
    GenerateS += T.GenerateSeconds;
    LogicPivots += T.GeneratePivots;
    Splices += T.SummariesApplied;
    SccsSolved += T.SCCsSolved;
    SccsReused += T.SummariesReused;
    Queries += T.GenQueries;
    Tier1 += T.GenTier1Hits;
    Tier2 += T.GenTier2Hits;
    LpFallbacks += T.GenLpFallbacks;
  }
};

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Layers whose self time the traced run reports, in a fixed order so
/// every workload prints the same metric names.
const char *const TracedLayers[] = {"bench", "ast",      "ir",     "check",
                                    "analysis", "cert", "pipeline", "service"};

std::vector<Metric> perLayerMetrics(const Layers &L,
                                    const std::vector<Span> &Spans,
                                    double OpsPerSecond, double Wall,
                                    double HostFactor) {
  std::vector<LayerTime> Times = layerTimes(Spans);
  auto Self = [&](const char *Layer) {
    for (const LayerTime &T : Times)
      if (T.Layer == Layer)
        return T.SelfSeconds;
    return 0.0;
  };
  double Covered = 0, RunSeconds = spanSeconds(Spans, "bench.run");
  for (const LayerTime &T : Times)
    if (T.Layer != "bench")
      Covered += T.SelfSeconds;

  std::vector<Metric> M = {
      {"lp.solve_s", L.LpSolveS, "s"},
      {"lp.pivots", double(L.LpPivots), "count"},
      {"lp.us_per_pivot", ratio(L.LpSolveS * 1e6, double(L.LpPivots)), "us"},
      {"lp.solves", double(L.LpSolves), "count"},
      {"lp.refactors", double(L.LpRefactors), "count"},
      {"lp.warm_starts", double(L.LpWarmStarts), "count"},
      {"analysis.generate_s", L.GenerateS, "s"},
      {"analysis.constraints", double(L.Constraints), "count"},
      {"analysis.splices", double(L.Splices), "count"},
      {"analysis.sccs_solved", double(L.SccsSolved), "count"},
      {"analysis.sccs_reused", double(L.SccsReused), "count"},
      {"analysis.reuse_ratio",
       ratio(double(L.SccsReused), double(L.SccsReused + L.SccsSolved)),
       "ratio"},
      {"analysis.store_hits", double(L.StoreHits), "count"},
      {"analysis.store_writes", double(L.StoreWrites), "count"},
      {"logic.queries", double(L.Queries), "count"},
      {"logic.tier1_hits", double(L.Tier1), "count"},
      {"logic.tier2_hits", double(L.Tier2), "count"},
      {"logic.lp_fallbacks", double(L.LpFallbacks), "count"},
      {"logic.pivots", double(L.LogicPivots), "count"},
      {"cert.build_s", spanSeconds(Spans, "cert.build"), "s"},
      {"cert.check_s", spanSeconds(Spans, "cert.check"), "s"},
      {"cert.constraints_checked", double(L.ConstraintsChecked), "count"},
      {"ast.parse_s", spanSeconds(Spans, "ast.parse"), "s"},
      {"ast.source_bytes", double(L.SourceBytes), "bytes"},
      {"ir.lower_s", spanSeconds(Spans, "ir.lower"), "s"},
      {"check.verify_s", spanSeconds(Spans, "check.verify"), "s"},
      {"pipeline.busy_s", L.BusyS, "s"},
      {"pipeline.parallel_eff", ratio(L.BusyS, Wall * Workers), "ratio"},
      {"pipeline.max_job_s", L.MaxJobS, "s"},
      {"pipeline.cache_hits", double(L.CacheHits), "count"},
      {"pipeline.cache_stores", double(L.CacheStores), "count"},
      {"pipeline.cache_hit_ratio",
       ratio(double(L.CacheHits), double(L.CacheLookups)), "ratio"},
      {"pipeline.cache_entries", double(L.CacheEntries), "count"},
      {"service.edit_call_s", L.EditCallS, "s"},
      {"service.hit_call_s", L.HitCallS, "s"},
      {"service.hit_p50_ms", L.HitP50Ms, "ms"},
      {"service.request_kb", L.RequestBytes / 1024.0, "KiB"},
      {"service.rejected", double(L.Rejected), "count"},
  };
  for (const char *Layer : TracedLayers)
    M.push_back({std::string("self.") + Layer + "_s", Self(Layer), "s"});
  M.push_back({"trace.ops_per_s", OpsPerSecond, "ops/s"});
  M.push_back({"trace.host_factor", HostFactor, "ratio"});
  M.push_back({"trace.coverage", ratio(Covered, RunSeconds), "ratio"});
  M.push_back({"trace.spans", double(Spans.size()), "count"});
  return M;
}

/// Fills the metrics of \p Out and, for a traced run, writes the span file
/// and the self-time table.  \p Setups are what HostClock::measured()
/// returned;
/// \p Latencies the corrected seconds of the ops whose latency the
/// run reports.
void finish(Outcome &Out, const Config &C, const Layers &L,
            const std::vector<Span> &Spans,
            const std::vector<std::array<double, 3>> &Setups,
            const Rounds &Rs, const std::vector<double> &Latencies) {
  std::vector<double> SetupSeconds, RawSetup;
  for (const std::array<double, 3> &S : Setups) {
    SetupSeconds.push_back(S[0] / S[1]);
    RawSetup.push_back(S[0]);
  }
  double OpsPerSecond = Rs.opsPerSecond();
  std::vector<double> Factors = Rs.factors();
  Out.EndToEnd = {
      {"setup_s", median(SetupSeconds), "s"},
      {"ops_per_s", OpsPerSecond, "ops/s"},
      {"peak_rss_mb", median(Rs.PeakRss), "MB"},
      {"op_p50_ms", percentile(Latencies, 0.50) * 1e3, "ms"},
      {"op_p95_ms", percentile(Latencies, 0.95) * 1e3, "ms"},
  };
  char Line[240];
  std::snprintf(Line, sizeof Line,
                "%zu rounds, %ld ops, %zu latency samples; uncorrected: "
                "setup %.4fs, %.2f ops/s; host factor median %.3f "
                "(range %.3f-%.3f)",
                Rs.Walls.size(), Rs.ops(), Latencies.size(), median(RawSetup),
                double(Rs.ops()) / Rs.totalWall(),
                median(Factors),
                *std::min_element(Factors.begin(), Factors.end()),
                *std::max_element(Factors.begin(), Factors.end()));
  Out.Notes.push_back(Line);
  std::string PerRound = "rounds (ops/s corrected, host factor):";
  for (std::size_t R = 0; R < Rs.Walls.size(); ++R) {
    std::snprintf(Line, sizeof Line, " %.2f@%.3f",
                  double(Rs.OpSeconds[R].size()) / Rs.Corrected[R],
                  Factors[R]);
    PerRound += Line;
  }
  Out.Notes.push_back(PerRound);
  if (!C.Traced)
    return;
  Out.PerLayer = perLayerMetrics(L, Spans, OpsPerSecond, Rs.totalWall(),
                                 median(Factors));

  std::ostringstream Table;
  std::snprintf(Line, sizeof Line, "%-10s %10s %10s %8s %8s\n", "layer",
                "self_s", "total_s", "share", "spans");
  Table << Line;
  double RunSeconds = spanSeconds(Spans, "bench.run");
  for (const LayerTime &T : layerTimes(Spans)) {
    std::snprintf(Line, sizeof Line, "%-10s %10.4f %10.4f %7.1f%% %8ld\n",
                  T.Layer.c_str(), T.SelfSeconds, T.TotalSeconds,
                  100 * ratio(T.SelfSeconds, RunSeconds), T.Spans);
    Table << Line;
  }
  std::istringstream Lines(Table.str());
  for (std::string S; std::getline(Lines, S);)
    Out.Notes.push_back(S);
  if (!C.TraceOut.empty()) {
    if (!writeSpans(C.TraceOut + ".spans.json", Spans))
      Out.Notes.push_back("cannot write " + C.TraceOut + ".spans.json");
    std::ofstream(C.TraceOut + ".layers.txt") << Table.str();
  }
}

void fail(Outcome &Out, const std::string &Why) {
  Out.Correct = false;
  if (Out.Notes.size() < 40)
    Out.Notes.push_back("FAIL " + Why);
}

} // namespace

//===----------------------------------------------------------------------===//
// table3
//===----------------------------------------------------------------------===//

namespace {

struct Table3Op {
  std::string Answer; ///< Entry bound, or "error:<kind>".
  std::optional<Bound> EntryBound;
  bool CertValid = true;
};

/// One program through the whole chain.  Every stage call is a public
/// one and gets its own span.
void table3Op(const CorpusEntry &E, const AnalysisOptions &Opts,
              const PipelineOptions &Pipe, Trace &T, long Op, Table3Op &Rec,
              Layers &L) {
  const ResourceMetric M = ResourceMetric::ticks();
  Scope OpSpan(T, "bench.op", Op);
  ParsedModule P;
  {
    Scope S(T, "ast.parse", Op);
    P = parseModule(E.Source, E.Name);
  }
  LoweredModule Lo;
  {
    Scope S(T, "ir.lower", Op);
    Lo = lowerModule(std::move(P));
  }
  CheckedModule Ck;
  {
    Scope S(T, "check.verify", Op);
    Ck = checkModule(std::move(Lo), Pipe);
  }
  L.SourceBytes += static_cast<long>(std::char_traits<char>::length(E.Source));
  if (!Ck.ok()) {
    Rec.Answer = "error:check";
    return;
  }
  ScheduledStats SS;
  AnalysisResult R;
  {
    Scope S(T, "analysis.scheduled", Op);
    R = analyzeProgramScheduled(*Ck.IR, M, Opts, E.Function, nullptr, 1, &SS);
  }
  L.LpSolveS += SS.SolveSeconds;
  L.LpPivots += SS.SolvePivots;
  L.GenerateS += SS.GenerateSeconds;
  L.LogicPivots += SS.GeneratePivots;
  L.Splices += SS.SummariesApplied;
  L.SccsSolved += SS.SCCsSolved;
  L.SccsReused += SS.SummariesReused;
  L.Constraints += R.NumConstraints;
  L.Queries += R.NumCtxQueries;
  L.Tier1 += R.NumCtxTier1Hits;
  L.Tier2 += R.NumCtxTier2Hits;
  L.LpFallbacks += R.NumCtxLpFallbacks;
  if (!R.Success) {
    Rec.Answer = std::string("error:") + errorKindName(R.ErrorKind);
    return;
  }
  const Bound *B = R.boundFor(E.Function);
  Rec.Answer = B ? B->toString() : "error:no-entry-bound";
  if (B)
    Rec.EntryBound = *B;
  Certificate Cert;
  {
    Scope S(T, "cert.build", Op);
    Cert = Certificate::fromResult(R, M, Opts);
  }
  CheckReport Rep;
  {
    Scope S(T, "cert.check", Op);
    Rep = checkCertificate(*Ck.IR, Cert);
  }
  Rec.CertValid = Rep.Valid;
  L.ConstraintsChecked += Rep.ConstraintsChecked;
}

} // namespace

Outcome perfbench::runTable3(const Config &C) {
  Outcome Out;
  AnalysisOptions Opts;
  PipelineOptions Pipe;
  Pipe.VerifyIR = true;
  Pipe.Lint = false;
  const int Passes = scaled(C.Seconds, Table3PassesPerSecond);

  // Set-up: load the corpus and make one untimed warm-up pass, so lazy
  // initialisation and allocator growth land here rather than in pass 1.
  HostClock Clock(/*Corrected=*/true);
  std::vector<std::array<double, 3>> Setups;
  std::vector<const CorpusEntry *> Progs;
  for (int K = 0; K < SetupRepeats; ++K)
    Setups.push_back(Clock.measured([&] {
      Progs.clear();
      for (const CorpusEntry &E : corpus())
        Progs.push_back(&E);
      Trace Off(false);
      Layers Scratch;
      for (const CorpusEntry *E : Progs) {
        Table3Op Rec;
        table3Op(*E, Opts, Pipe, Off, -1, Rec, Scratch);
      }
    }));
  const std::size_t N = Progs.size();

  // The fixed op sequence: every pass (round) visits every program once,
  // in a seeded order.
  std::vector<std::vector<int>> Orders;
  Rng Order(C.Seed, PassOrder);
  for (int P = 0; P < Passes; ++P) {
    std::vector<int> Idx(N);
    for (std::size_t I = 0; I < N; ++I)
      Idx[I] = static_cast<int>(I);
    for (std::size_t I = N; I > 1; --I)
      std::swap(Idx[I - 1], Idx[static_cast<std::size_t>(
                                Order.pick(static_cast<int>(I)))]);
    Orders.push_back(std::move(Idx));
  }

  // Expected answers are the committed ones.
  std::map<std::string, std::string> Expected =
      readTsv(C.ExpectedDir + "/table3.tsv");
  if (Expected.size() != N)
    fail(Out, "table3.tsv has " + std::to_string(Expected.size()) +
                  " answers for " + std::to_string(N) + " programs");
  if (C.Tamper)
    Expected["t08a"] = "0";

  // Timed phase.  Latencies are kept per program, so round R's op K is
  // program K whatever the pass order.  Each pass's answers are checked
  // and dropped as it ends, outside its timed interval, so that no pass's
  // results count in a later pass's peak RSS; only the first pass's entry
  // bounds stay, for the interpreter check.
  Trace T(C.Traced);
  Layers L;
  Rounds Rs;
  std::vector<std::optional<Bound>> EntryBounds(N);
  std::vector<int> RightPasses(N, 0); ///< Answer as expected, cert valid.
  LPStats Lp0 = lpThreadStats();
  for (int P = 0; P < Passes; ++P) {
    std::vector<Table3Op> Recs(N);
    std::vector<double> OpSeconds(N);
    std::array<double, 3> M = Clock.measured([&] {
      Scope Run(T, "bench.run", P);
      for (int I : Orders[static_cast<std::size_t>(P)]) {
        std::size_t K = static_cast<std::size_t>(I);
        double T0 = now();
        table3Op(*Progs[K], Opts, Pipe, T, static_cast<long>(P * N + K),
                 Recs[K], L);
        OpSeconds[K] = now() - T0;
      }
    });
    Rs.add(M, std::move(OpSeconds));
    for (std::size_t K = 0; K < N; ++K) {
      const Table3Op &O = Recs[K];
      const CorpusEntry &E = *Progs[K];
      auto It = Expected.find(E.Name);
      if (It != Expected.end() && It->second == O.Answer && O.CertValid) {
        ++RightPasses[K];
        continue;
      }
      fail(Out, std::string(E.Name) + ": got '" + O.Answer + "', expected '" +
                    (It == Expected.end() ? "?" : It->second) + "'" +
                    (O.CertValid ? "" : ", certificate rejected"));
    }
    if (P == 0)
      for (std::size_t K = 0; K < N; ++K)
        EntryBounds[K] = std::move(Recs[K].EntryBound);
  }
  LPStats Lp1 = lpThreadStats();
  L.LpSolves = Lp1.Solves - Lp0.Solves;
  L.LpRefactors = Lp1.Refactors - Lp0.Refactors;
  L.LpWarmStarts = Lp1.WarmStarts - Lp0.WarmStarts;

  // The interpreter runs each program's entry function on seeded inputs
  // (programs with logical state need inputs that satisfy their invariants
  // and are skipped).  An unsound program fails its op in every pass.
  Rng Inputs(C.Seed, InterpInputs);
  for (std::size_t K = 0; K < N; ++K) {
    const CorpusEntry &E = *Progs[K];
    bool Sound = true;
    if (!E.LogicalState && EntryBounds[K]) {
      std::optional<IRProgram> IR = lowerSource(E.Source);
      std::string Why;
      Sound = IR && boundDominatesPeak(*IR, E.Function, *EntryBounds[K],
                                       Inputs, 20, -50, 50, &Why);
      if (!Sound)
        fail(Out, std::string(E.Name) + ": unsound: " + Why);
    }
    Out.Failed += Sound ? Passes - RightPasses[K] : Passes;
  }
  Out.Attempted = static_cast<long>(Passes * N);
  finish(Out, C, L, T.spans(), Setups, Rs,
         Rs.opSeconds([](std::size_t, std::size_t) { return true; }));
  return Out;
}

//===----------------------------------------------------------------------===//
// synth_batch
//===----------------------------------------------------------------------===//

namespace {

BatchJob syntheticJob(const SyntheticModule &M) {
  BatchJob J;
  J.Name = M.Name;
  J.Source = M.Source;
  J.Focus = M.EntryFunc;
  J.Pipe.VerifyIR = false;
  J.Pipe.Lint = false;
  return J;
}

bool sameResult(const AnalysisResult &A, const AnalysisResult &B) {
  return A.Success == B.Success && A.Solution == B.Solution &&
         boundStrings(A.Bounds) == boundStrings(B.Bounds);
}

} // namespace

Outcome perfbench::runSynthBatch(const Config &C) {
  Outcome Out;
  const int N = SynthModules;
  const int NumRounds = scaled(C.Seconds, SynthRoundsPerSecond);

  // Set-up: generate the corpus, then warm the allocator and the pool on
  // modules outside the timed set.
  HostClock Clock(/*Corrected=*/false);
  std::vector<std::array<double, 3>> Setups;
  std::vector<SyntheticModule> Mods;
  std::vector<BatchJob> Jobs;
  for (int K = 0; K < SetupRepeats; ++K)
    Setups.push_back(Clock.measured([&] {
      // Module contents do not depend on the module count; those past N
      // warm up.
      Mods = seededCorpus(N + SynthWarmModules, C.Seed);
      Jobs.clear();
      for (int I = 0; I < N; ++I)
        Jobs.push_back(syntheticJob(Mods[static_cast<std::size_t>(I)]));
      std::vector<BatchJob> Warm;
      for (int I = N; I < N + SynthWarmModules; ++I)
        Warm.push_back(syntheticJob(Mods[static_cast<std::size_t>(I)]));
      BatchAnalyzer(Workers).run(Warm);
    }));

  // Timed phase: each round is one cold batch over the whole corpus.
  // Every later round must reproduce the first bit for bit; it is compared
  // with the first and dropped as it ends, outside its timed interval, so
  // that only the first round's results stay for the checks and a round's
  // peak RSS does not grow with its index.
  Trace T(C.Traced);
  Layers L;
  Rounds Rs;
  std::vector<BatchItem> First;
  std::vector<long> Differs(static_cast<std::size_t>(N), 0);
  for (int R = 0; R < NumRounds; ++R) {
    std::vector<BatchItem> Items;
    std::array<double, 3> M = Clock.measured([&] {
      Scope Run(T, "bench.run", R);
      Scope S(T, "pipeline.run", R);
      Items = BatchAnalyzer(Workers).run(Jobs);
    });
    std::vector<double> OpSeconds;
    for (std::size_t I = 0; I < Jobs.size(); ++I) {
      const BatchItem &Item = Items[I];
      L.addStage(Item.Timings);
      L.Constraints += Item.Result.NumConstraints;
      L.SourceBytes += static_cast<long>(Jobs[I].Source.size());
      L.BusyS += Item.Timings.totalSeconds();
      L.MaxJobS = std::max(L.MaxJobS, Item.Timings.totalSeconds());
      OpSeconds.push_back(Item.Timings.totalSeconds());
    }
    Rs.add(M, std::move(OpSeconds));
    if (R == 0) {
      First = std::move(Items);
      continue;
    }
    for (std::size_t I = 0; I < Jobs.size(); ++I)
      Differs[I] += !sameResult(Items[I].Result, First[I].Result);
  }

  // Checks on the first round: each module's certificate, its entry bound
  // against the interpreter, and its bounds against the committed digest
  // (seed 0) or a one-shot serial re-analysis of a seeded sample (other
  // seeds).
  std::map<std::string, std::string> Digests =
      C.Seed == 0 ? readTsv(C.ExpectedDir + "/synth.tsv")
                  : std::map<std::string, std::string>{};
  if (C.Tamper) {
    if (Digests.empty())
      Digests[Mods[0].Name] = "0000000000000000";
    else
      Digests.begin()->second = "0000000000000000";
  }
  std::vector<int> Sample;
  Rng Pick(C.Seed, OneShotSample);
  for (int I = 0; I < N; ++I)
    if (!Digests.count(Mods[static_cast<std::size_t>(I)].Name) &&
        Pick.unit() < 8.0 / N)
      Sample.push_back(I);
  std::vector<BatchJob> SampleJobs;
  for (int I : Sample)
    SampleJobs.push_back(Jobs[static_cast<std::size_t>(I)]);
  std::vector<BatchItem> OneShot = BatchAnalyzer(1).run(SampleJobs);

  Rng Inputs(C.Seed, InterpInputs);
  long DigestChecked = 0;
  std::vector<std::string> Wrong(static_cast<std::size_t>(N));
  for (int I = 0; I < N; ++I) {
    const SyntheticModule &M = Mods[static_cast<std::size_t>(I)];
    const AnalysisResult &R = First[static_cast<std::size_t>(I)].Result;
    std::string &Why = Wrong[static_cast<std::size_t>(I)];
    std::optional<IRProgram> IR = lowerSource(M.Source);
    const Bound *B = R.boundFor(M.EntryFunc);
    if (!R.Success || !IR || !B) {
      Why = "analysis failed: " + R.Error;
      continue;
    }
    Certificate Cert =
        Certificate::fromResult(R, ResourceMetric::ticks(), AnalysisOptions{});
    if (!checkCertificate(*IR, Cert).Valid) {
      Why = "certificate rejected";
      continue;
    }
    if (!boundDominatesPeak(*IR, M.EntryFunc, *B, Inputs, 3, -20, 20, &Why))
      continue;
    auto D = Digests.find(M.Name);
    if (D != Digests.end()) {
      ++DigestChecked;
      if (D->second != boundsDigest(R.Bounds))
        Why = "bounds digest " + boundsDigest(R.Bounds) + ", expected " +
              D->second;
    }
    auto S = std::find(Sample.begin(), Sample.end(), I);
    if (S != Sample.end() &&
        !sameResult(OneShot[static_cast<std::size_t>(S - Sample.begin())]
                        .Result,
                    R))
      Why = "differs from a serial one-shot analysis";
  }
  for (int I = 0; I < N; ++I) {
    const std::string &Why = Wrong[static_cast<std::size_t>(I)];
    long Diff = Differs[static_cast<std::size_t>(I)];
    if (!Why.empty())
      fail(Out, Mods[static_cast<std::size_t>(I)].Name + ": " + Why);
    else if (Diff)
      fail(Out, Mods[static_cast<std::size_t>(I)].Name + ": " +
                    std::to_string(Diff) + " rounds differ from the first");
    Out.Failed += Why.empty() ? Diff : NumRounds;
  }
  Out.Notes.push_back("synth_batch: " + std::to_string(DigestChecked) +
                      " modules checked by digest, " +
                      std::to_string(Sample.size()) + " by one-shot");
  Out.Attempted = static_cast<long>(NumRounds) * N;
  finish(Out, C, L, T.spans(), Setups, Rs,
         Rs.opSeconds([](std::size_t, std::size_t) { return true; }));
  return Out;
}

//===----------------------------------------------------------------------===//
// daemon_edit
//===----------------------------------------------------------------------===//

namespace {

struct DaemonOp {
  long Id = 0; ///< Position in the round's plan; the span op id.
  int Client = 0;
  bool Edit = false;
  int Module = 0;
  service::Request Req;
};

service::Request analyzeRequest(const SyntheticModule &M,
                                const std::string &Source) {
  service::Request R;
  R.Cmd = "analyze";
  R.Name = M.Name;
  R.Source = Source;
  R.Focus = M.EntryFunc;
  return R;
}

/// One closed-loop client: each request is sent when the previous reply
/// has arrived.  Results and latencies land at the ops' plan positions.
void clientLoop(const std::string &Socket, const std::vector<DaemonOp> &Plan,
                int Client, long Round,
                std::vector<service::CallResult> &Results,
                std::vector<double> &Seconds, Trace &T) {
  service::Client Cl(Socket, 60000);
  Scope Run(T, "bench.run", Round);
  for (const DaemonOp &Op : Plan) {
    if (Op.Client != Client)
      continue;
    std::size_t K = static_cast<std::size_t>(Op.Id);
    double T0 = now();
    {
      Scope OpSpan(T, "bench.op", Op.Id);
      Scope S(T, Op.Edit ? "service.edit" : "service.hit", Op.Id);
      Results[K] = Cl.call(Op.Req);
    }
    Seconds[K] = now() - T0;
  }
}

/// Whether a later round's reply carries the first round's bounds.
bool sameReply(const service::CallResult &Later,
               const service::CallResult &First) {
  return Later.ok() && First.ok() && Later.Resp->Bounds == First.Resp->Bounds;
}

/// A BoundsServer over fresh durable stores in its own directory, which
/// it removes when stopped.
struct Daemon {
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  std::string Dir;
  std::unique_ptr<service::BoundsServer> Server;

  /// \p Dir is relative to the working directory, which keeps the socket
  /// path short.
  bool start(const std::string &Directory, std::string *Err) {
    Dir = Directory;
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    std::filesystem::create_directories(Dir, EC);
    service::ServerOptions O;
    O.SocketPath = socket();
    O.NumWorkers = Workers;
    O.CacheDir = Dir + "/cache";
    O.SummaryDir = Dir + "/summaries";
    O.IdleTimeoutMs = 60000;
    Server = std::make_unique<service::BoundsServer>(O);
    return Server->start(Err);
  }
  void stop() {
    if (Server) {
      Server->requestShutdown();
      Server->wait();
      Server.reset();
    }
    if (!Dir.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Dir, EC);
      Dir.clear();
    }
  }
  std::string socket() const { return Dir + "/d.sock"; }
};

/// The op sequence of a round.  Client W owns modules W, W+Workers, ...
/// and edits every tick of them once, in a seeded order; an edit sets the
/// tick's amount to a value never sent before.  After every fourth edit the
/// client resubmits one of its modules unchanged.  Editing every tick once
/// gives every seed the same work in another order: a seeded draw of ticks
/// moved the edit latency by a fifth between seeds.
std::vector<DaemonOp> roundPlan(const std::vector<SyntheticModule> &Mods,
                                Rng &R) {
  long NextTick = 100; // Above every amount seededCorpus writes.
  std::vector<std::string> Current;
  for (const SyntheticModule &M : Mods)
    Current.push_back(M.Source);
  std::vector<DaemonOp> Plan;
  for (int W = 0; W < Workers; ++W) {
    std::vector<std::pair<std::size_t, std::size_t>> Ticks;
    for (std::size_t M = static_cast<std::size_t>(W); M < Mods.size();
         M += Workers)
      for (std::size_t T = 0; T < tickAmounts(Mods[M].Source).size(); ++T)
        Ticks.push_back({M, T});
    for (std::size_t I = Ticks.size(); I > 1; --I)
      std::swap(Ticks[I - 1], Ticks[static_cast<std::size_t>(
                                  R.pick(static_cast<int>(I)))]);
    int Edits = 0;
    for (auto [M, T] : Ticks) {
      std::string &Src = Current[M];
      Src = setTick(Src, tickAmounts(Src)[T], NextTick++);
      Plan.push_back(
          {0, W, true, static_cast<int>(M), analyzeRequest(Mods[M], Src)});
      if (++Edits % ResubmitEvery == 0) {
        std::size_t H = static_cast<std::size_t>(
            W + Workers * R.pick(static_cast<int>(Mods.size()) / Workers));
        Plan.push_back({0, W, false, static_cast<int>(H),
                        analyzeRequest(Mods[H], Current[H])});
      }
    }
  }
  for (std::size_t K = 0; K < Plan.size(); ++K)
    Plan[K].Id = static_cast<long>(K);
  return Plan;
}

/// Opens every module through \p Workers concurrent clients.
std::vector<service::CallResult>
openProject(const Daemon &D, const std::vector<SyntheticModule> &Mods) {
  std::vector<service::CallResult> Opens(Mods.size());
  std::vector<std::thread> Threads;
  for (int W = 0; W < Workers; ++W)
    Threads.emplace_back([&, W] {
      service::Client Cl(D.socket(), 60000);
      for (std::size_t M = static_cast<std::size_t>(W); M < Mods.size();
           M += Workers)
        Opens[M] = Cl.call(analyzeRequest(Mods[M], Mods[M].Source));
    });
  for (std::thread &Th : Threads)
    Th.join();
  return Opens;
}

} // namespace

Outcome perfbench::runDaemonEdit(const Config &C) {
  Outcome Out;
  const int NumRounds = scaled(C.Seconds, DaemonRoundsPerSecond);
  const std::vector<SyntheticModule> Mods = seededCorpus(DaemonModules, C.Seed);

  // Every round replays the plan against a fresh daemon, to which its
  // tick values are new.
  Rng R(C.Seed, EditPlan);
  const std::vector<DaemonOp> Plan = roundPlan(Mods, R);

  // Rounds: set up (start the daemon over empty durable stores, recovery
  // scan included, and open every module), then run the clients
  // concurrently, one connection each.  Every later round must answer as
  // the first; it is compared with the first and dropped as it ends,
  // outside its timed interval, so that only the first round's replies
  // stay for the checks and a round's peak RSS does not grow with its
  // index.
  HostClock Clock(/*Corrected=*/false);
  std::vector<std::array<double, 3>> Setups;
  Rounds Rs;
  Layers L;
  std::vector<Trace> Traces;
  for (int W = 0; W < Workers; ++W)
    Traces.emplace_back(C.Traced, W);
  std::vector<service::CallResult> FirstOpens, First;
  std::vector<long> Differs(Plan.size(), 0);
  std::vector<double> HitSeconds;
  long Hits = 0;
  for (int Round = 0; Round < NumRounds; ++Round) {
    Daemon D;
    std::string Err;
    bool Started = false;
    std::vector<service::CallResult> Opens;
    Setups.push_back(Clock.measured([&] {
      Started = D.start("daemon" + std::to_string(Round), &Err);
      if (Started)
        Opens = openProject(D, Mods);
    }));
    if (!Started) {
      fail(Out, "daemon start: " + Err);
      return Out;
    }

    service::ServerStats S0 = D.Server->stats();
    CacheStats C0 = D.Server->cache()->stats();
    SummaryStoreStats Sum0 = D.Server->summaries()->stats();
    std::vector<service::CallResult> Res(Plan.size());
    std::vector<double> Seconds(Plan.size());
    std::array<double, 3> M = Clock.measured([&] {
      std::vector<std::thread> Threads;
      for (int W = 0; W < Workers; ++W)
        Threads.emplace_back(clientLoop, D.socket(), std::cref(Plan), W,
                             static_cast<long>(Round), std::ref(Res),
                             std::ref(Seconds),
                             std::ref(Traces[static_cast<std::size_t>(W)]));
      for (std::thread &Th : Threads)
        Th.join();
    });
    Rs.add(M, std::move(Seconds));
    service::ServerStats S1 = D.Server->stats();
    CacheStats C1 = D.Server->cache()->stats();
    SummaryStoreStats Sum1 = D.Server->summaries()->stats();
    L.CacheLookups += C1.Lookups - C0.Lookups;
    L.CacheHits += C1.Hits - C0.Hits;
    L.CacheStores += C1.Stores - C0.Stores;
    L.CacheEntries = std::max(L.CacheEntries, C1.Stores);
    L.StoreHits += Sum1.Hits - Sum0.Hits;
    L.StoreWrites += Sum1.Stores - Sum0.Stores;
    L.Rejected += (S1.Overloaded - S0.Overloaded) +
                  (S1.DrainRejected - S0.DrainRejected) +
                  (S1.BadRequests - S0.BadRequests);
    for (const DaemonOp &Op : Plan) {
      std::size_t K = static_cast<std::size_t>(Op.Id);
      const service::CallResult &Reply = Res[K];
      double Sec = Rs.OpSeconds.back()[K];
      L.SourceBytes += static_cast<long>(Op.Req.Source.size());
      L.RequestBytes += static_cast<long>(Op.Req.encode().size());
      (Op.Edit ? L.EditCallS : L.HitCallS) += Sec;
      if (!Op.Edit)
        HitSeconds.push_back(Sec);
      Hits += !Op.Edit && Reply.ok() && Reply.Resp->FromCache;
      if (Reply.ok() && !Reply.Resp->FromCache) {
        auto Count = [&](const char *Key) {
          auto It = Reply.Resp->Counters.find(Key);
          return It == Reply.Resp->Counters.end()
                     ? 0L
                     : static_cast<long>(It->second);
        };
        L.SccsSolved += Count("sccs_solved");
        L.SccsReused += Count("summaries_reused");
        L.Splices += Count("summaries_applied");
        L.Constraints += Count("num_constraints");
      }
    }
    if (Round == 0) {
      FirstOpens = std::move(Opens);
      First = std::move(Res);
      continue;
    }
    for (std::size_t Mod = 0; Mod < Mods.size(); ++Mod)
      if (!sameReply(Opens[Mod], FirstOpens[Mod]))
        fail(Out, "open " + Mods[Mod].Name + " in round " +
                      std::to_string(Round) + " differs from the first");
    for (std::size_t K = 0; K < Plan.size(); ++K)
      Differs[K] += !sameReply(Res[K], First[K]);
  }
  L.HitP50Ms = percentile(HitSeconds, 0.5) * 1e3;

  // Checks on the first round: every distinct source the daemon answered
  // is re-analyzed once, one-shot with no cache or store; the daemon's
  // bounds must equal those, and the entry bound must dominate the
  // interpreter's peak cost.
  std::map<std::string, std::size_t> Distinct;
  std::vector<BatchJob> Jobs;
  std::vector<const SyntheticModule *> JobModule;
  auto AddSource = [&](const SyntheticModule &M, const std::string &Src) {
    if (Distinct.emplace(Src, Jobs.size()).second) {
      BatchJob J = syntheticJob(M);
      J.Source = Src;
      Jobs.push_back(std::move(J));
      JobModule.push_back(&M);
    }
  };
  for (const SyntheticModule &M : Mods)
    AddSource(M, M.Source);
  for (const DaemonOp &Op : Plan)
    AddSource(Mods[static_cast<std::size_t>(Op.Module)], Op.Req.Source);
  std::vector<BatchItem> Ref = BatchAnalyzer(VerifyWorkers).run(Jobs);
  std::vector<std::string> Unsound(Jobs.size());
  Rng Inputs(C.Seed, InterpInputs);
  for (std::size_t J = 0; J < Jobs.size(); ++J) {
    const AnalysisResult &A = Ref[J].Result;
    const Bound *B = A.boundFor(JobModule[J]->EntryFunc);
    std::optional<IRProgram> IR = lowerSource(Jobs[J].Source);
    if (!A.Success || !B || !IR)
      Unsound[J] = "one-shot analysis failed: " + A.Error;
    else
      boundDominatesPeak(*IR, JobModule[J]->EntryFunc, *B, Inputs, 2, -20, 20,
                         &Unsound[J]);
  }
  auto Check = [&](const service::CallResult &Res, const std::string &Src,
                   std::string *Why) {
    std::size_t J = Distinct.at(Src);
    if (!Res.ok()) {
      *Why = "request failed: " +
             (Res.Resp ? Res.Resp->Error : Res.TransportError);
      return false;
    }
    if (!Unsound[J].empty()) {
      *Why = Unsound[J];
      return false;
    }
    std::map<std::string, std::string> Want =
        boundStrings(Ref[J].Result.Bounds);
    if (C.Tamper && Src == Plan.front().Req.Source)
      Want.begin()->second += " + 1";
    if (Res.Resp->Bounds != Want) {
      *Why = "bounds differ from a one-shot analysis";
      return false;
    }
    return true;
  };
  for (std::size_t M = 0; M < Mods.size(); ++M) {
    std::string Why;
    if (!Check(FirstOpens[M], Mods[M].Source, &Why))
      fail(Out, "open " + Mods[M].Name + ": " + Why);
  }
  long Edits = 0;
  for (const DaemonOp &Op : Plan) {
    std::size_t K = static_cast<std::size_t>(Op.Id);
    std::string Why;
    bool Right = Check(First[K], Op.Req.Source, &Why);
    if (!Right)
      fail(Out, std::string(Op.Edit ? "edit " : "resubmit ") +
                    Mods[static_cast<std::size_t>(Op.Module)].Name + ": " +
                    Why);
    else if (Differs[K])
      fail(Out, std::string(Op.Edit ? "edit " : "resubmit ") +
                    Mods[static_cast<std::size_t>(Op.Module)].Name + ": " +
                    std::to_string(Differs[K]) +
                    " rounds differ from the first");
    Out.Failed += Right ? Differs[K] : NumRounds;
    Edits += Op.Edit ? NumRounds : 0;
  }
  Out.Attempted = Rs.ops();
  Out.Notes.push_back("daemon_edit: " + std::to_string(Edits) + " edits, " +
                      std::to_string(Out.Attempted - Edits) + " resubmits (" +
                      std::to_string(Hits) + " served from cache), " +
                      std::to_string(Jobs.size()) +
                      " distinct sources re-analyzed one-shot");

  Trace Merged(C.Traced);
  for (const Trace &T : Traces)
    Merged.merge(T);
  finish(Out, C, L, Merged.spans(), Setups, Rs,
         Rs.opSeconds([&](std::size_t, std::size_t K) { return Plan[K].Edit; }));
  return Out;
}

//===----------------------------------------------------------------------===//
// Expected answers
//===----------------------------------------------------------------------===//

bool perfbench::writeExpected(const std::string &Dir) {
  std::ofstream T3(Dir + "/table3.tsv");
  for (const CorpusEntry &E : corpus()) {
    std::optional<IRProgram> IR = lowerSource(E.Source);
    AnalysisResult R;
    if (IR)
      R = analyzeProgramScheduled(*IR, ResourceMetric::ticks(),
                                  AnalysisOptions{}, E.Function);
    const Bound *B = R.Success ? R.boundFor(E.Function) : nullptr;
    T3 << E.Name << '\t'
       << (B ? B->toString()
             : std::string("error:") + errorKindName(R.ErrorKind))
       << '\n';
  }

  std::vector<SyntheticModule> Mods = seededCorpus(SynthModules, 0);
  std::vector<BatchJob> Jobs;
  for (const SyntheticModule &M : Mods)
    Jobs.push_back(syntheticJob(M));
  std::vector<BatchItem> Items = BatchAnalyzer(VerifyWorkers).run(Jobs);
  std::ofstream Synth(Dir + "/synth.tsv");
  for (std::size_t I = 0; I < Items.size(); ++I) {
    if (!Items[I].Result.Success)
      return false;
    Synth << Mods[I].Name << '\t' << boundsDigest(Items[I].Result.Bounds)
          << '\n';
  }
  return T3.good() && Synth.good();
}
