//===--- Trace.h - Benchmark-side spans and layer self times ----*- C++ -*-===//
//
// Part of the c4b repository benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around each public call it makes into a
/// library layer.  A span is named `<layer>.<call>`, holds its start, end,
/// parent span, and op id, and lives in memory until the run ends.  A
/// layer's self time is the duration of its spans minus the part their
/// child spans cover.  A disabled trace records nothing and reads no clock.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now();

struct Span {
  const char *Name = ""; ///< "<layer>.<call>"; a string literal
  double Start = 0;
  double End = 0;
  int Parent = -1; ///< Index into the same span list; -1 for a root.
  long Op = -1;    ///< Op id; -1 outside ops.
  int Thread = 0;  ///< Which benchmark thread recorded it.
};

/// The spans of one benchmark thread.
class Trace {
public:
  explicit Trace(bool On, int Thread = 0) : On(On), Thread(Thread) {}

  bool on() const { return On; }
  /// Opens a child of the innermost open span; returns its index (or -1
  /// when tracing is off).
  int open(const char *Name, long Op);
  void close(int Index);

  const std::vector<Span> &spans() const { return Spans; }
  /// Appends another thread's spans, re-basing their parent indices.
  void merge(const Trace &Other);

private:
  bool On;
  int Thread;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Records one span for the lifetime of the scope.
class Scope {
public:
  Scope(Trace &T, const char *Name, long Op = -1)
      : T(T), Index(T.open(Name, Op)) {}
  ~Scope() { T.close(Index); }

  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Trace &T;
  int Index;
};

struct LayerTime {
  std::string Layer;
  double SelfSeconds = 0;
  double TotalSeconds = 0; ///< Sum of span durations, children included.
  long Spans = 0;
};

/// Self and total time per layer (the span name up to its first '.'), in
/// descending self time.
std::vector<LayerTime> layerTimes(const std::vector<Span> &Spans);

/// Sum of the durations of the spans named exactly \p Name.
double spanSeconds(const std::vector<Span> &Spans, const char *Name);

/// Writes the spans as one JSON array (times in seconds from the first
/// span).  False when the file cannot be written.
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
