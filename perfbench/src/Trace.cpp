//===--- Trace.cpp - Benchmark-side spans and layer self times -------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>

using namespace perfbench;

double perfbench::now() {
  static const auto Epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Epoch)
      .count();
}

int Trace::open(const char *Name, long Op) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Op = Op;
  S.Thread = Thread;
  Spans.push_back(S);
  int Index = static_cast<int>(Spans.size()) - 1;
  Stack.push_back(Index);
  Spans.back().Start = now();
  return Index;
}

void Trace::close(int Index) {
  if (Index < 0)
    return;
  Spans[static_cast<std::size_t>(Index)].End = now();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

void Trace::merge(const Trace &Other) {
  int Base = static_cast<int>(Spans.size());
  for (Span S : Other.Spans) {
    if (S.Parent >= 0)
      S.Parent += Base;
    Spans.push_back(S);
  }
}

std::vector<LayerTime> perfbench::layerTimes(const std::vector<Span> &Spans) {
  std::vector<double> ChildSeconds(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSeconds[static_cast<std::size_t>(S.Parent)] += S.End - S.Start;

  std::map<std::string, LayerTime> ByLayer;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    const char *Dot = std::strchr(S.Name, '.');
    std::string Layer =
        Dot ? std::string(S.Name, static_cast<std::size_t>(Dot - S.Name))
            : std::string(S.Name);
    LayerTime &L = ByLayer[Layer];
    L.Layer = Layer;
    L.TotalSeconds += S.End - S.Start;
    L.SelfSeconds += S.End - S.Start - ChildSeconds[I];
    ++L.Spans;
  }
  std::vector<LayerTime> Out;
  for (auto &KV : ByLayer)
    Out.push_back(KV.second);
  std::sort(Out.begin(), Out.end(), [](const LayerTime &A, const LayerTime &B) {
    return A.SelfSeconds > B.SelfSeconds;
  });
  return Out;
}

double perfbench::spanSeconds(const std::vector<Span> &Spans,
                              const char *Name) {
  double Sum = 0;
  for (const Span &S : Spans)
    if (std::strcmp(S.Name, Name) == 0)
      Sum += S.End - S.Start;
  return Sum;
}

bool perfbench::writeSpans(const std::string &Path,
                           const std::vector<Span> &Spans) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  double T0 = Spans.empty() ? 0 : Spans.front().Start;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.Start);
  std::fprintf(F, "[\n");
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %d, \"op\": %ld, "
                 "\"thread\": %d}%s\n",
                 I, S.Name, S.Start - T0, S.End - T0, S.Parent, S.Op, S.Thread,
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}
