//===--- HostSpeed.h - How fast the host runs right now ---------*- C++ -*-===//
//
// Part of the c4b repository benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's host changes speed by up to half over minutes, mostly
/// from neighbours contending for caches and memory: a fixed spin loop, a
/// fixed pointer chase and the analyzer all slow down together, and a whole
/// run's timings move with them whatever estimator takes them.  So every
/// end-to-end timing is divided by the host factor measured around it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOSTSPEED_H
#define PERFBENCH_HOSTSPEED_H

namespace perfbench {

/// Times a fixed kernel that shares no code with the library and touches
/// no heap the workload uses (link a pool of 30000 small nodes, allocated
/// before main(), at random and chase 200000 links; six rounds after an
/// untimed one) and returns its time over its nominal time: about 1 on the
/// calibration host when it is fast, above 1 when the host is slower.
double hostFactor();

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_H
