// The benchmark's workloads. Each runs in its own process and returns the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#ifndef VBRBENCH_WORKLOADS_H_
#define VBRBENCH_WORKLOADS_H_

#include "report.h"

namespace vbrbench {

Outcome RunRepeatM2(const RunOptions& options);
Outcome RunColdCatalogM1(const RunOptions& options);
Outcome RunWireChurn(const RunOptions& options);

}  // namespace vbrbench

#endif  // VBRBENCH_WORKLOADS_H_
