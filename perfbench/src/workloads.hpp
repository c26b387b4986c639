// The benchmark's workloads. Each fills `result` with its rows and its
// end-to-end metrics (or, with options.trace, its per-layer metrics).
#pragma once

#include "common.hpp"

namespace perfbench {

/// wire_tiny / wire_imagenet: a server on a loopback socket driven open
/// loop at fixed absolute rates.
void run_wire(const Options& options, Result& result);

/// offline_1080p: in-process closed-loop transcode of 1080p JPEGs.
void run_offline(const Options& options, Result& result);

}  // namespace perfbench
