#pragma once

/**
 * @file
 * The three perfbench workloads and the metric sets they print.
 *
 * Untraced runs (--trace 0) print the end-to-end metrics; traced runs
 * (--trace 1) print every per-layer metric. Each workload fills in the
 * layers it exercises; a layer a workload never calls reads 0.
 */

#include <map>
#include <string>

#include "harness.h"

namespace perfbench {

/** Per-layer values by name; EmitPerLayer adds units and missing zeros. */
using LayerValues = std::map<std::string, double>;

void EmitPerLayer(Report& report, const LayerValues& values);

/**
 * The tensor layer's counters between two snapshots: GEMM calls, GFLOP
 * and packed floats per request, kernel-cache hit share and repacks, and
 * the mean thread-pool wake latency.
 */
LayerValues TensorLayers(const CounterSnapshot& before,
                         const CounterSnapshot& after, double requests);

/** Checked-in hybrid plan + threshold of Table VII's headline scheme. */
void RunDlrmKaggle(const Options& options, Report& report);
/** DHE token embeddings in front of the fig15 bench-scale GPT trunk. */
void RunLlmGen(const Options& options, Report& report);
/** ORAM features behind serving::Server; see serve_oram.cc. */
void RunServeOram(const Options& options, Report& report);

}  // namespace perfbench
