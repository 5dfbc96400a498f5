/**
 * @file
 * The four workloads. Each runs its untraced measurement for
 * Config::seconds and fills the end-to-end metrics; with
 * Config::trace it instead repeats the same amount of work traced and
 * fills the per-layer metrics (see perfbench/PREDICTIONS.md for what
 * each one should move).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <map>
#include <string>

#include "common.hh"
#include "runtime/report.hh"
#include "trace.hh"

namespace perfbench
{

/** Per-layer metric values by name; absent names print as 0. */
using LayerMetrics = std::map<std::string, double>;

/**
 * Shared shape of a workload run: end-to-end numbers for the untraced
 * pass, plus the per-layer map and the untraced/traced CPU seconds of
 * equal work when Config::trace is set.
 */
struct WorkloadOutput
{
    Result result;
    double setupSeconds = 0;
    double opsPerSecond = 0;
    double cpuUsPerOp = 0;
    double p50Ms = 0;
    double p999Ms = 0;
    LayerMetrics layers;
    double untracedCpu = 0;
    double tracedCpu = 0;
};

WorkloadOutput runDetect(const Config &config);
WorkloadOutput runSearch(const Config &config);
WorkloadOutput runArtifacts(const Config &config);
WorkloadOutput runServe(const Config &config);

/** Fill the per-layer numbers every traced workload shares. */
void addTraceTotals(const Config &config, WorkloadOutput &out);

/** Sum run counters into @p into (peaks take the maximum). */
void foldRunMetrics(golite::RunMetrics &into, const golite::RunMetrics &m);

/** runtime.* counters and the race.* footprint from folded metrics. */
void addRunMetrics(LayerMetrics &layers, const golite::RunMetrics &m);

/** race.* and waitgraph.* event counts and ns per event. */
void addSubscriberStats(LayerMetrics &layers,
                        const std::array<LayerStats, kLayerCount> &stats);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
