/**
 * @file
 * golbench: the golite benchmark's single entry point.
 *
 *   golbench --workload detect|search|artifacts|serve --seed N
 *            --seconds S --trace 0|1 [--workers W] [--oracle-dir D]
 *            [--out-dir D] [--emit-oracle] [--fingerprints]
 *
 * Prints a few human-readable lines, then, as the last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones, measured untraced;
 * with --trace 1 they are the per-layer ones from a traced repeat of
 * the same work. The names and units here match BENCHMARK.json.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hh"

namespace perfbench
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kPerLayer[] = {
    {"runtime.self_us_p50", "us"},
    {"runtime.self_us_p99", "us"},
    {"runtime.self_us_per_req", "us"},
    {"runtime.spawns", "count"},
    {"runtime.context_switches", "count"},
    {"runtime.parks", "count"},
    {"runtime.blocks_sleep", "count"},
    {"runtime.blocks_netio", "count"},
    {"runtime.max_live_goroutines", "count"},
    {"race.events", "count"},
    {"race.ns_per_event", "ns"},
    {"race.reports", "count"},
    {"race.peak_clock_slots", "count"},
    {"race.peak_shadow_entries", "count"},
    {"race.shadow_freed", "count"},
    {"race.arena_bytes", "B"},
    {"waitgraph.events", "count"},
    {"waitgraph.ns_per_event", "ns"},
    {"waitgraph.partial_deadlocks", "count"},
    {"parallel.setup_s", "s"},
    {"parallel.run_s", "s"},
    {"parallel.merge_s", "s"},
    {"parallel.busy_ratio", "ratio"},
    {"explore.executions", "count"},
    {"explore.redundant_ratio", "ratio"},
    {"explore.self_us_per_exec", "us"},
    {"explore.execs_to_bug", "count"},
    {"explore.certified", "count"},
    {"fuzz.executions", "count"},
    {"fuzz.execs_to_bug", "count"},
    {"fuzz.coverage_states", "count"},
    {"fuzz.self_us_per_exec", "us"},
    {"scanner.generate_mb_per_s", "MB/s"},
    {"scanner.count_mb_per_s", "MB/s"},
    {"scanner.generate_share", "ratio"},
    {"scanner.primitives", "count"},
    {"load.requests_sent", "count"},
    {"load.responses", "count"},
    {"load.dropped", "count"},
    {"load.conn_errors", "count"},
    {"load.goroutines_created", "count"},
    {"load.queue_p999_ms", "ms"},
    {"obs.trace_overhead", "ratio"},
    {"obs.spans", "count"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "golbench: %s\nusage: golbench --workload "
                 "detect|search|artifacts|serve --seed N --seconds S "
                 "--trace 0|1 [--workers W] [--oracle-dir D] "
                 "[--out-dir D] [--emit-oracle] [--fingerprints]\n",
                 why);
    return 2;
}

} // namespace

void
foldRunMetrics(golite::RunMetrics &into, const golite::RunMetrics &m)
{
    into.spawns += m.spawns;
    into.contextSwitches += m.contextSwitches;
    into.parks += m.parks;
    for (size_t r = 0; r < m.blocksByReason.size(); ++r)
        into.blocksByReason[r] += m.blocksByReason[r];
    into.maxLiveGoroutines =
        std::max(into.maxLiveGoroutines, m.maxLiveGoroutines);
    const auto &d = m.detector;
    auto &sum = into.detector;
    sum.peakClockSlots = std::max(sum.peakClockSlots, d.peakClockSlots);
    sum.peakShadowEntries =
        std::max(sum.peakShadowEntries, d.peakShadowEntries);
    sum.shadowFreed += d.shadowFreed;
    sum.arenaBytes = std::max(sum.arenaBytes, d.arenaBytes);
}

void
addRunMetrics(LayerMetrics &L, const golite::RunMetrics &m)
{
    auto blocks = [&](golite::WaitReason r) {
        return static_cast<double>(m.blocksByReason[static_cast<size_t>(r)]);
    };
    L["runtime.spawns"] = static_cast<double>(m.spawns);
    L["runtime.context_switches"] = static_cast<double>(m.contextSwitches);
    L["runtime.parks"] = static_cast<double>(m.parks);
    L["runtime.blocks_sleep"] = blocks(golite::WaitReason::Sleep);
    L["runtime.blocks_netio"] = blocks(golite::WaitReason::NetIO);
    L["runtime.max_live_goroutines"] =
        static_cast<double>(m.maxLiveGoroutines);
    L["race.peak_clock_slots"] =
        static_cast<double>(m.detector.peakClockSlots);
    L["race.peak_shadow_entries"] =
        static_cast<double>(m.detector.peakShadowEntries);
    L["race.shadow_freed"] = static_cast<double>(m.detector.shadowFreed);
    L["race.arena_bytes"] = static_cast<double>(m.detector.arenaBytes);
}

void
addSubscriberStats(LayerMetrics &L,
                   const std::array<LayerStats, kLayerCount> &stats)
{
    auto add = [&](Layer layer, const std::string &prefix) {
        const LayerStats &s = stats[static_cast<size_t>(layer)];
        L[prefix + ".events"] = static_cast<double>(s.events);
        L[prefix + ".ns_per_event"] =
            s.events ? s.eventNs / static_cast<double>(s.events) : 0;
    };
    add(Layer::Race, "race");
    add(Layer::Waitgraph, "waitgraph");
}

void
addTraceTotals(const Config &config, WorkloadOutput &out)
{
    Tracer &tracer = Tracer::instance();
    out.layers["obs.trace_overhead"] =
        out.untracedCpu > 0 ? out.tracedCpu / out.untracedCpu : 0;
    out.layers["obs.spans"] = static_cast<double>(tracer.spanCount());
    if (config.outDir.empty())
        return;
    const std::string path =
        config.outDir + "/spans-" + config.workload + ".tsv";
    if (!tracer.write(path))
        std::fprintf(stderr, "golbench: cannot write %s\n", path.c_str());
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Config config;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--emit-oracle") {
            config.emitOracle = true;
        } else if (arg == "--fingerprints") {
            config.fingerprints = true;
        } else if ((v = value()) == nullptr) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            config.workload = v;
            have_workload = true;
        } else if (arg == "--seed") {
            config.seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            config.seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace") {
            config.trace = std::strcmp(v, "0") != 0;
        } else if (arg == "--workers") {
            config.workers = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--oracle-dir") {
            config.oracleDir = v;
        } else if (arg == "--out-dir") {
            config.outDir = v;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    if (config.seconds <= 0 || config.workers == 0)
        return usage("--seconds and --workers must be positive");

    WorkloadOutput out;
    if (config.workload == "detect")
        out = runDetect(config);
    else if (config.workload == "search")
        out = runSearch(config);
    else if (config.workload == "artifacts")
        out = runArtifacts(config);
    else if (config.workload == "serve")
        out = runServe(config);
    else
        return usage(("unknown workload " + config.workload).c_str());

    Result &res = out.result;
    if (!config.trace) {
        res.add("setup_s", out.setupSeconds, "s");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        res.add("ops_per_s", out.opsPerSecond, "1/s");
        res.add("cpu_us_per_op", out.cpuUsPerOp, "us");
        res.add("p50_ms", out.p50Ms, "ms");
        res.add("p999_ms", out.p999Ms, "ms");
    } else {
        for (const MetricDef &m : kPerLayer) {
            const auto it = out.layers.find(m.name);
            res.add(m.name, it == out.layers.end() ? 0.0 : it->second,
                    m.unit);
        }
    }
    if (res.attempted == 0)
        res.fail("no operation was attempted");
    std::fflush(stderr);
    std::printf("%s\n", res.json().c_str());
    return 0;
}
