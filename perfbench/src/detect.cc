/**
 * @file
 * `detect`: the paper's reproduction protocol at scale. Every corpus
 * kernel, buggy and fixed, runs under many seeds with the race and
 * wait-graph detectors attached, fanned through parallel::runJobs.
 *
 * One pass is kernels x {buggy, fixed} x kSeedsPerVariant runs; the
 * run repeats identical passes until the time is up, so every pass
 * must reproduce the first pass's verdicts exactly. Verdicts are
 * folded per sweep chunk into per-kernel counts, and the reports are
 * dropped with the chunk, so the benchmark's own memory stays small.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "corpus/bug.hh"
#include "obs/metrics.hh"
#include "parallel/sweep.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

using golite::RunOptions;
using golite::RunReport;
using golite::corpus::BugCase;
using golite::corpus::BugOutcome;
using golite::corpus::Variant;

namespace
{

constexpr size_t kSeedsPerVariant = 64;
constexpr size_t kChunk = 2048;

/** Verdict bits folded per run. */
enum : uint8_t
{
    kManifested = 1,
    kRaced = 2,
    kPartial = 4,
    kGlobal = 8,
    kPanicked = 16,
    kLeaked = 32,
};
constexpr int kVerdictBits = 6;
constexpr const char *kVerdictNames[kVerdictBits] = {
    "manifested", "raced", "partial", "global", "panicked", "leaked"};

uint8_t
verdictOf(const BugOutcome &out)
{
    const RunReport &r = out.report;
    return static_cast<uint8_t>(
        (out.manifested ? kManifested : 0) |
        (r.raceMessages.empty() ? 0 : kRaced) |
        (r.partialDeadlockFlagged() ? kPartial : 0) |
        (r.globalDeadlock ? kGlobal : 0) | (r.panicked ? kPanicked : 0) |
        (r.leaked.empty() ? 0 : kLeaked));
}

/** A fixed variant is flagged when any symptom or detector fires. */
bool
flagged(uint8_t verdict)
{
    return (verdict & ~kLeaked) != 0;
}

struct Plan
{
    std::vector<const BugCase *> kernels;
    uint64_t seedBase = 0;

    size_t runs() const { return kernels.size() * 2 * kSeedsPerVariant; }
    /** Kernel-variant slot of job @p j (kernel-major, buggy first). */
    static size_t slot(size_t j) { return j / kSeedsPerVariant; }
};

/** One sweep's worth of jobs and the per-job outputs they write. */
struct Chunk
{
    size_t first = 0;
    std::vector<std::function<RunReport()>> jobs;
    std::vector<uint8_t> verdict;
    /** Span the traced jobs hang under (set before each sweep). */
    uint64_t parentSpan = 0;
};

/**
 * The traced job's per-thread instrumentation: forwarders in front of
 * this worker's detectors plus a MetricsSink for runtime counters.
 */
struct TracedWorker
{
    TimedSubscriber &race = Tracer::instance().forwarder(Layer::Race);
    TimedSubscriber &waitgraph =
        Tracer::instance().forwarder(Layer::Waitgraph);
    TimedSubscriber &metrics = Tracer::instance().forwarder(Layer::Obs);
    golite::obs::MetricsSink sink;

    int64_t ns() const { return race.ns() + waitgraph.ns() + metrics.ns(); }
};

std::vector<std::unique_ptr<Chunk>>
buildChunks(const Plan &plan, bool traced)
{
    std::vector<std::unique_ptr<Chunk>> chunks;
    for (size_t first = 0; first < plan.runs(); first += kChunk) {
        auto chunk = std::make_unique<Chunk>();
        chunk->first = first;
        const size_t n = std::min(kChunk, plan.runs() - first);
        chunk->verdict.assign(n, 0);
        Chunk *c = chunk.get();
        for (size_t i = 0; i < n; ++i) {
            const size_t j = first + i;
            const BugCase *bug = plan.kernels[j / (2 * kSeedsPerVariant)];
            const Variant variant = (Plan::slot(j) % 2 == 0)
                                        ? Variant::Buggy
                                        : Variant::Fixed;
            const uint64_t seed = plan.seedBase + j % kSeedsPerVariant;
            if (!traced) {
                chunk->jobs.push_back([bug, variant, seed, c, i] {
                    RunOptions ro;
                    ro.seed = seed;
                    ro.subscribers = {
                        &golite::parallel::threadLocalDetector(4),
                        &golite::parallel::threadLocalWaitgraphDetector()};
                    BugOutcome out = bug->run(variant, ro);
                    c->verdict[i] = verdictOf(out);
                    return std::move(out.report);
                });
                continue;
            }
            chunk->jobs.push_back([bug, variant, seed, c, i] {
                thread_local TracedWorker w;
                w.race.wrap(&golite::parallel::threadLocalDetector(4));
                w.waitgraph.wrap(
                    &golite::parallel::threadLocalWaitgraphDetector());
                w.metrics.wrap(&w.sink);
                RunOptions ro;
                ro.seed = seed;
                // The race detector publishes its footprint before the
                // sink copies the report's metrics, so it goes first.
                ro.subscribers = {&w.race, &w.waitgraph, &w.metrics};
                const int64_t before = w.ns();
                Tracer &t = Tracer::instance();
                const uint64_t span =
                    t.begin("BugCase::run", Layer::Runtime, c->parentSpan);
                BugOutcome out = bug->run(variant, ro);
                t.end(span, w.ns() - before);
                c->verdict[i] = verdictOf(out);
                return std::move(out.report);
            });
        }
        chunks.push_back(std::move(chunk));
    }
    return chunks;
}

/** Folded outputs of one pass. */
struct Pass
{
    std::vector<std::array<uint32_t, kVerdictBits>> counts;
    uint64_t fixedFlagged = 0;
    uint64_t fingerprint = 14695981039346656037ull;
    // Traced-pass totals.
    golite::RunMetrics metrics;
    uint64_t raceReports = 0;
    uint64_t partialDeadlocks = 0;

    std::string canonical(const Plan &plan) const
    {
        std::string out;
        for (size_t s = 0; s < counts.size(); ++s) {
            out += plan.kernels[s / 2]->info.id;
            out += s % 2 == 0 ? " buggy runs=" : " fixed runs=";
            out += std::to_string(kSeedsPerVariant);
            for (int b = 0; b < kVerdictBits; ++b)
                out += std::string(" ") + kVerdictNames[b] + "=" +
                       std::to_string(counts[s][b]);
            out += "\n";
        }
        return out;
    }
};

Pass
runPass(const Plan &plan, std::vector<std::unique_ptr<Chunk>> &chunks,
        const golite::parallel::SweepOptions &sweep, const Config &config)
{
    Pass pass;
    pass.counts.assign(plan.runs() / kSeedsPerVariant, {});
    for (auto &chunk : chunks) {
        ScopedSpan span("parallel::runJobs", Layer::Parallel);
        chunk->parentSpan = span.id();
        const std::vector<RunReport> reports =
            golite::parallel::runJobs(chunk->jobs, sweep);
        for (size_t i = 0; i < reports.size(); ++i) {
            const size_t j = chunk->first + i;
            const uint8_t v = chunk->verdict[i];
            for (int b = 0; b < kVerdictBits; ++b)
                pass.counts[Plan::slot(j)][b] += (v >> b) & 1;
            if (Plan::slot(j) % 2 == 1 && flagged(v))
                pass.fixedFlagged++;
            if (config.fingerprints)
                pass.fingerprint =
                    fnv1a(reports[i].fingerprint(), pass.fingerprint);
            if (config.trace) {
                foldRunMetrics(pass.metrics, reports[i].metrics);
                pass.raceReports += reports[i].raceMessages.size();
                pass.partialDeadlocks += reports[i].partialDeadlocks.size();
            }
        }
    }
    return pass;
}

} // namespace

WorkloadOutput
runDetect(const Config &config)
{
    WorkloadOutput out;
    Result &res = out.result;
    golite::parallel::SweepOptions sweep;
    sweep.workers = config.workers;

    Plan plan;
    std::vector<std::unique_ptr<Chunk>> chunks;
    HostProbe probe;
    out.setupSeconds = medianSetupSeconds(5, [&] {
        plan = Plan{};
        for (const BugCase &bug : golite::corpus::corpus())
            plan.kernels.push_back(&bug);
        plan.seedBase = config.seed * 1'000'000;
        chunks = buildChunks(plan, false);
        golite::parallel::warmSweepWorkers(sweep);
        (void)runPass(plan, chunks, sweep, config);
    }, &probe);

    // Untraced measurement: whole passes until the time is up. Only
    // the first pass's outputs are kept; later passes must match them.
    const auto start = Clock::now();
    const double cpu0 = cpuSeconds();
    // Latency is per pass (one run of the protocol over the corpus):
    // a single ~10 us run's tail mostly measures the hypervisor's
    // preemptions of this shared host, a pass's amortises them.
    Slices rate;
    auto timed_pass = [&] {
        rate.begin();
        const auto pass_start = Clock::now();
        Pass pass = runPass(plan, chunks, sweep, config);
        rate.sample(static_cast<double>(nanosSince(pass_start)));
        rate.end(static_cast<double>(plan.runs()));
        return pass;
    };
    const Pass head = timed_pass();
    const std::string first = head.canonical(plan);
    size_t n_passes = 1;
    res.attempted = plan.runs();
    res.failed = head.fixedFlagged;
    while (secondsSince(start) < config.seconds) {
        const Pass pass = timed_pass();
        n_passes++;
        res.attempted += plan.runs();
        res.failed += pass.fixedFlagged;
        if (pass.canonical(plan) != first) {
            res.fail("detect: a pass's verdicts differ from the first "
                     "pass's on identical inputs");
            res.failed += plan.runs();
        }
    }
    out.untracedCpu = cpuSeconds() - cpu0 - rate.probeCpuSeconds();

    if (head.fixedFlagged)
        res.fail("detect: a fixed variant was flagged");
    res.failed += oracleMismatches(config, "detect", first, res) *
                  kSeedsPerVariant;
    out.opsPerSecond = rate.opsPerSecond();
    out.cpuUsPerOp = rate.cpuUsPerOp();
    out.p50Ms = rate.p50Ns() / 1e6;
    out.p999Ms = rate.tailNs() / 1e6;
    std::printf("detect: %zu kernels x 2 variants x %zu seeds, %zu passes, "
                "%u workers\n",
                plan.kernels.size(), kSeedsPerVariant, n_passes,
                config.workers);
    std::printf("detect: verdict digest %s\n", hex64(fnv1a(first)).c_str());
    if (config.fingerprints)
        std::printf("detect: fingerprint digest %s\n",
                    hex64(head.fingerprint).c_str());
    std::printf("detect: %s\n", rate.describeTail("passes").c_str());
    std::printf("detect: %s\n", rate.describe().c_str());
    if (!config.trace)
        return out;

    // Traced run: the same number of passes, instrumented.
    Tracer &tracer = Tracer::instance();
    tracer.start();
    chunks = buildChunks(plan, true);
    golite::parallel::SweepProfile profile;
    sweep.profile = &profile;
    Pass traced_total;
    const double tcpu0 = cpuSeconds();
    {
        ScopedSpan workload("detect", Layer::Workload);
        for (size_t p = 0; p < n_passes; ++p) {
            ScopedSpan phase("pass", Layer::Phase);
            const Pass pass = runPass(plan, chunks, sweep, config);
            if (pass.canonical(plan) != first)
                res.fail("detect: traced verdicts differ from untraced");
            if (config.fingerprints && pass.fingerprint != head.fingerprint)
                res.fail("detect: traced RunReport fingerprints differ "
                         "from untraced");
            foldRunMetrics(traced_total.metrics, pass.metrics);
            traced_total.raceReports += pass.raceReports;
            traced_total.partialDeadlocks += pass.partialDeadlocks;
        }
    }
    out.tracedCpu = cpuSeconds() - tcpu0;
    const auto stats = tracer.analyse();
    const LayerStats &rt = stats[static_cast<size_t>(Layer::Runtime)];
    LayerMetrics &L = out.layers;
    L["runtime.self_us_p50"] = rt.self.quantile(0.5) / 1e3;
    L["runtime.self_us_p99"] = rt.self.quantile(0.99) / 1e3;
    addRunMetrics(L, traced_total.metrics);
    addSubscriberStats(L, stats);
    L["race.reports"] = static_cast<double>(traced_total.raceReports);
    L["waitgraph.partial_deadlocks"] =
        static_cast<double>(traced_total.partialDeadlocks);
    L["parallel.setup_s"] = profile.setupSeconds;
    L["parallel.run_s"] = profile.runSeconds;
    L["parallel.merge_s"] = profile.mergeSeconds;
    L["parallel.busy_ratio"] =
        profile.runSeconds > 0
            ? static_cast<double>(rt.totalNs) / 1e9 /
                  (config.workers * profile.runSeconds)
            : 0;
    addTraceTotals(config, out);
    return out;
}

} // namespace perfbench
