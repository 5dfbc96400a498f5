/**
 * @file
 * `search`: the systematic bug hunters on one thread. For every
 * corpus kernel one pass runs
 *   - DPOR (preemption bound 2) on the buggy variant,
 *   - a bounded DPOR certification walk on the fixed variant,
 *   - the coverage-guided fuzzer with the race detector attached, to
 *     the first bug on the buggy variant and to a fixed budget on the
 *     fixed variant.
 * Every searcher uses the same bug predicate: the kernel's own
 * manifestation check or a race report. A pass is deterministic for a
 * seed, so every pass must reproduce the first one exactly.
 */

#include <cstdio>
#include <vector>

#include "corpus/bug.hh"
#include "explore/explorer.hh"
#include "fuzz/fuzzer.hh"
#include "obs/metrics.hh"
#include "race/detector.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

using golite::RunOptions;
using golite::RunReport;
using golite::corpus::BugCase;
using golite::corpus::Variant;

namespace
{

constexpr size_t kDporBudget = 300;
constexpr int kDporBound = 2;
constexpr size_t kCertBudget = 200;
constexpr size_t kFuzzBudget = 2000;
constexpr size_t kFuzzFixedBudget = 64;

struct KernelResult
{
    const BugCase *bug = nullptr;
    size_t dporToBug = 0; ///< 1-based execution of the first bug, 0 = none
    size_t dporExecs = 0;
    size_t dporRedundant = 0;
    bool certified = false;
    bool certBug = false; ///< the fixed variant's walk found a bug
    size_t certExecs = 0;
    size_t certRedundant = 0;
    size_t fuzzToBug = 0;
    size_t fuzzExecs = 0;
    size_t fuzzCoverage = 0;
    bool fixedFuzzBug = false;
    size_t fixedFuzzExecs = 0;
    size_t fixedFuzzCoverage = 0;

    bool failed() const
    {
        return dporToBug == 0 || fuzzToBug == 0 || certBug || fixedFuzzBug;
    }

    std::string line() const
    {
        return bug->info.id + " dpor_to_bug=" + std::to_string(dporToBug) +
               " dpor_execs=" + std::to_string(dporExecs) +
               " dpor_redundant=" + std::to_string(dporRedundant) +
               " cert=" +
               (certBug ? "BUG" : certified ? "certified" : "budget") +
               " cert_execs=" + std::to_string(certExecs) +
               " fuzz_to_bug=" + std::to_string(fuzzToBug) +
               " fuzz_execs=" + std::to_string(fuzzExecs) +
               " fuzz_coverage=" + std::to_string(fuzzCoverage) +
               " fixed_fuzz=" + (fixedFuzzBug ? "BUG" : "clean") +
               " fixed_fuzz_execs=" + std::to_string(fixedFuzzExecs) +
               "\n";
    }
};

/**
 * The run_once callbacks handed to the explorer and the fuzzer. They
 * time every execution and, when tracing, wrap each subscriber the
 * searcher attached in a forwarder charged to that searcher's layer.
 */
class Executor
{
  public:
    explicit Executor(bool traced) : traced_(traced) {}

    RunReport
    explore(const BugCase &bug, Variant variant, const RunOptions &base)
    {
        detector_.reset();
        RunOptions ro = base;
        ro.subscribers.push_back(&detector_);
        golite::corpus::BugOutcome out = runOnce(bug, variant, ro,
                                                 Layer::Explore);
        if (out.manifested)
            out.report.raceMessages.push_back("kernel bug manifested: " +
                                              out.note);
        return std::move(out.report);
    }

    golite::fuzz::Execution
    fuzz(const BugCase &bug, Variant variant, const RunOptions &base)
    {
        golite::corpus::BugOutcome out =
            runOnce(bug, variant, base, Layer::Fuzz);
        const bool hit =
            out.manifested || !out.report.raceMessages.empty();
        return {std::move(out.report), hit};
    }

    uint64_t executions = 0;
    /** Where untraced executions report their latency. */
    Slices *slices = nullptr;
    golite::RunMetrics metrics;

  private:
    golite::corpus::BugOutcome
    runOnce(const BugCase &bug, Variant variant, RunOptions ro,
            Layer caller)
    {
        executions++;
        if (!traced_) {
            const auto start = Clock::now();
            golite::corpus::BugOutcome out = bug.run(variant, ro);
            if (slices)
                slices->sample(static_cast<double>(nanosSince(start)));
            return out;
        }
        // Searcher probes (DPOR's dependence oracle, the fuzzer's
        // coverage probes and race detector) are charged to the
        // searcher; our own detector to race; the sink to obs.
        std::vector<TimedSubscriber *> &pool =
            caller == Layer::Explore ? exploreFwd_ : fuzzFwd_;
        std::vector<TimedSubscriber *> used;
        for (size_t i = 0; i < ro.subscribers.size(); ++i) {
            golite::Subscriber *sub = ro.subscribers[i];
            TimedSubscriber *f;
            if (sub == &detector_) {
                f = &raceFwd_;
            } else {
                while (pool.size() <= i)
                    pool.push_back(&Tracer::instance().forwarder(caller));
                f = pool[i];
            }
            f->wrap(sub);
            ro.subscribers[i] = f;
            used.push_back(f);
        }
        sinkFwd_.wrap(&sink_);
        ro.subscribers.push_back(&sinkFwd_);
        used.push_back(&sinkFwd_);
        int64_t before = 0;
        for (const TimedSubscriber *f : used)
            before += f->ns();
        Tracer &t = Tracer::instance();
        const uint64_t span = t.begin("BugCase::run", Layer::Runtime);
        golite::corpus::BugOutcome out = bug.run(variant, ro);
        int64_t after = 0;
        for (const TimedSubscriber *f : used)
            after += f->ns();
        t.end(span, after - before);
        foldRunMetrics(metrics, out.report.metrics);
        return out;
    }

    bool traced_;
    golite::race::Detector detector_{4};
    golite::obs::MetricsSink sink_;
    TimedSubscriber &raceFwd_ = Tracer::instance().forwarder(Layer::Race);
    TimedSubscriber &sinkFwd_ = Tracer::instance().forwarder(Layer::Obs);
    std::vector<TimedSubscriber *> exploreFwd_;
    std::vector<TimedSubscriber *> fuzzFwd_;
};

golite::explore::ExploreResult
dpor(Executor &ex, const BugCase &bug, Variant variant, size_t budget,
     uint64_t seed)
{
    golite::explore::ExploreOptions eo;
    eo.maxSchedules = budget;
    eo.mode = golite::explore::ExploreMode::Dpor;
    eo.preemptionBound = kDporBound;
    eo.runOptions.seed = seed;
    ScopedSpan span("explore::exploreAll", Layer::Explore);
    return golite::explore::exploreAll(
        [&](const RunOptions &ro) { return ex.explore(bug, variant, ro); },
        eo);
}

golite::fuzz::FuzzResult
fuzz(Executor &ex, const BugCase &bug, Variant variant, size_t budget,
     uint64_t seed)
{
    golite::fuzz::FuzzOptions fo;
    fo.maxExecutions = budget;
    fo.workers = 1;
    fo.fuzzSeed = seed;
    fo.attachRaceDetector = true;
    fo.runOptions.seed = seed;
    ScopedSpan span("fuzz::fuzzRun", Layer::Fuzz);
    return golite::fuzz::fuzzRun(
        [&](const RunOptions &ro) { return ex.fuzz(bug, variant, ro); },
        fo);
}

KernelResult
searchKernel(Executor &ex, const BugCase &bug, uint64_t seed)
{
    KernelResult k;
    k.bug = &bug;
    const auto buggy = dpor(ex, bug, Variant::Buggy, kDporBudget, seed);
    k.dporToBug = buggy.firstBadAt;
    k.dporExecs = buggy.executions;
    k.dporRedundant = buggy.redundant;
    const auto cert = dpor(ex, bug, Variant::Fixed, kCertBudget, seed);
    k.certified = cert.certified();
    k.certBug = cert.anyBad();
    k.certExecs = cert.executions;
    k.certRedundant = cert.redundant;
    const auto hunt = fuzz(ex, bug, Variant::Buggy, kFuzzBudget, seed);
    k.fuzzToBug = hunt.bugFound ? hunt.executionsToBug : 0;
    k.fuzzExecs = hunt.executions;
    k.fuzzCoverage = hunt.coverageStates;
    const auto fixed = fuzz(ex, bug, Variant::Fixed, kFuzzFixedBudget, seed);
    k.fixedFuzzBug = fixed.bugFound;
    k.fixedFuzzExecs = fixed.executions;
    k.fixedFuzzCoverage = fixed.coverageStates;
    return k;
}

std::vector<KernelResult>
runPass(Executor &ex, const std::vector<const BugCase *> &kernels,
        uint64_t seed)
{
    std::vector<KernelResult> out;
    for (const BugCase *bug : kernels)
        out.push_back(searchKernel(ex, *bug, seed));
    return out;
}

std::string
canonical(const std::vector<KernelResult> &pass)
{
    std::string out;
    for (const KernelResult &k : pass)
        out += k.line();
    return out;
}

} // namespace

WorkloadOutput
runSearch(const Config &config)
{
    WorkloadOutput out;
    Result &res = out.result;
    const uint64_t seed = config.seed;

    std::vector<const BugCase *> kernels;
    Executor ex(false);
    HostProbe probe;
    out.setupSeconds = medianSetupSeconds(5, [&] {
        kernels.clear();
        for (const BugCase &bug : golite::corpus::corpus())
            kernels.push_back(&bug);
        // Warm the explorer and fuzzer paths on every kernel.
        Executor warm(false);
        for (const BugCase *bug : kernels) {
            (void)dpor(warm, *bug, Variant::Fixed, 16, seed);
            (void)fuzz(warm, *bug, Variant::Fixed, 16, seed);
        }
    }, &probe);

    const auto start = Clock::now();
    const double cpu0 = cpuSeconds();
    // Only the first pass's outputs are kept; later passes must match.
    std::vector<KernelResult> first;
    std::string text;
    size_t n_passes = 0;
    Slices rate;
    ex.slices = &rate;
    do {
        const uint64_t execs_before = ex.executions;
        rate.begin();
        std::vector<KernelResult> pass = runPass(ex, kernels, seed);
        rate.end(static_cast<double>(ex.executions - execs_before));
        n_passes++;
        res.attempted += pass.size();
        for (const KernelResult &k : pass)
            if (k.failed()) {
                res.failed++;
                res.fail("search: " + k.bug->info.id +
                         ": missed bug or wrong certificate");
            }
        if (first.empty()) {
            first = std::move(pass);
            text = canonical(first);
        } else if (canonical(pass) != text) {
            res.fail("search: a pass differs from the first pass");
            res.failed += kernels.size();
        }
    } while (secondsSince(start) < config.seconds);
    out.untracedCpu = cpuSeconds() - cpu0 - rate.probeCpuSeconds();

    res.failed +=
        oracleMismatches(config, "search", text, res);

    size_t found = 0, certified = 0, to_bug = 0;
    for (const KernelResult &k : first) {
        found += k.dporToBug && k.fuzzToBug;
        certified += k.certified;
        to_bug += k.dporToBug + k.fuzzToBug;
    }
    out.opsPerSecond = rate.opsPerSecond();
    out.cpuUsPerOp = rate.cpuUsPerOp();
    out.p50Ms = rate.p50Ns() / 1e6;
    out.p999Ms = rate.tailNs() / 1e6;
    std::printf("search: %zu passes, %llu executions; found %zu/%zu, "
                "certified %zu fixed kernels, executions to bug %zu\n",
                n_passes, static_cast<unsigned long long>(ex.executions),
                found, first.size(), certified, to_bug);
    std::printf("search: digest %s\n", hex64(fnv1a(text)).c_str());
    std::printf("search: %s\n", rate.describeTail("executions").c_str());
    std::printf("search: %s\n", rate.describe().c_str());
    if (!config.trace)
        return out;

    Tracer &tracer = Tracer::instance();
    tracer.start();
    Executor tex(true);
    std::vector<KernelResult> traced;
    const double tcpu0 = cpuSeconds();
    {
        ScopedSpan workload("search", Layer::Workload);
        for (size_t p = 0; p < n_passes; ++p) {
            ScopedSpan phase("pass", Layer::Phase);
            traced = runPass(tex, kernels, seed);
            if (canonical(traced) != text)
                res.fail("search: traced results differ from untraced");
        }
    }
    out.tracedCpu = cpuSeconds() - tcpu0;

    const auto stats = tracer.analyse();
    auto layer = [&](Layer l) -> const LayerStats & {
        return stats[static_cast<size_t>(l)];
    };
    size_t dpor_execs = 0, redundant = 0, fuzz_execs = 0, fuzz_to_bug = 0,
           dpor_to_bug = 0, coverage = 0;
    for (const KernelResult &k : traced) {
        dpor_execs += k.dporExecs + k.certExecs;
        redundant += k.dporRedundant + k.certRedundant;
        fuzz_execs += k.fuzzExecs + k.fixedFuzzExecs;
        dpor_to_bug += k.dporToBug;
        fuzz_to_bug += k.fuzzToBug;
        coverage += k.fuzzCoverage + k.fixedFuzzCoverage;
    }
    const double passes = static_cast<double>(n_passes);
    LayerMetrics &L = out.layers;
    L["runtime.self_us_p50"] = layer(Layer::Runtime).self.quantile(0.5) / 1e3;
    L["runtime.self_us_p99"] = layer(Layer::Runtime).self.quantile(0.99) / 1e3;
    addRunMetrics(L, tex.metrics);
    addSubscriberStats(L, stats);
    L["explore.executions"] = static_cast<double>(dpor_execs);
    L["explore.redundant_ratio"] =
        dpor_execs ? static_cast<double>(redundant) / dpor_execs : 0;
    // Searcher self time: its own span minus the executions it drove,
    // plus the probes it attached to each execution.
    auto self_us_per_exec = [&](Layer l, size_t per_pass) {
        const LayerStats &s = layer(l);
        return per_pass ? (static_cast<double>(s.selfNs) + s.eventNs) /
                              1e3 / (passes * per_pass)
                        : 0;
    };
    L["explore.self_us_per_exec"] = self_us_per_exec(Layer::Explore,
                                                     dpor_execs);
    L["explore.execs_to_bug"] = static_cast<double>(dpor_to_bug);
    size_t certified_traced = 0;
    for (const KernelResult &k : traced)
        certified_traced += k.certified;
    L["explore.certified"] = static_cast<double>(certified_traced);
    L["fuzz.executions"] = static_cast<double>(fuzz_execs);
    L["fuzz.execs_to_bug"] = static_cast<double>(fuzz_to_bug);
    L["fuzz.coverage_states"] = static_cast<double>(coverage);
    L["fuzz.self_us_per_exec"] = self_us_per_exec(Layer::Fuzz, fuzz_execs);
    addTraceTotals(config, out);
    return out;
}

} // namespace perfbench
