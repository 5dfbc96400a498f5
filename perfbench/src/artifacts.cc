/**
 * @file
 * `artifacts`: regenerate the inputs of the static-study artifacts —
 * the Table 2 corpora (6 apps x 3 samples x 100 KLOC, plus gRPC-C),
 * the Table 4 corpora and the Figure 2/3 monthly snapshots (6 apps x
 * 14 months x 30 KLOC) — through scanner::generateSource and
 * scanner::countUsage. The golite runtime does no work here.
 *
 * Snapshots are processed one at a time in a fixed interleaved order,
 * cycling until the time is up; each one's counts must equal the
 * committed oracle (default seed) and the counts of the same snapshot
 * in an earlier cycle.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "scanner/counter.hh"
#include "scanner/generator.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

using golite::scanner::AppProfile;
using golite::scanner::UsageCounts;

namespace
{

struct Snapshot
{
    std::string label;
    AppProfile profile;
    uint64_t seed = 0;
};

std::vector<Snapshot>
snapshotsFor(uint64_t seed)
{
    using namespace golite::scanner;
    std::vector<Snapshot> out;
    // Seed 1 reproduces the inputs the paper-table benches use.
    for (AppProfile p : goAppProfiles()) {
        p.sampleKloc = 100;
        for (uint64_t k = 1; k <= 3; ++k)
            out.push_back({"table2/" + p.name + "/" + std::to_string(k), p,
                           3 * (seed - 1) + k});
    }
    out.push_back({"table2+4/" + grpcCProfile().name, grpcCProfile(), seed});
    for (const AppProfile &p : goAppProfiles())
        out.push_back({"table4/" + p.name, p, seed});
    for (const AppProfile &base : goAppProfiles())
        for (int m = 0; m < 40; m += 3) {
            AppProfile snap = snapshotProfile(base, m);
            snap.sampleKloc = 30;
            out.push_back({"fig2+3/" + base.name + "/" + monthLabel(m), snap,
                           1000 * seed + static_cast<uint64_t>(m)});
        }
    // Interleave large and small snapshots so any window of the run
    // sees the same mix.
    std::sort(out.begin(), out.end(), [](const Snapshot &a, const Snapshot &b) {
        return fnv1a(a.label) < fnv1a(b.label);
    });
    return out;
}

std::string
countsLine(const Snapshot &s, const UsageCounts &c)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  " seed=%llu lines=%zu go_anon=%zu go_named=%zu mutex=%zu "
                  "atomic=%zu once=%zu waitgroup=%zu cond=%zu chan=%zu "
                  "misc=%zu thread=%zu c_lock=%zu\n",
                  static_cast<unsigned long long>(s.seed), c.lines,
                  c.goAnonymous, c.goNamed, c.mutex, c.atomicOps, c.once,
                  c.waitGroup, c.cond, c.channel, c.misc, c.threadCreation,
                  c.cLock);
    return s.label + buf;
}

struct Totals
{
    double bytes = 0;
    double generateS = 0;
    double countS = 0;
    size_t primitives = 0;
};

/** Generate and count one snapshot; returns its oracle line. */
std::string
process(const Snapshot &s, Totals &t, Slices *slices, Result &res)
{
    const auto start = Clock::now();
    std::string source;
    {
        ScopedSpan span("scanner::generateSource", Layer::Scanner);
        source = golite::scanner::generateSource(s.profile, s.seed);
    }
    const auto generated = Clock::now();
    UsageCounts counts;
    {
        ScopedSpan span("scanner::countUsage", Layer::Scanner);
        counts = golite::scanner::countUsage(source);
    }
    const auto counted = Clock::now();
    t.generateS += std::chrono::duration<double>(generated - start).count();
    t.countS += std::chrono::duration<double>(counted - generated).count();
    t.bytes += static_cast<double>(source.size());
    t.primitives += counts.totalPrimitives();
    if (slices)
        slices->sample(static_cast<double>(nanosSince(start)));
    // Physical lines, counted independently of the scanner.
    const size_t newlines =
        static_cast<size_t>(std::count(source.begin(), source.end(), '\n'));
    const size_t lines = newlines + (!source.empty() && source.back() != '\n');
    if (counts.lines != lines) {
        res.failed++;
        res.fail("artifacts: " + s.label + ": scanner counted " +
                 std::to_string(counts.lines) + " lines, source has " +
                 std::to_string(lines));
    }
    return countsLine(s, counts);
}

} // namespace

WorkloadOutput
runArtifacts(const Config &config)
{
    WorkloadOutput out;
    Result &res = out.result;

    std::vector<Snapshot> snaps;
    HostProbe probe;
    out.setupSeconds = medianSetupSeconds(5, [&] {
        snaps = snapshotsFor(config.seed);
        // Warm the generator and scanner on a small sample.
        AppProfile warm = snaps.front().profile;
        warm.sampleKloc = 30;
        Totals t;
        Result ignore;
        (void)process({"warm", warm, config.seed}, t, nullptr, ignore);
    }, &probe);

    const auto start = Clock::now();
    const double cpu0 = cpuSeconds();
    std::vector<std::string> lines; // by snapshot index, first cycle
    Totals totals;
    size_t processed = 0;
    // Throughput in slices of at least kSliceS seconds of snapshots.
    constexpr double kSliceS = 0.5;
    Slices rate;
    double slice_bytes = totals.bytes;
    rate.begin();
    // In emit mode, cover one full cycle whatever the time budget.
    while (secondsSince(start) < config.seconds ||
           (config.emitOracle && processed < snaps.size())) {
        if (rate.sliceSeconds() >= kSliceS) {
            rate.end((totals.bytes - slice_bytes) / 1e6);
            slice_bytes = totals.bytes;
            rate.begin();
        }
        const size_t i = processed % snaps.size();
        std::string line = process(snaps[i], totals, &rate, res);
        if (lines.size() <= i) {
            lines.push_back(std::move(line));
        } else if (line != lines[i]) {
            res.failed++;
            res.fail("artifacts: " + snaps[i].label +
                     ": counts differ from the previous cycle");
        }
        processed++;
    }
    rate.end((totals.bytes - slice_bytes) / 1e6);
    out.untracedCpu = cpuSeconds() - cpu0 - rate.probeCpuSeconds();

    std::string canonical;
    for (const std::string &l : lines)
        canonical += l;
    res.attempted = processed;
    res.failed += oracleMismatches(config, "artifacts", canonical, res,
                                   /*allow_prefix=*/true);
    if (!res.correct && res.failed == 0)
        res.failed = 1;
    const double mb = totals.bytes / 1e6;
    out.opsPerSecond = rate.opsPerSecond();
    out.cpuUsPerOp = rate.cpuUsPerOp();
    out.p50Ms = rate.p50Ns() / 1e6;
    out.p999Ms = rate.tailNs() / 1e6;
    std::printf("artifacts: %zu snapshots (%zu per cycle), %.1f MB\n",
                processed, snaps.size(), mb);
    std::printf("artifacts: %s\n", rate.describeTail("snapshots").c_str());
    std::printf("artifacts: %s\n", rate.describe().c_str());
    if (!config.trace)
        return out;

    Tracer &tracer = Tracer::instance();
    tracer.start();
    Totals traced;
    const double tcpu0 = cpuSeconds();
    {
        ScopedSpan workload("artifacts", Layer::Workload);
        ScopedSpan phase("snapshots", Layer::Phase);
        for (size_t n = 0; n < processed; ++n) {
            const size_t i = n % snaps.size();
            if (process(snaps[i], traced, nullptr, res) != lines[i])
                res.fail("artifacts: traced counts differ for " +
                         snaps[i].label);
        }
    }
    out.tracedCpu = cpuSeconds() - tcpu0;
    LayerMetrics &L = out.layers;
    const double tmb = traced.bytes / 1e6;
    L["scanner.generate_mb_per_s"] = tmb / traced.generateS;
    L["scanner.count_mb_per_s"] = tmb / traced.countS;
    L["scanner.generate_share"] =
        traced.generateS / (traced.generateS + traced.countS);
    L["scanner.primitives"] = static_cast<double>(traced.primitives);
    addTraceTotals(config, out);
    return out;
}

} // namespace perfbench
