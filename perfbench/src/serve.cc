/**
 * @file
 * `serve`: the -race soak. load::runSoak drives an open loop of
 * Poisson arrivals at kRps over kConnections echo connections, each
 * request served by its own goroutine that sleeps kServiceMs and fans
 * out once, with a race::Detector subscribed — about ten thousand
 * live goroutines on one OS thread, timers, netpoll parks and the
 * detector's slot recycling and shadow reclamation all at once.
 *
 * Latency is measured by the harness from each request's due time,
 * so it is free of coordinated omission. Every request must be
 * answered, with no drops, no connection errors and no race report
 * (the echo server is race-free).
 */

#include <cstdio>

#include "load/soak.hh"
#include "race/detector.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

// 5k req/s x 1 s service x 2 goroutines per request (fanout 1) keeps
// about ten thousand goroutines live while the soak uses about a third
// of a core, so a slow spell on a shared host does not tip it into
// queueing (at 10k req/s x 500 ms it used two thirds, and its p999
// swung by a quarter between runs).
constexpr double kRps = 5000;
constexpr uint32_t kConnections = 4;
constexpr int64_t kServiceMs = 1000;

golite::load::SoakOptions
soakOptions(const Config &config, double seconds)
{
    golite::load::SoakOptions o;
    o.connections = kConnections;
    o.targetRps = kRps;
    o.durationNs = static_cast<golite::gotime::Duration>(seconds * 1e9);
    o.serviceTimeNs = kServiceMs * golite::gotime::kMillisecond;
    o.fanout = 1;
    o.payloadBytes = 64;
    o.seed = config.seed;
    o.drainTimeoutNs = o.serviceTimeNs + 10 * golite::gotime::kSecond;
    return o;
}

/** Check one soak's answers; returns the number of failed requests. */
uint64_t
checkSoak(const golite::load::SoakResult &r, Result &res, const char *what)
{
    const uint64_t lost =
        r.requestsSent > r.responses ? r.requestsSent - r.responses : 0;
    const uint64_t failed = r.dropped + lost + r.connErrors;
    if (!r.ok() || failed != 0)
        res.fail(std::string("serve: ") + what + " soak: sent " +
                 std::to_string(r.requestsSent) + ", answered " +
                 std::to_string(r.responses) + ", dropped " +
                 std::to_string(r.dropped) + ", connection errors " +
                 std::to_string(r.connErrors));
    if (!r.report.raceMessages.empty())
        res.fail(std::string("serve: ") + what +
                 " soak: race reported on the race-free echo server: " +
                 r.report.raceMessages.front());
    return failed;
}

} // namespace

WorkloadOutput
runServe(const Config &config)
{
    WorkloadOutput out;
    Result &res = out.result;

    // Set-up: a short soak at a lower rate and service time brings up
    // the reactor, connections, stack pool and detector arenas.
    out.setupSeconds = medianSetupSeconds(3, [&] {
        golite::load::SoakOptions warm = soakOptions(config, 0.2);
        warm.targetRps = kRps / 5;
        warm.serviceTimeNs = 20 * golite::gotime::kMillisecond;
        golite::race::Detector detector;
        warm.subscribers = {&detector};
        const golite::load::SoakResult r = golite::load::runSoak(warm);
        checkSoak(r, res, "warm-up");
    });

    golite::load::SoakResult r;
    {
        golite::load::SoakOptions o = soakOptions(config, config.seconds);
        golite::race::Detector detector;
        o.subscribers = {&detector};
        const double cpu0 = cpuSeconds();
        r = golite::load::runSoak(o);
        out.untracedCpu = cpuSeconds() - cpu0;
    }
    res.attempted = r.requestsSent + r.dropped;
    res.failed = checkSoak(r, res, "measured");
    const double answered = static_cast<double>(std::max<uint64_t>(
        r.responses, 1));
    const double tail_q = tailQuantile(r.latency.count());
    out.opsPerSecond = r.achievedRps;
    // Not host-normalised: the soak is one run that cannot be sliced,
    // and probes around it track the host during it too loosely.
    out.cpuUsPerOp = out.untracedCpu * 1e6 / answered;
    out.p50Ms = interpolatedQuantile(r.latency, 0.5) / 1e6;
    out.p999Ms = interpolatedQuantile(r.latency, tail_q) / 1e6;
    std::printf("serve: %llu requests answered of %llu sent, peak %llu "
                "live goroutines, %.2f s wall\n",
                static_cast<unsigned long long>(r.responses),
                static_cast<unsigned long long>(r.requestsSent),
                static_cast<unsigned long long>(r.peakLiveGoroutines),
                r.wallSeconds);
    std::printf("serve: p999 is q=%.6f of %llu requests\n", tail_q,
                static_cast<unsigned long long>(r.latency.count()));
    if (!config.trace)
        return out;

    // Traced: the same soak again with the detector behind a forwarder.
    Tracer &tracer = Tracer::instance();
    tracer.start();
    TimedSubscriber &fwd = tracer.forwarder(Layer::Race);
    golite::race::Detector detector;
    fwd.wrap(&detector);
    golite::load::SoakOptions o = soakOptions(config, config.seconds);
    o.subscribers = {&fwd};
    golite::load::SoakResult t;
    const double tcpu0 = cpuSeconds();
    {
        ScopedSpan workload("serve", Layer::Workload);
        const uint64_t span = tracer.begin("load::runSoak", Layer::Load);
        t = golite::load::runSoak(o);
        tracer.end(span, fwd.ns());
    }
    out.tracedCpu = cpuSeconds() - tcpu0;
    checkSoak(t, res, "traced");
    const auto stats = tracer.analyse();
    const double responses =
        static_cast<double>(std::max<uint64_t>(t.responses, 1));
    LayerMetrics &L = out.layers;
    // Open-loop wall time is set by the arrival schedule, so runtime
    // self time is taken as CPU: the soak's CPU minus the detector's.
    L["runtime.self_us_per_req"] =
        (out.tracedCpu - static_cast<double>(fwd.ns()) / 1e9) * 1e6 /
        responses;
    addRunMetrics(L, t.report.metrics);
    addSubscriberStats(L, stats);
    L["race.reports"] = static_cast<double>(t.report.raceMessages.size());
    L["load.requests_sent"] = static_cast<double>(t.requestsSent);
    L["load.responses"] = static_cast<double>(t.responses);
    L["load.dropped"] = static_cast<double>(t.dropped);
    L["load.conn_errors"] = static_cast<double>(t.connErrors);
    L["load.goroutines_created"] = static_cast<double>(t.goroutinesCreated);
    L["load.queue_p999_ms"] =
        interpolatedQuantile(t.latency, tailQuantile(t.latency.count())) /
            1e6 -
        static_cast<double>(kServiceMs);
    addTraceTotals(config, out);
    return out;
}

} // namespace perfbench
