/**
 * @file
 * Shared plumbing for the golite benchmark: run configuration, the
 * result record printed as the final JSON line, clocks, a log-bucketed
 * latency histogram, digests and the committed-oracle check.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <array>
#include <cstddef>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace golite::obs
{
class LatencyHistogram;
}

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** The seed whose outputs are committed under perfbench/oracles. */
constexpr uint64_t kDefaultSeed = 1;

struct Config
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    /** Sweep workers for `detect` (the others run on one thread). */
    unsigned workers = 2;
    /** Directory holding the committed oracles. */
    std::string oracleDir = "perfbench/oracles";
    /** Where the traced run writes its spans ("" = do not write). */
    std::string outDir;
    /** Write the oracle for this seed instead of checking it. */
    bool emitOracle = false;
    /** Also digest every RunReport::fingerprint() (slower). */
    bool fingerprints = false;
};

/** What one workload run prints as its last line. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Record a failed check; prints @p why to stderr. */
    void fail(const std::string &why);
    std::string json() const;
};

double median(std::vector<double> values);
double secondsSince(Clock::time_point start);
int64_t nanosSince(Clock::time_point start);
/** Process CPU time (user + system) in seconds. */
double cpuSeconds();
/** Peak resident set size of this process image in MB (VmHWM; the
 *  rusage figure would include the parent's before exec). */
double peakRssMb();

/**
 * Latency histogram with 256 logarithmic buckets per octave (0.27%
 * wide), interpolating inside a bucket, so quantiles move with the
 * data rather than snapping to bucket edges. Fixed size: recording
 * never allocates.
 */
class LogHistogram
{
  public:
    void add(double ns);
    uint64_t count() const { return count_; }
    /** Value (ns) at quantile @p q in [0, 1]. */
    double quantile(double q) const;

  private:
    static constexpr int kPerOctave = 256;
    static constexpr int kOctaves = 48;
    std::array<uint64_t, kPerOctave * kOctaves> buckets_{};
    uint64_t count_ = 0;
};

/**
 * The tail quantile the benchmark reports as "p999": 0.999, or lower
 * when fewer than ten samples would lie beyond it.
 */
double tailQuantile(uint64_t samples);

/**
 * Quantile @p q (ns) of a golite LatencyHistogram, interpolated
 * inside the 1/64-wide bucket that holds it (the histogram's own
 * quantile() returns the bucket's upper edge).
 */
double interpolatedQuantile(const golite::obs::LatencyHistogram &hist,
                            double q);

uint64_t fnv1a(std::string_view data, uint64_t hash = 14695981039346656037ull);
std::string hex64(uint64_t value);

/**
 * Compare @p canonical, one pass's outputs as text with one line per
 * checked item, with the committed oracle <oracleDir>/<name>.txt.
 * Returns how many lines differ (0 when they match). With
 * @p allow_prefix, @p canonical may stop early (a run that did not
 * finish a whole cycle) and only its lines are compared. Only the default
 * seed has an oracle; other seeds return 0. With Config::emitOracle
 * the file is written instead.
 */
size_t oracleMismatches(const Config &config, const std::string &name,
                        const std::string &canonical, Result &result,
                        bool allow_prefix = false);

/**
 * A fixed reference workload, independent of golite and of the seed:
 * split a built-in text into std::string tokens and count them in a
 * hash map, about 5 ms of allocation, hashing and pointer chasing.
 * Its time relative to kNominalSeconds says how fast the host runs
 * right now; the benchmark uses it to express CPU-bound times in
 * nominal-host seconds, because on a shared host the same code runs
 * 15-25% slower for minutes at a time.
 */
class HostProbe
{
  public:
    HostProbe();
    /** Run the reference once; its time over the nominal time
     *  (1 on a quiet host, above 1 when the host is slow). */
    double slowdown();
    /** CPU seconds spent in slowdown() so far. */
    double cpuSpent() const { return cpu_; }

  private:
    std::string text_;
    double cpu_ = 0;
    /** Distinct tokens the last run counted; storing it keeps the
     *  reference work from being optimised away. */
    size_t distinct_ = 0;
};

/**
 * Throughput, CPU cost and latency measured in slices (a pass, or
 * half a second of snapshots), each bracketed by two HostProbe runs.
 * A slice's times are divided by the mean slowdown of its probes;
 * rates and CPU cost are the medians over slices, latencies are
 * quantiles of all normalised samples.
 */
class Slices
{
  public:
    void begin();
    /** One latency sample (ns) of the open slice. */
    void sample(double ns) { pending_.push_back(ns); }
    /** Close the open slice, which completed @p ops operations. */
    void end(double ops);
    double sliceSeconds() const { return secondsSince(start_); }

    double opsPerSecond() const { return median(rate_); }
    double cpuUsPerOp() const { return median(cpuUs_); }
    /**
     * Latency quantiles (ns). When every slice holds at least
     * kPerSliceSamples samples, the median over slices of each slice's
     * quantile, so a noisy moment moves one slice's tail rather than
     * the result; otherwise the quantile of all samples.
     */
    double p50Ns() const;
    double tailNs() const;
    /** "p999 is q=... of N <what>" for the log. */
    std::string describeTail(const char *what) const;
    double probeCpuSeconds() const { return probe_.cpuSpent(); }
    /** Slice count, raw rate and host slowdown, for the log. */
    std::string describe() const;

  private:
    HostProbe probe_;
    double slowBefore_ = 1;
    Clock::time_point start_;
    double cpu0_ = 0;
    std::vector<double> pending_;
    static constexpr size_t kPerSliceSamples = 1000;
    bool perSlice() const;

    std::vector<double> rate_, cpuUs_, rawRate_, slowdown_;
    LogHistogram latency_;
    std::vector<double> sliceP50_, sliceTail_, sliceTailQ_;
    size_t minSliceSamples_ = SIZE_MAX;
};

/**
 * Run @p setup @p times times; the median wall time in seconds. With
 * a @p probe, each time is divided by the mean slowdown of probe runs
 * just before and after it, like a Slices slice.
 */
double medianSetupSeconds(int times, const std::function<void()> &setup,
                          HostProbe *probe = nullptr);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
