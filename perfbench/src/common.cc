#include "common.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "obs/histogram.hh"

namespace perfbench
{

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Result::fail(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        // %.17g keeps every digit; JSON has no NaN or infinity.
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t
nanosSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0;
}

void
LogHistogram::add(double ns)
{
    int idx = 0;
    if (ns > 1.0)
        idx = static_cast<int>(std::log2(ns) * kPerOctave);
    idx = std::clamp(idx, 0, static_cast<int>(buckets_.size()) - 1);
    buckets_[static_cast<size_t>(idx)]++;
    count_++;
}

double
LogHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    double below = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        const double here = static_cast<double>(buckets_[i]);
        if (here > 0 && below + here >= rank) {
            const double frac = std::clamp((rank - below) / here, 0.0, 1.0);
            return std::exp2((static_cast<double>(i) + frac) / kPerOctave);
        }
        below += here;
    }
    return 0;
}

double
tailQuantile(uint64_t samples)
{
    if (samples == 0)
        return 0.999;
    return std::min(0.999, 1.0 - 10.0 / static_cast<double>(samples));
}

namespace
{

/** [lo, hi] of the LatencyHistogram bucket holding value @p v. */
std::pair<int64_t, int64_t>
bucketRange(int64_t v)
{
    if (v < 64)
        return {v, v};
    const int k = 63 - __builtin_clzll(static_cast<uint64_t>(v));
    const int64_t width = int64_t{1} << (k - 6);
    const int64_t lo = (v >> (k - 6)) << (k - 6);
    return {lo, lo + width - 1};
}

} // namespace

double
interpolatedQuantile(const golite::obs::LatencyHistogram &hist, double q)
{
    const uint64_t n = hist.count();
    if (n == 0)
        return 0;
    // Value of the r-th smallest sample's bucket (1-based rank).
    auto at_rank = [&](uint64_t r) {
        return hist.quantile((static_cast<double>(r) - 0.5) /
                             static_cast<double>(n));
    };
    const uint64_t target = std::clamp<uint64_t>(
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
    const auto [lo, hi] = bucketRange(at_rank(target));
    // First and last rank whose sample falls in the same bucket.
    uint64_t a = 1, b = target;
    while (a < b) {
        const uint64_t mid = a + (b - a) / 2;
        if (at_rank(mid) >= lo)
            b = mid;
        else
            a = mid + 1;
    }
    const uint64_t first = a;
    a = target;
    b = n;
    while (a < b) {
        const uint64_t mid = a + (b - a + 1) / 2;
        if (at_rank(mid) <= hi)
            a = mid;
        else
            b = mid - 1;
    }
    const uint64_t last = a;
    const double frac = (static_cast<double>(target - first) + 0.5) /
                        static_cast<double>(last - first + 1);
    const double top = std::min<double>(static_cast<double>(hi),
                                        static_cast<double>(hist.maxValue()));
    return static_cast<double>(lo) + frac * (top - static_cast<double>(lo));
}

uint64_t
fnv1a(std::string_view data, uint64_t hash)
{
    for (unsigned char c : data) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string
hex64(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

size_t
oracleMismatches(const Config &config, const std::string &name,
                 const std::string &canonical, Result &result,
                 bool allow_prefix)
{
    const std::string path = config.oracleDir + "/" + name + ".txt";
    if (config.emitOracle) {
        std::ofstream out(path, std::ios::binary);
        out << canonical;
        if (!out)
            result.fail("cannot write oracle " + path);
        else
            std::fprintf(stderr, "wrote oracle %s\n", path.c_str());
        return 0;
    }
    if (config.seed != kDefaultSeed)
        return 0;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        result.fail("missing oracle " + path);
        return 1;
    }
    std::stringstream expected;
    expected << in.rdbuf();
    if (expected.str() == canonical)
        return 0;
    std::istringstream want(expected.str()), got(canonical);
    std::string w, g;
    size_t line = 0, differing = 0;
    while (true) {
        const bool more_w = static_cast<bool>(std::getline(want, w));
        const bool more_g = static_cast<bool>(std::getline(got, g));
        if ((!more_w && !more_g) || (allow_prefix && !more_g))
            break;
        ++line;
        if (more_w == more_g && w == g)
            continue;
        if (differing++ == 0)
            result.fail(path + " line " + std::to_string(line) +
                        ": expected \"" + (more_w ? w : "<eof>") +
                        "\", got \"" + (more_g ? g : "<eof>") + "\"");
    }
    return differing;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

namespace
{

/** Time of one HostProbe run on a quiet host (the calibration host). */
constexpr double kNominalSeconds = 0.004;

} // namespace

HostProbe::HostProbe()
{
    static const char *const kWords[] = {
        "func", "go", "chan", "mu.Lock()", "x", "return", "if", "err",
        "nil", "{", "}", "select", "wg.Add(1)", "defer", "ctx", "case"};
    uint64_t x = 42;
    while (text_.size() < 200'000) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        text_ += kWords[(x >> 33) % 16];
        text_ += (x >> 20) % 8 == 0 ? '\n' : ' ';
    }
}

double
HostProbe::slowdown()
{
    const double cpu0 = cpuSeconds();
    const auto start = Clock::now();
    std::vector<std::string> tokens;
    size_t i = 0;
    while (i < text_.size()) {
        while (i < text_.size() && (text_[i] == ' ' || text_[i] == '\n'))
            ++i;
        size_t j = i;
        while (j < text_.size() && text_[j] != ' ' && text_[j] != '\n')
            ++j;
        if (j > i)
            tokens.emplace_back(text_, i, j - i);
        i = j;
    }
    std::unordered_map<std::string, uint64_t> counts;
    for (const std::string &t : tokens)
        counts[t + std::to_string(t.size() % 7)]++;
    const double elapsed = secondsSince(start);
    cpu_ += cpuSeconds() - cpu0;
    distinct_ = counts.size();
    return elapsed / kNominalSeconds;
}

void
Slices::begin()
{
    pending_.clear();
    slowBefore_ = probe_.slowdown();
    start_ = Clock::now();
    cpu0_ = cpuSeconds();
}

void
Slices::end(double ops)
{
    const double wall = secondsSince(start_);
    const double cpu = cpuSeconds() - cpu0_;
    if (ops <= 0 || wall <= 0)
        return;
    const double slow = 0.5 * (slowBefore_ + probe_.slowdown());
    rawRate_.push_back(ops / wall);
    slowdown_.push_back(slow);
    rate_.push_back(ops / wall * slow);
    cpuUs_.push_back(cpu * 1e6 / ops / slow);
    for (double &ns : pending_) {
        ns /= slow;
        latency_.add(ns);
    }
    minSliceSamples_ = std::min(minSliceSamples_, pending_.size());
    if (pending_.size() >= kPerSliceSamples) {
        const double q = tailQuantile(pending_.size());
        auto at = [&](double quantile) {
            auto it = pending_.begin() +
                      static_cast<ptrdiff_t>(quantile * (pending_.size() - 1));
            std::nth_element(pending_.begin(), it, pending_.end());
            return *it;
        };
        sliceP50_.push_back(at(0.5));
        sliceTail_.push_back(at(q));
        sliceTailQ_.push_back(q);
    }
    pending_.clear();
}

bool
Slices::perSlice() const
{
    return !sliceP50_.empty() && minSliceSamples_ >= kPerSliceSamples;
}

double
Slices::p50Ns() const
{
    return perSlice() ? median(sliceP50_) : latency_.quantile(0.5);
}

double
Slices::tailNs() const
{
    return perSlice() ? median(sliceTail_)
                      : latency_.quantile(tailQuantile(latency_.count()));
}

std::string
Slices::describeTail(const char *what) const
{
    char buf[160];
    if (perSlice())
        std::snprintf(buf, sizeof buf,
                      "p999 is the median over %zu slices of q=%.6f "
                      "(%llu %s in all)",
                      sliceTail_.size(), median(sliceTailQ_),
                      static_cast<unsigned long long>(latency_.count()), what);
    else
        std::snprintf(buf, sizeof buf, "p999 is q=%.6f of %llu %s",
                      tailQuantile(latency_.count()),
                      static_cast<unsigned long long>(latency_.count()), what);
    return buf;
}

std::string
Slices::describe() const
{
    std::vector<double> s = slowdown_;
    std::sort(s.begin(), s.end());
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%zu slices, raw ops/s median %.6g, host slowdown median "
                  "%.4f (min %.4f, max %.4f)",
                  rate_.size(), median(rawRate_), median(slowdown_),
                  s.empty() ? 0.0 : s.front(), s.empty() ? 0.0 : s.back());
    return buf;
}

double
medianSetupSeconds(int times, const std::function<void()> &setup,
                   HostProbe *probe)
{
    std::vector<double> samples;
    for (int i = 0; i < times; ++i) {
        const double before = probe ? probe->slowdown() : 1;
        const auto start = Clock::now();
        setup();
        const double elapsed = secondsSince(start);
        const double after = probe ? probe->slowdown() : 1;
        samples.push_back(elapsed / (0.5 * (before + after)));
    }
    return median(samples);
}

} // namespace perfbench
