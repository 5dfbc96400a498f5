/**
 * @file
 * The traced run's instrumentation, made entirely outside golite:
 * spans recorded around the benchmark's calls into each layer, and
 * forwarding subscribers that count and time every event a detector
 * (or an explorer/fuzzer probe) receives. Nothing here is compiled
 * into the library; the untraced run never touches it.
 *
 * Spans are kept in per-thread buffers and analysed (and optionally
 * written out) once, when the workload ends. A span's self time is
 * its duration minus the union of the intervals its child spans
 * cover, minus the time its forwarding subscribers spent inside it.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"
#include "runtime/events.hh"

namespace perfbench
{

enum class Layer : uint8_t
{
    Workload,
    Phase,
    Runtime,
    Race,
    Waitgraph,
    Parallel,
    Explore,
    Fuzz,
    Scanner,
    Load,
    Obs,
};

constexpr int kLayerCount = static_cast<int>(Layer::Obs) + 1;

/** Per-layer totals from the analysed spans and forwarders. */
struct LayerStats
{
    /** Summed span durations, children included. */
    int64_t totalNs = 0;
    int64_t selfNs = 0;
    /** Forwarded events delivered to this layer's subscribers. */
    uint64_t events = 0;
    /** Time those subscribers took, clock cost subtracted. */
    double eventNs = 0;
    /** Distribution of per-span self time. */
    LogHistogram self;
};

/**
 * A Subscriber that forwards everything to another one, counting and
 * timing each delivered event. Reports, footprints and the
 * parallel-safety answer are forwarded unchanged, so attaching it in
 * place of the wrapped subscriber leaves every RunReport identical.
 */
class TimedSubscriber final : public golite::Subscriber
{
  public:
    explicit TimedSubscriber(Layer layer);
    TimedSubscriber(const TimedSubscriber &) = delete;
    TimedSubscriber &operator=(const TimedSubscriber &) = delete;

    void wrap(golite::Subscriber *inner) { inner_ = inner; }

    golite::EventMask eventMask() const override;
    void onEvent(const golite::RuntimeEvent &ev) override;
    void onMemAccess(const void *addr, const char *label, uint64_t gid,
                     bool is_write) override;
    bool parallelSafe() const override;
    std::vector<std::string> drainReports() override;
    void finalizeRun(golite::RunReport &report) override;

    Layer layer() const { return layer_; }
    uint64_t events() const { return events_; }
    int64_t ns() const { return ns_; }

  private:
    Layer layer_;
    golite::Subscriber *inner_ = nullptr;
    uint64_t events_ = 0;
    int64_t ns_ = 0;
};

/**
 * Process-wide span recorder. Disabled (every call a no-op) until
 * start(); the untraced run never enables it.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void start();

    /** Open a span on this thread; @p parent 0 = this thread's
     *  innermost open span. Returns its id (0 when disabled). */
    uint64_t begin(const char *name, Layer layer, uint64_t parent = 0);
    /** Close span @p id, which must be this thread's innermost. */
    void end(uint64_t id, int64_t subscriber_ns = 0);

    /** A forwarder owned by the tracer (lives until exit). */
    TimedSubscriber &forwarder(Layer layer);

    /** Fold every span and forwarder into per-layer totals. Call
     *  once all worker threads are idle. */
    std::array<LayerStats, kLayerCount> analyse() const;

    size_t spanCount() const;

    /** Write every span as TSV to @p path. */
    bool write(const std::string &path) const;

  private:
    Tracer() = default;
    bool enabled_ = false;
    /** Cost of one pair of clock reads (ns), measured at start(). */
    double clockPairNs_ = 0;
};

/** RAII span on the calling thread; free when tracing is off. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, Layer layer, uint64_t parent = 0)
        : id_(Tracer::instance().begin(name, layer, parent))
    {
    }
    ~ScopedSpan() { Tracer::instance().end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

  private:
    uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
