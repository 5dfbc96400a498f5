#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>

namespace perfbench
{

namespace
{

struct Span
{
    const char *name = nullptr;
    Layer layer = Layer::Workload;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    int64_t start = 0;   ///< ns since the tracer started
    int64_t end = 0;
    /** Time forwarding subscribers spent inside this span. */
    int64_t subscriberNs = 0;
};

const char *
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Workload: return "workload";
    case Layer::Phase: return "phase";
    case Layer::Runtime: return "runtime";
    case Layer::Race: return "race";
    case Layer::Waitgraph: return "waitgraph";
    case Layer::Parallel: return "parallel";
    case Layer::Explore: return "explore";
    case Layer::Fuzz: return "fuzz";
    case Layer::Scanner: return "scanner";
    case Layer::Load: return "load";
    case Layer::Obs: return "obs";
    }
    return "?";
}

} // namespace

// --- TimedSubscriber ----------------------------------------------------

TimedSubscriber::TimedSubscriber(Layer layer) : layer_(layer) {}

golite::EventMask
TimedSubscriber::eventMask() const
{
    return inner_->eventMask();
}

void
TimedSubscriber::onEvent(const golite::RuntimeEvent &ev)
{
    const auto start = Clock::now();
    inner_->onEvent(ev);
    ns_ += nanosSince(start);
    events_++;
}

void
TimedSubscriber::onMemAccess(const void *addr, const char *label,
                             uint64_t gid, bool is_write)
{
    const auto start = Clock::now();
    inner_->onMemAccess(addr, label, gid, is_write);
    ns_ += nanosSince(start);
    events_++;
}

bool
TimedSubscriber::parallelSafe() const
{
    return inner_->parallelSafe();
}

std::vector<std::string>
TimedSubscriber::drainReports()
{
    return inner_->drainReports();
}

void
TimedSubscriber::finalizeRun(golite::RunReport &report)
{
    const auto start = Clock::now();
    inner_->finalizeRun(report);
    ns_ += nanosSince(start);
}

// --- Tracer -------------------------------------------------------------

namespace
{

/** One thread's spans plus its stack of open span indices. */
struct ThreadBuf
{
    std::vector<Span> spans;
    std::vector<size_t> open;
};

// Span ids encode where the span lives: (buffer + 1) << 40 | index + 1.
constexpr int kIndexBits = 40;

struct Registry
{
    std::mutex mu;
    std::vector<std::unique_ptr<ThreadBuf>> bufs;   // guarded by mu
    std::deque<TimedSubscriber> forwarders;         // guarded by mu
    Clock::time_point epoch = Clock::now();
};

Registry &
registry()
{
    static Registry r;
    return r;
}

thread_local ThreadBuf *tl_buf = nullptr;
thread_local size_t tl_buf_index = 0;

ThreadBuf &
threadBuf()
{
    if (tl_buf == nullptr) {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.bufs.push_back(std::make_unique<ThreadBuf>());
        tl_buf = r.bufs.back().get();
        tl_buf_index = r.bufs.size() - 1;
    }
    return *tl_buf;
}

int64_t
nowNs()
{
    return nanosSince(registry().epoch);
}

double
measureClockPairNs()
{
    std::vector<double> samples;
    for (int round = 0; round < 64; ++round) {
        constexpr int kPairs = 256;
        const auto start = Clock::now();
        for (int i = 0; i < kPairs; ++i)
            (void)nanosSince(Clock::now());
        samples.push_back(static_cast<double>(nanosSince(start)) / kPairs);
    }
    return median(samples);
}

/** Length of the union of [start, end) intervals (sorted in place). */
int64_t
coveredNs(std::vector<std::pair<int64_t, int64_t>> &iv)
{
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_s = 0, cur_e = -1;
    for (const auto &[s, e] : iv) {
        if (s > cur_e) {
            if (cur_e > cur_s)
                covered += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
        } else {
            cur_e = std::max(cur_e, e);
        }
    }
    if (cur_e > cur_s)
        covered += cur_e - cur_s;
    return covered;
}

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

void
Tracer::start()
{
    clockPairNs_ = measureClockPairNs();
    enabled_ = true;
}

uint64_t
Tracer::begin(const char *name, Layer layer, uint64_t parent)
{
    if (!enabled_)
        return 0;
    ThreadBuf &buf = threadBuf();
    if (parent == 0 && !buf.open.empty())
        parent = buf.spans[buf.open.back()].id;
    Span span;
    span.name = name;
    span.layer = layer;
    span.id = ((static_cast<uint64_t>(tl_buf_index) + 1) << kIndexBits) |
              (buf.spans.size() + 1);
    span.parent = parent;
    span.start = nowNs();
    buf.open.push_back(buf.spans.size());
    buf.spans.push_back(span);
    return span.id;
}

void
Tracer::end(uint64_t id, int64_t subscriber_ns)
{
    if (id == 0)
        return;
    ThreadBuf &buf = threadBuf();
    Span &span = buf.spans[buf.open.back()];
    span.end = nowNs();
    span.subscriberNs += subscriber_ns;
    buf.open.pop_back();
}

TimedSubscriber &
Tracer::forwarder(Layer layer)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.forwarders.emplace_back(layer);
}

size_t
Tracer::spanCount() const
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    size_t n = 0;
    for (const auto &buf : r.bufs)
        n += buf->spans.size();
    return n;
}

std::array<LayerStats, kLayerCount>
Tracer::analyse() const
{
    std::array<LayerStats, kLayerCount> out{};
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto locate = [&](uint64_t id) -> const Span & {
        const size_t b = (id >> kIndexBits) - 1;
        const size_t i = (id & ((uint64_t{1} << kIndexBits) - 1)) - 1;
        return r.bufs[b]->spans[i];
    };
    // Group child intervals by parent id, then take each parent's
    // covered length once.
    std::vector<std::pair<uint64_t, std::pair<int64_t, int64_t>>> kids;
    for (const auto &buf : r.bufs)
        for (const Span &s : buf->spans)
            if (s.parent != 0)
                kids.push_back({s.parent, {s.start, s.end}});
    std::sort(kids.begin(), kids.end());
    std::vector<std::pair<uint64_t, int64_t>> covered; // sorted by id
    std::vector<std::pair<int64_t, int64_t>> group;
    for (size_t i = 0; i < kids.size();) {
        const uint64_t parent = kids[i].first;
        const Span &p = locate(parent);
        group.clear();
        for (; i < kids.size() && kids[i].first == parent; ++i)
            group.push_back({std::max(kids[i].second.first, p.start),
                             std::min(kids[i].second.second, p.end)});
        covered.push_back({parent, coveredNs(group)});
    }
    for (const auto &buf : r.bufs) {
        for (const Span &s : buf->spans) {
            const auto it = std::lower_bound(
                covered.begin(), covered.end(),
                std::pair<uint64_t, int64_t>{s.id, INT64_MIN});
            const int64_t kid_ns =
                (it != covered.end() && it->first == s.id) ? it->second
                                                           : 0;
            const int64_t self = std::max<int64_t>(
                0, s.end - s.start - kid_ns - s.subscriberNs);
            LayerStats &ls = out[static_cast<size_t>(s.layer)];
            ls.totalNs += s.end - s.start;
            ls.selfNs += self;
            ls.self.add(static_cast<double>(self));
        }
    }
    for (const TimedSubscriber &f : r.forwarders) {
        LayerStats &ls = out[static_cast<size_t>(f.layer())];
        ls.events += f.events();
        ls.eventNs += std::max(
            0.0, static_cast<double>(f.ns()) -
                     static_cast<double>(f.events()) * clockPairNs_);
    }
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id\tparent\tlayer\tname\tstart_ns\tend_ns\t"
                    "subscriber_ns\n");
    for (const auto &buf : r.bufs)
        for (const Span &s : buf->spans)
            std::fprintf(f, "%llx\t%llx\t%s\t%s\t%lld\t%lld\t%lld\n",
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         layerName(s.layer), s.name,
                         static_cast<long long>(s.start),
                         static_cast<long long>(s.end),
                         static_cast<long long>(s.subscriberNs));
    return std::fclose(f) == 0;
}

} // namespace perfbench
