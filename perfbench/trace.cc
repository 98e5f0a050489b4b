#include "trace.hh"

#include <cstdio>
#include <unordered_map>

#include "metrics.hh"

namespace perfbench {

namespace {

thread_local std::uint64_t tlsTop = 0;
thread_local std::uint64_t tlsRequest = 0;

} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setEnabled(bool on)
{
    if (on && !started_) {
        origin_ = std::chrono::steady_clock::now();
        started_ = true;
    }
    enabled_.store(on);
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
Tracer::record(const SpanRecord &rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(rec);
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

namespace {

/** Self time of every span, in record order. */
std::vector<double>
selfOf(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, long> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = long(i);
    std::vector<Interval> iv(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        iv[i].start = spans[i].start;
        iv[i].end = spans[i].end;
        const auto it = index.find(spans[i].parent);
        iv[i].parent = it == index.end() ? -1 : it->second;
    }
    return selfTimes(iv);
}

} // namespace

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = selfOf(spans_);
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        SpanTotals &t = out[spans_[i].name];
        ++t.count;
        t.seconds += spans_[i].end - spans_[i].start;
        t.selfSeconds += self[i];
    }
    return out;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::vector<double> self = selfOf(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                     "\"request\":%llu,\"start_s\":%.9f,\"end_s\":%.9f,"
                     "\"self_s\":%.9f}\n",
                     s.name, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     s.start, s.end, self[i]);
    }
    return std::fclose(f) == 0;
}

Span::Span(const char *name, std::uint64_t parent, std::uint64_t request)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    active_ = true;
    rec_.name = name;
    rec_.id = t.nextId();
    rec_.parent = parent == ~0ull ? tlsTop : parent;
    rec_.request = request != 0 ? request : tlsRequest;
    savedTop_ = tlsTop;
    savedRequest_ = tlsRequest;
    tlsTop = rec_.id;
    tlsRequest = rec_.request;
    rec_.start = t.now();
}

Span::~Span()
{
    if (!active_)
        return;
    Tracer &t = Tracer::instance();
    rec_.end = t.now();
    t.record(rec_);
    tlsTop = savedTop_;
    tlsRequest = savedRequest_;
}

} // namespace perfbench
