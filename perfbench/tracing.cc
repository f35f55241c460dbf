/**
 * @file
 * Span recorder implementation.
 */

#include "tracing.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::atomic<bool> tracingOn{false};
std::atomic<std::uint64_t> nextSpanId{1};
std::mutex spansMutex;
std::vector<Span> recorded; // guarded by spansMutex

/** Innermost open ScopedSpan on this thread. */
thread_local ScopedSpan *currentSpan = nullptr;

} // anonymous namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setTracing(bool enabled)
{
    tracingOn.store(enabled, std::memory_order_relaxed);
}

bool
tracing()
{
    return tracingOn.load(std::memory_order_relaxed);
}

std::uint64_t
recordSpan(const std::string &name, std::uint64_t parent,
           std::uint64_t op, std::int64_t start_ns, std::int64_t end_ns)
{
    if (!tracing())
        return 0;
    const std::uint64_t id = nextSpanId.fetch_add(1);
    Span span{name, id, parent, op == 0 ? id : op, start_ns, end_ns};
    std::lock_guard<std::mutex> lock(spansMutex);
    recorded.push_back(std::move(span));
    return recorded.back().id;
}

std::vector<Span>
spans()
{
    std::lock_guard<std::mutex> lock(spansMutex);
    return recorded;
}

ScopedSpan::ScopedSpan(const char *name)
    : ScopedSpan(name, currentSpan ? currentSpan->id_ : 0,
                 currentSpan ? currentSpan->op_ : 0)
{
}

ScopedSpan::ScopedSpan(const char *name, std::uint64_t parent,
                       std::uint64_t op)
    : name_(name), parent_(parent), op_(op)
{
    if (!tracing())
        return;
    active_ = true;
    id_ = nextSpanId.fetch_add(1);
    if (op_ == 0)
        op_ = id_;
    outer_ = currentSpan;
    currentSpan = this;
    start_ = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    const std::int64_t end = nowNs();
    currentSpan = outer_;
    std::lock_guard<std::mutex> lock(spansMutex);
    recorded.push_back(Span{name_, id_, parent_, op_, start_, end});
}

std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &span : spans)
        children[span.parent].push_back(&span);

    std::map<std::string, double> self;
    for (const Span &span : spans) {
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        const auto it = children.find(span.id);
        if (it != children.end()) {
            for (const Span *child : it->second) {
                const std::int64_t start =
                    std::max(child->startNs, span.startNs);
                const std::int64_t end = std::min(child->endNs, span.endNs);
                if (end > start)
                    covered.emplace_back(start, end);
            }
        }
        std::sort(covered.begin(), covered.end());
        std::int64_t union_ns = 0;
        std::int64_t reach = span.startNs;
        for (const auto &[start, end] : covered) {
            const std::int64_t from = std::max(start, reach);
            if (end > from)
                union_ns += end - from;
            reach = std::max(reach, end);
        }
        self[span.name] +=
            1e-9 * static_cast<double>(span.endNs - span.startNs - union_ns);
    }
    return self;
}

std::vector<Span>
subtree(const std::vector<Span> &spans, std::uint64_t root)
{
    std::unordered_map<std::uint64_t, std::uint64_t> parent_of;
    for (const Span &span : spans)
        parent_of[span.id] = span.parent;
    std::vector<Span> result;
    for (const Span &span : spans) {
        std::uint64_t at = span.id;
        std::set<std::uint64_t> seen;
        while (at != 0 && at != root && seen.insert(at).second) {
            const auto it = parent_of.find(at);
            at = it == parent_of.end() ? 0 : it->second;
        }
        if (at == root)
            result.push_back(span);
    }
    return result;
}

void
writeSpans(const std::vector<Span> &spans, std::ostream &out)
{
    for (const Span &span : spans) {
        out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
            << ",\"parent\":" << span.parent << ",\"op\":" << span.op
            << ",\"start_ns\":" << span.startNs
            << ",\"end_ns\":" << span.endNs << "}\n";
    }
}

} // namespace perfbench
