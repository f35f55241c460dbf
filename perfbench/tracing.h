/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span names one call into a vlpsim layer (`workload.generate`,
 * `core.step1`, `store.fetch`, ...) or one benchmark grouping
 * (`bench.pass`, `bench.item`, `bench.request`), with its start, end,
 * parent span and operation id. Spans stay in memory until the run
 * ends. Recording is off by default; a disabled ScopedSpan costs one
 * relaxed atomic load, so the untraced passes of a traced run time
 * the same code as an untraced run.
 */

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (std::chrono::steady_clock). */
std::int64_t nowNs();

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    /** 0 for a root span. */
    std::uint64_t parent = 0;
    /** Spans of one operation (a pass, a request) share this id. */
    std::uint64_t op = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Turn recording on or off (process-wide). */
void setTracing(bool enabled);
bool tracing();

/** Record a finished span; returns its id (0 when tracing is off). */
std::uint64_t recordSpan(const std::string &name, std::uint64_t parent,
                         std::uint64_t op, std::int64_t start_ns,
                         std::int64_t end_ns);

/** Every span recorded so far, in completion order. */
std::vector<Span> spans();

/**
 * RAII span. The parent defaults to the innermost ScopedSpan open on
 * the calling thread; pass one explicitly for work handed to another
 * thread.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ScopedSpan(const char *name, std::uint64_t parent, std::uint64_t op);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id (valid while tracing; 0 otherwise). */
    std::uint64_t id() const { return id_; }
    std::uint64_t op() const { return op_; }

  private:
    const char *name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t op_ = 0;
    std::int64_t start_ = 0;
    ScopedSpan *outer_ = nullptr;
    bool active_ = false;
};

/**
 * Self time per span name: each span's duration minus the part of its
 * interval covered by its children (children may run concurrently on
 * other threads; their union is subtracted once).
 */
std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans);

/** Spans whose root ancestor is @p root (the root included). */
std::vector<Span> subtree(const std::vector<Span> &spans,
                          std::uint64_t root);

/** One JSON object per line: name, id, parent, op, start/end ns. */
void writeSpans(const std::vector<Span> &spans, std::ostream &out);

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
