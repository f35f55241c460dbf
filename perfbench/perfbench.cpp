/**
 * @file
 * The repository benchmark program (see perfbench/README.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --work <dir> --out <dir> --reference <file>
 *
 * Runs one named workload in this process for the given time, checks
 * every output against the reference digests, and prints one JSON
 * result object as the last stdout line. With --trace 0 it reports
 * the end-to-end metrics; with --trace 1 it reports per-layer metrics
 * from spans recorded around the calls into each vlpsim module.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/profiler.h"
#include "predictors/budget.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/experiment.h"
#include "sim/parallel.h"
#include "sim/report.h"
#include "sim/service.h"
#include "sim/suite_runner.h"
#include "store/artifact_store.h"
#include "store/cache_key.h"
#include "store/checkpoint.h"
#include "store/serialize.h"
#include "trace/content_hash.h"
#include "trace/mmap_file.h"
#include "trace/prefetch.h"
#include "trace/streaming.h"
#include "trace/trace_io.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/socket.h"
#include "util/thread_pool.h"
#include "util/version.h"
#include "workload/benchmarks.h"

#include "tracing.h"

namespace fs = std::filesystem;
using namespace vlp;
using perfbench::nowNs;
using perfbench::ScopedSpan;

namespace {

// --- fixed workload parameters (documented in README.md) -----------

/** VLPSIM_SCALE for the synthetic-suite workloads. */
constexpr double suiteScale = 0.1;
/** generateTrace() extra scale for the paired corpus. */
constexpr double corpusScale = 0.1;
/** Corpus input variants; --seed selects variant seed % this. */
constexpr std::uint64_t corpusVariants = 16;
constexpr std::size_t condBytes = 16384;
constexpr std::size_t indBytes = 2048;
constexpr std::size_t corpusBytes = 16384;
/** Set-up repetitions; setup_s is their median. */
constexpr int setupRepeats = 5;
/** serve-warm: daemon worker slots and requests per client per round. */
constexpr unsigned serveWorkers = 2;
constexpr unsigned requestsPerClient = 4;
constexpr unsigned serveTimeoutMs = 60'000;
/** Coverage check: layer self times must account for all but this
 *  share of traced busy time. */
constexpr double maxUnattributedPct = 5.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string work;
    std::string out;
    std::string reference;
    /** Self-test knobs: corpus/suite scale overrides and a corrupted
     *  corpus trace. */
    double suiteScale = ::suiteScale;
    double corpusScale = ::corpusScale;
    bool corrupt = false;
};

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message << "\n"
              << "usage: perfbench --workload <suite-cond|suite-ind|"
                 "corpus-cold|serve-warm> --seed <n> --seconds <s> "
                 "--trace <0|1> --work <dir> --out <dir> "
                 "--reference <file>\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::stoull(value);
        else if (flag == "--seconds")
            options.seconds = std::stod(value);
        else if (flag == "--trace")
            options.trace = value == "1";
        else if (flag == "--work")
            options.work = value;
        else if (flag == "--out")
            options.out = value;
        else if (flag == "--reference")
            options.reference = value;
        else if (flag == "--suite-scale")
            options.suiteScale = std::stod(value);
        else if (flag == "--corpus-scale")
            options.corpusScale = std::stod(value);
        else if (flag == "--corrupt")
            options.corrupt = value == "1";
        else
            usage("unknown flag " + flag);
    }
    if (options.workload.empty() || options.work.empty()
        || options.out.empty() || options.reference.empty()) {
        usage("--workload, --work, --out and --reference are required");
    }
    if (options.seconds <= 0)
        usage("--seconds must be positive");
    return options;
}

// --- small helpers ---------------------------------------------------

double
seconds(std::int64_t ns)
{
    return 1e-9 * static_cast<double>(ns);
}

/** Process user+sys CPU seconds so far. */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec)
        + 1e-6
        * static_cast<double>(usage.ru_utime.tv_usec
                              + usage.ru_stime.tv_usec);
}

/**
 * Start a round's resident-set high-water mark (Linux): hand memory the
 * allocator kept from earlier rounds back to the kernel, then reset the
 * mark, so each round's peak is its own working set.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Resident-set high-water mark since the last reset, in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile @p p (0..100). */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

std::string
loadAverage()
{
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) != 3)
        return "unknown";
    char text[64];
    std::snprintf(text, sizeof text, "%.2f %.2f %.2f", load[0], load[1],
                  load[2]);
    return text;
}

unsigned
hostJobs()
{
    return util::ThreadPool::defaultThreadCount();
}

std::string
renderJson(const sim::Report &report)
{
    std::ostringstream out;
    sim::JsonReportSink().write(report, out);
    return out.str();
}

/** Digest of a report's JSON rendering without the host-dependent
 *  metadata (build version, worker count). */
std::string
reportDigest(sim::Report report)
{
    auto &meta = report.metadata;
    meta.erase(std::remove_if(meta.begin(), meta.end(),
                              [](const auto &entry) {
                                  return entry.first == "jobs"
                                      || entry.first == "vlpsimVersion";
                              }),
               meta.end());
    const std::string json = renderJson(report);
    trace::ContentHasher hasher;
    hasher.update(json.data(), json.size());
    return hasher.digest();
}

/** Run fn(i) for i in [0, count) on @p jobs threads; item i runs on
 *  thread i % jobs. The first exception is rethrown after all join. */
void
parallelFor(unsigned jobs, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    std::vector<std::thread> threads;
    std::exception_ptr failure;
    std::mutex failure_mutex;
    for (unsigned worker = 0; worker < std::max(1u, jobs); ++worker) {
        threads.emplace_back([&, worker] {
            try {
                for (std::size_t i = worker; i < count;
                     i += std::max(1u, jobs)) {
                    fn(i);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(failure_mutex);
                if (!failure)
                    failure = std::current_exception();
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    if (failure)
        std::rethrow_exception(failure);
}

// --- results ---------------------------------------------------------

/** Everything one run measured. */
struct Measurements
{
    std::vector<double> roundWall;
    std::vector<double> roundCpu;
    /** Resident-set high-water mark of each round, MB. */
    std::vector<double> roundRss;
    /** One latency per operation (pass or request), milliseconds. */
    std::vector<double> latencyMs;
    std::vector<double> setup;
    /** Input records one round processes. */
    double recordsPerRound = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Rates from the checked report (percent, averaged over rows). */
    double vlpMiss = 0;
    double gshareMiss = 0;
    double flpMiss = 0;
};

void
fail(Measurements &m, const std::string &why)
{
    ++m.failed;
    std::cerr << "perfbench: failure: " << why << "\n";
}

// --- reference digests -----------------------------------------------

class References
{
  public:
    explicit References(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read reference file " + path);
        std::stringstream text;
        text << in.rdbuf();
        json_ = util::Json::parse(text.str());
    }

    /** The digest recorded under @p key, or "" when none is kept. */
    std::string digest(const std::string &key) const
    {
        const util::Json *digests = json_.find("digests");
        const util::Json *entry = digests ? digests->find(key) : nullptr;
        return entry ? entry->asString() : std::string();
    }

  private:
    util::Json json_;
};

std::string
scaleText(double scale)
{
    char text[32];
    std::snprintf(text, sizeof text, "%g", scale);
    return text;
}

/** Compare @p digest with the reference; a missing one is a failure
 *  too, so a new input never passes unchecked. */
bool
checkDigest(Measurements &m, const References &refs,
            const std::string &key, const std::string &digest)
{
    const std::string expected = refs.digest(key);
    if (expected == digest)
        return true;
    fail(m, "report digest " + digest + " for " + key + " != reference '"
                + expected + "'");
    return false;
}

// --- rates from reports ------------------------------------------------

struct Rates
{
    double vlp = 0, gshare = 0, flp = 0;
};

/** Mean per-predictor rates over a suite report's rows. */
Rates
suiteRates(const sim::Report &report)
{
    Rates rates;
    for (const sim::Section &section : report.sections) {
        const auto column = [&](const std::string &name) -> int {
            for (std::size_t c = 0; c < section.columns.size(); ++c) {
                if (section.columns[c].name == name)
                    return static_cast<int>(c);
            }
            return -1;
        };
        const int vlp = column(std::string(sim::names::vlp) + " (%)");
        const int gshare = column(std::string(sim::names::gshare) + " (%)");
        const int flp = column(std::string(sim::names::flp) + " (%)");
        const double rows = static_cast<double>(section.rows.size());
        for (const sim::Row &row : section.rows) {
            if (vlp >= 0)
                rates.vlp += row.cells[vlp].number() / rows;
            if (gshare >= 0)
                rates.gshare += row.cells[gshare].number() / rows;
            if (flp >= 0)
                rates.flp += row.cells[flp].number() / rows;
        }
    }
    return rates;
}

/** Mean per-predictor rates over the test-side rows of a corpus run. */
Rates
corpusRates(const sim::SuiteReport &suite)
{
    Rates sum;
    double vlp_rows = 0, gshare_rows = 0, flp_rows = 0;
    for (const sim::TraceOutcome &outcome : suite.traces) {
        for (const auto *row : {&outcome.conditional, &outcome.indirect}) {
            if (!*row)
                continue;
            for (const sim::RateEntry &entry : (*row)->entries) {
                if (entry.predictor == sim::names::vlp) {
                    sum.vlp += entry.rate;
                    ++vlp_rows;
                } else if (entry.predictor == sim::names::gshare) {
                    sum.gshare += entry.rate;
                    ++gshare_rows;
                } else if (entry.predictor == sim::names::flp) {
                    sum.flp += entry.rate;
                    ++flp_rows;
                }
            }
        }
    }
    Rates mean;
    mean.vlp = vlp_rows > 0 ? sum.vlp / vlp_rows : 0;
    mean.gshare = gshare_rows > 0 ? sum.gshare / gshare_rows : 0;
    mean.flp = flp_rows > 0 ? sum.flp / flp_rows : 0;
    return mean;
}

void
setRates(Measurements &m, const Rates &rates)
{
    m.vlpMiss = rates.vlp;
    m.gshareMiss = rates.gshare;
    m.flpMiss = rates.flp;
}

// --- per-layer accounting ----------------------------------------------

/** Span names that group work for the benchmark rather than name a
 *  vlpsim layer; their self time is unattributed. */
bool
isGrouping(const std::string &name)
{
    return name.rfind("bench.", 0) == 0;
}

/** Layer self times over the subtrees of @p roots, plus the benchmark's
 *  own coverage and parallelism figures. */
struct LayerSummary
{
    std::map<std::string, double> self;
    double unattributedPct = 0;
    double parallelEfficiency = 0;
    double maxShardSeconds = 0;
};

LayerSummary
summarize(const std::vector<perfbench::Span> &all,
          const std::vector<std::uint64_t> &roots, unsigned workers)
{
    LayerSummary summary;
    double total = 0, grouping = 0;
    double busy = 0, capacity = 0;
    for (const std::uint64_t root : roots) {
        const auto spans = perfbench::subtree(all, root);
        for (const auto &[name, self] : perfbench::selfSeconds(spans)) {
            summary.self[name] += self / static_cast<double>(roots.size());
            total += self;
            if (isGrouping(name))
                grouping += self;
        }
        double wall = 0, max_item = 0;
        for (const perfbench::Span &span : spans) {
            const double duration = seconds(span.endNs - span.startNs);
            if (span.id == root)
                wall = duration;
            if (span.name == "bench.item" || span.name == "bench.request") {
                busy += duration;
                max_item = std::max(max_item, duration);
            }
        }
        capacity += wall * workers;
        summary.maxShardSeconds +=
            max_item / static_cast<double>(roots.size());
    }
    summary.unattributedPct = total > 0 ? 100.0 * grouping / total : 0;
    summary.parallelEfficiency = capacity > 0 ? busy / capacity : 0;
    return summary;
}

/** Counters the traced passes add up (per pass, averaged later). */
struct Counters
{
    std::mutex mutex;
    std::map<std::string, double> values;

    void add(const std::string &name, double value)
    {
        std::lock_guard<std::mutex> lock(mutex);
        values[name] += value;
    }
};

// --- the corpus ----------------------------------------------------------

/** Write the paired Table-3 corpus for @p variant into @p dir; returns
 *  the records written. */
std::uint64_t
writeCorpus(const std::string &dir, std::uint64_t variant, double scale,
            bool corrupt)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto names = workload::indirectHeavyNames();
    std::atomic<std::uint64_t> records{0};
    parallelFor(hostJobs(), 2 * names.size(), [&](std::size_t i) {
        workload::BenchmarkSpec spec = workload::findBenchmark(names[i / 2]);
        // The seed draws the evaluation inputs; the profile inputs stay
        // the built-in ones, so every variant does the same profiling
        // work. Variant 0 is the built-in test inputs.
        spec.testInput.seed += variant * 0x9e3779b97f4a7c15ULL;
        const bool profile = i % 2 == 0;
        const auto trace = workload::generateTrace(
            spec,
            profile ? workload::InputKind::Profile
                    : workload::InputKind::Test,
            scale);
        records += trace.size();
        trace::saveTrace(trace, dir + "/" + spec.name
                                    + (profile ? ".profile.vbt"
                                               : ".test.vbt"));
    });
    if (corrupt) {
        // Flip one byte inside the first test trace's record stream:
        // its checksum fails and the pair must be quarantined.
        const std::string victim = dir + "/" + names.front() + ".test.vbt";
        std::fstream file(victim,
                          std::ios::in | std::ios::out | std::ios::binary);
        file.seekg(static_cast<std::streamoff>(fs::file_size(victim) / 2));
        char byte = 0;
        file.read(&byte, 1);
        file.seekp(static_cast<std::streamoff>(fs::file_size(victim) / 2));
        byte = static_cast<char>(byte ^ 0x5a);
        file.write(&byte, 1);
    }
    return records.load();
}

std::string
corpusKey(const Options &options)
{
    return "corpus@" + scaleText(options.corpusScale) + "#v"
        + std::to_string(options.seed % corpusVariants)
        + (options.corrupt ? "-corrupt" : "");
}

// --- synthetic suite workloads --------------------------------------------

struct SuiteWorkload
{
    bool indirect;
    std::size_t bytes;
};

/** Generate every suite input once (counts the records a pass reads). */
std::uint64_t
suiteInputRecords()
{
    const auto &suite = workload::benchmarkSuite();
    std::atomic<std::uint64_t> records{0};
    parallelFor(hostJobs(), 2 * suite.size(), [&](std::size_t i) {
        records += workload::generateTrace(suite[i / 2],
                                           i % 2 == 0
                                               ? workload::InputKind::Profile
                                               : workload::InputKind::Test)
                       .size();
    });
    return records.load();
}

/**
 * The traced pass: runSuiteCompare's calls, made one layer at a time
 * through the same ParallelRunner sharding, with a span around each.
 */
std::vector<sim::ComparisonRow>
tracedSuitePass(const SuiteWorkload &w, unsigned jobs, std::uint64_t pass,
                Counters &counters)
{
    sim::ParallelRunner runner(jobs);
    const auto &suite = workload::benchmarkSuite();
    const unsigned bits = w.indirect ? pred::indirectIndexBits(w.bytes)
                                     : pred::conditionalIndexBits(w.bytes);
    const unsigned iterations = core::ProfileOptions{}.iterations;
    // Per-worker weak handles tell a freshly generated trace from an
    // LRU hit without reaching into the context.
    std::vector<std::map<std::string, std::weak_ptr<trace::VectorTraceSource>>>
        seen(runner.jobs());

    const auto trace = [&](sim::ExperimentContext &context, std::size_t i,
                           workload::InputKind kind) {
        ScopedSpan span("workload.generate");
        const auto source = context.trace(suite[i], kind);
        auto &handle = seen[i % runner.jobs()]
                           [suite[i].name
                            + (kind == workload::InputKind::Profile ? "/p"
                                                                    : "/t")];
        if (handle.lock() != source) {
            counters.add("workload.records",
                         static_cast<double>(source->size()));
            handle = source;
        }
        return source;
    };

    runner.map<int>(suite.size(), [&](sim::ExperimentContext &context,
                                      std::size_t i) {
        ScopedSpan item("bench.item", pass, pass);
        trace(context, i, workload::InputKind::Profile);
        ScopedSpan span("core.step1");
        const core::FixedLengthSweep &sweep = w.indirect
            ? context.indirectSweep(suite[i], bits)
            : context.conditionalSweep(suite[i], bits);
        counters.add("core.step1_steps",
                     static_cast<double>(sweep.branches
                                         * sweep.mispredictions.size()));
        return 0;
    });

    unsigned global_length = 0;
    {
        ScopedSpan span("sim.global_length");
        global_length = w.indirect ? runner.globalIndirectLength(w.bytes)
                                   : runner.globalConditionalLength(w.bytes);
    }

    return runner.map<sim::ComparisonRow>(
        suite.size(), [&](sim::ExperimentContext &context, std::size_t i) {
            ScopedSpan item("bench.item", pass, pass);
            trace(context, i, workload::InputKind::Profile);
            {
                ScopedSpan span("core.step2");
                if (w.indirect)
                    context.indirectAssignment(suite[i], bits);
                else
                    context.conditionalAssignment(suite[i], bits);
                const core::FixedLengthSweep &sweep = w.indirect
                    ? context.indirectSweep(suite[i], bits)
                    : context.conditionalSweep(suite[i], bits);
                counters.add("core.step2_branch_iters",
                             static_cast<double>(sweep.branches)
                                 * iterations);
            }
            trace(context, i, workload::InputKind::Test);
            ScopedSpan span("sim.replay");
            sim::ComparisonRow row = w.indirect
                ? sim::compareIndirect(context, suite[i], w.bytes,
                                       global_length)
                : sim::compareConditional(context, suite[i], w.bytes,
                                          global_length);
            double steps = 0;
            for (const sim::RateEntry &entry : row.entries)
                steps += static_cast<double>(entry.branches);
            counters.add("sim.replay_predictor_steps", steps);
            return row;
        });
}

/** True when @p rows carry exactly the rates in @p report. */
bool
rowsMatchReport(const std::vector<sim::ComparisonRow> &rows,
                const sim::Report &report)
{
    if (report.sections.size() != 1
        || report.sections.front().rows.size() != rows.size()) {
        return false;
    }
    const sim::Section &section = report.sections.front();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const sim::Row &row = section.rows[r];
        if (row.id != rows[r].benchmark
            || row.cells.size() != rows[r].entries.size() + 1) {
            return false;
        }
        for (std::size_t e = 0; e < rows[r].entries.size(); ++e) {
            if (row.cells[e + 1].number() != rows[r].entries[e].rate)
                return false;
        }
    }
    return true;
}

// --- external-trace corpus: the traced reenactment -------------------------

/** Journal cell keys and payloads exactly as TraceSuiteRunner writes
 *  them, so the traced pass appends the same bytes. */
std::string
sweepCellKey(const std::string &hash, bool indirect, unsigned bits)
{
    return "sweep;v" + std::to_string(store::artifactFormatVersion)
        + ";class=" + (indirect ? "ind" : "cond") + ";trace=" + hash
        + ";bits=" + std::to_string(bits);
}

std::string
rowCellKey(const std::string &profile, const std::string &test,
           bool indirect, std::size_t bytes, unsigned global_length)
{
    return "row;v" + std::to_string(store::artifactFormatVersion)
        + ";schema=" + std::to_string(sim::reportSchemaVersion)
        + ";class=" + (indirect ? "ind" : "cond") + ";profile=" + profile
        + ";test=" + test + ";bytes=" + std::to_string(bytes)
        + ";global=" + std::to_string(global_length);
}

std::vector<std::uint8_t>
encodeSweepCell(const core::FixedLengthSweep &sweep)
{
    store::Encoder encoder;
    encoder.u64(sweep.branches);
    encoder.u32(sweep.minLength);
    encoder.u32(static_cast<std::uint32_t>(sweep.mispredictions.size()));
    for (const std::uint64_t count : sweep.mispredictions)
        encoder.u64(count);
    return encoder.take();
}

unsigned
argminLength(const std::vector<double> &rates)
{
    unsigned best = 1;
    for (unsigned length = 2; length <= rates.size(); ++length) {
        if (rates[length - 1] < rates[best - 1])
            best = length;
    }
    return best;
}

/**
 * TraceSuiteRunner::run's calls on a clean corpus, one layer at a time.
 *
 * Cold mode (corpus-cold's traced pass) keeps the runner's structure —
 * the prefetcher opens and hashes ahead, step 1 / step 2 / replay run
 * through the experiment context with the store attached, and every
 * cell is journaled. Warm mode (serve-warm's probe) replays what a
 * warm request does on one thread: open+hash each trace, then fetch
 * every artifact from the filled store. Any quarantine throws: the
 * benchmark's corpus must process cleanly.
 */
sim::SuiteReport
tracedTraceSuite(const std::string &dir,
                 const std::shared_ptr<store::ArtifactStore> &store,
                 store::CheckpointJournal *journal, unsigned jobs,
                 bool warm, std::uint64_t pass, Counters &counters)
{
    const auto pairing = sim::TraceSuiteRunner::pairTraces(
        sim::TraceSuiteRunner::discoverTraces(dir), "");
    const std::size_t count = pairing.pairs.size();
    const unsigned cond_bits = pred::conditionalIndexBits(corpusBytes);
    const unsigned ind_bits = pred::indirectIndexBits(corpusBytes);
    const unsigned iterations = core::ProfileOptions{}.iterations;
    const trace::FileOpener opener = trace::fastOpener(trace::ReadMode::Auto);

    std::vector<std::unique_ptr<sim::ExperimentContext>> contexts;
    for (unsigned w = 0; w < jobs; ++w) {
        contexts.push_back(std::make_unique<sim::ExperimentContext>());
        contexts.back()->setStore(store);
    }

    trace::TracePrefetcher::Options prefetch_options;
    prefetch_options.opener = opener;
    prefetch_options.window = 2 * static_cast<std::size_t>(jobs) + 2;
    prefetch_options.threads = jobs;
    std::vector<std::string> paths;
    for (const sim::TracePair &pair : pairing.pairs) {
        paths.push_back(pair.profilePath);
        paths.push_back(pair.testPath);
    }
    std::unique_ptr<trace::TracePrefetcher> prefetch;
    if (!warm) {
        prefetch = std::make_unique<trace::TracePrefetcher>(
            paths, prefetch_options);
    }

    struct Work
    {
        sim::TraceOutcome outcome;
        sim::ExternalTrace profile, test;
        std::vector<double> condRates, indRates;
    };
    std::vector<Work> work(count);

    const auto open = [&](std::size_t index) {
        if (warm) {
            ScopedSpan span("trace.hash");
            auto opened =
                trace::TracePrefetcher::openTrace(paths[index],
                                                  prefetch_options);
            counters.add("trace.hash_bytes",
                         static_cast<double>(fs::file_size(paths[index])));
            return opened;
        }
        ScopedSpan span("trace.prefetch_wait");
        return prefetch->take(index);
    };
    const auto external = [&](const std::string &name,
                              const std::string &path,
                              trace::PrefetchedTrace &opened) {
        if (opened.error)
            std::rethrow_exception(opened.error);
        sim::ExternalTrace ext;
        ext.name = name;
        ext.path = path;
        ext.opener = opener;
        ext.contentHash = opened.contentHash;
        ext.session = std::move(opened.session);
        return ext;
    };
    const auto journaled = [&](const std::string &key,
                               const std::vector<std::uint8_t> &payload) {
        if (journal == nullptr)
            return;
        ScopedSpan span("store.journal_append");
        journal->record(key, payload);
    };
    // Pair i runs on worker i % jobs, as in the runner.
    const auto workers = [&](const std::function<void(unsigned, std::size_t)>
                                 &fn) {
        parallelFor(jobs, count, [&](std::size_t i) {
            ScopedSpan item("bench.item", pass, pass);
            fn(static_cast<unsigned>(i % jobs), i);
        });
    };

    // Phase A: open both traces, step-1 sweeps of the profile trace.
    workers([&](unsigned w, std::size_t i) {
        const sim::TracePair &pair = pairing.pairs[i];
        Work &item = work[i];
        item.outcome.name = pair.name;
        item.outcome.path = pair.testPath;
        item.outcome.profileName = pair.profileName;
        item.outcome.profilePath = pair.profilePath;
        item.outcome.testName = pair.testName;
        trace::PrefetchedTrace profile_open = open(2 * i);
        trace::PrefetchedTrace test_open = open(2 * i + 1);
        item.outcome.profileFormatVersion = profile_open.formatVersion;
        item.outcome.profileRecords = profile_open.records;
        item.outcome.formatVersion = test_open.formatVersion;
        item.outcome.records = test_open.records;
        item.profile = external(pair.profileName, pair.profilePath,
                                profile_open);
        item.test = external(pair.testName, pair.testPath, test_open);
        for (const bool indirect : {false, true}) {
            const unsigned bits = indirect ? ind_bits : cond_bits;
            core::FixedLengthSweep sweep;
            {
                ScopedSpan span(warm ? "store.fetch" : "core.step1");
                sweep = contexts[w]->externalSweep(item.profile, bits,
                                                   indirect);
            }
            if (!warm) {
                counters.add("core.step1_steps",
                             static_cast<double>(
                                 sweep.branches
                                 * sweep.mispredictions.size()));
            }
            journaled(sweepCellKey(item.profile.contentHash, indirect, bits),
                      encodeSweepCell(sweep));
            std::vector<double> rates(sweep.mispredictions.size(), 0.0);
            for (std::size_t l = 0; sweep.branches > 0 && l < rates.size();
                 ++l) {
                rates[l] = 100.0
                    * static_cast<double>(sweep.mispredictions[l])
                    / static_cast<double>(sweep.branches);
            }
            (indirect ? item.outcome.indirectBranches
                      : item.outcome.conditionalBranches) = sweep.branches;
            (indirect ? item.indRates : item.condRates) = std::move(rates);
        }
    });

    // Suite-wide global lengths, as the runner derives them.
    std::vector<double> cond_average(core::maxPathLength, 0.0);
    std::vector<double> ind_average(core::maxPathLength, 0.0);
    unsigned cond_counted = 0, ind_counted = 0;
    for (const Work &item : work) {
        if (item.outcome.conditionalBranches > 0) {
            ++cond_counted;
            for (std::size_t l = 0; l < item.condRates.size(); ++l)
                cond_average[l] += item.condRates[l];
        }
        if (item.outcome.indirectBranches >= 1000) {
            ++ind_counted;
            for (std::size_t l = 0; l < item.indRates.size(); ++l)
                ind_average[l] += item.indRates[l];
        }
    }
    unsigned global_cond = 0, global_ind = 0;
    if (cond_counted > 0) {
        for (double &rate : cond_average)
            rate /= static_cast<double>(cond_counted);
        global_cond = argminLength(cond_average);
    }
    if (ind_counted > 0) {
        for (double &rate : ind_average)
            rate /= static_cast<double>(ind_counted);
        global_ind = argminLength(ind_average);
    }

    // Phase C: train and test rows, step 2 on first use.
    workers([&](unsigned w, std::size_t i) {
        Work &item = work[i];
        sim::ExperimentContext &context = *contexts[w];
        for (const bool indirect : {false, true}) {
            const unsigned global = indirect ? global_ind : global_cond;
            const bool usable = indirect
                ? item.outcome.indirectBranches >= 1000
                : item.outcome.conditionalBranches > 0;
            if (!usable || global == 0)
                continue;
            const unsigned bits = indirect ? ind_bits : cond_bits;
            if (!warm) {
                // A warm request never asks for the assignment: its rows
                // come straight from the store.
                ScopedSpan span("core.step2");
                context.externalAssignment(item.profile, bits, indirect);
                counters.add("core.step2_branch_iters",
                             static_cast<double>(
                                 indirect ? item.outcome.indirectBranches
                                          : item.outcome.conditionalBranches)
                                 * iterations);
            }
            for (const bool train : {true, false}) {
                const sim::ExternalTrace &eval =
                    train ? item.profile : item.test;
                sim::ComparisonRow row;
                {
                    ScopedSpan span(warm ? "store.fetch" : "sim.replay");
                    row = indirect
                        ? sim::compareExternalIndirect(context, item.profile,
                                                       eval, corpusBytes,
                                                       global)
                        : sim::compareExternalConditional(
                              context, item.profile, eval, corpusBytes,
                              global);
                }
                if (!warm) {
                    double steps = 0;
                    for (const sim::RateEntry &entry : row.entries)
                        steps += static_cast<double>(entry.branches);
                    counters.add("sim.replay_predictor_steps", steps);
                }
                journaled(rowCellKey(item.profile.contentHash,
                                     eval.contentHash, indirect,
                                     corpusBytes, global),
                          store::encodeComparisonRow(row));
                auto &slot = indirect
                    ? (train ? item.outcome.indirectTrain
                             : item.outcome.indirect)
                    : (train ? item.outcome.conditionalTrain
                             : item.outcome.conditional);
                slot = std::move(row);
            }
        }
        item.profile.session.reset();
        item.test.session.reset();
    });

    sim::SuiteReport report;
    report.bytes = corpusBytes;
    report.globalConditionalLength = global_cond;
    report.globalIndirectLength = global_ind;
    for (Work &item : work)
        report.traces.push_back(std::move(item.outcome));
    return report;
}

sim::TraceSuiteOptions
corpusOptions(const std::string &dir, unsigned jobs)
{
    sim::TraceSuiteOptions options;
    options.directory = dir;
    options.bytes = corpusBytes;
    options.jobs = jobs;
    options.readMode = trace::ReadMode::Auto;
    return options;
}

/** Quarantined or skipped pairs in a corpus report. */
std::size_t
brokenPairs(const sim::SuiteReport &report)
{
    return report.quarantinedCount() + report.skippedCount()
        + report.orphanedCount();
}

// --- workloads -------------------------------------------------------------

class Bench
{
  public:
    Bench(Options options, const References &refs)
        : options_(std::move(options)), refs_(refs), jobs_(hostJobs())
    {
    }

    Measurements run()
    {
        // The suites run at the benchmark's scale; the corpus is sized by
        // its generator scale alone, whatever the caller's environment.
        const bool suite = options_.workload.rfind("suite-", 0) == 0;
        setenv("VLPSIM_SCALE",
               suite ? scaleText(options_.suiteScale).c_str() : "1", 1);
        if (options_.workload == "suite-cond")
            runSuite({false, condBytes});
        else if (options_.workload == "suite-ind")
            runSuite({true, indBytes});
        else if (options_.workload == "corpus-cold")
            runCorpus();
        else if (options_.workload == "serve-warm")
            runServe();
        else
            usage("unknown workload '" + options_.workload + "'");
        if (options_.workload != "serve-warm") {
            // A batch workload's operation is one whole pass.
            for (const double wall : m_.roundWall)
                m_.latencyMs.push_back(1e3 * wall);
        }
        return std::move(m_);
    }

  private:
    /** Run timed rounds until the budget of @p share of --seconds is
     *  spent (at least one round). */
    template <typename Round>
    void rounds(double share, Round &&round)
    {
        const std::int64_t budget =
            static_cast<std::int64_t>(share * options_.seconds * 1e9);
        const std::int64_t start = nowNs();
        do {
            round();
        } while (nowNs() - start < budget);
    }

    /** Time @p fn as one round (or pass) of the current phase. */
    template <typename Fn>
    void section(Fn &&fn)
    {
        resetPeakRss();
        const double cpu0 = cpuSeconds();
        const std::int64_t t0 = nowNs();
        fn();
        wallTarget_->push_back(seconds(nowNs() - t0));
        cpuTarget_->push_back(cpuSeconds() - cpu0);
        if (wallTarget_ == &m_.roundWall)
            m_.roundRss.push_back(peakRssMb());
    }

    /** section() under a root span; @p fn gets the span's id. */
    template <typename Fn>
    void tracedSection(Fn &&fn)
    {
        section([&] {
            ScopedSpan pass("bench.pass", 0, 0);
            passRoots_.push_back(pass.id());
            fn(pass.id());
        });
    }

    template <typename Fn>
    void setup(Fn &&fn)
    {
        for (int i = 0; i < setupRepeats; ++i) {
            const std::int64_t t0 = nowNs();
            fn();
            m_.setup.push_back(seconds(nowNs() - t0));
        }
    }

    /**
     * Untraced rounds fill the end-to-end figures. A traced run
     * alternates untraced and traced rounds (so host drift hits both)
     * and reports the difference of their median walls as tracing
     * overhead. Each callback times its own round with section() /
     * tracedSection(), so clean-up between rounds stays out of the
     * figures.
     */
    template <typename Untraced, typename Traced>
    void measure(Untraced &&untraced, Traced &&traced)
    {
        wallTarget_ = &m_.roundWall;
        cpuTarget_ = &m_.roundCpu;
        if (!options_.trace) {
            rounds(1.0, untraced);
            return;
        }
        std::vector<double> traced_wall, traced_cpu;
        std::uint64_t round = 0;
        rounds(0.8, [&] {
            wallTarget_ = &m_.roundWall;
            cpuTarget_ = &m_.roundCpu;
            untraced();
            wallTarget_ = &traced_wall;
            cpuTarget_ = &traced_cpu;
            perfbench::setTracing(true);
            traced(round++);
            perfbench::setTracing(false);
        });
        perfbench::setTracing(true); // for the probes that follow
        overheadPct_ = 100.0 * (median(traced_wall) - median(m_.roundWall))
            / median(m_.roundWall);
    }

    /** Record @p fn as a one-off probe under its own root span. */
    template <typename Fn>
    void probe(Fn &&fn)
    {
        ScopedSpan root("bench.probe", 0, 0);
        probeRoots_.push_back(root.id());
        fn(root.id());
    }

    void runSuite(const SuiteWorkload &w)
    {
        const std::string key = options_.workload + "@"
            + scaleText(options_.suiteScale);
        setup([&] {
            m_.recordsPerRound = static_cast<double>(suiteInputRecords());
        });

        sim::SuiteCompareSpec spec;
        spec.indirect = w.indirect;
        spec.bytes = w.bytes;
        spec.jobs = jobs_;
        std::optional<sim::Report> last;
        measure(
            [&] {
                ++m_.attempted;
                try {
                    section([&] {
                        auto result = sim::runSuiteCompare(spec);
                        renderJson(result.report);
                        last = std::move(result.report);
                    });
                } catch (const std::exception &error) {
                    fail(m_, error.what());
                    last.reset();
                    return;
                }
                if (checkDigest(m_, refs_, key, reportDigest(*last)))
                    setRates(m_, suiteRates(*last));
            },
            [&](std::uint64_t) {
                ++m_.attempted;
                std::vector<sim::ComparisonRow> rows;
                tracedSection([&](std::uint64_t pass) {
                    rows = tracedSuitePass(w, jobs_, pass, counters_);
                });
                if (!last || !rowsMatchReport(rows, *last))
                    fail(m_, "traced pass rows differ from the report");
            });
        if (options_.trace && last) {
            probe([&](std::uint64_t) {
                ScopedSpan span("sim.report");
                reportBytes_ = static_cast<double>(renderJson(*last).size());
            });
        }
    }

    /** A fresh store directory and journal path for round @p index. */
    std::pair<std::string, std::string> freshStore(const std::string &tag,
                                                   std::uint64_t index)
    {
        const std::string base =
            options_.work + "/" + tag + "-" + std::to_string(index);
        fs::remove_all(base + ".store");
        fs::remove(base + ".ckpt");
        return {base + ".store", base + ".ckpt"};
    }

    void checkCorpusReport(const sim::SuiteReport &report)
    {
        if (brokenPairs(report) > 0) {
            fail(m_, std::to_string(brokenPairs(report))
                         + " corpus pairs quarantined or skipped");
        } else if (checkDigest(m_, refs_, corpusKey(options_),
                               reportDigest(report.toReport()))) {
            setRates(m_, corpusRates(report));
        }
    }

    void runCorpus()
    {
        const std::string corpus = options_.work + "/corpus";
        setup([&] {
            m_.recordsPerRound = static_cast<double>(writeCorpus(
                corpus, options_.seed % corpusVariants,
                options_.corpusScale, options_.corrupt));
        });

        std::uint64_t index = 0;
        std::string traced_store;
        measure(
            [&] {
                ++m_.attempted;
                const auto [store_dir, journal] = freshStore("cold", index++);
                try {
                    sim::TraceSuiteOptions opts = corpusOptions(corpus, jobs_);
                    opts.checkpoint = journal;
                    opts.store = std::make_shared<store::ArtifactStore>(
                        store::StoreOptions{store_dir, 0});
                    sim::SuiteReport report;
                    section([&] {
                        report = sim::TraceSuiteRunner(std::move(opts)).run();
                        renderJson(report.toReport());
                    });
                    checkCorpusReport(report);
                } catch (const std::exception &error) {
                    fail(m_, error.what());
                }
                fs::remove_all(store_dir);
            },
            [&](std::uint64_t round) {
                ++m_.attempted;
                const auto [store_dir, journal_path] =
                    freshStore("traced", round);
                auto store = std::make_shared<store::ArtifactStore>(
                    store::StoreOptions{store_dir, 0});
                store::CheckpointJournal journal(journal_path);
                try {
                    sim::SuiteReport report;
                    tracedSection([&](std::uint64_t pass) {
                        report = tracedTraceSuite(corpus, store, &journal,
                                                  jobs_, false, pass,
                                                  counters_);
                        ScopedSpan span("sim.report");
                        reportBytes_ = static_cast<double>(
                            renderJson(report.toReport()).size());
                    });
                    checkCorpusReport(report);
                } catch (const std::exception &error) {
                    fail(m_, error.what());
                }
                const store::StoreCounters c = store->counters();
                counters_.add("store.fetch_count",
                              static_cast<double>(c.hits + c.misses));
                counters_.add("store.fetch_hits",
                              static_cast<double>(c.hits));
                counters_.add("store.journal_entries",
                              static_cast<double>(journal.entries()));
                if (traced_store.empty())
                    traced_store = store_dir;
            });
        if (options_.trace)
            corpusProbes(corpus, traced_store);
    }

    /**
     * Layer probes for what the traced pass cannot separate from the
     * outside: hashing and decoding (inside the prefetcher and every
     * replay) and the store's own insert cost (inside the profiling
     * calls). Each runs once, after the traced passes.
     */
    void corpusProbes(const std::string &corpus,
                      const std::string &traced_store)
    {
        probe([&](std::uint64_t) {
            const trace::FileOpener opener =
                trace::fastOpener(trace::ReadMode::Auto);
            for (const auto &[name, path] :
                 sim::TraceSuiteRunner::discoverTraces(corpus)) {
                {
                    ScopedSpan span("trace.hash");
                    auto file = opener(path);
                    trace::hashTraceFile(*file);
                    counters_.add("trace.hash_bytes",
                                  static_cast<double>(fs::file_size(path)));
                }
                ScopedSpan span("trace.decode");
                trace::StreamingTraceReader reader(opener(path));
                trace::BranchRecord record;
                std::uint64_t records = 0;
                while (reader.next(record))
                    ++records;
                counters_.add("trace.decode_records",
                              static_cast<double>(records));
            }
        });
        if (traced_store.empty())
            return;
        // Replay the traced pass's inserts into an empty store: one per
        // stored object, each payload the size of that object's file,
        // probing for the key first as the cold pass does.
        std::vector<std::uintmax_t> sizes;
        for (const auto &entry :
             fs::recursive_directory_iterator(traced_store + "/objects")) {
            if (entry.is_regular_file())
                sizes.push_back(entry.file_size());
        }
        const std::string probe_dir = freshStore("probe", 0).first;
        store::ArtifactStore target(store::StoreOptions{probe_dir, 0});
        probe([&](std::uint64_t) {
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                const store::CacheKey key =
                    store::KeyBuilder("perfbench-probe")
                        .field("item", std::uint64_t{i})
                        .build();
                const std::vector<std::uint8_t> payload(sizes[i], 0x5a);
                {
                    ScopedSpan span("store.fetch");
                    target.fetch(key);
                }
                ScopedSpan span("store.insert");
                target.insert(key, payload);
                counters_.add("store.insert_bytes",
                              static_cast<double>(sizes[i]));
            }
        });
    }

    void runServe()
    {
        const std::string corpus = options_.work + "/corpus";
        const std::string store_dir = options_.work + "/serve-store";
        std::string expected;
        std::unique_ptr<serve::ExperimentServer> server;
        serve::SubmitSpec spec;
        spec.op = "trace-suite";
        spec.tracesDirectory = corpus;
        spec.traceBytes = corpusBytes;
        spec.traceJobs = std::max(1u, jobs_ / serveWorkers);
        spec.traceReadMode = "auto";

        setup([&] {
            server.reset();
            fs::remove_all(store_dir);
            m_.recordsPerRound = static_cast<double>(writeCorpus(
                corpus, options_.seed % corpusVariants,
                options_.corpusScale, options_.corrupt));
            // Fill the store with one cold pass; its report, rendered
            // the way `vlpsim suite --traces --format json` prints it,
            // is what every warm answer must repeat byte for byte.
            sim::TraceSuiteOptions opts = corpusOptions(corpus, jobs_);
            opts.store = std::make_shared<store::ArtifactStore>(
                store::StoreOptions{store_dir, 0});
            const sim::SuiteReport report =
                sim::TraceSuiteRunner(std::move(opts)).run();
            ++m_.attempted;
            if (brokenPairs(report) > 0)
                fail(m_, "corpus pairs quarantined during store prefill");
            else if (checkDigest(m_, refs_, corpusKey(options_),
                                 reportDigest(report.toReport())))
                setRates(m_, corpusRates(report));
            sim::Report stamped = report.toReport();
            sim::stampBuildInfo(stamped);
            expected = renderJson(stamped);

            serve::ServerOptions server_options;
            server_options.listen = util::net::Endpoint::parse(
                options_.work + "/serve.sock");
            server_options.workers = serveWorkers;
            server_options.cacheDirectory = store_dir;
            server_options.heartbeatMs = 0;
            server = std::make_unique<serve::ExperimentServer>(
                server_options);
            server->start();
            serve::ServeClient client(server->endpoint(), serveTimeoutMs);
            const auto submission = client.submit(spec);
            if (!submission.accepted)
                throw std::runtime_error("warm-up request rejected");
            client.await(submission.id);
        });

        const unsigned clients = jobs_;
        std::vector<std::unique_ptr<serve::ServeClient>> connections;
        for (unsigned c = 0; c < clients; ++c) {
            connections.push_back(std::make_unique<serve::ServeClient>(
                server->endpoint(), serveTimeoutMs));
        }

        ServeTally tally;
        // One round: every client submits requestsPerClient requests,
        // each after the previous reply (closed loop).
        const auto round = [&](std::uint64_t pass) {
            std::vector<std::thread> threads;
            for (unsigned c = 0; c < clients; ++c) {
                threads.emplace_back([&, c] {
                    for (unsigned r = 0; r < requestsPerClient; ++r)
                        request(*connections[c], spec, expected, pass, tally);
                });
            }
            for (std::thread &thread : threads)
                thread.join();
        };
        measure([&] { section([&] { round(0); }); },
                [&](std::uint64_t) { tracedSection(round); });
        connections.clear();
        server->stop();

        counters_.add("serve.rejected", static_cast<double>(tally.rejected));
        counters_.add("store.warm_answers", static_cast<double>(tally.warm));
        counters_.add("store.answers", static_cast<double>(tally.answers));
        serveQueueMs_ = median(tally.queueMs);
        serveRunMs_ = median(tally.runMs);

        if (!options_.trace)
            return;
        // The warm path, replayed in-process one layer at a time.
        auto store = std::make_shared<store::ArtifactStore>(
            store::StoreOptions{store_dir, 0});
        probe([&](std::uint64_t root) {
            const sim::SuiteReport report = tracedTraceSuite(
                corpus, store, nullptr, 1, true, root, counters_);
            ScopedSpan span("sim.report");
            sim::Report stamped = report.toReport();
            sim::stampBuildInfo(stamped);
            const std::string json = renderJson(stamped);
            reportBytes_ = static_cast<double>(json.size());
            if (json != expected)
                fail(m_, "warm-path replay report differs from the CLI report");
        });
        const store::StoreCounters c = store->counters();
        counters_.add("store.fetch_count",
                      static_cast<double>(c.hits + c.misses));
        counters_.add("store.fetch_hits", static_cast<double>(c.hits));
    }

    /** What the closed-loop clients observed. */
    struct ServeTally
    {
        std::mutex mutex;
        std::uint64_t rejected = 0, warm = 0, answers = 0;
        std::vector<double> queueMs, runMs;
    };

    /** One closed-loop request: submit, await, check the answer. */
    void request(serve::ServeClient &client, const serve::SubmitSpec &spec,
                 const std::string &expected, std::uint64_t pass,
                 ServeTally &tally)
    {
        const std::int64_t submitted = nowNs();
        std::int64_t accepted = 0, progressed = 0;
        bool ok = false, was_rejected = false, warm = false;
        std::string why;
        try {
            const auto submission = client.submit(spec);
            accepted = nowNs();
            if (!submission.accepted) {
                was_rejected = true;
                why = "rejected (" + std::to_string(submission.code) + ")";
            } else {
                const util::Json frame = client.await(
                    submission.id, [&](const util::Json &event) {
                        if (progressed == 0
                            && event.at("type").asString() == "progress")
                            progressed = nowNs();
                    });
                if (frame.at("type").asString() != "result"
                    || frame.at("status").asString() != "ok") {
                    why = "request ended with " + util::toCompactJson(frame);
                } else if (util::toPrettyJson(frame.at("report")) + "\n"
                           != expected) {
                    why = "serve answer differs from the CLI report";
                } else {
                    ok = true;
                    warm = frame.at("cacheHit").asBool();
                }
            }
        } catch (const std::exception &error) {
            why = error.what();
        }
        const std::int64_t done = nowNs();
        if (progressed == 0)
            progressed = done;
        if (accepted == 0)
            accepted = done;

        std::lock_guard<std::mutex> lock(tally.mutex);
        ++m_.attempted;
        if (!ok)
            fail(m_, why);
        tally.rejected += was_rejected ? 1 : 0;
        tally.warm += warm ? 1 : 0;
        ++tally.answers;
        if (!options_.trace || pass != 0) {
            m_.latencyMs.push_back(1e-6 * static_cast<double>(done - submitted));
            tally.queueMs.push_back(
                1e-6 * static_cast<double>(progressed - accepted));
            tally.runMs.push_back(1e-6 * static_cast<double>(done - progressed));
        }
        if (pass != 0) {
            const std::uint64_t id = perfbench::recordSpan(
                "bench.request", pass, 0, submitted, done);
            perfbench::recordSpan("serve.admit", id, id, submitted, accepted);
            perfbench::recordSpan("serve.queue_wait", id, id, accepted,
                                  progressed);
            perfbench::recordSpan("serve.run", id, id, progressed, done);
        }
    }

  public:
    /**
     * The per-layer metrics of a traced run: layer self times per
     * traced pass (averaged) plus the one-off probes, the counters
     * recorded beside them, and the coverage and overhead checks.
     * Also writes every span to @p spans_path.
     */
    std::map<std::string, double> layerMetrics(const std::string &spans_path)
    {
        const auto all = perfbench::spans();
        {
            std::ofstream out(spans_path);
            perfbench::writeSpans(all, out);
        }
        const bool serve = options_.workload == "serve-warm";
        const LayerSummary pass = summarize(all, passRoots_, jobs_);
        LayerSummary probes;
        if (!probeRoots_.empty()) {
            probes = summarize(all, probeRoots_, 1);
            // Each probe runs once: undo summarize()'s averaging.
            for (auto &[name, value] : probes.self)
                value *= static_cast<double>(probeRoots_.size());
        }
        const double passes = std::max<double>(1, passRoots_.size());
        auto &counter = counters_.values;
        auto per_pass = [&](const std::string &name) {
            return counter[name] / passes;
        };
        auto self = [&](const std::string &name) {
            const auto in = [&](const LayerSummary &s) {
                const auto it = s.self.find(name);
                return it == s.self.end() ? 0.0 : it->second;
            };
            return in(pass) + in(probes);
        };
        auto ratio = [](double num, double den) {
            return den > 0 ? num / den : 0.0;
        };
        // serve-warm counts its store traffic in the one warm replay.
        const double fetches =
            serve ? counter["store.fetch_count"] : per_pass("store.fetch_count");

        std::map<std::string, double> out;
        out["workload.generate_s"] = self("workload.generate");
        out["workload.records"] = per_pass("workload.records");
        out["workload.records_per_s"] = ratio(out["workload.records"],
                                              out["workload.generate_s"]);
        out["core.step1_s"] = self("core.step1");
        out["core.step1_steps"] = per_pass("core.step1_steps");
        out["core.step1_ns_per_step"] =
            1e9 * ratio(out["core.step1_s"], out["core.step1_steps"]);
        out["core.step2_s"] = self("core.step2");
        out["core.step2_branch_iters"] = per_pass("core.step2_branch_iters");
        out["core.step2_ns_per_branch_iter"] =
            1e9 * ratio(out["core.step2_s"], out["core.step2_branch_iters"]);
        out["sim.replay_s"] = self("sim.replay");
        out["sim.replay_predictor_steps"] =
            per_pass("sim.replay_predictor_steps");
        out["sim.replay_ns_per_step"] = 1e9
            * ratio(out["sim.replay_s"], out["sim.replay_predictor_steps"]);
        out["sim.parallel_efficiency"] = pass.parallelEfficiency;
        out["sim.max_shard_s"] = pass.maxShardSeconds;
        out["sim.report_s"] = self("sim.report");
        out["sim.report_bytes"] = reportBytes_;
        out["sim.gshare_miss_pct"] = m_.gshareMiss;
        out["sim.flp_miss_pct"] = m_.flpMiss;
        out["trace.hash_s"] = self("trace.hash");
        out["trace.hash_bytes"] = counter["trace.hash_bytes"];
        out["trace.hash_mb_per_s"] =
            1e-6 * ratio(out["trace.hash_bytes"], out["trace.hash_s"]);
        out["trace.decode_s"] = self("trace.decode");
        out["trace.decode_records_per_s"] =
            ratio(counter["trace.decode_records"], out["trace.decode_s"]);
        out["trace.prefetch_wait_s"] = self("trace.prefetch_wait");
        out["store.fetch_s"] = self("store.fetch");
        out["store.fetch_count"] = fetches;
        out["store.hit_ratio"] = serve
            ? ratio(counter["store.warm_answers"], counter["store.answers"])
            : ratio(counter["store.fetch_hits"], counter["store.fetch_count"]);
        out["store.insert_s"] = self("store.insert");
        out["store.insert_bytes"] = counter["store.insert_bytes"];
        out["store.journal_append_s"] = self("store.journal_append");
        out["store.journal_entries"] = per_pass("store.journal_entries");
        out["serve.queue_wait_ms"] = serveQueueMs_;
        out["serve.run_ms"] = serveRunMs_;
        out["serve.rejected_ratio"] = serve
            ? ratio(counter["serve.rejected"], counter["store.answers"])
            : 0.0;
        out["bench.tracing_overhead_pct"] = overheadPct_;
        out["bench.unattributed_pct"] = pass.unattributedPct;
        return out;
    }

  private:
    Options options_;
    const References &refs_;
    unsigned jobs_;
    Measurements m_;
    Counters counters_;
    std::vector<std::uint64_t> passRoots_, probeRoots_;
    std::vector<double> *wallTarget_ = nullptr;
    std::vector<double> *cpuTarget_ = nullptr;
    double reportBytes_ = 0;
    double overheadPct_ = 0;
    double serveQueueMs_ = 0, serveRunMs_ = 0;
};

// --- output ----------------------------------------------------------------

std::string
number(double value)
{
    char text[64];
    std::snprintf(text, sizeof text, "%.10g", value);
    return text;
}

/** Every metric this program emits, with its unit (BENCHMARK.json lists
 *  the same names and units; the self-test checks they agree). */
const std::map<std::string, std::string> &
units()
{
    static const std::map<std::string, std::string> table = {
        // end to end (--trace 0)
        {"wall_s", "s"},
        {"records_per_s", "1/s"},
        {"cpu_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"vlp_miss_pct", "%"},
        {"ok_ratio", "ratio"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
        {"requests_per_s", "1/s"},
        // per layer (--trace 1)
        {"workload.generate_s", "s"},
        {"workload.records", "count"},
        {"workload.records_per_s", "1/s"},
        {"core.step1_s", "s"},
        {"core.step1_steps", "count"},
        {"core.step1_ns_per_step", "ns"},
        {"core.step2_s", "s"},
        {"core.step2_branch_iters", "count"},
        {"core.step2_ns_per_branch_iter", "ns"},
        {"sim.replay_s", "s"},
        {"sim.replay_predictor_steps", "count"},
        {"sim.replay_ns_per_step", "ns"},
        {"sim.parallel_efficiency", "ratio"},
        {"sim.max_shard_s", "s"},
        {"sim.report_s", "s"},
        {"sim.report_bytes", "bytes"},
        {"sim.gshare_miss_pct", "%"},
        {"sim.flp_miss_pct", "%"},
        {"trace.hash_s", "s"},
        {"trace.hash_bytes", "bytes"},
        {"trace.hash_mb_per_s", "MB/s"},
        {"trace.decode_s", "s"},
        {"trace.decode_records_per_s", "1/s"},
        {"trace.prefetch_wait_s", "s"},
        {"store.fetch_s", "s"},
        {"store.fetch_count", "count"},
        {"store.hit_ratio", "ratio"},
        {"store.insert_s", "s"},
        {"store.insert_bytes", "bytes"},
        {"store.journal_append_s", "s"},
        {"store.journal_entries", "count"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.run_ms", "ms"},
        {"serve.rejected_ratio", "ratio"},
        {"bench.tracing_overhead_pct", "%"},
        {"bench.unattributed_pct", "%"},
    };
    return table;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::cerr << "perfbench: refusing to time an unoptimised build "
                 "(configure with CMAKE_BUILD_TYPE=Release or "
                 "RelWithDebInfo)\n";
    return 3;
#endif
    const Options options = parseOptions(argc, argv);
    util::setLogLevel(util::LogLevel::Warn);

    const std::string load_start = loadAverage();
    std::ostringstream fingerprint;
    fingerprint << "{\"nproc\": " << hostJobs() << ", \"compiler\": \""
                << PERFBENCH_COMPILER << "\", \"build_type\": \""
                << PERFBENCH_BUILD_TYPE << "\", \"git_describe\": \""
                << util::buildVersion() << "\", \"load_start\": \""
                << load_start << "\"";

    Measurements m;
    std::map<std::string, double> layers;
    try {
        fs::create_directories(options.work);
        fs::create_directories(options.out);
        const References refs(options.reference);
        Bench bench(options, refs);
        m = bench.run();
        if (options.trace) {
            layers = bench.layerMetrics(options.out + "/spans-"
                                        + options.workload + "-seed"
                                        + std::to_string(options.seed)
                                        + ".jsonl");
            if (layers["bench.unattributed_pct"] > maxUnattributedPct) {
                fail(m, "layer spans leave "
                            + std::to_string(layers["bench.unattributed_pct"])
                            + "% of traced time unattributed");
            }
        }
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << options.workload
                  << " could not run: " << error.what() << "\n";
        return 1;
    }
    fingerprint << ", \"load_end\": \"" << loadAverage() << "\"}";

    if (m.attempted == 0) {
        std::cerr << "perfbench: no operation was attempted\n";
        return 1;
    }
    const double wall = median(m.roundWall);
    const double total_wall = [&] {
        double sum = 0;
        for (const double w : m.roundWall)
            sum += w;
        return sum;
    }();
    const double operations = options.workload == "serve-warm"
        ? static_cast<double>(m.latencyMs.size())
        : static_cast<double>(m.roundWall.size());

    std::map<std::string, double> metrics;
    if (options.trace) {
        metrics = layers;
    } else {
        metrics["wall_s"] = wall;
        metrics["records_per_s"] = wall > 0
            ? m.recordsPerRound
                * (options.workload == "serve-warm"
                       ? static_cast<double>(m.latencyMs.size())
                           / static_cast<double>(m.roundWall.size())
                       : 1.0)
                / wall
            : 0;
        metrics["cpu_s"] = median(m.roundCpu);
        metrics["setup_s"] = median(m.setup);
        metrics["peak_rss_mb"] = median(m.roundRss);
        metrics["vlp_miss_pct"] = m.vlpMiss;
        metrics["ok_ratio"] = 1.0
            - static_cast<double>(m.failed)
                / static_cast<double>(m.attempted);
        metrics["latency_p50_ms"] = percentile(m.latencyMs, 50);
        metrics["latency_p90_ms"] = percentile(m.latencyMs, 90);
        metrics["requests_per_s"] =
            total_wall > 0 ? operations / total_wall : 0;
    }

    std::cout << "fingerprint " << fingerprint.str() << "\n";
    std::cerr << "perfbench: " << options.workload << " seed "
              << options.seed << ": " << m.roundWall.size()
              << " timed rounds, " << m.latencyMs.size()
              << " latency samples ("
              << m.latencyMs.size()
                 - static_cast<std::size_t>(
                     std::ceil(0.9 * static_cast<double>(m.latencyMs.size())))
              << " beyond p90), setup runs " << m.setup.size() << "\n"
              << "perfbench: round walls (s):";
    for (const double w : m.roundWall)
        std::cerr << " " << number(w);
    std::cerr << "\nperfbench: setups (s):";
    for (const double s : m.setup)
        std::cerr << " " << number(s);
    std::cerr << "\n";

    std::ostringstream result;
    result << "{\"correct\": " << (m.failed == 0 ? "true" : "false")
           << ", \"attempted\": " << m.attempted
           << ", \"failed\": " << m.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        result << (first ? "" : ", ") << "\"" << name
               << "\": {\"value\": " << number(value) << ", \"unit\": \""
               << units().at(name) << "\"}";
        first = false;
    }
    result << "}}";
    std::cout << result.str() << std::endl;
    return 0;
}
