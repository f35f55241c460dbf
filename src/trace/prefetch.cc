/**
 * @file
 * Bounded read-ahead trace opener.
 */

#include "trace/prefetch.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "trace/content_hash.h"
#include "trace/mmap_file.h"
#include "util/chaos.h"

namespace vlp {
namespace trace {

namespace {

/** Blocked producers and consumers re-check the cancel token at this
 *  cadence; cancellation is the rare path, so a coarse poll keeps the
 *  steady state free of timer churn. */
constexpr std::chrono::milliseconds cancelPollInterval{20};

/**
 * True when @p memo holds a digest for every path under the stamp the
 * path has now. Such opens only read a header, so read-ahead threads
 * would add hand-offs and hide nothing. A wrong guess costs speed
 * only: openTrace() still trusts a digest solely by the fstat of the
 * descriptor it reads.
 */
bool
allRemembered(const std::vector<std::string> &paths,
              const ContentHashMemo *memo)
{
    if (memo == nullptr)
        return false;
    return std::all_of(paths.begin(), paths.end(),
                       [memo](const std::string &path) {
                           const std::optional<FileStamp> stamp =
                               stampPath(path);
                           return stamp && memo->remembers(path, *stamp);
                       });
}

} // anonymous namespace

PrefetchedTrace
TracePrefetcher::openTrace(const std::string &path,
                           const Options &options)
{
    PrefetchedTrace result;
    try {
        if (options.cancel)
            options.cancel->throwIfCancelled();
        result = util::retryTransient(
            options.retry, [&]() -> PrefetchedTrace {
                ContentHashMemo *const memo = options.hashMemo;
                // The clock is read before the first fstat (the memo's
                // racy-entry rule), and the stamp is of the descriptor
                // the session reads, never of the path.
                const std::int64_t opened_ns =
                    memo ? ContentHashMemo::now() : 0;
                auto raw = options.opener ? options.opener(path)
                                          : openByteFileFast(path);
                const std::optional<FileStamp> before =
                    memo ? raw->stamp() : std::nullopt;
                PrefetchedTrace open;
                if (const std::optional<std::string> digest = before
                        ? memo->find(path, *before)
                        : std::nullopt) {
                    // Trusted digest: validate the header, skip the
                    // hash (and the hashing decorator).
                    open.session = std::make_shared<StreamingTraceReader>(
                        std::move(raw), options.chunkRecords);
                    open.contentHash = *digest;
                } else {
                    auto hashing =
                        std::make_unique<HashingByteFile>(std::move(raw));
                    HashingByteFile &hasher = *hashing;
                    open.session = std::make_shared<StreamingTraceReader>(
                        std::move(hashing), options.chunkRecords);
                    // Header validation passed; complete the identity
                    // in the same open (zero-copy when the file maps).
                    // The hashed pages are not needed again until the
                    // session is replayed: unmap them so a parked open
                    // holds no trace bytes in memory.
                    open.contentHash = hasher.finish();
                    hasher.releaseViews();
                    if (before && hasher.stamp() == before)
                        memo->record(path, *before, open.contentHash,
                                     opened_ns);
                }
                open.formatVersion = open.session->formatVersion();
                open.records = open.session->count();
                return open;
            });
    } catch (...) {
        result = PrefetchedTrace{};
        result.error = std::current_exception();
    }
    return result;
}

TracePrefetcher::TracePrefetcher(std::vector<std::string> paths,
                                 Options options)
    : paths_(std::move(paths)), options_(std::move(options)),
      window_(options_.window)
{
    if (window_ == 0 || paths_.empty()
        || allRemembered(paths_, options_.hashMemo))
        return; // inline mode: take() opens synchronously
    const std::size_t threads = std::min<std::size_t>(
        std::max<unsigned>(options_.threads, 1u),
        std::min(window_, paths_.size()));
    producers_.reserve(threads);
    producersAlive_ = threads;
    for (std::size_t i = 0; i < threads; ++i)
        producers_.emplace_back([this] { producerLoop(); });
}

TracePrefetcher::~TracePrefetcher()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    space_.notify_all();
    ready_.notify_all();
    for (auto &producer : producers_)
        producer.join();
}

void
TracePrefetcher::producerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // wait_for rather than wait: if the token fires while every
        // thread is blocked, nobody would otherwise wake to notice.
        space_.wait_for(lock, cancelPollInterval, [this] {
            return stop_ || nextToStart_ >= paths_.size()
                   || outstanding_ < window_;
        });
        if (stop_ || nextToStart_ >= paths_.size())
            return;
        if (options_.cancel && options_.cancel->cancelled())
            return; // consumers see the token themselves
        if (outstanding_ >= window_)
            continue;
        const std::size_t index = nextToStart_++;
        ++outstanding_;
        // Chaos: this producer dies after claiming an item. The claim
        // is marked abandoned so the consumer opens it inline — the
        // deadlock-freedom contract must survive losing any producer.
        if (util::chaos::enabled()
            && CHAOS_SECTION("trace.prefetch.producer-death",
                             util::chaos::pathKey(paths_[index]))) {
            abandoned_.insert(index);
            --producersAlive_;
            ready_.notify_all();
            return;
        }
        lock.unlock();
        PrefetchedTrace result = openTrace(paths_[index], options_);
        lock.lock();
        results_.emplace(index, std::move(result));
        ready_.notify_all();
    }
}

PrefetchedTrace
TracePrefetcher::take(std::size_t index)
{
    if (producers_.empty()) {
        if (options_.cancel)
            options_.cancel->throwIfCancelled();
        return openTrace(paths_.at(index), options_);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const auto it = results_.find(index);
        if (it != results_.end()) {
            PrefetchedTrace result = std::move(it->second);
            results_.erase(it);
            --outstanding_;
            space_.notify_all();
            return result;
        }
        // A dead producer's claim, or an item no surviving producer
        // will ever claim: open it inline on this consumer thread.
        if (abandoned_.erase(index) > 0) {
            --outstanding_;
            space_.notify_all();
            lock.unlock();
            return openTrace(paths_.at(index), options_);
        }
        if (index >= nextToStart_ && producersAlive_ == 0) {
            lock.unlock();
            return openTrace(paths_.at(index), options_);
        }
        if (options_.cancel && options_.cancel->cancelled())
            throw util::CancelledError();
        ready_.wait_for(lock, cancelPollInterval);
    }
}

} // namespace trace
} // namespace vlp
