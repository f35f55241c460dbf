/**
 * @file
 * Fused FNV content hashing and the single-pass decorator.
 */

#include "trace/content_hash.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <iterator>
#include <vector>

#include "util/chaos.h"
#include "util/logging.h"

namespace vlp {
namespace trace {

namespace {

constexpr std::uint64_t fnvPrime = util::Fnv1a::prime;

/** Tail-hash block size: big enough to amortize the virtual calls,
 *  small enough to stay cache-resident. */
constexpr std::size_t finishBlockBytes = 256 * 1024;

} // anonymous namespace

void
ContentHasher::reset()
{
    low_ = util::Fnv1a::offsetBasis;
    high_ = util::Fnv1a::offsetBasis ^ highSeedXor;
}

void
ContentHasher::update(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t low = low_;
    std::uint64_t high = high_;
    // One loop, two independent multiply chains: each stream's FNV-1a
    // recurrence is latency-bound, so interleaving lets the CPU
    // overlap them — same digests as two sequential passes, ~2x the
    // bytes per cycle.
    for (std::size_t i = 0; i < size; ++i) {
        const std::uint64_t byte = bytes[i];
        low = (low ^ byte) * fnvPrime;
        high = (high ^ byte) * fnvPrime;
    }
    low_ = low;
    high_ = high;
}

void
ContentHasher::updateWith(const void *data, std::size_t size,
                          util::Fnv1a &companion)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t low = low_;
    std::uint64_t high = high_;
    std::uint64_t extra = companion.digest();
    for (std::size_t i = 0; i < size; ++i) {
        const std::uint64_t byte = bytes[i];
        low = (low ^ byte) * fnvPrime;
        high = (high ^ byte) * fnvPrime;
        extra = (extra ^ byte) * fnvPrime;
    }
    low_ = low;
    high_ = high;
    companion.reset(extra);
}

std::string
ContentHasher::digest() const
{
    char text[33];
    std::snprintf(text, sizeof(text), "%016llx%016llx",
                  static_cast<unsigned long long>(high_),
                  static_cast<unsigned long long>(low_));
    return text;
}

HashingByteFile::HashingByteFile(std::unique_ptr<ByteFile> inner)
    : inner_(std::move(inner))
{
}

std::uint64_t
HashingByteFile::size()
{
    return inner_->size();
}

void
HashingByteFile::absorb(const std::uint8_t *data, std::uint64_t offset,
                        std::size_t size, util::Fnv1a *companion)
{
    if (size == 0)
        return;
    if (!complete_ && offset <= frontier_
        && offset + size > frontier_) {
        // The access covers the frontier: hash the unhashed tail; any
        // already-hashed head still belongs to the companion (it
        // covers every byte of every access it is fused into).
        const std::size_t skip =
            static_cast<std::size_t>(frontier_ - offset);
        if (companion != nullptr) {
            if (skip > 0)
                companion->update(data, skip);
            hasher_.updateWith(data + skip, size - skip, *companion);
        } else {
            hasher_.update(data + skip, size - skip);
        }
        frontier_ += size - skip;
        if (frontier_ >= inner_->size())
            complete_ = true;
    } else if (companion != nullptr) {
        companion->update(data, size);
    }
}

std::size_t
HashingByteFile::read(void *buffer, std::size_t size)
{
    const std::size_t got = inner_->read(buffer, size);
    absorb(static_cast<const std::uint8_t *>(buffer), position_, got,
           nullptr);
    position_ += got;
    return got;
}

std::size_t
HashingByteFile::readHashing(void *buffer, std::size_t size,
                             util::Fnv1a &companion)
{
    const std::size_t got = inner_->read(buffer, size);
    absorb(static_cast<const std::uint8_t *>(buffer), position_, got,
           &companion);
    position_ += got;
    return got;
}

void
HashingByteFile::seek(std::uint64_t offset)
{
    inner_->seek(offset);
    position_ = offset;
}

const std::uint8_t *
HashingByteFile::view(std::uint64_t offset, std::size_t size)
{
    const std::uint8_t *window = inner_->view(offset, size);
    if (window != nullptr)
        absorb(window, offset, size, nullptr);
    return window;
}

const std::uint8_t *
HashingByteFile::viewHashing(std::uint64_t offset, std::size_t size,
                             util::Fnv1a &companion)
{
    const std::uint8_t *window = inner_->view(offset, size);
    if (window != nullptr)
        absorb(window, offset, size, &companion);
    return window;
}

std::string
HashingByteFile::finish()
{
    if (!complete_) {
        const std::uint64_t total = inner_->size();
        // Zero-copy tail hashing while the backend keeps mapping.
        while (frontier_ < total) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(finishBlockBytes,
                                        total - frontier_));
            const std::uint8_t *window = inner_->view(frontier_, want);
            if (window == nullptr)
                break;
            hasher_.update(window, want);
            frontier_ += want;
        }
        // Buffered fallback for the rest; the caller-visible read
        // position is restored afterwards.
        if (frontier_ < total) {
            inner_->seek(frontier_);
            std::vector<std::uint8_t> buffer(
                std::min<std::uint64_t>(finishBlockBytes,
                                        total - frontier_));
            while (frontier_ < total) {
                const std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(buffer.size(),
                                            total - frontier_));
                const std::size_t got =
                    inner_->read(buffer.data(), want);
                if (got == 0) {
                    throw std::runtime_error(
                        "unexpected end of file while hashing: "
                        + name());
                }
                hasher_.update(buffer.data(), got);
                frontier_ += got;
            }
            inner_->seek(position_);
        }
        complete_ = true;
    }
    return hasher_.digest();
}

std::int64_t
ContentHashMemo::now()
{
    struct timespec time = {};
    ::clock_gettime(CLOCK_REALTIME_COARSE, &time);
    return static_cast<std::int64_t>(time.tv_sec) * 1'000'000'000
        + time.tv_nsec;
}

std::optional<std::string>
ContentHashMemo::find(const std::string &path, const FileStamp &stamp)
{
    // Chaos: the memo forgets — the answer must not depend on whether
    // the digest was remembered or recomputed.
    if (CHAOS_SECTION("serve.hashmemo.miss", util::chaos::pathKey(path)))
        return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(path);
    if (it == index_.end() || it->second->stamp != stamp)
        return std::nullopt;
    ++hits_;
    return it->second->digest;
}

void
ContentHashMemo::record(const std::string &path, const FileStamp &stamp,
                        const std::string &digest, std::int64_t opened_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(path);
    if (it != index_.end()) {
        order_.erase(it->second);
        index_.erase(it);
    }
    if (stamp.mtimeNs >= opened_ns || stamp.ctimeNs >= opened_ns)
        return; // racy: the file may change within the same tick
    if (order_.size() == capacity) {
        index_.erase(order_.front().path);
        order_.pop_front();
    }
    order_.push_back(Entry{path, stamp, digest});
    index_.emplace(path, std::prev(order_.end()));
}

bool
ContentHashMemo::remembers(const std::string &path,
                           const FileStamp &stamp) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(path);
    return it != index_.end() && it->second->stamp == stamp;
}

std::size_t
ContentHashMemo::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return order_.size();
}

std::uint64_t
ContentHashMemo::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

} // namespace trace
} // namespace vlp
