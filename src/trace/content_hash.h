/**
 * @file
 * Single-pass trace content hashing.
 *
 * The content identity of a trace file is two independently seeded
 * 64-bit FNV-1a streams over all its bytes, formatted as 32 hex digits
 * (high stream then low) — established by PR 4's hashTraceFile() and
 * baked into every cache key and checkpoint cell. ContentHasher
 * computes exactly that identity, but with the two serial
 * multiply-chains interleaved in one loop: FNV-1a is latency-bound
 * (one dependent 64-bit multiply per byte per stream), so fusing the
 * streams overlaps their chains and roughly doubles hash throughput
 * without changing a single output bit. updateWith() goes one further
 * and folds a third caller-owned FNV stream (the VBT2 record checksum)
 * into the same loop — the whole-file hash, the stream checksum, and
 * the decode then touch each byte in one pass.
 *
 * HashingByteFile is the decorator that makes the hash a by-product of
 * reading: it watches the sequential prefix of the stream go by
 * (reads and views both), and finish() hashes whatever tail was never
 * read. Opening a trace once now yields validation, replay, and the
 * cache identity — the suite runner's double open is gone.
 *
 * ContentHashMemo lets a long-lived process (the serve daemon) skip
 * the hash of a file it has already hashed and that has not changed
 * since: digests are remembered under the file's path and FileStamp,
 * and trusted only under git's racy-entry rule (see the class).
 */

#ifndef VLPSIM_TRACE_CONTENT_HASH_H
#define VLPSIM_TRACE_CONTENT_HASH_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "trace/byte_file.h"
#include "util/checksum.h"

namespace vlp {
namespace trace {

/** Fused two-stream FNV-1a over a byte sequence; digest() matches
 *  hashTraceFile()'s historical output byte for byte. */
class ContentHasher
{
  public:
    /** High-stream seed offset (golden-ratio constant), part of the
     *  on-disk cache-key contract — never change it. */
    static constexpr std::uint64_t highSeedXor = 0x9e3779b97f4a7c15ULL;

    ContentHasher() { reset(); }

    /** Mix @p size bytes into both streams (one fused loop). */
    void update(const void *data, std::size_t size);

    /**
     * update(), with @p companion's FNV stream fused into the same
     * loop — three chains, one pass. @p companion sees exactly the
     * bytes an equivalent companion.update(data, size) would.
     */
    void updateWith(const void *data, std::size_t size,
                    util::Fnv1a &companion);

    /** 32-hex-digit digest of everything fed so far (high, low). */
    std::string digest() const;

    void reset();

  private:
    std::uint64_t low_;
    std::uint64_t high_;
};

/**
 * ByteFile decorator that derives the content hash from the bytes
 * flowing past. The hash frontier is the longest prefix of the file
 * already hashed; sequential reads and views at the frontier advance
 * it, re-reads behind it (replays after reset) are served without
 * double-hashing, and finish() hashes the remaining tail so the
 * digest is always of the complete file.
 */
class HashingByteFile : public ByteFile
{
  public:
    explicit HashingByteFile(std::unique_ptr<ByteFile> inner);

    std::size_t read(void *buffer, std::size_t size) override;
    void seek(std::uint64_t offset) override;
    std::uint64_t size() override;
    const std::string &name() const override { return inner_->name(); }
    const std::uint8_t *view(std::uint64_t offset,
                             std::size_t size) override;
    void releaseViews() override { inner_->releaseViews(); }
    HashingByteFile *hasher() override { return this; }
    std::optional<FileStamp> stamp() override { return inner_->stamp(); }

    /**
     * Like view(), but with @p companion fused into the hash kernel
     * for the not-yet-hashed part of the window (see
     * ContentHasher::updateWith); @p companion always covers the full
     * window. Null exactly when view() would be null.
     */
    const std::uint8_t *viewHashing(std::uint64_t offset,
                                    std::size_t size,
                                    util::Fnv1a &companion);

    /**
     * Read like read(), but fuse @p companion over the bytes served —
     * the read()-path twin of viewHashing().
     */
    std::size_t readHashing(void *buffer, std::size_t size,
                            util::Fnv1a &companion);

    /**
     * Hash the tail beyond the frontier (zero-copy when the inner
     * file maps) and return the complete content digest —
     * byte-identical to hashTraceFile() on the same bytes. Leaves the
     * read position where it was for well-behaved (position-tracking)
     * callers: the position is restored via seek().
     * @throws util::TransientError / std::runtime_error from the
     *         underlying file
     */
    std::string finish();

    /** Bytes of sequential prefix hashed so far. */
    std::uint64_t hashedBytes() const { return frontier_; }

    /** True once the frontier has reached end of file. */
    bool complete() const { return complete_; }

    /** The wrapped file (tests assert on decorator stacking). */
    ByteFile &inner() { return *inner_; }

  private:
    /** Advance the frontier over [offset, offset+size) at @p data,
     *  hashing only the unhashed part; optional fused companion. */
    void absorb(const std::uint8_t *data, std::uint64_t offset,
                std::size_t size, util::Fnv1a *companion);

    std::unique_ptr<ByteFile> inner_;
    ContentHasher hasher_;
    std::uint64_t position_ = 0; // read() cursor, tracked via seek()
    std::uint64_t frontier_ = 0; // bytes hashed (file prefix)
    bool complete_ = false;
};

/**
 * A bounded, thread-safe memo of content digests keyed by path and
 * FileStamp (device, inode, size, mtime, ctime), holding at most
 * @ref capacity entries and evicting the oldest record first.
 *
 * Racy-entry rule (git's rule for racily-clean index entries): the
 * caller reads now() *before* the first fstat of the open it hashes,
 * and record() keeps the digest only when the stamp's mtime and ctime
 * are both strictly older than that time. A write that lands after
 * the clock read carries a ctime no older than it, so it can never
 * hide behind a trusted entry; clock skew only errs toward rehashing.
 * ctime is in the key because userland cannot set it: an in-place
 * rewrite that restores mtime with utimensat() still changes it.
 */
class ContentHashMemo
{
  public:
    /** Entry bound; the oldest recorded entry is evicted first. */
    static constexpr std::size_t capacity = 4096;

    /** CLOCK_REALTIME_COARSE in nanoseconds — the clock file
     *  timestamps are taken from, read before the first fstat. */
    static std::int64_t now();

    /**
     * The digest recorded for @p path under exactly @p stamp, or
     * nullopt. Chaos section serve.hashmemo.miss forces a miss.
     */
    std::optional<std::string> find(const std::string &path,
                                    const FileStamp &stamp);

    /**
     * Remember @p digest for @p path under @p stamp, read at
     * @p opened_ns (now() before the first fstat). A racy stamp —
     * mtime or ctime not strictly older than @p opened_ns — is not
     * kept, and drops any older entry for the path.
     */
    void record(const std::string &path, const FileStamp &stamp,
                const std::string &digest, std::int64_t opened_ns);

    /**
     * True when a digest is recorded for @p path under exactly
     * @p stamp. A prediction for planning only: it counts no hit and
     * never forces a miss, and the digest is trusted only via find().
     */
    bool remembers(const std::string &path, const FileStamp &stamp) const;

    /** Entries held (never above capacity). */
    std::size_t size() const;

    /** find() calls that returned a digest. */
    std::uint64_t hits() const;

  private:
    struct Entry
    {
        std::string path;
        FileStamp stamp;
        std::string digest;
    };

    mutable std::mutex mutex_;
    /** Oldest record first. */
    std::list<Entry> order_;
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    std::uint64_t hits_ = 0;
};

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_CONTENT_HASH_H
