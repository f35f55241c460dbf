/**
 * @file
 * Bounded-memory streaming replay of .vbt trace files.
 *
 * StreamingTraceReader serves decoded records chunk by chunk from a
 * ByteFile. When the backing file exposes a contiguous mapped window
 * (ByteFile::view()), records are decoded directly from the mapping —
 * zero copies, zero syscalls per chunk, and peakBufferBytes() stays 0
 * because no buffer is ever grown. Otherwise it refills a fixed-size
 * chunk buffer, so replaying a multi-gigabyte external trace holds
 * peak trace-buffer memory at chunkRecords * 18 bytes regardless of
 * file size — the property the external-trace suite runner relies on.
 *
 * A trace replayed many times (step 1, the step-2 iterations, the
 * comparison rows) should be decoded once: resident() decodes a trace
 * whose records fit the resident budget into a page-backed replay
 * buffer in one pass, and trace::forEachRecord() replays that buffer
 * from then on. The buffer's pages are unmapped when it is released
 * (releaseResident(), or the reader's destruction), so they go back
 * to the OS instead of an allocator arena. A trace over the budget
 * keeps streaming in chunks on every replay.
 *
 * This is the one .vbt decoder (the layout lives in trace_io.h).
 * Validation: magic and header-vs-file-size checks at open (truncated
 * files fail before any record is served), per-record kind/taken
 * checks, and — for VBT2 — a stream checksum verified when the final
 * record is consumed. The checksum is accumulated per refilled chunk
 * (same bytes, same order, same digest as a per-record accumulation);
 * when the file is wrapped in a HashingByteFile the checksum chain is
 * fused into the content-hash kernel, so hash, checksum, and decode
 * touch each byte exactly once. formatVersion() lets callers warn on
 * unchecksummed VBT1 inputs.
 */

#ifndef VLPSIM_TRACE_STREAMING_H
#define VLPSIM_TRACE_STREAMING_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/byte_file.h"
#include "trace/content_hash.h"
#include "trace/trace_source.h"
#include "util/checksum.h"

namespace vlp {
namespace trace {

namespace detail {

/** Unmaps a replay buffer's pages (StreamingTraceReader::resident()). */
struct PageRelease
{
    std::size_t bytes = 0;
    void operator()(BranchRecord *records) const;
};

} // namespace detail

/** Streams a .vbt file as a TraceSource with bounded buffering. */
class StreamingTraceReader : public TraceSource
{
  public:
    /** Default chunk size: 4096 records = 72 KiB of buffer. */
    static constexpr std::size_t defaultChunkRecords = 4096;

    /** Largest replay buffer resident() builds: 64 MiB of decoded
     *  records (about 2.8 M). */
    static constexpr std::size_t residentBudgetBytes = 64ull << 20;

    /**
     * Take ownership of @p file, validate the header, and verify the
     * file holds exactly the record bytes the header promises.
     * @param resident_budget_bytes ceiling on the replay buffer; a
     *        trace whose decoded records exceed it streams instead
     * @throws std::runtime_error on bad magic or truncation
     * @throws util::TransientError propagated from @p file
     */
    explicit StreamingTraceReader(
        std::unique_ptr<ByteFile> file,
        std::size_t chunk_records = defaultChunkRecords,
        std::size_t resident_budget_bytes = residentBudgetBytes);

    /** Convenience: open @p path with a plain stdio file. */
    explicit StreamingTraceReader(
        const std::string &path,
        std::size_t chunk_records = defaultChunkRecords);

    /**
     * @throws std::runtime_error on a corrupt record or (VBT2, after
     *         the final record) a checksum mismatch
     */
    bool next(BranchRecord &record) override;

    /** Rewind the stream; a built replay buffer is kept. */
    void reset() override;

    /**
     * The decoded trace as one span, building the replay buffer on
     * the first call (one pass over the file, validated and
     * checksummed like next()). nullopt when the trace exceeds the
     * resident budget or no pages could be mapped: replay then
     * streams. A failed build leaves no buffer behind.
     * @throws std::runtime_error / util::TransientError as next()
     */
    std::optional<std::span<const BranchRecord>> resident() override;

    /** Unmap the replay buffer, if any; the next resident() call
     *  decodes the file again. */
    void releaseResident() { resident_.reset(); }

    /** Bytes held by the replay buffer; 0 when none is built. */
    std::size_t residentBytes() const
    {
        return resident_ ? resident_.get_deleter().bytes : 0;
    }

    /** Total records according to the header. */
    std::uint64_t count() const { return count_; }

    /** .vbt format version: 1 (no checksum) or 2. */
    unsigned formatVersion() const { return formatVersion_; }

    /** High-water mark of the record buffer, in bytes; stays 0 on the
     *  zero-copy (mapped) path. */
    std::size_t peakBufferBytes() const { return peakBufferBytes_; }

    /** The content-hashing decorator this reader streams through, or
     *  nullptr. finish() on it completes the single-pass identity. */
    HashingByteFile *hashingFile() const { return hashing_; }

    /** The underlying ByteFile (tests assert on backend selection). */
    ByteFile &file() const { return *file_; }

  private:
    /** Load the next chunk: mapped view when available, else a
     *  buffered read; accumulates the VBT2 chunk checksum. */
    void refill();

    /** Read exactly @p size bytes, looping over short reads. */
    void readFully(std::uint8_t *buffer, std::size_t size);

    /** After the final record (VBT2): fail on a checksum mismatch. */
    void verifyChecksum() const;

    std::unique_ptr<ByteFile> file_;
    HashingByteFile *hashing_ = nullptr;
    std::size_t chunkRecords_;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    unsigned formatVersion_ = 2;
    std::uint64_t expectedChecksum_ = 0;
    std::uint64_t headerBytes_ = 0;
    util::Fnv1a checksum_;

    /** Current decode window: either into buffer_ or into a mapping. */
    const std::uint8_t *chunk_ = nullptr;
    /** Where the underlying stream's read cursor is (the reader seeks
     *  lazily, so interleaved hashing never desyncs the positions). */
    std::uint64_t filePos_ = 0;
    std::vector<std::uint8_t> buffer_;
    std::size_t bufferPos_ = 0;   // byte offset of the next record
    std::size_t bufferBytes_ = 0; // valid bytes in the chunk window
    std::size_t peakBufferBytes_ = 0;

    std::size_t residentBudgetBytes_;
    /** The replay buffer: count_ decoded records, or null. */
    std::unique_ptr<BranchRecord[], detail::PageRelease> resident_;
};

/**
 * Content hash of a trace file as a 32-hex-digit string, computed by
 * streaming the raw bytes (header included) through two independently
 * seeded FNV-1a hashes — the identity external traces are cached
 * under, replacing the synthetic workloads' generator version.
 * Zero-copy when the file maps; digests are byte-identical across
 * backends (locked by tests).
 */
std::string hashTraceFile(ByteFile &file);

/** Convenience: hash the file at @p path. */
std::string hashTraceFile(const std::string &path);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_STREAMING_H
