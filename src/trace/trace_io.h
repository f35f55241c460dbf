/**
 * @file
 * Binary trace file format (.vbt — "vlpsim branch trace").
 *
 * Current layout (little-endian), version 2:
 *   bytes 0..3    magic "VBT2"
 *   bytes 4..11   record count (uint64)
 *   bytes 12..19  FNV-1a checksum of all record bytes (uint64)
 *   then, per record:
 *     uint8  kind        (BranchKind)
 *     uint8  taken       (0 or 1)
 *     uint64 pc
 *     uint64 nextPc
 *
 * Version-1 files ("VBT1" magic, no checksum field, 12-byte header)
 * are still read. The one decoder is trace/streaming.h's
 * StreamingTraceReader; the layout constants below are shared by it
 * and TraceWriter.
 *
 * The format is deliberately trivial so that external traces (e.g.
 * branch streams extracted from ChampSim-style instruction traces) can
 * be converted with a few lines of code; see examples/custom_trace.cpp.
 */

#ifndef VLPSIM_TRACE_TRACE_IO_H
#define VLPSIM_TRACE_TRACE_IO_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "trace/branch_record.h"
#include "trace/trace_source.h"
#include "util/checksum.h"

namespace vlp {
namespace trace {

/** The .vbt byte layout. */
namespace vbt {

constexpr std::array<char, 4> magicV1 = {'V', 'B', 'T', '1'};
constexpr std::array<char, 4> magicV2 = {'V', 'B', 'T', '2'};
/** VBT1 header: magic + record count. */
constexpr std::uint64_t headerBytesV1 = 12;
/** VBT2 header: magic + record count + record-stream checksum. */
constexpr std::uint64_t headerBytesV2 = 20;
/** One record: kind, taken, pc, nextPc. */
constexpr std::size_t recordBytes = 1 + 1 + 8 + 8;

/** Store @p value little-endian at @p buffer. */
inline void
putU64(std::uint8_t *buffer, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        buffer[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Load a little-endian value from @p buffer. */
inline std::uint64_t
getU64(const std::uint8_t *buffer)
{
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<std::uint64_t>(buffer[i]) << (8 * i);
    return value;
}

} // namespace vbt

/** Writes .vbt trace files (always the current VBT2 format). */
class TraceWriter
{
  public:
    /**
     * Open @p path for writing and emit the header.
     * @throws std::runtime_error if the file cannot be created
     */
    explicit TraceWriter(const std::string &path);

    /** Finalizes the record count and checksum in the header. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void write(const BranchRecord &record);

    /** Records written so far. */
    std::uint64_t count() const { return count_; }

    /** Flush and close; called by the destructor if not done
     * explicitly. */
    void close();

  private:
    std::FILE *file_ = nullptr;
    std::uint64_t count_ = 0;
    util::Fnv1a checksum_;
};

/**
 * Convenience: read an entire trace file into memory.
 * @throws std::runtime_error on any StreamingTraceReader failure
 */
VectorTraceSource loadTrace(const std::string &path);

/** Convenience: write an entire in-memory trace to @p path. */
void saveTrace(const VectorTraceSource &source, const std::string &path);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_TRACE_IO_H
