/**
 * @file
 * Binary trace writer and whole-file load/save helpers.
 */

#include "trace/trace_io.h"

#include <cstring>

#include "trace/streaming.h"
#include "util/logging.h"

namespace vlp {
namespace trace {

TraceWriter::TraceWriter(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr)
        util::fatal("cannot create trace file: " + path);
    std::uint8_t header[vbt::headerBytesV2];
    std::memcpy(header, vbt::magicV2.data(), 4);
    vbt::putU64(header + 4, 0);  // record count, patched in close()
    vbt::putU64(header + 12, 0); // checksum, patched in close()
    if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header))
        util::fatal("cannot write trace header: " + path);
}

TraceWriter::~TraceWriter()
{
    if (file_ != nullptr)
        close();
}

void
TraceWriter::write(const BranchRecord &record)
{
    std::uint8_t buffer[vbt::recordBytes];
    buffer[0] = static_cast<std::uint8_t>(record.kind);
    buffer[1] = record.taken ? 1 : 0;
    vbt::putU64(buffer + 2, record.pc);
    vbt::putU64(buffer + 10, record.nextPc);
    if (std::fwrite(buffer, 1, vbt::recordBytes, file_)
        != vbt::recordBytes)
        util::fatal("short write to trace file");
    checksum_.update(buffer, vbt::recordBytes);
    ++count_;
}

void
TraceWriter::close()
{
    if (file_ == nullptr)
        return;
    std::uint8_t trailer[16];
    vbt::putU64(trailer, count_);
    vbt::putU64(trailer + 8, checksum_.digest());
    std::fseek(file_, 4, SEEK_SET);
    if (std::fwrite(trailer, 1, sizeof(trailer), file_) != sizeof(trailer))
        util::warn("failed to finalize trace header");
    std::fclose(file_);
    file_ = nullptr;
}

VectorTraceSource
loadTrace(const std::string &path)
{
    StreamingTraceReader reader(path);
    std::vector<BranchRecord> records;
    records.reserve(reader.count());
    BranchRecord record;
    while (reader.next(record))
        records.push_back(record);
    return VectorTraceSource(std::move(records));
}

void
saveTrace(const VectorTraceSource &source, const std::string &path)
{
    TraceWriter writer(path);
    for (const auto &record : source.records())
        writer.write(record);
    writer.close();
}

} // namespace trace
} // namespace vlp
