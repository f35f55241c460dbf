/**
 * @file
 * Byte-level file access behind a virtual seam.
 *
 * Trace readers consume raw bytes through the ByteFile interface
 * instead of touching stdio directly, so the chaos switchboard can
 * interpose deterministic fault injection (trace/fault_injection.h) on
 * the exact code paths production uses: the same short-read loops, the
 * same error classification, the same checksum verification.
 *
 * Error model: read()/seek()/size() throw util::TransientError for
 * failures worth retrying (EINTR/EAGAIN-class) and std::runtime_error
 * for everything else. read() may legitimately return fewer bytes than
 * requested (a short read) — callers must loop.
 */

#ifndef VLPSIM_TRACE_BYTE_FILE_H
#define VLPSIM_TRACE_BYTE_FILE_H

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

namespace vlp {
namespace trace {

class HashingByteFile;

/**
 * The stat identity of an open file: what a content-hash memo keys on
 * (trace/content_hash.h). Timestamps are nanoseconds since the epoch.
 */
struct FileStamp
{
    std::uint64_t device = 0;
    std::uint64_t inode = 0;
    std::uint64_t size = 0;
    std::int64_t mtimeNs = 0;
    std::int64_t ctimeNs = 0;

    bool operator==(const FileStamp &) const = default;
};

/** A seekable, read-only stream of bytes. */
class ByteFile
{
  public:
    virtual ~ByteFile() = default;

    /**
     * Read up to @p size bytes into @p buffer.
     * @return bytes actually read; 0 only at end of file. May be
     *         short — callers loop until satisfied or 0.
     * @throws util::TransientError on retryable failures
     * @throws std::runtime_error on permanent failures
     */
    virtual std::size_t read(void *buffer, std::size_t size) = 0;

    /** Reposition the stream to absolute @p offset. */
    virtual void seek(std::uint64_t offset) = 0;

    /** Total byte length of the file. */
    virtual std::uint64_t size() = 0;

    /** Path (or other identity) for error messages. */
    virtual const std::string &name() const = 0;

    /**
     * Zero-copy window: a pointer to the file's bytes
     * [@p offset, @p offset + @p size), or nullptr when this backend
     * cannot serve the range without copying (the default — only
     * mapped backends override). A returned pointer stays valid until
     * the next view()/read()/seek() call on this file; view() does not
     * move the read() position. Callers must always be prepared for
     * nullptr and fall back to read().
     */
    virtual const std::uint8_t *view(std::uint64_t offset,
                                     std::size_t size)
    {
        (void)offset;
        (void)size;
        return nullptr;
    }

    /**
     * Hand back the memory behind the windows view() has served (a
     * mapped backend unmaps them, so their pages leave the process's
     * resident set). Earlier view() pointers become invalid; a later
     * view() maps again. A no-op for backends that serve no views;
     * decorators forward.
     */
    virtual void releaseViews() {}

    /**
     * The content-hashing decorator wrapping this stream, if this
     * *is* one (see trace/content_hash.h). Lets the streaming reader
     * fuse its VBT2 stream checksum into the decorator's hash kernel
     * — one pass over each chunk instead of two — without a
     * dynamic_cast on the hot path.
     */
    virtual HashingByteFile *hasher() { return nullptr; }

    /**
     * fstat() of the descriptor this stream reads, so the stamp and
     * the bytes always belong to the same file; nullopt when the
     * backend has no descriptor or fstat fails. Decorators forward.
     */
    virtual std::optional<FileStamp> stamp() { return std::nullopt; }
};

/** The FileStamp of open descriptor @p fd; nullopt if fstat fails. */
std::optional<FileStamp> stampDescriptor(int fd);

/**
 * The FileStamp of @p path (stat, following links); nullopt if stat
 * fails. A path can be swapped at any time, so this may only predict:
 * what a session reads is identified by stampDescriptor().
 */
std::optional<FileStamp> stampPath(const std::string &path);

/** Plain stdio-backed ByteFile. */
class StdioByteFile : public ByteFile
{
  public:
    /**
     * @throws util::TransientError when the open fails with a
     *         retryable errno, std::runtime_error otherwise
     */
    explicit StdioByteFile(const std::string &path);
    ~StdioByteFile() override;

    StdioByteFile(const StdioByteFile &) = delete;
    StdioByteFile &operator=(const StdioByteFile &) = delete;

    std::size_t read(void *buffer, std::size_t size) override;
    void seek(std::uint64_t offset) override;
    std::uint64_t size() override;
    const std::string &name() const override { return path_; }
    std::optional<FileStamp> stamp() override;

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
};

/**
 * How trace consumers open files. The default opener returns a
 * StdioByteFile; trace::fastOpener() picks a backend by read mode,
 * trace::chaosOpener() wraps any opener with chaos fault injection,
 * and tests may substitute a counting fake.
 */
using FileOpener =
    std::function<std::unique_ptr<ByteFile>(const std::string &path)>;

/** Open @p path as a plain StdioByteFile. */
std::unique_ptr<ByteFile> openByteFile(const std::string &path);

/**
 * Adapts a ByteFile to std::streambuf so istream-based consumers (the
 * lenient text-trace importer) read through the same seam — and
 * zero-copy when the backend is mapped: underflow() serves the
 * backend's view() window directly as the get area when available,
 * falling back to a buffered read() otherwise.
 */
class ByteFileStreamBuf : public std::streambuf
{
  public:
    /** Window served per underflow, view-backed or buffered. */
    static constexpr std::size_t windowBytes = 64 * 1024;

    explicit ByteFileStreamBuf(ByteFile &file);

  protected:
    int_type underflow() override;

  private:
    ByteFile &file_;
    std::uint64_t offset_ = 0; // file offset of the next window
    std::uint64_t size_ = 0;
    std::vector<char> buffer_;
};

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_BYTE_FILE_H
