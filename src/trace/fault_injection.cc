/**
 * @file
 * Chaos-driven trace I/O fault injection implementation.
 */

#include "trace/fault_injection.h"

#include "util/chaos.h"
#include "util/logging.h"

namespace vlp {
namespace trace {

namespace {

/** ByteFile decorator driven by the global chaos switchboard. */
class ChaosFile : public ByteFile
{
  public:
    explicit ChaosFile(std::unique_ptr<ByteFile> inner)
        : inner_(std::move(inner)),
          key_(util::chaos::pathKey(inner_->name()))
    {}

    std::size_t read(void *buffer, std::size_t size) override
    {
        if (CHAOS_SECTION("trace.read.transient", key_)) {
            throw util::TransientError(
                "chaos: transient read failure: " + inner_->name());
        }
        std::size_t want = size;
        if (want > 1 && CHAOS_SECTION("trace.read.short", key_)) {
            want = 1 + want / 2;
        }
        return inner_->read(buffer, want);
    }

    const std::uint8_t *view(std::uint64_t offset,
                             std::size_t size) override
    {
        if (CHAOS_SECTION("trace.view.refuse", key_))
            return nullptr;
        return inner_->view(offset, size);
    }

    void seek(std::uint64_t offset) override { inner_->seek(offset); }
    void releaseViews() override { inner_->releaseViews(); }
    std::uint64_t size() override { return inner_->size(); }
    const std::string &name() const override { return inner_->name(); }
    std::optional<FileStamp> stamp() override { return inner_->stamp(); }

  private:
    std::unique_ptr<ByteFile> inner_;
    /** Chaos identity: the file's final path component, so decisions
     *  replay no matter where the corpus lives. */
    std::string key_;
};

} // anonymous namespace

FileOpener
chaosOpener(FileOpener inner)
{
    if (!inner)
        inner = [](const std::string &path) {
            return openByteFile(path);
        };
    return [inner](const std::string &path)
        -> std::unique_ptr<ByteFile> {
        if (!util::chaos::enabled())
            return inner(path);
        if (CHAOS_SECTION("trace.open.transient",
                          util::chaos::pathKey(path))) {
            throw util::TransientError(
                "chaos: transient open failure: " + path);
        }
        return std::make_unique<ChaosFile>(inner(path));
    };
}

} // namespace trace
} // namespace vlp

