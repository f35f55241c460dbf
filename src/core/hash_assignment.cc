/**
 * @file
 * HashAssignment implementation.
 */

#include "core/hash_assignment.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "core/path_history.h"
#include "util/logging.h"

namespace vlp {
namespace core {

HashAssignment::HashAssignment(unsigned default_length)
    : defaultLength_(default_length)
{
    setDefaultLength(default_length);
}

void
HashAssignment::assign(std::uint64_t pc, unsigned length)
{
    if (length < 1 || length > maxPathLength)
        util::fatal("hash function number out of range");
    table_.assign(pc, length);
}

void
HashAssignment::setDefaultLength(unsigned length)
{
    if (length < 1 || length > maxPathLength)
        util::fatal("default hash function number out of range");
    defaultLength_ = length;
}

util::Histogram
HashAssignment::lengthHistogram() const
{
    util::Histogram histogram(maxPathLength + 1);
    for (const auto &[pc, length] : entries()) {
        (void)pc;
        histogram.add(length);
    }
    return histogram;
}

void
HashAssignment::save(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        util::fatal("cannot create assignment file: " + path);
    bool ok = std::fprintf(file, "default %u\n", defaultLength_) > 0;
    for (const auto &[pc, length] : entries())
        ok = ok && std::fprintf(file, "%" PRIx64 " %u\n", pc, length) > 0;
    // fclose flushes the buffer, so a full disk often surfaces only
    // here; both results decide.
    ok = std::fclose(file) == 0 && ok;
    if (!ok)
        util::fatal("cannot write assignment file: " + path);
}

namespace {

/** Parse all of @p text as a number in @p base; false on any junk. */
template <typename Number>
bool
parseWhole(std::string_view text, Number &out, int base)
{
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, out, base);
    return !text.empty() && error == std::errc() && stop == end;
}

} // anonymous namespace

HashAssignment
HashAssignment::load(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        util::fatal("cannot open assignment file: " + path);

    // Every line must parse: a corrupted line must not end the load
    // early and leave a silently partial assignment.
    const auto malformed = [&path](std::size_t line_number,
                                   const std::string &expected) {
        util::fatal("malformed assignment file " + path + " at line "
                    + std::to_string(line_number) + " (expected \""
                    + expected + "\")");
    };
    const auto valid = [](unsigned length) {
        return length >= 1 && length <= maxPathLength;
    };
    std::string line;
    unsigned default_length = 0;
    if (!std::getline(file, line)
        || !std::string_view(line).starts_with("default ")
        || !parseWhole(std::string_view(line).substr(8), default_length,
                       10)
        || !valid(default_length))
        malformed(1, "default <length>");
    HashAssignment assignment(default_length);

    for (std::size_t line_number = 2; std::getline(file, line);
         ++line_number) {
        const std::string_view text(line);
        const std::size_t space = text.find(' ');
        std::uint64_t pc = 0;
        unsigned length = 0;
        if (space == std::string_view::npos
            || !parseWhole(text.substr(0, space), pc, 16)
            || !parseWhole(text.substr(space + 1), length, 10)
            || !valid(length))
            malformed(line_number, "<hex pc> <length>");
        assignment.assign(pc, length);
    }
    if (file.bad())
        util::fatal("cannot read assignment file: " + path);
    return assignment;
}

} // namespace core
} // namespace vlp
