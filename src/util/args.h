/**
 * @file
 * Small command-line flag parser shared by every bench binary and
 * every `vlpsim` subcommand.
 *
 * One ArgParser instance describes one program (or subcommand): its
 * flags, its positional arguments, and one-line help for each. Flags
 * accept both the space-separated form (`--jobs 4`) and the inline
 * form (`--jobs=4`). `--help` (and `-h`) print the full usage text to
 * stdout and exit 0; malformed or unknown arguments print an error to
 * stderr and exit 2, matching the historical bench behavior.
 */

#ifndef VLPSIM_UTIL_ARGS_H
#define VLPSIM_UTIL_ARGS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace vlp {
namespace util {

/** Declarative command-line parser for one program or subcommand. */
class ArgParser
{
  public:
    /**
     * @param program  name shown in the usage line
     *                 ("bench_table2", "vlpsim suite")
     * @param summary  one-line description shown under the usage line
     */
    ArgParser(std::string program, std::string summary);

    /**
     * Register a flag taking a value; @p handler receives the raw
     * value text and may throw std::runtime_error to reject it.
     */
    void addOption(const std::string &flag,
                   const std::string &valueName,
                   const std::string &help,
                   std::function<void(const std::string &)> handler);

    /** Flag with a string value, stored verbatim. */
    void addString(const std::string &flag,
                   const std::string &valueName,
                   const std::string &help, std::string *out);

    /** Flag with an unsigned decimal value, bounded by @p max. */
    void addUint(const std::string &flag, const std::string &valueName,
                 const std::string &help, std::uint64_t *out,
                 std::uint64_t max =
                     std::numeric_limits<std::uint64_t>::max());

    /** Valueless switch; sets @p out to true when present. */
    void addSwitch(const std::string &flag, const std::string &help,
                   bool *out);

    /**
     * Declare a positional argument for the usage text. Required
     * positionals are enforced by count; optional ones are shown in
     * brackets.
     */
    void addPositional(const std::string &name,
                       const std::string &help, bool required = true);

    /** Permit a variable tail of positionals after the declared
     *  ones (e.g. a trace file list). */
    void allowExtraPositionals(const std::string &name,
                               const std::string &help);

    /**
     * Parse @p argv starting at @p begin (1 for a program, 2 for a
     * subcommand). Prints usage and exits 0 on --help; prints an
     * error and exits 2 on malformed input.
     * @return the positional arguments in order
     */
    std::vector<std::string> parse(int argc, char **argv,
                                   int begin = 1);

    /** Write the full usage/help text. */
    void printUsage(std::ostream &out) const;

    /** Print @p message as an error plus a usage hint, then exit 2. */
    [[noreturn]] void fail(const std::string &message) const;

    /**
     * parseUint() for a positional or list item called @p name; a
     * malformed value fails like a bad flag value does.
     */
    std::uint64_t uintArg(const std::string &name,
                          const std::string &text) const;

  private:
    struct Flag
    {
        std::string name;      // "--jobs"
        std::string valueName; // "N"; empty for switches
        std::string help;
        std::function<void(const std::string &)> handler;
        bool takesValue = false;
    };

    struct Positional
    {
        std::string name;
        std::string help;
        bool required = false;
    };

    const Flag *findFlag(const std::string &name) const;

    std::string program_;
    std::string summary_;
    std::vector<Flag> flags_;
    std::vector<Positional> positionals_;
    bool variadicTail_ = false;
};

/**
 * Parse @p text as an unsigned decimal no greater than @p max.
 * @throws std::runtime_error on empty input, a sign, trailing junk, or
 *         overflow
 */
std::uint64_t parseUint(const std::string &text,
                        std::uint64_t max =
                            std::numeric_limits<std::uint64_t>::max());

/**
 * Parse @p text as a probability.
 * @throws std::runtime_error on empty input, trailing junk, a
 *         non-finite value, or a value outside [0, 1]
 */
double parseProbability(const std::string &text);

} // namespace util
} // namespace vlp

#endif // VLPSIM_UTIL_ARGS_H
