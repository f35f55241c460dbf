/**
 * @file
 * Profiling heuristic implementation.
 */

#include "core/profiler.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <mutex>
#include <span>
#include <type_traits>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "core/path_predictor.h"
#include "util/flat_pc_map.h"
#include "util/logging.h"
#include "util/packed_counter_table.h"
#include "util/thread_pool.h"

namespace vlp {
namespace core {

double
FixedLengthSweep::rate(unsigned length) const
{
    assert(length >= minLength && length <= mispredictions.size());
    if (branches == 0)
        return 0.0;
    return 100.0 * static_cast<double>(mispredictions[length - 1])
         / static_cast<double>(branches);
}

unsigned
FixedLengthSweep::bestLength() const
{
    assert(minLength >= 1 && minLength <= mispredictions.size());
    unsigned best = minLength;
    for (unsigned length = minLength + 1;
         length <= mispredictions.size(); ++length) {
        if (mispredictions[length - 1] < mispredictions[best - 1])
            best = length;
    }
    return best;
}

SuiteAverage
averageSweeps(const std::vector<FixedLengthSweep> &sweeps, bool indirect)
{
    SuiteAverage average;
    average.rates.assign(maxPathLength, 0.0);
    unsigned counted = 0;
    for (const FixedLengthSweep &sweep : sweeps) {
        if (sweep.branches < minimumSweepBranches(indirect))
            continue;
        ++counted;
        for (unsigned length = sweep.minLength;
             length <= sweep.mispredictions.size(); ++length) {
            average.rates[length - 1] += sweep.rate(length);
        }
    }
    if (counted == 0)
        return average;
    for (double &rate : average.rates)
        rate /= static_cast<double>(counted);
    average.length = 1;
    for (unsigned length = 2; length <= maxPathLength; ++length) {
        if (average.rates[length - 1] < average.rates[average.length - 1])
            average.length = length;
    }
    return average;
}

namespace {

void
validateOptions(const ProfileOptions &options)
{
    if (options.indexBits < 1 || options.indexBits > 30)
        util::fatal("profile indexBits must be 1..30");
    if (options.minLength < 1)
        util::fatal("profile length range must not start at zero");
    if (options.maxLength > maxPathLength)
        util::fatal("profile maxLength must be 1..32");
    if (options.minLength > options.maxLength) {
        util::fatal("profile length range is descending (minLength "
                    + std::to_string(options.minLength)
                    + " > maxLength "
                    + std::to_string(options.maxLength)
                    + "); it would produce an empty sweep");
    }
    if (options.candidates < 1)
        util::fatal("profile candidate count must be >= 1");
    if (options.iterations < 1)
        util::fatal("profile iteration count must be >= 1");
}

PathHistoryOptions
historyFor(const ProfileOptions &options)
{
    PathHistoryOptions history = options.history;
    history.depth = options.maxLength;
    return history;
}

/*
 * ---- Sharded step-1 kernel ------------------------------------------
 *
 * Step 1 simulates one private fixed-length predictor per path length.
 * The lengths are completely independent: length L's table is touched
 * only by hash index I_L, and I_L is a pure function of the trace
 * prefix (the partial-sum recurrence I_X = rotl(I_{X-1}, 1) ^ T only
 * ever reads shorter lengths, so a PathIndexBank of depth D produces
 * the same I_L for every L <= D regardless of D). Sharding the
 * [minLength, maxLength] range therefore yields integer counts
 * bit-identical to a serial sweep: each worker replays the trace with
 * its own bank (depth = its highest length) and its own packed
 * counter bank, and the per-length results are merged in length
 * order.
 *
 * The leader shard (the one holding minLength) also owns the
 * length-independent counts — per-branch executions and the sweep's
 * dynamic branch total — and builds the per-branch map in trace
 * order, so the merged profiles_ has exactly the insertion order the
 * serial code produces.
 */

/** One contiguous range of path lengths, inclusive. */
struct LengthShard
{
    unsigned lo;
    unsigned hi;
};

/** Split [min_length, max_length] into at most @p jobs even shards. */
std::vector<LengthShard>
makeLengthShards(unsigned min_length, unsigned max_length, unsigned jobs)
{
    const unsigned effective = jobs == 0
        ? util::ThreadPool::defaultThreadCount()
        : jobs;
    const unsigned count = max_length - min_length + 1;
    const unsigned shards = std::min(std::max(effective, 1u), count);
    std::vector<LengthShard> result;
    result.reserve(shards);
    unsigned next = min_length;
    for (unsigned shard = 0; shard < shards; ++shard) {
        const unsigned width =
            count / shards + (shard < count % shards ? 1 : 0);
        result.push_back({next, next + width - 1});
        next += width;
    }
    return result;
}

/** One shard's private output, merged on the controlling thread. */
struct ShardResult
{
    /** mispredictions[L - lo]: total mispredictions at length L. */
    std::vector<std::uint64_t> mispredictions;
    /**
     * Per-branch records with correct[] filled for this shard's
     * lengths only; the leader also fills executions.
     */
    std::unordered_map<std::uint64_t, BranchProfile> profiles;
    /** Dynamic profiled branches (leader shard only). */
    std::uint64_t branches = 0;
};

/**
 * Step-1 table bank for one branch class: every shard length's
 * private table of @p Table entries, packed back to back in one table
 * (4 KiB per 14-bit conditional table, so even the full 32-length
 * bank stays L2-resident). Length L's segment is exactly the table of
 * the fixed length path predictor PathPredictor<Table>(k, L).
 *
 * accessAll() predicts, updates, and tallies every shard length for
 * one dynamic branch. On x86-64 hosts with AVX-512 the conditional
 * bank runs accessAllAvx512() instead of the scalar loop (results
 * stay bit-identical; the dispatch is per process capability, not per
 * run). Indirect branches are a small fraction of a trace, so the
 * scalar loop suffices for them.
 */
template <typename Table>
class Step1Tables
{
  public:
    Step1Tables(unsigned index_bits, unsigned lengths)
        : indexBits_(index_bits),
          table_(std::size_t{lengths} << index_bits)
    {
#if defined(__x86_64__) && defined(__GNUC__)
        simd_ = std::is_same_v<Table, DirectionTable>
             && __builtin_cpu_supports("avx512f")
             && __builtin_cpu_supports("avx512vl")
             && __builtin_cpu_supports("avx512dq")
             && __builtin_cpu_supports("avx512bw");
#endif
    }

    /**
     * Predict/update lengths lo..lo+lengths-1 (table slots 0..) for
     * one branch, reading the hash indices straight out of @p bank:
     * hits bump the (saturating) correct[s], misses bump misses[s].
     */
    void
    accessAll(const PathIndexBank &bank, unsigned lo, unsigned lengths,
              const trace::BranchRecord &record, std::uint32_t *correct,
              std::uint64_t *misses)
    {
#if defined(__x86_64__) && defined(__GNUC__)
        if constexpr (std::is_same_v<Table, DirectionTable>) {
            if (simd_) {
                accessAllAvx512(bank.rawView(), lo, lengths,
                                record.taken, correct, misses);
                return;
            }
        }
#endif
        for (unsigned slot = 0; slot < lengths; ++slot) {
            const std::size_t entry =
                (std::size_t{slot} << indexBits_)
                | static_cast<std::size_t>(bank.index(lo + slot));
            const bool hit =
                Table::hit(table_.predict(entry, record), record);
            table_.train(entry, record);
            correct[slot] += static_cast<std::uint32_t>(
                hit & (correct[slot] != BranchProfile::saturated));
            misses[slot] += !hit;
        }
    }

  private:
#if defined(__x86_64__) && defined(__GNUC__)
    /**
     * The conditional fast path: the scalar loop above for
     * DirectionTable, eight 64-bit lanes at a time, with the
     * index reconstruction (ring read, rotate, XOR with the running
     * sum) fused in so no per-record staging buffer is needed. Slot
     * width is 2 bits, so a word holds 32 counters (entry >> 5
     * selects the word, (entry & 31) * 2 the bit position) —
     * mirroring PackedCounterTable's layout for bits == 2.
     *
     * GCC 12 reports -Wmaybe-uninitialized inside avx512fintrin.h for
     * several intrinsics inlined here: their unmasked forms pass a
     * deliberately uninitialised `_mm512_undefined_*()` pass-through
     * operand that the all-ones mask never reads. The warning is a
     * false positive, so it is silenced for this function only.
     */
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
    __attribute__((target("avx512f,avx512vl,avx512dq,avx512bw")))
    void
    accessAllAvx512(const PathIndexBank::RawView view, unsigned lo,
                    unsigned lengths, bool taken,
                    std::uint32_t *correct, std::uint64_t *misses)
    {
        std::uint64_t *words = table_.counters().wordData();
        const __m512i one = _mm512_set1_epi64(1);
        const __m512i two = _mm512_set1_epi64(2);
        const __m512i three = _mm512_set1_epi64(3);
        const __m512i in_word = _mm512_set1_epi64(31);
        const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        const __m128i index_bits = _mm_cvtsi32_si128(
            static_cast<int>(indexBits_));
        const __m256i saturated =
            _mm256_set1_epi32(static_cast<int>(BranchProfile::saturated));
        const __m256i one32 = _mm256_set1_epi32(1);
        const __m512i ring_mask = _mm512_set1_epi64(view.mask);
        const __m512i path_sum = _mm512_set1_epi64(
            static_cast<long long>(view.pathSum));
        const __m512i k_mask = _mm512_set1_epi64(
            static_cast<long long>(view.indexMask));
        const __m512i k = _mm512_set1_epi64(view.indexBits);
        for (unsigned base = 0; base < lengths; base += 8) {
            const unsigned rest = lengths - base;
            const __mmask8 active = rest >= 8
                ? static_cast<__mmask8>(0xff)
                : static_cast<__mmask8>((1u << rest) - 1);
            const __m512i slot = _mm512_add_epi64(
                _mm512_set1_epi64(base), lane);
            // index(L) for L = lo+base+lane: rotate S_{t-L} left by
            // rotAmounts[L-1] as a k-bit value, XOR the running sum.
            const __m512i ring_index = _mm512_and_epi64(
                _mm512_add_epi64(
                    _mm512_set1_epi64(view.head + lo + base), lane),
                ring_mask);
            const __m512i sum = _mm512_mask_i64gather_epi64(
                _mm512_setzero_si512(), active, ring_index, view.sums,
                8);
            const __m512i amount = _mm512_cvtepu32_epi64(
                _mm256_maskz_loadu_epi32(
                    active, view.rotAmounts + (lo + base - 1)));
            const __m512i rotated = _mm512_and_epi64(
                _mm512_or_epi64(
                    _mm512_sllv_epi64(sum, amount),
                    _mm512_srlv_epi64(sum,
                                      _mm512_sub_epi64(k, amount))),
                k_mask);
            const __m512i index =
                _mm512_xor_epi64(path_sum, rotated);
            const __m512i entry = _mm512_or_epi64(
                _mm512_sll_epi64(slot, index_bits), index);
            const __m512i word_index = _mm512_srli_epi64(entry, 5);
            const __m512i shift = _mm512_slli_epi64(
                _mm512_and_epi64(entry, in_word), 1);
            __m512i word = _mm512_mask_i64gather_epi64(
                _mm512_setzero_si512(), active, word_index, words, 8);
            const __m512i field = _mm512_and_epi64(
                _mm512_srlv_epi64(word, shift), three);
            const __mmask8 predict_taken =
                _mm512_cmpge_epu64_mask(field, two);
            __m512i next;
            __mmask8 hit;
            if (taken) {
                next = _mm512_mask_add_epi64(
                    field, _mm512_cmplt_epu64_mask(field, three),
                    field, one);
                hit = predict_taken & active;
            } else {
                next = _mm512_mask_sub_epi64(
                    field,
                    _mm512_cmpneq_epu64_mask(field,
                                             _mm512_setzero_si512()),
                    field, one);
                hit = static_cast<__mmask8>(~predict_taken) & active;
            }
            word = _mm512_xor_epi64(
                word,
                _mm512_sllv_epi64(_mm512_xor_epi64(field, next),
                                  shift));
            _mm512_mask_i64scatter_epi64(words, active, word_index,
                                         word, 8);
            __m256i tallies =
                _mm256_maskz_loadu_epi32(active, correct + base);
            const __mmask8 unsaturated =
                _mm256_cmpneq_epu32_mask(tallies, saturated);
            tallies = _mm256_mask_add_epi32(tallies, hit & unsaturated,
                                            tallies, one32);
            _mm256_mask_storeu_epi32(correct + base, active, tallies);
            __m512i missed =
                _mm512_maskz_loadu_epi64(active, misses + base);
            missed = _mm512_mask_add_epi64(
                missed, static_cast<__mmask8>(~hit) & active, missed,
                one);
            _mm512_mask_storeu_epi64(misses + base, active, missed);
        }
    }
#pragma GCC diagnostic pop
#endif

    unsigned indexBits_;
    Table table_;
#if defined(__x86_64__) && defined(__GNUC__)
    bool simd_ = false;
#endif
};

/**
 * Replay a record stream over one shard's private predictors.
 * @p replay is a callable invoking its argument once per record in
 * trace order — either a loop over an in-memory span or a
 * trace::forEachRecord() pass over a trace source.
 */
template <typename Table, typename Replay>
void
runShard(Replay &&replay, const ProfileOptions &options,
         const LengthShard &shard, bool leader, ShardResult &out)
{
    PathHistoryOptions history = options.history;
    // A shallower bank computes identical indices for every length it
    // implements (see the kernel comment above), and a shard never
    // reads past its own highest length.
    history.depth = shard.hi;
    PathIndexBank bank(options.indexBits, history);
    const unsigned lengths = shard.hi - shard.lo + 1;
    Step1Tables<Table> tables(options.indexBits, lengths);
    out.mispredictions.assign(lengths, 0);

    // Direct-mapped pc -> profile cache in front of the hash map. Hot
    // branches dominate a trace, so most records hit; BranchProfile
    // references are stable across unordered_map inserts, making the
    // cached pointers safe.
    struct CachedProfile
    {
        std::uint64_t pc = 0;
        BranchProfile *profile = nullptr;
    };
    std::array<CachedProfile, 1024> recent{};

    replay([&](const trace::BranchRecord &record) {
        if (Table::covers(record)) {
            CachedProfile &cached = recent[(record.pc >> 2) & 1023];
            if (cached.pc != record.pc || cached.profile == nullptr) {
                cached.pc = record.pc;
                cached.profile = &out.profiles[record.pc];
            }
            BranchProfile &profile = *cached.profile;
            if (leader) {
                profile.addExecution();
                ++out.branches;
            }
            tables.accessAll(bank, shard.lo, lengths, record,
                             profile.correct.data() + (shard.lo - 1),
                             out.mispredictions.data());
        }
        bank.observe(record);
    });
}

/** A Replay over in-memory records (see runShard()). */
struct SpanReplay
{
    std::span<const trace::BranchRecord> records;

    template <typename Body>
    void
    operator()(Body &&body) const
    {
        for (const trace::BranchRecord &record : records)
            body(record);
    }
};

/**
 * Run step 1 over @p profile_trace, sharding the length range across
 * options.jobs workers, and merge into @p sweep / @p profiles.
 */
template <typename Table>
void
runStep1Sharded(trace::TraceSource &profile_trace,
                const ProfileOptions &options, FixedLengthSweep &sweep,
                std::unordered_map<std::uint64_t, BranchProfile>
                    &profiles)
{
    const std::vector<LengthShard> shards = makeLengthShards(
        options.minLength, options.maxLength, options.jobs);
    std::vector<ShardResult> results(shards.size());

    if (shards.size() == 1) {
        // A single shard makes exactly one pass, straight over the
        // source's resident records or, for a trace over the resident
        // budget, streamed through next() in bounded memory.
        runShard<Table>(
            [&profile_trace](auto &&body) {
                trace::forEachRecord(profile_trace, body);
            },
            options, shards[0], true, results[0]);
    } else {
        // Workers need independent, read-only passes over the
        // records; borrow the source's resident records, otherwise
        // materialize the stream once (a documented memory/speed
        // trade: intra-trace sharding buys wall-clock at the cost of
        // holding the records).
        std::span<const trace::BranchRecord> records;
        std::vector<trace::BranchRecord> materialized;
        if (const auto resident = profile_trace.resident()) {
            records = *resident;
        } else {
            trace::forEachRecord(profile_trace,
                                 [&](const trace::BranchRecord &record) {
                                     materialized.push_back(record);
                                 });
            records = materialized;
        }
        // The controlling thread takes the leader shard; the rest run
        // on a transient pool. Tasks must not leak exceptions into
        // the pool, so failures are captured and rethrown here.
        util::ThreadPool pool(
            static_cast<unsigned>(shards.size()) - 1);
        std::exception_ptr failure;
        std::mutex failure_mutex;
        for (std::size_t i = 1; i < shards.size(); ++i) {
            pool.submit([&, i] {
                try {
                    runShard<Table>(SpanReplay{records}, options, shards[i],
                                     false, results[i]);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(failure_mutex);
                    if (!failure)
                        failure = std::current_exception();
                }
            });
        }
        runShard<Table>(SpanReplay{records}, options, shards[0], true,
                         results[0]);
        pool.wait();
        if (failure)
            std::rethrow_exception(failure);
    }

    // Merge in length order. Every shard sees the same profiled
    // records, so the key sets agree and merging never inserts; the
    // leader's map (built in trace order, like the serial sweep)
    // becomes the result.
    sweep.mispredictions.assign(options.maxLength, 0);
    sweep.minLength = options.minLength;
    sweep.branches = results[0].branches;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        std::copy(results[i].mispredictions.begin(),
                  results[i].mispredictions.end(),
                  sweep.mispredictions.begin() + shards[i].lo - 1);
    }
    profiles = std::move(results[0].profiles);
    for (std::size_t i = 1; i < shards.size(); ++i) {
        for (const auto &[pc, shard_profile] : results[i].profiles) {
            const auto it = profiles.find(pc);
            assert(it != profiles.end());
            std::copy(shard_profile.correct.begin() + shards[i].lo - 1,
                      shard_profile.correct.begin() + shards[i].hi,
                      it->second.correct.begin() + shards[i].lo - 1);
        }
    }
}

/**
 * Step 2 over @p profile_trace: each iteration replays the trace with
 * a variable length path predictor built from the selector's next
 * assignment and records the per-branch misses.
 *
 * The predictor is PathPredictor<Table> taken apart — one
 * PathIndexBank and one Table — so a covered record costs a single
 * probe of a flat pc -> dense id table; the per-iteration lengths and
 * miss counts are plain arrays indexed by that id. A covered pc
 * without an id (impossible when step 1 ran on the same trace) takes
 * the spare id past the end: the default length, and its misses are
 * dropped, as recordResults() would ignore them.
 */
template <typename Table>
HashAssignment
runStep2Iterations(trace::TraceSource &profile_trace,
                   const ProfileOptions &options,
                   const FixedLengthSweep &sweep,
                   const std::unordered_map<std::uint64_t, BranchProfile>
                       &profiles)
{
    CandidateSelector selector(profiles, sweep, options.candidates,
                               options.maxLength);
    const PathHistoryOptions history = historyFor(options);

    util::FlatPcMap<std::uint32_t> ids;
    std::vector<std::uint64_t> pcs;
    pcs.reserve(profiles.size());
    for (const auto &[pc, profile] : profiles) {
        (void)profile;
        ids.assign(pc, static_cast<std::uint32_t>(pcs.size()));
        pcs.push_back(pc);
    }
    const auto spare = static_cast<std::uint32_t>(pcs.size());
    std::vector<unsigned> lengths(pcs.size() + 1);
    std::vector<std::uint64_t> misses(pcs.size() + 1);
    std::unordered_map<std::uint64_t, std::uint64_t> results;
    results.reserve(pcs.size());

    for (unsigned iteration = 0; iteration < options.iterations;
         ++iteration) {
        const HashAssignment assignment = selector.nextAssignment();
        // The clamp PathPredictor applies to lengths past the bank.
        for (std::uint32_t id = 0; id < spare; ++id)
            lengths[id] =
                std::min(assignment.lookup(pcs[id]), history.depth);
        lengths[spare] = std::min(assignment.defaultLength(), history.depth);
        std::fill(misses.begin(), misses.end(), 0);

        PathIndexBank bank(options.indexBits, history);
        Table table(std::size_t{1} << options.indexBits);
        trace::forEachRecord(
            profile_trace, [&](const trace::BranchRecord &record) {
                if (Table::covers(record)) {
                    const std::uint32_t id = ids.get(record.pc, spare);
                    const auto entry =
                        static_cast<std::size_t>(bank.index(lengths[id]));
                    const bool hit =
                        Table::hit(table.predict(entry, record), record);
                    table.train(entry, record);
                    misses[id] += !hit;
                }
                bank.observe(record);
            });

        results.clear();
        for (std::uint32_t id = 0; id < spare; ++id)
            results.emplace(pcs[id], misses[id]);
        selector.recordResults(assignment, results);
    }
    return selector.finalAssignment();
}

} // anonymous namespace

Profiler::Profiler(ProfileOptions options, bool indirect)
    : options_(options), indirect_(indirect)
{
    validateOptions(options_);
}

const FixedLengthSweep &
Profiler::runStep1(trace::TraceSource &profile_trace)
{
    // One private table per hash function (step 1 of Section 3.5),
    // packed and length-sharded; see the kernel comment above.
    FixedLengthSweep sweep;
    profiles_.clear();
    if (indirect_)
        runStep1Sharded<TargetTable>(profile_trace, options_, sweep,
                                     profiles_);
    else
        runStep1Sharded<DirectionTable>(profile_trace, options_, sweep,
                                        profiles_);
    sweep_ = std::move(sweep);
    step1Done_ = true;
    return sweep_;
}

HashAssignment
Profiler::runStep2(trace::TraceSource &profile_trace)
{
    if (!step1Done_)
        util::fatal("profiler step 2 requires step 1 to have run");
    return indirect_
        ? runStep2Iterations<TargetTable>(profile_trace, options_, sweep_,
                                          profiles_)
        : runStep2Iterations<DirectionTable>(profile_trace, options_,
                                             sweep_, profiles_);
}

HashAssignment
Profiler::profile(trace::TraceSource &profile_trace)
{
    runStep1(profile_trace);
    return runStep2(profile_trace);
}

void
Profiler::restoreStep1(
        FixedLengthSweep sweep,
        std::unordered_map<std::uint64_t, BranchProfile> profiles)
{
    if (sweep.mispredictions.size() != options_.maxLength
        || sweep.minLength != options_.minLength) {
        util::fatal("restored step-1 sweep does not match the "
                    "profiler's configured length range");
    }
    sweep_ = std::move(sweep);
    profiles_ = std::move(profiles);
    step1Done_ = true;
}

CandidateSelector::CandidateSelector(
        const std::unordered_map<std::uint64_t, BranchProfile> &profiles,
        const FixedLengthSweep &sweep, unsigned candidates,
        unsigned max_length)
    : defaultLength_(sweep.bestLength())
{
    for (const auto &[pc, profile] : profiles) {
        // Rank the swept lengths by step-1 correct count, descending;
        // ties go to the shorter (cheaper-to-train) length. Lengths
        // below the sweep's minLength were never simulated and are
        // not candidates.
        std::vector<unsigned> order;
        order.reserve(max_length - sweep.minLength + 1);
        for (unsigned length = sweep.minLength; length <= max_length;
             ++length) {
            order.push_back(length);
        }
        std::stable_sort(order.begin(), order.end(),
            [&profile](unsigned a, unsigned b) {
                if (profile.correct[a - 1] != profile.correct[b - 1])
                    return profile.correct[a - 1]
                         > profile.correct[b - 1];
                return a < b;
            });

        Entry entry;
        const unsigned keep = std::min<unsigned>(
            candidates, static_cast<unsigned>(order.size()));
        entry.lengths.assign(order.begin(), order.begin() + keep);
        entry.recorded.assign(keep, untested);
        entries_.emplace(pc, std::move(entry));
    }
}

std::size_t
CandidateSelector::chooseCandidate(const Entry &entry) const
{
    // Untested candidates (recorded as "never mispredicted") are
    // always chosen before tested ones; among tested ones, take the
    // fewest mispredictions.
    std::size_t best = 0;
    for (std::size_t i = 0; i < entry.recorded.size(); ++i) {
        if (entry.recorded[i] == untested)
            return i;
        if (entry.recorded[i] < entry.recorded[best])
            best = i;
    }
    return best;
}

HashAssignment
CandidateSelector::nextAssignment() const
{
    HashAssignment assignment(defaultLength_);
    for (const auto &[pc, entry] : entries_)
        assignment.assign(pc, entry.lengths[chooseCandidate(entry)]);
    return assignment;
}

void
CandidateSelector::recordResults(
        const HashAssignment &tested,
        const std::unordered_map<std::uint64_t, std::uint64_t>
            &mispredictions)
{
    for (auto &[pc, entry] : entries_) {
        const unsigned used = tested.lookup(pc);
        const auto pos = std::find(entry.lengths.begin(),
                                   entry.lengths.end(), used);
        if (pos == entry.lengths.end())
            continue; // not one of this branch's candidates
        const std::size_t idx =
            static_cast<std::size_t>(pos - entry.lengths.begin());
        const auto it = mispredictions.find(pc);
        entry.recorded[idx] =
            it == mispredictions.end() ? 0 : it->second;
    }
}

HashAssignment
CandidateSelector::finalAssignment() const
{
    HashAssignment assignment(defaultLength_);
    for (const auto &[pc, entry] : entries_) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < entry.recorded.size(); ++i) {
            const std::uint64_t a = entry.recorded[i];
            const std::uint64_t b = entry.recorded[best];
            // An untested candidate (possible when iterations <
            // candidates) never wins over a tested one.
            if (a != untested && (b == untested || a < b))
                best = i;
        }
        assignment.assign(pc, entry.lengths[best]);
    }
    return assignment;
}

} // namespace core
} // namespace vlp
