/**
 * @file
 * Deterministic fault injection for trace file I/O, driven by the
 * chaos switchboard (util/chaos.h).
 *
 * chaosOpener() wraps a FileOpener so every open and every ByteFile it
 * yields reaches the trace.* hazard sections. Whether a reach fires is
 * a pure function of the campaign seed, the section, the file's
 * basename and the reach count, so a fault schedule replays across
 * threads, hosts and corpus locations. Injected fault classes:
 *
 *   - trace.open.transient / trace.read.transient: the open or read
 *     throws util::TransientError — models EINTR/EAGAIN and exercises
 *     the suite runner's retry/backoff path;
 *   - trace.read.short: read() serves a prefix of the request —
 *     callers' refill loops must cope without data loss;
 *   - trace.view.refuse: view() returns nullptr — consumers must fall
 *     back to buffered reads mid-stream.
 *
 * Tests pin a schedule with a chaos Config (enabled, activate 1.0, a
 * chosen fire probability, `only` = the sections under test) and read
 * util::chaos::counters() to assert each class fired. Corruption at
 * rest (truncation, bit flips) is store::FaultyDir's job: it damages
 * real files, so every backend sees the same bytes.
 */

#ifndef VLPSIM_TRACE_FAULT_INJECTION_H
#define VLPSIM_TRACE_FAULT_INJECTION_H

#include "trace/byte_file.h"

namespace vlp {
namespace trace {

/**
 * Wrap @p inner (default: plain stdio files) so every open and every
 * ByteFile it yields consults the global chaos switchboard. Pass-
 * through — zero overhead and zero wrapping — while chaos is disabled
 * at open time.
 */
FileOpener chaosOpener(FileOpener inner);

} // namespace trace
} // namespace vlp

#endif // VLPSIM_TRACE_FAULT_INJECTION_H
