/**
 * @file
 * The vlpsim serve daemon: an async experiment service.
 *
 * ExperimentServer accepts newline-delimited JSON connections
 * (serve/protocol.h) on a TCP-loopback or Unix-domain endpoint and
 * runs experiment requests on a fixed worker pool behind a bounded
 * priority RequestQueue:
 *
 *   accept thread ── one thread per connection ──> RequestQueue
 *                                                       │ pop()
 *                                  worker threads <─────┘
 *
 * Per-request lifecycle: a submit frame is parsed, costed, and pushed
 * through admission control — over-capacity submits are rejected with
 * an explicit 429-style frame, never buffered without bound. Admitted
 * requests carry a util::CancelToken threaded into the experiment
 * layer, so `cancel` aborts a queued request instantly and unwinds a
 * running one at its next step boundary. Results stream back to the
 * submitting connection as a versioned vlpsim-report document
 * embedded in a result frame, with progress and heartbeat events
 * while the request runs.
 *
 * Warm answers: with a cache directory configured, every request
 * opens its *own* store::ArtifactStore instance over the shared
 * directory (counters are per-instance; concurrent instances are safe
 * — PR4's atomic publishes), so the result frame's cacheHits /
 * cacheMisses attribute store activity to exactly that request, and
 * `cacheHit` marks a fully warm answer. The daemon sums those
 * counters and appends them to the cache's stats.log once, when it
 * stops, so a long-running daemon does not grow the log per request.
 * The daemon also keeps one
 * bounded trace::ContentHashMemo across requests, so a warm
 * `trace-suite` request over an unchanged corpus validates each
 * trace's header but does not re-hash its bytes.
 *
 * Shutdown: notifyShutdown() is async-signal-safe (one write to a
 * self-pipe), so the CLI's SIGTERM handler can call it directly. The
 * drain sequence rejects new submits with 503, finishes everything
 * already admitted, then tears the daemon down.
 */

#ifndef VLPSIM_SERVE_SERVER_H
#define VLPSIM_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/request_queue.h"
#include "store/artifact_store.h"
#include "trace/content_hash.h"
#include "util/socket.h"

namespace vlp {
namespace serve {

/** Daemon configuration. */
struct ServerOptions
{
    /** Listen address (TCP loopback or Unix socket path). */
    util::net::Endpoint listen;
    /** Concurrent experiment slots (requests running at once). */
    unsigned workers = 2;
    /** Clamp on a request's worker threads (0 = no clamp). */
    unsigned maxJobsPerRequest = 0;
    /** Admission-control limits. */
    QueueLimits limits;
    /** Heartbeat period for running requests (0 disables). */
    unsigned heartbeatMs = 1000;
    /** Per-send timeout on client connections: a peer that stops
     *  reading is dropped after this long (0 = block forever). */
    unsigned sendTimeoutMs = 10'000;
    /** Terminal requests kept for status queries; older ones are
     *  reaped so a long-running daemon stays bounded. */
    std::size_t finishedWindow = 256;
    /** Artifact-store directory (empty = no cache). */
    std::string cacheDirectory;
    /** Store size bound, LRU-evicted (0 = unbounded). */
    std::uint64_t cacheMaxBytes = 0;
};

/** Lifetime request counters, for status frames and tests. */
struct ServerStats
{
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
    /** Trace digests served by the hash memo instead of hashing. */
    std::uint64_t hashMemoHits = 0;
};

class ExperimentServer
{
  public:
    explicit ExperimentServer(ServerOptions options);

    /** Stops the daemon (as if by stop()) if still running. */
    ~ExperimentServer();

    ExperimentServer(const ExperimentServer &) = delete;
    ExperimentServer &operator=(const ExperimentServer &) = delete;

    /**
     * Bind the listen endpoint and start the accept and worker
     * threads. Returns once the daemon is reachable.
     * @throws std::runtime_error when binding fails
     */
    void start();

    /**
     * Block until shutdown is requested (notifyShutdown(), a client
     * `shutdown` frame, or SIGTERM wired to notifyShutdown()), then
     * drain and stop. The common daemon main loop.
     */
    void run();

    /**
     * Async-signal-safe shutdown trigger: one write to the daemon's
     * self-pipe. Safe to call from a signal handler or any thread;
     * idempotent.
     */
    void notifyShutdown() noexcept;

    /** Stop admitting new requests (503) while finishing admitted
     *  ones. Returns immediately; idempotent. */
    void requestDrain();

    /** Block until no request is queued or running. */
    void awaitIdle();

    /** Tear everything down: wake accept, close connections, join
     *  all threads. Idempotent. */
    void stop();

    /** Bound endpoint (ephemeral TCP port filled in after start()). */
    const util::net::Endpoint &endpoint() const { return local_; }

    ServerStats stats() const;

  private:
    /** One client connection; shared with workers that stream
     *  results back to it. */
    struct Connection
    {
        util::net::Socket socket;
        std::mutex writeMutex;
        /** Cleared on the first failed write; later sends are
         *  dropped (the peer is gone — requests still finish). */
        bool alive = true;

        explicit Connection(util::net::Socket s)
            : socket(std::move(s))
        {}

        /** Send one frame + '\n'; never throws. */
        void sendLine(const std::string &frame) noexcept;

        /** sendLine() body for a caller already holding writeMutex
         *  (the submit path keeps it across admission so the
         *  accepted frame beats any worker frame to the wire). */
        void sendLineLocked(const std::string &frame) noexcept;
    };

    /** One connection-serving thread plus its exit flag, so the
     *  accept loop can reap finished threads as clients come and
     *  go instead of accumulating them until stop(). */
    struct ConnectionThread
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };

    enum class State { Queued, Running, Done, Cancelled, Failed };

    static const char *describeState(State state);

    /** One admitted request's bookkeeping. */
    struct Request
    {
        std::uint64_t id = 0;
        SubmitSpec spec;
        /** Admission cost reserved in the queue. */
        std::size_t cost = 0;
        std::shared_ptr<Connection> connection;
        std::shared_ptr<util::CancelToken> cancel;
        State state = State::Queued; // guarded by registryMutex_
    };

    void acceptLoop();
    void workerLoop();
    void serveConnection(std::shared_ptr<Connection> connection);

    /** Dispatch one parsed client frame. */
    void handleFrame(const std::shared_ptr<Connection> &connection,
                     const std::string &line);
    void handleSubmit(const std::shared_ptr<Connection> &connection,
                      const util::Json &frame, std::size_t frame_bytes);
    void handleStatus(const std::shared_ptr<Connection> &connection,
                      const util::Json &frame);
    void handleCancel(const std::shared_ptr<Connection> &connection,
                      const util::Json &frame);

    /** Run one popped request on a worker thread. */
    void execute(const std::shared_ptr<Request> &request);

    /** Build the request's report (the op dispatch). */
    sim::Report runOperation(const Request &request,
                             const std::shared_ptr<store::ArtifactStore>
                                 &store,
                             std::uint64_t &predictions);

    State setState(const std::shared_ptr<Request> &request,
                   State state);

    /** Record @p request as terminal and evict the oldest terminal
     *  requests beyond options_.finishedWindow, so the registry
     *  stays bounded over the daemon's lifetime. */
    void retireRequest(const std::shared_ptr<Request> &request);

    /** Join and drop connection threads whose client disconnected
     *  (caller holds connectionsMutex_). */
    void reapConnectionThreadsLocked();

    ServerOptions options_;
    util::net::Endpoint local_;
    std::optional<util::net::ListenSocket> listen_;
    RequestQueue queue_;

    /** Self-pipe: [0] read (polled), [1] write (signal-safe). */
    int shutdownPipe_[2] = {-1, -1};

    std::thread acceptThread_;
    std::vector<std::thread> workers_;

    mutable std::mutex registryMutex_;
    std::map<std::uint64_t, std::shared_ptr<Request>> requests_;
    /** Terminal request ids, oldest first (the reaping window). */
    std::deque<std::uint64_t> finishedOrder_;
    std::uint64_t nextId_ = 1;
    ServerStats stats_;
    /** Store activity of the requests run so far, appended to
     *  stats.log by stop(). */
    store::StoreCounters storeCounters_;

    /** Trace digests shared by every trace-suite request. */
    trace::ContentHashMemo hashMemo_;

    std::mutex connectionsMutex_;
    std::vector<std::shared_ptr<Connection>> connections_;
    std::vector<ConnectionThread> connectionThreads_;

    std::mutex lifecycleMutex_;
    bool started_ = false;
    bool stopped_ = false;
};

} // namespace serve
} // namespace vlp

#endif // VLPSIM_SERVE_SERVER_H
