/**
 * @file
 * Server: the multi-tenant encrypted-serving runtime.
 *
 * Requests enter either as structs (submit) or as checksummed wire
 * frames (submitFrame, the path the TCP front end uses) and are queued
 * to a dispatcher thread. The dispatcher groups adjacent compatible
 * requests into batches (see batcher.h) and executes each batch as one
 * evaluator pass: the switching keys every item needs are pinned
 * expanded once per (tenant, batch) through the shared KeyCache, then
 * the items fan out across the existing threadpool. While a batch
 * executes, the next one accumulates — the classic batch-while-busy
 * pipeline — so decode/queueing overlaps evaluation.
 *
 * Every per-request computation is a pure function of (request,
 * session state): evaluator ops are deterministic and server-side
 * encryption derives its randomness from (tenant, request id), so a
 * batched run is byte-identical to the same requests executed
 * sequentially against a bare Evaluator, whatever the batch shapes.
 *
 * Observability/robustness: each batch runs under a "Serve.Batch" span,
 * and each request under its own root-level "tenant-N/<Op>" span path
 * (a tenant span with the op as its child, detached from the batch
 * span so the path is the same inline or on a pool worker), with
 * per-tenant request/error/latency metrics; failures are caught per
 * item, classified (ErrorKind), and returned as error responses — a
 * hostile frame or an injected fault never takes the server down.
 *
 * Overload resilience (see DESIGN.md "Robustness model"): every request
 * carries a monotonic deadline (its own deadline_ms, else
 * MADFHE_DEADLINE_MS) checked at dispatch; admission is bounded by an
 * OverloadGovernor (global/per-tenant queue depth, per-tenant circuit
 * breaker) which sheds the earliest-deadline queued request as a typed
 * Overloaded rejection when the global queue is full; transient
 * failures (injected faults, detected corruption) are retried
 * server-side under MADFHE_RETRY — deterministic execution makes a
 * retried success byte-identical to a fault-free run; and sustained
 * key-cache overcommit steps a degrade level down (stream policy cap +
 * batch shrink + proactive eviction) instead of failing requests.
 */
#ifndef MADFHE_SERVE_SERVER_H
#define MADFHE_SERVE_SERVER_H

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "ckks/backend.h"
#include "ckks/matvec.h"
#include "serve/batcher.h"
#include "serve/governor.h"
#include "serve/session.h"

namespace madfhe {
namespace serve {

struct ServerOptions
{
    /** Key-cache byte budget; nullopt reads MADFHE_KEYCACHE_BYTES
     *  (0 / unset = unlimited). */
    std::optional<size_t> keycache_bytes;
    /** Batch size cap; nullopt reads MADFHE_BATCH_MAX (default 8). */
    std::optional<size_t> max_batch;
    /** Deadline applied to requests that carry none; nullopt reads
     *  MADFHE_DEADLINE_MS (0 / unset = no deadline). */
    std::optional<u64> default_deadline_ms;
    /** Server-side retry policy for transient failures; nullopt reads
     *  MADFHE_RETRY (default 1 attempt = no retries). */
    std::optional<resilience::RetryPolicy> retry;
    /** Admission control + degradation policy; nullopt reads the
     *  MADFHE_QUEUE_DEPTH / MADFHE_TENANT_QUEUE_DEPTH / MADFHE_BREAKER
     *  knobs. */
    std::optional<GovernorOptions> governor;
    /** Evaluation backend; nullopt reads MADFHE_BACKEND (default real).
     *  The virtual backend serves the same op surface on plaintext
     *  carriers with SimFHE-predicted cost accounting (tools/loadgen). */
    std::optional<BackendKind> backend;
};

class Server
{
  public:
    explicit Server(std::shared_ptr<const CkksContext> ctx,
                    ServerOptions options = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    const CkksContext& context() const { return *ctx; }
    std::shared_ptr<const RingContext> ring() const { return ctx->ring(); }

    /** Register a tenant; returns its id. Keys may be compressed. */
    u64 addTenant(TenantKeys keys);
    /** Remove a tenant. Must not be called with its requests in flight. */
    void removeTenant(u64 tenant);

    /** Register a server-hosted linear transform MatVec requests can
     *  reference by name (e.g. a model layer shared by all tenants). */
    void registerTransform(const std::string& name, LinearTransform t);
    /** Rotation steps tenants need Galois keys for to use `name`. */
    std::vector<int> transformRotations(const std::string& name) const;

    /** Enqueue one request; the future resolves when its batch ran. */
    std::future<Response> submit(Request req);

    /** Decode a wire frame (serve.decode fault site) and enqueue it.
     *  Decode failures resolve immediately as error responses. */
    std::future<Response> submitFrame(const std::string& frame);

    /** Block until every submitted request has been answered. */
    void drain();

    /** Stop the dispatcher after draining pending requests. Called by
     *  the destructor; new submissions are rejected afterwards. */
    void stop();

    KeyCache::Stats keyCacheStats() const { return cache.stats(); }

    /** The evaluation backend requests execute on (real or virtual). */
    const EvalBackend& backend() const { return *backend_; }

    /** Admission/degradation state — for tests and telemetry export. */
    OverloadGovernor& governor() { return governor_; }
    const OverloadGovernor& governor() const { return governor_; }

    /**
     * Deterministic per-request encryption seed: server-side Encrypt
     * uses randomness derived from (tenant, request id), never from
     * execution order, so batching cannot change results.
     */
    static u64 encryptionSeedFor(u64 tenant, u64 request_id);

  private:
    void dispatchLoop();
    void executeBatch(Batch& batch);
    void execItem(PendingRequest& item, Session& session);
    Response executeOne(Session& session, const Request& req);
    /** `executed` false for shed / deadline-expired items that never
     *  ran: they resolve and count like failures but must not move the
     *  tenant's circuit breaker. */
    void finish(PendingRequest& item, Session* session, Response resp,
                u64 t0_ns, bool executed = true);
    /** Immediately-resolved rejection (admission denied / decode
     *  failed); counts serve.requests + serve.errors, never enqueued. */
    std::future<Response> rejectedFuture(u64 id, ErrorKind kind,
                                         std::string message);
    /** Resolve a queued request pulled out by overload shedding. */
    void resolveShed(PendingRequest victim);
    /** Sleep before retry `attempt`, capped by the remaining deadline.
     *  Returns false (and does not sleep) when the budget is gone. */
    bool backoffWithinDeadline(u32 attempt, u64 deadline_ns);
    std::shared_ptr<Session> sessionFor(u64 tenant) const;

    std::shared_ptr<const CkksContext> ctx;
    std::unique_ptr<EvalBackend> backend_;
    KeyCache cache;
    Batcher batcher;
    OverloadGovernor governor_;
    resilience::RetryPolicy retry;
    u64 default_deadline_ms = 0;

    mutable std::mutex sessions_mu;
    std::unordered_map<u64, std::shared_ptr<Session>> sessions;
    u64 next_tenant = 1;

    mutable std::mutex transforms_mu;
    std::map<std::string, LinearTransform> transforms;

    std::mutex drain_mu;
    std::condition_variable drained;
    u64 submitted = 0; ///< guarded by drain_mu
    std::atomic<u64> completed{0};

    telemetry::Counter& req_counter;
    telemetry::Counter& err_counter;
    telemetry::Histogram& lat_hist;

    std::atomic<bool> stopping{false};
    std::thread dispatcher;
};

} // namespace serve
} // namespace madfhe

#endif // MADFHE_SERVE_SERVER_H
