/**
 * @file
 * Workload `serve_mixed`: closed-loop multi-tenant serving on the real
 * backend through the localhost TcpFrontEnd at CkksParams::unitTest()
 * (N = 2^10). Three persistent client connections (fewer when the host
 * has fewer cores) each repeat a round of six requests: EvalMul, a
 * hoisted two-step Rotate, MatVec against a shared server-registered
 * layer, EvalAdd, and a Put followed by a Get of the same name. Tenants
 * are drawn Zipf(1.1) over 16 tenants. The key-cache budget holds fewer
 * expanded keys than the tenants use, so keys are evicted and
 * re-expanded, but always at least the keys one batch can pin, so it
 * never overcommits (which would let the governor change the stream
 * policy mid-run).
 *
 * Each client thread owns its encoder, encryptors and decryptors, and
 * times each request from encoding to decoded response; every response
 * is decrypted with the tenant's key and compared with the plaintext
 * result computed here. One operation is one request.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <latch>
#include <random>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.h"
#include "checks.h"
#include "ckks/serialize.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace perfbench {

namespace {

using namespace madfhe;

constexpr size_t kTenants = 16;
constexpr size_t kMaxClients = 3;
constexpr double kZipfS = 1.1;
constexpr double kServeTol = 1e-4;
const std::vector<int> kRotateSteps = {1, 2};

enum class Step
{
    Mul,
    Rotate,
    MatVec,
    Add,
    Put,
    Get
};
constexpr Step kRound[] = {Step::Mul, Step::Rotate, Step::MatVec,
                           Step::Add, Step::Put,    Step::Get};

// --- framing: u64 length prefix + frame, as serve/tcp.cpp speaks it -----

bool
sendAll(int fd, const void* buf, size_t len)
{
    const char* p = static_cast<const char*>(buf);
    while (len > 0) {
        const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

bool
recvAll(int fd, void* buf, size_t len)
{
    char* p = static_cast<char*>(buf);
    while (len > 0) {
        const ssize_t n = ::recv(fd, p, len, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

bool
roundTrip(int fd, const std::string& frame, std::string& reply)
{
    const uint64_t len = frame.size();
    if (!sendAll(fd, &len, sizeof(len)) ||
        !sendAll(fd, frame.data(), frame.size()))
        return false;
    uint64_t rlen = 0;
    if (!recvAll(fd, &rlen, sizeof(rlen)) || rlen > (256ULL << 20))
        return false;
    reply.resize(rlen);
    return recvAll(fd, reply.data(), rlen);
}

int
connectLocal(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        throw std::runtime_error("connect() to the front end failed");
    }
    return fd;
}

/** True when nothing listens on the port any more. */
bool
portReleased(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    return ok;
}

std::string
ciphertextBytes(const Ciphertext& ct)
{
    std::ostringstream os;
    saveCiphertext(os, ct);
    return os.str();
}

/** Zipf(s) over ranks [0, n): precomputed CDF + binary search. */
class Zipf
{
  public:
    Zipf(size_t n, double s)
    {
        double total = 0;
        for (size_t r = 0; r < n; ++r)
            cdf.push_back(total += 1.0 / std::pow(static_cast<double>(r + 1), s));
        for (double& c : cdf)
            c /= total;
    }

    size_t
    operator()(std::mt19937_64& rng) const
    {
        const double u = std::uniform_real_distribution<double>(0, 1)(rng);
        const size_t i = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        return std::min(i, cdf.size() - 1);
    }

  private:
    std::vector<double> cdf;
};

/** One client's view of one tenant: its own keys' crypto objects,
 *  encrypted operands and the plaintext results they must produce. */
struct ClientTenant
{
    u64 id = 0;
    std::unique_ptr<Encryptor> encryptor;
    std::unique_ptr<Decryptor> decryptor;
    Ciphertext x, y;
    std::vector<double> want_mul, want_add, want_matvec;
    std::vector<std::vector<double>> want_rot;
    std::vector<double> put_values;
    std::string stored; ///< bytes of the last ciphertext Put
};

struct Client
{
    size_t index = 0;
    int fd = -1;
    std::unique_ptr<CkksEncoder> encoder;
    std::vector<ClientTenant> tenants;
    std::mt19937_64 rng;
    u64 next_id = 0;
    bool measuring = false;
    std::vector<double> latency_s, codec_s;
    std::vector<uint64_t> attempted_ids, answered_ids;
    uint64_t failed = 0;
    std::vector<std::string> wrong;
    double worst_error = 0.0;
};

struct ServeRig
{
    std::shared_ptr<CkksContext> ctx;
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<serve::TcpFrontEnd> front;
    std::vector<Client> clients;
    std::map<int, std::vector<double>> layer;
    Zipf zipf{kTenants, kZipfS};
    // Tenant 0's keys, kept for the primitive sweep.
    SecretKey sk0;
    PublicKey pk0;
    SwitchingKey rlk0;
    GaloisKeys gks0;
    std::unique_ptr<LinearTransform> layer_transform;
    double galois_keygen_s = 0.0;

    ServeRig(uint64_t seed, size_t nclients)
    {
        ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
        const size_t slots = ctx->slots();
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<double> u(-1.0, 1.0);

        std::map<int, std::vector<std::complex<double>>> diags;
        for (int d = 0; d < 4; ++d) {
            layer[d].resize(slots);
            diags[d].resize(slots);
            for (size_t k = 0; k < slots; ++k) {
                layer[d][k] = 0.5 * u(rng);
                diags[d][k] = {layer[d][k], 0.0};
            }
        }
        layer_transform =
            std::make_unique<LinearTransform>(ctx, diags, ctx->scale());
        std::vector<int> steps = kRotateSteps;
        for (int s : layer_transform->requiredRotations())
            if (s != 0 && std::find(steps.begin(), steps.end(), s) == steps.end())
                steps.push_back(s);

        KeyGenerator keygen(ctx);
        std::vector<SecretKey> sks;
        std::vector<serve::TenantKeys> keys(kTenants);
        for (size_t t = 0; t < kTenants; ++t) {
            sks.push_back(keygen.secretKey());
            keys[t].pk = keygen.publicKey(sks[t]);
            keys[t].rlk = keygen.relinKey(sks[t]);
            const auto t0 = Clock::now();
            keys[t].gks = keygen.galoisKeys(sks[t], steps);
            galois_keygen_s += secondsSince(t0);
        }
        sk0 = sks[0];
        pk0 = keys[0].pk;
        rlk0 = keys[0].rlk;
        gks0 = keys[0].gks;

        // One batch pins at most two Galois keys per client; leave two
        // more of room. 16 tenants use 16 * (1 + steps) keys.
        serve::ServerOptions opts;
        opts.backend = BackendKind::Real;
        opts.keycache_bytes = (2 * nclients + 2) * keys[0].rlk.aBytes();
        server = std::make_unique<serve::Server>(ctx, opts);
        server->registerTransform("layer", *layer_transform);
        std::vector<PublicKey> pks;
        std::vector<u64> ids;
        for (size_t t = 0; t < kTenants; ++t) {
            pks.push_back(keys[t].pk);
            ids.push_back(server->addTenant(std::move(keys[t])));
        }

        clients.resize(nclients);
        for (size_t c = 0; c < nclients; ++c) {
            Client& cl = clients[c];
            cl.index = c;
            cl.rng.seed(seed * 7919 + c);
            cl.encoder = std::make_unique<CkksEncoder>(ctx);
            cl.next_id = (static_cast<u64>(c) + 1) << 40;
            for (size_t t = 0; t < kTenants; ++t) {
                ClientTenant ct;
                ct.id = ids[t];
                ct.encryptor = std::make_unique<Encryptor>(
                    ctx, pks[t], seed * 131 + c * kTenants + t);
                ct.decryptor = std::make_unique<Decryptor>(ctx, sks[t]);
                std::vector<double> xv(slots), yv(slots);
                for (size_t k = 0; k < slots; ++k) {
                    xv[k] = u(rng);
                    yv[k] = u(rng);
                }
                ct.put_values.resize(slots);
                for (double& v : ct.put_values)
                    v = u(rng);
                const size_t top = ctx->maxLevel();
                ct.x = ct.encryptor->encrypt(
                    cl.encoder->encodeReal(xv, ctx->scale(), top));
                ct.y = ct.encryptor->encrypt(
                    cl.encoder->encodeReal(yv, ctx->scale(), top));
                ct.want_mul = mulSlots(xv, yv);
                ct.want_add = addSlots(xv, yv);
                ct.want_matvec = diagonalMatVec(layer, xv);
                for (int s : kRotateSteps)
                    ct.want_rot.push_back(rotateSlots(xv, s));
                cl.tenants.push_back(std::move(ct));
            }
        }
        front = std::make_unique<serve::TcpFrontEnd>(*server, 0);
        for (Client& cl : clients)
            cl.fd = connectLocal(front->port());
    }

    std::vector<double>
    decrypt(Client& cl, ClientTenant& t, const Ciphertext& ct)
    {
        const Slots s = cl.encoder->decode(t.decryptor->decrypt(ct));
        std::vector<double> v(s.size());
        for (size_t k = 0; k < s.size(); ++k)
            v[k] = s[k].real();
        return v;
    }

    /** Check one successful response; returns an error text or "". */
    std::string
    check(Client& cl, ClientTenant& t, Step step, const serve::Response& resp)
    {
        const size_t want_cts = step == Step::Rotate ? kRotateSteps.size()
                                : step == Step::Put  ? 0
                                                     : 1;
        if (resp.cts.size() != want_cts)
            return "wrong ciphertext count";
        const auto near = [&](const Ciphertext& ct,
                              const std::vector<double>& want) {
            const std::vector<double> got = decrypt(cl, t, ct);
            cl.worst_error = std::max(cl.worst_error, maxAbsError(got, want));
            return slotsOk(got, want, kServeTol);
        };
        switch (step) {
        case Step::Mul:
            return near(resp.cts[0], t.want_mul) ? "" : "EvalMul result";
        case Step::Add:
            return near(resp.cts[0], t.want_add) ? "" : "EvalAdd result";
        case Step::MatVec:
            return near(resp.cts[0], t.want_matvec) ? "" : "MatVec result";
        case Step::Rotate:
            for (size_t i = 0; i < kRotateSteps.size(); ++i)
                if (!near(resp.cts[i], t.want_rot[i]))
                    return "Rotate result";
            return "";
        case Step::Put:
            return "";
        case Step::Get:
            return sameBytes(ciphertextBytes(resp.cts[0]), t.stored)
                       ? ""
                       : "Get returned other bytes than Put stored";
        }
        return "unknown step";
    }

    /** One request on the client's connection. False: connection lost. */
    bool
    request(Client& cl, ClientTenant& t, Step step)
    {
        serve::Request req;
        req.tenant = t.id;
        req.id = cl.next_id++;
        switch (step) {
        case Step::Mul:
            req.op = serve::Op::EvalMul;
            req.cts = {t.x, t.y};
            break;
        case Step::Rotate:
            req.op = serve::Op::Rotate;
            req.steps = kRotateSteps;
            req.cts = {t.x};
            break;
        case Step::MatVec:
            req.op = serve::Op::MatVec;
            req.name = "layer";
            req.cts = {t.x};
            break;
        case Step::Add:
            req.op = serve::Op::EvalAdd;
            req.cts = {t.x, t.y};
            break;
        case Step::Put: {
            req.op = serve::Op::Put;
            req.name = "c" + std::to_string(cl.index);
            Ciphertext fresh = t.encryptor->encrypt(cl.encoder->encodeReal(
                t.put_values, ctx->scale(), ctx->maxLevel()));
            t.stored = ciphertextBytes(fresh);
            req.cts = {std::move(fresh)};
            break;
        }
        case Step::Get:
            req.op = serve::Op::Get;
            req.name = "c" + std::to_string(cl.index);
            break;
        }
        cl.attempted_ids.push_back(req.id);

        const auto t0 = Clock::now();
        const std::string frame = serve::encodeRequest(req);
        const auto t1 = Clock::now();
        std::string reply;
        if (!roundTrip(cl.fd, frame, reply)) {
            ++cl.failed;
            cl.wrong.push_back("connection lost");
            return false;
        }
        const auto t2 = Clock::now();
        const serve::Response resp = serve::decodeResponse(reply, ctx->ring());
        const auto t3 = Clock::now();
        cl.answered_ids.push_back(resp.id);
        if (cl.measuring) {
            cl.latency_s.push_back(
                std::chrono::duration<double>(t3 - t0).count());
            cl.codec_s.push_back(
                std::chrono::duration<double>((t1 - t0) + (t3 - t2)).count());
        }
        if (!resp.ok) {
            ++cl.failed;
            std::fprintf(stderr, "perfbench: request failed: %s\n",
                         resp.error.c_str());
            return true;
        }
        const std::string err = check(cl, t, step, resp);
        if (!err.empty())
            cl.wrong.push_back(err + " (tenant " + std::to_string(t.id) + ")");
        return true;
    }

    /** One round of the six requests. False: connection lost. */
    bool
    round(Client& cl)
    {
        ClientTenant* put_tenant = nullptr;
        for (Step step : kRound) {
            ClientTenant& t = step == Step::Get && put_tenant
                                  ? *put_tenant
                                  : cl.tenants[zipf(cl.rng)];
            if (step == Step::Put)
                put_tenant = &t;
            if (!request(cl, t, step))
                return false;
        }
        return true;
    }

    /** The six requests of a round, all for tenant `t`. */
    bool
    fixedRound(Client& cl, ClientTenant& t)
    {
        for (Step step : kRound)
            if (!request(cl, t, step))
                return false;
        return true;
    }

    /**
     * Raw memtrace flow of one round for client 0's first tenant on a
     * fresh connection, after the clients have stopped. The round runs
     * twice and memtrace records the second, so the tenant's keys are
     * resident and the count repeats exactly.
     */
    double
    tracedRound()
    {
        Client& cl = clients.at(0);
        ClientTenant& t = cl.tenants.at(0);
        cl.measuring = false;
        double bytes = 0.0;
        try {
            cl.fd = connectLocal(front->port());
            if (fixedRound(cl, t))
                bytes = tracedBytes([&] { fixedRound(cl, t); });
        } catch (const std::exception& e) {
            ++cl.failed;
            cl.wrong.push_back(e.what());
        }
        if (cl.fd >= 0) {
            ::shutdown(cl.fd, SHUT_RDWR);
            ::close(cl.fd);
            cl.fd = -1;
        }
        return bytes;
    }
};

struct SpanTotals
{
    u64 requests = 0;
    double exec_s = 0.0;
    u64 batches = 0;
};

SpanTotals
serveSpans()
{
    SpanTotals s;
    const telemetry::Snapshot snap = telemetry::snapshot();
    for (const auto& row : snap.spans) {
        if (row.depth == 1 && row.path.rfind("tenant-", 0) == 0) {
            s.requests += row.count;
            s.exec_s += row.total_ns / 1e9;
        } else if (row.path == "Serve.Batch") {
            s.batches += row.count;
        }
    }
    return s;
}

} // namespace

Report
runServeMixed(const Args& args)
{
    Report r;
    const size_t nclients = std::clamp<size_t>(
        std::thread::hardware_concurrency(), 1, kMaxClients);
    ServeRig rig(args.seed, nclients);

    // Each client runs one untimed warm-up round, then all start the
    // measured phase together; main stops them after --seconds.
    std::latch warmed(static_cast<std::ptrdiff_t>(nclients) + 1);
    std::latch go(1);
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (Client& cl : rig.clients) {
        threads.emplace_back([&rig, &cl, &warmed, &go, &stop] {
            // A throw (undecodable reply, failed decryption) ends this
            // client; it counts as a failed request and a wrong output.
            const auto guarded = [&cl](auto&& fn) {
                try {
                    return fn();
                } catch (const std::exception& e) {
                    ++cl.failed;
                    cl.wrong.push_back(e.what());
                    return false;
                }
            };
            bool alive = guarded([&] { return rig.round(cl); });
            warmed.count_down();
            go.wait();
            cl.measuring = true;
            while (alive && !stop.load())
                alive = guarded([&] { return rig.round(cl); });
            ::shutdown(cl.fd, SHUT_RDWR);
            ::close(cl.fd);
            cl.fd = -1;
        });
    }
    warmed.arrive_and_wait();
    const double setup_s = sinceProcessStart();
    const serve::KeyCache::Stats before = rig.server->keyCacheStats();
    if (args.trace) {
        telemetry::setLevel(telemetry::Level::Spans);
        telemetry::resetAll();
    }
    const auto start = Clock::now();
    go.count_down();
    std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
    stop.store(true);
    for (std::thread& t : threads)
        t.join();
    const double window_s = secondsSince(start);
    const SpanTotals spans = args.trace ? serveSpans() : SpanTotals{};
    telemetry::setLevel(telemetry::Level::Off);
    const serve::KeyCache::Stats after = rig.server->keyCacheStats();
    const double traced = args.trace ? 0.0 : rig.tracedRound();

    // Clean stop: front end, then server; no connection or port left.
    const uint16_t port = rig.front->port();
    rig.front->stop();
    const size_t live = rig.front->liveConnections();
    rig.server->stop();
    if (live != 0 || !portReleased(port))
        r.wrong("front end left a connection or its port behind");
    if (after.overcommits != 0)
        r.wrong("key cache overcommitted; the stream policy was degraded");

    std::vector<double> latency, codec;
    for (Client& cl : rig.clients) {
        r.attempted += cl.attempted_ids.size();
        r.failed += cl.failed;
        r.seen(cl.worst_error);
        for (const std::string& w : cl.wrong)
            r.wrong(w);
        if (!oneResponseEach(cl.attempted_ids, cl.answered_ids))
            r.wrong("a request did not get exactly one response");
        latency.insert(latency.end(), cl.latency_s.begin(), cl.latency_s.end());
        codec.insert(codec.end(), cl.codec_s.begin(), cl.codec_s.end());
    }
    std::fprintf(stderr,
                 "perfbench: %zu clients, %zu measured requests in %.2f s; "
                 "key cache %llu hits, %llu misses, %llu evictions\n",
                 nclients, latency.size(), window_s,
                 static_cast<unsigned long long>(after.hits - before.hits),
                 static_cast<unsigned long long>(after.misses - before.misses),
                 static_cast<unsigned long long>(after.evictions -
                                                 before.evictions));

    if (!args.trace) {
        addEndToEnd(r, quantile(latency, 0.50),
                    static_cast<double>(latency.size()) / window_s, traced,
                    setup_s);
        std::fprintf(stderr, "perfbench: request latency p99 %.3f ms\n",
                     quantile(latency, 0.99) * 1e3);
        return r;
    }

    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    const double requests = static_cast<double>(latency.size());
    double mean_latency = 0.0;
    for (double v : latency)
        mean_latency += v / requests;
    const double exec_mean =
        spans.requests ? spans.exec_s / static_cast<double>(spans.requests)
                       : 0.0;
    r.add("serve.keycache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    r.add("serve.keycache_misses", misses / requests, "1/req");
    r.add("serve.keycache_evictions",
          static_cast<double>(after.evictions - before.evictions) / requests,
          "1/req");
    r.add("serve.codec_us", median(codec) * 1e6, "us");
    r.add("serve.exec_ms", exec_mean * 1e3, "ms");
    r.add("serve.wait_ms", (mean_latency - exec_mean) * 1e3, "ms");
    r.add("serve.batch_mean",
          spans.batches ? static_cast<double>(spans.requests) /
                              static_cast<double>(spans.batches)
                        : 0.0,
          "count");
    if (!args.sweep)
        return r;
    r.add("ckks.galois_keygen_s", rig.galois_keygen_s, "s");

    // Primitive sweep at the serving parameters with tenant 0's keys.
    Encryptor enc(rig.ctx, rig.pk0, args.seed);
    CkksEncoder encoder(rig.ctx);
    const Ciphertext mv_in = enc.encrypt(encoder.encodeReal(
        std::vector<double>(rig.ctx->slots(), 0.25), rig.ctx->scale(),
        rig.ctx->maxLevel()));
    PrimitiveSetup ps;
    ps.ctx = rig.ctx;
    ps.pk = &rig.pk0;
    ps.sk = &rig.sk0;
    ps.rlk = &rig.rlk0;
    ps.gks = &rig.gks0;
    ps.steps = kRotateSteps;
    ps.matvec = rig.layer_transform.get();
    ps.matvec_ctx = rig.ctx;
    ps.matvec_input = &mv_in;
    ps.matvec_gks = &rig.gks0;
    ps.seed = args.seed;
    primitiveLayers(ps, r);
    return r;
}

} // namespace perfbench
