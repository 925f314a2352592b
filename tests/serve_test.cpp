/**
 * @file
 * Tests for the multi-tenant serving runtime: batched-vs-sequential
 * result-digest identity (bytes on the real backend, carried values on
 * the virtual one), key-cache LRU/budget behavior, eviction transparency,
 * tenant isolation, wire-frame robustness, and the TCP front end.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ckks/serialize.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "support/faultinject.h"
#include "support/resilience.h"
#include "test_util.h"
#include "virtual/backend.h"

namespace madfhe {
namespace {

using namespace serve;

std::string
ctBytes(const Ciphertext& ct)
{
    std::ostringstream os;
    saveCiphertext(os, ct);
    return os.str();
}

std::string
kskBytes(const SwitchingKey& key)
{
    std::ostringstream os;
    saveSwitchingKey(os, key);
    return os.str();
}

/** One tenant's client-side material, mirroring what the server holds. */
struct Tenant
{
    SecretKey sk;
    TenantKeys keys; ///< the copy registered with the server
    SwitchingKey rlk_expanded;
    GaloisKeys gks_expanded;
};

class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::resetAll();
        telemetry::setLevel(telemetry::Level::Counters);
        ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
        encoder = std::make_unique<CkksEncoder>(ctx);
        eval = std::make_unique<Evaluator>(ctx);
    }

    void
    TearDown() override
    {
        telemetry::setLevel(telemetry::Level::Off);
    }

    /** Distinct tenants from one generator (its sampler is stateful). */
    Tenant
    makeTenant(KeyGenerator& keygen, const std::vector<int>& rot_steps)
    {
        Tenant t;
        t.sk = keygen.secretKey();
        t.keys.pk = keygen.publicKey(t.sk);
        t.keys.rlk = keygen.relinKey(t.sk);
        t.keys.gks = keygen.galoisKeys(t.sk, rot_steps);
        t.keys.sk = t.sk;
        t.rlk_expanded = t.keys.rlk;
        t.gks_expanded = t.keys.gks;
        return t;
    }

    Ciphertext
    encryptFor(const Tenant& t, const std::vector<double>& values, u64 seed)
    {
        const Plaintext pt =
            encoder->encodeReal(values, ctx->scale(), ctx->maxLevel());
        Encryptor enc(ctx, t.keys.pk, seed);
        return enc.encrypt(pt);
    }

    std::shared_ptr<CkksContext> ctx;
    std::unique_ptr<CkksEncoder> encoder;
    std::unique_ptr<Evaluator> eval;
};

// --- acceptance: batched == sequential, digests included ------------------

TEST_F(ServeTest, FourTenantBatchedMatchesSequential)
{
    const std::vector<int> steps{1, 3};
    KeyGenerator keygen(ctx);
    std::vector<Tenant> tenants;
    for (int i = 0; i < 4; ++i)
        tenants.push_back(makeTenant(keygen, steps));

    // Budget sized so the four rlks (or four rotation keys) of one
    // coalesced batch fit pinned together, but the full working set
    // (4 tenants x 3 switching keys) does not — evictions must happen
    // and must stay invisible.
    const size_t key_bytes = tenants[0].keys.rlk.aBytes();
    ServerOptions opts;
    opts.keycache_bytes = 9 * key_bytes;
    opts.max_batch = 8;
    Server server(ctx, opts);

    std::vector<u64> ids;
    for (auto& t : tenants) {
        TenantKeys reg = t.keys; // keep the client-side copy expanded
        ids.push_back(server.addTenant(std::move(reg)));
    }

    // Per tenant: Put x, Encrypt v, EvalAdd(stored x, fresh), EvalMul,
    // Rotate{1,3} — submitted interleaved across tenants so the batcher
    // coalesces per-op runs spanning all four tenants.
    struct PerTenant
    {
        std::vector<double> v;
        Ciphertext x, y;
    };
    std::vector<PerTenant> in(4);
    for (size_t i = 0; i < 4; ++i) {
        in[i].v = test::randomReals(ctx->slots(), 100 + i);
        in[i].x = encryptFor(tenants[i], test::randomReals(ctx->slots(), i),
                             7000 + i);
        in[i].y = encryptFor(tenants[i], in[i].v, 8000 + i);
    }

    u64 next_id = 1;
    std::vector<std::future<Response>> futs;
    auto submit = [&](size_t i, Op op, Request req) {
        const u64 rid = next_id++;
        req.tenant = ids[i];
        req.id = rid;
        req.op = op;
        futs.push_back(server.submit(std::move(req)));
        return rid;
    };

    std::vector<u64> encrypt_ids(4);
    for (size_t i = 0; i < 4; ++i) {
        Request put;
        put.name = "x";
        put.cts = {in[i].x};
        submit(i, Op::Put, std::move(put));
    }
    for (size_t i = 0; i < 4; ++i) {
        Request enc;
        enc.values = in[i].v;
        encrypt_ids[i] = submit(i, Op::Encrypt, std::move(enc));
    }
    for (size_t i = 0; i < 4; ++i) {
        Request add;
        add.name = "x";
        add.cts = {in[i].y};
        submit(i, Op::EvalAdd, std::move(add));
    }
    for (size_t i = 0; i < 4; ++i) {
        Request mul;
        mul.cts = {in[i].x, in[i].y};
        submit(i, Op::EvalMul, std::move(mul));
    }
    for (size_t i = 0; i < 4; ++i) {
        Request rot;
        rot.steps = steps;
        rot.cts = {in[i].x};
        submit(i, Op::Rotate, std::move(rot));
    }
    server.drain();

    std::vector<Response> got;
    for (auto& f : futs)
        got.push_back(f.get());
    for (const Response& r : got)
        ASSERT_TRUE(r.ok) << r.error;

    // Sequential reference: same requests against a bare Evaluator with
    // the tenants' (never-compressed) client-side keys and the same
    // deterministic per-request encryption seeds. Identity is checked
    // through the backend's resultDigest — the determinism contract the
    // backend seam exposes (serialized bytes here on the real backend) —
    // so the same assertions hold verbatim in virtual mode below.
    const EvalBackend& be = server.backend();
    auto digest = [&](const Ciphertext& ct) { return be.resultDigest(ct); };
    for (size_t i = 0; i < 4; ++i) {
        const Tenant& t = tenants[i];
        const Ciphertext enc_ref = encryptFor(
            t, in[i].v, Server::encryptionSeedFor(ids[i], encrypt_ids[i]));
        EXPECT_EQ(digest(got[4 + i].cts[0]), digest(enc_ref));

        const Ciphertext add_ref = eval->addAligned(in[i].x, in[i].y);
        EXPECT_EQ(digest(got[8 + i].cts[0]), digest(add_ref));

        const Ciphertext mul_ref =
            eval->mul(in[i].x, in[i].y, t.rlk_expanded);
        EXPECT_EQ(digest(got[12 + i].cts[0]), digest(mul_ref));

        const std::vector<Ciphertext> rot_ref =
            eval->rotateHoisted(in[i].x, steps, t.gks_expanded);
        ASSERT_EQ(got[16 + i].cts.size(), rot_ref.size());
        for (size_t k = 0; k < rot_ref.size(); ++k)
            EXPECT_EQ(digest(got[16 + i].cts[k]), digest(rot_ref[k]));
    }

    // The cache honored its budget (the counter-backed acceptance
    // criterion) and actually had to evict to do so.
    const KeyCache::Stats stats = server.keyCacheStats();
    EXPECT_EQ(stats.budget_bytes, 9 * key_bytes);
    EXPECT_LE(stats.peak_bytes, stats.budget_bytes);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(stats.overcommits, 0u);
    EXPECT_EQ(stats.entries, 4 * 3u);

    // Per-tenant attribution: every tenant shows its own request count.
    for (u64 id : ids) {
        const std::string base = "serve.tenant." + std::to_string(id);
        EXPECT_EQ(telemetry::counter(base + ".requests").value(), 5u);
        EXPECT_EQ(telemetry::counter(base + ".errors").value(), 0u);
        EXPECT_EQ(
            telemetry::histogram(base + ".latency_ns").snapshot().count, 5u);
    }
    EXPECT_EQ(telemetry::counter("serve.requests").value(), 20u);
    EXPECT_GT(telemetry::counter("serve.batch.coalesced").value(), 0u);
}

/**
 * The same batched-vs-sequential acceptance in virtual mode: the digest
 * seam validates value identity against a bare VirtualBackend reference
 * instead of silently skipping when bytes can't be compared. Operands
 * come from the backend itself — a virtual server rejects real
 * client-encrypted ciphertexts by design.
 */
TEST_F(ServeTest, FourTenantBatchedMatchesSequentialVirtual)
{
    const std::vector<int> steps{1, 3};
    KeyGenerator keygen(ctx);
    std::vector<Tenant> tenants;
    for (int i = 0; i < 4; ++i)
        tenants.push_back(makeTenant(keygen, steps));

    const size_t key_bytes = tenants[0].keys.rlk.aBytes();
    ServerOptions opts;
    opts.keycache_bytes = 9 * key_bytes;
    opts.max_batch = 8;
    opts.backend = BackendKind::Virtual;
    Server server(ctx, opts);
    ASSERT_EQ(server.backend().kind(), BackendKind::Virtual);

    const vbackend::VirtualBackend ref(ctx);

    std::vector<u64> ids;
    for (auto& t : tenants) {
        TenantKeys reg = t.keys;
        ids.push_back(server.addTenant(std::move(reg)));
    }

    struct PerTenant
    {
        std::vector<double> v;
        Ciphertext x, y;
    };
    std::vector<PerTenant> in(4);
    for (size_t i = 0; i < 4; ++i) {
        in[i].v = test::randomReals(ctx->slots(), 100 + i);
        in[i].x = ref.encryptReal(tenants[i].keys.pk,
                                  test::randomReals(ctx->slots(), i),
                                  7000 + i);
        in[i].y = ref.encryptReal(tenants[i].keys.pk, in[i].v, 8000 + i);
    }

    u64 next_id = 1;
    std::vector<std::future<Response>> futs;
    auto submit = [&](size_t i, Op op, Request req) {
        const u64 rid = next_id++;
        req.tenant = ids[i];
        req.id = rid;
        req.op = op;
        futs.push_back(server.submit(std::move(req)));
        return rid;
    };

    std::vector<u64> encrypt_ids(4);
    for (size_t i = 0; i < 4; ++i) {
        Request put;
        put.name = "x";
        put.cts = {in[i].x};
        submit(i, Op::Put, std::move(put));
    }
    for (size_t i = 0; i < 4; ++i) {
        Request enc;
        enc.values = in[i].v;
        encrypt_ids[i] = submit(i, Op::Encrypt, std::move(enc));
    }
    for (size_t i = 0; i < 4; ++i) {
        Request add;
        add.name = "x";
        add.cts = {in[i].y};
        submit(i, Op::EvalAdd, std::move(add));
    }
    for (size_t i = 0; i < 4; ++i) {
        Request mul;
        mul.cts = {in[i].x, in[i].y};
        submit(i, Op::EvalMul, std::move(mul));
    }
    for (size_t i = 0; i < 4; ++i) {
        Request rot;
        rot.steps = steps;
        rot.cts = {in[i].x};
        submit(i, Op::Rotate, std::move(rot));
    }
    server.drain();

    std::vector<Response> got;
    for (auto& f : futs)
        got.push_back(f.get());
    for (const Response& r : got)
        ASSERT_TRUE(r.ok) << r.error;

    auto digest = [&](const Ciphertext& ct) { return ref.resultDigest(ct); };
    for (size_t i = 0; i < 4; ++i) {
        const Tenant& t = tenants[i];
        // Virtual Encrypt is deterministic in the values alone; the
        // server-derived seed is accepted and ignored.
        const Ciphertext enc_ref = ref.encryptReal(
            t.keys.pk, in[i].v,
            Server::encryptionSeedFor(ids[i], encrypt_ids[i]));
        EXPECT_EQ(digest(got[4 + i].cts[0]), digest(enc_ref));

        const Ciphertext add_ref = ref.addAligned(in[i].x, in[i].y);
        EXPECT_EQ(digest(got[8 + i].cts[0]), digest(add_ref));

        const Ciphertext mul_ref = ref.mul(in[i].x, in[i].y, t.rlk_expanded);
        EXPECT_EQ(digest(got[12 + i].cts[0]), digest(mul_ref));

        const std::vector<Ciphertext> rot_ref =
            ref.rotateHoisted(in[i].x, steps, t.gks_expanded);
        ASSERT_EQ(got[16 + i].cts.size(), rot_ref.size());
        for (size_t k = 0; k < rot_ref.size(); ++k)
            EXPECT_EQ(digest(got[16 + i].cts[k]), digest(rot_ref[k]));
    }

    // The control plane behaved identically: same request accounting,
    // same key-cache budget discipline, batching still coalesced.
    const KeyCache::Stats stats = server.keyCacheStats();
    EXPECT_LE(stats.peak_bytes, stats.budget_bytes);
    EXPECT_EQ(stats.overcommits, 0u);
    EXPECT_EQ(telemetry::counter("serve.requests").value(), 20u);
    EXPECT_GT(telemetry::counter("serve.batch.coalesced").value(), 0u);
}

// --- key cache ------------------------------------------------------------

TEST_F(ServeTest, KeyCacheLruOrderDeterministic)
{
    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secretKey();
    SwitchingKey k1 = keygen.relinKey(sk);
    SwitchingKey k2 = keygen.galoisKey(sk, ctx->ring()->galoisElt(1));
    SwitchingKey k3 = keygen.galoisKey(sk, ctx->ring()->galoisElt(2));
    const size_t key_bytes = k1.aBytes();

    KeyCache cache(ctx, 2 * key_bytes);
    const auto id1 = cache.insert(1, "k1", &k1);
    const auto id2 = cache.insert(1, "k2", &k2);
    const auto id3 = cache.insert(1, "k3", &k3);
    EXPECT_TRUE(k1.isCompressed()); // insert compresses

    { auto l = cache.acquire(id1); }
    { auto l = cache.acquire(id2); }
    EXPECT_EQ(cache.residentNames(), (std::vector<std::string>{"k1", "k2"}));

    // Third expansion evicts the LRU entry (k1), deterministically.
    { auto l = cache.acquire(id3); }
    EXPECT_EQ(cache.residentNames(), (std::vector<std::string>{"k2", "k3"}));
    EXPECT_FALSE(cache.isResident(id1));
    EXPECT_TRUE(k1.isCompressed());

    // A hit refreshes recency: k2 becomes MRU, so k3 is evicted next.
    { auto l = cache.acquire(id2); }
    EXPECT_EQ(cache.residentNames(), (std::vector<std::string>{"k3", "k2"}));
    { auto l = cache.acquire(id1); }
    EXPECT_EQ(cache.residentNames(), (std::vector<std::string>{"k2", "k1"}));

    const KeyCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.evictions, 2u);
    EXPECT_LE(stats.peak_bytes, stats.budget_bytes);
}

TEST_F(ServeTest, EvictionAndReexpansionAreByteIdentical)
{
    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secretKey();
    SwitchingKey k1 = keygen.relinKey(sk);
    SwitchingKey k2 = keygen.galoisKey(sk, ctx->ring()->galoisElt(1));
    const std::string original = kskBytes(k1); // fully expanded form

    KeyCache cache(ctx, k1.aBytes());
    const auto id1 = cache.insert(1, "k1", &k1);
    const auto id2 = cache.insert(1, "k2", &k2);

    {
        auto l = cache.acquire(id1);
        EXPECT_EQ(kskBytes(k1), original);
    }
    { auto l = cache.acquire(id2); } // evicts k1 back to seed-only
    EXPECT_FALSE(cache.isResident(id1));
    {
        auto l = cache.acquire(id1); // re-expansion from the seed
        EXPECT_EQ(kskBytes(k1), original);
    }
}

TEST_F(ServeTest, PinnedKeysAreNeverEvicted)
{
    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secretKey();
    SwitchingKey k1 = keygen.relinKey(sk);
    SwitchingKey k2 = keygen.galoisKey(sk, ctx->ring()->galoisElt(1));

    KeyCache cache(ctx, k1.aBytes());
    const auto id1 = cache.insert(1, "k1", &k1);
    const auto id2 = cache.insert(1, "k2", &k2);

    auto pin = cache.acquire(id1);
    // The budget only fits one key and k1 is pinned: acquiring k2 must
    // overcommit rather than rip k1 out from under its user.
    { auto l = cache.acquire(id2); }
    EXPECT_FALSE(k1.isCompressed());
    const KeyCache::Stats stats = cache.stats();
    EXPECT_GT(stats.overcommits, 0u);
    EXPECT_GT(stats.peak_bytes, stats.budget_bytes);
}

TEST_F(ServeTest, TenantEvictionIsolation)
{
    // Tenant A's results must be unaffected by tenant B thrashing the
    // shared budget between A's requests.
    const std::vector<int> steps{1};
    KeyGenerator keygen(ctx);
    Tenant a = makeTenant(keygen, steps);
    Tenant b = makeTenant(keygen, {1, 2, 3});

    ServerOptions opts;
    opts.keycache_bytes = 2 * a.keys.rlk.aBytes();
    Server server(ctx, opts);
    const u64 ta = server.addTenant(a.keys);
    const u64 tb = server.addTenant(b.keys);

    const Ciphertext ct_a =
        encryptFor(a, test::randomReals(ctx->slots(), 1), 42);
    const Ciphertext ct_b =
        encryptFor(b, test::randomReals(ctx->slots(), 2), 43);

    auto rotate = [&](u64 tenant, const Ciphertext& ct, int step) {
        Request req;
        req.tenant = tenant;
        req.id = tenant * 1000 + static_cast<u64>(step);
        req.op = Op::Rotate;
        req.steps = {step};
        req.cts = {ct};
        Response resp = server.submit(std::move(req)).get();
        EXPECT_TRUE(resp.ok) << resp.error;
        return resp.cts.at(0);
    };

    const Ciphertext before = rotate(ta, ct_a, 1);
    // Thrash: B's rotations evict A's Galois key several times over.
    for (int round = 0; round < 3; ++round)
        for (int step : {1, 2, 3})
            rotate(tb, ct_b, step);
    const Ciphertext after = rotate(ta, ct_a, 1);

    EXPECT_EQ(ctBytes(before), ctBytes(after));
    EXPECT_EQ(ctBytes(before),
              ctBytes(eval->rotate(ct_a, 1, a.gks_expanded)));
    EXPECT_GT(server.keyCacheStats().evictions, 0u);
}

// --- wire robustness ------------------------------------------------------

TEST_F(ServeTest, CorruptFrameYieldsTypedErrorResponse)
{
    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {});
    Server server(ctx);
    const u64 id = server.addTenant(t.keys);

    Request req;
    req.tenant = id;
    req.id = 9;
    req.op = Op::Encrypt;
    req.values = {1.0, 2.0};
    std::string frame = encodeRequest(req);

    // Clean round-trip first.
    Response ok = server.submitFrame(frame).get();
    ASSERT_TRUE(ok.ok) << ok.error;
    ASSERT_EQ(ok.cts.size(), 1u);

    // A flipped bit in the header must be rejected as CorruptStream —
    // never silently served — and must not take the server down.
    std::string bad = frame;
    bad[17] ^= 0x10; // inside the tenant-id field
    Response resp = server.submitFrame(bad).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_kind, ErrorKind::CorruptStream);
    EXPECT_THROW(throwIfError(resp), CorruptStreamError);

    // Truncation likewise.
    Response trunc = server.submitFrame(frame.substr(0, 20)).get();
    EXPECT_FALSE(trunc.ok);
    EXPECT_EQ(trunc.error_kind, ErrorKind::CorruptStream);

    // And the server still serves.
    Response again = server.submitFrame(frame).get();
    EXPECT_TRUE(again.ok) << again.error;
    EXPECT_EQ(ctBytes(again.cts[0]), ctBytes(ok.cts[0]));
}

TEST_F(ServeTest, UnknownTenantAndBadOpsReportUserErrors)
{
    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {});
    Server server(ctx);
    const u64 id = server.addTenant(t.keys);

    Request req;
    req.tenant = id + 999;
    req.op = Op::Get;
    req.name = "x";
    Response resp = server.submit(std::move(req)).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_kind, ErrorKind::User);

    Request missing;
    missing.tenant = id;
    missing.op = Op::Get;
    missing.name = "nope";
    resp = server.submit(std::move(missing)).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_kind, ErrorKind::User);
    EXPECT_THROW(throwIfError(resp), UserError);
    EXPECT_GT(telemetry::counter("serve.errors").value(), 0u);
}

TEST_F(ServeTest, ClassifyCurrentExceptionPreservesTaxonomy)
{
    auto classify = [](auto&& thrower) {
        try {
            thrower();
        } catch (...) {
            return classifyCurrentException();
        }
        return std::pair<ErrorKind, std::string>{ErrorKind::None, ""};
    };

    auto user = classify(
        [] { throw UserError("bad knob", __FILE__, __LINE__); });
    EXPECT_EQ(user.first, ErrorKind::User);
    EXPECT_NE(user.second.find("bad knob"), std::string::npos);
    // The file:line breadcrumb survives classification.
    EXPECT_NE(user.second.find("serve_test"), std::string::npos);

    auto corrupt = classify(
        [] { throw CorruptStreamError("short frame", __FILE__, __LINE__); });
    EXPECT_EQ(corrupt.first, ErrorKind::CorruptStream);
    EXPECT_NE(corrupt.second.find("short frame"), std::string::npos);

    auto fault = classify(
        [] { throw FaultDetectedError("digest mismatch"); });
    EXPECT_EQ(fault.first, ErrorKind::FaultDetected);

    // Invariant violations map to Other with the breadcrumbed what()
    // intact — never erased into a generic string — and are counted.
    const u64 before = telemetry::counter("serve.errors.invariant").value();
    auto inv = classify(
        [] { throw InvariantError("meta missing", __FILE__, __LINE__); });
    EXPECT_EQ(inv.first, ErrorKind::Other);
    EXPECT_NE(inv.second.find("meta missing"), std::string::npos);
    EXPECT_NE(inv.second.find("serve_test"), std::string::npos);
    EXPECT_GE(telemetry::counter("serve.errors.invariant").value(), before);

    auto plain = classify([] { throw std::runtime_error("plain"); });
    EXPECT_EQ(plain.first, ErrorKind::Other);
    EXPECT_NE(plain.second.find("plain"), std::string::npos);

    // Non-std::exception throws classify as Other/"unknown error" and
    // bump the unclassified counter instead of vanishing.
    const u64 uncls =
        telemetry::counter("serve.errors.unclassified").value();
    auto unknown = classify([] { throw 42; });
    EXPECT_EQ(unknown.first, ErrorKind::Other);
    EXPECT_NE(unknown.second.find("unknown error"), std::string::npos);
    EXPECT_GT(telemetry::counter("serve.errors.unclassified").value(),
              uncls);
}

// --- end-to-end over TCP --------------------------------------------------

TEST_F(ServeTest, TcpRoundTripServesEncryptedKv)
{
    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {1});
    Server server(ctx);
    const u64 id = server.addTenant(t.keys);
    TcpFrontEnd tcp(server, 0);
    ASSERT_NE(tcp.port(), 0);

    const Ciphertext value =
        encryptFor(t, test::randomReals(ctx->slots(), 5), 77);

    Request put;
    put.tenant = id;
    put.id = 1;
    put.op = Op::Put;
    put.name = "answer";
    put.cts = {value};
    Response put_resp = decodeResponse(
        tcpRequest("127.0.0.1", tcp.port(), encodeRequest(put)),
        ctx->ring());
    ASSERT_TRUE(put_resp.ok) << put_resp.error;

    Request get;
    get.tenant = id;
    get.id = 2;
    get.op = Op::Get;
    get.name = "answer";
    Response get_resp = decodeResponse(
        tcpRequest("127.0.0.1", tcp.port(), encodeRequest(get)),
        ctx->ring());
    ASSERT_TRUE(get_resp.ok) << get_resp.error;
    ASSERT_EQ(get_resp.cts.size(), 1u);
    EXPECT_EQ(ctBytes(get_resp.cts[0]), ctBytes(value));

    // A garbage frame gets an error response, not a dropped connection.
    Response bad = decodeResponse(
        tcpRequest("127.0.0.1", tcp.port(), std::string(64, 'Z')),
        ctx->ring());
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error_kind, ErrorKind::CorruptStream);

    // A mid-dispatch throw (unknown tenant) must reach the client as the
    // typed User error, not a closed socket or an untyped Other.
    Request rogue;
    rogue.tenant = id + 999;
    rogue.id = 3;
    rogue.op = Op::Get;
    rogue.name = "answer";
    Response typed = decodeResponse(
        tcpRequest("127.0.0.1", tcp.port(), encodeRequest(rogue)),
        ctx->ring());
    EXPECT_FALSE(typed.ok);
    EXPECT_EQ(typed.error_kind, ErrorKind::User);
    EXPECT_THROW(throwIfError(typed), UserError);
}

/** TCP_NODELAY as getsockopt reports it on `fd`. */
bool
noDelay(int fd)
{
    int on = 0;
    socklen_t len = sizeof(on);
    EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
    return on != 0;
}

TEST_F(ServeTest, TcpSocketsDisableNagleAtBothEnds)
{
    // A reply must leave as soon as it is written: with Nagle on, a
    // frame sent right after another small segment waits for the peer's
    // delayed ACK (~40 ms on Linux).
    Server server(ctx);
    TcpFrontEnd tcp(server, 0);
    const int client = tcpConnect("127.0.0.1", tcp.port());
    EXPECT_TRUE(noDelay(client));

    // The front end's accepted socket lives in this process: it is the
    // descriptor whose peer is the client's local address.
    for (int spin = 0; spin < 200 && tcp.liveConnections() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(tcp.liveConnections(), 1u);
    sockaddr_in local{};
    socklen_t local_len = sizeof(local);
    ASSERT_EQ(::getsockname(client, reinterpret_cast<sockaddr*>(&local),
                            &local_len),
              0);
    int accepted = -1;
    for (int fd = 0; fd < 1024 && accepted < 0; ++fd) {
        sockaddr_in peer{};
        socklen_t peer_len = sizeof(peer);
        if (fd != client &&
            ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer),
                          &peer_len) == 0 &&
            peer.sin_family == AF_INET && peer.sin_port == local.sin_port &&
            peer.sin_addr.s_addr == local.sin_addr.s_addr)
            accepted = fd;
    }
    ASSERT_GE(accepted, 0) << "accepted socket not found";
    EXPECT_TRUE(noDelay(accepted));
    ::close(client);

    // An empty frame goes out as the length prefix alone and still gets
    // a typed error back.
    const Response empty =
        decodeResponse(tcpRequest("127.0.0.1", tcp.port(), ""), ctx->ring());
    EXPECT_FALSE(empty.ok);
    EXPECT_EQ(empty.error_kind, ErrorKind::CorruptStream);
}

// --- fault injection through the serving path -----------------------------

TEST_F(ServeTest, InjectedDecodeFaultIsDetected)
{
    faultinject::Spec spec;
    spec.site = "serve.decode";
    spec.nth = 2;
    spec.kind = faultinject::Kind::BitFlip;
    faultinject::arm(spec);

    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {});
    Server server(ctx);
    const u64 id = server.addTenant(t.keys);

    Request req;
    req.tenant = id;
    req.id = 1;
    req.op = Op::Encrypt;
    req.values = {3.0};
    Response resp = server.submitFrame(encodeRequest(req)).get();
    faultinject::disarm();

    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_kind, ErrorKind::CorruptStream);

    // Disarmed, the same frame decodes fine.
    Response clean = server.submitFrame(encodeRequest(req)).get();
    EXPECT_TRUE(clean.ok) << clean.error;
}

// --- key cache accounting under faults ------------------------------------

TEST_F(ServeTest, KeyCacheRollsBackAccountingWhenExpandFaults)
{
    // Regression: a fault thrown during re-expansion (the serve.evict
    // guard window) used to leave the entry charged/resident, stranding
    // budget bytes and — worse — leaving a corrupt a-half for the next
    // hit to serve silently. The miss path must roll back to seed-only.
    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secretKey();
    SwitchingKey k1 = keygen.relinKey(sk);
    const std::string original = kskBytes(k1);

    KeyCache cache(ctx, k1.aBytes());
    const auto id1 = cache.insert(1, "k1", &k1);

    faultinject::Spec spec;
    spec.site = "serve.evict";
    spec.nth = 0;
    spec.kind = faultinject::Kind::TaskThrow;
    faultinject::arm(spec);
    EXPECT_THROW({ auto l = cache.acquire(id1); },
                 faultinject::InjectedFault);
    faultinject::disarm();

    // Nothing charged, nothing resident, key back in seed-only form.
    KeyCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.resident_bytes, 0u);
    EXPECT_EQ(stats.resident_entries, 0u);
    EXPECT_EQ(stats.pinned_entries, 0u);
    EXPECT_FALSE(cache.isResident(id1));
    EXPECT_TRUE(k1.isCompressed());

    // The next acquire re-expands cleanly and byte-identically.
    {
        auto l = cache.acquire(id1);
        EXPECT_EQ(kskBytes(k1), original);
        EXPECT_EQ(cache.stats().resident_bytes, k1.aBytes());
    }

    // Same rollback when the fault is a detected corruption (BitFlip
    // with integrity on): the corrupt half must not stay resident.
    const bool was_on = integrity::enabled();
    integrity::setEnabled(true);
    { auto l = cache.acquire(id1); } // still resident: evict first
    cache.evictUnpinned();
    spec.kind = faultinject::Kind::BitFlip;
    faultinject::arm(spec);
    EXPECT_THROW({ auto l = cache.acquire(id1); }, FaultDetectedError);
    faultinject::disarm();
    integrity::setEnabled(was_on);
    EXPECT_FALSE(cache.isResident(id1));
    EXPECT_EQ(cache.stats().resident_bytes, 0u);
    {
        auto l = cache.acquire(id1); // re-expansion repairs the flip
        EXPECT_EQ(kskBytes(k1), original);
    }
}

TEST_F(ServeTest, ConcurrentLeasesSurviveProactiveEviction)
{
    // A governor eviction sweep racing evaluator leases must never rip
    // a pinned key out from under its user and must never deadlock.
    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secretKey();
    std::vector<SwitchingKey> keys;
    for (int i = 1; i <= 4; ++i)
        keys.push_back(keygen.galoisKey(sk, ctx->ring()->galoisElt(i)));
    std::vector<std::string> originals;
    for (SwitchingKey& k : keys)
        originals.push_back(kskBytes(k));

    KeyCache cache(ctx, 2 * keys[0].aBytes());
    std::vector<KeyCache::EntryId> ids;
    for (size_t i = 0; i < keys.size(); ++i)
        ids.push_back(
            cache.insert(1, "k" + std::to_string(i), &keys[i]));

    std::atomic<bool> stop{false};
    std::atomic<bool> violation{false};
    std::vector<std::thread> users;
    for (int u = 0; u < 2; ++u) {
        users.emplace_back([&, u] {
            for (int iter = 0; iter < 400; ++iter) {
                const size_t i = static_cast<size_t>(u * 2 + iter % 2);
                auto l = cache.acquire(ids[i]);
                // Pinned: the sweeper must not compress this key.
                if (keys[i].isCompressed())
                    violation.store(true);
            }
        });
    }
    std::thread sweeper([&] {
        while (!stop.load())
            cache.evictUnpinned();
    });
    for (std::thread& t : users)
        t.join();
    stop.store(true);
    sweeper.join();

    EXPECT_FALSE(violation.load());
    KeyCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.pinned_entries, 0u);
    // Every key still round-trips byte-identically after the storm.
    for (size_t i = 0; i < keys.size(); ++i) {
        auto l = cache.acquire(ids[i]);
        EXPECT_EQ(kskBytes(keys[i]), originals[i]);
    }
}

// --- deadlines, retry, admission control ----------------------------------

TEST_F(ServeTest, DeadlineExpiresWhileQueuedYieldsTypedError)
{
    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {});
    Server server(ctx);
    const u64 id = server.addTenant(t.keys);

    const Ciphertext x = encryptFor(t, test::randomReals(ctx->slots(), 1), 1);
    const Ciphertext y = encryptFor(t, test::randomReals(ctx->slots(), 2), 2);

    // Stuff the queue with work that far outlasts a 1 ms deadline, then
    // submit a cheap request that cannot possibly be served in time.
    std::vector<std::future<Response>> muls;
    for (int i = 0; i < 128; ++i) {
        Request mul;
        mul.tenant = id;
        mul.id = static_cast<u64>(100 + i);
        mul.op = Op::EvalMul;
        mul.cts = {x, y};
        muls.push_back(server.submit(std::move(mul)));
    }
    Request put;
    put.tenant = id;
    put.id = 1;
    put.op = Op::Put;
    put.name = "v";
    put.cts = {x};
    put.deadline_ms = 1;
    Response late = server.submit(std::move(put)).get();

    EXPECT_FALSE(late.ok);
    EXPECT_EQ(late.error_kind, ErrorKind::DeadlineExceeded);
    EXPECT_THROW(throwIfError(late), resilience::DeadlineExceededError);
    EXPECT_GT(telemetry::counter("serve.deadline_expired").value(), 0u);
    for (auto& f : muls)
        EXPECT_TRUE(f.get().ok);
    // The expired request never executed: nothing was stored.
    Request get;
    get.tenant = id;
    get.id = 2;
    get.op = Op::Get;
    get.name = "v";
    EXPECT_EQ(server.submit(std::move(get)).get().error_kind,
              ErrorKind::User);
}

TEST_F(ServeTest, DeadlineSurvivesWireRoundTrip)
{
    Request req;
    req.tenant = 3;
    req.id = 11;
    req.op = Op::Get;
    req.name = "x";
    req.deadline_ms = 2500;
    const Request back =
        decodeRequest(encodeRequest(req), ctx->ring());
    EXPECT_EQ(back.deadline_ms, 2500u);
}

TEST_F(ServeTest, RetryRecoversInjectedDecodeFaultByteIdentically)
{
    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {});
    resilience::RetryPolicy rp;
    rp.max_attempts = 3;
    rp.base_backoff_ns = 1'000; // keep the test fast
    ServerOptions opts;
    opts.retry = rp;
    Server server(ctx, opts);
    const u64 id = server.addTenant(t.keys);

    Request req;
    req.tenant = id;
    req.id = 1;
    req.op = Op::Encrypt;
    req.values = {3.0, 4.0};
    const std::string frame = encodeRequest(req);

    const Response clean = server.submitFrame(frame).get();
    ASSERT_TRUE(clean.ok) << clean.error;

    faultinject::Spec spec;
    spec.site = "serve.decode";
    spec.nth = 2;
    spec.kind = faultinject::Kind::BitFlip;
    faultinject::arm(spec);
    const Response retried = server.submitFrame(frame).get();
    faultinject::disarm();

    // The fault fired (same spec fails outright without retries, see
    // InjectedDecodeFaultIsDetected) but the re-decode succeeded and
    // the result is byte-identical to the fault-free run.
    ASSERT_TRUE(retried.ok) << retried.error;
    ASSERT_EQ(retried.cts.size(), 1u);
    EXPECT_EQ(ctBytes(retried.cts[0]), ctBytes(clean.cts[0]));
    EXPECT_GT(telemetry::counter("serve.retry").value(), 0u);
}

TEST_F(ServeTest, RetryRecoversKeyExpansionFaultWithIntegrityOn)
{
    const bool was_on = integrity::enabled();
    integrity::setEnabled(true);

    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {});
    resilience::RetryPolicy rp;
    rp.max_attempts = 2;
    rp.base_backoff_ns = 1'000;
    ServerOptions opts;
    opts.retry = rp;
    Server server(ctx, opts);
    const u64 id = server.addTenant(t.keys);

    const Ciphertext x = encryptFor(t, test::randomReals(ctx->slots(), 3), 5);
    const Ciphertext y = encryptFor(t, test::randomReals(ctx->slots(), 4), 6);

    // The first EvalMul misses the key cache; the guarded re-expansion
    // takes the bit flip, acquire() rolls back, and the server retries
    // the pin — the second expansion is clean and byte-identical.
    faultinject::Spec spec;
    spec.site = "serve.evict";
    spec.nth = 0;
    spec.kind = faultinject::Kind::BitFlip;
    faultinject::arm(spec);
    Request mul;
    mul.tenant = id;
    mul.id = 1;
    mul.op = Op::EvalMul;
    mul.cts = {x, y};
    const Response resp = server.submit(std::move(mul)).get();
    faultinject::disarm();
    integrity::setEnabled(was_on);

    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(ctBytes(resp.cts[0]),
              ctBytes(eval->mul(x, y, t.rlk_expanded)));
    EXPECT_GT(telemetry::counter("serve.retry").value(), 0u);
}

TEST_F(ServeTest, CircuitBreakerTripsAndRecoversViaHalfOpenProbe)
{
    const bool was_on = integrity::enabled();
    integrity::setEnabled(true);

    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {});
    GovernorOptions gov;
    gov.breaker_threshold = 2;
    gov.breaker_cooldown_ms = 50;
    ServerOptions opts;
    opts.governor = gov;
    Server server(ctx, opts);
    const u64 id = server.addTenant(t.keys);

    const Ciphertext x = encryptFor(t, test::randomReals(ctx->slots(), 7), 8);
    const Ciphertext y = encryptFor(t, test::randomReals(ctx->slots(), 8), 9);
    auto mulReq = [&](u64 rid) {
        Request mul;
        mul.tenant = id;
        mul.id = rid;
        mul.op = Op::EvalMul;
        mul.cts = {x, y};
        return mul;
    };

    // Two consecutive service-side failures (detected expansion faults)
    // trip the breaker. acquire() rolls back each time, so every
    // request re-expands and every armed fault fires.
    for (u64 i = 0; i < 2; ++i) {
        faultinject::Spec spec;
        spec.site = "serve.evict";
        spec.nth = 0;
        spec.kind = faultinject::Kind::BitFlip;
        faultinject::arm(spec);
        const Response resp = server.submit(mulReq(i)).get();
        EXPECT_FALSE(resp.ok);
        EXPECT_EQ(resp.error_kind, ErrorKind::FaultDetected);
        faultinject::disarm();
    }
    EXPECT_EQ(server.governor().breakerTrips(id), 1u);

    // Open: requests are rejected without executing.
    const Response rejected = server.submit(mulReq(10)).get();
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.error_kind, ErrorKind::Overloaded);
    EXPECT_THROW(throwIfError(rejected), resilience::OverloadedError);
    EXPECT_GT(telemetry::counter("serve.breaker_open").value(), 0u);

    // After the cooldown the half-open probe runs, succeeds, and closes
    // the breaker for good.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    const Response probe = server.submit(mulReq(11)).get();
    ASSERT_TRUE(probe.ok) << probe.error;
    EXPECT_EQ(ctBytes(probe.cts[0]),
              ctBytes(eval->mul(x, y, t.rlk_expanded)));
    const Response after = server.submit(mulReq(12)).get();
    EXPECT_TRUE(after.ok) << after.error;

    integrity::setEnabled(was_on);
}

TEST(OverloadGovernorTest, AdmitReservesSlotAtomically)
{
    // admit() must check and reserve under one lock: the caps are hard
    // bounds, and every admission (even one the caller then rejects for
    // a full global queue) pairs with exactly one onFinish.
    GovernorOptions gov;
    gov.queue_depth = 2;
    gov.tenant_queue_depth = 2;
    OverloadGovernor g(gov);

    bool full = true;
    EXPECT_FALSE(g.admit(1, 0, full).has_value());
    EXPECT_FALSE(full);
    EXPECT_FALSE(g.admit(2, 0, full).has_value());
    EXPECT_FALSE(full);
    EXPECT_EQ(g.inflight(), 2u);

    // Global queue at depth: still admitted (the caller sheds a queued
    // victim or releases), but flagged.
    EXPECT_FALSE(g.admit(2, 0, full).has_value());
    EXPECT_TRUE(full);
    EXPECT_EQ(g.inflight(), 3u);
    // Nothing sheddable: the caller releases the reservation.
    g.onFinish(2, false, ErrorKind::Overloaded, /*executed=*/false, 0);
    EXPECT_EQ(g.inflight(), 2u);

    // Tenant cap is checked against the reserved count, so a third
    // same-tenant admit rejects outright (nothing to release).
    EXPECT_FALSE(g.admit(2, 0, full).has_value());
    EXPECT_TRUE(g.admit(2, 0, full).has_value());
    EXPECT_EQ(g.inflight(), 3u);
}

TEST(OverloadGovernorTest, ShedProbeReturnsToCooldownNotLockout)
{
    // Regression: a half-open probe that was admitted and then resolved
    // without executing (shed / deadline-expired) used to leak the
    // probe slot — no request of that tenant was ever admitted again.
    constexpr u64 kCooldownNs = 1'000'000; // = 1 ms, the config unit
    GovernorOptions gov;
    gov.breaker_threshold = 1;
    gov.breaker_cooldown_ms = 1;
    OverloadGovernor g(gov);

    bool full = false;
    ASSERT_FALSE(g.admit(7, 0, full).has_value());
    g.onFinish(7, false, ErrorKind::FaultDetected, /*executed=*/true, 0);
    EXPECT_EQ(g.breakerTrips(7), 1u);
    EXPECT_TRUE(g.admit(7, 10, full).has_value()); // Open: rejected

    // Cooldown elapses; the probe is admitted, then shed before it runs.
    ASSERT_FALSE(g.admit(7, kCooldownNs, full).has_value());
    g.onFinish(7, false, ErrorKind::Overloaded, /*executed=*/false,
               kCooldownNs + 100);

    // The slot came back: Open again, and one more cooldown later a
    // fresh probe is admitted and can close the breaker.
    EXPECT_TRUE(g.admit(7, kCooldownNs + 200, full).has_value());
    ASSERT_FALSE(g.admit(7, 2 * kCooldownNs + 100, full).has_value());
    g.onFinish(7, true, ErrorKind::None, /*executed=*/true,
               2 * kCooldownNs + 200);
    EXPECT_FALSE(g.admit(7, 2 * kCooldownNs + 300, full).has_value());
}

TEST_F(ServeTest, ProactiveEvictionFaultIsContainedByGovernor)
{
    // Regression: an injected serve.evict fault during the governor's
    // proactive eviction sweep used to unwind into the dispatcher
    // thread and std::terminate the server. observeCachePressure must
    // contain it (the cache stays consistent — the guard fires before
    // any accounting changes) and count it.
    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secretKey();
    SwitchingKey k1 = keygen.galoisKey(sk, ctx->ring()->galoisElt(1));
    SwitchingKey k2 = keygen.galoisKey(sk, ctx->ring()->galoisElt(2));

    KeyCache cache(ctx, k1.aBytes()); // room for one expanded key
    const auto id1 = cache.insert(1, "k1", &k1);
    const auto id2 = cache.insert(1, "k2", &k2);

    OverloadGovernor g(GovernorOptions{});
    {
        // Pin both: the second acquire overcommits (counted, not failed).
        auto l1 = cache.acquire(id1);
        auto l2 = cache.acquire(id2);
    }
    ASSERT_GT(cache.stats().overcommits, 0u);

    faultinject::Spec spec;
    spec.site = "serve.evict";
    spec.nth = 0;
    spec.kind = faultinject::Kind::TaskThrow;
    faultinject::arm(spec);
    EXPECT_NO_THROW(g.observeCachePressure(cache));
    faultinject::disarm();

    EXPECT_EQ(g.degradeLevel(), 1);
    EXPECT_GT(telemetry::counter("serve.degrade.evict_fault").value(), 0u);
    // The faulted sweep left the cache consistent; a clean sweep works.
    const KeyCache::Stats mid = cache.stats();
    EXPECT_EQ(mid.resident_bytes, 2 * k1.aBytes());
    EXPECT_EQ(cache.evictUnpinned(), 2 * k1.aBytes());
    EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST_F(ServeTest, BatcherShedsEarliestDeadlineOnly)
{
    Batcher b(ctx->maxLevel(), 4);
    auto pend = [&](u64 rid, u64 deadline_ns) {
        PendingRequest p;
        p.req.id = rid;
        p.req.op = Op::Encrypt;
        p.deadline_ns = deadline_ns;
        b.push(std::move(p));
    };
    pend(1, ~u64{0}); // no deadline: never a shed victim
    pend(2, 5'000);
    pend(3, 3'000);
    EXPECT_EQ(b.depth(), 3u);

    // Nothing queued expires before 1000: caller sheds the incoming.
    EXPECT_FALSE(b.shedEarliestDeadline(1'000).has_value());
    // Earliest strictly-below-bound victim is id 3.
    auto victim = b.shedEarliestDeadline(4'000);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->req.id, 3u);
    // An incoming request with no deadline sheds the earliest of all.
    victim = b.shedEarliestDeadline(~u64{0});
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->req.id, 2u);
    EXPECT_EQ(b.depth(), 1u);
}

TEST_F(ServeTest, EffectiveBatchCapShrinksBatches)
{
    Batcher b(ctx->maxLevel(), 8);
    b.setEffectiveMaxBatch(2);
    EXPECT_EQ(b.effectiveMaxBatch(), 2u);
    for (u64 i = 0; i < 6; ++i) {
        PendingRequest p;
        p.req.id = i;
        p.req.op = Op::Encrypt; // all share one coalescable key
        b.push(std::move(p));
    }
    const std::vector<Batch> batches = b.waitDrain();
    ASSERT_EQ(batches.size(), 3u);
    for (const Batch& batch : batches)
        EXPECT_EQ(batch.items.size(), 2u);
    b.setEffectiveMaxBatch(0); // restore
    EXPECT_EQ(b.effectiveMaxBatch(), 8u);
}

TEST_F(ServeTest, GlobalQueueFullShedsEarliestDeadlineRequest)
{
    KeyGenerator keygen(ctx);
    // A single 32-step hoisted rotation keeps the dispatcher busy for
    // many milliseconds — long enough that #2 and #3 (submitted
    // microseconds later) reliably find it still in flight.
    std::vector<int> steps;
    for (int s = 1; s <= 32; ++s)
        steps.push_back(s);
    Tenant t = makeTenant(keygen, steps);
    GovernorOptions gov;
    gov.queue_depth = 2;
    ServerOptions opts;
    opts.governor = gov;
    Server server(ctx, opts);
    const u64 id = server.addTenant(t.keys);

    const Ciphertext x = encryptFor(t, test::randomReals(ctx->slots(), 1), 3);
    const Ciphertext y = encryptFor(t, test::randomReals(ctx->slots(), 2), 4);

    // #1 occupies the dispatcher; #2 (deadlined) queues behind it; #3
    // (no deadline) finds the queue full and displaces #2, which is the
    // request most likely to miss its deadline anyway.
    Request slow;
    slow.tenant = id;
    slow.id = 1;
    slow.op = Op::Rotate;
    slow.steps = steps;
    slow.cts = {x};
    auto f1 = server.submit(std::move(slow));

    Request queued;
    queued.tenant = id;
    queued.id = 2;
    queued.op = Op::Put;
    queued.name = "a";
    queued.cts = {x};
    queued.deadline_ms = 10'000;
    auto f2 = server.submit(std::move(queued));

    Request incoming;
    incoming.tenant = id;
    incoming.id = 3;
    incoming.op = Op::Put;
    incoming.name = "b";
    incoming.cts = {y};
    auto f3 = server.submit(std::move(incoming));

    const Response r2 = f2.get();
    const Response r3 = f3.get();
    EXPECT_TRUE(f1.get().ok);
    // Exactly one of the two later requests is shed. Almost always it
    // is #2 (the queued, deadlined one — see BatcherShedsEarliest-
    // DeadlineOnly for the deterministic victim-selection test); if the
    // dispatcher already claimed #2 before #3 arrived, nothing is
    // sheddable and #3 is rejected instead.
    const bool shed2 = !r2.ok && r2.error_kind == ErrorKind::Overloaded;
    const bool shed3 = !r3.ok && r3.error_kind == ErrorKind::Overloaded;
    EXPECT_TRUE(shed2 != shed3);
    EXPECT_TRUE(shed2 ? r3.ok : r2.ok);
    EXPECT_GT(telemetry::counter("serve.shed").value(), 0u);
    server.drain();
    EXPECT_EQ(server.governor().inflight(), 0u);
}

TEST_F(ServeTest, GlobalQueueFullRejectsIncomingWhenNothingSheddable)
{
    KeyGenerator keygen(ctx);
    // Slow occupant (see GlobalQueueFullShedsEarliestDeadlineRequest).
    std::vector<int> steps;
    for (int s = 1; s <= 32; ++s)
        steps.push_back(s);
    Tenant t = makeTenant(keygen, steps);
    GovernorOptions gov;
    gov.queue_depth = 1;
    ServerOptions opts;
    opts.governor = gov;
    Server server(ctx, opts);
    const u64 id = server.addTenant(t.keys);

    const Ciphertext x = encryptFor(t, test::randomReals(ctx->slots(), 1), 3);

    Request slow;
    slow.tenant = id;
    slow.id = 1;
    slow.op = Op::Rotate;
    slow.steps = steps;
    slow.cts = {x};
    auto f1 = server.submit(std::move(slow));

    // The only in-flight request is already executing (not queued), so
    // the incoming request is rejected outright.
    Request extra;
    extra.tenant = id;
    extra.id = 2;
    extra.op = Op::Get;
    extra.name = "nope";
    const Response r2 = server.submit(std::move(extra)).get();
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.error_kind, ErrorKind::Overloaded);
    EXPECT_TRUE(f1.get().ok);
}

TEST_F(ServeTest, MemoryPressureDegradesAndRecovers)
{
    // Budget of one key + hoisted two-step rotations = two simultaneous
    // pins from a single request: guaranteed overcommit, no batching
    // races. The governor must step down, proactively evict, and step
    // back up after pressure-free batches — with every request correct.
    const std::vector<int> steps{1, 2};
    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, steps);

    ServerOptions opts;
    opts.keycache_bytes = t.keys.rlk.aBytes();
    Server server(ctx, opts);
    const u64 id = server.addTenant(t.keys);

    const Ciphertext x = encryptFor(t, test::randomReals(ctx->slots(), 9), 2);
    const std::vector<Ciphertext> ref =
        eval->rotateHoisted(x, steps, t.gks_expanded);

    auto rotate = [&](u64 rid) {
        Request rot;
        rot.tenant = id;
        rot.id = rid;
        rot.op = Op::Rotate;
        rot.steps = steps;
        rot.cts = {x};
        const Response resp = server.submit(std::move(rot)).get();
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_EQ(resp.cts.size(), ref.size());
        for (size_t k = 0; k < ref.size(); ++k)
            EXPECT_EQ(ctBytes(resp.cts[k]), ctBytes(ref[k]));
    };

    // The pressure observation runs on the dispatcher thread *after* the
    // response promise is fulfilled, so poll for the transition instead
    // of reading the level at the instant .get() returns.
    auto waitForLevel = [&](int want) {
        for (int spin = 0; spin < 5000; ++spin) {
            if (server.governor().degradeLevel() == want)
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return server.governor().degradeLevel() == want;
    };

    rotate(1); // overcommits -> level 1
    EXPECT_TRUE(waitForLevel(1)) << server.governor().degradeLevel();
    rotate(2); // still overcommitting -> level 2
    EXPECT_TRUE(waitForLevel(2)) << server.governor().degradeLevel();
    EXPECT_GT(telemetry::counter("serve.degrade.stepdown").value(), 0u);
    EXPECT_GT(
        telemetry::counter("serve.keycache.proactive_evictions").value(),
        0u);

    // Pressure-free traffic steps the level back to zero (4 clean
    // batches per step, two steps).
    for (u64 i = 0; i < 8; ++i) {
        Request put;
        put.tenant = id;
        put.id = 100 + i;
        put.op = Op::Put;
        put.name = "kv";
        put.cts = {x};
        ASSERT_TRUE(server.submit(std::move(put)).get().ok);
    }
    EXPECT_TRUE(waitForLevel(0)) << server.governor().degradeLevel();
    EXPECT_GT(telemetry::counter("serve.degrade.restore").value(), 0u);
    EXPECT_GT(telemetry::counter("serve.degrade.transitions").value(), 1u);
}

// --- TCP robustness -------------------------------------------------------

TEST_F(ServeTest, TcpMidFrameDisconnectDoesNotLeakConnections)
{
    KeyGenerator keygen(ctx);
    Tenant t = makeTenant(keygen, {});
    Server server(ctx);
    const u64 id = server.addTenant(t.keys);
    TcpFrontEnd tcp(server, 0);

    // A client that dies mid-frame: length prefix promises 4096 bytes,
    // only 16 arrive before the socket closes.
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(tcp.port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
        const u64 len = 4096;
        ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
                  static_cast<ssize_t>(sizeof(len)));
        const char junk[16] = {};
        ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
                  static_cast<ssize_t>(sizeof(junk)));
        ::close(fd);
    }
    // A hostile length prefix likewise drops the connection — before
    // any allocation.
    {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(tcp.port());
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
        const u64 hostile = ~u64{0};
        ::send(fd, &hostile, sizeof(hostile), MSG_NOSIGNAL);
        ::close(fd);
    }

    // Both handlers notice and clean up; no session leaks.
    for (int spin = 0; spin < 200 && tcp.liveConnections() != 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(tcp.liveConnections(), 0u);

    // And the front end still serves a well-formed client.
    Request req;
    req.tenant = id;
    req.id = 1;
    req.op = Op::Encrypt;
    req.values = {1.5};
    const Response resp = decodeResponse(
        tcpRequest("127.0.0.1", tcp.port(), encodeRequest(req)),
        ctx->ring());
    EXPECT_TRUE(resp.ok) << resp.error;
}

// --- fault injection through the serving path -----------------------------

TEST_F(ServeTest, InjectedEvictFaultIsDetectedWithIntegrityOn)
{
    const bool was_on = integrity::enabled();
    integrity::setEnabled(true);

    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secretKey();
    SwitchingKey k1 = keygen.relinKey(sk);
    SwitchingKey k2 = keygen.galoisKey(sk, ctx->ring()->galoisElt(1));
    KeyCache cache(ctx, k1.aBytes());
    const auto id1 = cache.insert(1, "k1", &k1);
    const auto id2 = cache.insert(1, "k2", &k2);

    faultinject::Spec spec;
    spec.site = "serve.evict";
    spec.nth = 0;
    spec.kind = faultinject::Kind::BitFlip;
    faultinject::arm(spec);
    bool detected = false;
    try {
        { auto l = cache.acquire(id1); }
        { auto l = cache.acquire(id2); } // evicts k1: guarded hand-off
        { auto l = cache.acquire(id1); } // re-expansion: guarded hand-off
    } catch (const FaultDetectedError&) {
        detected = true;
    }
    faultinject::disarm();
    integrity::setEnabled(was_on);
    EXPECT_TRUE(detected);
}

} // namespace
} // namespace madfhe
