#include "ckks/backend.h"

#include <cstdlib>
#include <sstream>

#include "ckks/serialize.h"

namespace madfhe {

const char*
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Real:
        return "real";
    case BackendKind::Virtual:
        return "virtual";
    }
    return "unknown";
}

BackendKind
backendKindFromEnv()
{
    const char* v = std::getenv("MADFHE_BACKEND");
    if (v == nullptr || *v == '\0')
        return BackendKind::Real;
    const std::string s(v);
    if (s == "real")
        return BackendKind::Real;
    if (s == "virtual")
        return BackendKind::Virtual;
    throw UserError("MADFHE_BACKEND must be 'real' or 'virtual', got '" + s +
                        "'",
                    __FILE__, __LINE__);
}

EvalBackend::EvalBackend(std::shared_ptr<const CkksContext> ctx_)
    : ctx(std::move(ctx_))
{
    MAD_REQUIRE(ctx != nullptr, "backend needs a context");
}

EvalBackend::~EvalBackend() = default;

Ciphertext
EvalBackend::bootstrap(const Ciphertext& a) const
{
    (void)a;
    throw UserError(std::string("the '") + name() +
                        "' backend does not serve bootstrap requests",
                    __FILE__, __LINE__);
}

Ciphertext
EvalBackend::mulNoRescale(const Ciphertext& a, const Ciphertext& b,
                          const SwitchingKey& rlk) const
{
    (void)a;
    (void)b;
    (void)rlk;
    throw UserError(std::string("the '") + name() +
                        "' backend does not serve unrescaled Mult",
                    __FILE__, __LINE__);
}

// --- RealBackend ----------------------------------------------------------

RealBackend::RealBackend(std::shared_ptr<const CkksContext> ctx_)
    : EvalBackend(std::move(ctx_)), encoder_(ctx), eval_(ctx)
{
}

Ciphertext
RealBackend::encryptReal(const PublicKey& pk,
                         const std::vector<double>& values, u64 seed) const
{
    const Plaintext pt =
        encoder_.encodeReal(values, ctx->scale(), ctx->maxLevel());
    Encryptor enc(ctx, pk, seed);
    return enc.encrypt(pt);
}

std::vector<double>
RealBackend::decryptReal(const SecretKey& sk, const Ciphertext& ct) const
{
    Decryptor dec(ctx, sk);
    const Plaintext pt = dec.decrypt(ct);
    const std::vector<std::complex<double>> slots = encoder_.decode(pt);
    std::vector<double> out;
    out.reserve(slots.size());
    for (const std::complex<double>& s : slots)
        out.push_back(s.real());
    return out;
}

Ciphertext
RealBackend::add(const Ciphertext& a, const Ciphertext& b) const
{
    return eval_.add(a, b);
}

Ciphertext
RealBackend::sub(const Ciphertext& a, const Ciphertext& b) const
{
    return eval_.sub(a, b);
}

Ciphertext
RealBackend::addAligned(const Ciphertext& a, const Ciphertext& b) const
{
    return eval_.addAligned(a, b);
}

Ciphertext
RealBackend::mul(const Ciphertext& a, const Ciphertext& b,
                 const SwitchingKey& rlk) const
{
    return eval_.mul(a, b, rlk);
}

Ciphertext
RealBackend::mulNoRescale(const Ciphertext& a, const Ciphertext& b,
                          const SwitchingKey& rlk) const
{
    return eval_.mulNoRescale(a, b, rlk);
}

Ciphertext
RealBackend::mulScalarRescale(const Ciphertext& a, double scalar) const
{
    return eval_.mulScalarRescale(a, scalar);
}

Ciphertext
RealBackend::addScalar(const Ciphertext& a, double scalar) const
{
    return eval_.addScalar(a, scalar, encoder_);
}

Ciphertext
RealBackend::rescale(const Ciphertext& a) const
{
    return eval_.rescale(a);
}

Ciphertext
RealBackend::dropToLevel(const Ciphertext& a, size_t level) const
{
    return eval_.dropToLevel(a, level);
}

Ciphertext
RealBackend::rotate(const Ciphertext& a, int steps,
                    const GaloisKeys& gks) const
{
    return eval_.rotate(a, steps, gks);
}

std::vector<Ciphertext>
RealBackend::rotateHoisted(const Ciphertext& a, const std::vector<int>& steps,
                           const GaloisKeys& gks) const
{
    return eval_.rotateHoisted(a, steps, gks);
}

Ciphertext
RealBackend::matVec(const LinearTransform& t, const Ciphertext& ct,
                    const GaloisKeys& gks) const
{
    return t.apply(eval_, encoder_, ct, gks);
}

std::string
RealBackend::resultDigest(const Ciphertext& ct) const
{
    std::ostringstream os;
    saveCiphertext(os, ct);
    const std::string bytes = os.str();
    u64 h = 0xCBF29CE484222325ULL; // FNV-1a 64
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "r:%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
}

} // namespace madfhe
