/**
 * @file
 * EvalBackend: the seam between the serving runtime and the evaluator.
 *
 * The serving stack (sessions, key-cache budgets, batching, overload
 * governor, deadlines, retries) is a pure control plane: nothing in it
 * needs to know whether a ciphertext is real CKKS material or a virtual
 * plaintext carrier, only that ops consume/produce `Ciphertext` values
 * with a (level, scale) state machine and the MadError taxonomy. This
 * interface captures exactly the operation surface `serve::Server`
 * executes, so a server can run the real `Evaluator` path or the
 * `src/virtual` plaintext backend (SimFHE-costed, ~100x+ faster) with
 * identical control-plane behavior.
 *
 * Backend selection: `MADFHE_BACKEND=real|virtual` (default real), or
 * explicitly via `serve::ServerOptions::backend`.
 *
 * Determinism contract: every op is a pure function of its arguments,
 * and `resultDigest` maps a ciphertext to a stable fingerprint of its
 * *result identity* — serialized bytes for the real backend (batched
 * execution is byte-identical to sequential), carried plaintext values
 * for the virtual backend (batched execution is value-identical). Tests
 * assert batching invariance through this method instead of assuming
 * real-evaluator byte layouts.
 */
#ifndef MADFHE_CKKS_BACKEND_H
#define MADFHE_CKKS_BACKEND_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckks/encryptor.h"
#include "ckks/matvec.h"

namespace madfhe {

enum class BackendKind : u8
{
    Real = 0,    ///< full CKKS via Evaluator/Encryptor
    Virtual = 1, ///< src/virtual plaintext state-machine backend
};

const char* backendKindName(BackendKind kind);

/** Parse MADFHE_BACKEND (unset/"real" -> Real, "virtual" -> Virtual;
 *  anything else raises UserError). */
BackendKind backendKindFromEnv();

class EvalBackend
{
  public:
    explicit EvalBackend(std::shared_ptr<const CkksContext> ctx);
    virtual ~EvalBackend();

    EvalBackend(const EvalBackend&) = delete;
    EvalBackend& operator=(const EvalBackend&) = delete;

    const CkksContext& context() const { return *ctx; }
    std::shared_ptr<const CkksContext> contextPtr() const { return ctx; }
    virtual BackendKind kind() const = 0;
    const char* name() const { return backendKindName(kind()); }

    /** Encode `values` at (ctx scale, max level) and encrypt under `pk`
     *  with encryption randomness derived from `seed`. */
    virtual Ciphertext encryptReal(const PublicKey& pk,
                                   const std::vector<double>& values,
                                   u64 seed) const = 0;
    /** Decrypt + decode, returning the real parts of every slot. */
    virtual std::vector<double> decryptReal(const SecretKey& sk,
                                            const Ciphertext& ct) const = 0;

    /** Strict add: levels equal, scales within tolerance. */
    virtual Ciphertext add(const Ciphertext& a,
                           const Ciphertext& b) const = 0;
    /** Strict subtract (same shape requirements as add). */
    virtual Ciphertext sub(const Ciphertext& a,
                           const Ciphertext& b) const = 0;
    /** Level/scale-aligning add (Evaluator::addAligned semantics). */
    virtual Ciphertext addAligned(const Ciphertext& a,
                                  const Ciphertext& b) const = 0;
    /** Mult (Table 2): tensor + relinearize + rescale. */
    virtual Ciphertext mul(const Ciphertext& a, const Ciphertext& b,
                           const SwitchingKey& rlk) const = 0;
    /** Tensor + relinearize at full scale, no rescale (the unmerged
     *  two-pass Mult pipeline); the base throws UserError. */
    virtual Ciphertext mulNoRescale(const Ciphertext& a, const Ciphertext& b,
                                    const SwitchingKey& rlk) const;
    /** Scalar product folded into one rescale: level-1, scale kept. */
    virtual Ciphertext mulScalarRescale(const Ciphertext& a,
                                        double scalar) const = 0;
    /** Scalar addition; no level consumed. */
    virtual Ciphertext addScalar(const Ciphertext& a,
                                 double scalar) const = 0;
    virtual Ciphertext rescale(const Ciphertext& a) const = 0;
    virtual Ciphertext dropToLevel(const Ciphertext& a,
                                   size_t level) const = 0;
    virtual Ciphertext rotate(const Ciphertext& a, int steps,
                              const GaloisKeys& gks) const = 0;
    virtual std::vector<Ciphertext>
    rotateHoisted(const Ciphertext& a, const std::vector<int>& steps,
                  const GaloisKeys& gks) const = 0;
    /** PtMatVecMult via a server-hosted transform (consumes one level). */
    virtual Ciphertext matVec(const LinearTransform& t, const Ciphertext& ct,
                              const GaloisKeys& gks) const = 0;

    /** Whether bootstrap() is implemented; the base throws UserError. */
    virtual bool supportsBootstrap() const { return false; }
    virtual Ciphertext bootstrap(const Ciphertext& a) const;

    /**
     * Stable fingerprint of a result ciphertext for determinism checks
     * (batched-vs-sequential). Real: serialized-v2 bytes. Virtual:
     * canonical (level, scale, slots, noise) value digest.
     */
    virtual std::string resultDigest(const Ciphertext& ct) const = 0;

    /** Remaining slot-precision bits, when the backend tracks noise
     *  analytically (virtual only; real returns nullopt). */
    virtual std::optional<double>
    noiseBudgetBits(const Ciphertext& ct) const
    {
        (void)ct;
        return std::nullopt;
    }

  protected:
    std::shared_ptr<const CkksContext> ctx;
};

/**
 * The real CKKS backend: thin adapter over Evaluator + CkksEncoder,
 * preserving the exact pre-seam serve execution paths.
 */
class RealBackend final : public EvalBackend
{
  public:
    explicit RealBackend(std::shared_ptr<const CkksContext> ctx);

    BackendKind kind() const override { return BackendKind::Real; }
    const Evaluator& evaluator() const { return eval_; }
    const CkksEncoder& encoder() const { return encoder_; }

    Ciphertext encryptReal(const PublicKey& pk,
                           const std::vector<double>& values,
                           u64 seed) const override;
    std::vector<double> decryptReal(const SecretKey& sk,
                                    const Ciphertext& ct) const override;
    Ciphertext add(const Ciphertext& a, const Ciphertext& b) const override;
    Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const override;
    Ciphertext addAligned(const Ciphertext& a,
                          const Ciphertext& b) const override;
    Ciphertext mul(const Ciphertext& a, const Ciphertext& b,
                   const SwitchingKey& rlk) const override;
    Ciphertext mulNoRescale(const Ciphertext& a, const Ciphertext& b,
                            const SwitchingKey& rlk) const override;
    Ciphertext mulScalarRescale(const Ciphertext& a,
                                double scalar) const override;
    Ciphertext addScalar(const Ciphertext& a, double scalar) const override;
    Ciphertext rescale(const Ciphertext& a) const override;
    Ciphertext dropToLevel(const Ciphertext& a, size_t level) const override;
    Ciphertext rotate(const Ciphertext& a, int steps,
                      const GaloisKeys& gks) const override;
    std::vector<Ciphertext> rotateHoisted(const Ciphertext& a,
                                          const std::vector<int>& steps,
                                          const GaloisKeys& gks) const override;
    Ciphertext matVec(const LinearTransform& t, const Ciphertext& ct,
                      const GaloisKeys& gks) const override;
    std::string resultDigest(const Ciphertext& ct) const override;

  private:
    CkksEncoder encoder_;
    Evaluator eval_;
};

} // namespace madfhe

#endif // MADFHE_CKKS_BACKEND_H
