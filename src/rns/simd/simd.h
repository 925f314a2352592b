/**
 * @file
 * Runtime-dispatched SIMD kernels for the modular hot loops: Harvey lazy
 * NTT/iNTT butterfly stages, Shoup/Barrett pointwise modular multiplies,
 * and the NewLimb fast-basis-extension accumulation.
 *
 * The backend is resolved once per process from `MADFHE_SIMD`
 * (`off|avx2|avx512|auto`, default `auto`) intersected with CPUID
 * feature bits; the scalar table is the always-correct fallback and the
 * reference semantics. Every vector kernel is *bit-exact* against the
 * scalar implementation — not merely value-equal modulo q but identical
 * canonical residues in [0, q) — so memtrace replay, the 1-vs-N-thread
 * determinism suite and seed-compressed ciphertext expansion remain
 * valid under any backend.
 *
 * Lazy-reduction invariant: the butterfly kernels keep coefficients in
 * [0, 4q) across stages (Harvey), which is overflow-free exactly when
 * q < 2^62 (4q < 2^64). That bound is enforced by `Modulus` and at
 * prime generation (rns/primegen.cpp); the kernels assume it.
 */
#ifndef MADFHE_RNS_SIMD_SIMD_H
#define MADFHE_RNS_SIMD_SIMD_H

#include "rns/modarith.h"

namespace madfhe {
namespace simd {

enum class Backend : u8
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/**
 * The dispatch table. All kernels operate on u64 residue arrays and
 * produce canonical outputs bit-identical to the scalar table.
 */
struct Kernels
{
    /** Backend display name ("scalar", "avx2", "avx512"). */
    const char* name;
    /** Telemetry span label ("simd.scalar", ...); a string literal. */
    const char* span_label;
    /** Native lane width in u64 (1, 4, 8). */
    size_t lanes;

    /**
     * One Harvey lazy butterfly stage of half-size m over p[0, n):
     * for every block i (step 2m) and j in [0, m),
     *   x = p[i+j] (conditionally reduced under 2q),
     *   y = mulShoupLazy(p[i+j+m], tw[j], tw_shoup[j]),
     *   p[i+j] = x + y, p[i+j+m] = x + 2q - y.
     * Values stay in [0, 4q); requires q < 2^62. `tw`/`tw_shoup` point
     * at the stage slice (NttTables::omega_tw.data() + m).
     */
    void (*ntt_stage)(u64* p, size_t n, size_t m, const u64* tw,
                      const u64* tw_shoup, u64 q, u64 two_q);

    /** Final lazy-NTT cleanup: map p[i] from [0, 4q) into [0, q). */
    void (*reduce_4q)(u64* p, size_t n, u64 q, u64 two_q);

    /**
     * Twist/untwist with a twiddle table:
     * a[i] = mulShoup(a[i], w[i], w_shoup[i]) for i in [0, n).
     */
    void (*mul_shoup_vec)(u64* a, const u64* w, const u64* w_shoup,
                          size_t n, u64 q);

    /**
     * Broadcast Shoup multiply: dst[i] = mulShoup(src[i], w, w_shoup).
     * dst may alias src (in-place).
     */
    void (*mul_shoup_scalar)(u64* dst, const u64* src, size_t n, u64 w,
                             u64 w_shoup, u64 q);

    /** Pointwise Barrett multiply: a[i] = a[i] * b[i] mod q. */
    void (*mul_mod_vec)(u64* a, const u64* b, size_t n, const Modulus& q);

    /** Fused multiply-add: dst[i] = (dst[i] + a[i] * b[i] mod q) mod q. */
    void (*add_mul_mod_vec)(u64* dst, const u64* a, const u64* b, size_t n,
                            const Modulus& q);

    /**
     * NewLimb accumulation into one target limb:
     * out[c] = (sum_i rows[i][c] * punct[i]) mod q for c in [0, n).
     * `rows` holds k pointers to scaled-residue limbs, read in place.
     * r64 = 2^64 mod q with its Shoup preconditioner r64_shoup, and
     * pre1 = shoupPrecompute(1) = floor(2^64 / q) (the 128-bit folding
     * constants, precomputed per target modulus by the caller).
     */
    void (*newlimb_acc)(const u64* const* rows, size_t n, const u64* punct,
                        size_t k, u64 q, u64 r64, u64 r64_shoup, u64 pre1,
                        u64* out);

    /**
     * Optional fused whole-NTT kernel: bit-reversal gather, optional
     * pre-twist, every butterfly stage, and an optional post-multiply,
     * leaving canonical residues in p. The caller supplies tables as
     * doubles (exact images of the u64 tables, precomputed by
     * NttTables when q < 2^50):
     *   pre_rev — psi^bitrev(i) at index i, multiplied in during the
     *             bit-reversed load (the forward twist); may be null.
     *   tw      — full stage-twiddle table (stage-m slice at index m).
     *   post    — pointwise multiplier applied on exit (the fused
     *             inverse untwist-and-scale table); may be null.
     * Returns false when (q, n) is outside the kernel's domain — the
     * caller must then run the unfused path (twist / bitrev / stages /
     * reduce). Null on backends without one.
     *
     * The vector backends implement this with the error-free FMA
     * modmul (Dekker product + quotient rounding): every intermediate
     * is an exactly-representable integer, so outputs are bit-identical
     * to the scalar path while a modular multiply costs ~6 FP ops
     * instead of ten 32x32 partial products.
     */
    bool (*fp_transform)(u64* p, size_t n, const double* pre_rev,
                         const double* tw, const double* post, u64 q);
};

/** True when this process can execute `b` (CPUID + compile support). */
bool supported(Backend b);

/**
 * The active backend. First call resolves MADFHE_SIMD against CPUID:
 * `auto` (default) picks the widest supported backend, `off` forces
 * scalar, and an explicitly requested but unsupported backend degrades
 * to the widest available one with a one-time stderr warning. An
 * unrecognized value throws UserError.
 */
Backend backend();

/** Dispatch table of the active backend. */
const Kernels& kernels();

/** Programmatic override (tests, perf_gate); requires supported(b). */
void setBackend(Backend b);

/** Display name of `b` ("scalar", "avx2", "avx512"). */
const char* backendName(Backend b);

/** Display name of the active backend. */
const char* activeName();

/** Telemetry span label of the active backend ("simd.avx2", ...). */
const char* activeSpanLabel();

/** Internal: per-ISA tables; null when not compiled or not runnable. */
const Kernels* scalarKernels();
const Kernels* avx2Kernels();
const Kernels* avx512Kernels();

} // namespace simd
} // namespace madfhe

#endif // MADFHE_RNS_SIMD_SIMD_H
