/**
 * @file
 * Private neural-network inference (a functional miniature of the
 * ResNet-20 workload the paper evaluates) using the reusable
 * apps::EncryptedMlp: a 2-layer MLP with square activations runs on a
 * batch of encrypted inputs. The dense layers are block-circulant
 * PtMatVecMult transforms (hoisted ModUp, one ModDown pair per giant
 * step).
 */
#include <cmath>
#include <cstdio>

#include "apps/mlp.h"
#include "ckks/encryptor.h"
#include "support/random.h"

using namespace madfhe;
using namespace madfhe::apps;

int
main()
{
    std::printf("=== Private MLP inference (8 -> 8 -> 4, square "
                "activation) ===\n\n");

    CkksParams p;
    p.log_n = 11;
    p.log_scale = 36;
    p.first_prime_bits = 48;
    p.num_levels = 6;
    p.dnum = 2;
    auto ctx = std::make_shared<CkksContext>(p);
    const size_t dim = 8, out_dim = 4;

    // Server-side plaintext weights.
    Prng rng(21);
    auto randMat = [&](size_t rows) {
        std::vector<std::vector<double>> m(rows, std::vector<double>(dim));
        for (auto& row : m)
            for (auto& v : row)
                v = (2.0 * rng.uniformReal() - 1.0) * 0.5;
        return m;
    };
    EncryptedMlp mlp(ctx, {randMat(dim), randMat(out_dim)}, dim);

    KeyGenerator keygen(ctx);
    SecretKey sk = keygen.secretKey();
    PublicKey pk = keygen.publicKey(sk);
    SwitchingKey rlk = keygen.relinKey(sk);
    GaloisKeys gks = keygen.galoisKeys(sk, mlp.requiredRotations());
    CkksEncoder encoder(ctx);
    Encryptor encryptor(ctx, pk);
    Decryptor decryptor(ctx, sk);
    Evaluator eval(ctx);

    // Client-side encrypted inputs, batch() samples per ciphertext.
    std::vector<double> input(ctx->slots());
    for (auto& v : input)
        v = 2.0 * rng.uniformReal() - 1.0;
    Ciphertext ct = encryptor.encrypt(
        encoder.encodeReal(input, ctx->scale(), ctx->maxLevel()));

    Ciphertext logits = mlp.infer(eval, encoder, ct, gks, rlk);
    auto out = encoder.decode(decryptor.decrypt(logits));

    // Validate against the plaintext forward pass per batch element.
    double max_err = 0;
    size_t agree = 0;
    for (size_t b = 0; b < mlp.batch(); ++b) {
        std::vector<double> sample(input.begin() + b * dim,
                                   input.begin() + (b + 1) * dim);
        auto ref = mlp.inferPlain(sample);
        size_t ref_arg = 0, enc_arg = 0;
        for (size_t r = 0; r < out_dim; ++r) {
            double enc = out[b * dim + r].real();
            max_err = std::max(max_err, std::abs(enc - ref[r]));
            if (ref[r] > ref[ref_arg])
                ref_arg = r;
            if (enc > out[b * dim + enc_arg].real())
                enc_arg = r;
        }
        agree += (ref_arg == enc_arg);
    }

    std::printf("batch size          : %zu encrypted samples\n",
                mlp.batch());
    std::printf("levels consumed     : %zu of %zu\n",
                ctx->maxLevel() - logits.level(), ctx->maxLevel());
    std::printf("max logit error     : %.2e\n", max_err);
    std::printf("argmax agreement    : %zu / %zu\n", agree, mlp.batch());
    bool ok = max_err < 1e-3 && agree == mlp.batch();
    std::printf("%s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
