/**
 * @file
 * Packed-kernel subsystem tests (ctest label `kernels`).
 *
 * Seeded property tests compare every compiled ISA tier against the
 * naive reference loops across odd/tail shapes, the fused epilogue
 * against separate bias/activation passes, and the persistent
 * packed-weight cache against every way a weight tensor can be written
 * (each must change its version and force a repack). The
 * low-precision sections hold the int8/bf16 tiers to a derived
 * per-element quantization error bound against the f32 naive
 * reference, pin cross-tier int8 bit-identity (all tiers share one
 * quantization scheme) and skinny-m 2-D-split determinism, and verify
 * the cache keeps distinct entries per precision. The trace section
 * proves the obliviousness claim: canonical traces of the certified
 * generators are bit-identical regardless of which GEMM tier — and
 * which precision — runs underneath (label `leakage`).
 */

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "telemetry/telemetry.h"
#include "tensor/aligned.h"
#include "tensor/gemm.h"
#include "tensor/kernels/driver.h"
#include "tensor/kernels/kernels.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "verify/harness.h"

namespace secemb {
namespace {

using kernels::Activation;
using kernels::Isa;

/** Forces a tier for the scope of a test; restores normal selection. */
class ScopedIsa
{
  public:
    explicit ScopedIsa(Isa isa)
    {
        kernels::SetIsaForTest(static_cast<int>(isa));
    }
    ~ScopedIsa() { kernels::SetIsaForTest(-1); }
};

std::vector<Isa>
SupportedTiers()
{
    std::vector<Isa> tiers;
    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
        if (kernels::IsaSupported(isa)) tiers.push_back(isa);
    }
    return tiers;
}

/** max |got - want| / max(1, |want|) over all elements. */
float
MaxRelError(const Tensor& got, const Tensor& want)
{
    EXPECT_EQ(got.shape(), want.shape());
    float worst = 0.0f;
    for (int64_t i = 0; i < got.numel(); ++i) {
        const float denom = std::max(1.0f, std::fabs(want.at(i)));
        worst = std::max(worst, std::fabs(got.at(i) - want.at(i)) / denom);
    }
    return worst;
}

constexpr float kRelTol = 1e-4f;

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(KernelDispatchTest, ScalarTierAlwaysAvailable)
{
    EXPECT_TRUE(kernels::IsaCompiledIn(Isa::kScalar));
    EXPECT_TRUE(kernels::IsaSupported(Isa::kScalar));
    EXPECT_STREQ(kernels::IsaName(Isa::kScalar), "scalar");
    EXPECT_STREQ(kernels::IsaName(Isa::kAvx2), "avx2");
    EXPECT_STREQ(kernels::IsaName(Isa::kAvx512), "avx512");
}

TEST(KernelDispatchTest, ForcedTierIsActiveAndClampRestores)
{
    // Baseline is whatever normal selection picks (the SECEMB_ISA
    // environment override, else the widest supported tier) — the test
    // must pass under any SECEMB_ISA setting.
    const Isa baseline = kernels::ActiveIsa();
    {
        ScopedIsa scoped(Isa::kScalar);
        EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);
    }
    EXPECT_EQ(kernels::ActiveIsa(), baseline);
}

TEST(KernelDispatchTest, UnsupportedForceClampsToWidest)
{
    // Forcing a tier the build/CPU cannot satisfy must clamp, not crash.
    kernels::SetIsaForTest(static_cast<int>(Isa::kAvx512));
    const Isa active = kernels::ActiveIsa();
    EXPECT_TRUE(kernels::IsaSupported(active));
    kernels::SetIsaForTest(-1);
}

// ---------------------------------------------------------------------------
// Satellite: Tensor payload alignment
// ---------------------------------------------------------------------------

TEST(KernelAlignmentTest, TensorPayloadsAre64ByteAligned)
{
    Rng rng(11);
    // Odd sizes included on purpose: alignment must come from the
    // allocator, not from size rounding.
    for (int64_t n : {1, 3, 7, 17, 63, 64, 65, 1000, 4096}) {
        const Tensor t = Tensor::Randn({n}, rng);
        EXPECT_TRUE(IsAligned64(t.data())) << "numel=" << n;
        Tensor copy = t;
        EXPECT_TRUE(IsAligned64(copy.data())) << "copy numel=" << n;
    }
}

TEST(KernelAlignmentTest, PackedPanelsAre64ByteAligned)
{
    Rng rng(12);
    const Tensor b = Tensor::Randn({37, 19}, rng);
    for (Isa isa : SupportedTiers()) {
        kernels::PackedB packed;
        kernels::PackB(b.data(), 37, 19, /*transposed_src=*/false, isa,
                       &packed);
        EXPECT_TRUE(IsAligned64(packed.data.data()))
            << kernels::IsaName(isa);
        // Panel rows are NR floats; NR*4 divides 64 for every tier, so
        // per-panel bases stay aligned too.
        EXPECT_EQ((packed.nr * 4) % 64 == 0 || (64 % (packed.nr * 4)) == 0,
                  true);
    }
}

// ---------------------------------------------------------------------------
// Satellite: shape validation regression (the `(void)b;` bug)
// ---------------------------------------------------------------------------

TEST(KernelShapeCheckTest, GemmRejectsMismatchedB)
{
    Tensor a({4, 8}), c({4, 5});
    Tensor b_bad_cols({8, 6});   // n disagrees with C
    Tensor b_bad_rows({7, 5});   // inner dim disagrees with A
    EXPECT_THROW(Gemm(a, b_bad_cols, c), std::invalid_argument);
    EXPECT_THROW(Gemm(a, b_bad_rows, c), std::invalid_argument);
    EXPECT_THROW(GemmNaive(a, b_bad_cols, c), std::invalid_argument);
}

TEST(KernelShapeCheckTest, GemmBTRejectsMismatchedB)
{
    Tensor a({4, 8}), c({4, 5});
    Tensor bt_bad_inner({5, 9});  // B^T inner dim disagrees with A
    Tensor bt_bad_rows({6, 8});   // n disagrees with C
    EXPECT_THROW(GemmBT(a, bt_bad_inner, c), std::invalid_argument);
    EXPECT_THROW(GemmBT(a, bt_bad_rows, c), std::invalid_argument);
    EXPECT_THROW(GemmBTNaive(a, bt_bad_inner, c), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property tests: every tier vs the naive reference
// ---------------------------------------------------------------------------

struct GemmCase
{
    int64_t m, k, n;
    int nthreads;
};

/**
 * Seeded shape corpus: all dims from {1..17, 63, 64, 65} plus a few
 * large-dim probes, >= 340 triples. Run per compiled tier this exceeds
 * 1000 property cases on any x86-64 build.
 */
std::vector<GemmCase>
ShapeCorpus(uint64_t seed)
{
    static const int64_t kDims[] = {1,  2,  3,  4,  5,  6,  7,  8,  9, 10,
                                    11, 12, 13, 14, 15, 16, 17, 63, 64, 65};
    std::vector<GemmCase> cases;
    Rng rng(seed);
    auto pick = [&rng]() {
        return kDims[rng.NextBounded(sizeof(kDims) / sizeof(kDims[0]))];
    };
    for (int i = 0; i < 330; ++i) {
        cases.push_back({pick(), pick(), pick(),
                         i % 7 == 0 ? 3 : 1});
    }
    // One big dim at a time keeps each case cheap while still crossing
    // every MC/KC/NC blocking boundary.
    cases.push_back({1024, 5, 9, 1});
    cases.push_back({5, 1024, 9, 1});
    cases.push_back({5, 9, 1024, 1});
    cases.push_back({256, 1024, 512, 2});  // DHE decoder layer shape
    return cases;
}

TEST(KernelPropertyTest, GemmMatchesNaiveOnEveryTier)
{
    Rng rng(101);
    const auto corpus = ShapeCorpus(202);
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        for (const auto& tc : corpus) {
            const Tensor a = Tensor::Randn({tc.m, tc.k}, rng);
            const Tensor b = Tensor::Randn({tc.k, tc.n}, rng);
            Tensor want({tc.m, tc.n}), got({tc.m, tc.n});
            GemmNaive(a, b, want);
            Gemm(a, b, got, tc.nthreads);
            ASSERT_LE(MaxRelError(got, want), kRelTol)
                << kernels::IsaName(isa) << " m=" << tc.m << " k=" << tc.k
                << " n=" << tc.n << " t=" << tc.nthreads;
        }
    }
}

TEST(KernelPropertyTest, GemmBTMatchesNaiveOnEveryTier)
{
    Rng rng(103);
    const auto corpus = ShapeCorpus(204);
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        for (const auto& tc : corpus) {
            const Tensor a = Tensor::Randn({tc.m, tc.k}, rng);
            const Tensor bt = Tensor::Randn({tc.n, tc.k}, rng);
            Tensor want({tc.m, tc.n}), got({tc.m, tc.n});
            GemmBTNaive(a, bt, want);
            GemmBT(a, bt, got, tc.nthreads);
            ASSERT_LE(MaxRelError(got, want), kRelTol)
                << kernels::IsaName(isa) << " m=" << tc.m << " k=" << tc.k
                << " n=" << tc.n << " t=" << tc.nthreads;
        }
    }
}

TEST(KernelPropertyTest, GemmATMatchesNaiveOnEveryTier)
{
    Rng rng(105);
    const auto corpus = ShapeCorpus(206);
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        for (const auto& tc : corpus) {
            const Tensor at = Tensor::Randn({tc.k, tc.m}, rng);
            const Tensor b = Tensor::Randn({tc.k, tc.n}, rng);
            Tensor want({tc.m, tc.n}), got({tc.m, tc.n});
            GemmATNaive(at, b, want);
            GemmAT(at, b, got, tc.nthreads);
            ASSERT_LE(MaxRelError(got, want), kRelTol)
                << kernels::IsaName(isa) << " m=" << tc.m << " k=" << tc.k
                << " n=" << tc.n << " t=" << tc.nthreads;
        }
    }
}

TEST(KernelPropertyTest, TiersAgreeWithEachOther)
{
    // Cross-tier consistency at one blocking-boundary shape: all
    // compiled tiers must agree within tolerance on identical inputs.
    Rng rng(107);
    const Tensor a = Tensor::Randn({65, 385}, rng);
    const Tensor b = Tensor::Randn({385, 129}, rng);
    const auto tiers = SupportedTiers();
    Tensor base({65, 129});
    {
        ScopedIsa scoped(tiers.front());
        Gemm(a, b, base);
    }
    for (size_t i = 1; i < tiers.size(); ++i) {
        ScopedIsa scoped(tiers[i]);
        Tensor got({65, 129});
        Gemm(a, b, got);
        EXPECT_LE(MaxRelError(got, base), kRelTol)
            << kernels::IsaName(tiers[i]);
    }
}

// ---------------------------------------------------------------------------
// Fused epilogue
// ---------------------------------------------------------------------------

TEST(KernelEpilogueTest, FusedBiasActMatchesSeparatePasses)
{
    Rng rng(109);
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        for (const auto act : {Activation::kIdentity, Activation::kRelu,
                               Activation::kGelu}) {
            const int64_t m = 33, k = 65, n = 47;
            const Tensor x = Tensor::Randn({m, k}, rng);
            const Tensor w = Tensor::Randn({k, n}, rng);
            const Tensor bias = Tensor::Randn({n}, rng);

            Tensor want({m, n});
            GemmNaive(x, w, want);
            for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = 0; j < n; ++j) {
                    float v = want.at(i, j) + bias.at(j);
                    if (act == Activation::kRelu) v = std::max(0.0f, v);
                    if (act == Activation::kGelu) v = kernels::GeluF(v);
                    want.at(i, j) = v;
                }
            }

            Tensor got({m, n}), preact({m, n});
            AffineActForward(x, w, bias, got, 1, act, &preact,
                             kernels::Dtype::kF32);
            EXPECT_LE(MaxRelError(got, want), kRelTol)
                << kernels::IsaName(isa) << " act="
                << static_cast<int>(act);

            // preact must hold x*W + bias regardless of activation.
            Tensor want_pre({m, n});
            GemmNaive(x, w, want_pre);
            for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = 0; j < n; ++j) {
                    want_pre.at(i, j) += bias.at(j);
                }
            }
            EXPECT_LE(MaxRelError(preact, want_pre), kRelTol)
                << kernels::IsaName(isa);
        }
        kernels::PackedWeightCache::Instance().Clear();
    }
}

TEST(KernelEpilogueTest, EmptyBiasSkipsBroadcast)
{
    Rng rng(111);
    const Tensor x = Tensor::Randn({9, 31}, rng);
    const Tensor w = Tensor::Randn({31, 13}, rng);
    Tensor want({9, 13}), got({9, 13});
    GemmNaive(x, w, want);
    AffineForward(x, w, Tensor(), got, 1, kernels::Dtype::kF32);
    EXPECT_LE(MaxRelError(got, want), kRelTol);
    kernels::PackedWeightCache::Instance().Clear();
}

// ---------------------------------------------------------------------------
// Persistent packed-weight cache
// ---------------------------------------------------------------------------

TEST(PackedWeightCacheTest, SecondGetHitsWithoutRepacking)
{
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(113);
    const Tensor w = Tensor::Randn({24, 16}, rng);

    const auto before = cache.stats();
    const auto p1 = cache.Get(w, false);
    const auto p2 = cache.Get(w, false);
    const auto after = cache.stats();

    EXPECT_EQ(p1.get(), p2.get());
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.repacks - before.repacks, 0u);
    EXPECT_EQ(cache.entries(), 1u);
    cache.Clear();
    EXPECT_EQ(cache.entries(), 0u);
}

TEST(PackedWeightCacheTest, InPlaceMutationTriggersRepack)
{
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(115);
    Tensor w = Tensor::Randn({24, 16}, rng);
    const Tensor x = Tensor::Randn({8, 24}, rng);

    Tensor y1({8, 16});
    AffineForward(x, w, Tensor(), y1, 1, kernels::Dtype::kF32);
    const uint64_t packed_version = w.version();

    // Optimiser-style in-place update: same buffer, new content. The
    // write gives the tensor a new version, so the cache repacks.
    w.ScaleInPlace(2.0f);
    EXPECT_NE(w.version(), packed_version);
    const auto before = cache.stats();
    Tensor y2({8, 16});
    AffineForward(x, w, Tensor(), y2, 1, kernels::Dtype::kF32);
    const auto after = cache.stats();
    EXPECT_EQ(after.repacks - before.repacks, 1u);
    EXPECT_EQ(after.hits - before.hits, 0u);
    EXPECT_EQ(cache.Get(w, false)->version, w.version());

    Tensor want({8, 16});
    GemmNaive(x, w, want);
    EXPECT_LE(MaxRelError(y2, want), kRelTol);
    // And the scaled output really is 2x the original.
    EXPECT_LE(MaxRelError(y2, y1.Scale(2.0f)), kRelTol);
    cache.Clear();
}

TEST(PackedWeightCacheTest, TransposedAndPlainPacksAreDistinct)
{
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(117);
    const Tensor w = Tensor::Randn({16, 16}, rng);
    const auto plain = cache.Get(w, false);
    const auto trans = cache.Get(w, true);
    EXPECT_NE(plain.get(), trans.get());
    EXPECT_EQ(cache.entries(), 2u);
    cache.Clear();
}

TEST(PackedWeightCacheTest, EntriesSurviveClearWhileHeld)
{
    // shared_ptr contract: Clear() must not invalidate panels a running
    // GEMM still holds.
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(119);
    const Tensor w = Tensor::Randn({8, 8}, rng);
    const auto held = cache.Get(w, false);
    cache.Clear();
    EXPECT_EQ(held->k, 8);
    EXPECT_EQ(held->n, 8);
    EXPECT_TRUE(IsAligned64(held->data.data()));
}

// ---------------------------------------------------------------------------
// A-panel scratch shrink policy
// ---------------------------------------------------------------------------

TEST(APackScratchTest, ScratchShrinksAfterLargePack)
{
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(121);

    // nthreads = 1 keeps both packing and the region on this thread, so
    // the thread-local scratch capacity is observable here.
    const auto run = [&](int64_t m, int64_t k) {
        const Tensor a = Tensor::Randn({m, k}, rng);
        const Tensor b = Tensor::Randn({k, 8}, rng);
        Tensor c({m, 8});
        const auto packed = cache.Get(b, false);
        kernels::GemmArgs args;
        args.a = a.data();
        args.b = packed.get();
        args.c = c.data();
        args.m = m;
        args.nthreads = 1;
        kernels::GemmPacked(args);
    };

    run(256, 512);  // A panels need >= 512 KiB of scratch
    const size_t big = kernels::detail::APackScratchCapacityForTest();
    EXPECT_GE(big * sizeof(float), size_t{512} * 1024);

    // A tiny follow-up call: retained capacity dwarfs the need, so the
    // scratch must release its storage instead of pinning it forever.
    run(8, 16);
    const size_t small = kernels::detail::APackScratchCapacityForTest();
    EXPECT_LT(small, big / 4);
    EXPECT_LE(small * sizeof(float), size_t{256} * 1024);

    // The reallocated scratch still produces correct results.
    const Tensor x = Tensor::Randn({8, 16}, rng);
    const Tensor w = Tensor::Randn({16, 8}, rng);
    Tensor want({8, 8}), got({8, 8});
    GemmNaive(x, w, want);
    AffineForward(x, w, Tensor(), got, 1, kernels::Dtype::kF32);
    EXPECT_LE(MaxRelError(got, want), kRelTol);
    cache.Clear();
}

// ---------------------------------------------------------------------------
// Low-precision tiers (int8 / bf16)
// ---------------------------------------------------------------------------

using kernels::Dtype;

/** Forces a precision for the scope of a test; restores env selection. */
class ScopedDtype
{
  public:
    explicit ScopedDtype(Dtype dtype)
    {
        kernels::SetDtypeForTest(static_cast<int>(dtype));
    }
    ~ScopedDtype() { kernels::SetDtypeForTest(-1); }
};

/** Runs the packed GEMM at an explicit precision (transient pack). */
void
GemmAtDtype(const Tensor& a, const Tensor& b, Tensor& c, Dtype dtype,
            int nthreads, const kernels::Epilogue& ep = {})
{
    kernels::PackedB packed;
    kernels::PackB(b.data(), b.size(0), b.size(1),
                   /*transposed_src=*/false, kernels::ActiveIsa(), dtype,
                   &packed);
    kernels::GemmArgs args;
    args.a = a.data();
    args.b = &packed;
    args.c = c.data();
    args.m = a.size(0);
    args.nthreads = nthreads;
    args.epilogue = ep;
    kernels::GemmPacked(args);
}

/**
 * Derived per-element quantization error bound.
 *
 * int8: B columns quantize with scale sb_j = colmax|b| / 127 (|db| <=
 * sb_j/2), A rows with sa_i = rowmax|a| / 63 (|da| <= sa_i/2), so
 *
 *   |sum (a+da)(b+db) - sum ab|
 *     <= (sb_j/2) sum|a| + (sa_i/2) sum|b| + k sa_i sb_j / 4.
 *
 * bf16: only B quantizes, round-to-nearest-even on an 8-bit
 * significand (7 stored mantissa bits; |db| <= 2^-8 |b|), giving
 * 2^-8 sum|a||b|. Both get the f32
 * accumulation slop the f32 tier tolerance already allows, and a 1.5x
 * safety factor on the quantization part.
 */
Tensor
QuantErrorBound(const Tensor& a, const Tensor& b, Dtype dtype)
{
    const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
    Tensor bound({m, n});
    std::vector<float> sa(static_cast<size_t>(m));
    std::vector<float> abs_row(static_cast<size_t>(m));
    for (int64_t i = 0; i < m; ++i) {
        float amax = 0.0f, asum = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
            amax = std::max(amax, std::fabs(a.at(i, p)));
            asum += std::fabs(a.at(i, p));
        }
        sa[static_cast<size_t>(i)] = amax / 63.0f;
        abs_row[static_cast<size_t>(i)] = asum;
    }
    std::vector<float> sb(static_cast<size_t>(n));
    std::vector<float> abs_col(static_cast<size_t>(n));
    for (int64_t j = 0; j < n; ++j) {
        float bmax = 0.0f, bsum = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
            bmax = std::max(bmax, std::fabs(b.at(p, j)));
            bsum += std::fabs(b.at(p, j));
        }
        sb[static_cast<size_t>(j)] = bmax / 127.0f;
        abs_col[static_cast<size_t>(j)] = bsum;
    }
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float q = 0.0f;
            if (dtype == Dtype::kInt8) {
                q = 0.5f * sb[static_cast<size_t>(j)] *
                        abs_row[static_cast<size_t>(i)] +
                    0.5f * sa[static_cast<size_t>(i)] *
                        abs_col[static_cast<size_t>(j)] +
                    0.25f * static_cast<float>(k) *
                        sa[static_cast<size_t>(i)] *
                        sb[static_cast<size_t>(j)];
            } else if (dtype == Dtype::kBf16) {
                float dot_abs = 0.0f;
                for (int64_t p = 0; p < k; ++p) {
                    dot_abs += std::fabs(a.at(i, p) * b.at(p, j));
                }
                q = dot_abs / 256.0f;  // 2^-8 relative per B element
            }
            bound.at(i, j) = 1.5f * q + 1e-5f;
        }
    }
    return bound;
}

TEST(KernelLowPrecisionTest, QuantizedGemmWithinDerivedBoundOnEveryTier)
{
    // 334 shapes x up to 3 tiers x 2 precisions > 1000 property cases.
    Rng rng(131);
    const auto corpus = ShapeCorpus(232);
    for (Dtype dtype : {Dtype::kInt8, Dtype::kBf16}) {
        ScopedDtype scoped_dtype(dtype);
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            for (const auto& tc : corpus) {
                const Tensor a = Tensor::Randn({tc.m, tc.k}, rng);
                const Tensor b = Tensor::Randn({tc.k, tc.n}, rng);
                Tensor want({tc.m, tc.n}), got({tc.m, tc.n});
                GemmNaive(a, b, want);
                GemmAtDtype(a, b, got, dtype, tc.nthreads);
                const Tensor bound = QuantErrorBound(a, b, dtype);
                for (int64_t i = 0; i < want.numel(); ++i) {
                    const float tol =
                        bound.at(i) + kRelTol * std::max(
                                          1.0f, std::fabs(want.at(i)));
                    ASSERT_LE(std::fabs(got.at(i) - want.at(i)), tol)
                        << kernels::DtypeName(dtype) << "/"
                        << kernels::IsaName(isa) << " m=" << tc.m
                        << " k=" << tc.k << " n=" << tc.n << " elem "
                        << i;
                }
            }
        }
    }
}

TEST(KernelLowPrecisionTest, Int8TiersAreBitIdentical)
{
    // All int8 tiers share one quantization scheme and integer dot, so
    // their f32 outputs must agree exactly — not just within tolerance.
    Rng rng(133);
    const auto tiers = SupportedTiers();
    for (const auto& sh :
         std::vector<GemmCase>{{1, 1024, 512, 1},
                               {8, 512, 256, 3},
                               {65, 385, 129, 1},
                               {17, 3, 9, 1}}) {
        const Tensor a = Tensor::Randn({sh.m, sh.k}, rng);
        const Tensor b = Tensor::Randn({sh.k, sh.n}, rng);
        Tensor base({sh.m, sh.n});
        {
            ScopedIsa scoped(tiers.front());
            GemmAtDtype(a, b, base, Dtype::kInt8, sh.nthreads);
        }
        for (size_t t = 1; t < tiers.size(); ++t) {
            ScopedIsa scoped(tiers[t]);
            Tensor got({sh.m, sh.n});
            GemmAtDtype(a, b, got, Dtype::kInt8, sh.nthreads);
            for (int64_t i = 0; i < got.numel(); ++i) {
                ASSERT_EQ(got.at(i), base.at(i))
                    << kernels::IsaName(tiers[t]) << " m=" << sh.m
                    << " k=" << sh.k << " n=" << sh.n;
            }
        }
    }
}

TEST(KernelLowPrecisionTest, SkinnyMSplitIsThreadCountInvariant)
{
    // Decoder GEMMs (m <= 8) engage the 2-D column split when threads
    // exceed row tiles; every worker owns disjoint C columns with the
    // same sequential k-block order, so results must be bit-identical
    // at any thread count — for every precision.
    Rng rng(135);
    for (Dtype dtype : {Dtype::kF32, Dtype::kBf16, Dtype::kInt8}) {
        for (const auto& sh : std::vector<GemmCase>{{1, 384, 1024, 0},
                                                    {4, 512, 640, 0},
                                                    {8, 700, 4100, 0}}) {
            const Tensor a = Tensor::Randn({sh.m, sh.k}, rng);
            const Tensor b = Tensor::Randn({sh.k, sh.n}, rng);
            Tensor base({sh.m, sh.n});
            GemmAtDtype(a, b, base, dtype, 1);
            for (int nth : {2, 4, 8}) {
                Tensor got({sh.m, sh.n});
                GemmAtDtype(a, b, got, dtype, nth);
                for (int64_t i = 0; i < got.numel(); ++i) {
                    ASSERT_EQ(got.at(i), base.at(i))
                        << kernels::DtypeName(dtype) << " m=" << sh.m
                        << " n=" << sh.n << " nth=" << nth;
                }
            }
        }
    }
}

TEST(KernelLowPrecisionTest, FusedEpilogueMatchesUnfusedPerPrecision)
{
    Rng rng(137);
    const int64_t m = 9, k = 450, n = 47;  // crosses one KC boundary
    for (Dtype dtype : {Dtype::kF32, Dtype::kBf16, Dtype::kInt8}) {
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            for (const auto act :
                 {Activation::kIdentity, Activation::kRelu,
                  Activation::kGelu}) {
                const Tensor x = Tensor::Randn({m, k}, rng);
                const Tensor w = Tensor::Randn({k, n}, rng);
                const Tensor bias = Tensor::Randn({n}, rng);

                // Unfused at the same precision: bare quantized GEMM,
                // then separate bias + activation sweeps.
                Tensor want({m, n});
                GemmAtDtype(x, w, want, dtype, 1);
                Tensor want_pre = want;
                for (int64_t i = 0; i < m; ++i) {
                    for (int64_t j = 0; j < n; ++j) {
                        float v = want.at(i, j) + bias.at(j);
                        want_pre.at(i, j) = v;
                        if (act == Activation::kRelu) {
                            v = std::max(0.0f, v);
                        }
                        if (act == Activation::kGelu) {
                            v = kernels::GeluF(v);
                        }
                        want.at(i, j) = v;
                    }
                }

                Tensor got({m, n}), preact({m, n});
                kernels::Epilogue ep;
                ep.bias = bias.data();
                ep.act = act;
                ep.preact = preact.data();
                GemmAtDtype(x, w, got, dtype, 1, ep);
                EXPECT_LE(MaxRelError(got, want), kRelTol)
                    << kernels::DtypeName(dtype) << "/"
                    << kernels::IsaName(isa) << " act="
                    << static_cast<int>(act);
                EXPECT_LE(MaxRelError(preact, want_pre), kRelTol)
                    << kernels::DtypeName(dtype) << "/"
                    << kernels::IsaName(isa);
            }
        }
    }
}

TEST(KernelLowPrecisionTest, ZeroRowsAndColumnsStayExact)
{
    // amax = 0 rows get scale 0 and must contribute exactly zero (no
    // zero-point residue); all-zero B columns likewise.
    Rng rng(139);
    Tensor a = Tensor::Randn({5, 96}, rng);
    Tensor b = Tensor::Randn({96, 24}, rng);
    for (int64_t p = 0; p < 96; ++p) {
        a.at(2, p) = 0.0f;
        b.at(p, 3) = 0.0f;
    }
    for (Dtype dtype : {Dtype::kInt8, Dtype::kBf16}) {
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            Tensor got({5, 24});
            GemmAtDtype(a, b, got, dtype, 1);
            for (int64_t j = 0; j < 24; ++j) {
                ASSERT_EQ(got.at(2, j), 0.0f)
                    << kernels::DtypeName(dtype) << "/"
                    << kernels::IsaName(isa);
            }
            for (int64_t i = 0; i < 5; ++i) {
                ASSERT_EQ(got.at(i, 3), 0.0f)
                    << kernels::DtypeName(dtype) << "/"
                    << kernels::IsaName(isa);
            }
        }
    }
}

TEST(PackedWeightCacheTest, PrecisionSwitchKeepsDistinctEntries)
{
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(141);
    const Tensor w = Tensor::Randn({24, 16}, rng);

    const auto f32 = cache.Get(w, false, Dtype::kF32);
    const auto i8 = cache.Get(w, false, Dtype::kInt8);
    const auto bf = cache.Get(w, false, Dtype::kBf16);
    EXPECT_NE(f32.get(), i8.get());
    EXPECT_NE(f32.get(), bf.get());
    EXPECT_NE(i8.get(), bf.get());
    EXPECT_EQ(cache.entries(), 3u);
    EXPECT_EQ(f32->dtype, Dtype::kF32);
    EXPECT_EQ(i8->dtype, Dtype::kInt8);
    EXPECT_EQ(bf->dtype, Dtype::kBf16);

    // Switching back is a hit, not a repack.
    const auto before = cache.stats();
    const auto again = cache.Get(w, false, Dtype::kF32);
    const auto after = cache.stats();
    EXPECT_EQ(again.get(), f32.get());
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.repacks - before.repacks, 0u);
    cache.Clear();
}

TEST(PackedWeightCacheTest, MutationRepacksQuantizedEntry)
{
    // Version validation is precision-independent: an in-place weight
    // update must re-quantize the int8 panels too.
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(143);
    Tensor w = Tensor::Randn({24, 16}, rng);
    const Tensor x = Tensor::Randn({4, 24}, rng);

    Tensor y1({4, 16});
    AffineForward(x, w, Tensor(), y1, 1, Dtype::kInt8);
    const uint64_t packed_version = w.version();
    w.ScaleInPlace(2.0f);
    EXPECT_NE(w.version(), packed_version);
    const auto before = cache.stats();
    Tensor y2({4, 16});
    AffineForward(x, w, Tensor(), y2, 1, Dtype::kInt8);
    const auto after = cache.stats();
    EXPECT_EQ(after.repacks - before.repacks, 1u);
    EXPECT_EQ(cache.Get(w, false, Dtype::kInt8)->version, w.version());
    // Symmetric quantization commutes with scaling, so the int8 result
    // doubles exactly.
    EXPECT_LE(MaxRelError(y2, y1.Scale(2.0f)), kRelTol);
    cache.Clear();
}

// ---------------------------------------------------------------------------
// Versioned weights: every write path repacks, frozen weights never do
// ---------------------------------------------------------------------------

/** The ways a weight tensor can be written after it was packed. */
enum class WritePath
{
    kData,
    kFlat,
    kAt,
    kRow,
    kFill,
    kScaleInPlace,
    kAddInPlace,
    kCopyAssign,
    kMoveAssign,
    kSgdStep,
    kAdamStep,
    kLoadParameters,
};

const char*
WritePathName(WritePath path)
{
    switch (path) {
        case WritePath::kData: return "data";
        case WritePath::kFlat: return "flat";
        case WritePath::kAt: return "at";
        case WritePath::kRow: return "row";
        case WritePath::kFill: return "Fill";
        case WritePath::kScaleInPlace: return "ScaleInPlace";
        case WritePath::kAddInPlace: return "AddInPlace";
        case WritePath::kCopyAssign: return "CopyAssign";
        case WritePath::kMoveAssign: return "MoveAssign";
        case WritePath::kSgdStep: return "SgdStep";
        case WritePath::kAdamStep: return "AdamStep";
        case WritePath::kLoadParameters: return "LoadParameters";
    }
    return "?";
}

/**
 * Writes the packed weight of `layer` through `path`. Every path moves
 * the weights far from the packed ones, so a stale panel could not pass
 * the caller's error bound.
 */
void
WriteThrough(WritePath path, nn::Linear& layer, Rng& rng)
{
    Tensor& w = layer.weight().value;
    const int64_t k = w.size(0), n = w.size(1);
    switch (path) {
        case WritePath::kData:
            for (int64_t i = 0; i < w.numel(); ++i) w.data()[i] += 1.0f;
            break;
        case WritePath::kFlat:
            for (float& v : w.flat()) v = -3.0f * v;
            break;
        case WritePath::kAt:
            for (int64_t i = 0; i < k; ++i) {
                for (int64_t j = 0; j < n; ++j) w.at(i, j) += 0.5f;
            }
            break;
        case WritePath::kRow:
            for (int64_t i = 0; i < k; ++i) {
                for (float& v : w.row(i)) v = 2.0f - v;
            }
            break;
        case WritePath::kFill:
            w.Fill(0.25f);
            break;
        case WritePath::kScaleInPlace:
            w.ScaleInPlace(-2.0f);
            break;
        case WritePath::kAddInPlace:
            w.AddInPlace(Tensor::Full({k, n}, 1.0f));
            break;
        case WritePath::kCopyAssign: {
            const Tensor other = Tensor::Randn({k, n}, rng, 2.0f);
            w = other;
            break;
        }
        case WritePath::kMoveAssign:
            w = Tensor::Randn({k, n}, rng, 2.0f);
            break;
        case WritePath::kSgdStep:
        case WritePath::kAdamStep: {
            for (nn::Parameter* p : layer.Parameters()) {
                p->grad = Tensor::Randn(p->value.shape(), rng);
            }
            if (path == WritePath::kSgdStep) {
                nn::Sgd(layer.Parameters(), /*lr=*/1.0f).Step();
            } else {
                nn::Adam(layer.Parameters(), /*lr=*/0.5f).Step();
            }
            break;
        }
        case WritePath::kLoadParameters: {
            Rng other_rng(rng.Next());
            nn::Linear other(k, n, other_rng);
            other.weight().value.ScaleInPlace(4.0f);
            const std::string file =
                (std::filesystem::temp_directory_path() /
                 ("secemb_kernel_test_" + std::to_string(::getpid()) +
                  ".params"))
                    .string();
            nn::SaveParameters(other.Parameters(), file);
            nn::LoadParameters(layer.Parameters(), file);
            std::remove(file.c_str());
            break;
        }
    }
}

class WeightWritePathTest
    : public ::testing::TestWithParam<std::tuple<WritePath, Dtype>>
{
};

TEST_P(WeightWritePathTest, WriteRepacksAndMatchesNaive)
{
    const auto [path, dtype] = GetParam();
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(151 + static_cast<uint64_t>(path));
    constexpr int64_t kM = 5, kK = 40, kN = 24;
    nn::Linear layer(kK, kN, rng);
    const Tensor x = Tensor::Randn({kM, kK}, rng);

    Tensor y({kM, kN});
    AffineForward(x, layer.weight().value, Tensor(), y, 1, dtype);
    const uint64_t packed_version = layer.weight().value.version();

    WriteThrough(path, layer, rng);
    const Tensor& w = layer.weight().value;
    EXPECT_NE(w.version(), packed_version);

    const auto before = cache.stats();
    AffineForward(x, w, Tensor(), y, 1, dtype);
    const auto after = cache.stats();
    // A buffer written in place repacks its entry; a new buffer (move
    // assignment, LoadParameters) is a first pack at a new address.
    EXPECT_EQ(after.hits - before.hits, 0u);
    EXPECT_EQ((after.repacks - before.repacks) +
                  (after.misses - before.misses),
              1u);

    Tensor want({kM, kN});
    GemmNaive(x, w, want);
    const Tensor bound = QuantErrorBound(x, w, dtype);
    for (int64_t i = 0; i < want.numel(); ++i) {
        const float tol =
            bound.at(i) + kRelTol * std::max(1.0f, std::fabs(want.at(i)));
        ASSERT_LE(std::fabs(y.at(i) - want.at(i)), tol) << "elem " << i;
    }
    cache.Clear();
}

INSTANTIATE_TEST_SUITE_P(
    EveryWritePath, WeightWritePathTest,
    ::testing::Combine(
        ::testing::Values(WritePath::kData, WritePath::kFlat,
                          WritePath::kAt, WritePath::kRow,
                          WritePath::kFill, WritePath::kScaleInPlace,
                          WritePath::kAddInPlace, WritePath::kCopyAssign,
                          WritePath::kMoveAssign, WritePath::kSgdStep,
                          WritePath::kAdamStep,
                          WritePath::kLoadParameters),
        ::testing::Values(Dtype::kF32, Dtype::kBf16, Dtype::kInt8)),
    [](const auto& info) {
        return std::string(WritePathName(std::get<0>(info.param))) + "_" +
               kernels::DtypeName(std::get<1>(info.param));
    });

TEST(TensorVersionTest, LiveAndSuccessiveTensorsNeverShareAVersion)
{
    Rng rng(157);
    std::set<uint64_t> seen;
    std::vector<Tensor> live;
    for (int i = 0; i < 64; ++i) {
        live.push_back(Tensor::Randn({8, 8}, rng));
        EXPECT_NE(live.back().version(), 0u);
    }
    for (const Tensor& t : live) {
        EXPECT_TRUE(seen.insert(t.version()).second);
    }
    // A copy is a new payload, and the source keeps its version.
    const uint64_t source_version = live[0].version();
    const Tensor copy = live[0];
    EXPECT_TRUE(seen.insert(copy.version()).second);
    EXPECT_EQ(live[0].version(), source_version);
    // Successive tensors, typically at the address just freed: the
    // process-wide counter never hands a version out twice.
    for (int i = 0; i < 64; ++i) {
        const Tensor t = Tensor::Randn({8, 8}, rng);
        EXPECT_TRUE(seen.insert(t.version()).second);
    }
    // Reads through a const view leave the version alone.
    const Tensor& view = live[1];
    const uint64_t v = view.version();
    (void)view.data();
    (void)view.at(0);
    (void)view.row(0);
    (void)view.flat();
    EXPECT_EQ(view.version(), v);
}

TEST(PackedWeightCacheTest, FrozenWeightsNeverRepack)
{
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(159);
    nn::Linear layer(64, 32, rng, /*nthreads=*/1,
                     kernels::Activation::kRelu);
    const Tensor x = Tensor::Randn({4, 64}, rng);
    const uint64_t version = layer.weight().value.version();
    const Tensor first = layer.Forward(x);
    for (int i = 1; i < 100; ++i) {
        ASSERT_TRUE(layer.Forward(x).AllClose(first, 0.0f)) << i;
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 99u);
    EXPECT_EQ(stats.repacks, 0u);
    EXPECT_EQ(layer.weight().value.version(), version);
    cache.Clear();
}

#if SECEMB_TELEMETRY_ENABLED
TEST(PackedWeightCacheTest, PacksShowAsSpansAndHitsDoNot)
{
    // A repack storm must be visible: every pack records a
    // `kernels.pack_b` span and a `kernels.pack_b.ns` latency sample,
    // while a hit records neither.
    const bool was_enabled = telemetry::Enabled();
    telemetry::SetEnabled(true);
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    telemetry::ClearSpans();
    auto& hist =
        telemetry::Registry::Instance().GetHistogram("kernels.pack_b.ns");
    const auto count_packs = [] {
        int n = 0;
        for (const auto& span : telemetry::CollectSpans()) {
            n += std::string(span.name) == "kernels.pack_b" ? 1 : 0;
        }
        return n;
    };
    Rng rng(163);
    Tensor w = Tensor::Randn({32, 16}, rng);
    const uint64_t hist_before = hist.TakeSnapshot().count;
    cache.Get(w, false);  // miss
    cache.Get(w, false);  // hit
    w.ScaleInPlace(0.5f);
    cache.Get(w, false);  // repack
    EXPECT_EQ(count_packs(), 2);
    EXPECT_EQ(hist.TakeSnapshot().count - hist_before, 2u);
    telemetry::SetEnabled(was_enabled);
    cache.Clear();
}
#endif

#if defined(SECEMB_WEIGHT_CACHE_CHECK)
TEST(PackedWeightCacheDeathTest, SanitizerBuildCatchesUnversionedWrite)
{
    // The one write a version cannot see: through a pointer taken
    // before the GEMM. Sanitizer builds re-checksum on every hit.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    Rng rng(161);
    Tensor w = Tensor::Randn({16, 8}, rng);
    const Tensor x = Tensor::Randn({2, 16}, rng);
    float* raw = w.data();
    Tensor y({2, 8});
    AffineForward(x, w, Tensor(), y, 1, Dtype::kF32);
    raw[0] += 1.0f;
    EXPECT_DEATH(AffineForward(x, w, Tensor(), y, 1, Dtype::kF32),
                 "written without a version change");
    cache.Clear();
}
#endif

TEST(KernelLowPrecisionTest, PrecisionSelectionPlumbing)
{
    EXPECT_STREQ(kernels::DtypeName(Dtype::kF32), "f32");
    EXPECT_STREQ(kernels::DtypeName(Dtype::kBf16), "bf16");
    EXPECT_STREQ(kernels::DtypeName(Dtype::kInt8), "int8");
    Dtype d = Dtype::kF32;
    EXPECT_TRUE(kernels::ParseDtype("int8", &d));
    EXPECT_EQ(d, Dtype::kInt8);
    EXPECT_TRUE(kernels::ParseDtype("bf16", &d));
    EXPECT_EQ(d, Dtype::kBf16);
    EXPECT_TRUE(kernels::ParseDtype("f32", &d));
    EXPECT_EQ(d, Dtype::kF32);
    EXPECT_FALSE(kernels::ParseDtype("fp64", &d));
    // Baseline is whatever normal selection picks (the SECEMB_PRECISION
    // environment override, else f32) — the test must pass under any
    // SECEMB_PRECISION setting.
    const Dtype baseline = kernels::ActiveDtype();
    {
        ScopedDtype scoped(Dtype::kInt8);
        EXPECT_EQ(kernels::ActiveDtype(), Dtype::kInt8);
        // The effective ISA for int8 is always a tier with an int8
        // kernel compiled in and supported at runtime.
        const Isa eff = kernels::EffectiveIsaFor(kernels::ActiveIsa(),
                                                 Dtype::kInt8);
        EXPECT_TRUE(kernels::IsaSupported(eff));
    }
    EXPECT_EQ(kernels::ActiveDtype(), baseline);
}

// ---------------------------------------------------------------------------
// Obliviousness: canonical traces are tier-invariant (label `leakage`)
// ---------------------------------------------------------------------------

verify::VerifyConfig
TraceConfig(verify::Subject subject)
{
    verify::VerifyConfig config;
    config.subject = subject;
    config.rows = 64;
    config.dim = 16;
    config.batch = 4;
    config.seed = 7;
    return config;
}

TEST(KernelTraceTest, CanonicalTracesIdenticalAcrossTiers)
{
    using verify::Subject;
    for (Subject subject :
         {Subject::kLinearScan, Subject::kDhe, Subject::kHybrid}) {
        const auto config = TraceConfig(subject);
        verify::CanonicalTrace base;
        {
            ScopedIsa scoped(Isa::kScalar);
            base = verify::GoldenRun(config);
        }
        ASSERT_FALSE(base.accesses.empty())
            << verify::SubjectName(subject);
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            const auto got = verify::GoldenRun(config);
            const auto div = verify::CompareCanonical(base, got);
            EXPECT_FALSE(div.diverged)
                << verify::SubjectName(subject) << " under "
                << kernels::IsaName(isa) << ": " << div.detail;
        }
    }
}

TEST(KernelTraceTest, DifferentialPassesUnderEveryTier)
{
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        const auto result =
            verify::RunDifferential(TraceConfig(verify::Subject::kDhe));
        EXPECT_TRUE(result.passed)
            << kernels::IsaName(isa) << ": " << result.detail;
    }
}

TEST(KernelTraceTest, CanonicalTracesIdenticalAcrossPrecisions)
{
    // Precision changes arithmetic only: DHE records whole-region
    // parameter accesses at the generator level, independent of GEMM
    // internals, so the canonical trace must be bit-identical across
    // f32/bf16/int8 — under every compiled ISA tier.
    const auto config = TraceConfig(verify::Subject::kDhe);
    verify::CanonicalTrace base;
    {
        ScopedDtype scoped_dtype(Dtype::kF32);
        ScopedIsa scoped(Isa::kScalar);
        base = verify::GoldenRun(config);
    }
    ASSERT_FALSE(base.accesses.empty());
    for (Dtype dtype : {Dtype::kF32, Dtype::kBf16, Dtype::kInt8}) {
        ScopedDtype scoped_dtype(dtype);
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            const auto got = verify::GoldenRun(config);
            const auto div = verify::CompareCanonical(base, got);
            EXPECT_FALSE(div.diverged)
                << kernels::DtypeName(dtype) << " under "
                << kernels::IsaName(isa) << ": " << div.detail;
        }
    }
}

TEST(KernelTraceTest, DifferentialPassesUnderEveryPrecision)
{
    for (Dtype dtype : {Dtype::kBf16, Dtype::kInt8}) {
        ScopedDtype scoped_dtype(dtype);
        const auto result =
            verify::RunDifferential(TraceConfig(verify::Subject::kDhe));
        EXPECT_TRUE(result.passed)
            << kernels::DtypeName(dtype) << ": " << result.detail;
    }
}

}  // namespace
}  // namespace secemb
