/**
 * @file
 * Concurrency stress for the persistent packed-weight cache (ctest
 * label `concurrency`; re-run under -DSECEMB_SANITIZE=thread).
 *
 * The ORAM proxy puts GEMM traffic on pool threads that previously only
 * the batch scan used, so the cache's lock discipline is exercised from
 * three sides at once: readers hammering Get() on a shared frozen
 * weight tensor (one version, so every Get() is a hit once packed),
 * mutators writing their own tensors through data() so every Get() sees
 * a new version and takes the repack path, and a Clear() thread
 * dropping the whole table mid-flight. Correctness hinges on the
 * shared_ptr contract — panels handed out before a Clear()/repack stay
 * valid — and on the version contract — a write is always followed by
 * a repack — which every worker verifies by checking its GEMM result
 * against the naive reference.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace secemb {
namespace {

constexpr float kRelTol = 1e-4f;

float
MaxRelError(const Tensor& got, const Tensor& want)
{
    float worst = 0.0f;
    for (int64_t i = 0; i < got.numel(); ++i) {
        const float denom = std::max(1.0f, std::fabs(want.at(i)));
        worst = std::max(worst, std::fabs(got.at(i) - want.at(i)) / denom);
    }
    return worst;
}

TEST(KernelCacheStressTest, GetRepackClearRace)
{
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();

    constexpr int kWorkers = 8;
    constexpr int kIters = 200;
    constexpr int64_t kM = 8, kK = 24, kN = 16;

    Rng rng(131);
    // One shared frozen weight (readers), one private weight per
    // mutator worker (each write gives a new version -> repack).
    const Tensor shared_w = Tensor::Randn({kK, kN}, rng);
    const Tensor x = Tensor::Randn({kM, kK}, rng);
    Tensor shared_want({kM, kN});
    GemmNaive(x, shared_w, shared_want);

    std::vector<Tensor> private_w;
    for (int i = 0; i < kWorkers; ++i) {
        private_w.push_back(Tensor::Randn({kK, kN}, rng));
    }

    std::atomic<int> failures{0};
    ParallelFor(kWorkers, kWorkers, [&](int64_t b, int64_t e) {
        for (int64_t worker = b; worker < e; ++worker) {
            Rng wrng(1000 + static_cast<uint64_t>(worker));
            for (int iter = 0; iter < kIters; ++iter) {
                if (worker == 0) {
                    // Clear thread: drop the table mid-flight. Panels
                    // other workers already hold must stay valid.
                    cache.Clear();
                } else if (worker % 2 == 1) {
                    // Mutator: in-place update through data(), then
                    // Get() — the new version forces the repack path.
                    Tensor& w = private_w[worker];
                    const int64_t at =
                        static_cast<int64_t>(wrng.NextBounded(kK * kN));
                    w.data()[at] += 1.0f;
                    Tensor want({kM, kN}), got({kM, kN});
                    GemmNaive(x, w, want);
                    AffineForward(x, w, Tensor(), got, 1,
                                  kernels::Dtype::kF32);
                    if (MaxRelError(got, want) > kRelTol) ++failures;
                } else {
                    // Reader: hot-path Get() on the shared weights; the
                    // result must never come from a stale/torn panel.
                    const auto packed = cache.Get(shared_w, false);
                    if (packed == nullptr || packed->k != kK ||
                        packed->n != kN) {
                        ++failures;
                        continue;
                    }
                    Tensor got({kM, kN});
                    AffineForward(x, shared_w, Tensor(), got, 1,
                                  kernels::Dtype::kF32);
                    if (MaxRelError(got, shared_want) > kRelTol) {
                        ++failures;
                    }
                }
            }
        }
    });

    EXPECT_EQ(failures.load(), 0);
    // The repack path is live (deterministic check: Clear() resets
    // stats, so force one mutation -> repack after the storm).
    cache.Get(private_w[1], false);
    private_w[1].data()[0] += 1.0f;
    cache.Get(private_w[1], false);
    EXPECT_GT(cache.stats().repacks, 0u);
    cache.Clear();
}

TEST(KernelCacheStressTest, ParallelWritersBumpVersionWithoutRace)
{
    // ParallelFor bodies write disjoint rows of one weight through the
    // non-const accessors, so they all invalidate its version at once;
    // the stamp is a relaxed atomic, so TSan sees no race, and the next
    // Get() must repack and serve the new weights.
    auto& cache = kernels::PackedWeightCache::Instance();
    cache.Clear();
    constexpr int64_t kM = 4, kK = 64, kN = 32;
    Rng rng(133);
    Tensor w = Tensor::Randn({kK, kN}, rng);
    const Tensor x = Tensor::Randn({kM, kK}, rng);
    Tensor got({kM, kN}), want({kM, kN});
    for (int round = 0; round < 20; ++round) {
        AffineForward(x, w, Tensor(), got, 1, kernels::Dtype::kF32);
        const uint64_t packed_version = w.version();
        ParallelFor(kK, 4, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i) {
                for (float& v : w.row(i)) v += 0.5f;
                w.data()[i * kN] -= 1.0f;
            }
        });
        EXPECT_NE(w.version(), packed_version);
        AffineForward(x, w, Tensor(), got, 2, kernels::Dtype::kF32);
        GemmNaive(x, w, want);
        ASSERT_LE(MaxRelError(got, want), kRelTol) << "round " << round;
    }
    EXPECT_EQ(cache.stats().repacks, 20u);
    cache.Clear();
}

}  // namespace
}  // namespace secemb
