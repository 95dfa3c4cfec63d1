#pragma once

/**
 * @file
 * Output and obliviousness checks the workloads run outside their timed
 * regions: a naive DHE reference, exact row comparison, and the canonical
 * trace guard.
 */

#include <span>
#include <string>
#include <vector>

#include "core/embedding_generator.h"
#include "dhe/dhe.h"
#include "dhe/hashing.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace perfbench {

/**
 * Independent evaluation of one DheEmbedding: the encoder's 128-bit
 * reference hash (not the Barrett/SIMD production path) and a
 * double-precision MLP over the decoder's own weights.
 */
class NaiveDhe
{
  public:
    /**
     * @param rng_before the Rng exactly as it was passed to the
     *        DheEmbedding constructor (a copy taken before), so the
     *        reference encoder draws the same hash coefficients
     * @param dhe the embedding under test; its decoder weights are copied
     */
    NaiveDhe(const secemb::dhe::DheConfig& config, secemb::Rng rng_before,
             secemb::dhe::DheEmbedding& dhe);

    /** Reference rows for `ids` ((ids.size() x out_dim)). */
    secemb::Tensor Forward(std::span<const int64_t> ids) const;

  private:
    secemb::dhe::HashEncoder encoder_;
    std::vector<secemb::Tensor> weights_;  ///< (in x out) per layer
    std::vector<secemb::Tensor> biases_;
};

/**
 * Compare got against want row by row. exact = bit equality; otherwise
 * |got - want| <= 1e-4 + 1e-3 |want|. Returns "" or a description of the
 * first mismatch.
 */
std::string CompareRows(const secemb::Tensor& got, const secemb::Tensor& want,
                        bool exact);

/** Rows `ids` of a plain table (the reference for table techniques). */
secemb::Tensor GatherRows(const secemb::Tensor& table,
                          std::span<const int64_t> ids);

/** Sum-pool `rows` into bags given by offsets, in bag order. */
secemb::Tensor PoolRows(const secemb::Tensor& rows,
                        std::span<const int64_t> offsets);

/**
 * Obliviousness guard: the canonical traces `gen` records for two secret
 * id sets of the same public shape must be identical. Returns "" or the
 * first divergence.
 */
std::string CompareTraces(secemb::core::EmbeddingGenerator& gen,
                          std::span<const int64_t> ids_a,
                          std::span<const int64_t> ids_b);

}  // namespace perfbench
