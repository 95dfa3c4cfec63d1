#include "nn/embedding.h"

#include <cassert>
#include <cmath>
#include <cstring>

namespace secemb::nn {

EmbeddingTable::EmbeddingTable(int64_t num_rows, int64_t dim, Rng& rng)
    : weight_(Tensor::Randn({num_rows, dim}, rng,
                            1.0f / std::sqrt(static_cast<float>(dim))))
{
}

Tensor
EmbeddingTable::Forward(std::span<const int64_t> indices)
{
    const int64_t n = static_cast<int64_t>(indices.size());
    const int64_t d = dim();
    Tensor out({n, d});
    for (int64_t i = 0; i < n; ++i) {
        assert(indices[static_cast<size_t>(i)] >= 0 &&
               indices[static_cast<size_t>(i)] < num_rows());
        std::memcpy(out.data() + i * d,
                    weight_.value.data() + indices[static_cast<size_t>(i)] * d,
                    static_cast<size_t>(d) * sizeof(float));
    }
    return out;
}

void
EmbeddingTable::Backward(std::span<const int64_t> indices,
                         const Tensor& grad_out)
{
    const int64_t n = static_cast<int64_t>(indices.size());
    const int64_t d = dim();
    assert(grad_out.size(0) == n && grad_out.size(1) == d);
    float* grad = weight_.MutableGrad().data();
    for (int64_t i = 0; i < n; ++i) {
        float* g = grad + indices[static_cast<size_t>(i)] * d;
        const float* go = grad_out.data() + i * d;
        for (int64_t j = 0; j < d; ++j) g[j] += go[j];
    }
}

}  // namespace secemb::nn
