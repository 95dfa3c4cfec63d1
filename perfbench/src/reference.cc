#include "reference.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "sidechannel/trace.h"
#include "verify/canonical.h"

namespace perfbench {

using secemb::Tensor;

NaiveDhe::NaiveDhe(const secemb::dhe::DheConfig& config,
                   secemb::Rng rng_before, secemb::dhe::DheEmbedding& dhe)
    : encoder_(config.k, config.hash_buckets, rng_before)
{
    const auto params = dhe.Parameters();
    for (size_t i = 0; i + 1 < params.size(); i += 2) {
        weights_.push_back(params[i]->value);
        biases_.push_back(params[i + 1]->value);
    }
}

Tensor
NaiveDhe::Forward(std::span<const int64_t> ids) const
{
    const int64_t n = static_cast<int64_t>(ids.size());
    Tensor enc({n, encoder_.k()});
    encoder_.EncodeReference(ids, enc);
    std::vector<double> x(enc.data(), enc.data() + enc.numel());
    int64_t width = encoder_.k();
    for (size_t l = 0; l < weights_.size(); ++l) {
        const Tensor& w = weights_[l];
        const int64_t out_w = w.size(1);
        const bool last = l + 1 == weights_.size();
        std::vector<double> y(static_cast<size_t>(n * out_w));
        for (int64_t r = 0; r < n; ++r) {
            for (int64_t o = 0; o < out_w; ++o) {
                double acc = biases_[l].data()[o];
                for (int64_t i = 0; i < width; ++i) {
                    acc += x[static_cast<size_t>(r * width + i)] *
                           w.data()[i * out_w + o];
                }
                y[static_cast<size_t>(r * out_w + o)] =
                    last ? acc : std::max(acc, 0.0);
            }
        }
        x = std::move(y);
        width = out_w;
    }
    Tensor out({n, width});
    for (int64_t i = 0; i < out.numel(); ++i) {
        out.data()[i] = static_cast<float>(x[static_cast<size_t>(i)]);
    }
    return out;
}

std::string
CompareRows(const Tensor& got, const Tensor& want, bool exact)
{
    if (got.numel() != want.numel()) {
        return "shape mismatch: " + std::to_string(got.numel()) + " vs " +
               std::to_string(want.numel()) + " values";
    }
    for (int64_t i = 0; i < got.numel(); ++i) {
        const float g = got.data()[i];
        const float w = want.data()[i];
        const bool ok =
            exact ? std::memcmp(&g, &w, sizeof(float)) == 0
                  : std::fabs(g - w) <= 1e-4f + 1e-3f * std::fabs(w);
        if (!ok) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "value %lld: got %.9g want %.9g",
                          static_cast<long long>(i), g, w);
            return buf;
        }
    }
    return "";
}

Tensor
GatherRows(const Tensor& table, std::span<const int64_t> ids)
{
    const int64_t d = table.size(1);
    Tensor out({static_cast<int64_t>(ids.size()), d});
    for (size_t i = 0; i < ids.size(); ++i) {
        std::memcpy(out.data() + static_cast<int64_t>(i) * d,
                    table.data() + ids[i] * d,
                    static_cast<size_t>(d) * sizeof(float));
    }
    return out;
}

Tensor
PoolRows(const Tensor& rows, std::span<const int64_t> offsets)
{
    const int64_t d = rows.size(1);
    const int64_t bags = static_cast<int64_t>(offsets.size()) - 1;
    Tensor out = Tensor::Zeros({bags, d});
    for (int64_t b = 0; b < bags; ++b) {
        float* dst = out.data() + b * d;
        for (int64_t e = offsets[static_cast<size_t>(b)];
             e < offsets[static_cast<size_t>(b) + 1]; ++e) {
            const float* src = rows.data() + e * d;
            for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
        }
    }
    return out;
}

std::string
CompareTraces(secemb::core::EmbeddingGenerator& gen,
              std::span<const int64_t> ids_a, std::span<const int64_t> ids_b)
{
    if (ids_a.size() != ids_b.size()) return "id sets differ in shape";
    secemb::sidechannel::TraceRecorder rec;
    Tensor out({static_cast<int64_t>(ids_a.size()), gen.dim()});
    gen.set_recorder(&rec);
    gen.Generate(ids_a, out);
    const auto a = secemb::verify::Canonicalize(rec.trace());
    rec.Clear();
    gen.Generate(ids_b, out);
    const auto b = secemb::verify::Canonicalize(rec.trace());
    gen.set_recorder(nullptr);
    if (a.accesses.empty()) return "no trace recorded";
    const auto div = secemb::verify::CompareCanonical(a, b);
    return div.diverged ? div.detail : "";
}

}  // namespace perfbench
