#pragma once

/**
 * @file
 * Timing decorator for core::EmbeddingGenerator: forwards every virtual
 * to the wrapped generator and, while the tracer is on, puts a span named
 * after the generator's layer ("core.scan", "core.dhe", ...) around each
 * Generate / GeneratePooled call. It also counts the ids it forwarded, so
 * a workload can relate physical ORAM accesses to logical ids.
 */

#include <atomic>
#include <memory>

#include "core/embedding_generator.h"
#include "harness.h"

namespace perfbench {

class TimedGenerator final : public secemb::core::EmbeddingGenerator
{
  public:
    TimedGenerator(std::unique_ptr<secemb::core::EmbeddingGenerator> inner,
                   const char* span_name)
        : inner_(std::move(inner)), span_name_(span_name)
    {
    }

    void
    Generate(std::span<const int64_t> indices,
             secemb::Tensor& out) override
    {
        Tracer::Scope span(span_name_);
        ids_.fetch_add(indices.size(), std::memory_order_relaxed);
        inner_->Generate(indices, out);
    }

    void
    GeneratePooled(std::span<const int64_t> indices,
                   std::span<const int64_t> offsets,
                   secemb::Tensor& out) override
    {
        Tracer::Scope span(span_name_);
        ids_.fetch_add(indices.size(), std::memory_order_relaxed);
        inner_->GeneratePooled(indices, offsets, out);
    }

    int64_t dim() const override { return inner_->dim(); }
    int64_t num_rows() const override { return inner_->num_rows(); }
    int64_t
    MemoryFootprintBytes() const override
    {
        return inner_->MemoryFootprintBytes();
    }
    std::string_view name() const override { return inner_->name(); }
    bool IsOblivious() const override { return inner_->IsOblivious(); }
    void set_nthreads(int n) override { inner_->set_nthreads(n); }
    void
    set_precision(secemb::kernels::Dtype dtype) override
    {
        inner_->set_precision(dtype);
    }
    void
    set_recorder(secemb::sidechannel::TraceRecorder* recorder) override
    {
        inner_->set_recorder(recorder);
    }
    secemb::serving::Status
    SyncStorage() override
    {
        return inner_->SyncStorage();
    }
    secemb::serving::Status
    CheckpointStorage() override
    {
        return inner_->CheckpointStorage();
    }

    secemb::core::EmbeddingGenerator& inner() { return *inner_; }
    /** Logical ids forwarded so far (single-hot and pooled). */
    uint64_t ids() const { return ids_.load(std::memory_order_relaxed); }

  private:
    std::unique_ptr<secemb::core::EmbeddingGenerator> inner_;
    const char* span_name_;
    std::atomic<uint64_t> ids_{0};
};

}  // namespace perfbench
