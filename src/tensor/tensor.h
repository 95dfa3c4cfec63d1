#pragma once

/**
 * @file
 * Minimal dense float tensor used throughout the secemb library.
 *
 * Row-major, owning, up to 4 dimensions. This deliberately small surface
 * replaces the PyTorch dependency of the original artifact: the paper's
 * evaluation only needs dense GEMM, elementwise math, and gather/scatter.
 */

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/aligned.h"
#include "tensor/rng.h"

namespace secemb {

/** Shape of a tensor; at most 4 dimensions in this library. */
using Shape = std::vector<int64_t>;

/**
 * Dense row-major float tensor with value semantics.
 *
 * Copying copies the buffer; moves are cheap. All indexing is checked in
 * debug builds via assert and unchecked in release builds. Payloads are
 * allocated 64-byte aligned (see tensor/aligned.h): the SIMD GEMM and
 * scan kernels rely on data() being cache-line/vector aligned.
 *
 * Every payload carries a version(). Allocation,
 * copy and assignment give a new version, and so does every non-const
 * accessor that hands out write access — data(), flat(), at(), row(),
 * Fill and the *InPlace members — whether or not the caller writes.
 * Read-only callers should hold the tensor as const. The version cannot
 * see writes through a pointer or span taken before the version was
 * last read: do not keep a non-const data()/row()/flat() across a GEMM
 * that uses this tensor as a weight and write through it afterwards.
 */
class Tensor
{
  public:
    /** Empty tensor (numel() == 0, dim() == 0). */
    Tensor() = default;

    /**
     * Zero-initialised tensor of the given shape.
     *
     * Deliberately the only braced-constructible form: a value-list
     * constructor would make Tensor({rows, cols}) silently build a 1-D
     * value tensor (the std::vector gotcha); use Values() for literals.
     */
    explicit Tensor(Shape shape);

    /** 1-D tensor from explicit values, e.g. Tensor::Values({1, 2, 3}). */
    static Tensor Values(std::initializer_list<float> values);

    // -- Factories ---------------------------------------------------------

    static Tensor Zeros(Shape shape);
    static Tensor Ones(Shape shape);
    static Tensor Full(Shape shape, float value);
    /** I.i.d. N(0, stddev^2). */
    static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f);
    /** I.i.d. U[lo, hi). */
    static Tensor Uniform(Shape shape, Rng& rng, float lo, float hi);

    // -- Introspection -----------------------------------------------------

    const Shape& shape() const { return shape_; }
    int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
    int64_t size(int64_t d) const;
    int64_t numel() const { return static_cast<int64_t>(data_.size()); }
    bool empty() const { return data_.empty(); }

    /** Payload version; changes on every write access (see above). */
    uint64_t version() const { return version_.Get(); }

    float*
    data()
    {
        version_.Invalidate();
        return data_.data();
    }
    const float* data() const { return data_.data(); }
    std::span<float>
    flat()
    {
        version_.Invalidate();
        return data_;
    }
    std::span<const float> flat() const { return data_; }

    // -- Element access ----------------------------------------------------

    float& at(int64_t i);
    float at(int64_t i) const;
    float& at(int64_t i, int64_t j);
    float at(int64_t i, int64_t j) const;
    float& at(int64_t i, int64_t j, int64_t k);
    float at(int64_t i, int64_t j, int64_t k) const;

    /** Row view of a 2-D tensor. */
    std::span<float> row(int64_t i);
    std::span<const float> row(int64_t i) const;

    // -- Shape manipulation --------------------------------------------------

    /** Reshape preserving numel; returns a copy with the new shape. */
    Tensor Reshape(Shape shape) const;
    /** Transpose of a 2-D tensor. */
    Tensor Transpose2D() const;

    // -- Elementwise (in place) ----------------------------------------------

    Tensor& Fill(float value);
    Tensor& AddInPlace(const Tensor& other);
    Tensor& SubInPlace(const Tensor& other);
    Tensor& MulInPlace(const Tensor& other);
    Tensor& ScaleInPlace(float s);
    Tensor& AddScalarInPlace(float s);

    // -- Elementwise (returning) ---------------------------------------------

    Tensor Add(const Tensor& other) const;
    Tensor Sub(const Tensor& other) const;
    Tensor Mul(const Tensor& other) const;
    Tensor Scale(float s) const;

    // -- Reductions ----------------------------------------------------------

    float Sum() const;
    float Mean() const;
    float Max() const;
    float Min() const;
    /** Index of the maximum element (first on ties). */
    int64_t Argmax() const;
    /** Squared L2 norm. */
    float SquaredNorm() const;

    /** Memory used by the payload in bytes. */
    int64_t SizeBytes() const { return numel() * int64_t{sizeof(float)}; }

    /** Human-readable shape, e.g. "[2, 3]". */
    std::string ShapeString() const;

    /** True if shapes equal and all elements within tol. */
    bool AllClose(const Tensor& other, float tol = 1e-5f) const;

  private:
    /**
     * Version stamp of the payload: the staleness key of the packed
     * weight cache (kernels::PackedWeightCache).
     *
     * Versions come from one process-wide counter, so no two payloads
     * (live at once, or one after the other, even at a reused address)
     * ever report the same version. A write invalidates the stamp and
     * the next Get() draws a fresh one, so every observation after a
     * write differs from every observation before it. Copying takes no
     * version from the source: a copied or assigned payload is new.
     *
     * Invalidation is one relaxed load (plus a relaxed store when the
     * stamp was observed since the last write); it never touches the
     * shared counter, so writers in ParallelFor bodies neither race
     * nor contend.
     */
    class PayloadVersion
    {
      public:
        PayloadVersion() = default;
        PayloadVersion(const PayloadVersion&) noexcept {}
        PayloadVersion&
        operator=(const PayloadVersion&) noexcept
        {
            Invalidate();
            return *this;
        }

        /** Mark the payload written: the next Get() draws a new one. */
        void
        Invalidate()
        {
            if (stamp_.load(std::memory_order_relaxed) != 0) {
                stamp_.store(0, std::memory_order_relaxed);
            }
        }

        /** Current version (never 0), stable until Invalidate(). */
        uint64_t Get() const;

      private:
        /** 0 = written since last observed; drawn lazily by Get(). */
        mutable std::atomic<uint64_t> stamp_{0};
    };

    Shape shape_;
    AlignedFloatVector data_;
    PayloadVersion version_;

    int64_t Offset2(int64_t i, int64_t j) const;
    int64_t Offset3(int64_t i, int64_t j, int64_t k) const;
};

/** numel for a shape. */
int64_t ShapeNumel(const Shape& shape);

}  // namespace secemb
