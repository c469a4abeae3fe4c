/**
 * @file
 * Dense float tensor in CHW layout (batch size is always 1: the
 * autonomous-driving pipeline processes one frame at a time, and the
 * paper's latency constraint precludes batching). This is the data type
 * flowing through the from-scratch DNN inference engine used by the
 * object-detection (YOLO-style) and object-tracking (GOTURN-style)
 * engines.
 */

#ifndef AD_NN_TENSOR_HH
#define AD_NN_TENSOR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/image.hh"

namespace ad::nn {

/**
 * Process-wide count of forward-path allocation events: tensor
 * materializations plus scratch-buffer growth (scratchAssign /
 * scratchResize below). The arena/fusion acceptance bar reads this
 * before and after a frame to assert the planned forward path
 * (Network::forwardArena) performs zero heap allocations after the
 * build/plan phase. Monotonic; relaxed atomic, so cheap enough to
 * leave always-on.
 */
std::uint64_t allocEventCount();

namespace detail {
/** Record one forward-path allocation event (see allocEventCount). */
void noteAllocEvent();
} // namespace detail

/**
 * vector::assign that counts as an allocation event only when the
 * vector must grow. Layer scratch buffers use this so steady-state
 * frames (capacity already high-watermarked by the plan warm-up) are
 * provably allocation-free under the allocEventCount metric.
 */
template <typename T>
void
scratchAssign(std::vector<T>& v, std::size_t n, T fill)
{
    if (v.capacity() < n)
        detail::noteAllocEvent();
    v.assign(n, fill);
}

/** vector::resize twin of scratchAssign (no refill of existing lanes). */
template <typename T>
void
scratchResize(std::vector<T>& v, std::size_t n)
{
    if (v.capacity() < n)
        detail::noteAllocEvent();
    v.resize(n);
}

/** Channel-major (CHW) float tensor with value semantics. */
class Tensor
{
  public:
    Tensor() = default;

    /** Allocate a c x h x w tensor zero-filled. */
    Tensor(int c, int h, int w);

    int channels() const { return c_; }
    int height() const { return h_; }
    int width() const { return w_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /** Bytes occupied by the payload (fp32). */
    std::size_t bytes() const { return data_.size() * sizeof(float); }

    float at(int c, int y, int x) const { return data_[idx(c, y, x)]; }
    float& at(int c, int y, int x) { return data_[idx(c, y, x)]; }

    const float* data() const { return data_.data(); }
    float* data() { return data_.data(); }

    /** Pointer to the start of one channel plane. */
    const float* channel(int c) const { return data_.data() + plane(c); }
    float* channel(int c) { return data_.data() + plane(c); }

    void fill(float value);

    /** "c x h x w" for diagnostics. */
    std::string shapeString() const;

    /**
     * Overwrite this tensor with a 1 x h x w copy of a grayscale image,
     * pixels normalized to [0, 1], reusing the existing payload when
     * capacity suffices -- the allocation-free per-frame network input
     * path of the DET and TRA engines.
     */
    void assignFromImage(const Image& img);

    /**
     * Build a 2c x h x w tensor by stacking two tensors channel-wise;
     * the GOTURN-style tracker concatenates target and search-region
     * features before its fully connected stack.
     */
    static Tensor concatChannels(const Tensor& a, const Tensor& b);

    /**
     * In-place concatChannels: overwrite this tensor with the stack of
     * a and b, reusing the existing payload when the shape already
     * matches -- the allocation-free path the planned tracker uses to
     * rebuild its FC input every frame.
     */
    void assignConcat(const Tensor& a, const Tensor& b);

  private:
    std::size_t plane(int c) const
    {
        return static_cast<std::size_t>(c) * h_ * w_;
    }
    std::size_t idx(int c, int y, int x) const
    {
        return plane(c) + static_cast<std::size_t>(y) * w_ + x;
    }

    int c_ = 0;
    int h_ = 0;
    int w_ = 0;
    std::vector<float> data_;
};

} // namespace ad::nn

#endif // AD_NN_TENSOR_HH
