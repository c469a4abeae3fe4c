/**
 * @file
 * Grayscale image container and the pixel-level operations shared by the
 * synthetic camera, the ORB feature-extraction substrate, and the
 * DNN front ends: bilinear resize, cropping and box filtering.
 */

#ifndef AD_COMMON_IMAGE_HH
#define AD_COMMON_IMAGE_HH

#include <cstdint>
#include <vector>

#include "common/geometry.hh"

namespace ad {

/**
 * 8-bit grayscale image with row-major storage. The camera substrate
 * renders into this type and all vision algorithms consume it.
 */
class Image
{
  public:
    Image() = default;

    /** Allocate a width x height image filled with the given value. */
    Image(int width, int height, std::uint8_t fill = 0);

    int width() const { return width_; }
    int height() const { return height_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    /** Unchecked pixel access. */
    std::uint8_t at(int x, int y) const { return data_[idx(x, y)]; }
    std::uint8_t& at(int x, int y) { return data_[idx(x, y)]; }

    /** Clamped-border pixel access (reads outside return the edge). */
    std::uint8_t atClamped(int x, int y) const;

    const std::uint8_t* data() const { return data_.data(); }
    std::uint8_t* data() { return data_.data(); }
    const std::uint8_t* row(int y) const { return data_.data() + idx(0, y); }
    std::uint8_t* row(int y) { return data_.data() + idx(0, y); }

    /** Fill the whole image with one value. */
    void fill(std::uint8_t value);

    /** Fill an axis-aligned rectangle, clipped to the image. */
    void fillRect(const BBox& rect, std::uint8_t value);

    /**
     * Bilinear sample at a real-valued position (clamped). The
     * per-pixel reference: resized() computes the same bits, and the
     * tests compare the two.
     */
    double sampleBilinear(double x, double y) const;

    /**
     * Bilinear resize to the given dimensions: each output pixel is
     * sampleBilinear() at its center, clamped to [0, 255] and
     * truncated. The taps of each column and each row are computed
     * once.
     */
    Image resized(int newWidth, int newHeight) const;

    /**
     * Crop the given rectangle (clamped at borders) and resize the result
     * to outW x outH; the GOTURN-style tracker uses this for its target
     * and search-region inputs.
     */
    Image cropResized(const BBox& rect, int outW, int outH) const;

    /**
     * Box-filter smoothing with the given radius: each pixel becomes
     * the truncated mean of the window, clipped to the image, around
     * it. Computed with running column and row sums.
     */
    Image boxFiltered(int radius) const;

    /** Mean pixel intensity. */
    double meanIntensity() const;

  private:
    std::size_t idx(int x, int y) const
    {
        return static_cast<std::size_t>(y) * width_ + x;
    }

    int width_ = 0;
    int height_ = 0;
    std::vector<std::uint8_t> data_;
};

} // namespace ad

#endif // AD_COMMON_IMAGE_HH
