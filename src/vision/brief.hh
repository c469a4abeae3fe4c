/**
 * @file
 * rBRIEF descriptors -- the second half of the ORB extractor (Figure 5):
 * 256 binary intensity comparisons on a smoothed 31x31 patch, with the
 * test pattern rotated by the keypoint's quantized orientation. Pattern
 * rotation uses the LUT sin/cos tables by default, matching the paper's
 * FPGA/ASIC Rotate_unit; descriptors are 256-bit strings compared by
 * Hamming distance.
 */

#ifndef AD_VISION_BRIEF_HH
#define AD_VISION_BRIEF_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/image.hh"
#include "vision/fast.hh"

namespace ad::vision {

/** 256-bit binary descriptor. */
struct Descriptor
{
    std::array<std::uint64_t, 4> words = {0, 0, 0, 0};

    /**
     * Hamming distance (0..256). Inline, and with SSE2 a byte-wise
     * popcount of the 256-bit XOR summed by psadbw, so the build needs
     * no popcnt instruction and makes no library call.
     */
    int
    hamming(const Descriptor& other) const
    {
#if defined(__SSE2__)
        const auto load = [](const std::uint64_t* p) {
            return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
        };
        const auto bitsPerByte = [](__m128i v) {
            const __m128i m1 = _mm_set1_epi8(0x55);
            const __m128i m2 = _mm_set1_epi8(0x33);
            const __m128i m4 = _mm_set1_epi8(0x0f);
            v = _mm_sub_epi8(v, _mm_and_si128(_mm_srli_epi16(v, 1), m1));
            v = _mm_add_epi8(_mm_and_si128(v, m2),
                             _mm_and_si128(_mm_srli_epi16(v, 2), m2));
            return _mm_and_si128(_mm_add_epi8(v, _mm_srli_epi16(v, 4)), m4);
        };
        const __m128i lo = _mm_xor_si128(load(&words[0]),
                                         load(&other.words[0]));
        const __m128i hi = _mm_xor_si128(load(&words[2]),
                                         load(&other.words[2]));
        const __m128i sums = _mm_sad_epu8(
            _mm_add_epi8(bitsPerByte(lo), bitsPerByte(hi)),
            _mm_setzero_si128());
        return _mm_cvtsi128_si32(sums) +
               _mm_cvtsi128_si32(_mm_srli_si128(sums, 8));
#else
        int dist = 0;
        for (int i = 0; i < 4; ++i)
            dist += std::popcount(words[i] ^ other.words[i]);
        return dist;
#endif
    }

    bool operator==(const Descriptor&) const = default;
};

/** Op counters for the descriptor stage of the FE workload model. */
struct BriefOpCounts
{
    std::uint64_t descriptors = 0;
    std::uint64_t binaryTests = 0;
};

/**
 * The rBRIEF test-pair pattern: 256 coordinate pairs inside a 31x31
 * patch, plus the pre-rotated variants for every orientation bin
 * (mirroring the hardware's pattern LUT).
 */
class BriefPattern
{
  public:
    /** Singleton: the pattern is deterministic and immutable. */
    static const BriefPattern& instance();

    /** A single test: compare patch(a) < patch(b). */
    struct TestPair
    {
        std::int8_t ax, ay, bx, by;
    };

    /** The 256 tests rotated to the given orientation bin. */
    const std::array<TestPair, 256>& rotated(int bin) const
    {
        return rotated_[bin];
    }

    /** The unrotated base pattern. */
    const std::array<TestPair, 256>& base() const { return rotated_[0]; }

  private:
    BriefPattern();

    std::array<std::array<TestPair, 256>, kOrientationBins> rotated_;
};

/**
 * Compute the rBRIEF descriptor of one keypoint on a (pre-smoothed)
 * image. Keypoints closer than 15 pixels to the border, whose pattern
 * reaches past it, are sampled with clamped reads; the others are read
 * straight from the rows.
 *
 * @param smoothed box-filtered image (radius 2, as in ORB).
 * @param kp keypoint with orientation bin already assigned.
 */
Descriptor describeKeypoint(const Image& smoothed, const Keypoint& kp);

/** Describe a batch of keypoints, updating the op counters. */
std::vector<Descriptor> describeKeypoints(const Image& smoothed,
                                          const std::vector<Keypoint>& kps,
                                          BriefOpCounts* counts = nullptr);

} // namespace ad::vision

#endif // AD_VISION_BRIEF_HH
