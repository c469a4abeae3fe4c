#include "vision/brief.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/random.hh"

namespace ad::vision {

const BriefPattern&
BriefPattern::instance()
{
    static const BriefPattern pattern;
    return pattern;
}

BriefPattern::BriefPattern()
{
    // Deterministic pseudo-random pattern: coordinates drawn from a
    // truncated Gaussian inside the 31x31 patch (as in the BRIEF
    // paper's best-performing G-II sampling).
    Rng rng(0x0b51efULL);
    std::array<TestPair, 256> base;
    for (auto& t : base) {
        auto draw = [&rng]() {
            const double v = rng.normal(0.0, 6.5);
            const int c = static_cast<int>(std::lround(v));
            return static_cast<std::int8_t>(std::clamp(c, -15, 15));
        };
        t.ax = draw();
        t.ay = draw();
        t.bx = draw();
        t.by = draw();
    }

    // Pre-rotate for every orientation bin using the LUT sin/cos -- the
    // software analogue of the hardware pattern LUT + Rotate_unit.
    const TrigTables& trig = TrigTables::instance();
    for (int bin = 0; bin < kOrientationBins; ++bin) {
        const float c = trig.cosOf(bin);
        const float s = trig.sinOf(bin);
        for (int i = 0; i < 256; ++i) {
            const TestPair& t = base[i];
            auto rot = [c, s](std::int8_t x, std::int8_t y) {
                const float rx = c * x - s * y;
                const float ry = s * x + c * y;
                return std::pair<std::int8_t, std::int8_t>(
                    static_cast<std::int8_t>(std::clamp(
                        static_cast<int>(std::lround(rx)), -15, 15)),
                    static_cast<std::int8_t>(std::clamp(
                        static_cast<int>(std::lround(ry)), -15, 15)));
            };
            const auto [rax, ray] = rot(t.ax, t.ay);
            const auto [rbx, rby] = rot(t.bx, t.by);
            rotated_[bin][i] = TestPair{rax, ray, rbx, rby};
        }
    }
}

Descriptor
describeKeypoint(const Image& smoothed, const Keypoint& kp)
{
    const auto& tests = BriefPattern::instance().rotated(kp.orientationBin);
    Descriptor desc;
    const int cx = static_cast<int>(kp.x);
    const int cy = static_cast<int>(kp.y);
    // Pattern coordinates are clamped to [-15, 15].
    constexpr int reach = 15;
    if (cx >= reach && cy >= reach && cx + reach < smoothed.width() &&
        cy + reach < smoothed.height()) {
        const std::ptrdiff_t stride = smoothed.width();
        const std::uint8_t* c = smoothed.row(cy) + cx;
        for (int w = 0; w < 4; ++w) {
            std::uint64_t bits = 0;
            for (int j = 0; j < 64; ++j) {
                const auto& t = tests[w * 64 + j];
                const int a = c[t.ay * stride + t.ax];
                const int b = c[t.by * stride + t.bx];
                bits |= static_cast<std::uint64_t>(a < b) << j;
            }
            desc.words[w] = bits;
        }
        return desc;
    }
    for (int i = 0; i < 256; ++i) {
        const auto& t = tests[i];
        const int a = smoothed.atClamped(cx + t.ax, cy + t.ay);
        const int b = smoothed.atClamped(cx + t.bx, cy + t.by);
        if (a < b)
            desc.words[i >> 6] |= 1ULL << (i & 63);
    }
    return desc;
}

std::vector<Descriptor>
describeKeypoints(const Image& smoothed, const std::vector<Keypoint>& kps,
                  BriefOpCounts* counts)
{
    std::vector<Descriptor> descs;
    descs.reserve(kps.size());
    for (const auto& kp : kps)
        descs.push_back(describeKeypoint(smoothed, kp));
    if (counts) {
        counts->descriptors += kps.size();
        counts->binaryTests += kps.size() * 256ULL;
    }
    return descs;
}

} // namespace ad::vision
