/**
 * @file
 * The yardstick: a fixed reference kernel that the benchmark times
 * between the program's calls, to measure how fast the shared host
 * runs at that moment.
 *
 * The host this benchmark runs on shares its cores with other
 * tenants, and its speed drifts by 2x and more between phases a few
 * seconds to minutes long (see NOTES.md). The program's kernels
 * drift together: ORB extraction, the fp32 DET forward and the int8
 * DET forward each slowed 1.60-1.62x in one contended phase.
 * Synthetic kernels do not: a vectorized GEMM loop and a branch-bound
 * loop each drift by their own share, and not the same one under
 * every kind of contention. So the yardstick is a program kernel,
 * frozen: the repository's FAST-9 corner test and Harris score as
 * they were when this benchmark was written, copied here and run over
 * a fixed procedural HHD-sized image. A change to the program does
 * not move it.
 *
 * Each end-to-end time is multiplied by the host factor, the
 * yardstick's reference time over its median time around that
 * operation (to the power kYardstickPower), and so reads as it would
 * on the reference host.
 */

#ifndef ADBENCH_YARDSTICK_HH
#define ADBENCH_YARDSTICK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace adbench {

/**
 * Median wall time (ms) of one yardstick call on the reference host
 * (the 4-vCPU Xeon VM of NOTES.md, GCC 12.2 -O2) in a quiet phase.
 * It only sets the scale of normalized times: on another host they
 * are still comparable between commits, just not equal to that
 * host's quiet-phase milliseconds.
 */
constexpr double kYardstickRefMs = 1.40;

/**
 * How the program's time scales with the yardstick's: as its time to
 * this power. The yardstick is pure compute on a 230 KB image and
 * slows more than the program when the host is heavily contended.
 * Between the run medians of quiet and contended runs on the
 * reference host, drive_urban's frame time went as the yardstick's
 * time to the power 0.82 and serve_det_int8's throughput as 0.72; in
 * mild phases (yardstick within 15% of quiet) ORB, fp32 DET and int8
 * DET went as 0.97-1.02. 0.8 lies between; NOTES.md gives the
 * residual it leaves.
 */
constexpr double kYardstickPower = 0.8;

/** Samples a window holds when the host factor is taken around an operation. */
constexpr std::size_t kYardstickWindow = 9;

class Yardstick
{
  public:
    /** Builds the kernel's fixed inputs (outside any timing). */
    Yardstick();

    /** Time one kernel call; records and returns its wall time (ms). */
    double sample();

    /** Take @p n samples back to back. */
    void sampleMany(std::size_t n);

    /** Samples taken so far. */
    std::size_t count() const { return ms_.size(); }

    /**
     * The host factor over samples [lo, hi): kYardstickRefMs over their
     * median, to the power kYardstickPower. Below 1 when the host ran
     * slower than the quiet reference. Dies on an empty range.
     */
    double factor(std::size_t lo, std::size_t hi) const;

    /** The host factor over the last kYardstickWindow samples. */
    double recentFactor() const;

    /**
     * The host factor over the kYardstickWindow samples centred on
     * sample @p i, the window clamped into [lo, hi).
     */
    double factorAround(std::size_t i, std::size_t lo,
                        std::size_t hi) const;

    /** Median of every sample so far (ms). */
    double medianMs() const;

  private:
    std::vector<std::uint8_t> image_;
    std::vector<double> ms_;
};

/**
 * Print the "host speed:" line: the yardstick's median against the
 * reference, and the quartiles of the host factors a run applied.
 */
void printHostSpeed(const Yardstick& yard,
                    const std::vector<double>& factors);

} // namespace adbench

#endif // ADBENCH_YARDSTICK_HH
