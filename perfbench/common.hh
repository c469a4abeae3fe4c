/**
 * @file
 * Shared pieces of the adbench binary: the wall clock, the in-memory
 * span recorder, output digests, the tail-percentile rule, process
 * and host probes, and the result a workload hands back to main().
 *
 * Every timing here is taken from outside the program: the benchmark
 * stamps steady_clock around each call into a library entry point.
 */

#ifndef ADBENCH_COMMON_HH
#define ADBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace adbench {

/** Milliseconds on the monotonic clock since process start. */
double nowMs();

/** What main() passes to a workload. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;    ///< where the traced run writes its spans.
    std::string digestFile;  ///< recorded digests to check against.
    bool record = false;     ///< compute digests instead of checking.
};

/** One named metric as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct RunResult
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;
    /** Recorded digest lines (record mode only). */
    std::vector<std::string> recorded;
};

/** FNV-1a 64-bit digest over the bit patterns of what it is fed. */
class Digest
{
  public:
    void
    bytes(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ULL;
        }
    }

    /** Feed a scalar value bitwise. */
    template <class T>
    void
    add(const T& v)
    {
        static_assert(std::is_scalar_v<T>, "no padding bytes");
        bytes(&v, sizeof(T));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** Hex spelling of a digest value (16 digits). */
std::string hex(std::uint64_t v);

/**
 * Recorded digests: one "<workload> <variant> <index> <hex>" line
 * each. Lookup returns "" when the key is absent.
 */
class DigestTable
{
  public:
    /** Load; fatal when the file cannot be read. */
    explicit DigestTable(const std::string& path);

    std::string find(const std::string& workload, int variant,
                     int index) const;

  private:
    std::map<std::string, std::string> rows_;
};

/**
 * One span: [startMs, endMs] on the nowMs() clock, the index of the
 * span that caused it (-1 for a root) and the operation (frame or
 * batch) id shared by every span of that operation.
 */
struct Span
{
    const char* name = "";
    double startMs = 0.0;
    double endMs = 0.0;
    int parent = -1;
    std::int64_t op = -1;
};

/**
 * In-memory span and counter recorder, written out once at exit.
 * Disabled instances record nothing and cost one branch per call.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * Record a finished span; returns its index (-1 when off).
     * @p name is stored, not copied: pass a string literal.
     */
    int span(const char* name, double startMs, double endMs,
             int parent, std::int64_t op);

    /** Add @p v to the named counter. */
    void count(const std::string& name, double v);

    /** Summed durations (ms) of every span with this name. */
    double totalMs(const std::string& name) const;
    /** Mean duration (ms) of spans with this name; 0 when none. */
    double meanMs(const std::string& name) const;
    /** Median duration (ms) of spans with this name; 0 when none. */
    double medianMs(const std::string& name) const;
    /** A counter's running total (0 when never counted). */
    double counter(const std::string& name) const;

    /** Write spans and counters as JSON; false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::map<std::string, double> counters_;
};

/** Median of a sample (0 when empty). */
double median(std::vector<double> v);

/**
 * The tail rule: latency at a fixed percentile, reported only when at
 * least ten samples lie beyond it.
 */
struct Tail
{
    double pct = 0.0;
    double value = 0.0;
    std::size_t n = 0;
    std::size_t beyond = 0;
    bool supported = false;
};

Tail tailOf(const std::vector<double>& samples, double pct);

/**
 * The tail percentile of every workload. It is fixed, so runs of two
 * commits compare the same percentile whatever their sample counts.
 * A 30 s run yields 450+ frames or 3,800+ requests, so 22+ and 190+
 * samples lie beyond it: enough that a burst of host stalls does not
 * move it (see NOTES.md).
 */
constexpr double kTailPct = 95.0;

/** Samples needed before @p pct has ten beyond it. */
std::size_t samplesForTail(double pct);

/**
 * The six end-to-end metrics, in print order.
 *
 * @param latencies per-operation latencies (ms); @p tail is theirs.
 * @param completed operations completed during @p timedMs.
 * @param onTime operations completed within the budget, output checked.
 * @param attempted operations attempted.
 * @param setupS seconds taken by each repeated set-up.
 */
std::vector<Metric> endToEnd(const std::vector<double>& latencies,
                             const Tail& tail, std::int64_t completed,
                             double timedMs, std::int64_t onTime,
                             std::int64_t attempted,
                             const std::vector<double>& setupS);

/** Peak resident set of this process so far (MB). */
double peakRssMb();

/** Aggregate /proc/stat CPU ticks, for the steal share. */
struct CpuTicks
{
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

CpuTicks readCpuTicks();

/** Steal ticks over all ticks between two readings (0 when none). */
double stealShare(const CpuTicks& a, const CpuTicks& b);

/** One-line host fingerprint printed with every result. */
std::string hostFingerprint(const std::string& commit);

/** Print "adbench: <msg>" to stderr and exit(2). */
[[noreturn]] void die(const std::string& msg);

} // namespace adbench

#endif // ADBENCH_COMMON_HH
