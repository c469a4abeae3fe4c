/**
 * @file
 * Frame-scoped tracing for the measured-mode pipeline. The paper's
 * predictability constraint (Section 2.4.2) judges the system by
 * 99.99th-percentile latency against a 100 ms budget; aggregate
 * quantiles say *that* a frame was slow, a trace says *where inside
 * that frame* the time went. TraceRecorder collects RAII TraceSpans
 * (name, category, frame id, thread id, start, duration) into
 * per-thread buffers and exports them as Chrome trace_event JSON,
 * loadable in chrome://tracing or Perfetto.
 *
 * Overhead contract: when tracing is disabled every span degenerates
 * to one relaxed atomic load and a null-pointer store -- no clock
 * reads, no allocation, no locks -- so instrumentation can stay
 * compiled into the hot stages permanently. Tracing only observes
 * wall-clock time and never touches engine state, so pipeline outputs
 * are bitwise-identical with tracing on or off.
 */

#ifndef AD_OBS_TRACE_HH
#define AD_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/perf.hh"

namespace ad::obs {

/** One completed span ("ph":"X" in the Chrome trace format). */
struct TraceEvent
{
    std::string name;          ///< span name ("DET", "loc.fe", ...).
    const char* category = ""; ///< static-lifetime category string.
    std::int64_t frame = -1;   ///< pipeline frame id, -1 outside frames.
    std::uint32_t tid = 0;     ///< small sequential thread id.
    double startUs = 0;        ///< microseconds since recorder epoch.
    double durUs = 0;          ///< span duration in microseconds.
    bool hasPerf = false;      ///< perf delta sampled for this span.
    PerfDelta perf;            ///< counter deltas (when hasPerf).
};

/**
 * Thread-safe span collector. Spans are appended to per-thread
 * buffers (one short mutex hold per completed span, uncontended
 * except during export), so tracing a parallelFor shard never
 * serializes the shards against each other.
 */
class TraceRecorder
{
  public:
    TraceRecorder();

    /** The process-wide recorder used by all instrumentation sites. */
    static TraceRecorder& instance();

    /** Master switch; disabled recorders ignore every span. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Opt-in switch for per-layer NN spans (category "nn"). They are
     * an order of magnitude more numerous than stage spans, so they
     * stay off unless explicitly requested (obs.trace_nn).
     */
    void setNnLayerSpans(bool on)
    {
        nnLayers_.store(on, std::memory_order_relaxed);
    }

    bool nnLayerSpans() const
    {
        return enabled() && nnLayers_.load(std::memory_order_relaxed);
    }

    /**
     * Opt-in switch for sampling perf counters over spans
     * (obs.perf). Per-layer NN spans are never sampled -- two
     * counter reads per layer would perturb what they measure.
     */
    void setPerfSpans(bool on)
    {
        perfSpans_.store(on, std::memory_order_relaxed);
    }

    /** True when spans should carry perf-counter deltas. */
    bool perfSpansEnabled() const
    {
        return enabled() && perfSpans_.load(std::memory_order_relaxed);
    }

    /**
     * The frame id unresolved spans on this thread will be tagged
     * with: the thread-local ScopedTraceFrame override when one is
     * active, -1 (no frame) otherwise.
     */
    std::int64_t resolveFrame() const;

    /** Microseconds since the recorder's construction epoch. */
    double nowUs() const;

    /**
     * Append one completed span. @p frame of INT64_MIN means "use
     * resolveFrame()".
     */
    void record(std::string name, const char* category, double startUs,
                double durUs, std::int64_t frame = INT64_MIN);

    /** record() variant carrying a sampled perf-counter delta. */
    void recordWithPerf(std::string name, const char* category,
                        double startUs, double durUs, std::int64_t frame,
                        const PerfDelta& perf);

    /** Total spans recorded across all threads. */
    std::size_t eventCount() const;

    /** All events, merged and sorted by start time. */
    std::vector<TraceEvent> snapshot() const;

    /** Drop all recorded events (buffers stay registered). */
    void clear();

    /** The Chrome trace_event JSON document as a string. */
    std::string chromeTraceJson() const;

    /**
     * Write the Chrome trace to a file.
     * @return false (with a warning) when the file cannot be written.
     */
    bool writeChromeTrace(const std::string& path) const;

  private:
    struct ThreadBuffer
    {
        mutable std::mutex mutex;
        std::vector<TraceEvent> events;
        std::uint32_t tid = 0;
    };

    /** This thread's buffer, registered on first use. */
    ThreadBuffer& localBuffer();

    std::atomic<bool> enabled_{false};
    std::atomic<bool> nnLayers_{false};
    std::atomic<bool> perfSpans_{false};
    /**
     * Distinguishes this recorder from a destroyed one that occupied
     * the same address, so the thread-local buffer cache in
     * localBuffer() can never serve a dangling pointer.
     */
    const std::uint64_t generation_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex registryMutex_;
    std::unordered_map<std::thread::id, std::shared_ptr<ThreadBuffer>>
        buffers_;
    std::uint32_t nextTid_ = 1;
};

/** The process-wide recorder (shorthand for TraceRecorder::instance). */
inline TraceRecorder&
tracer()
{
    return TraceRecorder::instance();
}

/**
 * RAII thread-local frame override for cross-thread span parenting.
 *
 * At depth 2 or more the frame-graph executor runs stages of
 * different frames on the same worker pool concurrently, so a single
 * global "current frame" cannot tag spans correctly. The pipeline
 * wraps each stage task in a ScopedTraceFrame; every span the task
 * records (including nested NN-layer spans on the same thread)
 * resolves its frame id from this override, restoring the previous
 * override on destruction so nested scopes compose. Outside any scope
 * spans carry frame -1.
 *
 * Spans started on one thread and finished on another are not
 * supported (TraceSpan is not movable), so resolving at record time
 * on the recording thread is sufficient.
 */
class ScopedTraceFrame
{
  public:
    /** Override the calling thread's span frame id with @p frame. */
    explicit ScopedTraceFrame(std::int64_t frame);

    /** Restore the previous override (or none). */
    ~ScopedTraceFrame();

    ScopedTraceFrame(const ScopedTraceFrame&) = delete;
    ScopedTraceFrame& operator=(const ScopedTraceFrame&) = delete;

  private:
    std::int64_t prev_;
};

/**
 * RAII span. Construction samples the clock only when the recorder is
 * enabled; destruction records the completed event. The const char*
 * overloads never allocate when tracing is off.
 */
class TraceSpan
{
  public:
    TraceSpan(TraceRecorder& rec, const char* name,
              const char* category = "stage",
              std::int64_t frame = INT64_MIN)
    {
        if (rec.enabled())
            begin(rec, name, category, frame);
    }

    /** Dynamic-name overload; the name is copied only when enabled. */
    TraceSpan(TraceRecorder& rec, const std::string& name,
              const char* category = "stage",
              std::int64_t frame = INT64_MIN)
    {
        if (rec.enabled())
            begin(rec, name, category, frame);
    }

    ~TraceSpan()
    {
        if (!rec_)
            return;
        const double durUs = rec_->nowUs() - startUs_;
        if (perfOn_) {
            const PerfDelta d =
                PerfSampler::delta(perfStart_, PerfSampler::read());
            publishPerfDelta(name_.c_str(), d);
            rec_->recordWithPerf(std::move(name_), category_, startUs_,
                                 durUs, frame_, d);
        } else {
            rec_->record(std::move(name_), category_, startUs_, durUs,
                         frame_);
        }
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    template <typename Name>
    void
    begin(TraceRecorder& rec, Name&& name, const char* category,
          std::int64_t frame)
    {
        rec_ = &rec;
        name_ = std::forward<Name>(name);
        category_ = category;
        frame_ = frame;
        if (rec.perfSpansEnabled() && std::strcmp(category, "nn") != 0) {
            perfOn_ = true;
            perfStart_ = PerfSampler::read();
        }
        startUs_ = rec.nowUs();
    }

    TraceRecorder* rec_ = nullptr;
    std::string name_;
    const char* category_ = "";
    std::int64_t frame_ = INT64_MIN;
    double startUs_ = 0;
    bool perfOn_ = false;
    PerfSampler::Reading perfStart_;
};

} // namespace ad::obs

#endif // AD_OBS_TRACE_HH
