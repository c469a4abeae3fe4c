#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace ad::obs {

namespace {

/** Escape a string for embedding in a JSON string literal. */
void
appendJsonEscaped(std::ostream& os, const std::string& s)
{
    for (const char c : s) {
        switch (c) {
        case '"':
            os << "\\\"";
            break;
        case '\\':
            os << "\\\\";
            break;
        case '\n':
            os << "\\n";
            break;
        case '\t':
            os << "\\t";
            break;
        case '\r':
            os << "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
}

/** Unique id per TraceRecorder ever constructed (see generation_). */
std::uint64_t
nextGeneration()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

TraceRecorder::TraceRecorder()
    : generation_(nextGeneration()),
      epoch_(std::chrono::steady_clock::now())
{
}

TraceRecorder&
TraceRecorder::instance()
{
    static TraceRecorder recorder;
    return recorder;
}

double
TraceRecorder::nowUs() const
{
    const auto d = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration<double, std::micro>(d).count();
}

TraceRecorder::ThreadBuffer&
TraceRecorder::localBuffer()
{
    // One registry lookup per (thread, recorder) pair; the common case
    // (a single process-wide recorder) hits the thread-local cache.
    // The generation check keeps a cache entry from outliving its
    // recorder: a new recorder at a recycled address has a different
    // generation, so the stale buffer pointer is never dereferenced.
    thread_local std::uint64_t cachedGen = 0;
    thread_local ThreadBuffer* cachedBuffer = nullptr;
    if (cachedGen == generation_ && cachedBuffer)
        return *cachedBuffer;

    std::lock_guard<std::mutex> lock(registryMutex_);
    auto& slot = buffers_[std::this_thread::get_id()];
    if (!slot) {
        slot = std::make_shared<ThreadBuffer>();
        slot->tid = nextTid_++;
    }
    cachedGen = generation_;
    cachedBuffer = slot.get();
    return *slot;
}

namespace {

/**
 * Per-thread frame override installed by ScopedTraceFrame; INT64_MIN
 * means "no override": spans carry frame -1.
 */
thread_local std::int64_t threadFrameOverride = INT64_MIN;

} // namespace

std::int64_t
TraceRecorder::resolveFrame() const
{
    if (threadFrameOverride != INT64_MIN)
        return threadFrameOverride;
    return -1;
}

ScopedTraceFrame::ScopedTraceFrame(std::int64_t frame)
    : prev_(threadFrameOverride)
{
    threadFrameOverride = frame;
}

ScopedTraceFrame::~ScopedTraceFrame()
{
    threadFrameOverride = prev_;
}

void
TraceRecorder::record(std::string name, const char* category,
                      double startUs, double durUs, std::int64_t frame)
{
    if (!enabled())
        return;
    if (frame == INT64_MIN)
        frame = resolveFrame();
    ThreadBuffer& buf = localBuffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back({std::move(name), category, frame, buf.tid,
                          startUs, durUs, false, PerfDelta{}});
}

void
TraceRecorder::recordWithPerf(std::string name, const char* category,
                              double startUs, double durUs,
                              std::int64_t frame, const PerfDelta& perf)
{
    if (!enabled())
        return;
    if (frame == INT64_MIN)
        frame = resolveFrame();
    ThreadBuffer& buf = localBuffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back({std::move(name), category, frame, buf.tid,
                          startUs, durUs, true, perf});
}

std::size_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(registryMutex_);
    std::size_t n = 0;
    for (const auto& [id, buf] : buffers_) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        n += buf->events.size();
    }
    return n;
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::vector<TraceEvent> all;
    {
        std::lock_guard<std::mutex> lock(registryMutex_);
        for (const auto& [id, buf] : buffers_) {
            std::lock_guard<std::mutex> bufLock(buf->mutex);
            all.insert(all.end(), buf->events.begin(),
                       buf->events.end());
        }
    }
    std::sort(all.begin(), all.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return a.startUs < b.startUs;
              });
    return all;
}

void
TraceRecorder::clear()
{
    std::lock_guard<std::mutex> lock(registryMutex_);
    for (auto& [id, buf] : buffers_) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        buf->events.clear();
    }
}

std::string
TraceRecorder::chromeTraceJson() const
{
    std::ostringstream os;
    // Microsecond timestamps reach 1e6 after a second of tracing; the
    // default 6 digits would round them to 10 us and break nesting.
    os.precision(15);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& e : snapshot()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"";
        appendJsonEscaped(os, e.name);
        os << "\",\"cat\":\"";
        appendJsonEscaped(os, e.category);
        os << "\",\"ph\":\"X\",\"ts\":" << e.startUs
           << ",\"dur\":" << e.durUs << ",\"pid\":1,\"tid\":" << e.tid
           << ",\"args\":{\"frame\":" << e.frame;
        if (e.hasPerf) {
            os << ",\"task_clock_ms\":" << e.perf.taskClockMs
               << ",\"hw\":" << (e.perf.hardware ? 1 : 0);
            if (e.perf.hardware)
                os << ",\"ipc\":" << e.perf.ipc()
                   << ",\"llc_mpki\":" << e.perf.missesPerKiloInstr()
                   << ",\"cycles\":" << e.perf.cycles
                   << ",\"instructions\":" << e.perf.instructions;
        }
        os << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

bool
TraceRecorder::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("TraceRecorder: cannot write trace file '", path, "'");
        return false;
    }
    out << chromeTraceJson();
    return static_cast<bool>(out);
}

} // namespace ad::obs
