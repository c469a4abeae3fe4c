#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "nn/gemm_int8.hh"

namespace adbench {

double
nowMs()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

DigestTable::DigestTable(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read digests '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::string workload, digest;
        int variant = -1, index = -1;
        if (!(ss >> workload >> variant >> index >> digest))
            die("malformed digest line '" + line + "'");
        rows_[workload + ' ' + std::to_string(variant) + ' ' +
              std::to_string(index)] = digest;
    }
}

std::string
DigestTable::find(const std::string& workload, int variant,
                  int index) const
{
    const auto it = rows_.find(workload + ' ' + std::to_string(variant) +
                               ' ' + std::to_string(index));
    return it == rows_.end() ? std::string() : it->second;
}

int
Tracer::span(const char* name, double startMs, double endMs, int parent,
             std::int64_t op)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, startMs, endMs, parent, op});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::count(const std::string& name, double v)
{
    if (enabled_)
        counters_[name] += v;
}

double
Tracer::totalMs(const std::string& name) const
{
    double sum = 0.0;
    for (const auto& s : spans_)
        if (name == s.name)
            sum += s.endMs - s.startMs;
    return sum;
}

double
Tracer::meanMs(const std::string& name) const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& s : spans_) {
        if (name == s.name) {
            sum += s.endMs - s.startMs;
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
Tracer::medianMs(const std::string& name) const
{
    std::vector<double> d;
    for (const auto& s : spans_)
        if (name == s.name)
            d.push_back(s.endMs - s.startMs);
    return median(std::move(d));
}

double
Tracer::counter(const std::string& name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

bool
Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s\n {\"name\": \"%s\", \"start_ms\": %.6f, "
                     "\"end_ms\": %.6f, \"parent\": %d, \"op\": %lld}",
                     i ? "," : "", s.name, s.startMs, s.endMs, s.parent,
                     static_cast<long long>(s.op));
    }
    std::fprintf(f, "\n], \"counters\": {");
    bool first = true;
    for (const auto& [name, v] : counters_) {
        std::fprintf(f, "%s\n \"%s\": %.17g", first ? "" : ",",
                     name.c_str(), v);
        first = false;
    }
    std::fprintf(f, "\n}}\n");
    return std::fclose(f) == 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

namespace {

/** Nearest-rank percentile, @p pct in (0, 100). */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

} // namespace

std::size_t
samplesForTail(double pct)
{
    return static_cast<std::size_t>(
        std::ceil(10.0 / (1.0 - pct / 100.0) - 1e-9));
}

Tail
tailOf(const std::vector<double>& samples, double pct)
{
    Tail t;
    t.pct = pct;
    t.n = samples.size();
    t.value = percentile(samples, pct);
    t.beyond = static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [&](double x) { return x > t.value; }));
    t.supported = t.n >= samplesForTail(pct) && t.beyond >= 10;
    return t;
}

std::vector<Metric>
endToEnd(const std::vector<double>& latencies, const Tail& tail,
         std::int64_t completed, double timedMs, std::int64_t onTime,
         std::int64_t attempted, const std::vector<double>& setupS)
{
    return {
        {"latency_p50_ms", median(latencies), "ms"},
        {"latency_tail_ms", tail.value, "ms"},
        {"throughput_per_s",
         static_cast<double>(completed) / (timedMs / 1000.0), "1/s"},
        {"on_time_share",
         static_cast<double>(onTime) / static_cast<double>(attempted),
         "share"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(setupS), "s"},
    };
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

CpuTicks
readCpuTicks()
{
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    if (!(in >> cpu) || cpu != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal: steal is 8th.
    for (int i = 0; i < 8; ++i) {
        std::uint64_t v = 0;
        if (!(in >> v))
            return CpuTicks{};
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
stealShare(const CpuTicks& a, const CpuTicks& b)
{
    if (b.total <= a.total)
        return 0.0;
    return static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

std::string
hostFingerprint(const std::string& commit)
{
    std::ostringstream os;
    os << "nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
       << " int8_isa=" << ad::nn::int8KernelIsa()
       << " compiler=\"" << ADBENCH_COMPILER << "\""
       << " flags=\"" << ADBENCH_CXX_FLAGS << "\""
       << " build=" << ADBENCH_BUILD_TYPE << " commit=" << commit;
    return os.str();
}

void
die(const std::string& msg)
{
    std::fprintf(stderr, "adbench: %s\n", msg.c_str());
    std::exit(2);
}

} // namespace adbench
