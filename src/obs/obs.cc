#include "obs/obs.hh"

#include <cstdio>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/parallel_for.hh"

namespace ad::obs {

ObsOptions
setupFromConfig(const Config& cfg)
{
    ObsOptions opt;

    // --trace may carry the output path (`--trace trace.json`) or be
    // a bare flag (value "true"); obs.trace / obs.trace_file are the
    // config-knob spellings of the same choice.
    std::string traceArg = cfg.getString("trace");
    if (traceArg == "true")
        traceArg.clear();
    opt.traceFile = !traceArg.empty()
                        ? traceArg
                        : cfg.getString("obs.trace_file");
    opt.trace = !opt.traceFile.empty() || cfg.has("trace") ||
                cfg.getBool("obs.trace", false);
    if (opt.trace && opt.traceFile.empty())
        opt.traceFile = "trace.json";

    opt.traceNnLayers = cfg.getBool("obs.trace_nn", false);
    opt.metricsDump = cfg.getBool("metrics", false) ||
                      cfg.getBool("obs.metrics", false);

    opt.flight = cfg.getBool("obs.flight", true);
    opt.flightFile = cfg.getString("obs.flight_file");
    if (opt.flightFile.empty())
        opt.flightFile = "flight.json";
    const int cap = cfg.getInt("obs.flight_capacity", 1024);
    opt.flightCapacity =
        cap > 0 ? static_cast<std::size_t>(cap) : std::size_t{1};
    opt.flightMaxDumps = cfg.getInt("obs.flight_max_dumps", 1);

    // --flight-dump may carry the output path or be a bare flag; a
    // bare flag dumps to the auto-dump path.
    std::string dumpArg = cfg.getString("flight-dump");
    if (dumpArg == "true")
        dumpArg.clear();
    opt.flightDumpAtExit = cfg.has("flight-dump");
    opt.flightDumpPath = !dumpArg.empty() ? dumpArg : opt.flightFile;

    opt.perfSpans = cfg.getBool("obs.perf", false);

    opt.metricsJsonPath = cfg.getString("metrics-json");
    if (opt.metricsJsonPath == "true") {
        warn("--metrics-json needs a file path; snapshots disabled");
        opt.metricsJsonPath.clear();
    }
    opt.metricsJsonIntervalMs =
        cfg.getDouble("obs.metrics_json_interval_ms", 500.0);

    tracer().setEnabled(opt.trace);
    tracer().setNnLayerSpans(opt.traceNnLayers);
    tracer().setPerfSpans(opt.perfSpans);
    metrics().setEnabled(opt.metricsDump || !opt.metricsJsonPath.empty());

    FlightParams fp;
    fp.capacity = opt.flightCapacity;
    fp.dumpPath = opt.flightFile;
    fp.maxAutoDumps = opt.flightMaxDumps;
    flight().configure(fp);
    flight().setEnabled(opt.flight);
    return opt;
}

void
finish(const ObsOptions& options, std::optional<double> snapshotAtMs)
{
    if (snapshotAtMs && !options.metricsJsonPath.empty()) {
        MetricsSnapshotter snapshotter(
            metrics(), SnapshotOptions{options.metricsJsonPath,
                                       options.metricsJsonIntervalMs});
        if (snapshotter.writeNow(*snapshotAtMs))
            std::fprintf(stderr, "metrics-json: wrote snapshot to %s\n",
                         snapshotter.path().c_str());
    }
    if (options.trace) {
        auto& rec = tracer();
        if (rec.writeChromeTrace(options.traceFile))
            std::fprintf(stderr,
                         "trace: wrote %zu events to %s "
                         "(open in chrome://tracing or Perfetto)\n",
                         rec.eventCount(), options.traceFile.c_str());
    }
    if (options.flightDumpAtExit)
        flight().dumpNow(options.flightDumpPath, "on-demand", -1, -1);
    if (options.metricsDump) {
        metrics().captureThreadPool("thread_pool.shared",
                                    sharedWorkerPool());
        std::fprintf(stderr, "--- metrics ---\n%s",
                     metrics().textDump().c_str());
    }
}

} // namespace ad::obs
