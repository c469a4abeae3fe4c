/**
 * @file
 * Umbrella header and command-line glue for the observability layer.
 * Tools and benches call setupFromConfig() after Config::fromArgs to
 * honor the shared knobs --
 *
 *   --trace <file>    enable tracing and write a Chrome trace there
 *   --metrics         enable the metric registry and dump it on exit
 *   --obs.trace       bool knob form of --trace
 *   --obs.trace_file  trace output path (default trace.json)
 *   --obs.trace_nn    also emit per-NN-layer spans (off by default)
 *   --obs.metrics     bool knob form of --metrics
 *   --obs.flight      flight recorder master switch (default on)
 *   --obs.flight_file      post-mortem dump path (default flight.json)
 *   --obs.flight_capacity  events retained per stream (default 1024)
 *   --obs.flight_max_dumps auto-dump budget per run (default 1)
 *   --flight-dump [file]   also dump the flight rings at exit
 *   --obs.perf        sample perf counters over trace spans
 *   --metrics-json <file>  periodic live metrics snapshot target
 *   --obs.metrics_json_interval_ms  min ms between snapshots (500)
 *
 * -- and finish() at the end of the run to write the trace file,
 * honor --flight-dump and print the metrics dump to stderr.
 */

#ifndef AD_OBS_OBS_HH
#define AD_OBS_OBS_HH

#include <optional>
#include <string>

#include "obs/deadline.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/perf.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"

namespace ad {
class Config;
}

namespace ad::obs {

/** Resolved observability options for one tool run. */
struct ObsOptions
{
    bool trace = false;
    std::string traceFile; ///< empty unless trace is enabled.
    bool traceNnLayers = false;
    bool metricsDump = false;

    bool flight = true;       ///< flight recorder armed (always-on).
    std::string flightFile;   ///< auto/post-mortem dump path.
    std::size_t flightCapacity = 1024; ///< events per stream ring.
    int flightMaxDumps = 1;   ///< auto-dump budget.
    bool flightDumpAtExit = false; ///< --flight-dump given.
    std::string flightDumpPath; ///< --flight-dump target (or default).

    bool perfSpans = false;   ///< sample perf counters over spans.

    std::string metricsJsonPath; ///< live snapshot target; "" = off.
    double metricsJsonIntervalMs = 500.0; ///< snapshot cadence.

    /** True when finish() has end-of-run output to produce. */
    bool any() const
    {
        return trace || metricsDump || flightDumpAtExit;
    }
};

/**
 * Parse the obs.* / --trace / --metrics knobs and enable the global
 * recorder and registry accordingly.
 */
ObsOptions setupFromConfig(const Config& cfg);

/**
 * End-of-run actions: write the Chrome trace (reporting the path and
 * event count), honor --flight-dump, dump the metric registry to
 * stderr, and, given @p snapshotAtMs, write one `--metrics-json`
 * snapshot stamped with it -- the end-of-run snapshot of a
 * virtual-clocked run, where periodic snapshots make no sense.
 */
void finish(const ObsOptions& options,
            std::optional<double> snapshotAtMs = std::nullopt);

} // namespace ad::obs

#endif // AD_OBS_OBS_HH
