/**
 * @file
 * The adbench workloads. Each builds its inputs from the seed, times
 * the program's set-up and its calls from outside, checks outputs
 * against recorded digests and returns its metrics: the end-to-end
 * set when the tracer is off, the per-layer values it measures when
 * the tracer is on.
 */

#ifndef ADBENCH_WORKLOADS_HH
#define ADBENCH_WORKLOADS_HH

#include "common.hh"

namespace adbench {

/** drive_urban. */
RunResult runDrive(const RunOptions& opt, Tracer& tr);

/** serve_det_int8. */
RunResult runServe(const RunOptions& opt, Tracer& tr);

} // namespace adbench

#endif // ADBENCH_WORKLOADS_HH
