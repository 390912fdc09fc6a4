/**
 * @file
 * The observability bundle a simulation run is wired with: a metric
 * registry (named counters) and an event tracer (typed event ring).
 * Both are optional and owned by the caller; either pointer may be
 * null, and a default-constructed bundle means "unobserved run" — the
 * memory system then falls back to a private registry so its counters
 * always exist, and tracing is off.
 *
 * Everything recorded is keyed to simulated time, never to the host
 * clock: a run's counters and events are deterministic, and the
 * simulated machine reads no clock at all (simlint's sim-clock rule).
 * Where wall time goes is measured from outside src/ (perfbench
 * --trace 1 multiplies registry counts by per-operation costs).
 */

#ifndef ECDP_OBS_OBSERVABILITY_HH
#define ECDP_OBS_OBSERVABILITY_HH

#include "obs/event_tracer.hh"
#include "obs/metrics.hh"

namespace ecdp
{

struct Observability
{
    obs::MetricRegistry *metrics = nullptr;
    obs::EventTracer *tracer = nullptr;
};

} // namespace ecdp

#endif // ECDP_OBS_OBSERVABILITY_HH
