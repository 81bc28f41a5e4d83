// The one handle a deployment threads through its components: a metrics
// registry plus a packet-lifecycle tracer, both optional.  Components count
// into counters they own either way; wiring a registry exposes those
// counters by reference (and registers gauges and histograms), so an
// unwired component is unexported, not uncounted.  Passing the same
// Observability to every layer (switches, nodes, the WAN) is what makes one
// run's snapshot coherent.
#pragma once

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace tango::telemetry {

struct Observability {
  MetricsRegistry* metrics = nullptr;
  PacketTracer* tracer = nullptr;
};

}  // namespace tango::telemetry
