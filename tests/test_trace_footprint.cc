// Footprint of a long traced run: what two simulated years of the Table-1
// station cost the trace. A record holds its label and shape ids as
// varints, so these tests have a binary of their own: a process that
// interned thousands of other labels first (the rest of the trace suite)
// would measure two-byte ids that a bench process never sees.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "obs/trace.h"
#include "sim/simulator.h"
#include "station/fault_injector.h"
#include "station/station.h"

namespace mercury::obs {
namespace {

/// What `days` of the Table-1 station record.
struct Recording {
  std::size_t events = 0;
  std::size_t bytes = 0;  ///< EventBuffer::memory_bytes
};

/// Record `days` of the Table-1 station (fused fedrcom, Table-1 fault
/// rates, no repair loop).
Recording record_table1_days(double days) {
  station::StationConfig config;
  config.split_fedrcom = false;
  config.enable_domain_behavior = false;
  station::InjectorConfig injector_config;
  injector_config.suppress_double_faults = false;
  injector_config.fedr_weibull_shape = 1.0;
  TraceRecorder rec;
  ScopedRecorder scope(rec);
  sim::Simulator sim(17);
  station::Station station(sim, config);
  // The vocabulary a run may legitimately add: every component can be a
  // fault's manifest or cure set, however rare its faults are.
  for (const std::string& name : station.component_names()) Label{name};
  station::FaultInjector injector(station, injector_config);
  station.boot_instant();
  injector.start();
  sim.run_for(util::Duration::days(days));
  return {rec.events().size(), rec.events().memory_bytes()};
}

TEST(TraceFootprint, InternPoolDoesNotGrowWithEventCount) {
  // A value interned per event (a fault id as a string, say) would grow the
  // process-wide pool without bound; the pool must depend only on the set
  // of distinct labels, which two simulated years do not widen. Event
  // shapes live in the same pool, so this also shows that the shapes
  // depend on the emit sites, not on the event count.
  const std::size_t short_events = record_table1_days(30.0).events;
  const std::size_t after_short = interned_label_count();
  const std::size_t long_events = record_table1_days(730.0).events;
  const std::size_t after_long = interned_label_count();
  EXPECT_GT(long_events, 10 * short_events);
  EXPECT_EQ(after_long, after_short);
}

TEST(TraceFootprint, TwoYearRecordingIsCompact) {
  // Two simulated years record about 10^5 fault.manifest instants with four
  // args each. They share one interned shape, so each record holds its
  // shape id, span, run, t and the four values only: about 17 bytes apiece
  // (28 when each record repeated its kind, labels and arg keys; a decoded
  // TraceEvent plus its args is 120).
  const Recording two_years = record_table1_days(730.0);
  ASSERT_GT(two_years.events, 100'000u);
  const double per_event =
      static_cast<double>(two_years.bytes) / static_cast<double>(two_years.events);
  RecordProperty("bytes_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, 20.0) << two_years.bytes << " bytes for " << two_years.events
                             << " events";
}

}  // namespace
}  // namespace mercury::obs
