// Micro-benchmarks over the reproduction's hot paths: the event kernel,
// message-bus routing, the trace recorder, the XML codec, and a full
// end-to-end recovery trial.
//
// Hand-rolled instead of google-benchmark (ISSUE 10): each metric is a
// fixed, deterministic workload timed wall-clock, repeated several times,
// best rep reported — the standard recipe for throughput numbers that are
// stable enough to gate on. Prints a table and writes BENCH_micro.json (see
// bench::Report), which CI gates against
// bench/baselines/BENCH_micro.baseline.json with bench/check_bench.py so a
// hot-path regression fails the build instead of landing silently.
//
// MERCURY_QUICK=1 shrinks the workloads ~10x (CI smoke / sanitizer jobs);
// the JSON is still written, marked quick, and the gate never compares it
// with the full-run baseline.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bus/message_bus.h"
#include "core/mercury_trees.h"
#include "msg/message.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "station/experiment.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/time.h"

namespace {

using mercury::util::Duration;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Run `workload` `reps` times; it returns (ops, seconds). Report the best
/// rep's ops/s — the least-interrupted run is the closest estimate of what
/// the code can do, and is far more stable across machines than the mean.
template <typename Workload>
double best_ops_per_s(int reps, Workload workload) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto [ops, elapsed] = workload();
    if (elapsed > 0.0) best = std::max(best, static_cast<double>(ops) / elapsed);
  }
  return best;
}

// --- Event kernel ---------------------------------------------------------

/// Pure queue throughput: schedule a batch with scattered delays, drain it.
/// Each schedule and each execute counts as one op.
double bench_event_queue(std::size_t events, int reps) {
  return best_ops_per_s(reps, [events] {
    mercury::sim::Simulator sim(7);
    mercury::util::Rng rng(11);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_after(Duration::millis(rng.uniform(0.0, 50.0)), "e", [] {});
    }
    sim.run_all();
    return std::pair{2 * events, seconds_since(start)};
  });
}

/// Churn: schedule/cancel/reschedule under load — the failure detector's
/// timeout pattern (arm a timeout, cancel it when the pong arrives). Stresses
/// slot reuse, generation checks and lazy heap pruning. Every schedule,
/// cancel and step counts as one op.
double bench_event_queue_churn(std::size_t rounds, int reps) {
  return best_ops_per_s(reps, [rounds] {
    mercury::sim::Simulator sim(13);
    mercury::util::Rng rng(17);
    std::vector<mercury::sim::EventId> pending;
    pending.reserve(64);
    std::uint64_t ops = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < rounds; ++i) {
      pending.push_back(sim.schedule_after(
          Duration::millis(rng.uniform(0.0, 20.0)), "t", [] {}));
      ++ops;
      if (pending.size() >= 48) {
        // Cancel a prefix out of order (stale heap entries pile up)...
        for (std::size_t k = 0; k < 16; ++k) {
          sim.cancel(pending[k * 2]);
          ++ops;
        }
        pending.clear();
        // ...then drain a little so the heap prunes them lazily.
        for (int k = 0; k < 16 && sim.step(); ++k) ++ops;
      }
    }
    sim.run_all();
    return std::pair{ops, seconds_since(start)};
  });
}

// --- Message bus ----------------------------------------------------------

/// Routing throughput end to end: encode for the size check, share one
/// copy of the message, route (cache hit on repeat sends), deliver. Zero latency/jitter so virtual time never
/// advances and the measurement is pure bus work.
double bench_mbus_routing(std::size_t messages, int reps) {
  return best_ops_per_s(reps, [messages] {
    mercury::sim::Simulator sim(3);
    mercury::bus::BusConfig config;
    config.latency = Duration::millis(0.0);
    config.latency_jitter = Duration::millis(0.0);
    mercury::bus::MessageBus bus(sim, config);

    const std::vector<std::string> names = {"mbus", "ses",  "str", "rtu",
                                            "fedr", "pbcom", "fd",  "rec"};
    std::uint64_t received = 0;
    for (const std::string& name : names) {
      bus.attach(name, [&received](const mercury::msg::Message&) { ++received; });
    }

    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < messages; ++i) {
      // 1-in-16 broadcast, otherwise point-to-point round-robin — roughly
      // the live traffic mix (pings dominate, beacons broadcast).
      const std::string& to =
          (i % 16 == 15) ? "*" : names[(i + 1) % names.size()];
      mercury::msg::Message ping = mercury::msg::make_ping(
          names[i % names.size()], to, static_cast<std::uint64_t>(i));
      bus.send(ping);
      sim.run_all();
    }
    const double elapsed = seconds_since(start);
    if (bus.stats().sent != messages || received == 0) {
      std::fprintf(stderr, "FAIL: bus bench delivered nothing\n");
      std::exit(1);
    }
    return std::pair{messages, elapsed};
  });
}

// --- Trace recorder -------------------------------------------------------

/// Recording throughput: the instant/begin/end mix a recovery emits, with
/// typical small arg lists. Each recorded event is one op.
double bench_trace_record(std::size_t events, int reps) {
  return best_ops_per_s(reps, [events] {
    mercury::obs::TraceRecorder recorder;
    std::uint64_t recorded = 0;
    const auto start = std::chrono::steady_clock::now();
    while (recorded + 3 <= events) {
      const double t = 1e-6 * static_cast<double>(recorded);
      recorder.instant(t, "detect", "fd.report", "fd",
                       {{"component", "ses"}, {"misses", "1"}});
      const std::uint64_t span =
          recorder.begin(t, "restart", "restart:ses", "pm", {{"epoch", "1"}});
      recorder.end(t + 1e-6, span);
      recorded += 3;
    }
    const double elapsed = seconds_since(start);
    if (recorder.events().size() != recorded) {
      std::fprintf(stderr, "FAIL: trace bench dropped events\n");
      std::exit(1);
    }
    return std::pair{recorded, elapsed};
  });
}

/// Merge throughput: per-trial recorders spliced into an ambient recorder,
/// the parallel runner's join step. Every per-trial recorder holds the same
/// 512 events (256 begin/end pairs, about 9 kB in five blocks), so a merge
/// costs a fixed number of block splices; one merge is one op. A merge that
/// copied event by event would cost tens of times more per op. Only the
/// merges are timed; filling the per-trial recorders is setup, done in
/// batches to bound memory.
double bench_trace_merge(std::size_t merges, int reps) {
  constexpr std::size_t kEventsPerTrial = 512;
  constexpr std::size_t kBatch = 64;
  return best_ops_per_s(reps, [merges] {
    double elapsed = 0.0;
    std::uint64_t merged = 0;
    for (std::size_t done = 0; done < merges; done += kBatch) {
      std::vector<std::unique_ptr<mercury::obs::TraceRecorder>> trials;
      trials.reserve(kBatch);
      for (std::size_t r = 0; r < kBatch; ++r) {
        auto recorder = std::make_unique<mercury::obs::TraceRecorder>();
        for (std::size_t i = 0; i < kEventsPerTrial; i += 2) {
          const double t = 1e-6 * static_cast<double>(i);
          const std::uint64_t span =
              recorder->begin(t, "recover", "rec.restart", "rec",
                              {{"component", "ses"}, {"cell", "ses"}});
          recorder->end(t + 1e-6, span);
        }
        trials.push_back(std::move(recorder));
      }
      mercury::obs::TraceRecorder ambient;
      const auto start = std::chrono::steady_clock::now();
      for (auto& trial : trials) ambient.merge_from(std::move(*trial));
      elapsed += seconds_since(start);
      if (ambient.events().size() != kBatch * kEventsPerTrial) {
        std::fprintf(stderr, "FAIL: trace merge lost events\n");
        std::exit(1);
      }
      merged += kBatch;
    }
    return std::pair{merged, elapsed};
  });
}

// --- XML codec ------------------------------------------------------------

/// Full wire round trip: encode a command to bytes, parse the bytes back.
/// One round trip is one op.
double bench_xml_roundtrip(std::size_t roundtrips, int reps) {
  return best_ops_per_s(reps, [roundtrips] {
    mercury::msg::Message message =
        mercury::msg::make_command("rtu", "fedr", 42, "tune");
    message.body.set_attr("freq_hz", 437.09e6);
    std::uint64_t ok = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < roundtrips; ++i) {
      const std::string wire = mercury::msg::encode(message);
      auto decoded = mercury::msg::decode(wire);
      if (decoded.ok()) ++ok;
    }
    const double elapsed = seconds_since(start);
    if (ok != roundtrips) {
      std::fprintf(stderr, "FAIL: xml bench decode failed\n");
      std::exit(1);
    }
    return std::pair{roundtrips, elapsed};
  });
}

// --- End-to-end trials ----------------------------------------------------

/// Serial recovery-trial throughput on one core: the paper's tree IV,
/// perfect oracle, ses failure — the configuration every table bench leans
/// on. This is the headline number: everything above feeds it.
double bench_trials(std::size_t trials, int reps) {
  return best_ops_per_s(reps, [trials] {
    std::uint64_t seed = 1;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < trials; ++i) {
      mercury::station::TrialSpec spec;
      spec.tree = mercury::core::MercuryTree::kTreeIV;
      spec.oracle = mercury::station::OracleKind::kPerfect;
      spec.fail_component = mercury::core::component_names::kSes;
      spec.seed = seed++;
      const auto result = mercury::station::run_trial(spec);
      if (result.hard_failure || result.timed_out) {
        std::fprintf(stderr, "FAIL: trial did not recover\n");
        std::exit(1);
      }
    }
    return std::pair{trials, seconds_since(start)};
  });
}

}  // namespace

int main() {
  const bool quick = mercury::bench::quick();
  // Quick mode shrinks every workload ~10x: enough to exercise the paths
  // under sanitizers, far too noisy to gate on with full-run baselines.
  const std::size_t scale = quick ? 1 : 10;
  const int reps = quick ? 2 : 5;

  std::printf("bench_micro: hot-path throughput (%s mode, best of %d reps)\n",
              quick ? "quick" : "full", reps);

  // Every metric is a throughput: higher is better.
  mercury::bench::Report report("micro", "bench_micro");
  const auto add = [&report](std::string name, double value, std::string unit) {
    std::printf("  %-28s %14.0f %s\n", name.c_str(), value, unit.c_str());
    std::fflush(stdout);
    report.add(std::move(name), value, std::move(unit),
               mercury::bench::Better::kHigher);
  };

  // Warm up allocator and caches with a small untimed trial batch.
  bench_trials(4, 1);

  add("event_queue_ops_per_s", bench_event_queue(50'000 * scale, reps),
      "ops/s");
  add("event_queue_churn_ops_per_s",
      bench_event_queue_churn(40'000 * scale, reps), "ops/s");
  add("mbus_routing_msgs_per_s", bench_mbus_routing(4'000 * scale, reps),
      "msgs/s");
  add("trace_records_per_s", bench_trace_record(60'000 * scale, reps),
      "events/s");
  add("trace_merges_per_s", bench_trace_merge(256 * scale, reps), "merges/s");
  add("xml_roundtrips_per_s", bench_xml_roundtrip(20'000 * scale, reps),
      "roundtrips/s");
  add("trials_per_s_per_core", bench_trials(30 * scale, reps), "trials/s");

  return report.write();
}
