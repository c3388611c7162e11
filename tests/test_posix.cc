// Integration tests: real-process supervision (the POSIX backend).
//
// These spawn actual child processes (the mercury_worker binary) and use
// wall-clock time, so timings are kept small: worker startups 50-200 ms,
// ping period 60 ms.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/restart_tree.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "posix/checkpoint_file.h"
#include "posix/child_process.h"
#include "posix/supervisor.h"
#include "util/rng.h"

#ifndef MERCURY_WORKER_BIN
#error "MERCURY_WORKER_BIN must point at the mercury_worker binary"
#endif

namespace mercury::posix {
namespace {

const std::string kWorker = MERCURY_WORKER_BIN;

// --- ChildProcess ------------------------------------------------------------

TEST(ChildProcess, SpawnReadyPingPong) {
  auto spawned =
      ChildProcess::spawn({kWorker, "--name", "w", "--startup-ms", "30"});
  ASSERT_TRUE(spawned.ok()) << spawned.error().message();
  ChildProcess child = std::move(spawned).value();
  EXPECT_GT(child.pid(), 0);
  EXPECT_TRUE(child.running());

  // Wait for READY.
  std::string ready;
  for (int i = 0; i < 100 && ready.empty(); ++i) {
    usleep(10'000);
    for (const auto& line : child.read_lines()) {
      if (line == "READY w") ready = line;
    }
  }
  EXPECT_EQ(ready, "READY w");

  ASSERT_TRUE(child.write_line("PING 7"));
  std::string pong;
  for (int i = 0; i < 100 && pong.empty(); ++i) {
    usleep(5'000);
    for (const auto& line : child.read_lines()) {
      if (line == "PONG 7") pong = line;
    }
  }
  EXPECT_EQ(pong, "PONG 7");
}

TEST(ChildProcess, KillHardReaps) {
  auto spawned =
      ChildProcess::spawn({kWorker, "--name", "w", "--startup-ms", "10"});
  ASSERT_TRUE(spawned.ok());
  ChildProcess child = std::move(spawned).value();
  child.kill_hard();
  EXPECT_FALSE(child.running());
  child.kill_hard();  // idempotent
}

TEST(ChildProcess, SpawnFailureReportsError) {
  auto spawned = ChildProcess::spawn({"/no/such/binary/anywhere"});
  if (spawned.ok()) {
    // exec fails after fork: the child exits 127 almost immediately.
    ChildProcess child = std::move(spawned).value();
    usleep(50'000);
    EXPECT_FALSE(child.running());
  }
}

TEST(ChildProcess, WedgedWorkerStopsAnswering) {
  auto spawned =
      ChildProcess::spawn({kWorker, "--name", "w", "--startup-ms", "10"});
  ASSERT_TRUE(spawned.ok());
  ChildProcess child = std::move(spawned).value();
  usleep(100'000);
  child.read_lines();  // drain READY
  ASSERT_TRUE(child.write_line("WEDGE"));
  usleep(20'000);
  ASSERT_TRUE(child.write_line("PING 1"));
  usleep(100'000);
  EXPECT_TRUE(child.read_lines().empty());
  EXPECT_TRUE(child.running());  // fail-silent, not dead
}

TEST(ChildProcess, HangsUpOnExitNotOnWedge) {
  // Drain until `child` hangs up or ~0.5 s passes.
  const auto drain_until_hangup = [](ChildProcess& child) {
    for (int i = 0; i < 50 && !child.hung_up(); ++i) {
      usleep(10'000);
      child.read_lines();
    }
    return child.hung_up();
  };
  const auto spawn_ready = [] {
    auto spawned =
        ChildProcess::spawn({kWorker, "--name", "w", "--startup-ms", "10"});
    EXPECT_TRUE(spawned.ok());
    ChildProcess child = std::move(spawned).value();
    for (int i = 0; i < 100; ++i) {
      usleep(5'000);
      const auto lines = child.read_lines();
      if (std::find(lines.begin(), lines.end(), "READY w") != lines.end()) break;
    }
    return child;
  };

  // A wedged child is silent but alive: its pipe never hangs up.
  ChildProcess wedged = spawn_ready();
  EXPECT_FALSE(wedged.hung_up());
  ASSERT_TRUE(wedged.write_line("WEDGE"));
  ASSERT_TRUE(wedged.write_line("PING 1"));
  EXPECT_FALSE(drain_until_hangup(wedged));
  EXPECT_TRUE(wedged.running());

  // A SIGKILLed child hangs up, and a move carries the flag along.
  ChildProcess killed = spawn_ready();
  killed.kill_hard();
  EXPECT_TRUE(drain_until_hangup(killed));
  ChildProcess moved = std::move(killed);
  EXPECT_TRUE(moved.hung_up());
  EXPECT_FALSE(killed.hung_up());
  ChildProcess assigned = spawn_ready();
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.hung_up());

  // So does one that exits on its own.
  ChildProcess exiting = spawn_ready();
  ASSERT_TRUE(exiting.write_line("EXIT"));
  EXPECT_TRUE(drain_until_hangup(exiting));
}

// --- PosixSupervisor -----------------------------------------------------------

WorkerSpec quick_worker(const std::string& name, int startup_ms,
                        int wedge_after = -1) {
  WorkerSpec spec;
  spec.name = name;
  spec.argv = {kWorker, "--name", name, "--startup-ms",
               std::to_string(startup_ms)};
  if (wedge_after >= 0) {
    spec.argv.push_back("--wedge-after");
    spec.argv.push_back(std::to_string(wedge_after));
  }
  return spec;
}

SupervisorConfig quick_config() {
  SupervisorConfig config;
  config.ping_period = Millis{60};
  config.ping_timeout = Millis{50};
  config.escalation_window = Millis{1000};
  return config;
}

core::RestartTree pair_and_leaf_tree() {
  core::RestartTree tree("R_demo");
  const auto pair = tree.add_cell(tree.root(), "R_[a,b]");
  tree.attach_component(pair, "a");
  tree.attach_component(pair, "b");
  const auto c = tree.add_cell(tree.root(), "R_c");
  tree.attach_component(c, "c");
  return tree;
}

/// The `cause` of every posix `fd.report` about `component`, in order.
std::vector<std::string> report_causes(const obs::TraceRecorder& recorder,
                                       const std::string& component) {
  std::vector<std::string> causes;
  for (const obs::TraceEvent& event : recorder.events()) {
    if (event.name == "fd.report" && event.track == "posix" &&
        event.arg_or("component") == component) {
      causes.push_back(event.arg_or("cause"));
    }
  }
  return causes;
}

/// User plus system CPU seconds this process has used so far.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(PosixSupervisor, StartAllBecomesReady) {
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 50), quick_worker("b", 60), quick_worker("c", 70)},
      quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());
  EXPECT_TRUE(supervisor.all_up());
  supervisor.run_for(Millis{300});
  EXPECT_GT(supervisor.pongs_received(), 6u);
  EXPECT_TRUE(supervisor.history().empty());  // no failures yet
}

TEST(PosixSupervisor, RecoversFromExternalSigkill) {
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 50), quick_worker("b", 60), quick_worker("c", 70)},
      quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());

  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && !supervisor.history().empty(); },
      Millis{3000}));
  ASSERT_EQ(supervisor.history().size(), 1u);
  EXPECT_EQ(supervisor.history()[0].reported_worker, "c");
  EXPECT_EQ(supervisor.history()[0].restarted, std::vector<std::string>{"c"});
  EXPECT_EQ(supervisor.history()[0].escalation_level, 0);
  // Downtime (report -> READY) ~ startup (70 ms) + loop slack; the pipe
  // hangup reports the kill within a loop pass.
  EXPECT_LT(supervisor.history()[0].downtime.count(), 1000);
}

TEST(PosixSupervisor, ConsolidatedCellRestartsBothWorkers) {
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 50), quick_worker("b", 60), quick_worker("c", 70)},
      quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());

  supervisor.kill_worker("a");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && !supervisor.history().empty(); },
      Millis{3000}));
  ASSERT_EQ(supervisor.history().size(), 1u);
  EXPECT_EQ(supervisor.history()[0].restarted,
            (std::vector<std::string>{"a", "b"}));
}

TEST(PosixSupervisor, RecoversFromWedgeWithoutProcessDeath) {
  obs::TraceRecorder recorder;
  obs::ScopedRecorder scope(recorder);
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 50), quick_worker("b", 60), quick_worker("c", 70)},
      quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());

  supervisor.wedge_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return !supervisor.history().empty() && supervisor.all_up(); },
      Millis{3000}));
  EXPECT_EQ(supervisor.history()[0].reported_worker, "c");
  // The wedged process never exited, so only the ping detector saw it.
  EXPECT_EQ(report_causes(recorder, "c"), std::vector<std::string>{"missed-ping"});
}

TEST(PosixSupervisor, ExitedWorkerIsReportedWithoutAPing) {
  // With a 10 s ping period no pong can go missing during the test: the
  // pipe hangup alone must report the kill.
  obs::TraceRecorder recorder;
  obs::ScopedRecorder scope(recorder);
  SupervisorConfig config = quick_config();
  config.ping_period = Millis{10'000};
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 50), quick_worker("b", 60), quick_worker("c", 70)},
      config);
  ASSERT_TRUE(supervisor.start_all().ok());

  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && !supervisor.history().empty(); },
      Millis{3000}));
  ASSERT_EQ(supervisor.history().size(), 1u);
  EXPECT_EQ(supervisor.history()[0].restarted, std::vector<std::string>{"c"});
  EXPECT_EQ(supervisor.pings_sent(), 0u);
  EXPECT_EQ(report_causes(recorder, "c"), std::vector<std::string>{"exited"});
  const std::vector<obs::TraceIssue> issues = obs::check_trace(recorder.events());
  EXPECT_TRUE(issues.empty()) << obs::describe(issues);
}

TEST(PosixSupervisor, WorkerKilledDuringItsRestartIsLeftToTheDeadline) {
  // c is killed, and killed again while REC's restart of R_c is still
  // starting it. The second death happens under REC's mask: the detector
  // must not report it, and REC's restart deadline recovers it. Meanwhile
  // the loop must sleep, not spin on the dead worker's hung-up pipe.
  obs::TraceRecorder recorder;
  obs::ScopedRecorder scope(recorder);
  SupervisorConfig config = quick_config();
  config.restart_deadline = Millis{1000};
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 30), quick_worker("b", 30), quick_worker("c", 300)},
      config);
  ASSERT_TRUE(supervisor.start_all().ok());

  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.restarts_in_flight() >= 1; }, Millis{2000}));
  supervisor.kill_worker("c");

  const auto wall_start = Clock::now();
  const double cpu_start = cpu_seconds();
  supervisor.run_for(Millis{300});
  const double cpu_used = cpu_seconds() - cpu_start;
  const double wall =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  EXPECT_LT(cpu_used, wall / 2) << "supervision loop busy-spins";
  EXPECT_EQ(supervisor.restart_timeouts(), 0u);

  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && !supervisor.history().empty(); },
      Millis{5000}));
  EXPECT_GE(supervisor.restart_timeouts(), 1u);
  EXPECT_EQ(report_causes(recorder, "c"), std::vector<std::string>{"exited"});
  EXPECT_TRUE(supervisor.hard_failures().empty());
}

TEST(PosixSupervisor, SelfWedgingWorkerEscalatesToHardFailure) {
  // Worker "c" answers one pong per incarnation, then wedges. Every restart
  // (leaf, then root, then root again) produces another wedge within the
  // escalation window, so the chain must end parked as a hard failure.
  core::RestartTree tree("R_demo");
  const auto a_cell = tree.add_cell(tree.root(), "R_a");
  tree.attach_component(a_cell, "a");
  const auto c_cell = tree.add_cell(tree.root(), "R_c");
  tree.attach_component(c_cell, "c");

  SupervisorConfig config = quick_config();
  config.max_root_restarts = 1;
  PosixSupervisor supervisor(
      tree, {quick_worker("a", 30), quick_worker("c", 30, /*wedge_after=*/1)},
      config);
  ASSERT_TRUE(supervisor.start_all().ok());

  ASSERT_TRUE(supervisor.run_until(
      [&] { return !supervisor.hard_failures().empty(); }, Millis{8000}));
  EXPECT_EQ(supervisor.hard_failures()[0], "c");
  // The chain escalated: some restart touched more than worker c alone.
  bool saw_escalation = false;
  for (const auto& record : supervisor.history()) {
    if (record.escalation_level > 0) saw_escalation = true;
  }
  EXPECT_TRUE(saw_escalation);
  // Healthy worker a keeps being supervised after the parking.
  supervisor.run_for(Millis{200});
  EXPECT_TRUE(supervisor.worker_up("a"));
}

TEST(PosixSupervisor, KillOrWedgeUnknownWorkerFailsCleanly) {
  PosixSupervisor supervisor(pair_and_leaf_tree(),
                             {quick_worker("a", 50), quick_worker("b", 60),
                              quick_worker("c", 70)},
                             quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());
  EXPECT_FALSE(supervisor.kill_worker("no-such-worker"));
  EXPECT_FALSE(supervisor.wedge_worker(""));
  EXPECT_TRUE(supervisor.kill_worker("c"));
  // The bogus names had no side effects: only c's failure chain runs.
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && !supervisor.history().empty(); },
      Millis{3000}));
  EXPECT_EQ(supervisor.history()[0].reported_worker, "c");
}

TEST(PosixSupervisor, HungStartupTimesOutEscalatesAndRecovers) {
  // Worker c's first-ever startup hangs (pause() before READY, gated on a
  // sentinel file); the startup deadline must abort it, report the failure,
  // and the respawn — which finds the sentinel and proceeds — recovers.
  const std::string sentinel =
      "/tmp/mercury_hang_once_" + std::to_string(getpid());
  std::remove(sentinel.c_str());
  obs::TraceRecorder recorder;
  obs::ScopedRecorder scope(recorder);

  WorkerSpec hang = quick_worker("c", 30);
  hang.argv.push_back("--hang-start-once");
  hang.argv.push_back(sentinel);
  SupervisorConfig config = quick_config();
  config.restart_deadline = Millis{300};

  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 30), quick_worker("b", 30), hang}, config);
  // start_all itself rides the hardened path: the hung spawn times out at
  // 300 ms, escalates through the oracle, and the second spawn succeeds.
  ASSERT_TRUE(supervisor.start_all().ok());
  EXPECT_TRUE(supervisor.all_up());
  EXPECT_GE(supervisor.restart_timeouts(), 1u);
  // The timeout produced a real recovery action for c.
  ASSERT_FALSE(supervisor.history().empty());
  EXPECT_EQ(supervisor.history()[0].reported_worker, "c");
  EXPECT_TRUE(supervisor.worker_up("c"));
  // The hung process stayed alive: the startup deadline, not a hangup,
  // reported it.
  EXPECT_EQ(report_causes(recorder, "c"),
            std::vector<std::string>{"startup-timeout"});
  std::remove(sentinel.c_str());
}

TEST(PosixSupervisor, HealthBeaconsDriveProactiveRejuvenation) {
  // The worker leaks 600 MB/min (10 MB/s) from a 48 MB base; the 70 MB
  // limit trips after ~2 s of uptime, so the supervisor should rejuvenate
  // it proactively — a real-process rendition of the §7 health loop.
  core::RestartTree tree("R_demo");
  const auto a_cell = tree.add_cell(tree.root(), "R_a");
  tree.attach_component(a_cell, "a");
  const auto b_cell = tree.add_cell(tree.root(), "R_leaky");
  tree.attach_component(b_cell, "leaky");

  WorkerSpec leaky;
  leaky.name = "leaky";
  leaky.argv = {kWorker, "--name", "leaky", "--startup-ms", "30",
                "--leak-mb-per-min", "600"};
  SupervisorConfig config = quick_config();
  config.memory_limit_mb = 70.0;
  PosixSupervisor supervisor(tree, {quick_worker("a", 30), leaky}, config);
  ASSERT_TRUE(supervisor.start_all().ok());

  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.rejuvenations() >= 1 && supervisor.all_up(); },
      Millis{8000}));
  // Beacons flowed and the restart reset the figure.
  supervisor.run_for(Millis{300});
  const auto memory = supervisor.latest_memory_mb("leaky");
  ASSERT_TRUE(memory.has_value());
  EXPECT_LT(*memory, 70.0);
  // The healthy worker was left alone.
  for (const auto& record : supervisor.history()) {
    EXPECT_EQ(record.reported_worker, "leaky");
  }
  EXPECT_TRUE(supervisor.hard_failures().empty());
}

TEST(PosixSupervisor, NoHealthPolicyMeansNoRejuvenation) {
  core::RestartTree tree("R_demo");
  const auto cell = tree.add_cell(tree.root(), "R_leaky");
  tree.attach_component(cell, "leaky");
  WorkerSpec leaky;
  leaky.name = "leaky";
  leaky.argv = {kWorker, "--name", "leaky", "--startup-ms", "30",
                "--leak-mb-per-min", "600"};
  PosixSupervisor supervisor(tree, {leaky}, quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());
  supervisor.run_for(Millis{800});
  EXPECT_EQ(supervisor.rejuvenations(), 0u);
  // But the beacons are still visible for observability.
  EXPECT_TRUE(supervisor.latest_memory_mb("leaky").has_value());
}

// --- Checkpointed warm restarts & malformed protocol lines (ISSUE 3) --------

core::RestartTree two_leaf_tree() {
  core::RestartTree tree("R_demo");
  const auto a_cell = tree.add_cell(tree.root(), "R_a");
  tree.attach_component(a_cell, "a");
  const auto c_cell = tree.add_cell(tree.root(), "R_c");
  tree.attach_component(c_cell, "c");
  return tree;
}

TEST(PosixSupervisor, WarmRestartUsesCheckpointAndShortensDowntime) {
  const std::string file = "/tmp/mercury_ckpt_warm_" + std::to_string(getpid());
  std::remove(file.c_str());

  WorkerSpec slow;
  slow.name = "c";
  slow.argv = {kWorker,  "--name", "c", "--startup-ms", "600",
               "--checkpoint-file", file, "--warm-startup-ms", "50"};
  slow.checkpoint_file = file;

  PosixSupervisor supervisor(two_leaf_tree(), {quick_worker("a", 30), slow},
                             quick_config());
  // First-ever start is cold (no file yet); the worker writes the
  // checkpoint once READY.
  ASSERT_TRUE(supervisor.start_all().ok());
  EXPECT_EQ(supervisor.checkpoints_validated(), 0u);
  // The worker writes the file just *after* READY; wait for it so the kill
  // cannot race the write (flaky under parallel test load otherwise).
  ASSERT_TRUE(supervisor.run_until(
      [&] {
        return ckpt::read_checkpoint_file(file, "c", nullptr) ==
               ckpt::FileState::kValid;
      },
      Millis{2000}));

  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && !supervisor.history().empty(); },
      Millis{5000}));
  ASSERT_EQ(supervisor.history().size(), 1u);
  EXPECT_GE(supervisor.checkpoints_validated(), 1u);
  EXPECT_EQ(supervisor.checkpoints_deleted(), 0u);
  // Warm restart (report -> READY): 50 ms warm startup + loop slack — well
  // under even the bare 600 ms cold startup delay.
  EXPECT_LT(supervisor.history()[0].downtime.count(), 600);
  std::remove(file.c_str());
}

TEST(PosixSupervisor, InvalidCheckpointFileIsDeletedBeforeSpawn) {
  const std::string file = "/tmp/mercury_ckpt_bad_" + std::to_string(getpid());
  {
    // Well-formed line, wrong checksum: the supervisor must delete it so
    // the worker cold-starts instead of warm-starting from garbage.
    std::FILE* f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("MERCURY-CKPT 1 c tampered-state deadbeef\n", f);
    std::fclose(f);
  }

  WorkerSpec spec;
  spec.name = "c";
  spec.argv = {kWorker, "--name", "c", "--startup-ms", "50",
               "--checkpoint-file", file};
  spec.checkpoint_file = file;
  core::RestartTree tree("R_demo");
  const auto cell = tree.add_cell(tree.root(), "R_c");
  tree.attach_component(cell, "c");

  PosixSupervisor supervisor(tree, {spec}, quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());
  EXPECT_GE(supervisor.checkpoints_deleted(), 1u);
  EXPECT_EQ(supervisor.checkpoints_validated(), 0u);
  // The cold start rebuilt the state and rewrote a valid file.
  supervisor.run_for(Millis{200});
  ckpt::CheckpointFile checkpoint;
  EXPECT_EQ(ckpt::read_checkpoint_file(file, "c", &checkpoint),
            ckpt::FileState::kValid);
  EXPECT_EQ(checkpoint.payload, "rebuilt-state");
  std::remove(file.c_str());
}

TEST(CheckpointFile, RoundTripAndSeededFuzz) {
  const std::string file = "/tmp/mercury_ckpt_fuzz_" + std::to_string(getpid());

  // Round trip.
  ASSERT_TRUE(ckpt::write_checkpoint_file(file, "ses", "session=3,peer=str"));
  ckpt::CheckpointFile checkpoint;
  ASSERT_EQ(ckpt::read_checkpoint_file(file, "ses", &checkpoint),
            ckpt::FileState::kValid);
  EXPECT_EQ(checkpoint.name, "ses");
  EXPECT_EQ(checkpoint.payload, "session=3,peer=str");
  // The name is part of the contract: another worker's file never validates.
  EXPECT_EQ(ckpt::read_checkpoint_file(file, "str", nullptr),
            ckpt::FileState::kInvalid);
  EXPECT_EQ(ckpt::read_checkpoint_file("/no/such/file", "ses", nullptr),
            ckpt::FileState::kMissing);

  // Deterministic fuzz: byte mutations of the valid line. The parser must
  // never crash or over-read (the sanitizer CI job watches), and anything
  // that no longer checksums is kInvalid — the supervisor then deletes it.
  std::string valid_line;
  {
    std::FILE* f = std::fopen(file.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buffer[512];
    ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
    std::fclose(f);
    valid_line = buffer;
  }
  mercury::util::Rng rng(20260806);
  for (int round = 0; round < 300; ++round) {
    std::string line = valid_line;
    const int mutations = static_cast<int>(rng.uniform_int(1, 5));
    for (int m = 0; m < mutations && !line.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0: line[pos] = static_cast<char>(rng.uniform_int(32, 126)); break;
        case 1: line.erase(pos, 1); break;
        default: line.insert(pos, 1, line[pos]); break;
      }
    }
    std::FILE* f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(line.c_str(), f);
    std::fclose(f);
    const ckpt::FileState state =
        ckpt::read_checkpoint_file(file, "ses", &checkpoint);
    EXPECT_TRUE(state == ckpt::FileState::kValid ||
                state == ckpt::FileState::kInvalid);
  }
  std::remove(file.c_str());
}

TEST(CheckpointFile, TruncatedFilesAreRejectedBeforeChecksum) {
  // Satellite regression (ISSUE 7): a snapshot file cut off mid-write
  // (power loss, full disk) must never validate. The v2 format records the
  // payload length and checks it BEFORE the checksum, so truncation is
  // caught by the cheap structural check, not by checksum luck.
  const std::string file = "/tmp/mercury_ckpt_trunc_" + std::to_string(getpid());
  ASSERT_TRUE(ckpt::write_checkpoint_file(file, "ses", "session=3,peer=str"));
  std::string valid_line;
  {
    std::FILE* f = std::fopen(file.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buffer[512];
    ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
    std::fclose(f);
    valid_line = buffer;
  }
  while (!valid_line.empty() && valid_line.back() == '\n') valid_line.pop_back();

  // Every strict prefix is a truncation; none may validate.
  for (std::size_t cut = 0; cut < valid_line.size(); ++cut) {
    std::FILE* f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(valid_line.data(), 1, cut, f);
    std::fclose(f);
    EXPECT_EQ(ckpt::read_checkpoint_file(file, "ses", nullptr),
              ckpt::FileState::kInvalid)
        << "truncated at byte " << cut;
  }

  // A recorded length that disagrees with the payload bytes actually
  // present is rejected even when the checksum token is intact.
  {
    std::string lied = valid_line;
    const std::size_t len_pos = lied.find(" 18 ");  // payload length token
    ASSERT_NE(len_pos, std::string::npos);
    lied.replace(len_pos, 4, " 99 ");
    std::FILE* f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs((lied + "\n").c_str(), f);
    std::fclose(f);
    EXPECT_EQ(ckpt::read_checkpoint_file(file, "ses", nullptr),
              ckpt::FileState::kInvalid);
  }

  // Seeded fuzz over tail truncations combined with byte noise: never
  // kValid unless the line survived byte-identical.
  mercury::util::Rng rng(20260809);
  for (int round = 0; round < 200; ++round) {
    std::string line = valid_line;
    const auto keep = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(line.size())));
    line.resize(keep);
    if (!line.empty() && rng.chance(0.5)) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      line[pos] = static_cast<char>(rng.uniform_int(32, 126));
    }
    std::FILE* f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(line.c_str(), f);
    std::fclose(f);
    const ckpt::FileState state =
        ckpt::read_checkpoint_file(file, "ses", nullptr);
    if (line == valid_line) {
      EXPECT_EQ(state, ckpt::FileState::kValid);
    } else {
      EXPECT_EQ(state, ckpt::FileState::kInvalid) << "round " << round;
    }
  }
  std::remove(file.c_str());
}

TEST(CheckpointFile, V1FilesNeverValidateUnderV2) {
  // Format migration safety: a v1 line (no length token) with a correct v1
  // checksum is kInvalid under the current format — one cold start, never a
  // wrong warm one.
  const std::string file = "/tmp/mercury_ckpt_v1_" + std::to_string(getpid());
  const std::string body = "1 ses session=3";  // v1 checksum body
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%llx",
                static_cast<unsigned long long>(mercury::util::fnv1a(body)));
  {
    std::FILE* f = std::fopen(file.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "MERCURY-CKPT %s %s\n", body.c_str(), checksum);
    std::fclose(f);
  }
  EXPECT_EQ(ckpt::read_checkpoint_file(file, "ses", nullptr),
            ckpt::FileState::kInvalid);
  std::remove(file.c_str());
}

TEST(CheckpointFile, WriteReplacesTheFileAtomically) {
  // The write goes to a temp file renamed over the old one: a reader that
  // opened the old file keeps seeing its complete line (an in-place
  // truncating rewrite would hand it an empty file), and no temp is left.
  const std::string dir = ::testing::TempDir() + "mercury_ckpt_atomic_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  const std::string file = dir + "/state";
  ASSERT_TRUE(ckpt::write_checkpoint_file(file, "ses", "old-state"));
  std::FILE* reader = std::fopen(file.c_str(), "r");
  ASSERT_NE(reader, nullptr);

  ASSERT_TRUE(ckpt::write_checkpoint_file(file, "ses", "new-state"));
  char buffer[512] = {};
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), reader), nullptr);
  std::fclose(reader);
  EXPECT_NE(std::string(buffer).find(" old-state "), std::string::npos);

  ckpt::CheckpointFile checkpoint;
  ASSERT_EQ(ckpt::read_checkpoint_file(file, "ses", &checkpoint),
            ckpt::FileState::kValid);
  EXPECT_EQ(checkpoint.payload, "new-state");
  std::remove(file.c_str());
  // rmdir fails on a non-empty directory: nothing but the state file was
  // ever left in it.
  EXPECT_EQ(::rmdir(dir.c_str()), 0);

  // An unwritable destination fails cleanly.
  EXPECT_FALSE(ckpt::write_checkpoint_file("/no/such/dir/state", "ses", "x"));
}

TEST(PosixSupervisor, PartnerCopyRestoresLostCheckpointFile) {
  // ISSUE 7's L1 mirror on real processes: the supervisor keeps a replica
  // of the last validated payload; when the on-disk file vanishes, the
  // spawn gate rewrites it from the replica and the worker still
  // warm-starts.
  const std::string file =
      "/tmp/mercury_ckpt_partner_" + std::to_string(getpid());
  std::remove(file.c_str());

  WorkerSpec slow;
  slow.name = "c";
  slow.argv = {kWorker,  "--name", "c", "--startup-ms", "600",
               "--checkpoint-file", file, "--warm-startup-ms", "50"};
  slow.checkpoint_file = file;

  PosixSupervisor supervisor(two_leaf_tree(), {quick_worker("a", 30), slow},
                             quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());  // cold; worker writes the file
  // The worker writes the file just after READY; wait for the payload of
  // the expected incarnation so the kill cannot race the write.
  const auto file_holds = [&](const std::string& payload) {
    return [&, payload] {
      ckpt::CheckpointFile checkpoint;
      return ckpt::read_checkpoint_file(file, "c", &checkpoint) ==
                 ckpt::FileState::kValid &&
             checkpoint.payload == payload;
    };
  };
  ASSERT_TRUE(supervisor.run_until(file_holds("rebuilt-state"), Millis{2000}));

  // First kill: the gate validates the file and captures the replica.
  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && supervisor.history().size() >= 1; },
      Millis{5000}));
  ASSERT_GE(supervisor.checkpoints_validated(), 1u);
  EXPECT_EQ(supervisor.partner_restores(), 0u);

  // Lose the on-disk tier entirely, then fail the worker again: the replica
  // must restore the file and keep the restart warm. Wait for the warm
  // incarnation's own rewrite first, so the remove cannot be undone by it.
  ASSERT_TRUE(supervisor.run_until(file_holds("reloaded-state"), Millis{2000}));
  std::remove(file.c_str());
  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && supervisor.history().size() >= 2; },
      Millis{5000}));
  EXPECT_GE(supervisor.partner_restores(), 1u);
  // Warm despite the lost file: well under the 600 ms cold startup.
  EXPECT_LT(supervisor.history()[1].downtime.count(), 600);
  // The restored file is valid on disk again (and refreshed by the worker).
  ckpt::CheckpointFile checkpoint;
  EXPECT_EQ(ckpt::read_checkpoint_file(file, "c", &checkpoint),
            ckpt::FileState::kValid);
  std::remove(file.c_str());
}

TEST(PosixSupervisor, GarbledProtocolLinesNeverKillTheSupervisor) {
  // Each incarnation of c answers its first two pings with corrupted lines
  // (an overflowing 23-digit PONG, a non-numeric PONG, a garbage HEALTH
  // figure), so c keeps failing, escalates, and parks. The regression under
  // test: a 20+ digit PONG used to throw std::out_of_range out of
  // drain_worker and take the whole supervisor down with it.
  WorkerSpec garbler;
  garbler.name = "c";
  garbler.argv = {kWorker, "--name", "c", "--startup-ms", "30",
                  "--garble-pongs", "2"};
  SupervisorConfig config = quick_config();
  config.max_root_restarts = 1;
  PosixSupervisor supervisor(two_leaf_tree(),
                             {quick_worker("a", 30), garbler}, config);
  ASSERT_TRUE(supervisor.start_all().ok());
  ASSERT_TRUE(supervisor.run_until(
      [&] { return !supervisor.hard_failures().empty(); }, Millis{10000}));
  EXPECT_EQ(supervisor.hard_failures()[0], "c");
  // The garbage HEALTH figure was ignored, not recorded.
  EXPECT_FALSE(supervisor.latest_memory_mb("c").has_value());
  // And the healthy worker is still being supervised.
  supervisor.run_for(Millis{200});
  EXPECT_TRUE(supervisor.worker_up("a"));
  EXPECT_GT(supervisor.pongs_received(), 0u);
}

TEST(PosixSupervisor, RecordedRecoveryIsInvariantCleanOnOneClock) {
  // REC's timer heap is advanced to the backend's wall clock before every
  // input, so REC's events and the supervisor's share one timeline: the
  // trace passes the invariant checker, and REC's rec.restart action span
  // encloses the spawn->READY span of the worker it restarted.
  obs::TraceRecorder recorder;
  obs::ScopedRecorder scope(recorder);
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 40), quick_worker("b", 40), quick_worker("c", 70)},
      quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());
  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && !supervisor.history().empty(); },
      Millis{3000}));

  const std::vector<obs::TraceIssue> issues = obs::check_trace(recorder.events());
  EXPECT_TRUE(issues.empty()) << obs::describe(issues);

  // Begin/end times per span id; the action and the last spawn of c.
  std::map<std::uint64_t, double> begun;
  std::map<std::uint64_t, double> ended;
  std::uint64_t action = 0;
  std::uint64_t spawn = 0;
  for (const obs::TraceEvent& event : recorder.events()) {
    if (event.kind == obs::EventKind::kEnd) ended[event.span] = event.t;
    if (event.kind != obs::EventKind::kBegin) continue;
    begun[event.span] = event.t;
    if (event.name == "rec.restart") {
      EXPECT_EQ(event.track, "rec");
      EXPECT_EQ(event.arg_or("cell"), "R_c");
      EXPECT_EQ(event.arg_or("group"), "c");
      action = event.span;
    } else if (event.name == "restart:c") {
      spawn = event.span;
    }
  }
  ASSERT_NE(action, 0u);
  ASSERT_NE(spawn, 0u);
  ASSERT_TRUE(ended.contains(action));
  ASSERT_TRUE(ended.contains(spawn));
  EXPECT_LE(begun[action], begun[spawn]);
  EXPECT_LE(ended[spawn], ended[action]);
}

// --- Concurrent restart dispatch (ISSUE 8) -----------------------------------

TEST(PosixSupervisor, ParallelRecoveryRunsDisjointCellsConcurrently) {
  SupervisorConfig config = quick_config();
  config.dispatch = core::DispatchMode::kDag;
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 400), quick_worker("b", 400), quick_worker("c", 400)},
      config);
  ASSERT_TRUE(supervisor.start_all().ok());

  supervisor.kill_worker("a");
  supervisor.kill_worker("c");
  std::size_t peak = 0;
  ASSERT_TRUE(supervisor.run_until(
      [&] {
        peak = std::max(peak, supervisor.restarts_in_flight());
        return supervisor.all_up() && supervisor.history().size() >= 2;
      },
      Millis{6000}));
  // R_[a,b] and R_c are disjoint siblings: both restart actions were in
  // flight at once instead of queueing behind each other.
  EXPECT_EQ(peak, 2u);
  EXPECT_EQ(supervisor.absorbed_restarts(), 0u);
  std::vector<std::string> reported;
  for (const auto& record : supervisor.history()) {
    reported.push_back(record.reported_worker);
  }
  EXPECT_NE(std::find(reported.begin(), reported.end(), "a"), reported.end());
  EXPECT_NE(std::find(reported.begin(), reported.end(), "c"), reported.end());
  EXPECT_TRUE(supervisor.hard_failures().empty());
}

TEST(PosixSupervisor, SerialDefaultNeverOverlapsRestartActions) {
  // Serial dispatch (the default): the same double failure recovers one
  // action at a time — REC queues c's report while {a,b} runs and dispatches
  // it once that action completes.
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 400), quick_worker("b", 400), quick_worker("c", 400)},
      quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());

  supervisor.kill_worker("a");
  supervisor.kill_worker("c");
  std::size_t peak = 0;
  ASSERT_TRUE(supervisor.run_until(
      [&] {
        peak = std::max(peak, supervisor.restarts_in_flight());
        return supervisor.all_up() && supervisor.history().size() >= 2;
      },
      Millis{6000}));
  EXPECT_EQ(peak, 1u);
  EXPECT_EQ(supervisor.absorbed_restarts(), 0u);
}

TEST(PosixSupervisor, EscalationSupersedesOverlappingConcurrentRestart) {
  // The supersede scenario on real processes, staged around the single
  // 1000 ms restart deadline. c dies first and its respawn hangs; 600 ms
  // later a dies, so {a,b} (600 ms startups) dispatches ~300 ms before c's
  // deadline and is still starting ~200+ ms after it. The deadline escalates
  // c's chain to the root, whose group strictly covers the in-flight {a,b}
  // action: the escalated restart must absorb it and re-kill its members,
  // not queue behind it or deadlock.
  const std::string sentinel =
      "/tmp/mercury_hang_restart_" + std::to_string(getpid());
  {
    // Pre-create the sentinel so start_all is clean; removing it later arms
    // the one-shot hang for c's *next* startup.
    std::FILE* f = std::fopen(sentinel.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }

  WorkerSpec hang = quick_worker("c", 30);
  hang.argv.push_back("--hang-start-once");
  hang.argv.push_back(sentinel);

  SupervisorConfig config = quick_config();
  config.dispatch = core::DispatchMode::kDag;
  config.restart_deadline = Millis{1000};
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 600), quick_worker("b", 600), hang}, config);
  ASSERT_TRUE(supervisor.start_all().ok());

  std::remove(sentinel.c_str());
  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.restarts_in_flight() >= 1; }, Millis{2000}));
  supervisor.run_for(Millis{600});
  ASSERT_EQ(supervisor.restart_timeouts(), 0u);
  supervisor.kill_worker("a");

  std::size_t peak = 0;
  ASSERT_TRUE(supervisor.run_until(
      [&] {
        peak = std::max(peak, supervisor.restarts_in_flight());
        return supervisor.absorbed_restarts() >= 1;
      },
      Millis{4000}));
  // Both actions really overlapped before the absorb.
  EXPECT_EQ(peak, 2u);
  ASSERT_TRUE(
      supervisor.run_until([&] { return supervisor.all_up(); }, Millis{6000}));
  EXPECT_GE(supervisor.restart_timeouts(), 1u);
  // The cure is the escalated root restart covering all three workers; the
  // absorbed sibling action never produced its own history record.
  bool saw_root_cure = false;
  for (const auto& record : supervisor.history()) {
    if (record.escalation_level >= 1) {
      saw_root_cure = true;
      EXPECT_EQ(record.restarted, (std::vector<std::string>{"a", "b", "c"}));
    }
  }
  EXPECT_TRUE(saw_root_cure);
  EXPECT_TRUE(supervisor.hard_failures().empty());
  std::remove(sentinel.c_str());
}

// --- Traffic-driven on-demand recovery (ISSUE 9) -----------------------------

TEST(PosixSupervisor, TrafficDrivenDefersUntilTouched) {
  SupervisorConfig config = quick_config();
  config.dispatch = core::DispatchMode::kOnDemand;
  config.traffic_driven = true;
  config.lazy_drain_interval = Millis{60000};  // keep the background drain out
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 400), quick_worker("b", 400), quick_worker("c", 400)},
      config);
  ASSERT_TRUE(supervisor.start_all().ok());
  EXPECT_EQ(supervisor.touch_worker("a"), core::TouchResult::kIdle);

  // c fails first and its restart goes in flight; a's failure lands while
  // that action runs and must defer instead of dispatching eagerly.
  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.restarts_in_flight() >= 1; }, Millis{2000}));
  EXPECT_EQ(supervisor.touch_worker("c"),
            core::TouchResult::kRestarting);
  supervisor.kill_worker("a");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.queued_failures() >= 1; }, Millis{2000}));
  EXPECT_EQ(supervisor.restarts_in_flight(), 1u);

  // A client request touches a: exactly that deferred failure is promoted,
  // and with R_[a,b] disjoint from the in-flight R_c it dispatches now.
  EXPECT_EQ(supervisor.touch_worker("a"),
            core::TouchResult::kPromoted);
  EXPECT_EQ(supervisor.touch_promotions(), 1u);
  EXPECT_EQ(supervisor.queued_failures(), 0u);
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && supervisor.history().size() >= 2; },
      Millis{6000}));
  EXPECT_EQ(supervisor.lazy_drains(), 0u);
  EXPECT_TRUE(supervisor.hard_failures().empty());
}

TEST(PosixSupervisor, UntouchedDeferredFailureDrainsLazily) {
  SupervisorConfig config = quick_config();
  config.dispatch = core::DispatchMode::kOnDemand;
  config.traffic_driven = true;
  config.lazy_drain_interval = Millis{200};
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 400), quick_worker("b", 400), quick_worker("c", 400)},
      config);
  ASSERT_TRUE(supervisor.start_all().ok());

  supervisor.kill_worker("c");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.restarts_in_flight() >= 1; }, Millis{2000}));
  supervisor.kill_worker("a");
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.queued_failures() >= 1; }, Millis{2000}));
  // No request ever touches a: the background drain must still restart it.
  ASSERT_TRUE(supervisor.run_until(
      [&] { return supervisor.all_up() && supervisor.history().size() >= 2; },
      Millis{6000}));
  EXPECT_GE(supervisor.lazy_drains(), 1u);
  EXPECT_EQ(supervisor.touch_promotions(), 0u);
  EXPECT_TRUE(supervisor.hard_failures().empty());
}

TEST(PosixSupervisor, TouchOfParkedWorkerSignalsRejection) {
  // Worker c wedges after one pong per incarnation and parks after the root
  // budget; a request touching it must get the clean rejection signal, not
  // spawn another restart.
  core::RestartTree tree("R_demo");
  const auto a_cell = tree.add_cell(tree.root(), "R_a");
  tree.attach_component(a_cell, "a");
  const auto c_cell = tree.add_cell(tree.root(), "R_c");
  tree.attach_component(c_cell, "c");

  SupervisorConfig config = quick_config();
  config.dispatch = core::DispatchMode::kOnDemand;
  config.traffic_driven = true;
  config.max_root_restarts = 1;
  PosixSupervisor supervisor(
      tree, {quick_worker("a", 30), quick_worker("c", 30, /*wedge_after=*/1)},
      config);
  ASSERT_TRUE(supervisor.start_all().ok());
  ASSERT_TRUE(supervisor.run_until(
      [&] { return !supervisor.hard_failures().empty(); }, Millis{8000}));
  ASSERT_EQ(supervisor.hard_failures()[0], "c");

  const auto actions = supervisor.history().size();
  EXPECT_EQ(supervisor.touch_worker("c"),
            core::TouchResult::kParked);
  supervisor.run_for(Millis{300});
  EXPECT_EQ(supervisor.history().size(), actions);
  EXPECT_TRUE(supervisor.worker_up("a"));
}

TEST(PosixSupervisor, BackToBackFailures) {
  PosixSupervisor supervisor(
      pair_and_leaf_tree(),
      {quick_worker("a", 40), quick_worker("b", 40), quick_worker("c", 40)},
      quick_config());
  ASSERT_TRUE(supervisor.start_all().ok());
  for (int round = 1; round <= 3; ++round) {
    supervisor.kill_worker("c");
    ASSERT_TRUE(supervisor.run_until(
        [&] {
          return supervisor.history().size() >= static_cast<std::size_t>(round) &&
                 supervisor.all_up();
        },
        Millis{3000}))
        << "round " << round;
  }
  EXPECT_EQ(supervisor.history().size(), 3u);
  EXPECT_TRUE(supervisor.hard_failures().empty());
}

}  // namespace
}  // namespace mercury::posix
