#include "posix/supervisor.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/mercury_trees.h"
#include "obs/trace.h"
#include "posix/checkpoint_file.h"
#include "util/strings.h"

namespace mercury::posix {

namespace names = core::component_names;
using util::Error;
using util::Status;

namespace {

const Clock::time_point kProcessStart = Clock::now();

/// Minimum spacing between proactive restarts of the same worker.
constexpr Millis kRejuvenationSpacing{2'000};

/// Trace timestamps on this backend are wall-clock seconds since process
/// start. The timer heap runs on this clock too.
util::TimePoint trace_now() {
  return util::TimePoint::from_seconds(
      std::chrono::duration<double>(Clock::now() - kProcessStart).count());
}

Clock::duration to_clock(util::Duration duration) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(duration.to_seconds()));
}

}  // namespace

PosixSupervisor::PosixSupervisor(core::RestartTree tree,
                                 std::vector<WorkerSpec> workers,
                                 SupervisorConfig config)
    : config_(std::move(config)),
      link_(sim_, names::kFd, names::kRec, util::Duration::zero()),
      rec_(sim_, link_, std::move(tree), oracle_, *this, config_) {
  for (auto& spec : workers) {
    Worker worker;
    worker.spec = std::move(spec);
    workers_.emplace(worker.spec.name, std::move(worker));
  }
  // Tree components and workers must agree, or recovery actions would
  // reference processes we do not manage.
  const auto tree_components = rec_.tree().all_components();
  assert(tree_components.size() == workers_.size());
  for (const auto& component : tree_components) {
    assert(workers_.contains(component) && "tree component without a worker");
    (void)component;
  }
  link_.bind(names::kFd,
             [this](const msg::Message& message) { on_link_message(message); });
  rec_.start();
}

PosixSupervisor::~PosixSupervisor() = default;

Status PosixSupervisor::start_all() {
  for (auto& [name, worker] : workers_) spawn_worker(worker);
  const bool ready = run_until([this] { return all_up(); }, Millis{10'000});
  if (!ready) return Error("workers failed to become READY within 10 s");
  return Status::ok_status();
}

std::vector<std::string> PosixSupervisor::component_names() const {
  std::vector<std::string> names;
  for (const auto& [name, worker] : workers_) names.push_back(name);
  return names;
}

void PosixSupervisor::restart_group(const std::vector<std::string>& names,
                                    std::function<void()> on_complete) {
  // A member still starting under an abandoned group is superseded: the
  // spawn kills that incarnation. The abandoned group completes whenever its
  // members are READY again; REC ignores its stale completion.
  for (const auto& name : names) spawn_worker(workers_.at(name));
  groups_.push_back(PendingGroup{names, std::move(on_complete)});
}

std::vector<std::string> PosixSupervisor::restarting_now() const {
  std::vector<std::string> names;
  for (const auto& [name, worker] : workers_) {
    if (worker.state != WorkerState::kUp) names.push_back(name);
  }
  return names;
}

void PosixSupervisor::spawn_worker(Worker& worker) {
  worker.process.reset();  // kills and reaps any previous incarnation

  // Checkpoint gate: validate the state file before the spawn so the child
  // never warm-starts from a corrupt or foreign snapshot. Invalid files are
  // deleted; a missing or deleted file is then rewritten from the
  // supervisor's replica of the last validated payload, so losing the
  // on-disk tier does not force a cold start. Without a replica the worker
  // finds nothing and rebuilds cold.
  if (!worker.spec.checkpoint_file.empty()) {
    const auto restore_from_replica = [&]() {
      if (!worker.replica_payload.has_value()) return;
      if (ckpt::write_checkpoint_file(worker.spec.checkpoint_file,
                                      worker.spec.name,
                                      *worker.replica_payload)) {
        ++partner_restores_;
      }
    };
    ckpt::CheckpointFile file;
    switch (ckpt::read_checkpoint_file(worker.spec.checkpoint_file,
                                       worker.spec.name, &file)) {
      case ckpt::FileState::kMissing:
        restore_from_replica();
        break;
      case ckpt::FileState::kInvalid:
        ::unlink(worker.spec.checkpoint_file.c_str());
        ++checkpoints_deleted_;
        restore_from_replica();
        break;
      case ckpt::FileState::kValid:
        ++checkpoints_validated_;
        worker.replica_payload = file.payload;
        break;
    }
  }

  // A failed spawn surfaces as a worker that never becomes READY: REC's
  // restart deadline, or the detector's startup deadline, handles it.
  worker.state = WorkerState::kStarting;
  worker.ready_deadline =
      config_.restart_deadline > util::Duration::zero()
          ? Clock::now() + to_clock(config_.restart_deadline)
          : Clock::time_point::max();
  worker.outstanding_seq = 0;
  auto spawned = ChildProcess::spawn(worker.spec.argv);
  if (!spawned.ok()) {
    std::fprintf(stderr, "[%10.3f] %s: spawn failed: %s\n",
                 trace_now().to_seconds(), worker.spec.name.c_str(),
                 spawned.error().message().c_str());
    return;
  }
  worker.process.emplace(std::move(spawned).value());
  // Close any span left open by a killed incarnation before opening the new
  // spawn->READY span.
  if (worker.restart_span != 0) {
    obs::end_span(trace_now(), worker.restart_span, {{"outcome", "superseded"}});
  }
  worker.restart_span =
      obs::enabled() ? obs::begin_span(trace_now(), "restart",
                                       "restart:" + worker.spec.name, "posix",
                                       {{"component", worker.spec.name}})
                     : 0;
}

void PosixSupervisor::run_for(Millis duration) {
  run_until([] { return false; }, duration);
}

bool PosixSupervisor::run_until(const std::function<bool()>& predicate,
                                Millis timeout) {
  const Clock::time_point end = Clock::now() + timeout;
  while (Clock::now() < end) {
    if (predicate()) return true;
    pump(Millis{10});
  }
  return predicate();
}

void PosixSupervisor::sync() {
  sim_.run_until(trace_now());
  const auto& records = rec_.history();
  for (std::size_t i = history_.size(); i < records.size(); ++i) {
    const core::RecoveryRecord& record = records[i];
    PosixRecoveryRecord mirrored;
    mirrored.reported_worker = record.reported_component;
    mirrored.node = record.node;
    mirrored.restarted = record.restarted;
    mirrored.escalation_level = record.escalation_level;
    mirrored.downtime = std::chrono::duration_cast<Millis>(
        to_clock(record.complete_time - record.report_time));
    history_.push_back(std::move(mirrored));
  }
}

void PosixSupervisor::pump(Millis max_wait) {
  // Wait for child output, the loop's tick, or REC's next timer, whichever
  // is soonest. A hung-up pipe has nothing left to read and would make
  // poll() return at once on every pass, so it stays out of the set.
  std::vector<pollfd> fds;
  std::vector<Worker*> fd_owners;
  for (auto& [name, worker] : workers_) {
    if (worker.process.has_value() && !worker.process->hung_up()) {
      fds.push_back(pollfd{worker.process->stdout_fd(), POLLIN, 0});
      fd_owners.push_back(&worker);
    }
  }
  const double timer_ms =
      (sim_.next_event_time() - trace_now()).to_millis();
  const int wait_ms = static_cast<int>(std::clamp(
      std::ceil(timer_ms), 0.0, static_cast<double>(max_wait.count())));
  const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                        static_cast<nfds_t>(fds.size()), wait_ms);
  if (rc < 0 && errno != EINTR) {
    // A real poll failure (EBADF from a raced-away fd, ENOMEM, ...) must not
    // kill the supervision loop — the drains below are non-blocking and the
    // deadline checks still have to run. EINTR is routine (signals).
    const int error = errno;
    std::fprintf(stderr, "[%10.3f] supervisor: poll failed: %s\n",
                 trace_now().to_seconds(), std::strerror(error));
  }

  for (Worker* worker : fd_owners) drain_worker(*worker);
  // REC's clock must pass the READY lines just drained before their groups
  // complete, so its action spans enclose the spawn->READY spans.
  sync();
  complete_groups();
  detect();
  check_health_policy();
  sync();  // deliver this pass's reports and REC's mask/unmask commands
}

void PosixSupervisor::drain_worker(Worker& worker) {
  if (!worker.process.has_value()) return;
  for (const auto& line : worker.process->read_lines()) {
    if (line == "READY " + worker.spec.name) {
      worker.state = WorkerState::kUp;
      worker.next_ping = Clock::now() + config_.ping_period;
      reported_.erase(worker.spec.name);
      if (worker.restart_span != 0) {
        obs::end_span(trace_now(), worker.restart_span, {{"outcome", "ready"}});
        worker.restart_span = 0;
      }
    } else if (util::starts_with(line, "PONG ")) {
      // Checked parse: a corrupted PONG can carry 20+ digits (passes
      // is_all_digits, overflows stoull) or garbage. The supervisor is the
      // recovery brain — it ignores bad lines, it never throws.
      const std::optional<std::uint64_t> seq = util::parse_u64(line.substr(5));
      if (seq.has_value() && *seq == worker.outstanding_seq &&
          worker.outstanding_seq != 0) {
        worker.outstanding_seq = 0;
        reported_.erase(worker.spec.name);
        ++pongs_received_;
      }
    } else if (util::starts_with(line, "HEALTH " + worker.spec.name + " mem=")) {
      // §7 beacon digest over the pipe: "HEALTH <name> mem=<MB>".
      const std::string value = line.substr(line.find("mem=") + 4);
      char* end = nullptr;
      const double mb = std::strtod(value.c_str(), &end);
      if (end != value.c_str()) worker.memory_mb = mb;
    }
  }
}

void PosixSupervisor::complete_groups() {
  // Collect first: a completion re-enters REC, which may drain its queue
  // and call restart_group.
  std::vector<std::function<void()>> ready;
  for (auto it = groups_.begin(); it != groups_.end();) {
    if (std::all_of(it->members.begin(), it->members.end(),
                    [this](const auto& name) { return worker_up(name); })) {
      ready.push_back(std::move(it->on_complete));
      it = groups_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& on_complete : ready) on_complete();
}

void PosixSupervisor::detect() {
  const auto now = Clock::now();
  for (auto& [name, worker] : workers_) {
    // Workers REC is restarting are its business: its restart deadline
    // covers their startup, even one that dies before READY.
    if (masked_.contains(name)) continue;
    if (worker.state != WorkerState::kDown && worker.process.has_value() &&
        worker.process->hung_up()) {
      // EOF on stdout: the process is gone, and the kernel said so at once.
      // Report it now instead of after an unanswered ping.
      worker.state = WorkerState::kDown;
      report(worker, "exited");
      continue;
    }
    if (worker.state == WorkerState::kStarting && now >= worker.ready_deadline) {
      // A startup outside any action (start_all) hung past the deadline.
      worker.state = WorkerState::kDown;
      ++startup_timeouts_;
      report(worker, "startup-timeout");
      continue;
    }
    if (worker.state != WorkerState::kUp) continue;
    if (worker.outstanding_seq != 0) {
      if (now < worker.ping_deadline) continue;
      worker.outstanding_seq = 0;
      report(worker, "missed-ping");
      continue;
    }
    if (now < worker.next_ping) continue;
    const std::uint64_t seq = seq_++;
    worker.outstanding_seq = seq;
    worker.ping_deadline = now + config_.ping_timeout;
    worker.next_ping = now + config_.ping_period;
    if (worker.process.has_value()) {
      worker.process->write_line("PING " + std::to_string(seq));
      ++pings_sent_;
    }
  }
}

void PosixSupervisor::report(Worker& worker, const char* cause) {
  const std::string& name = worker.spec.name;
  obs::instant(sim_.now(), "detect", "fd.report", "posix",
               {{"component", name}, {"cause", cause}});
  reported_.insert(name);
  msg::Message message = msg::make_command(names::kFd, names::kRec,
                                           seq_++, "report-failure");
  message.body.set_attr("component", name);
  link_.send(message);
}

void PosixSupervisor::on_link_message(const msg::Message& message) {
  if (message.kind != msg::Kind::kCommand) return;
  const bool mask = message.verb == "mask";
  if (!mask && message.verb != "unmask") return;
  for (const auto& name : util::split(message.body.attr_or("components", ""), ',')) {
    if (name.empty()) continue;
    if (mask) {
      masked_.insert(name);
      reported_.erase(name);
      // Drop any in-flight suspicion of a worker REC is handling.
      if (const auto it = workers_.find(name); it != workers_.end()) {
        it->second.outstanding_seq = 0;
      }
    } else {
      masked_.erase(name);
    }
  }
}

std::optional<double> PosixSupervisor::latest_memory_mb(
    const std::string& name) const {
  const auto it = workers_.find(name);
  return it != workers_.end() ? it->second.memory_mb : std::nullopt;
}

void PosixSupervisor::check_health_policy() {
  if (config_.memory_limit_mb <= 0.0) return;
  const auto now = Clock::now();
  for (auto& [name, worker] : workers_) {
    if (worker.state != WorkerState::kUp) continue;
    if (!worker.memory_mb || *worker.memory_mb <= config_.memory_limit_mb) continue;
    if (now - worker.last_rejuvenation < kRejuvenationSpacing) continue;
    const double memory_mb = *worker.memory_mb;
    // REC declines while interfering reactive work is in flight.
    if (!rec_.planned_restart(name)) continue;
    obs::instant(sim_.now(), "recover", "rec.rejuvenate", "posix",
                 {{"component", name},
                  {"mem_mb", obs::Fixed{memory_mb, 1}}});
    worker.last_rejuvenation = now;
    worker.memory_mb.reset();  // a fresh figure arrives after the restart
    ++rejuvenations_;
    return;  // one proactive action per pump
  }
}

core::TouchResult PosixSupervisor::touch_worker(const std::string& name) {
  sync();
  const core::TouchResult result = rec_.touch(name);
  sync();
  return result;
}

bool PosixSupervisor::worker_up(const std::string& name) const {
  const auto it = workers_.find(name);
  return it != workers_.end() && it->second.state == WorkerState::kUp;
}

bool PosixSupervisor::all_up() const {
  return std::all_of(workers_.begin(), workers_.end(), [](const auto& entry) {
    return entry.second.state == WorkerState::kUp;
  });
}

bool PosixSupervisor::kill_worker(const std::string& name) {
  const auto it = workers_.find(name);
  if (it == workers_.end()) return false;
  Worker& worker = it->second;
  if (worker.process.has_value()) worker.process->kill_hard();
  obs::instant(trace_now(), "fault", "fault.manifest", "posix",
               {{"manifest", name}, {"kind", "sigkill"}});
  // State stays as it is: the supervisor has not *detected* anything yet.
  // The detector sees the pipe hang up on its next pass and reports it,
  // unless REC has masked the worker for a restart of its own.
  return true;
}

bool PosixSupervisor::wedge_worker(const std::string& name) {
  const auto it = workers_.find(name);
  if (it == workers_.end()) return false;
  Worker& worker = it->second;
  if (worker.process.has_value()) worker.process->write_line("WEDGE");
  obs::instant(trace_now(), "fault", "fault.manifest", "posix",
               {{"manifest", name}, {"kind", "wedge"}});
  return true;
}

}  // namespace mercury::posix
