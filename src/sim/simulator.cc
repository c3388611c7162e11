#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "obs/trace.h"

namespace mercury::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  const auto index = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return index;
}

void Simulator::release_slot(std::uint32_t index) {
  Event& slot = slots_[index];
  slot.seq = 0;
  slot.fn = nullptr;      // release the closure now, not at slot reuse
  slot.label.clear();     // keeps capacity for the next occupant
  free_slots_.push_back(index);
}

void Simulator::sift_up(std::size_t i) const {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    if (!before(heap_[best], heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

void Simulator::pop_top() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulator::prune_stale() const {
  // A heap entry is live iff its slot still holds the same seq: cancel()
  // frees the slot (seq -> 0) and a reused slot carries a newer seq, so one
  // integer compare distinguishes live, cancelled, and reused.
  while (!heap_.empty() && slots_[heap_.front().slot].seq != heap_.front().seq) {
    pop_top();
  }
}

EventId Simulator::schedule_at(TimePoint t, std::string label,
                               std::function<void()> fn) {
  assert(fn);
  const std::uint32_t index = acquire_slot();
  Event& slot = slots_[index];
  slot.at = std::max(t, now_);
  slot.seq = next_seq_++;
  slot.label = std::move(label);
  slot.fn = std::move(fn);
  heap_.push_back(HeapEntry{slot.at, slot.seq, index});
  sift_up(heap_.size() - 1);
  ++events_scheduled_;
  return EventId{index, slot.seq};
}

EventId Simulator::schedule_after(Duration delay, std::string label,
                                  std::function<void()> fn) {
  assert(!delay.is_negative());
  return schedule_at(now_ + delay, std::move(label), std::move(fn));
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  if (id.slot_ >= slots_.size()) return false;
  if (slots_[id.slot_].seq != id.seq_) return false;  // fired, cancelled, or reused
  release_slot(id.slot_);
  return true;
}

bool Simulator::has_pending() const {
  prune_stale();
  return !heap_.empty();
}

TimePoint Simulator::next_event_time() const {
  prune_stale();
  return heap_.empty() ? TimePoint::infinity() : heap_.front().at;
}

bool Simulator::step() {
  prune_stale();
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  pop_top();
  Event& slot = slots_[top.slot];
  // Move the payload out and free the slot before firing: the event is no
  // longer cancellable once it runs (its own callback sees cancel == false,
  // as before), and the slot is immediately reusable by whatever it
  // schedules.
  std::string label = std::move(slot.label);
  std::function<void()> fn = std::move(slot.fn);
  release_slot(top.slot);
  assert(top.at >= now_);
  now_ = top.at;
  ++events_executed_;
  // Per-event kernel tracing is opt-in (TraceRecorder::set_sim_events): a
  // long run fires millions of events, which would bury the recovery signal.
  if (obs::TraceRecorder* rec = obs::recorder();
      rec != nullptr && rec->sim_events()) {
    rec->instant(now_.to_seconds(), "sim", label, "sim");
  }
  fn();
  return true;
}

void Simulator::run_until(TimePoint t) {
  while (true) {
    prune_stale();
    if (heap_.empty() || heap_.front().at > t) break;
    step();
  }
  now_ = std::max(now_, t);
}

void Simulator::run_all(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (step()) {
    if (++n >= max_events) {
      obs::instant(now_, "sim", "sim.runaway-guard", "sim",
                   {{"events", n}});
      std::fprintf(stderr,
                   "[%10.3f] sim: run_all stopped after %llu events "
                   "(runaway guard)\n",
                   now_.to_seconds(), static_cast<unsigned long long>(n));
      return;
    }
  }
}

PeriodicTask::PeriodicTask(Simulator& sim, std::string label, Duration period,
                           std::function<void()> fn)
    : sim_(sim),
      label_(std::move(label)),
      period_(period),
      fn_(std::move(fn)),
      alive_(std::make_shared<bool>(true)) {
  assert(period_ > Duration::zero());
  assert(fn_);
}

PeriodicTask::~PeriodicTask() {
  *alive_ = false;
  stop();
}

void PeriodicTask::start() { start_with_phase(period_); }

void PeriodicTask::start_with_phase(Duration phase) {
  stop();
  running_ = true;
  std::shared_ptr<bool> alive = alive_;
  pending_ = sim_.schedule_after(phase, label_, [this, alive] {
    if (*alive) fire();
  });
}

void PeriodicTask::stop() {
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = EventId{};
  }
  running_ = false;
}

void PeriodicTask::set_period(Duration period) {
  assert(period > Duration::zero());
  period_ = period;
  if (running_) start();  // re-arm with the new period
}

void PeriodicTask::fire() {
  if (!running_) return;
  std::shared_ptr<bool> alive = alive_;
  pending_ = sim_.schedule_after(period_, label_, [this, alive] {
    if (*alive) fire();
  });
  fn_();
}

}  // namespace mercury::sim
