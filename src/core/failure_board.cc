#include "core/failure_board.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "util/strings.h"

namespace mercury::core {

namespace {

/// Fault onset/cure are the trace anchors every phase breakdown hangs off
/// (obs/phases.h): detection latency is measured from fault.manifest.
void trace_cured(const ActiveFailure& failure, util::TimePoint now) {
  obs::instant(now, "fault", "fault.cured", "board",
               {{"manifest", failure.spec->manifest},
                {"id", failure.id},
                {"kind", failure.spec->kind}});
}

bool by_id(const ActiveFailure& a, const ActiveFailure& b) { return a.id < b.id; }

}  // namespace

FailureSpec make_crash(std::string component) {
  FailureSpec spec;
  spec.cure_set = {component};
  spec.manifest = std::move(component);
  spec.kind = "crash";
  return spec;
}

FailureSpec make_stale_attachment(std::string component) {
  FailureSpec spec = make_crash(std::move(component));
  spec.soft_curable = true;
  spec.kind = "stale-attachment";
  return spec;
}

FailureSpec make_joint(std::string manifest, std::vector<std::string> cure_set) {
  FailureSpec spec;
  spec.manifest = std::move(manifest);
  spec.cure_set = std::move(cure_set);
  std::sort(spec.cure_set.begin(), spec.cure_set.end());
  spec.cure_set.erase(std::unique(spec.cure_set.begin(), spec.cure_set.end()),
                      spec.cure_set.end());
  assert(std::binary_search(spec.cure_set.begin(), spec.cure_set.end(),
                            spec.manifest) &&
         "cure set must include the manifest component");
  spec.kind = "joint";
  return spec;
}

FailureId FailureBoard::inject(FailureSpec spec, util::TimePoint now) {
  assert(!spec.manifest.empty());
  assert(!spec.cure_set.empty());
  // One restarted bit per distinct member: a repeated member would leave a
  // bit that no restart sets.
  auto& cure_set = spec.cure_set;
  for (auto it = cure_set.begin(); it != cure_set.end();) {
    it = std::find(cure_set.begin(), it, *it) != it ? cure_set.erase(it) : it + 1;
  }
  assert(cure_set.size() <= 32 && "restarted is a 32-bit mask");
  const auto entry = pending_.try_emplace(std::move(spec)).first;
  entry->second.push_back(next_id_);
  ++active_count_;
  // Nothing has restarted since this onset yet.
  const ActiveFailure failure{next_id_++, &entry->first};
  if (obs::enabled()) {
    obs::instant(now, "fault", "fault.manifest", "board",
                 {{"manifest", failure.spec->manifest},
                  {"cure", util::join(failure.spec->cure_set, ",")},
                  {"kind", failure.spec->kind},
                  {"id", failure.id}});
  }
  for (const auto& listener : inject_listeners_) listener(failure);
  return failure.id;
}

FailureId FailureBoard::watermark(const std::string& component) const {
  const auto it = restarted_below_.find(component);
  return it != restarted_below_.end() ? it->second : 0;
}

ActiveFailure FailureBoard::make_active(const FailureSpec& spec,
                                        FailureId id) const {
  ActiveFailure failure;
  failure.id = id;
  failure.spec = &spec;
  for (std::size_t i = 0; i < spec.cure_set.size(); ++i) {
    if (watermark(spec.cure_set[i]) > id) {
      failure.restarted |= std::uint32_t{1} << i;
    }
  }
  return failure;
}

void FailureBoard::on_restart_complete(const std::string& component,
                                       util::TimePoint now) {
  // The restart marks every failure active now, i.e. every id below next_id_.
  restarted_below_.insert_or_assign(component, next_id_);
  std::vector<ActiveFailure> cured;
  for (auto& [spec, queue] : pending_) {
    const auto& cure_set = spec.cure_set;
    if (queue.empty() ||
        std::find(cure_set.begin(), cure_set.end(), component) == cure_set.end()) {
      continue;
    }
    // A failure is cured once every member restarted after its onset: its id
    // is below every member's watermark. Ids ascend, so that is a prefix.
    FailureId cured_below = next_id_;
    for (const auto& member : cure_set) {
      cured_below = std::min(cured_below, watermark(member));
    }
    while (!queue.empty() && queue.front() < cured_below) {
      cured.push_back(make_active(spec, queue.front()));
      queue.pop_front();
    }
  }
  finish_cures(cured, now);
}

void FailureBoard::on_soft_recovery_complete(const std::string& component,
                                             util::TimePoint now) {
  std::vector<ActiveFailure> cured;
  for (auto& [spec, queue] : pending_) {
    if (!spec.soft_curable || spec.manifest != component) continue;
    queue.for_each([&](FailureId id) { cured.push_back(make_active(spec, id)); });
    queue.clear();
  }
  finish_cures(cured, now);
}

void FailureBoard::finish_cures(std::vector<ActiveFailure>& cured,
                                util::TimePoint now) {
  if (cured.empty()) return;
  // Specs are visited in key order; cures fire in injection order.
  std::sort(cured.begin(), cured.end(), by_id);
  active_count_ -= cured.size();
  total_cured_ += cured.size();
  for (const auto& failure : cured) {
    trace_cured(failure, now);
    for (const auto& listener : cure_listeners_) listener(failure, now);
  }
}

std::vector<ActiveFailure> FailureBoard::active_at(const std::string& component) const {
  std::vector<ActiveFailure> out;
  for (const auto& [spec, queue] : pending_) {
    if (spec.manifest != component) continue;
    queue.for_each([&](FailureId id) { out.push_back(make_active(spec, id)); });
  }
  std::sort(out.begin(), out.end(), by_id);
  return out;
}

std::vector<ActiveFailure> FailureBoard::active() const {
  std::vector<ActiveFailure> out;
  out.reserve(active_count_);
  for (const auto& [spec, queue] : pending_) {
    queue.for_each([&](FailureId id) { out.push_back(make_active(spec, id)); });
  }
  std::sort(out.begin(), out.end(), by_id);
  return out;
}

bool FailureBoard::clear(FailureId id) {
  // Rebuilds the queue rather than editing it in place: only tests clear.
  for (auto& [spec, queue] : pending_) {
    IdQueue kept;
    bool found = false;
    queue.for_each([&](FailureId queued) {
      if (queued == id) {
        found = true;
      } else {
        kept.push_back(queued);
      }
    });
    if (!found) continue;
    queue = std::move(kept);
    --active_count_;
    return true;
  }
  return false;
}

std::size_t FailureBoard::memory_bytes() const {
  // A red-black tree node is four words of links and colour, then the value.
  constexpr std::size_t kTreeNode = 4 * sizeof(void*);
  // Component names and kinds fit the small-string buffer.
  std::size_t bytes = 0;
  for (const auto& [spec, queue] : pending_) {
    bytes += kTreeNode + sizeof(SpecQueues::value_type) +
             spec.cure_set.capacity() * sizeof(std::string) + queue.memory_bytes();
  }
  bytes += restarted_below_.size() *
           (kTreeNode + sizeof(std::pair<const std::string, FailureId>));
  return bytes;
}

void FailureBoard::IdQueue::push_back(FailureId id) {
  assert(id > back_);
  if (empty()) {
    front_ = id;
  } else {
    FailureId delta = id - back_;
    for (; delta >= 0x80; delta >>= 7) {
      deltas_.push_back(static_cast<std::uint8_t>(delta | 0x80));
    }
    deltas_.push_back(static_cast<std::uint8_t>(delta));
  }
  back_ = id;
}

void FailureBoard::IdQueue::pop_front() {
  assert(!empty());
  if (deltas_.empty()) {
    clear();
    return;
  }
  Bytes::const_iterator it = deltas_.begin();
  front_ += read_delta(it);
  deltas_.erase(deltas_.begin(), it);
}

FailureId FailureBoard::IdQueue::read_delta(Bytes::const_iterator& it) {
  FailureId delta = 0;
  for (unsigned shift = 0;; shift += 7) {
    const std::uint8_t byte = *it++;
    delta |= FailureId{byte & 0x7Fu} << shift;
    if (byte < 0x80) return delta;
  }
}

std::size_t FailureBoard::IdQueue::memory_bytes() const {
  constexpr std::size_t kDequeBlock = 512;
  const std::size_t blocks = deltas_.size() / kDequeBlock + 1;
  return blocks * kDequeBlock + std::max<std::size_t>(8, blocks + 2) * sizeof(void*);
}

void FailureBoard::set_restart_faults(const std::string& component,
                                      RestartFaultSpec spec) {
  if (spec.active()) {
    restart_faults_[component] = spec;
  } else {
    restart_faults_.erase(component);
  }
}

const RestartFaultSpec& FailureBoard::restart_faults(
    const std::string& component) const {
  static const RestartFaultSpec kNone;
  const auto it = restart_faults_.find(component);
  return it != restart_faults_.end() ? it->second : kNone;
}

void FailureBoard::note_restart_hang(const std::string& component,
                                     util::TimePoint now) {
  obs::instant(now, "restart", "restart.hang", "board",
               {{"component", component}});
}

void FailureBoard::note_restart_crash(const std::string& component,
                                      util::TimePoint now) {
  obs::instant(now, "restart", "restart.crash", "board",
               {{"component", component}});
}

void FailureBoard::add_cure_listener(CureListener listener) {
  cure_listeners_.push_back(std::move(listener));
}

void FailureBoard::add_inject_listener(InjectListener listener) {
  inject_listeners_.push_back(std::move(listener));
}

}  // namespace mercury::core
