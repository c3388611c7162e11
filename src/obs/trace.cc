#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <sstream>

#include "util/strings.h"

namespace mercury::obs {

namespace {

// Thread-local: parallel experiment trials each install a private recorder
// on their worker thread (src/exp/runner.cc); emit sites never race.
thread_local TraceRecorder* g_recorder = nullptr;

/// JSON string escaping for the export/import round trip. Event names and
/// args are ASCII in practice, but component labels flow through user code,
/// so escape defensively.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- Number formatting ------------------------------------------------------
// std::to_chars with an explicit precision is specified to print exactly
// what printf does in the "C" locale, so these reproduce std::to_string,
// util::format_fixed (an ostream in fixed mode, i.e. "%.*f") and "%.9g"
// byte for byte (tests/test_trace.cc pins each against its reference).

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, result.ptr);
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, result.ptr);
}

void append_fixed(std::string& out, double v, int precision) {
  char buf[400];
  const auto result =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, precision);
  if (result.ec == std::errc{}) {
    out.append(buf, result.ptr);
  } else {
    out += util::format_fixed(v, precision);  // beyond the buffer: rare, slow path
  }
}

/// Timestamps print with microsecond resolution; %.9g keeps round-trip
/// fidelity for the double seconds the recorder stores.
void append_number(std::string& out, double v) {
  char buf[32];
  const auto result =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 9);
  out.append(buf, result.ptr);
}

std::string json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

// Checked numeric parse of a whole string: corrupted trace lines carry
// tokens like "-", ".", "e", or out-of-range digit runs. std::stod/stoull
// would throw on them and kill the reader; from_chars reports failure.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

// --- Intern pool ------------------------------------------------------------

struct LabelEntry {
  std::string text;
  std::string escaped;
};

/// The process-wide pool. Entries live in fixed blocks that never move, so
/// a published id can be read without the lock: the entry is written before
/// its id escapes the mutex, and every reader obtained the id either under
/// the mutex (its own intern) or from a thread that did (events handed over
/// through the runner's join).
class LabelPool {
 public:
  static LabelPool& instance() {
    // Leaked on purpose: labels must stay readable until the process exits,
    // including from thread-local destructors and static destructors.
    static LabelPool* const pool = new LabelPool();
    return *pool;
  }

  std::uint32_t intern(std::string_view text) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(text);
    if (it != index_.end()) return it->second;
    const std::uint32_t id = size_.load(std::memory_order_relaxed);
    const std::size_t block = id >> kBlockBits;
    if (block >= kMaxBlocks) {
      std::fprintf(stderr, "obs: label intern pool exhausted (%u labels)\n",
                   static_cast<unsigned>(id));
      std::abort();
    }
    LabelEntry* entries = blocks_[block].load(std::memory_order_relaxed);
    if (entries == nullptr) {
      entries = new LabelEntry[kBlockSize];
      blocks_[block].store(entries, std::memory_order_release);
    }
    LabelEntry& entry = entries[id & (kBlockSize - 1)];
    entry.text.assign(text);
    entry.escaped = json_escape(text);
    index_.emplace(entry.text, id);
    size_.store(id + 1, std::memory_order_release);
    return id;
  }

  const LabelEntry& entry(std::uint32_t id) const {
    return blocks_[id >> kBlockBits].load(std::memory_order_acquire)[id & (kBlockSize - 1)];
  }

  std::size_t size() const { return size_.load(std::memory_order_acquire); }

 private:
  static constexpr unsigned kBlockBits = 10;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockBits;
  static constexpr std::size_t kMaxBlocks = 4096;  // 4M distinct labels

  LabelPool() { intern(""); }  // id 0 is the empty string

  std::atomic<LabelEntry*> blocks_[kMaxBlocks] = {};
  std::mutex mutex_;
  std::unordered_map<std::string_view, std::uint32_t> index_;  // guarded
  std::atomic<std::uint32_t> size_{0};
};

/// A string's first and last 8 bytes (overlapping loads). For strings of at
/// most 16 bytes the pair plus the length identifies the string exactly, so
/// the cache compares two words instead of calling memcmp.
struct Words {
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
};

Words words_of(std::string_view s) {
  const char* p = s.data();
  const std::size_t n = s.size();
  Words w;
  if (n >= 8) {
    std::memcpy(&w.head, p, 8);
    std::memcpy(&w.tail, p + n - 8, 8);
  } else if (n >= 4) {
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    std::memcpy(&head, p, 4);
    std::memcpy(&tail, p + n - 4, 4);
    w.head = head;
    w.tail = tail;
  } else if (n > 0) {
    w.head = static_cast<std::uint64_t>(static_cast<unsigned char>(p[0])) |
             static_cast<std::uint64_t>(static_cast<unsigned char>(p[n / 2])) << 8 |
             static_cast<std::uint64_t>(static_cast<unsigned char>(p[n - 1])) << 16;
  }
  return w;
}

std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ull;
  return h ^ (h >> 29);
}

std::uint64_t hash_text(std::string_view s, const Words& w) {
  std::uint64_t h = (w.head * 0x9E3779B97F4A7C15ull) ^ (w.tail * 0x94D049BB133111EBull) ^ s.size();
  for (std::size_t i = 8; i + 8 < s.size(); i += 8) {  // middle words, long strings only
    std::uint64_t word;
    std::memcpy(&word, s.data() + i, 8);
    h = (h ^ word) * 0x9E3779B97F4A7C15ull;
  }
  return mix(h);
}

/// Per-thread front of the pool: an open-addressing table from text to id.
/// A hit costs one hash and a two-word compare (plus a memcmp for strings
/// over 16 bytes), with no lock; only a thread's first sight of a string
/// goes to the pool.
class LabelCache {
 public:
  std::uint32_t intern(std::string_view text) {
    if (text.empty()) return 0;
    if (slots_.empty()) slots_.resize(256);
    const Words words = words_of(text);
    const std::uint64_t hash = hash_text(text, words);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.data == nullptr) break;
      if (slot.size == text.size() && slot.words.head == words.head &&
          slot.words.tail == words.tail &&
          (text.size() <= 16 ||
           std::memcmp(slot.data, text.data(), text.size()) == 0)) {
        return slot.id;
      }
    }
    LabelPool& pool = LabelPool::instance();
    const std::uint32_t id = pool.intern(text);
    if (2 * (count_ + 1) > slots_.size()) grow();
    insert(Slot{words, hash, pool.entry(id).text.data(), text.size(), id});
    ++count_;
    return id;
  }

 private:
  struct Slot {
    Words words;
    std::uint64_t hash = 0;
    const char* data = nullptr;  ///< the pool's copy; nullptr marks a free slot
    std::size_t size = 0;
    std::uint32_t id = 0;
  };

  void insert(const Slot& slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot.hash & mask;
    while (slots_[i].data != nullptr) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.data != nullptr) insert(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
};

thread_local LabelCache t_label_cache;

std::uint32_t intern(std::string_view text) { return t_label_cache.intern(text); }

}  // namespace

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kInstant: return "i";
    case EventKind::kBegin: return "B";
    case EventKind::kEnd: return "E";
    case EventKind::kCounter: return "C";
  }
  return "?";
}

// --- Label ----------------------------------------------------------------

Label::Label(std::string_view text) : id_(intern(text)) {}

const std::string& Label::str() const {
  return LabelPool::instance().entry(id_).text;
}

const std::string& Label::escaped() const {
  return LabelPool::instance().entry(id_).escaped;
}

std::ostream& operator<<(std::ostream& out, Label label) { return out << label.str(); }

std::size_t interned_label_count() { return LabelPool::instance().size(); }

// --- TraceArg ---------------------------------------------------------------

TraceArg::TraceArg(std::string_view key_text, std::string_view value)
    : key(key_text), type_(ArgType::kString), bits_(intern(value)) {}

TraceArg::TraceArg(const Arg& arg)
    : key(arg.key_), type_(arg.type_), precision_(arg.precision_) {
  switch (arg.type_) {
    case ArgType::kString:
      bits_ = intern(arg.text_);
      break;
    case ArgType::kUnsigned: bits_ = arg.unsigned_; break;
    case ArgType::kSigned: bits_ = static_cast<std::uint64_t>(arg.signed_); break;
    case ArgType::kFixed:
    case ArgType::kNumber: bits_ = std::bit_cast<std::uint64_t>(arg.number_); break;
  }
}

TraceArg TraceArg::number(std::string_view key_text, double value) {
  TraceArg arg;
  arg.key = Label(key_text);
  arg.type_ = ArgType::kNumber;
  arg.bits_ = std::bit_cast<std::uint64_t>(value);
  return arg;
}

bool TraceArg::to_u64(std::uint64_t& out) const {
  switch (type_) {
    case ArgType::kUnsigned: out = bits_; return true;
    case ArgType::kSigned:
      if (static_cast<std::int64_t>(bits_) < 0) return false;
      out = bits_;
      return true;
    case ArgType::kString: return parse_whole(text().view(), out);
    case ArgType::kFixed:
    case ArgType::kNumber: return false;
  }
  return false;
}

bool TraceArg::to_double(double& out) const {
  switch (type_) {
    case ArgType::kUnsigned: out = static_cast<double>(bits_); return true;
    case ArgType::kSigned:
      out = static_cast<double>(static_cast<std::int64_t>(bits_));
      return true;
    case ArgType::kFixed:
    case ArgType::kNumber: out = std::bit_cast<double>(bits_); return true;
    case ArgType::kString: return parse_whole(text().view(), out);
  }
  return false;
}

void TraceArg::append_escaped(std::string& out) const {
  switch (type_) {
    case ArgType::kString: out += text().escaped(); break;
    case ArgType::kUnsigned: append_u64(out, bits_); break;
    case ArgType::kSigned: append_i64(out, static_cast<std::int64_t>(bits_)); break;
    case ArgType::kFixed:
      append_fixed(out, std::bit_cast<double>(bits_), precision_);
      break;
    case ArgType::kNumber: append_number(out, std::bit_cast<double>(bits_)); break;
  }
}

std::string TraceArg::value() const {
  if (type_ == ArgType::kString) return text().str();
  std::string out;
  append_escaped(out);  // numbers never need escaping
  return out;
}

void TraceArgs::assign(const TraceArg* data, std::size_t size) {
  if (size == 0) return;
  TraceArg* copy = new TraceArg[size];
  std::copy(data, data + size, copy);
  data_ = copy;
  size_ = static_cast<std::uint32_t>(size);
  owned_ = true;
}

void TraceArgs::release() {
  if (owned_) delete[] data_;
  data_ = nullptr;
  size_ = 0;
  owned_ = false;
}

// --- TraceEvent -------------------------------------------------------------

const TraceArg* TraceEvent::find_arg(Label key) const {
  for (const TraceArg& arg : args) {
    if (arg.key == key) return &arg;
  }
  return nullptr;
}

Label TraceEvent::text_arg(Label key) const {
  const TraceArg* arg = find_arg(key);
  return arg != nullptr ? arg->text() : Label();
}

std::string TraceEvent::arg_or(std::string_view key, std::string_view fallback) const {
  for (const TraceArg& arg : args) {
    if (arg.key == key) return arg.value();
  }
  return std::string(fallback);
}

// --- EventBuffer ----------------------------------------------------------

void EventBuffer::ArgArena::Free::operator()(TraceArg* block) const {
  ::operator delete(block);
}

TraceArg* EventBuffer::ArgArena::allocate(std::size_t count) {
  if (count == 0) return nullptr;
  if (blocks_.empty() || used_ + count > capacity_) {
    // Raw storage: args are constructed on use, so untouched block pages
    // never become resident.
    capacity_ = std::max(kBlockArgs, count);
    blocks_.emplace_back(
        static_cast<TraceArg*>(::operator new(capacity_ * sizeof(TraceArg))));
    used_ = 0;
  }
  TraceArg* out = blocks_.back().get() + used_;
  used_ += count;
  return out;
}

TraceEvent& EventBuffer::append(std::size_t arg_count, TraceArg*& args) {
  if (chunks_.empty() || chunks_.back().events.size() >= kChunkCapacity) {
    Chunk chunk;
    chunk.start = size_;
    chunk.events.reserve(kChunkCapacity);
    chunks_.push_back(std::move(chunk));
  }
  Chunk& chunk = chunks_.back();
  args = chunk.args.allocate(arg_count);
  TraceEvent& event = chunk.events.emplace_back();
  event.args = TraceArgs::view(args, static_cast<std::uint32_t>(arg_count));
  ++size_;
  return event;
}

void EventBuffer::push_back(const TraceEvent& event, std::uint64_t span_offset,
                            std::uint64_t run_offset) {
  TraceArg* args = nullptr;
  TraceEvent& stored = append(event.args.size(), args);
  std::uninitialized_copy(event.args.begin(), event.args.end(), args);
  stored.t = event.t;
  stored.span = event.span != 0 ? event.span + span_offset : 0;
  stored.run = event.run + run_offset;
  stored.category = event.category;
  stored.name = event.name;
  stored.track = event.track;
  stored.kind = event.kind;
}

void EventBuffer::emplace(double t, EventKind kind, Label category, Label name,
                          Label track, std::uint64_t span, std::uint64_t run,
                          Args args) {
  TraceArg* stored_args = nullptr;
  TraceEvent& event = append(args.size(), stored_args);
  for (const Arg& arg : args) new (stored_args++) TraceArg(arg);
  event.t = t;
  event.span = span;
  event.run = run;
  event.category = category;
  event.name = name;
  event.track = track;
  event.kind = kind;
}

const TraceEvent& EventBuffer::operator[](std::size_t index) const {
  assert(index < size_);
  // Chunks are sorted by start index; splices leave irregular sizes, so
  // binary-search rather than divide by the chunk capacity.
  std::size_t lo = 0;
  std::size_t hi = chunks_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (chunks_[mid].start <= index) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return chunks_[lo].events[index - chunks_[lo].start];
}

void EventBuffer::clear() {
  chunks_.clear();
  size_ = 0;
}

std::vector<TraceEvent> EventBuffer::to_vector() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (const TraceEvent& event : *this) out.push_back(event);
  return out;
}

void EventBuffer::rebase(std::uint64_t span_offset, std::uint64_t run_offset) {
  for (Chunk& chunk : chunks_) {
    for (TraceEvent& event : chunk.events) {
      if (event.span != 0) event.span += span_offset;
      event.run += run_offset;
    }
  }
}

void EventBuffer::splice_from(EventBuffer&& other) {
  chunks_.reserve(chunks_.size() + other.chunks_.size());
  for (Chunk& chunk : other.chunks_) {
    if (chunk.events.empty()) continue;  // iteration assumes non-empty chunks
    chunk.start = size_;
    size_ += chunk.events.size();
    chunks_.push_back(std::move(chunk));
  }
  other.clear();
}

EventBuffer::const_iterator::reference EventBuffer::const_iterator::operator*()
    const {
  return buffer_->chunks_[chunk_].events[pos_];
}

EventBuffer::const_iterator& EventBuffer::const_iterator::operator++() {
  if (++pos_ >= buffer_->chunks_[chunk_].events.size()) {
    ++chunk_;
    pos_ = 0;
  }
  return *this;
}

// --- TraceRecorder ----------------------------------------------------------

TraceRecorder::TraceRecorder(std::size_t max_events) : max_events_(max_events) {}

void TraceRecorder::push(double t, EventKind kind, const SpanLabels& labels,
                         std::uint64_t span, Args args) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.emplace(t, kind, labels.category, labels.name, labels.track, span, run_,
                  args);
}

void TraceRecorder::instant(double t, std::string_view category,
                            std::string_view name, std::string_view track,
                            Args args) {
  push(t, EventKind::kInstant, {Label(category), Label(name), Label(track)}, 0,
       args);
}

std::uint64_t TraceRecorder::begin(double t, std::string_view category,
                                   std::string_view name, std::string_view track,
                                   Args args) {
  const std::uint64_t id = next_span_++;
  const SpanLabels labels{Label(category), Label(name), Label(track)};
  open_spans_[id] = labels;
  push(t, EventKind::kBegin, labels, id, args);
  return id;
}

void TraceRecorder::end(double t, std::uint64_t span, Args args) {
  const auto it = open_spans_.find(span);
  if (it == open_spans_.end()) return;  // never opened, or already closed
  const SpanLabels labels = it->second;
  open_spans_.erase(it);
  push(t, EventKind::kEnd, labels, span, args);
}

void TraceRecorder::counter(double t, std::string_view name, double value,
                            std::string_view track) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  TraceEvent event;
  event.t = t;
  event.kind = EventKind::kCounter;
  event.category = Label("metric");
  event.name = Label(name);
  event.track = Label(track);
  event.run = run_;
  event.args = {TraceArg::number("value", value)};
  events_.push_back(event);
}

void TraceRecorder::incr(std::string_view name, std::uint64_t delta) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(name), delta);
  }
}

void TraceRecorder::observe(std::string_view name, double value) {
  auto it = samples_.find(name);
  if (it == samples_.end()) it = samples_.emplace(std::string(name), util::SampleStats{}).first;
  it->second.add(value);
}

std::uint64_t TraceRecorder::count(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

std::string TraceRecorder::metrics_summary() const {
  std::ostringstream out;
  if (!counters_.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : counters_) {
      out << "  " << name << " = " << value << "\n";
    }
  }
  if (!samples_.empty()) {
    out << "samples (n / mean / p50 / p95 / max, seconds):\n";
    for (const auto& [name, stats] : samples_) {
      out << "  " << name << " = " << stats.count() << " / "
          << json_number(stats.mean()) << " / " << json_number(stats.percentile(50))
          << " / " << json_number(stats.percentile(95)) << " / "
          << json_number(stats.max()) << "\n";
    }
  }
  if (dropped_ > 0) {
    out << "dropped events (over " << max_events_ << " cap): " << dropped_ << "\n";
  }
  return out.str();
}

void TraceRecorder::merge_from(const TraceRecorder& other) {
  const std::uint64_t span_offset = next_span_ - 1;
  const std::uint64_t run_offset = run_;
  for (const TraceEvent& event : other.events_) {
    if (events_.size() >= max_events_) {
      ++dropped_;
      continue;
    }
    events_.push_back(event, span_offset, run_offset);
  }
  merge_metadata_from(other);
}

void TraceRecorder::merge_from(TraceRecorder&& other) {
  if (events_.size() + other.events_.size() <= max_events_) {
    other.events_.rebase(next_span_ - 1, run_);
    events_.splice_from(std::move(other.events_));
    merge_metadata_from(other);
    return;
  }
  // Near the cap the per-event push path must decide drops one by one, in
  // the same order the copying merge would — fall back to it.
  merge_from(static_cast<const TraceRecorder&>(other));
}

void TraceRecorder::merge_metadata_from(const TraceRecorder& other) {
  // Advance the counters as if this recorder had issued other's ids itself,
  // so a later merge (or live emission) continues the same numbering the
  // serial interleaving would have used.
  next_span_ += other.next_span_ - 1;
  run_ += other.run_;
  dropped_ += other.dropped_;
  for (const auto& [name, value] : other.counters_) incr(name, value);
  for (const auto& [name, stats] : other.samples_) {
    auto it = samples_.find(name);
    if (it == samples_.end()) it = samples_.emplace(name, util::SampleStats{}).first;
    for (const double value : stats.samples()) it->second.add(value);
  }
}

void TraceRecorder::clear() {
  events_.clear();
  open_spans_.clear();
  counters_.clear();
  samples_.clear();
  next_span_ = 1;
  run_ = 0;
  dropped_ = 0;
}

// --- Export -----------------------------------------------------------------

namespace {

/// Buffered writer: exporters format into one string and hand the stream
/// large blocks instead of many small insertions.
class Sink {
 public:
  explicit Sink(std::ostream& out) : out_(out) { buf_.reserve(kFlushAt + 1024); }
  ~Sink() { flush(); }
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  std::string& buf() { return buf_; }
  void maybe_flush() {
    if (buf_.size() >= kFlushAt) flush();
  }
  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  static constexpr std::size_t kFlushAt = 64 * 1024;
  std::ostream& out_;
  std::string buf_;
};

void append_args_object(std::string& out, const TraceArgs& args) {
  out += '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += args[i].key.escaped();
    out += "\":\"";
    args[i].append_escaped(out);
    out += '"';
  }
  out += '}';
}

template <typename Range>
void write_jsonl_impl(const Range& events, std::ostream& stream) {
  Sink sink(stream);
  std::string& out = sink.buf();
  for (const TraceEvent& event : events) {
    out += "{\"t\":";
    append_number(out, event.t);
    out += ",\"ph\":\"";
    out += to_string(event.kind);
    out += "\",\"cat\":\"";
    out += event.category.escaped();
    out += "\",\"name\":\"";
    out += event.name.escaped();
    out += "\",\"track\":\"";
    out += event.track.escaped();
    out += "\",\"span\":";
    append_u64(out, event.span);
    out += ",\"run\":";
    append_u64(out, event.run);
    out += ",\"args\":";
    append_args_object(out, event.args);
    out += "}\n";
    sink.maybe_flush();
  }
}

}  // namespace

void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out) {
  write_jsonl_impl(events, out);
}

void write_jsonl(const EventBuffer& events, std::ostream& out) {
  write_jsonl_impl(events, out);
}

void TraceRecorder::write_jsonl(std::ostream& out) const {
  write_jsonl_impl(events_, out);
}

void TraceRecorder::write_chrome_trace(std::ostream& stream) const {
  // Tracks map to Chrome thread ids within the run's process; name them via
  // metadata events so the viewer shows "fd", "rec", ... instead of numbers.
  std::map<std::pair<std::uint64_t, std::uint32_t>, int> tids;
  Sink sink(stream);
  std::string& out = sink.buf();
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  static const Label kValue("value");
  for (const TraceEvent& event : events_) {
    const auto key = std::make_pair(event.run, event.track.id());
    auto it = tids.find(key);
    if (it == tids.end()) {
      const int tid = static_cast<int>(tids.size()) + 1;
      it = tids.emplace(key, tid).first;
      comma();
      out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
      append_u64(out, event.run);
      out += ",\"tid\":";
      append_i64(out, tid);
      out += ",\"args\":{\"name\":\"";
      out += event.track.escaped();
      out += "\"}}";
      comma();
      out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
      append_u64(out, event.run);
      out += ",\"tid\":";
      append_i64(out, tid);
      out += ",\"args\":{\"name\":\"run ";
      append_u64(out, event.run);
      out += "\"}}";
    }
    comma();
    out += "{\"ph\":\"";
    out += to_string(event.kind);
    out += "\",\"ts\":";
    append_number(out, event.t * 1e6);
    out += ",\"pid\":";
    append_u64(out, event.run);
    out += ",\"tid\":";
    append_i64(out, it->second);
    out += ",\"cat\":\"";
    out += event.category.escaped();
    out += "\",\"name\":\"";
    out += event.name.escaped();
    out += "\"";
    if (event.kind == EventKind::kInstant) out += ",\"s\":\"t\"";
    if (event.kind == EventKind::kCounter) {
      // Counter events carry their value in args; Chrome wants it numeric.
      out += ",\"args\":{\"value\":";
      const TraceArg* value = event.find_arg(kValue);
      out += value != nullptr ? value->value() : std::string("0");
      out += "}";
    } else {
      out += ",\"args\":";
      append_args_object(out, event.args);
    }
    out += "}";
    sink.maybe_flush();
  }
  out += "]}\n";
}

// --- JSONL import ---------------------------------------------------------
//
// A hand-rolled parser for exactly the flat object write_jsonl emits (string
// and integer values, plus the one-level "args" object). Not a general JSON
// parser; docs/TRACING.md pins the schema.

namespace {

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  bool eat(char c) {
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }
};

bool parse_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (c.i < c.s.size()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.i >= c.s.size()) return false;
      const char esc = c.s[c.i++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Checked hex parse: a malformed escape fails the line instead of
          // throwing out of the reader (corrupted trace files are routine).
          if (c.i + 4 > c.s.size()) return false;
          unsigned code = 0;
          for (std::size_t k = 0; k < 4; ++k) {
            const char h = c.s[c.i + k];
            unsigned digit = 0;
            if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') digit = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') digit = static_cast<unsigned>(h - 'A' + 10);
            else return false;
            code = code * 16 + digit;
          }
          c.i += 4;
          // write_jsonl only emits \u00XX (control bytes), but accept any
          // BMP code point and re-encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    } else {
      out += ch;
    }
  }
  return false;
}

bool parse_number(Cursor& c, std::string& out) {
  out.clear();
  while (c.i < c.s.size()) {
    const char ch = c.s[c.i];
    if ((ch >= '0' && ch <= '9') || ch == '-' || ch == '+' || ch == '.' ||
        ch == 'e' || ch == 'E') {
      out += ch;
      ++c.i;
    } else {
      break;
    }
  }
  return !out.empty();
}

bool parse_args(Cursor& c, std::vector<TraceArg>& out) {
  if (!c.eat('{')) return false;
  c.skip_ws();
  if (c.eat('}')) return true;
  std::string key;
  std::string value;
  while (true) {
    if (!parse_string(c, key)) return false;
    if (!c.eat(':')) return false;
    if (!parse_string(c, value)) return false;
    out.emplace_back(key, value);
    if (c.eat('}')) return true;
    if (!c.eat(',')) return false;
  }
}

bool parse_event(std::string_view line, TraceEvent& event) {
  Cursor c{line};
  if (!c.eat('{')) return false;
  std::string key;
  std::string value;
  std::vector<TraceArg> args;
  while (true) {
    c.skip_ws();
    if (!parse_string(c, key)) return false;
    if (!c.eat(':')) return false;
    if (key == "args") {
      if (!parse_args(c, args)) return false;
    } else if (key == "ph") {
      if (!parse_string(c, value)) return false;
      if (value == "i") event.kind = EventKind::kInstant;
      else if (value == "B") event.kind = EventKind::kBegin;
      else if (value == "E") event.kind = EventKind::kEnd;
      else if (value == "C") event.kind = EventKind::kCounter;
      else return false;
    } else if (key == "cat" || key == "name" || key == "track") {
      if (!parse_string(c, value)) return false;
      if (key == "cat") event.category = Label(value);
      else if (key == "name") event.name = Label(value);
      else event.track = Label(value);
    } else if (key == "t" || key == "span" || key == "run") {
      if (!parse_number(c, value)) return false;
      if (key == "t") {
        if (!parse_whole(value, event.t)) return false;
      } else if (key == "span") {
        if (!parse_whole(value, event.span)) return false;
      } else {
        if (!parse_whole(value, event.run)) return false;
      }
    } else {
      return false;  // unknown field: not our schema
    }
    if (c.eat('}')) {
      event.args = args;
      return true;
    }
    if (!c.eat(',')) return false;
  }
}

}  // namespace

std::vector<TraceEvent> read_jsonl(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TraceEvent event;
    if (parse_event(line, event)) events.push_back(std::move(event));
  }
  return events;
}

// --- Process-wide recorder ------------------------------------------------

TraceRecorder* recorder() { return g_recorder; }

TraceRecorder* set_recorder(TraceRecorder* rec) {
  TraceRecorder* previous = g_recorder;
  g_recorder = rec;
  return previous;
}

void instant(util::TimePoint t, std::string_view category, std::string_view name,
             std::string_view track, Args args) {
  if (g_recorder == nullptr) return;
  g_recorder->instant(t.to_seconds(), category, name, track, args);
}

std::uint64_t begin_span(util::TimePoint t, std::string_view category,
                         std::string_view name, std::string_view track, Args args) {
  if (g_recorder == nullptr) return 0;
  return g_recorder->begin(t.to_seconds(), category, name, track, args);
}

void end_span(util::TimePoint t, std::uint64_t span, Args args) {
  if (g_recorder == nullptr || span == 0) return;
  g_recorder->end(t.to_seconds(), span, args);
}

void incr(std::string_view name, std::uint64_t delta) {
  if (g_recorder == nullptr) return;
  g_recorder->incr(name, delta);
}

void observe(std::string_view name, double value) {
  if (g_recorder == nullptr) return;
  g_recorder->observe(name, value);
}

void next_run() {
  if (g_recorder == nullptr) return;
  g_recorder->next_run();
}

}  // namespace mercury::obs
