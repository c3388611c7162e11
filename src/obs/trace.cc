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
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

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
    case ArgType::kFixed: bits_ = std::bit_cast<std::uint64_t>(arg.number_); break;
  }
}

bool TraceArg::to_u64(std::uint64_t& out) const {
  switch (type_) {
    case ArgType::kUnsigned: out = bits_; return true;
    case ArgType::kSigned:
      if (static_cast<std::int64_t>(bits_) < 0) return false;
      out = bits_;
      return true;
    case ArgType::kString: return parse_whole(text().view(), out);
    case ArgType::kFixed: return false;
  }
  return false;
}

bool TraceArg::to_double(double& out) const {
  switch (type_) {
    case ArgType::kUnsigned: out = static_cast<double>(bits_); return true;
    case ArgType::kSigned:
      out = static_cast<double>(static_cast<std::int64_t>(bits_));
      return true;
    case ArgType::kFixed: out = std::bit_cast<double>(bits_); return true;
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
  }
}

std::string TraceArg::value() const {
  if (type_ == ArgType::kString) return text().str();
  std::string out;
  append_escaped(out);  // numbers never need escaping
  return out;
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
//
// Record layout (docs/TRACING.md "In-memory representation"):
//   varints  shape label id; span; run
//   8 bytes  t, raw double bits
//   per arg  the value only: label id or unsigned as a varint, signed as a
//            zigzag varint, kFixed as 8 raw bytes
// A shape is what an emit site fixes and its events share, interned as a
// label whose text is the raw bytes of 64-bit words:
//   category id | track id << 32
//   name id | kind << 32 | arg count << 40
//   per arg  key id | type << 32 | precision << 40

namespace {

/// Largest encoding of a record's fixed part and of one arg value.
constexpr std::size_t kMaxHeaderBytes = 5 + 2 * 10 + 8;
constexpr std::size_t kMaxArgBytes = 10;
/// Args an emit call may pass without the record path allocating.
constexpr std::size_t kInlineArgs = 8;

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint64_t get_varint(const std::uint8_t*& p) {
  std::uint64_t v = *p++;
  if (v < 0x80) return v;
  v &= 0x7F;
  for (unsigned shift = 7;; shift += 7) {
    const std::uint64_t byte = *p++;
    v |= (byte & 0x7F) << shift;
    if (byte < 0x80) return v;
  }
}

std::uint8_t* put_raw(std::uint8_t* p, std::uint64_t bits) {
  std::memcpy(p, &bits, sizeof bits);
  return p + sizeof bits;
}

std::uint64_t get_raw(const std::uint8_t*& p) {
  std::uint64_t bits;
  std::memcpy(&bits, p, sizeof bits);
  p += sizeof bits;
  return bits;
}

std::uint64_t zigzag(std::uint64_t v) {
  return (v << 1) ^ (static_cast<std::uint64_t>(static_cast<std::int64_t>(v) >> 63));
}

std::uint64_t unzigzag(std::uint64_t v) { return (v >> 1) ^ (~(v & 1) + 1); }

/// Per-thread memo in front of the intern cache for shapes: the last shape
/// seen for each name, kind and arg count (by hash). An emit site repeats
/// one shape, so most records find theirs with a few word compares and
/// never hash its text.
class ShapeMemo {
 public:
  /// The id of the shape whose text is `words` (2 + arg_count of them).
  std::uint32_t intern(const std::uint64_t* words, std::size_t arg_count) {
    const std::string_view text(reinterpret_cast<const char*>(words),
                                (2 + arg_count) * sizeof *words);
    if (arg_count > kInlineArgs) return obs::intern(text);
    Slot& slot = slots_[(words[1] ^ words[1] >> 30) & (kSlots - 1)];
    if (slot.shape == 0 || !std::equal(words, words + 2 + arg_count, slot.words)) {
      slot.shape = obs::intern(text);
      std::copy(words, words + 2 + arg_count, slot.words);
    }
    return slot.shape;
  }

 private:
  static constexpr std::size_t kSlots = 64;
  struct Slot {
    std::uint64_t words[2 + kInlineArgs] = {};
    std::uint32_t shape = 0;  ///< 0: empty
  };
  Slot slots_[kSlots];
};

thread_local ShapeMemo t_shape_memo;

}  // namespace

template <typename ArgIt>
void EventBuffer::append(double t, EventKind kind, Label category, Label name,
                         Label track, std::uint64_t span, std::uint64_t run,
                         ArgIt args, std::size_t arg_count) {
  // The shape's words (layout above); each arg's value goes to `values`.
  std::uint64_t inline_words[2 + kInlineArgs];
  std::uint64_t inline_values[kInlineArgs];
  std::vector<std::uint64_t> heap;
  std::uint64_t* words = inline_words;
  std::uint64_t* values = inline_values;
  if (arg_count > kInlineArgs) {
    heap.resize(2 + 2 * arg_count);
    words = heap.data();
    values = words + 2 + arg_count;
  }
  words[0] = category.id() | std::uint64_t{track.id()} << 32;
  words[1] = name.id() | std::uint64_t{static_cast<std::uint8_t>(kind)} << 32 |
             std::uint64_t{arg_count} << 40;
  for (std::size_t i = 0; i < arg_count; ++i, ++args) {
    const TraceArg arg(*args);  // interns an emit-side arg's strings
    words[2 + i] = arg.key.id() | std::uint64_t{static_cast<std::uint8_t>(arg.type_)} << 32 |
                   std::uint64_t{arg.precision_} << 40;
    values[i] = arg.bits_;
  }
  const std::uint32_t shape = t_shape_memo.intern(words, arg_count);

  const std::size_t bound = kMaxHeaderBytes + arg_count * kMaxArgBytes;
  // A rebased block decodes through its offsets, so new records never join it.
  if (blocks_.empty() || blocks_.back().capacity - blocks_.back().used < bound ||
      blocks_.back().span_offset != 0 || blocks_.back().run_offset != 0) {
    const std::size_t grown =
        blocks_.empty() ? kFirstBlockBytes
                        : std::min(kMaxBlockBytes, 2 * std::size_t{blocks_.back().capacity});
    Block block;
    block.start = size_;
    block.capacity = static_cast<std::uint32_t>(std::max(grown, bound));
    // Uninitialised: pages of a block become resident only as it fills.
    block.bytes.reset(new std::uint8_t[block.capacity]);
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_.back();
  std::uint8_t* p = block.bytes.get() + block.used;
  p = put_varint(p, shape);
  p = put_varint(p, span);
  p = put_varint(p, run);
  p = put_raw(p, std::bit_cast<std::uint64_t>(t));
  for (std::size_t i = 0; i < arg_count; ++i) {
    switch (static_cast<ArgType>(words[2 + i] >> 32 & 0xFF)) {
      case ArgType::kString:
      case ArgType::kUnsigned: p = put_varint(p, values[i]); break;
      case ArgType::kSigned: p = put_varint(p, zigzag(values[i])); break;
      case ArgType::kFixed: p = put_raw(p, values[i]); break;
    }
  }
  block.used = static_cast<std::uint32_t>(p - block.bytes.get());
  ++block.count;
  ++size_;
}

const std::uint8_t* EventBuffer::decode(const Block& block, const std::uint8_t* p,
                                        TraceEvent& out, std::uint32_t& shape) {
  const auto shape_id = static_cast<std::uint32_t>(get_varint(p));
  if (shape_id != shape) {  // `out` holds another shape's fields: read this one's
    shape = shape_id;
    const auto* words =
        reinterpret_cast<const std::uint8_t*>(LabelPool::instance().entry(shape_id).text.data());
    const std::uint64_t labels = get_raw(words);
    const std::uint64_t head = get_raw(words);
    out.kind = static_cast<EventKind>(head >> 32 & 0xFF);
    out.category = Label::from_id(static_cast<std::uint32_t>(labels));
    out.name = Label::from_id(static_cast<std::uint32_t>(head));
    out.track = Label::from_id(static_cast<std::uint32_t>(labels >> 32));
    out.args.resize(static_cast<std::size_t>(head >> 40));
    for (TraceArg& arg : out.args) {
      const std::uint64_t word = get_raw(words);
      arg.key = Label::from_id(static_cast<std::uint32_t>(word));
      arg.type_ = static_cast<ArgType>(word >> 32 & 0xFF);
      arg.precision_ = static_cast<std::uint8_t>(word >> 40);
    }
  }
  const std::uint64_t span = get_varint(p);
  out.span = span != 0 ? span + block.span_offset : 0;
  out.run = get_varint(p) + block.run_offset;
  out.t = std::bit_cast<double>(get_raw(p));
  for (TraceArg& arg : out.args) {
    switch (arg.type_) {
      case ArgType::kString:
      case ArgType::kUnsigned: arg.bits_ = get_varint(p); break;
      case ArgType::kSigned: arg.bits_ = unzigzag(get_varint(p)); break;
      case ArgType::kFixed: arg.bits_ = get_raw(p); break;
    }
  }
  return p;
}

void EventBuffer::push_back(const TraceEvent& event, std::uint64_t span_offset,
                            std::uint64_t run_offset) {
  append(event.t, event.kind, event.category, event.name, event.track,
         event.span != 0 ? event.span + span_offset : 0, event.run + run_offset,
         event.args.begin(), event.args.size());
}

void EventBuffer::emplace(double t, EventKind kind, Label category, Label name,
                          Label track, std::uint64_t span, std::uint64_t run,
                          Args args) {
  append(t, kind, category, name, track, span, run, args.begin(), args.size());
}

TraceEvent EventBuffer::operator[](std::size_t index) const {
  assert(index < size_);
  // Blocks are sorted by start index and vary in size, so binary-search.
  const auto block = std::prev(std::upper_bound(
      blocks_.begin(), blocks_.end(), index,
      [](std::size_t i, const Block& b) { return i < b.start; }));
  TraceEvent event;
  std::uint32_t shape = 0;
  const std::uint8_t* p = block->bytes.get();
  for (std::uint64_t i = block->start; i <= index; ++i) p = decode(*block, p, event, shape);
  return event;
}

void EventBuffer::clear() {
  blocks_.clear();
  size_ = 0;
}

std::vector<TraceEvent> EventBuffer::to_vector() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (const TraceEvent& event : *this) out.push_back(event);
  return out;
}

void EventBuffer::rebase(std::uint64_t span_offset, std::uint64_t run_offset) {
  for (Block& block : blocks_) {
    block.span_offset += span_offset;
    block.run_offset += run_offset;
  }
}

void EventBuffer::splice_from(EventBuffer&& other) {
  blocks_.reserve(blocks_.size() + other.blocks_.size());
  for (Block& block : other.blocks_) {
    block.start = size_;
    size_ += block.count;
    blocks_.push_back(std::move(block));
  }
  other.clear();
}

std::size_t EventBuffer::memory_bytes() const {
  std::size_t bytes = blocks_.capacity() * sizeof(Block);
  for (const Block& block : blocks_) bytes += block.capacity;
  return bytes;
}

void EventBuffer::const_iterator::enter_block() {
  if (block_ == last_) {
    pos_ = nullptr;
    return;
  }
  pos_ = block_->bytes.get();
  block_end_ = pos_ + block_->used;
  next_ = decode(*block_, pos_, event_, shape_);
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

void TraceRecorder::merge_from(TraceRecorder&& other) {
  const std::uint64_t span_offset = next_span_ - 1;
  const std::uint64_t run_offset = run_;
  if (events_.size() + other.events_.size() <= max_events_) {
    other.events_.rebase(span_offset, run_offset);
    events_.splice_from(std::move(other.events_));
  } else {
    // Near the cap, drops are decided one event at a time, in the order
    // serial recording would have met them.
    for (const TraceEvent& event : other.events_) {
      if (events_.size() >= max_events_) {
        ++dropped_;
        continue;
      }
      events_.push_back(event, span_offset, run_offset);
    }
  }
  // Advance the counters as if this recorder had issued other's ids itself,
  // so a later merge (or live emission) continues the same numbering the
  // serial interleaving would have used.
  next_span_ += other.next_span_ - 1;
  run_ += other.run_;
  dropped_ += other.dropped_;
}

void TraceRecorder::clear() {
  events_.clear();
  open_spans_.clear();
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

}  // namespace

void write_jsonl(const EventBuffer& events, std::ostream& stream) {
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

void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out) {
  EventBuffer buffer;
  for (const TraceEvent& event : events) buffer.push_back(event);
  write_jsonl(buffer, out);
}

void TraceRecorder::write_jsonl(std::ostream& out) const {
  obs::write_jsonl(events_, out);
}

void write_chrome_trace(const EventBuffer& events, std::ostream& stream) {
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
  for (const TraceEvent& event : events) {
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
    out += ",\"args\":";
    append_args_object(out, event.args);
    out += "}";
    sink.maybe_flush();
  }
  out += "]}\n";
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  obs::write_chrome_trace(events_, out);
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

bool all_digits(std::string_view s) {
  return !s.empty() &&
         std::all_of(s.begin(), s.end(), [](char ch) { return ch >= '0' && ch <= '9'; });
}

/// The emit-side arg that exports as exactly `text`: an unsigned, signed or
/// fixed number when formatting that number gives back the same text, the
/// string itself otherwise (leading zeros, "-0", more digits than a double
/// holds, anything not a plain decimal).
Arg typed_arg(std::string_view key, std::string_view text) {
  const bool negative = text.starts_with('-');
  const std::string_view digits = text.substr(negative ? 1 : 0);
  const std::size_t point = digits.find('.');
  if (!all_digits(digits.substr(0, point))) return {key, text};
  std::string formatted;
  if (point == std::string_view::npos) {
    std::int64_t signed_value = 0;
    std::uint64_t unsigned_value = 0;
    if (negative && parse_whole(text, signed_value)) {
      append_i64(formatted, signed_value);
      if (formatted == text) return {key, signed_value};
    } else if (!negative && parse_whole(text, unsigned_value)) {
      append_u64(formatted, unsigned_value);
      if (formatted == text) return {key, unsigned_value};
    }
    return {key, text};
  }
  const std::string_view fraction = digits.substr(point + 1);
  double value = 0.0;
  if (!all_digits(fraction) || fraction.size() > std::numeric_limits<std::uint8_t>::max() ||
      !parse_whole(text, value)) {
    return {key, text};
  }
  const int precision = static_cast<int>(fraction.size());
  append_fixed(formatted, value, precision);
  if (formatted == text) return {key, Fixed{value, precision}};
  return {key, text};
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
    out.emplace_back(typed_arg(key, value));
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
      event.args = std::move(args);
      return true;
    }
    if (!c.eat(',')) return false;
  }
}

}  // namespace

EventBuffer read_jsonl(std::istream& in) {
  EventBuffer events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TraceEvent event;
    if (parse_event(line, event)) events.push_back(event);
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

void next_run() {
  if (g_recorder == nullptr) return;
  g_recorder->next_run();
}

}  // namespace mercury::obs
