// Recovery-path tracing & metrics (schema documented in docs/TRACING.md).
//
// The paper's contribution is a timing argument: recovery time = detection
// latency + restart-policy decision + per-component restart durations. The
// benches report end-to-end numbers; this subsystem records *where inside a
// recovery the time went*. Every stage of the pipeline — fault manifestation,
// detector suspicion/report, oracle decision, recoverer action, per-component
// restart — emits structured events into one TraceRecorder, from which
// exporters produce JSONL and Chrome trace-event files and the phase analysis
// (obs/phases.h) rebuilds per-recovery breakdowns.
//
// Design constraints:
//   * Emitters timestamp events themselves (virtual simulation time or wall
//     time), so one recorder serves both the simulator and POSIX backends.
//   * Instrumentation is a thread-locally installable pointer (like
//     util::Logger, but per thread): with no recorder installed every emit
//     site is a single pointer compare. Emit-side args (obs::Arg) are views
//     and plain numbers, so building them costs nothing either; emit sites
//     that would have to build a string (a join, a concatenation) guard it
//     with obs::enabled(). Each simulation runs single-threaded on its own
//     thread; the parallel experiment runner (src/exp) installs a private
//     recorder per trial and merges the buffers afterwards, so no recorder
//     instance is ever shared across threads.
//   * Span begin/end pairing is by id, so overlapping recoveries (escalation
//     chains, concurrent group members) nest correctly.
//   * A recorded event is compact (docs/TRACING.md "In-memory
//     representation"): its strings are Labels, handles into a process-wide
//     intern pool, and its args are typed values in an arena beside the
//     event chunk. Numbers are formatted only by the exporters, each in the
//     exact format the schema specifies.
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/stats.h"
#include "util/time.h"

namespace mercury::obs {

/// Event kinds, mirroring the Chrome trace-event phases we export to.
enum class EventKind : std::uint8_t {
  kInstant,  ///< point event ("ph":"i")
  kBegin,    ///< span open ("ph":"B"); paired with kEnd by `span`
  kEnd,      ///< span close ("ph":"E")
  kCounter,  ///< sampled numeric value ("ph":"C")
};

std::string_view to_string(EventKind kind);

// --- Interned labels --------------------------------------------------------

/// A string stored once in a process-wide, append-only intern pool. A Label
/// is a 4-byte handle: equal labels have equal ids, so comparing two labels
/// is an integer compare, and copying events never copies text. The pool
/// is never shrunk, so a Label (and any event holding one) stays valid for
/// the whole process, across recorders and threads. Intern only values
/// from a bounded set (names, component labels, enumerations) — never ids
/// or other per-event values; those belong in typed args.
class Label {
 public:
  /// The empty string (id 0).
  Label() = default;
  /// Intern `text` (thread-safe; a per-thread cache makes repeats cheap).
  explicit Label(std::string_view text);

  std::uint32_t id() const { return id_; }
  bool empty() const { return id_ == 0; }
  const std::string& str() const;
  std::string_view view() const { return str(); }
  /// JSON-escaped form (no surrounding quotes), computed once at intern.
  const std::string& escaped() const;

  operator const std::string&() const { return str(); }
  operator std::string_view() const { return str(); }

  friend bool operator==(Label a, Label b) { return a.id_ == b.id_; }
  friend bool operator==(Label a, std::string_view b) { return a.view() == b; }

 private:
  friend class TraceArg;
  static Label from_id(std::uint32_t id) {
    Label label;
    label.id_ = id;
    return label;
  }

  std::uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& out, Label label);

/// Number of distinct strings interned so far (the empty string included).
/// Grows only with the set of distinct labels, never with the event count.
std::size_t interned_label_count();

// --- Args -------------------------------------------------------------------

/// How an arg value is stored and formatted. Every value exports as a JSON
/// string; only the in-memory form differs.
enum class ArgType : std::uint8_t {
  kString,    ///< interned Label
  kUnsigned,  ///< std::uint64_t, formatted like std::to_string
  kSigned,    ///< std::int64_t, formatted like std::to_string
  kFixed,     ///< double with fixed digits, formatted like util::format_fixed
  kNumber,    ///< double, formatted like printf("%.9g") (counter values)
};

/// A double formatted with `precision` digits after the point.
struct Fixed {
  double value = 0.0;
  int precision = 0;
};

/// Emit-side argument: a key and a value held by view or by number, so a
/// call site builds its args for free whether or not a recorder is
/// installed. The recorder interns the strings when it records the event.
/// Views must outlive the emit call only (temporaries in the call's full
/// expression are fine).
class Arg {
 public:
  Arg(std::string_view key, std::string_view value)
      : key_(key), text_(value), type_(ArgType::kString) {}
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Arg(std::string_view key, T value) : key_(key) {
    if constexpr (std::is_signed_v<T>) {
      type_ = ArgType::kSigned;
      signed_ = value;
    } else {
      type_ = ArgType::kUnsigned;
      unsigned_ = value;
    }
  }
  Arg(std::string_view key, Fixed value)
      : key_(key),
        type_(ArgType::kFixed),
        precision_(static_cast<std::uint8_t>(value.precision)),
        number_(value.value) {}

 private:
  friend class TraceArg;
  std::string_view key_;
  std::string_view text_;
  ArgType type_ = ArgType::kString;
  std::uint8_t precision_ = 0;
  union {
    std::uint64_t unsigned_ = 0;
    std::int64_t signed_;
    double number_;
  };
};

/// A call's emit-side args: a view over an initializer list or a vector.
class Args {
 public:
  Args() = default;
  // Views the list like std::span would; the list outlives the emit call.
  Args(std::initializer_list<Arg> args) : data_(std::data(args)), size_(args.size()) {}
  Args(const std::vector<Arg>& args) : data_(args.data()), size_(args.size()) {}

  const Arg* begin() const { return data_; }
  const Arg* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }

 private:
  const Arg* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One recorded key/value annotation: an interned key plus a typed value
/// (16 bytes). Values are formatted only on export, see ArgType.
class TraceArg {
 public:
  TraceArg() = default;
  /// A string-valued arg (interns both strings).
  TraceArg(std::string_view key, std::string_view value);
  /// Record an emit-side arg, interning its strings.
  explicit TraceArg(const Arg& arg);
  /// A counter sample's value (ArgType::kNumber).
  static TraceArg number(std::string_view key, double value);

  Label key;

  /// The value if string-typed; the empty label otherwise.
  Label text() const {
    return type_ == ArgType::kString ? Label::from_id(label_id()) : Label();
  }
  /// Integer value: typed integers directly, string values parsed (traces
  /// read back from JSONL carry every value as a string). False if the
  /// value is not a non-negative integer.
  bool to_u64(std::uint64_t& out) const;
  /// Numeric value: typed numbers directly (full precision), string values
  /// parsed. False if the value is not a number.
  bool to_double(double& out) const;
  /// The value as the exporters write it (without quotes or escaping).
  std::string value() const;
  /// Append the JSON-escaped value (without quotes) to `out`.
  void append_escaped(std::string& out) const;

 private:
  std::uint32_t label_id() const { return static_cast<std::uint32_t>(bits_); }

  ArgType type_ = ArgType::kString;
  std::uint8_t precision_ = 0;
  std::uint64_t bits_ = 0;  ///< label id, integer, or double bits, by type
};

/// A recorded event's args. Events inside an EventBuffer view the chunk's
/// arg arena; any copy of an event (to_vector, read_jsonl, a test's own
/// list) owns a private copy of its args, so copies never dangle.
class TraceArgs {
 public:
  TraceArgs() = default;
  TraceArgs(std::initializer_list<TraceArg> args) { assign(args.begin(), args.size()); }
  TraceArgs(const std::vector<TraceArg>& args) { assign(args.data(), args.size()); }
  TraceArgs(const TraceArgs& other) { assign(other.data_, other.size_); }
  TraceArgs(TraceArgs&& other) noexcept
      : data_(other.data_), size_(other.size_), owned_(other.owned_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.owned_ = false;
  }
  TraceArgs& operator=(TraceArgs other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(owned_, other.owned_);
    return *this;
  }
  ~TraceArgs() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const TraceArg& operator[](std::size_t i) const { return data_[i]; }
  const TraceArg* begin() const { return data_; }
  const TraceArg* end() const { return data_ + size_; }

 private:
  friend class EventBuffer;
  /// A non-owning view (the buffer's arena keeps the args alive).
  static TraceArgs view(const TraceArg* data, std::uint32_t size) {
    TraceArgs args;
    args.data_ = data;
    args.size_ = size;
    return args;
  }
  void assign(const TraceArg* data, std::size_t size);
  void release();

  const TraceArg* data_ = nullptr;
  std::uint32_t size_ = 0;
  bool owned_ = false;
};

struct TraceEvent {
  double t = 0.0;          ///< seconds since run start (virtual or wall clock)
  std::uint64_t span = 0;  ///< nonzero pairs kBegin/kEnd
  std::uint64_t run = 0;   ///< trial index (TraceRecorder::next_run)
  TraceArgs args;
  Label category;  ///< pipeline stage: fault|detect|oracle|recover|restart|proc|tree|sim
  Label name;      ///< event name, e.g. "fd.report", "restart:ses"
  Label track;     ///< emitting subsystem: "board", "fd", "rec", "pm", "posix", ...
  EventKind kind = EventKind::kInstant;

  /// The arg with this key, or nullptr.
  const TraceArg* find_arg(Label key) const;
  /// The string value of an arg; the empty label if absent or not a string.
  Label text_arg(Label key) const;
  /// Formatted value of an arg, or `fallback` if absent.
  std::string arg_or(std::string_view key, std::string_view fallback = "") const;
};

/// The compact-event footprint: a recorded event is at most one cache line.
static_assert(sizeof(TraceEvent) <= 64, "TraceEvent must stay compact");
static_assert(sizeof(TraceArg) <= 16, "TraceArg must stay compact");

/// Chunked append-only event storage. A flat std::vector<TraceEvent>
/// re-moves every stored event each time it doubles; chunking appends into
/// fixed-capacity blocks, so a recorded event is never moved again. Each
/// chunk owns the arena its events' args live in. Merging one buffer into
/// another (the parallel runner joining per-trial recorders) splices whole
/// chunks, arenas included, instead of copying events. Iteration order is
/// emission order, exactly like the vector it replaces.
class EventBuffer {
 public:
  /// Events per chunk: big enough to amortize the allocation, small enough
  /// that short traces stay cheap.
  static constexpr std::size_t kChunkCapacity = 4096;

  /// Append a copy of `event`, its args copied into the chunk's arena. The
  /// offsets rebase the copy's span id (if nonzero) and run index, as
  /// rebase() does in place.
  void push_back(const TraceEvent& event, std::uint64_t span_offset = 0,
                 std::uint64_t run_offset = 0);
  /// Record path: append an event built from labels and emit-side args.
  void emplace(double t, EventKind kind, Label category, Label name, Label track,
               std::uint64_t span, std::uint64_t run, Args args);
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Random access (tests, spot checks). O(log #chunks).
  const TraceEvent& operator[](std::size_t index) const;
  void clear();

  /// Flat copy, for consumers that outlive the buffer (TracedTrial).
  std::vector<TraceEvent> to_vector() const;

  /// Add `span_offset` to every nonzero span id and `run_offset` to every
  /// run index, in place (the merge rebase — integers only, no copies).
  void rebase(std::uint64_t span_offset, std::uint64_t run_offset);

  /// Steal every event of `other`, appending in order. Chunk splice: O(#chunks
  /// of other), no per-event work. `other` is left empty.
  void splice_from(EventBuffer&& other);

  /// Forward iteration in emission order (range-for compatible).
  class const_iterator {
   public:
    using value_type = TraceEvent;
    using reference = const TraceEvent&;

    reference operator*() const;
    const TraceEvent* operator->() const { return &**this; }
    const_iterator& operator++();
    bool operator==(const const_iterator& other) const {
      return chunk_ == other.chunk_ && pos_ == other.pos_;
    }
    bool operator!=(const const_iterator& other) const { return !(*this == other); }

   private:
    friend class EventBuffer;
    const_iterator(const EventBuffer* buffer, std::size_t chunk, std::size_t pos)
        : buffer_(buffer), chunk_(chunk), pos_(pos) {}
    const EventBuffer* buffer_ = nullptr;
    std::size_t chunk_ = 0;
    std::size_t pos_ = 0;
  };
  const_iterator begin() const { return const_iterator{this, 0, 0}; }
  const_iterator end() const { return const_iterator{this, chunks_.size(), 0}; }

 private:
  /// Stable-address storage for a chunk's args: fixed blocks, never moved.
  class ArgArena {
   public:
    TraceArg* allocate(std::size_t count);

   private:
    struct Free {
      void operator()(TraceArg* block) const;
    };
    static constexpr std::size_t kBlockArgs = 4096;
    std::vector<std::unique_ptr<TraceArg, Free>> blocks_;
    std::size_t used_ = 0;      ///< args handed out from the last block
    std::size_t capacity_ = 0;  ///< size of the last block
  };

  struct Chunk {
    std::uint64_t start = 0;  ///< global index of the chunk's first event
    std::vector<TraceEvent> events;
    ArgArena args;
  };

  /// Append a default event whose args view `arg_count` fresh arena slots
  /// (returned in `args`, to be constructed by the caller).
  TraceEvent& append(std::size_t arg_count, TraceArg*& args);

  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
};

/// Append-only event log plus aggregate counters and sample sets.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t max_events = kDefaultMaxEvents);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // --- Emission ----------------------------------------------------------
  void instant(double t, std::string_view category, std::string_view name,
               std::string_view track, Args args = {});
  /// Open a span; returns its id (0 is never a valid span id).
  std::uint64_t begin(double t, std::string_view category, std::string_view name,
                      std::string_view track, Args args = {});
  /// Close a span opened by begin(); category/name/track are replayed from
  /// the matching begin. Unknown ids are dropped (the begin may have been
  /// evicted by the event cap).
  void end(double t, std::uint64_t span, Args args = {});
  void counter(double t, std::string_view name, double value, std::string_view track);

  // --- Aggregate metrics -------------------------------------------------
  void incr(std::string_view name, std::uint64_t delta = 1);
  void observe(std::string_view name, double value);
  std::uint64_t count(std::string_view name) const;
  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, util::SampleStats, std::less<>>& samples() const {
    return samples_;
  }
  /// Human-readable dump of all counters and sample percentiles.
  std::string metrics_summary() const;

  // --- Run separation ----------------------------------------------------
  /// Start a new run (trial); subsequent events carry the new run index.
  /// Runs become separate process tracks in the Chrome trace export.
  void next_run() { ++run_; }
  std::uint64_t run() const { return run_; }

  // --- Access ------------------------------------------------------------
  const EventBuffer& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Append another recorder's events, counters, samples and drop count,
  /// rebasing its run indices and span ids past everything this recorder
  /// has issued — exactly the numbering a serial interleaving (this
  /// recorder recording `other`'s trials after its own) would have
  /// produced. Merging per-trial recorders in trial order therefore yields
  /// a byte-identical export regardless of how many threads recorded them
  /// (the parallel runner's determinism contract, src/exp/runner.h).
  void merge_from(const TraceRecorder& other);
  /// Destructive merge: same semantics and resulting bytes, but when the
  /// events fit under the cap they are rebased in place and spliced over
  /// chunk-wise — no per-event copies. The parallel runner uses this on its
  /// per-trial recorders, which are dead after the merge anyway.
  void merge_from(TraceRecorder&& other);

  /// Per-event simulator tracing ("sim" category) is opt-in: a busy run
  /// fires millions of kernel events and would swamp the recovery signal.
  void set_sim_events(bool enabled) { sim_events_ = enabled; }
  bool sim_events() const { return sim_events_; }

  // --- Export (formats specified in docs/TRACING.md) ---------------------
  /// One JSON object per line.
  void write_jsonl(std::ostream& out) const;
  /// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev).
  void write_chrome_trace(std::ostream& out) const;

  static constexpr std::size_t kDefaultMaxEvents = 4'000'000;

 private:
  struct SpanLabels {
    Label category, name, track;
  };

  /// Record one event unless the cap is reached.
  void push(double t, EventKind kind, const SpanLabels& labels,
            std::uint64_t span, Args args);

  /// Merge bookkeeping shared by both merge_from overloads (span/run
  /// counters, drop counts, aggregate counters and samples).
  void merge_metadata_from(const TraceRecorder& other);

  std::size_t max_events_;
  bool sim_events_ = false;
  std::uint64_t next_span_ = 1;
  std::uint64_t run_ = 0;
  std::uint64_t dropped_ = 0;
  EventBuffer events_;
  /// Open spans: id -> labels of the begin, replayed into the end event.
  std::unordered_map<std::uint64_t, SpanLabels> open_spans_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, util::SampleStats, std::less<>> samples_;
};

/// Serialize an event list in the JSONL schema (one object per line);
/// TraceRecorder::write_jsonl delegates here. Useful for event lists that
/// no longer live in a recorder (run_trial_traced captures, checker tests).
void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out);
void write_jsonl(const EventBuffer& events, std::ostream& out);

/// Parse events back from the JSONL export (the subset write_jsonl emits).
/// Malformed lines are skipped. Args come back string-typed. Round-trip
/// property: write_jsonl then read_jsonl then write_jsonl reproduces the
/// bytes exactly.
std::vector<TraceEvent> read_jsonl(std::istream& in);

// --- Thread-local recorder ------------------------------------------------
// Instrumented code calls the free functions below; they no-op (fast) while
// no recorder is installed. TimePoint overloads serve simulation code.
// Installation is per thread: a recorder installed on the main thread is
// invisible to worker threads (each experiment-runner trial installs its
// own), so a recorder never sees concurrent emitters.

/// Recorder installed on the calling thread, or nullptr.
TraceRecorder* recorder();
/// Install (or, with nullptr, remove) the calling thread's recorder.
/// Returns the previously installed recorder.
TraceRecorder* set_recorder(TraceRecorder* rec);

inline bool enabled() { return recorder() != nullptr; }

void instant(util::TimePoint t, std::string_view category, std::string_view name,
             std::string_view track, Args args = {});
std::uint64_t begin_span(util::TimePoint t, std::string_view category,
                         std::string_view name, std::string_view track,
                         Args args = {});
void end_span(util::TimePoint t, std::uint64_t span, Args args = {});
void incr(std::string_view name, std::uint64_t delta = 1);
void observe(std::string_view name, double value);
void next_run();

/// RAII install/restore, for benches and tests.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(TraceRecorder& rec) : previous_(set_recorder(&rec)) {}
  ~ScopedRecorder() { set_recorder(previous_); }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  TraceRecorder* previous_;
};

}  // namespace mercury::obs
