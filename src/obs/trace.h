// Recovery-path tracing (schema documented in docs/TRACING.md).
//
// The paper's contribution is a timing argument: recovery time = detection
// latency + restart-policy decision + per-component restart durations. The
// benches report end-to-end numbers; this subsystem records *where inside a
// recovery the time went*. Every stage of the pipeline — fault manifestation,
// detector suspicion/report, oracle decision, recoverer action, per-component
// restart — emits structured events into one TraceRecorder, from which
// the JSONL exporter writes the one trace file on disk (`mercury_ctl chrome`
// renders its Chrome trace-event view) and the phase analysis
// (obs/phases.h) rebuilds per-recovery breakdowns.
//
// Design constraints:
//   * Emitters timestamp events themselves (virtual simulation time or wall
//     time), so one recorder serves both the simulator and POSIX backends.
//   * Instrumentation is a thread-locally installable pointer, one per
//     thread: with no recorder installed every emit site is a single
//     pointer compare. Emit-side args (obs::Arg) are views and plain
//     numbers, so building them costs nothing either; emit sites that would
//     have to build a string (a join, a concatenation) guard it with
//     obs::enabled(). Each simulation runs single-threaded on its own
//     thread; the parallel experiment runner (src/exp) installs a private
//     recorder per trial and merges the buffers afterwards, so no recorder
//     instance is ever shared across threads.
//   * Span begin/end pairing is by id, so overlapping recoveries (escalation
//     chains, concurrent group members) nest correctly.
//   * A recorded event is compact (docs/TRACING.md "In-memory
//     representation"): its strings are Labels, handles into a process-wide
//     intern pool, and the buffer stores it as a byte record of varint ids
//     and typed arg values. Numbers are formatted only by the exporters,
//     each in the exact format the schema specifies.
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/time.h"

namespace mercury::obs {

/// Event kinds, mirroring the Chrome trace-event phases we export to.
enum class EventKind : std::uint8_t {
  kInstant,  ///< point event ("ph":"i")
  kBegin,    ///< span open ("ph":"B"); paired with kEnd by `span`
  kEnd,      ///< span close ("ph":"E")
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
  friend class EventBuffer;
  static Label from_id(std::uint32_t id) {
    Label label;
    label.id_ = id;
    return label;
  }

  std::uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& out, Label label);

/// Number of distinct strings interned so far (the empty string and the
/// event shapes EventBuffer interns included). Grows only with the set of
/// distinct labels and emit sites, never with the event count.
std::size_t interned_label_count();

// --- Args -------------------------------------------------------------------

/// How an arg value is stored and formatted. Every value exports as a JSON
/// string; only the in-memory form differs.
enum class ArgType : std::uint8_t {
  kString,    ///< interned Label
  kUnsigned,  ///< std::uint64_t, formatted like std::to_string
  kSigned,    ///< std::int64_t, formatted like std::to_string
  kFixed,     ///< double with fixed digits, formatted like util::format_fixed
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

  Label key;

  /// The value if string-typed; the empty label otherwise.
  Label text() const {
    return type_ == ArgType::kString ? Label::from_id(label_id()) : Label();
  }
  /// Integer value: typed integers directly, string values parsed (an emit
  /// site may pass a number as text). False if the value is not a
  /// non-negative integer.
  bool to_u64(std::uint64_t& out) const;
  /// Numeric value: typed numbers directly (full precision), string values
  /// parsed. False if the value is not a number.
  bool to_double(double& out) const;
  /// The value as the exporters write it (without quotes or escaping).
  std::string value() const;
  /// Append the JSON-escaped value (without quotes) to `out`.
  void append_escaped(std::string& out) const;

  /// Same key, type, precision and value bits.
  bool operator==(const TraceArg&) const = default;

 private:
  friend class EventBuffer;
  std::uint32_t label_id() const { return static_cast<std::uint32_t>(bits_); }

  ArgType type_ = ArgType::kString;
  std::uint8_t precision_ = 0;
  std::uint64_t bits_ = 0;  ///< label id, integer, or double bits, by type
};

/// A recorded event's args. An event always owns its args: the buffer
/// keeps them encoded (EventBuffer) and decodes them into this vector.
using TraceArgs = std::vector<TraceArg>;

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

/// Append-only event storage as a log of variable-length byte records
/// (format in docs/TRACING.md "In-memory representation"). What an emit
/// site fixes (kind, category, name, track, each arg's key, type and
/// precision) is the event's shape, interned once in the label pool; a
/// record holds its shape id, span, run and integer args as LEB128 varints
/// and doubles as their raw bytes, so a Table-1 fault event takes about 17
/// bytes and decodes to exactly the values it was recorded with. Records go
/// into fixed-size blocks that are never moved or grown; a buffer's first
/// block is small and each new one doubles, up to a cap. Merging one buffer
/// into another (the parallel runner joining per-trial recorders) rebases
/// the source by per-block offsets and splices whole blocks, so neither
/// touches a record. Iteration order is emission order.
class EventBuffer {
 private:
  /// A fixed-size run of records sharing one rebase.
  struct Block {
    std::uint64_t start = 0;        ///< global index of the block's first record
    std::uint64_t span_offset = 0;  ///< added to every nonzero span on decode
    std::uint64_t run_offset = 0;   ///< added to every run on decode
    std::unique_ptr<std::uint8_t[]> bytes;
    std::uint32_t capacity = 0;
    std::uint32_t used = 0;   ///< bytes of records written
    std::uint32_t count = 0;  ///< records written
  };

  /// Decode the record at `p` of `block` into `out`; returns the byte just
  /// past it. `shape` names the shape whose fields `out` already holds (0:
  /// none), so a run of records of one shape reads only their values.
  static const std::uint8_t* decode(const Block& block, const std::uint8_t* p,
                                    TraceEvent& out, std::uint32_t& shape);

 public:
  /// Append a copy of `event`. The offsets rebase the copy's span id (if
  /// nonzero) and run index, as rebase() does.
  void push_back(const TraceEvent& event, std::uint64_t span_offset = 0,
                 std::uint64_t run_offset = 0);
  /// Record path: append an event built from labels and emit-side args.
  void emplace(double t, EventKind kind, Label category, Label name, Label track,
               std::uint64_t span, std::uint64_t run, Args args);
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Random access (tests, spot checks): a decoded copy that owns its args.
  /// O(log #blocks + records in the block).
  TraceEvent operator[](std::size_t index) const;
  void clear();

  /// Flat copy, for consumers that outlive the buffer (TracedTrial).
  std::vector<TraceEvent> to_vector() const;

  /// Add `span_offset` to every nonzero span id and `run_offset` to every
  /// run index (the merge rebase). O(#blocks): the offsets are kept per
  /// block and applied when a record is decoded.
  void rebase(std::uint64_t span_offset, std::uint64_t run_offset);

  /// Steal every event of `other`, appending in order. Block splice: O(#blocks
  /// of other), no per-event work. `other` is left empty.
  void splice_from(EventBuffer&& other);

  /// Heap bytes the buffer holds: its blocks plus their directory.
  std::size_t memory_bytes() const;

  /// Forward iteration in emission order (range-for compatible). The
  /// iterator decodes each record into an event it holds, so a reference
  /// from operator* stays valid only until the next ++.
  class const_iterator {
   public:
    using value_type = TraceEvent;
    using reference = const TraceEvent&;

    reference operator*() const { return event_; }
    const TraceEvent* operator->() const { return &event_; }
    const_iterator& operator++() {
      pos_ = next_;
      if (pos_ == block_end_) {
        ++block_;
        enter_block();
      } else {
        next_ = decode(*block_, pos_, event_, shape_);
      }
      return *this;
    }
    bool operator==(const const_iterator& other) const { return pos_ == other.pos_; }
    bool operator!=(const const_iterator& other) const { return !(*this == other); }

   private:
    friend class EventBuffer;
    /// Positioned on the first record of `block`, or at the end if it is
    /// `last`.
    const_iterator(const Block* block, const Block* last)
        : block_(block), last_(last) {
      enter_block();
    }
    /// Decode the first record of `block_`, or mark the end.
    void enter_block();

    const Block* block_ = nullptr;
    const Block* last_ = nullptr;         ///< one past the buffer's last block
    const std::uint8_t* pos_ = nullptr;   ///< the current record; nullptr at the end
    const std::uint8_t* next_ = nullptr;  ///< just past it
    const std::uint8_t* block_end_ = nullptr;
    TraceEvent event_;
    std::uint32_t shape_ = 0;  ///< the shape event_ holds, see decode()
  };
  const_iterator begin() const {
    return const_iterator{blocks_.data(), blocks_.data() + blocks_.size()};
  }
  const_iterator end() const {
    return const_iterator{blocks_.data() + blocks_.size(), blocks_.data() + blocks_.size()};
  }

 private:
  static constexpr std::size_t kFirstBlockBytes = 512;
  static constexpr std::size_t kMaxBlockBytes = 64 * 1024;

  /// Encode one record at the end of the log, interning its shape; `args`
  /// walks `arg_count` TraceArgs or emit-side Args.
  template <typename ArgIt>
  void append(double t, EventKind kind, Label category, Label name, Label track,
              std::uint64_t span, std::uint64_t run, ArgIt args,
              std::size_t arg_count);

  std::vector<Block> blocks_;
  std::size_t size_ = 0;
};

/// Append-only event log.
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

  // --- Run separation ----------------------------------------------------
  /// Start a new run (trial); subsequent events carry the new run index.
  /// Runs become separate process tracks in the Chrome trace export.
  void next_run() { ++run_; }
  std::uint64_t run() const { return run_; }

  // --- Access ------------------------------------------------------------
  const EventBuffer& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  void clear();

  /// Take over another recorder's events and drop count, rebasing its run
  /// indices and span ids past everything this recorder has issued —
  /// exactly the numbering a serial interleaving (this recorder recording
  /// `other`'s trials after its own) would have produced. Merging
  /// per-trial recorders in trial order therefore yields a byte-identical
  /// export regardless of how many threads recorded them (the parallel
  /// runner's determinism contract, src/exp/runner.h). When the events fit
  /// under the cap they are rebased in place and spliced over block-wise,
  /// with no per-event work; otherwise they are copied one by one and those
  /// past the cap dropped, as serial recording would have dropped them.
  /// `other` is dead afterwards.
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

  std::size_t max_events_;
  bool sim_events_ = false;
  std::uint64_t next_span_ = 1;
  std::uint64_t run_ = 0;
  std::uint64_t dropped_ = 0;
  EventBuffer events_;
  /// Open spans: id -> labels of the begin, replayed into the end event.
  std::unordered_map<std::uint64_t, SpanLabels> open_spans_;
};

/// Serialize an event log in the JSONL schema (one object per line);
/// TraceRecorder::write_jsonl delegates here.
void write_jsonl(const EventBuffer& events, std::ostream& out);

/// Chrome trace-event JSON for an event log; TraceRecorder's member and
/// `mercury_ctl chrome` (over a read_jsonl'd file) delegate here.
void write_chrome_trace(const EventBuffer& events, std::ostream& out);

/// Parse events back from the JSONL export (the subset write_jsonl emits)
/// into the same compact form a live recorder keeps. Malformed lines are
/// skipped. An arg value comes back as an unsigned, signed or fixed number
/// when formatting that number gives back exactly its text, and as a string
/// label otherwise, so per-event numbers (fault ids, timings) never enter
/// the intern pool. Round-trip property: write_jsonl then read_jsonl then
/// write_jsonl reproduces the bytes exactly.
EventBuffer read_jsonl(std::istream& in);

// Kept only because the frozen end-to-end benchmark (perfbench/) calls it
// on station::TracedTrial::events; every other consumer takes an
// EventBuffer. The vector is copied into one first.
void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& out);

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
