// Recovery-path tracing (src/obs): recorder semantics, export round-trips,
// and the phase decomposition on a real simulated crash -> recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/mercury_trees.h"
#include "core/transformations.h"
#include "obs/phases.h"
#include "obs/trace.h"
#include "station/experiment.h"
#include "util/rng.h"
#include "util/strings.h"

namespace mercury::obs {
namespace {

using util::TimePoint;

TEST(TraceRecorder, RecordsEventsInEmissionOrder) {
  TraceRecorder rec;
  rec.instant(1.0, "fault", "fault.manifest", "board", {{"manifest", "ses"}});
  rec.instant(2.0, "detect", "fd.report", "fd", {{"component", "ses"}});

  ASSERT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.events()[0].name, "fault.manifest");
  EXPECT_EQ(rec.events()[0].kind, EventKind::kInstant);
  EXPECT_EQ(rec.events()[0].arg_or("manifest"), "ses");
  EXPECT_EQ(rec.events()[1].name, "fd.report");
  EXPECT_EQ(rec.events()[1].arg_or("component"), "ses");
}

TEST(TraceRecorder, SpansNestAndReplayMetadataOnEnd) {
  TraceRecorder rec;
  const auto outer = rec.begin(1.0, "recover", "rec.restart", "rec",
                               {{"component", "ses"}});
  const auto inner = rec.begin(1.5, "restart", "restart:ses", "pm");
  EXPECT_NE(outer, 0u);
  EXPECT_NE(inner, 0u);
  EXPECT_NE(outer, inner);

  rec.end(3.0, inner, {{"outcome", "ready"}});
  rec.end(3.5, outer);

  ASSERT_EQ(rec.events().size(), 4u);
  const TraceEvent& inner_end = rec.events()[2];
  EXPECT_EQ(inner_end.kind, EventKind::kEnd);
  // category/name/track replayed from the matching begin.
  EXPECT_EQ(inner_end.category, "restart");
  EXPECT_EQ(inner_end.name, "restart:ses");
  EXPECT_EQ(inner_end.track, "pm");
  EXPECT_EQ(inner_end.span, inner);
  EXPECT_EQ(inner_end.arg_or("outcome"), "ready");

  const TraceEvent& outer_end = rec.events()[3];
  EXPECT_EQ(outer_end.name, "rec.restart");
  EXPECT_EQ(outer_end.span, outer);
}

TEST(TraceRecorder, EndOfUnknownSpanIsDropped) {
  TraceRecorder rec;
  rec.end(1.0, 999);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, EventCapCountsDropped) {
  TraceRecorder rec(/*max_events=*/2);
  rec.instant(1.0, "fault", "a", "t");
  rec.instant(2.0, "fault", "b", "t");
  rec.instant(3.0, "fault", "c", "t");
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(TraceRecorder, RunIndexStampsSubsequentEvents) {
  TraceRecorder rec;
  rec.instant(1.0, "fault", "a", "t");
  rec.next_run();
  rec.instant(1.0, "fault", "b", "t");
  EXPECT_EQ(rec.events()[0].run, 0u);
  EXPECT_EQ(rec.events()[1].run, 1u);
}

// --- EventBuffer byte records -----------------------------------------------
// Events are stored as byte records in blocks that start small and double
// (no re-moves on growth, merge by block splice). These pin the behavior
// across many block seams.

TEST(EventBuffer, IndexingAndIterationCrossChunkBoundaries) {
  EventBuffer buffer;
  // About 15 bytes a record: this fills every block size up to the cap and
  // several capped blocks.
  const std::size_t total = 20'007;
  for (std::size_t i = 0; i < total; ++i) {
    TraceEvent event;
    event.t = static_cast<double>(i);
    event.name = Label("e" + std::to_string(i % 50));
    buffer.push_back(std::move(event));
  }
  ASSERT_EQ(buffer.size(), total);
  // Random access: every index of the small leading blocks, then a stride.
  for (std::size_t i = 0; i < total; i += i < 2000 ? 1 : 97) {
    EXPECT_EQ(buffer[i].t, static_cast<double>(i)) << i;
    EXPECT_EQ(buffer[i].name, "e" + std::to_string(i % 50)) << i;
  }
  EXPECT_EQ(buffer[total - 1].t, static_cast<double>(total - 1));
  // Full iteration visits every event in emission order.
  std::size_t index = 0;
  for (const TraceEvent& event : buffer) {
    ASSERT_EQ(event.t, static_cast<double>(index));
    ++index;
  }
  EXPECT_EQ(index, total);
  EXPECT_EQ(buffer.to_vector().size(), total);
}

TEST(EventBuffer, SpliceMovesEverythingAndEmptiesTheSource) {
  EventBuffer a;
  EventBuffer b;
  const std::size_t per_side = 5'003;
  for (std::size_t i = 0; i < per_side; ++i) {
    TraceEvent ea;
    ea.t = static_cast<double>(i);
    a.push_back(std::move(ea));
    TraceEvent eb;
    eb.t = 1000.0 + static_cast<double>(i);
    b.push_back(std::move(eb));
  }
  a.splice_from(std::move(b));
  EXPECT_EQ(a.size(), 2 * per_side);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_EQ(a[per_side].t, 1000.0);          // first spliced event
  EXPECT_EQ(a[2 * per_side - 1].t, 1000.0 + per_side - 1);
}

/// Bit-exact event equality (a NaN or -0.0 timestamp must come back as
/// itself).
bool same_event(const TraceEvent& a, const TraceEvent& b) {
  return std::bit_cast<std::uint64_t>(a.t) == std::bit_cast<std::uint64_t>(b.t) &&
         a.span == b.span && a.run == b.run && a.kind == b.kind &&
         a.category == b.category && a.name == b.name && a.track == b.track &&
         a.args == b.args;
}

std::string jsonl_of(const auto& events) {
  std::ostringstream out;
  write_jsonl(events, out);
  return out.str();
}

TEST(EventBuffer, RandomizedDifferentialAgainstVectorModel) {
  // Property fuzz: random emplace/push_back/rebase/splice/clear ops on an
  // EventBuffer, mirrored on a std::vector<TraceEvent>. Appends honor an
  // event cap the way TraceRecorder does (drops past it; a splice that
  // would cross it falls back to per-event copies). After every op the
  // buffer must read back exactly the model: iteration, operator[],
  // to_vector and the JSONL bytes. Events come from 1500 emit sites, so the
  // records draw that many distinct shapes: every arg type, arg counts past
  // 63, precisions past 31, begins and ends with and without spans.
  util::Rng rng(2026);
  const auto pick = [&](std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(0, hi - 1));
  };
  const std::vector<std::string> texts = {"",      "ses",   "fault.manifest", "board",
                                          "q\"uo", "t\tab", "vé",             "a\\b"};
  const std::vector<std::uint64_t> unsigneds = {
      0, 1, 127, 128, 16383, 16384, 0xFFFFFFFFull, 1ull << 63,
      std::numeric_limits<std::uint64_t>::max(), std::numeric_limits<std::uint64_t>::max() - 1};
  const std::vector<std::int64_t> signeds = {0,   -1,  1,   -64, 63, -65, 64,
                                             std::numeric_limits<std::int64_t>::min(),
                                             std::numeric_limits<std::int64_t>::max()};
  const auto u64 = [&] {
    return rng.chance(0.5) ? unsigneds[pick(static_cast<std::int64_t>(unsigneds.size()))]
                           : rng.next_u64() >> pick(64);
  };
  const auto i64 = [&] {
    return rng.chance(0.5) ? signeds[pick(static_cast<std::int64_t>(signeds.size()))]
                           : static_cast<std::int64_t>(rng.next_u64()) >> pick(64);
  };
  const auto real = [&] {
    switch (pick(6)) {
      case 0: return -0.0;
      case 1: return std::bit_cast<double>(0x7FF8'0000'0000'0001ull | (rng.next_u64() >> 14));
      case 2: return std::bit_cast<double>(0xFFF0'0000'0000'0001ull);  // signalling, negative
      case 3: return std::numeric_limits<double>::infinity();
      case 4: return std::bit_cast<double>(rng.next_u64());
      default: return rng.uniform(-1e6, 1e6);
    }
  };
  // Spans and runs stay far below 2^64 so no rebase wraps them.
  const auto span_id = [&] { return rng.chance(0.3) ? 0 : rng.next_u64() >> (2 + pick(60)); };
  const auto offset = [&] { return rng.chance(0.3) ? 0 : rng.next_u64() >> (24 + pick(40)); };
  const auto text = [&]() -> const std::string& {
    return texts[pick(static_cast<std::int64_t>(texts.size()))];
  };

  // The emit sites events come from: each fixes a shape (kind, labels, and
  // each arg's key, type and precision) and the events vary the values.
  struct Site {
    EventKind kind;
    Label category, name, track;
    std::vector<std::string> keys;
    std::vector<ArgType> types;
    std::vector<int> precisions;
  };
  std::vector<Site> sites(1'500);
  for (Site& site : sites) {
    site.kind = static_cast<EventKind>(pick(3));
    site.category = Label(text());
    site.name = Label(text());
    site.track = Label(text());
    for (std::size_t i = rng.chance(0.02) ? 60 + pick(10) : pick(6); i > 0; --i) {
      site.keys.push_back(rng.chance(0.5) ? text() : "key" + std::to_string(pick(200)));
      site.types.push_back(static_cast<ArgType>(pick(4)));
      site.precisions.push_back(
          site.types.back() != ArgType::kFixed ? 0
          : rng.chance(0.1)                    ? static_cast<int>(32 + pick(224))
                                               : static_cast<int>(pick(41)));
    }
  }
  const auto site = [&]() -> const Site& {
    return sites[pick(static_cast<std::int64_t>(sites.size()))];
  };
  // The emit-side args of one event from `from`.
  const auto emit_args = [&](const Site& from) {
    std::vector<Arg> args;
    for (std::size_t i = 0; i < from.keys.size(); ++i) {
      const std::string_view key = from.keys[i];
      switch (from.types[i]) {
        case ArgType::kString: args.emplace_back(key, std::string_view(text())); break;
        case ArgType::kUnsigned: args.emplace_back(key, u64()); break;
        case ArgType::kSigned: args.emplace_back(key, i64()); break;
        case ArgType::kFixed: args.emplace_back(key, Fixed{real(), from.precisions[i]}); break;
      }
    }
    return args;
  };
  const auto random_event = [&](const Site& from, const std::vector<Arg>& args) {
    TraceEvent event;
    event.t = real();
    event.kind = from.kind;
    event.category = from.category;
    event.name = from.name;
    event.track = from.track;
    event.span = span_id();
    event.run = rng.next_u64() >> (2 + pick(60));
    for (const Arg& arg : args) event.args.emplace_back(arg);
    return event;
  };
  const auto any_event = [&] {
    const Site& from = site();
    return random_event(from, emit_args(from));
  };
  const auto rebased = [](TraceEvent event, std::uint64_t span_offset,
                          std::uint64_t run_offset) {
    if (event.span != 0) event.span += span_offset;
    event.run += run_offset;
    return event;
  };

  constexpr std::size_t kCap = 400;
  EventBuffer buffer;
  std::vector<TraceEvent> model;
  std::uint64_t dropped = 0;
  std::uint64_t expected_dropped = 0;
  const auto has_room = [&] {
    if (buffer.size() < kCap) return true;
    ++dropped;
    return false;
  };
  const auto model_append = [&](TraceEvent event) {
    if (model.size() < kCap) {
      model.push_back(std::move(event));
    } else {
      ++expected_dropped;
    }
  };

  // With every string interned up front, the pool grows by the shapes the
  // records intern and nothing else.
  for (const Site& from : sites) {
    for (const std::string& key : from.keys) Label{key};
  }
  const std::size_t labels_before = interned_label_count();

  for (int op = 0; op < 10'000; ++op) {
    const std::size_t kind = pick(100);
    if (kind < 35) {  // record path
      const Site& from = site();
      const std::vector<Arg> args = emit_args(from);
      TraceEvent expected = random_event(from, args);
      if (has_room()) {
        buffer.emplace(expected.t, expected.kind, expected.category, expected.name,
                       expected.track, expected.span, expected.run, args);
      }
      model_append(std::move(expected));
    } else if (kind < 70) {  // copy path
      const TraceEvent event = any_event();
      const std::uint64_t span_offset = offset();
      const std::uint64_t run_offset = offset();
      if (has_room()) buffer.push_back(event, span_offset, run_offset);
      model_append(rebased(event, span_offset, run_offset));
    } else if (kind < 80) {  // rebase in place
      const std::uint64_t span_offset = offset();
      const std::uint64_t run_offset = offset();
      buffer.rebase(span_offset, run_offset);
      for (TraceEvent& event : model) event = rebased(event, span_offset, run_offset);
    } else if (kind < 97) {  // merge another buffer, maybe rebased first
      EventBuffer other;
      std::vector<TraceEvent> other_model;
      for (std::size_t i = pick(3) == 0 ? pick(200) : pick(12); i > 0; --i) {
        other_model.push_back(any_event());
        other.push_back(other_model.back());
        if (rng.chance(0.05)) {
          const std::uint64_t span_offset = offset();
          const std::uint64_t run_offset = offset();
          other.rebase(span_offset, run_offset);
          for (TraceEvent& event : other_model) event = rebased(event, span_offset, run_offset);
        }
      }
      const std::uint64_t span_offset = offset();
      const std::uint64_t run_offset = offset();
      for (const TraceEvent& event : other_model) {
        model_append(rebased(event, span_offset, run_offset));
      }
      if (buffer.size() + other.size() <= kCap) {
        other.rebase(span_offset, run_offset);
        buffer.splice_from(std::move(other));
        ASSERT_TRUE(other.empty()) << "op " << op;  // NOLINT(bugprone-use-after-move)
      } else {
        for (const TraceEvent& event : other) {
          if (has_room()) buffer.push_back(event, span_offset, run_offset);
        }
      }
    } else {
      buffer.clear();
      model.clear();
    }

    ASSERT_EQ(buffer.size(), model.size()) << "op " << op;
    ASSERT_EQ(dropped, expected_dropped) << "op " << op;
    std::size_t i = 0;
    for (const TraceEvent& event : buffer) {
      ASSERT_TRUE(same_event(event, model[i])) << "op " << op << " event " << i;
      ++i;
    }
    ASSERT_EQ(i, model.size()) << "op " << op;
    if (!model.empty()) {
      for (const std::size_t at : {std::size_t{0}, model.size() - 1,
                                   pick(static_cast<std::int64_t>(model.size()))}) {
        ASSERT_TRUE(same_event(buffer[at], model[at])) << "op " << op << " index " << at;
      }
    }
    const std::vector<TraceEvent> copy = buffer.to_vector();
    ASSERT_EQ(copy.size(), model.size()) << "op " << op;
    for (std::size_t k = 0; k < copy.size(); ++k) {
      ASSERT_TRUE(same_event(copy[k], model[k])) << "op " << op << " event " << k;
    }
    ASSERT_EQ(jsonl_of(buffer), jsonl_of(model)) << "op " << op;
  }
  EXPECT_GT(expected_dropped, 0u);
  EXPECT_GT(interned_label_count() - labels_before, 1'000u);  // distinct shapes
}

TEST(TraceExport, JsonlRoundTripReproducesEvents) {
  TraceRecorder rec;
  rec.instant(0.25, "fault", "fault.manifest", "board",
              {{"manifest", "ses"}, {"kind", "crash"}});
  const auto span = rec.begin(1.0, "recover", "rec.restart", "rec",
                              {{"cell", "R_[ses,str]"}, {"escalation", "0"}});
  rec.next_run();
  rec.end(2.0, span, {{"outcome", "cured"}});
  // Values that stress the escaping and number formatting.
  rec.instant(3.0000001, "sim", "weird \"quotes\"\n\ttabs \\ backslash", "sim",
              {{"k", "vé"}});

  std::ostringstream out;
  rec.write_jsonl(out);
  std::istringstream in(out.str());
  const EventBuffer back = read_jsonl(in);

  ASSERT_EQ(back.size(), rec.events().size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    const TraceEvent& a = rec.events()[i];
    const TraceEvent& b = back[i];
    EXPECT_DOUBLE_EQ(a.t, b.t) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.category, b.category) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.track, b.track) << i;
    EXPECT_EQ(a.span, b.span) << i;
    EXPECT_EQ(a.run, b.run) << i;
    ASSERT_EQ(a.args.size(), b.args.size()) << i;
    for (std::size_t j = 0; j < a.args.size(); ++j) {
      EXPECT_EQ(a.args[j].key, b.args[j].key);
      EXPECT_EQ(a.args[j].value(), b.args[j].value());
    }
  }
}

TEST(TraceExport, ReadJsonlSkipsMalformedLines) {
  std::istringstream in(
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"a\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "not json at all\n"
      // An unknown phase (counter events are not part of the schema).
      "{\"t\":1.5,\"ph\":\"C\",\"cat\":\"metric\",\"name\":\"active\","
      "\"track\":\"board\",\"span\":0,\"run\":0,\"args\":{\"value\":\"3\"}}\n"
      "{\"t\":2,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"b\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n");
  const auto events = read_jsonl(in);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

TEST(TraceExport, ReadJsonlSurvivesMalformedNumbersAndEscapes) {
  // Regression (ISSUE 3 satellite): these lines used to reach std::stod /
  // std::stoull and throw out of read_jsonl. Each must now simply be
  // skipped, with the surrounding good lines kept.
  const std::string good_a =
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"a\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n";
  const std::string good_b =
      "{\"t\":2,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"b\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n";
  std::istringstream in(
      good_a +
      // Timestamps that are sign/point/exponent tokens but not numbers.
      "{\"t\":-,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":.,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":1e,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      // Overflowing double exponent (stod would throw out_of_range).
      "{\"t\":1e999,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":0,\"args\":{}}\n"
      // 24-digit span / run overflow 64 bits (stoull would throw).
      "{\"t\":1,\"ph\":\"b\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":999999999999999999999999,\"run\":0,\"args\":{}}\n"
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":0,\"run\":999999999999999999999999,\"args\":{}}\n"
      // Negative span: not a digit sequence for an unsigned field.
      "{\"t\":1,\"ph\":\"b\",\"cat\":\"c\",\"name\":\"x\",\"track\":\"t\","
      "\"span\":-1,\"run\":0,\"args\":{}}\n"
      // Broken \u escapes: non-hex digits, and a truncated one at
      // end-of-string (used to read past the escape).
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"bad\\uZZZZesc\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n"
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"trunc\\u00\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n" +
      good_b);
  const auto events = read_jsonl(in);  // must not throw
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

TEST(TraceExport, ReadJsonlSurvivesSeededFuzz) {
  // Deterministic fuzz: random byte mutations of a valid line, plus raw
  // printable garbage. read_jsonl must never throw (the checked number /
  // escape parsing) or over-read (the sanitizer CI job watches that);
  // mutated lines are either parsed or skipped.
  util::Rng rng(20260806);
  const std::string valid =
      "{\"t\":1.5,\"ph\":\"b\",\"cat\":\"recover\",\"name\":\"rec.restart\","
      "\"track\":\"rec\",\"span\":42,\"run\":3,\"args\":{\"cell\":\"R_x\","
      "\"esc\\u0061lation\":\"0\"}}";
  for (int round = 0; round < 400; ++round) {
    std::string line = valid;
    const int mutations = static_cast<int>(rng.uniform_int(1, 6));
    for (int m = 0; m < mutations && !line.empty(); ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:  // flip a byte to random printable
          line[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:  // delete a byte (truncation mid-token, mid-escape, ...)
          line.erase(pos, 1);
          break;
        default:  // duplicate a byte
          line.insert(pos, 1, line[pos]);
          break;
      }
    }
    std::istringstream in(line + "\n");
    const auto events = read_jsonl(in);  // must not throw
    EXPECT_LE(events.size(), 1u);
  }
  // Pure garbage lines too.
  for (int round = 0; round < 100; ++round) {
    std::string line;
    const auto length = rng.uniform_int(0, 120);
    for (std::int64_t i = 0; i < length; ++i) {
      line.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    }
    std::istringstream in(line + "\n");
    EXPECT_LE(read_jsonl(in).size(), 1u);  // must not throw
  }
}

TEST(TraceExport, ReadJsonlDecodesValidUnicodeEscapes) {
  // The checked \u parser still has to accept real escapes, including
  // multi-byte code points, and encode them as UTF-8.
  std::istringstream in(
      "{\"t\":1,\"ph\":\"i\",\"cat\":\"c\",\"name\":\"caf\\u00e9 \\u2713\","
      "\"track\":\"t\",\"span\":0,\"run\":0,\"args\":{}}\n");
  const auto events = read_jsonl(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "café \u2713");
}

/// One JSONL line with the given args object body.
std::string jsonl_line(const std::string& args) {
  return "{\"t\":1,\"ph\":\"i\",\"cat\":\"fault\",\"name\":\"x\",\"track\":\"t\","
         "\"span\":0,\"run\":0,\"args\":{" + args + "}}\n";
}

TEST(TraceExport, ReadJsonlTypesNumbersOnlyWhenTheTextComesBackExactly) {
  // Each value is read as the typed number whose formatting reproduces its
  // text, or kept as a string; either way it re-exports byte for byte.
  const std::vector<std::pair<std::string, bool>> values = {
      {"0", true},          {"42", true},        {"18446744073709551615", true},
      {"-1", true},         {"-9223372036854775808", true},
      {"0.250", true},      {"21.123457", true}, {"-0.500", true},
      {"3.0", true},        {"ses", false},
      {"007", false},       {"-0", false},       {"+5", false},
      {"1e5", false},       {"1.", false},       {".5", false},
      {"18446744073709551616", false},           {"-9223372036854775809", false},
      {"0.1000000000000000000001", false},       {"inf", false},
      {"1,2", false},       {"R_[ses,str]", false}};
  std::string text;
  for (const auto& [value, typed] : values) text += jsonl_line("\"v\":\"" + value + "\"");
  std::istringstream in(text);
  const EventBuffer events = read_jsonl(in);
  ASSERT_EQ(events.size(), values.size());
  std::size_t i = 0;
  for (const TraceEvent& event : events) {
    const auto& [value, typed] = values[i++];
    ASSERT_EQ(event.args.size(), 1u);
    EXPECT_EQ(event.args[0].value(), value);
    EXPECT_EQ(event.args[0].text().empty(), typed) << value;
  }
  EXPECT_EQ(jsonl_of(events), text);
}

TEST(TraceFootprint, ReadingPerEventIdsDoesNotGrowTheInternPool) {
  // The Label contract: only a bounded vocabulary is interned. A trace's
  // per-event values (fault ids, timings) read back as numbers.
  std::string text;
  for (std::uint64_t id = 0; id < 10'000; ++id) {
    text += jsonl_line("\"id\":\"" + std::to_string(7'300'000'000 + id) +
                       "\",\"delay_s\":\"" + util::format_fixed(0.001 * id, 3) + "\"");
  }
  const std::size_t before = interned_label_count();
  std::istringstream in(text);
  const EventBuffer events = read_jsonl(in);
  ASSERT_EQ(events.size(), 10'000u);
  EXPECT_LT(interned_label_count() - before, 100u);
  EXPECT_EQ(jsonl_of(events), text);
}

TEST(TraceExport, ChromeTraceIsWellFormed) {
  TraceRecorder rec;
  const auto span = rec.begin(1.0, "recover", "rec.restart", "rec");
  rec.end(2.0, span);
  rec.instant(2.5, "fault", "fault.cured", "board");

  std::ostringstream out;
  rec.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  // Track naming metadata for the viewers.
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  // Timestamps are microseconds: t=1.0 s -> 1000000.
  EXPECT_NE(text.find("\"ts\":1000000"), std::string::npos);
  // Balanced braces/brackets is a cheap proxy for "parses".
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

TEST(TraceGlobals, FreeFunctionsNoOpWithoutRecorder) {
  ASSERT_EQ(recorder(), nullptr);
  // Must not crash or leak state.
  instant(TimePoint::from_seconds(1.0), "fault", "x", "t");
  const auto span = begin_span(TimePoint::from_seconds(1.0), "recover", "x", "t");
  EXPECT_EQ(span, 0u);
  end_span(TimePoint::from_seconds(2.0), span);
  next_run();
}

TEST(TraceGlobals, ScopedRecorderInstallsAndRestores) {
  ASSERT_EQ(recorder(), nullptr);
  TraceRecorder rec;
  {
    ScopedRecorder scoped(rec);
    EXPECT_EQ(recorder(), &rec);
    instant(TimePoint::from_seconds(1.0), "fault", "x", "t");
  }
  EXPECT_EQ(recorder(), nullptr);
  EXPECT_EQ(rec.events().size(), 1u);
}

TEST(TraceGlobals, TransformationsEmitTreeEvents) {
  TraceRecorder rec;
  ScopedRecorder scoped(rec);
  auto tree = core::make_tree_i();
  const auto augmented = core::depth_augment(tree, tree.root());
  ASSERT_TRUE(augmented.ok());
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].name, "tree.transform");
  EXPECT_EQ(rec.events()[0].arg_or("op"), "depth_augment");
  EXPECT_EQ(rec.events()[0].category, "tree");
}

// --- Phase decomposition on a real crash -> recovery ----------------------

class TracedTrial : public ::testing::Test {
 protected:
  station::TrialResult run(const std::string& component,
                           core::MercuryTree tree) {
    station::TrialSpec spec;
    spec.tree = tree;
    spec.oracle = station::OracleKind::kHeuristic;
    spec.fail_component = component;
    spec.seed = 11;
    ScopedRecorder scoped(rec_);
    return station::run_trial(spec);
  }

  TraceRecorder rec_;
};

TEST_F(TracedTrial, CrashProducesThePipelineEventSequence) {
  run(core::component_names::kSes, core::MercuryTree::kTreeIV);

  // Index of the first event with this name; the pipeline stages must appear
  // in causal order.
  const auto index_of = [&](const std::string& name, EventKind kind) {
    const auto& events = rec_.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].name == name && events[i].kind == kind) return i;
    }
    ADD_FAILURE() << "missing event " << name;
    return events.size();
  };

  const auto fault = index_of("fault.manifest", EventKind::kInstant);
  const auto suspect = index_of("fd.suspect", EventKind::kInstant);
  const auto report = index_of("fd.report", EventKind::kInstant);
  const auto choice = index_of("oracle.choice", EventKind::kInstant);
  const auto action_begin = index_of("rec.restart", EventKind::kBegin);
  const auto restart_begin = index_of("restart:ses", EventKind::kBegin);
  const auto restart_end = index_of("restart:ses", EventKind::kEnd);
  const auto action_end = index_of("rec.restart", EventKind::kEnd);
  const auto cured = index_of("fault.cured", EventKind::kInstant);

  EXPECT_LT(fault, suspect);
  EXPECT_LT(suspect, report);
  EXPECT_LT(report, choice);
  EXPECT_LT(choice, action_begin);
  EXPECT_LT(action_begin, restart_begin);
  EXPECT_LT(restart_begin, restart_end);
  EXPECT_LT(restart_end, action_end);
  EXPECT_LT(restart_end, cured);

  // One crash, one report, one decision, one completed restart action.
  const auto count_of = [&](const std::string& name, EventKind kind) {
    std::size_t n = 0;
    for (const TraceEvent& event : rec_.events()) {
      if (event.name == name && event.kind == kind) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("fault.manifest", EventKind::kInstant), 1u);
  EXPECT_EQ(count_of("fault.cured", EventKind::kInstant), 1u);
  EXPECT_EQ(count_of("fd.report", EventKind::kInstant), 1u);
  EXPECT_EQ(count_of("oracle.choice", EventKind::kInstant), 1u);
  EXPECT_EQ(count_of("rec.restart", EventKind::kEnd), 1u);
}

TEST_F(TracedTrial, PhasesTileTheMeasuredRecoveryTime) {
  const auto result = run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  ASSERT_FALSE(result.timed_out);
  ASSERT_FALSE(result.hard_failure);

  const auto rows = recovery_phases(rec_.events());
  ASSERT_EQ(rows.size(), 1u);
  const RecoveryPhases& row = rows[0];
  EXPECT_EQ(row.component, "ses");
  EXPECT_TRUE(row.has_fault);
  EXPECT_FALSE(row.soft);
  EXPECT_EQ(row.escalation_level, 0);
  EXPECT_GT(row.detection(), 0.0);
  EXPECT_GT(row.decision(), 0.0);
  EXPECT_GT(row.execution(), 0.0);

  // The three phases tile fault -> cure, so they sum to end_to_end exactly.
  EXPECT_NEAR(row.detection() + row.decision() + row.execution(),
              row.end_to_end(), 1e-12);

  // And the trace-derived end-to-end matches the harness's measurement
  // (well inside the 1% acceptance tolerance).
  const double measured = result.recovery.to_seconds();
  EXPECT_NEAR(row.end_to_end(), measured, 0.01 * measured);
}

TEST_F(TracedTrial, PhaseTableSummarizesComponents) {
  run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  const std::string table = phase_table(recovery_phases(rec_.events()));
  EXPECT_NE(table.find("ses"), std::string::npos);
  EXPECT_NE(table.find("(all)"), std::string::npos);
}

TEST_F(TracedTrial, JsonlRoundTripPreservesPhases) {
  const auto result = run(core::component_names::kSes, core::MercuryTree::kTreeIV);
  std::ostringstream out;
  rec_.write_jsonl(out);
  std::istringstream in(out.str());
  const auto rows = recovery_phases(read_jsonl(in));
  ASSERT_EQ(rows.size(), 1u);
  const double measured = result.recovery.to_seconds();
  EXPECT_NEAR(rows[0].end_to_end(), measured, 0.01 * measured);
}

// --- Compact events: interned labels and typed args ----------------------
// Events store labels as intern-pool handles and numeric args as numbers;
// only the exporters format them. These pin each format to its reference
// (std::to_string, util::format_fixed, printf "%.9g").

/// The exported (unquoted) text of a single recorded arg.
std::string recorded_value(Arg arg) {
  TraceRecorder rec;
  rec.instant(0.0, "c", "n", "t", {arg});
  return rec.events()[0].args[0].value();
}

TEST(TraceArgFormat, IntegersFormatLikeToString) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42}, std::uint64_t{1000000},
        std::numeric_limits<std::uint64_t>::max()}) {
    EXPECT_EQ(recorded_value({"k", v}), std::to_string(v));
  }
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{7}, std::int64_t{-123456789},
        std::numeric_limits<std::int64_t>::min(), std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(recorded_value({"k", v}), std::to_string(v));
  }
  for (const int v : {0, 3, -3, std::numeric_limits<int>::max(), std::numeric_limits<int>::min()}) {
    EXPECT_EQ(recorded_value({"k", v}), std::to_string(v));
  }
  EXPECT_EQ(recorded_value({"k", std::size_t{17}}), std::to_string(std::size_t{17}));
}

TEST(TraceArgFormat, FixedFormatsLikeFormatFixed) {
  std::vector<double> values = {0.0,     -0.0,     0.5,        1.5,       2.5,
                                -2.5,    0.125,    0.0625,     1.0005,    2.675,
                                0.05,    -0.05,    0.0000005,  -0.0000005, 1e-7,
                                123456789.123456789, -987654.3210987,
                                1e15,    1e21,     -1e22,      1e300,     -1e300,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  util::Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.uniform(-1e6, 1e6));
    values.push_back(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-9.0, 9.0)));
  }
  for (const int precision : {0, 1, 3, 6}) {
    for (const double v : values) {
      EXPECT_EQ(recorded_value({"k", Fixed{v, precision}}), util::format_fixed(v, precision))
          << "value " << v << " precision " << precision;
    }
  }
}

TEST(TraceExport, TimestampsFormatLikePercentNineG) {
  std::vector<double> values = {0.0,    -0.0,   1.0,        3.0,      0.1,
                                1.0 / 3, -2.5,   123456789.0, 1234567890.0,
                                1e-5,   1e-300, 6.02214076e23,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity()};
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0)));
  }
  for (const double v : values) {
    TraceRecorder rec;
    rec.instant(v, "c", "n", "t");
    std::ostringstream out;
    rec.write_jsonl(out);
    char expected[64];
    std::snprintf(expected, sizeof expected, "{\"t\":%.9g,", v);
    EXPECT_EQ(out.str().substr(0, std::strlen(expected)), expected) << v;
  }
}

TEST(TraceArgFormat, TypedReadsSeeTheEmittedNumbers) {
  TraceRecorder rec;
  rec.instant(0.0, "c", "n", "t",
              {{"id", std::uint64_t{12345678901234}}, {"recovery", Fixed{21.1234567, 6}},
               {"label", "ses"}, {"digits", "77"}});
  const TraceEvent& event = rec.events()[0];
  std::uint64_t id = 0;
  ASSERT_TRUE(event.find_arg(Label("id"))->to_u64(id));
  EXPECT_EQ(id, 12345678901234u);
  double recovery = 0.0;
  ASSERT_TRUE(event.find_arg(Label("recovery"))->to_double(recovery));
  EXPECT_EQ(recovery, 21.1234567);  // full precision, not the 6-digit text
  EXPECT_EQ(event.text_arg(Label("label")), Label("ses"));
  EXPECT_TRUE(event.text_arg(Label("id")).empty());  // typed, not a string
  EXPECT_TRUE(event.text_arg(Label("missing")).empty());
  // String values still read as numbers (traces re-read from JSONL).
  std::uint64_t digits = 0;
  ASSERT_TRUE(event.find_arg(Label("digits"))->to_u64(digits));
  EXPECT_EQ(digits, 77u);
  EXPECT_FALSE(event.find_arg(Label("label"))->to_u64(digits));
  EXPECT_EQ(event.find_arg(Label("missing")), nullptr);
}

TEST(TraceLabel, InternsOnceAndComparesByHandle) {
  const Label a("rec.restart");
  const Label b(std::string("rec.") + "restart");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Label("rec.soft"));
  EXPECT_EQ(a, "rec.restart");
  EXPECT_EQ(Label().id(), 0u);
  EXPECT_TRUE(Label("").empty());
  // Converts like the std::string it replaced.
  const std::string& text = a;
  const std::string_view view = a;
  EXPECT_EQ(text, "rec.restart");
  EXPECT_EQ(view, "rec.restart");
  EXPECT_EQ(Label("tab\there \"q\"").escaped(), "tab\\there \\\"q\\\"");
}

TEST(TraceEventCopy, CopiesOwnTheirArgsAndOutliveTheRecorder) {
  std::vector<TraceEvent> copies;
  {
    TraceRecorder rec;
    rec.instant(1.0, "fault", "fault.manifest", "board",
                {{"manifest", "ses"}, {"id", std::uint64_t{9}}});
    copies = rec.events().to_vector();
    TraceEvent assigned;
    assigned = rec.events()[0];
    copies.push_back(assigned);
  }
  ASSERT_EQ(copies.size(), 2u);
  for (const TraceEvent& event : copies) {
    EXPECT_EQ(event.name, "fault.manifest");
    EXPECT_EQ(event.arg_or("manifest"), "ses");
    EXPECT_EQ(event.arg_or("id"), "9");
  }
}

/// A committed golden batch fixture (tests/data), as text.
std::string golden_file(const std::string& suffix) {
  const std::string path = std::string(MERCURY_TEST_DATA_DIR) + "/golden_batch" + suffix;
  std::ifstream file(path, std::ios::binary);
  std::ostringstream golden;
  golden << file.rdbuf();
  return golden.str();
}

std::string golden_jsonl() { return golden_file(".trace.jsonl"); }

EventBuffer golden_events() {
  std::istringstream in(golden_jsonl());
  return read_jsonl(in);
}

TEST(TraceExport, GoldenJsonlRereadAndRewrittenIsByteIdentical) {
  const std::string golden = golden_jsonl();
  ASSERT_FALSE(golden.empty()) << "golden_batch.trace.jsonl";
  std::istringstream in(golden);
  const EventBuffer events = read_jsonl(in);
  ASSERT_FALSE(events.empty());
  std::ostringstream rewritten;
  write_jsonl(events, rewritten);
  EXPECT_EQ(rewritten.str(), golden);
}

// The Chrome view is a pure function of the JSONL: rendering the re-read
// golden trace reproduces the Chrome fixture the recorder wrote.
TEST(TraceExport, ChromeTraceFromGoldenJsonlMatchesTheChromeFixture) {
  const std::string golden_chrome = golden_file(".trace.json");
  ASSERT_FALSE(golden_chrome.empty()) << "golden_batch.trace.json";
  std::ostringstream chrome;
  write_chrome_trace(golden_events(), chrome);
  EXPECT_EQ(chrome.str(), golden_chrome);
}

// --- Narration ---------------------------------------------------------------
// narrate() over the golden batch: six traced trials, each run's clock
// starting at zero.

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(Narrate, WritesOneLinePerEvent) {
  const EventBuffer events = golden_events();
  ASSERT_FALSE(events.empty());
  const std::vector<std::string> lines = lines_of(narrate(events));
  ASSERT_EQ(lines.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_NE(lines[i].find("] " + events[i].track.str() + " " + events[i].name.str()),
              std::string::npos)
        << lines[i];
  }
  EXPECT_EQ(lines[1],
            "[     3.682] board fault.manifest manifest=ses cure=ses kind=crash id=1");
}

TEST(Narrate, TimestampsNeverDecreaseWithinARun) {
  const EventBuffer events = golden_events();
  const std::vector<std::string> lines = lines_of(narrate(events));
  ASSERT_EQ(lines.size(), events.size());
  std::map<std::uint64_t, double> last_of_run;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(lines[i].front(), '[') << lines[i];
    const double t = std::stod(lines[i].substr(1, lines[i].find(']') - 1));
    const auto [it, first] = last_of_run.try_emplace(events[i].run, t);
    if (!first) {
      EXPECT_GE(t, it->second) << lines[i];
      it->second = t;
    }
  }
  EXPECT_EQ(last_of_run.size(), 6u);
}

TEST(Narrate, RestartEndLinesCarryDurationAndOutcome) {
  const EventBuffer events = golden_events();
  const std::vector<std::string> lines = lines_of(narrate(events));
  ASSERT_EQ(lines.size(), events.size());
  std::map<std::uint64_t, double> begun_at;
  int restart_ends = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    if (event.kind == EventKind::kBegin) begun_at[event.span] = event.t;
    if (event.kind != EventKind::kEnd || !event.name.view().starts_with("restart:")) {
      continue;
    }
    ++restart_ends;
    const std::string duration =
        util::format_fixed(event.t - begun_at.at(event.span), 3);
    EXPECT_NE(lines[i].find(" end (" + duration + " s)"), std::string::npos)
        << lines[i];
    const std::string outcome = event.arg_or("outcome");
    ASSERT_FALSE(outcome.empty()) << lines[i];
    EXPECT_NE(lines[i].find(" outcome=" + outcome), std::string::npos) << lines[i];
  }
  EXPECT_GT(restart_ends, 0);
  // The first trial's ses restart, spelled out.
  EXPECT_EQ(lines[12], "[     8.184] pm restart:ses end (4.191 s) outcome=ready");
}

TEST(Narrate, LiveRecorderMatchesTheJsonlCopy) {
  // The golden fixture is the merged trace of this batch (pinned by
  // ExperimentRunner.GoldenBatchByteIdenticalToCommittedFixture), so a live
  // recording of it must narrate exactly like the re-read file.
  std::vector<station::TrialSpec> specs;
  for (const std::string component : {"ses", "str", "rtu"}) {
    for (std::uint64_t seed : {21ull, 22ull}) {
      station::TrialSpec spec;
      spec.tree = core::MercuryTree::kTreeIV;
      spec.oracle = station::OracleKind::kPerfect;
      spec.fail_component = component;
      spec.seed = seed;
      specs.push_back(std::move(spec));
    }
  }
  TraceRecorder live;
  {
    ScopedRecorder scope(live);
    station::run_trial_batch(specs);
  }
  ASSERT_FALSE(live.events().empty());
  EXPECT_EQ(narrate(live.events()), narrate(golden_events()));
}

/// One synthetic trial whose labels are private to `tag` (so recorders
/// merged together carry different label sets).
void record_trial(TraceRecorder& rec, const std::string& tag, int index) {
  rec.next_run();
  rec.instant(0.0, "sim", "trial.start", "trial",
              {{"seed", index}, {"component", "comp-" + tag}});
  const std::uint64_t span =
      rec.begin(0.5, "recover", "rec.restart", "rec-" + tag,
                {{"cell", "R_" + tag}, {"escalation", index % 3}});
  rec.instant(0.75, "fault", "fault." + tag, "board",
              {{"id", std::uint64_t(index)}, {"delay_s", Fixed{0.25 * index, 3}}});
  rec.end(1.0 + index, span, {{"outcome", "ready-" + tag}});
}

TEST(TraceRecorder, MergesOfDifferentLabelSetsMatchSerialRecording) {
  const std::vector<std::string> tags = {"alpha", "beta", "gamma", "alpha", "delta"};
  TraceRecorder serial;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    record_trial(serial, tags[i], static_cast<int>(i));
  }
  TraceRecorder merged;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    TraceRecorder trial;
    record_trial(trial, tags[i], static_cast<int>(i));
    merged.merge_from(std::move(trial));
  }
  const auto chrome = [](const TraceRecorder& rec) {
    std::ostringstream out;
    rec.write_chrome_trace(out);
    return out.str();
  };
  EXPECT_EQ(jsonl_of(merged.events()), jsonl_of(serial.events()));
  EXPECT_EQ(chrome(merged), chrome(serial));
  EXPECT_EQ(merged.run(), serial.run());
}

TEST(TraceRecorder, ShapesFirstSeenOnWorkerThreadsMergeLikeSerialRecording) {
  // Four threads record trials whose names and arg keys no thread has met,
  // so each event shape is first interned on the thread that records it.
  // Merged in trial order on this thread, the recorders must export what
  // serial recording of the same trials does.
  static int invocation = 0;  // fresh labels under --gtest_repeat
  const std::string prefix = "fresh" + std::to_string(invocation++) + "-";
  constexpr int kThreads = 4;
  constexpr int kTrialsPerThread = 16;
  const auto record = [&](TraceRecorder& rec, int trial) {
    const std::string tag = prefix + std::to_string(trial);
    rec.next_run();
    const std::uint64_t span = rec.begin(0.5 * trial, "recover", "rec." + tag, "rec-" + tag,
                                         {{"cell-" + tag, tag}, {"n-" + tag, trial}});
    rec.instant(0.75 * trial, "fault", "fault." + tag, "board",
                {{"id-" + tag, std::uint64_t(trial)},
                 {"delta-" + tag, std::int64_t{-trial}},
                 {"delay-" + tag, Fixed{0.25 * trial, trial % 40}}});
    rec.end(1.0 + trial, span, {{"outcome-" + tag, "ready"}});
  };

  std::vector<std::unique_ptr<TraceRecorder>> trials;
  for (int i = 0; i < kThreads * kTrialsPerThread; ++i) {
    trials.push_back(std::make_unique<TraceRecorder>());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t * kTrialsPerThread; i < (t + 1) * kTrialsPerThread; ++i) {
        record(*trials[static_cast<std::size_t>(i)], i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  TraceRecorder merged;
  for (auto& trial : trials) merged.merge_from(std::move(*trial));

  TraceRecorder serial;
  for (int i = 0; i < kThreads * kTrialsPerThread; ++i) record(serial, i);
  ASSERT_EQ(merged.events().size(), serial.events().size());
  EXPECT_EQ(jsonl_of(merged.events()), jsonl_of(serial.events()));
}

TEST(TraceRecorder, MergeAcrossTheEventCapMatchesCappedSerialRecording) {
  // Per-trial recorders merged into a capped recorder must keep and drop
  // exactly the events serial recording into that cap would: a merge that
  // fits is spliced, one that crosses the cap is copied event by event.
  // Five merged trials and one live one, four events each; the caps from
  // empty to exactly full put the seam before, inside and after a trial.
  const std::vector<std::string> tags = {"alpha", "beta", "gamma", "alpha", "delta"};
  for (std::size_t cap = 0; cap <= 24; ++cap) {
    TraceRecorder serial(cap);
    TraceRecorder merged(cap);
    for (std::size_t i = 0; i < tags.size(); ++i) {
      record_trial(serial, tags[i], static_cast<int>(i));
      TraceRecorder trial;
      record_trial(trial, tags[i], static_cast<int>(i));
      merged.merge_from(std::move(trial));
    }
    // Live recording after the merges continues the same numbering.
    record_trial(serial, "after", 9);
    record_trial(merged, "after", 9);
    EXPECT_EQ(jsonl_of(merged.events()), jsonl_of(serial.events())) << "cap " << cap;
    EXPECT_EQ(merged.dropped(), serial.dropped()) << "cap " << cap;
    EXPECT_EQ(merged.events().size(), std::min<std::size_t>(cap, 24)) << "cap " << cap;
  }
}

}  // namespace
}  // namespace mercury::obs
