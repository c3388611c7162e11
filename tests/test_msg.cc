// Unit tests: the command-language message schema.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/health.h"
#include "msg/message.h"
#include "xml/element.h"
#include "xml/writer.h"

namespace mercury::msg {
namespace {

TEST(Message, KindStringsRoundTrip) {
  for (Kind kind : {Kind::kPing, Kind::kPong, Kind::kCommand, Kind::kAck,
                    Kind::kNack, Kind::kTelemetry, Kind::kEvent}) {
    auto parsed = kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(kind_from_string("bogus").ok());
}

TEST(Message, EncodeDecodeRoundTrip) {
  // The bus delivers the message it was sent, so what crosses it must be
  // exactly what the command language can carry: every message shape the
  // station sends survives decode(encode(m)) unchanged.
  Message noted = make_command("rtu", "fedr", 42, "tune");
  noted.body.set_attr("freq_hz", 437.1e6);
  noted.body.add_child(xml::Element("note")).set_text("doppler corrected");

  const Message fd_ping = make_ping("fd", "ses", 12);
  const Message workload_ping = make_ping("cli.3", "rtu", 7);

  Message tune = make_command("rtu", "fedr", 43, "tune");
  tune.body.set_attr("freq_hz", 437108234.56789);

  Message restarting = make_nack(workload_ping, "mbus", "restarting");
  restarting.body.set_attr("component", std::string{"rtu"});
  restarting.body.set_attr("epoch", std::to_string(5));

  Message ephemeris = make_event("ses", 9, "ephemeris");
  ephemeris.body.set_attr("az_deg", 123.456789012);
  ephemeris.body.set_attr("el_deg", -3.25);
  ephemeris.body.set_attr("range_km", 2345.6789);
  ephemeris.body.set_attr("range_rate_km_s", -6.54321);
  ephemeris.body.set_attr("visible", std::string{"1"});

  core::HealthBeacon beacon;
  beacon.component = "fedr";
  beacon.seq = 31;
  beacon.uptime_s = 86400.5;
  beacon.memory_mb = 212.75;
  beacon.queue_depth = 3;
  beacon.internal_latency_ms = 12.125;
  beacon.consistency_ok = false;
  beacon.warnings = {"queue growing", "serial retries <&> rising"};

  const std::pair<const char*, Message> shapes[] = {
      {"command with a nested child", noted},
      {"fd ping", fd_ping},
      {"fd pong", make_pong(fd_ping, "ses")},
      {"workload ping", workload_ping},
      {"workload pong", make_pong(workload_ping, "rtu")},
      {"ack", make_ack(tune, "fedr")},
      {"nack with reason", make_nack(tune, "fedr", "pbcom link down")},
      {"mbus restarting nack", restarting},
      {"ephemeris event", ephemeris},
      {"tune command", tune},
      {"health beacon", core::encode_beacon(beacon, "hm")},
  };
  for (const auto& [name, m] : shapes) {
    auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.error().message();
    EXPECT_EQ(decoded.value(), m) << name << ": " << encode(m);
  }
}

TEST(Message, RoundTripAllKinds) {
  for (Kind kind : {Kind::kPing, Kind::kPong, Kind::kCommand, Kind::kAck,
                    Kind::kNack, Kind::kTelemetry, Kind::kEvent}) {
    Message m;
    m.kind = kind;
    m.from = "a";
    m.to = "b";
    m.seq = 7;
    m.verb = kind == Kind::kCommand ? "track" : "";
    if (kind == Kind::kAck) m.in_reply_to = 6;
    auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message();
    EXPECT_EQ(decoded.value(), m) << to_string(kind);
  }
}

TEST(Message, PingPongPairing) {
  const Message ping = make_ping("fd", "ses", 99);
  EXPECT_EQ(ping.kind, Kind::kPing);
  EXPECT_EQ(ping.to, "ses");

  const Message pong = make_pong(ping, "ses");
  EXPECT_EQ(pong.kind, Kind::kPong);
  EXPECT_EQ(pong.to, "fd");
  EXPECT_EQ(pong.seq, ping.seq);
  ASSERT_TRUE(pong.in_reply_to.has_value());
  EXPECT_EQ(*pong.in_reply_to, ping.seq);
}

TEST(Message, AckNackCarryContext) {
  const Message command = make_command("str", "ses", 5, "sync");
  const Message ack = make_ack(command, "ses");
  EXPECT_EQ(ack.kind, Kind::kAck);
  EXPECT_EQ(ack.to, "str");
  EXPECT_EQ(ack.verb, "sync");
  EXPECT_EQ(*ack.in_reply_to, 5u);

  const Message nack = make_nack(command, "ses", "busy");
  EXPECT_EQ(nack.kind, Kind::kNack);
  EXPECT_EQ(nack.body.attr_or("reason", ""), "busy");
}

TEST(Message, EventBroadcastsByDefault) {
  const Message event = make_event("ses", 3, "ephemeris");
  EXPECT_EQ(event.to, "*");
  EXPECT_EQ(event.verb, "ephemeris");
}

TEST(Message, DecodeRejectsMissingFields) {
  EXPECT_FALSE(decode("<msg/>").ok());
  EXPECT_FALSE(decode(R"(<msg type="ping" to="b" seq="1"/>)").ok());   // no from
  EXPECT_FALSE(decode(R"(<msg type="ping" from="a" seq="1"/>)").ok()); // no to
  EXPECT_FALSE(decode(R"(<msg type="ping" from="a" to="b"/>)").ok());  // no seq
  EXPECT_FALSE(decode(R"(<msg type="nope" from="a" to="b" seq="1"/>)").ok());
  EXPECT_FALSE(
      decode(R"(<msg type="ping" from="a" to="b" seq="-3"/>)").ok());
  EXPECT_FALSE(decode(R"(<notmsg type="ping" from="a" to="b" seq="1"/>)").ok());
  EXPECT_FALSE(decode("not xml at all").ok());
}

TEST(Message, EncodeMatchesTheEquivalentElementTreeByteForByte) {
  // encode() serializes straight into the wire string (ISSUE 10); its bytes
  // must stay identical to building the <msg> element tree and writing it —
  // attributes in sorted map order (from, reply-to, seq, to, type, verb),
  // same escaping, body as the only child. Covers the optional fields both
  // present and absent, and values that need attribute escaping.
  Message m = make_command("r&tu", "fe\"dr", 42, "tu<ne");
  m.in_reply_to = 41;
  m.body.set_attr("freq_hz", 437.1e6);
  m.body.add_child(xml::Element("note")).set_text("doppler <&> corrected");

  const auto tree_bytes = [](const Message& message) {
    xml::Element root("msg");
    root.set_attr("from", message.from);
    if (message.in_reply_to) {
      root.set_attr("reply-to", static_cast<long long>(*message.in_reply_to));
    }
    root.set_attr("seq", static_cast<long long>(message.seq));
    root.set_attr("to", message.to);
    root.set_attr("type", std::string{to_string(message.kind)});
    if (!message.verb.empty()) root.set_attr("verb", message.verb);
    root.add_child(message.body);
    return xml::write(root);
  };
  EXPECT_EQ(encode(m), tree_bytes(m));

  Message bare = make_ping("fd", "ses", 7);  // no verb, no reply-to
  EXPECT_EQ(encode(bare), tree_bytes(bare));
}

TEST(Message, DecodeToleratesMissingBody) {
  auto decoded = decode(R"(<msg type="ping" from="a" to="b" seq="1"/>)");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().body.name(), "body");
}

}  // namespace
}  // namespace mercury::msg
