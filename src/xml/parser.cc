#include "xml/parser.h"

#include <cctype>
#include <string>

#include "util/strings.h"

namespace mercury::xml {
namespace {

using util::Error;
using util::Result;

// Character-class lookup tables (<cctype> calls go through the locale).
// Classes match the C locale exactly: isalpha == [A-Za-z],
// isspace == [ \t\n\v\f\r].
struct CharTables {
  bool name_start[256] = {};
  bool name_char[256] = {};
  bool space[256] = {};
  constexpr CharTables() {
    for (int c = 0; c < 256; ++c) {
      const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
      const bool digit = c >= '0' && c <= '9';
      name_start[c] = alpha || c == '_' || c == ':';
      name_char[c] =
          alpha || digit || c == '_' || c == ':' || c == '-' || c == '.';
      space[c] = c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
                 c == '\r';
    }
  }
};
constexpr CharTables kTables;

bool is_name_start(char c) {
  return kTables.name_start[static_cast<unsigned char>(c)];
}

bool is_name_char(char c) {
  return kTables.name_char[static_cast<unsigned char>(c)];
}

bool is_space(char c) { return kTables.space[static_cast<unsigned char>(c)]; }

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<Element> parse_document() {
    skip_prolog();
    skip_misc();
    if (at_end()) return error("expected a root element");
    auto root = parse_element();
    if (!root.ok()) return root;
    skip_misc();
    if (!at_end()) return error("trailing content after root element");
    return root;
  }

 private:
  bool at_end() const { return pos_ >= input_.size(); }
  char peek() const { return input_[pos_]; }
  char peek_at(std::size_t offset) const {
    return pos_ + offset < input_.size() ? input_[pos_ + offset] : '\0';
  }
  bool match(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  void advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void advance_by(std::size_t n) {
    for (std::size_t i = 0; i < n && !at_end(); ++i) advance();
  }

  void skip_whitespace() {
    while (!at_end() && is_space(peek())) advance();
  }

  /// Length of the run starting at pos_ containing no newline and no
  /// character from `stop`. Runs can be consumed in bulk: pos_/col_ advance
  /// by the run length with no per-character line bookkeeping.
  std::size_t plain_run(std::string_view stop) const {
    std::size_t end = pos_;
    while (end < input_.size()) {
      const char c = input_[end];
      if (c == '\n' || stop.find(c) != std::string_view::npos) break;
      ++end;
    }
    return end - pos_;
  }

  void advance_plain(std::size_t n) {  // precondition: no '\n' in the run
    pos_ += n;
    col_ += static_cast<int>(n);
  }

  Error error(std::string_view message) const {
    return Error("xml parse error at " + std::to_string(line_) + ":" +
                 std::to_string(col_) + ": " + std::string{message});
  }

  void skip_prolog() {
    skip_whitespace();
    if (match("<?xml")) {
      while (!at_end() && !match("?>")) advance();
      advance_by(2);
    }
  }

  // Skips whitespace and comments between markup.
  void skip_misc() {
    while (true) {
      skip_whitespace();
      if (match("<!--")) {
        skip_comment();
      } else {
        return;
      }
    }
  }

  void skip_comment() {
    advance_by(4);  // "<!--"
    while (!at_end() && !match("-->")) advance();
    advance_by(3);
  }

  Result<std::string> parse_name() {
    if (at_end() || !is_name_start(peek())) return error("expected a name");
    std::size_t end = pos_;
    while (end < input_.size() && is_name_char(input_[end])) ++end;
    std::string name{input_.substr(pos_, end - pos_)};
    advance_plain(end - pos_);  // name chars never include '\n'
    return name;
  }

  // Decodes an entity starting at '&'; appends the decoded text to out.
  util::Status decode_entity(std::string& out) {
    advance();  // '&'
    std::string entity;
    while (!at_end() && peek() != ';') {
      entity += peek();
      advance();
      if (entity.size() > 10) return error("unterminated entity");
    }
    if (at_end()) return error("unterminated entity");
    advance();  // ';'
    if (entity == "lt") out += '<';
    else if (entity == "gt") out += '>';
    else if (entity == "amp") out += '&';
    else if (entity == "apos") out += '\'';
    else if (entity == "quot") out += '"';
    else if (!entity.empty() && entity[0] == '#') {
      const bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
      const std::string digits = entity.substr(hex ? 2 : 1);
      if (digits.empty()) return error("empty character reference");
      unsigned long code = 0;
      for (char c : digits) {
        int digit;
        if (std::isdigit(static_cast<unsigned char>(c))) digit = c - '0';
        else if (hex && std::isxdigit(static_cast<unsigned char>(c)))
          digit = 10 + (std::tolower(static_cast<unsigned char>(c)) - 'a');
        else return error("bad character reference '" + entity + "'");
        code = code * (hex ? 16 : 10) + static_cast<unsigned long>(digit);
        if (code > 0x10FFFF) return error("character reference out of range");
      }
      append_utf8(out, static_cast<char32_t>(code));
    } else {
      return error("unknown entity '&" + entity + ";'");
    }
    return util::Status::ok_status();
  }

  static void append_utf8(std::string& out, char32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<std::string> parse_attr_value() {
    if (at_end() || (peek() != '"' && peek() != '\'')) {
      return error("expected a quoted attribute value");
    }
    const char quote = peek();
    advance();
    const char stop[3] = {quote, '<', '&'};
    std::string value;
    while (!at_end() && peek() != quote) {
      if (peek() == '<') return error("'<' not allowed in attribute value");
      if (peek() == '&') {
        if (auto s = decode_entity(value); !s.ok()) return s.error();
      } else if (peek() == '\n') {
        value += '\n';
        advance();
      } else {
        const std::size_t run = plain_run(std::string_view{stop, 3});
        value.append(input_.substr(pos_, run));
        advance_plain(run);
      }
    }
    if (at_end()) return error("unterminated attribute value");
    advance();  // closing quote
    return value;
  }

  Result<Element> parse_element() {
    if (at_end() || peek() != '<') return error("expected '<'");
    advance();
    auto name = parse_name();
    if (!name.ok()) return name.error();
    Element element(std::move(name).value());

    // Attributes.
    while (true) {
      skip_whitespace();
      if (at_end()) return error("unterminated start tag");
      if (peek() == '>' || match("/>")) break;
      auto key = parse_name();
      if (!key.ok()) return Error(key.error().message() + " (in attribute list)");
      skip_whitespace();
      if (at_end() || peek() != '=') return error("expected '=' after attribute name");
      advance();
      skip_whitespace();
      auto value = parse_attr_value();
      if (!value.ok()) return value.error();
      if (!element.add_attr(key.value(), std::move(value).value())) {
        return error("duplicate attribute '" + key.value() + "'");
      }
    }

    if (match("/>")) {
      advance_by(2);
      return element;
    }
    advance();  // '>'

    // Content.
    std::string text;
    while (true) {
      if (at_end()) return error("unterminated element <" + element.name() + ">");
      if (match("<!--")) {
        skip_comment();
      } else if (match("<![CDATA[")) {
        advance_by(9);
        while (!at_end() && !match("]]>")) {
          text += peek();
          advance();
        }
        if (at_end()) return error("unterminated CDATA section");
        advance_by(3);
      } else if (match("</")) {
        advance_by(2);
        auto close = parse_name();
        if (!close.ok()) return close.error();
        if (close.value() != element.name()) {
          return error("mismatched close tag </" + close.value() + "> for <" +
                       element.name() + ">");
        }
        skip_whitespace();
        if (at_end() || peek() != '>') return error("expected '>' in close tag");
        advance();
        element.set_text(std::string{util::trim(text)});
        return element;
      } else if (peek() == '<') {
        auto child = parse_element();
        if (!child.ok()) return child;
        element.add_child(std::move(child).value());
      } else if (peek() == '&') {
        if (auto s = decode_entity(text); !s.ok()) return s.error();
      } else if (peek() == '\n') {
        text += '\n';
        advance();
      } else {
        const std::size_t run = plain_run("<&");
        text.append(input_.substr(pos_, run));
        advance_plain(run);
      }
    }
  }

  std::string_view input_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

util::Result<Element> parse(std::string_view input) {
  return Parser(input).parse_document();
}

}  // namespace mercury::xml
