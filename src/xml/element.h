// XML document model for the Mercury command language.
//
// Mercury components interoperate by "passing of messages composed in our
// XML command language" (paper §2.1). This is a deliberately small XML
// subset — elements, attributes, character data, comments, the five
// predefined entities — sufficient for command messages; no namespaces,
// DTDs, or processing instructions.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/flat_map.h"

namespace mercury::xml {

/// A single XML element. Owns its children; value semantics via deep copy.
class Element {
 public:
  Element() = default;
  explicit Element(std::string name) : name_(std::move(name)) {}

  Element(const Element& other);
  Element& operator=(const Element& other);
  Element(Element&&) noexcept = default;
  Element& operator=(Element&&) noexcept = default;

  const std::string& name() const { return name_; }

  // --- Attributes (sorted by key for deterministic serialization; stored
  // as a flat contiguous map: small, cache-friendly, ordered) ---
  using AttributeMap = util::FlatMap<std::string, std::string>;
  const AttributeMap& attributes() const { return attributes_; }
  std::optional<std::string> attr(std::string_view key) const;
  /// Attribute value or `fallback` when absent.
  std::string attr_or(std::string_view key, std::string_view fallback) const;
  /// Numeric attribute; nullopt when absent or unparsable.
  std::optional<double> attr_double(std::string_view key) const;
  std::optional<long long> attr_int(std::string_view key) const;
  Element& set_attr(std::string key, std::string value);
  /// Insert-if-absent variant for the parser (which must reject duplicate
  /// attributes): returns false and leaves the element unchanged when `key`
  /// is already present. One map probe instead of has_attr + set_attr.
  bool add_attr(const std::string& key, std::string value);
  Element& set_attr(std::string key, double value);
  Element& set_attr(std::string key, long long value);
  bool has_attr(std::string_view key) const;

  // --- Character data (concatenated text content of this element) ---
  const std::string& text() const { return text_; }
  Element& set_text(std::string text);

  // --- Children ---
  const std::vector<std::unique_ptr<Element>>& children() const { return children_; }
  /// Appends a child and returns a reference to the stored copy.
  Element& add_child(Element child);
  /// First child with the given name, or nullptr.
  const Element* child(std::string_view name) const;
  Element* child(std::string_view name);
  /// All children with the given name.
  std::vector<const Element*> children_named(std::string_view name) const;
  std::size_t child_count() const { return children_.size(); }

  /// Deep structural equality (name, attributes, text, children in order).
  bool operator==(const Element& other) const;

 private:
  std::string name_;
  AttributeMap attributes_;
  std::string text_;
  std::vector<std::unique_ptr<Element>> children_;
};

}  // namespace mercury::xml
