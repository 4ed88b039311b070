// Domain names (RFC 1035 §3.1): a sequence of labels, each 1..63 octets,
// total wire length <= 255 octets.  Names compare and hash
// case-insensitively, as required by RFC 1035 §2.3.3, but preserve the case
// they were created with.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace dnscup::dns {

class Name {
 public:
  /// The root name (zero labels, prints as ".").
  Name() = default;

  /// Parses a dotted presentation name ("www.example.com" or
  /// "www.example.com.").  Rejects empty labels, labels over 63 octets and
  /// names whose wire form would exceed 255 octets.  Backslash escapes are
  /// not supported (none of the paper's workloads need them).
  static util::Result<Name> parse(std::string_view text);

  /// Builds a name from raw labels; asserts on limit violations (callers
  /// pass trusted data; use parse() for untrusted text).
  static Name from_labels(std::vector<std::string> labels);

  static Name root() { return Name(); }

  bool is_root() const { return labels_.empty(); }
  std::size_t label_count() const { return labels_.size(); }
  const std::string& label(std::size_t i) const { return labels_[i]; }

  /// Wire-format length of this name, including the terminal root octet.
  std::size_t wire_length() const;

  /// The name with the leftmost label removed; asserts if called on root.
  Name parent() const;

  /// Prepends a single label; asserts if the result would exceed limits.
  Name prepend(std::string_view label) const;

  /// Concatenates: this name relative to the given origin
  /// ("www" + "example.com." -> "www.example.com.").
  Name concat(const Name& origin) const;

  /// True if this name equals `ancestor` or is below it.
  /// Every name is a subdomain of the root.
  bool is_subdomain_of(const Name& ancestor) const;

  /// Number of trailing labels shared with `other`.
  std::size_t common_suffix_labels(const Name& other) const;

  /// Dotted presentation form, always with a trailing dot; root is ".".
  std::string to_string() const;

  /// Case-insensitive comparisons.
  bool operator==(const Name& other) const;
  bool operator!=(const Name& other) const { return !(*this == other); }
  /// Canonical DNSSEC-style ordering (by reversed label sequence); used so
  /// names can key ordered containers.
  bool operator<(const Name& other) const;

  /// Case-insensitive hash, suitable for unordered containers.
  std::size_t hash() const;

 private:
  std::vector<std::string> labels_;
};

/// Case-insensitive label comparison (ASCII only, per RFC 4343).
bool label_equal(std::string_view a, std::string_view b);
int label_compare(std::string_view a, std::string_view b);

/// Non-owning view of a domain name: a fixed-capacity sequence of
/// string_view labels pointing into wire bytes (or any other backing
/// storage).  A NameView is only valid while the bytes it points into
/// are — on the serve hot path that is one receive batch.  Call
/// materialize() for the few owners that must outlive the buffer.
///
/// Comparisons and hashing match Name exactly (case-insensitive, same
/// FNV-1a), so a NameView can probe containers keyed by Name without
/// allocating.
class NameView {
 public:
  static constexpr std::size_t kMaxLabels = 128;

  NameView() = default;

  bool is_root() const { return count_ == 0; }
  std::size_t label_count() const { return count_; }
  std::string_view label(std::size_t i) const { return labels_[i]; }
  std::span<const std::string_view> labels() const {
    return {labels_.data(), count_};
  }

  /// Wire-format length of the (uncompressed) name, incl. the root octet.
  std::size_t wire_length() const;

  void clear() { count_ = 0; }
  /// Appends one label; asserts the capacity and label-length limits that
  /// the wire parser already enforces.
  void push_label(std::string_view label);

  /// Copies the labels into an owning Name.
  Name materialize() const;

  /// Case-insensitive equality / canonical-order comparison against an
  /// owning Name (same semantics as Name::operator== / operator<).
  bool equals(const Name& other) const;
  int compare(const Name& other) const;

  /// True if this name equals `ancestor` or is below it.
  bool is_subdomain_of(const Name& ancestor) const;

  /// Matches Name::hash() bit-for-bit so heterogeneous unordered lookups
  /// land in the same bucket.
  std::size_t hash() const;

  std::string to_string() const;

 private:
  std::array<std::string_view, kMaxLabels> labels_;
  std::size_t count_ = 0;
};

/// Canonical-order comparison of an owning Name against a raw label
/// sequence (as produced by NameView::labels()); <0 / 0 / >0 like strcmp.
/// Shared by the transparent container comparators in zone.h.
int compare_name_to_labels(const Name& a,
                           std::span<const std::string_view> b);

struct NameHash {
  std::size_t operator()(const Name& n) const { return n.hash(); }
};

}  // namespace dnscup::dns
