// Minimal command-line flag parser for bench and example binaries.
//
// Supported syntax: --key=value, --key value, and bare --flag (boolean
// true).  Unknown positional arguments are collected separately.
// Numeric reads are strict: the whole value must be one number, so
// "--agents=10x", "--threads=-1" or a bare "--lazy" is an error rather
// than a silently different run.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace antdense::util {

/// Strict whole-token parses shared by the flag reader and the spec
/// grammars: base 10, no surrounding whitespace, no sign, nothing after
/// the number, no overflow (parse_double accepts a leading '-').  Each
/// returns nullopt on any failure.
std::optional<std::uint64_t> parse_uint(std::string_view token);
std::optional<double> parse_double(std::string_view token);

class Args {
 public:
  Args() = default;
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// The numeric getters return `fallback` when the flag is absent and
  /// throw std::invalid_argument, naming the flag and its value, when
  /// the value does not parse strictly (a bare flag has no number) or
  /// get_uint's value exceeds `max`.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::uint64_t get_uint(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  double get_double(const std::string& key, double fallback) const;
  /// True for a bare flag or true/1/yes/on, false for false/0/no/off;
  /// any other value throws like the numeric getters.
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// All parsed flags, for echoing experiment configuration.
  const std::map<std::string, std::string>& flags() const { return flags_; }

  /// Strict mode: the flags that were passed but are not in `known`,
  /// sorted — so drivers can reject typo'd flags instead of silently
  /// using fallbacks.
  std::vector<std::string> unknown(
      const std::vector<std::string>& known) const;
  std::vector<std::string> unknown(
      std::initializer_list<const char*> known) const;

  /// Throws std::invalid_argument naming every unknown flag (and listing
  /// the known ones) when any flag outside `known` was passed, or when a
  /// positional token was passed (strict drivers take flags only, so a
  /// flag missing its leading dashes must not be silently dropped).
  void require_known(const std::vector<std::string>& known) const;
  void require_known(std::initializer_list<const char*> known) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace antdense::util
