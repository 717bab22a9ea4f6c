// The parameter grammar shared by the topology and dynamics registries:
// strict numbers and "k=v,k=v" lists against a typed schema.
//
// Diagnostics contract (tests/test_scenario.cpp, tests/test_dynamics.cpp):
// every parse error reads "<prefix> '<name>': <detail>" — prefix
// "topology spec" or "dynamics spec", name the family or model — and
// names the offending key=value, so a failed sweep axis is attributable
// from the message alone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace antdense::scenario {

/// One typed field of a "k=v,k=v" parameter list.
struct KvField {
  enum class Kind { kU64, kF64 };
  std::string key;
  Kind kind = Kind::kU64;
  bool required = false;
  std::uint64_t u64_default = 0;
  double f64_default = 0.0;
};

struct KvValues {
  std::vector<std::uint64_t> u64s;  // indexed like the field schema
  std::vector<double> f64s;
};

KvField u64_field(std::string key, bool required, std::uint64_t fallback = 0);
KvField f64_field(std::string key, bool required, double fallback = 0.0);

/// The parsers of one registry, told apart by the diagnostic prefix.
class SpecParams {
 public:
  constexpr explicit SpecParams(std::string_view prefix) : prefix_(prefix) {}

  /// Throws std::invalid_argument("<prefix> '<name>': <detail>").
  [[noreturn]] void fail(const std::string& name,
                         const std::string& detail) const;

  /// Strict uint parse: the whole token must be digits (no sign, no
  /// trailing garbage) so "64x64x3" or "1e4" fail loudly.
  std::uint64_t parse_u64(const std::string& name, const std::string& key,
                          const std::string& token) const;

  /// Strict whole-token real parse.
  double parse_f64(const std::string& name, const std::string& key,
                   const std::string& token) const;

  /// Parses "k=v,k=v" against a typed schema (later duplicates win).
  KvValues parse_kv(const std::string& name, const std::string& params,
                    const std::vector<KvField>& fields) const;

  /// Range guard whose message carries name, key, and value.
  void check_range(bool ok, const std::string& name, const std::string& key,
                   const std::string& value,
                   const std::string& expectation) const;

 private:
  std::string_view prefix_;
};

}  // namespace antdense::scenario
