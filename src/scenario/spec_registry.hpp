// The family table behind both spec registries: a spec string
// "name:params" selects a registered family, which builds the product
// from the params, re-emits them canonically, and documents its grammar.
// scenario::Registry (topologies) and scenario::DynamicsRegistry
// (world-dynamics models) are its two instances; they differ only in
// what make() builds, what it needs besides the params, and the nouns
// their diagnostics use.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace antdense::scenario {

/// The words a registry's diagnostics use.
struct SpecNouns {
  const char* spec;     // the whole string: "topology spec"
  const char* kind;     // one entry: "topology family"
  const char* part;     // the text before the colon: "family"
  const char* example;  // a valid spec: "torus2d:64x64"
};

template <class Signature>
class SpecRegistry;

/// Maps family names to factories; make(spec, context...) returns a
/// Product built from the spec's params and the caller's context.
template <class Product, class... Context>
class SpecRegistry<Product(Context...)> {
 public:
  struct Family {
    /// Builds the product from the text after "name:".
    std::function<Product(const std::string& params, Context...)> make;
    /// Parses the params and re-emits the canonical "name:..." spec.
    std::function<std::string(const std::string& params)> canonical;
    /// Canonical spec grammar plus an example, e.g. "torus2d:WIDTHxHEIGHT
    /// (e.g. torus2d:64x64)" — what the `antdense_run --list-*` flags
    /// print so sweep authors can discover valid axis values.  Optional.
    std::string grammar;
  };

  explicit SpecRegistry(SpecNouns nouns) : nouns_(nouns) {}

  /// Registers (or replaces) a family under `name`.
  void register_family(const std::string& name, Family family) {
    ANTDENSE_CHECK(!name.empty() && name.find(':') == std::string::npos,
                   std::string(nouns_.part) +
                       " name must be non-empty and colon-free");
    ANTDENSE_CHECK(family.make != nullptr && family.canonical != nullptr,
                   "family needs both make and canonical");
    families_[name] = std::move(family);
  }

  bool has_family(const std::string& name) const {
    return families_.count(name) > 0;
  }

  std::vector<std::string> family_names() const {
    std::vector<std::string> out;
    out.reserve(families_.size());
    for (const auto& [name, family] : families_) {
      out.push_back(name);
    }
    return out;
  }

  /// The registered grammar line for `name` (empty when the family did
  /// not provide one); throws std::invalid_argument on unknown names.
  const std::string& grammar(const std::string& name) const {
    const auto it = families_.find(name);
    ANTDENSE_CHECK(it != families_.end(),
                   "unknown " + std::string(nouns_.kind) + " '" + name + "'");
    return it->second.grammar;
  }

  /// Parses "name:params" and builds the product.  Throws
  /// std::invalid_argument on an unknown family or malformed params.
  Product make(const std::string& spec, Context... context) const {
    std::string params;
    const Family& family = family_for(spec, &params);
    return family.make(params, context...);
  }

  /// Parses and re-serializes the spec into its canonical spelling
  /// (idempotent; same error behavior as make).
  std::string canonical(const std::string& spec) const {
    std::string params;
    const Family& family = family_for(spec, &params);
    return family.canonical(params);
  }

 private:
  const Family& family_for(const std::string& spec,
                           std::string* params) const {
    const std::size_t colon = spec.find(':');
    ANTDENSE_CHECK(colon != std::string::npos && colon > 0,
                   std::string(nouns_.spec) + " '" + spec +
                       "' must look like " + nouns_.part + ":params (e.g. " +
                       nouns_.example + ")");
    const std::string name = spec.substr(0, colon);
    const auto it = families_.find(name);
    if (it == families_.end()) {
      std::string known;
      for (const auto& [known_name, family] : families_) {
        known += (known.empty() ? "" : ", ") + known_name;
      }
      throw std::invalid_argument("unknown " + std::string(nouns_.kind) +
                                  " '" + name + "' (known: " + known + ")");
    }
    *params = spec.substr(colon + 1);
    return it->second;
  }

  SpecNouns nouns_;
  std::map<std::string, Family> families_;
};

}  // namespace antdense::scenario
