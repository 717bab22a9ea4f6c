#include "scenario/spec_params.hpp"

#include <stdexcept>
#include <utility>

#include "util/cli.hpp"

namespace antdense::scenario {

KvField u64_field(std::string key, bool required, std::uint64_t fallback) {
  return {.key = std::move(key), .kind = KvField::Kind::kU64,
          .required = required, .u64_default = fallback};
}

KvField f64_field(std::string key, bool required, double fallback) {
  return {.key = std::move(key), .kind = KvField::Kind::kF64,
          .required = required, .f64_default = fallback};
}

void SpecParams::fail(const std::string& name,
                      const std::string& detail) const {
  throw std::invalid_argument(std::string(prefix_) + " '" + name +
                              "': " + detail);
}

std::uint64_t SpecParams::parse_u64(const std::string& name,
                                    const std::string& key,
                                    const std::string& token) const {
  const auto value = util::parse_uint(token);
  if (!value) {
    fail(name, "parameter '" + key + "=" + token +
                   "': expected an unsigned integer");
  }
  return *value;
}

double SpecParams::parse_f64(const std::string& name, const std::string& key,
                             const std::string& token) const {
  const auto value = util::parse_double(token);
  if (!value) {
    fail(name,
         "parameter '" + key + "=" + token + "': expected a real number");
  }
  return *value;
}

KvValues SpecParams::parse_kv(const std::string& name,
                              const std::string& params,
                              const std::vector<KvField>& fields) const {
  KvValues values;
  values.u64s.resize(fields.size());
  values.f64s.resize(fields.size());
  std::vector<bool> seen(fields.size(), false);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    values.u64s[i] = fields[i].u64_default;
    values.f64s[i] = fields[i].f64_default;
  }
  std::size_t start = 0;
  while (start <= params.size()) {
    const std::size_t comma = params.find(',', start);
    const std::string item =
        params.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      fail(name, "expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string token = item.substr(eq + 1);
    bool matched = false;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].key == key) {
        if (fields[i].kind == KvField::Kind::kU64) {
          values.u64s[i] = parse_u64(name, key, token);
        } else {
          values.f64s[i] = parse_f64(name, key, token);
        }
        seen[i] = true;
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::string known;
      for (const auto& f : fields) {
        known += (known.empty() ? "" : ", ") + f.key;
      }
      fail(name, "unknown parameter '" + key + "=" + token +
                     "' (expected: " + known + ")");
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].required && !seen[i]) {
      fail(name, "missing required parameter '" + fields[i].key + "'");
    }
  }
  return values;
}

void SpecParams::check_range(bool ok, const std::string& name,
                             const std::string& key, const std::string& value,
                             const std::string& expectation) const {
  if (!ok) {
    fail(name, "parameter '" + key + "=" + value + "': " + expectation);
  }
}

}  // namespace antdense::scenario
