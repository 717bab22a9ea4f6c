#include "util/cli.hpp"

#include <charconv>
#include <stdexcept>

namespace antdense::util {

namespace {

template <typename Number>
std::optional<Number> parse_whole(std::string_view token) {
  Number value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

[[noreturn]] void throw_bad_value(const std::string& key,
                                  const std::string& value,
                                  const std::string& expectation) {
  throw std::invalid_argument("flag --" + key + ": expected " + expectation +
                              ", got '" + value + "'");
}

bool looks_like_flag(const std::string& arg) {
  return arg.size() >= 3 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view token) {
  return parse_whole<std::uint64_t>(token);
}

std::optional<double> parse_double(std::string_view token) {
  return parse_whole<double>(token);
}

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--key value" form: consume the next token if it is not a flag.
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      flags_[body] = argv[i + 1];
      ++i;
    } else {
      flags_[body] = "true";
    }
  }
}

bool Args::has(const std::string& key) const { return flags_.count(key) > 0; }

std::vector<std::string> Args::unknown(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : flags_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == key) {
        found = true;
        break;
      }
    }
    if (!found) {
      out.push_back(key);  // flags_ is a sorted map, so out is sorted
    }
  }
  return out;
}

std::vector<std::string> Args::unknown(
    std::initializer_list<const char*> known) const {
  return unknown(std::vector<std::string>(known.begin(), known.end()));
}

void Args::require_known(const std::vector<std::string>& known) const {
  if (!positional_.empty()) {
    // A flag missing its leading dashes lands here; reject it rather
    // than silently falling back to defaults.
    std::string message = "unexpected argument";
    if (positional_.size() > 1) {
      message += 's';
    }
    for (const std::string& p : positional_) {
      message += " '" + p + "'";
    }
    throw std::invalid_argument(message + " (flags are --key=value)");
  }
  const std::vector<std::string> bad = unknown(known);
  if (bad.empty()) {
    return;
  }
  std::string message = "unknown flag";
  if (bad.size() > 1) {
    message += 's';
  }
  for (const std::string& key : bad) {
    message += " --" + key;
  }
  message += "; known flags:";
  for (const std::string& key : known) {
    message += " --" + key;
  }
  throw std::invalid_argument(message);
}

void Args::require_known(std::initializer_list<const char*> known) const {
  require_known(std::vector<std::string>(known.begin(), known.end()));
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  const auto value = parse_whole<std::int64_t>(it->second);
  if (!value) {
    throw_bad_value(key, it->second, "an integer");
  }
  return *value;
}

std::uint64_t Args::get_uint(const std::string& key, std::uint64_t fallback,
                             std::uint64_t max) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  const auto value = parse_uint(it->second);
  if (!value) {
    throw_bad_value(key, it->second, "an unsigned integer");
  }
  if (*value > max) {
    throw_bad_value(key, it->second, "at most " + std::to_string(max));
  }
  return *value;
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  const auto value = parse_double(it->second);
  if (!value) {
    throw_bad_value(key, it->second, "a real number");
  }
  return *value;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  throw_bad_value(key, v, "true/1/yes/on or false/0/no/off");
}

}  // namespace antdense::util
