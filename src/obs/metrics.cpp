#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace antdense::obs {

namespace detail {

std::size_t thread_sink_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i])) {
      throw std::invalid_argument(
          "histogram bounds must be finite (the +Inf bucket is implicit)");
    }
    if (i > 0 && bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "histogram bounds must be strictly increasing");
    }
  }
  for (auto& slot : slots_) {
    slot.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.upper_bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const auto& slot : slots_) {
    for (std::size_t b = 0; b < slot.counts.size(); ++b) {
      snap.counts[b] += slot.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += slot.sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.counts) {
    snap.count += c;
  }
  return snap;
}

const std::vector<double>& Histogram::default_latency_bounds() {
  // 1 us .. 10 s, roughly x4 per step: covers a sub-ms engine phase
  // and a multi-second experiment in one bucket layout.
  static const std::vector<double> kBounds = {
      1e-6,   4e-6,   16e-6,  64e-6, 256e-6, 1e-3, 4e-3,
      16e-3,  64e-3,  256e-3, 1.0,   4.0,    10.0};
  return kBounds;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (upper_bounds != other.upper_bounds ||
      counts.size() != other.counts.size()) {
    throw std::invalid_argument(
        "cannot merge histogram snapshots with different bucket layouts");
  }
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] += other.counts[b];
  }
  count += other.count;
  sum += other.sum;
}

// ---------------------------------------------------------------------------
// Registry

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) {
      return false;
    }
  }
  return true;
}

const char* kind_name(int kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    default:
      return "histogram";
  }
}

/// Formats a double the way the exposition format expects: integers
/// without a fractional part, infinities as +Inf/-Inf, everything else
/// with enough digits to round-trip.
std::string format_number(double v) {
  if (!std::isfinite(v)) {
    return std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf");
  }
  // Range first: casting a double outside int64_t's range is undefined.
  if (std::abs(v) < 9.007199254740992e15 &&
      v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  // Shortest representation that round-trips: bucket bounds read as
  // le="1e-06", not le="9.9999999999999995e-07".
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) {
      break;
    }
  }
  return buf;
}

}  // namespace

std::string format_labels(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += labels[i].first;
    out += "=\"";
    out += util::json_escape(labels[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    const std::string& name, const Labels& labels, const std::string& help,
    Kind kind) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  const std::string key = name + format_labels(labels);
  for (auto& e : entries_) {
    if (e->name == name && e->kind != kind) {
      throw std::invalid_argument("metric '" + name +
                                  "' already registered as a different kind");
    }
    if (e->key == key) {
      return *e;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->labels = labels;
  entry->key = key;
  entry->help = help;
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, labels, help, Kind::kCounter);
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, labels, help, Kind::kGauge);
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& upper_bounds,
                                      const Labels& labels,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, labels, help, Kind::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(
        upper_bounds.empty() ? Histogram::default_latency_bounds()
                             : upper_bounds);
  }
  return *e.histogram;
}

util::JsonValue MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::JsonValue out = util::JsonValue::object();
  for (const auto& e : entries_) {
    util::JsonValue item = util::JsonValue::object();
    item.set("type", kind_name(static_cast<int>(e->kind)));
    switch (e->kind) {
      case Kind::kCounter:
        item.set("value", e->counter->value());
        break;
      case Kind::kGauge:
        item.set("value", static_cast<std::int64_t>(e->gauge->value()));
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot snap = e->histogram->snapshot();
        util::JsonValue bounds = util::JsonValue::array();
        for (const double b : snap.upper_bounds) {
          bounds.push_back(b);
        }
        util::JsonValue counts = util::JsonValue::array();
        for (const std::uint64_t c : snap.counts) {
          counts.push_back(c);
        }
        item.set("upper_bounds", std::move(bounds));
        item.set("buckets", std::move(counts));
        item.set("count", snap.count);
        // JSON has no infinities or NaN: a non-finite sum takes the
        // exposition format's spelling, as a string.
        if (std::isfinite(snap.sum)) {
          item.set("sum", snap.sum);
        } else {
          item.set("sum", format_number(snap.sum));
        }
        break;
      }
    }
    out.set(e->key, std::move(item));
  }
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::vector<std::string> announced;  // families with HELP/TYPE emitted
  for (const auto& e : entries_) {
    if (std::find(announced.begin(), announced.end(), e->name) ==
        announced.end()) {
      announced.push_back(e->name);
      if (!e->help.empty()) {
        out += "# HELP " + e->name + " " + e->help + "\n";
      }
      out += "# TYPE " + e->name + " " +
             kind_name(static_cast<int>(e->kind)) + "\n";
    }
    const std::string labels_text = format_labels(e->labels);
    switch (e->kind) {
      case Kind::kCounter:
        out += e->name + labels_text + " " +
               std::to_string(e->counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += e->name + labels_text + " " +
               std::to_string(e->gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot snap = e->histogram->snapshot();
        // _bucket series are cumulative and carry an `le` label
        // appended to the instrument's own labels.
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < snap.counts.size(); ++b) {
          cumulative += snap.counts[b];
          Labels with_le = e->labels;
          with_le.emplace_back(
              "le", b < snap.upper_bounds.size()
                        ? format_number(snap.upper_bounds[b])
                        : std::string("+Inf"));
          out += e->name + "_bucket" + format_labels(with_le) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += e->name + "_sum" + labels_text + " " +
               format_number(snap.sum) + "\n";
        out += e->name + "_count" + labels_text + " " +
               std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace antdense::obs
