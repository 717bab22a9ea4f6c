#include "util/table.hpp"

#include <algorithm>
#include <ostream>

#include "util/check.hpp"
#include "util/format.hpp"

namespace antdense::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ANTDENSE_CHECK(!headers_.empty(), "table must have at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  ANTDENSE_CHECK(cells.size() == headers_.size(),
                 "row cell count must match column count");
  rows_.push_back(std::move(cells));
}

Table::RowBuilder& Table::RowBuilder::cell(const std::string& text) {
  cells_.push_back(text);
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(const char* text) {
  cells_.emplace_back(text);
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(double value) {
  cells_.push_back(format_auto(value));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(std::uint64_t value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(std::uint32_t value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(std::int64_t value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

Table::RowBuilder& Table::RowBuilder::cell(int value) {
  cells_.push_back(std::to_string(value));
  return *this;
}

void Table::RowBuilder::commit() { table_.add_row(std::move(cells_)); }

namespace {

std::size_t display_width(const std::string& s) { return s.size(); }

std::string pad_to(const std::string& s, std::size_t width) {
  std::string out = s;
  while (display_width(out) < width) {
    out.push_back(' ');
  }
  return out;
}

}  // namespace

std::string csv_escape(const std::string& s) {
  const bool needs_quotes =
      s.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

void Table::print_markdown(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = display_width(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], display_width(row[c]));
    }
  }
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << ' ' << pad_to(headers_[c], widths[c]) << " |";
  }
  os << '\n' << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << ' ' << std::string(widths[c], '-') << " |";
  }
  os << '\n';
  for (const auto& row : rows_) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << ' ' << pad_to(row[c], widths[c]) << " |";
    }
    os << '\n';
  }
}

void Table::print_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) os << ',';
    os << csv_escape(headers_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  }
}

void print_section(std::ostream& os, const std::string& title) {
  os << "\n## " << title << "\n\n";
}

void print_note(std::ostream& os, const std::string& key,
                const std::string& value) {
  os << "- " << key << ": " << value << '\n';
}

}  // namespace antdense::util
