// Markdown table emitter used by every bench binary so that experiment
// output is uniform and diffable against EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace antdense::util {

/// A simple column-oriented table.  Cells are stored as strings; numeric
/// convenience overloads format through format_auto.  Rows must have
/// exactly as many cells as there are columns.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  std::size_t num_columns() const { return headers_.size(); }
  std::size_t num_rows() const { return rows_.size(); }

  /// Starts a new row.  Must be followed by exactly num_columns() cell()
  /// calls (or use add_row with a full vector).
  void add_row(std::vector<std::string> cells);

  /// Row builder: accumulates heterogeneous cells and validates length.
  class RowBuilder {
   public:
    explicit RowBuilder(Table& table) : table_(table) {}
    RowBuilder& cell(const std::string& text);
    RowBuilder& cell(const char* text);
    RowBuilder& cell(double value);
    RowBuilder& cell(std::uint64_t value);
    RowBuilder& cell(std::uint32_t value);
    RowBuilder& cell(std::int64_t value);
    RowBuilder& cell(int value);
    /// Commits the row to the table.  Throws if cell count mismatches.
    void commit();

   private:
    Table& table_;
    std::vector<std::string> cells_;
  };

  RowBuilder row() { return RowBuilder(*this); }

  /// Renders as a GitHub-flavored Markdown table.
  void print_markdown(std::ostream& os) const;

  /// Renders as CSV (RFC-4180-ish quoting for commas/quotes/newlines).
  void print_csv(std::ostream& os) const;

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// One CSV field: quoted, with inner quotes doubled, when it holds a
/// comma, quote or newline; verbatim otherwise.
std::string csv_escape(const std::string& s);

/// Prints a bench section header ("## title") followed by a blank line.
void print_section(std::ostream& os, const std::string& title);

/// Prints a one-line "key: value" note used for experiment parameters.
void print_note(std::ostream& os, const std::string& key,
                const std::string& value);

}  // namespace antdense::util
