#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace antdense::util {
namespace {

TEST(Table, RejectsEmptyHeaderList) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RowLengthMustMatchColumns) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, RowBuilderFormatsNumbers) {
  Table t({"name", "value", "count"});
  t.row().cell("x").cell(0.5).cell(std::uint64_t{42}).commit();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], "x");
  EXPECT_EQ(t.rows()[0][2], "42");
}

TEST(Table, MarkdownHasHeaderSeparatorAndAlignment) {
  Table t({"col", "value"});
  t.row().cell("first").cell(1).commit();
  std::ostringstream os;
  t.print_markdown(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| col"), std::string::npos);
  EXPECT_NE(out.find("| ---"), std::string::npos);
  EXPECT_NE(out.find("| first"), std::string::npos);
}

TEST(Table, MarkdownPadsAllRowsToEqualWidth) {
  Table t({"c"});
  t.add_row({"wide-cell-content"});
  std::ostringstream os;
  t.print_markdown(os);
  std::istringstream in(os.str());
  std::string line;
  std::vector<std::size_t> widths;
  while (std::getline(in, line)) {
    widths.push_back(line.size());
  }
  ASSERT_EQ(widths.size(), 3u);
  EXPECT_EQ(widths[0], widths[1]);
  EXPECT_EQ(widths[1], widths[2]);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"a", "b"});
  t.add_row({"x,y", "say \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"x,y\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvPlainCellsUnquoted) {
  Table t({"a"});
  t.add_row({"plain"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a\nplain\n");
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(PrintHelpers, SectionAndNote) {
  std::ostringstream os;
  print_section(os, "Title");
  print_note(os, "key", "value");
  EXPECT_NE(os.str().find("## Title"), std::string::npos);
  EXPECT_NE(os.str().find("- key: value"), std::string::npos);
}

}  // namespace
}  // namespace antdense::util
