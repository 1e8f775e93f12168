/**
 * @file
 * Unit tests for CSV writing.
 */

#include <gtest/gtest.h>

#include "util/csv.hh"

namespace rememberr {
namespace {

TEST(CsvQuote, OnlyWhenNeeded)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("two\nlines"), "\"two\nlines\"");
    EXPECT_EQ(csvQuote(""), "");
}

TEST(CsvWriter, HeaderAndRows)
{
    CsvWriter writer;
    writer.setHeader({"id", "title"});
    writer.addRow({"1", "Processor May Hang"});
    writer.addRow({"2", "Value, Corrupted"});
    EXPECT_EQ(writer.toString(),
              "id,title\n"
              "1,Processor May Hang\n"
              "2,\"Value, Corrupted\"\n");
    EXPECT_EQ(writer.rowCount(), 2u);
}

TEST(CsvWriter, NoHeader)
{
    CsvWriter writer;
    writer.addRow({"a", "b"});
    EXPECT_EQ(writer.toString(), "a,b\n");
}

TEST(CsvRoundTrip, WriterThenParser)
{
    CsvWriter writer;
    writer.setHeader({"key", "text"});
    writer.addRow({"1", "has, comma"});
    writer.addRow({"2", "has \"quotes\""});
    writer.addRow({"3", "multi\nline"});
    // A field with a comma, a quote or a newline is quoted whole and
    // its quotes doubled, so a reader splits records only at the
    // unquoted newlines.
    EXPECT_EQ(writer.toString(),
              "key,text\n"
              "1,\"has, comma\"\n"
              "2,\"has \"\"quotes\"\"\"\n"
              "3,\"multi\nline\"\n");
}

} // namespace
} // namespace rememberr
