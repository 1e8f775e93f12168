/**
 * @file
 * RFC-4180-style CSV writing. The library only writes CSV (the
 * database and metrics exports); nothing reads it back.
 */

#ifndef REMEMBERR_UTIL_CSV_HH
#define REMEMBERR_UTIL_CSV_HH

#include <string>
#include <vector>

namespace rememberr {

/** Accumulates rows and renders a CSV document. */
class CsvWriter
{
  public:
    /** Set the header row. Must be called before addRow. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; must match the header width when one is set. */
    void addRow(std::vector<std::string> row);

    std::size_t rowCount() const { return rows_.size(); }

    /** Render the document, quoting fields as required. */
    std::string toString() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Quote a single field if it contains separators, quotes or newlines. */
std::string csvQuote(const std::string &field);

} // namespace rememberr

#endif // REMEMBERR_UTIL_CSV_HH
