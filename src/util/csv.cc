#include "csv.hh"

#include "logging.hh"

namespace rememberr {

void
CsvWriter::setHeader(std::vector<std::string> header)
{
    if (!rows_.empty())
        REMEMBERR_PANIC("CsvWriter: header after rows");
    header_ = std::move(header);
}

void
CsvWriter::addRow(std::vector<std::string> row)
{
    if (!header_.empty() && row.size() != header_.size())
        REMEMBERR_PANIC("CsvWriter: row width ", row.size(),
                        " != header width ", header_.size());
    rows_.push_back(std::move(row));
}

std::string
csvQuote(const std::string &field)
{
    bool needsQuote = false;
    for (char c : field) {
        if (c == ',' || c == '"' || c == '\n' || c == '\r') {
            needsQuote = true;
            break;
        }
    }
    if (!needsQuote)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

namespace {

void
appendRecord(std::string &out, const std::vector<std::string> &fields)
{
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0)
            out += ',';
        out += csvQuote(fields[i]);
    }
    out += '\n';
}

} // namespace

std::string
CsvWriter::toString() const
{
    std::string out;
    if (!header_.empty())
        appendRecord(out, header_);
    for (const auto &row : rows_)
        appendRecord(out, row);
    return out;
}

} // namespace rememberr
