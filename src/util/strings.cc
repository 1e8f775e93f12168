#include "strings.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace rememberr {
namespace strings {

namespace {

inline bool
isSpace(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

inline char
lowerChar(char c)
{
    return static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
}

} // namespace

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && isSpace(text[begin]))
        ++begin;
    while (end > begin && isSpace(text[end - 1]))
        --end;
    return std::string(text.substr(begin, end - begin));
}

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            out.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && isSpace(text[i]))
            ++i;
        std::size_t start = i;
        while (i < text.size() && !isSpace(text[i]))
            ++i;
        if (i > start)
            out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

std::vector<std::string>
splitLines(std::string_view text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') {
            std::size_t end = i;
            if (end > start && text[end - 1] == '\r')
                --end;
            out.emplace_back(text.substr(start, end - start));
            start = i + 1;
        }
    }
    if (start < text.size()) {
        std::size_t end = text.size();
        if (end > start && text[end - 1] == '\r')
            --end;
        out.emplace_back(text.substr(start, end - start));
    }
    return out;
}

std::string
join(const std::vector<std::string> &parts, std::string_view sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = lowerChar(c);
    return out;
}

std::string
toUpper(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return out;
}

std::string
replaceAll(std::string_view text, std::string_view from,
           std::string_view to)
{
    if (from.empty())
        return std::string(text);
    std::string out;
    std::size_t pos = 0;
    for (;;) {
        std::size_t hit = text.find(from, pos);
        if (hit == std::string_view::npos) {
            out += text.substr(pos);
            return out;
        }
        out += text.substr(pos, hit - pos);
        out += to;
        pos = hit + from.size();
    }
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
               return lowerChar(x) == lowerChar(y);
           });
}

bool
containsIgnoreCase(std::string_view haystack, std::string_view needle)
{
    for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
        if (equalsIgnoreCase(haystack.substr(i, needle.size()), needle))
            return true;
    }
    return false;
}

std::string
padRight(std::string_view text, std::size_t width)
{
    std::string out(text);
    if (out.size() < width)
        out.append(width - out.size(), ' ');
    return out;
}

std::string
padLeft(std::string_view text, std::size_t width)
{
    std::string out;
    if (text.size() < width)
        out.append(width - text.size(), ' ');
    out += text;
    return out;
}

std::string
repeat(std::string_view unit, std::size_t n)
{
    std::string out;
    out.reserve(unit.size() * n);
    for (std::size_t i = 0; i < n; ++i)
        out += unit;
    return out;
}

std::vector<std::string>
wrap(std::string_view text, std::size_t columns)
{
    std::vector<std::string> lines;
    std::string current;
    for (const std::string &word : splitWhitespace(text)) {
        if (current.empty()) {
            current = word;
        } else if (current.size() + 1 + word.size() <= columns) {
            current += ' ';
            current += word;
        } else {
            lines.push_back(current);
            current = word;
        }
    }
    if (!current.empty())
        lines.push_back(current);
    if (lines.empty())
        lines.emplace_back();
    return lines;
}

std::string
formatDouble(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
formatPercent(double fraction, int decimals)
{
    return formatDouble(fraction * 100.0, decimals) + "%";
}

std::string
canonicalize(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    bool pendingSpace = false;
    for (char raw : text) {
        char c = lowerChar(raw);
        bool keep = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
        if (keep) {
            if (pendingSpace && !out.empty())
                out += ' ';
            pendingSpace = false;
            out += c;
        } else {
            pendingSpace = true;
        }
    }
    return out;
}

} // namespace strings
} // namespace rememberr
