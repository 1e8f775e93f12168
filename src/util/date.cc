#include "date.hh"

#include <cstdio>

#include "logging.hh"

namespace rememberr {

namespace {

// Hinnant's days_from_civil: serial day count from 1970-01-01.
std::int64_t
daysFromCivil(int y, unsigned m, unsigned d)
{
    y -= m <= 2;
    const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
    const unsigned yoe = static_cast<unsigned>(y - era * 400);
    const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
    const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

// Hinnant's civil_from_days: inverse of the above.
void
civilFromDays(std::int64_t z, int &y, unsigned &m, unsigned &d)
{
    z += 719468;
    const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);
    const unsigned yoe =
        (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    const std::int64_t yr = static_cast<std::int64_t>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const unsigned mp = (5 * doy + 2) / 153;
    d = doy - (153 * mp + 2) / 5 + 1;
    m = mp + (mp < 10 ? 3 : -9);
    y = static_cast<int>(yr + (m <= 2));
}

} // namespace

bool
isLeapYear(int year)
{
    return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

unsigned
daysInMonth(int year, unsigned month)
{
    static const unsigned lengths[] = {31, 28, 31, 30, 31, 30,
                                       31, 31, 30, 31, 30, 31};
    if (month < 1 || month > 12)
        REMEMBERR_PANIC("daysInMonth: bad month ", month);
    if (month == 2 && isLeapYear(year))
        return 29;
    return lengths[month - 1];
}

Date::Date(int year, unsigned month, unsigned day)
{
    if (month < 1 || month > 12)
        REMEMBERR_PANIC("Date: bad month ", month);
    if (day < 1 || day > daysInMonth(year, month))
        REMEMBERR_PANIC("Date: bad day ", day, " for ", year, "-", month);
    days_ = daysFromCivil(year, month, day);
}

Date
Date::fromSerial(std::int64_t days)
{
    Date d;
    d.days_ = days;
    return d;
}

Expected<Date>
Date::parse(std::string_view text)
{
    // Strictly "YYYY-MM-DD", matching toString: exactly ten
    // characters, zero-padded digit spans, '-' separators. sscanf is
    // deliberately avoided — it tolerates leading whitespace, '+'/'-'
    // signs and variable-width fields, all of which would let
    // strings that cannot round-trip slip through.
    auto digit = [&](std::size_t i) {
        return text[i] >= '0' && text[i] <= '9';
    };
    bool shaped = text.size() == 10 && text[4] == '-' &&
                  text[7] == '-';
    if (shaped) {
        for (std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u})
            shaped = shaped && digit(i);
    }
    if (!shaped)
        return makeError("malformed date '" + std::string(text) + "'");
    auto span = [&](std::size_t from, std::size_t to) {
        int value = 0;
        for (std::size_t i = from; i < to; ++i)
            value = value * 10 + (text[i] - '0');
        return value;
    };
    int y = span(0, 4);
    unsigned m = static_cast<unsigned>(span(5, 7));
    unsigned d = static_cast<unsigned>(span(8, 10));
    if (m < 1 || m > 12)
        return makeError("month out of range in '" + std::string(text) +
                         "'");
    if (d < 1 || d > daysInMonth(y, m))
        return makeError("day out of range in '" + std::string(text) +
                         "'");
    return Date(y, m, d);
}

int
Date::year() const
{
    int y;
    unsigned m, d;
    civilFromDays(days_, y, m, d);
    return y;
}

unsigned
Date::month() const
{
    int y;
    unsigned m, d;
    civilFromDays(days_, y, m, d);
    return m;
}

unsigned
Date::day() const
{
    int y;
    unsigned m, d;
    civilFromDays(days_, y, m, d);
    return d;
}

std::string
Date::toString() const
{
    std::string out;
    appendTo(out);
    return out;
}

void
Date::appendTo(std::string &out) const
{
    int y;
    unsigned m, d;
    civilFromDays(days_, y, m, d);
    if (y < 0 || y > 9999) {
        char buf[24];
        int size =
            std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", y, m, d);
        out.append(buf, static_cast<std::size_t>(size));
        return;
    }
    // Two zero-padded digits at `at`.
    auto pair = [](char *at, unsigned value) {
        at[0] = static_cast<char>('0' + value / 10);
        at[1] = static_cast<char>('0' + value % 10);
    };
    const auto year = static_cast<unsigned>(y);
    char text[10];
    pair(text, year / 100);
    pair(text + 2, year % 100);
    text[4] = '-';
    pair(text + 5, m);
    text[7] = '-';
    pair(text + 8, d);
    out.append(text, sizeof(text));
}

std::int64_t
Date::daysUntil(Date other) const
{
    return other.days_ - days_;
}

Date
Date::addDays(std::int64_t n) const
{
    return fromSerial(days_ + n);
}

Date
Date::addMonths(int n) const
{
    int y;
    unsigned m, d;
    civilFromDays(days_, y, m, d);
    int total = y * 12 + static_cast<int>(m) - 1 + n;
    int ny = total / 12;
    int nm = total % 12;
    if (nm < 0) {
        nm += 12;
        ny -= 1;
    }
    unsigned month = static_cast<unsigned>(nm) + 1;
    unsigned day = d;
    unsigned limit = daysInMonth(ny, month);
    if (day > limit)
        day = limit;
    return Date(ny, month, day);
}

double
Date::toFractionalYear() const
{
    int y = year();
    Date start(y, 1, 1);
    Date next(y + 1, 1, 1);
    double span = static_cast<double>(start.daysUntil(next));
    return y + static_cast<double>(start.daysUntil(*this)) / span;
}

} // namespace rememberr
