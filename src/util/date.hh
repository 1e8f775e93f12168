/**
 * @file
 * Proleptic-Gregorian calendar dates.
 *
 * The timeline analyses (Figures 2, 4 and 5) work on document revision
 * dates. A Date is a thin wrapper over a serial day number with
 * conversion to/from civil (year, month, day) triples using Howard
 * Hinnant's days_from_civil algorithm.
 */

#ifndef REMEMBERR_UTIL_DATE_HH
#define REMEMBERR_UTIL_DATE_HH

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "expected.hh"

namespace rememberr {

/** A calendar date, stored as days since 1970-01-01. */
class Date
{
  public:
    /** Default: the Unix epoch. */
    Date() = default;

    /** From a civil triple. Panics on out-of-range month/day. */
    Date(int year, unsigned month, unsigned day);

    /** From a serial day number (days since 1970-01-01). */
    static Date fromSerial(std::int64_t days);

    /** Parse "YYYY-MM-DD". */
    static Expected<Date> parse(std::string_view text);

    std::int64_t serial() const { return days_; }

    int year() const;
    unsigned month() const;
    unsigned day() const;

    /** Render as "YYYY-MM-DD". */
    std::string toString() const;

    /** Append `toString()`'s bytes to `out`. */
    void appendTo(std::string &out) const;

    /** Whole days from this to other (positive if other is later). */
    std::int64_t daysUntil(Date other) const;

    Date addDays(std::int64_t n) const;

    /**
     * Add n calendar months, clamping the day-of-month (e.g.
     * 2013-01-31 + 1 month = 2013-02-28).
     */
    Date addMonths(int n) const;

    /** Fractional year, e.g. 2013-07-02 ~ 2013.5; used for plotting. */
    double toFractionalYear() const;

    auto operator<=>(const Date &) const = default;

  private:
    std::int64_t days_ = 0;
};

/** Days in the given month of the given year. */
unsigned daysInMonth(int year, unsigned month);

/** Gregorian leap-year test. */
bool isLeapYear(int year);

} // namespace rememberr

#endif // REMEMBERR_UTIL_DATE_HH
