#include "query_plan.hh"

#include <algorithm>
#include <limits>

#include "util/json.hh"
#include "util/logging.hh"

namespace rememberr {

namespace {

using Column = ColumnBlock::Column;

// The Attrs column: one byte each for the vendor, the workaround
// class and the fix status, then the flag bits.
constexpr unsigned kVendorShift = 0;
constexpr unsigned kWorkaroundShift = 8;
constexpr unsigned kStatusShift = 16;
constexpr std::uint64_t kByte = 0xff;
constexpr std::uint64_t kComplex = 1u << 24;
constexpr std::uint64_t kSimulationOnly = 1u << 25;

/**
 * A date as a FirstDisclosed value: unsigned order is date order, and
 * only the serial INT64_MIN, which no parsed date has, maps to 0.
 */
std::uint64_t
day(Date date)
{
    return static_cast<std::uint64_t>(date.serial()) ^
           (std::uint64_t{1} << 63);
}

/** FirstDisclosed of an entry without occurrences: before any day. */
constexpr std::uint64_t kUndated = 0;

constexpr unsigned kWorkaroundClasses = 6;

/** `{"code":<code>,"count":`, the fixed head of one group row. */
std::string
groupHead(std::string_view code)
{
    std::string out = "{\"code\":";
    appendJsonEscaped(out, code);
    out += ",\"count\":";
    return out;
}

} // namespace

ColumnBlock::ColumnBlock(const Database &db)
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    for (const AbstractCategory &category : taxonomy.categories()) {
        classOf_.push_back(category.classId);
        categoryGroup_.push_back(groupHead(category.code));
    }
    for (const CategoryClass &cls : taxonomy.classes())
        classGroup_.push_back(groupHead(cls.code));
    for (unsigned c = 0; c < kWorkaroundClasses; ++c) {
        workaroundGroup_.push_back(groupHead(workaroundClassName(
            static_cast<WorkaroundClass>(c))));
    }
    // The taxonomy has 60 categories, fewer than a mask's 64 bits.
    const std::uint64_t known =
        (std::uint64_t{1} << taxonomy.categoryCount()) - 1;

    for (std::vector<std::uint64_t> &values : columns_)
        values.reserve(db.entries().size());
    axes_.reserve(db.entries().size());
    entryEnd_.reserve(db.entries().size());
    auto push = [&](Column which, std::uint64_t value) {
        columns_[static_cast<std::size_t>(which)].push_back(value);
    };
    for (const DbEntry &entry : db.entries()) {
        std::array<std::uint64_t, 3> axes = {entry.triggers.mask(),
                                             entry.contexts.mask(),
                                             entry.effects.mask()};
        std::uint64_t categories = axes[0] | axes[1] | axes[2];
        if (categories & ~known)
            REMEMBERR_PANIC("ColumnBlock: entry ", entry.key,
                            " has a category outside the taxonomy");
        if (static_cast<unsigned>(entry.workaroundClass) >=
            kWorkaroundClasses)
            REMEMBERR_PANIC("ColumnBlock: entry ", entry.key,
                            " has a bad workaround class");
        std::uint64_t classes = 0;
        for (std::uint64_t m = categories; m; m &= m - 1)
            classes |= std::uint64_t{1}
                       << classOf_[__builtin_ctzll(m)];
        std::uint64_t attrs =
            std::uint64_t{static_cast<std::uint8_t>(entry.vendor)}
                << kVendorShift |
            std::uint64_t{static_cast<std::uint8_t>(
                entry.workaroundClass)}
                << kWorkaroundShift |
            std::uint64_t{static_cast<std::uint8_t>(entry.status)}
                << kStatusShift;
        if (entry.complexConditions)
            attrs |= kComplex;
        if (entry.simulationOnly)
            attrs |= kSimulationOnly;
        std::uint64_t firstDisclosed =
            entry.occurrences.empty() ? kUndated
                                      : day(entry.firstDisclosed());
        push(Column::Attrs, attrs);
        push(Column::Categories, categories);
        push(Column::Classes, classes);
        push(Column::Triggers, entry.triggers.size());
        push(Column::Occurrences, entry.occurrences.size());
        push(Column::FirstDisclosed, firstDisclosed);
        axes_.push_back(axes);

        // The entry's `run` object, keys in sorted order.
        entryJson_ += "{\"key\":";
        appendJsonCount(entryJson_, entry.key);
        entryJson_ += ",\"occurrences\":";
        appendJsonCount(entryJson_, entry.occurrences.size());
        entryJson_ += ",\"title\":";
        appendJsonEscaped(entryJson_, entry.title);
        entryJson_ += ",\"triggers\":";
        appendJsonCount(entryJson_, entry.triggers.size());
        entryJson_ += ",\"vendor\":";
        appendJsonEscaped(entryJson_, vendorName(entry.vendor));
        entryJson_ += '}';
        entryEnd_.push_back(entryJson_.size());
    }
}

QueryPlan::QueryPlan(const QuerySpec &spec)
    : op_(spec.op), groupBy_(spec.groupBy), axis_(spec.axis),
      limit_(spec.limit)
{
    if (op_ == QuerySpec::Op::Ping)
        return;
    auto test = [&](Column column, bool range, std::uint64_t a,
                    std::uint64_t b) {
        tests_[testCount_++] = Test{column, range, a, b};
    };
    auto range = [&](Column column, std::uint64_t low,
                     std::uint64_t high) {
        if (low > high)
            empty_ = true;
        else
            test(column, true, low, high - low);
    };

    // Equalities on the Attrs bytes and flags merge into one test.
    std::uint64_t mask = 0;
    std::uint64_t value = 0;
    auto equal = [&](unsigned shift, std::uint8_t byte) {
        mask |= kByte << shift;
        value |= std::uint64_t{byte} << shift;
    };
    auto flag = [&](std::uint64_t bit, bool set) {
        mask |= bit;
        if (set)
            value |= bit;
    };
    if (spec.vendor)
        equal(kVendorShift, static_cast<std::uint8_t>(*spec.vendor));
    if (spec.workaround)
        equal(kWorkaroundShift,
              static_cast<std::uint8_t>(*spec.workaround));
    if (spec.status)
        equal(kStatusShift, static_cast<std::uint8_t>(*spec.status));
    if (spec.complexConditions)
        flag(kComplex, *spec.complexConditions);
    if (spec.simulationOnly)
        flag(kSimulationOnly, *spec.simulationOnly);

    // The disclosure window goes first: it is the most selective
    // filter of a typical request.
    if (spec.disclosedFrom)
        range(Column::FirstDisclosed, day(*spec.disclosedFrom),
              day(*spec.disclosedTo));
    if (mask)
        test(Column::Attrs, false, mask, value);
    if (spec.category) {
        std::uint64_t bit = std::uint64_t{1} << *spec.category;
        test(Column::Categories, false, bit, bit);
    }
    if (spec.categoryClass) {
        std::uint64_t bit = std::uint64_t{1} << *spec.categoryClass;
        test(Column::Classes, false, bit, bit);
    }
    const std::uint64_t maximum =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t triggersLow = spec.minTriggers.value_or(0);
    std::uint64_t triggersHigh = maximum;
    if (spec.exactTriggers) {
        triggersLow = std::max<std::uint64_t>(triggersLow,
                                              *spec.exactTriggers);
        triggersHigh = *spec.exactTriggers;
    }
    if (triggersLow > 0 || triggersHigh < maximum)
        range(Column::Triggers, triggersLow, triggersHigh);
    if (spec.minOccurrences.value_or(0) > 0)
        range(Column::Occurrences, *spec.minOccurrences, maximum);
}

std::uint64_t
QueryPlan::matchWord(const ColumnBlock &block, std::size_t base,
                     std::size_t count) const
{
    std::uint64_t word =
        count == 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << count) - 1;
    for (std::size_t t = 0; t < testCount_ && word; ++t) {
        const Test &test = tests_[t];
        const std::uint64_t *values = block.column(test.column) + base;
        // Shift each result in from the bottom, last entry first:
        // cheaper than shifting by a variable amount.
        std::uint64_t passed = 0;
        if (test.range) {
            for (std::size_t i = count; i-- > 0;)
                passed = passed << 1 |
                         std::uint64_t{values[i] - test.a <= test.b};
        } else {
            for (std::size_t i = count; i-- > 0;)
                passed =
                    passed << 1 |
                    std::uint64_t{(values[i] & test.a) == test.b};
        }
        word &= passed;
    }
    return word;
}

template <typename Visit>
std::size_t
QueryPlan::scan(const ColumnBlock &block, std::size_t visits,
                Visit visit) const
{
    std::size_t total = 0;
    for (std::size_t base = 0; base < block.size(); base += 64) {
        std::uint64_t word = matchWord(
            block, base, std::min<std::size_t>(64, block.size() - base));
        total +=
            static_cast<std::size_t>(__builtin_popcountll(word));
        for (; word && visits; word &= word - 1, --visits)
            visit(base + static_cast<std::size_t>(
                             __builtin_ctzll(word)));
    }
    return total;
}

void
QueryPlan::renderGroups(const ColumnBlock &block,
                        std::string &out) const
{
    // Per-category (or per-workaround) counts, then per-class sums:
    // `countByClass` counts a class once per member category.
    std::array<std::size_t, 64> counts{};
    const std::vector<std::string> *heads = &block.categoryGroup_;
    const std::size_t all = std::numeric_limits<std::size_t>::max();
    if (groupBy_ == QuerySpec::GroupBy::Workaround) {
        heads = &block.workaroundGroup_;
        const std::uint64_t *attrs = block.column(Column::Attrs);
        scan(block, all, [&](std::size_t i) {
            ++counts[(attrs[i] >> kWorkaroundShift) & kByte];
        });
    } else {
        const auto axis = static_cast<std::size_t>(axis_);
        scan(block, all, [&](std::size_t i) {
            for (std::uint64_t m = block.axes_[i][axis]; m;
                 m &= m - 1)
                ++counts[static_cast<std::size_t>(
                    __builtin_ctzll(m))];
        });
        if (groupBy_ == QuerySpec::GroupBy::Class) {
            std::array<std::size_t, 64> byClass{};
            for (std::size_t id = 0; id < block.classOf_.size();
                 ++id)
                byClass[block.classOf_[id]] += counts[id];
            counts = byClass;
            heads = &block.classGroup_;
        }
    }
    bool first = true;
    for (std::size_t id = 0; id < heads->size(); ++id) {
        if (counts[id] == 0)
            continue;
        if (!first)
            out += ',';
        first = false;
        out += (*heads)[id];
        appendJsonCount(out, counts[id]);
        out += '}';
    }
}

void
QueryPlan::render(const ColumnBlock &block, std::string_view canonical,
                  std::string &out) const
{
    // Keys in sorted order, as JsonValue::dump() writes an object:
    // the op's leading key, then ok, op and query, then total.
    auto common = [&] {
        out += "\"ok\":true,\"op\":";
        appendJsonEscaped(out, queryOpName(op_));
        if (op_ == QuerySpec::Op::Ping)
            return;
        out += ",\"query\":";
        appendJsonEscaped(out, canonical);
    };
    out += '{';
    switch (op_) {
      case QuerySpec::Op::Ping:
        common();
        break;
      case QuerySpec::Op::Count:
        out += "\"count\":";
        appendJsonCount(
            out, empty_ ? 0 : scan(block, 0, [](std::size_t) {}));
        out += ',';
        common();
        break;
      case QuerySpec::Op::Run: {
        out += "\"entries\":[";
        std::size_t total = 0;
        if (!empty_) {
            total = scan(block, limit_, [&](std::size_t i) {
                if (out.back() != '[')
                    out += ',';
                out += block.entryJson(i);
            });
        }
        out += "],";
        common();
        out += ",\"total\":";
        appendJsonCount(out, total);
        break;
      }
      case QuerySpec::Op::Group:
        out += "\"groups\":[";
        if (!empty_)
            renderGroups(block, out);
        out += "],";
        common();
        break;
    }
    out += '}';
}

} // namespace rememberr
