/**
 * @file
 * Compiled query plans over a column block: how the serve daemon
 * answers a `QuerySpec` without `Query`.
 *
 * `QuerySpec::execute(db)` chains `Query`'s predicates over every
 * `DbEntry` and builds a `JsonValue` tree for `dump()`. A daemon
 * answering tens of thousands of uncached queries a second wants
 * neither. `ColumnBlock` flattens what a spec can filter or group on
 * into one array per field, built once per served database.
 * `QueryPlan` compiles a spec's filters into a short list of tests,
 * each a masked equality or a range over one column, and evaluates
 * them a column and 64 entries at a time into match words. It then
 * renders the response line straight into a string. The bytes are
 * exactly those of `execute(db).dump()`: sorted keys, strings through
 * the shared JSON escaper, integers as `JsonValue` prints them,
 * zero-count groups omitted. `execute` stays as the oracle that
 * tests/test_query_plan.cc compares every plan against.
 */

#ifndef REMEMBERR_DB_QUERY_PLAN_HH
#define REMEMBERR_DB_QUERY_PLAN_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "db/database.hh"
#include "db/query_spec.hh"

namespace rememberr {

/** The per-entry columns a `QueryPlan` scans, in database order. */
class ColumnBlock
{
  public:
    /** The filterable columns, one 64-bit value per entry. */
    enum class Column : std::uint8_t {
        /** vendor | workaround << 8 | status << 16 | flag bits. */
        Attrs,
        /** Union of the trigger, context and effect masks. */
        Categories,
        /** One bit per class that `Categories` covers. */
        Classes,
        /** Number of trigger categories. */
        Triggers,
        Occurrences,
        /** Earliest disclosure, order-preserving; 0 when none. */
        FirstDisclosed,
    };
    static constexpr std::size_t kColumns = 6;

    /**
     * Flatten `db`'s entries. Panics when an entry carries a
     * category outside the taxonomy or an out-of-range vendor or
     * workaround class, which no response could render.
     */
    explicit ColumnBlock(const Database &db);

    std::size_t size() const { return entryEnd_.size(); }

  private:
    friend class QueryPlan;

    const std::uint64_t *
    column(Column which) const
    {
        return columns_[static_cast<std::size_t>(which)].data();
    }

    std::string_view
    entryJson(std::size_t i) const
    {
        std::size_t begin = i == 0 ? 0 : entryEnd_[i - 1];
        return std::string_view(entryJson_).substr(
            begin, entryEnd_[i] - begin);
    }

    std::array<std::vector<std::uint64_t>, kColumns> columns_;
    /** Trigger, context and effect masks, indexed by `Axis`. */
    std::vector<std::array<std::uint64_t, 3>> axes_;
    /** Every entry's rendered `run` object, concatenated. */
    std::string entryJson_;
    /** End offset of entry i's object in `entryJson_`. */
    std::vector<std::size_t> entryEnd_;
    /** Class id of every category. */
    std::vector<ClassId> classOf_;
    /** `{"code":<code>,"count":` per category, class, workaround. */
    std::vector<std::string> categoryGroup_;
    std::vector<std::string> classGroup_;
    std::vector<std::string> workaroundGroup_;
};

/** A `QuerySpec` compiled into tests over `ColumnBlock` columns. */
class QueryPlan
{
  public:
    explicit QueryPlan(const QuerySpec &spec);

    /**
     * True when no entry can match, so `render` scans nothing. For
     * every op but ping this is `spec.emptyReason().has_value()`.
     */
    bool provablyEmpty() const { return empty_; }

    /**
     * Append the response line (no newline): byte for byte
     * `spec.execute(db).dump()` for the database `block` was built
     * from. `canonical` is `spec.canonical()`, the `query` echo.
     */
    void render(const ColumnBlock &block, std::string_view canonical,
                std::string &out) const;

  private:
    /** One filter: `(value & a) == b`, or `a <= value <= a + b`. */
    struct Test
    {
        ColumnBlock::Column column = ColumnBlock::Column::Attrs;
        bool range = false;
        std::uint64_t a = 0;
        std::uint64_t b = 0;
    };

    /** Match bits of entries [base, base + count), count <= 64. */
    std::uint64_t matchWord(const ColumnBlock &block,
                            std::size_t base, std::size_t count) const;

    /**
     * Count the matching entries; call `visit(i)` on the first
     * `visits` of them, in entry order.
     */
    template <typename Visit>
    std::size_t scan(const ColumnBlock &block, std::size_t visits,
                     Visit visit) const;

    void renderGroups(const ColumnBlock &block,
                      std::string &out) const;

    QuerySpec::Op op_;
    QuerySpec::GroupBy groupBy_;
    Axis axis_;
    std::size_t limit_;
    bool empty_ = false;
    /** The filters' tests; entries pass when all of them hold. */
    std::array<Test, ColumnBlock::kColumns> tests_;
    std::size_t testCount_ = 0;
};

} // namespace rememberr

#endif // REMEMBERR_DB_QUERY_PLAN_HH
