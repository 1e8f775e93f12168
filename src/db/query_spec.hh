/**
 * @file
 * Declarative query specifications: the serializable form of the
 * fluent `Query` builder.
 *
 * A `QuerySpec` names the same filters `Query` composes from
 * lambdas, but as plain data, so a query can arrive over a wire
 * (the `serve` protocol), be normalized into a canonical textual
 * form, and be replayed against any `Database` with exactly the
 * semantics of the in-process builder.
 *
 * Normalization guarantees that two requests meaning the same query
 * — different key order in the JSON, different enum spellings
 * ("INTEL" vs "intel"), redundant no-op filters (`min_triggers: 0`)
 * — share one canonical string, which every response echoes as its
 * `query` field, so the two get byte-identical responses. (The
 * serve daemon caches responses by request line, not by this
 * string; see serve/cache.hh.) `execute()` renders the reference
 * response. The serve daemon answers through a compiled
 * `QueryPlan` (db/query_plan.hh) instead, and the tests and
 * benchmarks hold its bytes to `execute(db).dump()`.
 */

#ifndef REMEMBERR_DB_QUERY_SPEC_HH
#define REMEMBERR_DB_QUERY_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>

#include "db/query.hh"
#include "util/expected.hh"
#include "util/json.hh"

namespace rememberr {

/** A serializable database query. */
struct QuerySpec
{
    enum class Op : std::uint8_t { Ping, Count, Run, Group };
    enum class GroupBy : std::uint8_t { Category, Class, Workaround };

    Op op = Op::Count;

    // ---- filters (each optional; absent = no constraint) ---------
    std::optional<Vendor> vendor;
    std::optional<CategoryId> category;
    std::optional<ClassId> categoryClass;
    std::optional<WorkaroundClass> workaround;
    std::optional<FixStatus> status;
    std::optional<std::size_t> minTriggers;
    std::optional<std::size_t> exactTriggers;
    std::optional<std::size_t> minOccurrences;
    std::optional<bool> complexConditions;
    std::optional<bool> simulationOnly;
    /** Disclosure window; both ends present or both absent. */
    std::optional<Date> disclosedFrom;
    std::optional<Date> disclosedTo;

    // ---- op parameters -------------------------------------------
    /** Run only: entries included in the response (capped). */
    std::size_t limit = defaultLimit();
    /** Group only: grouping dimension. */
    GroupBy groupBy = GroupBy::Category;
    /** Group by category/class only: which axis to group. */
    Axis axis = Axis::Trigger;

    static std::size_t defaultLimit() { return 20; }
    static std::size_t maxLimit() { return 1000; }

    /**
     * Parse a request object. Strict: unknown ops, unknown fields,
     * mistyped values, out-of-range limits and half-open disclosure
     * windows are all structured errors, never silent defaults.
     */
    static Expected<QuerySpec> fromJson(const JsonValue &json);

    /**
     * The canonical textual form: fixed field order, enum values
     * re-rendered from their parsed identity, no-op filters and
     * irrelevant op parameters dropped. Equal canonical strings
     * define equal queries (the response's `query` echo).
     */
    std::string canonical() const;

    /** Rebuild the equivalent fluent builder over `db`. */
    Query toQuery(const Database &db) const;

    /**
     * Execute against `db` and render the complete response object
     * (`ok`, `op`, the canonical `query` echo and the op's payload).
     * Deterministic: object keys are sorted and entry/group order
     * follows database/taxonomy order, so `execute(db).dump()` is a
     * pure function of (spec, db).
     */
    JsonValue execute(const Database &db) const;

    /**
     * Static lint: when the filter conjunction is provably empty on
     * *every* database — contradictory trigger-count constraints, an
     * inverted disclosure window — returns a human-readable reason;
     * nullopt when the query may match. Purely syntactic on the
     * spec, so the serve daemon can elide execution entirely.
     */
    std::optional<std::string> emptyReason() const;

    /**
     * Render the response for a query with no matches without
     * touching any database. Bit-identical to `execute(db)` whenever
     * `emptyReason()` is set (pinned by tests): empty renders of
     * count/run/group never read matched entries.
     */
    JsonValue executeEmpty() const;
};

/** Printable op name ("ping", "count", "run", "group"). */
std::string_view queryOpName(QuerySpec::Op op);

/** Printable grouping name ("category", "class", "workaround"). */
std::string_view groupByName(QuerySpec::GroupBy by);

} // namespace rememberr

#endif // REMEMBERR_DB_QUERY_SPEC_HH
