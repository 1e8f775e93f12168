/**
 * @file
 * Differential test of the compiled query plan: seeded random
 * `QuerySpec`s rendered through `ColumnBlock` + `QueryPlan` must
 * equal `QuerySpec::execute(db).dump()` byte for byte. It runs on
 * the seed-0 ground-truth and pipeline databases and on a hand-built
 * database whose titles need every kind of JSON escape and which
 * holds an entry without occurrences.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "db/query_plan.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rememberr {
namespace {

constexpr int kSpecsPerDatabase = 20000;

/** Draws specs that reach every op, filter and boundary. */
class SpecSource
{
  public:
    SpecSource(const Database &db, std::uint64_t seed) : rng_(seed)
    {
        for (const DbEntry &entry : db.entries()) {
            if (!entry.occurrences.empty())
                dates_.push_back(entry.firstDisclosed());
        }
        if (dates_.empty())
            dates_.push_back(Date(2015, 6, 1));
    }

    QuerySpec
    next()
    {
        QuerySpec spec;
        const QuerySpec::Op ops[] = {
            QuerySpec::Op::Count, QuerySpec::Op::Run,
            QuerySpec::Op::Group, QuerySpec::Op::Ping};
        spec.op = ops[rng_.nextBelow(rng_.nextBool(0.02) ? 4 : 3)];
        // Few filters keep most results non-empty; many stack tests.
        const double p[] = {0.05, 0.15, 0.3, 0.5};
        double odds = p[rng_.nextBelow(4)];
        const Taxonomy &taxonomy = Taxonomy::instance();
        if (rng_.nextBool(odds))
            spec.vendor =
                rng_.nextBool() ? Vendor::Intel : Vendor::Amd;
        if (rng_.nextBool(odds))
            spec.category = static_cast<CategoryId>(
                rng_.nextBelow(taxonomy.categoryCount()));
        if (rng_.nextBool(odds))
            spec.categoryClass = static_cast<ClassId>(
                rng_.nextBelow(taxonomy.classCount()));
        if (rng_.nextBool(odds))
            spec.workaround =
                static_cast<WorkaroundClass>(rng_.nextBelow(6));
        if (rng_.nextBool(odds))
            spec.status = static_cast<FixStatus>(rng_.nextBelow(3));
        if (rng_.nextBool(odds))
            spec.minTriggers = rng_.nextBelow(7);
        if (rng_.nextBool(odds))
            spec.exactTriggers = rng_.nextBelow(7);
        if (rng_.nextBool(odds))
            spec.minOccurrences = rng_.nextBelow(9);
        if (rng_.nextBool(odds))
            spec.complexConditions = rng_.nextBool();
        if (rng_.nextBool(odds))
            spec.simulationOnly = rng_.nextBool();
        if (rng_.nextBool(odds * 2))
            window(spec);

        const std::size_t limits[] = {0, 1, 20, 1000};
        spec.limit = rng_.nextBool(0.8) ? limits[rng_.nextBelow(4)]
                                        : rng_.nextBelow(1001);
        spec.groupBy =
            static_cast<QuerySpec::GroupBy>(rng_.nextBelow(3));
        spec.axis = static_cast<Axis>(rng_.nextBelow(3));
        return spec;
    }

  private:
    Date
    someDate()
    {
        return dates_[rng_.nextBelow(dates_.size())];
    }

    /** Windows that start or end exactly on a disclosure date. */
    void
    window(QuerySpec &spec)
    {
        Date from;
        Date to;
        switch (rng_.nextBelow(6)) {
          case 0: // a single day that some entry was disclosed on
            from = to = someDate();
            break;
          case 1: // ends on a disclosure date
            to = someDate();
            from = to.addDays(-rng_.nextInRange(0, 3 * 365));
            break;
          case 2: // starts on a disclosure date
            from = someDate();
            to = from.addDays(rng_.nextInRange(0, 3 * 365));
            break;
          case 3: // inverted
            from = someDate();
            to = from.addDays(-rng_.nextInRange(1, 400));
            break;
          case 4: // outside the corpus, before or after it
            from = rng_.nextBool() ? Date(1900, 1, 1)
                                   : Date(2090, 1, 1);
            to = from.addDays(rng_.nextInRange(0, 5 * 365));
            break;
          default: // anywhere from before to after the corpus
            from =
                Date(2000, 1, 1).addDays(rng_.nextInRange(0, 9000));
            to = from.addDays(rng_.nextInRange(0, 10 * 365));
            break;
        }
        spec.disclosedFrom = from;
        spec.disclosedTo = to;
    }

    Rng rng_;
    std::vector<Date> dates_;
};

/** Compare plan against oracle for kSpecsPerDatabase specs. */
void
expectPlanMatchesOracle(const Database &db, std::uint64_t seed)
{
    ColumnBlock block(db);
    ASSERT_EQ(block.size(), db.entries().size());
    SpecSource source(db, seed);
    int mismatches = 0;
    int nonEmpty = 0;
    for (int i = 0; i < kSpecsPerDatabase && mismatches < 5; ++i) {
        QuerySpec spec = source.next();
        QueryPlan plan(spec);
        std::string rendered;
        plan.render(block, spec.canonical(), rendered);
        std::string expected = spec.execute(db).dump();
        if (rendered != expected) {
            ++mismatches;
            ADD_FAILURE() << "spec " << i << " (" << spec.canonical()
                          << ")\n  plan:   " << rendered
                          << "\n  oracle: " << expected;
        }
        if (spec.op != QuerySpec::Op::Ping) {
            EXPECT_EQ(plan.provablyEmpty(),
                      spec.emptyReason().has_value())
                << spec.canonical();
        }
        nonEmpty += spec.op != QuerySpec::Op::Ping &&
                    spec.toQuery(db).count() > 0;
    }
    // The generator must reach results, not just empty renders.
    EXPECT_GT(nonEmpty, kSpecsPerDatabase / 3);
}

class QueryPlanTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogQuiet(true);
        PipelineOptions options;
        options.roundTripDocuments = false;
        options.lint = false;
        result_ = new PipelineResult(runPipeline(options));
    }

    static void
    TearDownTestSuite()
    {
        delete result_;
        result_ = nullptr;
    }

    static PipelineResult *result_;
};

PipelineResult *QueryPlanTest::result_ = nullptr;

TEST_F(QueryPlanTest, MatchesExecuteOnGroundTruth)
{
    expectPlanMatchesOracle(result_->groundTruth, 0x9e3779b97f4a7c15);
}

TEST_F(QueryPlanTest, MatchesExecuteOnPipelineDatabase)
{
    expectPlanMatchesOracle(result_->database, 0xc0ffee);
}

/**
 * A database built by hand: titles with quotes, backslashes, every
 * control byte, DEL and multi-byte UTF-8; an entry without
 * occurrences; extreme keys and dates.
 */
Database
handBuiltDatabase()
{
    std::vector<std::string> titles = {
        "plain title",
        "a \"quoted\" word",
        "back\\slash and \\\\ double",
        "tab\there, newline\nthere, return\r, feed\f, back\b",
        "DEL \x7f byte",
        "UTF-8: caf\xc3\xa9, \xe2\x82\xac, \xf0\x9f\x90\x9b",
        "",
    };
    std::string controls;
    for (char c = 0x01; c < 0x20; ++c)
        controls += c;
    titles.push_back("controls [" + controls + "]");

    const Taxonomy &taxonomy = Taxonomy::instance();
    Rng rng(0x4a5b);
    auto someOf = [&](Axis axis) {
        CategorySet set;
        for (CategoryId id : taxonomy.categoriesOfAxis(axis)) {
            if (rng.nextBool(0.12))
                set.insert(id);
        }
        return set;
    };

    std::vector<DbEntry> entries;
    for (std::uint32_t i = 0; i < 48; ++i) {
        DbEntry entry;
        entry.key = i == 47 ? 4294967295u : i * 7919;
        entry.vendor = i % 3 ? Vendor::Intel : Vendor::Amd;
        entry.title = titles[i % titles.size()];
        entry.workaroundClass =
            static_cast<WorkaroundClass>(rng.nextBelow(6));
        entry.status = static_cast<FixStatus>(rng.nextBelow(3));
        entry.triggers = someOf(Axis::Trigger);
        entry.contexts = someOf(Axis::Context);
        entry.effects = someOf(Axis::Effect);
        entry.complexConditions = rng.nextBool(0.3);
        entry.simulationOnly = rng.nextBool(0.2);
        // Entry 0 has no occurrences; the rest have one to five,
        // unordered, one of them dated before the Unix epoch.
        std::size_t occurrences = i == 0 ? 0 : 1 + rng.nextBelow(5);
        for (std::size_t o = 0; o < occurrences; ++o) {
            Occurrence occurrence;
            occurrence.docIndex = static_cast<int>(rng.nextBelow(2));
            occurrence.localId = "E" + std::to_string(o);
            occurrence.disclosed =
                i == 5 ? Date(1969, 12, 31)
                       : Date(2010, 1, 1).addDays(
                             rng.nextInRange(0, 12 * 365));
            entry.occurrences.push_back(occurrence);
        }
        entries.push_back(std::move(entry));
    }
    return Database::restore(std::move(entries),
                             std::vector<ErrataDocument>(2));
}

TEST(QueryPlan, MatchesExecuteOnHandBuiltDatabase)
{
    Database db = handBuiltDatabase();
    ASSERT_TRUE(db.entries().front().occurrences.empty());
    expectPlanMatchesOracle(db, 0x5eed);
}

TEST(QueryPlan, RenderAppendsAndPingIgnoresFilters)
{
    Database db = handBuiltDatabase();
    ColumnBlock block(db);
    QuerySpec ping;
    ping.op = QuerySpec::Op::Ping;
    ping.vendor = Vendor::Amd;
    std::string out = "prefix ";
    QueryPlan(ping).render(block, "ignored", out);
    EXPECT_EQ(out, "prefix " + ping.execute(db).dump());
}

} // namespace
} // namespace rememberr
