/**
 * @file
 * Unit tests for the annotated database and the query layer.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "db/query.hh"
#include "snap/format.hh"
#include "util/logging.hh"

namespace rememberr {
namespace {

class DatabaseTest : public ::testing::Test
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

    static const Database &db() { return result_->groundTruth; }

    static PipelineResult *result_;
};

PipelineResult *DatabaseTest::result_ = nullptr;

TEST_F(DatabaseTest, CountsMatchPaper)
{
    EXPECT_EQ(db().uniqueCount(Vendor::Intel), 743u);
    EXPECT_EQ(db().uniqueCount(Vendor::Amd), 385u);
    EXPECT_EQ(db().rowCount(Vendor::Intel), 2057u);
    EXPECT_EQ(db().rowCount(Vendor::Amd), 506u);
}

TEST_F(DatabaseTest, EveryEntryHasOccurrences)
{
    for (const DbEntry &entry : db().entries()) {
        ASSERT_FALSE(entry.occurrences.empty()) << entry.key;
        // Occurrences sorted by disclosure.
        for (std::size_t i = 1; i < entry.occurrences.size(); ++i) {
            ASSERT_LE(entry.occurrences[i - 1].disclosed,
                      entry.occurrences[i].disclosed);
        }
        ASSERT_EQ(entry.firstDisclosed(),
                  entry.occurrences.front().disclosed);
    }
}

TEST_F(DatabaseTest, PipelineDatabaseAgreesWithGroundTruthCounts)
{
    const Database &pipeline = result_->database;
    EXPECT_NEAR(
        static_cast<double>(pipeline.uniqueCount(Vendor::Intel)),
        743.0, 5.0);
    EXPECT_EQ(pipeline.uniqueCount(Vendor::Amd), 385u);
}

TEST(DatabaseRootCause, SurvivesJsonRoundTrip)
{
    // An internally maintained database (Section VII) fills in the
    // root cause that vendor errata leave out: the JSON export
    // carries it and the proposed format renders it in its slot.
    setLogQuiet(true);
    const std::string note = "Race between the op-cache fill FSM and "
                             "the fetch redirect path.";
    Database built =
        Database::buildFromGroundTruth(generateDefaultCorpus());
    std::vector<DbEntry> entries = built.entries();
    entries[0].rootCause = note;
    Database db =
        Database::restore(std::move(entries), built.documents());

    JsonValue json = db.toJson();
    const JsonValue::Array &items = json.at("entries").asArray();
    EXPECT_EQ(items[0].at("rootCause").asString(), note);
    EXPECT_FALSE(items[1].contains("rootCause"));

    std::string rendered = renderProposedFormat(db.entries()[0]);
    EXPECT_NE(rendered.find("op-cache fill FSM"),
              std::string::npos);
    std::string placeholder = renderProposedFormat(db.entries()[1]);
    EXPECT_NE(placeholder.find("(not published by the vendor)"),
              std::string::npos);
}

/**
 * The JSON and CSV exports of the seed-0 ground-truth database,
 * pinned byte for byte by their FNV-1a 64 hashes, so a change to
 * either writer shows here.
 */
TEST_F(DatabaseTest, ExportsArePinned)
{
    auto hash = [](const std::string &bytes) {
        // The standard FNV-1a 64 offset basis, so any FNV-1a tool
        // reproduces these constants.
        return snap::fnv1a64(
            reinterpret_cast<const unsigned char *>(bytes.data()),
            bytes.size(), 0xcbf29ce484222325ULL);
    };
    const std::uint64_t json = hash(db().toJson().dump());
    const std::uint64_t csv = hash(db().toCsv());
    EXPECT_EQ(json, 0xc323e5b476fca74bULL)
        << std::hex << "JSON export hash is now 0x" << json;
    EXPECT_EQ(csv, 0xb26b00bfc886d354ULL)
        << std::hex << "CSV export hash is now 0x" << csv;
}

TEST_F(DatabaseTest, CsvExportParsesBack)
{
    // A header record, then one record per entry. Records end at the
    // newlines outside quoted fields; a doubled quote toggles twice.
    const std::string csv = db().toCsv();
    EXPECT_EQ(csv.rfind("key,vendor,title,", 0), 0u);
    std::size_t records = 0;
    bool quoted = false;
    for (char c : csv) {
        if (c == '"')
            quoted = !quoted;
        else if (c == '\n' && !quoted)
            ++records;
    }
    EXPECT_FALSE(quoted);
    EXPECT_EQ(records, db().entries().size() + 1);
}

TEST(MentionsDetectors, MatchGeneratedPhrasings)
{
    EXPECT_TRUE(mentionsComplexConditions(
        "Under a highly specific and detailed set of internal "
        "timing conditions, the processor may hang."));
    EXPECT_TRUE(mentionsComplexConditions(
        "A complex set of conditions is required."));
    EXPECT_FALSE(mentionsComplexConditions("If a reset occurs."));
    EXPECT_TRUE(mentionsSimulationOnly(
        "This erratum has only been observed in simulation "
        "environments."));
    EXPECT_FALSE(mentionsSimulationOnly("Observed in the field."));
}

// ---- Query layer --------------------------------------------------------

TEST_F(DatabaseTest, QueryByVendor)
{
    EXPECT_EQ(Query(db()).vendor(Vendor::Intel).count(), 743u);
    EXPECT_EQ(Query(db()).vendor(Vendor::Amd).count(), 385u);
    EXPECT_EQ(Query(db()).count(), 1128u);
}

TEST_F(DatabaseTest, QueryByCategoryAndClass)
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    CategoryId wrg = *taxonomy.parseCategory("Trg_CFG_wrg");
    ClassId pow = *taxonomy.parseClass("Trg_POW");

    std::size_t withWrg = Query(db()).hasCategory(wrg).count();
    EXPECT_GT(withWrg, 100u);
    std::size_t withPow = Query(db()).hasClass(pow).count();
    EXPECT_GT(withPow, 150u);

    // Conjunction narrows.
    std::size_t both =
        Query(db()).hasCategory(wrg).hasClass(pow).count();
    EXPECT_LT(both, withWrg);
    EXPECT_LT(both, withPow);
    EXPECT_GT(both, 0u);
}

TEST_F(DatabaseTest, QueryTriggerCounts)
{
    std::size_t atLeastTwo =
        Query(db()).triggerCountAtLeast(2).count();
    std::size_t exactlyTwo =
        Query(db()).triggerCountExactly(2).count();
    std::size_t atLeastThree =
        Query(db()).triggerCountAtLeast(3).count();
    EXPECT_EQ(atLeastTwo, exactlyTwo + atLeastThree);
    EXPECT_GT(atLeastTwo, 300u);
}

TEST_F(DatabaseTest, QueryWorkaroundAndStatus)
{
    std::size_t none =
        Query(db()).workaround(WorkaroundClass::None).count();
    EXPECT_GT(none, 300u);
    std::size_t fixed =
        Query(db()).status(FixStatus::Fixed).count();
    std::size_t unfixed =
        Query(db()).status(FixStatus::NoFix).count();
    EXPECT_GT(unfixed, fixed * 4);
}

TEST_F(DatabaseTest, QueryDisclosureWindow)
{
    std::size_t early =
        Query(db())
            .disclosedBetween(Date(2008, 1, 1), Date(2012, 12, 31))
            .count();
    std::size_t late =
        Query(db())
            .disclosedBetween(Date(2013, 1, 1), Date(2022, 12, 31))
            .count();
    EXPECT_EQ(early + late, 1128u);
    EXPECT_GT(early, 0u);
    EXPECT_GT(late, 0u);
}

TEST_F(DatabaseTest, QueryInDocument)
{
    std::size_t inCore6 = Query(db()).inDocument(10).count();
    EXPECT_GT(inCore6, 100u);
    // Everything in Core 6 is Intel.
    EXPECT_EQ(Query(db())
                  .inDocument(10)
                  .vendor(Vendor::Amd)
                  .count(),
              0u);
}

TEST_F(DatabaseTest, QueryOccurrenceCount)
{
    std::size_t multi =
        Query(db()).occurrenceCountAtLeast(2).count();
    std::size_t single =
        Query(db()).where([](const DbEntry &entry) {
            return entry.occurrences.size() == 1;
        }).count();
    EXPECT_EQ(multi + single, 1128u);
}

TEST_F(DatabaseTest, QueryCountByCategory)
{
    auto counts = Query(db()).countByCategory(Axis::Trigger);
    const Taxonomy &taxonomy = Taxonomy::instance();
    CategoryId wrg = *taxonomy.parseCategory("Trg_CFG_wrg");
    ASSERT_TRUE(counts.count(wrg));
    EXPECT_EQ(counts[wrg],
              Query(db()).hasCategory(wrg).count());
}

TEST_F(DatabaseTest, QueryCountByWorkaround)
{
    auto counts = Query(db()).countByWorkaround();
    std::size_t total = 0;
    for (const auto &[cls, count] : counts)
        total += count;
    EXPECT_EQ(total, 1128u);
}

TEST_F(DatabaseTest, QuerySimulationOnly)
{
    EXPECT_EQ(Query(db()).simulationOnly(true).count(), 6u);
    EXPECT_EQ(Query(db())
                  .simulationOnly(true)
                  .vendor(Vendor::Amd)
                  .count(),
              5u);
}

TEST_F(DatabaseTest, QueryComplexConditions)
{
    std::size_t complex =
        Query(db()).complexConditions(true).count();
    // Roughly 8.7% of 743 + 20.8% of 385.
    EXPECT_GT(complex, 90u);
    EXPECT_LT(complex, 220u);
}

} // namespace
} // namespace rememberr
