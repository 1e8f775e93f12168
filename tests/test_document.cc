/**
 * @file
 * Unit tests for the specification-update document format.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/generator.hh"
#include "document/format.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rememberr {
namespace {

ErrataDocument
sampleDoc()
{
    ErrataDocument doc;
    doc.design.vendor = Vendor::Intel;
    doc.design.generation = 12;
    doc.design.variant = DesignVariant::Unified;
    doc.design.name = "Core 12";
    doc.design.reference = "682436-004US";
    doc.design.releaseDate = Date(2021, 11, 4);

    Revision r1;
    r1.number = 1;
    r1.date = Date(2021, 11, 4);
    r1.note = "Initial release.";
    r1.addedIds = {"ADL001"};
    doc.revisions.push_back(r1);

    Erratum erratum;
    erratum.localId = "ADL001";
    erratum.title = "X87 FDP Value May be Saved Incorrectly";
    erratum.description =
        "Execution of the FSAVE, FNSAVE, FSTENV, or FNSTENV "
        "instructions in real-address mode or virtual-8086 mode "
        "may save an incorrect value for the x87 FDP (FPU data "
        "pointer), which is a fairly long description that will "
        "certainly wrap over multiple lines in the rendered "
        "document format.";
    erratum.implications =
        "Software operating in real-address mode may not operate "
        "properly.";
    erratum.workaroundText = "None identified.";
    erratum.workaroundClass = WorkaroundClass::None;
    erratum.status = FixStatus::NoFix;
    erratum.addedInRevision = 1;
    erratum.msrs.push_back(MsrRef{"MC4_STATUS", 0x9A3});
    doc.errata.push_back(std::move(erratum));
    return doc;
}

TEST(DocumentFormat, RenderContainsSections)
{
    std::string text = renderDocument(sampleDoc());
    EXPECT_NE(text.find("SPECIFICATION UPDATE"), std::string::npos);
    EXPECT_NE(text.find("== REVISION HISTORY =="),
              std::string::npos);
    EXPECT_NE(text.find("== ERRATA =="), std::string::npos);
    EXPECT_NE(text.find("== END =="), std::string::npos);
    EXPECT_NE(text.find("ID: ADL001"), std::string::npos);
    EXPECT_NE(text.find("MC4_STATUS=0x9A3"), std::string::npos);
}

TEST(DocumentFormat, LinesStayWithinWidth)
{
    std::string text = renderDocument(sampleDoc());
    for (const std::string &line : strings::splitLines(text))
        EXPECT_LE(line.size(), 79u) << line;
}

TEST(DocumentFormat, RoundTripPreservesEverything)
{
    ErrataDocument original = sampleDoc();
    auto parsed = parseDocument(renderDocument(original));
    ASSERT_TRUE(parsed) << parsed.error().toString();
    const ErrataDocument &doc = parsed.value();

    EXPECT_EQ(doc.design.vendor, original.design.vendor);
    EXPECT_EQ(doc.design.name, original.design.name);
    EXPECT_EQ(doc.design.reference, original.design.reference);
    EXPECT_EQ(doc.design.generation, original.design.generation);
    EXPECT_EQ(doc.design.variant, original.design.variant);
    EXPECT_EQ(doc.design.releaseDate, original.design.releaseDate);

    ASSERT_EQ(doc.revisions.size(), 1u);
    EXPECT_EQ(doc.revisions[0].number, 1);
    EXPECT_EQ(doc.revisions[0].date, Date(2021, 11, 4));
    EXPECT_EQ(doc.revisions[0].addedIds,
              original.revisions[0].addedIds);

    ASSERT_EQ(doc.errata.size(), 1u);
    const Erratum &erratum = doc.errata[0];
    EXPECT_EQ(erratum.localId, "ADL001");
    EXPECT_EQ(erratum.title, original.errata[0].title);
    EXPECT_EQ(erratum.description, original.errata[0].description);
    EXPECT_EQ(erratum.implications,
              original.errata[0].implications);
    EXPECT_EQ(erratum.workaroundText,
              original.errata[0].workaroundText);
    EXPECT_EQ(erratum.workaroundClass, WorkaroundClass::None);
    EXPECT_EQ(erratum.status, FixStatus::NoFix);
    EXPECT_EQ(erratum.addedInRevision, 1);
    ASSERT_EQ(erratum.msrs.size(), 1u);
    EXPECT_EQ(erratum.msrs[0].name, "MC4_STATUS");
    EXPECT_EQ(erratum.msrs[0].number, 0x9A3u);
}

TEST(DocumentFormat, ParserRejectsMalformedInput)
{
    EXPECT_FALSE(parseDocument(""));
    EXPECT_FALSE(parseDocument("garbage\n"));
    EXPECT_FALSE(parseDocument("SPECIFICATION UPDATE\n"));
    // Unknown vendor.
    EXPECT_FALSE(parseDocument(
        "SPECIFICATION UPDATE\nVendor: Cyrix\n"));
}

TEST(DocumentFormat, ParserRejectsMissingEndMarker)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "== END ==\n", "");
    EXPECT_FALSE(parseDocument(text));
}

TEST(DocumentFormat, ParserRejectsErratumWithoutId)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "ID: ADL001\n", "Foo: x\n");
    EXPECT_FALSE(parseDocument(text));
}

TEST(DocumentFormat, ParserRejectsBadDate)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "2021-11-04", "2021-13-04");
    EXPECT_FALSE(parseDocument(text));
}

TEST(DocumentFormat, ParserRejectsNonNumericGeneration)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "Generation: 12",
                               "Generation: abc");
    auto parsed = parseDocument(text);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.error().message.find("Generation"),
              std::string::npos)
        << parsed.error().toString();
    EXPECT_GT(parsed.error().line, 0);
}

TEST(DocumentFormat, ParserRejectsTrailingJunkGeneration)
{
    // strtol would silently parse "12x" as 12; the strict parser
    // must reject the whole field.
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "Generation: 12",
                               "Generation: 12x");
    EXPECT_FALSE(parseDocument(text));
}

TEST(DocumentFormat, ParserRejectsEmptyGeneration)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "Generation: 12",
                               "Generation:");
    auto parsed = parseDocument(text);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.error().message.find("empty"),
              std::string::npos)
        << parsed.error().toString();
}

TEST(DocumentFormat, ParserRejectsOutOfRangeGeneration)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(
        text, "Generation: 12",
        "Generation: 99999999999999999999999");
    auto parsed = parseDocument(text);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.error().message.find("out of range"),
              std::string::npos)
        << parsed.error().toString();
}

TEST(DocumentFormat, ParserRejectsNonNumericRevision)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "Revision: 1\n",
                               "Revision: one\n");
    auto parsed = parseDocument(text);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.error().message.find("Revision"),
              std::string::npos)
        << parsed.error().toString();
    EXPECT_GT(parsed.error().line, 0);
}

TEST(DocumentFormat, ParserRejectsMalformedMsrNumber)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "MC4_STATUS=0x9A3",
                               "MC4_STATUS=0xZZZ");
    auto parsed = parseDocument(text);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.error().message.find("MSRs"),
              std::string::npos)
        << parsed.error().toString();
}

/**
 * Replace the first line of `text` that starts with `from` by `to`;
 * return that line's 1-based number, or 0 when no line matches.
 */
int
replaceLine(std::string &text, const std::string &from,
            const std::string &to)
{
    std::size_t at = text.find("\n" + from);
    if (at == std::string::npos)
        return 0;
    text.replace(at + 1, from.size(), to);
    return 2 + static_cast<int>(
                   std::count(text.begin(), text.begin() + at, '\n'));
}

TEST(DocumentFormat, ParseErrorsNameTheLineOfTheField)
{
    ErrataDocument doc = sampleDoc();
    doc.hiddenErrata = {"ADL900"};
    const std::string rendered = renderDocument(doc);
    // The Description wraps onto continuation lines, so an error
    // reported after reading its value would land lines further on.
    ASSERT_NE(rendered.find("\nDescription: "), std::string::npos);
    ASSERT_NE(rendered.find("\n  "), std::string::npos);

    const std::pair<std::string, std::string> corruptions[] = {
        {"Vendor: Intel", "Vendor: Cyrix"},
        {"Design:", "Designer:"},
        {"Generation: 12", "Generation: 12x"},
        {"Release: 2021-11-04", "Release: 2021-13-04"},
        {"Revision: 1", "Revision: 1q"},
        {"Date: 2021-11-04", "Date: 2021-13-04"},
        {"Note:", "Notes:"},
        {"Description:", "Descriptio:"},
        {"MSRs: MC4_STATUS=0x9A3", "MSRs: MC4_STATUS=0xZZZ"},
        {"IDs:", "Ids:"},
    };
    for (const auto &[from, to] : corruptions) {
        std::string text = rendered;
        int line = replaceLine(text, from, to);
        ASSERT_GT(line, 0) << from;
        auto parsed = parseDocument(text);
        ASSERT_FALSE(parsed) << to;
        EXPECT_EQ(parsed.error().line, line)
            << parsed.error().toString();
    }
}

TEST(DocumentFormat, NegativeGenerationIsOutOfRange)
{
    std::string text = renderDocument(sampleDoc());
    text = strings::replaceAll(text, "Generation: 12",
                               "Generation: -3");
    auto parsed = parseDocument(text);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.error().message.find("out of range"),
              std::string::npos)
        << parsed.error().toString();
}

TEST(DocumentFormat, MissingFromNotesRecoversZeroRevision)
{
    ErrataDocument original = sampleDoc();
    original.revisions[0].addedIds.clear();
    auto parsed = parseDocument(renderDocument(original));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed.value().errata[0].addedInRevision, 0);
}

TEST(ClassifyWorkaround, MapsProseToCategories)
{
    EXPECT_EQ(classifyWorkaround("None identified."),
              WorkaroundClass::None);
    EXPECT_EQ(classifyWorkaround(""), WorkaroundClass::None);
    EXPECT_EQ(classifyWorkaround(
                  "A BIOS code change has been identified and may "
                  "be implemented as a workaround."),
              WorkaroundClass::Bios);
    EXPECT_EQ(classifyWorkaround(
                  "System software may contain the workaround for "
                  "this erratum."),
              WorkaroundClass::Software);
    EXPECT_EQ(classifyWorkaround(
                  "Peripheral devices should avoid the described "
                  "sequence."),
              WorkaroundClass::Peripherals);
    EXPECT_EQ(classifyWorkaround(
                  "The documentation will be updated to describe "
                  "the intended behavior."),
              WorkaroundClass::DocumentationFix);
}

TEST(ClassifyWorkaround, ContactBiosUpdateIsAbsent)
{
    // Section IV-B3: "Contact [...] for information on a BIOS
    // update" is Absent, not BIOS.
    EXPECT_EQ(classifyWorkaround(
                  "Contact your vendor representative for "
                  "information on a BIOS update."),
              WorkaroundClass::Absent);
}

TEST(ClassifyStatus, MapsProse)
{
    EXPECT_EQ(classifyStatus("No fix planned."), FixStatus::NoFix);
    EXPECT_EQ(classifyStatus(
                  "A fix is planned for a future stepping."),
              FixStatus::Planned);
    EXPECT_EQ(classifyStatus("Fixed. Refer to the summary table."),
              FixStatus::Fixed);
    EXPECT_EQ(classifyStatus("unintelligible"), FixStatus::NoFix);
}

TEST(StatusText, RoundTripsThroughClassifier)
{
    for (FixStatus status : {FixStatus::NoFix, FixStatus::Planned,
                             FixStatus::Fixed}) {
        EXPECT_EQ(classifyStatus(statusText(status)), status);
    }
}

TEST(DocumentFormat, HiddenErrataRoundTrip)
{
    ErrataDocument original = sampleDoc();
    original.hiddenErrata = {"ADL099", "ADL100"};
    std::string text = renderDocument(original);
    EXPECT_NE(text.find("== HIDDEN ERRATA =="), std::string::npos);
    auto parsed = parseDocument(text);
    ASSERT_TRUE(parsed) << parsed.error().toString();
    EXPECT_EQ(parsed.value().hiddenErrata,
              original.hiddenErrata);
}

TEST(DocumentFormat, FullCorpusRoundTrips)
{
    setLogQuiet(true);
    Corpus corpus = generateDefaultCorpus();
    for (const ErrataDocument &original : corpus.documents) {
        auto parsed = parseDocument(renderDocument(original));
        ASSERT_TRUE(parsed)
            << original.design.name << ": "
            << parsed.error().toString();
        const ErrataDocument &doc = parsed.value();
        ASSERT_EQ(doc.errata.size(), original.errata.size())
            << original.design.name;
        ASSERT_EQ(doc.revisions.size(), original.revisions.size());
        for (std::size_t i = 0; i < doc.errata.size(); ++i) {
            ASSERT_EQ(doc.errata[i].localId,
                      original.errata[i].localId);
            ASSERT_EQ(doc.errata[i].title,
                      original.errata[i].title);
            ASSERT_EQ(doc.errata[i].description,
                      original.errata[i].description);
            ASSERT_EQ(doc.errata[i].workaroundClass,
                      original.errata[i].workaroundClass);
            ASSERT_EQ(doc.errata[i].status,
                      original.errata[i].status);
            ASSERT_EQ(doc.errata[i].addedInRevision,
                      original.errata[i].addedInRevision);
            ASSERT_EQ(doc.errata[i].msrs, original.errata[i].msrs);
        }
        ASSERT_EQ(doc.hiddenErrata, original.hiddenErrata);
    }
}

} // namespace
} // namespace rememberr
