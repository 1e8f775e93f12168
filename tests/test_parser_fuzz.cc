/**
 * @file
 * Robustness fuzz tests: randomly mutated or truncated inputs must
 * never crash the document and JSON parsers — every input either
 * parses or yields a structured error.
 */

#include <gtest/gtest.h>

#include "corpus/generator.hh"
#include "document/format.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rememberr {
namespace {

std::string
mutate(const std::string &input, Rng &rng, int edits)
{
    std::string out = input;
    for (int e = 0; e < edits && !out.empty(); ++e) {
        std::size_t pos = rng.nextBelow(out.size());
        switch (rng.nextBelow(4)) {
          case 0: // flip a byte
            out[pos] = static_cast<char>(
                32 + rng.nextBelow(95));
            break;
          case 1: // delete a byte
            out.erase(pos, 1);
            break;
          case 2: // duplicate a byte
            out.insert(pos, 1, out[pos]);
            break;
          case 3: // truncate
            out.resize(pos);
            break;
        }
    }
    return out;
}

class DocumentParserFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(DocumentParserFuzz, NeverCrashesOnMutatedDocuments)
{
    setLogQuiet(true);
    static const std::string pristine = [] {
        Corpus corpus = generateDefaultCorpus();
        return renderDocument(corpus.documents[16]); // smallest doc
    }();

    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
    for (int round = 0; round < 200; ++round) {
        std::string mutated =
            mutate(pristine, rng, 1 + static_cast<int>(
                                          rng.nextBelow(8)));
        auto result = parseDocument(mutated);
        if (result) {
            // A successful parse must produce a sane document.
            for (const Erratum &erratum : result.value().errata)
                ASSERT_FALSE(erratum.localId.empty());
        } else {
            ASSERT_FALSE(result.error().message.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DocumentParserFuzz,
                         ::testing::Range(0, 6));

class JsonParserFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(JsonParserFuzz, NeverCrashesOnMutatedJson)
{
    static const std::string pristine = [] {
        JsonValue obj = JsonValue::makeObject();
        obj["entries"] = JsonValue::makeArray();
        for (int i = 0; i < 10; ++i) {
            JsonValue item = JsonValue::makeObject();
            item["key"] = i;
            item["title"] = "Erratum \"quoted\" title\nwith\tstuff";
            item["codes"] = JsonValue::makeArray();
            item["codes"].append("Trg_EXT_rst");
            item["codes"].append(3.5);
            item["codes"].append(nullptr);
            obj["entries"].append(std::move(item));
        }
        return obj.dumpPretty();
    }();

    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    for (int round = 0; round < 400; ++round) {
        std::string mutated =
            mutate(pristine, rng, 1 + static_cast<int>(
                                          rng.nextBelow(6)));
        auto result = parseJson(mutated);
        if (result) {
            // Parse -> dump -> parse must be stable.
            auto redump = parseJson(result.value().dump());
            ASSERT_TRUE(redump);
            ASSERT_EQ(redump.value(), result.value());
        } else {
            ASSERT_FALSE(result.error().message.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonParserFuzz,
                         ::testing::Range(0, 6));

} // namespace
} // namespace rememberr
