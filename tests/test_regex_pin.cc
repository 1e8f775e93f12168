/**
 * @file
 * Pins the rule patterns' regex outputs over the seed-0 corpus.
 *
 * For every classification rule pattern (accept, then relevance, in
 * rule-table order) and every seed-0 erratum's erratumFullText, the
 * test folds `contains` and every `findAll` span (begin, end) into
 * one FNV-1a 64 hash per rule category. The constants were recorded
 * before the regex engine last changed; a change that moves a rule
 * decision or a highlight span fails here, naming the category, even
 * when every engine moves together. One case per category keeps each
 * case short enough for `ctest -j` to spread them over cores.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "classify/engine.hh"
#include "classify/rules.hh"
#include "corpus/generator.hh"
#include "taxonomy/taxonomy.hh"
#include "util/logging.hh"

namespace rememberr {
namespace {

/** FNV-1a 64 over 8-byte little-endian words. */
struct Fnv
{
    std::uint64_t state = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            state ^= (value >> (byte * 8)) & 0xff;
            state *= 0x100000001b3ULL;
        }
    }
};

/** One pinned hash per category, in RuleSet order. */
struct PinnedCategory
{
    const char *code;
    std::uint64_t hash;
};

constexpr PinnedCategory kPinned[] = {
    {"Trg_MBR_cbr", 0x8bb6fe1fcdf4b252ULL},
    {"Trg_MBR_pgb", 0xf4d1c56149bb59bfULL},
    {"Trg_MBR_mbr", 0xdc9c05baaba1e23cULL},
    {"Trg_MOP_mmp", 0x8ee2fd4ac78dddbfULL},
    {"Trg_MOP_atp", 0x0bbf8eeeedf4eca6ULL},
    {"Trg_MOP_fen", 0x3ff55d9432eac57bULL},
    {"Trg_MOP_seg", 0xf638fbbeed757860ULL},
    {"Trg_MOP_ptw", 0xcd5442b7baeb3208ULL},
    {"Trg_MOP_nst", 0xa0fda650fbc9e05fULL},
    {"Trg_MOP_flc", 0x3394b34663ae027cULL},
    {"Trg_MOP_spe", 0x007ee3aad61c3901ULL},
    {"Trg_EXC_ovf", 0x75e9a65e62a09ba5ULL},
    {"Trg_EXC_tmr", 0xf4ff141a420f8274ULL},
    {"Trg_EXC_mca", 0x7e5d170fdcf24c9eULL},
    {"Trg_EXC_ill", 0x2520fe37b76491f3ULL},
    {"Trg_PRV_ret", 0x3c6fd006e531aa19ULL},
    {"Trg_PRV_vmt", 0x7382b09923f32547ULL},
    {"Trg_CFG_pag", 0xa8dd7cb3803a0401ULL},
    {"Trg_CFG_vmc", 0xef9005b0690006f7ULL},
    {"Trg_CFG_wrg", 0x70a339c2eb7f0be5ULL},
    {"Trg_POW_pwc", 0x07c5ea1b0ddf991bULL},
    {"Trg_POW_tht", 0xcb361be765093c0fULL},
    {"Trg_EXT_rst", 0x0959d4dcade8574eULL},
    {"Trg_EXT_pci", 0x068d26e2c0f56733ULL},
    {"Trg_EXT_usb", 0x324d85f58de5a654ULL},
    {"Trg_EXT_ram", 0x281972b200110917ULL},
    {"Trg_EXT_iom", 0xa4379f6ad6400cd5ULL},
    {"Trg_EXT_bus", 0x41e5b3d0ca7e9d5cULL},
    {"Trg_FEA_fpu", 0xfea012ade425d414ULL},
    {"Trg_FEA_dbg", 0x3e37e40d03a7cfdbULL},
    {"Trg_FEA_cid", 0x44f86a499e561fdcULL},
    {"Trg_FEA_mon", 0x69b4a65ff4043eaeULL},
    {"Trg_FEA_tra", 0x1ca150d90cf07973ULL},
    {"Trg_FEA_cus", 0xaef301a654b9be1cULL},
    {"Ctx_PRV_boo", 0x59a03bc739758d6dULL},
    {"Ctx_PRV_vmg", 0x18c1b6608da5be94ULL},
    {"Ctx_PRV_rea", 0x7087950692029b40ULL},
    {"Ctx_PRV_vmh", 0x89e3517de9a57b9fULL},
    {"Ctx_PRV_smm", 0x45f5d74a891fb2bcULL},
    {"Ctx_FEA_sec", 0x4533092f3b0dd076ULL},
    {"Ctx_FEA_sgc", 0x0c7793822ce856aaULL},
    {"Ctx_PHY_pkg", 0x4dbb3d420dd64f0aULL},
    {"Ctx_PHY_tmp", 0x21e1716db1a1fc44ULL},
    {"Ctx_PHY_vol", 0xd8e5234a1ecf090dULL},
    {"Eff_HNG_unp", 0x3c2a511bb1f9db89ULL},
    {"Eff_HNG_hng", 0xb4e5c69e070ef25aULL},
    {"Eff_HNG_crh", 0x5f96373f719d0dc7ULL},
    {"Eff_HNG_boo", 0x1e7768539e983440ULL},
    {"Eff_FLT_mca", 0xcbee917773229120ULL},
    {"Eff_FLT_unc", 0xad235de71585e21aULL},
    {"Eff_FLT_fsp", 0x48d2f5f884541917ULL},
    {"Eff_FLT_fms", 0x890b06397d9f62f3ULL},
    {"Eff_FLT_fid", 0x2129575f9da25668ULL},
    {"Eff_CRP_prf", 0xd9cb6817226fff19ULL},
    {"Eff_CRP_reg", 0x54d5b761d89a678fULL},
    {"Eff_EXT_pci", 0x84e591a8aee04f95ULL},
    {"Eff_EXT_usb", 0xae6d48b8caf7de65ULL},
    {"Eff_EXT_mmd", 0xa01e6d43c06d79faULL},
    {"Eff_EXT_ram", 0x501f1b1a6408b961ULL},
    {"Eff_EXT_pow", 0x92f7f042cdc73da4ULL},
};

/** erratumFullText of every seed-0 erratum, document order. */
const std::vector<std::string> &
seedZeroTexts()
{
    static const std::vector<std::string> texts = [] {
        setLogQuiet(true);
        std::vector<std::string> built;
        for (const ErrataDocument &doc :
             generateDefaultCorpus(0).documents) {
            for (const Erratum &erratum : doc.errata)
                built.push_back(erratumFullText(erratum));
        }
        return built;
    }();
    return texts;
}

void
hashPatterns(const std::vector<Regex> &patterns,
             const std::vector<std::string> &texts, Fnv &hash)
{
    for (const Regex &regex : patterns) {
        for (const std::string &text : texts) {
            hash.add(regex.contains(text) ? 1 : 0);
            const std::vector<RegexMatch> all = regex.findAll(text);
            hash.add(all.size());
            for (const RegexMatch &match : all) {
                hash.add(match.begin);
                hash.add(match.end);
            }
        }
    }
}

class RulePatternOutputs : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RulePatternOutputs, DecisionsAndSpansArePinned)
{
    const std::size_t index = GetParam();
    const CategoryRule &rule = RuleSet::instance().rules().at(index);
    const std::string &code =
        Taxonomy::instance().categoryById(rule.id).code;
    ASSERT_LT(index, std::size(kPinned));
    ASSERT_EQ(code, kPinned[index].code);
    const std::vector<std::string> &texts = seedZeroTexts();
    ASSERT_EQ(texts.size(), 2563u);

    Fnv hash;
    hashPatterns(rule.accept, texts, hash);
    hashPatterns(rule.relevance, texts, hash);
    EXPECT_EQ(hash.state, kPinned[index].hash)
        << code << ": actual 0x" << std::hex << hash.state;
}

INSTANTIATE_TEST_SUITE_P(
    Categories, RulePatternOutputs,
    ::testing::Range<std::size_t>(0, 60),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        const CategoryRule &rule =
            RuleSet::instance().rules().at(info.param);
        return Taxonomy::instance().categoryById(rule.id).code;
    });

/** The cases above cover the whole rule table, capture groups
 * included. */
TEST(RulePatternOutputs, CoverEveryRulePattern)
{
    std::size_t patterns = 0;
    std::size_t grouped = 0;
    for (const CategoryRule &rule : RuleSet::instance().rules()) {
        for (const auto *list : {&rule.accept, &rule.relevance}) {
            for (const Regex &regex : *list) {
                ++patterns;
                const std::string &text = regex.pattern();
                for (std::size_t i = 0; i + 1 < text.size(); ++i) {
                    if (text[i] == '(' && text[i + 1] != '?' &&
                        (i == 0 || text[i - 1] != '\\')) {
                        ++grouped;
                        break;
                    }
                }
            }
        }
    }
    EXPECT_EQ(RuleSet::instance().rules().size(), 60u);
    EXPECT_EQ(patterns, 124u);
    EXPECT_EQ(grouped, 6u);
}

} // namespace
} // namespace rememberr
