#include "msr.hh"

#include <algorithm>
#include <map>
#include <set>

#include "text/regex.hh"
#include "util/strings.hh"

namespace rememberr {

std::string
msrFamily(const std::string &name)
{
    static const Regex mcPattern =
        Regex::compileOrDie(R"(^MC\d+_(STATUS|ADDR)$)");
    if (mcPattern.fullMatch(name)) {
        return strings::endsWith(name, "_STATUS") ? "MCx_STATUS"
                                                  : "MCx_ADDR";
    }
    if (strings::startsWith(name, "IBS_"))
        return "IBS_*";
    if (strings::startsWith(name, "PERF_") ||
        strings::startsWith(name, "FIXED_CTR")) {
        return "PERF_*";
    }
    return name;
}

std::vector<MsrFrequency>
msrFrequencies(const Database &db)
{
    std::map<std::string, MsrFrequency> families;
    std::size_t intelUnique = 0;
    std::size_t amdUnique = 0;

    for (const DbEntry &entry : db.entries()) {
        if (entry.vendor == Vendor::Intel)
            ++intelUnique;
        else
            ++amdUnique;
        std::set<std::string> seen;
        for (const MsrRef &msr : entry.msrs) {
            std::string family = msrFamily(msr.name);
            if (!seen.insert(family).second)
                continue;
            MsrFrequency &freq = families[family];
            freq.family = family;
            if (entry.vendor == Vendor::Intel)
                ++freq.intelCount;
            else
                ++freq.amdCount;
        }
    }

    std::vector<MsrFrequency> out;
    for (auto &[family, freq] : families) {
        freq.intelFraction =
            intelUnique == 0
                ? 0.0
                : static_cast<double>(freq.intelCount) /
                      static_cast<double>(intelUnique);
        freq.amdFraction =
            amdUnique == 0 ? 0.0
                           : static_cast<double>(freq.amdCount) /
                                 static_cast<double>(amdUnique);
        out.push_back(freq);
    }
    std::sort(out.begin(), out.end(),
              [](const MsrFrequency &a, const MsrFrequency &b) {
                  if (a.total() != b.total())
                      return a.total() > b.total();
                  return a.family < b.family;
              });
    return out;
}

} // namespace rememberr
