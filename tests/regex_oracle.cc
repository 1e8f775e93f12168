#include "regex_oracle.hh"

#include <cstdint>
#include <vector>

namespace rememberr {

namespace {

using redetail::foldCase;
using redetail::Inst;
using redetail::isWordChar;
using redetail::Op;

/**
 * One match attempt anchored at start. Returns true with out filled
 * when a path reaches Accept; false when every path fails or the
 * step budget runs out (then exhausted is set).
 */
bool
runFrom(const redetail::ProgramView &prog, std::string_view subject,
        std::size_t start, bool require_full, std::size_t step_limit,
        RegexMatch &out, bool &exhausted)
{
    struct Frame
    {
        std::int32_t pc;
        std::size_t pos;
    };

    std::vector<Frame> stack;
    std::int32_t pc = 0;
    std::size_t pos = start;
    std::size_t steps = 0;

    for (;;) {
        if (++steps > step_limit) {
            exhausted = true;
            return false;
        }
        const Inst &inst = (*prog.insts)[static_cast<std::size_t>(pc)];
        bool ok = true;
        switch (inst.op) {
          // Char and Any test the byte here rather than through
          // redetail::instConsumes, which the linear engines share, so
          // the differential tests check that helper too.
          case Op::Char:
            ok = pos < subject.size() &&
                 (prog.ignoreCase ? foldCase(subject[pos])
                                  : subject[pos]) == inst.ch;
            if (ok) {
                ++pos;
                ++pc;
            }
            break;
          case Op::Any:
            ok = pos < subject.size() && subject[pos] != '\n';
            if (ok) {
                ++pos;
                ++pc;
            }
            break;
          case Op::Class:
            ok = pos < subject.size() &&
                 (*prog.classes)[static_cast<std::size_t>(inst.arg1)]
                     .matches(static_cast<unsigned char>(subject[pos]),
                              prog.ignoreCase);
            if (ok) {
                ++pos;
                ++pc;
            }
            break;
          case Op::Split:
            stack.push_back({inst.arg2, pos});
            pc = inst.arg1;
            break;
          case Op::Jump:
            pc = inst.arg1;
            break;
          case Op::Save:
            // Groups do not capture: slots 0 and 1 bracket the whole
            // match, which begins at start and ends at Accept.
            ++pc;
            break;
          case Op::Bol:
            ok = pos == 0 || subject[pos - 1] == '\n';
            if (ok)
                ++pc;
            break;
          case Op::Eol:
            ok = pos == subject.size() || subject[pos] == '\n';
            if (ok)
                ++pc;
            break;
          case Op::WordB:
          case Op::NotWordB: {
            bool before = pos > 0 && isWordChar(subject[pos - 1]);
            bool after =
                pos < subject.size() && isWordChar(subject[pos]);
            ok = (before != after) == (inst.op == Op::WordB);
            if (ok)
                ++pc;
            break;
          }
          case Op::Accept:
            // fullMatch keeps backtracking until a path consumes
            // the whole subject.
            ok = !require_full || pos == subject.size();
            if (ok) {
                out.begin = start;
                out.end = pos;
                return true;
            }
            break;
        }
        if (!ok) {
            if (stack.empty())
                return false;
            pc = stack.back().pc;
            pos = stack.back().pos;
            stack.pop_back();
        }
    }
}

} // namespace

bool
fullMatchBacktracking(const Regex &regex, std::string_view subject,
                      bool *exhausted, std::size_t step_limit)
{
    RegexMatch match;
    bool budget = false;
    bool matched = runFrom(regex.program(), subject, 0, true,
                           step_limit, match, budget);
    if (exhausted)
        *exhausted = budget;
    return matched;
}

std::optional<RegexMatch>
searchBacktracking(const Regex &regex, std::string_view subject,
                   std::size_t from, bool *exhausted,
                   std::size_t step_limit)
{
    if (exhausted)
        *exhausted = false;
    for (std::size_t start = from; start <= subject.size(); ++start) {
        RegexMatch match;
        bool budget = false;
        if (runFrom(regex.program(), subject, start, false, step_limit,
                    match, budget)) {
            return match;
        }
        if (budget) {
            if (exhausted)
                *exhausted = true;
            return std::nullopt;
        }
    }
    return std::nullopt;
}

bool
containsBacktracking(const Regex &regex, std::string_view subject,
                     bool *exhausted)
{
    return searchBacktracking(regex, subject, 0, exhausted).has_value();
}

} // namespace rememberr
