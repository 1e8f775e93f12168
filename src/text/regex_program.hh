/**
 * @file
 * The compiled regex program representation, shared by every
 * interpreter of a compiled pattern.
 *
 * A compiled `Regex` is a Thompson-style bytecode program: Char /
 * Any / Class consume one byte, Split / Jump / Save are epsilon
 * edges, the anchor opcodes are zero-width assertions, and Accept
 * ends a match. Groups do not capture, so the only Save slots are 0
 * and 1, around the whole match. Two engines match with the program,
 * both in regex_linear.cc:
 *
 *   - the lazy-DFA decision engine (booleans in guaranteed linear
 *     time);
 *   - the Pike NFA simulation (leftmost match spans in guaranteed
 *     linear time).
 *
 * The engines, the automata analysis (regex_automata.cc) and the
 * test-only backtracking oracle all read the program through
 * `Regex::program()`. The types live in `redetail` rather than inside
 * `Regex` so those interpreters can be implemented as free code
 * instead of an ever-growing friend class.
 */

#ifndef REMEMBERR_TEXT_REGEX_PROGRAM_HH
#define REMEMBERR_TEXT_REGEX_PROGRAM_HH

#include <cctype>
#include <cstdint>
#include <utility>
#include <vector>

namespace rememberr {
namespace redetail {

enum class Op : std::uint8_t {
    Char,       ///< match a single (possibly case-folded) byte
    Any,        ///< match any byte except '\n'
    Class,      ///< match a character class by table index
    Split,      ///< try arg1 first, then arg2 (priority)
    Jump,       ///< unconditional jump to arg1
    Save,       ///< record current position in slot arg1
    Bol,        ///< assert beginning of subject or after '\n'
    Eol,        ///< assert end of subject or before '\n'
    WordB,      ///< assert a word boundary
    NotWordB,   ///< assert no word boundary
    Accept,     ///< match complete
};

struct Inst
{
    Op op;
    std::int32_t arg1 = 0;
    std::int32_t arg2 = 0;
    char ch = 0;
};

struct CharClass
{
    bool negated = false;
    /** Inclusive byte ranges. */
    std::vector<std::pair<unsigned char, unsigned char>> ranges;

    bool matches(unsigned char c, bool ignore_case) const;
};

inline char
foldCase(char c)
{
    return static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
}

inline bool
isWordChar(char c)
{
    unsigned char u = static_cast<unsigned char>(c);
    return std::isalnum(u) || c == '_';
}

/** A read-only view of one compiled program (`Regex::program()`). */
struct ProgramView
{
    const std::vector<Inst> *insts = nullptr;
    const std::vector<CharClass> *classes = nullptr;
    bool ignoreCase = false;
};

/**
 * Whether a consuming instruction (Char/Any/Class) accepts `byte`.
 * Every library interpreter routes byte tests through here so all
 * of them recognize exactly the same language. The test-only oracle
 * tests Char and Any bytes itself, so the differential tests check
 * this helper too.
 */
inline bool
instConsumes(const Inst &inst, const std::vector<CharClass> &classes,
             bool ignore_case, unsigned char byte)
{
    switch (inst.op) {
      case Op::Char: {
        char c = static_cast<char>(byte);
        if (ignore_case)
            c = foldCase(c);
        return c == inst.ch;
      }
      case Op::Any:
        return byte != static_cast<unsigned char>('\n');
      case Op::Class:
        return classes[static_cast<std::size_t>(inst.arg1)].matches(
            byte, ignore_case);
      default:
        return false;
    }
}

} // namespace redetail
} // namespace rememberr

#endif // REMEMBERR_TEXT_REGEX_PROGRAM_HH
