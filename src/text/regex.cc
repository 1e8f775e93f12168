#include "regex.hh"

#include <algorithm>
#include <cctype>
#include <memory>

#include "text/regex_linear.hh"
#include "util/logging.hh"

namespace rememberr {

namespace {

using redetail::foldCase;

/** Parsed pattern AST. */
struct Node
{
    enum class Kind {
        Literal,    ///< a single byte
        AnyChar,    ///< '.'
        Class,      ///< character class (index into class table)
        Concat,     ///< children in sequence
        Alternate,  ///< children as alternatives
        Repeat,     ///< child repeated [min, max] (max < 0: unbounded)
        Group,      ///< parenthesized subexpression
        Anchor,     ///< ^ $ \b \B
        Empty,      ///< matches the empty string
    };

    enum class AnchorType { Bol, Eol, WordB, NotWordB };

    Kind kind = Kind::Empty;
    char ch = 0;
    int classIndex = -1;
    std::vector<std::unique_ptr<Node>> children;
    int min = 0;
    int max = 0;
    bool lazy = false;
    AnchorType anchor = AnchorType::Bol;

    std::unique_ptr<Node>
    clone() const
    {
        auto copy = std::make_unique<Node>();
        copy->kind = kind;
        copy->ch = ch;
        copy->classIndex = classIndex;
        copy->min = min;
        copy->max = max;
        copy->lazy = lazy;
        copy->anchor = anchor;
        for (const auto &child : children)
            copy->children.push_back(child->clone());
        return copy;
    }
};

} // namespace

bool
redetail::CharClass::matches(unsigned char c, bool ignore_case) const
{
    auto inRanges = [&](unsigned char probe) {
        for (const auto &[lo, hi] : ranges) {
            if (probe >= lo && probe <= hi)
                return true;
        }
        return false;
    };
    bool hit = inRanges(c);
    if (!hit && ignore_case) {
        unsigned char other = static_cast<unsigned char>(
            std::isupper(c) ? std::tolower(c)
                            : std::isalpha(c) ? std::toupper(c) : c);
        if (other != c)
            hit = inRanges(other);
    }
    return negated ? !hit : hit;
}

/** Compiles a pattern string into a Regex program. */
class RegexCompiler
{
  public:
    RegexCompiler(std::string_view pattern, RegexOptions options)
        : pattern_(pattern), options_(options)
    {
    }

    Expected<Regex>
    compile()
    {
        auto ast = parseAlternation();
        if (!ast)
            return makeError(error_);
        if (pos_ != pattern_.size())
            return makeError(syntaxError("unexpected ')'"));

        Regex regex;
        regex.pattern_ = std::string(pattern_);
        regex.options_ = options_;
        regex.classes_ = std::move(classes_);

        // Save(0)/Save(1) delimit the whole match.
        emit(regex, {Regex::Op::Save, 0, 0, 0});
        if (!emitNode(regex, *ast))
            return makeError(error_);
        emit(regex, {Regex::Op::Save, 1, 0, 0});
        emit(regex, {Regex::Op::Accept, 0, 0, 0});
        regex.linear_ = std::make_shared<RegexLinearCache>();
        return regex;
    }

    /**
     * Parse only, for factor analysis. Returns null on any syntax
     * error; the caller falls back to "no factors" (always run the
     * matcher), so analysis can never be less correct than
     * compilation.
     */
    std::unique_ptr<Node>
    parseForAnalysis()
    {
        auto ast = parseAlternation();
        if (!ast || pos_ != pattern_.size())
            return nullptr;
        return ast;
    }

  private:
    using NodePtr = std::unique_ptr<Node>;

    std::string
    syntaxError(const std::string &what)
    {
        return what + " at offset " + std::to_string(pos_) + " in /" +
               std::string(pattern_) + "/";
    }

    NodePtr
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = syntaxError(what);
        return nullptr;
    }

    bool atEnd() const { return pos_ >= pattern_.size(); }
    char peek() const { return pattern_[pos_]; }
    char take() { return pattern_[pos_++]; }

    // alternation := concat ('|' concat)*
    NodePtr
    parseAlternation()
    {
        auto first = parseConcat();
        if (!first)
            return nullptr;
        if (atEnd() || peek() != '|')
            return first;
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::Alternate;
        node->children.push_back(std::move(first));
        while (!atEnd() && peek() == '|') {
            take();
            auto branch = parseConcat();
            if (!branch)
                return nullptr;
            node->children.push_back(std::move(branch));
        }
        return node;
    }

    // concat := repeat*
    NodePtr
    parseConcat()
    {
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::Concat;
        while (!atEnd() && peek() != '|' && peek() != ')') {
            auto piece = parseRepeat();
            if (!piece)
                return nullptr;
            node->children.push_back(std::move(piece));
        }
        if (node->children.empty()) {
            node->kind = Node::Kind::Empty;
        } else if (node->children.size() == 1) {
            return std::move(node->children[0]);
        }
        return node;
    }

    // repeat := atom ('*' | '+' | '?' | '{m,n}')? '?'?
    NodePtr
    parseRepeat()
    {
        auto atom = parseAtom();
        if (!atom)
            return nullptr;
        if (atEnd())
            return atom;

        int min = -1, max = -1;
        char q = peek();
        if (q == '*') {
            take();
            min = 0;
            max = -1;
        } else if (q == '+') {
            take();
            min = 1;
            max = -1;
        } else if (q == '?') {
            take();
            min = 0;
            max = 1;
        } else if (q == '{') {
            std::size_t mark = pos_;
            take();
            if (!parseBraceQuantifier(min, max)) {
                // '{' not followed by a quantifier: treat literally.
                pos_ = mark;
                return atom;
            }
        } else {
            return atom;
        }

        if (atom->kind == Node::Kind::Anchor)
            return fail("quantifier on anchor");

        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::Repeat;
        node->min = min;
        node->max = max;
        if (!atEnd() && peek() == '?') {
            take();
            node->lazy = true;
        }
        node->children.push_back(std::move(atom));
        return node;
    }

    bool
    parseBraceQuantifier(int &min, int &max)
    {
        std::size_t start = pos_;
        auto readInt = [&](int &out) {
            int value = 0;
            bool any = false;
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(peek()))) {
                value = value * 10 + (take() - '0');
                any = true;
                if (value > 1000)
                    return false;
            }
            if (any)
                out = value;
            return any;
        };
        int lo = -1, hi = -1;
        if (!readInt(lo)) {
            pos_ = start;
            return false;
        }
        if (!atEnd() && peek() == ',') {
            take();
            if (!atEnd() && peek() == '}') {
                hi = -1; // open-ended
            } else if (!readInt(hi)) {
                pos_ = start;
                return false;
            }
        } else {
            hi = lo;
        }
        if (atEnd() || peek() != '}') {
            pos_ = start;
            return false;
        }
        take();
        if (hi >= 0 && hi < lo) {
            pos_ = start;
            return false;
        }
        min = lo;
        max = hi;
        return true;
    }

    NodePtr
    parseAtom()
    {
        if (atEnd())
            return fail("pattern ends unexpectedly");
        char c = take();
        switch (c) {
          case '(': {
            // (...) and (?:...) are the same non-capturing group.
            if (!atEnd() && peek() == '?') {
                take();
                if (atEnd() || take() != ':')
                    return fail("only (?: groups are supported");
            }
            auto node = std::make_unique<Node>();
            node->kind = Node::Kind::Group;
            auto body = parseAlternation();
            if (!body)
                return nullptr;
            if (atEnd() || take() != ')')
                return fail("unterminated group");
            node->children.push_back(std::move(body));
            return node;
          }
          case '[':
            return parseClass();
          case '.': {
            auto node = std::make_unique<Node>();
            node->kind = Node::Kind::AnyChar;
            return node;
          }
          case '^':
            return makeAnchor(Node::AnchorType::Bol);
          case '$':
            return makeAnchor(Node::AnchorType::Eol);
          case '\\':
            return parseEscape(false);
          case '*':
          case '+':
          case '?':
            return fail("quantifier with nothing to repeat");
          case ')':
            return fail("unmatched ')'");
          default: {
            auto node = std::make_unique<Node>();
            node->kind = Node::Kind::Literal;
            node->ch = c;
            return node;
          }
        }
    }

    NodePtr
    makeAnchor(Node::AnchorType type)
    {
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::Anchor;
        node->anchor = type;
        return node;
    }

    /** Build a class node from predefined escape classes (\d, \w...). */
    NodePtr
    makeEscapeClass(char kind)
    {
        Regex::CharClass cls;
        switch (kind) {
          case 'D':
            cls.negated = true;
            [[fallthrough]];
          case 'd':
            cls.ranges.push_back({'0', '9'});
            break;
          case 'W':
            cls.negated = true;
            [[fallthrough]];
          case 'w':
            cls.ranges.push_back({'a', 'z'});
            cls.ranges.push_back({'A', 'Z'});
            cls.ranges.push_back({'0', '9'});
            cls.ranges.push_back({'_', '_'});
            break;
          case 'S':
            cls.negated = true;
            [[fallthrough]];
          case 's':
            cls.ranges.push_back({' ', ' '});
            cls.ranges.push_back({'\t', '\t'});
            cls.ranges.push_back({'\n', '\n'});
            cls.ranges.push_back({'\r', '\r'});
            cls.ranges.push_back({'\f', '\f'});
            cls.ranges.push_back({'\v', '\v'});
            break;
          default:
            return fail("unknown escape class");
        }
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::Class;
        node->classIndex = static_cast<int>(classes_.size());
        classes_.push_back(std::move(cls));
        return node;
    }

    NodePtr
    parseEscape(bool in_class)
    {
        if (atEnd())
            return fail("trailing backslash");
        char c = take();
        switch (c) {
          case 'd': case 'D': case 'w': case 'W': case 's': case 'S':
            return makeEscapeClass(c);
          case 'b':
            if (!in_class)
                return makeAnchor(Node::AnchorType::WordB);
            return makeLiteral('\b');
          case 'B':
            if (!in_class)
                return makeAnchor(Node::AnchorType::NotWordB);
            return fail("\\B inside class");
          case 'n': return makeLiteral('\n');
          case 't': return makeLiteral('\t');
          case 'r': return makeLiteral('\r');
          case 'f': return makeLiteral('\f');
          case 'v': return makeLiteral('\v');
          case '0': return makeLiteral('\0');
          default:
            if (std::isalnum(static_cast<unsigned char>(c)))
                return fail(std::string("unsupported escape \\") + c);
            return makeLiteral(c);
        }
    }

    NodePtr
    makeLiteral(char c)
    {
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::Literal;
        node->ch = c;
        return node;
    }

    NodePtr
    parseClass()
    {
        Regex::CharClass cls;
        if (!atEnd() && peek() == '^') {
            take();
            cls.negated = true;
        }
        bool first = true;
        while (true) {
            if (atEnd())
                return fail("unterminated character class");
            char c = peek();
            if (c == ']' && !first) {
                take();
                break;
            }
            first = false;
            take();
            unsigned char lo;
            if (c == '\\') {
                // Inside classes, escape classes merge their ranges.
                if (atEnd())
                    return fail("trailing backslash in class");
                char esc = peek();
                if (esc == 'd' || esc == 'w' || esc == 's') {
                    auto sub = parseEscape(true);
                    if (!sub)
                        return nullptr;
                    const auto &subCls =
                        classes_[static_cast<std::size_t>(
                            sub->classIndex)];
                    for (auto r : subCls.ranges)
                        cls.ranges.push_back(r);
                    classes_.pop_back();
                    continue;
                }
                auto lit = parseEscape(true);
                if (!lit)
                    return nullptr;
                if (lit->kind != Node::Kind::Literal)
                    return fail("unsupported escape in class");
                lo = static_cast<unsigned char>(lit->ch);
            } else {
                lo = static_cast<unsigned char>(c);
            }
            unsigned char hi = lo;
            if (!atEnd() && peek() == '-' && pos_ + 1 < pattern_.size()
                && pattern_[pos_ + 1] != ']') {
                take(); // '-'
                char rc = take();
                if (rc == '\\') {
                    auto lit = parseEscape(true);
                    if (!lit || lit->kind != Node::Kind::Literal)
                        return fail("bad range end in class");
                    hi = static_cast<unsigned char>(lit->ch);
                } else {
                    hi = static_cast<unsigned char>(rc);
                }
                if (hi < lo)
                    return fail("reversed range in class");
            }
            cls.ranges.push_back({lo, hi});
        }
        auto node = std::make_unique<Node>();
        node->kind = Node::Kind::Class;
        node->classIndex = static_cast<int>(classes_.size());
        classes_.push_back(std::move(cls));
        return node;
    }

    // ---- code generation -------------------------------------------

    static std::int32_t
    here(const Regex &regex)
    {
        return static_cast<std::int32_t>(regex.program_.size());
    }

    static void
    emit(Regex &regex, Regex::Inst inst)
    {
        regex.program_.push_back(inst);
    }

    bool
    compileError(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " in /" + std::string(pattern_) + "/";
        return false;
    }

    bool
    emitNode(Regex &regex, const Node &node)
    {
        switch (node.kind) {
          case Node::Kind::Empty:
            return true;
          case Node::Kind::Literal: {
            char c = options_.ignoreCase ? foldCase(node.ch) : node.ch;
            emit(regex, {Regex::Op::Char, 0, 0, c});
            return true;
          }
          case Node::Kind::AnyChar:
            emit(regex, {Regex::Op::Any, 0, 0, 0});
            return true;
          case Node::Kind::Class:
            emit(regex, {Regex::Op::Class, node.classIndex, 0, 0});
            return true;
          case Node::Kind::Anchor:
            switch (node.anchor) {
              case Node::AnchorType::Bol:
                emit(regex, {Regex::Op::Bol, 0, 0, 0});
                break;
              case Node::AnchorType::Eol:
                emit(regex, {Regex::Op::Eol, 0, 0, 0});
                break;
              case Node::AnchorType::WordB:
                emit(regex, {Regex::Op::WordB, 0, 0, 0});
                break;
              case Node::AnchorType::NotWordB:
                emit(regex, {Regex::Op::NotWordB, 0, 0, 0});
                break;
            }
            return true;
          case Node::Kind::Concat:
            for (const auto &child : node.children) {
                if (!emitNode(regex, *child))
                    return false;
            }
            return true;
          case Node::Kind::Group:
            return emitNode(regex, *node.children[0]);
          case Node::Kind::Alternate: {
            // split b1, (split b2, (... bn))  with jumps to the end.
            std::vector<std::int32_t> jumpSites;
            for (std::size_t i = 0; i < node.children.size(); ++i) {
                bool last = (i + 1 == node.children.size());
                std::int32_t splitSite = -1;
                if (!last) {
                    splitSite = here(regex);
                    emit(regex, {Regex::Op::Split, 0, 0, 0});
                    regex.program_[splitSite].arg1 = here(regex);
                }
                if (!emitNode(regex, *node.children[i]))
                    return false;
                if (!last) {
                    jumpSites.push_back(here(regex));
                    emit(regex, {Regex::Op::Jump, 0, 0, 0});
                    regex.program_[splitSite].arg2 = here(regex);
                }
            }
            for (std::int32_t site : jumpSites)
                regex.program_[site].arg1 = here(regex);
            return true;
          }
          case Node::Kind::Repeat:
            return emitRepeat(regex, node);
        }
        return compileError("unreachable node kind");
    }

    bool
    emitRepeat(Regex &regex, const Node &node)
    {
        const Node &body = *node.children[0];
        const int min = node.min;
        const int max = node.max;
        const bool lazy = node.lazy;

        if (min > 64 || (max >= 0 && max > 64))
            return compileError("repetition bound too large (max 64)");

        // Mandatory copies.
        for (int i = 0; i < min; ++i) {
            if (!emitNode(regex, body))
                return false;
        }

        if (max < 0) {
            // Kleene loop:  L: split body, end ; body ; jump L
            std::int32_t loop = here(regex);
            emit(regex, {Regex::Op::Split, 0, 0, 0});
            std::int32_t bodyStart = here(regex);
            if (!emitNode(regex, body))
                return false;
            emit(regex, {Regex::Op::Jump, loop, 0, 0});
            std::int32_t end = here(regex);
            if (lazy) {
                regex.program_[loop].arg1 = end;
                regex.program_[loop].arg2 = bodyStart;
            } else {
                regex.program_[loop].arg1 = bodyStart;
                regex.program_[loop].arg2 = end;
            }
            return true;
        }

        // (max - min) optional copies, each guarded by a split that
        // can bail straight to the end.
        std::vector<std::int32_t> splitSites;
        for (int i = min; i < max; ++i) {
            splitSites.push_back(here(regex));
            emit(regex, {Regex::Op::Split, 0, 0, 0});
            std::int32_t bodyStart = here(regex);
            if (!emitNode(regex, body))
                return false;
            // Fill the "take the body" arm now; the "skip" arm is
            // patched to the common end below.
            auto &inst = regex.program_[splitSites.back()];
            if (lazy)
                inst.arg2 = bodyStart;
            else
                inst.arg1 = bodyStart;
        }
        std::int32_t end = here(regex);
        for (std::int32_t site : splitSites) {
            auto &inst = regex.program_[site];
            if (lazy)
                inst.arg1 = end;
            else
                inst.arg2 = end;
        }
        return true;
    }

    std::string_view pattern_;
    RegexOptions options_;
    std::size_t pos_ = 0;
    std::vector<Regex::CharClass> classes_;
    std::string error_;
};

namespace {

// ---- required-literal-factor analysis ------------------------------
//
// For every AST node we compute either the node's *exact* language
// (a small set of literal strings) or a set of *factor alternatives*
// — strings of which at least one must appear inside any match of the
// node. Exact sets compose under concatenation (cross product) and
// alternation (union); factor sets only survive alternation when
// every branch contributes one. All strings are ASCII-lower-cased so
// a scanner can fold the haystack once: folding is a conservative
// over-approximation for case-sensitive patterns and exact for
// case-insensitive ones.

constexpr std::size_t kMaxFactorAlternatives = 16;
constexpr std::size_t kMaxFactorLength = 64;

struct FactorInfo
{
    /** strings is the node's complete language (not just factors). */
    bool exact = false;
    /** Exact language, or factor alternatives; empty = no factors. */
    std::vector<std::string> strings;
};

bool
usableAsFactors(const std::vector<std::string> &strings)
{
    if (strings.empty() || strings.size() > kMaxFactorAlternatives)
        return false;
    for (const std::string &s : strings) {
        if (s.empty() || s.size() > kMaxFactorLength)
            return false;
    }
    return true;
}

/** Lexicographic score: (min alternative length, -alternatives). */
std::pair<std::size_t, std::size_t>
factorScore(const std::vector<std::string> &strings)
{
    std::size_t minLen = kMaxFactorLength + 1;
    for (const std::string &s : strings)
        minLen = std::min(minLen, s.size());
    return {minLen, kMaxFactorAlternatives - strings.size()};
}

/** Keep the better of best and candidate (longer minimum factor). */
void
considerCandidate(std::vector<std::string> &best,
                  const std::vector<std::string> &candidate)
{
    if (!usableAsFactors(candidate))
        return;
    if (best.empty() || factorScore(candidate) > factorScore(best))
        best = candidate;
}

/** Cross product into acc; false (acc untouched) on overflow. */
bool
productInto(std::vector<std::string> &acc,
            const std::vector<std::string> &next)
{
    if (acc.size() * next.size() > kMaxFactorAlternatives)
        return false;
    std::vector<std::string> out;
    out.reserve(acc.size() * next.size());
    for (const std::string &a : acc) {
        for (const std::string &b : next) {
            if (a.size() + b.size() > kMaxFactorLength)
                return false;
            out.push_back(a + b);
        }
    }
    acc = std::move(out);
    return true;
}

/** The node's factor alternatives (empty when unusable). */
std::vector<std::string>
factorsOf(const FactorInfo &info)
{
    if (!usableAsFactors(info.strings))
        return {};
    return info.strings;
}

FactorInfo
analyzeFactors(const Node &node)
{
    switch (node.kind) {
      case Node::Kind::Empty:
      case Node::Kind::Anchor:
        // Anchors consume nothing; as a language fragment they
        // contribute the empty string to any concatenation.
        return {true, {std::string()}};
      case Node::Kind::Literal:
        return {true, {std::string(1, foldCase(node.ch))}};
      case Node::Kind::AnyChar:
      case Node::Kind::Class:
        // Could enumerate tiny classes; not worth it for the rule
        // tables, which gate on literal phrases.
        return {false, {}};
      case Node::Kind::Group:
        return analyzeFactors(*node.children[0]);
      case Node::Kind::Concat: {
        // Greedily cross-product maximal runs of exact children;
        // every finished run is a valid factor-alternative set for
        // the whole concatenation (a match embeds the run's text as
        // a contiguous substring). Non-exact children contribute
        // their own factor sets as candidates.
        std::vector<std::string> best;
        std::vector<std::string> run;
        bool runOpen = false;
        bool allExact = true;
        bool overflowed = false;
        for (const auto &child : node.children) {
            FactorInfo sub = analyzeFactors(*child);
            if (sub.exact) {
                if (!runOpen) {
                    run = sub.strings;
                    runOpen = true;
                } else if (!productInto(run, sub.strings)) {
                    overflowed = true;
                    considerCandidate(best, run);
                    run = sub.strings;
                }
            } else {
                allExact = false;
                if (runOpen) {
                    considerCandidate(best, run);
                    runOpen = false;
                }
                considerCandidate(best, factorsOf(sub));
            }
        }
        if (allExact && !overflowed && runOpen)
            return {true, std::move(run)};
        if (runOpen)
            considerCandidate(best, run);
        return {false, std::move(best)};
      }
      case Node::Kind::Alternate: {
        bool allExact = true;
        std::vector<std::string> unionSet;
        for (const auto &child : node.children) {
            FactorInfo sub = analyzeFactors(*child);
            if (!sub.exact) {
                allExact = false;
                // A factor union is only sound when every branch
                // guarantees one of its own factors.
                if (factorsOf(sub).empty())
                    return {false, {}};
            } else if (!usableAsFactors(sub.strings)) {
                // Exact branch that matches "" (or is too big):
                // sound for an exact union, useless as a factor.
                allExact = allExact && true;
                if (!sub.strings.empty() &&
                    sub.strings.size() <= kMaxFactorAlternatives) {
                    // keep for the exact union below
                } else {
                    return {false, {}};
                }
            }
            for (std::string &s : sub.strings)
                unionSet.push_back(std::move(s));
            if (unionSet.size() > kMaxFactorAlternatives)
                return {false, {}};
        }
        std::sort(unionSet.begin(), unionSet.end());
        unionSet.erase(
            std::unique(unionSet.begin(), unionSet.end()),
            unionSet.end());
        if (allExact)
            return {true, std::move(unionSet)};
        if (!usableAsFactors(unionSet))
            return {false, {}};
        return {false, std::move(unionSet)};
      }
      case Node::Kind::Repeat: {
        FactorInfo body = analyzeFactors(*node.children[0]);
        if (node.min == 0) {
            // The repeat can match the empty string, so nothing
            // inside it is required; enumerate x? / x{0,n} exactly
            // when the body language is small.
            if (body.exact && node.max >= 0) {
                std::vector<std::string> langUnion{std::string()};
                std::vector<std::string> power{std::string()};
                for (int i = 1; i <= node.max; ++i) {
                    if (!productInto(power, body.strings))
                        return {false, {}};
                    for (const std::string &s : power)
                        langUnion.push_back(s);
                    if (langUnion.size() > kMaxFactorAlternatives)
                        return {false, {}};
                }
                std::sort(langUnion.begin(), langUnion.end());
                langUnion.erase(std::unique(langUnion.begin(),
                                            langUnion.end()),
                                langUnion.end());
                return {true, std::move(langUnion)};
            }
            return {false, {}};
        }
        // min >= 1: at least one body occurrence appears in full.
        if (body.exact && node.max == node.min) {
            std::vector<std::string> power = body.strings;
            bool ok = true;
            for (int i = 1; i < node.min && ok; ++i)
                ok = productInto(power, body.strings);
            if (ok)
                return {true, std::move(power)};
        }
        return {false, factorsOf(body)};
      }
    }
    return {false, {}};
}

} // namespace

std::vector<std::string>
Regex::literalFactors() const
{
    RegexCompiler compiler(pattern_, options_);
    auto ast = compiler.parseForAnalysis();
    if (!ast)
        return {};
    FactorInfo info = analyzeFactors(*ast);
    std::vector<std::string> factors = factorsOf(info);
    std::sort(factors.begin(), factors.end());
    factors.erase(std::unique(factors.begin(), factors.end()),
                  factors.end());
    return factors;
}

namespace {

/** True when the node can match at least one non-empty string. */
bool
canMatchNonEmpty(const Node &node)
{
    switch (node.kind) {
      case Node::Kind::Empty:
      case Node::Kind::Anchor:
        return false;
      case Node::Kind::Literal:
      case Node::Kind::AnyChar:
      case Node::Kind::Class:
        return true;
      case Node::Kind::Group:
        return canMatchNonEmpty(*node.children[0]);
      case Node::Kind::Concat:
      case Node::Kind::Alternate:
        for (const auto &child : node.children) {
            if (canMatchNonEmpty(*child))
                return true;
        }
        return false;
      case Node::Kind::Repeat:
        return node.max != 0 && canMatchNonEmpty(*node.children[0]);
    }
    return false;
}

/** A repeat where a matcher has a choice of iteration counts. */
bool
isVariableRepeat(const Node &node)
{
    return node.kind == Node::Kind::Repeat &&
           (node.max < 0 || node.max > node.min);
}

/** Whether the subtree holds a variable repeat of non-empty text. */
bool
containsVariableRepeat(const Node &node)
{
    if (isVariableRepeat(node) &&
        canMatchNonEmpty(*node.children[0])) {
        return true;
    }
    for (const auto &child : node.children) {
        if (containsVariableRepeat(*child))
            return true;
    }
    return false;
}

/**
 * First '(x+)+'-shaped hazard in the subtree: an outer quantifier
 * that can iterate more than once around an inner variable-count
 * repetition of non-empty text. The same subject substring can then
 * be split across outer iterations in exponentially many ways, and
 * a backtracking matcher explores them all on a failing subject.
 */
std::optional<std::string>
findNestedRepeat(const Node &node)
{
    if (node.kind == Node::Kind::Repeat &&
        (node.max < 0 || node.max > 1) &&
        containsVariableRepeat(*node.children[0])) {
        std::string bound =
            node.max < 0 ? std::string("unbounded")
                         : "up to " + std::to_string(node.max);
        return "quantifier with " + bound +
               " iterations encloses another variable-count "
               "repetition of non-empty text ('(x+)+' shape); a "
               "backtracking matcher takes exponential time on a "
               "failing subject";
    }
    for (const auto &child : node.children) {
        if (auto hit = findNestedRepeat(*child))
            return hit;
    }
    return std::nullopt;
}

} // namespace

std::optional<std::vector<std::string>>
Regex::exactLiterals() const
{
    RegexCompiler compiler(pattern_, options_);
    auto ast = compiler.parseForAnalysis();
    if (!ast)
        return std::nullopt;
    FactorInfo info = analyzeFactors(*ast);
    if (!info.exact)
        return std::nullopt;
    std::vector<std::string> language = std::move(info.strings);
    std::sort(language.begin(), language.end());
    language.erase(std::unique(language.begin(), language.end()),
                   language.end());
    return language;
}

std::optional<std::string>
Regex::backtrackingHazard() const
{
    RegexCompiler compiler(pattern_, options_);
    auto ast = compiler.parseForAnalysis();
    if (!ast)
        return std::nullopt;
    return findNestedRepeat(*ast);
}

Expected<Regex>
Regex::compile(std::string_view pattern, RegexOptions options)
{
    return RegexCompiler(pattern, options).compile();
}

Regex
Regex::compileOrDie(std::string_view pattern, RegexOptions options)
{
    auto result = compile(pattern, options);
    if (!result)
        REMEMBERR_PANIC("regex compile failed: ",
                        result.error().toString());
    return result.value();
}

bool
Regex::fullMatch(std::string_view subject) const
{
    return RegexLinear::fullMatch(*this, subject);
}

std::optional<RegexMatch>
Regex::search(std::string_view subject, std::size_t from) const
{
    return RegexLinear::searchSpan(*this, subject, from);
}

std::vector<RegexMatch>
Regex::findAll(std::string_view subject) const
{
    std::vector<RegexMatch> matches;
    std::size_t from = 0;
    while (from <= subject.size()) {
        auto match = search(subject, from);
        if (!match)
            break;
        matches.push_back(*match);
        // Empty matches must still make progress.
        from = match->end > match->begin ? match->end : match->end + 1;
    }
    return matches;
}

bool
Regex::contains(std::string_view subject) const
{
    return RegexLinear::contains(*this, subject);
}

std::string
regexEscape(std::string_view literal)
{
    static const std::string meta = R"(.^$*+?()[]{}|\)";
    std::string out;
    out.reserve(literal.size());
    for (char c : literal) {
        if (meta.find(c) != std::string::npos)
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace rememberr
