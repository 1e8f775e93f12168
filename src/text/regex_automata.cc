#include "text/regex_automata.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>

namespace rememberr {

namespace {

using redetail::Inst;
using redetail::instConsumes;
using redetail::isWordChar;
using redetail::Op;

/** Context classes for the byte left of a gap, mirroring the linear
 * tier: begin-of-input and '\n' are one context (both satisfy Bol,
 * neither is a word character). */
enum : std::uint8_t { kPrevBolOk = 0, kPrevWord = 1, kPrevOther = 2 };

std::uint8_t
prevClassOf(unsigned char byte)
{
    if (byte == '\n')
        return kPrevBolOk;
    if (isWordChar(static_cast<char>(byte)))
        return kPrevWord;
    return kPrevOther;
}

/** The slices of a compiled Regex the analysis reads. */
using Prog = redetail::ProgramView;

/**
 * Epsilon closure at a gap with start injection (the unanchored
 * reading): collects the consuming pcs reachable without input and
 * whether Accept is reachable. Assertions are decided from the
 * (prevClass, nextByte) context; nextByte < 0 means end of input.
 * Identical semantics to the closure in regex_linear.cc — the
 * differential tests in test_automata.cc pin the two together.
 */
struct Closure
{
    std::vector<std::int32_t> consuming;
    bool accept = false;

    void
    run(const Prog &prog, const std::vector<std::int32_t> &kernel,
        std::uint8_t prev_class, int next_byte)
    {
        consuming.clear();
        accept = false;
        visited_.assign(prog.insts->size(), 0);
        for (std::int32_t pc : kernel)
            add(prog, pc, prev_class, next_byte);
        add(prog, 0, prev_class, next_byte); // fresh attempt at gap
    }

  private:
    void
    add(const Prog &prog, std::int32_t pc, std::uint8_t prev_class,
        int next_byte)
    {
        if (visited_[static_cast<std::size_t>(pc)])
            return;
        visited_[static_cast<std::size_t>(pc)] = 1;
        const Inst &inst =
            (*prog.insts)[static_cast<std::size_t>(pc)];
        switch (inst.op) {
          case Op::Char:
          case Op::Any:
          case Op::Class:
            consuming.push_back(pc);
            return;
          case Op::Split:
            add(prog, inst.arg1, prev_class, next_byte);
            add(prog, inst.arg2, prev_class, next_byte);
            return;
          case Op::Jump:
            add(prog, inst.arg1, prev_class, next_byte);
            return;
          case Op::Save:
            add(prog, pc + 1, prev_class, next_byte);
            return;
          case Op::Bol:
            if (prev_class == kPrevBolOk)
                add(prog, pc + 1, prev_class, next_byte);
            return;
          case Op::Eol:
            if (next_byte < 0 || next_byte == '\n')
                add(prog, pc + 1, prev_class, next_byte);
            return;
          case Op::WordB:
          case Op::NotWordB: {
            bool before = prev_class == kPrevWord;
            bool after = next_byte >= 0 &&
                         isWordChar(static_cast<char>(next_byte));
            bool boundary = before != after;
            if ((inst.op == Op::WordB) == boundary)
                add(prog, pc + 1, prev_class, next_byte);
            return;
          }
          case Op::Accept:
            accept = true;
            return;
        }
    }

    std::vector<std::uint8_t> visited_;
};

/** Advance a closure's consuming set over one byte (sorted, unique
 * — kernel identity must be canonical). */
std::vector<std::int32_t>
stepKernel(const Prog &prog,
           const std::vector<std::int32_t> &consuming,
           unsigned char byte)
{
    std::vector<std::int32_t> next;
    next.reserve(consuming.size());
    for (std::int32_t pc : consuming) {
        const Inst &inst =
            (*prog.insts)[static_cast<std::size_t>(pc)];
        if (instConsumes(inst, *prog.classes, prog.ignoreCase, byte))
            next.push_back(pc + 1);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    return next;
}

/**
 * Witness-preference rank: lower ranks are explored (and therefore
 * chosen as class representatives) first, so the shortest witness
 * the BFS reconstructs is also the most readable one available.
 */
int
byteRank(unsigned char byte)
{
    if (byte >= 'a' && byte <= 'z')
        return byte - 'a';
    if (byte >= '0' && byte <= '9')
        return 26 + (byte - '0');
    if (byte == ' ')
        return 36;
    if (byte >= 'A' && byte <= 'Z')
        return 40 + (byte - 'A');
    if (byte >= 33 && byte <= 126)
        return 100 + byte;
    return 300 + byte;
}

/**
 * Joint byte-equivalence classes over every pattern of both sides:
 * two bytes with identical consume signatures across all programs,
 * the same word-char bit and the same newline bit always drive the
 * same product transition. Returns one representative per class,
 * sorted by preference rank.
 */
std::vector<unsigned char>
jointByteRepresentatives(const std::vector<Prog> &progs)
{
    std::map<std::vector<std::uint8_t>, unsigned char> reps;
    // Visit bytes in preference order so the first byte of each
    // signature — the one try_emplace keeps — is the best-ranked.
    std::vector<int> order(256);
    for (int b = 0; b < 256; ++b)
        order[static_cast<std::size_t>(b)] = b;
    std::sort(order.begin(), order.end(), [](int a, int b) {
        return byteRank(static_cast<unsigned char>(a)) <
               byteRank(static_cast<unsigned char>(b));
    });
    for (int b : order) {
        unsigned char byte = static_cast<unsigned char>(b);
        std::vector<std::uint8_t> sig;
        for (const Prog &prog : progs) {
            for (const Inst &inst : *prog.insts) {
                switch (inst.op) {
                  case Op::Char:
                  case Op::Any:
                  case Op::Class:
                    sig.push_back(instConsumes(inst, *prog.classes,
                                               prog.ignoreCase, byte)
                                      ? 1
                                      : 0);
                    break;
                  default:
                    break;
                }
            }
        }
        sig.push_back(isWordChar(static_cast<char>(byte)) ? 1 : 0);
        sig.push_back(byte == '\n' ? 1 : 0);
        reps.try_emplace(std::move(sig), byte);
    }
    std::vector<unsigned char> out;
    out.reserve(reps.size());
    for (const auto &[sig, byte] : reps)
        out.push_back(byte);
    std::sort(out.begin(), out.end(),
              [](unsigned char a, unsigned char b) {
                  return byteRank(a) < byteRank(b);
              });
    return out;
}

/** One side of the product: a union of patterns with their kernels. */
struct SideState
{
    /** One kernel per pattern; empty vector once `accepted`. */
    std::vector<std::vector<std::int32_t>> kernels;
    /** Sticky: some prefix already contained a match of this side. */
    bool accepted = false;
};

/** A full product state plus the BFS parent link for witnesses. */
struct ProductState
{
    SideState a;
    SideState b;
    std::uint8_t prevClass = kPrevBolOk;
    std::int32_t parent = -1;
    unsigned char byte = 0;
};

/** Canonical interning key for a product state. */
std::vector<std::int32_t>
stateKey(const ProductState &state)
{
    std::vector<std::int32_t> key;
    auto appendSide = [&](const SideState &side) {
        key.push_back(side.accepted ? 1 : 0);
        for (const std::vector<std::int32_t> &kernel : side.kernels) {
            for (std::int32_t pc : kernel)
                key.push_back(pc);
            key.push_back(-1); // kernel separator
        }
        key.push_back(-2); // side separator
    };
    appendSide(state.a);
    appendSide(state.b);
    key.push_back(state.prevClass);
    return key;
}

/**
 * What the BFS is looking for. The predicate sees the *final*
 * acceptance of each side for the string ending at the inspected
 * state (sticky flag OR end-of-input acceptance at this gap), and a
 * prune test sees only the sticky flags: a pruned state can never
 * reach the target, so its subtree is skipped (pure optimization —
 * prunes must be implied by target monotonicity).
 */
struct SearchGoal
{
    bool (*target)(bool final_a, bool final_b);
    bool (*prune)(bool sticky_a, bool sticky_b);
};

struct Search
{
    std::vector<Prog> progsA;
    std::vector<Prog> progsB;
    std::size_t stateBudget = AutomataOptions::defaultStateBudget();

    AutomataResult
    run(const SearchGoal &goal)
    {
        AutomataResult result;
        std::vector<Prog> all = progsA;
        all.insert(all.end(), progsB.begin(), progsB.end());
        std::vector<unsigned char> reps =
            jointByteRepresentatives(all);

        std::vector<ProductState> states;
        std::map<std::vector<std::int32_t>, std::int32_t> index;
        std::deque<std::int32_t> queue;

        ProductState initial;
        initial.a.kernels.assign(progsA.size(), {});
        initial.b.kernels.assign(progsB.size(), {});
        states.push_back(initial);
        index.emplace(stateKey(initial), 0);
        queue.push_back(0);

        Closure closure;

        // Sticky-accept/EOF evaluation for one side at a gap.
        auto sideEofAccept = [&](const SideState &side,
                                 const std::vector<Prog> &progs,
                                 std::uint8_t prev) {
            if (side.accepted)
                return true;
            for (std::size_t p = 0; p < progs.size(); ++p) {
                closure.run(progs[p], side.kernels[p], prev, -1);
                if (closure.accept)
                    return true;
            }
            return false;
        };

        // Advance one side over `byte`; returns the successor.
        auto stepSide = [&](const SideState &side,
                            const std::vector<Prog> &progs,
                            std::uint8_t prev, unsigned char byte) {
            SideState next;
            if (side.accepted) {
                next.accepted = true;
                return next;
            }
            next.kernels.reserve(progs.size());
            bool accepted = false;
            for (std::size_t p = 0; p < progs.size(); ++p) {
                closure.run(progs[p], side.kernels[p], prev,
                            static_cast<int>(byte));
                accepted = accepted || closure.accept;
                next.kernels.push_back(
                    stepKernel(progs[p], closure.consuming, byte));
            }
            if (accepted) {
                // Absorbing: the flag carries all the information.
                next.kernels.clear();
                next.accepted = true;
            }
            return next;
        };

        while (!queue.empty()) {
            std::int32_t id = queue.front();
            queue.pop_front();

            // Does the string ending here refute the property?
            {
                const ProductState &state =
                    states[static_cast<std::size_t>(id)];
                bool finalA = sideEofAccept(state.a, progsA,
                                            state.prevClass);
                bool finalB = sideEofAccept(state.b, progsB,
                                            state.prevClass);
                if (goal.target(finalA, finalB)) {
                    result.status = AutomataResult::Status::Fails;
                    result.witness = reconstruct(states, id);
                    result.statesExplored = states.size();
                    return result;
                }
            }

            for (unsigned char byte : reps) {
                // states may reallocate while interning successors;
                // take a copy of the expansion source.
                ProductState state =
                    states[static_cast<std::size_t>(id)];
                ProductState next;
                next.a = stepSide(state.a, progsA, state.prevClass,
                                  byte);
                next.b = stepSide(state.b, progsB, state.prevClass,
                                  byte);
                next.prevClass = prevClassOf(byte);
                next.parent = id;
                next.byte = byte;
                if (goal.prune(next.a.accepted, next.b.accepted))
                    continue;
                std::vector<std::int32_t> key = stateKey(next);
                if (index.count(key))
                    continue;
                if (states.size() >= stateBudget) {
                    result.status = AutomataResult::Status::Budget;
                    result.statesExplored = states.size();
                    return result;
                }
                std::int32_t nid =
                    static_cast<std::int32_t>(states.size());
                states.push_back(std::move(next));
                index.emplace(std::move(key), nid);
                queue.push_back(nid);
            }
        }

        result.status = AutomataResult::Status::Holds;
        result.statesExplored = states.size();
        return result;
    }

  private:
    static std::string
    reconstruct(const std::vector<ProductState> &states,
                std::int32_t id)
    {
        std::string witness;
        while (id > 0) {
            const ProductState &state =
                states[static_cast<std::size_t>(id)];
            witness.push_back(static_cast<char>(state.byte));
            id = state.parent;
        }
        std::reverse(witness.begin(), witness.end());
        return witness;
    }
};

} // namespace

AutomataResult
RegexAutomata::includes(const Regex &inner, const Regex &outer,
                        const AutomataOptions &options)
{
    return includedInUnion(inner, {&outer}, options);
}

AutomataResult
RegexAutomata::includedInUnion(const Regex &inner,
                               const std::vector<const Regex *> &outer,
                               const AutomataOptions &options)
{
    Search search;
    search.stateBudget = options.stateBudget;
    search.progsA = {inner.program()};
    for (const Regex *regex : outer)
        search.progsB.push_back(regex->program());
    SearchGoal goal;
    // Refuted by a word in L(A)\L(B); once B has matched, no
    // extension can ever leave L(B) again.
    goal.target = [](bool a, bool b) { return a && !b; };
    goal.prune = [](bool, bool b) { return b; };
    return search.run(goal);
}

AutomataResult
RegexAutomata::equivalent(const Regex &a, const Regex &b,
                          const AutomataOptions &options)
{
    Search search;
    search.stateBudget = options.stateBudget;
    search.progsA = {a.program()};
    search.progsB = {b.program()};
    SearchGoal goal;
    goal.target = [](bool fa, bool fb) { return fa != fb; };
    // Both sticky-accepted: every extension is in both languages.
    goal.prune = [](bool sa, bool sb) { return sa && sb; };
    return search.run(goal);
}

AutomataResult
RegexAutomata::intersectionEmpty(const Regex &a, const Regex &b,
                                 const AutomataOptions &options)
{
    Search search;
    search.stateBudget = options.stateBudget;
    search.progsA = {a.program()};
    search.progsB = {b.program()};
    SearchGoal goal;
    goal.target = [](bool fa, bool fb) { return fa && fb; };
    goal.prune = [](bool, bool) { return false; };
    return search.run(goal);
}

std::optional<std::string>
RegexAutomata::shortestAcceptedWord(const Regex &regex,
                                    const AutomataOptions &options)
{
    Search search;
    search.stateBudget = options.stateBudget;
    search.progsA = {regex.program()};
    SearchGoal goal;
    // "Refutation" here is simply acceptance: the BFS returns the
    // shortest accepted word as the witness.
    goal.target = [](bool a, bool) { return a; };
    goal.prune = [](bool, bool) { return false; };
    AutomataResult result = search.run(goal);
    if (!result.fails())
        return std::nullopt;
    return result.witness;
}

std::string
escapeWitness(const std::string &witness)
{
    std::string out;
    out.reserve(witness.size());
    for (unsigned char c : witness) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(static_cast<char>(c));
        } else if (c >= 32 && c <= 126) {
            out.push_back(static_cast<char>(c));
        } else {
            char hex[8];
            std::snprintf(hex, sizeof(hex), "\\x%02x", c);
            out += hex;
        }
    }
    return out;
}

} // namespace rememberr
