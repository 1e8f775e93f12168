#include "text/regex_linear.hh"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hh"

namespace rememberr {

namespace {

using redetail::Inst;
using redetail::instConsumes;
using redetail::isWordChar;
using redetail::Op;

/**
 * Default per-DFA state cap. Rule-table patterns compile to a
 * handful of states; 256 is far above anything the corpus produces
 * while still bounding memory at states × byte-classes × 4 bytes.
 */
constexpr std::size_t kDefaultMaxDfaStates = 256;
/** Flushes tolerated per scan before falling back to the NFA. */
constexpr std::size_t kMaxFlushesPerScan = 2;

std::atomic<std::size_t> g_maxDfaStates{kDefaultMaxDfaStates};

std::size_t
maxDfaStates()
{
    std::size_t cap = g_maxDfaStates.load(std::memory_order_relaxed);
    // A one-state cache cannot hold even a start state plus a
    // successor; keep the flush machinery well-defined.
    return cap < 2 ? 2 : cap;
}

/**
 * Context classes for the byte on the left of a gap. Begin-of-input
 * and '\n' are the same context: both satisfy Bol and neither is a
 * word character.
 */
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

std::uint8_t
prevClassAt(std::string_view subject, std::size_t gap)
{
    if (gap == 0)
        return kPrevBolOk;
    return prevClassOf(static_cast<unsigned char>(subject[gap - 1]));
}

/** The slices of a compiled Regex the engines read. */
using Prog = redetail::ProgramView;

/**
 * Epsilon closure at a gap. Zero-width assertions are decided from
 * the (prevClass, nextByte) context — the reason DFA transitions are
 * keyed by byte class and states carry prevClass. Collects the
 * consuming pcs reachable without consuming input and whether Accept
 * is reachable. The visited map makes closure terminate on
 * empty-body loops like (?:a*)* that would hang a naive walker.
 */
struct Closure
{
    std::vector<std::int32_t> consuming;
    bool accept = false;

    void
    run(const Prog &prog, const std::vector<std::int32_t> &kernel,
        bool inject_start, std::uint8_t prev_class, int next_byte)
    {
        consuming.clear();
        accept = false;
        visited_.assign(prog.insts->size(), 0);
        for (std::int32_t pc : kernel)
            add(prog, pc, prev_class, next_byte);
        if (inject_start)
            add(prog, 0, prev_class, next_byte);
    }

  private:
    void
    add(const Prog &prog, std::int32_t pc, std::uint8_t prev_class,
        int next_byte)
    {
        if (visited_[static_cast<std::size_t>(pc)])
            return;
        visited_[static_cast<std::size_t>(pc)] = 1;
        const Inst &inst = (*prog.insts)[static_cast<std::size_t>(pc)];
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

/** Advance the closure's consuming set over one byte: the next
 * kernel, canonically sorted so state identity is well-defined. */
std::vector<std::int32_t>
stepKernel(const Prog &prog, const std::vector<std::int32_t> &consuming,
           unsigned char byte)
{
    std::vector<std::int32_t> next;
    next.reserve(consuming.size());
    for (std::int32_t pc : consuming) {
        const Inst &inst = (*prog.insts)[static_cast<std::size_t>(pc)];
        if (instConsumes(inst, *prog.classes, prog.ignoreCase, byte))
            next.push_back(pc + 1);
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    return next;
}

/**
 * Uncached NFA decision scan — the fallback when a cache is absent
 * or keeps overflowing, and the semantic reference the DFA memoizes.
 * O(subject × program), never exponential.
 */
bool
nfaDecide(const Prog &prog, std::string_view subject, std::size_t from,
          bool anchored)
{
    Closure closure;
    std::vector<std::int32_t> kernel;
    if (anchored)
        kernel.push_back(0);
    std::uint8_t prev = prevClassAt(subject, from);
    for (std::size_t p = from;; ++p) {
        int nextByte =
            p < subject.size()
                ? static_cast<int>(
                      static_cast<unsigned char>(subject[p]))
                : -1;
        closure.run(prog, kernel, !anchored, prev, nextByte);
        // An anchored (fullMatch) accept only counts at end of
        // input; mid-subject Accept is just a prefix match.
        if (closure.accept && (!anchored || p == subject.size()))
            return true;
        if (p == subject.size())
            return false;
        kernel = stepKernel(prog, closure.consuming,
                            static_cast<unsigned char>(nextByte));
        if (anchored && kernel.empty())
            return false;
        prev = prevClassOf(static_cast<unsigned char>(nextByte));
    }
}

/**
 * Partition bytes into equivalence classes: two bytes that every
 * consuming instruction treats alike, with the same word-char and
 * newline behavior, always drive identical transitions, so DFA
 * transition tables need one slot per class instead of 256.
 */
void
buildByteClasses(const Prog &prog, RegexLinearCache &cache)
{
    std::map<std::vector<std::uint8_t>, std::uint16_t> sigIndex;
    for (int b = 0; b < 256; ++b) {
        unsigned char byte = static_cast<unsigned char>(b);
        std::vector<std::uint8_t> sig;
        sig.reserve(prog.insts->size() + 2);
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
        sig.push_back(
            isWordChar(static_cast<char>(byte)) ? 1 : 0);
        sig.push_back(byte == '\n' ? 1 : 0);
        auto [it, inserted] = sigIndex.try_emplace(
            std::move(sig),
            static_cast<std::uint16_t>(sigIndex.size()));
        cache.byteClass[static_cast<std::size_t>(b)] = it->second;
    }
    cache.numClasses = static_cast<std::uint16_t>(sigIndex.size());
}

using Dfa = RegexLinearCache::Dfa;

/** Find-or-create the state for (kernel, prevClass). */
std::int32_t
internState(Dfa &dfa, std::vector<std::int32_t> kernel,
            std::uint8_t prev_class, std::uint16_t num_classes)
{
    auto key = std::make_pair(std::move(kernel), prev_class);
    auto it = dfa.index.find(key);
    if (it != dfa.index.end())
        return it->second;
    std::int32_t id = static_cast<std::int32_t>(dfa.states.size());
    Dfa::State state;
    state.kernel = key.first;
    state.prevClass = prev_class;
    state.dead = state.kernel.empty();
    state.trans.assign(num_classes, -1);
    dfa.states.push_back(std::move(state));
    dfa.index.emplace(std::move(key), id);
    return id;
}

/** Compute and cache one transition. Unique lock must be held. */
std::int32_t
buildTransition(const Prog &prog, RegexLinearCache &cache, Dfa &dfa,
                bool anchored, std::int32_t state_id,
                unsigned char byte, Closure &closure)
{
    // Copy the kernel: interning the successor may reallocate states.
    std::vector<std::int32_t> kernel =
        dfa.states[static_cast<std::size_t>(state_id)].kernel;
    std::uint8_t prev =
        dfa.states[static_cast<std::size_t>(state_id)].prevClass;
    closure.run(prog, kernel, !anchored, prev,
                static_cast<int>(byte));
    bool matchedHere = closure.accept;
    std::vector<std::int32_t> next =
        stepKernel(prog, closure.consuming, byte);
    std::int32_t nextId = internState(dfa, std::move(next),
                                      prevClassOf(byte),
                                      cache.numClasses);
    std::int32_t value = (nextId << 1) | (matchedHere ? 1 : 0);
    dfa.states[static_cast<std::size_t>(state_id)]
        .trans[cache.byteClass[byte]] = value;
    return value;
}

/**
 * Read-only scan over cached states. Returns 0/1 for a decided
 * scan, -1 on the first unexplored transition (caller upgrades to
 * the building scan). Shared lock must be held.
 */
int
scanCached(const RegexLinearCache &cache, const Dfa &dfa,
           bool anchored, std::string_view subject, std::size_t from)
{
    std::vector<std::int32_t> startKernel;
    if (anchored)
        startKernel.push_back(0);
    auto it = dfa.index.find(
        std::make_pair(std::move(startKernel),
                       prevClassAt(subject, from)));
    if (it == dfa.index.end())
        return -1;
    std::int32_t state = it->second;
    for (std::size_t p = from; p < subject.size(); ++p) {
        const Dfa::State &st =
            dfa.states[static_cast<std::size_t>(state)];
        if (anchored && st.dead)
            return 0;
        std::int32_t t = st.trans[cache.byteClass[
            static_cast<unsigned char>(subject[p])]];
        if (t < 0)
            return -1;
        if (!anchored && (t & 1))
            return 1;
        state = t >> 1;
    }
    const Dfa::State &st =
        dfa.states[static_cast<std::size_t>(state)];
    if (anchored && st.dead)
        return 0;
    if (st.acceptAtEof < 0)
        return -1;
    return st.acceptAtEof;
}

/**
 * Scan that builds missing states as it goes. Flushes the cache and
 * restarts when the state cap is hit; after kMaxFlushesPerScan
 * flushes the subject clearly needs more states than the cache may
 * hold, and the scan completes on the uncached NFA instead. Unique
 * lock must be held.
 */
int
scanBuild(const Prog &prog, RegexLinearCache &cache, Dfa &dfa,
          bool anchored, std::string_view subject, std::size_t from)
{
    Closure closure;
    std::size_t flushes = 0;
    for (;;) {
        std::vector<std::int32_t> startKernel;
        if (anchored)
            startKernel.push_back(0);
        std::int32_t state =
            internState(dfa, std::move(startKernel),
                        prevClassAt(subject, from), cache.numClasses);
        bool flushed = false;
        for (std::size_t p = from; p < subject.size(); ++p) {
            if (anchored &&
                dfa.states[static_cast<std::size_t>(state)].dead) {
                return 0;
            }
            unsigned char byte =
                static_cast<unsigned char>(subject[p]);
            std::int32_t t =
                dfa.states[static_cast<std::size_t>(state)]
                    .trans[cache.byteClass[byte]];
            if (t < 0) {
                if (dfa.states.size() >= maxDfaStates()) {
                    dfa.states.clear();
                    dfa.index.clear();
                    MetricsRegistry::global()
                        .counter("text.regex.dfa_flush")
                        .add();
                    if (++flushes > kMaxFlushesPerScan) {
                        MetricsRegistry::global()
                            .counter("text.regex.dfa_fallback")
                            .add();
                        return nfaDecide(prog, subject, from,
                                         anchored)
                                   ? 1
                                   : 0;
                    }
                    flushed = true;
                    break;
                }
                t = buildTransition(prog, cache, dfa, anchored,
                                    state, byte, closure);
            }
            if (!anchored && (t & 1))
                return 1;
            state = t >> 1;
        }
        if (flushed)
            continue;
        Dfa::State &st =
            dfa.states[static_cast<std::size_t>(state)];
        if (anchored && st.dead)
            return 0;
        if (st.acceptAtEof < 0) {
            closure.run(prog, st.kernel, !anchored, st.prevClass, -1);
            st.acceptAtEof = closure.accept ? 1 : 0;
        }
        return st.acceptAtEof;
    }
}

/** DFA decision with the shared-cache protocol described in the
 * header; falls back to the uncached NFA when no cache exists. */
bool
decideWithCache(const Prog &prog, RegexLinearCache *cache,
                bool anchored, std::string_view subject,
                std::size_t from)
{
    if (from > subject.size())
        return false;
    if (!cache)
        return nfaDecide(prog, subject, from, anchored);
    std::call_once(cache->once,
                   [&] { buildByteClasses(prog, *cache); });
    Dfa &dfa = anchored ? cache->anchored : cache->unanchored;
    {
        std::shared_lock<std::shared_mutex> lock(cache->mutex);
        int r = scanCached(*cache, dfa, anchored, subject, from);
        if (r >= 0)
            return r == 1;
    }
    std::unique_lock<std::shared_mutex> lock(cache->mutex);
    return scanBuild(prog, *cache, dfa, anchored, subject, from) == 1;
}

/**
 * Pike NFA simulation: leftmost-first span search, the span a
 * backtracking matcher returns (the test-only backtracking oracle
 * checks this).
 *
 * Threads carry (pc, start) and live in priority order: earlier
 * start first, then backtracking DFS order (Split arg1 before arg2)
 * within a start. When a thread reaches Accept, every lower-priority
 * thread is cut and the match is recorded; surviving higher-priority
 * threads keep running and overwrite the record if they accept later
 * — exactly the path a backtracking matcher would have committed to
 * first. New start threads are seeded at each gap only until a match
 * is recorded.
 */
std::optional<RegexMatch>
pikeSearch(const Prog &prog, std::string_view subject,
           std::size_t from)
{
    struct Thread
    {
        std::int32_t pc;
        std::size_t start;
    };

    const std::size_t n = subject.size();
    if (from > n)
        return std::nullopt;

    std::vector<Thread> clist, nlist;
    std::vector<std::uint32_t> visited(prog.insts->size(), 0);
    std::uint32_t gen = 0;

    bool matched = false;
    std::size_t mStart = 0;
    std::size_t mEnd = 0;
    std::size_t curGap = from;

    // Epsilon-closure insertion in DFS (priority) order. Returns
    // true when Accept was reached: the caller must cut all
    // lower-priority work at this gap.
    auto add = [&](auto &&self, std::vector<Thread> &list,
                   std::int32_t pc, std::size_t start,
                   std::uint8_t prev, int nextByte) -> bool {
        if (visited[static_cast<std::size_t>(pc)] == gen)
            return false;
        visited[static_cast<std::size_t>(pc)] = gen;
        const Inst &inst = (*prog.insts)[static_cast<std::size_t>(pc)];
        switch (inst.op) {
          case Op::Char:
          case Op::Any:
          case Op::Class:
            list.push_back({pc, start});
            return false;
          case Op::Split:
            if (self(self, list, inst.arg1, start, prev, nextByte))
                return true;
            return self(self, list, inst.arg2, start, prev,
                        nextByte);
          case Op::Jump:
            return self(self, list, inst.arg1, start, prev,
                        nextByte);
          case Op::Save:
            return self(self, list, pc + 1, start, prev, nextByte);
          case Op::Bol:
            if (prev == kPrevBolOk)
                return self(self, list, pc + 1, start, prev,
                            nextByte);
            return false;
          case Op::Eol:
            if (nextByte < 0 || nextByte == '\n')
                return self(self, list, pc + 1, start, prev,
                            nextByte);
            return false;
          case Op::WordB:
          case Op::NotWordB: {
            bool before = prev == kPrevWord;
            bool after = nextByte >= 0 &&
                         isWordChar(static_cast<char>(nextByte));
            bool boundary = before != after;
            if ((inst.op == Op::WordB) == boundary)
                return self(self, list, pc + 1, start, prev,
                            nextByte);
            return false;
          }
          case Op::Accept:
            matched = true;
            mStart = start;
            mEnd = curGap;
            return true;
        }
        return false;
    };

    ++gen;
    for (std::size_t p = from;; ++p) {
        curGap = p;
        int hereByte =
            p < n ? static_cast<int>(
                        static_cast<unsigned char>(subject[p]))
                  : -1;
        std::uint8_t prevP = prevClassAt(subject, p);
        // Seed a fresh, lowest-priority attempt at this gap; once a
        // match is recorded, later starts can never beat it.
        if (!matched)
            add(add, clist, 0, p, prevP, hereByte);
        if (p == n)
            break;
        if (clist.empty() && matched)
            break;
        unsigned char byte = static_cast<unsigned char>(subject[p]);
        // Step every surviving thread over the byte; closures for
        // the next gap see (this byte, the byte after it).
        nlist.clear();
        ++gen;
        std::uint8_t nextPrev = prevClassOf(byte);
        int nextByte =
            p + 1 < n ? static_cast<int>(
                            static_cast<unsigned char>(subject[p + 1]))
                      : -1;
        curGap = p + 1;
        for (const Thread &t : clist) {
            const Inst &inst =
                (*prog.insts)[static_cast<std::size_t>(t.pc)];
            if (!instConsumes(inst, *prog.classes, prog.ignoreCase,
                              byte)) {
                continue;
            }
            if (add(add, nlist, t.pc + 1, t.start, nextPrev,
                    nextByte)) {
                break;
            }
        }
        clist.swap(nlist);
    }

    if (!matched)
        return std::nullopt;
    RegexMatch match;
    match.begin = mStart;
    match.end = mEnd;
    return match;
}

} // namespace

bool
RegexLinear::contains(const Regex &regex, std::string_view subject,
                      std::size_t from)
{
    const Prog prog = regex.program();
    return decideWithCache(prog, regex.linear_.get(), false, subject,
                           from);
}

bool
RegexLinear::fullMatch(const Regex &regex, std::string_view subject)
{
    const Prog prog = regex.program();
    return decideWithCache(prog, regex.linear_.get(), true, subject,
                           0);
}

std::optional<RegexMatch>
RegexLinear::searchSpan(const Regex &regex, std::string_view subject,
                        std::size_t from)
{
    const Prog prog = regex.program();
    // The DFA decides "no match anywhere" in O(1)/byte; only
    // subjects that do match pay for the span-tracking simulation.
    if (!decideWithCache(prog, regex.linear_.get(), false, subject,
                         from)) {
        return std::nullopt;
    }
    return pikeSearch(prog, subject, from);
}

void
RegexLinear::setMaxDfaStatesForTest(std::size_t cap)
{
    g_maxDfaStates.store(cap == 0 ? kDefaultMaxDfaStates : cap,
                         std::memory_order_relaxed);
}

} // namespace rememberr
