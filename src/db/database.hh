/**
 * @file
 * The RemembERR annotated database.
 *
 * Combines the parsed documents, the dedup keying and the four-eyes
 * annotations into the queryable structure the paper releases: one
 * entry per unique erratum, each carrying its occurrences across
 * documents, annotations on all three axes and its metadata.
 */

#ifndef REMEMBERR_DB_DATABASE_HH
#define REMEMBERR_DB_DATABASE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "classify/foureyes.hh"
#include "corpus/corpus.hh"
#include "dedup/dedup.hh"
#include "model/erratum.hh"
#include "taxonomy/taxonomy.hh"
#include "util/json.hh"

namespace rememberr {

/** One occurrence of a unique erratum in a document. */
struct Occurrence
{
    int docIndex = 0;
    std::string localId;
    /** Disclosure date approximated per the Section IV-B1 rules. */
    Date disclosed;

    bool operator==(const Occurrence &) const = default;
};

/** One unique erratum with its annotations. */
struct DbEntry
{
    std::uint32_t key = 0;
    Vendor vendor = Vendor::Intel;
    std::string title;
    std::string description;
    std::string implications;
    std::string workaroundText;
    WorkaroundClass workaroundClass = WorkaroundClass::None;
    FixStatus status = FixStatus::NoFix;
    CategorySet triggers;
    CategorySet contexts;
    CategorySet effects;
    std::vector<MsrRef> msrs;
    std::vector<Occurrence> occurrences;
    bool complexConditions = false;
    bool simulationOnly = false;
    /**
     * Root-cause note (Section VII): absent from vendor errata —
     * "one CPU vendor confirmed that triggers and effects are
     * intentionally left inaccurate to avoid revealing design
     * details" — but the proposed Table VII format reserves a slot
     * for it so internally-maintained databases can fill it in.
     */
    std::string rootCause;

    /** Earliest disclosure across occurrences. */
    Date firstDisclosed() const;

    bool operator==(const DbEntry &) const = default;
};

/** The queryable annotated database. */
class Database
{
  public:
    /**
     * Build from pipeline outputs: documents define occurrences and
     * dates, the dedup result defines unique keys and the four-eyes
     * annotations (indexed by the corpus bug keys) define the labels.
     * Cluster-to-bug alignment uses the corpus ground-truth map, i.e.
     * a cluster inherits the annotation of the bug its first row
     * belongs to.
     */
    static Database build(const Corpus &corpus,
                          const DedupResult &dedup,
                          const FourEyesResult &annotations);

    /** Oracle build: keys and labels straight from ground truth. */
    static Database buildFromGroundTruth(const Corpus &corpus);

    /**
     * Reassemble from previously built parts (snapshot
     * deserialization). Occurrence docIndex values must be within
     * the document vector; panics otherwise.
     */
    static Database restore(std::vector<DbEntry> entries,
                            std::vector<ErrataDocument> documents);

    const std::vector<DbEntry> &entries() const { return entries_; }
    const std::vector<ErrataDocument> &documents() const
    {
        return documents_;
    }

    /** Number of documents the entries' occurrence indices refer to. */
    std::size_t documentCount() const { return documents_.size(); }

    std::size_t uniqueCount(Vendor vendor) const;
    std::size_t rowCount(Vendor vendor) const;

    /** Serialize the entries (not the raw documents). */
    JsonValue toJson() const;

    /** Export entries as CSV (one row per unique erratum). */
    std::string toCsv() const;

    bool operator==(const Database &) const = default;

  private:
    std::vector<DbEntry> entries_;
    std::vector<ErrataDocument> documents_;
};

/** Detect the "complex set of conditions" phrasing (Section V-B). */
bool mentionsComplexConditions(const std::string &description);

/** Detect the simulation-only phrasing. */
bool mentionsSimulationOnly(const std::string &description);

} // namespace rememberr

#endif // REMEMBERR_DB_DATABASE_HH
