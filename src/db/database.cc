#include "database.hh"

#include <algorithm>
#include <map>

#include "text/regex.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rememberr {

Date
DbEntry::firstDisclosed() const
{
    if (occurrences.empty())
        REMEMBERR_PANIC("DbEntry::firstDisclosed: no occurrences");
    Date first = occurrences.front().disclosed;
    for (const Occurrence &occurrence : occurrences)
        first = std::min(first, occurrence.disclosed);
    return first;
}

bool
mentionsComplexConditions(const std::string &description)
{
    static const Regex pattern = Regex::compileOrDie(
        R"(complex set of conditions|highly specific and detailed set)",
        {.ignoreCase = true});
    return pattern.contains(description);
}

bool
mentionsSimulationOnly(const std::string &description)
{
    static const Regex pattern = Regex::compileOrDie(
        R"(observed in simulation)", {.ignoreCase = true});
    return pattern.contains(description);
}

namespace {

/** Fill an entry's text/meta fields from its first occurrence row. */
void
fillFromRow(DbEntry &entry, const ErrataDocument &doc,
            const Erratum &erratum)
{
    entry.vendor = doc.design.vendor;
    entry.title = erratum.title;
    entry.description = erratum.description;
    entry.implications = erratum.implications;
    entry.workaroundText = erratum.workaroundText;
    entry.workaroundClass = erratum.workaroundClass;
    entry.status = erratum.status;
    entry.msrs = erratum.msrs;
    entry.complexConditions =
        mentionsComplexConditions(erratum.description);
    entry.simulationOnly =
        mentionsSimulationOnly(erratum.description);
}

} // namespace

Database
Database::build(const Corpus &corpus, const DedupResult &dedup,
                const FourEyesResult &annotations)
{
    Database db;
    db.documents_ = corpus.documents;

    for (std::size_t key = 0; key < dedup.clusters.size(); ++key) {
        const auto &cluster = dedup.clusters[key];
        if (cluster.empty())
            continue;
        DbEntry entry;
        entry.key = static_cast<std::uint32_t>(key);

        for (const ErratumRef &ref : cluster) {
            const ErrataDocument &doc =
                db.documents_[static_cast<std::size_t>(ref.docIndex)];
            const Erratum &erratum = doc.errata[ref.position];
            Occurrence occurrence;
            occurrence.docIndex = ref.docIndex;
            occurrence.localId = erratum.localId;
            occurrence.disclosed =
                doc.approximateDisclosureDate(erratum.localId);
            entry.occurrences.push_back(std::move(occurrence));
        }
        std::sort(entry.occurrences.begin(), entry.occurrences.end(),
                  [](const Occurrence &a, const Occurrence &b) {
                      if (a.disclosed != b.disclosed)
                          return a.disclosed < b.disclosed;
                      return a.docIndex < b.docIndex;
                  });

        const ErratumRef &first = cluster.front();
        const ErrataDocument &doc =
            db.documents_[static_cast<std::size_t>(first.docIndex)];
        fillFromRow(entry, doc, doc.errata[first.position]);

        // Annotations come from the four-eyes result via the bug the
        // first row belongs to.
        auto bugIt = corpus.rowToBug.find(
            {first.docIndex, static_cast<int>(first.position)});
        if (bugIt != corpus.rowToBug.end() &&
            bugIt->second < annotations.annotations.size()) {
            const AnnotatedBug &annotated =
                annotations.annotations[bugIt->second];
            entry.triggers = annotated.triggers;
            entry.contexts = annotated.contexts;
            entry.effects = annotated.effects;
        }
        db.entries_.push_back(std::move(entry));
    }
    return db;
}

Database
Database::buildFromGroundTruth(const Corpus &corpus)
{
    Database db;
    db.documents_ = corpus.documents;

    // Group rows per bug key.
    std::map<std::uint32_t, std::vector<std::pair<int, std::string>>>
        rowsByBug;
    for (const auto &[row, bug] : corpus.rowToBug) {
        const ErrataDocument &doc =
            corpus.documents[static_cast<std::size_t>(row.first)];
        rowsByBug[bug].push_back(
            {row.first,
             doc.errata[static_cast<std::size_t>(row.second)]
                 .localId});
    }

    for (const BugSpec &bug : corpus.bugs) {
        DbEntry entry;
        entry.key = bug.bugKey;
        entry.vendor = bug.vendor;
        entry.title = bug.title;
        entry.description = bug.description;
        entry.implications = bug.implications;
        entry.workaroundText = bug.workaroundText;
        entry.workaroundClass = bug.workaroundClass;
        entry.status = bug.fixStatus;
        entry.triggers = bug.triggers;
        entry.contexts = bug.contexts;
        entry.effects = bug.effects;
        entry.msrs = bug.msrs;
        entry.complexConditions = bug.complexConditions;
        entry.simulationOnly = bug.simulationOnly;

        auto it = rowsByBug.find(bug.bugKey);
        if (it != rowsByBug.end()) {
            for (const auto &[docIndex, localId] : it->second) {
                const ErrataDocument &doc =
                    db.documents_[static_cast<std::size_t>(docIndex)];
                Occurrence occurrence;
                occurrence.docIndex = docIndex;
                occurrence.localId = localId;
                occurrence.disclosed =
                    doc.approximateDisclosureDate(localId);
                entry.occurrences.push_back(std::move(occurrence));
            }
            std::sort(entry.occurrences.begin(),
                      entry.occurrences.end(),
                      [](const Occurrence &a, const Occurrence &b) {
                          if (a.disclosed != b.disclosed)
                              return a.disclosed < b.disclosed;
                          return a.docIndex < b.docIndex;
                      });
        }
        db.entries_.push_back(std::move(entry));
    }
    return db;
}

Database
Database::restore(std::vector<DbEntry> entries,
                  std::vector<ErrataDocument> documents)
{
    Database db;
    db.entries_ = std::move(entries);
    db.documents_ = std::move(documents);
    for (const DbEntry &entry : db.entries_) {
        for (const Occurrence &occurrence : entry.occurrences) {
            if (occurrence.docIndex < 0 ||
                static_cast<std::size_t>(occurrence.docIndex) >=
                    db.documents_.size()) {
                REMEMBERR_PANIC("Database::restore: entry ",
                                entry.key, " occurrence points at ",
                                "document ", occurrence.docIndex,
                                " of ", db.documents_.size());
            }
        }
    }
    return db;
}

std::size_t
Database::uniqueCount(Vendor vendor) const
{
    std::size_t count = 0;
    for (const DbEntry &entry : entries_) {
        if (entry.vendor == vendor)
            ++count;
    }
    return count;
}

std::size_t
Database::rowCount(Vendor vendor) const
{
    std::size_t count = 0;
    for (const DbEntry &entry : entries_) {
        if (entry.vendor == vendor)
            count += entry.occurrences.size();
    }
    return count;
}

namespace {

JsonValue
categorySetToJson(const CategorySet &set)
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    JsonValue out = JsonValue::makeArray();
    for (CategoryId id : set.toVector())
        out.append(taxonomy.categoryById(id).code);
    return out;
}

} // namespace

JsonValue
Database::toJson() const
{
    JsonValue entries = JsonValue::makeArray();
    for (const DbEntry &entry : entries_) {
        JsonValue item = JsonValue::makeObject();
        item["key"] = JsonValue(static_cast<std::int64_t>(entry.key));
        item["vendor"] = std::string(vendorName(entry.vendor));
        item["title"] = entry.title;
        item["description"] = entry.description;
        item["implications"] = entry.implications;
        item["workaround"] = entry.workaroundText;
        item["workaroundClass"] =
            std::string(workaroundClassName(entry.workaroundClass));
        item["status"] = std::string(fixStatusName(entry.status));
        item["triggers"] = categorySetToJson(entry.triggers);
        item["contexts"] = categorySetToJson(entry.contexts);
        item["effects"] = categorySetToJson(entry.effects);
        item["complexConditions"] = entry.complexConditions;
        item["simulationOnly"] = entry.simulationOnly;
        if (!entry.rootCause.empty())
            item["rootCause"] = entry.rootCause;

        JsonValue msrs = JsonValue::makeArray();
        for (const MsrRef &msr : entry.msrs) {
            JsonValue ref = JsonValue::makeObject();
            ref["name"] = msr.name;
            ref["number"] =
                JsonValue(static_cast<std::int64_t>(msr.number));
            msrs.append(std::move(ref));
        }
        item["msrs"] = std::move(msrs);

        JsonValue occurrences = JsonValue::makeArray();
        for (const Occurrence &occurrence : entry.occurrences) {
            JsonValue ref = JsonValue::makeObject();
            ref["doc"] = JsonValue(
                static_cast<std::int64_t>(occurrence.docIndex));
            ref["id"] = occurrence.localId;
            ref["disclosed"] = occurrence.disclosed.toString();
            occurrences.append(std::move(ref));
        }
        item["occurrences"] = std::move(occurrences);
        entries.append(std::move(item));
    }

    JsonValue root = JsonValue::makeObject();
    root["format"] = "rememberr-db";
    root["version"] = 1;
    root["documentCount"] =
        JsonValue(static_cast<std::int64_t>(documents_.size()));
    root["entries"] = std::move(entries);
    return root;
}

std::string
Database::toCsv() const
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    CsvWriter writer;
    writer.setHeader({"key", "vendor", "title", "workaround_class",
                      "status", "triggers", "contexts", "effects",
                      "msrs", "occurrences", "first_disclosed"});
    for (const DbEntry &entry : entries_) {
        auto codes = [&](const CategorySet &set) {
            std::vector<std::string> out;
            for (CategoryId id : set.toVector())
                out.push_back(taxonomy.categoryById(id).code);
            return strings::join(out, ";");
        };
        std::vector<std::string> msrNames;
        for (const MsrRef &msr : entry.msrs)
            msrNames.push_back(msr.name);
        writer.addRow({
            std::to_string(entry.key),
            std::string(vendorName(entry.vendor)),
            entry.title,
            std::string(workaroundClassName(entry.workaroundClass)),
            std::string(fixStatusName(entry.status)),
            codes(entry.triggers),
            codes(entry.contexts),
            codes(entry.effects),
            strings::join(msrNames, ";"),
            std::to_string(entry.occurrences.size()),
            entry.occurrences.empty()
                ? ""
                : entry.firstDisclosed().toString(),
        });
    }
    return writer.toString();
}

} // namespace rememberr
