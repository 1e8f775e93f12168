#include "format.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"
#include "util/strings.hh"

namespace rememberr {

namespace {

constexpr std::size_t wrapColumn = 72;
constexpr const char *continuationIndent = "  ";

/** Emit "Key: value" with wrapped continuation lines. */
void
emitField(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += ": ";
    std::size_t firstWidth =
        wrapColumn > std::string(key).size() + 2
            ? wrapColumn - std::string(key).size() - 2
            : 40;
    auto lines = strings::wrap(value, firstWidth);
    // Re-wrap the remainder at the continuation width.
    if (lines.size() > 1) {
        std::string rest;
        for (std::size_t i = 1; i < lines.size(); ++i) {
            if (i > 1)
                rest += ' ';
            rest += lines[i];
        }
        lines.resize(1);
        for (auto &line : strings::wrap(rest, wrapColumn - 2))
            lines.push_back(line);
    }
    out += lines[0];
    out += '\n';
    for (std::size_t i = 1; i < lines.size(); ++i) {
        out += continuationIndent;
        out += lines[i];
        out += '\n';
    }
}

std::string
renderVariant(DesignVariant variant)
{
    return std::string(variantName(variant));
}

} // namespace

std::string
statusText(FixStatus status)
{
    switch (status) {
      case FixStatus::NoFix:
        return "No fix planned.";
      case FixStatus::Planned:
        return "A fix is planned for a future stepping.";
      case FixStatus::Fixed:
        return "Fixed. For the steppings affected, refer to the "
               "Summary Table of Changes.";
    }
    REMEMBERR_PANIC("statusText: bad status");
}

FixStatus
classifyStatus(const std::string &text)
{
    if (strings::containsIgnoreCase(text, "no fix"))
        return FixStatus::NoFix;
    if (strings::containsIgnoreCase(text, "planned"))
        return FixStatus::Planned;
    if (strings::containsIgnoreCase(text, "fixed"))
        return FixStatus::Fixed;
    return FixStatus::NoFix;
}

WorkaroundClass
classifyWorkaround(const std::string &text)
{
    // Order matters: "Contact ... for information on a BIOS update"
    // must classify as Absent despite mentioning the BIOS.
    if (text.empty() ||
        strings::containsIgnoreCase(text, "none identified")) {
        return WorkaroundClass::None;
    }
    if (strings::containsIgnoreCase(text, "contact"))
        return WorkaroundClass::Absent;
    if (strings::containsIgnoreCase(text, "documentation"))
        return WorkaroundClass::DocumentationFix;
    if (strings::containsIgnoreCase(text, "bios"))
        return WorkaroundClass::Bios;
    if (strings::containsIgnoreCase(text, "peripheral"))
        return WorkaroundClass::Peripherals;
    if (strings::containsIgnoreCase(text, "software"))
        return WorkaroundClass::Software;
    return WorkaroundClass::Absent;
}

std::string
renderDocument(const ErrataDocument &document)
{
    std::string out;
    out += "SPECIFICATION UPDATE\n";
    emitField(out, "Vendor",
              std::string(vendorName(document.design.vendor)));
    emitField(out, "Design", document.design.name);
    emitField(out, "Reference", document.design.reference);
    emitField(out, "Generation",
              std::to_string(document.design.generation));
    emitField(out, "Variant", renderVariant(document.design.variant));
    emitField(out, "Release",
              document.design.releaseDate.toString());
    out += '\n';

    out += "== REVISION HISTORY ==\n";
    for (const Revision &revision : document.revisions) {
        emitField(out, "Revision", std::to_string(revision.number));
        emitField(out, "Date", revision.date.toString());
        emitField(out, "Note", revision.note);
        if (!revision.addedIds.empty())
            emitField(out, "Added",
                      strings::join(revision.addedIds, ", "));
        out += '\n';
    }

    out += "== ERRATA ==\n";
    for (const Erratum &erratum : document.errata) {
        emitField(out, "ID", erratum.localId);
        emitField(out, "Title", erratum.title);
        emitField(out, "Description", erratum.description);
        emitField(out, "Implications", erratum.implications);
        emitField(out, "Workaround", erratum.workaroundText);
        emitField(out, "Status", statusText(erratum.status));
        if (!erratum.msrs.empty()) {
            std::vector<std::string> parts;
            for (const MsrRef &msr : erratum.msrs) {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%s=0x%X",
                              msr.name.c_str(), msr.number);
                parts.emplace_back(buf);
            }
            emitField(out, "MSRs", strings::join(parts, ", "));
        }
        out += '\n';
    }
    if (!document.hiddenErrata.empty()) {
        out += "== HIDDEN ERRATA ==\n";
        emitField(out, "IDs",
                  strings::join(document.hiddenErrata, ", "));
        out += '\n';
    }
    out += "== END ==\n";
    return out;
}

namespace {

/** Line-oriented reader with unwrapping of continuation lines. */
class FieldReader
{
  public:
    explicit FieldReader(const std::string &text)
        : lines_(strings::splitLines(text))
    {
    }

    bool atEnd() const { return pos_ >= lines_.size(); }
    int lineNumber() const { return static_cast<int>(pos_) + 1; }

    /** Peek the current raw line. */
    const std::string &
    peekLine() const
    {
        static const std::string empty;
        return atEnd() ? empty : lines_[pos_];
    }

    void skipLine() { ++pos_; }

    void
    skipBlank()
    {
        while (!atEnd() && strings::trim(peekLine()).empty())
            ++pos_;
    }

    /**
     * Read a "Key: value" field, joining indented continuation
     * lines. Returns false when the current line is not a field.
     */
    bool
    readField(std::string &key, std::string &value)
    {
        if (atEnd())
            return false;
        const std::string &line = lines_[pos_];
        if (line.empty() || line[0] == ' ' ||
            strings::startsWith(line, "==")) {
            return false;
        }
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            return false;
        key = strings::trim(line.substr(0, colon));
        value = strings::trim(line.substr(colon + 1));
        fieldLine_ = lineNumber();
        ++pos_;
        while (!atEnd() &&
               strings::startsWith(lines_[pos_], continuationIndent)) {
            if (!value.empty())
                value += ' ';
            value += strings::trim(lines_[pos_]);
            ++pos_;
        }
        return true;
    }

    /** 1-based line of the key of the last readField() result. */
    int fieldLine() const { return fieldLine_; }

  private:
    std::vector<std::string> lines_;
    std::size_t pos_ = 0;
    int fieldLine_ = 0;
};

Expected<Date>
parseDateField(const std::string &value, int line)
{
    auto date = Date::parse(value);
    if (!date)
        return makeError(date.error().message, line);
    return date;
}

/**
 * Strictly parse a numeric field: the whole value must be one
 * integer in [minValue, maxValue]. Malformed input ("abc", "12x",
 * "", out-of-range) is a structured parse error with a line number
 * — never a silent zero, which is exactly the "errata in errata"
 * corruption class the linter exists to surface.
 */
Expected<long>
parseIntField(const char *field, const std::string &value, int line,
              long minValue, long maxValue, int base = 10)
{
    std::string trimmed = strings::trim(value);
    if (trimmed.empty()) {
        return makeError(std::string(field) +
                             ": empty numeric field",
                         line);
    }
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(trimmed.c_str(), &end, base);
    if (end != trimmed.c_str() + trimmed.size()) {
        return makeError(std::string(field) +
                             ": invalid number '" + value + "'",
                         line);
    }
    if (errno == ERANGE || parsed < minValue || parsed > maxValue) {
        return makeError(std::string(field) + ": value '" + value +
                             "' out of range [" +
                             std::to_string(minValue) + ", " +
                             std::to_string(maxValue) + "]",
                         line);
    }
    return parsed;
}

} // namespace

Expected<ErrataDocument>
parseDocument(const std::string &text)
{
    FieldReader reader(text);
    reader.skipBlank();
    if (strings::trim(reader.peekLine()) != "SPECIFICATION UPDATE")
        return makeError("missing SPECIFICATION UPDATE header",
                         reader.lineNumber());
    reader.skipLine();

    ErrataDocument document;
    bool sawVendor = false;

    // ---- Header fields ---------------------------------------------
    std::string key, value;
    while (reader.readField(key, value)) {
        if (key == "Vendor") {
            if (value == "Intel") {
                document.design.vendor = Vendor::Intel;
            } else if (value == "AMD") {
                document.design.vendor = Vendor::Amd;
            } else {
                return makeError("unknown vendor '" + value + "'",
                                 reader.fieldLine());
            }
            sawVendor = true;
        } else if (key == "Design") {
            document.design.name = value;
        } else if (key == "Reference") {
            document.design.reference = value;
        } else if (key == "Generation") {
            auto generation = parseIntField(
                "Generation", value, reader.fieldLine(), 0, 9999);
            if (!generation)
                return generation.error();
            document.design.generation =
                static_cast<int>(generation.value());
        } else if (key == "Variant") {
            if (value == "D")
                document.design.variant = DesignVariant::Desktop;
            else if (value == "M")
                document.design.variant = DesignVariant::Mobile;
            else
                document.design.variant = DesignVariant::Unified;
        } else if (key == "Release") {
            auto date = parseDateField(value, reader.fieldLine());
            if (!date)
                return date.error();
            document.design.releaseDate = date.value();
        } else {
            return makeError("unknown header field '" + key + "'",
                             reader.fieldLine());
        }
    }
    if (!sawVendor)
        return makeError("document has no Vendor field",
                         reader.lineNumber());

    reader.skipBlank();
    if (strings::trim(reader.peekLine()) != "== REVISION HISTORY ==")
        return makeError("missing REVISION HISTORY section",
                         reader.lineNumber());
    reader.skipLine();
    reader.skipBlank();

    // ---- Revision entries ------------------------------------------
    while (!reader.atEnd() &&
           !strings::startsWith(strings::trim(reader.peekLine()),
                                "==")) {
        Revision revision;
        bool any = false;
        while (reader.readField(key, value)) {
            any = true;
            if (key == "Revision") {
                auto number = parseIntField("Revision", value,
                                            reader.fieldLine(), 0,
                                            1000000);
                if (!number)
                    return number.error();
                revision.number =
                    static_cast<int>(number.value());
                revision.sourceLine = reader.fieldLine();
            } else if (key == "Date") {
                auto date = parseDateField(value,
                                           reader.fieldLine());
                if (!date)
                    return date.error();
                revision.date = date.value();
            } else if (key == "Note") {
                revision.note = value;
            } else if (key == "Added") {
                for (auto &id : strings::split(value, ',')) {
                    std::string trimmed = strings::trim(id);
                    if (!trimmed.empty())
                        revision.addedIds.push_back(trimmed);
                }
            } else {
                return makeError("unknown revision field '" + key +
                                     "'",
                                 reader.fieldLine());
            }
        }
        if (!any)
            break;
        if (revision.number == 0)
            return makeError("revision entry without a number",
                             reader.lineNumber());
        document.revisions.push_back(std::move(revision));
        reader.skipBlank();
    }

    if (strings::trim(reader.peekLine()) != "== ERRATA ==")
        return makeError("missing ERRATA section",
                         reader.lineNumber());
    reader.skipLine();
    reader.skipBlank();

    // ---- Erratum entries -------------------------------------------
    while (!reader.atEnd() &&
           !strings::startsWith(strings::trim(reader.peekLine()),
                                "==")) {
        Erratum erratum;
        bool any = false;
        bool sawId = false;
        while (reader.readField(key, value)) {
            any = true;
            erratum.fieldLines[key] = reader.fieldLine();
            if (key == "ID") {
                erratum.localId = value;
                erratum.sourceLine = reader.fieldLine();
                sawId = true;
            } else if (key == "Title") {
                erratum.title = value;
            } else if (key == "Description") {
                erratum.description = value;
            } else if (key == "Implications") {
                erratum.implications = value;
            } else if (key == "Workaround") {
                erratum.workaroundText = value;
            } else if (key == "Status") {
                erratum.status = classifyStatus(value);
            } else if (key == "MSRs") {
                for (auto &entry : strings::split(value, ',')) {
                    std::string trimmed = strings::trim(entry);
                    if (trimmed.empty())
                        continue;
                    std::size_t eq = trimmed.find('=');
                    MsrRef msr;
                    if (eq == std::string::npos) {
                        msr.name = trimmed;
                    } else {
                        msr.name =
                            strings::trim(trimmed.substr(0, eq));
                        auto number = parseIntField(
                            "MSRs", trimmed.substr(eq + 1),
                            reader.fieldLine(), 0, 0xFFFFFFFFL,
                            16);
                        if (!number)
                            return number.error();
                        msr.number = static_cast<std::uint32_t>(
                            number.value());
                    }
                    erratum.msrs.push_back(std::move(msr));
                }
            } else {
                return makeError("unknown erratum field '" + key +
                                     "'",
                                 reader.fieldLine());
            }
        }
        if (!any)
            break;
        if (!sawId)
            return makeError("erratum entry without an ID",
                             reader.lineNumber());
        erratum.workaroundClass =
            classifyWorkaround(erratum.workaroundText);

        // Recover addedInRevision from the revision notes (earliest
        // claim wins, matching the dating rules).
        erratum.addedInRevision = 0;
        const Revision *earliest = nullptr;
        for (const Revision &revision : document.revisions) {
            for (const std::string &id : revision.addedIds) {
                if (id == erratum.localId &&
                    (!earliest || revision.date < earliest->date)) {
                    earliest = &revision;
                }
            }
        }
        if (earliest)
            erratum.addedInRevision = earliest->number;

        document.errata.push_back(std::move(erratum));
        reader.skipBlank();
    }

    // ---- Optional hidden-errata summary ------------------------------
    if (strings::trim(reader.peekLine()) ==
        "== HIDDEN ERRATA ==") {
        reader.skipLine();
        reader.skipBlank();
        while (reader.readField(key, value)) {
            if (key != "IDs") {
                return makeError("unknown hidden-errata field '" +
                                     key + "'",
                                 reader.fieldLine());
            }
            for (auto &id : strings::split(value, ',')) {
                std::string trimmed = strings::trim(id);
                if (!trimmed.empty())
                    document.hiddenErrata.push_back(trimmed);
            }
        }
        reader.skipBlank();
    }

    if (strings::trim(reader.peekLine()) != "== END ==")
        return makeError("missing END marker", reader.lineNumber());
    return document;
}

} // namespace rememberr
