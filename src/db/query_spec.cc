#include "query_spec.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <iterator>

#include "util/strings.hh"

namespace rememberr {

namespace {

/**
 * The value of an enum with `count` values whose `name` equals
 * `text`, ignoring case.
 */
template <typename Enum>
std::optional<Enum>
parseName(std::string_view text, std::string_view (*name)(Enum),
          int count)
{
    for (int i = 0; i < count; ++i) {
        auto value = static_cast<Enum>(i);
        if (strings::equalsIgnoreCase(text, name(value)))
            return value;
    }
    return std::nullopt;
}

/** A JSON number that is a non-negative integer, or an error. */
Expected<std::size_t>
asCount(const std::string &field, const JsonValue &value)
{
    if (!value.isNumber())
        return makeError("field '" + field + "' must be a number");
    double number = value.asNumber();
    if (number < 0 || number != std::floor(number) ||
        number > 1e15) {
        return makeError("field '" + field +
                         "' must be a non-negative integer");
    }
    return static_cast<std::size_t>(number);
}

Expected<bool>
asFlag(const std::string &field, const JsonValue &value)
{
    if (!value.isBool())
        return makeError("field '" + field + "' must be a boolean");
    return value.asBool();
}

/** A view of a JSON string held by `value`, or an error. */
Expected<std::string_view>
asText(const std::string &field, const JsonValue &value)
{
    if (!value.isString())
        return makeError("field '" + field + "' must be a string");
    return std::string_view(value.asString());
}

} // namespace

std::string_view
queryOpName(QuerySpec::Op op)
{
    switch (op) {
      case QuerySpec::Op::Ping: return "ping";
      case QuerySpec::Op::Count: return "count";
      case QuerySpec::Op::Run: return "run";
      case QuerySpec::Op::Group: return "group";
    }
    REMEMBERR_PANIC("queryOpName: bad op");
}

std::string_view
groupByName(QuerySpec::GroupBy by)
{
    switch (by) {
      case QuerySpec::GroupBy::Category: return "category";
      case QuerySpec::GroupBy::Class: return "class";
      case QuerySpec::GroupBy::Workaround: return "workaround";
    }
    REMEMBERR_PANIC("groupByName: bad grouping");
}

Expected<QuerySpec>
QuerySpec::fromJson(const JsonValue &json)
{
    if (!json.isObject())
        return makeError("request must be a JSON object");
    const JsonValue::Object &fields = json.asObject();

    auto opField = fields.find("op");
    if (opField == fields.end())
        return makeError("missing required field 'op'");
    auto opName = asText("op", opField->second);
    if (!opName)
        return opName.error();

    QuerySpec spec;
    if (opName.value() == "ping") {
        spec.op = Op::Ping;
    } else if (opName.value() == "count") {
        spec.op = Op::Count;
    } else if (opName.value() == "run") {
        spec.op = Op::Run;
    } else if (opName.value() == "group") {
        spec.op = Op::Group;
    } else {
        return makeError("unknown op '" + std::string(opName.value()) +
                         "' (expected ping, count, run or group)");
    }

    for (const auto &[key, value] : fields) {
        if (key == "op")
            continue;
        if (spec.op == Op::Ping)
            return makeError("op 'ping' takes no other fields");
        if (key == "vendor") {
            auto text = asText(key, value);
            if (!text)
                return text.error();
            spec.vendor = parseName(text.value(), vendorName, 2);
            if (!spec.vendor)
                return makeError("unknown vendor '" +
                                 std::string(text.value()) + "'");
        } else if (key == "category") {
            auto text = asText(key, value);
            if (!text)
                return text.error();
            spec.category =
                Taxonomy::instance().parseCategory(text.value());
            if (!spec.category)
                return makeError("unknown category '" +
                                 std::string(text.value()) + "'");
        } else if (key == "class") {
            auto text = asText(key, value);
            if (!text)
                return text.error();
            spec.categoryClass =
                Taxonomy::instance().parseClass(text.value());
            if (!spec.categoryClass)
                return makeError("unknown class '" +
                                 std::string(text.value()) + "'");
        } else if (key == "workaround") {
            auto text = asText(key, value);
            if (!text)
                return text.error();
            spec.workaround =
                parseName(text.value(), workaroundClassName, 6);
            if (!spec.workaround)
                return makeError("unknown workaround class '" +
                                 std::string(text.value()) + "'");
        } else if (key == "status") {
            auto text = asText(key, value);
            if (!text)
                return text.error();
            spec.status = parseName(text.value(), fixStatusName, 3);
            if (!spec.status)
                return makeError("unknown fix status '" +
                                 std::string(text.value()) + "'");
        } else if (key == "min_triggers") {
            auto count = asCount(key, value);
            if (!count)
                return count.error();
            spec.minTriggers = count.value();
        } else if (key == "exact_triggers") {
            auto count = asCount(key, value);
            if (!count)
                return count.error();
            spec.exactTriggers = count.value();
        } else if (key == "min_occurrences") {
            auto count = asCount(key, value);
            if (!count)
                return count.error();
            spec.minOccurrences = count.value();
        } else if (key == "complex") {
            auto flag = asFlag(key, value);
            if (!flag)
                return flag.error();
            spec.complexConditions = flag.value();
        } else if (key == "simulation_only") {
            auto flag = asFlag(key, value);
            if (!flag)
                return flag.error();
            spec.simulationOnly = flag.value();
        } else if (key == "disclosed_from" ||
                   key == "disclosed_to") {
            auto text = asText(key, value);
            if (!text)
                return text.error();
            auto date = Date::parse(text.value());
            if (!date)
                return makeError("field '" + key + "': " +
                                 date.error().message);
            (key == "disclosed_from" ? spec.disclosedFrom
                                     : spec.disclosedTo) =
                date.value();
        } else if (key == "limit") {
            if (spec.op != Op::Run)
                return makeError(
                    "field 'limit' only applies to op 'run'");
            auto count = asCount(key, value);
            if (!count)
                return count.error();
            if (count.value() > maxLimit())
                return makeError(
                    "field 'limit' must be at most " +
                    std::to_string(maxLimit()));
            spec.limit = count.value();
        } else if (key == "by") {
            if (spec.op != Op::Group)
                return makeError(
                    "field 'by' only applies to op 'group'");
            auto text = asText(key, value);
            if (!text)
                return text.error();
            auto by = parseName(text.value(), groupByName, 3);
            if (!by)
                return makeError("unknown grouping '" +
                                 std::string(text.value()) +
                                 "' (expected category, class or "
                                 "workaround)");
            spec.groupBy = *by;
        } else if (key == "axis") {
            if (spec.op != Op::Group)
                return makeError(
                    "field 'axis' only applies to op 'group'");
            auto text = asText(key, value);
            if (!text)
                return text.error();
            auto axis = parseName(text.value(), axisName, 3);
            if (!axis)
                return makeError("unknown axis '" +
                                 std::string(text.value()) +
                                 "' (expected trigger, context or "
                                 "effect)");
            spec.axis = *axis;
        } else {
            return makeError("unknown field '" + key + "'");
        }
    }

    if (spec.disclosedFrom.has_value() !=
        spec.disclosedTo.has_value()) {
        return makeError("'disclosed_from' and 'disclosed_to' must "
                         "be given together");
    }
    if (spec.op == Op::Group && spec.groupBy == GroupBy::Workaround &&
        fields.count("axis")) {
        return makeError(
            "field 'axis' does not apply to grouping 'workaround'");
    }
    return spec;
}

std::string
QuerySpec::canonical() const
{
    std::string out;
    out.reserve(160);
    out += "op=";
    out += queryOpName(op);
    if (op == Op::Ping)
        return out;

    // Each helper appends " name=" and then the field's value.
    auto field = [&](std::string_view name) -> std::string & {
        out += ' ';
        out += name;
        out += '=';
        return out;
    };
    auto lowered = [&](std::string_view name, std::string_view value) {
        field(name);
        for (char c : value)
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    };
    auto number = [&](std::string_view name, std::size_t value) {
        field(name);
        char digits[24];
        out.append(digits,
                   std::to_chars(digits, std::end(digits), value).ptr);
    };
    const Taxonomy &taxonomy = Taxonomy::instance();
    if (vendor)
        lowered("vendor", vendorName(*vendor));
    if (category)
        field("category") += taxonomy.categoryById(*category).code;
    if (categoryClass)
        field("class") += taxonomy.classById(*categoryClass).code;
    if (workaround)
        lowered("workaround", workaroundClassName(*workaround));
    if (status)
        lowered("status", fixStatusName(*status));
    // A zero minimum matches everything; dropping it makes
    // {"min_triggers": 0} and the absent field the same query.
    if (minTriggers && *minTriggers > 0)
        number("min_triggers", *minTriggers);
    if (exactTriggers)
        number("exact_triggers", *exactTriggers);
    if (minOccurrences && *minOccurrences > 0)
        number("min_occurrences", *minOccurrences);
    if (complexConditions)
        field("complex") += *complexConditions ? '1' : '0';
    if (simulationOnly)
        field("simulation_only") += *simulationOnly ? '1' : '0';
    if (disclosedFrom) {
        disclosedFrom->appendTo(field("disclosed"));
        out += "..";
        disclosedTo->appendTo(out);
    }
    if (op == Op::Run)
        number("limit", limit);
    if (op == Op::Group) {
        field("by") += groupByName(groupBy);
        if (groupBy != GroupBy::Workaround)
            field("axis") += axisName(axis);
    }
    return out;
}

Query
QuerySpec::toQuery(const Database &db) const
{
    Query query(db);
    if (vendor)
        query.vendor(*vendor);
    if (category)
        query.hasCategory(*category);
    if (categoryClass)
        query.hasClass(*categoryClass);
    if (workaround)
        query.workaround(*workaround);
    if (status)
        query.status(*status);
    if (minTriggers && *minTriggers > 0)
        query.triggerCountAtLeast(*minTriggers);
    if (exactTriggers)
        query.triggerCountExactly(*exactTriggers);
    if (minOccurrences && *minOccurrences > 0)
        query.occurrenceCountAtLeast(*minOccurrences);
    if (complexConditions)
        query.complexConditions(*complexConditions);
    if (simulationOnly)
        query.simulationOnly(*simulationOnly);
    if (disclosedFrom)
        query.disclosedBetween(*disclosedFrom, *disclosedTo);
    return query;
}

std::optional<std::string>
QuerySpec::emptyReason() const
{
    if (op == Op::Ping)
        return std::nullopt;
    if (exactTriggers && minTriggers && *minTriggers > 0 &&
        *exactTriggers < *minTriggers) {
        return "exact_triggers=" + std::to_string(*exactTriggers) +
               " contradicts min_triggers=" +
               std::to_string(*minTriggers);
    }
    if (disclosedFrom && *disclosedTo < *disclosedFrom) {
        return "disclosure window " + disclosedFrom->toString() +
               ".." + disclosedTo->toString() + " is empty";
    }
    return std::nullopt;
}

JsonValue
QuerySpec::executeEmpty() const
{
    JsonValue response = JsonValue::makeObject();
    response["ok"] = JsonValue(true);
    response["op"] = JsonValue(std::string(queryOpName(op)));
    if (op == Op::Ping)
        return response;
    response["query"] = JsonValue(canonical());
    if (op == Op::Count) {
        response["count"] = JsonValue(std::size_t{0});
    } else if (op == Op::Run) {
        response["total"] = JsonValue(std::size_t{0});
        response["entries"] = JsonValue::makeArray();
    } else {
        response["groups"] = JsonValue::makeArray();
    }
    return response;
}

JsonValue
QuerySpec::execute(const Database &db) const
{
    JsonValue response = JsonValue::makeObject();
    response["ok"] = JsonValue(true);
    response["op"] = JsonValue(std::string(queryOpName(op)));
    if (op == Op::Ping)
        return response;
    response["query"] = JsonValue(canonical());

    Query query = toQuery(db);
    if (op == Op::Count) {
        response["count"] = JsonValue(query.count());
        return response;
    }
    if (op == Op::Run) {
        std::vector<const DbEntry *> matches = query.run();
        response["total"] = JsonValue(matches.size());
        JsonValue entries = JsonValue::makeArray();
        for (std::size_t i = 0;
             i < matches.size() && i < limit; ++i) {
            const DbEntry *entry = matches[i];
            JsonValue row = JsonValue::makeObject();
            row["key"] = JsonValue(
                static_cast<std::size_t>(entry->key));
            row["vendor"] = JsonValue(
                std::string(vendorName(entry->vendor)));
            row["title"] = JsonValue(entry->title);
            row["triggers"] = JsonValue(entry->triggers.size());
            row["occurrences"] =
                JsonValue(entry->occurrences.size());
            entries.append(std::move(row));
        }
        response["entries"] = std::move(entries);
        return response;
    }

    // Group: map keys are ordinal ids, so iteration (and therefore
    // the rendered group order) follows taxonomy/enum order.
    JsonValue groups = JsonValue::makeArray();
    auto appendGroup = [&](std::string code, std::size_t count) {
        JsonValue row = JsonValue::makeObject();
        row["code"] = JsonValue(std::move(code));
        row["count"] = JsonValue(count);
        groups.append(std::move(row));
    };
    const Taxonomy &taxonomy = Taxonomy::instance();
    if (groupBy == GroupBy::Category) {
        for (const auto &[id, count] : query.countByCategory(axis))
            appendGroup(taxonomy.categoryById(id).code, count);
    } else if (groupBy == GroupBy::Class) {
        for (const auto &[id, count] : query.countByClass(axis))
            appendGroup(taxonomy.classById(id).code, count);
    } else {
        for (const auto &[cls, count] : query.countByWorkaround())
            appendGroup(std::string(workaroundClassName(cls)),
                        count);
    }
    response["groups"] = std::move(groups);
    return response;
}

} // namespace rememberr
