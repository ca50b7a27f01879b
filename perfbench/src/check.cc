#include "check.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/json.hh"

namespace perfbench {

namespace {

using ttmcas::JsonValue;

ReplyCheck
reject(std::string why)
{
    ReplyCheck check;
    check.why = std::move(why);
    return check;
}

std::uint64_t
count(const JsonValue& object, const std::string& field)
{
    if (!object.has(field) ||
        object.at(field).kind() != JsonValue::Kind::Number)
        return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(object.at(field).asNumber());
}

std::string
text(const JsonValue& object, const std::string& field)
{
    if (!object.has(field) ||
        object.at(field).kind() != JsonValue::Kind::String)
        return "";
    return object.at(field).asString();
}

/** Kind-specific completeness of an ok result. */
std::string
incomplete(const JsonValue& result, const GeneratedRequest& request)
{
    const std::string& kind = request.kind;
    if (kind == "mc_ttm" || kind == "mc_cas") {
        if (count(result, "samples_requested") != request.size)
            return "samples_requested differs from the request";
        if (count(result, "samples_completed") != request.size)
            return "samples_completed != samples_requested";
        if (!result.has("summary") ||
            result.at("summary").kind() != JsonValue::Kind::Object)
            return "missing summary";
    } else if (kind == "sobol_ttm") {
        if (count(result, "base_samples") != request.size)
            return "base_samples differs from the request";
        if (!result.has("inputs") ||
            result.at("inputs").kind() != JsonValue::Kind::Array ||
            result.at("inputs").asArray().empty())
            return "missing sensitivity indices";
    } else if (kind == "capacity_sweep") {
        if (count(result, "points_requested") != request.size)
            return "points_requested differs from the request";
        if (!result.has("points") ||
            result.at("points").asArray().size() != request.size)
            return "sweep returned a different point count";
        for (const JsonValue& point : result.at("points").asArray())
            if (point.has("error"))
                return "sweep point carries an error";
    } else if (kind == "ensemble_ttm") {
        if (!result.has("ensemble"))
            return "missing ensemble";
    } else if (kind == "chiplet_pareto") {
        if (!result.has("pareto"))
            return "missing pareto";
        if (count(result.at("failures"), "points") != request.size)
            return "candidate count differs from the sweep spec";
    }
    return "";
}

std::string
renderStudy(const StudyOutput& output)
{
    std::string text;
    char line[256];
    for (const ttmcas::MissCurve* curve : {&output.instruction, &output.data}) {
        for (std::size_t i = 0; i < curve->sizes_bytes.size(); ++i) {
            std::snprintf(line, sizeof line, "curve %c %llu %.17g\n",
                          curve->instruction_stream ? 'I' : 'D',
                          static_cast<unsigned long long>(
                              curve->sizes_bytes[i]),
                          curve->miss_rates[i]);
            text += line;
        }
    }
    for (const ttmcas::CacheDesignPoint& row : output.rows) {
        std::snprintf(line, sizeof line,
                      "row %llu %llu %.17g %.17g %.17g %.17g\n",
                      static_cast<unsigned long long>(row.icache_bytes),
                      static_cast<unsigned long long>(row.dcache_bytes),
                      row.ipc, row.ttm.value(), row.cost.value(),
                      row.cache_area_fraction);
        text += line;
    }
    return text;
}

} // namespace

ReplyCheck
checkReply(const std::string& reply, const GeneratedRequest& request)
{
    JsonValue doc;
    try {
        doc = ttmcas::parseJson(reply);
    } catch (const std::exception& error) {
        return reject(request.id + ": reply does not parse: " + error.what());
    }
    if (doc.kind() != JsonValue::Kind::Object)
        return reject(request.id + ": reply is not an object");
    if (text(doc, "id") != request.id)
        return reject(request.id + ": reply echoes id '" + text(doc, "id") +
                      "'");
    if (text(doc, "status") != "ok")
        return reject(request.id + ": status '" + text(doc, "status") + "'");
    if (text(doc, "kind") != request.kind)
        return reject(request.id + ": kind '" + text(doc, "kind") + "'");
    const std::string cache = text(doc, "cache");
    const bool allowed = cache == "miss" ||
                         (request.hot && (cache == "hit" || cache == "coalesced"));
    if (!allowed)
        return reject(request.id + ": cache state '" + cache + "' on a " +
                      (request.hot ? "hot-set" : "fresh") + " key");
    if (!doc.has("result") ||
        doc.at("result").kind() != JsonValue::Kind::Object)
        return reject(request.id + ": no result object");
    const JsonValue& result = doc.at("result");
    if (!result.has("failures"))
        return reject(request.id + ": no failures object");
    const JsonValue& failures = result.at("failures");
    if (count(failures, "failed") != 0)
        return reject(request.id + ": failures.failed != 0");
    const std::uint64_t points = count(failures, "points");
    if (points == 0 || points == ~std::uint64_t{0})
        return reject(request.id + ": failures.points missing or zero");
    if (const std::string why = incomplete(result, request); !why.empty())
        return reject(request.id + ": " + why);

    ReplyCheck check;
    check.ok = true;
    check.points = points;
    check.cache = cache;
    return check;
}

std::string
resultPayload(const std::string& reply)
{
    // Payloads are embedded verbatim as the reply's last member.
    const std::string marker = "\"result\":";
    const std::size_t at = reply.find(marker);
    if (at == std::string::npos || reply.empty() || reply.back() != '}')
        return "";
    const std::size_t begin = at + marker.size();
    return reply.substr(begin, reply.size() - 1 - begin);
}

std::string
studyDigest(const StudyOutput& output)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : renderStudy(output)) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

std::map<std::uint64_t, std::string>
loadDigests(const std::string& path)
{
    std::map<std::uint64_t, std::string> digests;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t variant = 0;
        std::string digest;
        if (fields >> variant >> digest)
            digests[variant] = digest;
    }
    return digests;
}

} // namespace perfbench
