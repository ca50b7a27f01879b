#include "support/checkpoint.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/error.hh"
#include "support/json.hh"

namespace ttmcas {

namespace {

/** 16-hex-digit rendering of an IEEE-754 bit pattern. */
std::string
bitsToHex(std::uint64_t bits)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex(16, '0');
    for (int i = 15; i >= 0; --i, bits >>= 4)
        hex[i] = kDigits[bits & 0xfu];
    return hex;
}

/** Parse a 16-hex-digit bit pattern; throws ModelError otherwise. */
std::uint64_t
hexToBits(const std::string& hex)
{
    TTMCAS_REQUIRE(hex.size() == 16,
                   "checkpoint bit pattern must be 16 hex digits, got '" +
                       hex + "'");
    std::uint64_t bits = 0;
    for (const char c : hex) {
        bits <<= 4;
        if (c >= '0' && c <= '9')
            bits |= static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            bits |= static_cast<std::uint64_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            bits |= static_cast<std::uint64_t>(c - 'A' + 10);
        else
            throw ModelError(
                "checkpoint bit pattern has a non-hex digit in '" + hex +
                "'");
    }
    return bits;
}

/** Read @p value as a non-negative integral JSON number. */
std::uint64_t
asCount(const JsonValue& value, const char* what)
{
    const double number = value.asNumber();
    TTMCAS_REQUIRE(number >= 0.0 &&
                       number == static_cast<double>(
                                     static_cast<std::uint64_t>(number)),
                   std::string("checkpoint field '") + what +
                       "' is not a non-negative integer");
    return static_cast<std::uint64_t>(number);
}

} // namespace

SweepCheckpoint::SweepCheckpoint(SweepCheckpoint&& other) noexcept
    : _kernel(std::move(other._kernel)), _seed(other._seed),
      _total_points(other._total_points),
      _parent(std::move(other._parent)),
      _points(std::move(other._points)),
      _autoflush_path(std::move(other._autoflush_path)),
      _autoflush_every(other._autoflush_every),
      _records_since_flush(other._records_since_flush)
{}

void
SweepCheckpoint::bind(const std::string& kernel, std::uint64_t seed,
                      std::size_t total_points)
{
    TTMCAS_REQUIRE(!kernel.empty(), "checkpoint kernel name is empty");
    std::lock_guard<std::mutex> lock(_mutex);
    if (_kernel.empty()) {
        _kernel = kernel;
        _seed = seed;
        _total_points = total_points;
        return;
    }
    TTMCAS_REQUIRE(
        _kernel == kernel && _seed == seed &&
            _total_points == total_points,
        "checkpoint is bound to " + _kernel + "/seed " +
            std::to_string(_seed) + "/" + std::to_string(_total_points) +
            " points but this run is " + kernel + "/seed " +
            std::to_string(seed) + "/" + std::to_string(total_points) +
            " points");
}

void
SweepCheckpoint::requireMatches(const std::string& kernel,
                                std::uint64_t seed,
                                std::size_t total_points) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    TTMCAS_REQUIRE(
        _kernel == kernel && _seed == seed &&
            _total_points == total_points,
        "resume checkpoint was written by " +
            (_kernel.empty() ? std::string("<unbound>") : _kernel) +
            "/seed " + std::to_string(_seed) + "/" +
            std::to_string(_total_points) +
            " points and cannot seed " + kernel + "/seed " +
            std::to_string(seed) + "/" + std::to_string(total_points) +
            " points");
}

void
SweepCheckpoint::record(std::size_t point, double value)
{
    std::lock_guard<std::mutex> lock(_mutex);
    TTMCAS_REQUIRE(point < _total_points || _total_points == 0,
                   "checkpoint point " + std::to_string(point) +
                       " is out of range for a " +
                       std::to_string(_total_points) + "-point sweep");
    _points[point] = std::bit_cast<std::uint64_t>(value);
    if (_autoflush_every == 0)
        return;
    // Each flush rewrites every recorded point, so a fixed cadence is
    // quadratic in the sweep size; stretching it to a fixed share of
    // the bound sweep keeps a whole run's flush work linear.
    const std::size_t stretched =
        (_total_points + kMaxAutoFlushes - 1) / kMaxAutoFlushes;
    if (++_records_since_flush < std::max(_autoflush_every, stretched))
        return;
    _records_since_flush = 0;
    writeAtomicLocked(_autoflush_path);
}

bool
SweepCheckpoint::has(std::size_t point) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _points.count(point) != 0;
}

double
SweepCheckpoint::value(std::size_t point) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _points.find(point);
    TTMCAS_REQUIRE(it != _points.end(),
                   "checkpoint holds no value for point " +
                       std::to_string(point));
    return std::bit_cast<double>(it->second);
}

std::size_t
SweepCheckpoint::completedCount() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _points.size();
}

std::string
SweepCheckpoint::toJsonLocked() const
{
    JsonWriter json;
    json.beginObject();
    json.field("kernel", _kernel);
    json.field("seed", static_cast<std::uint64_t>(_seed));
    json.field("total_points", static_cast<std::uint64_t>(_total_points));
    json.field("parent", _parent);
    // The points array is the bulk of every flush, so it is rendered
    // straight into one buffer (the bytes JsonWriter would emit for
    // {"index":N,"bits":"hex"} records) instead of field by field.
    std::string points = "[";
    points.reserve(48 * _points.size() + 2);
    char digits[24];
    for (const auto& [index, bits] : _points) {
        if (points.size() > 1)
            points += ',';
        points += "{\"index\":";
        points.append(digits,
                      std::to_chars(digits, digits + sizeof(digits), index)
                          .ptr);
        points += ",\"bits\":\"";
        points += bitsToHex(bits);
        points += "\"}";
    }
    points += ']';
    json.key("points");
    json.raw(points);
    json.endObject();
    return json.str();
}

std::string
SweepCheckpoint::toJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return toJsonLocked();
}

SweepCheckpoint
SweepCheckpoint::fromJson(const std::string& text)
{
    const JsonValue doc = parseJson(text);
    SweepCheckpoint checkpoint;
    checkpoint._kernel = doc.at("kernel").asString();
    TTMCAS_REQUIRE(!checkpoint._kernel.empty(),
                   "checkpoint kernel name is empty");
    checkpoint._seed = asCount(doc.at("seed"), "seed");
    checkpoint._total_points =
        static_cast<std::size_t>(asCount(doc.at("total_points"),
                                         "total_points"));
    if (doc.has("parent"))
        checkpoint._parent = doc.at("parent").asString();
    for (const JsonValue& entry : doc.at("points").asArray()) {
        const std::size_t index = static_cast<std::size_t>(
            asCount(entry.at("index"), "index"));
        TTMCAS_REQUIRE(index < checkpoint._total_points,
                       "checkpoint point " + std::to_string(index) +
                           " is out of range for a " +
                           std::to_string(checkpoint._total_points) +
                           "-point sweep");
        checkpoint._points[index] =
            hexToBits(entry.at("bits").asString());
    }
    return checkpoint;
}

void
SweepCheckpoint::writeAtomicLocked(const std::string& path) const
{
    const std::string document = toJsonLocked();
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(target.parent_path(), ec);
    }
    // Temp file beside the target: rename() is only atomic within one
    // filesystem, so the staging file must live in the same directory.
    const std::filesystem::path staging(path + ".tmp");
    {
        std::ofstream out(staging, std::ios::trunc);
        TTMCAS_REQUIRE(out.good(), "cannot open checkpoint staging file " +
                                       staging.string());
        out << document << '\n';
        out.flush();
        TTMCAS_REQUIRE(out.good(), "cannot write checkpoint staging file " +
                                       staging.string());
    }
    std::error_code ec;
    std::filesystem::rename(staging, target, ec);
    TTMCAS_REQUIRE(!ec, "cannot rename checkpoint into place at " + path +
                            ": " + ec.message());
}

void
SweepCheckpoint::writeAtomic(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    writeAtomicLocked(path);
}

SweepCheckpoint
SweepCheckpoint::load(const std::string& path)
{
    std::ifstream in(path);
    TTMCAS_REQUIRE(in.good(), "cannot open checkpoint file " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    TTMCAS_REQUIRE(!in.bad(), "cannot read checkpoint file " + path);
    SweepCheckpoint checkpoint = fromJson(buffer.str());
    checkpoint._parent = path;
    return checkpoint;
}

void
SweepCheckpoint::enableAutoFlush(std::string path,
                                 std::size_t every_points)
{
    TTMCAS_REQUIRE(every_points >= 1,
                   "checkpoint auto-flush cadence must be >= 1 point");
    TTMCAS_REQUIRE(!path.empty(), "checkpoint auto-flush path is empty");
    std::lock_guard<std::mutex> lock(_mutex);
    _autoflush_path = std::move(path);
    _autoflush_every = every_points;
    _records_since_flush = 0;
}

} // namespace ttmcas
