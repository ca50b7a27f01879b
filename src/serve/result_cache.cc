#include "serve/result_cache.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "support/error.hh"
#include "support/json.hh"

namespace ttmcas::serve {

namespace {

constexpr const char* kEntryFormat = "ttmcas-serve-cache-v1";

/** Render the on-disk entry envelope for one cache entry. */
std::string
renderEntry(const std::string& key, const std::string& kernel,
            const std::string& payload)
{
    JsonWriter json;
    json.beginObject();
    json.field("format", kEntryFormat);
    json.field("key", key);
    json.field("kernel", kernel);
    json.field("payload_bytes", static_cast<std::uint64_t>(payload.size()));
    json.field("payload", payload);
    json.endObject();
    return std::move(json).str();
}

/**
 * Parse one on-disk entry; returns the payload or nullopt when the
 * file is torn, truncated, or not a cache entry. The payload_bytes
 * length check catches a payload truncated *inside* valid JSON (it
 * cannot happen with atomic renames, but recovery trusts nothing).
 */
std::optional<std::string>
parseEntry(const std::string& document, const std::string& expected_key)
{
    try {
        const JsonValue doc = parseJson(document);
        if (doc.kind() != JsonValue::Kind::Object)
            return std::nullopt;
        if (!doc.has("format") ||
            doc.at("format").asString() != kEntryFormat)
            return std::nullopt;
        if (!doc.has("key") || doc.at("key").asString() != expected_key)
            return std::nullopt;
        if (!doc.has("payload") || !doc.has("payload_bytes"))
            return std::nullopt;
        std::string payload = doc.at("payload").asString();
        const double declared = doc.at("payload_bytes").asNumber();
        if (declared != static_cast<double>(payload.size()))
            return std::nullopt;
        return payload;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

} // namespace

ResultCache::ResultCache(ResultCacheOptions options)
    : _options(std::move(options))
{
    TTMCAS_REQUIRE(_options.max_entries >= 1,
                   "result cache needs max_entries >= 1");
    if (!_options.dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(_options.dir, ec);
        TTMCAS_REQUIRE(!ec, "cannot create cache directory " +
                                _options.dir + ": " + ec.message());
    }
}

std::size_t
ResultCache::recover()
{
    if (_options.dir.empty())
        return 0;

    struct DiskEntry
    {
        std::filesystem::path path;
        std::filesystem::file_time_type mtime;
    };
    std::vector<DiskEntry> found;
    std::uint64_t orphans = 0;
    std::error_code ec;
    for (const auto& item :
         std::filesystem::directory_iterator(_options.dir, ec)) {
        const std::filesystem::path& path = item.path();
        if (path.extension() == ".tmp") {
            // Orphan from a writer (or evictor) killed mid-operation:
            // the rename/remove pair never completed, so the entry
            // either never existed or was already condemned.
            std::error_code remove_ec;
            if (std::filesystem::remove(path, remove_ec))
                ++orphans;
            continue;
        }
        if (path.extension() != ".json")
            continue;
        std::error_code time_ec;
        const auto mtime = std::filesystem::last_write_time(path, time_ec);
        found.push_back({path, time_ec ? std::filesystem::file_time_type{}
                                       : mtime});
    }
    TTMCAS_REQUIRE(!ec, "cannot scan cache directory " + _options.dir +
                            ": " + ec.message());

    // Newest entries win the entry/byte budgets.
    std::sort(found.begin(), found.end(),
              [](const DiskEntry& a, const DiskEntry& b) {
                  if (a.mtime != b.mtime)
                      return a.mtime > b.mtime;
                  return a.path.filename() < b.path.filename();
              });

    std::lock_guard<std::mutex> lock(_mutex);
    _stats.orphans_deleted += orphans;
    for (const DiskEntry& entry : found) {
        const std::string key = entry.path.stem().string();
        if (_entries.count(key) != 0)
            continue;
        std::ifstream in(entry.path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        std::optional<std::string> payload;
        if (in.good() || in.eof())
            payload = parseEntry(buffer.str(), key);
        if (!payload) {
            ++_stats.torn_skipped;
            continue;
        }
        const bool over_entries = _entries.size() >= _options.max_entries;
        const bool over_bytes =
            _options.max_bytes != 0 &&
            _bytes + payload->size() > _options.max_bytes;
        if (over_entries || over_bytes) {
            // A valid entry beyond the bounds: the bounded store must
            // stay bounded across restarts, so delete it from disk
            // (same rename-then-remove discipline as live eviction).
            ++_stats.evictions;
            _stats.evicted_bytes += payload->size();
            removeDiskEntry(key);
            continue;
        }
        _bytes += payload->size();
        // Iteration is newest-first (for the budget), but _lru's front
        // is the eviction victim: push_front so the oldest recovered
        // entry ends up at the front and is evicted first.
        _lru.push_front(key);
        _entries.emplace(key, Entry{std::move(*payload), _lru.begin()});
        ++_stats.recovered;
    }
    return static_cast<std::size_t>(_stats.recovered);
}

std::optional<std::string>
ResultCache::lookup(const std::string& key)
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _entries.find(key);
    if (it == _entries.end()) {
        ++_stats.misses;
        return std::nullopt;
    }
    // Refresh recency: hits keep an entry alive under eviction.
    _lru.splice(_lru.end(), _lru, it->second.lru);
    ++_stats.hits;
    return it->second.payload;
}

bool
ResultCache::insert(const std::string& key, const std::string& kernel,
                    const std::string& payload)
{
    std::vector<std::string> evicted_keys;
    bool survived = true;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        const auto it = _entries.find(key);
        if (it != _entries.end()) {
            // A re-insert is a no-op for the payload but still a touch:
            // refresh recency like lookup() so a hot entry that keeps
            // being recomputed is not evicted as if cold.
            _lru.splice(_lru.end(), _lru, it->second.lru);
            return true;
        }
        _bytes += payload.size();
        _lru.push_back(key);
        _entries.emplace(key, Entry{payload, std::prev(_lru.end())});
        ++_stats.insertions;
        evictLockedIfNeeded(evicted_keys);
        survived = _entries.count(key) != 0;
    }
    // Disk work outside the lock: file latency must not serialize
    // lookups. A concurrent insert of the same key writes the same
    // bytes, and rename() makes the last writer win atomically.
    if (_options.dir.empty())
        return true;
    for (const std::string& evicted : evicted_keys)
        removeDiskEntry(evicted);
    if (!survived)
        return true; // oversized payload: admitted then evicted
    return persistEntry(key, kernel, payload);
}

void
ResultCache::evictLockedIfNeeded(std::vector<std::string>& evicted_keys)
{
    while (!_lru.empty() &&
           (_entries.size() > _options.max_entries ||
            (_options.max_bytes != 0 && _bytes > _options.max_bytes))) {
        const std::string victim = _lru.front();
        _lru.pop_front();
        const auto it = _entries.find(victim);
        if (it != _entries.end()) {
            _bytes -= it->second.payload.size();
            _stats.evicted_bytes += it->second.payload.size();
            _entries.erase(it);
        }
        ++_stats.evictions;
        evicted_keys.push_back(victim);
    }
}

void
ResultCache::removeDiskEntry(const std::string& key)
{
    // Same atomicity discipline as inserts, in reverse: rename the
    // entry aside (atomic), then remove the renamed file. A kill -9
    // between the two leaves only a *.tmp orphan for recover() to
    // delete — never a half-deleted entry.
    const std::filesystem::path target =
        std::filesystem::path(_options.dir) / (key + ".json");
    const std::filesystem::path condemned =
        std::filesystem::path(_options.dir) / (key + ".json.evict.tmp");
    std::error_code ec;
    std::filesystem::rename(target, condemned, ec);
    if (ec)
        return; // entry was never persisted (or already evicted)
    std::filesystem::remove(condemned, ec);
}

bool
ResultCache::persistEntry(const std::string& key, const std::string& kernel,
                          const std::string& payload)
{
    const std::string document = renderEntry(key, kernel, payload);
    const std::filesystem::path target =
        std::filesystem::path(_options.dir) / (key + ".json");
    // Temp file beside the target: rename() is only atomic within one
    // filesystem, so the staging file must live in the same directory.
    const std::filesystem::path staging =
        std::filesystem::path(_options.dir) / (key + ".json.tmp");
    {
        std::ofstream out(staging, std::ios::trunc);
        if (!out.good())
            return false;
        out << document << '\n';
        out.flush();
        if (!out.good())
            return false;
    }
    std::error_code ec;
    {
        // Re-check membership under the lock before the staged file
        // lands: a concurrent insert may have evicted this key while
        // we were staging, and renaming now would resurrect a
        // condemned entry on disk (unbounded until the next recover).
        // rename() under the lock is a metadata-only operation, and
        // eviction picks victims under the same lock, so a persist can
        // never interleave with its own key's eviction.
        std::lock_guard<std::mutex> lock(_mutex);
        if (_entries.count(key) == 0) {
            std::error_code remove_ec;
            std::filesystem::remove(staging, remove_ec);
            return true; // evicted while staging: nothing to persist
        }
        std::filesystem::rename(staging, target, ec);
    }
    if (ec) {
        std::error_code remove_ec;
        std::filesystem::remove(staging, remove_ec);
        return false;
    }
    return true;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

std::size_t
ResultCache::bytes() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _bytes;
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _stats;
}

} // namespace ttmcas::serve
