#include "runtime/cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <vector>

#include "runtime/faultfs.hh"
#include "runtime/hash.hh"
#include "util/logging.hh"

namespace vn::runtime
{

namespace
{

/**
 * Entry frame, shared by .kv and .blob entries:
 *
 *   vncache 1 <payload_bytes>\n
 *   <payload>
 *   vnsum <16-hex FNV-1a of payload>\n
 *
 * The header pins the format version and the exact payload length
 * (catching truncation cheaply); the footer checksum catches bit
 * flips and any tail garbage. Unframed (pre-durability) files fail
 * the header check and count as corrupt — stale-format entries are
 * recomputed, never trusted.
 */
constexpr std::string_view kFrameMagic = "vncache 1 ";
constexpr std::string_view kFrameFooter = "vnsum ";

/** Stray temp files younger than this may belong to a live writer. */
constexpr std::chrono::seconds kTmpReapAge{60};

std::string
frameEntry(std::string_view payload)
{
    char footer[32];
    std::snprintf(footer, sizeof(footer), "%016llx",
                  static_cast<unsigned long long>(fnv1a(payload)));
    std::string framed;
    framed.reserve(payload.size() + 48);
    framed.append(kFrameMagic);
    framed.append(std::to_string(payload.size()));
    framed.push_back('\n');
    framed.append(payload);
    framed.append(kFrameFooter);
    framed.append(footer);
    framed.push_back('\n');
    return framed;
}

/** Frame-verify `bytes`; true (and the payload) iff intact. */
bool
unframeEntry(const std::string &bytes, std::string *payload)
{
    if (bytes.rfind(kFrameMagic, 0) != 0)
        return false;
    size_t pos = kFrameMagic.size();
    size_t newline = bytes.find('\n', pos);
    if (newline == std::string::npos)
        return false;
    unsigned long long declared = 0;
    try {
        size_t consumed = 0;
        declared = std::stoull(bytes.substr(pos, newline - pos),
                               &consumed);
        if (consumed != newline - pos)
            return false;
    } catch (const std::exception &) {
        return false;
    }
    size_t body = newline + 1;
    if (bytes.size() < body + declared + kFrameFooter.size() + 17)
        return false;
    size_t footer = body + declared;
    if (bytes.compare(footer, kFrameFooter.size(), kFrameFooter) != 0)
        return false;
    size_t sum_pos = footer + kFrameFooter.size();
    if (bytes.size() != sum_pos + 17 || bytes.back() != '\n')
        return false;
    char expected[32];
    std::snprintf(expected, sizeof(expected), "%016llx",
                  static_cast<unsigned long long>(fnv1a(
                      std::string_view(bytes).substr(body, declared))));
    if (bytes.compare(sum_pos, 16, expected) != 0)
        return false;
    *payload = bytes.substr(body, declared);
    return true;
}

bool
isTmpFile(const std::filesystem::path &path)
{
    return path.filename().string().find(".tmp") != std::string::npos;
}

bool
isEntryFile(const std::filesystem::path &path)
{
    std::string ext = path.extension().string();
    return ext == ".kv" || ext == ".blob";
}

/** Best-effort fsync of the directory so a rename survives a cut. */
void
syncDirectory(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

/** Process-wide counter aggregate (leaked so it outlives statics). */
struct GlobalCounters
{
    std::atomic<uint64_t> corrupt{0};
    std::atomic<uint64_t> store_failures{0};
    std::atomic<uint64_t> tmp_reaped{0};
    std::atomic<uint64_t> scrub_runs{0};
    std::atomic<uint64_t> scrub_scanned{0};
    std::atomic<uint64_t> scrub_quarantined{0};
};

GlobalCounters *
globalCounterState()
{
    static auto *state = new GlobalCounters();
    return state;
}

/**
 * True for the first open of `dir` in this process. Campaigns open a
 * cache per collect(), so reaping on every open would walk the whole
 * directory once per dispatcher batch; a temp file orphaned later in
 * the process's life is left to scrub() or the next process.
 */
bool
firstOpenInProcess(const std::string &dir)
{
    struct Reaped
    {
        std::mutex mutex;
        std::set<std::string> dirs;
    };
    static auto *reaped = new Reaped(); // leaked, like the counters
    std::lock_guard<std::mutex> lock(reaped->mutex);
    return reaped->dirs.insert(dir).second;
}

} // namespace

ResultCache::ResultCache(std::string dir, FaultFs *faults)
    : dir_(std::move(dir)), faults_(faults)
{
    if (dir_.empty())
        fatal("ResultCache: empty cache directory");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("ResultCache: cannot create '", dir_, "': ",
              ec.message());

    // Reap temp files orphaned by crashed writers, once per directory
    // per process. Age-gated: a temp file younger than kTmpReapAge may
    // belong to a concurrent live writer about to rename it, so only
    // provably stale ones go.
    if (!firstOpenInProcess(dir_))
        return;
    auto now = std::filesystem::file_time_type::clock::now();
    uint64_t reaped = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec) || !isTmpFile(entry.path()))
            continue;
        auto mtime = std::filesystem::last_write_time(entry.path(), ec);
        if (ec || now - mtime < kTmpReapAge)
            continue;
        if (std::filesystem::remove(entry.path(), ec) && !ec)
            ++reaped;
    }
    if (reaped > 0) {
        inform("ResultCache: reaped ", reaped,
               " stale temp file(s) in '", dir_, "'");
        noteTmpReaped(reaped);
    }
}

uint64_t
ResultCache::keyFor(std::string_view scope, std::string_view job_key)
{
    uint64_t h = fnv1a(kCodeVersionTag);
    // A separator byte keeps (scope, key) pairs unambiguous: "ab"+"c"
    // must not collide with "a"+"bc".
    h = fnv1aAppend(h, std::string_view("\x1f", 1));
    h = fnv1aAppend(h, scope);
    h = fnv1aAppend(h, std::string_view("\x1f", 1));
    h = fnv1aAppend(h, job_key);
    return h;
}

std::string
ResultCache::entryPath(uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.kv",
                  static_cast<unsigned long long>(key));
    return (std::filesystem::path(dir_) / name).string();
}

std::string
ResultCache::blobPath(uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.blob",
                  static_cast<unsigned long long>(key));
    return (std::filesystem::path(dir_) / name).string();
}

void
ResultCache::noteCorrupt(const std::string &path) const
{
    counters_.corrupt.fetch_add(1);
    globalCounterState()->corrupt.fetch_add(1);
    warn("ResultCache: corrupt entry '", path,
         "' (counted; treated as a miss)");
}

void
ResultCache::noteStoreFailure() const
{
    counters_.store_failures.fetch_add(1);
    globalCounterState()->store_failures.fetch_add(1);
}

void
ResultCache::noteTmpReaped(uint64_t n) const
{
    counters_.tmp_reaped.fetch_add(n);
    globalCounterState()->tmp_reaped.fetch_add(n);
}

ResultCache::ReadState
ResultCache::readFramed(const std::string &path,
                        std::string *payload) const
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return ReadState::Missing;
    std::string bytes;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0)
        bytes.append(chunk, got);
    bool bad = std::ferror(file) != 0;
    std::fclose(file);
    if (bad || !unframeEntry(bytes, payload))
        return ReadState::Corrupt;
    return ReadState::Ok;
}

std::optional<KeyValueFile>
ResultCache::load(uint64_t key) const
{
    std::string path = entryPath(key);
    std::string payload;
    switch (readFramed(path, &payload)) {
    case ReadState::Missing:
        return std::nullopt;
    case ReadState::Corrupt:
        noteCorrupt(path);
        return std::nullopt;
    case ReadState::Ok:
        break;
    }
    auto entry = KeyValueFile::tryParse(payload);
    if (!entry) {
        // Frame intact but the payload is not a key/value snapshot —
        // corruption the checksum cannot see (a writer bug) still
        // must never decode into a result.
        noteCorrupt(path);
        return std::nullopt;
    }
    return entry;
}

bool
ResultCache::contains(uint64_t key) const
{
    std::error_code ec;
    return std::filesystem::exists(entryPath(key), ec);
}

std::optional<std::string>
ResultCache::loadText(uint64_t key) const
{
    std::string path = blobPath(key);
    std::string payload;
    switch (readFramed(path, &payload)) {
    case ReadState::Missing:
        return std::nullopt;
    case ReadState::Corrupt:
        noteCorrupt(path);
        return std::nullopt;
    case ReadState::Ok:
        return payload;
    }
    return std::nullopt;
}

bool
ResultCache::publish(const std::string &path,
                     std::string_view payload) const
{
    std::string framed = frameEntry(payload);

    // Consume the next scripted disk fault, if a FaultFs is attached.
    FsFault fault = faults_ ? faults_->next() : FsFault{};
    size_t write_bytes = framed.size();
    bool fail_write = false;
    switch (fault.kind) {
    case FsFault::Kind::TornWrite:
        // The write "succeeds" but only a prefix lands — the
        // post-power-cut state where the rename survived the data.
        write_bytes = std::min(fault.bytes, framed.size());
        break;
    case FsFault::Kind::Enospc:
        write_bytes = std::min(fault.bytes, framed.size());
        fail_write = true;
        break;
    case FsFault::Kind::BitFlip:
        if (!framed.empty())
            framed[fault.bytes % framed.size()] ^=
                static_cast<char>(1u << (fault.bit % 8));
        break;
    default:
        break;
    }

    // Unique temp name per store: concurrent writers (even of the
    // same key) never see each other's partial writes.
    std::string tmp =
        path + ".tmp" + std::to_string(tmp_counter_.fetch_add(1));
    std::FILE *file = std::fopen(tmp.c_str(), "wb");
    if (!file) {
        warn("ResultCache: cannot write '", tmp,
             "'; result not cached");
        noteStoreFailure();
        return false;
    }
    bool ok = write_bytes == 0 ||
              std::fwrite(framed.data(), 1, write_bytes, file) ==
                  write_bytes;
    ok = ok && !fail_write;
    // Entry bytes must be on stable storage *before* the rename
    // publishes them, or a power cut can surface a zero-length or
    // torn entry under the final name.
    if (ok)
        ok = std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
    ok = (std::fclose(file) == 0) && ok;

    std::error_code ec;
    if (!ok) {
        std::filesystem::remove(tmp, ec);
        warn("ResultCache: short write for '", path,
             "'; result not cached");
        noteStoreFailure();
        return false;
    }
    if (fault.kind == FsFault::Kind::RenameFail) {
        std::filesystem::remove(tmp, ec);
        warn("ResultCache: cannot publish '", path,
             "'; result not cached");
        noteStoreFailure();
        return false;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        warn("ResultCache: cannot publish '", path,
             "'; result not cached");
        noteStoreFailure();
        return false;
    }
    // And the rename itself must be durable: sync the directory.
    syncDirectory(dir_);
    return true;
}

bool
ResultCache::store(uint64_t key, const KeyValueFile &entry) const
{
    return publish(entryPath(key), entry.serialize());
}

bool
ResultCache::storeText(uint64_t key, std::string_view text) const
{
    return publish(blobPath(key), text);
}

ScrubReport
ResultCache::scrub() const
{
    // Deterministic order (sorted paths) so scrub output and counter
    // deltas replay identically for a given directory state.
    std::vector<std::filesystem::path> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (entry.is_regular_file(ec))
            paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());

    ScrubReport report;
    for (const auto &path : paths) {
        if (isTmpFile(path)) {
            // Scrub is explicit operator intent: reap temp files
            // regardless of age (unlike the conservative open-time
            // reap).
            if (std::filesystem::remove(path, ec) && !ec) {
                ++report.tmp_reaped;
                noteTmpReaped(1);
            }
            continue;
        }
        if (!isEntryFile(path))
            continue;
        ++report.scanned;
        std::string payload;
        ReadState state = readFramed(path.string(), &payload);
        if (state == ReadState::Ok) {
            ++report.ok;
            continue;
        }
        if (state == ReadState::Missing)
            continue; // raced with a concurrent remove
        noteCorrupt(path.string());
        std::filesystem::rename(
            path, path.string() + ".quarantine", ec);
        if (ec) {
            warn("ResultCache: cannot quarantine '", path.string(),
                 "': ", ec.message());
            continue;
        }
        ++report.quarantined;
        counters_.scrub_quarantined.fetch_add(1);
        globalCounterState()->scrub_quarantined.fetch_add(1);
    }
    counters_.scrub_runs.fetch_add(1);
    counters_.scrub_scanned.fetch_add(report.scanned);
    globalCounterState()->scrub_runs.fetch_add(1);
    globalCounterState()->scrub_scanned.fetch_add(report.scanned);
    syncDirectory(dir_);
    return report;
}

CacheCounters
ResultCache::counters() const
{
    CacheCounters c;
    c.corrupt = counters_.corrupt.load();
    c.store_failures = counters_.store_failures.load();
    c.tmp_reaped = counters_.tmp_reaped.load();
    c.scrub_runs = counters_.scrub_runs.load();
    c.scrub_scanned = counters_.scrub_scanned.load();
    c.scrub_quarantined = counters_.scrub_quarantined.load();
    return c;
}

CacheCounters
ResultCache::globalCounters()
{
    const GlobalCounters *g = globalCounterState();
    CacheCounters c;
    c.corrupt = g->corrupt.load();
    c.store_failures = g->store_failures.load();
    c.tmp_reaped = g->tmp_reaped.load();
    c.scrub_runs = g->scrub_runs.load();
    c.scrub_scanned = g->scrub_scanned.load();
    c.scrub_quarantined = g->scrub_quarantined.load();
    return c;
}

} // namespace vn::runtime
