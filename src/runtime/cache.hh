/**
 * @file
 * Content-addressed on-disk result cache for experiment campaigns.
 *
 * An entry is named by the FNV-1a hash of (code version tag, campaign
 * scope, job key):
 *
 *   - the *scope* is the serialized configuration shared by every job
 *     of the campaign (chip/PDN config, window, seed, ...);
 *   - the *job key* identifies one job inside it ("fsweep f=2.6e6");
 *   - the *version tag* (kCodeVersionTag) is bumped whenever a model
 *     change invalidates previously computed results.
 *
 * Entries are KeyValueFile snapshots (numbers only, full precision,
 * so a cached result decodes bit-identical to a fresh one) or raw
 * text blobs, one file per entry under the cache directory.
 *
 * Durability: multi-hour unattended campaigns treat crashes as an
 * expected outcome, so the cache never trusts the disk blindly. Every
 * entry is *integrity-framed* — a versioned header declaring the
 * payload size plus an FNV-1a checksum footer — and published with
 * write-temp / fsync(file) / rename / fsync(directory), so a torn
 * write, a power cut mid-rename, or a silently flipped bit is a
 * *counted corrupt miss* on the next load, never a served result.
 * Stray temp files from crashed writers are reaped at the first open
 * of a directory in a process; scrub() re-verifies every entry,
 * quarantines the corrupt ones and reaps temp files of any age. All
 * failure modes are injectable deterministically via FaultFs
 * (faultfs.hh) so recovery is proven seeded and replayable.
 */

#ifndef VN_RUNTIME_CACHE_HH
#define VN_RUNTIME_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/kvfile.hh"

namespace vn::runtime
{

class FaultFs;

/**
 * Bump on model/semantics changes that invalidate cached campaign
 * results (solver fidelity, stressmark methodology, result layouts).
 */
inline constexpr std::string_view kCodeVersionTag = "vnoise-runtime-1";

/**
 * Durability counters, kept per ResultCache instance and aggregated
 * process-wide (ResultCache::globalCounters()) so long-lived services
 * can surface them even though harnesses construct short-lived cache
 * instances per campaign.
 */
struct CacheCounters
{
    uint64_t corrupt = 0; //!< entries that failed framing/checksum
    uint64_t store_failures = 0; //!< publishes that did not land
    uint64_t tmp_reaped = 0;     //!< stray temp files removed
    uint64_t scrub_runs = 0;
    uint64_t scrub_scanned = 0;
    uint64_t scrub_quarantined = 0;
};

/** What one scrub() pass saw and did. */
struct ScrubReport
{
    size_t scanned = 0;     //!< entries verified (.kv + .blob)
    size_t ok = 0;          //!< entries that passed verification
    size_t quarantined = 0; //!< corrupt entries set aside
    size_t tmp_reaped = 0;  //!< stray temp files removed
};

/** The on-disk cache; all methods are thread-safe. */
class ResultCache
{
  public:
    /**
     * Opens (and creates, if needed) the cache directory. The first
     * open of a directory in a process reaps stray `.tmp` files left
     * behind by crashed writers (age-gated so a concurrent live
     * writer's temp file survives); later opens skip the directory
     * walk. `faults`, when
     * non-null, injects a scripted disk fault into each publish — the
     * caller keeps ownership and must outlive the cache.
     */
    explicit ResultCache(std::string dir, FaultFs *faults = nullptr);

    /** Content address of (version tag, scope, job key). */
    static uint64_t keyFor(std::string_view scope,
                           std::string_view job_key);

    /**
     * Cached entry for `key`, or nullopt on miss. A present-but-
     * corrupt entry (bad frame, checksum mismatch, unparsable
     * payload) is a *counted* miss — see counters().corrupt — and is
     * never decoded into a result.
     */
    std::optional<KeyValueFile> load(uint64_t key) const;

    /**
     * True when an entry for `key` exists on disk — one stat(2), no
     * read or parse. Used by admission control to classify a request
     * as a cache hit without paying for a load; a corrupt entry may
     * classify as a hit here but still loads as a miss.
     */
    bool contains(uint64_t key) const;

    /**
     * Persist an entry (atomic replace; last writer wins). Returns
     * false — after warning and removing the temp file — when the
     * write or publish failed; the campaign then simply recomputes
     * next run.
     */
    bool store(uint64_t key, const KeyValueFile &entry) const;

    /**
     * Raw-text variants (".blob" entries) for callers that cache
     * opaque payloads rather than KeyValueFile snapshots — the router
     * stores forwarded response JSON verbatim, so a replayed hit is
     * byte-identical to the backend's original bytes. Same keyFor()
     * addressing, so a kCodeVersionTag bump drains these too; same
     * integrity framing, so a torn blob is a counted miss rather than
     * a served corrupt response.
     */
    std::optional<std::string> loadText(uint64_t key) const;
    bool storeText(uint64_t key, std::string_view text) const;

    /**
     * Verify every entry in the directory: corrupt ones are renamed
     * aside (".quarantine" suffix, preserved for post-mortems) and
     * counted, stray temp files are removed regardless of age.
     */
    ScrubReport scrub() const;

    /** Durability counters of this instance. */
    CacheCounters counters() const;

    /** Process-wide aggregate across every instance ever opened. */
    static CacheCounters globalCounters();

    const std::string &dir() const { return dir_; }

  private:
    struct AtomicCounters
    {
        std::atomic<uint64_t> corrupt{0};
        std::atomic<uint64_t> store_failures{0};
        std::atomic<uint64_t> tmp_reaped{0};
        std::atomic<uint64_t> scrub_runs{0};
        std::atomic<uint64_t> scrub_scanned{0};
        std::atomic<uint64_t> scrub_quarantined{0};
    };

    enum class ReadState
    {
        Missing,
        Corrupt,
        Ok
    };

    std::string entryPath(uint64_t key) const;
    std::string blobPath(uint64_t key) const;

    /** Frame + write-temp + fsync + rename + fsync(dir). */
    bool publish(const std::string &path,
                 std::string_view payload) const;
    /** Read + verify a framed entry into `payload`. */
    ReadState readFramed(const std::string &path,
                         std::string *payload) const;
    void noteCorrupt(const std::string &path) const;
    void noteStoreFailure() const;
    void noteTmpReaped(uint64_t n) const;

    std::string dir_;
    FaultFs *faults_ = nullptr;
    mutable std::atomic<uint64_t> tmp_counter_{0};
    mutable AtomicCounters counters_;
};

} // namespace vn::runtime

#endif // VN_RUNTIME_CACHE_HH
