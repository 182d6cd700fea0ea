/**
 * @file
 * Atomic per-job claim files: work stealing over a shared cache
 * directory.
 *
 * Static sharding (campaign/cost.hh) balances *estimated* cost
 * across a fixed worker set decided up front. A fleet of
 * heterogeneous, killable workers needs dynamic balance instead:
 * every worker pulls the next unfinished job from one shared pool,
 * and a job whose worker died is eventually re-run by a survivor.
 *
 * The coordination primitive is a claim file per job key inside the
 * shared cache directory: `<key>.claim`, created with O_CREAT|O_EXCL
 * (atomic on every filesystem the cache already relies on) and
 * carrying the claiming worker's id. The file's mtime is the
 * claim's heartbeat; a claim whose mtime is older than the
 * configured TTL is *stale* — its worker is presumed dead and any
 * other worker may steal the job (unlink + re-create). Because job
 * execution is deterministic and cache stores are atomic
 * last-rename-wins with identical content, the worst case of the
 * unlink/re-create race window (two workers briefly running the
 * same job) wastes cycles but can never corrupt or duplicate
 * results: the cache ends up with the one sample either would have
 * written, and exports are manifest-ordered.
 *
 * ClaimedQueue layers pool semantics on top: any number of
 * `mprobe_campaign --serve` workers (and the drop-directory service
 * of src/service/, which measures each campaign as one) pull jobs
 * from the manifest-defined pool in cost order, skip jobs whose
 * results are already cached, wait on jobs freshly claimed by live
 * peers, and steal them once the claim expires. A pool is drained
 * exactly when every job's result is in the cache — at which point
 * any worker can assemble the complete, byte-identical export.
 */

#ifndef CAMPAIGN_CLAIMS_HH
#define CAMPAIGN_CLAIMS_HH

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "util/thread_annotations.hh"

namespace mprobe
{

/**
 * Default stale-claim TTL. A claim is heartbeaten every time its
 * worker pulls from the queue (between jobs) and whenever a worker
 * thread waits on peers, so in a live worker the mtime stays far
 * younger than this. Raise it when individual jobs can run longer
 * than this on the slowest fleet host (a claim is only refreshed
 * between jobs), or when cache-directory clocks (e.g. NFS server
 * vs client) may disagree by a sizable fraction of it.
 */
constexpr double kDefaultClaimTtlSeconds = 60.0;

/** "host:pid" identity of this worker process. */
std::string defaultWorkerId();

/**
 * The claim-file registry of one shared cache directory. Safe for
 * concurrent use by many threads of one worker process and by any
 * number of worker processes on the directory.
 */
class ClaimDir
{
  public:
    /**
     * Bind to @p dir (the campaign's shared cache directory, created
     * when missing; empty is fatal). An empty @p worker_id resolves
     * to defaultWorkerId().
     */
    explicit ClaimDir(std::string dir, std::string worker_id = "",
                      double ttl_seconds = kDefaultClaimTtlSeconds);

    const std::string &workerId() const { return worker; }

    /** Path of a key's claim file (`<dir>/<key>.claim`). */
    std::string pathOf(uint64_t key) const;

    /**
     * Try to take the claim on @p key: O_EXCL-create the claim file
     * carrying this worker's id. When the file already exists but
     * its heartbeat is older than the TTL, the claim is stolen
     * (unlink, then one O_EXCL retry — losing the retry to another
     * stealer returns false). Returns true iff this worker now
     * holds the claim.
     */
    bool tryAcquire(uint64_t key);

    /**
     * Drop a claim this worker holds. Call after the job's result
     * is safely in the cache (store-then-release order is what
     * makes a completed job's claim irrelevant: the pool skips
     * cached jobs before ever looking at claims).
     */
    void release(uint64_t key);

    /**
     * Refresh the heartbeat (mtime) of every claim this worker
     * currently holds. Pulling threads call this on each queue
     * scan, so one live thread keeps the whole process's in-flight
     * claims fresh while siblings run long jobs.
     */
    void heartbeatHeld();

    /**
     * Whether a live worker holds @p key: its claim file exists and
     * its heartbeat is within the TTL. The claim may be released or
     * stolen right after, so observers use it for counts only.
     */
    bool live(uint64_t key) const;

    /**
     * Remove a *stale* claim on @p key without taking it — cleanup
     * for claims orphaned by a worker that died after caching its
     * result but before releasing (the pool never re-runs such a
     * job, so nobody would ever steal-and-release it). Fresh
     * claims are left alone. Returns true when a stale claim was
     * removed.
     */
    bool sweepIfStale(uint64_t key);

    /** Publish this worker's telemetry next to its claim files
     * (obs/telemetry.hh): @p jobs_run jobs in @p seconds, plus
     * @p cache's hit rate and the claim counts. Observability
     * only; nothing reads it back into results. */
    void publishTelemetry(const ResultCache &cache, uint64_t jobs_run,
                          double seconds) const;

    /** @name Statistics (since construction) */
    /**@{*/
    size_t acquired() const { return nAcquired.load(); }
    size_t stolen() const { return nStolen.load(); }
    /**@}*/

  private:
    std::string dir;
    std::string worker;
    double ttl;
    std::atomic<size_t> nAcquired{0};
    std::atomic<size_t> nStolen{0};
    mutable Mutex heldMutex;
    /** Keys this worker currently holds (heartbeat targets). */
    std::set<uint64_t> held GUARDED_BY(heldMutex);

    /** Age in seconds of the claim file at @p path; negative when
     * the file does not exist. */
    double claimAge(const std::string &path) const;
    /** Plain O_EXCL create attempt (no steal logic). */
    bool createClaim(const std::string &path) const;
};

/** One pool entry a ClaimedQueue schedules. */
struct PoolJob
{
    /** Cache/claim key of the job. */
    uint64_t key = 0;
    /** Caller's index for the job (position in its own job list). */
    size_t index = 0;
    /** Estimated relative cost (JobCostModel units); the queue
     * hands out claimable jobs in descending cost order so the
     * fleet drains without a long-tail straggler. */
    double cost = 0.0;
};

/**
 * The shared-pool scheduler of a worker process: pulls the next
 * runnable job of the pool, coordinating with peer processes
 * through the cache (completed jobs) and the ClaimDir (in-flight
 * jobs). Thread-safe; all worker threads of one process share one
 * queue.
 */
class ClaimedQueue
{
  public:
    /** What a pull produced. */
    enum class Pull
    {
        Job,     //!< @p index is yours to run: claim held
        Wait,    //!< live peers hold every remaining job; retry
        Drained, //!< every pool job's result is in the cache
    };

    /**
     * Build over @p cache and @p claims (both outlive the queue).
     * @p jobs is the pool; it is scheduled in descending cost
     * order regardless of input order.
     */
    ClaimedQueue(const ResultCache &cache, ClaimDir &claims,
                 std::vector<PoolJob> jobs);

    /**
     * Pull the next runnable job. On Pull::Job, @p out_index is
     * the caller-side index of a job this worker now holds the
     * claim for: run it, store the result in the cache, then call
     * complete(). On Pull::Wait, sleep briefly and pull again — a
     * peer death turns Wait into Job once its claim passes the
     * TTL. Heartbeats all claims held by this process.
     */
    Pull next(size_t &out_index);

    /**
     * Mark the job pulled as @p index done: releases its claim.
     * The result must already be in the cache (store first,
     * release second).
     */
    void complete(size_t index);

    /** Pool jobs not yet observed cached by this queue (includes
     * jobs currently running anywhere). */
    size_t pending() const;

    /** Jobs this queue observed leaving the pool because a peer
     * cached their result (vs ran locally). */
    size_t completedByPeers() const { return nPeer.load(); }

  private:
    const ResultCache &cache;
    ClaimDir &claims;
    /** Pool entries in descending cost order, with bookkeeping. */
    struct Entry
    {
        PoolJob job;
        /** Result observed in the cache (done, whoever ran it). */
        bool done = false;
        /** Pulled by a thread of this process and not completed
         * yet (never handed out twice locally). */
        bool running = false;
    };
    mutable Mutex mutex;
    /** The pool, in descending cost order. */
    std::vector<Entry> entries GUARDED_BY(mutex);
    std::atomic<size_t> nPeer{0};
};

} // namespace mprobe

#endif // CAMPAIGN_CLAIMS_HH
