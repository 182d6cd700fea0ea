/**
 * @file
 * Claim-file registry and shared-pool queue implementation.
 */

#include "campaign/claims.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace mprobe
{

namespace fs = std::filesystem;

std::string
defaultWorkerId()
{
    char host[256] = "unknown";
    // gethostname may leave the buffer unterminated on truncation.
    if (::gethostname(host, sizeof host - 1) != 0)
        std::snprintf(host, sizeof host, "unknown");
    host[sizeof host - 1] = '\0';
    return cat(host, ":", ::getpid());
}

ClaimDir::ClaimDir(std::string d, std::string worker_id,
                   double ttl_seconds)
    : dir(std::move(d)), worker(std::move(worker_id)),
      ttl(ttl_seconds)
{
    if (worker.empty())
        worker = defaultWorkerId();
    if (ttl <= 0.0)
        fatal(cat("claims: TTL must be > 0 seconds, got ", ttl));
    if (dir.empty())
        fatal("claims: no claim directory (claims live in the "
              "campaign's shared cache directory)");
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal(cat("claims: cannot create claim directory '", dir,
                  "': ", ec.message()));
}

std::string
ClaimDir::pathOf(uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.claim",
                  static_cast<unsigned long long>(key));
    return dir + "/" + name;
}

double
ClaimDir::claimAge(const std::string &path) const
{
    std::error_code ec;
    auto mtime = fs::last_write_time(path, ec);
    if (ec)
        return -1.0;
    auto now = fs::file_time_type::clock::now();
    return std::chrono::duration<double>(now - mtime).count();
}

bool
ClaimDir::createClaim(const std::string &path) const
{
    // O_EXCL is the atom: exactly one creator wins, on local
    // filesystems and (unlike lockfiles relying on advisory locks)
    // on the network filesystems a fleet shares.
    int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY,
                    0644);
    if (fd < 0)
        return false;
    std::string content = cat("claim v1\nworker ", worker, "\n");
    // A short write leaves a claim whose worker line is truncated;
    // observers only print that id, so it degrades a log line, not
    // correctness (the mtime heartbeat is metadata, not content).
    ssize_t n =
        ::write(fd, content.data(), content.size());
    (void)n;
    ::close(fd);
    return true;
}

bool
ClaimDir::tryAcquire(uint64_t key)
{
    std::string path = pathOf(key);
    bool stole = false;
    if (!createClaim(path)) {
        double age = claimAge(path);
        // age < 0: the claim vanished between create and stat (its
        // holder released); retry once like a steal, without
        // unlinking anything.
        if (age >= 0.0 && age <= ttl)
            return false; // fresh claim: a live peer owns the job
        if (age > ttl) {
            // Stale: the holder is presumed dead. Unlink-then-
            // create races with other stealers; exactly one wins
            // the O_EXCL retry. (A loser observing this *new*
            // claim sees a fresh mtime and backs off.)
            std::error_code ec;
            fs::remove(path, ec);
            stole = true;
        }
        if (!createClaim(path))
            return false;
    }
    ++nAcquired;
    obs::counter("claims_acquired").add();
    obs::traceInstant(stole ? "claim.steal" : "claim.acquire");
    if (stole) {
        ++nStolen;
        obs::counter("claims_stolen").add();
    }
    {
        MutexLock lock(heldMutex);
        held.insert(key);
    }
    return true;
}

void
ClaimDir::release(uint64_t key)
{
    {
        MutexLock lock(heldMutex);
        held.erase(key);
    }
    std::error_code ec;
    fs::remove(pathOf(key), ec);
    if (ec)
        warn(cat("claims: cannot release ", pathOf(key), ": ",
                 ec.message(),
                 " — peers will treat the job as in-flight until "
                 "the claim expires"));
}

void
ClaimDir::heartbeatHeld()
{
    std::vector<uint64_t> keys;
    {
        MutexLock lock(heldMutex);
        keys.assign(held.begin(), held.end());
    }
    if (!keys.empty())
        obs::traceInstant("claim.heartbeat", "held",
                          static_cast<double>(keys.size()));
    for (uint64_t key : keys) {
        std::error_code ec;
        fs::last_write_time(pathOf(key),
                            fs::file_time_type::clock::now(), ec);
        // A failed heartbeat (claim stolen after a long stall, or
        // dir trouble) is not fatal here: the job's eventual cache
        // store is still valid, identical to the thief's.
    }
}

bool
ClaimDir::live(uint64_t key) const
{
    double age = claimAge(pathOf(key));
    return age >= 0.0 && age <= ttl;
}

bool
ClaimDir::sweepIfStale(uint64_t key)
{
    std::string path = pathOf(key);
    double age = claimAge(path);
    if (age <= ttl)
        return false;
    std::error_code ec;
    return fs::remove(path, ec) && !ec;
}

void
ClaimDir::publishTelemetry(const ResultCache &cache, uint64_t jobs_run,
                           double seconds) const
{
    obs::WorkerTelemetry t;
    t.worker = worker;
    t.jobs = jobs_run;
    t.hits = cache.hits();
    t.acquired = acquired();
    t.stolen = stolen();
    t.seconds = seconds;
    t.jobsPerSecond =
        seconds > 0.0 ? static_cast<double>(jobs_run) / seconds : 0.0;
    size_t looked = cache.hits() + cache.misses();
    t.hitRate = looked > 0 ? static_cast<double>(cache.hits()) /
                                 static_cast<double>(looked)
                           : 0.0;
    obs::writeWorkerTelemetry(dir, t);
}

// ----------------------------------------------------------------
// ClaimedQueue

ClaimedQueue::ClaimedQueue(const ResultCache &c, ClaimDir &cl,
                           std::vector<PoolJob> jobs)
    : cache(c), claims(cl)
{
    MutexLock lock(mutex);
    for (const PoolJob &j : jobs)
        entries.push_back({j, false, false});
    // Descending cost, ties by ascending key for a pull order that
    // does not depend on the input order.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &a, const Entry &b) {
                         if (a.job.cost != b.job.cost)
                             return a.job.cost > b.job.cost;
                         return a.job.key < b.job.key;
                     });
}

ClaimedQueue::Pull
ClaimedQueue::next(size_t &out_index)
{
    // One live pulling thread keeps every in-flight claim of this
    // process fresh, so siblings running jobs longer than the scan
    // interval are not stolen from.
    claims.heartbeatHeld();
    MutexLock lock(mutex);
    bool any_open = false;
    for (Entry &e : entries) {
        if (e.done)
            continue;
        if (e.running) {
            any_open = true;
            continue;
        }
        if (cache.contains(e.job.key)) {
            // A peer finished this job. A stale claim left on a
            // cached job (its worker died between store and
            // release) would otherwise linger forever: nothing
            // re-runs a cached job, so nothing would release it.
            e.done = true;
            ++nPeer;
            claims.sweepIfStale(e.job.key);
            continue;
        }
        if (claims.tryAcquire(e.job.key)) {
            e.running = true;
            out_index = e.job.index;
            return Pull::Job;
        }
        any_open = true; // claimed by a live peer; revisit later
    }
    return any_open ? Pull::Wait : Pull::Drained;
}

void
ClaimedQueue::complete(size_t index)
{
    MutexLock lock(mutex);
    for (Entry &e : entries) {
        if (e.job.index != index || !e.running)
            continue;
        e.running = false;
        e.done = true;
        claims.release(e.job.key);
        return;
    }
    panic(cat("claims: complete(", index,
              ") without a matching running pool job"));
}

size_t
ClaimedQueue::pending() const
{
    MutexLock lock(mutex);
    size_t n = 0;
    for (const Entry &e : entries)
        if (!e.done)
            ++n;
    return n;
}

} // namespace mprobe
