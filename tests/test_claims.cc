/**
 * @file
 * Tests for claim-based work stealing: atomic claim acquisition,
 * TTL expiry and theft, the ClaimedQueue pool semantics, and the
 * end-to-end guarantee that a --serve campaign (including one with
 * a dead peer's stale claims) exports byte-identically to a plain
 * run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/claims.hh"
#include "campaign/export.hh"
#include "util/logging.hh"

using namespace mprobe;

namespace
{

namespace fs = std::filesystem;

/** Fresh per-test directory. */
std::string
freshDir(const std::string &tag)
{
    std::string dir = testing::TempDir() + "mprobe-claims-" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Backdate a claim file's heartbeat by @p seconds. */
void
backdateClaim(const std::string &path, double seconds)
{
    auto stamp = fs::file_time_type::clock::now() -
                 std::chrono::duration_cast<
                     fs::file_time_type::duration>(
                     std::chrono::duration<double>(seconds));
    fs::last_write_time(path, stamp);
}

/** The worker id a claim file carries (its `worker` line). */
std::string
claimWorker(const std::string &path)
{
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("worker ", 0) == 0)
            return line.substr(7);
    return "";
}

TEST(Claims, AcquireReleaseReacquire)
{
    std::string dir = freshDir("acquire");
    ClaimDir claims(dir, "w1", 60.0);
    EXPECT_TRUE(claims.tryAcquire(42));
    EXPECT_TRUE(fs::exists(claims.pathOf(42)));
    // A fresh claim is not re-acquirable, not even by its holder
    // (pool entries are never handed out twice locally, so a
    // self-re-acquire attempt means a bug).
    EXPECT_FALSE(claims.tryAcquire(42));
    claims.release(42);
    EXPECT_FALSE(fs::exists(claims.pathOf(42)));
    EXPECT_TRUE(claims.tryAcquire(42));
    EXPECT_EQ(claims.acquired(), 2u);
    EXPECT_EQ(claims.stolen(), 0u);
}

TEST(Claims, ClaimFileCarriesWorkerId)
{
    std::string dir = freshDir("id");
    ClaimDir claims(dir, "host-a:123", 60.0);
    ASSERT_TRUE(claims.tryAcquire(7));
    EXPECT_EQ(claimWorker(claims.pathOf(7)), "host-a:123");
}

TEST(Claims, LiveMeansFreshHeartbeat)
{
    std::string dir = freshDir("live");
    ClaimDir holder(dir, "holder", 60.0);
    ClaimDir observer(dir, "observer", 60.0);
    EXPECT_FALSE(observer.live(8)); // no claim file
    ASSERT_TRUE(holder.tryAcquire(8));
    EXPECT_TRUE(observer.live(8));
    backdateClaim(holder.pathOf(8), 120.0);
    EXPECT_FALSE(observer.live(8)); // heartbeat past the TTL
    holder.heartbeatHeld();
    EXPECT_TRUE(observer.live(8));
    holder.release(8);
    EXPECT_FALSE(observer.live(8));
}

TEST(Claims, RaceExactlyOneWinner)
{
    std::string dir = freshDir("race");
    const int n = 8;
    std::vector<std::unique_ptr<ClaimDir>> dirs;
    for (int i = 0; i < n; ++i)
        dirs.push_back(std::make_unique<ClaimDir>(
            dir, cat("w", i), 60.0));
    // All threads spin on a flag so the open(O_EXCL) calls land as
    // close together as the scheduler allows.
    std::atomic<bool> go{false};
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i)
        threads.emplace_back([&, i]() {
            while (!go.load())
                std::this_thread::yield();
            if (dirs[static_cast<size_t>(i)]->tryAcquire(99))
                ++winners;
        });
    go.store(true);
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(winners.load(), 1);
}

TEST(Claims, FreshClaimNotStolen)
{
    std::string dir = freshDir("fresh");
    ClaimDir a(dir, "alive", 60.0);
    ClaimDir b(dir, "thief", 60.0);
    ASSERT_TRUE(a.tryAcquire(1));
    EXPECT_FALSE(b.tryAcquire(1));
    EXPECT_EQ(b.stolen(), 0u);
    // The holder's identity survived the failed theft.
    EXPECT_EQ(claimWorker(b.pathOf(1)), "alive");
}

TEST(Claims, ExpiredClaimStolen)
{
    std::string dir = freshDir("steal");
    ClaimDir dead(dir, "dead", 60.0);
    ClaimDir thief(dir, "thief", 60.0);
    ASSERT_TRUE(dead.tryAcquire(5));
    backdateClaim(dead.pathOf(5), 120.0);
    EXPECT_TRUE(thief.tryAcquire(5));
    EXPECT_EQ(thief.stolen(), 1u);
    EXPECT_EQ(claimWorker(thief.pathOf(5)), "thief");
}

TEST(Claims, HeartbeatPreventsTheft)
{
    std::string dir = freshDir("heartbeat");
    ClaimDir holder(dir, "holder", 60.0);
    ClaimDir thief(dir, "thief", 60.0);
    ASSERT_TRUE(holder.tryAcquire(3));
    backdateClaim(holder.pathOf(3), 120.0);
    // The heartbeat refreshes the mtime of every held claim, so
    // the backdated (otherwise stale) claim becomes fresh again.
    holder.heartbeatHeld();
    EXPECT_FALSE(thief.tryAcquire(3));
}

TEST(Claims, SweepRemovesOnlyStale)
{
    std::string dir = freshDir("sweep");
    ClaimDir claims(dir, "w", 60.0);
    ClaimDir other(dir, "o", 60.0);
    ASSERT_TRUE(claims.tryAcquire(1));
    EXPECT_FALSE(other.sweepIfStale(1));
    EXPECT_TRUE(fs::exists(claims.pathOf(1)));
    backdateClaim(claims.pathOf(1), 120.0);
    EXPECT_TRUE(other.sweepIfStale(1));
    EXPECT_FALSE(fs::exists(claims.pathOf(1)));
    // Sweeping a key with no claim is a no-op.
    EXPECT_FALSE(other.sweepIfStale(1));
}

TEST(ClaimsDeath, EmptyDirRefused)
{
    // Claims live in the shared cache directory; there is no
    // claim-less mode.
    EXPECT_EXIT(ClaimDir("", "w", 60.0), testing::ExitedWithCode(1),
                "no claim directory");
}

/** A queue fixture: cache + claims over one fresh directory. */
struct QueueFixture
{
    std::string dir;
    ResultCache cache;
    ClaimDir claims;

    explicit QueueFixture(const std::string &tag,
                          double ttl = 60.0)
        : dir(freshDir(tag)), cache(dir), claims(dir, "me", ttl)
    {
    }

    Sample
    sample(uint64_t key) const
    {
        Sample s;
        s.workload = cat("wl-", key);
        s.config = {1, 1};
        s.powerWatts = static_cast<double>(key);
        return s;
    }
};

TEST(ClaimedQueue, DrainsInCostOrder)
{
    QueueFixture fx("order");
    ClaimedQueue queue(fx.cache, fx.claims,
                       {{1, 0, 1.0}, {2, 1, 8.0}, {3, 2, 4.0}});
    std::vector<size_t> order;
    size_t idx = 0;
    while (queue.next(idx) == ClaimedQueue::Pull::Job) {
        order.push_back(idx);
        fx.cache.store(static_cast<uint64_t>(idx) + 1,
                       fx.sample(static_cast<uint64_t>(idx) + 1));
        queue.complete(idx);
    }
    // Descending estimated cost: index 1 (cost 8), 2 (4), 0 (1).
    EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0}));
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
}

TEST(ClaimedQueue, SkipsCachedJobs)
{
    QueueFixture fx("cached");
    fx.cache.store(10, fx.sample(10));
    fx.cache.store(11, fx.sample(11));
    ClaimedQueue queue(fx.cache, fx.claims,
                       {{10, 0, 1.0}, {11, 1, 1.0}});
    size_t idx = 0;
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
    EXPECT_EQ(queue.completedByPeers(), 2u);
    // No claims were taken for pre-cached work.
    EXPECT_FALSE(fs::exists(fx.claims.pathOf(10)));
    EXPECT_FALSE(fs::exists(fx.claims.pathOf(11)));
}

TEST(ClaimedQueue, CompletedJobNeverRetaken)
{
    QueueFixture fx("done", 0.05);
    ClaimedQueue queue(fx.cache, fx.claims, {{20, 0, 1.0}});
    size_t idx = 0;
    ASSERT_EQ(queue.next(idx), ClaimedQueue::Pull::Job);
    fx.cache.store(20, fx.sample(20));
    queue.complete(idx);
    // Even after every TTL has long expired, a completed job's
    // result is in the cache and the pool never hands it out
    // again — to this queue or a fresh one.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
    ClaimedQueue fresh(fx.cache, fx.claims, {{20, 0, 1.0}});
    EXPECT_EQ(fresh.next(idx), ClaimedQueue::Pull::Drained);
}

TEST(ClaimedQueue, WaitsOnFreshPeerThenStealsStale)
{
    QueueFixture fx("peer", 0.05);
    // A "peer" (separate ClaimDir, same directory) holds the only
    // job.
    ClaimDir peer(fx.dir, "peer", 0.05);
    ASSERT_TRUE(peer.tryAcquire(30));
    ClaimedQueue queue(fx.cache, fx.claims, {{30, 0, 1.0}});
    size_t idx = 0;
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Wait);
    // Once the peer's heartbeat goes stale, the same pull steals.
    backdateClaim(peer.pathOf(30), 1.0);
    ASSERT_EQ(queue.next(idx), ClaimedQueue::Pull::Job);
    EXPECT_EQ(idx, 0u);
    EXPECT_EQ(fx.claims.stolen(), 1u);
    fx.cache.store(30, fx.sample(30));
    queue.complete(idx);
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
}

TEST(ClaimedQueue, SweepsOrphanClaimOnCachedJob)
{
    // A worker that died after caching its result but before
    // releasing leaves an orphan claim; the pool must not only
    // skip the job but also clean the stale orphan up.
    QueueFixture fx("orphan", 0.05);
    ClaimDir dead(fx.dir, "dead", 0.05);
    ASSERT_TRUE(dead.tryAcquire(40));
    fx.cache.store(40, fx.sample(40));
    backdateClaim(dead.pathOf(40), 1.0);
    ClaimedQueue queue(fx.cache, fx.claims, {{40, 0, 1.0}});
    size_t idx = 0;
    EXPECT_EQ(queue.next(idx), ClaimedQueue::Pull::Drained);
    EXPECT_FALSE(fs::exists(fx.claims.pathOf(40)));
}

/** Tiny campaign spec (mirrors test_campaign.cc). */
CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    spec.categories = {BenchCategory::Random};
    spec.suite.randomCount = 3;
    spec.suite.bodySize = 128;
    spec.bootstrap = false;
    spec.threads = 2;
    spec.configs = {{1, 1}, {2, 1}, {1, 2}};
    return spec;
}

std::string
csvOf(const std::vector<Sample> &samples)
{
    std::ostringstream os;
    exportSamplesCsv(os, samples);
    return os.str();
}

TEST(ServeCampaign, MatchesPlainRunByteForByte)
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine = arch.machine();

    CampaignSpec plain = tinySpec();
    plain.cacheDir = freshDir("serve-plain");
    Campaign ref(machine, plain);
    Architecture arch1 = arch;
    CampaignResult refRes = ref.run(arch1);

    CampaignSpec serve = tinySpec();
    serve.serve = true;
    serve.cacheDir = freshDir("serve-pool");
    serve.claimPollSeconds = 0.05;
    Campaign campaign(machine, serve);
    Architecture arch2 = arch;
    CampaignResult res = campaign.run(arch2);

    ASSERT_EQ(res.samples.size(), refRes.samples.size());
    EXPECT_EQ(csvOf(res.samples), csvOf(refRes.samples));
}

TEST(ServeCampaign, StealsPlantedStaleClaimAndCompletes)
{
    Architecture arch = Architecture::get("POWER7");
    Machine machine = arch.machine();

    CampaignSpec plain = tinySpec();
    plain.cacheDir = freshDir("steal-plain");
    Campaign ref(machine, plain);
    Architecture arch1 = arch;
    CampaignResult refRes = ref.run(arch1);

    // Simulate a dead worker: every job of the pool is "claimed"
    // by a worker whose heartbeats stopped long ago.
    CampaignSpec serve = tinySpec();
    serve.serve = true;
    serve.cacheDir = freshDir("steal-pool");
    serve.claimTtlSeconds = 0.05;
    serve.claimPollSeconds = 0.05;
    ClaimDir dead(serve.cacheDir, "dead-worker", 0.05);
    for (const CampaignJob &job : refRes.jobs) {
        ASSERT_TRUE(dead.tryAcquire(job.key));
        backdateClaim(dead.pathOf(job.key), 1.0);
    }

    Campaign campaign(machine, serve);
    Architecture arch2 = arch;
    CampaignResult res = campaign.run(arch2);
    ASSERT_EQ(res.samples.size(), refRes.samples.size());
    EXPECT_EQ(csvOf(res.samples), csvOf(refRes.samples));
}

} // namespace
