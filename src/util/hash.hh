/**
 * @file
 * Deterministic content hashing.
 *
 * One FNV-1a based hash used everywhere a stable 64-bit identity of
 * some content is needed: sensor-noise seeding, campaign result-cache
 * keys and parallel RNG stream derivation. Deliberately not
 * std::hash, whose values are unspecified across implementations —
 * cache files written on one platform must stay valid on another.
 */

#ifndef UTIL_HASH_HH
#define UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace mprobe
{

/** FNV-1a offset basis. */
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
/** FNV-1a prime. */
constexpr uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a over a byte range, continuing from @p h. */
uint64_t hashBytes(const void *data, size_t len,
                   uint64_t h = kFnvOffset);

/** FNV-1a of a string. */
uint64_t hashStr(const std::string &s);

/** Mix two hashes into one (order-sensitive). */
uint64_t hashCombine(uint64_t a, uint64_t b);

/**
 * Incremental hasher for structured content. Every add() feeds the
 * value's canonical byte representation, so the digest identifies
 * the full sequence of fields:
 *
 *     Hasher h;
 *     h.add(prog.name).add(cfg.cores).add(cfg.smt);
 *     uint64_t key = h.digest();
 */
class Hasher
{
  public:
    Hasher &add(uint64_t v);
    Hasher &add(int64_t v) { return add(static_cast<uint64_t>(v)); }
    Hasher &add(int v) { return add(static_cast<int64_t>(v)); }
    Hasher &add(bool v) { return add(static_cast<uint64_t>(v)); }
    /** Doubles hash by bit pattern; -0.0 is canonicalized to 0.0. */
    Hasher &add(double v);
    Hasher &add(float v) { return add(static_cast<double>(v)); }
    /** Strings hash length-prefixed so field boundaries matter. */
    Hasher &add(const std::string &s);

    uint64_t digest() const { return h; }

  private:
    uint64_t h = kFnvOffset;
};

/** The bit pattern a double hashes by; -0.0 hashes as 0.0. */
inline uint64_t
canonicalBits(double v)
{
    if (v == 0.0)
        v = 0.0; // collapse -0.0 and +0.0
    uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/**
 * Hashers continued from many states at once: every add() feeds all
 * lanes exactly the canonical bytes Hasher::add feeds one Hasher, so
 * a lane started from a Hasher's digest ends where that Hasher would
 * after the same adds. One FNV-1a chain is bound by its multiply's
 * latency, so the bytes are buffered in a fixed chunk and fed to
 * fixed blocks of 8 lanes whose chains interleave (the last
 * lanes % 8 run as one narrower block): the sequence is built once,
 * whatever the lane count, and never held whole.
 */
class LaneHasher
{
  public:
    /** One lane per start state, in order. */
    explicit LaneHasher(std::vector<uint64_t> starts)
        : lanes(std::move(starts))
    {
    }

    LaneHasher &
    add(uint64_t v)
    {
        if (kChunk - used < sizeof v)
            flush();
        std::memcpy(chunk + used, &v, sizeof v);
        used += sizeof v;
        return *this;
    }
    LaneHasher &add(int64_t v) { return add(static_cast<uint64_t>(v)); }
    LaneHasher &add(int v) { return add(static_cast<int64_t>(v)); }
    LaneHasher &add(double v) { return add(canonicalBits(v)); }
    LaneHasher &add(const std::string &s);

    /** Every lane's digest of the bytes added so far. */
    const std::vector<uint64_t> &digests();

  private:
    static constexpr size_t kChunk = 4096;

    /** Feed the buffered bytes to every lane. */
    void flush();

    std::vector<uint64_t> lanes;
    unsigned char chunk[kChunk];
    size_t used = 0;
};

} // namespace mprobe

#endif // UTIL_HASH_HH
