/**
 * @file
 * FNV-1a hashing implementation.
 */

#include "util/hash.hh"

#include <algorithm>
#include <cstring>

namespace mprobe
{

namespace
{

/** FNV-1a of @p len bytes continued from L states, the L chains
 * interleaved byte by byte so their multiplies overlap (L = 1 is
 * plain FNV-1a). */
template <size_t L>
void
hashBlock(const unsigned char *p, size_t len, uint64_t *lanes)
{
    uint64_t h[L];
    for (size_t j = 0; j < L; ++j)
        h[j] = lanes[j];
    for (size_t i = 0; i < len; ++i)
        for (size_t j = 0; j < L; ++j)
            h[j] = (h[j] ^ p[i]) * kFnvPrime;
    for (size_t j = 0; j < L; ++j)
        lanes[j] = h[j];
}

/** Lanes per interleaved block. */
constexpr size_t kLaneBlock = 8;

/** hashBlock over @p n lanes: full blocks, then the remainder in
 * the narrowest block that holds it (its padding lanes hash along
 * and are dropped). */
void
hashLanes(const unsigned char *p, size_t len, uint64_t *lanes,
          size_t n)
{
    size_t i = 0;
    for (; i + kLaneBlock <= n; i += kLaneBlock)
        hashBlock<kLaneBlock>(p, len, lanes + i);
    size_t rest = n - i;
    if (rest == 0)
        return;
    uint64_t tail[kLaneBlock] = {};
    std::memcpy(tail, lanes + i, rest * sizeof *tail);
    if (rest == 1)
        hashBlock<1>(p, len, tail);
    else if (rest == 2)
        hashBlock<2>(p, len, tail);
    else if (rest <= 4)
        hashBlock<4>(p, len, tail);
    else
        hashBlock<kLaneBlock>(p, len, tail);
    std::memcpy(lanes + i, tail, rest * sizeof *tail);
}

} // namespace

uint64_t
hashBytes(const void *data, size_t len, uint64_t h)
{
    hashBlock<1>(static_cast<const unsigned char *>(data), len, &h);
    return h;
}

uint64_t
hashStr(const std::string &s)
{
    return hashBytes(s.data(), s.size());
}

uint64_t
hashCombine(uint64_t a, uint64_t b)
{
    // Feed b's bytes into a as an FNV continuation, then avalanche
    // (splitmix64 finalizer) so similar inputs spread apart.
    uint64_t h = hashBytes(&b, sizeof b, a ^ kFnvOffset);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return h ^ (h >> 31);
}

Hasher &
Hasher::add(uint64_t v)
{
    h = hashBytes(&v, sizeof v, h);
    return *this;
}

Hasher &
Hasher::add(double v)
{
    return add(canonicalBits(v));
}

Hasher &
Hasher::add(const std::string &s)
{
    add(static_cast<uint64_t>(s.size()));
    h = hashBytes(s.data(), s.size(), h);
    return *this;
}

LaneHasher &
LaneHasher::add(const std::string &s)
{
    add(static_cast<uint64_t>(s.size()));
    for (size_t at = 0; at < s.size();) {
        if (used == kChunk)
            flush();
        size_t n = std::min(s.size() - at, kChunk - used);
        std::memcpy(chunk + used, s.data() + at, n);
        used += n;
        at += n;
    }
    return *this;
}

const std::vector<uint64_t> &
LaneHasher::digests()
{
    flush();
    return lanes;
}

void
LaneHasher::flush()
{
    hashLanes(chunk, used, lanes.data(), lanes.size());
    used = 0;
}

} // namespace mprobe
