/**
 * @file
 * Cache replacement policies.
 *
 * Policies operate per set and support *masked* victim selection: the
 * LLC restricts DDIO write-allocations to the DDIO ways and (for the
 * Fig. 4 `*_1way` experiments) CPU allocations to a way-partition mask,
 * so a victim must be selected among an arbitrary subset of ways.
 */

#ifndef IDIO_CACHE_REPLACEMENT_HH
#define IDIO_CACHE_REPLACEMENT_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace ckpt
{
class Serializer;
class Deserializer;
}

namespace cache
{

/** Bitmask over the ways of one set (bit i = way i eligible). */
using WayMask = std::uint64_t;

/** Mask with the low @p n bits set. */
constexpr WayMask
lowWays(std::uint32_t n)
{
    return n >= 64 ? ~WayMask(0) : ((WayMask(1) << n) - 1);
}

/**
 * Concrete policy identity, so hot paths can devirtualize dispatch to
 * the common policy (see TagArray): callers compare kind() once at
 * construction and cache a concrete pointer instead of paying an
 * indirect call per touch/victim.
 */
enum class ReplKind
{
    Lru,
    Random,
    Srrip,
    Other,
};

/**
 * Abstract replacement policy.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Concrete kind, for devirtualized hot-path dispatch. */
    virtual ReplKind kind() const { return ReplKind::Other; }

    /**
     * Size the internal state.
     * @param numSets Sets in the array.
     * @param assoc Ways per set.
     */
    virtual void init(std::uint32_t numSets, std::uint32_t assoc) = 0;

    /** Record a use (hit or fill) of (set, way). */
    virtual void touch(std::uint32_t set, std::uint32_t way) = 0;

    /** Record a brand-new fill of (set, way). */
    virtual void
    fill(std::uint32_t set, std::uint32_t way)
    {
        touch(set, way);
    }

    /**
     * Choose a victim among the ways selected by @p candidates.
     * @p candidates is never 0.
     */
    virtual std::uint32_t victim(std::uint32_t set,
                                 WayMask candidates) = 0;

    /** Policy name for configuration echo. */
    virtual std::string name() const = 0;

    /** @{ Checkpoint the policy's dynamic state (default: none). */
    virtual void serialize(ckpt::Serializer &) const {}
    virtual void unserialize(ckpt::Deserializer &) {}
    /** @} */
};

/**
 * Least-recently-used via one recency age byte per way.
 *
 * Each set's ages are a permutation of 0..assoc-1, 0 the most recent,
 * packed eight to a 64-bit word: byte b of word i is way 8*i + b, and
 * a set owns ceil(assoc/8) consecutive words. Bytes past the last way
 * hold padAge, which no touch moves and no victim scan picks. Ages
 * start at assoc-1-w, so never-touched ways are older than every
 * touched one and the lowest never-touched way is the oldest: victims
 * equal those of a global use-stamp clock whose zero stamps tie-break
 * to the lowest way.
 */
class LruPolicy : public ReplacementPolicy
{
  public:
    /** Age of the padding bytes: above every real age (assoc <= 64). */
    static constexpr std::uint8_t padAge = 127;

    ReplKind kind() const override { return ReplKind::Lru; }
    void init(std::uint32_t numSets, std::uint32_t assoc) override;
    void touch(std::uint32_t set, std::uint32_t way) override
    {
        touchFast(set, way);
    }
    std::uint32_t victim(std::uint32_t set, WayMask candidates) override
    {
        return victimFast(set, candidates);
    }
    std::string name() const override { return "lru"; }

    /** @{ Non-virtual fast paths used by TagArray's devirtualized
     * dispatch (semantics identical to the virtual entry points). */

    /**
     * Make @p way the most recent: every age below its age goes up by
     * one, eight bytes per word operation, then its age becomes 0.
     */
    void
    touchFast(std::uint32_t set, std::uint32_t way)
    {
        std::uint64_t *a = setAges(set);
        std::uint64_t &own = a[way >> 3];
        const unsigned shift = 8 * (way & 7);
        const std::uint64_t age = (own >> shift) & 0xff;
        // Every byte is < 0x80, so (x | 0x80) - age borrows across no
        // byte and leaves bit 7 clear exactly where x < age.
        for (std::uint32_t i = 0; i < wordsPerSet; ++i) {
            const std::uint64_t below =
                ~((a[i] | byteHigh) - age * byteOne) & byteHigh;
            a[i] += below >> 7;
        }
        own &= ~(std::uint64_t(0xff) << shift);
    }

    /** The candidate with the largest age (the least recent). */
    std::uint32_t
    victimFast(std::uint32_t set, WayMask candidates) const
    {
        candidates &= allWays;
        SIM_ASSERT(candidates != 0, "empty candidate mask");
        const std::uint64_t *a = setAges(set);
        if (candidates == allWays) {
            // The oldest way is the one byte equal to assoc-1; the
            // lowest flagged byte of the zero-byte test is exact.
            const std::uint64_t oldest = (assoc - 1) * byteOne;
            for (std::uint32_t i = 0; i < wordsPerSet; ++i) {
                const std::uint64_t x = a[i] ^ oldest;
                const std::uint64_t zero = (x - byteOne) & ~x & byteHigh;
                if (zero != 0)
                    return 8 * i + static_cast<std::uint32_t>(
                                       std::countr_zero(zero) >> 3);
            }
        }
        std::uint32_t best = 0;
        std::uint32_t bestAge = 0;
        for (WayMask m = candidates; m != 0; m &= m - 1) {
            const auto w =
                static_cast<std::uint32_t>(std::countr_zero(m));
            const std::uint32_t age = ageOf(a, w);
            if (age >= bestAge) {
                bestAge = age;
                best = w;
            }
        }
        return best;
    }
    /** @} */

    /** Age of (set, way): 0 = most recent, assoc-1 = least. */
    std::uint32_t
    age(std::uint32_t set, std::uint32_t way) const
    {
        return ageOf(setAges(set), way);
    }

    /**
     * True when @p set 's ages are a permutation of 0..assoc-1 and its
     * padding bytes hold padAge (the runtime invariant and the
     * checkpoint restore check).
     */
    bool agesArePermutation(std::uint32_t set) const;

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    friend struct LruPolicyTestAccess;

    static constexpr std::uint64_t byteOne = 0x0101010101010101ull;
    static constexpr std::uint64_t byteHigh = 0x8080808080808080ull;

    static std::uint32_t
    ageOf(const std::uint64_t *a, std::uint32_t way)
    {
        return static_cast<std::uint32_t>(
            (a[way >> 3] >> (8 * (way & 7))) & 0xff);
    }

    std::uint64_t *setAges(std::uint32_t set)
    {
        return &ages[std::size_t(set) * wordsPerSet];
    }
    const std::uint64_t *setAges(std::uint32_t set) const
    {
        return &ages[std::size_t(set) * wordsPerSet];
    }

    std::uint32_t assoc = 0;
    std::uint32_t wordsPerSet = 0; ///< ceil(assoc / 8)
    WayMask allWays = 0;           ///< lowWays(assoc)
    std::vector<std::uint64_t> ages; ///< numSets * wordsPerSet words
};

/**
 * Uniform random victim among candidates (deterministic seeded RNG).
 */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 7) : rng(seed) {}

    ReplKind kind() const override { return ReplKind::Random; }
    void init(std::uint32_t numSets, std::uint32_t assoc) override;
    void touch(std::uint32_t, std::uint32_t) override {}
    std::uint32_t victim(std::uint32_t set, WayMask candidates) override;
    std::string name() const override { return "random"; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    sim::Rng rng;
    std::uint32_t assoc = 0;
};

/**
 * Static re-reference interval prediction (SRRIP-HP, 2-bit RRPV).
 * Useful as an ablation against LRU in the LLC; DMA-bloating behaviour
 * is replacement-policy independent and the benches default to LRU.
 */
class SrripPolicy : public ReplacementPolicy
{
  public:
    explicit SrripPolicy(std::uint8_t bits = 2) : maxRrpv((1u << bits) - 1)
    {
    }

    ReplKind kind() const override { return ReplKind::Srrip; }
    void init(std::uint32_t numSets, std::uint32_t assoc) override;
    void touch(std::uint32_t set, std::uint32_t way) override;
    void fill(std::uint32_t set, std::uint32_t way) override;
    std::uint32_t victim(std::uint32_t set, WayMask candidates) override;
    std::string name() const override { return "srrip"; }

    void serialize(ckpt::Serializer &s) const override;
    void unserialize(ckpt::Deserializer &d) override;

  private:
    std::uint32_t maxRrpv;
    std::uint32_t assoc = 0;
    std::vector<std::uint8_t> rrpv; // numSets * assoc
};

/** Factory from a policy name ("lru", "random", "srrip"). */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(const std::string &name, std::uint64_t seed = 7);

} // namespace cache

#endif // IDIO_CACHE_REPLACEMENT_HH
