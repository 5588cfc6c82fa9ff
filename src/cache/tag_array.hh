/**
 * @file
 * Generic set-associative tag array.
 *
 * TagArray is the storage substrate shared by the private caches, the
 * non-inclusive LLC, and the Excl-MLC directory. It stores one packed
 * 8-byte slot word per (set, way), performs lookups by cacheline
 * address, and delegates victim choice to a ReplacementPolicy with
 * masked candidate sets.
 */

#ifndef IDIO_CACHE_TAG_ARRAY_HH
#define IDIO_CACHE_TAG_ARRAY_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cache/replacement.hh"
#include "mem/addr.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace cache
{

/**
 * Decoded state of one cacheline slot (a value, not storage: the
 * array keeps the packed slot word, see SlotBits).
 *
 * `io` is a sticky provenance bit: set when the line was produced by a
 * DMA write and carried along as the line migrates between levels. It
 * feeds the DMA-bloating occupancy statistics (paper Sec. III, Obs. 3).
 */
struct CacheLine
{
    sim::Addr addr = 0; ///< cacheline-aligned address
    bool valid = false;
    bool dirty = false;
    bool io = false;

    /**
     * Set on MLC lines installed by an IDIO prefetch and cleared on
     * the first demand hit; feeds the CPU-paced prefetcher's
     * outstanding-line accounting.
     */
    bool prefetched = false;

    /**
     * Set on LLC lines placed by a DDIO write-allocation and cleared
     * when the line leaves or the partition shrinks past it. The
     * invariant checker uses it to prove write-allocations stay
     * confined to the configured DDIO ways.
     */
    bool ddioAlloc = false;
};

/**
 * Layout of a slot word: the line-aligned address in bits 63..6 and
 * the state flags in the always-zero line-offset bits. An invalid slot
 * keeps its (stale) address and sets `invalid`, so it can never equal
 * a line-aligned probe under keyMask.
 */
namespace SlotBits
{
inline constexpr std::uint64_t invalid = 1u << 0;
inline constexpr std::uint64_t dirty = 1u << 1;
inline constexpr std::uint64_t io = 1u << 2;
inline constexpr std::uint64_t prefetched = 1u << 3;
inline constexpr std::uint64_t ddioAlloc = 1u << 4;
/** Bits a lookup compares: the address plus `invalid`. */
inline constexpr std::uint64_t keyMask =
    ~(dirty | io | prefetched | ddioAlloc);
/** Every flag; the other line-offset bits of a slot word are 0. */
inline constexpr std::uint64_t flagMask =
    invalid | dirty | io | prefetched | ddioAlloc;
static_assert(mem::lineSize >= 32, "flags must fit the offset bits");

constexpr CacheLine
decode(std::uint64_t w)
{
    return CacheLine{mem::lineAlign(w), (w & invalid) == 0,
                     (w & dirty) != 0, (w & io) != 0,
                     (w & prefetched) != 0, (w & ddioAlloc) != 0};
}
} // namespace SlotBits

/**
 * Location of a line inside a TagArray plus accessors on its slot
 * word. A null LineRef (lookup miss) refers to no slot.
 */
struct LineRef
{
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    std::uint64_t *word = nullptr;

    explicit operator bool() const { return word != nullptr; }

    /** @{ Decoded fields of the referenced slot. */
    sim::Addr addr() const { return mem::lineAlign(*word); }
    bool valid() const { return !(*word & SlotBits::invalid); }
    bool dirty() const { return *word & SlotBits::dirty; }
    bool io() const { return *word & SlotBits::io; }
    bool prefetched() const { return *word & SlotBits::prefetched; }
    bool ddioAlloc() const { return *word & SlotBits::ddioAlloc; }
    CacheLine line() const { return SlotBits::decode(*word); }
    /** @} */

    /**
     * @{ Flag setters; the address and validity never change here.
     * const like a pointer: they write the slot, not the reference.
     */
    void setDirty(bool v) const { setBit(SlotBits::dirty, v); }
    void setIo(bool v) const { setBit(SlotBits::io, v); }
    void setPrefetched(bool v) const { setBit(SlotBits::prefetched, v); }
    void setDdioAlloc(bool v) const { setBit(SlotBits::ddioAlloc, v); }
    /** @} */

  private:
    void
    setBit(std::uint64_t bit, bool v) const
    {
        *word = v ? (*word | bit) : (*word & ~bit);
    }
};

/**
 * Exact `n % d` for a 32-bit divisor and any cacheline number n
 * (n < 2^58, since lines are 64 B) without a division: with
 * k = max(58 + ceil(log2 d), 64) and m = ceil(2^k / d), floor(n / d)
 * equals floor(n * m / 2^k) for every such n (Granlund & Montgomery,
 * "Division by invariant integers using multiplication", Thm. 4.2),
 * and m fits in 64 bits whenever d is not a power of two.
 */
class SetReducer
{
  public:
    /** Bits of a cacheline number. */
    static constexpr unsigned lineBits = 64 - mem::lineShift;

    SetReducer() = default;

    /** @p d must be >= 3 and not a power of two (those take a mask). */
    explicit SetReducer(std::uint32_t d);

    std::uint32_t
    operator()(std::uint64_t line) const
    {
        const auto q = static_cast<std::uint64_t>(
                           (static_cast<unsigned __int128>(line) * mul) >>
                           64) >>
                       shift;
        return static_cast<std::uint32_t>(line - q * div);
    }

  private:
    std::uint64_t mul = 0;
    std::uint64_t div = 1;
    unsigned shift = 0; ///< k - 64
};

/**
 * Set-associative array of packed slot words.
 */
class TagArray
{
  public:
    /**
     * @param sizeBytes Total capacity (must be numSets*assoc*64).
     * @param assoc Ways per set, in [1, 64].
     * @param policy Replacement policy (owned).
     */
    TagArray(std::uint64_t sizeBytes, std::uint32_t assoc,
             std::unique_ptr<ReplacementPolicy> policy);

    /** Construct with an explicit set count instead of a byte size. */
    static TagArray withSets(std::uint32_t numSets, std::uint32_t assoc,
                             std::unique_ptr<ReplacementPolicy> policy);

    /** fatal() unless @p assoc is in [1, 64] (the WayMask width). */
    static void checkAssoc(std::uint32_t assoc);

    std::uint32_t numSets() const { return nSets; }
    std::uint32_t assoc() const { return nWays; }
    std::uint64_t capacityBytes() const
    {
        return std::uint64_t(nSets) * nWays * mem::lineSize;
    }

    /**
     * Set index for an address. Power-of-two set counts (every Table I
     * geometry) take a bitmask; others (coverage-scaled directories)
     * an exact multiply-shift reduction.
     */
    std::uint32_t
    setIndex(sim::Addr addr) const
    {
        const std::uint64_t line = mem::lineNumber(addr);
        if (setsPow2)
            return static_cast<std::uint32_t>(line & setMask);
        return reduce(line);
    }

    /**
     * Find a valid line matching @p addr; LineRef is null on miss.
     * One masked compare per way over the set's contiguous slot words.
     */
    LineRef
    lookup(sim::Addr addr)
    {
        addr = mem::lineAlign(addr);
        const std::uint32_t set = setIndex(addr);
        std::uint64_t *s = setWords(set);
        const std::uint32_t w = findWay(s, addr);
        return w < nWays ? LineRef{set, w, s + w} : LineRef{set, 0, nullptr};
    }

    /** Slot index (set * assoc + way) of @p addr, or npos on a miss. */
    std::size_t
    find(sim::Addr addr) const
    {
        addr = mem::lineAlign(addr);
        const std::uint32_t set = setIndex(addr);
        const std::uint32_t w = findWay(setWords(set), addr);
        return w < nWays ? std::size_t(set) * nWays + w : npos;
    }

    static constexpr std::size_t npos = ~std::size_t(0);

    /** True when a valid line matches @p addr. */
    bool contains(sim::Addr addr) const { return find(addr) != npos; }

    /** Record a use of an existing line. */
    void
    touch(const LineRef &ref)
    {
        if (lruFast)
            lruFast->touchFast(ref.set, ref.way);
        else
            policy->touch(ref.set, ref.way);
    }

    /**
     * Choose a slot for a new fill of @p addr among @p candidates:
     * the lowest-index invalid candidate way if one exists (an O(1)
     * pick from the per-set free-way bitmask), else the policy victim.
     * The returned slot may hold a valid line the caller must evict.
     */
    LineRef
    findFillSlot(sim::Addr addr, WayMask candidates = ~WayMask(0))
    {
        return fillSlotIn(setIndex(addr), candidates);
    }

    /** Outcome of lookupOrFillSlot. */
    struct Probe
    {
        LineRef slot; ///< the hit, else the fill slot
        bool hit = false;
    };

    /**
     * lookup() and, on a miss, findFillSlot() for one set-index
     * computation and one scan: same hit, same slot, same victim.
     */
    Probe
    lookupOrFillSlot(sim::Addr addr, WayMask candidates = ~WayMask(0))
    {
        addr = mem::lineAlign(addr);
        const std::uint32_t set = setIndex(addr);
        std::uint64_t *s = setWords(set);
        const std::uint32_t w = findWay(s, addr);
        if (w < nWays)
            return {LineRef{set, w, s + w}, true};
        return {fillSlotIn(set, candidates), false};
    }

    /**
     * Install @p addr into @p slot (which the caller already emptied or
     * chose to overwrite) and inform the policy. Clears every other
     * flag; the caller sets prefetched/ddioAlloc through @p slot.
     */
    void
    fill(const LineRef &slot, sim::Addr addr, bool dirty, bool io)
    {
        *slot.word = mem::lineAlign(addr) | (dirty ? SlotBits::dirty : 0) |
                     (io ? SlotBits::io : 0);
        freeWays[slot.set] &= ~(WayMask(1) << slot.way);
        // LruPolicy::fill == touch; skip the two virtual hops.
        if (lruFast)
            lruFast->touchFast(slot.set, slot.way);
        else
            policy->fill(slot.set, slot.way);
    }

    /** Invalidate the line in @p slot (its address stays, stale). */
    void
    invalidate(const LineRef &slot)
    {
        *slot.word = mem::lineAlign(*slot.word) | SlotBits::invalid;
        freeWays[slot.set] |= WayMask(1) << slot.way;
    }

    /** Reference to slot (set, way), valid or not. */
    LineRef
    slotAt(std::uint32_t set, std::uint32_t way)
    {
        return LineRef{set, way, &slots[std::size_t(set) * nWays + way]};
    }

    /** Decoded state of slot (set, way). */
    CacheLine
    lineAt(std::uint32_t set, std::uint32_t way) const
    {
        return SlotBits::decode(slots[std::size_t(set) * nWays + way]);
    }

    /** Count valid lines satisfying @p pred (pred may be null = all). */
    std::uint64_t
    countValid(const std::function<bool(const CacheLine &,
                                        std::uint32_t way)> &pred = {})
        const;

    /** Invalidate every line. */
    void clear();

    /** The replacement policy (for tests). */
    ReplacementPolicy &replacementPolicy() { return *policy; }

    /** The LRU policy, or null when the array uses another one. */
    const LruPolicy *lru() const { return lruFast; }

    /**
     * @{ Checkpoint the array contents plus the policy state: the
     * geometry, then the slot words and @p sharers (one mask per
     * slot, the directory's; empty for a cache) as plain-data
     * vectors, then the policy's state (LRU: its age words). The
     * geometry is structural (rebuilt from config); unserialize
     * validates it and the slot words, fills @p sharers (a
     * non-directory array rejects any masks) and recomputes the
     * free-way masks.
     */
    void serialize(ckpt::Serializer &s,
                   std::span<const std::uint64_t> sharers = {}) const;
    void unserialize(ckpt::Deserializer &d,
                     std::span<std::uint64_t> sharers = {});
    /** @} */

  private:
    TagArray(std::uint32_t numSets, std::uint32_t assoc,
             std::unique_ptr<ReplacementPolicy> policy, int);

    std::uint64_t *setWords(std::uint32_t set)
    {
        return &slots[std::size_t(set) * nWays];
    }
    const std::uint64_t *setWords(std::uint32_t set) const
    {
        return &slots[std::size_t(set) * nWays];
    }

    /** Way of the valid slot in @p s equal to @p line, else nWays. */
    std::uint32_t
    findWay(const std::uint64_t *s, sim::Addr line) const
    {
        for (std::uint32_t w = 0; w < nWays; ++w) {
            if ((s[w] & SlotBits::keyMask) == line)
                return w;
        }
        return nWays;
    }

    LineRef
    fillSlotIn(std::uint32_t set, WayMask candidates)
    {
        candidates &= lowWays(nWays);
        SIM_ASSERT(candidates != 0, "no candidate ways for fill");

        const WayMask free = candidates & freeWays[set];
        const std::uint32_t w =
            free != 0 ? static_cast<std::uint32_t>(std::countr_zero(free))
            : lruFast ? lruFast->victimFast(set, candidates)
                      : policy->victim(set, candidates);
        return slotAt(set, w);
    }

    std::uint32_t nSets;
    std::uint32_t nWays;
    bool setsPow2;          ///< nSets is a power of two
    std::uint32_t setMask;  ///< nSets - 1, valid when setsPow2
    SetReducer reduce;      ///< line % nSets, valid when !setsPow2
    std::unique_ptr<ReplacementPolicy> policy;

    /**
     * Non-null when the policy is the default LRU: touch/victim/fill
     * on the lookup hot path then go through LruPolicy's non-virtual
     * fast entry points instead of an indirect call per access.
     */
    LruPolicy *lruFast = nullptr;

    std::vector<std::uint64_t> slots;  ///< numSets * assoc slot words
    std::vector<WayMask> freeWays;     ///< per set: bit w = way invalid
};

} // namespace cache

#endif // IDIO_CACHE_TAG_ARRAY_HH
