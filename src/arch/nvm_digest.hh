/**
 * @file
 * Rolling digests of the device's non-volatile region.
 *
 * The verification oracle (src/verify) needs to ask "is the FRAM state
 * of this run the FRAM state of that run?" cheaply and at many points —
 * most importantly at every reboot boundary, so a crash-consistency bug
 * is localized to the reboot where it corrupted state instead of being
 * smeared into the final logits. NvmDigest is a 64-bit FNV-1a
 * accumulator fed element-wise (not byte-wise, so digests are
 * endianness-independent and safe to commit as golden files);
 * NvmDigestible is the interface non-volatile memory handles implement
 * so a Device can walk its FRAM registry in registration order.
 *
 * Digesting is strictly pull-based: nothing on the Device::consume hot
 * path ever touches a digest. A Device only walks the registry when
 * Device::nvmDigest() is called (by the oracle's RebootDigestProbe or
 * by host tooling), so the feature costs one pointer push_back per
 * NvArray/NvVar construction when unused.
 *
 * Folding a fixed octet string is affine in the entering state. With
 * P the FNV prime and everything mod 2^64, folding n fixed octets maps
 * a state s to
 *
 *     s * P^n + c[s mod 256]
 *
 * for a 256-entry table c that depends only on the octets. Proof: for
 * an octet b, x ^ b = x + ((x mod 256) ^ b) - (x mod 256), so each
 * step multiplies by P and adds a term that depends only on the low
 * octet; and the low octet of s * P^k + c[s mod 256] depends only on
 * s mod 256. Two things use this without changing any digest:
 * NvmDigest::element folds the six (or more) identical sign-extension
 * octets of a narrow value in one multiply-add, and FixedFold folds a
 * whole region that no run writes (a model's weights, arch/memory.hh)
 * in one multiply-add once it has walked it from the same low octet.
 */

#ifndef SONIC_ARCH_NVM_DIGEST_HH
#define SONIC_ARCH_NVM_DIGEST_HH

#include <array>
#include <atomic>
#include <type_traits>

#include "util/types.hh"

namespace sonic::arch
{

namespace detail
{

inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr u64 kFnvPrime = 0x00000100000001b3ull;

/** The fold of n 0xFF octets as the map s -> s * scale + add[s mod 256]. */
struct OnesFold
{
    u64 scale = 1;
    std::array<u64, 256> add{};
};

constexpr OnesFold
onesFold(u32 n)
{
    OnesFold f;
    for (u32 i = 0; i < n; ++i)
        f.scale *= kFnvPrime;
    for (u64 low = 0; low < 256; ++low) {
        u64 s = low;
        for (u32 i = 0; i < n; ++i)
            s = (s ^ 0xffu) * kFnvPrime;
        f.add[low] = s - low * f.scale;
    }
    return f;
}

template <u32 N>
inline constexpr OnesFold kOnesFold = onesFold(N);

} // namespace detail

/** 64-bit FNV-1a accumulator over 64-bit words. */
class NvmDigest
{
  public:
    NvmDigest() = default;

    /** Resume from a state another digest reached (value()). */
    explicit NvmDigest(u64 state) : state_(state) {}

    /** Fold one word into the digest. */
    void
    word(u64 v)
    {
        // FNV-1a, one octet at a time so every bit of v lands in a
        // different multiply (plain h ^= v would cancel structure).
        for (u32 i = 0; i < 8; ++i) {
            state_ ^= (v >> (8 * i)) & 0xffu;
            state_ *= kPrime;
        }
    }

    /**
     * Fold a signed integral element (sign-extended, then widened):
     * exactly word(static_cast<u64>(static_cast<i64>(v))). The octets
     * above sizeof(T) are all 0x00 (a multiply by P^k) or all 0xFF
     * (one multiply-add, see the file comment), so only the low
     * octets are walked.
     */
    template <typename T>
    void
    element(T v)
    {
        static_assert(std::is_integral_v<T>,
                      "the sign-extension shortcut needs an integral T");
        const u64 w = static_cast<u64>(static_cast<i64>(v));
        constexpr u32 kLow = sizeof(T) < 8 ? sizeof(T) : 8;
        for (u32 i = 0; i < kLow; ++i) {
            state_ ^= (w >> (8 * i)) & 0xffu;
            state_ *= kPrime;
        }
        if constexpr (kLow < 8) {
            constexpr const detail::OnesFold &high =
                detail::kOnesFold<8 - kLow>;
            state_ = static_cast<i64>(w) < 0
                ? state_ * high.scale + high.add[state_ & 0xffu]
                : state_ * high.scale;
        }
    }

    u64 value() const { return state_; }

    /**
     * Chain two digests (e.g., a running per-reboot chain value and
     * the snapshot taken at this reboot) into one order-sensitive
     * summary.
     */
    static u64
    chain(u64 prev, u64 link)
    {
        NvmDigest d;
        d.word(prev);
        d.word(link);
        return d.value();
    }

  private:
    friend class FixedFold;

    static constexpr u64 kOffset = detail::kFnvOffset;
    static constexpr u64 kPrime = detail::kFnvPrime;

    u64 state_ = kOffset;
};

/**
 * The memoized fold of a fixed octet string: the digest of a region
 * whose contents never change. By the identity in the file comment,
 * folding the string is s -> s * P^n + c[s mod 256]; each c entry is
 * learned from the first walk entering with that low octet, so a miss
 * costs exactly the walk and a hit one multiply-add. Entries are
 * atomics: devices on different threads share one fold.
 */
class FixedFold
{
  public:
    /** The fold of a string of `octets` octets. */
    explicit FixedFold(u64 octets)
    {
        u64 base = NvmDigest::kPrime;
        for (u64 e = octets; e != 0; e >>= 1) {
            if (e & 1)
                scale_ *= base;
            base *= base;
        }
        for (u32 low = 0; low < 256; ++low) {
            add_[low].store(0, std::memory_order_relaxed);
            known_[low].store(false, std::memory_order_relaxed);
        }
    }

    FixedFold(const FixedFold &) = delete;
    FixedFold &operator=(const FixedFold &) = delete;

    /**
     * Fold the string into d. walk(d) must fold the very octets this
     * fold was built for; it runs only when d's low octet is new.
     */
    template <typename Walk>
    void
    apply(NvmDigest &d, Walk &&walk) const
    {
        const u64 s = d.state_;
        const u64 low = s & 0xffu;
        if (known_[low].load(std::memory_order_acquire)) {
            d.state_ = s * scale_ + add_[low].load(std::memory_order_relaxed);
            return;
        }
        walk(d);
        add_[low].store(d.state_ - s * scale_, std::memory_order_relaxed);
        known_[low].store(true, std::memory_order_release);
    }

  private:
    u64 scale_ = 1; ///< P^octets
    mutable std::array<std::atomic<u64>, 256> add_;
    mutable std::array<std::atomic<bool>, 256> known_;
};

/** Interface of one digestible non-volatile (FRAM) region. */
class NvmDigestible
{
  public:
    virtual ~NvmDigestible() = default;

    /** Fold the region's current contents (and extent) into d. */
    virtual void digestInto(NvmDigest &d) const = 0;
};

} // namespace sonic::arch

#endif // SONIC_ARCH_NVM_DIGEST_HH
