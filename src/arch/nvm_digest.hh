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
 */

#ifndef SONIC_ARCH_NVM_DIGEST_HH
#define SONIC_ARCH_NVM_DIGEST_HH

#include "util/types.hh"

namespace sonic::arch
{

/** 64-bit FNV-1a accumulator over 64-bit words. */
class NvmDigest
{
  public:
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

    /** Fold a signed integral element (sign-extended, then widened). */
    template <typename T>
    void
    element(T v)
    {
        word(static_cast<u64>(static_cast<i64>(v)));
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
    static constexpr u64 kOffset = 0xcbf29ce484222325ull;
    static constexpr u64 kPrime = 0x00000100000001b3ull;

    u64 state_ = kOffset;
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
