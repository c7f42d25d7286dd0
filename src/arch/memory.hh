/**
 * @file
 * Typed memory handles bound to a Device.
 *
 * NvArray/NvVar model FRAM: contents persist across power failures and
 * every runtime access is charged (FramLoad/FramStore). Volatile state
 * has no handle: it lives in C++ locals that a PowerFailure unwinds, so
 * nothing in SRAM survives a reboot. Code that works on SRAM buffers
 * (TAILS, the LEA) charges SramLoad/SramStore itself.
 *
 * NvConstArray is read-only FRAM: a device's view of a FlashRegion
 * (a flashed model's weights) that every device running the model
 * shares. It is charged like an NvArray and has no write path.
 *
 * peek/poke accessors bypass charging; they model programming-time
 * initialization (flashing) and host-side result inspection, never
 * device-side computation.
 */

#ifndef SONIC_ARCH_MEMORY_HH
#define SONIC_ARCH_MEMORY_HH

#include <algorithm>
#include <string>
#include <vector>

#include "arch/device.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace sonic::arch
{

/**
 * What the FRAM arrays share: the allocation and digest registration
 * of n elements of T under a name, and the charged read path. NvArray
 * adds the write path over storage it owns; NvConstArray views
 * storage its caller owns and has no write path.
 */
template <typename T>
class NvRegion : public NvmDigestible
{
  public:
    NvRegion(const NvRegion &) = delete;
    NvRegion &operator=(const NvRegion &) = delete;

    /** Charged read of element i. */
    T
    read(u64 i) const
    {
        SONIC_DASSERT(i < size_, "FRAM array '", name_, "' read OOB");
        dev_.consume(Op::FramLoad, words());
        return data_[i];
    }

    /** @name Bulk span accessors
     * Charge n elements' worth of word accesses in a single consume
     * call (one power-supply interaction instead of n), with identical
     * cycle/energy/op-count totals to n single accesses. A span is
     * atomic: PowerFailure is thrown before any element transfers, so
     * callers must only use spans where an all-or-nothing unit is
     * acceptable (write-once/idempotent loops — see the kernels).
     */
    /// @{

    /** Charged bulk read of [base, base+n) into out. */
    void
    readRange(u64 base, u64 n, T *out) const
    {
        SONIC_DASSERT(base + n <= size_, "FRAM array '", name_,
                      "' readRange OOB");
        dev_.consume(Op::FramLoad, words() * n);
        std::copy_n(data_ + base, n, out);
    }

    /** Charged strided bulk read: out[k] = [base + k*stride], one
     * charge for the whole gather (a dense-FC weight column). */
    void
    readStride(u64 base, u64 stride, u64 n, T *out) const
    {
        SONIC_DASSERT(n == 0 || base + (n - 1) * stride < size_,
                      "FRAM array '", name_, "' readStride OOB");
        dev_.consume(Op::FramLoad, words() * n);
        for (u64 k = 0; k < n; ++k)
            out[k] = data_[base + k * stride];
    }
    /// @}

    /** Uncharged host access (initialization / verification only). */
    T
    peek(u64 i) const
    {
        SONIC_DASSERT(i < size_);
        return data_[i];
    }

    u64 size() const { return size_; }
    const std::string &name() const { return name_; }

  protected:
    /** Allocate and register; the derived class then sets data_. */
    NvRegion(Device &dev, u64 n, std::string name)
        : dev_(dev), name_(std::move(name)), size_(n)
    {
        dev_.allocFram(n * sizeof(T), name_);
        dev_.registerNonVolatile(this);
    }

    ~NvRegion() override
    {
        dev_.unregisterNonVolatile(this);
        dev_.freeFram(size_ * sizeof(T));
    }

    /** Element-wise region digest (see arch/nvm_digest.hh). */
    void
    walkInto(NvmDigest &d) const
    {
        d.word(size_);
        for (u64 i = 0; i < size_; ++i)
            d.element(data_[i]);
    }

    static constexpr u64
    words()
    {
        return (sizeof(T) + 1) / 2; // 16-bit FRAM word accesses
    }

    Device &dev_;
    std::string name_;
    const T *data_ = nullptr;
    u64 size_;
};

/** Non-volatile (FRAM) array of trivially-copyable elements. */
template <typename T>
class NvArray : public NvRegion<T>
{
    using NvRegion<T>::dev_;
    using NvRegion<T>::name_;
    using NvRegion<T>::words;

  public:
    NvArray(Device &dev, u64 n, std::string name)
        : NvRegion<T>(dev, n, std::move(name)), store_(n, T{})
    {
        this->data_ = store_.data();
    }

    /** Charged write of element i. May throw PowerFailure *before* the
     * write lands: a store either completes or never happens, modelling
     * FRAM's word-level write atomicity. */
    void
    write(u64 i, T v)
    {
        SONIC_DASSERT(i < store_.size(), "NvArray '", name_,
                      "' write OOB");
        dev_.consume(Op::FramStore, words());
        store_[i] = v;
    }

    /** @name Bulk span write accessors (see NvRegion's span reads) */
    /// @{

    /** Charged bulk write of [base, base+n) from src; all-or-nothing. */
    void
    writeRange(u64 base, u64 n, const T *src)
    {
        SONIC_DASSERT(base + n <= store_.size(), "NvArray '", name_,
                      "' writeRange OOB");
        dev_.consume(Op::FramStore, words() * n);
        std::copy_n(src, n, store_.begin() + static_cast<i64>(base));
    }

    /** Charged bulk fill of [base, base+n) with v; all-or-nothing. */
    void
    fillRange(u64 base, u64 n, T v)
    {
        SONIC_DASSERT(base + n <= store_.size(), "NvArray '", name_,
                      "' fillRange OOB");
        dev_.consume(Op::FramStore, words() * n);
        std::fill_n(store_.begin() + static_cast<i64>(base), n, v);
    }

    /**
     * Charged bulk read-modify-write of [base, base+n): charges n
     * loads then n stores (two consume calls), then applies
     * f(old_value, span_index) -> new_value to each element. The span
     * updates only after both charges succeed.
     */
    template <typename F>
    void
    accumRange(u64 base, u64 n, F &&f)
    {
        SONIC_DASSERT(base + n <= store_.size(), "NvArray '", name_,
                      "' accumRange OOB");
        dev_.consume(Op::FramLoad, words() * n);
        dev_.consume(Op::FramStore, words() * n);
        for (u64 k = 0; k < n; ++k)
            store_[base + k] = f(store_[base + k], k);
    }
    /// @}

    /** Uncharged host write (initialization only). */
    void
    poke(u64 i, T v)
    {
        SONIC_DASSERT(i < store_.size());
        store_[i] = v;
    }

    void digestInto(NvmDigest &d) const override { this->walkInto(d); }

  private:
    std::vector<T> store_;
};

/**
 * The host-side contents of one read-only FRAM region: what flashing
 * puts in FRAM before a device boots (a model's weights). Immutable
 * after construction and shareable across threads by any number of
 * devices, each viewing it through an NvConstArray.
 */
template <typename T>
class FlashRegion
{
  public:
    FlashRegion(std::string name, std::vector<T> data)
        : name_(std::move(name)), data_(std::move(data)),
          fold_(8 * (1 + data_.size())) // NvRegion::walkInto's octets
    {
    }

    const std::string &name() const { return name_; }
    const T *data() const { return data_.data(); }
    u64 size() const { return data_.size(); }

    /** The memoized digest of the region (size word, then elements). */
    const FixedFold &fold() const { return fold_; }

  private:
    std::string name_;
    std::vector<T> data_;
    FixedFold fold_;
};

/**
 * A read-only FRAM array over a FlashRegion its caller owns. It has
 * the allocation, name, registry slot and charged reads of an NvArray
 * flashed with the same contents, and no write path. Its digest is
 * the region's fold: one multiply-add once any device has walked the
 * region from the same low octet (see arch/nvm_digest.hh).
 */
template <typename T>
class NvConstArray : public NvRegion<T>
{
  public:
    NvConstArray(Device &dev, const FlashRegion<T> &region)
        : NvRegion<T>(dev, region.size(), region.name()),
          region_(region)
    {
        this->data_ = region.data();
    }

    void
    digestInto(NvmDigest &d) const override
    {
        region_.fold().apply(d,
                             [this](NvmDigest &w) { this->walkInto(w); });
    }

  private:
    const FlashRegion<T> &region_;
};

/** Non-volatile (FRAM) scalar. */
template <typename T>
class NvVar : public NvmDigestible
{
  public:
    NvVar(Device &dev, std::string name, T initial = T{})
        : dev_(dev), name_(std::move(name)), value_(initial)
    {
        dev_.allocFram(sizeof(T), name_);
        dev_.registerNonVolatile(this);
    }

    ~NvVar() override
    {
        dev_.unregisterNonVolatile(this);
        dev_.freeFram(sizeof(T));
    }

    NvVar(const NvVar &) = delete;
    NvVar &operator=(const NvVar &) = delete;

    /** Charged read. */
    T
    read() const
    {
        dev_.consume(Op::FramLoad, words());
        return value_;
    }

    /** Charged, atomic write (see NvArray::write). */
    void
    write(T v)
    {
        dev_.consume(Op::FramStore, words());
        value_ = v;
    }

    /**
     * Charge n logically-consecutive writes of which only the last
     * value is observable — the shape of a loop-carried index that a
     * span-processing loop would have stored n times. Cycle/energy/op
     * totals match n write() calls; the unit is atomic (the value only
     * lands if the whole charge succeeds), which is safe exactly where
     * the span itself is idempotent.
     */
    void
    writeCoalesced(T v, u64 n)
    {
        dev_.consume(Op::FramStore, words() * n);
        value_ = v;
    }

    /** Uncharged host access. */
    T peek() const { return value_; }
    void poke(T v) { value_ = v; }

    const std::string &name() const { return name_; }

    void
    digestInto(NvmDigest &d) const override
    {
        d.element(value_);
    }

  private:
    static constexpr u64
    words()
    {
        return (sizeof(T) + 1) / 2;
    }

    Device &dev_;
    std::string name_;
    T value_;
};

} // namespace sonic::arch

#endif // SONIC_ARCH_MEMORY_HH
