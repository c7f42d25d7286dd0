#include "tails/lea.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace sonic::tails
{

namespace
{

using arch::Op;

i16
saturate(i64 wide)
{
    constexpr i64 hi = std::numeric_limits<i16>::max();
    constexpr i64 lo = std::numeric_limits<i16>::min();
    return static_cast<i16>(std::clamp(wide, lo, hi));
}

/** Software format shift: load, n single-bit shifts, store. */
void
chargeShift(arch::Device &dev, u32 bits)
{
    dev.consume(Op::SramLoad);
    dev.consume(Op::AluShift, bits);
    dev.consume(Op::SramStore);
}

/** Batched format shift for a whole buffer: count elements, bits
 * single-bit shifts each, charged in three bulk consume calls with
 * totals identical to count chargeShift() calls. TAILS' calibration
 * sizes tiles by total energy, which is unchanged. */
void
chargeShiftBulk(arch::Device &dev, u32 count, u32 bits)
{
    dev.consume(Op::SramLoad, count);
    dev.consume(Op::AluShift, u64{bits} * count);
    dev.consume(Op::SramStore, count);
}

} // namespace

LeaUnit::LeaUnit(arch::Device &dev) : dev_(dev)
{
    dev_.allocSram(kLeaBufferWords * 2, "lea.buffer");
}

LeaUnit::~LeaUnit()
{
    dev_.freeSram(kLeaBufferWords * 2);
}

void
LeaUnit::firDtc(const arch::NvArray<i16> &src, u32 src_base, u32 in_count,
                const std::vector<i16> &coeffs, arch::NvArray<i16> &dst,
                u32 dst_base, u32 out_count,
                const arch::NvArray<i16> *partial, u32 partial_base)
{
    const u32 taps = static_cast<u32>(coeffs.size());
    SONIC_ASSERT(taps >= 1);
    SONIC_ASSERT(in_count >= out_count + taps - 1);
    SONIC_ASSERT(in_count + taps + out_count <= kLeaBufferWords,
                 "FIR tile exceeds the LEA operating buffer");

    // DMA the source window and coefficients into the LEA buffer.
    dev_.consume(Op::DmaWord, in_count + taps);
    // Software pre-shift of the activations (no vector left-shift).
    chargeShiftBulk(dev_, in_count, kPreShiftBits);
    if (partial != nullptr)
        dev_.consume(Op::DmaWord, out_count);

    // One LEA command covers the whole tile.
    dev_.consume(Op::LeaInvoke);
    dev_.consume(Op::LeaMac, u64{out_count} * taps);

    // Software post-shift back to Q7.8 plus the optional partial-sum
    // accumulation, charged in bulk for the tile.
    chargeShiftBulk(dev_, out_count, kPostShiftBits);
    if (partial != nullptr)
        dev_.consume(Op::FixedAdd, out_count);
    for (u32 j = 0; j < out_count; ++j) {
        i64 acc = 0;
        for (u32 k = 0; k < taps; ++k) {
            const i64 a =
                i64{src.peek(src_base + j + k)} << kPreShiftBits;
            acc += a * i64{coeffs[k]};
        }
        acc >>= 15;
        i64 v = acc << kPostShiftBits;
        if (partial != nullptr)
            v += i64{partial->peek(partial_base + j)};
        dst.poke(dst_base + j, saturate(v));
    }
    // DMA results back to FRAM.
    dev_.consume(Op::DmaWord, out_count);
}

i16
LeaUnit::dotProduct(const std::vector<i16> &coeffs,
                    const arch::NvArray<i16> &src, u32 src_base,
                    u32 stride)
{
    const u32 count = static_cast<u32>(coeffs.size());
    SONIC_ASSERT(count >= 1);
    SONIC_ASSERT(2 * count + 2 <= kLeaBufferWords,
                 "dot-product tile exceeds the LEA operating buffer");

    // Coefficients are already staged in SRAM; the strided source pays
    // per-word DMA setup (no stride support).
    dev_.consume(Op::DmaWord, 2 * count);
    chargeShiftBulk(dev_, count, kPreShiftBits);

    dev_.consume(Op::LeaInvoke);
    dev_.consume(Op::LeaMac, count);

    i64 acc = 0;
    for (u32 i = 0; i < count; ++i) {
        const i64 a =
            i64{src.peek(src_base + i * stride)} << kPreShiftBits;
        acc += a * i64{coeffs[i]};
    }
    acc >>= 15;
    chargeShift(dev_, kPostShiftBits);
    return saturate(acc << kPostShiftBits);
}

i16
LeaUnit::dotProductFram(const arch::NvRegion<i16> &weights, u64 w_base,
                        const arch::NvArray<i16> &src, u32 src_base,
                        u32 count)
{
    SONIC_ASSERT(count >= 1);
    SONIC_ASSERT(2 * count + 2 <= kLeaBufferWords,
                 "dot-product tile exceeds the LEA operating buffer");

    // Two contiguous DMA bursts.
    dev_.consume(Op::DmaWord, 2 * count);
    chargeShiftBulk(dev_, count, kPreShiftBits);

    dev_.consume(Op::LeaInvoke);
    dev_.consume(Op::LeaMac, count);

    i64 acc = 0;
    for (u32 i = 0; i < count; ++i) {
        const i64 a = i64{src.peek(src_base + i)} << kPreShiftBits;
        acc += a * i64{weights.peek(w_base + i)};
    }
    acc >>= 15;
    chargeShift(dev_, kPostShiftBits);
    return saturate(acc << kPostShiftBits);
}

} // namespace sonic::tails
