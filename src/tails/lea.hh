/**
 * @file
 * Model of the TI Low-Energy Accelerator (LEA) and the DMA engine, as
 * constrained in the paper (Secs. 7 and 10):
 *
 *  - LEA reads only from a small SRAM operating buffer (4 KB), so every
 *    operand tile is DMA'd FRAM -> SRAM and results DMA'd back;
 *  - DMA cannot be overlapped with LEA execution and supports neither
 *    strides nor scatter-gather (strided operands cost one DMA word
 *    each, which is how we charge them);
 *  - LEA has no vector left-shift and no scalar multiply, so fixed-
 *    point renormalization shifts run in software (charged per bit —
 *    the MSP430 has no barrel shifter), and these dominate TAILS'
 *    control time exactly as the paper reports;
 *  - the FIR-DTC accumulates in a wide register and renormalizes by a
 *    fixed >> 15, so TAILS pre-shifts activations left by 3 and
 *    post-shifts results left by 4 in software to land back in Q7.8.
 *
 * All helpers are deterministic and charge energy through the Device,
 * so a TAILS run is bit-reproducible and crash-safe at any op.
 */

#ifndef SONIC_TAILS_LEA_HH
#define SONIC_TAILS_LEA_HH

#include <vector>

#include "arch/device.hh"
#include "arch/memory.hh"
#include "util/types.hh"

namespace sonic::tails
{

/** LEA operating-buffer capacity in 16-bit words (shared in/out). */
constexpr u32 kLeaBufferWords = 1800;

/** Software pre-shift (input) and post-shift (output) bit counts. */
constexpr u32 kPreShiftBits = 3;
constexpr u32 kPostShiftBits = 4;

/**
 * The LEA + DMA pair bound to a device. Stateless between calls apart
 * from energy accounting; all data flows FRAM -> SRAM -> FRAM within
 * one call, so a power failure simply replays the call.
 */
class LeaUnit
{
  public:
    explicit LeaUnit(arch::Device &dev);
    ~LeaUnit();

    LeaUnit(const LeaUnit &) = delete;
    LeaUnit &operator=(const LeaUnit &) = delete;

    /**
     * FIR discrete-time convolution over a contiguous source window.
     * Computes out[j] = sat((sum_k coeffs[k] * in[src_base+j+k]) >> 15)
     * for j in [0, out_count), after software-pre-shifting the inputs.
     * Charges: DMA in (out_count + taps - 1 + taps words), pre-shifts,
     * one invocation, out_count * taps MACs, post-shifts, DMA out.
     *
     * @param accumulate if true, DMAs the partial tile in and adds it
     *        (loop-ordered accumulation across filter rows).
     */
    void firDtc(const arch::NvArray<i16> &src, u32 src_base,
                u32 in_count, const std::vector<i16> &coeffs,
                arch::NvArray<i16> &dst, u32 dst_base, u32 out_count,
                const arch::NvArray<i16> *partial, u32 partial_base);

    /**
     * Vector MAC (dot product) of dense, host-staged coefficients
     * against a strided FRAM source (column convolutions and channel
     * mixes). The stride costs per-word DMA setup (no stride support).
     */
    i16 dotProduct(const std::vector<i16> &coeffs,
                   const arch::NvArray<i16> &src, u32 src_base,
                   u32 stride);

    /**
     * Vector MAC of a contiguous FRAM weight chunk against a
     * contiguous FRAM source chunk (dense FC rows).
     */
    i16 dotProductFram(const arch::NvRegion<i16> &weights, u64 w_base,
                       const arch::NvArray<i16> &src, u32 src_base,
                       u32 count);

    arch::Device &dev() { return dev_; }

  private:
    arch::Device &dev_;
};

} // namespace sonic::tails

#endif // SONIC_TAILS_LEA_HH
