/**
 * @file
 * Shared helpers for the device kernels: the scheduler driver every
 * entry point ends in, Q7.8 arithmetic with explicit operation
 * charging, and address-arithmetic charge helpers (the MSP430 has a
 * 9-cycle peripheral multiply and no divide unit, so index math is a
 * real cost the implementations pay differently).
 */

#ifndef SONIC_KERNELS_KERNEL_UTIL_HH
#define SONIC_KERNELS_KERNEL_UTIL_HH

#include "arch/device.hh"
#include "dnn/device_net.hh"
#include "fixed/fixed.hh"
#include "kernels/runner.hh"
#include "task/runtime.hh"
#include "util/types.hh"

namespace sonic::kernels
{

/**
 * Run a lowered program from `entry` with the given transition style,
 * returning the scheduler's counters and, when the run completed, the
 * logits (defined beside the kernel table in runner.cc).
 */
RunResult runProgram(dnn::DeviceNetwork &net, const task::Program &program,
                     task::TaskId entry, task::TransitionStyle style);

using fixed::Q78;

/** Charged Q7.8 multiply. */
inline i16
mulQ(arch::Device &dev, i16 a, i16 b)
{
    dev.consume(arch::Op::FixedMul);
    return (Q78::fromRaw(a) * Q78::fromRaw(b)).raw();
}

/** Charged Q7.8 add. */
inline i16
addQ(arch::Device &dev, i16 a, i16 b)
{
    dev.consume(arch::Op::FixedAdd);
    return (Q78::fromRaw(a) + Q78::fromRaw(b)).raw();
}

/** Charged relu. */
inline i16
reluQ(arch::Device &dev, i16 a)
{
    dev.consume(arch::Op::Branch);
    return a > 0 ? a : 0;
}

/** Charged max (pooling). */
inline i16
maxQ(arch::Device &dev, i16 a, i16 b)
{
    dev.consume(arch::Op::Branch);
    return a >= b ? a : b;
}

/** Charge one loop step (increment + compare/branch). */
inline void
loopStep(arch::Device &dev)
{
    dev.consume(arch::Op::Incr);
    dev.consume(arch::Op::Branch);
}

/** Charge a 1-D address computation (base + offset). */
inline void
addr1(arch::Device &dev)
{
    dev.consume(arch::Op::AluAdd);
}

/** Charge a 2-D address computation (row * width + col + base). */
inline void
addr2(arch::Device &dev)
{
    dev.consume(arch::Op::AluMul);
    dev.consume(arch::Op::AluAdd, 2);
}

/** Charge a 3-D address computation (chan, row, col). */
inline void
addr3(arch::Device &dev)
{
    dev.consume(arch::Op::AluMul, 2);
    dev.consume(arch::Op::AluAdd, 3);
}

/** Charge a software divide + modulo pair (flat-index decomposition). */
inline void
divmod(arch::Device &dev)
{
    dev.consume(arch::Op::AluDiv, 2);
}

/** @name Uncharged Q7.8 math for span-processing loops
 * The bulk-charged kernels pay for n operations in one consume call
 * and then evaluate the arithmetic host-side with these raw helpers —
 * identical values and evaluation order to the per-element charged
 * versions above, so logits stay bit-identical.
 */
/// @{
inline i16
mulQRaw(i16 a, i16 b)
{
    return (Q78::fromRaw(a) * Q78::fromRaw(b)).raw();
}

inline i16
addQRaw(i16 a, i16 b)
{
    return (Q78::fromRaw(a) + Q78::fromRaw(b)).raw();
}

inline i16
reluQRaw(i16 a)
{
    return a > 0 ? a : 0;
}

inline i16
maxQRaw(i16 a, i16 b)
{
    return a >= b ? a : b;
}
/// @}

/**
 * Clamp a span width so one all-or-nothing span always fits well
 * inside the device's energy buffer (a span that can never be paid in
 * one charge cycle would stall forward progress forever — the failure
 * mode a per-element loop cannot have). Uses a conservative worst-case
 * per-word charge for the span-processing loops (two FRAM loads, two
 * FRAM stores, a MAC, addressing and loop ops) and keeps a span under
 * a quarter of the buffer. Unbounded supplies (capacityNj() == 0)
 * allow the full width.
 */
inline u32
safeSpanWords(const arch::Device &dev, u32 max_words)
{
    const f64 capacity = dev.power().capacityNj();
    if (capacity <= 0.0)
        return max_words;
    const arch::EnergyProfile &p = dev.profile();
    const f64 per_word = 2.0 * p.nanojoules(arch::Op::FramLoad)
        + 2.0 * p.nanojoules(arch::Op::FramStore)
        + p.nanojoules(arch::Op::FixedMul)
        + p.nanojoules(arch::Op::FixedAdd)
        + 2.0 * p.nanojoules(arch::Op::Branch)
        + p.nanojoules(arch::Op::AluAdd)
        + p.nanojoules(arch::Op::Incr);
    const f64 words = capacity / (4.0 * per_word);
    if (words <= 1.0)
        return 1;
    if (words >= static_cast<f64>(max_words))
        return max_words;
    return static_cast<u32>(words);
}

/** @name Batched charge helpers
 * Charge n instances of the per-iteration op mix in O(1) consume
 * calls. Totals (counts, cycles, energy) are identical to n calls of
 * the single-op helpers; only the number of power-supply interactions
 * changes.
 */
/// @{

/** n loop steps (increment + compare/branch each). */
inline void
loopStep(arch::Device &dev, u64 n)
{
    dev.consume(arch::Op::Incr, n);
    dev.consume(arch::Op::Branch, n);
}

/** n fixed-point multiplies. */
inline void
chargeMulQ(arch::Device &dev, u64 n)
{
    dev.consume(arch::Op::FixedMul, n);
}

/** n fixed-point multiply-accumulates. */
inline void
chargeMacQ(arch::Device &dev, u64 n)
{
    dev.consume(arch::Op::FixedMul, n);
    dev.consume(arch::Op::FixedAdd, n);
}

/** n relu/max compare-branches. */
inline void
chargeBranch(arch::Device &dev, u64 n)
{
    dev.consume(arch::Op::Branch, n);
}

/** n 1-D address computations. */
inline void
addr1(arch::Device &dev, u64 n)
{
    dev.consume(arch::Op::AluAdd, n);
}

/** n 2-D address computations. */
inline void
addr2(arch::Device &dev, u64 n)
{
    dev.consume(arch::Op::AluMul, n);
    dev.consume(arch::Op::AluAdd, 2 * n);
}

/** n 3-D address computations. */
inline void
addr3(arch::Device &dev, u64 n)
{
    dev.consume(arch::Op::AluMul, 2 * n);
    dev.consume(arch::Op::AluAdd, 3 * n);
}
/// @}

} // namespace sonic::kernels

#endif // SONIC_KERNELS_KERNEL_UTIL_HH
