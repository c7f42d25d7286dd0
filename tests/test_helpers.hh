/**
 * @file
 * Shared fixtures for kernel/integration tests: a tiny network that
 * exercises every device layer kind (factored conv with all stages,
 * pooling, pruned 2-D conv, sparse FC, dense FC) quickly enough for
 * exhaustive failure-injection sweeps, the two fault-injection shapes
 * those sweeps use, and the closed-form capacitor supply the harvest
 * environments are checked against.
 */

#ifndef SONIC_TESTS_TEST_HELPERS_HH
#define SONIC_TESTS_TEST_HELPERS_HH

#include <memory>

#include "arch/power.hh"
#include "dnn/spec.hh"
#include "fixed/fixed.hh"
#include "tensor/sparse.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace sonic::testutil
{

/** Succeeds for exactly n draws, fails draw n, then is continuous.
 * Sweeping n over every operation index of a kernel tests crash
 * consistency at every possible failure point. */
inline std::unique_ptr<arch::SchedulePower>
failOnceAt(u64 n)
{
    return std::make_unique<arch::SchedulePower>(std::vector<u64>{n});
}

/** Fails every period-th draw (draws period - 1, 2 * period - 1, ...),
 * forever: an extremely small buffer with deterministic timing. */
inline std::unique_ptr<arch::SchedulePower>
failEvery(u64 period)
{
    SONIC_ASSERT(period > 0);
    return std::make_unique<arch::SchedulePower>(
        std::vector<u64>{period - 1}, period);
}

/**
 * A capacitor charged by a constant-power harvester (e.g., the paper's
 * Powercast RF setup): the closed-form reference for the harvest
 * environments. The usable buffer is E = 1/2 C (Vmax^2 - Vmin^2);
 * when the buffer empties the device dies and recharges at the harvest
 * power.
 */
class CapacitorPower : public arch::PowerSupply
{
  public:
    /**
     * @param capacitance_farads storage capacitance
     * @param harvest_watts harvester income power
     * @param v_max regulator-on voltage
     * @param v_min brown-out voltage
     */
    CapacitorPower(f64 capacitance_farads, f64 harvest_watts,
                   f64 v_max = arch::kRegulatorVMax,
                   f64 v_min = arch::kRegulatorVMin)
        : harvestWatts_(harvest_watts),
          capacityNj_(0.5 * capacitance_farads
                      * (v_max * v_max - v_min * v_min) * 1e9),
          levelNj_(capacityNj_), harvestedNj_(capacityNj_)
    {
        SONIC_ASSERT(capacitance_farads > 0.0);
        SONIC_ASSERT(harvest_watts > 0.0);
        SONIC_ASSERT(v_max > v_min && v_min > 0.0);
    }

    bool
    draw(f64 nj) override
    {
        SONIC_ASSERT(nj >= 0.0);
        if (levelNj_ >= nj) {
            levelNj_ -= nj;
            return true;
        }
        // Brown-out: whatever charge remains is below the regulator's
        // operating point and is lost.
        levelNj_ = 0.0;
        return false;
    }

    /**
     * Hand the whole remaining charge out as the lease. The Device's
     * countdown then performs the very same subtraction sequence
     * draw() would have, so the brown-out lands on the bit-identical
     * operation; settle() puts the remainder back.
     */
    arch::EnergyLease
    grant(f64 /*max_nj*/, u64 max_ops) override
    {
        const f64 nj = levelNj_;
        levelNj_ = 0.0;
        return {nj, max_ops};
    }

    void
    settle(f64 unused_nj, f64 /*used_nj*/, u64 /*used_ops*/) override
    {
        levelNj_ += unused_nj;
    }

    f64
    recharge() override
    {
        const f64 deficit = capacityNj_ - levelNj_;
        harvestedNj_ += deficit;
        levelNj_ = capacityNj_;
        // Income power in nJ/s is harvestWatts * 1e9.
        return deficit / (harvestWatts_ * 1e9);
    }

    f64 capacityNj() const override { return capacityNj_; }
    f64 harvestedNj() const override { return harvestedNj_; }

    /** Remaining charge in nanojoules (diagnostics). */
    f64 levelNj() const { return levelNj_; }

  private:
    f64 harvestWatts_;
    f64 capacityNj_;
    f64 levelNj_;
    f64 harvestedNj_;
};

/**
 * Relative tolerance for comparing simulated energy/time totals that
 * were accumulated in different batching orders.
 *
 * Origin: PR 2's bulk charging books an n-element span as cost * n
 * (one f64 multiply) where per-element accounting summed cost n times
 * (n rounded additions), and per-layer/per-op report rows re-sum the
 * same buckets in a different association than the global total. Both
 * are pure f64 reassociation effects: logits, cycle counts and op
 * counts stay bit-exact. The largest observed instance is TAILS'
 * batched LEA format shifts, which drift the end-to-end energy total
 * by ~2e-16 relative against the per-op accumulation sequence; sums
 * over a few hundred report rows are bounded by ~n * 2^-52. 1e-12
 * covers every in-repo comparison of this class with orders of
 * magnitude to spare while still catching any real accounting bug
 * (the smallest charged op is ~1e-9 of a run's total).
 *
 * Use this named constant — not an ad-hoc epsilon — wherever two
 * accounting paths for the *same* simulated work are compared.
 */
inline constexpr f64 kBatchedEnergyRelTol = 1e-12;

/** Tiny all-layer-kinds network: input 1x8x8, 4 classes. */
inline dnn::NetworkSpec
tinyNet(u64 seed = 0x7e57)
{
    Rng rng(seed);
    dnn::NetworkSpec net;
    net.name = "tiny";
    net.input = {1, 8, 8};
    net.numClasses = 4;

    // Factored conv: col(3) x row(3) -> 2 channels, relu, pool.
    dnn::FactoredConvLayer f;
    f.col = {0.4, -0.2, 0.3};
    f.row = {0.5, 0.1, -0.3};
    f.scale = {0.8, -0.6};
    net.layers.push_back({"conv1", std::move(f), true, true});
    // Now 2 x 3 x 3.

    // Pruned 2-D conv: 3 x 2 x 2 x 2, half the taps pruned.
    tensor::FilterBank bank(3, 2, 2, 2);
    for (auto &w : bank.data)
        w = rng.gaussian(0.0, 0.4);
    tensor::Tensor3 flat(3, 2, 4);
    flat.data() = bank.data;
    tensor::pruneToFraction(flat, 0.5);
    bank.data = flat.data();
    net.layers.push_back({"conv2", dnn::SparseConvLayer{bank}, true,
                          false});
    // Now 3 x 2 x 2 = 12.

    // Sparse FC 6 x 12 (40% kept), relu.
    tensor::Matrix sfc = tensor::Matrix::gaussian(6, 12, rng, 0.35);
    tensor::pruneToFraction(sfc, 0.4);
    net.layers.push_back({"fc", dnn::SparseFcLayer{sfc}, true, false});

    // Dense FC 4 x 6.
    tensor::Matrix dfc = tensor::Matrix::gaussian(4, 6, rng, 0.35);
    net.layers.push_back({"fc", dnn::DenseFcLayer{dfc}, false, false});
    return net;
}

/** A deterministic Q7.8 input for the tiny network. */
inline std::vector<i16>
tinyInput(u64 seed = 0xcafe)
{
    Rng rng(seed);
    std::vector<i16> input;
    for (u32 i = 0; i < 64; ++i)
        input.push_back(
            fixed::Q78::fromFloat(rng.uniform(-1.0, 1.0)).raw());
    return input;
}

} // namespace sonic::testutil

#endif // SONIC_TESTS_TEST_HELPERS_HH
