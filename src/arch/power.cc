#include "arch/power.hh"

#include "util/logging.hh"

namespace sonic::arch
{

CapacitorPower::CapacitorPower(f64 capacitance_farads, f64 harvest_watts,
                               f64 v_max, f64 v_min)
    : harvestWatts_(harvest_watts),
      capacityNj_(0.5 * capacitance_farads * (v_max * v_max - v_min * v_min)
                  * 1e9),
      levelNj_(capacityNj_),
      harvestedNj_(capacityNj_)
{
    SONIC_ASSERT(capacitance_farads > 0.0);
    SONIC_ASSERT(harvest_watts > 0.0);
    SONIC_ASSERT(v_max > v_min && v_min > 0.0);
}

bool
CapacitorPower::draw(f64 nj)
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

f64
CapacitorPower::recharge()
{
    const f64 deficit = capacityNj_ - levelNj_;
    harvestedNj_ += deficit;
    levelNj_ = capacityNj_;
    // Income power in nJ/s is harvestWatts * 1e9.
    return deficit / (harvestWatts_ * 1e9);
}

} // namespace sonic::arch
