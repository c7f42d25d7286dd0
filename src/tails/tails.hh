/**
 * @file
 * TAILS (tile-accelerated intermittent LEA support, paper Sec. 7): the
 * SONIC runtime with LEA/DMA acceleration for the dense compute stages
 * and a one-time, failure-driven calibration of the tile size.
 *
 * Accelerated: 1-D row convolutions (FIR-DTC), 1-D column convolutions
 * and channel mixes (vector dot product — the paper's choice for
 * 1 x p x 1 factored layers), pruned 2-D convolutions (filters
 * densified per row, padded with zeros), dense FC layers (vector MAC).
 *
 * Software (inherited from SONIC): sparse FC layers (no filter reuse —
 * the paper could not accelerate them), the per-channel scale stage
 * (LEA has no scalar multiply), pooling, and relu.
 */

#ifndef SONIC_TAILS_TAILS_HH
#define SONIC_TAILS_TAILS_HH

#include "dnn/device_net.hh"
#include "kernels/runner.hh"

namespace sonic::tails
{

/**
 * Run one TAILS inference (calibrates on first use per run; the
 * converged tile is RunResult::calibTileWords).
 */
kernels::RunResult runTails(dnn::DeviceNetwork &net);

} // namespace sonic::tails

#endif // SONIC_TAILS_TAILS_HH
