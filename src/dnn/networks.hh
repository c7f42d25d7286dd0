/**
 * @file
 * Builders for the paper's three workloads (Table 2): MNIST-style image
 * classification, human activity recognition (HAR), and Google keyword
 * spotting (OkG).
 *
 * Offline we cannot train on the real datasets, so each workload is
 * defined by a deterministic *teacher* network whose weights are
 * constructed to be compressible (approximately low-rank filter banks
 * and heavy-tailed fully-connected weights — the empirical property of
 * trained networks that separation and pruning exploit). The compressed
 * device networks are derived from the teacher by the same operations
 * GENESIS applies: CP/Tucker rank-1 separation of conv filter banks,
 * truncated SVD of FC layers, and magnitude pruning to the Table 2
 * budgets. Accuracy of any derived network is measured as agreement
 * with the teacher on synthetic held-out samples, scaled by the paper's
 * reported base accuracy (see dnn/dataset.hh).
 *
 * COMPAT SHIM: the NetId enum below is internal to dnn/ — the rest of
 * the system addresses workloads by registered name through the
 * string-keyed ModelZoo (dnn/zoo.hh), where these three pre-register
 * alongside builder-generated and disk-loaded models. Do not reference
 * NetId outside dnn/.
 */

#ifndef SONIC_DNN_NETWORKS_HH
#define SONIC_DNN_NETWORKS_HH

#include "dnn/spec.hh"
#include "util/types.hh"

namespace sonic::dnn
{

/** The three paper workloads (dnn-internal; see the file comment). */
enum class NetId : u8
{
    Mnist,
    Har,
    Okg
};

/** Stable workload name ("MNIST", "HAR", "OkG"). */
const char *netName(NetId id);

/** The paper's reported accuracy for the chosen configuration. */
f64 paperAccuracy(NetId id);

/** The original (uncompressed) network — infeasible on-device. */
NetworkSpec buildTeacher(NetId id, u64 seed = 0x5eed);

/**
 * Knobs for building alternative compressed configurations (GENESIS'
 * search space). fcKeep/convKeep are the fractions of FC/conv weights
 * kept by pruning; fcRank scales the SVD ranks (1.0 = Table 2 ranks);
 * separateConv chooses rank-1 separation vs pruned dense convs.
 */
struct CompressionKnobs
{
    bool separateConv = true;
    f64 convKeep = 1.0;
    f64 fcKeep = 1.0;
    f64 fcRankScale = 1.0;
    bool svdFc = true;
};

/**
 * Compress a teacher built by buildTeacher(id, ...) per Table 2
 * (separation + pruning budgets, scaled by the knobs; default knobs
 * give the on-device configuration). The per-layer decompositions run
 * concurrently; the result is the same network at any thread count.
 */
NetworkSpec compress(NetId id, const NetworkSpec &teacher,
                     const CompressionKnobs &knobs);

/** buildTeacher(id, seed) compressed with explicit knobs (GENESIS
 * sweep). */
NetworkSpec buildWithKnobs(NetId id, const CompressionKnobs &knobs,
                           u64 seed = 0x5eed);

/**
 * Knob-driven compression for an arbitrary teacher (workloads without
 * hand-tuned Table 2 budgets): rank-1 separation of single-channel
 * conv banks, magnitude pruning of multi-channel convs, truncated SVD
 * plus pruning of hidden FC layers (rank ~ min(m, n)/8 and a ~10%
 * weight budget at knob 1.0), final classifier kept dense. Paper
 * workloads override this with their Table 2 budgets through
 * ModelDef::withKnobs (dnn/zoo.hh).
 */
NetworkSpec compressGeneric(const NetworkSpec &teacher,
                            const CompressionKnobs &knobs);

} // namespace sonic::dnn

#endif // SONIC_DNN_NETWORKS_HH
