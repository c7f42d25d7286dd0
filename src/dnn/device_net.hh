/**
 * @file
 * The device-resident form of a network: Q7.8 weights in FRAM arrays
 * (sparse forms store index lists, matching the paper's memory
 * accounting), plus the activation buffers the kernels operate on:
 * two map-sized ping-pong buffers and three single-channel scratch
 * slices (the loop-ordered double buffers).
 *
 * Flashing has two halves. Lowering a NetworkSpec builds its
 * FlashImage: every weight and index array in its 16-bit device form,
 * in flash order, plus the layer metadata. A zoo model's image is
 * built once per process (ModelEntry::flashImage) and is read-only.
 * Building a DeviceNetwork then allocates the activation and scratch
 * buffers as NvArrays and views the image's arrays as NvConstArrays:
 * no kernel can write a weight, and every device running the model
 * shares one copy of it. All runtime access by kernels is charged.
 *
 * A device's FRAM registry holds act.ping, act.pong, scratch0-2 and
 * then the image's arrays in order, exactly as when every weight was
 * poked into its own NvArray, so every digest is unchanged. Weights
 * never change, and folding n fixed octets into an FNV-1a digest maps
 * a state s to s * P^n + c[s mod 256] (x ^ b moves x by a function
 * of its low octet alone; see arch/nvm_digest.hh). So each weight
 * array folds into Device::nvmDigest() in one multiply-add once any
 * device has walked it from the same low octet, and a digest walks
 * only the arrays a run can write.
 */

#ifndef SONIC_DNN_DEVICE_NET_HH
#define SONIC_DNN_DEVICE_NET_HH

#include <deque>
#include <memory>
#include <variant>
#include <vector>

#include "arch/memory.hh"
#include "dnn/spec.hh"
#include "util/types.hh"

namespace sonic::dnn
{

/** A device's read-only view of one flash-image array. */
using WeightArray = arch::NvConstArray<i16>;

/** A sparse vector in FRAM: parallel (index, value) arrays. */
struct DevSparseVec
{
    const WeightArray *idx = nullptr;
    const WeightArray *val = nullptr;
    u32 nnz = 0;
};

/** Factored conv stages (empty nnz = stage skipped). */
struct DevFactoredConv
{
    DevSparseVec mix;   ///< ic -> 1 channel combine
    DevSparseVec col;   ///< kh x 1 conv taps
    DevSparseVec row;   ///< 1 x kw conv taps
    DevSparseVec scale; ///< 1 -> oc broadcast scales
};

/** Pruned 2-D conv as per-output-channel tap lists (CSR by oc). */
struct DevSparseConv
{
    const WeightArray *ocPtr = nullptr; ///< oc+1 entries
    const WeightArray *tapIc = nullptr;
    const WeightArray *tapKy = nullptr;
    const WeightArray *tapKx = nullptr;
    const WeightArray *tapW = nullptr;
    /** Flash-time precomputed flat source offset of each tap
     * (ic * inPlane + ky * inW + kx) — element-major traversals pay a
     * single add per tap instead of 3-D address arithmetic. */
    const WeightArray *tapOff = nullptr;
    u32 kh = 0;
    u32 kw = 0;
    u32 nnz = 0;
};

/** Dense FC weights, row-major m x n. */
struct DevDenseFc
{
    const WeightArray *w = nullptr;
    u32 m = 0;
    u32 n = 0;
};

/** Sparse FC in CSC form (the device traversal order). */
struct DevSparseFc
{
    const WeightArray *colPtr = nullptr; ///< n+1 entries
    const WeightArray *rowIdx = nullptr;
    const WeightArray *val = nullptr;
    u32 m = 0;
    u32 n = 0;
    u32 nnz = 0;
};

using DevLayerOp =
    std::variant<DevFactoredConv, DevSparseConv, DevDenseFc, DevSparseFc>;

/** One device layer with shapes and attribution resolved. */
struct DevLayer
{
    std::string name;
    u16 statLayer = 0; ///< Device stats layer id
    DevLayerOp op;
    bool reluAfter = false;
    bool poolAfter = false;
    ActShape in;
    ActShape out; ///< before pool
};

/**
 * A network lowered to its flash image: the weight and index arrays
 * DeviceNetwork maps into FRAM, in flash order, and the layers with
 * shapes resolved. Immutable once built and safe to share across
 * threads. An index or pointer the 16-bit device format cannot hold
 * is a fatal error naming the model, the layer and the limit.
 */
class FlashImage
{
  public:
    /** Lower spec. The image refers to spec, which must outlive it. */
    explicit FlashImage(const NetworkSpec &spec);

    const NetworkSpec &spec() const { return spec_; }

    /** The weight and index arrays, in flash order. */
    const std::deque<arch::FlashRegion<i16>> &
    regions() const
    {
        return regions_;
    }

    /** The layers, with statLayer and every array view unset. */
    const std::vector<DevLayer> &layers() const { return layers_; }

  private:
    const NetworkSpec &spec_;
    std::deque<arch::FlashRegion<i16>> regions_;
    std::vector<DevLayer> layers_;
};

/**
 * A network flashed onto a device. Owns the activation ping-pong
 * buffers and scratch slices, and views its image's weights. Kernels
 * (Base / Tiled / SONIC / TAILS) operate on this structure.
 */
class DeviceNetwork
{
  public:
    /** Flash a shared image (which must outlive the network). */
    DeviceNetwork(arch::Device &dev, const FlashImage &image);

    /** Flash a spec through a private image of a private copy. */
    DeviceNetwork(arch::Device &dev, const NetworkSpec &spec);

    DeviceNetwork(const DeviceNetwork &) = delete;
    DeviceNetwork &operator=(const DeviceNetwork &) = delete;

    arch::Device &dev() { return dev_; }
    const NetworkSpec &spec() const { return image_.spec(); }

    std::vector<DevLayer> &layers() { return layers_; }
    const std::vector<DevLayer> &layers() const { return layers_; }

    /** Map-sized ping-pong activation buffers. */
    arch::NvArray<i16> &act(u32 which) { return *acts_[which]; }

    /** Single-channel scratch slices (loop-ordered double buffers). */
    arch::NvArray<i16> &scratch(u32 which) { return *scratch_[which]; }

    u32 numClasses() const { return spec().numClasses; }

    /**
     * Flash an input activation (uncharged: sensing/DMA-from-sensor is
     * outside the inference measurement, identical for all runtimes).
     */
    void loadInput(const std::vector<i16> &input_q78);

    /** Which act buffer layer li reads / writes (static schedule). */
    u32 inputBufferOf(u32 layer_index) const;
    u32 outputBufferOf(u32 layer_index) const;

    /** Read back the logits (uncharged host verification). */
    std::vector<i16> peekLogits() const;

    /** Quantize a host feature map into Q7.8 device input order. */
    static std::vector<i16> quantizeInput(const tensor::FeatureMap &in);

  private:
    /** Allocate the buffers, view the weights, resolve the layers. */
    void flash();

    /** The spec constructor's private copies (null otherwise). */
    std::unique_ptr<const NetworkSpec> ownSpec_;
    std::unique_ptr<const FlashImage> ownImage_;

    arch::Device &dev_;
    const FlashImage &image_;
    std::vector<DevLayer> layers_;
    std::unique_ptr<arch::NvArray<i16>> acts_[2];
    std::unique_ptr<arch::NvArray<i16>> scratch_[3];
    std::deque<WeightArray> weights_;
};

} // namespace sonic::dnn

#endif // SONIC_DNN_DEVICE_NET_HH
