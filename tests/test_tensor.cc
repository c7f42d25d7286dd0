/**
 * @file
 * Unit tests for the host tensor kit: matrices, decompositions
 * (symmetric eigen, truncated SVD, rank-1 CP), pruning, sparse
 * formats, and the reference NN primitives. Eigen, Gram, SVD and the
 * dense convolution are also held bit-identical to textbook loops.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "dnn/networks.hh"
#include "tensor/decompose.hh"
#include "tensor/matrix.hh"
#include "tensor/nnref.hh"
#include "tensor/sparse.hh"
#include "util/rng.hh"

namespace sonic::tensor
{
namespace
{

/**
 * The textbook loops the library must match bit for bit: bounds-checked
 * at() throughout, the Gram product through Matrix::matmul against an
 * explicit transpose, eigenvectors accumulated as columns, A^T u formed
 * one column at a time, and the convolution one element at a time.
 */
namespace reference
{

EigenResult
symmetricEigen(const Matrix &sym)
{
    const u32 n = sym.rows();
    Matrix a = sym;
    Matrix v = Matrix::identity(n);
    for (u32 sweep = 0; sweep < kEigenMaxSweeps; ++sweep) {
        f64 off = 0.0;
        for (u32 p = 0; p < n; ++p)
            for (u32 q = p + 1; q < n; ++q)
                off += a.at(p, q) * a.at(p, q);
        if (off < kEigenTolerance * kEigenTolerance)
            break;
        for (u32 p = 0; p < n; ++p) {
            for (u32 q = p + 1; q < n; ++q) {
                const f64 apq = a.at(p, q);
                if (std::fabs(apq) < 1e-300)
                    continue;
                const f64 app = a.at(p, p);
                const f64 aqq = a.at(q, q);
                const f64 theta = (aqq - app) / (2.0 * apq);
                const f64 t = (theta >= 0.0 ? 1.0 : -1.0)
                    / (std::fabs(theta)
                       + std::sqrt(theta * theta + 1.0));
                const f64 c = 1.0 / std::sqrt(t * t + 1.0);
                const f64 s = t * c;
                for (u32 k = 0; k < n; ++k) {
                    const f64 akp = a.at(k, p);
                    const f64 akq = a.at(k, q);
                    a.at(k, p) = c * akp - s * akq;
                    a.at(k, q) = s * akp + c * akq;
                }
                for (u32 k = 0; k < n; ++k) {
                    const f64 apk = a.at(p, k);
                    const f64 aqk = a.at(q, k);
                    a.at(p, k) = c * apk - s * aqk;
                    a.at(q, k) = s * apk + c * aqk;
                }
                for (u32 k = 0; k < n; ++k) {
                    const f64 vkp = v.at(k, p);
                    const f64 vkq = v.at(k, q);
                    v.at(k, p) = c * vkp - s * vkq;
                    v.at(k, q) = s * vkp + c * vkq;
                }
            }
        }
    }
    std::vector<u32> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](u32 x, u32 y) {
        return a.at(x, x) > a.at(y, y);
    });
    EigenResult result;
    result.values.resize(n);
    result.vectors = Matrix(n, n);
    for (u32 i = 0; i < n; ++i) {
        result.values[i] = a.at(order[i], order[i]);
        for (u32 r = 0; r < n; ++r)
            result.vectors.at(r, i) = v.at(r, order[i]);
    }
    return result;
}

Matrix
gramMatrix(const Matrix &a)
{
    return a.rows() <= a.cols() ? a.matmul(a.transpose())
                                : a.transpose().matmul(a);
}

SvdResult
truncatedSvd(const Matrix &a, u32 k)
{
    const u32 m = a.rows();
    const u32 n = a.cols();
    const bool use_rows = m <= n;
    const EigenResult eig =
        reference::symmetricEigen(reference::gramMatrix(a));
    SvdResult result;
    result.s.resize(k);
    result.u = Matrix(m, k);
    result.v = Matrix(n, k);
    for (u32 i = 0; i < k; ++i) {
        const f64 sigma = std::sqrt(std::max(0.0, eig.values[i]));
        result.s[i] = sigma;
        if (use_rows) {
            for (u32 r = 0; r < m; ++r)
                result.u.at(r, i) = eig.vectors.at(r, i);
            if (sigma > 1e-300) {
                for (u32 c = 0; c < n; ++c) {
                    f64 acc = 0.0;
                    for (u32 r = 0; r < m; ++r)
                        acc += a.at(r, c) * eig.vectors.at(r, i);
                    result.v.at(c, i) = acc / sigma;
                }
            }
        } else {
            for (u32 c = 0; c < n; ++c)
                result.v.at(c, i) = eig.vectors.at(c, i);
            if (sigma > 1e-300) {
                for (u32 r = 0; r < m; ++r) {
                    f64 acc = 0.0;
                    for (u32 c = 0; c < n; ++c)
                        acc += a.at(r, c) * eig.vectors.at(c, i);
                    result.u.at(r, i) = acc / sigma;
                }
            }
        }
    }
    return result;
}

FeatureMap
conv2dValid(const FeatureMap &in, const FilterBank &filters)
{
    const u32 oh = in.height - filters.kh + 1;
    const u32 ow = in.width - filters.kw + 1;
    FeatureMap out(filters.outChannels, oh, ow);
    for (u32 oc = 0; oc < filters.outChannels; ++oc)
        for (u32 ic = 0; ic < filters.inChannels; ++ic)
            for (u32 fy = 0; fy < filters.kh; ++fy)
                for (u32 fx = 0; fx < filters.kw; ++fx) {
                    const f64 w = filters.at(oc, ic, fy, fx);
                    if (w == 0.0)
                        continue;
                    for (u32 y = 0; y < oh; ++y)
                        for (u32 x = 0; x < ow; ++x)
                            out.at(oc, y, x) +=
                                w * in.at(ic, y + fy, x + fx);
                }
    return out;
}

} // namespace reference

bool
sameBits(const std::vector<f64> &x, const std::vector<f64> &y)
{
    return x.size() == y.size()
        && std::memcmp(x.data(), y.data(), x.size() * sizeof(f64)) == 0;
}

bool
sameBits(const Matrix &x, const Matrix &y)
{
    return x.sameShape(y) && sameBits(x.data(), y.data());
}

/** Gram matrix and rank-k SVD of a, bitwise against the reference. */
void
expectSvdMatchesReference(const Matrix &a, u32 k)
{
    const Matrix gram = gramMatrix(a);
    EXPECT_TRUE(sameBits(gram, reference::gramMatrix(a)));
    EXPECT_TRUE(sameBits(gram, gram.transpose()));
    const SvdResult got = truncatedSvd(a, k);
    const SvdResult want = reference::truncatedSvd(a, k);
    EXPECT_TRUE(sameBits(got.u, want.u));
    EXPECT_TRUE(sameBits(got.s, want.s));
    EXPECT_TRUE(sameBits(got.v, want.v));
}

/** a with roughly a third of its entries and all of row 1 set to 0. */
Matrix
withExactZeros(u32 m, u32 n, u64 seed)
{
    Rng rng(seed);
    Matrix a = Matrix::gaussian(m, n, rng);
    for (auto &x : a.data())
        if (rng.below(3) == 0)
            x = 0.0;
    for (u32 c = 0; c < n; ++c)
        a.at(1, c) = 0.0;
    return a;
}

TEST(Matrix, IdentityMatmul)
{
    Rng rng(1);
    Matrix a = Matrix::gaussian(4, 6, rng);
    Matrix out = Matrix::identity(4).matmul(a);
    EXPECT_LT(a.relativeError(out), 1e-12);
}

TEST(Matrix, TransposeInvolution)
{
    Rng rng(2);
    Matrix a = Matrix::gaussian(5, 3, rng);
    EXPECT_LT(a.relativeError(a.transpose().transpose()), 1e-15);
}

TEST(Matrix, MatvecMatchesMatmul)
{
    Rng rng(3);
    Matrix a = Matrix::gaussian(4, 5, rng);
    std::vector<f64> x = {1, -2, 3, 0.5, -0.25};
    Matrix xm(5, 1);
    for (u32 i = 0; i < 5; ++i)
        xm.at(i, 0) = x[i];
    const auto y = a.matvec(x);
    const Matrix ym = a.matmul(xm);
    for (u32 i = 0; i < 4; ++i)
        EXPECT_NEAR(y[i], ym.at(i, 0), 1e-12);
}

TEST(Matrix, FrobeniusNorm)
{
    Matrix a(2, 2);
    a.at(0, 0) = 3;
    a.at(1, 1) = 4;
    EXPECT_NEAR(a.frobeniusNorm(), 5.0, 1e-12);
}

TEST(Matrix, NonZeroCount)
{
    Matrix a(2, 3);
    a.at(0, 1) = 2.0;
    a.at(1, 2) = -1.0;
    EXPECT_EQ(a.nonZeroCount(), 2u);
}

TEST(Eigen, DiagonalMatrix)
{
    Matrix d(3, 3);
    d.at(0, 0) = 5;
    d.at(1, 1) = 2;
    d.at(2, 2) = 9;
    const auto eig = symmetricEigen(d);
    EXPECT_NEAR(eig.values[0], 9, 1e-9);
    EXPECT_NEAR(eig.values[1], 5, 1e-9);
    EXPECT_NEAR(eig.values[2], 2, 1e-9);
}

TEST(Eigen, ReconstructsSymmetricMatrix)
{
    Rng rng(4);
    Matrix a = Matrix::gaussian(6, 6, rng);
    Matrix sym = a + a.transpose();
    const auto eig = symmetricEigen(sym);
    // Reconstruct V diag(L) V^T.
    Matrix rec(6, 6);
    for (u32 r = 0; r < 6; ++r)
        for (u32 c = 0; c < 6; ++c) {
            f64 acc = 0;
            for (u32 k = 0; k < 6; ++k)
                acc += eig.vectors.at(r, k) * eig.values[k]
                     * eig.vectors.at(c, k);
            rec.at(r, c) = acc;
        }
    EXPECT_LT(sym.relativeError(rec), 1e-8);
}

TEST(Eigen, BitIdenticalToReferenceLoops)
{
    Rng rng(40);
    for (u32 n : {1u, 2u, 3u, 17u, 64u}) {
        const Matrix a = Matrix::gaussian(n, n, rng);
        const Matrix sym = a + a.transpose();
        const EigenResult got = symmetricEigen(sym);
        const EigenResult want = reference::symmetricEigen(sym);
        EXPECT_TRUE(sameBits(got.values, want.values)) << n;
        EXPECT_TRUE(sameBits(got.vectors, want.vectors)) << n;
    }
    Matrix diag(5, 5);
    for (u32 i = 0; i < 5; ++i)
        diag.at(i, i) = rng.gaussian();
    const EigenResult got = symmetricEigen(diag);
    const EigenResult want = reference::symmetricEigen(diag);
    EXPECT_TRUE(sameBits(got.values, want.values));
    EXPECT_TRUE(sameBits(got.vectors, want.vectors));
}

TEST(Svd, BitIdenticalToReferenceWithExactZeros)
{
    // Wide (A A^T), tall (A^T A) and square shapes, at full and
    // truncated rank.
    const u32 shapes[][2] = {{7, 19}, {23, 6}, {12, 12}};
    u64 seed = 41;
    for (const auto &shape : shapes) {
        const Matrix a = withExactZeros(shape[0], shape[1], seed++);
        const u32 rank = std::min(shape[0], shape[1]);
        expectSvdMatchesReference(a, rank);
        expectSvdMatchesReference(a, 3);
    }
}

TEST(Svd, BitIdenticalToReferenceOnPaperTeacherFcLayers)
{
    for (auto id : {dnn::NetId::Mnist, dnn::NetId::Har, dnn::NetId::Okg}) {
        const dnn::NetworkSpec teacher = dnn::buildTeacher(id);
        for (const auto &layer : teacher.layers) {
            const auto *fc = std::get_if<dnn::DenseFcLayer>(&layer.op);
            if (fc == nullptr)
                continue;
            SCOPED_TRACE(std::string(dnn::netName(id)) + " "
                         + std::to_string(fc->weights.rows()) + "x"
                         + std::to_string(fc->weights.cols()));
            expectSvdMatchesReference(
                fc->weights,
                std::min(fc->weights.rows(), fc->weights.cols()));
        }
    }
}

TEST(Svd, FullRankReconstructs)
{
    Rng rng(5);
    Matrix a = Matrix::gaussian(6, 9, rng);
    const auto svd = truncatedSvd(a, 6);
    EXPECT_LT(a.relativeError(svd.reconstruct()), 1e-8);
}

TEST(Svd, SingularValuesDescending)
{
    Rng rng(6);
    Matrix a = Matrix::gaussian(8, 5, rng);
    const auto svd = truncatedSvd(a, 5);
    for (u32 i = 1; i < svd.s.size(); ++i)
        EXPECT_GE(svd.s[i - 1], svd.s[i] - 1e-12);
}

TEST(Svd, RankOneMatrixExact)
{
    // a = u v^T has rank 1; rank-1 SVD must be near-exact.
    Matrix a(4, 3);
    const f64 u[] = {1, -2, 0.5, 3};
    const f64 v[] = {2, 0.25, -1};
    for (u32 r = 0; r < 4; ++r)
        for (u32 c = 0; c < 3; ++c)
            a.at(r, c) = u[r] * v[c];
    const auto svd = truncatedSvd(a, 1);
    EXPECT_LT(a.relativeError(svd.reconstruct()), 1e-10);
}

TEST(Svd, TruncationErrorDecreasesWithRank)
{
    Rng rng(7);
    Matrix a = Matrix::gaussian(10, 12, rng);
    f64 prev = 1e9;
    for (u32 k : {1u, 3u, 6u, 10u}) {
        const f64 err = a.relativeError(truncatedSvd(a, k).reconstruct());
        EXPECT_LE(err, prev + 1e-12);
        prev = err;
    }
}

TEST(Svd, FactoredParams)
{
    Rng rng(8);
    Matrix a = Matrix::gaussian(10, 20, rng);
    const auto svd = truncatedSvd(a, 4);
    EXPECT_EQ(svd.factoredParams(), 10u * 4 + 20u * 4);
}

TEST(Cp1, RankOneTensorExact)
{
    std::vector<f64> a = {1, 2, -1};
    std::vector<f64> b = {0.5, -0.25};
    std::vector<f64> c = {3, 1, 2, -2};
    Tensor3 t(3, 2, 4);
    for (u32 i = 0; i < 3; ++i)
        for (u32 j = 0; j < 2; ++j)
            for (u32 k = 0; k < 4; ++k)
                t.at(i, j, k) = a[i] * b[j] * c[k];
    const auto cp = cpRank1(t);
    EXPECT_LT(cpRank1Error(t, cp), 1e-9);
}

TEST(Cp1, CapturesDominantComponent)
{
    Rng rng(9);
    Tensor3 t(8, 5, 5);
    // Dominant rank-1 term plus small noise.
    std::vector<f64> a(8), b(5), c(5);
    for (auto &x : a)
        x = rng.gaussian();
    for (auto &x : b)
        x = rng.gaussian();
    for (auto &x : c)
        x = rng.gaussian();
    for (u32 i = 0; i < 8; ++i)
        for (u32 j = 0; j < 5; ++j)
            for (u32 k = 0; k < 5; ++k)
                t.at(i, j, k) =
                    a[i] * b[j] * c[k] + 0.01 * rng.gaussian();
    const auto cp = cpRank1(t);
    EXPECT_LT(cpRank1Error(t, cp), 0.15);
    EXPECT_EQ(cp.factoredParams(), 8u + 5 + 5 + 1);
}

TEST(Prune, ThresholdZeroesSmall)
{
    Matrix a(1, 4);
    a.at(0, 0) = 0.1;
    a.at(0, 1) = -0.5;
    a.at(0, 2) = 0.01;
    a.at(0, 3) = 2.0;
    EXPECT_EQ(pruneThreshold(a, 0.2), 2u);
    EXPECT_EQ(a.at(0, 0), 0.0);
    EXPECT_EQ(a.at(0, 1), -0.5);
}

TEST(Prune, FractionKeepsExactCount)
{
    Rng rng(10);
    Matrix a = Matrix::gaussian(20, 20, rng);
    EXPECT_EQ(pruneToFraction(a, 0.25), 100u);
    EXPECT_EQ(a.nonZeroCount(), 100u);
}

TEST(Prune, FractionKeepsLargestMagnitudes)
{
    Matrix a(1, 5);
    a.at(0, 0) = 5;
    a.at(0, 1) = -4;
    a.at(0, 2) = 3;
    a.at(0, 3) = 2;
    a.at(0, 4) = 1;
    pruneToFraction(a, 0.4);
    EXPECT_EQ(a.at(0, 0), 5.0);
    EXPECT_EQ(a.at(0, 1), -4.0);
    EXPECT_EQ(a.at(0, 2), 0.0);
}

TEST(Prune, ZeroFractionZeroesAll)
{
    Rng rng(11);
    Matrix a = Matrix::gaussian(5, 5, rng);
    EXPECT_EQ(pruneToFraction(a, 0.0), 0u);
    EXPECT_EQ(a.nonZeroCount(), 0u);
}

TEST(Sparse, CscRoundTrip)
{
    Rng rng(12);
    Matrix a = Matrix::gaussian(7, 9, rng);
    pruneToFraction(a, 0.3);
    const auto csc = CscMatrix::fromDense(a);
    EXPECT_EQ(csc.nnz(), a.nonZeroCount());
    EXPECT_LT(a.relativeError(csc.toDense()), 1e-15);
}

TEST(Sparse, CsrRoundTrip)
{
    Rng rng(13);
    Matrix a = Matrix::gaussian(7, 9, rng);
    pruneToFraction(a, 0.3);
    const auto csr = CsrMatrix::fromDense(a);
    EXPECT_LT(a.relativeError(csr.toDense()), 1e-15);
}

TEST(Sparse, MatvecAgreesWithDense)
{
    Rng rng(14);
    Matrix a = Matrix::gaussian(6, 8, rng);
    pruneToFraction(a, 0.4);
    std::vector<f64> x(8);
    for (auto &v : x)
        v = rng.gaussian();
    const auto dense = a.matvec(x);
    const auto via_csc = CscMatrix::fromDense(a).matvec(x);
    const auto via_csr = CsrMatrix::fromDense(a).matvec(x);
    for (u32 i = 0; i < 6; ++i) {
        EXPECT_NEAR(via_csc[i], dense[i], 1e-12);
        EXPECT_NEAR(via_csr[i], dense[i], 1e-12);
    }
}

TEST(NnRef, Conv2dHandComputed)
{
    FeatureMap in(1, 3, 3);
    for (u32 i = 0; i < 9; ++i)
        in.data[i] = i + 1; // 1..9
    FilterBank f(1, 1, 2, 2);
    f.at(0, 0, 0, 0) = 1;
    f.at(0, 0, 0, 1) = 0;
    f.at(0, 0, 1, 0) = 0;
    f.at(0, 0, 1, 1) = 1;
    const auto out = conv2dValid(in, f);
    EXPECT_EQ(out.height, 2u);
    EXPECT_EQ(out.width, 2u);
    EXPECT_NEAR(out.at(0, 0, 0), 1 + 5, 1e-12);
    EXPECT_NEAR(out.at(0, 1, 1), 5 + 9, 1e-12);
}

TEST(NnRef, Conv2dBitIdenticalToReferenceLoops)
{
    // Output widths 8 (even) and 5 (odd: the one-element tail), with
    // pruned taps skipped.
    Rng rng(16);
    for (u32 width : {12u, 9u}) {
        FeatureMap in(3, 10, width);
        for (auto &v : in.data)
            v = rng.gaussian();
        FilterBank f(4, 3, 5, 5);
        for (auto &v : f.data)
            v = rng.below(4) == 0 ? 0.0 : rng.gaussian();
        const FeatureMap got = conv2dValid(in, f);
        const FeatureMap want = reference::conv2dValid(in, f);
        EXPECT_EQ(got.width, width - 4);
        EXPECT_TRUE(sameBits(got.data, want.data)) << width;
    }
}

TEST(NnRef, FactoredEqualsRankOneConv)
{
    // A rank-1 separable 2-D conv equals col-conv then row-conv.
    Rng rng(15);
    FeatureMap in(1, 6, 7);
    for (auto &v : in.data)
        v = rng.gaussian();
    std::vector<f64> col = {0.5, -1.0, 0.25};
    std::vector<f64> row = {2.0, 1.0};
    FilterBank f(1, 1, 3, 2);
    for (u32 y = 0; y < 3; ++y)
        for (u32 x = 0; x < 2; ++x)
            f.at(0, 0, y, x) = col[y] * row[x];
    const auto direct = conv2dValid(in, f);
    const auto factored = convRows(convCols(in, col), row);
    ASSERT_EQ(direct.size(), factored.size());
    for (u64 i = 0; i < direct.size(); ++i)
        EXPECT_NEAR(direct.data[i], factored.data[i], 1e-10);
}

TEST(NnRef, ChannelMixAndScale)
{
    FeatureMap in(2, 1, 2);
    in.at(0, 0, 0) = 1;
    in.at(0, 0, 1) = 2;
    in.at(1, 0, 0) = 3;
    in.at(1, 0, 1) = 4;
    const auto mixed = channelMix(in, {2.0, -1.0});
    EXPECT_NEAR(mixed.at(0, 0, 0), -1.0, 1e-12);
    EXPECT_NEAR(mixed.at(0, 0, 1), 0.0, 1e-12);
    const auto scaled = channelScale(mixed, {1.0, -2.0});
    EXPECT_EQ(scaled.channels, 2u);
    EXPECT_NEAR(scaled.at(1, 0, 0), 2.0, 1e-12);
}

TEST(NnRef, MaxPoolPicksMax)
{
    FeatureMap in(1, 2, 4);
    const f64 vals[] = {1, 5, 2, 0, 3, -1, 8, 4};
    for (u32 i = 0; i < 8; ++i)
        in.data[i] = vals[i];
    const auto out = maxPool2x2(in);
    EXPECT_EQ(out.width, 2u);
    EXPECT_NEAR(out.at(0, 0, 0), 5.0, 1e-12);
    EXPECT_NEAR(out.at(0, 0, 1), 8.0, 1e-12);
}

TEST(NnRef, ReluAndArgmax)
{
    const std::vector<f64> v = {-1.0, 2.0, 0.5};
    const auto r = relu(v);
    EXPECT_EQ(r[0], 0.0);
    EXPECT_EQ(argmax(v), 1u);
}

TEST(NnRef, MacsCount)
{
    FilterBank f(4, 3, 2, 2);
    // 4*3*2*2 taps x (5-2+1)*(6-2+1) positions
    EXPECT_EQ(f.macs(5, 6), u64{4} * 3 * 2 * 2 * 4 * 5);
}

/** SVD rank sweep as a parameterized property: reconstruction is
 * monotone in rank on the same matrix. */
class SvdRankSweep : public ::testing::TestWithParam<u32>
{
};

TEST_P(SvdRankSweep, ReconstructionImproves)
{
    Rng rng(99);
    static Matrix a = Matrix::gaussian(12, 9, rng);
    const u32 k = GetParam();
    const f64 err_k =
        a.relativeError(truncatedSvd(a, k).reconstruct());
    const f64 err_k1 =
        a.relativeError(truncatedSvd(a, k + 1).reconstruct());
    EXPECT_LE(err_k1, err_k + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ranks, SvdRankSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

} // namespace
} // namespace sonic::tensor
