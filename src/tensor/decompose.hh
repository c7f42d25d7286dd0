/**
 * @file
 * Low-rank decompositions used by GENESIS' "separation" compression:
 *  - truncated SVD for fully-connected layers (m x n -> m x k, k x n),
 *  - rank-1 CP/Tucker (HOOI-style alternating power iteration) for
 *    convolutional filter banks (m x kh x kw -> m + kh + kw "3x 1-D"
 *    filters, the paper's Table 2 "HOOI 3x1D Conv" rows).
 */

#ifndef SONIC_TENSOR_DECOMPOSE_HH
#define SONIC_TENSOR_DECOMPOSE_HH

#include <vector>

#include "tensor/matrix.hh"
#include "util/types.hh"

namespace sonic::tensor
{

/** Result of a symmetric eigendecomposition, eigenvalues descending. */
struct EigenResult
{
    std::vector<f64> values;
    Matrix vectors; ///< column i is the eigenvector for values[i]
};

/** symmetricEigen's defaults, which truncatedSvd also uses. */
inline constexpr u32 kEigenMaxSweeps = 64;
inline constexpr f64 kEigenTolerance = 1e-12;

/**
 * Jacobi eigendecomposition of a symmetric matrix. O(n^3) per sweep;
 * intended for the small Gram matrices (n <= a few hundred) that arise
 * when decomposing our layers.
 */
EigenResult symmetricEigen(const Matrix &sym,
                           u32 max_sweeps = kEigenMaxSweeps,
                           f64 tol = kEigenTolerance);

/** Truncated SVD A ~= U diag(S) V^T with k columns. */
struct SvdResult
{
    Matrix u;              ///< m x k
    std::vector<f64> s;    ///< k singular values, descending
    Matrix v;              ///< n x k

    /** Reconstruct the rank-k approximation. */
    Matrix reconstruct() const;

    /** Parameter count of the factored form (m*k + k*n). */
    u64 factoredParams() const;
};

/**
 * The smaller Gram matrix of a: A A^T when rows <= cols, else A^T A.
 * Entries (r, c) and (c, r) are bitwise equal, and each is bitwise the
 * entry Matrix::matmul gives against an explicit transpose.
 */
Matrix gramMatrix(const Matrix &a);

/**
 * Rank-k SVD computed via eigendecomposition of the smaller Gram
 * matrix (numerically adequate for compression use).
 */
SvdResult truncatedSvd(const Matrix &a, u32 k);

/** Rank-1 CP decomposition T ~= lambda * a (x) b (x) c. */
struct Cp1Result
{
    f64 lambda = 0.0;
    std::vector<f64> a; ///< dim0 (output channels)
    std::vector<f64> b; ///< dim1 (filter rows)
    std::vector<f64> c; ///< dim2 (filter cols)

    /** Reconstruct the rank-1 tensor. */
    Tensor3 reconstruct(u32 d0, u32 d1, u32 d2) const;

    /** Parameter count of the factored form (d0 + d1 + d2 + 1). */
    u64 factoredParams() const;
};

/**
 * Alternating power iteration (the rank-(1,1,1) special case of the
 * higher-order orthogonal iteration the paper cites) for a 3-D tensor.
 */
Cp1Result cpRank1(const Tensor3 &t, u32 max_iters = 100, f64 tol = 1e-10);

/** Relative error of a rank-1 approximation. */
f64 cpRank1Error(const Tensor3 &t, const Cp1Result &cp);

} // namespace sonic::tensor

#endif // SONIC_TENSOR_DECOMPOSE_HH
