#include "tensor/decompose.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace sonic::tensor
{

namespace
{

/**
 * Rotate two distinct rows of length n by the Jacobi angle (c, s).
 * Element pairs go two at a time, which the compiler turns into
 * two-lane vector arithmetic at -O2; every lane computes exactly the
 * scalar expression.
 */
void
rotateRows(f64 *x, f64 *y, u32 n, f64 c, f64 s)
{
    u32 k = 0;
    for (; k + 2 <= n; k += 2) {
        const f64 x0 = x[k], x1 = x[k + 1];
        const f64 y0 = y[k], y1 = y[k + 1];
        x[k] = c * x0 - s * y0;
        x[k + 1] = c * x1 - s * y1;
        y[k] = s * x0 + c * y0;
        y[k + 1] = s * x1 + c * y1;
    }
    for (; k < n; ++k) {
        const f64 xk = x[k];
        const f64 yk = y[k];
        x[k] = c * xk - s * yk;
        y[k] = s * xk + c * yk;
    }
}

/**
 * A finished cyclic-Jacobi solve. The eigenvectors are stored as rows
 * (row j is the eigenvector whose eigenvalue sits at a(j, j)), so each
 * rotation updates two contiguous rows; order lists the indices by
 * descending eigenvalue.
 */
struct Jacobi
{
    Matrix a;
    Matrix vectorRows;
    std::vector<u32> order;

    f64 value(u32 i) const { return a.at(order[i], order[i]); }

    const f64 *
    vector(u32 i) const
    {
        return &vectorRows.data()[u64{order[i]} * vectorRows.cols()];
    }
};

Jacobi
jacobi(const Matrix &sym, u32 max_sweeps, f64 tol)
{
    SONIC_ASSERT(sym.rows() == sym.cols(), "symmetricEigen needs square");
    const u32 n = sym.rows();
    Jacobi out{sym, Matrix::identity(n), std::vector<u32>(n)};
    // The matrices are n x n for the whole solve, so every index below
    // is in bounds; the rotations run on raw row pointers.
    f64 *a = out.a.data().data();
    f64 *v = out.vectorRows.data().data();
    auto row = [n](f64 *base, u32 r) { return base + u64{r} * n; };

    for (u32 sweep = 0; sweep < max_sweeps; ++sweep) {
        f64 off = 0.0;
        for (u32 p = 0; p < n; ++p) {
            const f64 *ap = row(a, p);
            for (u32 q = p + 1; q < n; ++q)
                off += ap[q] * ap[q];
        }
        if (off < tol * tol)
            break;

        for (u32 p = 0; p < n; ++p) {
            for (u32 q = p + 1; q < n; ++q) {
                f64 *ap = row(a, p);
                f64 *aq = row(a, q);
                const f64 apq = ap[q];
                if (std::fabs(apq) < 1e-300)
                    continue;
                const f64 app = ap[p];
                const f64 aqq = aq[q];
                const f64 theta = (aqq - app) / (2.0 * apq);
                const f64 t = (theta >= 0.0 ? 1.0 : -1.0)
                    / (std::fabs(theta)
                       + std::sqrt(theta * theta + 1.0));
                const f64 c = 1.0 / std::sqrt(t * t + 1.0);
                const f64 s = t * c;

                // Columns p and q first, then rows p and q: the row
                // pass reads the 2x2 block the column pass wrote.
                for (u32 k = 0; k < n; ++k) {
                    f64 *ak = row(a, k);
                    const f64 akp = ak[p];
                    const f64 akq = ak[q];
                    ak[p] = c * akp - s * akq;
                    ak[q] = s * akp + c * akq;
                }
                rotateRows(ap, aq, n, c, s);
                rotateRows(row(v, p), row(v, q), n, c, s);
            }
        }
    }

    // Sort eigenpairs by descending eigenvalue.
    std::iota(out.order.begin(), out.order.end(), 0u);
    std::sort(out.order.begin(), out.order.end(), [&](u32 x, u32 y) {
        return out.a.at(x, x) > out.a.at(y, y);
    });
    return out;
}

} // namespace

Matrix
gramMatrix(const Matrix &a)
{
    // Each upper-triangle entry sums the same products in the same
    // order as Matrix::matmul against the transpose would (k
    // ascending, zero left operands skipped), without building the
    // transpose; the lower triangle mirrors it.
    const u32 m = a.rows();
    const u32 n = a.cols();
    const f64 *src = a.data().data();
    const bool use_rows = m <= n;
    const u32 size = use_rows ? m : n;
    Matrix g(size, size);
    f64 *dst = g.data().data();

    if (use_rows) {
        // (r, c) = row r . row c: one dot product per entry.
        for (u32 r = 0; r < m; ++r) {
            const f64 *ar = src + u64{r} * n;
            for (u32 c = r; c < m; ++c) {
                const f64 *ac = src + u64{c} * n;
                f64 acc = 0.0;
                for (u32 k = 0; k < n; ++k)
                    if (ar[k] != 0.0)
                        acc += ar[k] * ac[k];
                dst[u64{r} * size + c] = acc;
            }
        }
    } else {
        // (r, c) = column r . column c: stream the rows of a, adding
        // row k's products into every upper-triangle entry.
        for (u32 k = 0; k < m; ++k) {
            const f64 *ak = src + u64{k} * n;
            for (u32 r = 0; r < n; ++r) {
                const f64 x = ak[r];
                if (x == 0.0)
                    continue;
                f64 *gr = dst + u64{r} * size;
                for (u32 c = r; c < n; ++c)
                    gr[c] += x * ak[c];
            }
        }
    }
    for (u32 r = 0; r < size; ++r)
        for (u32 c = r + 1; c < size; ++c)
            dst[u64{c} * size + r] = dst[u64{r} * size + c];
    return g;
}

EigenResult
symmetricEigen(const Matrix &sym, u32 max_sweeps, f64 tol)
{
    const Jacobi eig = jacobi(sym, max_sweeps, tol);
    const u32 n = sym.rows();
    EigenResult result;
    result.values.resize(n);
    result.vectors = Matrix(n, n);
    for (u32 i = 0; i < n; ++i) {
        result.values[i] = eig.value(i);
        const f64 *vec = eig.vector(i);
        for (u32 r = 0; r < n; ++r)
            result.vectors.at(r, i) = vec[r];
    }
    return result;
}

Matrix
SvdResult::reconstruct() const
{
    const u32 m = u.rows();
    const u32 n = v.rows();
    const u32 k = static_cast<u32>(s.size());
    Matrix out(m, n);
    for (u32 r = 0; r < m; ++r)
        for (u32 c = 0; c < n; ++c) {
            f64 acc = 0.0;
            for (u32 i = 0; i < k; ++i)
                acc += u.at(r, i) * s[i] * v.at(c, i);
            out.at(r, c) = acc;
        }
    return out;
}

u64
SvdResult::factoredParams() const
{
    return u64{u.rows()} * u.cols() + u64{v.rows()} * v.cols();
}

SvdResult
truncatedSvd(const Matrix &a, u32 k)
{
    const u32 m = a.rows();
    const u32 n = a.cols();
    SONIC_ASSERT(k >= 1 && k <= std::min(m, n), "invalid SVD rank");

    // Work with the smaller Gram matrix.
    const bool use_rows = m <= n;
    const Jacobi eig =
        jacobi(gramMatrix(a), kEigenMaxSweeps, kEigenTolerance);
    const f64 *src = a.data().data();

    SvdResult result;
    result.s.resize(k);
    result.u = Matrix(m, k);
    result.v = Matrix(n, k);
    std::vector<f64> acc(use_rows ? n : 0);
    for (u32 i = 0; i < k; ++i) {
        const f64 sigma = std::sqrt(std::max(0.0, eig.value(i)));
        result.s[i] = sigma;
        const f64 *vec = eig.vector(i);
        if (use_rows) {
            for (u32 r = 0; r < m; ++r)
                result.u.at(r, i) = vec[r];
            // v_i = A^T u_i / sigma: one accumulator per column, each
            // summed over r in ascending order.
            if (sigma > 1e-300) {
                std::fill(acc.begin(), acc.end(), 0.0);
                for (u32 r = 0; r < m; ++r) {
                    const f64 *ar = src + u64{r} * n;
                    const f64 ur = vec[r];
                    for (u32 c = 0; c < n; ++c)
                        acc[c] += ar[c] * ur;
                }
                for (u32 c = 0; c < n; ++c)
                    result.v.at(c, i) = acc[c] / sigma;
            }
        } else {
            for (u32 c = 0; c < n; ++c)
                result.v.at(c, i) = vec[c];
            // u_i = A v_i / sigma
            if (sigma > 1e-300) {
                for (u32 r = 0; r < m; ++r) {
                    const f64 *ar = src + u64{r} * n;
                    f64 dot = 0.0;
                    for (u32 c = 0; c < n; ++c)
                        dot += ar[c] * vec[c];
                    result.u.at(r, i) = dot / sigma;
                }
            }
        }
    }
    return result;
}

Tensor3
Cp1Result::reconstruct(u32 d0, u32 d1, u32 d2) const
{
    SONIC_ASSERT(a.size() == d0 && b.size() == d1 && c.size() == d2);
    Tensor3 out(d0, d1, d2);
    for (u32 i = 0; i < d0; ++i)
        for (u32 j = 0; j < d1; ++j)
            for (u32 k = 0; k < d2; ++k)
                out.at(i, j, k) = lambda * a[i] * b[j] * c[k];
    return out;
}

u64
Cp1Result::factoredParams() const
{
    return a.size() + b.size() + c.size() + 1;
}

namespace
{

f64
norm(const std::vector<f64> &v)
{
    f64 sum = 0.0;
    for (f64 x : v)
        sum += x * x;
    return std::sqrt(sum);
}

void
normalize(std::vector<f64> &v)
{
    const f64 n = norm(v);
    if (n > 1e-300)
        for (f64 &x : v)
            x /= n;
}

} // namespace

Cp1Result
cpRank1(const Tensor3 &t, u32 max_iters, f64 tol)
{
    const u32 d0 = t.dim0();
    const u32 d1 = t.dim1();
    const u32 d2 = t.dim2();

    Cp1Result cp;
    cp.a.assign(d0, 1.0 / std::sqrt(static_cast<f64>(d0)));
    cp.b.assign(d1, 1.0 / std::sqrt(static_cast<f64>(d1)));
    cp.c.assign(d2, 1.0 / std::sqrt(static_cast<f64>(d2)));

    f64 prev_lambda = 0.0;
    for (u32 iter = 0; iter < max_iters; ++iter) {
        // a <- T x_1 (b, c)
        for (u32 i = 0; i < d0; ++i) {
            f64 acc = 0.0;
            for (u32 j = 0; j < d1; ++j)
                for (u32 k = 0; k < d2; ++k)
                    acc += t.at(i, j, k) * cp.b[j] * cp.c[k];
            cp.a[i] = acc;
        }
        normalize(cp.a);

        // b <- T x_2 (a, c)
        for (u32 j = 0; j < d1; ++j) {
            f64 acc = 0.0;
            for (u32 i = 0; i < d0; ++i)
                for (u32 k = 0; k < d2; ++k)
                    acc += t.at(i, j, k) * cp.a[i] * cp.c[k];
            cp.b[j] = acc;
        }
        normalize(cp.b);

        // c <- T x_3 (a, b); lambda is its norm.
        for (u32 k = 0; k < d2; ++k) {
            f64 acc = 0.0;
            for (u32 i = 0; i < d0; ++i)
                for (u32 j = 0; j < d1; ++j)
                    acc += t.at(i, j, k) * cp.a[i] * cp.b[j];
            cp.c[k] = acc;
        }
        cp.lambda = norm(cp.c);
        normalize(cp.c);

        if (std::fabs(cp.lambda - prev_lambda)
            <= tol * std::max(1.0, std::fabs(cp.lambda))) {
            break;
        }
        prev_lambda = cp.lambda;
    }
    return cp;
}

f64
cpRank1Error(const Tensor3 &t, const Cp1Result &cp)
{
    const f64 denom = t.frobeniusNorm();
    if (denom == 0.0)
        return 0.0;
    Tensor3 rec = cp.reconstruct(t.dim0(), t.dim1(), t.dim2());
    f64 sum = 0.0;
    for (u64 i = 0; i < t.size(); ++i) {
        const f64 d = t.data()[i] - rec.data()[i];
        sum += d * d;
    }
    return std::sqrt(sum) / denom;
}

} // namespace sonic::tensor
