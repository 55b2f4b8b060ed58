/* Split sums over partial Fisher-Yates subset draws, the same subsets' split
 * sums drawn from their exact law, polar trials, one row per stream key, the
 * log split statistic, and the loops of the special functions (the
 * incomplete gamma series and continued fraction, and the Poisson mixture of
 * the noncentral chi-squared CDF): the CPython extension module _subsets,
 * which ulrt._kernels builds and loads.
 *
 * Each of its seven methods has a numpy or Python twin of the same name, the
 * same arguments and the same bytes in ulrt._kernels._TWINS, which
 * ulrt._kernels._lib() returns when this module does not load: the same
 * splitmix64 draws, the same swaps, the same additions, products, divisions
 * and square roots in the same order and the same accepted trials, and none
 * depends on a BLAS or LAPACK.  The special functions take exp and log from
 * libm, as math.exp and math.log do, and lgamma from py_lgamma below, a port
 * of CPython's own math.lgamma.  Built with -ffp-contract=off, so that u * u
 * + v * v rounds twice, as in numpy and in Python.  The Python callers check
 * their arguments and pass contiguous buffers (PEP 3118): for the sums
 * keys[rows], data[C * n * d], perm[n] (scratch) and sums[rows * d], for the
 * exact-law sums keys[C * B], z[C * (B + 1) * d] and sums[C * (B + 1) * d],
 * for the trials keys[rows], out[rows * count] and s[rows * pairs], and for
 * the statistic theta[G * d], mean0[R * d], mean1[R * d] and out[G * R].
 * Each of these methods reads rows, C, G and R from the buffer lengths,
 * refuses buffers of any other size with ValueError, and runs its loop
 * without the GIL; the special functions take and return floats.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

static uint64_t finalize(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* k swap steps on the identity permutation of 0..n-1; perm[0..k) is then
 * the subset drawn by key, in draw order. */
static void shuffle(uint64_t key, int64_t n, int64_t k, int32_t *perm)
{
    for (int64_t i = 0; i < n; i++)
        perm[i] = (int32_t)i;
    for (int64_t i = 0; i < k; i++) {
        /* draw i is the finalizer of key + (i + 1) * golden */
        uint64_t draw = finalize(key + (uint64_t)(i + 1) * 0x9E3779B97F4A7C15ULL);
        int64_t j = i + (int64_t)(draw % (uint64_t)(n - i));
        int32_t picked = perm[j];
        perm[j] = perm[i];
        perm[i] = picked;
    }
}

/* out[t] += x[perm[0]][t] + ... + x[perm[m - 1]][t] for t < w <= COLS, added
 * one row at a time in perm order, so no sum is reordered.  The w partial
 * sums stay in registers while the rows stream past; called with a constant
 * w, which the compiler unrolls and vectorizes. */
enum { COLS = 16, ROWS = 32 };

static inline void add_rows(const double *restrict x, int64_t d, const int32_t *restrict perm,
                            int64_t m, int w, double *restrict out)
{
    double acc[COLS];
    for (int t = 0; t < w; t++)
        acc[t] = out[t];
    for (int64_t i = 0; i < m; i++) {
        const double *restrict row = x + (int64_t)perm[i] * d;
        for (int t = 0; t < w; t++)
            acc[t] += row[t];
    }
    for (int t = 0; t < w; t++)
        out[t] = acc[t];
}

/* add_rows over all d columns: COLS at a time, then the last d % COLS in
 * blocks of 8, 4, 2 and 1. */
static void add_all_columns(const double *x, int64_t d, const int32_t *perm, int64_t m,
                            double *sums)
{
    int64_t j = 0;
    for (; j + COLS <= d; j += COLS)
        add_rows(x + j, d, perm, m, COLS, sums + j);
    if (d - j >= 8) {
        add_rows(x + j, d, perm, m, 8, sums + j);
        j += 8;
    }
    if (d - j >= 4) {
        add_rows(x + j, d, perm, m, 4, sums + j);
        j += 4;
    }
    if (d - j >= 2) {
        add_rows(x + j, d, perm, m, 2, sums + j);
        j += 2;
    }
    if (d - j >= 1)
        add_rows(x + j, d, perm, m, 1, sums + j);
}

/* Row r sums the k rows of dataset r / B that key r picks, in draw order:
 * sums = ((x[s0] + x[s1]) + x[s2]) + ..., column by column.  When a row is
 * wider than COLS, the picked rows go in tiles of ROWS, so that every
 * column block of a tile reads rows still in the L1 cache.  Needs k >= 1. */
static void ulrt_split_sums(const uint64_t *keys, int64_t rows, int64_t B, int64_t n, int64_t k,
                            const double *restrict data, int64_t d, int32_t *restrict perm,
                            double *restrict sums)
{
    int64_t tile = d > COLS ? ROWS : k;
    for (int64_t r = 0; r < rows; r++, sums += d) {
        const double *x = data + (r / B) * n * d;
        shuffle(keys[r], n, k, perm);
        memcpy(sums, x + (int64_t)perm[0] * d, (size_t)d * sizeof(double));
        for (int64_t i = 1; i < k; i += tile)
            add_all_columns(x, d, perm + i, k - i < tile ? k - i : tile, sums);
    }
}

/* |x & y| for bitsets of `words` words: the portable SWAR count (Warren,
 * Hacker's Delight, 2nd ed., section 5-1), so that the build needs no
 * -mpopcnt.  Each word leaves its count per byte (at most 8), 31 words add
 * up per byte without a carry, and each block of them sums its bytes in
 * 16-bit lanes and then across them. */
static int64_t common_bits(const uint64_t *x, const uint64_t *y, int64_t words)
{
    const uint64_t m1 = 0x5555555555555555ULL, m2 = 0x3333333333333333ULL,
                   m4 = 0x0F0F0F0F0F0F0F0FULL, m8 = 0x00FF00FF00FF00FFULL;
    int64_t count = 0;
    for (int64_t lo = 0; lo < words; lo += 31) {
        int64_t hi = words - lo < 31 ? words : lo + 31;
        uint64_t bytes = 0;
        for (int64_t w = lo; w < hi; w++) {
            uint64_t v = x[w] & y[w];
            v -= (v >> 1) & m1;
            v = (v & m2) + ((v >> 2) & m2);
            bytes += (v + (v >> 4)) & m4;
        }
        bytes = (bytes & m8) + ((bytes >> 8) & m8);
        count += (int64_t)((bytes * 0x0001000100010001ULL) >> 48);
    }
    return count;
}

/* Exchanges indices j < p of the symmetric matrix whose lower triangle a
 * holds column-major, a[l * m + i] = a(i, l) for i >= l: the LAPACK dpstrf
 * swap, which also swaps rows j and p of the factor's first j columns. */
static void swap_symmetric(double *a, int64_t m, int64_t j, int64_t p)
{
    double t;
#define SWAP(x, y) (t = (x), (x) = (y), (y) = t)
    for (int64_t c = 0; c < j; c++)
        SWAP(a[c * m + j], a[c * m + p]);
    SWAP(a[j * m + j], a[p * m + p]);
    for (int64_t i = j + 1; i < p; i++)
        SWAP(a[j * m + i], a[i * m + p]);
    for (int64_t i = p + 1; i < m; i++)
        SWAP(a[j * m + i], a[p * m + i]);
#undef SWAP
}

/* Pivoted Cholesky of the m x m positive semidefinite a (lower triangle,
 * column-major as above), right-looking, in place: step j takes as pivot the
 * first largest diagonal entry of the trailing Schur complement, stops when
 * it is not above tol, and otherwise makes column j of L, with
 * a(i, l) -= L(i, j) * L(l, j) for every trailing i >= l.  Leaves L in the
 * first r columns (rows in pivot order), piv[q] the original index of pivot
 * row q, and returns the rank r. */
static int64_t pivoted_cholesky(double *a, int64_t m, double tol, int64_t *piv)
{
    for (int64_t i = 0; i < m; i++)
        piv[i] = i;
    for (int64_t j = 0; j < m; j++) {
        int64_t p = j;
        for (int64_t i = j + 1; i < m; i++)
            if (a[i * m + i] > a[p * m + p])
                p = i;
        if (!(a[p * m + p] > tol))
            return j;
        if (p != j) {
            swap_symmetric(a, m, j, p);
            int64_t t = piv[j];
            piv[j] = piv[p];
            piv[p] = t;
        }
        double *cj = a + j * m;
        double root = sqrt(cj[j]);
        cj[j] = root;
        for (int64_t i = j + 1; i < m; i++)
            cj[i] /= root;
        for (int64_t l = j + 1; l < m; l++) {
            double *cl = a + l * m, f = cj[l];
            for (int64_t i = l; i < m; i++)
                cl[i] -= cj[i] * f;
        }
    }
    return m;
}

/* The centred first-part sums of B splits per replication and the centred
 * total, drawn from their exact law given the subsets: for replication r,
 * with the subsets S_b that keys[r * B + b] draws (as in ulrt_split_sums),
 * the m = B + 1 sums are jointly N(0, G (x) I_d), where G is the Gram matrix
 * of the membership rows (G[b][b'] = |S_b & S_b'|, G[b][B] = k, G[B][B] = n).
 * G comes from popcounts of per-subset bitsets, L from pivoted_cholesky with
 * rank r, and pivot row q of the output is sum_{j <= min(q, r - 1)} L(q, j)
 * z[j], added in column order; it goes to row piv[q] of sums[r * m * d ..].
 * z and sums are rows * m * d, scratch holds m * m doubles (a), m indices
 * (piv), n int32 (perm) and B * ceil(n / 64) words (bits). */
static void ulrt_exact_sums(const uint64_t *keys, int64_t reps, int64_t B, int64_t n, int64_t k,
                            const double *restrict z, int64_t d, double tol, double *restrict sums,
                            double *restrict a, int64_t *restrict piv, int32_t *restrict perm,
                            uint64_t *restrict bits)
{
    int64_t m = B + 1, words = (n + 63) / 64;
    for (int64_t r = 0; r < reps; r++, keys += B, z += m * d, sums += m * d) {
        memset(bits, 0, (size_t)(B * words) * sizeof(uint64_t));
        for (int64_t b = 0; b < B; b++) {
            shuffle(keys[b], n, k, perm);
            for (int64_t i = 0; i < k; i++)
                bits[b * words + (perm[i] >> 6)] |= 1ULL << (perm[i] & 63);
        }
        for (int64_t l = 0; l < B; l++) {
            const uint64_t *x = bits + l * words;
            a[l * m + l] = (double)k;
            for (int64_t i = l + 1; i < B; i++) {
                a[l * m + i] = (double)common_bits(x, bits + i * words, words);
            }
            a[l * m + B] = (double)k;
        }
        a[B * m + B] = (double)n;
        int64_t rank = pivoted_cholesky(a, m, tol, piv);
        for (int64_t q = 0; q < m; q++) {
            double *out = sums + piv[q] * d;
            int64_t last = q < rank - 1 ? q : rank - 1;
            double f = a[q];
            for (int64_t t = 0; t < d; t++)
                out[t] = f * z[t];
            for (int64_t j = 1; j <= last; j++) {
                const double *zj = z + j * d;
                f = a[j * m + q];
                for (int64_t t = 0; t < d; t++)
                    out[t] += f * zj[t];
            }
        }
    }
}

/* The raw draw at the Weyl point z, mapped to [-1, 1): (double)z * 2^-63 - 1,
 * without the branch on the top bit that x86-64 compiles (double)z to.  A z
 * with the top bit set is halved, keeping the shifted-out bit sticky, and
 * scaled by 2^-62 in place of 2^-63: that rounds as the direct conversion,
 * and the power-of-two scales are exact. */
static inline double signed_unit(uint64_t z)
{
    static const double scale[2] = {0x1p-63, 0x1p-62};
    z = finalize(z);
    uint64_t top = z >> 63;
    int64_t x = (int64_t)((z >> top) | (z & top));
    return (double)x * scale[top] - 1.0;
}

/* Row r scans the polar trials of keys[r] until it holds pairs =
 * ceil(count / 2) accepted ones.  Trial i reads the draws at key + (2i + 1) *
 * golden and key + (2i + 2) * golden, and is accepted when 0 < s = u * u +
 * v * v < 1.  The j-th accepted trial leaves u in out[2j], v in out[2j + 1]
 * (dropped when 2j + 1 = count) and s in s[j]; the caller scales each pair
 * by sqrt(-2 log(s) / s).  Every trial is written, and the next one
 * overwrites it unless the accept bit moved j on, so that the unpredictable
 * acceptance takes no branch. */
static void ulrt_polar(const uint64_t *keys, int64_t rows, int64_t count, double *restrict out,
                       double *restrict s)
{
    const uint64_t golden = 0x9E3779B97F4A7C15ULL;
    int64_t pairs = (count + 1) / 2, full = count / 2;
    for (int64_t r = 0; r < rows; r++, out += count, s += pairs) {
        uint64_t z = keys[r];
        for (int64_t j = 0; j < pairs;) {
            double u = signed_unit(z += golden);
            double v = signed_unit(z += golden);
            double t = u * u + v * v;
            out[2 * j] = u;
            if (j < full)
                out[2 * j + 1] = v;
            s[j] = t;
            j += (t < 1.0) & (t > 0.0);
        }
    }
}

/* sum_j (x[j] - y[j])^2 for j < d <= 128, added in numpy's pairwise order
 * (the order of np.sum on a contiguous row): below 8 terms one running sum;
 * otherwise eight interleaved sums over the first d - d % 8 terms, paired as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest one by
 * one. */
static inline double sq_dist(const double *restrict x, const double *restrict y, int64_t d)
{
    if (d < 8) {
        double res = 0.0;
        for (int64_t j = 0; j < d; j++) {
            double t = x[j] - y[j];
            res += t * t;
        }
        return res;
    }
    double r[8];
    for (int t = 0; t < 8; t++) {
        double u = x[t] - y[t];
        r[t] = u * u;
    }
    int64_t j = 8, body = d - d % 8;
    for (; j < body; j += 8)
        for (int t = 0; t < 8; t++) {
            double u = x[j + t] - y[j + t];
            r[t] += u * u;
        }
    double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; j < d; j++) {
        double u = x[j] - y[j];
        res += u * u;
    }
    return res;
}

/* The statistic in the layout of ulrt_split_log_values, for a d that is a
 * constant wherever this is inlined.  The last row of out first holds each
 * split's |mean0_r - mean1_r|^2, which every row reads before the last
 * overwrites it in place. */
static inline __attribute__((always_inline)) void
score(const double *restrict theta, int64_t G, const double *restrict mean0,
      const double *restrict mean1, int64_t R, int64_t d, double half_m0, double *out)
{
    double *delta = out + (G - 1) * R;
    for (int64_t r = 0; r < R; r++)
        delta[r] = sq_dist(mean0 + r * d, mean1 + r * d, d);
    for (int64_t g = 0; g < G; g++) {
        const double *t = theta + g * d;
        double *row = out + g * R;
        for (int64_t r = 0; r < R; r++)
            row[r] = half_m0 * (sq_dist(mean0 + r * d, t, d) - delta[r]);
    }
}

/* out[g * R + r] = half_m0 * (|mean0_r - theta_g|^2 - |mean0_r - mean1_r|^2)
 * for G >= 1 points and R splits of d <= 128 coordinates: the log split
 * statistic.  Below 8 coordinates d is a constant of each loop, which the
 * compiler unrolls and vectorizes across splits. */
static void ulrt_split_log_values(const double *restrict theta, int64_t G,
                                  const double *restrict mean0, const double *restrict mean1,
                                  int64_t R, int64_t d, double half_m0, double *restrict out)
{
#define SCORE(D)                                                                                  \
    case D:                                                                                       \
        score(theta, G, mean0, mean1, R, D, half_m0, out);                                        \
        return;
    switch (d) {
        SCORE(1) SCORE(2) SCORE(3) SCORE(4) SCORE(5) SCORE(6) SCORE(7)
    }
#undef SCORE
    score(theta, G, mean0, mean1, R, d, half_m0, out);
}

/* CPython's math.lgamma for x >= 1e-20 (m_lgamma in Modules/mathmodule.c;
 * the loops pass x >= 0.5): Lanczos' sum with N = 13 and
 * g = 6.024680040776729583740234375, by Horner in x below 5 and in 1/x from
 * 5 on, in the same operations, so that it returns the bytes of math.lgamma,
 * which glibc's lgamma does not.  The denominator is x (x + 1) ... (x + 11).
 * x + g - 0.5 adds left to right: x + (g - 0.5) rounds differently. */
enum { LANCZOS_N = 13 };
static const double lanczos_g = 6.024680040776729583740234375;
static const double lanczos_num[LANCZOS_N] = {
    23531376880.41076, 42919803642.6491, 35711959237.35567, 17921034426.03721,
    6039542586.352028, 1439720407.3117216, 248874557.86205417, 31426415.585400194,
    2876370.6289353725, 186056.26539522348, 8071.672002365816, 210.82427775157936,
    2.5066282746310002,
};
static const double lanczos_den[LANCZOS_N] = {
    0.0, 39916800.0, 120543840.0, 150917976.0, 105258076.0, 45995730.0, 13339535.0,
    2637558.0, 357423.0, 32670.0, 1925.0, 66.0, 1.0,
};

static double py_lgamma(double x)
{
    if (x == 1.0 || x == 2.0)
        return 0.0;
    double num = 0.0, den = 0.0;
    if (x < 5.0)
        for (int i = LANCZOS_N; --i >= 0;) {
            num = num * x + lanczos_num[i];
            den = den * x + lanczos_den[i];
        }
    else
        for (int i = 0; i < LANCZOS_N; i++) {
            num = num / x + lanczos_num[i];
            den = den / x + lanczos_den[i];
        }
    double r = log(num / den) - lanczos_g;
    r += (x - 0.5) * (log(x + lanczos_g - 0.5) - 1);
    return r;
}

/* How a special-function loop ended: with its value, out of its step
 * budget, or where math.lgamma or math.exp would raise OverflowError (a
 * finite argument with an infinite result). */
enum { CONVERGED, NO_CONVERGENCE, RANGE_ERROR };

/* exp(head - lgamma(t)), as math.exp and math.lgamma compute it: the
 * prefactor exp(-x + a log(x) - lgamma(a)) of both incomplete gamma
 * expansions and the mixture terms.  Sets *status to RANGE_ERROR where
 * either raises. */
static double exp_minus_lgamma(double head, double t, int *status)
{
    double lg = py_lgamma(t), arg = head - lg, r = exp(arg);
    if (isinf(lg) || (isinf(r) && isfinite(arg)))
        *status = RANGE_ERROR;
    return r;
}

/* P(a, x) by its power series, at most `budget` steps. */
static int ulrt_gamma_p_series(double a, double x, Py_ssize_t budget, double *value)
{
    double term = 1.0 / a, total = term, denom = a;
    for (Py_ssize_t i = 0; i < budget; i++) {
        denom += 1.0;
        term *= x / denom;
        total += term;
        if (fabs(term) < fabs(total) * 1e-16) {
            int status = CONVERGED;
            *value = total * exp_minus_lgamma(-x + a * log(x), a, &status);
            return status;
        }
    }
    return NO_CONVERGENCE;
}

/* Q(a, x) by Lentz's continued fraction, at most `budget` steps. */
static int ulrt_gamma_q_contfrac(double a, double x, Py_ssize_t budget, double *value)
{
    const double tiny = 1e-300;
    double b = x + 1.0 - a, c = 1.0 / tiny, d = b != 0.0 ? 1.0 / b : 1.0 / tiny, h = d;
    for (Py_ssize_t i = 1; i <= budget; i++) {
        double an = -(double)i * ((double)i - a);
        b += 2.0;
        d = an * d + b;
        if (fabs(d) < tiny)
            d = tiny;
        c = b + an / c;
        if (fabs(c) < tiny)
            c = tiny;
        d = 1.0 / d;
        double delta = d * c;
        h *= delta;
        if (fabs(delta - 1.0) < 1e-16) {
            int status = CONVERGED;
            *value = h * exp_minus_lgamma(-x + a * log(x), a, &status);
            return status;
        }
    }
    return NO_CONVERGENCE;
}

/* g(a + k) = e^-s s^(a + k) / Gamma(a + k + 1), a term of the mixture. */
static inline double g(double a, double s, double log_s, int64_t k, int *status)
{
    return exp_minus_lgamma(-s + (a + (double)k) * log_s, a + (double)k + 1.0, status);
}

/* Python's max(x, y) and min(x, y) for floats: x unless y compares above
 * (below) it, so that -0.0 and NaN come out as in Python. */
static inline double py_max(double x, double y) { return y > x ? y : x; }
static inline double py_min(double x, double y) { return y < x ? y : x; }

/* The Poisson mixture of the noncentral chi-squared CDF, summed outward from
 * the mode k0 with weight w0 and central CDF p0, at most `budget` steps;
 * half = lambda / 2, a = d / 2 and s = x / 2.  A direction steps while a
 * geometric bound on its unsummed tail exceeds 0.5 * abs_tol * mass. */
static int ulrt_noncentral_mixture(double half, int64_t k0, double a, double s, double log_s,
                                   double w0, double p0, Py_ssize_t budget, double abs_tol,
                                   double *value)
{
    int status = CONVERGED;
    double total = w0 * p0, mass = w0;
    double w_up = w0, p_up = p0, w_down = w0, p_down = p0;
    int64_t k_up = k0, k_down = k0;
    for (Py_ssize_t i = 0; i < budget; i++) {
        double tol = 0.5 * abs_tol * mass;
        int up = w_up * half / ((double)(k_up + 1) - half) > tol;
        int down = w_down * (double)k_down / py_max(half - (double)k_down, 1.0) > tol;
        if (!(up || down)) {
            *value = py_min(py_max(total / mass, 0.0), 1.0);
            return CONVERGED;
        }
        if (up) {
            p_up = py_max(p_up - g(a, s, log_s, k_up, &status), 0.0);
            if (status != CONVERGED)
                return status;
            k_up += 1;
            w_up *= half / (double)k_up;
            total += w_up * p_up;
            mass += w_up;
        }
        if (down) {
            w_down *= (double)k_down / half;
            k_down -= 1;
            p_down = py_min(p_down + g(a, s, log_s, k_down, &status), 1.0);
            if (status != CONVERGED)
                return status;
            total += w_down * p_down;
            mass += w_down;
        }
    }
    return NO_CONVERGENCE;
}

/* The value of a special-function loop that ended with status, None when
 * it ran out of steps, or OverflowError as math raises it. */
static PyObject *special_result(int status, double value)
{
    if (status == NO_CONVERGENCE)
        Py_RETURN_NONE;
    if (status == RANGE_ERROR) {
        PyErr_SetString(PyExc_OverflowError, "math range error");
        return NULL;
    }
    return PyFloat_FromDouble(value);
}

/* Releases the count buffers of a method call; returns None, or raises
 * ValueError when the buffer sizes did not fit (ok == 0). */
static PyObject *done(int ok, Py_buffer *views, int count)
{
    for (int i = 0; i < count; i++)
        PyBuffer_Release(&views[i]);
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "buffer sizes do not fit the arguments");
        return NULL;
    }
    Py_RETURN_NONE;
}

/* split_sums(keys, B, n, k, data, d, perm, sums) */
static PyObject *split_sums(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer v[4]; /* keys, data, perm, sums */
    Py_ssize_t B, n, k, d;
    if (!PyArg_ParseTuple(args, "y*nnny*nw*w*", &v[0], &B, &n, &k, &v[1], &d, &v[2], &v[3]))
        return NULL;
    Py_ssize_t rows = v[0].len / 8;
    int ok = v[0].len % 8 == 0 && 1 <= k && k <= n && n <= INT32_MAX && d >= 0
             && v[2].len == n * 4 && v[3].len == rows * d * 8
             && (rows == 0 || (B >= 1 && rows % B == 0 && v[1].len == rows / B * n * d * 8));
    if (ok) {
        Py_BEGIN_ALLOW_THREADS
        ulrt_split_sums(v[0].buf, rows, B, n, k, v[1].buf, d, v[2].buf, v[3].buf);
        Py_END_ALLOW_THREADS
    }
    return done(ok, v, 4);
}

/* exact_sums(keys, B, n, k, z, d, tol, sums) */
static PyObject *exact_sums(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer v[3]; /* keys, z, sums */
    Py_ssize_t B, n, k, d;
    double tol;
    if (!PyArg_ParseTuple(args, "y*nnny*ndw*", &v[0], &B, &n, &k, &v[1], &d, &tol, &v[2]))
        return NULL;
    Py_ssize_t rows = v[0].len / 8, reps = B >= 1 ? rows / B : 0;
    int ok = v[0].len % 8 == 0 && B >= 1 && rows % B == 0 && 1 <= k && k <= n
             && n <= INT32_MAX && d >= 0 && tol > 0.0 && v[1].len == reps * (B + 1) * d * 8
             && v[2].len == v[1].len;
    if (ok && reps > 0) {
        Py_ssize_t m = B + 1, words = (n + 63) / 64;
        double *a = PyMem_RawMalloc((size_t)(m * m) * sizeof(double));
        int64_t *piv = PyMem_RawMalloc((size_t)m * sizeof(int64_t));
        int32_t *perm = PyMem_RawMalloc((size_t)n * sizeof(int32_t));
        uint64_t *bits = PyMem_RawMalloc((size_t)(B * words) * sizeof(uint64_t));
        if (a && piv && perm && bits) {
            Py_BEGIN_ALLOW_THREADS
            ulrt_exact_sums(v[0].buf, reps, B, n, k, v[1].buf, d, tol, v[2].buf, a, piv, perm,
                            bits);
            Py_END_ALLOW_THREADS
        }
        int failed = !(a && piv && perm && bits);
        PyMem_RawFree(a);
        PyMem_RawFree(piv);
        PyMem_RawFree(perm);
        PyMem_RawFree(bits);
        if (failed) {
            for (int i = 0; i < 3; i++)
                PyBuffer_Release(&v[i]);
            return PyErr_NoMemory();
        }
    }
    return done(ok, v, 3);
}

/* polar(keys, count, out, s) */
static PyObject *polar(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer v[3]; /* keys, out, s */
    Py_ssize_t count;
    if (!PyArg_ParseTuple(args, "y*nw*w*", &v[0], &count, &v[1], &v[2]))
        return NULL;
    Py_ssize_t rows = v[0].len / 8;
    int ok = v[0].len % 8 == 0 && count >= 0 && v[1].len == rows * count * 8
             && v[2].len == rows * ((count + 1) / 2) * 8;
    if (ok) {
        Py_BEGIN_ALLOW_THREADS
        ulrt_polar(v[0].buf, rows, count, v[1].buf, v[2].buf);
        Py_END_ALLOW_THREADS
    }
    return done(ok, v, 3);
}

/* split_log_values(theta, mean0, mean1, d, half_m0, out) */
static PyObject *split_log_values(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer v[4]; /* theta, mean0, mean1, out */
    Py_ssize_t d;
    double half_m0;
    if (!PyArg_ParseTuple(args, "y*y*y*ndw*", &v[0], &v[1], &v[2], &d, &half_m0, &v[3]))
        return NULL;
    int ok = d >= 1 && v[0].len % (8 * d) == 0 && v[1].len % (8 * d) == 0 && v[2].len == v[1].len;
    Py_ssize_t G = ok ? v[0].len / (8 * d) : 0, R = ok ? v[1].len / (8 * d) : 0;
    ok = ok && v[3].len == G * R * 8;
    if (ok && G > 0) {
        Py_BEGIN_ALLOW_THREADS
        ulrt_split_log_values(v[0].buf, G, v[1].buf, v[2].buf, R, d, half_m0, v[3].buf);
        Py_END_ALLOW_THREADS
    }
    return done(ok, v, 4);
}

/* gamma_p_series(a, x, budget) and gamma_q_contfrac(a, x, budget): a float,
 * or None after budget steps.  They keep the GIL: at the presets' shapes a
 * call takes a microsecond or two. */
static PyObject *gamma_p_series(PyObject *Py_UNUSED(self), PyObject *args)
{
    double a, x, value = 0.0;
    Py_ssize_t budget;
    if (!PyArg_ParseTuple(args, "ddn", &a, &x, &budget))
        return NULL;
    int status = ulrt_gamma_p_series(a, x, budget, &value);
    return special_result(status, value);
}

static PyObject *gamma_q_contfrac(PyObject *Py_UNUSED(self), PyObject *args)
{
    double a, x, value = 0.0;
    Py_ssize_t budget;
    if (!PyArg_ParseTuple(args, "ddn", &a, &x, &budget))
        return NULL;
    int status = ulrt_gamma_q_contfrac(a, x, budget, &value);
    return special_result(status, value);
}

/* noncentral_mixture(half, k0, a, s, log_s, w0, p0, budget, abs_tol): a
 * float, or None after budget steps; keeps the GIL, as above. */
static PyObject *noncentral_mixture(PyObject *Py_UNUSED(self), PyObject *args)
{
    double half, a, s, log_s, w0, p0, abs_tol, value = 0.0;
    Py_ssize_t k0, budget;
    if (!PyArg_ParseTuple(args, "dndddddnd", &half, &k0, &a, &s, &log_s, &w0, &p0, &budget,
                          &abs_tol))
        return NULL;
    int status = ulrt_noncentral_mixture(half, k0, a, s, log_s, w0, p0, budget, abs_tol, &value);
    return special_result(status, value);
}

static PyMethodDef methods[] = {
    {"split_sums", split_sums, METH_VARARGS, NULL},
    {"exact_sums", exact_sums, METH_VARARGS, NULL},
    {"polar", polar, METH_VARARGS, NULL},
    {"split_log_values", split_log_values, METH_VARARGS, NULL},
    {"gamma_p_series", gamma_p_series, METH_VARARGS, NULL},
    {"gamma_q_contfrac", gamma_q_contfrac, METH_VARARGS, NULL},
    {"noncentral_mixture", noncentral_mixture, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_subsets",
    .m_methods = methods,
};

/* Multi-phase initialization (PEP 489), so that builds in several caches can
 * each be loaded into one process. */
PyMODINIT_FUNC PyInit__subsets(void)
{
    return PyModuleDef_Init(&module);
}
