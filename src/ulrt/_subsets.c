/* Split sums over partial Fisher-Yates subset draws and polar trials, one
 * row per stream key, and the log split statistic.
 *
 * The compiled form of ulrt._kernels._numpy_split_sums (with its shuffle,
 * _numpy_fisher_yates), ulrt._kernels._numpy_polar and
 * ulrt._kernels._numpy_split_log_values: the same splitmix64 draws, the
 * same swaps, the same additions in the same order and the same accepted
 * trials, so the results are identical.  Built with -ffp-contract=off, so
 * that u * u + v * v rounds twice, as in numpy.  The Python wrappers check
 * their arguments and pass contiguous buffers: for the sums keys[rows],
 * perm[n] (scratch), data[C * n * d] and sums[rows * d], for the trials
 * keys[rows], out[rows * count] and s[rows * pairs], and for the statistic
 * theta[G * d], mean0[R * d], mean1[R * d] and out[G * R].
 */
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
void ulrt_split_sums(const uint64_t *keys, int64_t rows, int64_t B, int64_t n, int64_t k,
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
void ulrt_polar(const uint64_t *keys, int64_t rows, int64_t count, double *restrict out,
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
void ulrt_split_log_values(const double *restrict theta, int64_t G, const double *restrict mean0,
                           const double *restrict mean1, int64_t R, int64_t d, double half_m0,
                           double *restrict out)
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
