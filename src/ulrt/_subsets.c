/* Partial Fisher-Yates subset draws and split sums, one row per stream key.
 *
 * The compiled form of ulrt._kernels._numpy_fisher_yates and
 * ulrt._kernels._numpy_split_sums: the same splitmix64 draws, the same swaps
 * and the same additions in the same order, so the results are identical.
 * The Python wrappers check their arguments and pass contiguous buffers:
 * keys[rows], perm[n] (scratch), out[rows * k], data[C * n * d] and
 * sums[rows * d].
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

void ulrt_fisher_yates(const uint64_t *keys, int64_t rows, int64_t n, int64_t k,
                       int32_t *perm, int32_t *out)
{
    for (int64_t r = 0; r < rows; r++, out += k) {
        shuffle(keys[r], n, k, perm);
        memcpy(out, perm, (size_t)k * sizeof(int32_t));
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
