/* Partial Fisher-Yates subset draws, one row per stream key.
 *
 * The compiled form of ulrt._kernels._numpy_fisher_yates: the same
 * splitmix64 draws and the same swaps, so the subsets are identical.
 * The Python wrapper checks 0 <= k <= n < 2**31 and passes contiguous
 * buffers: keys[rows], perm[n] (scratch) and out[rows * k].
 */
#include <stdint.h>

static uint64_t finalize(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

void ulrt_fisher_yates(const uint64_t *keys, int64_t rows, int64_t n, int64_t k,
                       int32_t *perm, int32_t *out)
{
    for (int64_t r = 0; r < rows; r++, out += k) {
        for (int64_t i = 0; i < n; i++)
            perm[i] = (int32_t)i;
        for (int64_t i = 0; i < k; i++) {
            /* draw i is the finalizer of key + (i + 1) * golden */
            uint64_t draw = finalize(keys[r] + (uint64_t)(i + 1) * 0x9E3779B97F4A7C15ULL);
            int64_t j = i + (int64_t)(draw % (uint64_t)(n - i));
            int32_t picked = perm[j];
            perm[j] = perm[i];
            perm[i] = picked;
            out[i] = picked;
        }
    }
}
