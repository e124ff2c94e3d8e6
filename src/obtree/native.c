/* AVX-512 kernels for stages 2-3 of obtree: leaf index, leaf load and fold.
 *
 * Both kernels walk a quantized block in groups of 64 objects, one object
 * per byte lane of a 512-bit vector, CHUNK groups per pass over the leaf
 * bank.  For each group, every distinct split condition is tested once with
 * an unsigned byte compare into a 64-bit mask (`scratch` holds n_cond masks
 * per group of a chunk).  Then, tree by tree and group by group, the tree's
 * leaf index is built in a zmm by masked byte adds of 1 << level where the
 * level's condition holds, and its leaves are loaded and added into
 * per-object sums, so every object sums its leaves in tree order:
 *   binary16  vpermw/vpermt2w select the leaves from the tree's table in
 *             registers (loaded under a mask when shorter than 32 entries,
 *             so nothing past the table is read), vcvtph2ps widens them and
 *             the sums are binary32;
 *   binary64  vgatherdpd loads the leaves and the sums are binary64.
 * The sums start from `acc`, and only its first `live` entries are read and
 * written.  The quantile rows, `stride` bytes apart, hold whole groups; the
 * lanes past `live` test no condition, so their index is 0.
 *
 * Bit identity with the scalar oracle needs the IEEE default environment:
 * no flush-to-zero or denormals-are-zero mode, adds rounded one at a time
 * (build with -ffp-contract=off, never -ffast-math).
 */

#include <immintrin.h>
#include <stdint.h>

#define KERNEL __attribute__((target("avx512f,avx512bw,f16c")))

/* Bit 0: avx512f, bit 1: avx512bw, bit 2: f16c. */
int obtree_cpu_flags(void)
{
    __builtin_cpu_init();
    return (__builtin_cpu_supports("avx512f") ? 1 : 0)
         | (__builtin_cpu_supports("avx512bw") ? 2 : 0)
         | (__builtin_cpu_supports("f16c") ? 4 : 0);
}

#define CHUNK 8

/* Masks of the conditions that hold for the group's first n objects. */
KERNEL static void test_conditions(
    const uint8_t *group, int64_t stride, int64_t n, int64_t n_cond,
    const int64_t *cond_feature, const uint8_t *cond_ordinal, uint64_t *masks)
{
    __mmask64 live = n >= 64 ? ~(__mmask64)0 : ((__mmask64)1 << n) - 1;
    for (int64_t c = 0; c < n_cond; c++) {
        __m512i q = _mm512_loadu_si512(group + cond_feature[c] * stride);
        masks[c] = _mm512_mask_cmpgt_epu8_mask(live, q, _mm512_set1_epi8((char)cond_ordinal[c]));
    }
}

/* Tests the conditions for the chunk's n objects; returns its group count. */
KERNEL static int64_t start_chunk(
    const uint8_t *quantiles, int64_t stride, int64_t n,
    const int64_t *cond_feature, const uint8_t *cond_ordinal, int64_t n_cond,
    uint64_t *masks)
{
    int64_t groups = (n + 63) / 64;
    for (int64_t g = 0; g < groups; g++)
        test_conditions(quantiles + 64 * g, stride, n - 64 * g, n_cond, cond_feature,
                        cond_ordinal, masks + g * n_cond);
    return groups;
}

/* Tree t's depth and the condition number of each of its levels. */
static int tree_conditions(
    const int64_t *split_cond, int64_t n_trees, const int64_t *offsets, int64_t t,
    int64_t *cond)
{
    int depth = __builtin_ctzll((unsigned long long)(offsets[t + 1] - offsets[t]));
    for (int k = 0; k < depth; k++)
        cond[k] = split_cond[k * n_trees + t];
    return depth;
}

/* Bits 0 .. levels-1 of the leaf index of a group's objects, one per byte
 * lane: bit[k] = 1 << k is added in the lanes where level k's condition
 * holds. */
KERNEL static __m512i leaf_index(
    const uint64_t *masks, const int64_t *cond, int levels, const __m512i *bit)
{
    __m512i idx = _mm512_setzero_si512();
    for (int k = 0; k < levels; k++)
        idx = _mm512_mask_add_epi8(idx, _cvtu64_mask64(masks[cond[k]]), idx, bit[k]);
    return idx;
}

/* vpermt2w over the 64 binary16 entries at src. */
KERNEL static __m512i pair16(const uint16_t *src, __m512i idx)
{
    return _mm512_permutex2var_epi16(_mm512_loadu_si512(src), idx, _mm512_loadu_si512(src + 32));
}

/* The binary16 leaves of objects 32 * part .. 32 * part + 31 of a group,
 * whose index bits 0-5 are the words of idx, from the table of 2**depth
 * entries at src.  Levels 6 and 7 choose between permutes by their
 * condition masks. */
KERNEL static __m512i select16(
    const uint64_t *masks, const int64_t *cond, int depth, int part, __m512i idx,
    const uint16_t *src)
{
    if (depth < 5)
        return _mm512_permutexvar_epi16(
            idx, _mm512_maskz_loadu_epi16((__mmask32)((1u << (1 << depth)) - 1), src));
    if (depth == 5)
        return _mm512_permutexvar_epi16(idx, _mm512_loadu_si512(src));
    __m512i r = pair16(src, idx);
    if (depth == 6)
        return r;
    __mmask32 level6 = (__mmask32)(masks[cond[6]] >> (32 * part));
    r = _mm512_mask_mov_epi16(r, level6, pair16(src + 64, idx));
    if (depth == 7)
        return r;
    __m512i s = _mm512_mask_mov_epi16(pair16(src + 128, idx), level6, pair16(src + 192, idx));
    return _mm512_mask_mov_epi16(r, (__mmask32)(masks[cond[7]] >> (32 * part)), s);
}

KERNEL void obtree_fold_binary16(
    const int64_t *cond_feature, const uint8_t *cond_ordinal, int64_t n_cond,
    const int64_t *split_cond, int64_t n_trees, const uint16_t *bank, const int64_t *offsets,
    const uint8_t *quantiles, int64_t stride, int64_t live, uint64_t *scratch, float *acc)
{
    uint64_t *masks = scratch;
    float sum[CHUNK * 64];
    int64_t cond[8];
    __m512i bit[6];
    for (int k = 0; k < 6; k++)
        bit[k] = _mm512_set1_epi8((char)(1 << k));
    for (int64_t begin = 0; begin < live; begin += CHUNK * 64) {
        int64_t n = live - begin < CHUNK * 64 ? live - begin : CHUNK * 64;
        int64_t groups = start_chunk(quantiles + begin, stride, n, cond_feature, cond_ordinal,
                                     n_cond, masks);
        for (int64_t i = 0; i < groups * 64; i++)
            sum[i] = i < n ? acc[begin + i] : 0.0f;
        for (int64_t t = 0; t < n_trees; t++) {
            int depth = tree_conditions(split_cond, n_trees, offsets, t, cond);
            const uint16_t *src = bank + offsets[t];
            for (int64_t g = 0; g < groups; g++) {
                const uint64_t *group = masks + g * n_cond;
                __m512i idx = leaf_index(group, cond, depth < 6 ? depth : 6, bit);
                __m512i lo = _mm512_cvtepu8_epi16(_mm512_castsi512_si256(idx));
                __m512i hi = _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(idx, 1));
                lo = select16(group, cond, depth, 0, lo, src);
                hi = select16(group, cond, depth, 1, hi, src);
                __m256i half[4] = {
                    _mm512_castsi512_si256(lo), _mm512_extracti64x4_epi64(lo, 1),
                    _mm512_castsi512_si256(hi), _mm512_extracti64x4_epi64(hi, 1),
                };
                float *s = sum + 64 * g;
                for (int j = 0; j < 4; j++)
                    _mm512_storeu_ps(s + 16 * j, _mm512_add_ps(_mm512_loadu_ps(s + 16 * j),
                                                               _mm512_cvtph_ps(half[j])));
            }
        }
        for (int64_t i = 0; i < n; i++)
            acc[begin + i] = sum[i];
    }
}

KERNEL void obtree_fold_binary64(
    const int64_t *cond_feature, const uint8_t *cond_ordinal, int64_t n_cond,
    const int64_t *split_cond, int64_t n_trees, const double *bank, const int64_t *offsets,
    const uint8_t *quantiles, int64_t stride, int64_t live, uint64_t *scratch, double *acc)
{
    uint64_t *masks = scratch;
    double sum[CHUNK * 64];
    int64_t cond[8];
    __m512i bit[8];
    for (int k = 0; k < 8; k++)
        bit[k] = _mm512_set1_epi8((char)(1 << k));
    for (int64_t begin = 0; begin < live; begin += CHUNK * 64) {
        int64_t n = live - begin < CHUNK * 64 ? live - begin : CHUNK * 64;
        int64_t groups = start_chunk(quantiles + begin, stride, n, cond_feature, cond_ordinal,
                                     n_cond, masks);
        for (int64_t i = 0; i < groups * 64; i++)
            sum[i] = i < n ? acc[begin + i] : 0.0;
        for (int64_t t = 0; t < n_trees; t++) {
            int depth = tree_conditions(split_cond, n_trees, offsets, t, cond);
            const double *table = bank + offsets[t];
            for (int64_t g = 0; g < groups; g++) {
                double *s = sum + 64 * g;
                __m512i idx = leaf_index(masks + g * n_cond, cond, depth, bit);
                __m512i q[4] = {
                    _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(idx, 0)),
                    _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(idx, 1)),
                    _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(idx, 2)),
                    _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(idx, 3)),
                };
                for (int j = 0; j < 4; j++) {
                    __m512d a = _mm512_i32gather_pd(_mm512_castsi512_si256(q[j]), table, 8);
                    __m512d b = _mm512_i32gather_pd(_mm512_extracti64x4_epi64(q[j], 1), table, 8);
                    _mm512_storeu_pd(s + 16 * j, _mm512_add_pd(_mm512_loadu_pd(s + 16 * j), a));
                    _mm512_storeu_pd(s + 16 * j + 8, _mm512_add_pd(_mm512_loadu_pd(s + 16 * j + 8), b));
                }
            }
        }
        for (int64_t i = 0; i < n; i++)
            acc[begin + i] = sum[i];
    }
}
