/* AVX-512 kernels for the three stages of obtree: quantization, then leaf
 * index, leaf load and fold.
 *
 * obtree_quantize writes a QuantizedBlock: one byte per (feature, object),
 * feature-major, `stride` bytes per feature row, the columns past `live`
 * zeroed.  A vector holds 16 objects of one feature.  Feature-major input
 * is read 16 objects per load; object-major input 16 objects x 16 features
 * per tile, as 16 row loads transposed in registers.  Loads are masked at
 * the last feature tile and the last objects, so nothing past the matrix is
 * read.  Every lane of a vector searches the same BorderTable row, which is
 * loaded into registers once per feature (and, for object-major input, per
 * chunk of QCHUNK objects): 2**steps - 1 entries, the last zmm under a mask.
 * The search is the numpy one: `steps` fixed steps, from the largest down,
 * each looking up row[pos + step - 1] by vpermt2ps over pairs of row
 * registers (32 entries a pair) blended by index bits 5-7, and moving past
 * `step` borders where the value is greater (_CMP_GT_OQ: NaN crosses
 * nothing, -0.0 equals +0.0, and the +inf padding is never crossed).
 *
 * The two fold kernels walk a quantized block in groups of 64 objects, one object
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
#include <string.h>

#define KERNEL __attribute__((target("avx512f,avx512bw,f16c")))

/* Bit 0: avx512f, bit 1: avx512bw, bit 2: f16c. */
int obtree_cpu_flags(void)
{
    __builtin_cpu_init();
    return (__builtin_cpu_supports("avx512f") ? 1 : 0)
         | (__builtin_cpu_supports("avx512bw") ? 2 : 0)
         | (__builtin_cpu_supports("f16c") ? 4 : 0);
}

#define QCHUNK 256       /* objects per transposed chunk of object-major input */
#define PREFETCH_ROWS 4  /* feature-major rows fetched ahead of the search */

/* In-place transpose of 16 vectors of 16 floats. */
KERNEL static void transpose16(__m512 r[16])
{
    __m512 t[16];
    for (int i = 0; i < 8; i++) {
        t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    /* r[4i + j], lane L: element 4L + j of rows 4i .. 4i + 3. */
    for (int i = 0; i < 4; i++) {
        r[4 * i] = _mm512_shuffle_ps(t[4 * i], t[4 * i + 2], 0x44);
        r[4 * i + 1] = _mm512_shuffle_ps(t[4 * i], t[4 * i + 2], 0xEE);
        r[4 * i + 2] = _mm512_shuffle_ps(t[4 * i + 1], t[4 * i + 3], 0x44);
        r[4 * i + 3] = _mm512_shuffle_ps(t[4 * i + 1], t[4 * i + 3], 0xEE);
    }
    for (int j = 0; j < 4; j++) {
        __m512 a = _mm512_shuffle_f32x4(r[j], r[4 + j], 0x88);
        __m512 b = _mm512_shuffle_f32x4(r[j], r[4 + j], 0xDD);
        __m512 c = _mm512_shuffle_f32x4(r[8 + j], r[12 + j], 0x88);
        __m512 d = _mm512_shuffle_f32x4(r[8 + j], r[12 + j], 0xDD);
        r[j] = _mm512_shuffle_f32x4(a, c, 0x88);
        r[4 + j] = _mm512_shuffle_f32x4(b, d, 0x88);
        r[8 + j] = _mm512_shuffle_f32x4(a, c, 0xDD);
        r[12 + j] = _mm512_shuffle_f32x4(b, d, 0xDD);
    }
}

/* The mask of the first n of 16 lanes, for any n. */
static __mmask16 first16(int64_t n)
{
    return n >= 16 ? (__mmask16)0xFFFF : n <= 0 ? 0 : (__mmask16)((1u << n) - 1);
}

/* row[idx] of the border row held in `pairs` register pairs z: vpermt2ps
 * on index bits 0-4 within each pair, blended by bits 5-7 across pairs. */
KERNEL static inline __attribute__((always_inline)) __m512 lookup(
    const __m512 *z, int pairs, __m512i idx)
{
#define PAIR(i) _mm512_permutex2var_ps(z[2 * (i)], idx, z[2 * (i) + 1])
    __m512 r = PAIR(0);
    if (pairs == 1)
        return r;
    __mmask16 bit5 = _mm512_test_epi32_mask(idx, _mm512_set1_epi32(32));
    r = _mm512_mask_mov_ps(r, bit5, PAIR(1));
    if (pairs == 2)
        return r;
    __mmask16 bit6 = _mm512_test_epi32_mask(idx, _mm512_set1_epi32(64));
    r = _mm512_mask_mov_ps(r, bit6, _mm512_mask_mov_ps(PAIR(2), bit5, PAIR(3)));
    if (pairs == 4)
        return r;
    __m512 s = _mm512_mask_mov_ps(PAIR(4), bit5, PAIR(5));
    s = _mm512_mask_mov_ps(s, bit6, _mm512_mask_mov_ps(PAIR(6), bit5, PAIR(7)));
    return _mm512_mask_mov_ps(r, _mm512_test_epi32_mask(idx, _mm512_set1_epi32(128)), s);
#undef PAIR
}

/* Quantizes the n values at src against the border row of 2**steps - 1
 * entries at row, into the n bytes at dst.  `pairs` register pairs hold
 * the row; it and `steps` are constants where this is inlined. */
KERNEL static inline __attribute__((always_inline)) void search_row(
    const float *row, int steps, int pairs, const float *src, int64_t n, uint8_t *dst)
{
    int64_t width = ((int64_t)1 << steps) - 1;
    __m512 z[16];
    for (int i = 0; i < 2 * pairs; i++)
        z[i] = _mm512_maskz_loadu_ps(first16(width - 16 * i), row + 16 * i);
    for (int64_t g = 0; g < n; g += 16) {
        __mmask16 live = first16(n - g);
        __m512 v = _mm512_maskz_loadu_ps(live, src + g);
        __m512i pos = _mm512_setzero_si512();
#pragma GCC unroll 8
        for (int k = steps - 1; k >= 0; k--) {
            __m512i idx = _mm512_add_epi32(pos, _mm512_set1_epi32((1 << k) - 1));
            __mmask16 gt = _mm512_cmp_ps_mask(v, lookup(z, pairs, idx), _CMP_GT_OQ);
            pos = _mm512_mask_add_epi32(pos, gt, pos, _mm512_set1_epi32(1 << k));
        }
        _mm512_mask_cvtepi32_storeu_epi8(dst + g, live, pos);
    }
}

KERNEL static void search(
    const float *row, int steps, const float *src, int64_t n, uint8_t *dst)
{
    switch (steps) {
    case 1: search_row(row, 1, 1, src, n, dst); break;
    case 2: search_row(row, 2, 1, src, n, dst); break;
    case 3: search_row(row, 3, 1, src, n, dst); break;
    case 4: search_row(row, 4, 1, src, n, dst); break;
    case 5: search_row(row, 5, 1, src, n, dst); break;
    case 6: search_row(row, 6, 2, src, n, dst); break;
    case 7: search_row(row, 7, 4, src, n, dst); break;
    default: search_row(row, 8, 8, src, n, dst); break;
    }
}

/* Quantiles of objects [begin, begin + live) into out, n_features rows of
 * stride bytes.  Value (object o, feature f) is values[o * row_length + f],
 * or values[f * row_length + o] where feature_major is set.  `steps` is 0
 * to 8; the table holds n_features rows of 2**steps - 1 entries. */
KERNEL void obtree_quantize(
    const float *table, int64_t steps, int64_t n_features, const float *values,
    int64_t feature_major, int64_t row_length, int64_t begin, int64_t live,
    uint8_t *out, int64_t stride)
{
    int64_t width = ((int64_t)1 << steps) - 1;
    if (steps == 0)
        live = 0;
    else if (feature_major)
        for (int64_t f = 0; f < n_features; f++) {
            const float *src = values + f * row_length + begin;
            /* A block reads a short run of each of many rows, too many
             * streams for the hardware prefetcher. */
            if (f + PREFETCH_ROWS < n_features)
                for (int64_t i = 0; i < live; i += 16)
                    _mm_prefetch((const char *)(src + PREFETCH_ROWS * row_length + i), _MM_HINT_T0);
            search(table + f * width, (int)steps, src, live, out + f * stride);
        }
    else {
        float tile[16][QCHUNK];
        for (int64_t c0 = 0; c0 < live; c0 += QCHUNK) {
            int64_t n = live - c0 < QCHUNK ? live - c0 : QCHUNK;
            for (int64_t f0 = 0; f0 < n_features; f0 += 16) {
                __mmask16 features = first16(n_features - f0);
                for (int64_t g = 0; g < n; g += 16) {
                    __m512 r[16];
                    const float *src = values + (begin + c0 + g) * row_length + f0;
                    for (int64_t i = 0; i < 16; i++)
                        r[i] = g + i < n ? _mm512_maskz_loadu_ps(features, src + i * row_length)
                                         : _mm512_setzero_ps();
                    transpose16(r);
                    for (int i = 0; i < 16; i++)
                        _mm512_storeu_ps(&tile[i][g], r[i]);
                }
                for (int64_t i = 0; i < 16 && f0 + i < n_features; i++)
                    search(table + (f0 + i) * width, (int)steps, tile[i], n,
                           out + (f0 + i) * stride + c0);
            }
        }
    }
    for (int64_t f = 0; f < n_features; f++)
        memset(out + f * stride + live, 0, (size_t)(stride - live));
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
