/* AVX-512 kernels for the three stages of obtree: binarization, then leaf
 * index, leaf load and fold.
 *
 * obtree_binarize tests every distinct split condition of a model on a
 * block's objects.  It writes one 64-bit mask per (64-object group,
 * condition), group-major, bit o set where object o's value exceeds the
 * condition's border under _CMP_GT_OQ, as np.greater compares: NaN exceeds
 * nothing, -0.0 equals +0.0, and the +inf border of the padding condition is
 * never exceeded.  Bits past `live` are clear.  For strictly ascending
 * borders b, a value v exceeds b[o] exactly where its quantile exceeds o, so
 * the masks are those of the numpy stage's quantile compares.  The
 * conditions are sorted by feature.  A vector holds 16 objects of one
 * feature: feature-major input is read 16 objects per load, for each feature
 * that has a condition; object-major input 16 objects x 16 features per
 * tile, as 16 row loads transposed in registers, for each tile that holds a
 * condition.  Loads are masked at the last feature tile and the last
 * objects, so nothing past the matrix is read.
 *
 * The two fold kernels walk those masks in groups of 64 objects, one object
 * per byte lane of a 512-bit vector.  Tree by tree and group by group, the
 * tree's leaf index is built in a zmm by masked byte adds of 1 << level where
 * the level's condition holds, and its leaves are loaded and added into
 * per-object sums, so every object sums its leaves in tree order:
 *   binary16  vpermw/vpermt2w select the leaves from the tree's table in
 *             registers (loaded under a mask when shorter than 32 entries,
 *             so nothing past the table is read), vcvtph2ps widens them and
 *             the sums are binary32;
 *   binary64  vgatherdpd loads the leaves and the sums are binary64.
 * The sums start from `acc`, and only its first `live` entries are read and
 * written.  Past `live`, the binary64 kernel loads no leaf and adds no sum
 * for a group's 16-object quarters that hold no live object, and the
 * binary16 kernel for the second 32-object half of a group of at most 32.
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

#define PREFETCH_ROWS 4  /* feature-major rows fetched ahead of their compares */

/* The mask of the first n of 16 lanes, for any n. */
static __mmask16 first16(int64_t n)
{
    return n >= 16 ? (__mmask16)0xFFFF : n <= 0 ? 0 : (__mmask16)((1u << n) - 1);
}

/* 16-object quarters of group g that hold one of the live objects. */
static int live_quarters(int64_t live, int64_t g)
{
    int64_t n = live - 64 * g;
    return n >= 64 ? 4 : (int)(n + 15) / 16;
}

/* The mask of a condition on feature f0 + i, with the given border, for the
 * group's first `quarters` 16-object quarters, whose values are v and whose
 * live objects are `objects`.  Whole groups pass the constant 4: unrolled,
 * their compares ran about 20% faster than under a variable count. */
KERNEL static inline __attribute__((always_inline)) uint64_t condition_mask(
    __m512 v[4][16], const __mmask16 *objects, int quarters, int64_t i, float border)
{
    uint64_t bits = 0;
    for (int j = 0; j < quarters; j++)
        bits |= (uint64_t)_mm512_mask_cmp_ps_mask(objects[j], v[j][i], _mm512_set1_ps(border),
                                                  _CMP_GT_OQ) << 16 * j;
    return bits;
}

/* obtree_binarize for one layout, a constant where this is inlined.  A block
 * reads a short run of each of many rows, too many streams for the hardware
 * prefetcher: feature-major rows are fetched PREFETCH_ROWS features ahead,
 * object-major rows two 16-feature tiles ahead. */
KERNEL static inline __attribute__((always_inline)) void binarize(
    const int64_t *cond_feature, const float *cond_border, int64_t n_cond, int64_t n_features,
    const float *values, int feature_major, int64_t row_length, int64_t begin, int64_t live,
    uint64_t *masks)
{
    /* v[j][i]: feature f0 + i of the group's objects 16j .. 16j + 15. */
    __m512 v[4][16];
    for (int64_t c0 = 0, c1; c0 < n_cond; c0 = c1) {
        /* The run of conditions on one feature, or on one 16-feature tile. */
        int64_t f0 = feature_major ? cond_feature[c0] : cond_feature[c0] & ~(int64_t)15;
        int64_t f1 = feature_major ? f0 + 1 : f0 + 16;
        for (c1 = c0 + 1; c1 < n_cond && cond_feature[c1] < f1; c1++)
            ;
        for (int64_t g = 0; 64 * g < live; g++) {
            int quarters = live_quarters(live, g);
            __mmask16 objects[4];
            for (int j = 0; j < quarters; j++) {
                int64_t o = begin + 64 * g + 16 * j;
                objects[j] = first16(begin + live - o);
                if (feature_major) {
                    const float *src = values + f0 * row_length + o;
                    if (f0 + PREFETCH_ROWS < n_features)
                        _mm_prefetch((const char *)(src + PREFETCH_ROWS * row_length), _MM_HINT_T0);
                    v[j][0] = _mm512_maskz_loadu_ps(objects[j], src);
                } else {
                    __mmask16 features = first16(n_features - f0);
                    for (int i = 0; i < 16; i++)
                        if (objects[j] >> i & 1)
                            _mm_prefetch((const char *)(values + (o + i) * row_length + f0 + 32),
                                         _MM_HINT_T0);
                    for (int i = 0; i < 16; i++)
                        v[j][i] = objects[j] >> i & 1
                            ? _mm512_maskz_loadu_ps(features, values + (o + i) * row_length + f0)
                            : _mm512_setzero_ps();
                    transpose16(v[j]);
                }
            }
            uint64_t *out = masks + g * n_cond;
            if (quarters == 4)
                for (int64_t c = c0; c < c1; c++)
                    out[c] = condition_mask(v, objects, 4, cond_feature[c] - f0, cond_border[c]);
            else
                for (int64_t c = c0; c < c1; c++)
                    out[c] = condition_mask(v, objects, quarters, cond_feature[c] - f0,
                                            cond_border[c]);
        }
    }
}

/* Condition masks of objects [begin, begin + live), ceil(live / 64) groups of
 * n_cond masks.  Value (object o, feature f) is values[o * row_length + f],
 * or values[f * row_length + o] where feature_major is set.  Condition c is
 * "value of feature cond_feature[c] > cond_border[c]", cond_feature
 * ascending. */
KERNEL void obtree_binarize(
    const int64_t *cond_feature, const float *cond_border, int64_t n_cond, int64_t n_features,
    const float *values, int64_t feature_major, int64_t row_length, int64_t begin, int64_t live,
    uint64_t *masks)
{
    if (feature_major)
        binarize(cond_feature, cond_border, n_cond, n_features, values, 1, row_length, begin,
                 live, masks);
    else
        binarize(cond_feature, cond_border, n_cond, n_features, values, 0, row_length, begin,
                 live, masks);
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

/* Adds the binary16 leaves of the tree whose table is at src (of `depth`
 * levels, conditions cond) to the sums s of a group's first `halves`
 * 32-object halves; `halves` is a constant where this is inlined. */
KERNEL static inline __attribute__((always_inline)) void fold16_group(
    const uint64_t *group, const int64_t *cond, int depth, const __m512i *bit,
    const uint16_t *src, int halves, float *s)
{
    __m512i idx = leaf_index(group, cond, depth < 6 ? depth : 6, bit);
    __m512i lo = _mm512_cvtepu8_epi16(_mm512_castsi512_si256(idx));
    lo = select16(group, cond, depth, 0, lo, src);
    __m256i half[4] = {_mm512_castsi512_si256(lo), _mm512_extracti64x4_epi64(lo, 1)};
    if (halves == 2) {
        __m512i hi = _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(idx, 1));
        hi = select16(group, cond, depth, 1, hi, src);
        half[2] = _mm512_castsi512_si256(hi);
        half[3] = _mm512_extracti64x4_epi64(hi, 1);
    }
    for (int j = 0; j < 2 * halves; j++)
        _mm512_storeu_ps(s + 16 * j, _mm512_add_ps(_mm512_loadu_ps(s + 16 * j),
                                                   _mm512_cvtph_ps(half[j])));
}

/* The fold kernels' arguments: the model's n_cond conditions and split_cond
 * table, the leaf bank, the masks of obtree_binarize for `live` objects, and
 * their sums. */
KERNEL void obtree_fold_binary16(
    int64_t n_cond, const int64_t *split_cond, int64_t n_trees, const uint16_t *bank,
    const int64_t *offsets, const uint64_t *masks, int64_t live, float *acc)
{
    if (live <= 0)
        return;
    int64_t groups = (live + 63) / 64;
    /* Groups with objects in both halves; a last group of at most 32 objects
     * selects and adds only its first half. */
    int64_t whole = (live + 31) / 64;
    float sum[groups * 64];
    int64_t cond[8];
    __m512i bit[6];
    for (int k = 0; k < 6; k++)
        bit[k] = _mm512_set1_epi8((char)(1 << k));
    for (int64_t i = 0; i < groups * 64; i++)
        sum[i] = i < live ? acc[i] : 0.0f;
    for (int64_t t = 0; t < n_trees; t++) {
        int depth = tree_conditions(split_cond, n_trees, offsets, t, cond);
        const uint16_t *src = bank + offsets[t];
        for (int64_t g = 0; g < whole; g++)
            fold16_group(masks + g * n_cond, cond, depth, bit, src, 2, sum + 64 * g);
        if (whole < groups)
            fold16_group(masks + whole * n_cond, cond, depth, bit, src, 1, sum + 64 * whole);
    }
    for (int64_t i = 0; i < live; i++)
        acc[i] = sum[i];
}

KERNEL void obtree_fold_binary64(
    int64_t n_cond, const int64_t *split_cond, int64_t n_trees, const double *bank,
    const int64_t *offsets, const uint64_t *masks, int64_t live, double *acc)
{
    if (live <= 0)
        return;
    int64_t groups = (live + 63) / 64;
    double sum[groups * 64];
    int64_t cond[8];
    __m512i bit[8];
    for (int k = 0; k < 8; k++)
        bit[k] = _mm512_set1_epi8((char)(1 << k));
    for (int64_t i = 0; i < groups * 64; i++)
        sum[i] = i < live ? acc[i] : 0.0;
    for (int64_t t = 0; t < n_trees; t++) {
        int depth = tree_conditions(split_cond, n_trees, offsets, t, cond);
        const double *table = bank + offsets[t];
        for (int64_t g = 0; g < groups; g++) {
            double *s = sum + 64 * g;
            int quarters = live_quarters(live, g);
            __m512i idx = leaf_index(masks + g * n_cond, cond, depth, bit);
            __m512i q[4] = {
                _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(idx, 0)),
                _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(idx, 1)),
                _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(idx, 2)),
                _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32(idx, 3)),
            };
            for (int j = 0; j < quarters; j++) {
                __m512d a = _mm512_i32gather_pd(_mm512_castsi512_si256(q[j]), table, 8);
                __m512d b = _mm512_i32gather_pd(_mm512_extracti64x4_epi64(q[j], 1), table, 8);
                _mm512_storeu_pd(s + 16 * j, _mm512_add_pd(_mm512_loadu_pd(s + 16 * j), a));
                _mm512_storeu_pd(s + 16 * j + 8, _mm512_add_pd(_mm512_loadu_pd(s + 16 * j + 8), b));
            }
        }
    }
    for (int64_t i = 0; i < live; i++)
        acc[i] = sum[i];
}
