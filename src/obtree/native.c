/* AVX-512 kernels for the three stages of obtree: binarization, then leaf
 * index, leaf load and fold.
 *
 * obtree_binarize tests every distinct split condition of a model on a
 * block's objects.  It writes one 64-bit mask per (64-object group,
 * condition), group-major, bit o set where object o's value exceeds the
 * condition's border under _CMP_GT_OQ, as np.greater compares: NaN exceeds
 * nothing, -0.0 equals +0.0, and the +inf border of the padding condition is
 * never exceeded.  Bits past `live` are clear: the masks hold the bits of
 * the numpy stage 1's condition panel.  The conditions are sorted by
 * feature.  A vector holds 16 objects of one feature: feature-major input is
 * read 16 objects per load, for each feature that has a condition;
 * object-major input 16 objects x 16 features per tile, as 16 row loads
 * transposed in registers, for each tile that holds a condition.  Loads are
 * masked at the last feature tile and the last objects, so nothing past the
 * matrix is read.  A whole 128-object block reads each such row or tile
 * once for both groups: all 8 of its 16-object quarters are loaded (and
 * transposed) into an 8 KB array on the stack, then each condition makes 8
 * compares and stores each one's 16 bits straight from its mask register
 * into its quarter of the group's mask.  The groups of a partial block are
 * read one at a time; a partial group (1-3 live quarters) clears each of
 * its masks with one 64-bit store, then stores its live quarters' 16 bits
 * the same way.
 *
 * The two fold kernels walk those masks in groups of 64 objects, one object
 * per byte lane of a 512-bit vector, up to MAX_GROUPS (16) groups per walk
 * of the bank: native.BoundKernels hands them a pass of up to 8 blocks'
 * masks at once where those fit its mask budget, so each tree's fixed cost
 * is spread over 1024 objects, not 128.  The trees come in runs of equal depth
 * (obtree_model.depth_runs), and each run is walked by code for its depth,
 * chosen once per run.  Tree by tree, the tree's table, held as byte planes
 * (built by native.BoundKernels from the leaf bank: byte b of every leaf,
 * back to back), is loaded into registers once; then, group by group, its
 * leaves are selected from the loaded planes by the group's leaf indices and
 * added into per-object sums, so every object sums its leaves in tree order.
 * A group's leaf indices, one byte per object, are built from the tree's row of
 * ModelTables.tree_cond (each level's condition number, loaded once per tree
 * as a ymm): one masked vpgatherdq reads the group's masks of the tree's
 * levels, one vpermb transposes their 8 x 8 bytes, and one GF2P8AFFINEQB
 * bit-transposes each 8 x 8 block, so bit k of byte o is level k's condition
 * for object o (leaf_indices).  On Sapphire Rapids the selects' vpermb
 * and vpermt2b run on port 5 only, as does a kmovq from memory to a mask
 * register: this build puts one uop per group on that port, its vpermb,
 * where masked byte adds of each level's mask would put `depth` kmovq.
 * Within a run the indices are built a tree ahead, while the tree before
 * selects, which hides the gather's latency.  plane_select looks
 * one byte of all 64 objects' leaves up in one plane: vpermb for depth <= 6
 * (the plane loaded under a mask, so nothing past the table is read),
 * vpermt2b over 128 bytes for depth 7, and two vpermt2b blended by bit 7 of
 * the index, level 7's condition, for depth 8.  Unpacks interleave the
 * planes into leaves: 8 planes and 24 unpacks give binary64 leaves and sums;
 * 2 planes and 2 unpacks give binary16 leaves, which vcvtph2ps widens to
 * binary32 sums.
 * A nearly empty group loads its leaves otherwise: only the last group of a
 * pass can hold fewer than 64 objects, and where its live objects are at
 * most obtree_model.gather_limit, a count set by the model's depths
 * (native.GATHER_LIMITS), its binary64 leaves are gathered from the bank's
 * values (obtree_model.values), 8 objects per vpgatherqpd, and summed in
 * tree order as the selected ones are.  A pass of that one group then
 * loads no plane: one object at depth 8 folded x0.18 of its time from the
 * planes.  Binary16 leaves are never gathered.
 * The sums start at zero; each live object's score, (double)sum * scale +
 * bias, is written straight to the output, and nothing past `live` is.
 *
 * Bit identity with the scalar oracle needs the IEEE default environment:
 * no flush-to-zero or denormals-are-zero mode, adds and the score's multiply
 * rounded one at a time (build with -ffp-contract=off, never -ffast-math).
 */

#include <immintrin.h>
#include <stdint.h>
#include <string.h>

/* A model as every kernel reads it, built once per model (native.BoundKernels),
 * so a call passes only its address and its own pointers, layout and range.
 * Condition c is "value of feature cond_feature[c] > cond_border[c]",
 * cond_feature ascending; run r of conditions, [feature_runs[r],
 * feature_runs[r + 1]), is one feature's, [tile_runs[r], tile_runs[r + 1])
 * one 16-feature tile's.  Row t of tree_cond, 8 condition numbers, holds tree
 * t's condition of each level; levels past its depth hold a condition that
 * never holds, and are not read here.  Run r of trees, [depth_runs[r],
 * depth_runs[r + 1]), is a run of equal depth.  Tree t's leaves are the
 * `width` byte planes of 2**depth bytes at planes + width * offsets[t], and
 * the leaf bank's values from values + width * offsets[t] bytes on.  A
 * pass's last group gathers its binary64 leaves from there where it holds
 * at most gather_limit objects (native.GATHER_LIMITS). */
typedef struct {
    const int64_t *cond_feature, *feature_runs, *tile_runs, *offsets, *depth_runs;
    const int32_t *tree_cond;
    const float *cond_border;
    const uint8_t *planes;
    const void *values;
    int64_t n_cond, n_features, n_feature_runs, n_tile_runs, n_depth_runs, gather_limit;
    double scale, bias;
} obtree_model;

#define KERNEL __attribute__((target("avx512f,avx512bw,avx512vbmi,gfni,f16c")))

/* 64-object groups the fold sums at once, a pass of native.PASS_GROUPS:
 * their sums, MAX_GROUPS x 64 x 8 bytes (8 KB), are a fixed array on the
 * stack.  On Sapphire Rapids (gcc 12) a call of 2 groups ran no slower
 * than under a limit of 2. */
#define MAX_GROUPS 16

/* Bit 0: avx512f, bit 1: avx512bw, bit 2: f16c, bit 3: avx512vbmi, bit 4: gfni. */
int obtree_cpu_flags(void)
{
    __builtin_cpu_init();
    return (__builtin_cpu_supports("avx512f") ? 1 : 0)
         | (__builtin_cpu_supports("avx512bw") ? 2 : 0)
         | (__builtin_cpu_supports("f16c") ? 4 : 0)
         | (__builtin_cpu_supports("avx512vbmi") ? 8 : 0)
         | (__builtin_cpu_supports("gfni") ? 16 : 0);
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

/* v[i]: feature f0 + i of the 16 objects from object o on, of which
 * `objects` are live.  Feature-major input fills v[0] only.  A block reads a
 * short run of each of many rows, too many streams for the hardware
 * prefetcher: feature-major rows are fetched PREFETCH_ROWS features ahead,
 * object-major rows two 16-feature tiles ahead. */
KERNEL static inline __attribute__((always_inline)) void load_quarter(
    const obtree_model *m, const float *values, int feature_major, int64_t row_length,
    int64_t f0, int64_t o, __mmask16 objects, __m512 v[16])
{
    if (feature_major) {
        const float *src = values + f0 * row_length + o;
        if (f0 + PREFETCH_ROWS < m->n_features)
            _mm_prefetch((const char *)(src + PREFETCH_ROWS * row_length), _MM_HINT_T0);
        v[0] = _mm512_maskz_loadu_ps(objects, src);
        return;
    }
    __mmask16 features = first16(m->n_features - f0);
    for (int i = 0; i < 16; i++)
        if (objects >> i & 1)
            _mm_prefetch((const char *)(values + (o + i) * row_length + f0 + 32), _MM_HINT_T0);
    for (int i = 0; i < 16; i++)
        v[i] = objects >> i & 1 ? _mm512_maskz_loadu_ps(features, values + (o + i) * row_length + f0)
                                : _mm512_setzero_ps();
    transpose16(v);
}

/* A 16-bit quarter of a mask, which may alias the 64-bit mask it is part of. */
typedef uint16_t __attribute__((may_alias)) quarter16;

/* Stores a compare's 16 bits as quarter j of *mask, straight from the mask
 * register: gcc 12 merges adjacent _store_mask16 calls into shifts and ors
 * of general registers, which cost more than the compares. */
KERNEL static inline __attribute__((always_inline)) void store_quarter(
    uint64_t *mask, int j, __mmask16 bits)
{
    __asm__("kmovw %1, %0" : "=m"(((quarter16 *)mask)[j]) : "k"(bits));
}

/* The masks of conditions [c0, c1), each on feature f0 + i, for `quarters`
 * 16-object quarters from group 0 of out on, whose values are v and whose
 * live objects are `objects`: quarter j is quarter j % 4 of group j / 4.
 * `quarters` is a constant: each compare's 16 bits are stored straight
 * from its mask register, and a partial group (1-3 quarters) first clears
 * its whole 64-bit mask with one store, so the bits past its quarters are
 * clear; unrolled, the compares ran about 20% faster than under a variable
 * count.  Moving a partial group's compares to general registers, shifted
 * and or-ed into one 64-bit store, made stage 1 about 4% slower on blocks
 * of 1-48 objects (Sapphire Rapids, gcc 12). */
KERNEL static inline __attribute__((always_inline)) void write_masks(
    const obtree_model *m, int64_t c0, int64_t c1, int64_t f0, __m512 v[8][16],
    const __mmask16 *objects, int quarters, uint64_t *out)
{
    /* Locals, which the stores cannot alias: read through m, each is
     * loaded again after every store. */
    const int64_t *cond_feature = m->cond_feature;
    const float *cond_border = m->cond_border;
    int64_t n_cond = m->n_cond;
    for (int64_t c = c0; c < c1; c++) {
        __m512 border = _mm512_set1_ps(cond_border[c]);
        int64_t i = cond_feature[c] - f0;
        if (quarters % 4)
            out[c] = 0;
        for (int j = 0; j < quarters; j++)
            store_quarter(out + j / 4 * n_cond + c, j % 4,
                          _mm512_mask_cmp_ps_mask(objects[j], v[j][i], border, _CMP_GT_OQ));
    }
}

/* obtree_binarize for one layout, a constant where this is inlined.  Each
 * run of conditions (one feature's, or one 16-feature tile's) is read once
 * per 128 objects: a pair of whole groups loads and transposes its 8
 * quarters, then makes 8 compares per condition.  The groups past the last
 * whole pair are read one at a time. */
KERNEL static inline __attribute__((always_inline)) void binarize(
    const obtree_model *m, const float *values, int feature_major, int64_t row_length,
    int64_t live, uint64_t *masks)
{
    const int64_t *cond_feature = m->cond_feature;
    const int64_t *runs = feature_major ? m->feature_runs : m->tile_runs;
    int64_t n_cond = m->n_cond;
    int64_t n_runs = feature_major ? m->n_feature_runs : m->n_tile_runs;
    static const __mmask16 all[8] = {0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF,
                                     0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF};
    /* v[j][i]: feature f0 + i of objects 16j .. 16j + 15 of the groups read. */
    __m512 v[8][16];
    for (int64_t r = 0; r < n_runs; r++) {
        int64_t c0 = runs[r], c1 = runs[r + 1];
        int64_t f0 = feature_major ? cond_feature[c0] : cond_feature[c0] & ~(int64_t)15;
        int64_t g = 0;
        for (; 64 * g + 128 <= live; g += 2) {
            for (int j = 0; j < 8; j++)
                load_quarter(m, values, feature_major, row_length, f0, 64 * g + 16 * j, all[j],
                             v[j]);
            write_masks(m, c0, c1, f0, v, all, 8, masks + g * n_cond);
        }
        for (; 64 * g < live; g++) {
            int quarters = live_quarters(live, g);
            __mmask16 objects[4];
            for (int j = 0; j < quarters; j++) {
                objects[j] = first16(live - 64 * g - 16 * j);
                load_quarter(m, values, feature_major, row_length, f0, 64 * g + 16 * j,
                             objects[j], v[j]);
            }
            uint64_t *out = masks + g * n_cond;
            switch (quarters) {
            case 4: write_masks(m, c0, c1, f0, v, objects, 4, out); break;
            case 3: write_masks(m, c0, c1, f0, v, objects, 3, out); break;
            case 2: write_masks(m, c0, c1, f0, v, objects, 2, out); break;
            default: write_masks(m, c0, c1, f0, v, objects, 1, out); break;
            }
        }
    }
}

/* The condition masks of a block's objects, ceil(live / 64) groups of
 * m->n_cond, from the block's first value `first` to the first value of
 * the object past it, `end`: a range of pointers, which ctypes passes
 * faster than an int64 count.  Object o of the block has feature f at
 * first[o * row_length + f], up to end = first + live * row_length, or,
 * where feature_major is set, at first[f * row_length + o], up to end =
 * first + live. */
KERNEL void obtree_binarize(const obtree_model *m, const float *first, const float *end,
                            int64_t feature_major, int64_t row_length, uint64_t *masks)
{
    if (feature_major)
        binarize(m, first, 1, row_length, end - first, masks);
    else
        binarize(m, first, 0, row_length, (end - first) / row_length, masks);
}

/* Qword j of the transpose below: byte m is 8 * (7 - m) + j. */
#define TRANSPOSE_ROW(j) (0x0008101820283038LL + (j) * 0x0101010101010101LL)

/* The leaf indices of a group's 64 objects, one per byte lane, for a tree
 * of `depth` levels whose condition numbers are cond (its tree_cond row):
 * bit k of byte o is level k's condition for object o.  One gather reads
 * the group's masks of the tree's levels into qwords 0 .. depth-1, the
 * rest left zero and not read; byte j of qword k then holds level k for
 * objects 8j .. 8j + 7.  One vpermb moves byte 8k + j to byte 8j + 7 - k,
 * and one GF2P8AFFINEQB of the bytes 1 << i (as data) by that matrix sets
 * bit k of byte 8j + i to bit i of byte 8j + 7 - k: the bit-transpose of
 * each 8 x 8 block. */
KERNEL static inline __attribute__((always_inline)) __m512i leaf_indices(
    const uint64_t *group, __m256i cond, int depth)
{
    const __m512i transpose = _mm512_set_epi64(
        TRANSPOSE_ROW(7), TRANSPOSE_ROW(6), TRANSPOSE_ROW(5), TRANSPOSE_ROW(4),
        TRANSPOSE_ROW(3), TRANSPOSE_ROW(2), TRANSPOSE_ROW(1), TRANSPOSE_ROW(0));
    __m512i levels = _mm512_mask_i32gather_epi64(_mm512_setzero_si512(),
                                                 (__mmask8)((1u << depth) - 1), cond, group, 8);
    return _mm512_gf2p8affine_epi64_epi8(_mm512_set1_epi64(0x8040201008040201LL),
                                         _mm512_permutexvar_epi8(transpose, levels), 0);
}

/* A byte plane of 2**depth bytes at p as the vectors plane_select reads:
 * one for depth <= 6, loaded under a mask so that nothing past the table is
 * read, two for depth 7 and four for depth 8. */
KERNEL static inline __attribute__((always_inline)) void load_plane(
    const uint8_t *p, int depth, __m512i v[4])
{
    if (depth <= 6)
        v[0] = _mm512_maskz_loadu_epi8(~0ULL >> (64 - (1 << depth)), p);
    else
        for (int i = 0; i < 1 << (depth - 6); i++)
            v[i] = _mm512_loadu_si512(p + 64 * i);
}

/* Byte lane o: the byte of leaf idx[o] (bits 0-6), or of leaf idx[o] + 128
 * where bit o of level7 is set, from the vectors v of one byte plane:
 * vpermb for depth <= 6, vpermt2b over 128 bytes for depth 7, and two
 * vpermt2b blended by level 7's condition for depth 8. */
KERNEL static inline __attribute__((always_inline)) __m512i plane_select(
    const __m512i v[4], int depth, __m512i idx, __mmask64 level7)
{
    if (depth <= 6)
        return _mm512_permutexvar_epi8(idx, v[0]);
    __m512i r = _mm512_permutex2var_epi8(v[0], idx, v[1]);
    if (depth == 7)
        return r;
    return _mm512_mask_blend_epi8(level7, r, _mm512_permutex2var_epi8(v[2], idx, v[3]));
}

/* Turns `width` (2 or 8) byte planes x[b] into words of `width` bytes, byte
 * b of each word from x[b].  Each round of unpacks doubles the word: x[2k]
 * and x[2k + 1] become x[k] (the low halves of their 128-bit lanes) and
 * x[k + width / 2] (the high halves), so the words leave in a fixed order of
 * the byte lanes (lane_order). */
KERNEL static inline __attribute__((always_inline)) void interleave(__m512i *x, int width)
{
    for (int w = 1; w < width; w *= 2) {
        __m512i y[8];
        for (int k = 0; k < width / 2; k++) {
            __m512i a = x[2 * k], b = x[2 * k + 1];
            y[k] = w == 1 ? _mm512_unpacklo_epi8(a, b)
                 : w == 2 ? _mm512_unpacklo_epi16(a, b) : _mm512_unpacklo_epi32(a, b);
            y[k + width / 2] = w == 1 ? _mm512_unpackhi_epi8(a, b)
                             : w == 2 ? _mm512_unpackhi_epi16(a, b) : _mm512_unpackhi_epi32(a, b);
        }
        for (int k = 0; k < width; k++)
            x[k] = y[k];
    }
}

/* order[j]: the byte lane whose word interleave() leaves as word j of
 * x[0], x[1], ... in turn, read off by interleaving the lane numbers. */
KERNEL static void lane_order(int width, uint8_t order[64])
{
    uint8_t bytes[8 * 64];
    __m512i x[8];
    for (int i = 0; i < 64; i++)
        bytes[i] = (uint8_t)i;
    for (int b = 0; b < width; b++)
        x[b] = b == 0 ? _mm512_loadu_si512(bytes) : _mm512_setzero_si512();
    interleave(x, width);
    for (int b = 0; b < width; b++)
        _mm512_storeu_si512(bytes + 64 * b, x[b]);
    for (int j = 0; j < 64; j++)
        order[j] = bytes[width * j];
}

/* Adds to the binary64 sums s of one group, in object order, the leaves of
 * its first `live` objects (and of the rest of their 8) from one tree's
 * table at `leaves`, by its leaf indices `index`: 8 leaves per
 * vpgatherqpd. */
KERNEL static inline __attribute__((always_inline)) void gather_leaves(
    const double *leaves, __m512i index, int64_t live, char *s)
{
    uint8_t bytes[64];
    _mm512_storeu_si512(bytes, index);
    for (int64_t o = 0; o < live; o += 8) {
        __m512i at = _mm512_cvtepu8_epi64(_mm_loadl_epi64((const __m128i *)(bytes + o)));
        _mm512_storeu_pd(s + 8 * o, _mm512_add_pd(_mm512_loadu_pd(s + 8 * o),
                                                  _mm512_i64gather_pd(at, leaves, 8)));
    }
}

/* Adds the leaves of trees [t0, t1), all of one depth, to the sums of
 * `groups` 64-object groups, for fold_groups() below.  Each tree's `width`
 * byte planes are loaded once, then serve the selects of every group but,
 * where `gathered` is not 0, the last, whose first `gathered` objects'
 * leaves are gathered from the bank's values instead (gather_leaves).  The
 * leaf indices run a tree ahead: the run's first tree's are built before
 * the loop, and each tree but the run's last builds the next one's, so no
 * tree_cond row past the run is read. */
KERNEL static inline __attribute__((always_inline)) void fold_run(
    const obtree_model *m, int64_t t0, int64_t t1, int depth, const uint64_t *masks,
    int64_t groups, int64_t gathered, int width, char *sum)
{
    const uint8_t *tree = m->planes + width * m->offsets[t0];
    const int32_t *tree_cond = m->tree_cond;
    int64_t n_cond = m->n_cond, selected = gathered ? groups - 1 : groups;
    __m512i idx[MAX_GROUPS];
    __m256i cond = _mm256_loadu_si256((const __m256i *)(tree_cond + 8 * t0));
    for (int64_t g = 0; g < groups; g++)
        idx[g] = leaf_indices(masks + g * n_cond, cond, depth);
    for (int64_t t = t0; t < t1; t++, tree += width << depth) {
        __m512i plane[8][4];
        for (int b = 0; b < width; b++)
            load_plane(tree + (b << depth), depth, plane[b]);
        int next = t + 1 < t1;
        if (next)
            cond = _mm256_loadu_si256((const __m256i *)(tree_cond + 8 * (t + 1)));
        for (int64_t g = 0; g < selected; g++) {
            __m512i index = idx[g];
            if (next)
                idx[g] = leaf_indices(masks + g * n_cond, cond, depth);
            __mmask64 level7 = depth == 8 ? _mm512_movepi8_mask(index) : 0;
            __m512i x[8];
            for (int b = 0; b < width; b++)
                x[b] = plane_select(plane[b], depth, index, level7);
            interleave(x, width);
            char *s = sum + 64 * g * (width == 8 ? 8 : 4);
            if (width == 8)
                for (int j = 0; j < 8; j++)
                    _mm512_storeu_pd(s + 64 * j, _mm512_add_pd(_mm512_loadu_pd(s + 64 * j),
                                                               _mm512_castsi512_pd(x[j])));
            else
                for (int j = 0; j < 4; j++) {
                    __m256i h = j & 1 ? _mm512_extracti64x4_epi64(x[j / 2], 1)
                                      : _mm512_castsi512_si256(x[j / 2]);
                    _mm512_storeu_ps(s + 64 * j, _mm512_add_ps(_mm512_loadu_ps(s + 64 * j),
                                                               _mm512_cvtph_ps(h)));
                }
        }
        if (gathered) {
            __m512i index = idx[selected];
            if (next)
                idx[selected] = leaf_indices(masks + selected * n_cond, cond, depth);
            gather_leaves((const double *)m->values + m->offsets[t], index, gathered,
                          sum + 64 * 8 * selected);
        }
    }
}

/* fold_run() for a pass of one group that gathers its first `live`
 * objects' binary64 leaves: it loads no plane. */
KERNEL static inline __attribute__((always_inline)) void gather_run(
    const obtree_model *m, int64_t t0, int64_t t1, int depth, const uint64_t *group,
    int64_t live, char *sum)
{
    const int32_t *tree_cond = m->tree_cond;
    __m512i index = leaf_indices(group, _mm256_loadu_si256((const __m256i *)(tree_cond + 8 * t0)),
                                 depth);
    for (int64_t t = t0; t < t1; t++) {
        __m512i now = index;
        if (t + 1 < t1)
            index = leaf_indices(
                group, _mm256_loadu_si256((const __m256i *)(tree_cond + 8 * (t + 1))), depth);
        gather_leaves((const double *)m->values + m->offsets[t], now, live, sum);
    }
}

/* The scores of `live` objects, at most 64 * MAX_GROUPS, from their masks,
 * into out[0 .. live).  `width` is the leaf's bytes, a constant where this
 * is inlined: 8 for binary64 leaves and sums, 2 for binary16 leaves, which
 * vcvtph2ps widens to binary32 sums.  Only the last group can hold fewer
 * than 64 live objects; it gathers its binary64 leaves where those are at
 * most m->gather_limit.  The sums are held in lane order: sum j of group g
 * is that of object 64g + order[j]; a gathering group's in object order. */
KERNEL static inline __attribute__((always_inline)) void fold_groups(
    const obtree_model *m, const uint64_t *masks, int64_t live, int width,
    const uint8_t *order, double *out)
{
    const int64_t *depth_runs = m->depth_runs, *offsets = m->offsets;
    int64_t groups = (live + 63) / 64, last = live - 64 * (groups - 1);
    int64_t gathered = width == 8 && last <= m->gather_limit ? last : 0;
    int item = width == 8 ? 8 : 4;
    char sum[MAX_GROUPS * 64 * 8];
    memset(sum, 0, (size_t)(groups * 64 * item));
    for (int64_t r = 0; r < m->n_depth_runs; r++) {
        int64_t t0 = depth_runs[r], t1 = depth_runs[r + 1];
        /* A constant depth in each fold_run (about 10% faster than one loop
         * over a variable depth), and a constant 0 where no group gathers,
         * which leaves the gather out of its loop. */
        switch (__builtin_ctzll((unsigned long long)(offsets[t0 + 1] - offsets[t0]))) {
#define DEPTH(d)                                                                          \
    case d:                                                                               \
        if (!gathered)                                                                    \
            fold_run(m, t0, t1, d, masks, groups, 0, width, sum);                         \
        else if (groups > 1)                                                              \
            fold_run(m, t0, t1, d, masks, groups, gathered, width, sum);                  \
        else                                                                              \
            gather_run(m, t0, t1, d, masks, gathered, sum);                               \
        break;
        DEPTH(1) DEPTH(2) DEPTH(3) DEPTH(4) DEPTH(5) DEPTH(6) DEPTH(7) DEPTH(8)
#undef DEPTH
        }
    }
    for (int64_t i = 0; i < groups * 64; i++) {
        int64_t o = gathered && i >= 64 * (groups - 1) ? i : i - i % 64 + order[i % 64];
        union { double d; float f; } s;
        if (o < live) {
            memcpy(&s, sum + i * item, item);
            out[o] = (width == 8 ? s.d : s.f) * m->scale + m->bias;
        }
    }
}

/* The fold kernels: the scores of the objects out[0 .. end - out) from their
 * masks, a group of m->n_cond for each 64 of them, folded MAX_GROUPS groups
 * at a time. */
KERNEL static inline __attribute__((always_inline)) void fold(
    const obtree_model *m, const uint64_t *masks, int64_t live, int width, double *out)
{
    uint8_t order[64];
    lane_order(width, order);
    for (int64_t begin = 0; begin < live; begin += 64 * MAX_GROUPS)
        fold_groups(m, masks + begin / 64 * m->n_cond,
                    live - begin < 64 * MAX_GROUPS ? live - begin : 64 * MAX_GROUPS, width,
                    order, out + begin);
}

KERNEL void obtree_fold_binary16(const obtree_model *m, const uint64_t *masks, double *out,
                                 double *end)
{
    fold(m, masks, end - out, 2, out);
}

KERNEL void obtree_fold_binary64(const obtree_model *m, const uint64_t *masks, double *out,
                                 double *end)
{
    fold(m, masks, end - out, 8, out);
}
