/*
 * Fused walk-step kernel: expand -> dynamic weights -> PWRS select, one
 * loop per active query.
 *
 * Bit-identical to the vectorized numpy path in repro/walks/stepper.py,
 * which stays the reference implementation:
 *
 *   - weights are float64(static w) times the algorithm's factor, computed
 *     in the same order as the numpy expressions (built without FMA
 *     contraction and without -ffast-math);
 *   - quantization is quantize_weights: round-half-even of w * 256.0,
 *     and a positive weight never rounds to zero;
 *   - lane draws are ThundeRingRNG's splitmix64((counter * GOLDEN) ^ key)
 *     >> 32, with edge i of a query on lane i % k at counter + i / k;
 *   - acceptance is Equation 8, 2^32 * w > r * prefix + w, evaluated in
 *     128 bits so it stays exact where the running sum passes 2^32
 *     (integer_accept's arbitrary-precision fallback);
 *   - the last accepted edge wins and the query's counter advances by
 *     ceil(degree / k).
 *
 * Graph layout (repro.graph.csr.CSRGraph): int64 row_index, uint32
 * col_index sorted within each row, optional float32 weights and int16
 * labels.  All pointers are validated by the Python loader.
 */

#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL

enum {
    ALG_UNIFORM = 0,
    ALG_STATIC = 1,
    ALG_NODE2VEC = 2,
    ALG_METAPATH_VERTEX = 3,
    ALG_METAPATH_EDGE = 4,
};

typedef unsigned __int128 u128;

static inline uint64_t splitmix64(uint64_t z)
{
    z += GOLDEN;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* quantize_weights for one weight w >= 0: nearbyint(w * 256.0), with a
 * positive weight never rounding to zero.  Below 2^52, adding and then
 * subtracting 2^52 rounds to an integer half-to-even exactly as nearbyint
 * does in the default rounding mode (this is why -ffast-math is banned);
 * from 2^52 up every double is already an integer.  Inline, unlike the
 * libm call. */
static inline uint64_t quantize(double w)
{
    const double two52 = 4503599627370496.0;
    double s = w * 256.0;
    if (s < two52)
        s = (s + two52) - two52;
    const uint64_t q = (uint64_t)s;
    return (q == 0 && w > 0.0) ? 1 : q;
}

/* First index in [lo, hi) whose value is >= x (hi if none).  Gallops
 * forward from lo, so a run of ascending probes costs O(log gap) each. */
static inline int64_t lower_bound_from(const uint32_t *a, int64_t lo, int64_t hi,
                                       uint32_t x)
{
    if (lo >= hi || a[lo] >= x)
        return lo;
    int64_t step = 1;
    while (lo + step < hi && a[lo + step] < x) {
        lo += step;
        step <<= 1;
    }
    int64_t end = lo + step < hi ? lo + step : hi;
    lo += 1;
    while (lo < end) {
        int64_t mid = lo + (end - lo) / 2;
        if (a[mid] < x)
            lo = mid + 1;
        else
            end = mid;
    }
    return lo;
}

/* (u, v) in E for aligned source/target arrays, searching only u's row.
 * Consecutive probes of one row with ascending targets (Node2Vec's
 * candidate stream) resume the search where the previous one stopped. */
void lrw_edges_exist(const int64_t *row_index, const uint32_t *col_index,
                     int64_t num_vertices, int64_t n, const int64_t *sources,
                     const int64_t *targets, uint8_t *out)
{
    int64_t last_u = -1, last_v = -1, pos = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t u = sources[i], v = targets[i];
        if (u < 0 || u >= num_vertices || v < 0 || v > (int64_t)UINT32_MAX) {
            out[i] = 0;
            last_u = -1;
            continue;
        }
        int64_t end = row_index[u + 1];
        if (u != last_u || v < last_v)
            pos = row_index[u];
        pos = lower_bound_from(col_index, pos, end, (uint32_t)v);
        out[i] = pos < end && col_index[pos] == (uint32_t)v;
        last_u = u;
        last_v = v;
    }
}

/* One query's step: returns the chosen within-row index, or -1 when every
 * candidate weighs zero.  `alg` is a compile-time constant at every call
 * site, so each algorithm gets its own specialised loop. */
static inline __attribute__((always_inline)) int64_t
select_one(int alg, const int64_t *row_index, const uint32_t *col_index,
           const float *edge_weights, const int16_t *labels, int weighted,
           double inv_p, double inv_q, int64_t label, const uint64_t *keys,
           uint64_t counter, int64_t k, int64_t curr, int64_t prev)
{
    const int64_t begin = row_index[curr];
    const int64_t degree = row_index[curr + 1] - begin;
    int64_t prev_lo = 0, prev_begin = 0, prev_end = 0;
    uint32_t last_b = 0;
    if (alg == ALG_NODE2VEC && prev >= 0) {
        prev_begin = prev_lo = row_index[prev];
        prev_end = row_index[prev + 1];
    }
    uint64_t prefix = 0;
    uint64_t mixed = counter * GOLDEN;
    int64_t lane = 0, chosen = -1;
    for (int64_t i = 0; i < degree; i++) {
        const int64_t e = begin + i;
        double w;
        if (alg == ALG_UNIFORM) {
            w = 1.0;
        } else if (alg == ALG_STATIC) {
            w = edge_weights ? (double)edge_weights[e] : 1.0;
        } else if (alg == ALG_NODE2VEC) {
            w = edge_weights ? (double)edge_weights[e] : 1.0;
            if (prev >= 0) {
                const uint32_t b = col_index[e];
                if ((int64_t)b == prev) {
                    w = w * inv_p;
                } else {
                    if (b < last_b)
                        prev_lo = prev_begin;
                    prev_lo = lower_bound_from(col_index, prev_lo, prev_end, b);
                    last_b = b;
                    if (!(prev_lo < prev_end && col_index[prev_lo] == b))
                        w = w * inv_q;
                }
            }
        } else {
            const int16_t have =
                alg == ALG_METAPATH_VERTEX ? labels[col_index[e]] : labels[e];
            if ((int64_t)have != label)
                w = 0.0;
            else if (weighted)
                w = edge_weights ? (double)edge_weights[e] : 1.0;
            else
                w = 1.0;
        }
        const uint64_t q = quantize(w);
        if (q) {
            /* A zero weight can never pass Equation 8, so its lane draw
             * is skipped; it still occupies its lane and cycle. */
            prefix += q;
            const uint64_t r = splitmix64(mixed ^ keys[lane]) >> 32;
            if (((u128)q << 32) > (u128)r * prefix + q)
                chosen = i;
        }
        if (++lane == k) {
            lane = 0;
            counter += 1;
            mixed = counter * GOLDEN;
        }
    }
    return chosen;
}

#define LRW_STEP_LOOP(ALG)                                                      \
    for (int64_t j = 0; j < n; j++) {                                           \
        const int64_t query = active[j];                                        \
        const int64_t c = curr[j];                                              \
        const int64_t degree = row_index[c + 1] - row_index[c];                 \
        const int64_t chosen = select_one(                                      \
            ALG, row_index, col_index, edge_weights, labels, weighted, inv_p,   \
            inv_q, label, lane_keys + query * k, counters[query], k, c,         \
            prev ? prev[j] : -1);                                               \
        counters[query] += (uint64_t)((degree + k - 1) / k);                    \
        next_out[j] = chosen >= 0 ? (int64_t)col_index[row_index[c] + chosen] : -1; \
    }

/* Advance n active queries by one step.  Query j is row active[j] of the
 * per-query lane_keys (k per row) and counters; it stands on curr[j]
 * having come from prev[j] (-1, or prev == NULL, for no previous vertex).
 * Writes the sampled vertex, or -1 on a dead end, to next_out[j]. */
void lrw_pwrs_step(const int64_t *row_index, const uint32_t *col_index,
                   const float *edge_weights, const int16_t *labels, int32_t alg,
                   int32_t weighted, double inv_p, double inv_q, int64_t label,
                   const uint64_t *lane_keys, uint64_t *counters, int64_t k,
                   int64_t n, const int64_t *active, const int64_t *curr,
                   const int64_t *prev, int64_t *next_out)
{
    switch (alg) {
    case ALG_UNIFORM:
        LRW_STEP_LOOP(ALG_UNIFORM)
        break;
    case ALG_STATIC:
        LRW_STEP_LOOP(ALG_STATIC)
        break;
    case ALG_NODE2VEC:
        LRW_STEP_LOOP(ALG_NODE2VEC)
        break;
    case ALG_METAPATH_VERTEX:
        LRW_STEP_LOOP(ALG_METAPATH_VERTEX)
        break;
    default:
        LRW_STEP_LOOP(ALG_METAPATH_EDGE)
        break;
    }
}
