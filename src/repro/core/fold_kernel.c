/*
 * One folded m-step update of a linear stencil (paper Section 3.3).
 *
 * repro_fold_update computes exactly what FoldingSchedule.numpy_fold in
 * repro/core/vectorized_folding.py computes, in the same IEEE operation
 * order, from the tap and position tables that module packs:
 *
 *   direct        V_c[j] = ((0 + w0*x0[j]) + w1*x1[j]) + ...
 *   combination   V_c[j] = ((0 + o0*V_a[j]) + o1*V_b[j]) + ...  [+ B_c[j]]
 *   bias          B_c[j] = ((0 + b0*x0[j]) + b1*x1[j]) + ...
 *   horizontal    out[j] = ((0 + p0*V_s0[j+d0]) + p1*V_s1[j+d1]) + ...
 *
 * x_t is the input row at the tap's (plane, row) offset from the output row,
 * and source -1 of a position is the input row itself (1-D stencils).  Reads
 * outside the grid wrap on every axis for periodic grids; for Dirichlet
 * grids they read cval, and so does a horizontal read of V outside the row.
 *
 * The output is produced row by row and, along the contiguous axis, in
 * chunks small enough that every counterpart row of a chunk stays in L1.
 * Interior chunks read the grid directly.  Only the few halo columns a
 * boundary chunk reaches past the row ends are wrapped: copied when the
 * chunk has already folded that column, folded again otherwise.  Per
 * element the loops keep the order above, so vectorising across elements
 * changes no result; build with -ffp-contract=off so that no multiply-add
 * is fused into one rounding.
 *
 * The function keeps no static state: concurrent calls on distinct outputs
 * are safe.  It returns 0, or 1 when a work buffer cannot be allocated.
 */

#include <stdint.h>
#include <stdlib.h>

/* Fields of one counterpart record in the cp table. */
enum { CP_MODE, CP_TAP_LO, CP_TAP_HI, CP_OMEGA_LO, CP_OMEGA_HI, CP_FIELDS };
enum { CP_DIRECT = 0, CP_COMBINATION = 1, CP_COMBINATION_BIAS = 2 };

/* Counterpart rows of one chunk should fit in about half of a 32 KiB L1. */
#define CHUNK_BYTES (16 * 1024)
#define CHUNK_MIN 64
/* Columns summed at once: eight two-lane accumulators, enough to hide the
 * latency of the adds and few enough to stay in SSE2 registers.  The vector
 * type allows unaligned loads and aliases double, like the intrinsics'. */
typedef double vec2 __attribute__((vector_size(16), aligned(8), may_alias));
#define NACC 8
#define BLOCK (2 * NACC)

static int64_t wrap(int64_t i, int64_t n)
{
    if (i >= 0 && i < n)
        return i;
    if (i < 0 && i >= -n)
        return i + n;
    const int64_t r = i % n;
    return r < 0 ? r + n : r;
}

/* dst[i] = ((0 + w[0]*src[0][i]) + w[1]*src[1][i]) + ... for i < len. */
static void weighted_sum(double *restrict dst, const double *const *src, const double *w,
                         int64_t nterms, int64_t len)
{
    int64_t i = 0;
    for (; i + BLOCK <= len; i += BLOCK) {
        vec2 acc[NACC];
        for (int k = 0; k < NACC; k++)
            acc[k] = (vec2){0.0, 0.0};
        for (int64_t t = 0; t < nterms; t++) {
            const vec2 wt = {w[t], w[t]};
            const vec2 *s = (const vec2 *)(src[t] + i);
            for (int k = 0; k < NACC; k++)
                acc[k] += wt * s[k];
        }
        vec2 *d = (vec2 *)(dst + i);
        for (int k = 0; k < NACC; k++)
            d[k] = acc[k];
    }
    for (; i < len; i++) {
        double acc = 0.0;
        for (int64_t t = 0; t < nterms; t++)
            acc += w[t] * src[t][i];
        dst[i] = acc;
    }
}

/* Read-only state of one call, shared by the helpers below. */
struct fold {
    int64_t cols;
    double cval;
    const int64_t *cp;
    const double *tap_w, *omega_w;
    const int64_t *omega_src;
    const double **taprow; /* per tap: its input row, NULL outside the grid */
    double **vbuf;         /* per counterpart: its chunk of V, halo included */
    double *bias;          /* a combination's bias sum */
    const double *cvalrow; /* span copies of cval, read by taps outside the grid */
    const double **term;   /* scratch: the rows of one weighted sum */
};

/* Taps [lo, hi) summed at grid columns [col, col + len) into dst. */
static void fold_taps(const struct fold *f, double *dst, int64_t lo, int64_t hi, int64_t col,
                      int64_t len)
{
    for (int64_t t = lo; t < hi; t++)
        f->term[t - lo] = f->taprow[t] != NULL ? f->taprow[t] + col : f->cvalrow;
    weighted_sum(dst, f->term, f->tap_w + lo, hi - lo, len);
}

/* Counterpart c at grid columns [col, col + len) into its slots [at, at + len);
 * a combination reads the earlier counterparts' same slots. */
static void fold_counterpart(const struct fold *f, int64_t c, int64_t at, int64_t col,
                             int64_t len)
{
    const int64_t *rec = f->cp + c * CP_FIELDS;
    double *dst = f->vbuf[c] + at;
    if (rec[CP_MODE] == CP_DIRECT) {
        fold_taps(f, dst, rec[CP_TAP_LO], rec[CP_TAP_HI], col, len);
        return;
    }
    const int64_t lo = rec[CP_OMEGA_LO], hi = rec[CP_OMEGA_HI];
    for (int64_t o = lo; o < hi; o++)
        f->term[o - lo] = f->vbuf[f->omega_src[o]] + at;
    weighted_sum(dst, f->term, f->omega_w + lo, hi - lo, len);
    if (rec[CP_MODE] == CP_COMBINATION_BIAS) {
        double *b = f->bias + at;
        fold_taps(f, b, rec[CP_TAP_LO], rec[CP_TAP_HI], col, len);
        for (int64_t i = 0; i < len; i++)
            dst[i] += b[i];
    }
}

/* Counterpart c at the columns [k0, k1) past the row's ends, into slots
 * [k0 - a, k1 - a).  Dirichlet grids read cval there.  On periodic grids
 * they are the wrapped columns: copied when the chunk's columns [lo, hi)
 * already hold them, else folded in pieces that stay inside the row. */
static void fold_outside(const struct fold *f, int64_t c, int64_t a, int64_t lo, int64_t hi,
                         int64_t k0, int64_t k1, int periodic)
{
    double *v = f->vbuf[c];
    for (int64_t k = k0; k < k1;) {
        if (!periodic) {
            v[k - a] = f->cval;
            k++;
            continue;
        }
        const int64_t col = wrap(k, f->cols);
        if (col >= lo && col < hi) {
            v[k - a] = v[col - a];
            k++;
            continue;
        }
        const int64_t len = k1 - k < f->cols - col ? k1 - k : f->cols - col;
        fold_counterpart(f, c, k - a, col, len);
        k += len;
    }
}

int repro_fold_update(const double *x, double *out, int64_t planes, int64_t rows,
                      int64_t cols, int32_t periodic, double cval, int64_t ncp,
                      const int64_t *cp, const int64_t *tap_off, const double *tap_w,
                      const int64_t *omega_src, const double *omega_w, int64_t npos,
                      const int64_t *pos, const double *pos_w)
{
    if (planes <= 0 || rows <= 0 || cols <= 0)
        return 0;
    const int64_t ntaps = ncp > 0 ? cp[(ncp - 1) * CP_FIELDS + CP_TAP_HI] : 0;
    const int64_t nomega = ncp > 0 ? cp[(ncp - 1) * CP_FIELDS + CP_OMEGA_HI] : 0;
    int64_t halo = 0, nterm = npos;
    nterm = ntaps > nterm ? ntaps : nterm;
    nterm = nomega > nterm ? nomega : nterm;
    int needs_input = 0;
    for (int64_t p = 0; p < npos; p++) {
        const int64_t d = pos[2 * p + 1] < 0 ? -pos[2 * p + 1] : pos[2 * p + 1];
        halo = d > halo ? d : halo;
        needs_input |= pos[2 * p] < 0;
    }
    /* Slots per counterpart, the bias, the input row of a 1-D fold and cval. */
    const int64_t nbuf = ncp + 3;
    int64_t chunk = CHUNK_BYTES / (int64_t)sizeof(double) / nbuf - 2 * halo;
    chunk = chunk < CHUNK_MIN ? CHUNK_MIN : chunk;
    const int64_t nchunks = (cols + chunk - 1) / chunk;
    chunk = (cols + nchunks - 1) / nchunks;
    const int64_t span = chunk + 2 * halo;

    double *work = malloc((size_t)(nbuf * span) * sizeof(double));
    double **vbuf = malloc((size_t)(ncp + 1) * sizeof(double *));
    const double **taprow = malloc((size_t)(ntaps + 1) * sizeof(double *));
    const double **term = malloc((size_t)(nterm + 1) * sizeof(double *));
    if (work == NULL || vbuf == NULL || taprow == NULL || term == NULL) {
        free(work);
        free(vbuf);
        free(taprow);
        free(term);
        return 1;
    }
    for (int64_t c = 0; c < ncp; c++)
        vbuf[c] = work + c * span;
    double *ext = work + (ncp + 1) * span;
    double *cvalrow = work + (ncp + 2) * span;
    for (int64_t i = 0; i < span; i++)
        cvalrow[i] = cval;
    const struct fold f = {
        .cols = cols, .cval = cval, .cp = cp, .tap_w = tap_w, .omega_w = omega_w,
        .omega_src = omega_src, .taprow = taprow, .vbuf = vbuf, .bias = work + ncp * span,
        .cvalrow = cvalrow, .term = term,
    };

    for (int64_t z = 0; z < planes; z++) {
        for (int64_t y = 0; y < rows; y++) {
            for (int64_t t = 0; t < ntaps; t++) {
                int64_t zz = z + tap_off[2 * t], yy = y + tap_off[2 * t + 1];
                if (periodic) {
                    zz = wrap(zz, planes);
                    yy = wrap(yy, rows);
                } else if (zz < 0 || zz >= planes || yy < 0 || yy >= rows) {
                    taprow[t] = NULL;
                    continue;
                }
                taprow[t] = x + (zz * rows + yy) * cols;
            }
            const double *xrow = x + (z * rows + y) * cols;
            double *orow = out + (z * rows + y) * cols;

            for (int64_t j0 = 0; j0 < cols; j0 += chunk) {
                const int64_t j1 = j0 + chunk < cols ? j0 + chunk : cols;
                const int64_t a = j0 - halo, b = j1 + halo;
                const int64_t lo = a > 0 ? a : 0, hi = b < cols ? b : cols;

                for (int64_t c = 0; c < ncp; c++) {
                    fold_counterpart(&f, c, lo - a, lo, hi - lo);
                    fold_outside(&f, c, a, lo, hi, a, lo, periodic);
                    fold_outside(&f, c, a, lo, hi, hi, b, periodic);
                }
                /* A 1-D fold reads the input row itself, copied with its
                 * halo unless the chunk lies inside the row. */
                const double *input = xrow + lo;
                if (needs_input && (lo != a || hi != b)) {
                    for (int64_t k = a; k < b; k++)
                        ext[k - a] = (k >= 0 && k < cols) ? xrow[k]
                                     : periodic           ? xrow[wrap(k, cols)]
                                                          : cval;
                    input = ext;
                }
                for (int64_t p = 0; p < npos; p++) {
                    const double *src = pos[2 * p] < 0 ? input : vbuf[pos[2 * p]];
                    term[p] = src + (j0 - a) + pos[2 * p + 1];
                }
                weighted_sum(orow + j0, term, pos_w, npos, j1 - j0);
            }
        }
    }
    free(work);
    free(vbuf);
    free(taprow);
    free(term);
    return 0;
}
