/*
 * The compiled steps behind the default folded run(): one folded m-step
 * update of a linear stencil (paper Section 3.3), one reference step, and
 * the Dirichlet band of a folded update.
 *
 * repro_fold_update computes exactly what FoldingSchedule.numpy_fold in
 * repro/core/vectorized_folding.py computes, in the same IEEE operation
 * order, from the tap and position tables that module packs:
 *
 *   direct        V_c[j] = ((0 + w0*x0[j]) + w1*x1[j]) + ...
 *   factored      Q_c[j] = ((0 + a0*x0[j]) + a1*x1[j]) + ...   (plane taps)
 *                 V_c[j] = ((0 + b0*Q0[j]) + b1*Q1[j]) + ...   (row taps)
 *   combination   V_c[j] = ((0 + o0*V_a[j]) + o1*V_b[j]) + ...  [+ B_c[j]]
 *   bias          B_c[j] = ((0 + b0*x0[j]) + b1*x1[j]) + ...
 *   horizontal    out[j] = ((0 + p0*V_s0[j+d0]) + p1*V_s1[j+d1]) + ...
 *
 * x_t is the input row at the tap's (plane, row) offset from the output row,
 * and source -1 of a position is the input row itself (1-D stencils).  A
 * factored (plane-factored 3-D) counterpart first combines the planes of its
 * plane taps into one plane Q_c per output plane, every row at once, and
 * its row taps then read the rows of Q_c: each Q_c row is computed once and
 * read by every output row that needs it.  Reads outside the grid wrap on
 * every axis for periodic grids; for Dirichlet grids they read cval (x and
 * Q_c alike), and so does a horizontal read of V outside the row.
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
 * repro_reference_step computes reference_step in repro/stencils/reference.py
 * bit for bit: scipy.ndimage.correlate sums, for every output point,
 *
 *   out[p] = ((0 + w0*x[p+d0]) + w1*x[p+d1]) + ...
 *
 * over the kernel's taps with |w| > DBL_EPSILON in C order (the table
 * FoldingSchedule.step_tables packs), reading wrapped values outside the grid
 * for periodic grids and cval for Dirichlet ones.
 *
 * repro_dirichlet_band recomputes the band a folded update of a Dirichlet
 * grid gets wrong: the points closer than (m-1)*r to a face, r the stencil's
 * largest radius.  It runs the m reference steps of the band in one call,
 * on a frame that shrinks by r per step (thickness (m-1)*r + (m-k)*r after
 * step k), every face in one pass over the rows, and writes the last step
 * straight into the folded output.  A frame row inside the thickness of a
 * plane or row face is kept whole; any other keeps its two end segments.
 * The points a step computes only read points the previous frame holds, so
 * each band point gets the bits of m full-grid reference steps.
 *
 * The functions keep no static state and allocate their scratch per call:
 * concurrent calls on distinct outputs are safe.  Each returns 0, or 1 when
 * a work buffer cannot be allocated.
 */

#include <stdint.h>
#include <stdlib.h>

/* Fields of one counterpart record in the cp table: its mode, then its taps
 * (the direct weights, the bias or the row factor), its reuse terms and the
 * taps of its plane factor. */
enum { CP_MODE, CP_TAP_LO, CP_TAP_HI, CP_OMEGA_LO, CP_OMEGA_HI, CP_PLANE_LO, CP_PLANE_HI,
       CP_FIELDS };
enum { CP_DIRECT = 0, CP_COMBINATION = 1, CP_COMBINATION_BIAS = 2, CP_FACTORED = 3 };

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

/* Columns [i, i + BLOCK) of weighted_sum. */
static inline void weighted_block(double *restrict dst, const double *const *src,
                                  const double *w, int64_t nterms, int64_t i)
{
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

/* dst[i] = ((0 + w[0]*src[0][i]) + w[1]*src[1][i]) + ... for i < len. */
static void weighted_sum(double *restrict dst, const double *const *src, const double *w,
                         int64_t nterms, int64_t len)
{
    int64_t i = 0;
    for (; i + BLOCK <= len; i += BLOCK)
        weighted_block(dst, src, w, nterms, i);
    /* The last columns: one more block ending at len when the sum is at
     * least a block long (it recomputes some columns, with the same bits),
     * else one column at a time. */
    if (i < len && len >= BLOCK) {
        weighted_block(dst, src, w, nterms, len - BLOCK);
        return;
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
    const double **taprow; /* per tap: its input or Q row, NULL outside the grid */
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
    if (rec[CP_MODE] == CP_DIRECT || rec[CP_MODE] == CP_FACTORED) {
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
    /* A plane Q_c per factored counterpart; its plane taps read a plane of
     * cval outside a Dirichlet grid. */
    const int64_t plane = rows * cols;
    int64_t nfactored = 0;
    for (int64_t c = 0; c < ncp; c++)
        nfactored += cp[c * CP_FIELDS + CP_MODE] == CP_FACTORED;
    const int64_t ncval = nfactored > 0 && !periodic && plane > span ? plane : span;

    double *work = malloc((size_t)((nbuf - 1) * span + ncval + nfactored * plane) *
                          sizeof(double));
    double **vbuf = malloc((size_t)(2 * ncp + 1) * sizeof(double *));
    const double **taprow = malloc((size_t)(ntaps + 1) * sizeof(double *));
    const double **term = malloc((size_t)(nterm + 1) * sizeof(double *));
    if (work == NULL || vbuf == NULL || taprow == NULL || term == NULL) {
        free(work);
        free(vbuf);
        free(taprow);
        free(term);
        return 1;
    }
    double **qbuf = vbuf + ncp; /* per counterpart: its plane Q_c, or NULL */
    double *ext = work + (ncp + 1) * span;
    double *cvalrow = work + (ncp + 2) * span;
    double *q = cvalrow + ncval;
    for (int64_t c = 0; c < ncp; c++) {
        vbuf[c] = work + c * span;
        qbuf[c] = NULL;
        if (cp[c * CP_FIELDS + CP_MODE] == CP_FACTORED) {
            qbuf[c] = q;
            q += plane;
        }
    }
    for (int64_t i = 0; i < ncval; i++)
        cvalrow[i] = cval;
    const struct fold f = {
        .cols = cols, .cval = cval, .cp = cp, .tap_w = tap_w, .omega_w = omega_w,
        .omega_src = omega_src, .taprow = taprow, .vbuf = vbuf, .bias = work + ncp * span,
        .cvalrow = cvalrow, .term = term,
    };

    for (int64_t z = 0; z < planes; z++) {
        for (int64_t c = 0; c < ncp; c++) {
            if (qbuf[c] == NULL)
                continue;
            const int64_t *rec = cp + c * CP_FIELDS;
            const int64_t lo = rec[CP_PLANE_LO], hi = rec[CP_PLANE_HI];
            for (int64_t t = lo; t < hi; t++) {
                int64_t zz = z + tap_off[2 * t];
                if (periodic)
                    zz = wrap(zz, planes);
                term[t - lo] = periodic || (zz >= 0 && zz < planes) ? x + zz * plane : cvalrow;
            }
            weighted_sum(qbuf[c], term, tap_w + lo, hi - lo, plane);
        }
        for (int64_t y = 0; y < rows; y++) {
            /* The taps every row reads: a factored counterpart's read its Q_c. */
            for (int64_t c = 0; c < ncp; c++) {
                const int64_t *rec = cp + c * CP_FIELDS;
                for (int64_t t = rec[CP_TAP_LO]; t < rec[CP_TAP_HI]; t++) {
                    int64_t zz = z + tap_off[2 * t], yy = y + tap_off[2 * t + 1];
                    if (periodic) {
                        zz = wrap(zz, planes);
                        yy = wrap(yy, rows);
                    } else if (zz < 0 || zz >= planes || yy < 0 || yy >= rows) {
                        taprow[t] = NULL;
                        continue;
                    }
                    taprow[t] = qbuf[c] != NULL ? qbuf[c] + yy * cols
                                                : x + (zz * rows + yy) * cols;
                }
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

/* Interior columns a reference step sums at once: the span of its cval row. */
#define STEP_CHUNK 512
/* The offset of a source row that lies outside a Dirichlet grid. */
#define OUTSIDE INT64_MIN

/* State of one reference-step or band call, shared by the helpers below. */
struct step {
    int64_t planes, rows, cols;
    int32_t periodic;
    double cval;
    int64_t ntaps;
    const int64_t *off;    /* per tap: (plane, row, column) offset */
    const double *w;
    int64_t left, right;   /* columns the taps reach before and after a point */
    int64_t nsrc;          /* distinct (plane, row) offsets of the taps */
    int64_t *src_of;       /* per tap: its (plane, row) offset's index */
    int64_t *src_off;      /* per distinct offset: (plane, row) */
    double *cvalrow;       /* STEP_CHUNK copies of cval, read by rows outside the grid */
    const double **term;   /* scratch: the rows of one weighted sum */
    int64_t *base, *rbase; /* scratch: per distinct offset, where column 0 of the
                            * source row's left and right part sits, or OUTSIDE */
};

static void step_free(struct step *s)
{
    free(s->src_of);
    free(s->cvalrow);
    free(s->term);
}

static int step_setup(struct step *s, int64_t planes, int64_t rows, int64_t cols,
                      int32_t periodic, double cval, int64_t ntaps, const int64_t *off,
                      const double *w)
{
    *s = (struct step){
        .planes = planes, .rows = rows, .cols = cols, .periodic = periodic, .cval = cval,
        .ntaps = ntaps, .off = off, .w = w,
    };
    s->src_of = malloc((size_t)(5 * ntaps + 1) * sizeof(int64_t));
    s->cvalrow = malloc(STEP_CHUNK * sizeof(double));
    s->term = malloc((size_t)(ntaps + 1) * sizeof(double *));
    if (s->src_of == NULL || s->cvalrow == NULL || s->term == NULL) {
        step_free(s);
        return 1;
    }
    s->src_off = s->src_of + ntaps;
    s->base = s->src_off + 2 * ntaps;
    s->rbase = s->base + ntaps;
    for (int64_t t = 0; t < ntaps; t++) {
        const int64_t dx = off[3 * t + 2];
        s->left = -dx > s->left ? -dx : s->left;
        s->right = dx > s->right ? dx : s->right;
        int64_t i = 0;
        while (i < s->nsrc && (s->src_off[2 * i] != off[3 * t] ||
                               s->src_off[2 * i + 1] != off[3 * t + 1]))
            i++;
        if (i == s->nsrc) {
            s->src_off[2 * i] = off[3 * t];
            s->src_off[2 * i + 1] = off[3 * t + 1];
            s->nsrc++;
        }
        s->src_of[t] = i;
    }
    for (int64_t i = 0; i < STEP_CHUNK; i++)
        s->cvalrow[i] = cval;
    return 0;
}

/* Columns [lo, hi) of an output row into dst, one point at a time with
 * every read checked: the columns whose taps reach past the row's ends, and
 * narrow segments.  A tap reads src[base[i] + column], i the index of its
 * (plane, row) offset, or cval where base[i] is OUTSIDE. */
static void step_edge(const struct step *s, double *dst, const double *src,
                      const int64_t *base, int64_t lo, int64_t hi)
{
    for (int64_t j = lo; j < hi; j++) {
        double acc = 0.0;
        for (int64_t t = 0; t < s->ntaps; t++) {
            const int64_t b = base[s->src_of[t]], col = j + s->off[3 * t + 2];
            double v = s->cval;
            if (s->periodic)
                v = src[b + wrap(col, s->cols)];
            else if (b != OUTSIDE && col >= 0 && col < s->cols)
                v = src[b + col];
            acc += s->w[t] * v;
        }
        dst[j - lo] = acc;
    }
}

/* Columns [j0, j1) of an output row into dst[0, j1 - j0), reading as
 * step_edge does.  In a segment of at least BLOCK columns, the columns
 * whose taps stay inside the row are summed directly from the source rows. */
static void step_columns(const struct step *s, double *dst, const double *src,
                         const int64_t *base, int64_t j0, int64_t j1)
{
    if (j1 - j0 < BLOCK) {
        step_edge(s, dst, src, base, j0, j1);
        return;
    }
    int64_t a = s->left > j0 ? s->left : j0;
    a = a < j1 ? a : j1;
    int64_t b = s->cols - s->right < j1 ? s->cols - s->right : j1;
    b = b > a ? b : a;
    step_edge(s, dst, src, base, j0, a);
    for (int64_t i = a; i < b; i += STEP_CHUNK) {
        const int64_t len = b - i < STEP_CHUNK ? b - i : STEP_CHUNK;
        for (int64_t t = 0; t < s->ntaps; t++) {
            const int64_t row = base[s->src_of[t]];
            s->term[t] = row == OUTSIDE ? s->cvalrow : src + (row + i + s->off[3 * t + 2]);
        }
        weighted_sum(dst + (i - j0), s->term, s->w, s->ntaps, len);
    }
    step_edge(s, dst + (b - j0), src, base, b, j1);
}

/* Columns [0, thick) and [cols - thick, cols) of a frame row whose source
 * rows all lie inside the grid, into dl and dr: the two ends summed side by
 * side so that their chains of adds overlap.  Only the columns past the
 * row's ends read cval. */
static void step_ends(const struct step *s, double *dl, double *dr, const double *src,
                      int64_t thick)
{
    const int64_t shift = s->cols - thick;
    for (int64_t j = 0; j < thick; j++) {
        double accl = 0.0, accr = 0.0;
        for (int64_t t = 0; t < s->ntaps; t++) {
            const int64_t i = s->src_of[t], col = j + s->off[3 * t + 2];
            const double vl = col >= 0 ? src[s->base[i] + col] : s->cval;
            const double vr = col + shift < s->cols ? src[s->rbase[i] + col + shift] : s->cval;
            accl += s->w[t] * vl;
            accr += s->w[t] * vr;
        }
        dl[j] = accl;
        dr[j] = accr;
    }
}

int repro_reference_step(const double *x, double *out, int64_t planes, int64_t rows,
                         int64_t cols, int32_t periodic, double cval, int64_t ntaps,
                         const int64_t *off, const double *w)
{
    if (planes <= 0 || rows <= 0 || cols <= 0)
        return 0;
    struct step s;
    if (step_setup(&s, planes, rows, cols, periodic, cval, ntaps, off, w) != 0)
        return 1;
    for (int64_t z = 0; z < planes; z++) {
        for (int64_t y = 0; y < rows; y++) {
            for (int64_t i = 0; i < s.nsrc; i++) {
                int64_t zz = z + s.src_off[2 * i], yy = y + s.src_off[2 * i + 1];
                if (periodic) {
                    zz = wrap(zz, planes);
                    yy = wrap(yy, rows);
                } else if (zz < 0 || zz >= planes || yy < 0 || yy >= rows) {
                    s.base[i] = OUTSIDE;
                    continue;
                }
                s.base[i] = (zz * rows + yy) * cols;
            }
            step_columns(&s, out + (z * rows + y) * cols, x, s.base, 0, cols);
        }
    }
    step_free(&s);
    return 0;
}

/* Whether row (z, y) of a band frame of thickness thick is kept whole: it
 * lies within thick of a plane or row face of the grid's ndim axes, or the
 * segments at its two ends would meet. */
static int whole_row(const struct step *s, int64_t ndim, int64_t z, int64_t y, int64_t thick)
{
    return 2 * thick >= s->cols || (ndim == 3 && (z < thick || z >= s->planes - thick)) ||
           (ndim >= 2 && (y < thick || y >= s->rows - thick));
}

/* Where each row of a frame of thickness thick stores column 0 of its left
 * part (loff) and of its right part (roff): a whole row holds every column,
 * any other holds [0, thick) then [cols - thick, cols).  Returns the size. */
static int64_t frame_layout(const struct step *s, int64_t ndim, int64_t thick, int64_t *loff,
                            int64_t *roff)
{
    int64_t size = 0;
    for (int64_t z = 0; z < s->planes; z++) {
        for (int64_t y = 0; y < s->rows; y++) {
            const int64_t row = z * s->rows + y;
            loff[row] = size;
            if (whole_row(s, ndim, z, y, thick)) {
                roff[row] = size;
                size += s->cols;
            } else {
                roff[row] = size + 2 * thick - s->cols;
                size += 2 * thick;
            }
        }
    }
    return size;
}

/* The layout of a whole grid: every row whole, in C order. */
static void grid_layout(const struct step *s, int64_t *loff, int64_t *roff)
{
    for (int64_t row = 0; row < s->planes * s->rows; row++)
        loff[row] = roff[row] = row * s->cols;
}

int repro_dirichlet_band(const double *x, double *out, int64_t planes, int64_t rows,
                         int64_t cols, int64_t ndim, double cval, int64_t ntaps,
                         const int64_t *off, const double *w, int64_t m, int64_t radius)
{
    const int64_t band = (m - 1) * radius;
    if (planes <= 0 || rows <= 0 || cols <= 0 || band <= 0)
        return 0;
    struct step s;
    if (step_setup(&s, planes, rows, cols, 0, cval, ntaps, off, w) != 0)
        return 1;
    /* Frame k keeps its offsets in slot k % 2 and, for 0 < k < m, its values
     * in data slot (k - 1) % 2; frame 0 is x and frame m is out. */
    const int64_t nrows = planes * rows;
    int64_t *offs = malloc((size_t)(4 * nrows) * sizeof(int64_t));
    const int64_t size = offs == NULL ? 0 : frame_layout(&s, ndim, band + (m - 1) * radius,
                                                         offs + 2 * nrows, offs + 3 * nrows);
    double *frames = offs == NULL ? NULL
                                  : malloc((size_t)((m > 2 ? 2 : 1) * size + 1) * sizeof(double));
    if (frames == NULL) {
        free(offs);
        step_free(&s);
        return 1;
    }
    grid_layout(&s, offs, offs + nrows);

    for (int64_t k = 1; k <= m; k++) {
        const int64_t thick = band + (m - k) * radius;
        const int64_t *ploff = offs + 2 * ((k - 1) % 2) * nrows, *proff = ploff + nrows;
        int64_t *cloff = offs + 2 * (k % 2) * nrows, *croff = cloff + nrows;
        const double *src = k == 1 ? x : frames + (k % 2) * size;
        double *dst = k == m ? out : frames + ((k - 1) % 2) * size;
        if (k == m)
            grid_layout(&s, cloff, croff);
        else
            frame_layout(&s, ndim, thick, cloff, croff);

        for (int64_t z = 0; z < planes; z++) {
            for (int64_t y = 0; y < rows; y++) {
                for (int64_t i = 0; i < s.nsrc; i++) {
                    const int64_t zz = z + s.src_off[2 * i], yy = y + s.src_off[2 * i + 1];
                    if (zz < 0 || zz >= planes || yy < 0 || yy >= rows) {
                        s.base[i] = s.rbase[i] = OUTSIDE;
                        continue;
                    }
                    s.base[i] = ploff[zz * rows + yy];
                    s.rbase[i] = proff[zz * rows + yy];
                }
                const int64_t row = z * rows + y;
                if (whole_row(&s, ndim, z, y, thick)) {
                    step_columns(&s, dst + cloff[row], src, s.base, 0, cols);
                } else {
                    step_ends(&s, dst + cloff[row], dst + (croff[row] + cols - thick), src,
                              thick);
                }
            }
        }
    }
    free(frames);
    free(offs);
    step_free(&s);
    return 0;
}
