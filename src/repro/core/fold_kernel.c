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
 * chunk has already folded that column, folded again otherwise.
 *
 * repro_reference_step computes reference_step in repro/stencils/reference.py
 * bit for bit: scipy.ndimage.correlate sums, for every output point,
 *
 *   out[p] = ((0 + w0*x[p+d0]) + w1*x[p+d1]) + ...
 *
 * over the kernel's taps with |w| > DBL_EPSILON in C order (the table
 * FoldingSchedule.step_tables packs), reading wrapped values outside the grid
 * for periodic grids and cval for Dirichlet ones.  Each output row sums the
 * columns whose taps stay inside the row straight from the grid; its few
 * columns at each end come from scratch copies of the source rows' ends,
 * which carry the values past the row's ends (struct step).  Its scratch is
 * the caller's, repro_reference_step_scratch bytes, so that a run allocates
 * it once for all its remainder steps.
 *
 * repro_dirichlet_band recomputes the band a folded update of a Dirichlet
 * grid gets wrong: the points closer than (m-1)*r to a face, r the stencil's
 * largest radius, which must be at least every tap's reach (the Python
 * wrapper, RunArrays.band, checks it).  It runs the m reference steps of the
 * band in one call, in the same tap order, on a frame that shrinks by r per
 * step (thickness (m-1)*r + (m-k)*r after step k), and writes the last step
 * straight into the folded output, no other point.  The frame's x faces,
 * the columns near each row end, are packed across rows into strips that
 * run along y, so every vector sums LANES band points and keeps them all;
 * its plane and row faces are summed as whole rows read straight from the
 * previous frame (struct band).  The points a step computes only read
 * points the previous frame holds, so each band point gets the bits of m
 * full-grid reference steps.  Its scratch is the caller's,
 * repro_dirichlet_band_scratch bytes sized by the band of the planes in
 * flight, so that a run allocates it once for all its band calls.
 *
 * Every sum runs in whole vectors of as many lanes as the build's ISA flags
 * allow (weighted_sum): per element the loops keep the order above, so
 * vectorising across elements changes no result, whatever the width; build
 * with -ffp-contract=off so that no multiply-add is fused into one rounding.
 * The functions keep no static state, and the fold allocates its scratch
 * per call: concurrent calls on distinct outputs and distinct scratch are
 * safe.  The fold returns 0, or 1 when a work buffer cannot be allocated;
 * the reference step and the band always return 0.
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
/* Doubles per vector: eight with -mavx512f, four with -mavx2, else SSE2's
 * two, the x86-64 baseline. */
#if defined(__AVX512F__)
#define LANES 8
#elif defined(__AVX2__)
#define LANES 4
#else
#define LANES 2
#endif
/* Vectors summed side by side: four accumulators hide the latency of the
 * adds, and a block of four 8-lane vectors spans 32 columns, so rows of 32
 * or 48 columns take one or two blocks.  The vector type allows unaligned
 * loads and aliases double, like the intrinsics'. */
#define NACC 4
#define BLOCK (NACC * LANES)
typedef double vec __attribute__((vector_size(8 * LANES), aligned(8), may_alias));

static int64_t wrap(int64_t i, int64_t n)
{
    if (i >= 0 && i < n)
        return i;
    if (i < 0 && i >= -n)
        return i + n;
    const int64_t r = i % n;
    return r < 0 ? r + n : r;
}

/* NACC vectors at the offsets at[k] from dst and from every src[t]:
 * dst[a] = ((0 + w[0]*src[0][a]) + w[1]*src[1][a]) + ... for the LANES
 * columns a from each at[k].  Offsets may repeat: a column summed twice
 * gets the same bits. */
static inline void sum_block(double *restrict dst, const double *const *src, const double *w,
                             int64_t nterms, const int64_t *at)
{
    int64_t a[NACC];
    vec acc[NACC];
    for (int k = 0; k < NACC; k++) {
        a[k] = at[k];
        acc[k] = (vec){0.0};
    }
    for (int64_t t = 0; t < nterms; t++) {
        const double wt = w[t]; /* a scalar operand is broadcast */
        const double *s = src[t];
        for (int k = 0; k < NACC; k++)
            acc[k] += wt * *(const vec *)(s + a[k]);
    }
    for (int k = 0; k < NACC; k++)
        *(vec *)(dst + a[k]) = acc[k];
}

/* dst[i] = ((0 + w[0]*src[0][i]) + w[1]*src[1][i]) + ... for i < len, in
 * blocks of NACC vectors when the sum is at least one vector long (a vector
 * that would pass len ends at len instead), else one column at a time; it
 * reads and writes no column past len. */
static void weighted_sum(double *restrict dst, const double *const *src, const double *w,
                         int64_t nterms, int64_t len)
{
    if (len >= LANES) {
        int64_t at[NACC];
        for (int64_t i = 0; i < len; i += BLOCK) {
            for (int k = 0; k < NACC; k++)
                at[k] = i + k * LANES < len - LANES ? i + k * LANES : len - LANES;
            sum_block(dst, src, w, nterms, at);
        }
        return;
    }
    for (int64_t i = 0; i < len; i++) {
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

/* State of one reference-step call, shared by the helpers below.
 *
 * An output row sums its columns [lo, hi), whose taps stay inside the row,
 * straight from its source rows.  The rest it sums from the source rows' cut
 * copies: width columns (a multiple of LANES) that hold a row's columns
 * [0, half) at [0, half) and its columns [cols - half, cols) at
 * [width - half, width), with left columns before them and right after of
 * the values past the row's ends (cval on a Dirichlet grid, wrapped on a
 * periodic one).  The middle of the row is cut out, and a row shorter than
 * 2*half shows in both halves.  Summed like a row, in whole vectors, the cut
 * copies of a row's sources give its columns [0, half - right) at the same
 * place and [cols - half + left, cols) at [width - half + left, width); the
 * columns between are discarded.
 *
 * Rows are found by slot: one per row of the grid, and ghost slots for the
 * rows the taps reach past its faces (a row of cval, or the wrapped row), so
 * each tap reads the slot at a fixed offset from its output row's.  Cut
 * copies sit stride doubles apart in slot order, so the cut sums of a
 * plane's rows run as one weighted sum, NACC rows per block.  Every read
 * lands on a value. */
struct step {
    int64_t planes, rows, cols;
    int32_t periodic;
    double cval;
    int64_t ntaps;
    const int64_t *off;    /* per tap: (plane, row, column) offset */
    const double *w;
    int64_t left, right;   /* columns the taps reach before and after a point */
    int64_t gz, gy;        /* planes and rows the taps reach: the ghost slots */
    int64_t *tap_slot;     /* per tap: the offset of its source row's slot */
    int64_t *tap_cut;      /* per tap: where it reads from its row's cut copy */
    int64_t half, width;   /* of a cut copy */
    int64_t stride;        /* doubles per cut copy: left + width + right */
    int64_t lo, hi;        /* the columns a row sums straight from its sources */
    int64_t *job;          /* the vectors of a plane's cut sums, by offset */
    double *outside;       /* a row of cval, read past a Dirichlet grid's faces */
    const double **term;   /* scratch: the rows of one weighted sum */
};

/* How far the taps reach: *left and *right columns before and after a
 * point, *gz planes and *gy rows either way. */
static void tap_reach(int64_t ntaps, const int64_t *off, int64_t *left, int64_t *right,
                      int64_t *gz, int64_t *gy)
{
    *left = *right = *gz = *gy = 0;
    for (int64_t t = 0; t < ntaps; t++) {
        const int64_t dz = off[3 * t], dy = off[3 * t + 1], dx = off[3 * t + 2];
        *left = -dx > *left ? -dx : *left;
        *right = dx > *right ? dx : *right;
        *gz = (dz < 0 ? -dz : dz) > *gz ? (dz < 0 ? -dz : dz) : *gz;
        *gy = (dy < 0 ? -dy : dy) > *gy ? (dy < 0 ? -dy : dy) : *gy;
    }
}

/* s's geometry for a call on a planes x rows x cols grid. */
static void step_geometry(struct step *s, int64_t planes, int64_t rows, int64_t cols,
                          int32_t periodic, double cval, int64_t ntaps, const int64_t *off,
                          const double *w)
{
    *s = (struct step){
        .planes = planes, .rows = rows, .cols = cols, .periodic = periodic, .cval = cval,
        .ntaps = ntaps, .off = off, .w = w,
    };
    tap_reach(ntaps, off, &s->left, &s->right, &s->gz, &s->gy);
    const int64_t reach = s->left + s->right;
    int64_t half = reach;
    if (cols - reach >= LANES) {
        s->lo = s->left;
        s->hi = cols - s->right;
    } else {
        /* No whole vector fits inside the row: every column comes from the
         * cut copies, which then cover the row. */
        half = half > (cols + reach + 1) / 2 ? half : (cols + reach + 1) / 2;
        s->lo = s->hi = half - s->right < cols ? half - s->right : cols;
    }
    s->half = half;
    s->width = (2 * half + LANES - 1) / LANES * LANES;
    s->stride = s->left + s->width + s->right;
}

/* The slots of a grid, ghosts included. */
static int64_t nslots(const struct step *s)
{
    return (s->planes + 2 * s->gz) * (s->rows + 2 * s->gy);
}

/* The slot of row (z, y); ghost rows lie past the faces. */
static int64_t slot(const struct step *s, int64_t z, int64_t y)
{
    return (z + s->gz) * (s->rows + 2 * s->gy) + y + s->gy;
}

/* Bytes of a call's scratch: the cut copies and a plane's cut sums, the row
 * of cval; the row table and the tap rows; the taps' slots and cut offsets,
 * and a plane's jobs. */
static int64_t step_bytes(const struct step *s)
{
    const int64_t n = nslots(s), doubles = (n + s->rows) * s->stride + s->cols;
    const int64_t words = 2 * s->ntaps + s->rows * (s->width / LANES) + 1;
    return doubles * (int64_t)sizeof(double) + (n + s->ntaps + 1) * (int64_t)sizeof(double *) +
           words * (int64_t)sizeof(int64_t);
}

/* Points s's tables into the caller's scratch and fills them; *work gets
 * the cut copies and a plane's cut sums, *table the row table. */
static void step_carve(struct step *s, void *scratch, double **work, const double ***table)
{
    const int64_t n = nslots(s), nvec = s->width / LANES;
    *work = scratch;
    s->outside = *work + (n + s->rows) * s->stride;
    *table = (const double **)(s->outside + s->cols);
    s->term = *table + n;
    s->tap_slot = (int64_t *)(s->term + s->ntaps + 1);
    s->tap_cut = s->tap_slot + s->ntaps;
    s->job = s->tap_cut + s->ntaps;
    for (int64_t t = 0; t < s->ntaps; t++) {
        s->tap_slot[t] = s->off[3 * t] * (s->rows + 2 * s->gy) + s->off[3 * t + 1];
        s->tap_cut[t] = s->tap_slot[t] * s->stride + s->off[3 * t + 2];
    }
    for (int64_t y = 0, j = 0; y < s->rows; y++)
        for (int64_t v = 0; v < nvec; v++)
            s->job[j++] = y * s->stride + v * LANES;
    /* Only a Dirichlet grid's ghost rows read the row of cval. */
    if (!s->periodic && (s->gz > 0 || s->gy > 0))
        for (int64_t i = 0; i < s->cols; i++)
            s->outside[i] = s->cval;
}

/* Fills table with the row each slot holds: the grid x's row, the wrapped
 * row of a periodic grid, or s->outside past a Dirichlet grid's faces. */
static void row_table(const struct step *s, const double **table, const double *x)
{
    for (int64_t z = -s->gz; z < s->planes + s->gz; z++) {
        for (int64_t y = -s->gy; y < s->rows + s->gy; y++) {
            const double *row = s->outside;
            if (s->periodic || (z >= 0 && z < s->planes && y >= 0 && y < s->rows)) {
                const int64_t r = wrap(z, s->planes) * s->rows + wrap(y, s->rows);
                row = x + r * s->cols;
            }
            table[slot(s, z, y)] = row;
        }
    }
}

/* Columns [c0, c1) of the grid row src into dst[c0 - at, c1 - at), past the
 * row's ends included. */
static void copy_columns(const struct step *s, double *dst, const double *src, int64_t at,
                         int64_t c0, int64_t c1)
{
    int64_t c = c0;
    for (; c < c1 && (c < 0 || c >= s->cols); c++)
        dst[c - at] = s->periodic ? src[wrap(c, s->cols)] : s->cval;
    for (; c < c1 && c < s->cols; c++)
        dst[c - at] = src[c];
    for (; c < c1; c++)
        dst[c - at] = s->periodic ? src[wrap(c, s->cols)] : s->cval;
}

/* The cut copy of the row src into the slot whose column 0 is dst: its two
 * halves, and its halo on a periodic grid.  The slots start out as cval,
 * which a Dirichlet grid's halo keeps. */
static void cut_copy(const struct step *s, double *dst, const double *src)
{
    const int64_t shift = s->cols - s->width, left = s->periodic ? s->left : 0;
    if (!s->periodic && s->half <= s->cols) {
        for (int64_t v = 0; v < s->half; v++) {
            dst[v] = src[v];
            dst[s->width - s->half + v] = src[s->cols - s->half + v];
        }
        return;
    }
    copy_columns(s, dst, src, 0, -left, s->half);
    copy_columns(s, dst, src, shift, s->width - s->half + shift,
                 s->cols + (s->periodic ? s->right : 0));
}

/* Fills n slots of cut copies from the row table: cval, then the cut copy of
 * each row (a Dirichlet grid's ghost rows stay cval). */
static void cut_rows(const struct step *s, double *cuts, const double *const *table, int64_t n)
{
    const double cval = s->cval;
    double *start = cuts - s->left;
    for (int64_t i = 0; i < n * s->stride; i++)
        start[i] = cval;
    for (int64_t i = 0; i < n; i++)
        if (table[i] != s->outside)
            cut_copy(s, cuts + i * s->stride, table[i]);
}

/* The rows of nb consecutive slots of a plane from first, each summed over
 * its sources' cut copies at cuts into dst + j * stride, row j: the sums of
 * all nb rows in blocks of NACC vectors. */
static void cut_sums(const struct step *s, double *dst, const double *cuts, int64_t first,
                     int64_t nb)
{
    for (int64_t t = 0; t < s->ntaps; t++)
        s->term[t] = cuts + first * s->stride + s->tap_cut[t];
    const int64_t njobs = nb * (s->width / LANES);
    int64_t at[NACC];
    for (int64_t j0 = 0; j0 < njobs; j0 += NACC) {
        for (int k = 0; k < NACC; k++)
            at[k] = s->job[j0 + k < njobs ? j0 + k : njobs - 1];
        sum_block(dst, s->term, s->w, s->ntaps, at);
    }
}

/* The output row of slot at into dst[0, cols): the columns [lo, hi) from the
 * source rows the table holds, the rest from sums, the row's cut sums. */
static void step_row(const struct step *s, double *dst, const double *const *table,
                     int64_t at, const double *sums)
{
    if (s->hi > s->lo) {
        for (int64_t t = 0; t < s->ntaps; t++)
            s->term[t] = table[at + s->tap_slot[t]] + s->lo + s->off[3 * t + 2];
        weighted_sum(dst + s->lo, s->term, s->w, s->ntaps, s->hi - s->lo);
    }
    const double *tail = sums + s->width - s->cols;
    for (int64_t j = 0; j < s->lo; j++)
        dst[j] = sums[j];
    for (int64_t j = s->hi; j < s->cols; j++)
        dst[j] = tail[j];
}

int64_t repro_reference_step_scratch(int64_t planes, int64_t rows, int64_t cols,
                                     int32_t periodic, int64_t ntaps, const int64_t *off)
{
    if (planes <= 0 || rows <= 0 || cols <= 0)
        return 0;
    struct step s;
    step_geometry(&s, planes, rows, cols, periodic, 0.0, ntaps, off, NULL);
    return step_bytes(&s);
}

int repro_reference_step(const double *x, double *out, int64_t planes, int64_t rows,
                         int64_t cols, int32_t periodic, double cval, int64_t ntaps,
                         const int64_t *off, const double *w, void *scratch)
{
    if (planes <= 0 || rows <= 0 || cols <= 0)
        return 0;
    struct step s;
    step_geometry(&s, planes, rows, cols, periodic, cval, ntaps, off, w);
    /* The cut copies, then a plane's cut sums. */
    double *work;
    const double **table;
    step_carve(&s, scratch, &work, &table);
    const int64_t n = nslots(&s);
    double *cuts = work + s.left, *sums = cuts + n * s.stride;
    row_table(&s, table, x);
    cut_rows(&s, cuts, table, n);
    for (int64_t z = 0; z < planes; z++) {
        const int64_t first = slot(&s, z, 0);
        cut_sums(&s, sums, cuts, first, rows);
        for (int64_t y = 0; y < rows; y++)
            step_row(&s, out + (z * rows + y) * cols, table, first + y, sums + y * s.stride);
    }
    return 0;
}

/* State of one band call, shared by the helpers below.
 *
 * Frame k (k = 0..m) holds the points within thick_k = band + (m - k)*radius
 * of a face: frame 0 is the grid, frame m the band, written into the folded
 * output.  A point of frame k reads only points of frame k - 1, or cval past
 * the grid.
 *
 * A frame's x faces, the columns within thick_k of either end of every row,
 * are packed across rows: per end and column, a plane's strip of doubles
 * runs along y, so that a vector sums the points of LANES rows of one column
 * and keeps every lane.  Each end holds the columns a step of thickness
 * t1 = thick_1 reads, nw of them: the left end's [-left, t1 + right), the
 * right end's [cols - t1 - left, cols + right); a strip holds the rows with
 * gy ghost rows before and after them.  Ghost rows and columns past the
 * row's ends hold cval, and so does a plane of strips read past the grid's
 * first and last planes, so every tap of a strip point reads the cell at one
 * fixed shift from it in the strips of its plane.
 *
 * A frame's plane and row faces, the rows within thick_k of a face across
 * planes or rows, are also held as whole rows: their middle columns
 * [thick_k, cols - thick_k) are summed straight from the previous frame's
 * whole rows (the grid's rows for frame 1), which hold every row they read,
 * and their ends are unpacked from the strips.  Each plane keeps a table of
 * its whole rows, ghost rows reading a row of cval.
 *
 * The planes run as a wavefront: plane z of frame k once planes up to
 * z + gz of frame k - 1 are done, so each frame holds only the nring =
 * 2*gz + 1 planes in flight, in a ring, and frame m's rows go straight to
 * the output.  When the taps do not cross planes (gz = 0), only frames
 * k - 1 and k are in flight, and the frames take two rings in turn.  The
 * scratch is sized by the band of the planes in flight, not by the grid. */
struct band {
    int64_t planes, rows, cols, ndim;
    double cval;
    int64_t ntaps;
    const int64_t *off; /* per tap: (plane, row, column) offset */
    const double *w;
    int64_t m, radius, t1;
    int64_t left, right, gz, gy; /* the taps' reach */
    int64_t nw;                  /* strip columns per end */
    int64_t rs;                  /* doubles per strip: rows + 2*gy */
    int64_t ss;                  /* doubles of a plane's strips: 2*nw*rs */
    int64_t origin;              /* the cell of row 0 of column 0 of the left end */
    int64_t nring;               /* planes of a frame in flight */
    int64_t nframe;              /* frames in flight */
    int64_t nwhole;              /* frames with whole rows in flight */
    int64_t wr;                  /* whole rows a plane holds at most */
    /* in the caller's scratch */
    double *strips;          /* by ring slot, then a plane of cval (gz > 0) */
    double *whole;           /* whole rows of frames 1..m-1 by ring slot */
    double *cvalrow;         /* read by the taps of a whole row past the grid */
    const double **table;    /* by ring slot, then cval rows: the row of y + gy */
    int64_t *shift;          /* per tap: dx*rs + dy, its cell in its plane's strips */
    const double **term;     /* the rows of one weighted sum */
    const double **tstrip;   /* per tap: the strips of its source plane */
    const double *const **ttab; /* per tap: its source plane's row table, at dy + gy */
};

/* Whether row (z, y) lies within thick of a face across planes or rows. */
static int whole_row(const struct band *b, int64_t z, int64_t y, int64_t thick)
{
    return (b->ndim == 3 && (z < thick || z >= b->planes - thick)) ||
           (b->ndim >= 2 && (y < thick || y >= b->rows - thick));
}

/* The cell of row 0 in the strip of column j (0 <= j < nw) of end e. */
static int64_t strip_cell(const struct band *b, int64_t e, int64_t j)
{
    return (e * b->nw + j) * b->rs + b->gy;
}

/* The ring slot of plane z of frame k, of nframe * nring slots; past the
 * grid's faces, the slot after them, which holds cval. */
static int64_t ring_slot(const struct band *b, int64_t k, int64_t z)
{
    if (z < 0 || z >= b->planes)
        return b->nframe * b->nring;
    return (k % b->nframe) * b->nring + z % b->nring;
}

static double *strips_of(const struct band *b, int64_t k, int64_t z)
{
    return b->strips + ring_slot(b, k, z) * b->ss;
}

/* The row table of plane z of frame k < m. */
static const double **table_of(const struct band *b, int64_t k, int64_t z)
{
    return b->table + ring_slot(b, k, z) * (b->rows + 2 * b->gy);
}

/* The whole rows of plane z of frame 0 < k < m. */
static double *whole_of(const struct band *b, int64_t k, int64_t z)
{
    const int64_t slot = ((k - 1) % b->nwhole) * b->nring + z % b->nring;
    return b->whole + slot * b->wr * b->cols;
}

static void band_geometry(struct band *b, int64_t planes, int64_t rows, int64_t cols,
                          int64_t ndim, int64_t ntaps, const int64_t *off, int64_t m,
                          int64_t radius)
{
    *b = (struct band){
        .planes = planes, .rows = rows, .cols = cols, .ndim = ndim, .ntaps = ntaps, .off = off,
        .m = m, .radius = radius, .t1 = 2 * (m - 1) * radius,
    };
    tap_reach(ntaps, off, &b->left, &b->right, &b->gz, &b->gy);
    b->nw = b->left + b->t1 + b->right;
    b->rs = rows + 2 * b->gy;
    b->ss = 2 * b->nw * b->rs;
    b->origin = strip_cell(b, 0, b->left);
    b->nring = 2 * b->gz + 1;
    b->nframe = b->gz > 0 ? m + 1 : 2;
    b->nwhole = b->gz > 0 ? m - 1 : m > 2 ? 2 : 1;
    b->wr = ndim == 3 ? rows : ndim == 2 ? (2 * b->t1 < rows ? 2 * b->t1 : rows) : 0;
}

/* Doubles of the strips (and a plane of cval when taps cross planes), of
 * the whole rows, then of the cval row (only whole rows read it). */
static int64_t band_strips(const struct band *b)
{
    return (b->nframe * b->nring + (b->gz > 0)) * b->ss;
}

static int64_t band_whole(const struct band *b)
{
    return b->nwhole * b->nring * b->wr * b->cols;
}

static int64_t band_cvalrow(const struct band *b)
{
    return b->wr > 0 ? b->cols : 0;
}

/* Bytes of a call's scratch: the doubles, the row tables and tap
 * pointers, then the taps' shifts. */
static int64_t band_bytes(const struct band *b)
{
    const int64_t doubles = band_strips(b) + band_whole(b) + band_cvalrow(b);
    const int64_t tables = (b->nframe * b->nring + 1) * (b->rows + 2 * b->gy);
    const int64_t pointers = tables + 3 * (b->ntaps + 1);
    return doubles * (int64_t)sizeof(double) + pointers * (int64_t)sizeof(double *) +
           (b->ntaps + 1) * (int64_t)sizeof(int64_t);
}

static void band_carve(struct band *b, void *scratch)
{
    double *d = scratch;
    b->strips = d;
    b->whole = d + band_strips(b);
    b->cvalrow = b->whole + band_whole(b);
    const double **p = (const double **)(b->cvalrow + band_cvalrow(b));
    b->table = p;
    p += (b->nframe * b->nring + 1) * (b->rows + 2 * b->gy);
    b->term = p;
    b->tstrip = p + b->ntaps + 1;
    b->ttab = (const double *const **)(p + 2 * (b->ntaps + 1));
    b->shift = (int64_t *)(p + 3 * (b->ntaps + 1));
}

/* Sets to cval the cells of a plane of strips s that hold no grid column:
 * the columns past the row's ends, and the ghost rows.  No step writes
 * them. */
static void strip_pad(const struct band *b, double *s)
{
    const int64_t cbase[2] = {-b->left, b->cols - b->t1 - b->left};
    for (int64_t e = 0; e < 2; e++) {
        for (int64_t j = 0; j < b->nw; j++) {
            double *strip = s + strip_cell(b, e, j) - b->gy;
            const int64_t c = cbase[e] + j;
            if (c < 0 || c >= b->cols) {
                for (int64_t i = 0; i < b->rs; i++)
                    strip[i] = b->cval;
                continue;
            }
            for (int64_t i = 0; i < b->gy; i++)
                strip[i] = strip[b->gy + b->rows + i] = b->cval;
        }
    }
}

/* Plane z of frame 0: the grid's rows in its table, their end columns
 * packed into its strips. */
static void band_pack(const struct band *b, const double *x, int64_t z)
{
    double *s = strips_of(b, 0, z);
    const double **table = table_of(b, 0, z);
    const int64_t nl = b->t1 + b->right < b->cols ? b->t1 + b->right : b->cols;
    const int64_t cbase = b->cols - b->t1 - b->left, c1 = cbase > 0 ? cbase : 0;
    for (int64_t y = 0; y < b->rows; y++) {
        const double *row = x + (z * b->rows + y) * b->cols;
        const int64_t l = strip_cell(b, 0, b->left) + y, r = strip_cell(b, 1, 0) + y;
        table[b->gy + y] = row;
        for (int64_t c = 0; c < nl; c++)
            s[l + c * b->rs] = row[c];
        for (int64_t c = c1; c < b->cols; c++)
            s[r + (c - cbase) * b->rs] = row[c];
    }
}

/* Columns [0, n) and [cols - n, cols) of row y from a plane's strips s into
 * dst, n <= cols. */
static void strip_unpack(const struct band *b, double *dst, const double *s, int64_t y, int64_t n)
{
    const int64_t cbase = b->cols - b->t1 - b->left;
    const int64_t l = strip_cell(b, 0, b->left) + y, r = strip_cell(b, 1, 0) + y;
    for (int64_t c = 0; c < n; c++)
        dst[c] = s[l + c * b->rs];
    for (int64_t c = b->cols - n; c < b->cols; c++)
        dst[c] = s[r + (c - cbase) * b->rs];
}

/* A plane's strips of a frame, the n columns at each end of every row, into
 * dst from the strips b->tstrip of the previous frame's planes: strips of
 * at least a vector in blocks of NACC vectors, each the points of LANES
 * consecutive rows (the last vector of a strip ends at its last row),
 * shorter strips one point at a time. */
static void strip_sums(const struct band *b, double *dst, int64_t n)
{
    const int64_t first[2] = {b->left, b->t1 + b->left - n};
    if (b->rows < LANES) {
        for (int64_t e = 0; e < 2; e++)
            for (int64_t j = first[e]; j < first[e] + n; j++) {
                const int64_t at = strip_cell(b, e, j);
                for (int64_t t = 0; t < b->ntaps; t++)
                    b->term[t] = b->tstrip[t] + (at + b->shift[t]);
                weighted_sum(dst + at, b->term, b->w, b->ntaps, b->rows);
            }
        return;
    }
    /* Offsets from the origin, so that no pointer precedes the strips. */
    for (int64_t t = 0; t < b->ntaps; t++)
        b->term[t] = b->tstrip[t] + (b->origin + b->shift[t]);
    double *base = dst + b->origin;
    int64_t at[NACC];
    int k = 0;
    for (int64_t e = 0; e < 2; e++)
        for (int64_t j = first[e]; j < first[e] + n; j++) {
            const int64_t strip = strip_cell(b, e, j) - b->origin;
            for (int64_t y = 0; y < b->rows; y += LANES) {
                at[k++] = strip + (y < b->rows - LANES ? y : b->rows - LANES);
                if (k == NACC) {
                    sum_block(base, b->term, b->w, b->ntaps, at);
                    k = 0;
                }
            }
        }
    if (k > 0) {
        for (int i = k; i < NACC; i++)
            at[i] = at[k - 1];
        sum_block(base, b->term, b->w, b->ntaps, at);
    }
}

/* Plane z of frame k >= 1 from the planes of frame k - 1: its strips, then
 * its whole rows (into out for frame m, which also gets the ends of every
 * other row). */
static void band_plane(const struct band *b, double *out, int64_t k, int64_t z)
{
    const int64_t thick = (b->m - 1) * b->radius + (b->m - k) * b->radius;
    const int64_t n = thick < b->cols ? thick : b->cols, cols = b->cols;
    const int last = k == b->m;
    /* Each tap's source plane z + dz of frame k - 1, found from z's ring
     * slot without a division per tap (|dz| <= gz < nring): the divisions
     * cost 3d27p's band on 32^3 a sixth of its time. */
    const int64_t first = ((k - 1) % b->nframe) * b->nring, zs = z % b->nring;
    for (int64_t t = 0; t < b->ntaps; t++) {
        const int64_t dz = b->off[3 * t], dy = b->off[3 * t + 1];
        int64_t slot = b->nframe * b->nring; /* past the grid's faces: cval */
        if (z + dz >= 0 && z + dz < b->planes) {
            const int64_t r = zs + dz;
            slot = first + (r < 0 ? r + b->nring : r >= b->nring ? r - b->nring : r);
        }
        b->tstrip[t] = b->strips + slot * b->ss;
        b->ttab[t] = b->table + slot * (b->rows + 2 * b->gy) + b->gy + dy;
    }
    double *s = strips_of(b, k, z);
    strip_sums(b, s, n);

    const double **table = last ? NULL : table_of(b, k, z);
    double *whole = last ? NULL : whole_of(b, k, z);
    for (int64_t y = 0, i = 0; y < b->rows; y++) {
        const int inside = whole_row(b, z, y, thick);
        double *row = last ? out + (z * b->rows + y) * cols : inside ? whole + (i++) * cols : NULL;
        if (!last)
            table[b->gy + y] = row;
        if (row == NULL)
            continue;
        if (inside && cols > 2 * thick) {
            for (int64_t t = 0; t < b->ntaps; t++)
                b->term[t] = b->ttab[t][y] + thick + b->off[3 * t + 2];
            weighted_sum(row + thick, b->term, b->w, b->ntaps, cols - 2 * thick);
        }
        strip_unpack(b, row, s, y, n);
    }
}

int64_t repro_dirichlet_band_scratch(int64_t planes, int64_t rows, int64_t cols, int64_t ndim,
                                     int64_t ntaps, const int64_t *off, int64_t m, int64_t radius)
{
    if (planes <= 0 || rows <= 0 || cols <= 0 || (m - 1) * radius <= 0)
        return 0;
    struct band b;
    band_geometry(&b, planes, rows, cols, ndim, ntaps, off, m, radius);
    return band_bytes(&b);
}

int repro_dirichlet_band(const double *x, double *out, int64_t planes, int64_t rows,
                         int64_t cols, int64_t ndim, double cval, int64_t ntaps,
                         const int64_t *off, const double *w, int64_t m, int64_t radius,
                         void *scratch)
{
    if (planes <= 0 || rows <= 0 || cols <= 0 || (m - 1) * radius <= 0)
        return 0;
    struct band b;
    band_geometry(&b, planes, rows, cols, ndim, ntaps, off, m, radius);
    b.cval = cval;
    b.w = w;
    band_carve(&b, scratch);
    for (int64_t i = 0; i < band_cvalrow(&b); i++)
        b.cvalrow[i] = cval;
    for (int64_t t = 0; t < ntaps; t++)
        b.shift[t] = off[3 * t + 2] * b.rs + off[3 * t + 1];
    /* Every plane of strips gets its padding; the plane past the faces and
     * every table's ghost rows read cval. */
    const int64_t nslot = b.nframe * b.nring, ts = rows + 2 * b.gy;
    for (int64_t p = 0; p < nslot; p++)
        strip_pad(&b, b.strips + p * b.ss);
    if (b.gz > 0)
        for (int64_t i = 0; i < b.ss; i++)
            b.strips[nslot * b.ss + i] = cval;
    for (int64_t p = 0; p <= nslot; p++)
        for (int64_t y = 0; y < ts; y++)
            if (p == nslot || y < b.gy || y >= b.gy + rows)
                b.table[p * ts + y] = b.cvalrow;

    for (int64_t z = 0; z < b.gz && z < planes; z++)
        band_pack(&b, x, z);
    for (int64_t step = 0; step < planes + (m - 1) * b.gz; step++) {
        if (step + b.gz < planes)
            band_pack(&b, x, step + b.gz);
        for (int64_t k = 1; k <= m; k++) {
            const int64_t z = step - (k - 1) * b.gz;
            if (z >= 0 && z < planes)
                band_plane(&b, out, k, z);
        }
    }
    return 0;
}
