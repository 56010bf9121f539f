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
 * which carry the values past the row's ends (struct step).
 *
 * repro_dirichlet_band recomputes the band a folded update of a Dirichlet
 * grid gets wrong: the points closer than (m-1)*r to a face, r the stencil's
 * largest radius.  It runs the m reference steps of the band in one call,
 * on a frame that shrinks by r per step (thickness (m-1)*r + (m-k)*r after
 * step k), every face in one pass over the rows, and writes the last step
 * straight into the folded output.  A frame row inside the thickness of a
 * plane or row face is kept whole; any other keeps only its two ends, in
 * the padded scratch copy a whole row's ends also get.  The points a step
 * computes only read points the previous frame holds, so each band point
 * gets the bits of m full-grid reference steps.
 *
 * Every sum runs in whole vectors of as many lanes as the build's ISA flags
 * allow (weighted_sum): per element the loops keep the order above, so
 * vectorising across elements changes no result, whatever the width; build
 * with -ffp-contract=off so that no multiply-add is fused into one rounding.
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

/* State of one reference-step or band call, shared by the helpers below.
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

static void step_free(struct step *s)
{
    free(s->tap_slot);
    free(s->term);
    free(s->job);
    free(s->outside);
}

/* s for a call on a planes x rows x cols grid whose cut copies hold at
 * least half columns at each end.  Returns 1 when out of memory. */
static int step_setup(struct step *s, int64_t planes, int64_t rows, int64_t cols,
                      int32_t periodic, double cval, int64_t ntaps, const int64_t *off,
                      const double *w, int64_t half)
{
    *s = (struct step){
        .planes = planes, .rows = rows, .cols = cols, .periodic = periodic, .cval = cval,
        .ntaps = ntaps, .off = off, .w = w,
    };
    s->tap_slot = malloc((size_t)(2 * ntaps + 1) * sizeof(int64_t));
    s->term = malloc((size_t)(ntaps + 1) * sizeof(double *));
    if (s->tap_slot == NULL || s->term == NULL) {
        step_free(s);
        return 1;
    }
    s->tap_cut = s->tap_slot + ntaps;
    for (int64_t t = 0; t < ntaps; t++) {
        const int64_t dz = off[3 * t], dy = off[3 * t + 1], dx = off[3 * t + 2];
        s->left = -dx > s->left ? -dx : s->left;
        s->right = dx > s->right ? dx : s->right;
        s->gz = (dz < 0 ? -dz : dz) > s->gz ? (dz < 0 ? -dz : dz) : s->gz;
        s->gy = (dy < 0 ? -dy : dy) > s->gy ? (dy < 0 ? -dy : dy) : s->gy;
    }
    const int64_t reach = s->left + s->right;
    half = half > reach ? half : reach;
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
    for (int64_t t = 0; t < ntaps; t++) {
        s->tap_slot[t] = off[3 * t] * (rows + 2 * s->gy) + off[3 * t + 1];
        s->tap_cut[t] = s->tap_slot[t] * s->stride + off[3 * t + 2];
    }
    /* Only a Dirichlet grid's ghost rows read the row of cval. */
    const int64_t nout = !periodic && (s->gz > 0 || s->gy > 0) ? cols : 0;
    const int64_t nvec = s->width / LANES;
    s->job = malloc((size_t)(rows * nvec) * sizeof(int64_t));
    s->outside = malloc((size_t)(nout + 1) * sizeof(double));
    if (s->job == NULL || s->outside == NULL) {
        step_free(s);
        return 1;
    }
    for (int64_t y = 0, j = 0; y < rows; y++)
        for (int64_t v = 0; v < nvec; v++)
            s->job[j++] = y * s->stride + v * LANES;
    for (int64_t i = 0; i < nout; i++)
        s->outside[i] = cval;
    return 0;
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

/* Fills table with the row each slot holds: row r of a frame at
 * frame + loff[r] (the grid layout when loff is NULL), the wrapped row of a
 * periodic grid, or s->outside past a Dirichlet grid's faces. */
static void row_table(const struct step *s, const double **table, const double *frame,
                      const int64_t *loff)
{
    for (int64_t z = -s->gz; z < s->planes + s->gz; z++) {
        for (int64_t y = -s->gy; y < s->rows + s->gy; y++) {
            const double *row = s->outside;
            if (s->periodic || (z >= 0 && z < s->planes && y >= 0 && y < s->rows)) {
                const int64_t r = wrap(z, s->planes) * s->rows + wrap(y, s->rows);
                row = frame + (loff != NULL ? loff[r] : r * s->cols);
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

int repro_reference_step(const double *x, double *out, int64_t planes, int64_t rows,
                         int64_t cols, int32_t periodic, double cval, int64_t ntaps,
                         const int64_t *off, const double *w)
{
    if (planes <= 0 || rows <= 0 || cols <= 0)
        return 0;
    struct step s;
    if (step_setup(&s, planes, rows, cols, periodic, cval, ntaps, off, w, 0) != 0)
        return 1;
    /* The cut copies, then a plane's cut sums. */
    const int64_t n = nslots(&s);
    double *work = malloc((size_t)((n + rows) * s.stride) * sizeof(double));
    const double **table = malloc((size_t)n * sizeof(double *));
    if (work == NULL || table == NULL) {
        free(work);
        free(table);
        step_free(&s);
        return 1;
    }
    double *cuts = work + s.left, *sums = cuts + n * s.stride;
    row_table(&s, table, x, NULL);
    cut_rows(&s, cuts, table, n);
    for (int64_t z = 0; z < planes; z++) {
        const int64_t first = slot(&s, z, 0);
        cut_sums(&s, sums, cuts, first, rows);
        for (int64_t y = 0; y < rows; y++)
            step_row(&s, out + (z * rows + y) * cols, table, first + y, sums + y * s.stride);
    }
    free(work);
    free(table);
    step_free(&s);
    return 0;
}

/* The rows [*a, *b) of plane z of a band frame of thickness thick keep only
 * their ends.  The others are kept whole: they lie within thick of a plane
 * or row face of the grid's ndim axes, or the ends at their two sides would
 * meet. */
static void end_rows(const struct step *s, int64_t ndim, int64_t z, int64_t thick, int64_t *a,
                     int64_t *b)
{
    *a = *b = 0;
    if (2 * thick >= s->cols || (ndim == 3 && (z < thick || z >= s->planes - thick)))
        return;
    *a = ndim >= 2 ? thick : 0;
    *b = ndim >= 2 ? s->rows - thick : s->rows;
    *b = *b > *a ? *b : *a;
}

/* Where each whole row of a frame of thickness thick stores column 0
 * (loff); the other rows live in their cut copies only.  Returns the size. */
static int64_t frame_layout(const struct step *s, int64_t ndim, int64_t thick, int64_t *loff)
{
    int64_t size = 0;
    for (int64_t z = 0; z < s->planes; z++) {
        int64_t a, b;
        end_rows(s, ndim, z, thick, &a, &b);
        for (int64_t y = 0; y < s->rows; y++) {
            loff[z * s->rows + y] = size;
            if (y < a || y >= b)
                size += s->cols;
        }
    }
    return size;
}

int repro_dirichlet_band(const double *x, double *out, int64_t planes, int64_t rows,
                         int64_t cols, int64_t ndim, double cval, int64_t ntaps,
                         const int64_t *off, const double *w, int64_t m, int64_t radius)
{
    const int64_t band = (m - 1) * radius;
    if (planes <= 0 || rows <= 0 || cols <= 0 || band <= 0)
        return 0;
    /* Step 1 computes band + (m-1)*radius columns at each end, and reads
     * radius more. */
    struct step s;
    if (step_setup(&s, planes, rows, cols, 0, cval, ntaps, off, w, band + m * radius) != 0)
        return 1;
    /* Frame k keeps its whole rows' offsets in loff slot k % 2 and, for
     * 0 < k < m, their values in data slot (k - 1) % 2; its cut copies are
     * in cut slot k % 2.  Frame 0 is x and frame m is out. */
    const int64_t nrows = planes * rows, n = nslots(&s), ncut = n * s.stride;
    int64_t *offs = malloc((size_t)(2 * nrows) * sizeof(int64_t));
    const double **table = malloc((size_t)n * sizeof(double *));
    const int64_t size = offs == NULL ? 0 : frame_layout(&s, ndim, band + (m - 1) * radius, offs);
    const int64_t nframes = m > 2 ? 2 : 1;
    double *frames = offs == NULL ? NULL
                                  : malloc((size_t)(nframes * size + 2 * ncut) * sizeof(double));
    if (frames == NULL || table == NULL) {
        free(frames);
        free(table);
        free(offs);
        step_free(&s);
        return 1;
    }
    double *cuts = frames + nframes * size + s.left;
    row_table(&s, table, x, NULL);
    cut_rows(&s, cuts, table, n);
    for (int64_t i = 0; i < ncut; i++)
        cuts[ncut - s.left + i] = cval;

    for (int64_t k = 1; k <= m; k++) {
        const int64_t thick = band + (m - k) * radius;
        int64_t *loff = offs + (k % 2) * nrows;
        double *dst = k == m ? out : frames + ((k - 1) % 2) * size;
        const double *pcuts = cuts + ((k - 1) % 2) * ncut;
        double *ccuts = cuts + (k % 2) * ncut;
        if (k > 1)
            row_table(&s, table, frames + (k % 2) * size, offs + ((k - 1) % 2) * nrows);
        if (k < m)
            frame_layout(&s, ndim, thick, loff);

        for (int64_t z = 0; z < planes; z++) {
            const int64_t first = slot(&s, z, 0);
            /* Before the last step the cut sums are the frame's cut copies
             * (a whole row's are then made from its columns); the last
             * step only reads them. */
            double *sums = ccuts + first * s.stride;
            cut_sums(&s, sums, pcuts, first, rows);
            int64_t a, b;
            end_rows(&s, ndim, z, thick, &a, &b);
            for (int64_t y = 0; y < rows; y++) {
                const int64_t r = z * rows + y;
                const double *e = sums + y * s.stride;
                if (y < a || y >= b) {
                    double *row = dst + (k == m ? r * cols : loff[r]);
                    step_row(&s, row, table, first + y, e);
                    if (k < m)
                        cut_copy(&s, ccuts + (first + y) * s.stride, row);
                } else if (k == m) {
                    double *row = out + r * cols;
                    const double *tail = e + s.width - cols;
                    for (int64_t c = 0; c < thick; c++) {
                        row[c] = e[c];
                        row[cols - thick + c] = tail[cols - thick + c];
                    }
                }
            }
        }
    }
    free(frames);
    free(table);
    free(offs);
    step_free(&s);
    return 0;
}
