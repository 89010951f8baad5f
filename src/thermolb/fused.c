/* Fused pull-gather, wall rewrite and BGK collision over a list of regions,
   plus the equilibrium and the moments of whole arrays on their own, and the
   rows of the snapshot CSV (tlb_csv_rows, at the end of the file).

   tlb_fused is the compiled form of thermolb.kernels.propagate_collide_fused;
   tlb_equilibrium and tlb_moments are those of kernels.equilibrium and
   kernels.moments.  Every expression mirrors its numpy counterpart in
   kernels.py (propagate, _rewrite_walls, moments, apply_shift, equilibrium,
   collide) term for term, with the same association, and sums over the
   populations in the same order.  One accumulator, moment_sums, gives the
   density of the wall rows and the collision moments in tlb_fused and the
   moments in tlb_moments.
   Compiled without fast-math and with -ffp-contract=off (no fused
   multiply-add), each value is rounded exactly as numpy rounds it, so both
   paths give the same bits.

   The equilibrium is the Hermite form of kernels.equilibrium: with
   p = e.v, f^eq = w rho (E + p (a1 + p^2 / 6)), E = a0 + p^2 (a2 + p^2 / 24),
   where a0, a1 and a2 depend on the site and the shell q = |e|^2 alone.
   pair_loop takes the shells (tlb_model's table) outside, their lead
   populations l <= opp[l] next and the sites inside: a shell's coefficients
   are computed once per site (shell_coeffs), and one call of feq_pair gives
   a lead and its opposite.  Negating the hop negates p exactly, or leaves
   it +0, and a NaN keeps its bits through a product, so E and the odd
   part's bracket, even in p, are computed once per pair; p times the
   bracket and each population's sum are computed as numpy computes them.
   Against c2, c3 and c4 rebuilt per pair, this costs about 20% less per
   D2Q37 site (BENCH_shell_coeffs.json).  The same loop serves the wall
   rows, the collision and tlb_equilibrium: a flag picks writing the
   equilibria or relaxing f toward them.  The order, the flag and the
   inputs' stride are constants at every call, so each use compiles to its
   own loop; the wall rows read their zero velocity and Twall as one set
   for the whole segment (BENCH_pair_loop.json).

   Each region is split at the wall boundaries into segments, and the sites
   of a segment are taken in blocks of BLOCK: x-major, y-minor, or, in a
   segment lower than THIN_ROWS, row-major.  A block is cut into runs along
   one column or one row once, and every population is gathered and
   scattered run by run; a row run pulls from one row, so its wall clamp is
   one decision.  In a 3-row wall segment the column runs would be 3 sites
   long.  Measured on D2Q37 and D2Q9 segments 64 and 128 wide
   (BENCH_small_tile.json), row-major costs 15-54% less than x-major per
   site at 1 to 3 rows, ties with it at 4 to 7 (-14% to +8%), and costs
   0-10% more at 8 rows and 7-49% more from 10 up.  No site's arithmetic
   depends on where it sits in a block, so the order gives the same bits.
   Inside a block every loop runs over populations outside and sites inside,
   so the compiler can vectorize the site loop.  Populations are addressed
   through the element strides of their (Q, NX, NY) array, so any strided
   view of that shape serves.  tlb_fused owns the tile's
   boundaries: each pull is mapped per axis (pull_at).  An axis the rank
   shares only with itself wraps into the physical range, so the pull reads
   the site a copy of the tile's own faces would have put in the halo; Y at
   a wall clamps to the outermost physical row; else the pull reads the
   halo.  A run maps its fixed coordinate once and reads along the other in
   at most three contiguous pieces (pull_run): wrapping site by site raised
   tg9-snap's step_ms_p50 by 14% in a prototype (5 of 5 pairs), since every
   256-high D2Q9 column run crosses the Y wrap.  The functions hold no state
   and touch no Python object, so callers may run them concurrently without
   the interpreter lock.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 256
/* Segments lower than this many rows are taken row-major (see above). */
#define THIN_ROWS 8
/* The 1/6 and 1/24 of p^3 / 6 and p^4 / 24, as kernels.py writes them. */
#define INV6 (1.0 / 6.0)
#define INV24 (1.0 / 24.0)

/* Any nonzero status makes the caller rerun the regions on the numpy path,
   which raises the matching typed error. */
enum {
    TLB_OK = 0,
    TLB_BAD_DENSITY = 1,     /* rho <= 0 (or NaN) after the gather */
    TLB_BAD_TEMPERATURE = 2, /* shifted temperature <= 0 (or NaN) */
    TLB_BAD_WALL = 3,        /* wall rows with rho <= 0 or Twall <= 0 */
    TLB_NO_MEMORY = 4
};

typedef struct {
    int Q;
    int order;               /* Hermite truncation order: 2, 3 or 4 */
    const int64_t *c;        /* (Q, 2) lattice hops */
    const double *w;         /* (Q,) quadrature weights */
    const int *opp;          /* (Q,) index of the negated hop */
    int nshell;              /* shells of equal |c|^2, in increasing order */
    const int *lead;         /* lead populations l <= opp[l], shell by shell */
    const int *shell_end;    /* (nshell,) end of each shell's leads in lead */
    double cs2;
    double shift_u;          /* tau gx */
    double shift_v;          /* tau gy */
    double shift_T;          /* tau^2 |g|^2 / 2 */
    double omega;            /* 1 / tau */
} tlb_model;

typedef struct {
    double *f;               /* Q x BLOCK gathered populations */
    double *rho, *mx, *my, *e2, *vx, *vy, *theta, *s;
    double *hop;             /* unit_hops: c / cs and |c / cs|^2 */
    double *Tw;              /* temperatures of the walls covering a segment */
    double cs;
} tlb_work;

/* kernels.shell_coefficients of shell q at one site with inputs theta and
   s: a0, a1 from order 3 and a2 at order 4 (feq_pair writes the lower
   orders' a1 = 1 and a2 = 1/2 in). */
static inline __attribute__((always_inline)) void
shell_coeffs(const int order, double q, double theta, double s, double *a0,
             double *a1, double *a2)
{
    const double D = 2.0, tq = theta * q;
    *a0 = 1.0 + 0.5 * (tq - (s + D * theta));
    if (order >= 3)
        *a1 = 1.0 + 0.5 * (tq - (s + (D + 2.0) * theta));
    if (order >= 4) {
        const double th2 = theta * theta;
        const double K = 3.0 * (tq * tq)
                         - 6.0 * (tq * s + th2 * ((D + 2.0) * q))
                         + 3.0 * (s * s + (2.0 * D + 4.0) * theta * s
                                  + D * (D + 2.0) * th2);
        *a0 = *a0 + K * INV24;
        *a2 = 0.5 + 0.25 * (tq - (s + (D + 4.0) * theta));
    }
}

/* kernels.equilibrium at one site from its shell's coefficients, for the
   hop (ex, ey) / cs of weight wl into *eq and for its negation, of weight
   wb, into *eqb.  A population that is its own opposite ignores *eqb, which
   the compiler then drops. */
static inline __attribute__((always_inline)) void
feq_pair(const int order, double wl, double wb, double ex, double ey,
         double rho, double vx, double vy, double a0, double a1, double a2,
         double *eq, double *eqb)
{
    const double p = ex * vx + ey * vy, pb = -ex * vx + -ey * vy;
    const double p2 = p * p;
    const double E = a0 + p2 * (order >= 4 ? a2 + p2 * INV24 : 0.5);
    const double odd = order >= 3 ? a1 + p2 * INV6 : 1.0;
    *eq = wl * rho * (E + (order >= 3 ? p * odd : p));
    *eqb = wb * rho * (E + (order >= 3 ? pb * odd : pb));
}

/* Per population l: hop[3l], hop[3l+1] = c / cs and hop[3l+2] = |c / cs|^2. */
static void unit_hops(const tlb_model *m, double cs, double *hop)
{
    for (int l = 0; l < m->Q; l++) {
        const double ex = (double)m->c[2 * l] / cs;
        const double ey = (double)m->c[2 * l + 1] / cs;
        hop[3 * l] = ex;
        hop[3 * l + 1] = ey;
        hop[3 * l + 2] = ex * ex + ey * ey;
    }
}

/* The Hermite inputs of kernels.equilibrium at velocity (ux, uy) and
   temperature T: v = u / cs, theta = T / cs2 - 1 and s = |v|^2. */
static inline void hermite_inputs(double ux, double uy, double T, double cs,
                                  double cs2, double *vx, double *vy,
                                  double *theta, double *s)
{
    *vx = ux / cs;
    *vy = uy / cs;
    *theta = T / cs2 - 1.0;
    *s = *vx * *vx + *vy * *vy;
}

/* The one loop (see the top of the file) over n sites j: the equilibria at
   density rho[j] and Hermite inputs vx, vy, theta and s at j * vstride
   (vstride 0: one set for all sites, the wall rows), written to
   f[l * lstride + j] when relax is 0, or f relaxed toward them at rate
   m->omega (BGK) when it is 1. */
static inline __attribute__((always_inline)) void
pair_loop(const int order, const int relax, const int64_t vstride,
          const tlb_model *m, const double *hop, int64_t n,
          const double *restrict rho, const double *restrict vx,
          const double *restrict vy, const double *restrict theta,
          const double *restrict s, double *f, int64_t lstride)
{
    const double omega = relax ? m->omega : 0.0;
    double a0[BLOCK], a1[BLOCK], a2[BLOCK];
    for (int k = 0, i = 0; k < m->nshell; k++) {
        const double q = hop[3 * m->lead[i] + 2];
        for (int64_t j = 0; j < (vstride ? n : 1); j++)
            shell_coeffs(order, q, theta[j], s[j], a0 + j, a1 + j, a2 + j);
        for (; i < m->shell_end[k]; i++) {
            const int l = m->lead[i], b = m->opp[l];
            double *restrict fl = f + (int64_t)l * lstride;
            const double wl = m->w[l], ex = hop[3 * l], ey = hop[3 * l + 1];
            if (b == l) {
                for (int64_t j = 0; j < n; j++) {
                    const int64_t v = j * vstride;
                    double eq, unused;
                    feq_pair(order, wl, wl, ex, ey, rho[j], vx[v], vy[v],
                             a0[v], a1[v], a2[v], &eq, &unused);
                    fl[j] = relax ? fl[j] - omega * (fl[j] - eq) : eq;
                }
            } else {
                double *restrict fb = f + (int64_t)b * lstride;
                const double wb = m->w[b];
                for (int64_t j = 0; j < n; j++) {
                    const int64_t v = j * vstride;
                    double eq, eqb;
                    feq_pair(order, wl, wb, ex, ey, rho[j], vx[v], vy[v],
                             a0[v], a1[v], a2[v], &eq, &eqb);
                    fl[j] = relax ? fl[j] - omega * (fl[j] - eq) : eq;
                    fb[j] = relax ? fb[j] - omega * (fb[j] - eqb) : eqb;
                }
            }
        }
    }
}

/* pair_loop at m->order, which the caller guarantees is 2, 3 or 4. */
static inline __attribute__((always_inline)) void
equilibria(const int relax, const int64_t vstride, const tlb_model *m,
           const double *hop, int64_t n, const double *rho, const double *vx,
           const double *vy, const double *theta, const double *s, double *f,
           int64_t lstride)
{
    switch (m->order) {
    case 2:
        pair_loop(2, relax, vstride, m, hop, n, rho, vx, vy, theta, s, f,
                  lstride);
        break;
    case 3:
        pair_loop(3, relax, vstride, m, hop, n, rho, vx, vy, theta, s, f,
                  lstride);
        break;
    default:
        pair_loop(4, relax, vstride, m, hop, n, rho, vx, vy, theta, s, f,
                  lstride);
    }
}

/* rho = sum_l f_l, mx = sum_l cx_l f_l, my = sum_l cy_l f_l and
   e2 = sum_l |c_l|^2 f_l over n sites, with population l of site j at
   f[l * lstride + j * sstride]: accumulated in l order from zero, skipping
   zero hops, as kernels.moments does. */
static inline __attribute__((always_inline)) void
moment_sums(const tlb_model *m, const double *f, int64_t lstride,
            int64_t sstride, int64_t n, double *restrict rho,
            double *restrict mx, double *restrict my, double *restrict e2)
{
    for (int64_t j = 0; j < n; j++) {
        rho[j] = 0.0;
        mx[j] = 0.0;
        my[j] = 0.0;
        e2[j] = 0.0;
    }
    for (int l = 0; l < m->Q; l++) {
        const double *restrict fl = f + (int64_t)l * lstride;
        const double cx = (double)m->c[2 * l], cy = (double)m->c[2 * l + 1];
        const double c2 = cx * cx + cy * cy;
        for (int64_t j = 0; j < n; j++)
            rho[j] = rho[j] + fl[j * sstride];
        if (cx != 0.0)
            for (int64_t j = 0; j < n; j++)
                mx[j] = mx[j] + cx * fl[j * sstride];
        if (cy != 0.0)
            for (int64_t j = 0; j < n; j++)
                my[j] = my[j] + cy * fl[j * sstride];
        if (c2 != 0.0)
            for (int64_t j = 0; j < n; j++)
                e2[j] = e2[j] + c2 * fl[j * sstride];
    }
}

/* One block: wall rewrite (kernels._rewrite_walls, once per covering
   wall, in order), then moments, force shift, equilibrium and BGK. */
static int relax_block(const tlb_model *m, const tlb_work *W, int64_t n,
                       int nw)
{
    const double cs = W->cs, cs2 = m->cs2;
    double *restrict rho = W->rho, *restrict mx = W->mx, *restrict my = W->my;
    double *restrict e2 = W->e2, *restrict vx = W->vx, *restrict vy = W->vy;
    double *restrict theta = W->theta, *restrict s = W->s;

    for (int k = 0; k < nw; k++) {
        int bad = !(W->Tw[k] > 0.0);
        moment_sums(m, W->f, BLOCK, 1, n, rho, mx, my, e2);
        for (int64_t j = 0; j < n; j++)
            bad |= !(rho[j] > 0.0);
        if (bad)
            return TLB_BAD_WALL;
        double vx0, vy0, th0, s0;
        hermite_inputs(0.0, 0.0, W->Tw[k], cs, cs2, &vx0, &vy0, &th0, &s0);
        equilibria(0, 0, m, W->hop, n, rho, &vx0, &vy0, &th0, &s0, W->f,
                   BLOCK);
    }

    moment_sums(m, W->f, BLOCK, 1, n, rho, mx, my, e2);
    int bad = 0;
    for (int64_t j = 0; j < n; j++)
        bad |= !(rho[j] > 0.0);
    if (bad)
        return TLB_BAD_DENSITY;
    for (int64_t j = 0; j < n; j++) {
        const double ux = mx[j] / rho[j];
        const double uy = my[j] / rho[j];
        const double T = (e2[j] - rho[j] * (ux * ux + uy * uy)) / (2.0 * rho[j]);
        const double Tb = T - m->shift_T;
        bad |= !(Tb > 0.0);
        hermite_inputs(ux + m->shift_u, uy + m->shift_v, Tb, cs, cs2, vx + j,
                       vy + j, theta + j, s + j);
    }
    if (bad)
        return TLB_BAD_TEMPERATURE;
    equilibria(1, 1, m, W->hop, n, rho, vx, vy, theta, s, W->f, BLOCK);
    return TLB_OK;
}

/* The runs of sites first .. first+n of a segment nx wide and ny high at
   padded (x0, y0), in its site order: x-major along y, or, when rows is
   set, row-major along x.  runs[3r .. 3r+2] = (x, y, length) of run r;
   returns the number of runs, at most n. */
static int block_runs(int rows, int64_t x0, int64_t y0, int64_t nx,
                      int64_t ny, int64_t first, int64_t n, int64_t *runs)
{
    const int64_t width = rows ? nx : ny;
    int nrun = 0;
    for (int64_t j = 0; j < n; nrun++) {
        const int64_t line = (first + j) / width, at = (first + j) % width;
        const int64_t len = width - at < n - j ? width - at : n - j;
        runs[3 * nrun] = x0 + (rows ? at : line);
        runs[3 * nrun + 1] = y0 + (rows ? line : at);
        runs[3 * nrun + 2] = len;
        j += len;
    }
    return nrun;
}

/* An axis's pulled coordinate v mapped into its pull range a = (lo, hi,
   wrap) (LatticeGeometry.pull_ranges): shifted by the range's length on a
   wrapped axis, else clamped to the nearer end. */
static inline int64_t pull_at(const int64_t *a, int64_t v)
{
    const int64_t n = a[1] - a[0] + 1;
    return v < a[0] ? (a[2] ? v + n : a[0])
           : v > a[1] ? (a[2] ? v - n : a[1]) : v;
}

/* fl[k] = line[pull_at(a, v + k) * st] for k < len, in at most three
   contiguous pieces with computed bounds: the pulls below the range, inside
   it and above it.  Only the middle piece is long. */
static inline void pull_run(const double *line, int64_t st, const int64_t *a,
                            int64_t v, int64_t len, double *restrict fl)
{
    int64_t lo = a[0] - v, hi = a[1] + 1 - v;
    lo = lo < 0 ? 0 : lo > len ? len : lo;
    hi = hi < lo ? lo : hi > len ? len : hi;
    int64_t k = 0;
    for (; k < lo; k++)
        fl[k] = line[pull_at(a, v + k) * st];
    if (st == 1)
        for (; k < hi; k++)
            fl[k] = line[v + k];
    else
        for (; k < hi; k++)
            fl[k] = line[(v + k) * st];
    for (; k < len; k++)
        fl[k] = line[pull_at(a, v + k) * st];
}

/* Pull gather of a block's runs: f[l][j] = src[l, x - c_lx, y - c_ly] for
   the j-th site, with each pulled coordinate mapped into its axis's range
   (kernels.propagate).  A run maps the coordinate it does not run along
   once, and reads along the other in pieces (pull_run). */
static void gather(const double *src, const int64_t *st, const int64_t *c,
                   int Q, int rows, const int64_t *runs, int nrun,
                   const int64_t *pull, double *restrict f)
{
    for (int l = 0; l < Q; l++) {
        double *restrict fl = f + (int64_t)l * BLOCK;
        const double *sl = src + l * st[0];
        const int64_t cx = c[2 * l], cy = c[2 * l + 1];
        for (int r = 0; r < nrun; r++) {
            const int64_t *run = runs + 3 * r, len = run[2];
            const int64_t x = run[0] - cx, y = run[1] - cy;
            if (rows)
                pull_run(sl + pull_at(pull + 3, y) * st[2], st[1], pull, x,
                         len, fl);
            else
                pull_run(sl + pull_at(pull, x) * st[1], st[2], pull + 3, y,
                         len, fl);
            fl += len;
        }
    }
}

/* Write the relaxed block back along its runs, dst[l, x, y] = f[l][j], and
   return how many of the values written are negative. */
static int64_t scatter(double *dst, const int64_t *st, int Q, int rows,
                       const int64_t *runs, int nrun, const double *restrict f)
{
    const int64_t along = st[rows ? 1 : 2];
    int64_t negatives = 0;
    for (int l = 0; l < Q; l++) {
        const double *restrict fl = f + (int64_t)l * BLOCK;
        for (int r = 0; r < nrun; r++) {
            const int64_t *run = runs + 3 * r, len = run[2];
            double *p = dst + l * st[0] + run[0] * st[1] + run[1] * st[2];
            if (along == 1)
                for (int64_t k = 0; k < len; k++) {
                    p[k] = fl[k];
                    negatives += fl[k] < 0.0;
                }
            else
                for (int64_t k = 0; k < len; k++) {
                    p[k * along] = fl[k];
                    negatives += fl[k] < 0.0;
                }
            fl += len;
        }
    }
    return negatives;
}

/* Fused step over nbox region boxes, box k = boxes[4k .. 4k+3] =
   (x0, x1, y0, y1) in padded coordinates.

   strides: element strides of src's then dst's (Q, NX, NY) view.
   walls: nwall padded-y ranges [wrows[2k], wrows[2k+1]) with temperature
   wT[k]; rows of a box inside one are set to the wall equilibrium before
   the collision.  pull: the (lo, hi, wrap) of X, then of Y (pull_at).
   *negatives receives the number of negative values written to dst.  The
   caller guarantees that every mapped pull lies inside src, that a wrapped
   axis is at least as long as the longest hop along it, and that m->order
   is 2, 3 or 4.  Returns a TLB_* status; on a nonzero status dst may be
   partly written. */
int tlb_fused(const double *src, double *dst, const int64_t *strides,
              const int64_t *boxes, int nbox, int nwall, const int64_t *wrows,
              const double *wT, const int64_t *pull, const tlb_model *m,
              int64_t *negatives)
{
    const int Q = m->Q;
    double *mem = malloc(sizeof(double) * ((size_t)(Q + 8) * BLOCK + 3 * Q
                                           + nwall + 1));
    if (mem == NULL)
        return TLB_NO_MEMORY;
    tlb_work W;
    W.f = mem;
    W.rho = W.f + (size_t)Q * BLOCK;
    W.mx = W.rho + BLOCK;
    W.my = W.mx + BLOCK;
    W.e2 = W.my + BLOCK;
    W.vx = W.e2 + BLOCK;
    W.vy = W.vx + BLOCK;
    W.theta = W.vy + BLOCK;
    W.s = W.theta + BLOCK;
    W.hop = W.s + BLOCK;
    W.Tw = W.hop + 3 * Q;
    W.cs = sqrt(m->cs2);
    unit_hops(m, W.cs, W.hop);

    int64_t runs[3 * BLOCK];
    int status = TLB_OK;
    int64_t neg = 0;
    for (int b = 0; b < nbox && status == TLB_OK; b++) {
        const int64_t *box = boxes + 4 * b;
        const int64_t x0 = box[0], nx = box[1] - box[0];
        /* Split the y range at every wall boundary, so that each segment
           lies wholly inside or wholly outside each wall range. */
        for (int64_t ya = box[2], yb; ya < box[3] && status == TLB_OK;
             ya = yb) {
            yb = box[3];
            for (int k = 0; k < nwall; k++)
                for (int e = 0; e < 2; e++)
                    if (wrows[2 * k + e] > ya && wrows[2 * k + e] < yb)
                        yb = wrows[2 * k + e];
            int nw = 0;
            for (int k = 0; k < nwall; k++)
                if (wrows[2 * k] <= ya && ya < wrows[2 * k + 1])
                    W.Tw[nw++] = wT[k];
            const int64_t ny = yb - ya, total = nx * ny;
            const int rows = ny < THIN_ROWS;
            for (int64_t first = 0; first < total; first += BLOCK) {
                const int64_t n = total - first < BLOCK ? total - first : BLOCK;
                const int nrun = block_runs(rows, x0, ya, nx, ny, first, n,
                                            runs);
                gather(src, strides, m->c, Q, rows, runs, nrun, pull, W.f);
                status = relax_block(m, &W, n, nw);
                if (status != TLB_OK)
                    break;
                neg += scatter(dst, strides + 3, Q, rows, runs, nrun, W.f);
            }
        }
    }
    *negatives = neg;
    free(mem);
    return status;
}

/* kernels.equilibrium of n sites: out[l * n + j] = f^eq_l(rho[j], ux[j],
   uy[j], T[j]) at m->order, which the caller guarantees is 2, 3 or 4.  Only
   Q, order, c, w, opp, the shell table and cs2 of m are read. */
void tlb_equilibrium(const double *rho, const double *ux, const double *uy,
                     const double *T, int64_t n, const tlb_model *m,
                     double *out)
{
    double hop[3 * m->Q], vx[BLOCK], vy[BLOCK], theta[BLOCK], s[BLOCK];
    const double cs = sqrt(m->cs2);
    unit_hops(m, cs, hop);
    for (int64_t first = 0; first < n; first += BLOCK) {
        const int64_t nb = n - first < BLOCK ? n - first : BLOCK;
        for (int64_t j = 0; j < nb; j++)
            hermite_inputs(ux[first + j], uy[first + j], T[first + j], cs,
                           m->cs2, vx + j, vy + j, theta + j, s + j);
        equilibria(0, 1, m, hop, nb, rho + first, vx, vy, theta, s,
                   out + first, n);
    }
}

/* kernels.moments of an nx x ny block whose population l at site (x, y) is
   f[l * st[0] + x * st[1] + y * st[2]]: rho, u and T from the sums of
   moment_sums, as in relax_block, into C-contiguous (nx, ny) outputs.
   Only Q and c of m are read.  Returns TLB_BAD_DENSITY when some rho is
   not > 0; the outputs are then partly meaningless. */
int tlb_moments(const double *f, const int64_t *st, int64_t nx, int64_t ny,
                const tlb_model *m, double *rho, double *ux, double *uy,
                double *T)
{
    if (st[1] == ny * st[2]) {      /* the rows follow each other: one row */
        ny *= nx;
        nx = 1;
    }
    int bad = 0;
    for (int64_t x = 0; x < nx; x++)
        for (int64_t first = 0; first < ny; first += BLOCK) {
            const int64_t nb = ny - first < BLOCK ? ny - first : BLOCK;
            const double *fb = f + x * st[1] + first * st[2];
            const int64_t at = x * ny + first;
            double mx[BLOCK], my[BLOCK], e2[BLOCK];
            double *restrict r = rho + at;
            if (st[2] == 1)
                moment_sums(m, fb, st[0], 1, nb, r, mx, my, e2);
            else
                moment_sums(m, fb, st[0], st[2], nb, r, mx, my, e2);
            for (int64_t j = 0; j < nb; j++) {
                bad |= !(r[j] > 0.0);
                const double u = mx[j] / r[j], v = my[j] / r[j];
                ux[at + j] = u;
                uy[at + j] = v;
                T[at + j] = (e2[j] - r[j] * (u * u + v * v)) / (2.0 * r[j]);
            }
        }
    return bad ? TLB_BAD_DENSITY : TLB_OK;
}

/* ---- CSV rows: each float as the bytes of Python's repr ----

   The digits are the shortest that read back to the value and, of those,
   the closest to it, with the interval's bounds accepted when the mantissa
   is even: the digits of Gay's dtoa in mode 0, which repr uses.  They come
   from Ryu (Adams, PLDI 2018): the value's interval is scaled by a 128-bit
   power of 5 with fixed-width multiplies, then digits are dropped while the
   interval still holds a shorter number.

   pow5 holds the multipliers as (low, high) 64-bit words, computed exactly
   by the caller (native.py):
     pow5[2 i ..], i < POW5_INV_COUNT:  floor(2^(b(5^i) - 1 + 125) / 5^i) + 1
     pow5[2 (POW5_INV_COUNT + i) ..], i < POW5_COUNT:  5^i scaled to 125 bits
   with b(n) the bit length of n; 5^i with more than 125 bits is truncated. */

#define POW5_INV_COUNT 342
#define POW5_COUNT 326
#define POW5_BITS 125

typedef unsigned __int128 tlb_u128;

/* floor(log10(2^e)) for 0 <= e <= 1650, floor(log10(5^e)) for
   0 <= e <= 2620 and the bit length of 5^e for 0 <= e <= 3528. */
static inline uint32_t log10_pow2(int32_t e)
{
    return ((uint32_t)e * 78913) >> 18;
}

static inline uint32_t log10_pow5(int32_t e)
{
    return ((uint32_t)e * 732923) >> 20;
}

static inline int32_t pow5_bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359) >> 19) + 1;
}

static inline int multiple_of_pow5(uint64_t v, uint32_t p)
{
    uint32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

static inline int multiple_of_pow2(uint64_t v, uint32_t p)
{
    return (v & ((1ull << p) - 1)) == 0;
}

/* (m * mul) >> j for the 128-bit mul and 64 <= j. */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const tlb_u128 lo = (tlb_u128)m * mul[0];
    const tlb_u128 hi = (tlb_u128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* The shortest decimal digits of a finite nonzero double with these IEEE
   fields: the value is *digits * 10^(*exp10). */
static void shortest(uint64_t mantissa, uint32_t biased, const uint64_t *pow5,
                     uint64_t *digits, int32_t *exp10)
{
    int32_t e2;
    uint64_t m2;
    if (biased == 0) {
        e2 = 1 - 1023 - 52 - 2;
        m2 = mantissa;
    } else {
        e2 = (int32_t)biased - 1023 - 52 - 2;
        m2 = (1ull << 52) | mantissa;
    }
    /* Gay's mode 0 reads back a value on the interval's bound as this
       double when its mantissa is even (round half to even). */
    const int accept_bounds = (m2 & 1) == 0;
    /* The interval is [mv - 1 - mm_shift, mv + 2] / 4 * 2^e2: half an ulp
       each way, except below a power of two, where the next lower double is
       only half as far. */
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = mantissa != 0 || biased <= 1;

    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_zeros = 0, vr_zeros = 0;   /* all removed digits are zero */
    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + (int32_t)q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *mul = pow5 + 2 * q;
        e10 = (int32_t)q;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 21) {
            /* At most one of mv, mv + 2 and mv - 1 - mm_shift is a
               multiple of 5. */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - (int32_t)q;
        const int32_t j = (int32_t)q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * (POW5_INV_COUNT + i);
        e10 = (int32_t)q + e2;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv has two trailing zero bits, mv + 2 one, and
               mv - 1 - mm_shift one exactly when mm_shift is 1. */
            vr_zeros = 1;
            if (accept_bounds)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = multiple_of_pow2(mv, q);
        }
    }

    int32_t removed = 0;
    uint32_t last = 0;                /* the last digit removed from vr */
    if (vm_zeros || vr_zeros) {
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros) {
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        /* An exact tie, ...50...0, rounds to even. */
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;
        *digits = vr + ((vr == vm && (!accept_bounds || !vm_zeros))
                        || last >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {    /* most values drop two digits */
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        *digits = vr + (vr == vm || round_up);
    }
    *exp10 = e10 + removed;
}

/* The decimal digits of v, most significant first; returns their count. */
static int put_digits(char *p, uint64_t v)
{
    static const char pairs[] =
        "00010203040506070809101112131415161718192021222324252627282930313233"
        "34353637383940414243444546474849505152535455565758596061626364656667"
        "6869707172737475767778798081828384858687888990919293949596979899";
    int n = 1;
    for (uint64_t ten = 10; n < 20 && v >= ten; ten *= 10)
        n++;
    char *d = p + n;
    while (v >= 100) {
        const uint64_t rest = v / 100;
        const char *pair = pairs + 2 * (v - 100 * rest);
        d -= 2;
        d[0] = pair[0];
        d[1] = pair[1];
        v = rest;
    }
    if (v >= 10) {
        d[-2] = pairs[2 * v];
        d[-1] = pairs[2 * v + 1];
    } else {
        d[-1] = (char)('0' + v);
    }
    return n;
}

/* repr(v) at p, at most 24 bytes; returns the end.  Positional notation
   when the decimal exponent of the leading digit is in [-4, 16), with ".0"
   on integral values; otherwise d[.ddd]e+XX with at least two exponent
   digits.  Every NaN is "nan". */
static char *put_repr(char *p, double v, const uint64_t *pow5)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t mantissa = bits & ((1ull << 52) - 1);
    const uint32_t biased = (uint32_t)(bits >> 52) & 0x7ff;
    if (biased == 0x7ff && mantissa) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (biased == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (biased == 0 && mantissa == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    uint64_t digits;
    int32_t exp10;
    shortest(mantissa, biased, pow5, &digits, &exp10);
    /* The digits are written one byte to the right, then the leading ones
       are moved left to make room for the point. */
    const int n = put_digits(p + 1, digits);
    const int32_t point = n + exp10;  /* digits before the decimal point */
    if (point > -4 && point <= 16) {
        if (point <= 0) {
            const int32_t lead = 2 - point;       /* "0." and the zeros */
            for (int k = n; k >= 1; k--)
                p[k - 1 + lead] = p[k];
            p[0] = '0';
            p[1] = '.';
            for (int32_t k = 2; k < lead; k++)
                p[k] = '0';
            return p + lead + n;
        }
        if (point < n) {
            for (int32_t k = 0; k < point; k++)
                p[k] = p[k + 1];
            p[point] = '.';
            return p + n + 1;
        }
        for (int32_t k = 0; k < n; k++)
            p[k] = p[k + 1];
        p += n;
        for (int32_t k = n; k < point; k++)
            *p++ = '0';
        p[0] = '.';
        p[1] = '0';
        return p + 2;
    }
    p[0] = p[1];
    if (n > 1) {
        p[1] = '.';
        p += n + 1;
    } else {
        p += 1;
    }
    int32_t e = point - 1;
    *p++ = 'e';
    *p++ = e < 0 ? '-' : '+';
    if (e < 0)
        e = -e;
    if (e < 10)
        *p++ = '0';
    return p + put_digits(p, (uint64_t)e);
}

/* The rows "x,y,rho,ux,uy,T\r\n" of the sites x0 <= x < x1, 0 <= y < Ly of
   (Lx, Ly) C-contiguous fields, x-major, written as csv.writer writes them
   with each value as its repr.  out must hold (x1 - x0) * Ly * 143 bytes:
   two integers of at most 20 bytes, four floats of at most 24, five commas
   and "\r\n" per row.  Returns the number of bytes written. */
int64_t tlb_csv_rows(const double *rho, const double *ux, const double *uy,
                     const double *T, int64_t Ly, int64_t x0, int64_t x1,
                     const uint64_t *pow5, char *out)
{
    char *p = out;
    for (int64_t x = x0; x < x1; x++) {
        for (int64_t y = 0; y < Ly; y++) {
            const int64_t j = x * Ly + y;
            p += put_digits(p, (uint64_t)x);
            *p++ = ',';
            p += put_digits(p, (uint64_t)y);
            *p++ = ',';
            p = put_repr(p, rho[j], pow5);
            *p++ = ',';
            p = put_repr(p, ux[j], pow5);
            *p++ = ',';
            p = put_repr(p, uy[j], pow5);
            *p++ = ',';
            p = put_repr(p, T[j], pow5);
            *p++ = '\r';
            *p++ = '\n';
        }
    }
    return p - out;
}
