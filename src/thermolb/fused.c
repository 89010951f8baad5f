/* Fused pull-gather, wall rewrite and BGK collision over a list of regions,
   plus the equilibrium and the moments of whole arrays on their own.

   tlb_fused is the compiled form of thermolb.kernels.propagate_collide_fused;
   tlb_equilibrium and tlb_moments are those of kernels.equilibrium and
   kernels.moments.  Every expression mirrors its numpy counterpart in
   kernels.py (_gather, _wall_equilibrium, moments, apply_shift, equilibrium,
   collide) term for term, with the same association and in the same
   population order.
   Compiled without fast-math and with -ffp-contract=off (no fused
   multiply-add), each value is rounded exactly as numpy rounds it, so both
   paths give the same bits.

   The sites of each region are taken x-major, y-minor, in blocks of BLOCK.
   Inside a block every loop runs over populations outside and sites inside,
   so the compiler can vectorize the site loop.  Populations are addressed
   through the element strides of the canonical (Q, NX, NY) view, which
   covers both the SoA and the AoS layout.  The functions hold no state and
   touch no Python object, so callers may run them concurrently without the
   interpreter lock.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define BLOCK 256

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
    double cs2;
    double shift_u;          /* tau gx */
    double shift_v;          /* tau gy */
    double shift_T;          /* tau^2 |g|^2 / D */
    double omega;            /* dt / tau */
} tlb_model;

typedef struct {
    double *f;               /* Q x BLOCK gathered populations */
    double *rho, *mx, *my, *e2, *vx, *vy, *theta, *s;
    double *ex, *ey, *q;     /* per population: c / cs and |c / cs|^2 */
    double *Tw;              /* temperatures of the walls covering a segment */
    double cs;
} tlb_work;

/* kernels.equilibrium for one population at one site. */
static inline __attribute__((always_inline)) double
feq(const int order, double wl, double ex, double ey, double q,
    double rho, double vx, double vy, double theta, double s)
{
    const double D = 2.0;
    double p = ex * vx + ey * vy;
    double poly = 1.0 + p;
    double c2 = p * p + theta * q - (s + D * theta);
    poly = poly + 0.5 * c2;
    if (order >= 3) {
        double c3 = p * p * p + 3.0 * theta * q * p
                    - 3.0 * p * (s + (D + 2.0) * theta);
        poly = poly + c3 / 6.0;
    }
    if (order >= 4) {
        double c4 = p * p * p * p
                    + 6.0 * theta * q * p * p
                    + 3.0 * theta * theta * q * q
                    - 6.0 * (s * p * p
                             + theta * ((D + 4.0) * p * p + q * s)
                             + theta * theta * (D + 2.0) * q)
                    + 3.0 * (s * s
                             + (2.0 * D + 4.0) * theta * s
                             + D * (D + 2.0) * theta * theta);
        poly = poly + c4 / 24.0;
    }
    return wl * rho * poly;
}

/* Per population: ex = cx / cs, ey = cy / cs and q = ex^2 + ey^2. */
static void unit_hops(const tlb_model *m, double cs, double *ex, double *ey,
                      double *q)
{
    for (int l = 0; l < m->Q; l++) {
        ex[l] = (double)m->c[2 * l] / cs;
        ey[l] = (double)m->c[2 * l + 1] / cs;
        q[l] = ex[l] * ex[l] + ey[l] * ey[l];
    }
}

/* rho = sum_l f_l, accumulated in l order from zero. */
static void density(int Q, const double *restrict f, double *restrict rho,
                    int64_t n)
{
    for (int64_t j = 0; j < n; j++)
        rho[j] = 0.0;
    for (int l = 0; l < Q; l++) {
        const double *restrict fl = f + (int64_t)l * BLOCK;
        for (int64_t j = 0; j < n; j++)
            rho[j] = rho[j] + fl[j];
    }
}

/* One block: wall rewrite (kernels._wall_equilibrium, once per covering
   wall, in order), then moments, force shift, equilibrium and BGK. */
static inline __attribute__((always_inline)) int
relax_block(const int order, const tlb_model *m, const tlb_work *W,
            int64_t n, int nw)
{
    const int Q = m->Q;
    const double cs = W->cs, cs2 = m->cs2;
    double *restrict f = W->f;
    double *restrict rho = W->rho, *restrict mx = W->mx, *restrict my = W->my;
    double *restrict e2 = W->e2, *restrict vx = W->vx, *restrict vy = W->vy;
    double *restrict theta = W->theta, *restrict s = W->s;

    for (int k = 0; k < nw; k++) {
        const double Tw = W->Tw[k];
        int bad = !(Tw > 0.0);
        density(Q, f, rho, n);
        for (int64_t j = 0; j < n; j++)
            bad |= !(rho[j] > 0.0);
        if (bad)
            return TLB_BAD_WALL;
        const double vx0 = 0.0 / cs, vy0 = 0.0 / cs;
        const double th0 = Tw / cs2 - 1.0;
        const double s0 = vx0 * vx0 + vy0 * vy0;
        for (int l = 0; l < Q; l++) {
            double *restrict fl = f + (int64_t)l * BLOCK;
            const double wl = m->w[l], ex = W->ex[l], ey = W->ey[l], q = W->q[l];
            for (int64_t j = 0; j < n; j++)
                fl[j] = feq(order, wl, ex, ey, q, rho[j], vx0, vy0, th0, s0);
        }
    }

    for (int64_t j = 0; j < n; j++) {
        rho[j] = 0.0;
        mx[j] = 0.0;
        my[j] = 0.0;
        e2[j] = 0.0;
    }
    for (int l = 0; l < Q; l++) {
        const double *restrict fl = f + (int64_t)l * BLOCK;
        const double cx = (double)m->c[2 * l], cy = (double)m->c[2 * l + 1];
        const double c2 = cx * cx + cy * cy;
        for (int64_t j = 0; j < n; j++)
            rho[j] = rho[j] + fl[j];
        if (cx != 0.0)
            for (int64_t j = 0; j < n; j++)
                mx[j] = mx[j] + cx * fl[j];
        if (cy != 0.0)
            for (int64_t j = 0; j < n; j++)
                my[j] = my[j] + cy * fl[j];
        if (c2 != 0.0)
            for (int64_t j = 0; j < n; j++)
                e2[j] = e2[j] + c2 * fl[j];
    }
    int bad = 0;
    for (int64_t j = 0; j < n; j++)
        bad |= !(rho[j] > 0.0);
    if (bad)
        return TLB_BAD_DENSITY;
    for (int64_t j = 0; j < n; j++) {
        const double ux = mx[j] / rho[j];
        const double uy = my[j] / rho[j];
        const double T = (e2[j] - rho[j] * (ux * ux + uy * uy)) / (2.0 * rho[j]);
        const double ub = ux + m->shift_u;
        const double vb = uy + m->shift_v;
        const double Tb = T - m->shift_T;
        bad |= !(Tb > 0.0);
        vx[j] = ub / cs;
        vy[j] = vb / cs;
        theta[j] = Tb / cs2 - 1.0;
        s[j] = vx[j] * vx[j] + vy[j] * vy[j];
    }
    if (bad)
        return TLB_BAD_TEMPERATURE;

    const double omega = m->omega;
    for (int l = 0; l < Q; l++) {
        double *restrict fl = f + (int64_t)l * BLOCK;
        const double wl = m->w[l], ex = W->ex[l], ey = W->ey[l], q = W->q[l];
        for (int64_t j = 0; j < n; j++) {
            const double eq = feq(order, wl, ex, ey, q, rho[j], vx[j], vy[j],
                                  theta[j], s[j]);
            fl[j] = fl[j] - omega * (fl[j] - eq);
        }
    }
    return TLB_OK;
}

/* Pull gather of sites first .. first+n of an nx x ny rectangle at (x0, y0):
   f[l][j] = src[l, x - c_lx, y - c_ly]. */
static void gather(const double *src, const int64_t *st, const int64_t *c,
                   int Q, int64_t x0, int64_t y0, int64_t ny, int64_t first,
                   int64_t n, double *restrict f)
{
    for (int l = 0; l < Q; l++) {
        double *restrict fl = f + (int64_t)l * BLOCK;
        for (int64_t j = 0; j < n;) {
            const int64_t x = (first + j) / ny, y = (first + j) % ny;
            const int64_t len = ny - y < n - j ? ny - y : n - j;
            const double *p = src + l * st[0] + (x0 + x - c[2 * l]) * st[1]
                              + (y0 + y - c[2 * l + 1]) * st[2];
            if (st[2] == 1)
                for (int64_t k = 0; k < len; k++)
                    fl[j + k] = p[k];
            else
                for (int64_t k = 0; k < len; k++)
                    fl[j + k] = p[k * st[2]];
            j += len;
        }
    }
}

/* Write the relaxed block back, dst[l, x, y] = f[l][j], and return how
   many of the values written are negative. */
static int64_t scatter(double *dst, const int64_t *st, int Q, int64_t x0,
                       int64_t y0, int64_t ny, int64_t first, int64_t n,
                       const double *restrict f)
{
    int64_t negatives = 0;
    for (int l = 0; l < Q; l++) {
        const double *restrict fl = f + (int64_t)l * BLOCK;
        for (int64_t j = 0; j < n;) {
            const int64_t x = (first + j) / ny, y = (first + j) % ny;
            const int64_t len = ny - y < n - j ? ny - y : n - j;
            double *p = dst + l * st[0] + (x0 + x) * st[1] + (y0 + y) * st[2];
            if (st[2] == 1)
                for (int64_t k = 0; k < len; k++) {
                    p[k] = fl[j + k];
                    negatives += fl[j + k] < 0.0;
                }
            else
                for (int64_t k = 0; k < len; k++) {
                    p[k * st[2]] = fl[j + k];
                    negatives += fl[j + k] < 0.0;
                }
            j += len;
        }
    }
    return negatives;
}

static int relax(const tlb_model *m, const tlb_work *W, int64_t n, int nw)
{
    switch (m->order) {
    case 2:
        return relax_block(2, m, W, n, nw);
    case 3:
        return relax_block(3, m, W, n, nw);
    default:
        return relax_block(4, m, W, n, nw);
    }
}

/* Fused step over nbox region boxes, box k = boxes[4k .. 4k+3] =
   (x0, x1, y0, y1) in padded coordinates.

   strides: element strides of src's then dst's (Q, NX, NY) view.
   walls: nwall padded-y ranges [wrows[2k], wrows[2k+1]) with temperature
   wT[k]; rows of a box inside one are set to the wall equilibrium before
   the collision.  *negatives receives the number of negative values written
   to dst.  The caller guarantees that every pulled site lies inside src and
   that m->order is 2, 3 or 4.  Returns a TLB_* status; on a nonzero status
   dst may be partly written. */
int tlb_fused(const double *src, double *dst, const int64_t *strides,
              const int64_t *boxes, int nbox, int nwall, const int64_t *wrows,
              const double *wT, const tlb_model *m, int64_t *negatives)
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
    W.ex = W.s + BLOCK;
    W.ey = W.ex + Q;
    W.q = W.ey + Q;
    W.Tw = W.q + Q;
    W.cs = sqrt(m->cs2);
    unit_hops(m, W.cs, W.ex, W.ey, W.q);

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
            for (int64_t first = 0; first < total; first += BLOCK) {
                const int64_t n = total - first < BLOCK ? total - first : BLOCK;
                gather(src, strides, m->c, Q, x0, ya, ny, first, n, W.f);
                status = relax(m, &W, n, nw);
                if (status != TLB_OK)
                    break;
                neg += scatter(dst, strides + 3, Q, x0, ya, ny, first, n, W.f);
            }
        }
    }
    *negatives = neg;
    free(mem);
    return status;
}

/* Sites first .. first+nb of tlb_equilibrium, as one block. */
static inline __attribute__((always_inline)) void
equilibrium_block(const int order, const tlb_model *m, const double *ex,
                  const double *ey, const double *q, double cs,
                  const double *rho, const double *ux, const double *uy,
                  const double *T, int64_t n, int64_t first, int64_t nb,
                  double *out)
{
    double vx[BLOCK], vy[BLOCK], theta[BLOCK], s[BLOCK];
    for (int64_t j = 0; j < nb; j++) {
        vx[j] = ux[first + j] / cs;
        vy[j] = uy[first + j] / cs;
        theta[j] = T[first + j] / m->cs2 - 1.0;
        s[j] = vx[j] * vx[j] + vy[j] * vy[j];
    }
    const double *restrict r = rho + first;
    for (int l = 0; l < m->Q; l++) {
        double *restrict ol = out + (int64_t)l * n + first;
        const double wl = m->w[l], exl = ex[l], eyl = ey[l], ql = q[l];
        for (int64_t j = 0; j < nb; j++)
            ol[j] = feq(order, wl, exl, eyl, ql, r[j], vx[j], vy[j], theta[j],
                        s[j]);
    }
}

/* kernels.equilibrium of n sites: out[l * n + j] = f^eq_l(rho[j], ux[j],
   uy[j], T[j]) at m->order, which the caller guarantees is 2, 3 or 4.  Only
   Q, order, c, w and cs2 of m are read. */
void tlb_equilibrium(const double *rho, const double *ux, const double *uy,
                     const double *T, int64_t n, const tlb_model *m,
                     double *out)
{
    double ex[m->Q], ey[m->Q], q[m->Q];
    const double cs = sqrt(m->cs2);
    unit_hops(m, cs, ex, ey, q);
    for (int64_t first = 0; first < n; first += BLOCK) {
        const int64_t nb = n - first < BLOCK ? n - first : BLOCK;
        switch (m->order) {
        case 2:
            equilibrium_block(2, m, ex, ey, q, cs, rho, ux, uy, T, n, first,
                              nb, out);
            break;
        case 3:
            equilibrium_block(3, m, ex, ey, q, cs, rho, ux, uy, T, n, first,
                              nb, out);
            break;
        default:
            equilibrium_block(4, m, ex, ey, q, cs, rho, ux, uy, T, n, first,
                              nb, out);
        }
    }
}

/* kernels.moments of n sites, f[l * n + j]: rho, u and T accumulated in l
   order as in relax_block.  Only Q and c of m are read.  Returns
   TLB_BAD_DENSITY when some rho is not > 0; the outputs are then partly
   meaningless. */
int tlb_moments(const double *f, int64_t n, const tlb_model *m, double *rho,
                double *ux, double *uy, double *T)
{
    int bad = 0;
    for (int64_t first = 0; first < n; first += BLOCK) {
        const int64_t nb = n - first < BLOCK ? n - first : BLOCK;
        double mx[BLOCK], my[BLOCK], e2[BLOCK];
        double *restrict r = rho + first;
        for (int64_t j = 0; j < nb; j++) {
            r[j] = 0.0;
            mx[j] = 0.0;
            my[j] = 0.0;
            e2[j] = 0.0;
        }
        for (int l = 0; l < m->Q; l++) {
            const double *restrict fl = f + (int64_t)l * n + first;
            const double cx = (double)m->c[2 * l], cy = (double)m->c[2 * l + 1];
            const double c2 = cx * cx + cy * cy;
            for (int64_t j = 0; j < nb; j++)
                r[j] = r[j] + fl[j];
            if (cx != 0.0)
                for (int64_t j = 0; j < nb; j++)
                    mx[j] = mx[j] + cx * fl[j];
            if (cy != 0.0)
                for (int64_t j = 0; j < nb; j++)
                    my[j] = my[j] + cy * fl[j];
            if (c2 != 0.0)
                for (int64_t j = 0; j < nb; j++)
                    e2[j] = e2[j] + c2 * fl[j];
        }
        for (int64_t j = 0; j < nb; j++) {
            bad |= !(r[j] > 0.0);
            const double u = mx[j] / r[j], v = my[j] / r[j];
            ux[first + j] = u;
            uy[first + j] = v;
            T[first + j] = (e2[j] - r[j] * (u * u + v * v)) / (2.0 * r[j]);
        }
    }
    return bad ? TLB_BAD_DENSITY : TLB_OK;
}
