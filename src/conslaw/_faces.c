/* The compiled Euler step: the halo pass, the residual of every axis and the
 * SSP-RK combination of each stage, then the end-of-step pass of checks and
 * CFL maxima, all in one call on a run's `Stack` (euler_step).
 *
 * An axis sweep does the reconstruction, the primitive pass of each face
 * side, the positivity fallback, the numerical flux and the flux
 * difference, line by line.  Every value rounds as in the face-by-face
 * reference of tests/oracles.py, up to the sign of a zero, and the
 * reconstruction as conslaw.numerics.reconstruct_axis: each operation below
 * is performed in a fixed order on fixed operands (a product of three
 * factors is evaluated left to right), and min / max return their second
 * operand on ties.  Compile without -ffast-math and with -ffp-contract=off,
 * so that no multiply-add is fused; vectorized loops then round like scalar
 * ones.  Three shortcuts are exact: WENO3's second weight d1 / q is
 * 2 (d0 / q) while every q of the line is below 2^1000 (d1 = 2 d0, and
 * d0 / q is then normal, so the doubling does not round), WENO2's is the
 * first (d1 = d0), and dividing by a power of two is multiplying by its
 * reciprocal.  The HLLC flux has no branch, so that it vectorizes.
 *
 * Each axis sweep is described by one `Sweep`.  A sweep reads the padded
 * state through strides and subtracts (F[i+1] - F[i]) / delta from each
 * interior cell of the residual (the first sweep of a residual, along x,
 * writes 0 - (F[i+1] - F[i]) / delta, so the residual needs no zeroing).
 * The state is contiguous along x, and lines along x are read in place.
 * Lines along y or z are copied BLOCK_LINES adjacent lines at a time, row by
 * row, and swept as the lanes of one line, so that every stage is a loop
 * over the faces of the lines (a block that fails, or one of fewer lines, is
 * swept line by line).  A sweep returns 0, or a nonzero status for the first
 * line that fails, ranks outermost: 1 for an unphysical face state, 2 for a
 * degenerate HLLC wave fan, 4 for an unphysical interior cell (checked by
 * the first sweep of a residual while it loads its lines); the residual is
 * then partly updated and the stage, axis and rank of the line are left in
 * the stack.  conslaw.solver locates the failing cell or face itself.
 *
 * A call is a `Job` of phases (a sweep, a combination, a cell pass), each
 * cut into chunks of CHUNK_LINES lines.  On a stack of at least
 * SHARE_MIN_FACES faces per sweep, whichever entry point is called, the job
 * is posted once to one helper pthread, which stays in the process and takes
 * chunks of every phase beside the caller (see "The helper thread" below).
 * Each line is computed by one thread and writes only its own cells, each
 * thread keeps its own maxima (combined by max, which is exact), and the
 * lowest failing line decides the status, so every bit and every failure is
 * that of one thread.  No helper starts where the process may run on fewer
 * than 2 CPUs; a forked child starts its own.  Link with -pthread.
 *
 * Entry points, on one run's `Stack` (its state, the buffers and the line
 * scratch it owns, and its halo plan, which conslaw.numerics.EulerStack
 * fills once per run; a call reads and writes nothing else): `euler_step`,
 * the whole step; `euler_residual`, the residual alone, whose bits the
 * face-by-face tests compare; `cell_pass`, of a run's initial state; and
 * `line_scratch`, the size of the scratch.  tests/oracles.py builds the
 * reference of a step from its parts, one call each.
 */

#define _GNU_SOURCE
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#define MAXCOMP 5
#define INLINE static inline __attribute__((always_inline))

enum {
    STATUS_OK = 0, STATUS_UNPHYSICAL = 1, STATUS_DEGENERATE = 2, STATUS_CELL = 4,
    STATUS_CELL_PASS = 8  /* euler_step: a cell failed the end-of-step pass */
};

/* one slab copy of a halo pass: element offsets of the destination and the
 * source from the state, and the slab's shape and both element strides,
 * padded in front to HALO_AXES axes of extent 1 */
#define HALO_AXES 7
typedef struct {
    long dst, src, shape[HALO_AXES], dstr[HALO_AXES], sstr[HALO_AXES];
} Copy;

/* The padded state of R equal subdomains, its buffers, its halo plan and the
 * scheme, as conslaw.numerics.EulerStack fills them once per run.  Arrays
 * are indexed (component, rank, z, y, x), contiguous along x; a spatial axis
 * past `dim` has one cell, no ghosts and stride 0. */
typedef struct {
    double *u;            /* the padded state at cell 0 of every axis */
    double *res;          /* the residual, contiguous */
    double *start;        /* the state at the start of a step, like res */
    double *maxima;       /* cell_pass: the wave speed maximum of each axis */
    double *scratch;      /* the line scratch of each thread, line_scratch() apart */
    const Copy *halo;     /* the slab copies of one halo pass, in order */
    long copies;
    long ustr[5];         /* element strides of u; ustr[4] (x) is 1 */
    long ranks, cells[3]; /* interior cells along x, y and z */
    int dim, ghost, weno, hllc, stages;
    double epsilon, d0, d1, gamma, gm1, floor, delta[3];
    double a[3], b[3];    /* stage s > 0: u = start a[s] + (res dt + u) b[s] */
    long stop_rank;       /* the stage, axis and rank of the line */
    int stop_axis, stop_stage; /* a residual stopped at */
} Stack;

/* per-line scratch: BLOCK_LINES gathered lines of n + 2g cells, and the
 * n + 1 faces per component of the line being swept, or of BLOCK_LINES lines
 * swept as the lanes of one (the cell pass keeps the dim * nx speeds of an
 * x line in the same scratch) */
typedef struct {
    double *cols;             /* gathered lines, line-major, then component-major */
    double *diff;             /* their flux differences, n per component */
    double *face[2];          /* WENO states left and right of each face */
    double *d, *a0, *a1;      /* differences and WENO weights, n + 3 */
    double *p[2], *v[2], *c[2], *half_s;
    double *f[2];             /* physical fluxes, component-major */
    double *F;                /* numerical fluxes, component-major */
} Work;

/* The sharing of a call with the helper thread (see below): the sweeps of
 * the smallest stack shared.  Shared, the residual of a 32x32 grid (sweeps
 * of 1056 faces) ran 1.5x as fast, those of 64x64 and 128x128 grids 1.6x
 * and 1.7x; a step of a 16x16 grid (272 faces) ran no faster (61-66 us
 * against 64-65 us, one session). */
#define SHARE_MIN_FACES 1024
/* how long the helper spins after a call before it sleeps */
#define SPIN_NS 1000000L
/* lines per chunk: a multiple of 8, so that two threads write the same
 * cache line of the residual (64-byte aligned) only at the ends of rows; a
 * 64x64 sweep is 8 chunks */
#define CHUNK_LINES 8
/* adjacent y or z lines swept as the lanes of one: a row of 8 doubles, one
 * cache line and one AVX-512 vector */
#define BLOCK_LINES 8

/* One axis sweep of the stack `st`.  u: padded cell 0 of the sweep axis at
 * rank 0 and the first interior transverse cell; ustr: its element strides
 * of (component, rank, sweep axis, transverse 1, transverse 2).  out, ostr:
 * the same for interior cell 0 of the residual.  Its lines of n interior
 * cells are numbered ranks outermost, then transverse axis 1 (T1 cells),
 * then 2 (T2), the order of the serial loop; adjacent lines along T2 are
 * adjacent in memory along x, or along y for the x sweep. */
typedef struct {
    int axis, first;      /* first: the x sweep, the first of a residual, which */
    const double *u;      /* checks the interior cells and writes the residual */
    double *out;
    long ustr[5], ostr[5];
    long n, T1, T2, lines;
    long parts;           /* 2: each line is swept as two halves (see begin_job) */
    double delta, scale;  /* scale: 1 / delta when that is exact, else 0 */
} Sweep;

/* cond ? l : r, with both operands evaluated, so that a select of two
 * loads is a blend */
INLINE double pick(int cond, double l, double r) { return cond ? l : r; }

/* minimum / maximum: NaN propagates from either side, ties give b */
INLINE double np_min(double a, double b) { return ((a < b) | (a != a)) ? a : b; }
INLINE double np_max(double a, double b) { return ((a > b) | (a != a)) ? a : b; }

/* equations.pressure, (gamma - 1) (E - (m0^2 + m1^2 + m2^2) / (2 rho)), of the
 * n states u[c][j] into p; returns whether any of them is not physical
 * (equations.physical_mask: rho and p above the floor) */
INLINE int pressures(int dim, const double *const *u, long n, double gm1, double floor,
                     double *restrict p)
{
    const double *R = u[0], *M0 = u[1], *M1 = u[dim > 1 ? 2 : 1], *M2 = u[dim > 2 ? 3 : 1];
    const double *E = u[1 + dim];
    double bad = 0.0;
    for (long j = 0; j < n; j++) {
        double kinetic = M0[j] * M0[j];
        if (dim > 1)
            kinetic = kinetic + M1[j] * M1[j];
        if (dim > 2)
            kinetic = kinetic + M2[j] * M2[j];
        double pj = gm1 * (E[j] - kinetic / (2.0 * R[j]));
        p[j] = pj;
        bad = (R[j] > floor) & (pj > floor) ? bad : 1.0;
    }
    return bad != 0.0;
}

/* pressures() of one state, out of line (the positivity fallback's, where
 * an inlined copy of the loop would only lengthen the build) */
static int pressure_of(int dim, const double *const *u, double gm1, double floor, double *p)
{
    return pressures(dim, u, 1, gm1, floor, p);
}

/* numerics._weno_correction: 0.5 (w0 dm + w1 dp), (w0, w1) = (am, ap) / (am + ap) */
INLINE double weno_correction(double dm, double dp, double am, double ap)
{
    double total = am + ap;
    double w0 = am / total, w1 = ap / total;
    return (w0 * dm + w1 * dp) * 0.5;
}

/* the face states of weno_line from the differences d and the weights a0
 * and a1 (from_a0 = 1 reads a0 for a1, 2 twice a0, else the array a1) */
INLINE void weno_faces(const double *restrict u, long n, long S, const double *restrict d,
                       const double *restrict a0, const double *restrict a1, int from_a0,
                       double *restrict fl, double *restrict fr)
{
    for (long j = 0; j < (n + 1) * S; j++) {
        double ap = from_a0 == 1 ? a0[j + S] : from_a0 == 2 ? 2.0 * a0[j + S] : a1[j + S];
        fl[j] = weno_correction(d[j], d[j + S], a0[j], ap) + u[j + S];
        fr[j] = u[j + 2 * S] - weno_correction(d[j + 2 * S], d[j + S], a0[j + 2 * S], ap);
    }
}

/* numerics.reconstruct_axis on one line of cells, or on S lines as the lanes
 * of one (cell k of lane b at col[k S + b]): the states left (fl) and right
 * (fr) of its n + 1 interior faces */
static void weno_line(const Stack *st, const double *restrict col, long n, long S,
                      double *restrict d, double *restrict a0, double *restrict a1,
                      double *restrict fl, double *restrict fr)
{
    /* d[k] = u[k+S] - u[k], k = 0..(n+3) S - 1 */
    const double *u = col + (st->ghost - 2) * S;
    double d0 = st->d0, epsilon = st->epsilon;
    double large = 0.0; /* a q >= 2^1000, or 0; a select, so that it vectorizes */
    for (long k = 0; k < (n + 3) * S; k++) {
        d[k] = u[k + S] - u[k];
        double q = d[k] * d[k] + epsilon;
        q = q * q;
        a0[k] = d0 / q;
        a1[k] = q;
        large = q >= 0x1p1000 ? q : large;
    }
    if (st->d1 == d0) {
        weno_faces(u, n, S, d, a0, a1, 1, fl, fr);
    } else if (st->d1 == 2.0 * d0 && large == 0.0) {
        weno_faces(u, n, S, d, a0, a1, 2, fl, fr);
    } else {
        for (long k = 0; k < (n + 3) * S; k++)
            a1[k] = st->d1 / a1[k];
        weno_faces(u, n, S, d, a0, a1, 0, fl, fr);
    }
}

/* the velocity, sound speed and physical flux of one side */
static void primitives(const Sweep *sw, const Stack *st, int dim, const double *const *u,
                       const double *p, long nf, double *restrict v, double *restrict c,
                       double *restrict f)
{
    const double *rho = u[0], *un = u[1 + sw->axis], *E = u[1 + dim];
    double gamma = st->gamma;
    for (long j = 0; j < nf; j++) {
        v[j] = un[j] / rho[j];
        c[j] = sqrt(gamma * p[j] / rho[j]);
    }
    for (long j = 0; j < nf; j++)
        f[j] = un[j];
    for (int k = 0; k < dim; k++) {
        const double *uk = u[1 + k];
        double *restrict fk = f + (1 + k) * nf;
        if (k == sw->axis)
            for (long j = 0; j < nf; j++)
                fk[j] = uk[j] * v[j] + p[j];
        else
            for (long j = 0; j < nf; j++)
                fk[j] = uk[j] * v[j];
    }
    double *restrict fe = f + (1 + dim) * nf;
    for (long j = 0; j < nf; j++)
        fe[j] = (E[j] + p[j]) * v[j];
}

static void rusanov_line(int ncomp, const double *const *uL, const double *const *uR,
                         long nf, Work *w)
{
    const double *vL = w->v[0], *cL = w->c[0], *vR = w->v[1], *cR = w->c[1];
    double *restrict half_s = w->half_s;
    for (long j = 0; j < nf; j++)
        half_s[j] = 0.5 * np_max(fabs(vL[j]) + cL[j], fabs(vR[j]) + cR[j]);
    for (int c = 0; c < ncomp; c++) {
        const double *fL = w->f[0] + c * nf, *fR = w->f[1] + c * nf;
        const double *ul = uL[c], *ur = uR[c];
        double *restrict F = w->F + c * nf;
        for (long j = 0; j < nf; j++)
            F[j] = (fL[j] + fR[j]) * 0.5 - (ur[j] - ul[j]) * half_s[j];
    }
}

/* The HLLC faces of hllc_line: the density, normal momentum, transverse
 * momenta (t, s) and energy of each side, their velocities, sound speeds,
 * pressures and physical fluxes (component-major, nf apart), into the
 * fluxes F.  `takes` is scratch.  The pointers are parameters, so that
 * restrict tells the vectorizer that no store aliases a load. */
static int hllc_faces(int dim, int axis, int t, int s, long nf,
                      const double *restrict rL, const double *restrict nL,
                      const double *restrict tL, const double *restrict sL_,
                      const double *restrict EL, const double *restrict rR,
                      const double *restrict nR, const double *restrict tR,
                      const double *restrict sR_, const double *restrict ER,
                      const double *restrict vL, const double *restrict cL,
                      const double *restrict pL, const double *restrict vR,
                      const double *restrict cR, const double *restrict pR,
                      const double *restrict fL, const double *restrict fR,
                      double *restrict F, double *restrict takes)
{
    double *Fr = F, *Fn = F + (1 + axis) * nf, *Ft = F + (1 + t) * nf;
    double *Fs = F + (1 + s) * nf, *FE = F + (1 + dim) * nf;
    const double *fnL = fL + (1 + axis) * nf, *ftL = fL + (1 + t) * nf;
    const double *fsL = fL + (1 + s) * nf, *fEL = fL + (1 + dim) * nf;
    const double *fnR = fR + (1 + axis) * nf, *ftR = fR + (1 + t) * nf;
    const double *fsR = fR + (1 + s) * nf, *fER = fR + (1 + dim) * nf;
    double degenerate = 0.0;
    for (long j = 0; j < nf; j++) {
        double rhoL = rL[j], rhoR = rR[j], vl = vL[j], vr = vR[j], pl = pL[j], pr = pR[j];
        double sL = np_min(vl - cL[j], vr - cR[j]);
        double sR = np_max(vl + cL[j], vr + cR[j]);
        degenerate = sR - sL <= 0 ? 1.0 : degenerate;
        double aL = sL - vl, aR = sR - vr;
        double mL = rhoL * aL, mR = rhoR * aR;
        double sM = ((pr - pl) + rhoL * vl * aL - rhoR * vr * aR) / (mL - mR);

        int same = (rhoL == rhoR) & (nL[j] == nR[j]) & (EL[j] == ER[j]);
        if (dim > 1)
            same &= tL[j] == tR[j];
        if (dim > 2)
            same &= sL_[j] == sR_[j];
        int upwind_left = (sL >= 0) | same;
        int left = sM >= 0;
        /* the upwind flux: the left one, or the right one where no wave
         * reaches the left side */
        takes[j] = pick(upwind_left, 1.0, pick(!(left | (sR > 0)), 2.0, 0.0));
        /* the star flux of the side that sM selects */
        double rho = pick(left, rhoL, rhoR), v = pick(left, vl, vr), p = pick(left, pl, pr);
        double sw = pick(left, sL, sR), mass = pick(left, mL, mR);
        double factor = mass / (sw - sM), un = pick(left, nL[j], nR[j]);
        double uE = pick(left, EL[j], ER[j]);
        Fr[j] = (factor - rho) * sw + pick(left, fL[j], fR[j]);
        Fn[j] = (factor * sM - un) * sw + pick(left, fnL[j], fnR[j]);
        if (dim > 1) {
            double ut = pick(left, tL[j], tR[j]);
            Ft[j] = (factor * (ut / rho) - ut) * sw + pick(left, ftL[j], ftR[j]);
        }
        if (dim > 2) {
            double us = pick(left, sL_[j], sR_[j]);
            Fs[j] = (factor * (us / rho) - us) * sw + pick(left, fsL[j], fsR[j]);
        }
        double star = factor * (uE / rho + (sM - v) * (sM + p / mass));
        FE[j] = (star - uE) * sw + pick(left, fEL[j], fER[j]);
    }
    for (int c = 0; c < dim + 2; c++) {
        const double *l = fL + c * nf, *r = fR + c * nf;
        double *Fc = F + c * nf;
        for (long j = 0; j < nf; j++) {
            Fc[j] = pick(takes[j] == 0.0, Fc[j], pick(takes[j] == 1.0, l[j], r[j]));
        }
    }
    return degenerate != 0.0 ? STATUS_DEGENERATE : STATUS_OK;
}

/* The HLLC flux with Davis wave-speed estimates; returns STATUS_DEGENERATE
 * if any face of the line has sR <= sL.  Two loops without branches, so
 * that both vectorize: the first stores on every face the star flux of the
 * side that sM selects, and what the face takes (0 that flux, 1 the left
 * flux, 2 the right one); the second puts the upwind fluxes in.  The
 * momentum components are named, normal and transverse (t, s), so that each
 * is one stream of the loop; components past dim alias the density and are
 * never read. */
INLINE int hllc_line(int axis, int dim, const double *const *uL, const double *const *uR,
                     long nf, Work *w)
{
    int t = dim > 1 ? (axis == 0 ? 1 : 0) : -1, s = dim > 2 ? (axis == 2 ? 1 : 2) : -1;
    return hllc_faces(dim, axis, t, s, nf, uL[0], uL[1 + axis], uL[1 + t], uL[1 + s],
                      uL[1 + dim], uR[0], uR[1 + axis], uR[1 + t], uR[1 + s], uR[1 + dim],
                      w->v[0], w->c[0], w->p[0], w->v[1], w->c[1], w->p[1], w->f[0], w->f[1],
                      w->F, w->half_s);
}

/* One line of the sweep, or the part of n cells of it that starts at col, on
 * a stack of `dim` dimensions: col[c] its padded cell 0 of component c,
 * contiguous; or S such lines as the lanes of one, cell k of lane b at
 * col[c][k S + b].  Every loop runs over the S lanes of each face or cell,
 * and each lane rounds as its line alone.  The flux differences go to diff,
 * or with diff NULL (S = 1, an x line read in place) into the contiguous
 * residual line oline[c * ostr[0] + i].  The first sweep of
 * a residual checks that the line's interior cells are physical
 * (conslaw.equations.physical_mask). */
INLINE int sweep_line(const Sweep *sw, const Stack *st, int dim, long S,
                      const double *const *col, long n, double *oline, double *diff, Work *w)
{
    int ncomp = dim + 2, ghost = st->ghost;
    /* nf: the faces of all lanes, and their stride in the face arrays */
    long nf = (n + 1) * S;
    double gm1 = st->gm1, floor = st->floor;
    if (sw->first) {
        const double *cells[MAXCOMP];
        for (int c = 0; c < ncomp; c++)
            cells[c] = col[c] + ghost * S;
        if (pressures(dim, cells, n * S, gm1, floor, w->p[0]))
            return STATUS_CELL;
    }
    /* the face states: side 0 left of each face, side 1 right of it */
    const double *u[2][MAXCOMP];
    for (int c = 0; c < ncomp; c++) {
        if (st->weno) {
            weno_line(st, col[c], n, S, w->d, w->a0, w->a1, w->face[0] + c * nf,
                      w->face[1] + c * nf);
            u[0][c] = w->face[0] + c * nf;
            u[1][c] = w->face[1] + c * nf;
        } else {
            u[0][c] = col[c] + (ghost - 1) * S;
            u[1][c] = col[c] + ghost * S;
        }
    }
    /* one primitive pass per side */
    double *restrict pl = w->p[0], *restrict pr = w->p[1];
    int bad = pressures(dim, u[0], nf, gm1, floor, pl);
    bad |= pressures(dim, u[1], nf, gm1, floor, pr);
    if (bad) {
        if (!st->weno)
            return STATUS_UNPHYSICAL;
        /* first-order fallback: both sides of such a face take their cells */
        for (long j = 0; j < nf; j++) {
            if ((u[0][0][j] > floor) & (pl[j] > floor) & (u[1][0][j] > floor) & (pr[j] > floor))
                continue;
            const double *l[MAXCOMP], *r[MAXCOMP];
            for (int c = 0; c < ncomp; c++) {
                w->face[0][c * nf + j] = col[c][(ghost - 1) * S + j];
                w->face[1][c * nf + j] = col[c][ghost * S + j];
                l[c] = u[0][c] + j;
                r[c] = u[1][c] + j;
            }
            if (pressure_of(dim, l, gm1, floor, pl + j) | pressure_of(dim, r, gm1, floor, pr + j))
                return STATUS_UNPHYSICAL;
        }
    }
    for (int side = 0; side < 2; side++)
        primitives(sw, st, dim, u[side], w->p[side], nf, w->v[side], w->c[side], w->f[side]);
    if (st->hllc) {
        int status = hllc_line(sw->axis, dim, u[0], u[1], nf, w);
        if (status)
            return status;
    } else {
        rusanov_line(ncomp, u[0], u[1], nf, w);
    }
    /* the flux difference of each interior cell: into diff, which
     * sweep_block subtracts from the residual, or, for an x line read in
     * place, into the contiguous residual line */
    double delta = sw->delta, scale = sw->scale;
    for (int c = 0; c < ncomp; c++) {
        const double *F = w->F + c * nf;
        double *o = diff ? diff + c * n * S : oline + c * sw->ostr[0];
        for (long i = 0; i < n * S; i++) {
            double d = scale != 0.0 ? (F[i + S] - F[i]) * scale : (F[i + S] - F[i]) / delta;
            o[i] = diff ? d : 0.0 - d;
        }
    }
    return STATUS_OK;
}

/* the line scratch of one thread, for BLOCK_LINES lines of n cells, from
 * buf; returns its size in doubles */
static long work_init(Work *w, double *buf, long ncomp, long n, int ghost)
{
    long nf = (n + 1) * BLOCK_LINES;
    double *next = buf;
#define TAKE(ptr, count) (ptr = next, next += (count))
    TAKE(w->cols, BLOCK_LINES * ncomp * (n + 2 * ghost));
    TAKE(w->diff, BLOCK_LINES * ncomp * n);
    TAKE(w->d, (n + 3) * BLOCK_LINES);
    TAKE(w->a0, (n + 3) * BLOCK_LINES);
    TAKE(w->a1, (n + 3) * BLOCK_LINES);
    TAKE(w->half_s, nf);
    TAKE(w->F, ncomp * nf);
    for (int side = 0; side < 2; side++) {
        TAKE(w->face[side], ncomp * nf);
        TAKE(w->f[side], ncomp * nf);
        TAKE(w->p[side], nf);
        TAKE(w->v[side], nf);
        TAKE(w->c[side], nf);
    }
#undef TAKE
    return next - buf;
}

/* Sweep `block` adjacent lines from `line` (their first padded cell of
 * component 0; the lines of the x sweep are one block each, read in place),
 * as the lanes of one when there are several: each component's rows are
 * copied as they lie, and the flux differences subtracted from the residual
 * `oline` row by row once every lane has passed.  Returns the status. */
INLINE int sweep_block(const Sweep *sw, const Stack *st, int dim, const double *line,
                       double *oline, long block, long n, Work *w)
{
    int ncomp = dim + 2, in_place = sw->first;
    long N = n + 2 * st->ghost, sc = sw->ustr[0], sk = sw->ustr[2], s2 = sw->ustr[4];
    long ob = sw->ostr[4];
    const double *col[MAXCOMP];
    for (int c = 0; c < ncomp; c++) {
        col[c] = in_place ? line + c * sc : w->cols + c * N * block;
        for (long k = 0; k < N && !in_place; k++) {
            const double *row = line + c * sc + k * sk;
            double *to = w->cols + (c * N + k) * block;
            for (long b = 0; b < block; b++)
                to[b] = row[b * s2];
        }
    }
    int status = sweep_line(sw, st, dim, block, col, n, oline, in_place ? NULL : w->diff, w);
    if (status || in_place)
        return status;
    for (int c = 0; c < ncomp; c++)
        for (long i = 0; i < n; i++) {
            double *o = oline + c * sw->ostr[0] + i * sw->ostr[2];
            const double *d = w->diff + (c * n + i) * block;
            for (long b = 0; b < block; b++)
                o[b * ob] = o[b * ob] - d[b];
        }
    return STATUS_OK;
}

/* Sweep lines [first, last), or the halves `part` of them (see begin_job),
 * in blocks of up to BLOCK_LINES lines adjacent along T2; returns the status
 * of the first line that fails and leaves it in *stop.  A block that fails
 * is swept again line by line, to find that line. */
INLINE int sweep_lines(const Sweep *sw, const Stack *st, int dim, long first, long last,
                       long part, Work *w, long *stop)
{
    /* the cells [lo, lo + n) of each line */
    long half = sw->n / 2, lo = part * half;
    long n = sw->parts == 1 ? sw->n : part ? sw->n - half : half;
    long s2 = sw->ustr[4], ob = sw->ostr[4];
    for (long l = first; l < last;) {
        long r = l / (sw->T1 * sw->T2), t1 = l / sw->T2 % sw->T1, t2 = l % sw->T2;
        const double *line = sw->u + r * sw->ustr[1] + t1 * sw->ustr[3] + t2 * s2
                           + lo * sw->ustr[2];
        double *oline = sw->out + r * sw->ostr[1] + t1 * sw->ostr[3] + t2 * ob
                      + lo * sw->ostr[2];
        long block = sw->first ? 1 : sw->T2 - t2 < last - l ? sw->T2 - t2 : last - l;
        block = block < BLOCK_LINES ? block : BLOCK_LINES;
        int status = sweep_block(sw, st, dim, line, oline, block, n, w);
        if (status && block > 1)
            for (long b = 0; b < block; b++, l++)
                if ((status = sweep_block(sw, st, dim, line + b * s2, oline + b * ob, 1, n, w)))
                    break;
        if (status) {
            *stop = l;
            return status;
        }
        l += block;
    }
    return STATUS_OK;
}

/* ------------------------------------------------------------------------
 * The combination and the cell pass, by x lines
 * ------------------------------------------------------------------------ */

/* the extent of interior array axis a = 2, 3, 4 (z, y, x) */
INLINE long extent(const Stack *st, int a) { return st->cells[4 - a]; }

/* the ghost offset of padded array axis a = 2, 3, 4 */
INLINE long offset(const Stack *st, int a) { return 4 - a < st->dim ? st->ghost : 0; }

/* the first interior cell of x line (r, z, y) of component c of the state */
INLINE double *x_line(const Stack *st, int c, long r, long z, long y)
{
    return st->u + c * st->ustr[0] + r * st->ustr[1] + (z + offset(st, 2)) * st->ustr[2]
         + (y + offset(st, 3)) * st->ustr[3] + st->ghost;
}

/* the element strides of a contiguous interior array */
static void interior_strides(const Stack *st, long *str)
{
    str[4] = 1;
    for (int a = 3; a >= 1; a--)
        str[a] = str[a + 1] * extent(st, a + 1);
    str[0] = str[1] * st->ranks;
}

/* the x lines of one component of the interior: ranks, z, then y */
INLINE long x_lines(const Stack *st) { return st->ranks * extent(st, 2) * extent(st, 3); }

/* The combination of a stage, rounded as the reference SSP-RK step of
 * tests/oracles.py: the first stage of a step (RK_FIRST, or RK_FIRST_SAVE
 * when the step has several, which first copies u into st->start) is
 * u + res dt, stage s > 0 (RK_LATER) start a[s] + (res dt + u) b[s]. */
enum { RK_FIRST = 0, RK_FIRST_SAVE = 1, RK_LATER = 2 };

/* one x line of a stage: u, k (the residual) and start */
INLINE void stage_line(double *u, const double *k, double *start, long n, double dt,
                       double a, double b, int mode)
{
    if (mode == RK_LATER) {
        for (long i = 0; i < n; i++) {
            double q = k[i] * dt;
            q = q + u[i];
            q = q * b;
            u[i] = start[i] * a + q;
        }
    } else if (mode == RK_FIRST_SAVE) {
        for (long i = 0; i < n; i++) {
            start[i] = u[i];
            u[i] = u[i] + k[i] * dt;
        }
    } else {
        for (long i = 0; i < n; i++)
            u[i] = u[i] + k[i] * dt;
    }
}

/* lines [first, last) of stage s, numbered rank, z, y, then component, so
 * that a unit covers whole rows, as those of the x sweep and the cell pass */
static void stage_lines(const Stack *st, long first, long last, double dt, int s)
{
    double a = st->a[s], b = st->b[s];
    int mode = s ? RK_LATER : st->stages > 1 ? RK_FIRST_SAVE : RK_FIRST;
    long rstr[5], Y = extent(st, 3), Z = extent(st, 2), C = st->dim + 2;
    interior_strides(st, rstr);
    for (long l = first; l < last; l++) {
        int c = l % C;
        long row = l / C, r = row / (Z * Y), z = row / Y % Z, y = row % Y;
        long i = c * rstr[0] + r * rstr[1] + z * rstr[2] + y * rstr[3];
        stage_line(x_line(st, c, r, z, y), st->res + i, st->start + i, st->cells[0], dt, a,
                   b, mode);
    }
}

/* one x line of cell_pass, q[c] its first interior cell of component c,
 * with the scratch speed of dim * n doubles: whether a cell is
 * not finite or not physical, and the maxima raised into top.  The speeds
 * are stored by one loop, which vectorizes, and reduced by a second. */
INLINE int cell_line(int dim, const double *const *q, long n, double gamma, double gm1,
                     double floor, double *restrict speed, double *top)
{
    const double *R = q[0], *M0 = q[1], *M1 = q[dim > 1 ? 2 : 1], *M2 = q[dim > 2 ? 3 : 1];
    const double *E = q[1 + dim];
    double bad = 0.0;
    for (long i = 0; i < n; i++) {
        double rho = R[i], kinetic = M0[i] * M0[i];
        int finite = (rho - rho == 0) & (M0[i] - M0[i] == 0) & (E[i] - E[i] == 0);
        if (dim > 1) {
            kinetic = kinetic + M1[i] * M1[i];
            finite &= M1[i] - M1[i] == 0;
        }
        if (dim > 2) {
            kinetic = kinetic + M2[i] * M2[i];
            finite &= M2[i] - M2[i] == 0;
        }
        double p = gm1 * (E[i] - kinetic / (2.0 * rho));
        bad = finite & (rho > floor) & (p > floor) ? bad : 1.0;
        double c = sqrt(gamma * p / rho);
        speed[i] = fabs(M0[i] / rho) + c;
        if (dim > 1)
            speed[n + i] = fabs(M1[i] / rho) + c;
        if (dim > 2)
            speed[2 * n + i] = fabs(M2[i] / rho) + c;
    }
    for (int k = 0; k < dim; k++)
        for (long i = 0; i < n; i++)
            top[k] = speed[k * n + i] > top[k] ? speed[k * n + i] : top[k];
    return bad != 0.0;
}

/* x lines [first, last) of the cell pass, numbered rank, z, then y, with
 * the scratch w */
INLINE int cell_lines(const Stack *st, int dim, long first, long last, double *w, double *top)
{
    long Y = extent(st, 3), Z = extent(st, 2);
    int bad = 0;
    for (long l = first; l < last; l++) {
        long r = l / (Z * Y), z = l / Y % Z, y = l % Y;
        const double *q[MAXCOMP];
        for (int c = 0; c < dim + 2; c++)
            q[c] = x_line(st, c, r, z, y);
        bad |= cell_line(dim, q, st->cells[0], st->gamma, st->gm1, st->floor, w, top);
    }
    return bad;
}

/* ------------------------------------------------------------------------
 * Jobs
 *
 * A call runs as a Job: the caller opens its phases one after the other
 * (the halo pass is the caller's alone), and each phase is cut into units
 * of CHUNK_LINES lines.  `next` holds the phase's units and those taken so
 * far from the front, by the caller, and from the back, by the helper; a
 * thread takes a unit by raising its count (the helper by a
 * compare-and-swap, so that it never takes a unit of a phase it has not
 * read), and counts it in `done` when it has finished it.  The caller, once
 * no unit is left, waits until every unit is done; so a phase reads what
 * the phases before it wrote, whichever thread wrote it, and the caller may
 * then set up the next phase.  Taken
 * from the two ends, the units of the x sweep, the combination and the cell
 * pass (all by rows: rank, z, then y) mostly fall to the thread that wrote
 * or read the same rows in the phase before, and stay in its cache; a
 * thread that falls behind leaves more units to the other.
 * ------------------------------------------------------------------------ */

enum { PHASE_SWEEP, PHASE_STAGE, PHASE_CELLS };

#define UNITS_BITS 21
#define UNITS_MASK ((1UL << UNITS_BITS) - 1)
#define UNITS_BACK (1UL << UNITS_BITS)     /* one unit taken from the back */
#define JOB_OVER (~0UL)

/* the units of the open phase, and those taken from the front and from the
 * back, of a value of `next` */
INLINE long units_of(unsigned long v) { return (long)(v >> 2 * UNITS_BITS & UNITS_MASK); }
INLINE long front(unsigned long v) { return (long)(v & UNITS_MASK); }
INLINE long back(unsigned long v) { return (long)(v >> UNITS_BITS & UNITS_MASK); }

typedef struct {
    Stack *st;
    Sweep sweep[3];
    /* the open phase, set by the caller while no unit is taken */
    int kind, axis, stage;
    double dt;
    /* the units of the open phase (none before the first), and those taken
     * from the back and from the front, UNITS_BITS each; or JOB_OVER.  One
     * word, so that a take never pairs one phase's count with another's
     * units */
    _Atomic unsigned long next;
    atomic_long done;
    /* sweep: the lowest line known to fail and its status, as line * 8 +
     * status (every STATUS_* of a sweep is below 8), or lines * 8 while none
     * has failed; no unit at or after that line is swept */
    atomic_long failed;
    long scratch;                /* the doubles of each thread's line scratch */
    double top[2][3];            /* cell pass: the maxima of each thread */
    int bad[2];                  /* cell pass: whether a cell of each thread failed */
} Job;

INLINE void cpu_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/* the units of CHUNK_LINES lines that cover `lines` lines */
INLINE long chunks(long lines) { return (lines + CHUNK_LINES - 1) / CHUNK_LINES; }

/* line_scratch(): the doubles of one thread's scratch, the Work of the
 * longest line (which holds the cell pass's dim * nx speeds of an x line) */
long line_scratch(const Stack *st)
{
    long n = st->cells[0];
    for (int k = 1; k < st->dim; k++)
        n = st->cells[k] > n ? st->cells[k] : n;
    Work w;
    return work_init(&w, NULL, st->dim + 2, n, st->ghost);
}

/* Unit `unit` of the open phase, by thread `thread` (0 the caller, 1 the
 * helper), with that thread's scratch. */
static void do_unit(Job *job, int thread, long unit)
{
    Stack *st = job->st;
    int dim = st->dim;
    long first = unit * CHUNK_LINES;
    double *scratch = st->scratch + thread * job->scratch;
    if (job->kind == PHASE_SWEEP) {
        /* the units of a sweep: those of its first part, then of its second */
        const Sweep *sw = &job->sweep[job->axis];
        long per = chunks(sw->lines), part = unit / per;
        first = unit % per * CHUNK_LINES;
        if (first >= atomic_load(&job->failed) / 8)
            return;
        long last = first + CHUNK_LINES < sw->lines ? first + CHUNK_LINES : sw->lines, stop;
        Work w;
        work_init(&w, scratch, dim + 2, sw->n, st->ghost);
        int status = dim == 1 ? sweep_lines(sw, st, 1, first, last, part, &w, &stop)
                   : dim == 2 ? sweep_lines(sw, st, 2, first, last, part, &w, &stop)
                   : sweep_lines(sw, st, 3, first, last, part, &w, &stop);
        if (status) {
            long mine = stop * 8 + status, seen = atomic_load(&job->failed);
            while (mine < seen && !atomic_compare_exchange_weak(&job->failed, &seen, mine))
                ;
        }
    } else if (job->kind == PHASE_STAGE) {
        long lines = (dim + 2) * x_lines(st);
        stage_lines(st, first, first + CHUNK_LINES < lines ? first + CHUNK_LINES : lines,
                    job->dt, job->stage);
    } else {
        long lines = x_lines(st), last = first + CHUNK_LINES < lines ? first + CHUNK_LINES : lines;
        double *top = job->top[thread];
        job->bad[thread] |= dim == 1 ? cell_lines(st, 1, first, last, scratch, top)
                          : dim == 2 ? cell_lines(st, 2, first, last, scratch, top)
                          : cell_lines(st, 3, first, last, scratch, top);
    }
}

/* Open a phase of `units` units (its parameters set; fewer than
 * 2^UNITS_BITS), take its units from the front until none is left, and wait
 * for the units the helper took from the back. */
static void run_phase(Job *job, long units)
{
    long mine = 0;
    atomic_store(&job->done, 0);
    atomic_store(&job->next, (unsigned long)units << 2 * UNITS_BITS);
    for (;;) {
        unsigned long v = atomic_fetch_add(&job->next, 1);
        if (front(v) + back(v) >= units)
            break;
        do_unit(job, 0, front(v));
        mine++;
    }
    /* every unit is taken: wait for those of the helper */
    atomic_fetch_add(&job->done, mine);
    for (long spins = 0; atomic_load(&job->done) < units; spins++) {
        if (spins < 4096)
            cpu_relax();
        else
            sched_yield();
    }
}

/* The helper's part of a job: units of each phase while it is open, until
 * the job is over. */
static void help(Job *job)
{
    for (;;) {
        unsigned long v = atomic_load(&job->next);
        if (v == JOB_OVER)
            return;
        long units = units_of(v);
        if (front(v) + back(v) < units
            && atomic_compare_exchange_weak(&job->next, &v, v + UNITS_BACK)) {
            do_unit(job, 1, units - 1 - back(v));
            atomic_fetch_add(&job->done, 1);
        } else {
            cpu_relax();
        }
    }
}

/* ------------------------------------------------------------------------
 * The helper thread
 *
 * A job on a stack whose sweeps have at least SHARE_MIN_FACES faces is
 * posted to one helper pthread, which stays in the process.  Lines are
 * independent and each line writes only its own cells, so every bit is the
 * same whichever thread computes a line; the lowest failing line decides
 * the status and the rank, as in the serial loop.  The caller posts the job
 * and starts its first phase at once; it never waits for the helper to
 * start, only for a unit the helper has taken, and yields while it waits
 * long.  After a job the helper spins for SPIN_NS, so that the next call
 * finds it awake (a sleeping helper joined too late to help), then sleeps
 * on a condition variable.
 *
 * No helper starts where sched_getaffinity allows fewer than 2 CPUs (or
 * off Linux): it would only take turns with the caller.  A forked child
 * has no helper; its first shared call sees that the helper belongs to
 * another pid, resets the locks and the state and starts its own.  Calls
 * from several threads at once are safe: while one job holds the helper
 * (`owner`), the others run alone.
 * ------------------------------------------------------------------------ */

static struct {
    atomic_int owner;        /* pid of the process whose job holds the helper, or 0 */
    pid_t pid;               /* the process the helper runs in, 0 before the first */
    int running;             /* whether that process has a helper */
    Job *_Atomic posted;     /* the job to join, or NULL */
    atomic_ulong seq;        /* counts the jobs posted */
    atomic_int inside;       /* 1 while the helper may read the posted job */
    atomic_int sleeping;     /* 1 while the helper waits on `wake` */
    pthread_mutex_t lock;
    pthread_cond_t wake;
} helper;

/* a test seam between the helper's store of `inside` and its load of the
 * posted job, empty in the library (tests/tsan_sweeps.c widens it) */
#ifndef HELPER_BETWEEN
#define HELPER_BETWEEN() ((void)0)
#endif

/* whether a job after `seen` is posted within SPIN_NS; the spin yields,
 * so that a thread runnable on the helper's CPU goes first */
static int posted_soon(unsigned long seen)
{
    struct timespec t0, t;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    for (;;) {
        if (atomic_load(&helper.seq) != seen)
            return 1;
        sched_yield();
        clock_gettime(CLOCK_MONOTONIC, &t);
        if ((t.tv_sec - t0.tv_sec) * 1000000000L + (t.tv_nsec - t0.tv_nsec) >= SPIN_NS)
            return 0;
    }
}

static void *helper_main(void *unused)
{
    (void)unused;
    unsigned long seen = 0;
    for (;;) {
        if (!posted_soon(seen)) {
            pthread_mutex_lock(&helper.lock);
            atomic_store(&helper.sleeping, 1);
            while (atomic_load(&helper.seq) == seen)
                pthread_cond_wait(&helper.wake, &helper.lock);
            atomic_store(&helper.sleeping, 0);
            pthread_mutex_unlock(&helper.lock);
        }
        seen = atomic_load(&helper.seq);
        /* `inside` first: a caller that has withdrawn its job and then
         * reads inside == 0 knows that the helper will not read that job */
        atomic_store(&helper.inside, 1);
        HELPER_BETWEEN();
        Job *job = atomic_load(&helper.posted);
        if (job)
            help(job);
        atomic_store(&helper.inside, 0);
    }
    return NULL;
}

/* The first shared job of a process: fresh state and locks (a forked
 * child inherits the parent's, but not its helper), then the helper, with
 * every signal blocked so that they go to the caller's threads.  The helper
 * may run on every allowed CPU but the caller's: the scheduler, left to
 * itself, woke it on the caller's CPU and kept it there, so that the two
 * took turns.  Off Linux no helper starts. */
static void start_helper(pid_t pid)
{
    helper.pid = pid;
    helper.running = 0;
    atomic_store(&helper.posted, NULL);
    atomic_store(&helper.seq, 0);
    atomic_store(&helper.inside, 0);
    atomic_store(&helper.sleeping, 0);
#ifdef __linux__
    cpu_set_t others;
    int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof others, &others) || CPU_COUNT(&others) < 2)
        return;
    CPU_CLR(cpu, &others);
    pthread_attr_t attr;
    if (pthread_mutex_init(&helper.lock, NULL) || pthread_cond_init(&helper.wake, NULL)
        || pthread_attr_init(&attr))
        return;
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    pthread_attr_setaffinity_np(&attr, sizeof others, &others);
    sigset_t all, old;
    pthread_t thread;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    helper.running = pthread_create(&thread, &attr, helper_main, NULL) == 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
#endif
}

/* Post the job to the helper; returns 0 when it runs alone (one CPU, no
 * helper, or another job holds it). */
static int post_job(Job *job)
{
    pid_t pid = getpid();
    int holder = atomic_load(&helper.owner);
    /* an owner that is not this process is a parent's, left by fork */
    if (holder == pid || !atomic_compare_exchange_strong(&helper.owner, &holder, pid))
        return 0;
    if (helper.pid != pid)
        start_helper(pid);
    if (!helper.running) {
        atomic_store(&helper.owner, 0);
        return 0;
    }
    atomic_store(&helper.posted, job);
    atomic_fetch_add(&helper.seq, 1);
    if (atomic_load(&helper.sleeping)) {
        pthread_mutex_lock(&helper.lock);
        pthread_cond_signal(&helper.wake);
        pthread_mutex_unlock(&helper.lock);
    }
    return 1;
}

/* Withdraw the posted job, and wait until the helper has left it. */
static void withdraw_job(void)
{
    atomic_store(&helper.posted, NULL);
    while (atomic_load(&helper.inside))
        sched_yield();
    atomic_store(&helper.owner, 0);
}

/* ------------------------------------------------------------------------
 * The entry points on one run's stack
 * ------------------------------------------------------------------------ */

/* A job on st, with a Sweep per axis, posted to the helper when the sweeps
 * have at least SHARE_MIN_FACES faces; returns whether it was posted.  Every
 * entry point shares by this one rule. */
static int begin_job(Job *job, Stack *st)
{
    long rstr[5];
    interior_strides(st, rstr);
    memset(job, 0, sizeof *job);
    job->st = st;
    job->scratch = line_scratch(st);
    long faces = 0;
    for (int axis = 0; axis < st->dim; axis++) {
        int ax = 4 - axis, t[2], nt = 0;
        for (int a = 2; a <= 4; a++)
            if (a != ax)
                t[nt++] = a;
        long T1 = extent(st, t[0]), T2 = extent(st, t[1]);
        double delta = st->delta[axis];
        int e;
        Sweep *sw = &job->sweep[axis];
        *sw = (Sweep){
            .axis = axis, .first = axis == 0, .out = st->res,
            .u = st->u + offset(st, t[0]) * st->ustr[t[0]] + offset(st, t[1]) * st->ustr[t[1]],
            .ustr = {st->ustr[0], st->ustr[1], st->ustr[ax], st->ustr[t[0]], st->ustr[t[1]]},
            .ostr = {rstr[0], rstr[1], rstr[ax], rstr[t[0]], rstr[t[1]]},
            .n = st->cells[axis], .T1 = T1, .T2 = T2, .lines = st->ranks * T1 * T2,
            .parts = 1, .delta = delta,
            /* x / 2^k is x 2^-k, rounded once from the same exact value */
            .scale = frexp(delta, &e) == 0.5 && isfinite(1.0 / delta) ? 1.0 / delta : 0.0,
        };
        long mine = sw->lines * (sw->n + 1);
        faces = mine > faces ? mine : faces;
    }
    if (faces < SHARE_MIN_FACES || !post_job(job))
        return 0;
    /* Shared, one rank's lines along its outermost axis are swept in two
     * halves, so that the first half of the units of every phase covers the
     * same half of the grid (the cells of the first ranks, or the lower half
     * of that axis), which the caller mostly takes: each thread then finds
     * most of a phase's cells in its own cache.  At 64x64 a shared step ran
     * 1.07x as fast; alone, the halves only add work. */
    Sweep *outer = &job->sweep[st->dim - 1];
    if (st->ranks == 1 && st->dim > 1 && outer->n >= 2 * CHUNK_LINES)
        outer->parts = 2;
    return 1;
}

static void end_job(Job *job, int posted)
{
    atomic_store(&job->next, JOB_OVER);
    if (posted)
        withdraw_job();
}

/* The residual of the stack into st->res, every axis swept, the first sweep
 * checking that every interior cell is physical.  Returns the status of the
 * first sweep that fails, whose axis and rank are left in st->stop_axis and
 * st->stop_rank. */
static int residual(Job *job)
{
    Stack *st = job->st;
    for (int axis = 0; axis < st->dim; axis++) {
        const Sweep *sw = &job->sweep[axis];
        job->kind = PHASE_SWEEP;
        job->axis = axis;
        atomic_store(&job->failed, sw->lines * 8);
        run_phase(job, sw->parts * chunks(sw->lines));
        long failed = atomic_load(&job->failed);
        st->stop_axis = axis;
        st->stop_rank = (failed < sw->lines * 8 ? failed / 8 : sw->lines - 1) / (sw->T1 * sw->T2);
        if (failed < sw->lines * 8)
            return (int)(failed % 8);
    }
    return STATUS_OK;
}

/* the combination of stage s on the interior of the stack */
static void stage(Job *job, double dt, int s)
{
    job->kind = PHASE_STAGE;
    job->dt = dt, job->stage = s;
    run_phase(job, chunks((job->st->dim + 2) * x_lines(job->st)));
}

/* the end-of-step pass of cell_pass; each thread keeps its own maxima */
static int cells(Job *job)
{
    Stack *st = job->st;
    job->kind = PHASE_CELLS;
    for (int t = 0; t < 2; t++) {
        job->bad[t] = 0;
        for (int k = 0; k < 3; k++)
            job->top[t][k] = -INFINITY;
    }
    run_phase(job, chunks(x_lines(st)));
    for (int k = 0; k < st->dim; k++)
        st->maxima[k] = job->top[0][k] > job->top[1][k] ? job->top[0][k] : job->top[1][k];
    return job->bad[0] | job->bad[1];
}

/* The halo pass: the slab copies of st->halo, in order. */
static void halo_pass(const Stack *st)
{
    for (long i = 0; i < st->copies; i++) {
        const Copy *cp = &st->halo[i];
        const long *n = cp->shape, *ds = cp->dstr, *ss = cp->sstr;
        long idx[HALO_AXES - 1] = {0}, inner = n[HALO_AXES - 1];
        long di = ds[HALO_AXES - 1], si = ss[HALO_AXES - 1];
        double *dst = st->u + cp->dst;
        const double *src = st->u + cp->src;
        int empty = 0;
        for (int a = 0; a < HALO_AXES; a++)
            empty |= n[a] == 0;
        while (!empty) {
            for (long k = 0; k < inner; k++)
                dst[k * di] = src[k * si];
            /* the next row of the slab: an odometer over the outer axes */
            int a = HALO_AXES - 2;
            for (; a >= 0 && ++idx[a] == n[a]; a--) {
                idx[a] = 0;
                dst -= (n[a] - 1) * ds[a];
                src -= (n[a] - 1) * ss[a];
            }
            if (a < 0)
                break;
            dst += ds[a];
            src += ss[a];
        }
    }
}

/* The residual of the stack into st->res (see residual()). */
int euler_residual(Stack *st)
{
    Job job;
    int posted = begin_job(&job, st);
    int status = residual(&job);
    end_job(&job, posted);
    return status;
}

/* The end of a step, in one pass over the interior cells of the stack:
 * whether every cell is finite and physical (conslaw.equations
 * .physical_mask), and into st->maxima the maximum over the cells of
 * |m_k / rho| + c for each axis k, each value rounded as in
 * conslaw.equations.max_wave_speeds.  A maximum is exact and the failure an
 * OR, so neither the order of the cells nor the sharing matters.  Returns
 * 0, or 1 when a cell fails a check; the maxima are then meaningless. */
int cell_pass(Stack *st)
{
    Job job;
    int posted = begin_job(&job, st);
    int bad = cells(&job);
    end_job(&job, posted);
    return bad;
}

/* One SSP-RK step of st->stages stages, each a halo pass, a residual and a
 * combination (the first saving the state into st->start when there are
 * several), then the cell pass.  Returns 0, STATUS_CELL_PASS when a cell
 * fails the cell pass, or the status of the residual that fails, with its
 * stage in st->stop_stage (its axis and rank as euler_residual leaves
 * them); the state is then that of the stage before, its ghosts filled. */
int euler_step(Stack *st, double dt)
{
    Job job;
    int posted = begin_job(&job, st), status = STATUS_OK;
    for (int s = 0; s < st->stages && !status; s++) {
        halo_pass(st);
        st->stop_stage = s;
        status = residual(&job);
        if (!status)
            stage(&job, dt, s);
    }
    if (!status && cells(&job))
        status = STATUS_CELL_PASS;
    end_job(&job, posted);
    return status;
}
