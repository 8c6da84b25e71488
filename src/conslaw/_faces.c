/* The compiled Euler stage: the residual of every axis, the SSP-RK
 * combination and the end-of-step pass of checks and CFL maxima.
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
 * ones.
 *
 * euler_residual describes each axis sweep by one `Sweep`, built from the
 * run's `Stack`, the one source of the scheme.  A sweep reads the padded
 * state through strides and subtracts (F[i+1] - F[i]) / delta from each
 * interior cell of the residual.  Each line of cells along the sweep axis is
 * copied to contiguous per-component arrays, so that every stage is a loop
 * over the faces of the line.  A sweep returns 0, or a nonzero status for
 * the first line that fails, ranks outermost: 1 for an unphysical face
 * state, 2 for a degenerate HLLC wave fan, 4 for an unphysical interior cell
 * (checked by the first sweep of a residual while it loads its lines); the
 * residual is then partly updated and the line's rank is left in the stack.
 * conslaw.solver locates the failing cell or face itself.
 *
 * A sweep of at least SHARE_MIN_FACES faces shares its lines with one helper
 * pthread that stays in the process and spins for SPIN_NS after each sweep
 * (see "The helper thread" below).  Each line is swept by one thread and
 * writes only its own cells, and the lowest failing line decides the
 * status, so the residual and every failure are those of the serial loop.
 * No helper starts where the process may run on fewer than 2 CPUs; a forked
 * child starts its own.  Link with -pthread.
 *
 * Entry points: `euler_residual`, `rk_stage` and `cell_pass` work on one
 * run's `Stack`: its state and the buffers it owns (the residual, the state
 * at the start of a step and the CFL maxima), which
 * conslaw.numerics.EulerStack fills once per run.  A step reads and writes
 * nothing else.
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
    STATUS_OK = 0, STATUS_UNPHYSICAL = 1, STATUS_DEGENERATE = 2, STATUS_NOMEM = 3,
    STATUS_CELL = 4
};

/* The padded state of R equal subdomains, its buffers and the scheme, as
 * conslaw.numerics.EulerStack fills them once per run.  Arrays are indexed
 * (component, rank, z, y, x); a spatial axis past `dim` has one cell, no
 * ghosts and stride 0. */
typedef struct {
    double *u;            /* the padded state at cell 0 of every axis */
    double *res;          /* the residual, contiguous */
    double *start;        /* rk_stage: the state at the start of the step, like res */
    double *maxima;       /* cell_pass: the wave speed maximum of each axis */
    long ustr[5];         /* element strides of u */
    long ranks, cells[3]; /* interior cells along x, y and z */
    int dim, ghost, weno, hllc;
    double epsilon, d0, d1, gamma, gm1, floor, delta[3];
    long stop_rank;       /* euler_residual: the rank and the axis of the */
    int stop_axis;        /* line it stopped at */
} Stack;

/* per-line scratch: n + 2g cells and n + 1 faces per component */
typedef struct {
    double *cols;             /* cells, component-major */
    double *face[2];          /* WENO states left and right of each face */
    double *d, *a0, *a1;      /* differences and WENO weights, n + 3 */
    double *p[2], *v[2], *c[2], *half_s;
    double *f[2];             /* physical fluxes, component-major */
    double *F;                /* numerical fluxes, component-major */
} Work;

/* The sharing of a sweep with the helper thread (see below).  The smallest
 * sweep shared: shared, the residual of a 32x32 grid (sweeps of 1056 faces)
 * ran 1.5x as fast, those of 64x64 and 128x128 grids 1.6x and 1.7x; the
 * sweeps of a 16x16 grid (272 faces) are one chunk each. */
#define SHARE_MIN_FACES 1024
/* how long the helper spins after a sweep before it sleeps */
#define SPIN_NS 1000000L
/* lines per chunk: a multiple of 8, so that two threads write the same
 * cache line of the residual only at the ends of rows; chunks of 3 or 7
 * lines of a 64x64 grid were slower */
#define CHUNK_LINES 16

/* One axis sweep of the stack `st`.  u: padded cell 0 of the sweep axis at
 * rank 0 and the first interior transverse cell; ustr: its element strides
 * of (component, rank, sweep axis, transverse 1, transverse 2).  out, ostr:
 * the same for interior cell 0 of the residual.  Its lines of n interior
 * cells are numbered ranks outermost, then transverse axis 1 (T1 cells),
 * then 2 (T2), the order of the serial loop, and handed out in chunks of
 * CHUNK_LINES consecutive lines from `next`.  `failed` is the lowest line
 * known to fail and its status, as line * 8 + status (every STATUS_* is
 * below 8), or lines * 8 while none has failed; no chunk starting at or
 * after that line is taken. */
typedef struct {
    Stack *st;
    int axis, check;      /* check: the interior cells must be physical */
    const double *u;
    double *out;
    long ustr[5], ostr[5];
    long n, T1, T2, lines;
    Work *spare;          /* the helper's line scratch */
    atomic_long next, failed;
} Sweep;

/* minimum / maximum: NaN propagates from either side, ties give b */
INLINE double np_min(double a, double b) { return (a < b || a != a) ? a : b; }
INLINE double np_max(double a, double b) { return (a > b || a != a) ? a : b; }

/* equations.pressure: (gamma - 1) (E - (m0^2 + m1^2 + m2^2) / (2 rho)) */
INLINE double pressure(const double *const *u, long j, int dim, double gm1)
{
    double kinetic = u[1][j] * u[1][j];
    for (int k = 1; k < dim; k++)
        kinetic = kinetic + u[1 + k][j] * u[1 + k][j];
    return gm1 * (u[1 + dim][j] - kinetic / (2.0 * u[0][j]));
}

INLINE int positive(const double *const *u, long j, double p, double floor)
{
    return (u[0][j] > floor) & (p > floor);
}

/* numerics._weno_correction: 0.5 (w0 dm + w1 dp), (w0, w1) = (am, ap) / (am + ap) */
INLINE double weno_correction(double dm, double dp, double am, double ap)
{
    double total = am + ap;
    double w0 = am / total, w1 = ap / total;
    return (w0 * dm + w1 * dp) * 0.5;
}

/* numerics.reconstruct_axis on one line of cells: the states left (fl) and
 * right (fr) of its n + 1 interior faces */
static void weno_line(const Stack *st, const double *restrict col, long n,
                      double *restrict d, double *restrict a0, double *restrict a1,
                      double *restrict fl, double *restrict fr)
{
    const double *u = col + st->ghost - 2; /* d[k] = u[k+1] - u[k], k = 0..n+2 */
    for (long k = 0; k < n + 3; k++) {
        d[k] = u[k + 1] - u[k];
        double q = d[k] * d[k] + st->epsilon;
        q = q * q;
        a0[k] = st->d0 / q;
        a1[k] = st->d1 / q;
    }
    for (long j = 0; j < n + 1; j++) {
        fl[j] = weno_correction(d[j], d[j + 1], a0[j], a1[j + 1]) + u[j + 1];
        fr[j] = u[j + 2] - weno_correction(d[j + 2], d[j + 1], a0[j + 2], a1[j + 1]);
    }
}

/* the velocity, sound speed and physical flux of one side */
INLINE void primitives(const Sweep *sw, int dim, const double *const *u, const double *p,
                       long nf, double *restrict v, double *restrict c, double *restrict f)
{
    const double *un = u[1 + sw->axis];
    for (long j = 0; j < nf; j++) {
        v[j] = un[j] / u[0][j];
        c[j] = sqrt(sw->st->gamma * p[j] / u[0][j]);
    }
    for (long j = 0; j < nf; j++)
        f[j] = un[j];
    for (int k = 0; k < dim; k++) {
        double *fk = f + (1 + k) * nf;
        if (k == sw->axis)
            for (long j = 0; j < nf; j++)
                fk[j] = u[1 + k][j] * v[j] + p[j];
        else
            for (long j = 0; j < nf; j++)
                fk[j] = u[1 + k][j] * v[j];
    }
    double *fe = f + (1 + dim) * nf;
    for (long j = 0; j < nf; j++)
        fe[j] = (u[1 + dim][j] + p[j]) * v[j];
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

/* the HLLC flux with Davis wave-speed estimates; returns STATUS_DEGENERATE
 * if any face of the line has sR <= sL */
INLINE int hllc_line(int axis, int dim, const double *const *uL, const double *const *uR,
                     long nf, Work *w)
{
    int ncomp = dim + 2, degenerate = 0;
    const double *vL = w->v[0], *cL = w->c[0], *pL = w->p[0];
    const double *vR = w->v[1], *cR = w->c[1], *pR = w->p[1];
    const double *fL = w->f[0], *fR = w->f[1];
    double *restrict F = w->F;
    for (long j = 0; j < nf; j++) {
        double rhoL = uL[0][j], rhoR = uR[0][j];
        double sL = np_min(vL[j] - cL[j], vR[j] - cR[j]);
        double sR = np_max(vL[j] + cL[j], vR[j] + cR[j]);
        degenerate |= sR - sL <= 0;
        double aL = sL - vL[j], aR = sR - vR[j];
        double mL = rhoL * aL, mR = rhoR * aR;
        double sM = ((pR[j] - pL[j]) + rhoL * vL[j] * aL - rhoR * vR[j] * aR) / (mL - mR);

        int same = 1;
        for (int c = 0; c < ncomp; c++)
            same &= uL[c][j] == uR[c][j];
        int upwind_left = (sL >= 0) | same;
        int left = sM >= 0;
        const double *f = (left | upwind_left) ? fL : fR;
        if (upwind_left | !(left | (sR > 0))) {
            for (int c = 0; c < ncomp; c++)
                F[c * nf + j] = f[c * nf + j];
            continue;
        }
        /* the star state of the side the face selects */
        const double *const *u = left ? uL : uR;
        double rho = left ? rhoL : rhoR, v = left ? vL[j] : vR[j];
        double p = left ? pL[j] : pR[j], sw = left ? sL : sR, mass = left ? mL : mR;
        double factor = mass / (sw - sM), star[MAXCOMP];
        star[0] = factor;
        for (int k = 0; k < dim; k++)
            if (k != axis)
                star[1 + k] = factor * (u[1 + k][j] / rho);
        star[1 + axis] = factor * sM;
        star[1 + dim] = factor * (u[1 + dim][j] / rho + (sM - v) * (sM + p / mass));
        for (int c = 0; c < ncomp; c++)
            F[c * nf + j] = (star[c] - u[c][j]) * sw + f[c * nf + j];
    }
    return degenerate ? STATUS_DEGENERATE : STATUS_OK;
}

/* Line l of the sweep, on a stack of `dim` dimensions: its cells at
 * line[c * sc + k * sk], k = 0..n+2g-1, and interior cell i of its residual
 * at oline[c * oc + i * oi].  With `check`, the line's interior cells must
 * be physical (conslaw.equations.physical_mask). */
INLINE int sweep_line(const Sweep *sw, int dim, long l, Work *w)
{
    const Stack *st = sw->st;
    int ncomp = dim + 2, ghost = st->ghost;
    long n = sw->n, N = n + 2 * ghost, nf = n + 1;
    long r = l / (sw->T1 * sw->T2), t1 = l / sw->T2 % sw->T1, t2 = l % sw->T2;
    const double *line = sw->u + r * sw->ustr[1] + t1 * sw->ustr[3] + t2 * sw->ustr[4];
    double *oline = sw->out + r * sw->ostr[1] + t1 * sw->ostr[3] + t2 * sw->ostr[4];
    long sc = sw->ustr[0], sk = sw->ustr[2], oc = sw->ostr[0], oi = sw->ostr[2];
    for (int c = 0; c < ncomp; c++)
        for (long k = 0; k < N; k++)
            w->cols[c * N + k] = line[c * sc + k * sk];
    const double *cells[MAXCOMP];
    for (int c = 0; c < ncomp; c++)
        cells[c] = w->cols + c * N + ghost;
    if (sw->check) {
        int bad = 0;
        for (long i = 0; i < n; i++)
            bad |= !positive(cells, i, pressure(cells, i, dim, st->gm1), st->floor);
        if (bad)
            return STATUS_CELL;
    }
    /* the face states: side 0 left of each face, side 1 right of it */
    const double *u[2][MAXCOMP];
    for (int c = 0; c < ncomp; c++) {
        const double *col = w->cols + c * N;
        if (st->weno) {
            weno_line(st, col, n, w->d, w->a0, w->a1, w->face[0] + c * nf,
                      w->face[1] + c * nf);
            u[0][c] = w->face[0] + c * nf;
            u[1][c] = w->face[1] + c * nf;
        } else {
            u[0][c] = col + ghost - 1;
            u[1][c] = col + ghost;
        }
    }
    /* one primitive pass per side */
    int bad = 0;
    double gm1 = st->gm1, floor = st->floor;
    double *restrict pl = w->p[0], *restrict pr = w->p[1];
    for (long j = 0; j < nf; j++) {
        pl[j] = pressure(u[0], j, dim, gm1);
        pr[j] = pressure(u[1], j, dim, gm1);
        bad |= !(positive(u[0], j, pl[j], floor) & positive(u[1], j, pr[j], floor));
    }
    if (bad) {
        if (!st->weno)
            return STATUS_UNPHYSICAL;
        /* first-order fallback: both sides of such a face take their cells */
        for (long j = 0; j < nf; j++) {
            if (positive(u[0], j, pl[j], floor) & positive(u[1], j, pr[j], floor))
                continue;
            for (int c = 0; c < ncomp; c++) {
                w->face[0][c * nf + j] = w->cols[c * N + ghost - 1 + j];
                w->face[1][c * nf + j] = w->cols[c * N + ghost + j];
            }
            pl[j] = pressure(u[0], j, dim, gm1);
            pr[j] = pressure(u[1], j, dim, gm1);
            if (!(positive(u[0], j, pl[j], floor) & positive(u[1], j, pr[j], floor)))
                return STATUS_UNPHYSICAL;
        }
    }
    for (int side = 0; side < 2; side++)
        primitives(sw, dim, u[side], w->p[side], nf, w->v[side], w->c[side], w->f[side]);
    if (st->hllc) {
        int status = hllc_line(sw->axis, dim, u[0], u[1], nf, w);
        if (status)
            return status;
    } else {
        rusanov_line(ncomp, u[0], u[1], nf, w);
    }
    /* the flux difference of each interior cell */
    double delta = st->delta[sw->axis];
    for (int c = 0; c < ncomp; c++) {
        const double *F = w->F + c * nf;
        double *o = oline + c * oc;
        if (oi == 1)
            for (long i = 0; i < n; i++)
                o[i] = o[i] - (F[i + 1] - F[i]) / delta;
        else
            for (long i = 0; i < n; i++)
                o[i * oi] = o[i * oi] - (F[i + 1] - F[i]) / delta;
    }
    return STATUS_OK;
}

/* the line scratch of a Work for lines of n cells, in buf */
static void work_init(Work *w, double *buf, long ncomp, long n, int ghost)
{
    long nf = n + 1;
    double *next = buf;
#define TAKE(ptr, count) (ptr = next, next += (count))
    TAKE(w->cols, ncomp * (n + 2 * ghost));
    TAKE(w->d, n + 3);
    TAKE(w->a0, n + 3);
    TAKE(w->a1, n + 3);
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
}

/* Sweep chunks of the sweep's lines until none is left below its lowest
 * failure; a failing line ends the worker's part.  Each dimension has its
 * own inlined sweep_line. */
static void take_lines(Sweep *sw, Work *w)
{
    int dim = sw->st->dim;
    for (;;) {
        long first = atomic_fetch_add(&sw->next, CHUNK_LINES);
        if (first >= atomic_load(&sw->failed) / 8)
            return;
        long last = first + CHUNK_LINES < sw->lines ? first + CHUNK_LINES : sw->lines;
        for (long l = first; l < last; l++) {
            int status = dim == 1 ? sweep_line(sw, 1, l, w)
                       : dim == 2 ? sweep_line(sw, 2, l, w) : sweep_line(sw, 3, l, w);
            if (status) {
                long mine = l * 8 + status, seen = atomic_load(&sw->failed);
                while (mine < seen && !atomic_compare_exchange_weak(&sw->failed, &seen, mine))
                    ;
                return;
            }
        }
    }
}

/* ------------------------------------------------------------------------
 * The helper thread
 *
 * A sweep of at least SHARE_MIN_FACES faces is shared with one helper
 * pthread, which stays in the process.  Lines are independent and each line
 * writes only its own cells, so every bit of the residual is the same
 * whichever thread sweeps a line; the lowest failing line decides the
 * status and the rank, as in the serial loop.  The caller posts the Sweep
 * and sweeps chunks itself at once; it never waits for the helper to start,
 * only for a chunk the helper has taken, and yields while it waits.  After a
 * sweep the helper spins for SPIN_NS, so that the next sweep finds it awake
 * (a sleeping helper joined sweeps too late to help), then sleeps on a
 * condition variable.
 *
 * No helper starts where sched_getaffinity allows fewer than 2 CPUs (or
 * off Linux): it would only take turns with the caller.  A forked child
 * has no helper; its first shared sweep sees that the helper belongs to
 * another pid, resets the locks and the state and starts its own.  Calls
 * from several threads at once are safe: while one sweep holds the helper
 * (`owner`), the others run alone.
 * ------------------------------------------------------------------------ */

static struct {
    atomic_int owner;        /* pid of the process whose sweep holds the helper, or 0 */
    pid_t pid;               /* the process the helper runs in, 0 before the first */
    int running;             /* whether that process has a helper */
    Sweep *_Atomic posted;   /* the sweep to join, or NULL */
    atomic_ulong seq;        /* counts the sweeps posted */
    atomic_int inside;       /* 1 while the helper may read the posted sweep */
    atomic_int sleeping;     /* 1 while the helper waits on `wake` */
    pthread_mutex_t lock;
    pthread_cond_t wake;
} helper;

/* a test seam between the helper's store of `inside` and its load of the
 * posted sweep, empty in the library (tests/tsan_sweeps.c widens it) */
#ifndef HELPER_BETWEEN
#define HELPER_BETWEEN() ((void)0)
#endif

/* whether a sweep after `seen` is posted within SPIN_NS; the spin yields,
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
        /* `inside` first: a caller that has withdrawn its sweep and then
         * reads inside == 0 knows that the helper will not read that sweep */
        atomic_store(&helper.inside, 1);
        HELPER_BETWEEN();
        Sweep *sw = atomic_load(&helper.posted);
        if (sw)
            take_lines(sw, sw->spare);
        atomic_store(&helper.inside, 0);
    }
    return NULL;
}

/* The first shared sweep of a process: fresh state and locks (a forked
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

/* Post the sweep to the helper; returns 0 when it runs alone (one CPU, no
 * helper, or another sweep holds it). */
static int post_sweep(Sweep *sw)
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
    atomic_store(&helper.posted, sw);
    atomic_fetch_add(&helper.seq, 1);
    if (atomic_load(&helper.sleeping)) {
        pthread_mutex_lock(&helper.lock);
        pthread_cond_signal(&helper.wake);
        pthread_mutex_unlock(&helper.lock);
    }
    return 1;
}

/* Withdraw the posted sweep once the caller has no chunk left to take, and
 * wait for the chunk the helper may still be sweeping. */
static void withdraw_sweep(void)
{
    atomic_store(&helper.posted, NULL);
    while (atomic_load(&helper.inside))
        sched_yield();
    atomic_store(&helper.owner, 0);
}

/* Sweep every line of sw, shared with the helper when it is large enough.
 * Returns the status of the first line that fails, and leaves its rank in
 * st->stop_rank (the last rank when none fails). */
static int run_sweep(Sweep *sw)
{
    long n = sw->n, ncomp = sw->st->dim + 2, ghost = sw->st->ghost, lines = sw->lines;
    int shareable = lines > CHUNK_LINES && lines * (n + 1) >= SHARE_MIN_FACES;
    /* the line scratch (see work_init) of the caller, and of the helper
     * when it may join */
    long size = ncomp * (n + 2 * ghost) + 3 * (n + 3) + (5 * ncomp + 7) * (n + 1);
    double *buf = malloc(sizeof(double) * size * (1 + shareable));
    if (!buf)
        return STATUS_NOMEM;
    Work w[2];
    work_init(&w[0], buf, ncomp, n, ghost);
    if (shareable)
        work_init(&w[1], buf + size, ncomp, n, ghost);
    sw->spare = &w[1];
    atomic_init(&sw->next, 0);
    atomic_init(&sw->failed, lines * 8);
    int shared = shareable && post_sweep(sw);
    take_lines(sw, &w[0]);
    if (shared)
        withdraw_sweep();
    free(buf);
    long failed = atomic_load(&sw->failed);
    sw->st->stop_rank = (failed < lines * 8 ? failed / 8 : lines - 1) / (sw->T1 * sw->T2);
    return failed < lines * 8 ? (int)(failed % 8) : STATUS_OK;
}

/* ------------------------------------------------------------------------
 * The entry points on one run's stack
 * ------------------------------------------------------------------------ */

/* the extent of interior array axis a = 2, 3, 4 (z, y, x) */
INLINE long extent(const Stack *st, int a) { return st->cells[4 - a]; }

/* the ghost offset of padded array axis a = 2, 3, 4 */
INLINE long offset(const Stack *st, int a) { return 4 - a < st->dim ? st->ghost : 0; }

/* the first interior cell of x line (r, z, y) of component c of the state */
INLINE double *x_line(const Stack *st, int c, long r, long z, long y)
{
    return st->u + c * st->ustr[0] + r * st->ustr[1] + (z + offset(st, 2)) * st->ustr[2]
         + (y + offset(st, 3)) * st->ustr[3] + st->ghost * st->ustr[4];
}

/* the element strides of a contiguous interior array */
static void interior_strides(const Stack *st, long *str)
{
    str[4] = 1;
    for (int a = 3; a >= 1; a--)
        str[a] = str[a + 1] * extent(st, a + 1);
    str[0] = str[1] * st->ranks;
}

/* The residual of the stack into st->res: zeroed, then every axis swept,
 * the first sweep checking that every interior cell is physical.  Returns
 * the status of the first sweep that fails, whose axis and rank are left in
 * st->stop_axis and st->stop_rank. */
int euler_residual(Stack *st)
{
    long rstr[5];
    interior_strides(st, rstr);
    memset(st->res, 0, sizeof(double) * rstr[0] * (st->dim + 2));
    for (int axis = 0; axis < st->dim; axis++) {
        int ax = 4 - axis, t[2], nt = 0;
        for (int a = 2; a <= 4; a++)
            if (a != ax)
                t[nt++] = a;
        long T1 = extent(st, t[0]), T2 = extent(st, t[1]);
        Sweep sw = {
            .st = st, .axis = axis, .check = axis == 0, .out = st->res,
            .u = st->u + offset(st, t[0]) * st->ustr[t[0]] + offset(st, t[1]) * st->ustr[t[1]],
            .ustr = {st->ustr[0], st->ustr[1], st->ustr[ax], st->ustr[t[0]], st->ustr[t[1]]},
            .ostr = {rstr[0], rstr[1], rstr[ax], rstr[t[0]], rstr[t[1]]},
            .n = st->cells[axis], .T1 = T1, .T2 = T2, .lines = st->ranks * T1 * T2,
        };
        st->stop_axis = axis;
        int status = run_sweep(&sw);
        if (status)
            return status;
    }
    return STATUS_OK;
}

enum { RK_FIRST = 0, RK_FIRST_SAVE = 1, RK_LATER = 2 };

/* one x line of a stage: u strided by sx, k (the residual) and start contiguous */
INLINE void stage_line(double *u, long sx, const double *k, double *start, long n,
                       double dt, double a, double b, int mode)
{
    if (mode == RK_LATER) {
        for (long i = 0; i < n; i++) {
            double q = k[i] * dt;
            q = q + u[i * sx];
            q = q * b;
            u[i * sx] = start[i] * a + q;
        }
    } else if (mode == RK_FIRST_SAVE) {
        for (long i = 0; i < n; i++) {
            start[i] = u[i * sx];
            u[i * sx] = u[i * sx] + k[i] * dt;
        }
    } else {
        for (long i = 0; i < n; i++)
            u[i * sx] = u[i * sx] + k[i] * dt;
    }
}

/* One SSP-RK stage on the interior of the stack, from its residual st->res.
 * Every value rounds as the reference SSP-RK step of tests/oracles.py:
 * the first stage (RK_FIRST, or RK_FIRST_SAVE, which first copies u into
 * st->start) is u + res dt, a later one (RK_LATER) start a + (res dt + u) b. */
void rk_stage(const Stack *st, double dt, double a, double b, int mode)
{
    long rstr[5];
    interior_strides(st, rstr);
    long nx = st->cells[0], sx = st->ustr[4];
    for (int c = 0; c < st->dim + 2; c++)
        for (long r = 0; r < st->ranks; r++)
            for (long z = 0; z < extent(st, 2); z++)
                for (long y = 0; y < extent(st, 3); y++) {
                    long i = c * rstr[0] + r * rstr[1] + z * rstr[2] + y * rstr[3];
                    double *u = x_line(st, c, r, z, y);
                    if (sx == 1)
                        stage_line(u, 1, st->res + i, st->start + i, nx, dt, a, b, mode);
                    else
                        stage_line(u, sx, st->res + i, st->start + i, nx, dt, a, b, mode);
                }
}

/* one x line of cell_pass, q[c] its first interior cell of component c */
INLINE int cell_line(const double *const *q, long sx, long n, int dim, double gamma,
                     double gm1, double floor, double *top)
{
    int bad = 0;
    for (long i = 0; i < n; i++) {
        long j = i * sx;
        int finite = 1;
        for (int c = 0; c < dim + 2; c++)
            finite &= q[c][j] - q[c][j] == 0;
        double rho = q[0][j], p = pressure(q, j, dim, gm1);
        bad |= !finite | !positive(q, j, p, floor);
        double c = sqrt(gamma * p / rho);
        for (int k = 0; k < dim; k++) {
            double speed = fabs(q[1 + k][j] / rho) + c;
            top[k] = speed > top[k] ? speed : top[k];
        }
    }
    return bad;
}

INLINE int cell_lines(const Stack *st, int dim, double *top)
{
    long sx = st->ustr[4], nx = st->cells[0];
    int bad = 0;
    for (long r = 0; r < st->ranks; r++)
        for (long z = 0; z < extent(st, 2); z++)
            for (long y = 0; y < extent(st, 3); y++) {
                const double *q[MAXCOMP];
                for (int c = 0; c < dim + 2; c++)
                    q[c] = x_line(st, c, r, z, y);
                if (sx == 1)
                    bad |= cell_line(q, 1, nx, dim, st->gamma, st->gm1, st->floor, top);
                else
                    bad |= cell_line(q, sx, nx, dim, st->gamma, st->gm1, st->floor, top);
            }
    return bad;
}

/* The end of a step, in one pass over the interior cells of the stack:
 * whether every cell is finite and physical (conslaw.equations
 * .physical_mask), and into st->maxima the maximum over the cells of
 * |m_k / rho| + c for each axis k, each value rounded as in
 * conslaw.equations.max_wave_speeds.  A maximum is exact, so the order of
 * the cells does not matter.  Returns 0, or 1 when a cell fails a check; the
 * maxima are then meaningless. */
int cell_pass(const Stack *st)
{
    double top[3] = {-INFINITY, -INFINITY, -INFINITY};
    int bad = st->dim == 1 ? cell_lines(st, 1, top)
            : st->dim == 2 ? cell_lines(st, 2, top) : cell_lines(st, 3, top);
    for (int k = 0; k < st->dim; k++)
        st->maxima[k] = top[k];
    return bad;
}
