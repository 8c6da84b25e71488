/* A driver of the jobs that _faces.c shares with its helper thread, built
 * twice: under ThreadSanitizer, and with the library's own flags.
 *
 * Build and run (test_tsan_sweeps.py does both):
 *
 *     gcc -fsanitize=thread -O1 -g -pthread tests/tsan_sweeps.c -lm -o tsan_sweeps
 *     ./tsan_sweeps [calls]
 *     gcc -O3 -march=native -fno-fast-math -fno-math-errno -ffp-contract=off \
 *         -fno-thread-jumps -pthread tests/tsan_sweeps.c -lm -o opt_sweeps
 *     ./opt_sweeps [calls]
 *
 * It calls euler_residual and euler_step on 2D WENO3/HLLC stacks whose
 * sweeps have at least SHARE_MIN_FACES faces, so that every call is offered
 * to the helper thread: 32x32 cells (1056 faces a sweep) on one rank, 64x64
 * cells on two ranks, and 32x32 cells on two ranks with an unphysical cell in
 * rank 1, whose sweeps race to report the lowest failing line.  A step runs
 * each stage's halo pass on the caller, then its sweeps, its combination and
 * finally the cell pass in phases that both threads take lines of, one
 * phase after the other.  Every call must give the bits, the status and the
 * stopping rank of the first (a step starts from the same state each time).
 *
 * What it catches: plain data races between the caller and the helper, an
 * unsynchronised access to the job, the line scratch, the residual, the
 * state or the per-thread maxima, such as a phase that starts before the
 * helper's lines of the one before are done.  In the sweeps of the
 * residual it flagged a withdraw that frees the scratch without waiting for
 * `inside`, and a lowest failure kept in a plain long instead of an atomic.
 * It also catches the helper storing `inside` after it loads the posted
 * job, an ordering bug that leaves no plain access unsynchronised: the
 * kernel's HELPER_BETWEEN seam, defined below, holds the helper between
 * those two accesses on every other job until the caller has withdrawn it
 * (for at most 100 ms), so that a helper that loaded the job first reads it
 * after the caller has returned.  Without the seam that mutant was not
 * flagged in a run of 20 000 residuals at 32x32 and 5 000 at 64x64; with
 * it, it fails the first 32x32 case.  What it does not catch: an ordering
 * bug elsewhere among the atomics that leaves no plain access
 * unsynchronised.  The optimized build checks the same bits at full speed,
 * with the timing windows of a run, which the sanitizer's slowdown can
 * hide: with a phase's unit count kept apart from `next`, a helper that
 * pairs a new phase's `next` with the old count runs one unit twice and
 * skips another, and calls differ in the first case of every run.
 *
 * Exit status: 0 when every call agreed, 1 when one did not, and 77 when no
 * helper thread started (fewer than 2 CPUs), so that nothing was shared.
 */

static void wait_for_withdrawal(void);
#define HELPER_BETWEEN() wait_for_withdrawal()

#include "../src/conslaw/_faces.c"

#include <stdio.h>

/* the seam between the helper's store of `inside` and its load of the
 * posted job: on every other job, yield until no job is posted, for at most
 * 100 ms (a job under ThreadSanitizer takes a few ms; the caller withdraws
 * it when it is done, never waiting for a helper that has taken no line).
 * The other half of the jobs are shared as in the library: held on every
 * sweep, the helper joined only 459 of 2800 (one run on 2 CPUs), and every
 * other sweep, 1744. */
static void wait_for_withdrawal(void)
{
    static unsigned long jobs; /* the helper's own */
    if (jobs++ % 2)
        return;
    struct timespec t0, t;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    while (atomic_load(&helper.posted)) {
        sched_yield();
        clock_gettime(CLOCK_MONOTONIC, &t);
        if ((t.tv_sec - t0.tv_sec) * 1000000000L + (t.tv_nsec - t0.tv_nsec) >= 100000000L)
            return;
    }
}

/* a smooth physical state on every padded cell of every rank: density,
 * momenta and energy of a shear layer */
static void fill_state(double *u, long n, long ranks)
{
    long p = n + 4, plane = p * p;
    for (long r = 0; r < ranks; r++)
        for (long y = 0; y < p; y++)
            for (long x = 0; x < p; x++) {
                double sx = sin(6.283185307179586 * x / p), sy = sin(6.283185307179586 * y / p);
                double rho = 1.5 + 0.4 * sx * sy + 0.1 * r, vx = 0.5 * sy, vy = 0.2 * sx;
                double e = 2.5 / 0.4 + 0.5 * rho * (vx * vx + vy * vy);
                long i = r * plane + y * p + x;
                u[i] = rho;
                u[ranks * plane + i] = rho * vx;
                u[2 * ranks * plane + i] = rho * vy;
                u[3 * ranks * plane + i] = e;
            }
}

/* the periodic halo plan of each of `ranks` n x n ranks on its own: the x
 * ghosts, then the y ghosts (as conslaw.parallel.halo_plan orders them) */
static void periodic_plan(Copy *copies, long n, long ranks)
{
    long p = n + 4, plane = p * p;
    for (int i = 0; i < 4; i++) {
        int y = i >= 2, high = i % 2;
        long along = y ? p : 1; /* the element stride of the axis */
        Copy c = {
            .dst = (high ? n + 2 : 0) * along, .src = (high ? 2 : n) * along,
            .shape = {1, 1, 1, 4, ranks, y ? 2 : p, y ? p : 2},
            .dstr = {0, 0, 0, ranks * plane, plane, p, 1},
            .sstr = {0, 0, 0, ranks * plane, plane, p, 1},
        };
        copies[i] = c;
    }
}

/* `calls` residuals, then `calls` steps, of an n x n stack of `ranks`
 * ranks, with a negative energy in interior cell (bad_y, bad_x) of the last
 * rank when bad_y >= 0 */
static int check_calls(long n, long ranks, long bad_y, long bad_x, int calls)
{
    long p = n + 4, plane = p * p, count = 4 * ranks * n * n, size = 4 * ranks * plane;
    double *u = malloc(sizeof(double) * size), *u0 = malloc(sizeof(double) * size);
    double *res = malloc(sizeof(double) * count), *first = malloc(sizeof(double) * size);
    double *start = malloc(sizeof(double) * count), maxima[3], first_maxima[3];
    Copy copies[4];
    if (!u || !u0 || !res || !first || !start)
        return 1;
    fill_state(u, n, ranks);
    if (bad_y >= 0)
        u[3 * ranks * plane + (ranks - 1) * plane + (bad_y + 2) * p + bad_x + 2] = -1.0;
    memcpy(u0, u, sizeof(double) * size);
    periodic_plan(copies, n, ranks);
    Stack st = {
        .u = u, .res = res, .start = start, .maxima = maxima, .halo = copies, .copies = 4,
        .ustr = {ranks * plane, plane, 0, p, 1}, .ranks = ranks, .cells = {n, n, 1},
        .dim = 2, .ghost = 2, .weno = 1, .hllc = 1, .stages = 3, .epsilon = 1e-6,
        .d0 = 1.0 / 3.0, .d1 = 2.0 / 3.0, .gamma = 1.4, .gm1 = 0.4, .floor = 1e-12,
        .delta = {1.0 / n, 1.0 / n, 0.0}, .a = {0.0, 0.75, 1.0 / 3.0},
        .b = {0.0, 0.25, 2.0 / 3.0},
    };
    double *scratch = malloc(sizeof(double) * 2 * line_scratch(&st));
    if (!scratch)
        return 1;
    st.scratch = scratch;
    int want = euler_residual(&st), failed = 0;
    long want_rank = st.stop_rank;
    memcpy(first, res, sizeof(double) * count);
    for (int call = 1; call < calls && !failed; call++) {
        int status = euler_residual(&st);
        failed = status != want || st.stop_rank != want_rank
              || (!want && memcmp(first, res, sizeof(double) * count));
    }
    printf("%ldx%ld cells on %ld rank(s)%s: %d residuals, status %d, rank %ld: %s\n", n, n,
           ranks, bad_y >= 0 ? " with a bad cell" : "", calls, want, want_rank,
           failed ? "a call differed" : "every call agreed");
    int residuals_failed = failed || (bad_y >= 0 && (want != STATUS_CELL || want_rank != ranks - 1));
    /* steps, each from the initial state */
    double dt = 0.1 / n;
    int step = euler_step(&st, dt);
    long step_rank = st.stop_rank;
    memcpy(first, u, sizeof(double) * size);
    memcpy(first_maxima, maxima, sizeof maxima);
    failed = 0;
    for (int call = 1; call < calls && !failed; call++) {
        memcpy(u, u0, sizeof(double) * size);
        int status = euler_step(&st, dt);
        failed = status != step || st.stop_rank != step_rank
              || memcmp(first, u, sizeof(double) * size)
              || (!step && memcmp(first_maxima, maxima, sizeof(double) * 2));
    }
    printf("%ldx%ld cells on %ld rank(s)%s: %d steps, status %d, rank %ld: %s\n", n, n,
           ranks, bad_y >= 0 ? " with a bad cell" : "", calls, step, step_rank,
           failed ? "a call differed" : "every call agreed");
    free(u);
    free(u0);
    free(res);
    free(first);
    free(start);
    free(scratch);
    return residuals_failed || failed
        || (bad_y >= 0 ? step != STATUS_CELL || step_rank != ranks - 1 : step != STATUS_OK);
}

int main(int argc, char **argv)
{
    int calls = argc > 1 ? atoi(argv[1]) : 800;
    int failed = check_calls(32, 1, -1, 0, calls);
    if (!helper.running) {
        printf("no helper thread started: nothing was shared\n");
        return 77;
    }
    failed |= check_calls(64, 2, -1, 0, calls / 4);
    failed |= check_calls(32, 2, 20, 7, calls);
    return failed;
}
