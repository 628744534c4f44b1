/* Compiled kernel for seqirsim: the block runner of integrate.simulate, the
 * RK4 loop of integrate.simulate_deterministic and the sojourn walk of the
 * chain samplers.
 *
 * drift is model.vector_field, the one C copy of it; both runners call it.
 * seqir_run_block steps one block of pre-drawn Brownian increments:
 * regime-schedule lookup, the drift, the S<->E noise and Milstein term of
 * integrate._step, the non-finite check, the negativity rule of
 * integrate._clamp_negative, and storing the state at the recorded steps
 * that integrate._setup laid out (it also fills their regimes).  seqir_rk4
 * is the classical RK4 loop with h(s) = s.  Every floating-point operation
 * is written in the same order as in those Python functions, and the file is
 * built with -O2 -ffp-contract=off (no fast-math), so no multiply-add is
 * fused and nothing is reordered: the recorded states are bit-identical to
 * the Python loops'.  A change to the arithmetic of either side must be made
 * on both; the backend identity tests compare them.
 *
 * seqir_walk is chain._walk: it draws through numpy's own distribution
 * routines (linked from numpy/random/lib/libnpyrandom.a) on the live
 * bit generator of an np.random.Generator, so it consumes the same variates
 * in the same stream order as the Python loop.
 */
#include <math.h>
#include <stdint.h>

#define N_CONSTANTS 15            /* length of model.regime_constants */
#define NEGATIVITY_TOL (-1e-12)   /* integrate.NEGATIVITY_TOL */

enum { RUN_OK = 0, RUN_NEGATIVE = 1, RUN_NON_FINITE = 2 };

/* model.vector_field at (s, e, q, i, r) with the regime constants k and the
 * policy value hs, written to f[0..4]. */
static inline void drift(const double *k, double s, double e, double q, double i,
                         double r, double hs, double *f)
{
    double inc = k[1] * (s * e);
    double pmh = k[4] * hs;
    f[0] = k[0] - inc + k[2] * q - k[3] * s - pmh;
    f[1] = inc - k[5] * e;
    f[2] = k[6] * e - k[7] * q;
    f[3] = k[8] * e + k[9] * q - k[10] * i;
    f[4] = k[11] * i + k[12] * e - k[3] * r + pmh;
}

/* starts/regs: the n_sched regime segments (first step, 0-based regime);
 *   the first steps strictly increase from 0, so a step begins at most one.
 * rec_steps: the recorded steps; the last is the run's last step, so no
 *   step is compared with an entry past it.
 * carry: [0] schedule segment, [1] next record index, [2] clamp count,
 *        [3] set on failure to the step m whose state failed.
 * On failure x holds that state before any clamp, and RUN_NEGATIVE or
 * RUN_NON_FINITE is returned; the caller raises the matching error. */
int seqir_run_block(const double *dB, int64_t n0, int64_t nb, double dt,
                    const int64_t *starts, const int64_t *regs, int64_t n_sched,
                    const double *consts, int milstein, double a,
                    int error_policy, double *x, int64_t *carry,
                    const int64_t *rec_steps, double *states)
{
    int64_t seg = carry[0], rec = carry[1], clamps = carry[2];
    double s = x[0], e = x[1], q = x[2], i = x[3], r = x[4];
    int status = RUN_OK;

    for (int64_t n = n0; n < n0 + nb; n++) {
        if (seg + 1 < n_sched && n == starts[seg + 1])
            seg++;
        const double *k = consts + N_CONSTANTS * regs[seg];
        double f[5];
        drift(k, s, e, q, i, r, s / (1.0 + a * s), f);  /* PolicyFunction: a = 0 is linear */

        /* integrate._step; Euler-Maruyama adds a literal 0.0 as Python does */
        double db = dB[n - n0];
        double se = s * e;
        double gdb = k[13] * se * db;
        double dm = milstein ? k[14] * se * (db * db - dt) * (e - s) : 0.0;
        s = s + f[0] * dt - gdb + dm;
        e = e + f[1] * dt + gdb - dm;
        q = q + f[2] * dt;
        i = i + f[3] * dt;
        r = r + f[4] * dt;

        int64_t m = n + 1;
        if (!(isfinite(s) && isfinite(e) && isfinite(q) && isfinite(i) && isfinite(r))) {
            status = RUN_NON_FINITE;
        } else if (s < 0.0 || e < 0.0 || q < 0.0 || i < 0.0 || r < 0.0) {
            /* integrate._clamp_negative */
            if (error_policy && (s < NEGATIVITY_TOL || e < NEGATIVITY_TOL || q < NEGATIVITY_TOL
                                 || i < NEGATIVITY_TOL || r < NEGATIVITY_TOL)) {
                status = RUN_NEGATIVE;
            } else {
                clamps += (s < 0.0) + (e < 0.0) + (q < 0.0) + (i < 0.0) + (r < 0.0);
                if (s < 0.0) s = 0.0;
                if (e < 0.0) e = 0.0;
                if (q < 0.0) q = 0.0;
                if (i < 0.0) i = 0.0;
                if (r < 0.0) r = 0.0;
            }
        }
        if (status != RUN_OK) {
            carry[3] = m;
            break;
        }

        if (m == rec_steps[rec]) {
            double *row = states + 5 * rec;
            row[0] = s; row[1] = e; row[2] = q; row[3] = i; row[4] = r;
            rec++;
        }
    }

    x[0] = s; x[1] = e; x[2] = q; x[3] = i; x[4] = r;
    carry[0] = seg; carry[1] = rec; carry[2] = clamps;
    return status;
}


/* integrate.simulate_deterministic: classical RK4 with the regime constants k
 * and h(s) = s, from x over rec_steps[n_rec - 1] steps of dt.  rec_steps are
 * the recorded steps, starting at 0 (row 0 of states is the caller's); the
 * state after step m is stored in row j when m == rec_steps[j].  A step whose
 * state has a nan or infinite component stops the loop: x holds that state,
 * *failed the step m, and RUN_NON_FINITE is returned.  Negative states are
 * returned as computed: RK4 is noise-free and not clamped. */
int seqir_rk4(const double *k, double dt, double *x, const int64_t *rec_steps,
              int64_t n_rec, double *states, int64_t *failed)
{
    const double half = dt / 2.0, sixth = dt / 6.0;
    double y[5], y2[5], y3[5], y4[5], k1[5], k2[5], k3[5], k4[5];
    int64_t rec = 1;
    int status = RUN_OK;
    for (int j = 0; j < 5; j++)
        y[j] = x[j];

    for (int64_t m = 1; rec < n_rec; m++) {
        drift(k, y[0], y[1], y[2], y[3], y[4], y[0], k1);
        for (int j = 0; j < 5; j++)
            y2[j] = y[j] + half * k1[j];
        drift(k, y2[0], y2[1], y2[2], y2[3], y2[4], y2[0], k2);
        for (int j = 0; j < 5; j++)
            y3[j] = y[j] + half * k2[j];
        drift(k, y3[0], y3[1], y3[2], y3[3], y3[4], y3[0], k3);
        for (int j = 0; j < 5; j++)
            y4[j] = y[j] + dt * k3[j];
        drift(k, y4[0], y4[1], y4[2], y4[3], y4[4], y4[0], k4);
        int finite = 1;
        for (int j = 0; j < 5; j++) {
            y[j] = y[j] + sixth * (k1[j] + 2.0 * (k2[j] + k3[j]) + k4[j]);
            finite &= isfinite(y[j]) != 0;
        }
        if (!finite) {
            status = RUN_NON_FINITE;
            *failed = m;
            break;
        }
        if (m == rec_steps[rec]) {
            for (int j = 0; j < 5; j++)
                states[5 * rec + j] = y[j];
            rec++;
        }
    }

    for (int j = 0; j < 5; j++)
        x[j] = y[j];
    return status;
}


/* numpy/random/bitgen.h and the three routines of numpy/random/distributions.h
 * that np.random.Generator calls for exponential, geometric and random. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_uniform(bitgen_t *bitgen_state);
double random_exponential(bitgen_t *bitgen_state, double scale);
int64_t random_geometric(bitgen_t *bitgen_state, double p);

/* chain._walk, resumable.  In state cur the clock advances by an exponential
 * hold of scale param[cur] (geometric = 0; the clock is the double *clock)
 * or a geometric number of steps with success probability param[cur]
 * (geometric = 1; the clock is the int64 carry[1] and t = clock * unit).
 * The walk ends, setting carry[2], before drawing in a state whose param is
 * <= 0, or at the first jump time at or past horizon.  Otherwise a uniform u
 * picks the landing state: the count of entries <= u in row cur of cdfs
 * (n_states - 1 per row), which is searchsorted(row, u, side="right").
 * Each jump stores its time and 1-based regime; when cap jumps are stored
 * the walk returns with carry[0] = cur and the clock, to be called again.
 * A grid clock that would pass INT64_MAX ends the walk: the caller only uses
 * this kernel when horizon <= 2**63 * unit, so such a jump time is past it.
 * Returns the number of jumps stored. */
int64_t seqir_walk(bitgen_t *bitgen, int geometric, const double *param,
                   const double *cdfs, int64_t n_states, double unit,
                   double horizon, double *clock, int64_t *carry,
                   double *times, int64_t *regimes, int64_t cap)
{
    int64_t cur = carry[0], steps = carry[1], n = 0;
    double dclock = *clock;

    while (n < cap) {
        double t;
        if (!(param[cur] > 0.0)) {
            carry[2] = 1;
            break;
        }
        if (geometric) {
            int64_t hold = random_geometric(bitgen, param[cur]);
            if (hold > INT64_MAX - steps) {
                carry[2] = 1;
                break;
            }
            steps += hold;
            t = (double)steps * unit;
        } else {
            dclock += random_exponential(bitgen, param[cur]);
            t = dclock * unit;
        }
        if (t >= horizon) {
            carry[2] = 1;
            break;
        }
        double u = random_standard_uniform(bitgen);
        const double *row = cdfs + cur * (n_states - 1);
        int64_t k = 0;
        for (int64_t j = 0; j < n_states - 1; j++)
            k += row[j] <= u;
        cur = k;
        times[n] = t;
        regimes[n] = cur + 1;
        n++;
    }

    *clock = dclock;
    carry[0] = cur;
    carry[1] = steps;
    return n;
}
