/* Compiled kernel for seqirsim: the block runner of integrate.simulate and
 * the sojourn walk of the chain samplers.
 *
 * seqir_run_block steps one block of pre-drawn Brownian increments:
 * regime-schedule lookup, the drift of model.vector_field, the S<->E noise
 * and Milstein term of integrate._step, the non-finite check, the negativity
 * rule of integrate._clamp_negative, and storing the state at the recorded
 * steps that integrate._setup laid out (it also fills their regimes).  Every
 * floating-point operation is written in the same order as in those Python
 * functions, and the file is built with -O2 -ffp-contract=off (no fast-math),
 * so no multiply-add is fused and nothing is reordered: the recorded states
 * are bit-identical to the Python runner's.  A change to the arithmetic of
 * either side must be made on both; the backend identity test compares them.
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
        const double A = k[0], bw1 = k[1], b1 = k[2], xi = k[3], pm = k[4],
                     w2v = k[5], b2 = k[6], bcx = k[7], al = k[8], c = k[9],
                     exd = k[10], eta = k[11], sg = k[12];
        double hs = s / (1.0 + a * s);  /* PolicyFunction: a = 0 is linear */

        /* model.vector_field */
        double inc = bw1 * (s * e);
        double pmh = pm * hs;
        double fs = A - inc + b1 * q - xi * s - pmh;
        double fe = inc - w2v * e;
        double fq = b2 * e - bcx * q;
        double fi = al * e + c * q - exd * i;
        double fr = eta * i + sg * e - xi * r + pmh;

        /* integrate._step; Euler-Maruyama adds a literal 0.0 as Python does */
        double db = dB[n - n0];
        double se = s * e;
        double gdb = k[13] * se * db;
        double dm = milstein ? k[14] * se * (db * db - dt) * (e - s) : 0.0;
        s = s + fs * dt - gdb + dm;
        e = e + fe * dt + gdb - dm;
        q = q + fq * dt;
        i = i + fi * dt;
        r = r + fr * dt;

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
