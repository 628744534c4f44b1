/* Compiled block runner for seqirsim.integrate.simulate.
 *
 * Steps one block of pre-drawn Brownian increments: regime-schedule lookup,
 * the drift of model.vector_field, the S<->E noise and Milstein term of
 * integrate._step, the non-finite check, the negativity rule of
 * integrate._clamp_negative, and storing the state at the recorded steps
 * that integrate._setup laid out (it also fills their regimes).  Every
 * floating-point operation is written in the same order as in those Python
 * functions, and the file is built with -O2 -ffp-contract=off (no fast-math),
 * so no multiply-add is fused and nothing is reordered: the recorded states
 * are bit-identical to the Python runner's.  A change to the arithmetic of
 * either side must be made on both; the backend identity test compares them.
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
                    const double *consts, int milstein, int saturating, double a,
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
        double hs = saturating ? s / (1.0 + a * s) : s;

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
