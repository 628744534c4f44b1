/* Compiled kernel for seqirsim: the step loop of integrate.simulate, the
 * RK4 loop of integrate.simulate_deterministic, the sojourn walk of the
 * chain samplers, the occupancy sum of chain.occupancy and the row
 * formatter of cli._write_csv.
 *
 * drift is model.vector_field, the one C copy of it; both step loops call it.
 * seqir_run steps a whole stochastic run in one call: the regime in force at
 * each grid point, the Brownian increment, the drift, the S<->E noise and
 * Milstein term of integrate._step, the non-finite check, the negativity rule
 * of integrate._clamp_negative, and storing the state at the recorded steps
 * that integrate._setup laid out.  seqir_rk4 is the classical RK4 loop with
 * h(s) = s.  Every floating-point operation is written in the same order as
 * in those Python functions, and the file is built with -O2
 * -ffp-contract=off (no fast-math), so no multiply-add is fused and nothing
 * is reordered: the recorded states are bit-identical to the Python loops'.
 * A change to the arithmetic of either side must be made on both; the
 * backend identity tests compare them.
 *
 * seqir_run and seqir_walk (chain._walk) draw through numpy's own
 * distribution routines (linked from numpy/random/lib/libnpyrandom.a) on the
 * live bit generator of an np.random.Generator, so they consume the same
 * variates in the same stream order as the Python loops.
 *
 * seqir_occupancy adds each segment's duration into its state's slot in
 * index order, as np.bincount adds its weights, so the sums are the same.
 *
 * seqir_csv writes CSV rows with the text that repr gives each float inside
 * cli._write_csv's guard (x == 0 or 1e-4 <= |x| < 1e16): the shortest digits
 * that read back to x, nearest to x, in positional form.  The search is
 * exact, in unsigned 128-bit integers: a compiler without them fails the
 * build, and the whole kernel is then unavailable, as for any build failure.
 * No routine keeps mutable static state: ctypes calls them without the GIL.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define N_CONSTANTS 15            /* length of model.regime_constants */
#define NEGATIVITY_TOL (-1e-12)   /* integrate.NEGATIVITY_TOL */

enum { RUN_OK = 0, RUN_NEGATIVE = 1, RUN_NON_FINITE = 2 };

/* numpy/random/bitgen.h and the four routines of numpy/random/distributions.h
 * that np.random.Generator calls for standard_normal, exponential, geometric
 * and random. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_normal(bitgen_t *bitgen_state);
double random_standard_uniform(bitgen_t *bitgen_state);
double random_exponential(bitgen_t *bitgen_state, double scale);
int64_t random_geometric(bitgen_t *bitgen_state, double p);

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

/* integrate._run_py in one call: n_steps steps of dt from the state x,
 * drawing each step's increment as random_standard_normal(bitgen) * sqrt(dt),
 * which is what rng.standard_normal(k) * sqrt(dt) draws, in the same stream
 * order.  The regime of step n is regs[j] (0-based) for the last j < n_seg
 * with n * dt >= jump_times[j], as RegimePath.regime_at compares, so the
 * last of several jumps inside one step wins.  rec_steps: the recorded
 * steps; the last is n_steps, so no step is compared with an entry past it.
 * out: [0] the clamp count, [1] set on failure to the step m whose state
 * failed; x then holds that state before any clamp, and RUN_NEGATIVE or
 * RUN_NON_FINITE is returned for the caller to raise the matching error. */
int seqir_run(bitgen_t *bitgen, int64_t n_steps, double dt, const double *jump_times,
              const int64_t *regs, int64_t n_seg, const double *consts, int milstein,
              double a, int error_policy, double *x, int64_t *out,
              const int64_t *rec_steps, double *states)
{
    const double sqrt_dt = sqrt(dt);
    int64_t seg = 0, rec = 1, clamps = 0;
    double s = x[0], e = x[1], q = x[2], i = x[3], r = x[4];
    int status = RUN_OK;

    for (int64_t n = 0; n < n_steps; n++) {
        while (seg + 1 < n_seg && (double)n * dt >= jump_times[seg + 1])
            seg++;
        const double *k = consts + N_CONSTANTS * regs[seg];
        double f[5];
        drift(k, s, e, q, i, r, s / (1.0 + a * s), f);  /* PolicyFunction: a = 0 is linear */

        /* integrate._step; Euler-Maruyama adds a literal 0.0 as Python does */
        double db = random_standard_normal(bitgen) * sqrt_dt;
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
            out[1] = m;
            break;
        }

        if (m == rec_steps[rec]) {
            double *row = states + 5 * rec;
            row[0] = s; row[1] = e; row[2] = q; row[3] = i; row[4] = r;
            rec++;
        }
    }

    x[0] = s; x[1] = e; x[2] = q; x[3] = i; x[4] = r;
    out[0] = clamps;
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


/* chain._walk, resumable.  In state cur the clock advances by an exponential
 * hold of scale param[cur] (geometric = 0; the clock is the double *clock)
 * or a geometric number of steps with success probability param[cur]
 * (geometric = 1; the clock is the int64 carry[1] and t = clock * unit).
 * The walk ends, setting carry[2] = 1, before drawing in a state whose param
 * is <= 0, or at the first jump time at or past horizon.  It stops with
 * carry[2] = 2 at a jump time no later than the one before, a hold too short
 * to move a large clock, which chain._walk refuses too.  Otherwise a uniform u
 * picks the landing state: the count of entries <= u in row cur of cdfs
 * (n_states - 1 per row), which is searchsorted(row, u, side="right").
 * Each jump stores its time and 1-based regime; when cap jumps are stored
 * the walk returns with carry[0] = cur and the clock, to be called again.
 * A grid clock that would pass INT64_MAX ends the walk: chain's grid sampler
 * refuses a horizon past 2**63 * unit, so such a jump time is past it.
 * Returns the number of jumps stored; the caller grows the arrays when that
 * is cap and the walk has not ended, and calls again past them. */
int64_t seqir_walk(bitgen_t *bitgen, int geometric, const double *param,
                   const double *cdfs, int64_t n_states, double unit,
                   double horizon, double *clock, int64_t *carry,
                   double *times, int64_t *regimes, int64_t cap)
{
    int64_t cur = carry[0], steps = carry[1], n = 0;
    double dclock = *clock;

    while (n < cap) {
        double t, before = geometric ? (double)steps * unit : dclock * unit;
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
        if (!(t > before)) {
            carry[2] = 2;
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


/* chain.occupancy before the division by horizon: the path of n segments
 * starting at times[j] in the 1-based regimes[j], the last ending at
 * horizon.  For each j in order, occ (n_states entries, zeroed by the
 * caller) gets times[j + 1] - times[j], or horizon - times[n - 1] for the
 * last, added into slot regimes[j] - 1, as RegimePath.segment_durations
 * subtracts and np.bincount(regimes, weights) adds.  Returns 1, with occ
 * partly summed, at a regime outside 1..n_states; else 0. */
int seqir_occupancy(const double *times, const int64_t *regimes, int64_t n,
                    double horizon, int64_t n_states, double *occ)
{
    for (int64_t j = 0; j < n; j++) {
        const int64_t r = regimes[j];
        if (r < 1 || r > n_states)
            return 1;
        occ[r - 1] += (j + 1 < n ? times[j + 1] : horizon) - times[j];
    }
    return 0;
}


typedef unsigned __int128 u128;

#define P19 10000000000000000000u
static const uint64_t POW10[20] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u, 10000000000000u,
    100000000000000u, 1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u, P19};

/* 10^t for t in 1..21 */
static u128 pow10_wide(int t)
{
    return t < 20 ? (u128)POW10[t] : (u128)P19 * POW10[t - 19];
}

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits of v at p, two at a time from the last; returns the count. */
static int put_digits(char *p, uint64_t v)
{
    int n = 1;
    while (n < 20 && v >= POW10[n])
        n++;
    int j = n;
    while (j >= 2) {
        memcpy(p + j - 2, PAIRS + 2 * (v % 100), 2);
        v /= 100;
        j -= 2;
    }
    if (j)
        p[0] = (char)('0' + v);
    return n;
}

/* repr of a finite x with 1e-4 <= |x| < 1e16, written at p; returns the end.
 *
 * x = m 2^e with a 53-bit m and e in [-66, 1].  In units of 2^(e-2) x is
 * V = 4m, and the doubles that round to x are those inside [L, U]: U = V + 2,
 * and L = V - 2, or V - 1 at a power of two, where the gap below is half as
 * wide.  The ends belong to the interval iff m is even (round half to even).
 * No test can pin that rule in this range: an end is an odd multiple of half
 * an ulp, which never has fewer significant digits than the shortest form of
 * x and is never nearer to x, so it is never the digits chosen.
 *
 * With t = 16 - floor(E log10 2), where E = floor(log2 |x|), the multiples of
 * 10^-t inside the interval are the integers [dl, dh] between L 10^t and
 * U 10^t, shifted right by 2 - e bits: the products stay below 2^125, and
 * there are 17 or 18 significant digits at this scale, so [dl, dh] is never
 * empty (the interval is at least 3/4 ulp wide, more than 10^-t).  A
 * multiple of 10^(j+1) is a multiple of 10^j, so the coarsest scale with a
 * multiple in the interval is found by dropping one digit at a time, as
 * long as [dl, dh] still holds a multiple of 10.  Of the multiples there,
 * the one nearest V is taken, a tie to the even one, as repr takes it. */
static char *put_short(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    const int biased = (int)(bits >> 52 & 0x7ff);
    const uint64_t m = frac | UINT64_C(1) << 52;
    const int s = 2 - (biased - 1075);            /* 1 .. 68 */
    const int big_e = biased - 1023;              /* -14 .. 53 */
    const int t = 16 - (big_e >= 0 ? big_e * 78913 >> 18 : -((-big_e * 78913 + 262143) >> 18));
    const int inclusive = (m & 1) == 0;
    const u128 mask = ((u128)1 << s) - 1, scale = pow10_wide(t);
    const u128 w = (u128)(4 * m) * scale;
    const u128 lo = w - (frac ? 2 * scale : scale), hi = w + 2 * scale;

    if (bits >> 63)
        *p++ = '-';
    uint64_t dl = (uint64_t)(lo >> s) + (!inclusive || (lo & mask) != 0);
    uint64_t dh = (uint64_t)(hi >> s) - (!inclusive && (hi & mask) == 0);
    /* V at this scale is d + r / 2^s; each digit dropped from d goes to
     * last, and a nonzero one below it sets sticky */
    uint64_t d = (uint64_t)(w >> s);
    const u128 r = w & mask, half = (u128)1 << (s - 1);
    unsigned last = 0, sticky = r != 0;
    int j = 0;
    while ((dl + 9) / 10 <= dh / 10) {
        dl = (dl + 9) / 10;
        dh /= 10;
        sticky |= last;
        last = (unsigned)(d % 10);
        d /= 10;
        j++;
    }

    /* round V to the nearest integer at this scale, a tie to even */
    int above, tie;
    if (j == 0) {
        above = r > half;
        tie = r == half;
    } else {
        above = last > 5 || (last == 5 && sticky);
        tie = last == 5 && !sticky;
    }
    d += above || (tie && (d & 1));
    if (d < dl)
        d = dl;
    if (d > dh)
        d = dh;

    /* repr's positional form: x = 0.<digits> 10^decpt */
    char digits[20];
    const int n = put_digits(digits, d), decpt = n + j - t;
    if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        for (int z = 0; z < -decpt; z++)
            *p++ = '0';
        memcpy(p, digits, n);
        p += n;
    } else if (decpt < n) {
        memcpy(p, digits, decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, digits + decpt, n - decpt);
        p += n - decpt;
    } else {
        memcpy(p, digits, n);
        p += n;
        for (int z = n; z < decpt; z++)
            *p++ = '0';
        *p++ = '.';
        *p++ = '0';
    }
    return p;
}

/* v in decimal at p; returns the end */
static char *put_int(char *p, int64_t v)
{
    uint64_t u = (uint64_t)v;
    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    return p + put_digits(p, u);
}

/* Rows lo..hi-1 of a CSV table, into buf: cols[c] points at row 0 of column
 * c, strides[c] is its step in bytes and ints[c] is nonzero for an int64
 * column, else it holds doubles.  Integers are written in decimal, and a
 * double inside the guard as put_short writes it.  Any other double (nan,
 * +-inf, 0 < |x| < 1e-4, |x| >= 1e16) is left as an empty cell for the
 * caller to fill: (its byte offset in buf, its row, its column) is stored
 * in splices.  Each cell takes at most 24 bytes with its separator.  Sets
 * *n_bytes and returns the number of cells left empty. */
int64_t seqir_csv(const char *const *cols, const int64_t *strides, const int64_t *ints,
                  int64_t n_cols, int64_t lo, int64_t hi, char *buf, int64_t *splices,
                  int64_t *n_bytes)
{
    char *p = buf;
    int64_t n_splices = 0;
    for (int64_t row = lo; row < hi; row++) {
        for (int64_t c = 0; c < n_cols; c++) {
            const char *at = cols[c] + row * strides[c];
            if (c)
                *p++ = ',';
            if (ints[c]) {
                int64_t v;
                memcpy(&v, at, sizeof v);
                p = put_int(p, v);
                continue;
            }
            double x;
            memcpy(&x, at, sizeof x);
            if (x == 0.0) {
                if (signbit(x))
                    *p++ = '-';
                memcpy(p, "0.0", 3);
                p += 3;
            } else if (fabs(x) >= 1e-4 && fabs(x) < 1e16) {
                p = put_short(p, x);
            } else {
                splices[3 * n_splices] = p - buf;
                splices[3 * n_splices + 1] = row;
                splices[3 * n_splices + 2] = c;
                n_splices++;
            }
        }
        *p++ = '\n';
    }
    *n_bytes = p - buf;
    return n_splices;
}
