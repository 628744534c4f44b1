/* Compiled kernel for seqirsim: the step loop of integrate.simulate, the
 * RK4 loop of integrate.simulate_deterministic, the sojourn walk of the
 * chain samplers, which sums its own occupancy, and the row formatter of
 * cli._write_csv.
 *
 * drift is model.vector_field, the one C text of it: both step loops call it,
 * seqir_run on the lanes of a vector.  seqir_run steps one or two whole
 * stochastic runs in one call, in the two double lanes of a 16-byte vector
 * (SSE2 on x86-64, NEON on aarch64), each lane doing the scalar operations
 * in the scalar order: the regime in force at each grid point, the Brownian
 * increment, the drift, the S<->E noise and Milstein term of
 * integrate._step, the non-finite check, the negativity rule of
 * integrate._clamp_negative, and storing the state at the recorded steps
 * that integrate._setup laid out.  Its loop is written once, for a constant
 * lane count, so a lone run pays for one lane.  seqir_rk4 is the classical RK4 loop with
 * h(s) = s.  Every floating-point operation is written in the same order as
 * in those Python functions, and the file is built with -O2
 * -ffp-contract=off (no fast-math), so no multiply-add is fused and nothing
 * is reordered: the recorded states are bit-identical to the Python loops'.
 * A change to the arithmetic of either side must be made on both; the
 * backend identity tests compare them.
 *
 * seqir_run and seqir_walk (chain._walk) draw on the live bit generator of
 * an np.random.Generator, so they consume the same variates in the same
 * stream order as the Python loops.  Their normals and exponentials take
 * the fast path of numpy's ziggurats inline, with numpy's own tables, which
 * seqir_ziggurat reads out of numpy's routines (linked from
 * numpy/random/lib/libnpyrandom.a) and checks against them at load time;
 * the ~1% of words that miss it are handed, through a replay generator, to
 * those routines, which run their tail and wedge as numpy writes them.
 *
 * seqir_csv writes CSV rows with the text that repr gives each float inside
 * cli._write_csv's guard (x == 0 or 1e-4 <= |x| < 1e16): the shortest digits
 * that read back to x, nearest to x, in positional form.  The search is
 * exact, in 64 x 64-bit products with unsigned 128-bit results (a compiler
 * without them fails the build, and the whole kernel is then unavailable, as
 * for any build failure), and branch-free until more than two digits can go.
 * One digit writer serves floats and integers: it makes 18 ASCII digits in
 * 64-bit words and stores them with fixed-size stores in place, each inside
 * the cell's 24 bytes, so no byte is written past the caller's buffer.
 * No routine keeps mutable static state: ctypes calls them without the GIL.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define N_CONSTANTS 15            /* length of model.regime_constants */
#define NEGATIVITY_TOL (-1e-12)   /* integrate.NEGATIVITY_TOL */

enum { RUN_OK = 0, RUN_NEGATIVE = 1, RUN_NON_FINITE = 2 };

/* numpy/random/bitgen.h and the three routines of numpy/random/distributions.h
 * that np.random.Generator calls for standard_normal, exponential (times
 * its scale) and geometric; its random is next_double. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_normal(bitgen_t *bitgen_state);
double random_standard_exponential(bitgen_t *bitgen_state);
int64_t random_geometric(bitgen_t *bitgen_state, double p);

/* The fast paths of numpy's two ziggurats (Marsaglia & Tsang 2000).  A
 * normal takes one word r: box idx = r & 0xff, sign bit 8, magnitude
 * rabs = r >> 9 (52 bits); it is rabs * wi[idx], negated if the sign bit is
 * set, whenever rabs < ki[idx].  An exponential takes box (r >> 3) & 0xff and
 * magnitude r >> 11 (53 bits), and is that magnitude times we[idx] whenever
 * it is below ke[idx].  seqir_ziggurat fills the tables. */
typedef struct ziggurat {
    double wi[256];
    uint64_t ki[256];
    double we[256];
    uint64_t ke[256];
} ziggurat_t;

/* A bit generator whose first word is one already drawn from live and
 * whose every later draw is live's: a routine run on it draws exactly what
 * it would have drawn on live had the word not been taken yet. */
typedef struct replay {
    bitgen_t *live;
    uint64_t word;
    int replayed;
} replay_t;

static uint64_t replay_uint64(void *st)
{
    replay_t *p = st;
    if (!p->replayed++)
        return p->word;
    return p->live->next_uint64(p->live->state);
}

static uint32_t replay_uint32(void *st)
{
    replay_t *p = st;
    return p->live->next_uint32(p->live->state);
}

static double replay_double(void *st)
{
    replay_t *p = st;
    return p->live->next_double(p->live->state);
}

static uint64_t replay_raw(void *st)
{
    replay_t *p = st;
    return p->live->next_raw(p->live->state);
}

/* draw(bitgen) for a word r that bitgen has already given and that missed
 * the fast path: numpy's routine starts again from r and goes on to the
 * tail or the wedge, drawing any further words and uniforms from bitgen. */
static double replayed(bitgen_t *bitgen, uint64_t r, double (*draw)(bitgen_t *))
{
    replay_t p = {bitgen, r, 0};
    bitgen_t replay = {&p, replay_uint64, replay_uint32, replay_double, replay_raw};
    return draw(&replay);
}

/* random_standard_normal(bitgen), with numpy's sign branch replaced by an
 * XOR of bit 8 into the sign bit, which negates every double alike. */
static inline double normal(bitgen_t *bitgen, const ziggurat_t *z)
{
    uint64_t r = bitgen->next_uint64(bitgen->state);
    uint64_t rabs = r >> 9 & 0x000fffffffffffff;
    int idx = r & 0xff;
    if (rabs < z->ki[idx]) {
        double x = (double)(int64_t)rabs * z->wi[idx];  /* exact: rabs < 2^52 */
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r & 0x100) << 55;
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    return replayed(bitgen, r, random_standard_normal);
}

/* random_standard_exponential(bitgen) */
static inline double exponential(bitgen_t *bitgen, const ziggurat_t *z)
{
    uint64_t r = bitgen->next_uint64(bitgen->state);
    uint64_t ri = r >> 3;
    int idx = ri & 0xff;
    ri >>= 8;
    if (ri < z->ke[idx])
        return (double)(int64_t)ri * z->we[idx];
    return replayed(bitgen, r, random_standard_exponential);
}

/* A bit generator that gives one scripted word, then words of 0 and
 * uniforms of 0.5, and counts them.  On words of 0 both routines return
 * (box 0 at magnitude 0: its fast path or its tail), and a uniform of 0.5
 * ends the normal's tail, so a routine run on it returns. */
typedef struct script {
    uint64_t word;
    int words, uniforms;
} script_t;

static uint64_t script_uint64(void *st)
{
    script_t *p = st;
    return p->words++ ? 0 : p->word;
}

static uint32_t script_uint32(void *st)
{
    return (uint32_t)script_uint64(st);
}

static double script_double(void *st)
{
    ((script_t *)st)->uniforms++;
    return 0.5;
}

/* One ziggurat: numpy's routine, its inline copy, and where a word holds
 * the box and the magnitude m (below 2^bits); other holds the word's other
 * bits that matter: the normal's sign, and three that the exponential skips. */
typedef struct layout {
    double (*numpy)(bitgen_t *);
    double (*inline_copy)(bitgen_t *, const ziggurat_t *);
    int box_at, m_at, bits;
    uint64_t other;
} layout_t;

static const layout_t NORMAL = {random_standard_normal, normal, 0, 9, 52, 0x100};
static const layout_t EXPONENTIAL = {random_standard_exponential, exponential, 3, 11, 53, 0x7};

/* The outcome of one draw on the script: the bits of the result and the
 * words and uniforms taken. */
typedef struct probe {
    uint64_t bits;
    int words, uniforms;
} probe_t;

/* numpy's routine (z == NULL) or the inline copy on z, run on the script */
static probe_t run_script(const layout_t *zig, uint64_t word, const ziggurat_t *z)
{
    script_t s = {word, 0, 0};
    bitgen_t script = {&s, script_uint64, script_uint32, script_double, script_uint64};
    double x = z ? zig->inline_copy(&script, z) : zig->numpy(&script);
    probe_t out = {0, s.words, s.uniforms};
    memcpy(&out.bits, &x, sizeof x);
    return out;
}

/* Reads one ziggurat's tables out of numpy's routine: k[idx] is the least m
 * that leaves the fast path, bisected from m = 0 (numpy's k of box 1 is 0),
 * and w[idx] the draw at m = 1, which is 1 * w[idx] wherever m = 1 is fast. */
static void probe_tables(const layout_t *zig, double *w, uint64_t *k)
{
    for (uint64_t idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = (uint64_t)1 << zig->bits;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe_t p = run_script(zig, mid << zig->m_at | idx << zig->box_at, NULL);
            if (p.words == 1 && p.uniforms == 0)
                lo = mid + 1;
            else
                hi = mid;
        }
        k[idx] = hi;
        probe_t one = run_script(zig, (uint64_t)1 << zig->m_at | idx << zig->box_at, NULL);
        memcpy(&w[idx], &one.bits, sizeof one.bits);
    }
}

/* 0 if the inline copy on z and numpy's routine return the same bits and
 * take the same words and uniforms on every box at m = 0, 1, k - 1, k and
 * the largest m, with the other bits clear and set; else 1 + the first box
 * where they differ. */
static int check_tables(const layout_t *zig, const uint64_t *k, const ziggurat_t *z)
{
    const uint64_t top = ((uint64_t)1 << zig->bits) - 1;
    for (uint64_t idx = 0; idx < 256; idx++) {
        const uint64_t ms[5] = {0, 1, k[idx] - 1, k[idx], top};
        for (int j = 0; j < 10; j++) {
            if (ms[j / 2] > top)  /* k - 1 at k = 0, or k past the largest m */
                continue;
            uint64_t word = ms[j / 2] << zig->m_at | idx << zig->box_at | (j & 1) * zig->other;
            probe_t ours = run_script(zig, word, z), theirs = run_script(zig, word, NULL);
            if (ours.bits != theirs.bits || ours.words != theirs.words
                || ours.uniforms != theirs.uniforms)
                return 1 + (int)idx;
        }
    }
    return 0;
}

/* Fills z from numpy's routines and checks it against them: 0 on success,
 * else 1 + the first normal box or 257 + the first exponential box whose
 * draws differ from numpy's.  The kernel must not be used unless it is 0. */
int seqir_ziggurat(ziggurat_t *z)
{
    probe_tables(&NORMAL, z->wi, z->ki);
    probe_tables(&EXPONENTIAL, z->we, z->ke);
    int normal_bad = check_tables(&NORMAL, z->ki, z);
    int exponential_bad = check_tables(&EXPONENTIAL, z->ke, z);
    return normal_bad ? normal_bad : exponential_bad ? 256 + exponential_bad : 0;
}

/* The two double lanes of a 16-byte vector (SSE2 on x86-64, NEON on
 * aarch64), and the mask that a comparison of two of them gives.  Each
 * lane's arithmetic is the scalar operation, rounded alike. */
typedef double vd __attribute__((vector_size(16)));
typedef int64_t vmask __attribute__((vector_size(16)));

/* model.vector_field at (s, e, q, i, r) with the regime constants k and the
 * policy value hs, written to f[0..4]: drift on doubles (seqir_rk4) and
 * drift_lanes on the lanes of vd (seqir_run), one text for both. */
#define DRIFT(name, T)                                                          \
    static inline void name(const T *k, T s, T e, T q, T i, T r, T hs, T *f)    \
    {                                                                           \
        T inc = k[1] * (s * e);                                                 \
        T pmh = k[4] * hs;                                                      \
        f[0] = k[0] - inc + k[2] * q - k[3] * s - pmh;                          \
        f[1] = inc - k[5] * e;                                                  \
        f[2] = k[6] * e - k[7] * q;                                             \
        f[3] = k[8] * e + k[9] * q - k[10] * i;                                 \
        f[4] = k[11] * i + k[12] * e - k[3] * r + pmh;                          \
    }
DRIFT(drift, double)
DRIFT(drift_lanes, vd)

/* One member of a seqir_run call: its stream, its regime path (regs[j],
 * 0-based, from jump_times[j] on, n_seg segments), its state x (the initial
 * state in, the final or failing state out), out ([0] the clamp count, [1]
 * the step m whose state failed, [2] RUN_OK or the failure) and its recorded
 * states, row 0 the caller's.  Python passes it as 7 words of an array. */
typedef struct lane {
    bitgen_t *bitgen;
    const double *jump_times;
    const int64_t *regs;
    int64_t n_seg;
    double *x;
    int64_t *out;
    double *states;
} lane_t;

/* What the lanes of one call share: the grid, the scheme and policy, and
 * the table of regime constants; and how far the call has stepped. */
typedef struct grid {
    const ziggurat_t *z;
    int64_t n_steps;
    double dt;
    const double *consts;
    int milstein;
    double a;
    int error_policy;
    const int64_t *rec_steps;
    int64_t n, rec;       /* the next step to take, the next row to record */
} grid_t;

/* integrate._clamp_negative, and the non-finite check before it, on lane l
 * of the state v[5][2]: RUN_OK (clamped, and counted in *clamps, if need
 * be) or the failure, v then unchanged. */
static int settle(double v[5][2], int l, int error_policy, int64_t *clamps)
{
    int negative = 0, below = 0;
    for (int j = 0; j < 5; j++) {
        if (!isfinite(v[j][l]))
            return RUN_NON_FINITE;
        negative += v[j][l] < 0.0;
        below |= v[j][l] < NEGATIVITY_TOL;
    }
    if (negative && error_policy && below)
        return RUN_NEGATIVE;
    *clamps += negative;
    for (int j = 0; j < 5; j++)
        if (v[j][l] < 0.0)
            v[j][l] = 0.0;
    return RUN_OK;
}

/* The step loop of seqir_run on L = 1 or 2 lanes, from step g->n: L is a
 * constant at each call, so a lone lane pays for one lane's bookkeeping.
 * Lane l steps in element l of each vector; a lone lane runs in both
 * elements alike (the same draw, constants and state), so the second never
 * holds a value that the first does not.  Returns 0 once every lane has
 * taken the last step, storing x and the clamp count; else the mask of the
 * lanes whose state failed at step g->n, which have stopped drawing, with
 * their x, out[1] and out[2] set.  A lane that did not fail has then taken
 * that step, recorded it and stored its state in x, and g->n and g->rec are
 * where it resumes. */
static inline __attribute__((always_inline)) int
step_lanes(const int L, grid_t *g, lane_t *lane)
{
    const double dt = g->dt, sqrt_dt = sqrt(dt);
    const vd DT = {dt, dt}, SQRT_DT = {sqrt_dt, sqrt_dt}, A = {g->a, g->a};
    const vd ZERO = {0.0, 0.0}, ONE = {1.0, 1.0}, TOP = {DBL_MAX, DBL_MAX};
    const int64_t n_steps = g->n_steps, *rec_steps = g->rec_steps;
    int64_t rec = g->rec;
    bitgen_t *bitgen[2];
    const double *k[2];      /* each lane's constants row */
    double next[2];          /* each lane's next jump time, inf past its last */
    int64_t seg[2], clamps[2];
    vd K[N_CONSTANTS];
    double v[5][2];

    for (int l = 0; l < L; l++) {
        bitgen[l] = lane[l].bitgen;
        /* the segment in force at step n; a lane starts in segment 0 */
        seg[l] = 0;
        while (seg[l] + 1 < lane[l].n_seg && (double)g->n * dt >= lane[l].jump_times[seg[l] + 1])
            seg[l]++;
        next[l] = seg[l] + 1 < lane[l].n_seg ? lane[l].jump_times[seg[l] + 1] : INFINITY;
        k[l] = g->consts + N_CONSTANTS * lane[l].regs[seg[l]];
        clamps[l] = lane[l].out[0];
        for (int j = 0; j < 5; j++)
            v[j][l] = lane[l].x[j];
    }
    for (int j = 0; j < N_CONSTANTS; j++)
        K[j] = (vd){k[0][j], k[L - 1][j]};
    vd s = {v[0][0], v[0][L - 1]}, e = {v[1][0], v[1][L - 1]}, q = {v[2][0], v[2][L - 1]};
    vd i = {v[3][0], v[3][L - 1]}, r = {v[4][0], v[4][L - 1]};

    int failed = 0;
    int64_t n = g->n;
    for (; n < n_steps; n++) {
        /* the regime of step n: the last of several jumps inside one step wins */
        int jumped = 0;
        for (int l = 0; l < L; l++) {
            if ((double)n * dt >= next[l]) {
                do {
                    seg[l]++;
                    next[l] = seg[l] + 1 < lane[l].n_seg ? lane[l].jump_times[seg[l] + 1] : INFINITY;
                } while ((double)n * dt >= next[l]);
                k[l] = g->consts + N_CONSTANTS * lane[l].regs[seg[l]];
                jumped = 1;
            }
        }
        if (jumped)
            for (int j = 0; j < N_CONSTANTS; j++)
                K[j] = (vd){k[0][j], k[L - 1][j]};

        /* integrate._step; Euler-Maruyama adds a literal 0.0 as Python does */
        const double d0 = normal(bitgen[0], g->z);
        const double d1 = L == 2 ? normal(bitgen[L - 1], g->z) : d0;
        const vd db = (vd){d0, d1} * SQRT_DT;
        vd f[5];
        drift_lanes(K, s, e, q, i, r, s / (ONE + A * s), f);  /* PolicyFunction: a = 0 is linear */
        const vd se = s * e;
        const vd gdb = K[13] * se * db;
        const vd dm = g->milstein ? K[14] * se * (db * db - DT) * (e - s) : ZERO;
        s = s + f[0] * DT - gdb + dm;
        e = e + f[1] * DT + gdb - dm;
        q = q + f[2] * DT;
        i = i + f[3] * DT;
        r = r + f[4] * DT;

        /* every component finite and >= 0 in every lane (nan fails both tests) */
        const vmask fine = (s >= ZERO) & (s <= TOP) & (e >= ZERO) & (e <= TOP) & (q >= ZERO)
                           & (q <= TOP) & (i >= ZERO) & (i <= TOP) & (r >= ZERO) & (r <= TOP);
        const int64_t m = n + 1;
        if (!(L == 2 ? fine[0] & fine[1] : fine[0])) {
            for (int l = 0; l < L; l++) {
                v[0][l] = s[l]; v[1][l] = e[l]; v[2][l] = q[l]; v[3][l] = i[l]; v[4][l] = r[l];
            }
            for (int l = 0; l < L; l++) {
                const int status = settle(v, l, g->error_policy, &clamps[l]);
                if (status) {
                    failed |= 1 << l;
                    for (int j = 0; j < 5; j++)
                        lane[l].x[j] = v[j][l];
                    lane[l].out[1] = m;
                    lane[l].out[2] = status;
                }
            }
            s = (vd){v[0][0], v[0][L - 1]}; e = (vd){v[1][0], v[1][L - 1]};
            q = (vd){v[2][0], v[2][L - 1]}; i = (vd){v[3][0], v[3][L - 1]};
            r = (vd){v[4][0], v[4][L - 1]};
        }

        if (m == rec_steps[rec]) {
            for (int l = 0; l < L; l++) {
                if (failed >> l & 1)
                    continue;
                double *row = lane[l].states + 5 * rec;
                row[0] = s[l]; row[1] = e[l]; row[2] = q[l]; row[3] = i[l]; row[4] = r[l];
            }
            rec++;
        }
        if (failed)
            break;
    }

    for (int l = 0; l < L; l++) {
        lane[l].out[0] = clamps[l];
        if (failed >> l & 1)
            continue;
        lane[l].x[0] = s[l]; lane[l].x[1] = e[l]; lane[l].x[2] = q[l];
        lane[l].x[3] = i[l]; lane[l].x[4] = r[l];
    }
    g->n = n + 1;
    g->rec = rec;
    return failed;
}

static int step_one(grid_t *g, lane_t *lane)
{
    return step_lanes(1, g, lane);
}

static int step_two(grid_t *g, lane_t *lane)
{
    return step_lanes(2, g, lane);
}

/* integrate._run_py on n_lanes = 1 or 2 members in one call: n_steps steps of
 * dt from each lane's x, drawing each step's increment as normal(bitgen, z) *
 * sqrt(dt) on the lane's own generator, with the tables z of seqir_ziggurat,
 * which is what rng.standard_normal(k) * sqrt(dt) draws, in the same stream
 * order.  The regime of step n is regs[j] (0-based) for the last j < n_seg
 * with n * dt >= jump_times[j], as RegimePath.regime_at compares, so the last
 * of several jumps inside one step wins.  rec_steps: the recorded steps; the
 * last is n_steps, so no step is compared with an entry past it.  The lanes
 * share the grid, scheme, policy and the table consts of every regime's
 * constants; each has its own path, constants row, stream, clamp count and
 * failure.  A lane whose state fails stops there, as a lone run does: x
 * holds that state before any clamp, out[1] the step and out[2] the failure
 * for the caller to raise; the other lane steps on alone to the end.
 * Returns the number of lanes that failed. */
int seqir_run(const ziggurat_t *z, int64_t n_steps, double dt, const double *consts,
              int milstein, double a, int error_policy, const int64_t *rec_steps,
              lane_t *lanes, int n_lanes)
{
    grid_t g = {z, n_steps, dt, consts, milstein, a, error_policy, rec_steps, 0, 1};
    if (n_lanes == 1)
        return step_one(&g, lanes) != 0;
    const int failed = step_two(&g, lanes);
    if (failed == 1 || failed == 2) {
        /* the other lane resumes at the next step, alone */
        lane_t *rest = lanes + (failed == 1);
        if (g.n < n_steps)
            return 1 + (step_one(&g, rest) != 0);
        return 1;
    }
    return failed ? 2 : 0;
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


/* chain._walk, resumable, with the tables z of seqir_ziggurat.  In state cur
 * the clock advances by an exponential hold of scale param[cur] (geometric =
 * 0; the clock is the double *clock) or a geometric number of steps with
 * success probability param[cur] (geometric = 1; the clock is the int64
 * carry[1] and t = clock * unit).
 * The walk ends, setting carry[2] = 1, before drawing in a state whose param
 * is <= 0, or at the first jump time at or past horizon.  It stops with
 * carry[2] = 2 at a jump time no later than the one before, a hold too short
 * to move a large clock, which chain._walk refuses too.  Otherwise a uniform u
 * picks the landing state: the count of entries <= u in row cur of cdfs
 * (n_states - 1 per row), which is searchsorted(row, u, side="right").
 * Each jump stores its time and 1-based regime; when cap jumps are stored
 * the walk returns with carry[0] = cur and the clock, to be called again.
 * occ (n_states entries, zeroed by the caller before the first call) gets
 * each segment's duration added into slot cur as the walk leaves it: t -
 * before at a jump, and horizon - before when the walk ends, where before is
 * the segment's start.  That is the subtraction of
 * RegimePath.segment_durations, added in index order as np.bincount adds the
 * weights of chain.occupancy, so the sums have its bytes.
 * A grid clock that would pass INT64_MAX ends the walk: chain's grid sampler
 * refuses a horizon past 2**63 * unit, so such a jump time is past it.
 * Returns the number of jumps stored; the caller grows the arrays when that
 * is cap and the walk has not ended, and calls again past them. */
int64_t seqir_walk(bitgen_t *bitgen, const ziggurat_t *z, int geometric, const double *param,
                   const double *cdfs, int64_t n_states, double unit,
                   double horizon, double *clock, int64_t *carry,
                   double *times, int64_t *regimes, int64_t cap, double *occ)
{
    int64_t cur = carry[0], steps = carry[1], n = 0;
    double dclock = *clock, before = 0.0;

    while (n < cap) {
        double t;
        before = geometric ? (double)steps * unit : dclock * unit;
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
            dclock += param[cur] * exponential(bitgen, z);  /* random_exponential */
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
        double u = bitgen->next_double(bitgen->state);  /* random_standard_uniform */
        const double *row = cdfs + cur * (n_states - 1);
        int64_t k = 0;
        for (int64_t j = 0; j < n_states - 1; j++)
            k += row[j] <= u;
        occ[cur] += t - before;
        cur = k;
        times[n] = t;
        regimes[n] = cur + 1;
        n++;
    }

    if (carry[2] == 1)
        occ[cur] += horizon - before;
    *clock = dclock;
    carry[0] = cur;
    carry[1] = steps;
    return n;
}


typedef unsigned __int128 u128;

static const uint64_t POW10[19] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u, 10000000000000u,
    100000000000000u, 1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u};

/* w at p, its lowest byte first, on either byte order */
static inline void store8(char *p, uint64_t w)
{
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    w = __builtin_bswap64(w);
#endif
    memcpy(p, &w, sizeof w);
}

/* The 8 decimal digits of v < 10^8 in ASCII, zero-padded, the first in the
 * lowest byte.  v splits into two 4-digit lanes of the word, each lane into
 * two 2-digit lanes and each of those into two digits: at each step a lane y
 * becomes (y / k) + (y mod k) 2^w, that is y 2^w - (y / k) (k 2^w - 1), with
 * quotients by multiply-shift that are exact in these ranges (y / 100 for
 * y < 43699, y / 10 for y < 179) and no carry between lanes. */
static inline uint64_t ascii8(uint64_t v)
{
    const uint64_t q = v / 10000;
    uint64_t x = (v << 32) - q * ((UINT64_C(10000) << 32) - 1);
    uint64_t hi = (x * 10486 >> 20) & UINT64_C(0x0000007F0000007F);
    x = (x << 16) - hi * ((100 << 16) - 1);
    hi = (x * 103 >> 10) & UINT64_C(0x000F000F000F000F);
    return (x << 8) - hi * ((10 << 8) - 1) + UINT64_C(0x3030303030303030);
}

/* The digit writer of put_short and put_int: the 18 decimal digits of
 * v < 10^18 in ASCII, zero-padded, the first 8 in lo, the next 8 in hi and
 * the last 2 in tail, each with its first digit in the lowest byte.  A value
 * of n < 18 digits scaled by 10^(18-n) has its digits first, so that the
 * fixed-size stores of put_text write them wherever they go. */
typedef struct {
    uint64_t lo, hi;
    unsigned tail;
} text18;

static inline text18 ascii18(uint64_t v)
{
    const uint64_t top = v / 10000000000u, v100 = v / 100;
    const uint64_t last = v - 100 * v100;
    const text18 text = {ascii8(top), ascii8(v100 - 100000000 * top),
                         (unsigned)((last << 8) - (last * 103 >> 10) * 2559 + 0x3030)};
    return text;
}

/* the 18 characters of text at p; returns the end of the first n */
static inline char *put_text(char *p, text18 text, int n)
{
    store8(p, text.lo);
    store8(p + 8, text.hi);
    p[16] = (char)text.tail;
    p[17] = (char)(text.tail >> 8);
    return p + n;
}

/* The scale of put_short's search for each exponent of the guard, biased
 * 1009 .. 1076 (E = biased - 1023 in -14 .. 53): t = 16 - floor(E log10 2),
 * and 10^t = 10^(t-low) 10^low with low = min(t, 19), so that each factor
 * fits 64 bits.  scale is 10^low shifted up to bit 63 (by z), and up is
 * 10^(t-low) shifted by g = biased - 1009 - z, in 0 .. 7: then for
 * x = m 2^e, 4m 10^t / 2^(2-e) = (4m up) scale / 2^68. */
#define P10(k) (((k) & 1 ? UINT64_C(10) : 1) * ((k) & 2 ? UINT64_C(100) : 1) \
                * ((k) & 4 ? UINT64_C(10000) : 1) * ((k) & 8 ? UINT64_C(100000000) : 1) \
                * ((k) & 16 ? UINT64_C(10000000000000000) : 1))
#define SCALE_T(b) (21 - ((((b) - 1023) * 78913 + 5 * 262144) >> 18))
#define SCALE_LOW(b) (SCALE_T(b) < 19 ? SCALE_T(b) : 19)
#define SCALE_Z(b) (63 - (SCALE_LOW(b) * 1701 >> 9))
#define SCALE(b) {P10(SCALE_LOW(b)) << SCALE_Z(b), \
                  P10(SCALE_T(b) - SCALE_LOW(b)) << ((b) - 1009 - SCALE_Z(b)), SCALE_T(b)}
#define SCALE4(b) SCALE(b), SCALE((b) + 1), SCALE((b) + 2), SCALE((b) + 3)
#define SCALE16(b) SCALE4(b), SCALE4((b) + 4), SCALE4((b) + 8), SCALE4((b) + 12)
static const struct {
    uint64_t scale, up;
    int t;
} SCALES[68] = {SCALE16(1009), SCALE16(1025), SCALE16(1041), SCALE16(1057), SCALE4(1073)};

/* repr of a finite x with 1e-4 <= |x| < 1e16, written at p; returns the end.
 * Every byte it stores lies within 24 of the p it was called with.
 *
 * x = m 2^e with a 53-bit m and e in [-66, 1].  In units of 2^(e-2) x is
 * V = 4m, and the doubles that round to x are those inside [L, U]: U = V + 2,
 * and L = V - 2, or V - 1 at a power of two, where the gap below is half as
 * wide.  The ends belong to the interval iff m is even (round half to even).
 * No test can pin that rule in this range: an end is an odd multiple of half
 * an ulp, which never has fewer significant digits than the shortest form of
 * x and is never nearer to x, so it is never the digits chosen.
 *
 * At the scale 10^-t of SCALES, V, L and U are exact products with 68 bits
 * below the binary point, and the integers [dl, dh] between L and U are the
 * multiples of 10^-t inside the interval: 17 or 18 significant digits, like
 * d, the integer part of V.  The interval is one ulp wide, under 22.3 units at
 * this scale, so it is never empty, and it holds a multiple of 10^j iff
 * dh mod 10^j <= dh - dl < 23.  The last two digits of d and dh - d give the
 * tests for j = 1 and j = 2 at once; only past two digits, where the digits of
 * dh above its last two must be zeros, does a loop count them.  Of the
 * multiples of 10^j in the interval, the one nearest V is taken, a tie to the
 * even one, as repr takes it, with no branch.
 *
 * The digits are the first n of d, the last of them raised by one at most:
 * the result is never a multiple of 10, so the raise never carries.  Their
 * text is made from d while the search runs, and the raise is added to the
 * digit in place.  x = 0.<digits> 10^point is laid out as repr does: below 1
 * as 0.<zeros><digits>; else with '.' inserted at byte point of a 128-bit
 * word.  A whole x is a whole multiple of 10^-t, so the digits of d past n
 * are zeros: the trailing zeros of an integer and the 0 of its ".0". */
static char *put_short(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t frac = bits & ((UINT64_C(1) << 52) - 1);
    const int biased = (int)(bits >> 52 & 0x7ff);
    const uint64_t m = frac | UINT64_C(1) << 52;
    const int t = SCALES[biased - 1009].t;
    const uint64_t up = SCALES[biased - 1009].up, scale = SCALES[biased - 1009].scale;
    const u128 pw = (u128)(4 * m * up) * scale;
    const u128 pl = (u128)((4 * m - 1 - (frac != 0)) * up) * scale;
    const u128 ph = (u128)((4 * m + 2) * up) * scale;

    const uint64_t d = (uint64_t)(pw >> 68);
    const unsigned exclusive = m & 1, half = (unsigned)(pw >> 67) & 1, sticky = pw << 61 != 0;
    /* dh - d and d - dl, each at most 22 */
    const unsigned above = (unsigned)((uint64_t)(ph >> 68) - (exclusive & (ph << 60 == 0)) - d);
    const unsigned below = (unsigned)(d - (uint64_t)(pl >> 68) - (exclusive | (pl << 60 != 0)));
    const unsigned wide = d >= POW10[17];         /* 18 digits, else 17 */
    const text18 text = ascii18(d * (10 - 9 * wide));

    /* the last two digits of d, and those of dh plus 100 on a carry out of
     * them; the selects are arithmetic, as j is 0, 1 or 2 unpredictably */
    const uint64_t d100 = d / 100;
    const unsigned r = (unsigned)(d - 100 * d100), tens = r * 103 >> 10, rh = r + above;
    const uint64_t dh100 = d100 + (rh >= 100);
    const unsigned slack = above + below;
    const unsigned one = rh - 10 * (rh * 103 >> 10) <= slack;
    const unsigned two = rh - 100 * (rh >= 100) <= slack;
    int j = one + two;
    uint64_t p10 = 1 + 9 * one + 90 * two;
    uint64_t dropped = ((r - 10 * tens) & -one) + (10 * tens & -two);
    unsigned odd = ((unsigned)d ^ (((unsigned)d ^ tens) & -one) ^ ((tens ^ (unsigned)d100) & -two)) & 1;
    if (two && dh100 % 10 == 0) {                 /* three or more digits go */
        for (uint64_t zeros = dh100 / 10; zeros % 10 == 0; zeros /= 10)
            j++;
        p10 = POW10[++j];
        dropped = d % p10;
        odd = d / p10 & 1;
    }
    /* d + (the 68 bits below it) / 2^68, over 10^j, rounded to the nearest, a
     * tie to even, raises the last digit kept by one; so does a nearest that
     * falls below dl, at a power of two, as the next one up is then inside */
    const unsigned inc = (2 * dropped + half + (sticky | odd) > p10) | (dropped > below);
    const int n = 17 + wide - j, point = 17 + wide - t;

    if (bits >> 63)
        *p++ = '-';
    if (point <= 0) {                             /* at most three zeros */
        memcpy(p, "0.000000", 8);
        p = put_text(p + 2 - point, text, n);
        p[-1] += inc;
        return p;
    }
    /* point is 1 .. 16: digits [0, point), '.', then at least one more, the
     * last digit kept when n > point (else inc is 0) */
    const u128 digits = text.lo | (u128)text.hi << 64;
    const u128 before = ~(u128)0 >> (128 - 8 * point), rest = digits & ~before;
    const u128 merged = digits - rest + (rest << 8) + (before + 1) * '.';
    store8(p, (uint64_t)merged);
    store8(p + 8, (uint64_t)(merged >> 64));
    p[16] = point == 16 ? '.' : (char)(text.hi >> 56);
    p[17] = (char)text.tail;
    p[n] += inc;
    return p + (n > point ? n + 1 : point + 2);
}

/* v in decimal at p; returns the end */
static char *put_int(char *p, int64_t v)
{
    uint64_t u = (uint64_t)v;
    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    if (u >= POW10[18]) {                         /* 19 digits: 18, then the last */
        p = put_text(p, ascii18(u / 10), 18);
        *p++ = (char)('0' + u % 10);
        return p;
    }
    /* n digits, from the bit length and one compare (0 has one) */
    const int b = (64 - __builtin_clzll(u | 1)) * 1233 >> 12;
    const int n = b + ((u | 1) >= POW10[b]);
    return put_text(p, ascii18(u * POW10[18 - n]), n);
}

/* Rows lo..hi-1 of a CSV table, into buf: cols[c] points at row 0 of column
 * c, strides[c] is its step in bytes and ints[c] is nonzero for an int64
 * column, else it holds doubles.  Integers are written in decimal, and a
 * double inside the guard as put_short writes it.  Any other double (nan,
 * +-inf, 0 < |x| < 1e-4, |x| >= 1e16) is left as an empty cell for the
 * caller to fill: (its byte offset in buf, its row, its column) is stored
 * in splices.  Each cell takes at most 24 bytes with its separator, and
 * every byte stored for a cell lies within the 24 from its start, so buf
 * needs 24 bytes a cell and no more.  Sets *n_bytes and returns the number
 * of cells left empty. */
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
