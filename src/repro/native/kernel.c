/* Native replay kernel: C twin of Engine.run_compiled (repro.sim.engine)
 * driving any of the three memory systems of repro.memory — directory
 * (coherence.py), snoopy (snoopy.py), DLS (dls.py) — with misses priced
 * by Table 1 or by the mesh model (repro.network).
 *
 * One call replays one compiled program on one machine configuration,
 * starting from empty caches and a cold network, and returns the numbers
 * a RunResult is made of into caller-allocated fixed-size arrays:
 * per-processor time breakdowns, per-cluster miss counters, per-cache
 * evictions/inserts, and the execution time with the protocol and
 * network totals.  No memory image leaves the kernel — nothing it
 * returns grows with cache capacity or trace length.  The python replay
 * remains the canonical reference; the results are byte-identical
 * (pinned by tests/test_native_properties.py and
 * tests/golden/protocol_matrix.json).
 *
 * One design, not three kernels: there is one event loop, one queue, one
 * sync object type and one set of Table/Cache/Rec primitives.  The memory
 * system is two functions, read and write, with three back ends — the
 * directory's inlined into the loop (its hit path is the hot path of
 * every default run), snoopy's and DLS's out of line behind mem_read /
 * mem_write — and every miss of every back end is priced by price(),
 * which has two: the four Table 1 constants, or mesh_price() walking
 * the route tables python built.  3 + 2 pieces give the 3 x 2 matrix.
 *
 * What the spec (docs/INTERNALS.md sections 2 and 4) fixes, and the
 * kernel therefore implements rather than emulates:
 *
 * - scheduler: events run in (time, push order) — ties are FIFO.  Python
 *   spells that as a heap of (time, seq, pid) with a monotone seq; here
 *   it is a calendar queue (below) with no seq at all.  Skipping the
 *   push/pop pair for a strictly-earliest event changes no other
 *   event's relative order.
 * - replacement: the victim is the least recently touched resident line
 *   of the cluster (hit, merge retry, write hit and install all touch) —
 *   the order repro.memory.cache.Cache keeps as its set dict's insertion
 *   order; here a doubly-linked list over slots keeps it.  Under infinite
 *   capacity nothing is ever evicted, so no order is kept at all.
 * - a line's directory entry, per-cluster miss history and home cluster
 *   are one record, found through one direct-indexed line -> record
 *   table, so a miss looks up once; no result depends on the order
 *   records are created in.
 * - counters: busy cycles and reads/writes are counted online at op
 *   dispatch (never on a merge retry), exactly where the python engine
 *   and memory system count them.
 * - TASK q (opcode 6, INTERNALS section 4) is the queue grab of a
 *   task-queue code: at the event where the processor wants its next op,
 *   take the next index of queue q's counter; if a task remains, run its
 *   sub-stream out of the task columns and come back to the same TASK,
 *   else fall through.  It is an arm of the one dispatch and costs no
 *   time; a TASK inside a task, an unknown queue, or a queue nobody
 *   drained is a fault.
 *
 * Directory masks are kept as a separate 64-bit word (Python packs
 * (mask << 2) | state into one unbounded int), and so is the per-cache
 * miss history; the driver gates the kernel on n_clusters <= 64, and on
 * n_processors <= 64 under snoopy, whose caches are per processor.
 *
 * Floats (mesh pricing only) are a contract: latency, utilisation, M/D/1
 * wait and the running delay are doubles evaluated in python's operation
 * order, rounded half-to-even as python's round() does; the build passes
 * -ffp-contract=off so no a*b+c is fused (repro.native.build.CFLAGS).
 *
 * Statuses: 0 ok; 1 fault — deadlock, lock misuse, a dirty-owner miss,
 * an operand the trace validator would have refused (unknown opcode,
 * negative WORK, a misplaced TASK; mapped trace payloads are not
 * checksummed), or a READ or WRITE line or a BARRIER, LOCK or UNLOCK
 * id outside [0, 2^32), which no table below holds: the caller declines
 * the point and the python replay decides — it raises the canonical
 * error from its one home, or (for such a line or id, which it takes as
 * any int) runs the point; -1 out of memory.  Outputs are meaningful
 * only with status 0.  Mirrored in repro.native.driver.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ABI 4

#define ST_OK 0
#define ST_FAULT 1
#define ST_NOMEM (-1)

#define NO_LINE INT64_MIN
#define T_INF ((int64_t)1 << 62)
#define PF_AHEAD 32 /* trace prefetch distance in ops: four cache lines */

#if defined(_WIN32)
#define EXPORT __declspec(dllexport)
#else
#define EXPORT __attribute__((visibility("default")))
#endif

/* What goes into the loop is said, not left to the optimiser: the
 * loop's speed follows its size (registers spilt around code that
 * rarely runs), so the directory's read and write are always inlined
 * into it, and their probe, the miss paths and everything only another
 * protocol or provider reaches never are.  Measured on 512x512 LU and
 * the quick grid, gcc 12: with the choice left to -O1 or -O2 the loop
 * ran 4-5% slower than with these attributes, at either level. */
#define NOINLINE __attribute__((noinline))
#define ALWAYS_INLINE static inline __attribute__((always_inline))

static inline int ctz64(uint64_t v) { return __builtin_ctzll(v); }
static inline int popcount64(uint64_t v) { return __builtin_popcountll(v); }

/* -------------------------------------------------------------- table
 * Direct-indexed int32 table over keys in [0, 2^32), the kernel's one
 * index: each cache's line -> slot, line -> record, page -> home, and
 * the two sync registries' id -> object.  Lines are dense — the address
 * space is a bump allocation from 0 — and so are the ids the apps give
 * barriers (phases from 0) and locks (0, cell numbers), so a lookup is a
 * shift and two loads (the chunk's directory word, then the entry), with
 * no hash and no probe sequence.  The directory grows to cover
 * the highest chunk put; a chunk of TAB_CHUNK entries (16 KB) is
 * allocated at its first put, and until then its word points at the
 * shared read-only tab_none.  -1 means absent.  Keys outside [0, 2^32)
 * never reach a table — the loop faults such a READ or WRITE line or
 * sync id, and the page bindings skip such a page — so one hostile
 * operand costs at most an 8 MB directory (2^20 words) and one chunk in
 * each table it is put in: its cache, the record table and the page
 * table, or its registry. */

#define TAB_SHIFT 12
#define TAB_CHUNK (1 << TAB_SHIFT)

static const int32_t tab_none[TAB_CHUNK] = {[0 ... TAB_CHUNK - 1] = -1};

typedef struct {
    int32_t **dir;
    int64_t n; /* directory words */
} Table;

static inline int32_t tab_get(const Table *t, int64_t k) {
    uint64_t c = (uint64_t)k >> TAB_SHIFT;
    return c < (uint64_t)t->n ? t->dir[c][k & (TAB_CHUNK - 1)] : -1;
}

/* Set key k (0 <= k < 2^32) to v.  -1 clears it, which never allocates
 * for a key that is present. */
static int tab_put(Table *t, int64_t k, int32_t v) {
    int64_t c = k >> TAB_SHIFT;
    if ((uint64_t)k >> 32) return ST_FAULT; /* callers check first */
    if (c >= t->n) {
        int64_t nn = t->n ? t->n : 16;
        while (nn <= c) nn *= 2;
        int32_t **d = (int32_t **)realloc(t->dir, nn * sizeof(int32_t *));
        if (!d) return ST_NOMEM;
        for (int64_t i = t->n; i < nn; i++) d[i] = (int32_t *)tab_none;
        t->dir = d;
        t->n = nn;
    }
    if (t->dir[c] == tab_none) {
        int32_t *p = (int32_t *)malloc(sizeof(tab_none));
        if (!p) return ST_NOMEM;
        memcpy(p, tab_none, sizeof(tab_none));
        t->dir[c] = p;
    }
    t->dir[c][k & (TAB_CHUNK - 1)] = v;
    return 0;
}

static void tab_free(Table *t) {
    for (int64_t i = 0; i < t->n; i++)
        if (t->dir[i] != tab_none) free(t->dir[i]);
    free(t->dir);
}

/* ------------------------------------------------------------- cache
 * One fully associative cache — a cluster's shared cache (directory), a
 * cluster's LLC slice (DLS) or a processor's own cache (snoopy): a
 * line -> slot table over a slab of Line records, and a count of the
 * resident lines.  Freed slots
 * (invalidations) chain through `next`; fresh slots come from a
 * high-water mark, the slab doubling on demand, so nothing
 * capacity-sized is allocated before it is used.  With finite
 * capacity, resident slots also form the recency list (head = victim).
 * Python keeps one heap record per line instead (memory/cache.py); in C
 * the slab is the cheap form — fixed-size contiguous records, int64
 * links, one realloc per doubling and no allocator call per miss. */

typedef struct {
    int64_t tag, state, pending, fetcher;
    int64_t rec;        /* index of the line's record (Ctx.rec) */
    int64_t prev, next; /* recency links; `next` chains the free slots */
} Line;

typedef struct {
    Table slot_of;
    Line *ln;
    int64_t n_slots, n_used, free_head, live;
    int64_t head, tail; /* recency list, finite capacity only */
    int64_t evictions, inserts;
} Cache;

/* A slot for a new line: a freed one if any, else a fresh one. */
static int cache_slot(Cache *c, int64_t *slot_out) {
    if (c->free_head >= 0) {
        *slot_out = c->free_head;
        c->free_head = c->ln[c->free_head].next;
        return 0;
    }
    if (c->n_used == c->n_slots) {
        int64_t nn = c->n_slots ? c->n_slots * 2 : 1024;
        if (nn > INT32_MAX) return ST_NOMEM; /* slot_of holds int32 */
        Line *p = (Line *)realloc(c->ln, nn * sizeof(Line));
        if (!p) return ST_NOMEM;
        c->ln = p;
        c->n_slots = nn;
    }
    *slot_out = c->n_used++;
    return 0;
}

static inline void cache_slot_free(Cache *c, int64_t s) {
    c->ln[s].next = c->free_head;
    c->free_head = s;
}

static inline void lru_push_tail(Cache *c, int64_t s) {
    c->ln[s].prev = c->tail;
    c->ln[s].next = -1;
    if (c->tail >= 0)
        c->ln[c->tail].next = s;
    else
        c->head = s;
    c->tail = s;
}

static inline void lru_unlink(Cache *c, int64_t s) {
    int64_t p = c->ln[s].prev, nx = c->ln[s].next;
    if (p >= 0)
        c->ln[p].next = nx;
    else
        c->head = nx;
    if (nx >= 0)
        c->ln[nx].prev = p;
    else
        c->tail = p;
}

static inline void lru_touch(Cache *c, int64_t s) {
    if (c->tail == s) return;
    lru_unlink(c, s);
    lru_push_tail(c, s);
}

/* -------------------------------------------------------------- sync
 * A barrier and a lock are one object (sim/sync.py is the reference):
 * v is, for a barrier, the number of processors waiting at it, and for a
 * lock its holder, -1 when free.  A blocked processor waits on exactly
 * one object, so its wait entry is its own: every object's waiters are
 * a FIFO from head, chained through the per-processor arrays link
 * (next waiter, -1 after the last) and since (arrival time) — arrival
 * order, which python's list and deque keep, and which a barrier
 * release and a lock handoff follow.  tail is meaningful only while
 * head >= 0.  Each registry (barrier ids, lock ids) is an array of
 * objects found through a Table; nothing is allocated per object or
 * per waiter. */

typedef struct {
    int64_t v;
    int32_t head, tail;
} Sync;

typedef struct {
    Sync *v;
    int64_t n, cap;
    Table ix; /* id -> index into v */
} Syncs;

/* The object of `id`, created with v = v0 at its first use; creation
 * may move the array.  An id no table holds is a fault. */
static int sync_of(Syncs *r, int64_t id, int64_t v0, Sync **out) {
    if ((uint64_t)id >> 32) return ST_FAULT;
    int32_t i = tab_get(&r->ix, id);
    if (i < 0) {
        if (r->n == r->cap) {
            int64_t nc = r->cap ? r->cap * 2 : 16;
            if (nc > INT32_MAX) return ST_NOMEM; /* ix holds int32 */
            Sync *p = (Sync *)realloc(r->v, nc * sizeof(Sync));
            if (!p) return ST_NOMEM;
            r->v = p;
            r->cap = nc;
        }
        i = (int32_t)r->n;
        if (tab_put(&r->ix, id, i)) return ST_NOMEM;
        r->v[r->n++] = (Sync){v0, -1, -1};
    }
    *out = &r->v[i];
    return 0;
}

/* Processor p, arriving at t, joins the end of s's waiters. */
static inline void sync_wait(Sync *s, int32_t *link, int64_t *since,
                             int64_t p, int64_t t) {
    link[p] = -1;
    since[p] = t;
    if (s->head >= 0)
        link[s->tail] = (int32_t)p;
    else
        s->head = (int32_t)p;
    s->tail = (int32_t)p;
}

/* ------------------------------------------------------------ queue
 * Calendar queue: pops events in (time, push order).  A processor has at
 * most one queued event, so a bucket is an intrusive FIFO threaded through
 * next[pid].  Bucket T & (W-1) of the ring holds the events due at T for
 * now <= T < now + W, where `now` is the time of the last pop (monotone:
 * nothing is ever pushed before it); an occupancy bitmap finds the
 * earliest one.  The rare event due W or more cycles out waits in `far`,
 * kept sorted.  On a time tie between the two the far event runs first:
 * it was pushed under an earlier `now`, hence before the ring event.
 *
 * W is sized by a count, not a guess: at 4096, 0.5% of the pushes of
 * 512x512 LU on 64 processors are far (docs/EXECUTION.md "Measuring"). */

#define W 4096 /* ring span in cycles; a power of two */

typedef struct {
    int64_t t, pid;
} Ev;

typedef struct {
    int64_t now, n_ring, n_far;
    uint64_t occ[W / 64];     /* bit b set: bucket b is non-empty */
    int32_t head[W], tail[W]; /* meaningful only under a set bit */
    int32_t *next;            /* n */
    Ev *far; /* n; latest first, and among equal times latest push first */
} Queue;

static void q_free(Queue *q) {
    if (!q) return;
    free(q->next);
    free(q->far);
    free(q);
}

static Queue *q_new(int64_t n) {
    Queue *q = (Queue *)calloc(1, sizeof(Queue));
    if (!q) return NULL;
    q->next = (int32_t *)malloc(n * sizeof(int32_t));
    q->far = (Ev *)malloc(n * sizeof(Ev));
    if (!q->next || !q->far) {
        q_free(q);
        return NULL;
    }
    return q;
}

static inline void q_push(Queue *q, int64_t t, int64_t pid) {
    if (t - q->now >= W) {
        int64_t i = q->n_far++;
        for (; i > 0 && q->far[i - 1].t <= t; i--) q->far[i] = q->far[i - 1];
        q->far[i] = (Ev){t, pid};
        return;
    }
    size_t b = (size_t)t & (W - 1);
    uint64_t bit = 1ULL << (b & 63);
    if (q->occ[b >> 6] & bit) {
        q->next[q->tail[b]] = (int32_t)pid;
    } else {
        q->occ[b >> 6] |= bit;
        q->head[b] = (int32_t)pid;
    }
    q->tail[b] = (int32_t)pid;
    q->n_ring++;
}

/* Earliest time in the ring; T_INF when it is empty. */
static inline int64_t ring_min(const Queue *q) {
    if (!q->n_ring) return T_INF;
    size_t b = (size_t)q->now & (W - 1), w = b >> 6;
    uint64_t m = q->occ[w] & (~0ULL << (b & 63));
    while (!m) { /* wraps back to the low bits of the first word */
        w = (w + 1) & (W / 64 - 1);
        m = q->occ[w];
    }
    return q->now + (int64_t)(((w << 6 | (size_t)ctz64(m)) - b) & (W - 1));
}

/* Earliest queued time; T_INF when nothing is queued. */
static inline int64_t q_min(const Queue *q) {
    int64_t tr = ring_min(q);
    int64_t tf = q->n_far ? q->far[q->n_far - 1].t : T_INF;
    return tf < tr ? tf : tr;
}

static inline Ev q_pop(Queue *q) {
    int64_t tr = ring_min(q);
    Ev e;
    if (q->n_far && q->far[q->n_far - 1].t <= tr) {
        e = q->far[--q->n_far];
    } else {
        size_t b = (size_t)tr & (W - 1);
        e = (Ev){tr, q->head[b]};
        if (q->head[b] == q->tail[b])
            q->occ[b >> 6] &= ~(1ULL << (b & 63));
        else
            q->head[b] = q->next[e.pid];
        q->n_ring--;
    }
    q->now = e.t;
    return e;
}

/* ---------------------------------------------------------- context */

enum { P_DIRECTORY = 0, P_SNOOPY = 1, P_DLS = 2 }; /* driver._PROTOCOLS */

#define NCTR 11
/* per-cluster counter layout (mirrored in repro.native.driver):
 * 0 reads, 1 writes, 2 read_misses, 3 write_misses, 4 upgrade_misses,
 * 5 merges, 6 merge_refetches, 7 prefetch_hits,
 * 8 cold, 9 coherence, 10 capacity (by_cause tallies, in MissCause
 * declaration order), indexed 8 + rec_cause() */

/* Everything the machine knows about one line outside the caches: its
 * inter-cluster directory entry, why each cache last lost it, and where
 * it lives.  mask/state are per cluster — a line is "in the directory"
 * iff mask != 0 (state is then 1 SHARED or 2 EXCLUSIVE, else 0) — and
 * DLS, which has no directory, leaves them 0.  lost_coh / lost_cap are
 * per *cache* (cluster; processor under snoopy) and have at most one of
 * a cache's two bits set — the latest loss wins; neither means the
 * cache's next miss on the line is cold. */
typedef struct {
    uint64_t mask, lost_coh, lost_cap;
    int32_t state;
    int32_t home; /* -1 until a miss that goes to the home binds it */
} Rec;

/* by_cause index of cache bit `me`'s next miss: 0 cold, 1 coherence,
 * 2 capacity (MissCause declaration order). */
static inline int rec_cause(const Rec *r, uint64_t me) {
    return r->lost_coh & me ? 1 : r->lost_cap & me ? 2 : 0;
}

/* What python hands over for mesh pricing (driver._Mesh, field for
 * field): the routes and calibrated base costs its topology and latency
 * code computed, and the contention model's knobs.  The kernel walks
 * the tables; it knows no topology. */
typedef struct {
    int64_t hop;         /* cycles per hop, and a link's service time */
    int64_t dir_service; /* home directory occupancy per transaction */
    int64_t n_links;
    int64_t contention;  /* 0: zero-load hop model, nothing queues */
    int64_t warmup;      /* floor of the utilisation denominator */
    double background;   /* utilisation added to every resource */
    double cap;          /* utilisation ceiling */
    /* leg a -> b crosses route_link[route_off[a * ncl + b] ..
     * route_off[a * ncl + b + 1]), in order */
    const int64_t *route_off, *route_link;
    const double *base3; /* ncl * ncl: three-leg base cost by
                          * (requester, home) */
} Mesh;

typedef struct {
    int proto;
    int64_t ncl, csize, nca, cap, lpp, rr_next;
    int touch; /* finite capacity: keep recency order, evict when full */
    int64_t l_lc, l_rc, l_ldr, l_rd3;
    int64_t snoop_penalty, c2c; /* snoopy: bus cost of leaving the
                                 * cluster, cache-to-cache transfer */
    const Mesh *mesh;               /* NULL: Table 1 */
    int64_t *link_busy, *dir_busy;  /* contention: cycles occupied */
    int64_t net[5]; /* messages, hops, link busy, directory busy, queue
                     * delay (NetworkStats field order) */
    double peak;    /* peak link utilisation */
    Cache *ca;  /* nca: one per cluster, or per processor under snoopy */
    Table rec_of; /* line -> index into rec */
    Rec *rec;     /* one per line ever missed on; grows, never shrinks */
    int64_t n_rec, cap_rec;
    Table pages;  /* page -> home (the allocator's bindings + first touches) */
    int64_t *ctr; /* out: ncl * NCTR */
    int64_t inv_sent, repl_hints, writebacks, first_touch;
} Ctx;

/* ---------------------------------------------------------- pricing */

/* python's round(): to nearest, ties to even.  Exact for |v| < 2^52,
 * with no call into libm and no dependence on the rounding mode. */
static inline int64_t round_even(double v) {
    int64_t f = (int64_t)v;
    if ((double)f > v) f--;   /* floor */
    double d = v - (double)f; /* exact, 0 <= d < 1 */
    return f + (d > 0.5 || (d == 0.5 && (f & 1)));
}

/* MeshLatency.miss_cycles and ContentionModel.transaction_delay in one
 * pass, every float operation in python's order.  The shapes whose
 * route the two endpoints determine are calibrated to their Table 1
 * value (`flat`) exactly; only the three-leg dirty shape keeps its
 * geography (base3 + actual hops). */
static NOINLINE int64_t mesh_price(Ctx *x, int req, int home, int owner,
                                   int64_t now) {
    const Mesh *m = x->mesh;
    const int64_t *off = m->route_off;
    int64_t leg[3], flat = x->l_rc, hops = 0;
    int n_leg = 2;
    if (owner < 0 || owner == home) {
        if (req == home) {
            n_leg = 0;
            flat = x->l_lc;
        } else {
            leg[0] = req * x->ncl + home;
            leg[1] = home * x->ncl + req;
        }
    } else if (req == home) {
        leg[0] = req * x->ncl + owner;
        leg[1] = owner * x->ncl + req;
        flat = x->l_ldr;
    } else {
        n_leg = 3;
        leg[0] = req * x->ncl + home;
        leg[1] = home * x->ncl + owner;
        leg[2] = owner * x->ncl + req;
    }
    for (int i = 0; i < n_leg; i++) hops += off[leg[i] + 1] - off[leg[i]];
    double latency = n_leg == 3
        ? m->base3[leg[0]] + (double)(m->hop * hops) : (double)flat;
    x->net[0]++;
    x->net[1] += hops;
    int64_t cycles = round_even(latency);
    if (m->contention) {
        double elapsed = (double)(now > m->warmup ? now : m->warmup);
        double delay = 0.0, rho;
        for (int i = 0; i < n_leg; i++)
            for (int64_t k = off[leg[i]]; k < off[leg[i] + 1]; k++) {
                int64_t link = m->route_link[k];
                rho = (double)x->link_busy[link] / elapsed + m->background;
                if (!(rho < m->cap)) rho = m->cap;
                delay += rho * (double)m->hop / (2.0 * (1.0 - rho));
                x->link_busy[link] += m->hop;
                x->net[2] += m->hop;
                if (rho > x->peak) x->peak = rho;
            }
        rho = (double)x->dir_busy[home] / elapsed + m->background;
        if (!(rho < m->cap)) rho = m->cap;
        delay += rho * (double)m->dir_service / (2.0 * (1.0 - rho));
        x->dir_busy[home] += m->dir_service;
        x->net[3] += m->dir_service;
        int64_t delayed = round_even(latency + delay);
        x->net[4] += delayed - cycles;
        cycles = delayed;
    }
    return cycles >= 1 ? cycles : 1;
}

/* Cycles until the data of a miss arrives: cluster `req` misses at time
 * `now` on a line homed at `home` and dirty in cluster `owner`'s cache
 * (-1: the home supplies it).  Every miss of every protocol is priced
 * here, by Table 1 or by the mesh; -1 = `req` is itself the owner. */
static inline int64_t price(Ctx *x, int req, int home, int owner,
                            int64_t now) {
    if (owner == req) return -1;
    if (x->mesh) return mesh_price(x, req, home, owner, now);
    if (owner < 0) return req == home ? x->l_lc : x->l_rc;
    return req == home ? x->l_ldr : owner == home ? x->l_rc : x->l_rd3;
}

/* ----------------------------------------------------- shared state */

/* Home cluster of a line; binds the page round-robin on first touch
 * (allocation.PageAllocator.home_of_line, verbatim semantics). */
static int home_of(Ctx *x, int64_t line, int32_t *home_out) {
    int64_t page = line / x->lpp; /* line >= 0: python's // */
    int32_t home = tab_get(&x->pages, page);
    if (home < 0) {
        home = (int32_t)x->rr_next;
        if (tab_put(&x->pages, page, home)) return ST_NOMEM;
        x->rr_next = (x->rr_next + 1) % x->ncl;
        x->first_touch++;
    }
    *home_out = home;
    return 0;
}

/* Index of the record of a line that just missed, created at the line's
 * first miss anywhere; creation may move the slab. */
static int rec_at_miss(Ctx *x, int64_t line, int64_t *ri_out) {
    *ri_out = tab_get(&x->rec_of, line);
    if (*ri_out < 0) {
        if (x->n_rec == x->cap_rec) {
            int64_t nc = x->cap_rec ? x->cap_rec * 2 : 1024;
            if (nc > INT32_MAX) return ST_NOMEM; /* rec_of holds int32 */
            Rec *p = (Rec *)realloc(x->rec, nc * sizeof(Rec));
            if (!p) return ST_NOMEM;
            x->rec = p;
            x->cap_rec = nc;
        }
        Rec *r = &x->rec[x->n_rec];
        memset(r, 0, sizeof(Rec));
        r->home = -1;
        if (tab_put(&x->rec_of, line, (int32_t)x->n_rec)) return ST_NOMEM;
        *ri_out = x->n_rec++;
    }
    return 0;
}

/* Bind the record's home, if no earlier miss has.  The back ends call
 * this exactly where python calls home_of_line — the directory
 * protocol on every miss, snoopy only on a miss that goes to the home
 * node, not on a cache-to-cache transfer or an upgrade — because the
 * order of first touches decides which cluster a page lands on. */
static inline int rec_home(Ctx *x, Rec *r, int64_t line) {
    return r->home < 0 ? home_of(x, line, &r->home) : 0;
}

/* Snoop cluster cl's bus: the first processor other than `exclude`
 * whose cache holds `line` (*slot_out its slot), or -1.  A snoop does
 * not touch recency. */
static int64_t snoop(const Ctx *x, int64_t line, int cl, int64_t exclude,
                     int64_t *slot_out) {
    for (int64_t q = cl * x->csize; q < (cl + 1) * x->csize; q++)
        if (q != exclude
                && (*slot_out = tab_get(&x->ca[q].slot_of, line)) >= 0)
            return q;
    return -1;
}

/* Victim retirement, for cache ci's victim `vline` (record v).  Under
 * the directory protocol and snoopy the inter-cluster directory hears of
 * it: a replacement hint for SHARED, a writeback for a line the cluster
 * holds EXCLUSIVE (exact comparison, as in python); a line the
 * directory no longer lists counts nothing.  Snoopy says nothing while
 * a cluster-mate still holds the line — the cluster still caches it.
 * DLS has no directory to tell: a dirty victim is a writeback. */
static void retire(Ctx *x, int ci, Rec *v, int64_t vline, int64_t vstate) {
    int cl = ci;
    if (x->proto == P_DLS) {
        x->writebacks += vstate == 2;
        return;
    }
    if (x->proto == P_SNOOPY) {
        int64_t s;
        cl = (int)(ci / x->csize);
        if (snoop(x, vline, cl, ci, &s) >= 0) return;
    }
    uint64_t me = 1ULL << cl;
    if (!v->mask) return;
    if (vstate == 2) { /* EXCLUSIVE */
        if (v->state != 2 || v->mask != me) return;
        v->mask = 0;
        x->writebacks++;
    } else {
        v->mask &= ~me;
        x->repl_hints++;
    }
    if (!v->mask) v->state = 0;
}

/* Install `line` (record ri) into cache ci (state_new 1=SHARED,
 * 2=EXCLUSIVE).  A full cache first evicts its least recently touched
 * line, recycling the slot and retiring the victim. */
static int install(Ctx *x, int ci, int64_t fetcher, int64_t line, int64_t ri,
                   int64_t ready, int64_t state_new) {
    Cache *c = &x->ca[ci];
    int64_t slot;
    if (x->touch && c->live >= x->cap) {
        slot = c->head;
        Line *vl = &c->ln[slot];
        Rec *v = &x->rec[vl->rec];
        uint64_t me = 1ULL << ci;
        tab_put(&c->slot_of, vl->tag, -1);
        lru_unlink(c, slot);
        c->evictions++;
        v->lost_cap |= me;
        v->lost_coh &= ~me;
        retire(x, ci, v, vl->tag, vl->state);
    } else if (cache_slot(c, &slot)) {
        return ST_NOMEM;
    } else {
        c->live++;
    }
    Line *ln = &c->ln[slot];
    ln->tag = line;
    ln->state = state_new;
    ln->pending = ready;
    ln->fetcher = fetcher;
    ln->rec = ri;
    if (tab_put(&c->slot_of, line, (int32_t)slot)) return ST_NOMEM;
    if (x->touch) lru_push_tail(c, slot);
    c->inserts++;
    return 0;
}

/* Invalidate `line` (record r) in cache ci, if it is resident there. */
static inline void drop(Ctx *x, int ci, int64_t line, Rec *r) {
    Cache *c = &x->ca[ci];
    int64_t s = tab_get(&c->slot_of, line);
    if (s >= 0) {
        uint64_t bit = 1ULL << ci;
        tab_put(&c->slot_of, line, -1);
        c->live--;
        if (x->touch) lru_unlink(c, s);
        cache_slot_free(c, s);
        r->lost_coh |= bit;
        r->lost_cap &= ~bit;
    }
}

/* ------------------------------------------------ the memory interface
 * What the loop asks of a memory system is what the engine asks of a
 * python one — two functions, each with three back ends:
 *
 *   read(x, pid, cl, line, t, is_retry, &out)  as python's read(): hit;
 *     merge, with the time the outstanding fill returns (the loop
 *     retries the read then, is_retry set); or miss, with the stall
 *     (the line is then installed, pending);
 *   write(x, pid, cl, line, t)  never stalls.
 *
 * Both return ST_* and count every miss counter themselves; the loop
 * counts reads, writes and time.  The directory's pair (dir_read,
 * dir_write) is inlined into the loop — it is the path of every default
 * run — with its misses out of line; the other two protocols' sit out
 * of line altogether, behind mem_read / mem_write. */

enum { R_HIT = 0, R_MERGE = 1, R_MISS = 2 }; /* coherence.READ_* */

typedef struct {
    int kind;
    int64_t v; /* R_MERGE: pending-until time; R_MISS: stall cycles */
} Read;

/* A read's probe of the cache it may hit in: the cluster's (directory),
 * the processor's (snoopy), the local slice (DLS).  Touches recency;
 * 1 = resident, and *out says hit or merge; 0 = absent.  A hit on a
 * line another processor fetched is a prefetch hit, once (snoopy lines
 * carry no fetcher: nobody fetches into somebody else's cache). */
static NOINLINE int probe_read(Ctx *x, Cache *c, int64_t pid, int64_t line,
                               int64_t t, int64_t *ct, Read *out) {
    int64_t slot = tab_get(&c->slot_of, line);
    if (slot < 0) return 0;
    if (x->touch) lru_touch(c, slot);
    Line *ln = &c->ln[slot];
    if (ln->pending > t) {
        ct[5]++; /* merges */
        out->kind = R_MERGE;
        out->v = ln->pending;
        return 1;
    }
    if (ln->fetcher != -1 && ln->fetcher != pid) {
        ct[7]++; /* prefetch_hits */
        ln->fetcher = -1;
    }
    out->kind = R_HIT;
    return 1;
}

/* ------------------------------------------ back end 1 of 3: directory
 * (coherence.py).  One shared cache per cluster, full-bit-vector
 * directory with replacement hints between the clusters. */

/* Invalidate line (record r) in every other sharer of cluster bit `me`;
 * invalidations_sent counts the whole mask, resident or not, exactly as
 * the python kernel does. */
static void invalidate_others(Ctx *x, Rec *r, uint64_t me, int64_t line) {
    uint64_t bits = r->mask & ~me;
    x->inv_sent += popcount64(bits);
    for (; bits; bits &= bits - 1) drop(x, ctz64(bits), line, r);
}

/* Full read miss (fresh miss and invalidated-while-pending refetch):
 * classify, directory transaction (owner downgrade on dirty-remote),
 * SHARED install, counters. */
static NOINLINE int read_miss(Ctx *x, int cl, int64_t pid, int64_t line,
                              int64_t t, int64_t *stall_out) {
    int64_t ri;
    int rc = rec_at_miss(x, line, &ri);
    if (rc) return rc;
    Rec *r = &x->rec[ri];
    if (rec_home(x, r, line)) return ST_NOMEM;
    uint64_t me = 1ULL << cl;
    int cause = rec_cause(r, me);
    int owner = r->state == 2 ? ctz64(r->mask) : -1;
    int64_t stall = price(x, cl, r->home, owner, t);
    if (stall < 0) return ST_FAULT;
    if (owner >= 0) {
        /* the owner keeps the data but downgrades; the reader joins */
        Cache *oc = &x->ca[owner];
        int64_t s = tab_get(&oc->slot_of, line);
        if (s >= 0) oc->ln[s].state = 1;
    }
    r->state = 1;
    r->mask |= me;
    rc = install(x, cl, pid, line, ri, t + stall, 1);
    if (rc) return rc;
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[2]++;            /* read_misses */
    ct[8 + cause]++;    /* by_cause */
    *stall_out = stall;
    return 0;
}

/* Write miss: fetch exclusive (latency hidden, line left pending),
 * invalidating every other sharer. */
static NOINLINE int write_miss(Ctx *x, int cl, int64_t pid, int64_t line,
                               int64_t t) {
    int64_t ri;
    int rc = rec_at_miss(x, line, &ri);
    if (rc) return rc;
    Rec *r = &x->rec[ri];
    if (rec_home(x, r, line)) return ST_NOMEM;
    uint64_t me = 1ULL << cl;
    int cause = rec_cause(r, me);
    int64_t latency = price(x, cl, r->home,
                            r->state == 2 ? ctz64(r->mask) : -1, t);
    if (latency < 0) return ST_FAULT;
    invalidate_others(x, r, me, line);
    r->state = 2;
    r->mask = me;
    rc = install(x, cl, pid, line, ri, t + latency, 2);
    if (rc) return rc;
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[3]++;         /* write_misses */
    ct[8 + cause]++; /* by_cause */
    return 0;
}

ALWAYS_INLINE int dir_read(Ctx *x, int64_t pid, int cl, int64_t line,
                           int64_t t, int is_retry, Read *out) {
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    if (probe_read(x, &x->ca[cl], pid, line, t, ct, out)) return 0;
    ct[6] += is_retry; /* merge_refetches: invalidated while pending */
    out->kind = R_MISS;
    return read_miss(x, cl, pid, line, t, &out->v);
}

ALWAYS_INLINE int dir_write(Ctx *x, int64_t pid, int cl, int64_t line,
                            int64_t t) {
    Cache *c = &x->ca[cl];
    int64_t slot = tab_get(&c->slot_of, line);
    if (slot < 0) return write_miss(x, cl, pid, line, t);
    if (x->touch) lru_touch(c, slot);
    if (c->ln[slot].state != 2) {
        /* upgrade: invalidate the other sharers */
        Rec *r = &x->rec[c->ln[slot].rec];
        uint64_t me = 1ULL << cl;
        x->ctr[(size_t)cl * NCTR + 4]++;
        invalidate_others(x, r, me, line);
        r->state = 2;
        r->mask = me;
        c->ln[slot].state = 2;
    }
    return 0;
}

/* ---------------------------------------------- back end 2 of 3: snoopy
 * (snoopy.py).  One cache per processor; cluster-mates snoop each other
 * over a bus — a miss a mate can serve is a cache-to-cache transfer and
 * never reaches the inter-cluster directory, which tracks clusters. */

/* Invalidate `line` in every cache of cluster cl but `except`'s. */
static void drop_cluster(Ctx *x, int cl, int64_t except, int64_t line,
                         Rec *r) {
    for (int64_t q = cl * x->csize; q < (cl + 1) * x->csize; q++)
        if (q != except) drop(x, (int)q, line, r);
}

static int snoopy_read(Ctx *x, int64_t pid, int cl, int64_t line, int64_t t,
                       int is_retry, Read *out) {
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    int64_t ri, hslot, latency;
    if (probe_read(x, &x->ca[pid], pid, line, t, ct, out)) return 0;
    ct[6] += is_retry; /* merge_refetches */
    if (rec_at_miss(x, line, &ri)) return ST_NOMEM;
    Rec *r = &x->rec[ri];
    int cause = rec_cause(r, 1ULL << pid);
    int64_t holder = snoop(x, line, cl, pid, &hslot);
    if (holder >= 0) {
        /* cache-to-cache: an EXCLUSIVE holder downgrades; the directory
         * already lists this cluster, and no page is bound */
        Line *h = &x->ca[holder].ln[hslot];
        if (h->state == 2) h->state = 1;
        latency = x->c2c;
    } else {
        uint64_t me = 1ULL << cl;
        int owner = r->state == 2 && r->mask != me ? ctz64(r->mask) : -1;
        if (rec_home(x, r, line)) return ST_NOMEM;
        latency = price(x, cl, r->home, owner, t);
        if (latency < 0) return ST_FAULT;
        if (owner >= 0) /* whichever processor of the owner holds it dirty */
            for (int64_t q = owner * x->csize; q < (owner + 1) * x->csize;
                 q++)
                if ((hslot = tab_get(&x->ca[q].slot_of, line)) >= 0
                        && x->ca[q].ln[hslot].state == 2)
                    x->ca[q].ln[hslot].state = 1;
        r->state = 1;
        r->mask |= me;
        latency += x->snoop_penalty;
    }
    if (install(x, (int)pid, -1, line, ri, t + latency, 1)) return ST_NOMEM;
    ct[2]++;         /* read_misses */
    ct[8 + cause]++; /* by_cause */
    out->kind = R_MISS;
    out->v = latency;
    return 0;
}

static int snoopy_write(Ctx *x, int64_t pid, int cl, int64_t line,
                        int64_t t) {
    Cache *c = &x->ca[pid];
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    int64_t slot = tab_get(&c->slot_of, line), ri = -1;
    int found = slot >= 0;
    if (found) {
        if (x->touch) lru_touch(c, slot);
        if (c->ln[slot].state == 2) return 0;
        ct[4]++; /* upgrade_misses */
        ri = c->ln[slot].rec;
    } else {
        if (rec_at_miss(x, line, &ri)) return ST_NOMEM;
        ct[3]++; /* write_misses */
        ct[8 + rec_cause(&x->rec[ri], 1ULL << pid)]++;
    }
    /* invalidate every other copy: cluster-mates over the bus, other
     * clusters through the directory */
    Rec *r = &x->rec[ri];
    uint64_t me = 1ULL << cl, bits = r->mask & ~me;
    drop_cluster(x, cl, pid, line, r);
    x->inv_sent += popcount64(bits);
    for (; bits; bits &= bits - 1) drop_cluster(x, ctz64(bits), -1, line, r);
    r->state = 2;
    r->mask = me;
    if (found) {
        c->ln[slot].state = 2; /* an upgrade binds no page */
        return 0;
    }
    /* priced clean whatever the directory said: the copies are gone */
    if (rec_home(x, r, line)) return ST_NOMEM;
    int64_t latency = price(x, cl, r->home, -1, t) + x->snoop_penalty;
    return install(x, (int)pid, -1, line, ri, t + latency, 2);
}

/* ------------------------------------------------- back end 3 of 3: DLS
 * (dls.py).  One LLC slice per cluster, and a line may be cached only in
 * the slice of its home — so there are no sharers, no invalidations and
 * no upgrades, and the home is looked up on every access.  A local
 * access is hit / merge / local fill; a remote one is a network
 * transaction to the home slice every time, classified COLD the first
 * time and COHERENCE ever after (lost_coh of the *requesting* cluster).
 * Misses are counted on the requesting cluster, evictions and inserts
 * on the slice that owns the slot. */

static int dls_read(Ctx *x, int64_t pid, int cl, int64_t line, int64_t t,
                    int is_retry, Read *out) {
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    int64_t slot, ri, stall;
    int32_t home;
    if (home_of(x, line, &home)) return ST_NOMEM;
    Cache *c = &x->ca[home];
    uint64_t me = 1ULL << cl;
    if (home == cl) {
        if (probe_read(x, c, pid, line, t, ct, out)) return 0;
        ct[6] += is_retry; /* merge_refetches: evicted while pending */
    }
    if (rec_at_miss(x, line, &ri)) return ST_NOMEM;
    Rec *r = &x->rec[ri];
    int cause = rec_cause(r, me);
    if (home == cl) {
        stall = price(x, cl, home, -1, t);
        if (install(x, home, pid, line, ri, t + stall, 1)) return ST_NOMEM;
    } else {
        r->lost_coh |= me;
        if ((slot = tab_get(&c->slot_of, line)) >= 0) {
            /* the home slice serves it; a request that finds the home
             * fill in flight queues behind it — remote reads never
             * merge */
            if (x->touch) lru_touch(c, slot);
            int64_t queue = c->ln[slot].pending - t;
            stall = price(x, cl, home, -1, t) + (queue > 0 ? queue : 0);
        } else {
            /* the home slice misses too: memory fill at home, priced
             * first, then the network leg; the line installs at home on
             * the way through */
            int64_t fill = price(x, home, home, -1, t);
            stall = price(x, cl, home, -1, t) + fill;
            if (install(x, home, pid, line, ri, t + fill, 1))
                return ST_NOMEM;
        }
    }
    ct[2]++;         /* read_misses */
    ct[8 + cause]++; /* by_cause */
    out->kind = R_MISS;
    out->v = stall;
    return 0;
}

static int dls_write(Ctx *x, int64_t pid, int cl, int64_t line, int64_t t) {
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    int32_t home;
    if (home_of(x, line, &home)) return ST_NOMEM;
    Cache *c = &x->ca[home];
    int64_t slot = tab_get(&c->slot_of, line), ri;
    int found = slot >= 0;
    if (found) {
        if (x->touch) lru_touch(c, slot);
        c->ln[slot].state = 2; /* dirty at home: local, or write-through */
    }
    if (found && home == cl) return 0;
    /* a miss: the line is not in the local slice, or it is remote */
    if (rec_at_miss(x, line, &ri)) return ST_NOMEM;
    Rec *r = &x->rec[ri];
    uint64_t me = 1ULL << cl;
    ct[3]++;                    /* write_misses */
    ct[8 + rec_cause(r, me)]++; /* by_cause */
    if (home != cl) r->lost_coh |= me;
    if (found) return 0;
    /* write-allocate at the home slice: memory fill at home */
    return install(x, home, pid, line, ri,
                   t + price(x, home, home, -1, t), 2);
}

static NOINLINE int mem_read(Ctx *x, int64_t pid, int cl, int64_t line,
                             int64_t t, int is_retry, Read *out) {
    return x->proto == P_SNOOPY
        ? snoopy_read(x, pid, cl, line, t, is_retry, out)
        : dls_read(x, pid, cl, line, t, is_retry, out);
}

static NOINLINE int mem_write(Ctx *x, int64_t pid, int cl, int64_t line,
                              int64_t t) {
    return x->proto == P_SNOOPY ? snoopy_write(x, pid, cl, line, t)
                                : dls_write(x, pid, cl, line, t);
}

/* ------------------------------------------------------------ replay */

EXPORT int64_t repro_abi(void) { return ABI; }

/* Where a processor is in its trace: the column pair it is reading (its
 * own, or one task's slice of the task columns), how far, and — inside a
 * task — the index in its own columns of the TASK op to come back to. */
typedef struct {
    const int64_t *o, *a;
    int64_t ip, len;
    int64_t ret; /* -1: not in a task */
} Stream;

/* Zero-copy column contract: every column points into the program's one
 * buffer, laid out as its trace blob and often a read-mostly file mapping
 * of it (driver.py adds section offsets to the buffer's base address;
 * 8-byte aligned, host-order int64, lens[p] entries).  The kernel must
 * only ever READ them — a store would dirty private copy-on-write pages
 * and forfeit the shared-page-cache economics the streaming-trace layer
 * is built on — and never dereference a column with lens[p] == 0.  Access
 * is sequential per processor, which the mapping layer advertises to the
 * OS via MADV_SEQUENTIAL and the replay loop to the CPU by prefetching
 * (loads only).  A mapped payload carries no checksum, so operands are
 * not trusted: what capture would have refused is a fault here. */
EXPORT int64_t repro_replay(
    int64_t n, int64_t ncl, int64_t csize,
    const int64_t **ops, const int64_t **args, const int64_t *lens,
    /* the task table: task k of the program is entries
     * [t_off[k], t_off[k + 1]) of the t_ops/t_args columns (same
     * contract as ops/args), and queue q hands out tasks
     * q_next[q] .. q_end[q] - 1 in order — q_next is the counter TASK
     * advances, set to the queue's first task by the caller */
    const int64_t *t_ops, const int64_t *t_args, const int64_t *t_off,
    int64_t *q_next, const int64_t *q_end, int64_t n_queues,
    int64_t proto, /* P_DIRECTORY, P_SNOOPY or P_DLS */
    int64_t cap,   /* capacity in lines of each of the protocol's caches
                    * (per cluster; per processor under snoopy);
                    * -1 = infinite */
    int64_t snoop_penalty, int64_t c2c, /* snoopy bus costs */
    int64_t l_lc, int64_t l_rc, int64_t l_ldr, int64_t l_rd3,
    const Mesh *mesh, /* NULL: price misses by Table 1 alone */
    int64_t lpp, int64_t rr_next,
    const int64_t *ph_pages, const int64_t *ph_homes, int64_t n_ph,
    int64_t *bd,     /* out: 4n (cpu, load, merge, sync), zeroed */
    int64_t *ctr,    /* out: ncl * NCTR, zeroed */
    int64_t *cio,    /* out: 2 per cache (evictions, inserts) */
    int64_t *totals, /* out: 10 (execution time, invalidations sent,
                      * replacement hints, writebacks, first-touch pages,
                      * then Ctx.net: the five NetworkStats integers) */
    double *peak)    /* out: 1 (NetworkStats.peak_link_utilization) */
{
    int64_t st = ST_OK;
    Ctx x;
    memset(&x, 0, sizeof(x));
    Syncs bars = {0}, locks = {0};
    Queue *q = NULL;
    Stream *strm = NULL;
    int64_t *retry = NULL, *finish = NULL, *since = NULL;
    int32_t *link = NULL;
    /* the loop's one protocol test: the directory back end is inlined
     * below, the other two sit behind mem_read / mem_write */
    const int directory = proto == P_DIRECTORY;

    x.proto = (int)proto;
    x.ncl = ncl;
    x.csize = csize;
    x.nca = proto == P_SNOOPY ? n : ncl;
    x.snoop_penalty = snoop_penalty;
    x.c2c = c2c;
    x.mesh = mesh;
    x.cap = cap;
    x.touch = cap >= 0;
    x.lpp = lpp;
    x.rr_next = rr_next;
    x.l_lc = l_lc;
    x.l_rc = l_rc;
    x.l_ldr = l_ldr;
    x.l_rd3 = l_rd3;
    x.ctr = ctr;

    /* the queue's ring cannot hold an event before `now`, which is where
     * a negative latency (like a negative WORK) would put one, and it
     * links processors by 32-bit pid; a cache is one bit of a 64-bit
     * mask; a page holds at least one line */
    if (l_lc < 0 || l_rc < 0 || l_ldr < 0 || l_rd3 < 0 || snoop_penalty < 0
            || c2c < 0 || n > INT32_MAX || x.nca > 64 || proto < P_DIRECTORY
            || proto > P_DLS || lpp < 1)
        return ST_FAULT;

    x.ca = (Cache *)calloc(x.nca, sizeof(Cache));
    if (mesh && mesh->contention) {
        x.link_busy = (int64_t *)calloc(mesh->n_links, sizeof(int64_t));
        x.dir_busy = (int64_t *)calloc(ncl, sizeof(int64_t));
        if (!x.link_busy || !x.dir_busy) {
            st = ST_NOMEM;
            goto done;
        }
    }
    q = q_new(n);
    strm = (Stream *)malloc(n * sizeof(Stream));
    retry = (int64_t *)malloc(n * sizeof(int64_t));
    finish = (int64_t *)malloc(n * sizeof(int64_t));
    link = (int32_t *)malloc(n * sizeof(int32_t));
    since = (int64_t *)malloc(n * sizeof(int64_t));
    if (!x.ca || !q || !strm || !retry || !finish || !link || !since) {
        st = ST_NOMEM;
        goto done;
    }
    for (int64_t i = 0; i < x.nca; i++)
        x.ca[i].head = x.ca[i].tail = x.ca[i].free_head = -1;
    for (int64_t i = 0; i < n_ph; i++) /* no line reaches a page >= 2^32 */
        if (!((uint64_t)ph_pages[i] >> 32)
                && (st = tab_put(&x.pages, ph_pages[i], (int32_t)ph_homes[i])))
            goto done;
    for (int64_t p = 0; p < n; p++) {
        strm[p] = (Stream){ops[p], args[p], 0, lens[p], -1};
        finish[p] = -1;
        retry[p] = NO_LINE;
    }

    /* initial events: every processor at time 0, in pid order */
    for (int64_t p = 0; p < n; p++) q_push(q, 0, p);
    int64_t n_running = n;

    Ev e0 = q_pop(q);
    int64_t t = e0.t;
    int64_t pid = e0.pid;
    int64_t hz = q_min(q);
    int cl = (int)(pid / csize);
    int64_t *ct = x.ctr + (size_t)cl * NCTR;
    int64_t pending = retry[pid];

    for (;;) {
        int64_t tn = 0;
        int noevent = 0;
        if (pending != NO_LINE) {
            /* ---- retry of a merged read at its fill time */
            Read rd;
            int rc = directory ? dir_read(&x, pid, cl, pending, t, 1, &rd)
                               : mem_read(&x, pid, cl, pending, t, 1, &rd);
            if (rc) {
                st = rc;
                goto done;
            }
            if (rd.kind == R_MERGE) {
                bd[4 * pid + 2] += rd.v - t;
                tn = rd.v;
            } else {
                pending = NO_LINE;
                retry[pid] = NO_LINE;
                tn = t + 1;
                if (rd.kind == R_MISS) { /* gone while pending: refetched */
                    bd[4 * pid + 1] += rd.v;
                    tn += rd.v;
                }
            }
        } else {
            /* ---- run ops while strictly ahead of every queued event */
            Stream *s = &strm[pid];
            const int64_t *po = s->o;
            const int64_t *pa = s->a;
            int64_t ip = s->ip;
            int64_t iplen = s->len;
            int finished = 0;
            for (;;) {
                if (ip >= iplen) {
                    if (s->ret < 0) {
                        finished = 1;
                        break;
                    }
                    /* end of a task: back to the TASK that took it */
                    po = s->o = ops[pid];
                    pa = s->a = args[pid];
                    iplen = s->len = lens[pid];
                    ip = s->ret;
                    s->ret = -1;
                    continue;
                }
                /* n processors x 2 columns are more sequential streams
                 * than a hardware prefetcher follows: ask once per cache
                 * line (a prefetch past the column's end is harmless) */
                if ((ip & 7) == 0) {
                    __builtin_prefetch(po + ip + PF_AHEAD);
                    __builtin_prefetch(pa + ip + PF_AHEAD);
                }
                int64_t op = po[ip];
                int64_t arg = pa[ip];
                ip++;
                if (op == 1) { /* READ */
                    if ((uint64_t)arg >> 32) { /* no table holds the line */
                        st = ST_FAULT;
                        goto done;
                    }
                    bd[4 * pid] += 1;
                    ct[0]++;
                    Read rd;
                    int rc = directory
                        ? dir_read(&x, pid, cl, arg, t, 0, &rd)
                        : mem_read(&x, pid, cl, arg, t, 0, &rd);
                    if (rc) {
                        st = rc;
                        goto done;
                    }
                    if (rd.kind == R_MERGE) {
                        bd[4 * pid + 2] += rd.v - t;
                        pending = arg;
                        retry[pid] = arg;
                        tn = rd.v;
                        break; /* no fast path: tail handles tn */
                    }
                    tn = t + 1;
                    if (rd.kind == R_MISS) {
                        bd[4 * pid + 1] += rd.v;
                        tn += rd.v;
                    }
                } else if (op == 0) { /* WORK */
                    if (arg < 0) {
                        st = ST_FAULT;
                        goto done;
                    }
                    bd[4 * pid] += arg;
                    tn = t + arg;
                } else if (op == 2) { /* WRITE (never stalls) */
                    if ((uint64_t)arg >> 32) {
                        st = ST_FAULT;
                        goto done;
                    }
                    bd[4 * pid] += 1;
                    ct[1]++;
                    int rc = directory ? dir_write(&x, pid, cl, arg, t)
                                       : mem_write(&x, pid, cl, arg, t);
                    if (rc) {
                        st = rc;
                        goto done;
                    }
                    tn = t + 1;
                } else if (op == 3) { /* BARRIER */
                    Sync *b;
                    if ((st = sync_of(&bars, arg, 0, &b))) goto done;
                    sync_wait(b, link, since, pid, t);
                    if (++b->v == n) { /* the last arrival releases all */
                        for (int64_t w = b->head; w >= 0; w = link[w]) {
                            bd[4 * w + 3] += t - since[w];
                            q_push(q, t, w);
                        }
                        b->v = 0;
                        b->head = -1;
                    }
                    noevent = 1;
                    break;
                } else if (op == 4) { /* LOCK */
                    bd[4 * pid] += 1;
                    Sync *lk;
                    if ((st = sync_of(&locks, arg, -1, &lk))) goto done;
                    if (lk->v == -1) {
                        lk->v = pid;
                        tn = t + 1;
                    } else if (lk->v == pid) {
                        st = ST_FAULT;
                        goto done;
                    } else {
                        sync_wait(lk, link, since, pid, t);
                        noevent = 1;
                        break;
                    }
                } else if (op == 5) { /* UNLOCK */
                    bd[4 * pid] += 1;
                    Sync *lk;
                    if ((st = sync_of(&locks, arg, -1, &lk))) goto done;
                    if (lk->v != pid) {
                        st = ST_FAULT;
                        goto done;
                    }
                    lk->v = lk->head; /* the first waiter, or -1: free */
                    if (lk->head >= 0) {
                        int64_t np = lk->head;
                        lk->head = link[np];
                        /* push order (self, then next holder) fixes
                         * the tie-break at t+1 */
                        q_push(q, t + 1, pid);
                        bd[4 * np + 3] += t - since[np];
                        q_push(q, t + 1, np);
                        noevent = 1;
                        break;
                    }
                    tn = t + 1;
                } else if (op == 6) { /* TASK: no cycle, no event */
                    if (s->ret >= 0 || arg < 0 || arg >= n_queues) {
                        st = ST_FAULT;
                        goto done;
                    }
                    if (q_next[arg] < q_end[arg]) {
                        const int64_t k = q_next[arg]++;
                        s->ret = ip - 1;
                        po = s->o = t_ops + t_off[k];
                        pa = s->a = t_args + t_off[k];
                        iplen = s->len = t_off[k + 1] - t_off[k];
                        ip = 0;
                    } /* else the queue is empty: fall through */
                    continue;
                } else { /* no such opcode */
                    st = ST_FAULT;
                    goto done;
                }
                /* ---- fast path: strictly next, stay on this processor */
                if (tn < hz) {
                    t = tn;
                    continue;
                }
                break;
            }
            s->ip = ip;
            if (finished) {
                finish[pid] = t;
                n_running--;
                noevent = 1;
            }
        }

        /* ---- scheduling tail */
        if (noevent) {
            if (q->n_ring + q->n_far == 0) break;
        } else if (tn < hz) { /* retry arm / fresh merge only */
            t = tn;
            continue;
        } else {
            q_push(q, tn, pid);
        }
        Ev nx = q_pop(q);
        t = nx.t;
        pid = nx.pid;
        hz = q_min(q);
        cl = (int)(pid / csize);
        ct = x.ctr + (size_t)cl * NCTR;
        pending = retry[pid];
    }

    /* ---- wrap-up (Engine._finalize semantics) */
    if (n_running > 0) {
        st = ST_FAULT; /* deadlock */
        goto done;
    }
    for (int64_t i = 0; i < n_queues; i++)
        if (q_next[i] != q_end[i]) {
            st = ST_FAULT; /* tasks no TASK op ever took */
            goto done;
        }
    {
        int64_t mx = 0;
        for (int64_t p = 0; p < n; p++)
            if (finish[p] > mx) mx = finish[p];
        for (int64_t p = 0; p < n; p++) bd[4 * p + 3] += mx - finish[p];
        totals[0] = mx;
        totals[1] = x.inv_sent;
        totals[2] = x.repl_hints;
        totals[3] = x.writebacks;
        totals[4] = x.first_touch;
        memcpy(totals + 5, x.net, sizeof(x.net));
        *peak = x.peak;
        for (int64_t i = 0; i < x.nca; i++) {
            cio[2 * i] = x.ca[i].evictions;
            cio[2 * i + 1] = x.ca[i].inserts;
        }
    }

done:
    if (x.ca) {
        for (int64_t i = 0; i < x.nca; i++) {
            tab_free(&x.ca[i].slot_of);
            free(x.ca[i].ln);
        }
        free(x.ca);
    }
    free(x.link_busy);
    free(x.dir_busy);
    tab_free(&x.rec_of);
    free(x.rec);
    tab_free(&x.pages);
    free(bars.v);
    tab_free(&bars.ix);
    free(locks.v);
    tab_free(&locks.ix);
    q_free(q);
    free(strm);
    free(retry);
    free(finish);
    free(link);
    free(since);
    return st;
}
