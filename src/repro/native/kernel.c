/* Native replay kernel: C twin of Engine.run_compiled driving a
 * directory-protocol CoherentMemorySystem (repro.sim.engine,
 * repro.memory.coherence), with the memory system's transitions inlined.
 *
 * One call replays one compiled program on one flat-latency machine
 * configuration, starting from empty caches, and returns the numbers a
 * RunResult is made of into caller-allocated fixed-size arrays:
 * per-processor time breakdowns, per-cluster miss counters, and the
 * execution time with four protocol totals.  No memory image leaves the
 * kernel — nothing it returns grows with cache capacity or trace length.
 * The python replay remains the canonical reference; the results are
 * byte-identical (pinned by tests/test_native_properties.py).
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
 *   of the cluster (hit, merge retry, write hit and install all touch);
 *   a doubly-linked list over slots keeps that order.  Under infinite
 *   capacity nothing is ever evicted, so no order is kept at all.
 * - a line's directory entry, per-cluster miss history and home cluster
 *   are one record, found through one hash map, so a miss probes once;
 *   the table's iteration order is unspecified because no result
 *   depends on it.
 * - counters: busy cycles and reads/writes are counted online at op
 *   dispatch (never on a merge retry), exactly where the python engine
 *   and memory system count them.
 *
 * Directory masks are kept as a separate 64-bit word (Python packs
 * (mask << 2) | state into one unbounded int); the driver gates the
 * kernel on n_clusters <= 64.
 *
 * Statuses: 0 ok; 1 fault — deadlock, lock misuse, a dirty-owner miss,
 * or an operand the trace validator would have refused (unknown opcode,
 * negative WORK; mapped trace payloads are not checksummed): the caller
 * declines the point and the python replay raises the canonical error
 * from its one home; -1 out of memory.  Outputs are meaningful only
 * with status 0.  Mirrored in repro.native.driver.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ABI 2

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

static inline int ctz64(uint64_t v) { return __builtin_ctzll(v); }
static inline int popcount64(uint64_t v) { return __builtin_popcountll(v); }

/* Floor division matching Python's // for a positive divisor. */
static inline int64_t fdiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b) != 0 && a < 0) q--;
    return q;
}

/* ---------------------------------------------------------------- map
 * Open-addressing int64 hash map, linear probe, tombstone deletion,
 * power-of-two capacity, Fibonacci hashing. */

typedef struct {
    int64_t *key;
    int64_t *val;
    uint8_t *st; /* 0 empty, 1 used, 2 tombstone */
    size_t cap;
    size_t live;
    size_t fill; /* used + tombstones */
} Map;

static int map_init(Map *m, size_t cap0) {
    size_t c = 16;
    while (c < cap0) c <<= 1;
    m->key = (int64_t *)malloc(c * sizeof(int64_t));
    m->val = (int64_t *)malloc(c * sizeof(int64_t));
    m->st = (uint8_t *)calloc(c, 1);
    m->cap = c;
    m->live = 0;
    m->fill = 0;
    if (!m->key || !m->val || !m->st) return ST_NOMEM;
    return 0;
}

static void map_free(Map *m) {
    free(m->key);
    free(m->val);
    free(m->st);
    m->key = m->val = NULL;
    m->st = NULL;
}

static inline size_t map_ix(const Map *m, int64_t k) {
    uint64_t h = (uint64_t)k * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return (size_t)h & (m->cap - 1);
}

static inline int map_get(const Map *m, int64_t k, int64_t *v) {
    size_t i = map_ix(m, k);
    for (;;) {
        uint8_t s = m->st[i];
        if (s == 0) return 0;
        if (s == 1 && m->key[i] == k) {
            *v = m->val[i];
            return 1;
        }
        i = (i + 1) & (m->cap - 1);
    }
}

static int map_put(Map *m, int64_t k, int64_t v);

static int map_rehash(Map *m, size_t want) {
    size_t c = 16;
    while (c < want) c <<= 1;
    int64_t *ok = m->key, *ov = m->val;
    uint8_t *os = m->st;
    size_t ocap = m->cap;
    m->key = (int64_t *)malloc(c * sizeof(int64_t));
    m->val = (int64_t *)malloc(c * sizeof(int64_t));
    m->st = (uint8_t *)calloc(c, 1);
    if (!m->key || !m->val || !m->st) {
        free(m->key);
        free(m->val);
        free(m->st);
        m->key = ok;
        m->val = ov;
        m->st = os;
        return ST_NOMEM;
    }
    m->cap = c;
    m->live = 0;
    m->fill = 0;
    for (size_t i = 0; i < ocap; i++)
        if (os[i] == 1) map_put(m, ok[i], ov[i]);
    free(ok);
    free(ov);
    free(os);
    return 0;
}

static int map_put(Map *m, int64_t k, int64_t v) {
    if ((m->fill + 1) * 8 >= m->cap * 5) {
        if (map_rehash(m, (m->live + 1) * 4)) return ST_NOMEM;
    }
    size_t i = map_ix(m, k);
    size_t tomb = (size_t)-1;
    for (;;) {
        uint8_t s = m->st[i];
        if (s == 0) break;
        if (s == 2) {
            if (tomb == (size_t)-1) tomb = i;
        } else if (m->key[i] == k) {
            m->val[i] = v;
            return 0;
        }
        i = (i + 1) & (m->cap - 1);
    }
    if (tomb != (size_t)-1) {
        i = tomb;
    } else {
        m->fill++;
    }
    m->st[i] = 1;
    m->key[i] = k;
    m->val[i] = v;
    m->live++;
    return 0;
}

/* Delete k; returns 1 (*v filled, if given) when present, 0 otherwise. */
static inline int map_del(Map *m, int64_t k, int64_t *v) {
    size_t i = map_ix(m, k);
    for (;;) {
        uint8_t s = m->st[i];
        if (s == 0) return 0;
        if (s == 1 && m->key[i] == k) {
            if (v) *v = m->val[i];
            m->st[i] = 2;
            m->live--;
            return 1;
        }
        i = (i + 1) & (m->cap - 1);
    }
}

/* ------------------------------------------------------------- cache
 * One cluster's fully associative cache: a line -> slot map over a slab
 * of Line records.  Freed slots (invalidations) chain through `next`;
 * fresh slots come from a high-water mark, the slab doubling on demand,
 * so nothing capacity-sized is allocated before it is used.  With finite
 * capacity, resident slots also form the recency list (head = victim). */

typedef struct {
    int64_t tag, state, pending, fetcher;
    int64_t rec;        /* index of the line's record (Ctx.rec) */
    int64_t prev, next; /* recency links; `next` chains the free slots */
} Line;

typedef struct {
    Map slot_of;
    Line *ln;
    int64_t n_slots, n_used, free_head;
    int64_t head, tail; /* recency list, finite capacity only */
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

/* -------------------------------------------------------------- sync */

typedef struct {
    int64_t n_wait;
    int64_t *wpid, *warr; /* capacity n, fixed */
} Barrier;

typedef struct {
    int64_t holder;
    int64_t *qpid, *qarr; /* FIFO ring */
    int64_t qh, qn, qcap;
} Lock;

static int lock_enqueue(Lock *lk, int64_t pid, int64_t t) {
    if (lk->qn == lk->qcap) {
        int64_t nc = lk->qcap ? lk->qcap * 2 : 4;
        int64_t *np = (int64_t *)malloc(nc * sizeof(int64_t));
        int64_t *na = (int64_t *)malloc(nc * sizeof(int64_t));
        if (!np || !na) {
            free(np);
            free(na);
            return ST_NOMEM;
        }
        for (int64_t i = 0; i < lk->qn; i++) {
            np[i] = lk->qpid[(lk->qh + i) % (lk->qcap ? lk->qcap : 1)];
            na[i] = lk->qarr[(lk->qh + i) % (lk->qcap ? lk->qcap : 1)];
        }
        free(lk->qpid);
        free(lk->qarr);
        lk->qpid = np;
        lk->qarr = na;
        lk->qh = 0;
        lk->qcap = nc;
    }
    int64_t i = (lk->qh + lk->qn) % lk->qcap;
    lk->qpid[i] = pid;
    lk->qarr[i] = t;
    lk->qn++;
    return 0;
}

static inline void lock_dequeue(Lock *lk, int64_t *pid, int64_t *arr) {
    *pid = lk->qpid[lk->qh];
    *arr = lk->qarr[lk->qh];
    lk->qh = (lk->qh + 1) % lk->qcap;
    lk->qn--;
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

#define NCTR 13
/* per-cluster counter layout (mirrored in repro.native.driver):
 * 0 reads, 1 writes, 2 read_misses, 3 write_misses, 4 upgrade_misses,
 * 5 merges, 6 merge_refetches, 7 prefetch_hits,
 * 8 cold, 9 coherence, 10 capacity (by_cause tallies, in MissCause
 * declaration order), indexed 8 + rec_cause(),
 * 11 evictions, 12 inserts */

/* Everything the machine knows about one line outside the caches: its
 * directory entry, why each cluster last lost it, and where it lives.
 * A line is "in the directory" iff mask != 0 (state is then 1 SHARED or
 * 2 EXCLUSIVE, else 0).  lost_coh / lost_cap have at most one of a
 * cluster's two bits set — the latest loss wins; neither means the
 * cluster's next miss on the line is cold. */
typedef struct {
    uint64_t mask, lost_coh, lost_cap;
    int32_t state;
    int32_t home; /* bound with the record, at the line's first miss */
} Rec;

/* by_cause index of cluster bit `me`'s next miss: 0 cold, 1 coherence,
 * 2 capacity (MissCause declaration order). */
static inline int rec_cause(const Rec *r, uint64_t me) {
    return r->lost_coh & me ? 1 : r->lost_cap & me ? 2 : 0;
}

typedef struct {
    int64_t ncl, cap, lpp, rr_next;
    int touch; /* finite capacity: keep recency order, evict when full */
    int64_t l_lc, l_rc, l_ldr, l_rd3;
    Cache *ca;  /* ncl */
    Map rec_of; /* line -> index into rec */
    Rec *rec;   /* one per line ever missed on; grows, never shrinks */
    int64_t n_rec, cap_rec;
    Map pages;  /* page -> home (the allocator's bindings + first touches) */
    int64_t *ctr; /* out: ncl * NCTR */
    int64_t inv_sent, repl_hints, writebacks, first_touch;
    int64_t *bd; /* out: 4n (cpu, load, merge, sync) */
} Ctx;

/* Home cluster of a line; binds the page round-robin on first touch
 * (allocation.PageAllocator.home_of_line, verbatim semantics). */
static int home_of(Ctx *x, int64_t line, int32_t *home_out) {
    int64_t page = fdiv(line, x->lpp), home;
    if (!map_get(&x->pages, page, &home)) {
        home = x->rr_next;
        if (map_put(&x->pages, page, home)) return ST_NOMEM;
        x->rr_next = (x->rr_next + 1) % x->ncl;
        x->first_touch++;
    }
    *home_out = (int32_t)home;
    return 0;
}

/* Index of the record of a line that just missed, created (and its page
 * bound) at the line's first miss anywhere; creation may move the slab. */
static int rec_at_miss(Ctx *x, int64_t line, int64_t *ri_out) {
    if (!map_get(&x->rec_of, line, ri_out)) {
        if (x->n_rec == x->cap_rec) {
            int64_t nc = x->cap_rec ? x->cap_rec * 2 : 1024;
            Rec *p = (Rec *)realloc(x->rec, nc * sizeof(Rec));
            if (!p) return ST_NOMEM;
            x->rec = p;
            x->cap_rec = nc;
        }
        Rec *r = &x->rec[x->n_rec];
        memset(r, 0, sizeof(Rec));
        if (home_of(x, line, &r->home)) return ST_NOMEM;
        if (map_put(&x->rec_of, line, x->n_rec)) return ST_NOMEM;
        *ri_out = x->n_rec++;
    }
    return 0;
}

/* Victim retirement: replacement hint for SHARED, writeback for a line
 * this cluster holds EXCLUSIVE (exact comparison, as in python).  A line
 * the directory no longer lists counts nothing. */
static void retire(Ctx *x, uint64_t me, Rec *v, int64_t vstate) {
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

/* Install `line` (record ri) into cluster cl's cache (state_new 1=SHARED
 * on a read miss, 2=EXCLUSIVE on a write miss).  A full cache first
 * evicts its least recently touched line, recycling the slot and
 * retiring the victim at the directory. */
static int install(Ctx *x, int cl, int64_t pid, int64_t line, int64_t ri,
                   int64_t ready, int64_t state_new) {
    Cache *c = &x->ca[cl];
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    int64_t slot;
    if (x->touch && (int64_t)c->slot_of.live >= x->cap) {
        slot = c->head;
        Line *vl = &c->ln[slot];
        Rec *v = &x->rec[vl->rec];
        uint64_t me = 1ULL << cl;
        map_del(&c->slot_of, vl->tag, NULL);
        lru_unlink(c, slot);
        ct[11]++; /* evictions */
        v->lost_cap |= me;
        v->lost_coh &= ~me;
        retire(x, me, v, vl->state);
    } else if (cache_slot(c, &slot)) {
        return ST_NOMEM;
    }
    Line *ln = &c->ln[slot];
    ln->tag = line;
    ln->state = state_new;
    ln->pending = ready;
    ln->fetcher = pid;
    ln->rec = ri;
    if (map_put(&c->slot_of, line, slot)) return ST_NOMEM;
    if (x->touch) lru_push_tail(c, slot);
    ct[12]++; /* inserts */
    return 0;
}

/* Invalidate line (record r) in every other sharer of cluster bit `me`;
 * invalidations_sent counts the whole mask, resident or not, exactly as
 * the python kernel does. */
static void invalidate_others(Ctx *x, Rec *r, uint64_t me, int64_t line) {
    uint64_t bits = r->mask & ~me;
    x->inv_sent += popcount64(bits);
    while (bits) {
        int vcl = ctz64(bits);
        uint64_t bit = bits & -bits;
        bits ^= bit;
        Cache *c = &x->ca[vcl];
        int64_t s;
        if (map_del(&c->slot_of, line, &s)) {
            if (x->touch) lru_unlink(c, s);
            cache_slot_free(c, s);
            r->lost_coh |= bit;
            r->lost_cap &= ~bit;
        }
    }
}

/* Miss latency for cluster cl on record r (Table 1), given the directory
 * entry before the transaction; -1 = cl is itself the dirty owner. */
static inline int64_t miss_latency(const Ctx *x, const Rec *r, int cl) {
    if (r->state != 2) return cl == r->home ? x->l_lc : x->l_rc;
    int owner = ctz64(r->mask);
    if (owner == cl) return -1;
    return cl == r->home ? x->l_ldr : owner == r->home ? x->l_rc : x->l_rd3;
}

/* Full read miss (fresh miss and invalidated-while-pending refetch):
 * classify, directory transaction (owner downgrade on dirty-remote),
 * SHARED install, counters, load stall. */
static int read_miss(Ctx *x, int cl, int64_t pid, int64_t line, int64_t t,
                     int64_t *stall_out) {
    int64_t ri, s;
    int rc = rec_at_miss(x, line, &ri);
    if (rc) return rc;
    Rec *r = &x->rec[ri];
    uint64_t me = 1ULL << cl;
    int cause = rec_cause(r, me);
    int64_t stall = miss_latency(x, r, cl);
    if (stall < 0) return ST_FAULT;
    if (r->state == 2) {
        /* the owner keeps the data but downgrades; the reader joins */
        Cache *oc = &x->ca[ctz64(r->mask)];
        if (map_get(&oc->slot_of, line, &s)) oc->ln[s].state = 1;
    }
    r->state = 1;
    r->mask |= me;
    rc = install(x, cl, pid, line, ri, t + stall, 1);
    if (rc) return rc;
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[2]++;            /* read_misses */
    ct[8 + cause]++;    /* by_cause */
    x->bd[4 * pid + 1] += stall; /* load */
    *stall_out = stall;
    return 0;
}

/* Write miss: fetch exclusive (latency hidden, line left pending),
 * invalidating every other sharer. */
static int write_miss(Ctx *x, int cl, int64_t pid, int64_t line, int64_t t) {
    int64_t ri;
    int rc = rec_at_miss(x, line, &ri);
    if (rc) return rc;
    Rec *r = &x->rec[ri];
    uint64_t me = 1ULL << cl;
    int cause = rec_cause(r, me);
    int64_t latency = miss_latency(x, r, cl);
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

/* ---------------------------------------------------------- registry */

typedef struct {
    Barrier *v;
    int64_t n, cap;
    Map ix; /* id -> index */
} Barriers;

typedef struct {
    Lock *v;
    int64_t n, cap;
    Map ix;
} Locks;

static int barrier_of(Barriers *bs, int64_t id, int64_t n_procs,
                      Barrier **out) {
    int64_t i;
    if (map_get(&bs->ix, id, &i)) {
        *out = &bs->v[i];
        return 0;
    }
    if (bs->n == bs->cap) {
        int64_t nc = bs->cap ? bs->cap * 2 : 8;
        Barrier *nv = (Barrier *)realloc(bs->v, nc * sizeof(Barrier));
        if (!nv) return ST_NOMEM;
        bs->v = nv;
        bs->cap = nc;
    }
    Barrier *b = &bs->v[bs->n];
    b->n_wait = 0;
    b->wpid = (int64_t *)malloc(n_procs * sizeof(int64_t));
    b->warr = (int64_t *)malloc(n_procs * sizeof(int64_t));
    bs->n++; /* owned by the registry from here: cleanup frees both */
    if (!b->wpid || !b->warr) return ST_NOMEM;
    if (map_put(&bs->ix, id, bs->n - 1)) return ST_NOMEM;
    *out = b;
    return 0;
}

static int lock_of(Locks *ls, int64_t id, Lock **out) {
    int64_t i;
    if (map_get(&ls->ix, id, &i)) {
        *out = &ls->v[i];
        return 0;
    }
    if (ls->n == ls->cap) {
        int64_t nc = ls->cap ? ls->cap * 2 : 8;
        Lock *nv = (Lock *)realloc(ls->v, nc * sizeof(Lock));
        if (!nv) return ST_NOMEM;
        ls->v = nv;
        ls->cap = nc;
    }
    Lock *lk = &ls->v[ls->n];
    lk->holder = -1;
    lk->qpid = lk->qarr = NULL;
    lk->qh = lk->qn = lk->qcap = 0;
    if (map_put(&ls->ix, id, ls->n)) return ST_NOMEM;
    ls->n++;
    *out = lk;
    return 0;
}

/* ------------------------------------------------------------ replay */

EXPORT int64_t repro_abi(void) { return ABI; }

/* Zero-copy column contract: ops[p]/args[p] may point straight into a
 * read-mostly file mapping of a v2 trace blob (driver.py hands over the
 * mmap'd addresses; 8-byte aligned, little-endian int64, lens[p] entries).
 * The kernel must only ever READ them — a store would dirty private
 * copy-on-write pages and forfeit the shared-page-cache economics the
 * streaming-trace layer is built on — and must tolerate ops[p] == NULL
 * when lens[p] == 0 (an empty column has no buffer to address).  Access
 * is sequential per processor, which the mapping layer advertises to the
 * OS via MADV_SEQUENTIAL and the replay loop to the CPU by prefetching
 * (loads only).  A mapped payload carries no checksum, so operands are
 * not trusted: what capture would have refused is a fault here. */
EXPORT int64_t repro_replay(
    int64_t n, int64_t ncl, int64_t csize,
    const int64_t **ops, const int64_t **args, const int64_t *lens,
    int64_t cap, /* capacity lines per cluster cache; -1 = infinite */
    int64_t l_lc, int64_t l_rc, int64_t l_ldr, int64_t l_rd3,
    int64_t lpp, int64_t rr_next,
    const int64_t *ph_pages, const int64_t *ph_homes, int64_t n_ph,
    int64_t *bd,     /* out: 4n (cpu, load, merge, sync), zeroed */
    int64_t *ctr,    /* out: ncl * NCTR, zeroed */
    int64_t *totals) /* out: 5 (execution time, invalidations sent,
                      * replacement hints, writebacks, first-touch pages) */
{
    int64_t st = ST_OK;
    Ctx x;
    memset(&x, 0, sizeof(x));
    Barriers bars;
    memset(&bars, 0, sizeof(bars));
    Locks locks;
    memset(&locks, 0, sizeof(locks));
    Queue *q = NULL;
    int64_t *ipos = NULL, *retry = NULL, *finish = NULL;

    x.ncl = ncl;
    x.cap = cap;
    x.touch = cap >= 0;
    x.lpp = lpp;
    x.rr_next = rr_next;
    x.l_lc = l_lc;
    x.l_rc = l_rc;
    x.l_ldr = l_ldr;
    x.l_rd3 = l_rd3;
    x.bd = bd;
    x.ctr = ctr;

    /* the queue's ring cannot hold an event before `now`, which is where
     * a negative latency (like a negative WORK) would put one; and it
     * links processors by 32-bit pid */
    if (l_lc < 0 || l_rc < 0 || l_ldr < 0 || l_rd3 < 0 || n > INT32_MAX)
        return ST_FAULT;

    x.ca = (Cache *)calloc(ncl, sizeof(Cache));
    q = q_new(n);
    ipos = (int64_t *)calloc(n, sizeof(int64_t));
    retry = (int64_t *)malloc(n * sizeof(int64_t));
    finish = (int64_t *)malloc(n * sizeof(int64_t));
    if (!x.ca || !q || !ipos || !retry || !finish) {
        st = ST_NOMEM;
        goto done;
    }
    if ((st = map_init(&x.rec_of, 1024))) goto done;
    if ((st = map_init(&x.pages, (size_t)n_ph * 2))) goto done;
    if ((st = map_init(&bars.ix, 16))) goto done;
    if ((st = map_init(&locks.ix, 16))) goto done;
    for (int64_t i = 0; i < ncl; i++) {
        Cache *c = &x.ca[i];
        c->head = c->tail = c->free_head = -1;
        if ((st = map_init(&c->slot_of, 1024))) goto done;
    }
    for (int64_t i = 0; i < n_ph; i++)
        if ((st = map_put(&x.pages, ph_pages[i], ph_homes[i]))) goto done;
    for (int64_t p = 0; p < n; p++) {
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
            Cache *c = &x.ca[cl];
            int64_t slot;
            int found = map_get(&c->slot_of, pending, &slot);
            if (found) {
                if (x.touch) lru_touch(c, slot);
                int64_t pu = c->ln[slot].pending;
                if (pu > t) {
                    ct[5]++; /* merges */
                    bd[4 * pid + 2] += pu - t;
                    tn = pu;
                } else {
                    int64_t f = c->ln[slot].fetcher;
                    if (f != -1 && f != pid) {
                        ct[7]++; /* prefetch_hits */
                        c->ln[slot].fetcher = -1;
                    }
                    pending = NO_LINE;
                    retry[pid] = NO_LINE;
                    tn = t + 1;
                }
            } else {
                /* invalidated while pending: refetch (fresh read miss) */
                ct[6]++; /* merge_refetches */
                int64_t stall;
                int rc = read_miss(&x, cl, pid, pending, t, &stall);
                if (rc) {
                    st = rc;
                    goto done;
                }
                pending = NO_LINE;
                retry[pid] = NO_LINE;
                tn = t + stall + 1;
            }
        } else {
            /* ---- run ops while strictly ahead of every queued event */
            const int64_t *po = ops[pid];
            const int64_t *pa = args[pid];
            int64_t ip = ipos[pid];
            const int64_t iplen = lens[pid];
            Cache *c = &x.ca[cl];
            int finished = 0;
            for (;;) {
                if (ip >= iplen) {
                    finished = 1;
                    break;
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
                    bd[4 * pid] += 1;
                    ct[0]++;
                    int64_t slot;
                    int found = map_get(&c->slot_of, arg, &slot);
                    if (found) {
                        if (x.touch) lru_touch(c, slot);
                        int64_t pu = c->ln[slot].pending;
                        if (pu > t) {
                            ct[5]++; /* merges */
                            bd[4 * pid + 2] += pu - t;
                            pending = arg;
                            retry[pid] = arg;
                            tn = pu;
                            break; /* no fast path: tail handles tn */
                        }
                        int64_t f = c->ln[slot].fetcher;
                        if (f != -1 && f != pid) {
                            ct[7]++; /* prefetch_hits */
                            c->ln[slot].fetcher = -1;
                        }
                        tn = t + 1;
                    } else {
                        int64_t stall;
                        int rc = read_miss(&x, cl, pid, arg, t, &stall);
                        if (rc) {
                            st = rc;
                            goto done;
                        }
                        tn = t + stall + 1;
                    }
                } else if (op == 0) { /* WORK */
                    if (arg < 0) {
                        st = ST_FAULT;
                        goto done;
                    }
                    bd[4 * pid] += arg;
                    tn = t + arg;
                } else if (op == 2) { /* WRITE (never stalls) */
                    bd[4 * pid] += 1;
                    ct[1]++;
                    int64_t slot;
                    int found = map_get(&c->slot_of, arg, &slot);
                    if (found) {
                        if (x.touch) lru_touch(c, slot);
                        if (c->ln[slot].state != 2) {
                            /* upgrade: invalidate the other sharers */
                            ct[4]++;
                            Rec *r = &x.rec[c->ln[slot].rec];
                            uint64_t me = 1ULL << cl;
                            invalidate_others(&x, r, me, arg);
                            r->state = 2;
                            r->mask = me;
                            c->ln[slot].state = 2;
                        }
                        tn = t + 1;
                    } else {
                        int rc = write_miss(&x, cl, pid, arg, t);
                        if (rc) {
                            st = rc;
                            goto done;
                        }
                        tn = t + 1;
                    }
                } else if (op == 3) { /* BARRIER */
                    Barrier *b;
                    if (barrier_of(&bars, arg, n, &b)) {
                        st = ST_NOMEM;
                        goto done;
                    }
                    b->wpid[b->n_wait] = pid;
                    b->warr[b->n_wait] = t;
                    b->n_wait++;
                    if (b->n_wait == n) {
                        for (int64_t w = 0; w < b->n_wait; w++) {
                            bd[4 * b->wpid[w] + 3] += t - b->warr[w];
                            q_push(q, t, b->wpid[w]);
                        }
                        b->n_wait = 0;
                    }
                    noevent = 1;
                    break;
                } else if (op == 4) { /* LOCK */
                    bd[4 * pid] += 1;
                    Lock *lk;
                    if (lock_of(&locks, arg, &lk)) {
                        st = ST_NOMEM;
                        goto done;
                    }
                    if (lk->holder == -1) {
                        lk->holder = pid;
                        tn = t + 1;
                    } else if (lk->holder == pid) {
                        st = ST_FAULT;
                        goto done;
                    } else {
                        if (lock_enqueue(lk, pid, t)) {
                            st = ST_NOMEM;
                            goto done;
                        }
                        noevent = 1;
                        break;
                    }
                } else if (op == 5) { /* UNLOCK */
                    bd[4 * pid] += 1;
                    Lock *lk;
                    if (lock_of(&locks, arg, &lk)) {
                        st = ST_NOMEM;
                        goto done;
                    }
                    if (lk->holder != pid) {
                        st = ST_FAULT;
                        goto done;
                    }
                    if (lk->qn) {
                        int64_t np, arr;
                        lock_dequeue(lk, &np, &arr);
                        lk->holder = np;
                        /* push order (self, then next holder) fixes
                         * the tie-break at t+1 */
                        q_push(q, t + 1, pid);
                        bd[4 * np + 3] += t - arr;
                        q_push(q, t + 1, np);
                        noevent = 1;
                        break;
                    }
                    lk->holder = -1;
                    tn = t + 1;
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
            ipos[pid] = ip;
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
    }

done:
    if (x.ca) {
        for (int64_t i = 0; i < ncl; i++) {
            map_free(&x.ca[i].slot_of);
            free(x.ca[i].ln);
        }
        free(x.ca);
    }
    map_free(&x.rec_of);
    free(x.rec);
    map_free(&x.pages);
    for (int64_t i = 0; i < bars.n; i++) {
        free(bars.v[i].wpid);
        free(bars.v[i].warr);
    }
    free(bars.v);
    map_free(&bars.ix);
    for (int64_t i = 0; i < locks.n; i++) {
        free(locks.v[i].qpid);
        free(locks.v[i].qarr);
    }
    free(locks.v);
    map_free(&locks.ix);
    q_free(q);
    free(ipos);
    free(retry);
    free(finish);
    return st;
}
