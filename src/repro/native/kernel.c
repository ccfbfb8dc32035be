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
 * What the spec (docs/INTERNALS.md section 2) fixes, and the kernel
 * therefore implements rather than emulates:
 *
 * - scheduler: a binary heap of (time, seq, pid) with a monotone seq
 *   counter; skipping the push/pop pair for a strictly-earliest event
 *   relabels later seq numbers monotonically, so the pop order is the
 *   canonical (time, seq, pid) heap order.
 * - replacement: the victim is the least recently touched resident line
 *   of the cluster (hit, merge retry, write hit and install all touch);
 *   a doubly-linked list over slots keeps that order.  Under infinite
 *   capacity nothing is ever evicted, so no order is kept at all.
 * - directory table and miss histories are plain hash maps: their
 *   iteration order is unspecified because no result depends on it.
 * - counters: busy cycles and reads/writes are counted online at op
 *   dispatch (never on a merge retry), exactly where the python engine
 *   and memory system count them.
 *
 * Directory masks are kept as a separate 64-bit word (Python packs
 * (mask << 2) | state into one unbounded int); the driver gates the
 * kernel on n_clusters <= 64.
 *
 * Statuses: 0 ok; 1 fault — deadlock, lock misuse, or a dirty-owner
 * miss: the caller declines the point and the python replay raises the
 * canonical error from its one home; -1 out of memory.  Outputs are
 * meaningful only with status 0.  Mirrored in repro.native.driver.
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
 * power-of-two capacity, Fibonacci hashing.  v2 is optional (directory
 * entries store (state, mask); everything else stores one value). */

typedef struct {
    int64_t *key;
    int64_t *v1;
    int64_t *v2;
    uint8_t *st; /* 0 empty, 1 used, 2 tombstone */
    size_t cap;
    size_t live;
    size_t fill; /* used + tombstones */
    int two;
} Map;

static int map_init(Map *m, size_t cap0, int two) {
    size_t c = 16;
    while (c < cap0) c <<= 1;
    m->key = (int64_t *)malloc(c * sizeof(int64_t));
    m->v1 = (int64_t *)malloc(c * sizeof(int64_t));
    m->v2 = two ? (int64_t *)malloc(c * sizeof(int64_t)) : NULL;
    m->st = (uint8_t *)calloc(c, 1);
    m->cap = c;
    m->live = 0;
    m->fill = 0;
    m->two = two;
    if (!m->key || !m->v1 || (two && !m->v2) || !m->st) return ST_NOMEM;
    return 0;
}

static void map_free(Map *m) {
    free(m->key);
    free(m->v1);
    free(m->v2);
    free(m->st);
    m->key = m->v1 = m->v2 = NULL;
    m->st = NULL;
}

static inline size_t map_ix(const Map *m, int64_t k) {
    uint64_t h = (uint64_t)k * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return (size_t)h & (m->cap - 1);
}

static inline int map_get(const Map *m, int64_t k, int64_t *v1, int64_t *v2) {
    size_t i = map_ix(m, k);
    for (;;) {
        uint8_t s = m->st[i];
        if (s == 0) return 0;
        if (s == 1 && m->key[i] == k) {
            if (v1) *v1 = m->v1[i];
            if (v2) *v2 = m->v2[i];
            return 1;
        }
        i = (i + 1) & (m->cap - 1);
    }
}

static int map_put(Map *m, int64_t k, int64_t a, int64_t b);

static int map_rehash(Map *m, size_t want) {
    size_t c = 16;
    while (c < want) c <<= 1;
    int64_t *ok = m->key, *o1 = m->v1, *o2 = m->v2;
    uint8_t *os = m->st;
    size_t ocap = m->cap;
    m->key = (int64_t *)malloc(c * sizeof(int64_t));
    m->v1 = (int64_t *)malloc(c * sizeof(int64_t));
    m->v2 = m->two ? (int64_t *)malloc(c * sizeof(int64_t)) : NULL;
    m->st = (uint8_t *)calloc(c, 1);
    if (!m->key || !m->v1 || (m->two && !m->v2) || !m->st) {
        free(m->key);
        free(m->v1);
        free(m->v2);
        free(m->st);
        m->key = ok;
        m->v1 = o1;
        m->v2 = o2;
        m->st = os;
        return ST_NOMEM;
    }
    m->cap = c;
    m->live = 0;
    m->fill = 0;
    for (size_t i = 0; i < ocap; i++)
        if (os[i] == 1) map_put(m, ok[i], o1[i], m->two ? o2[i] : 0);
    free(ok);
    free(o1);
    free(o2);
    free(os);
    return 0;
}

static int map_put(Map *m, int64_t k, int64_t a, int64_t b) {
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
            m->v1[i] = a;
            if (m->two) m->v2[i] = b;
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
    m->v1[i] = a;
    if (m->two) m->v2[i] = b;
    m->live++;
    return 0;
}

/* Delete k; returns 1 (v1 filled) when present, 0 otherwise. */
static inline int map_del(Map *m, int64_t k, int64_t *v1) {
    size_t i = map_ix(m, k);
    for (;;) {
        uint8_t s = m->st[i];
        if (s == 0) return 0;
        if (s == 1 && m->key[i] == k) {
            if (v1) *v1 = m->v1[i];
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

/* ------------------------------------------------------------- heap
 * (time, seq, pid) binary min-heap; seq is a monotone counter, so pop
 * order is FIFO within one time == the python engine's heap order. */

typedef struct {
    int64_t t, seq, pid;
} Ev;

static inline int ev_lt(Ev a, Ev b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
}

static inline void heap_push(Ev *h, int64_t *hn, Ev e) {
    int64_t i = (*hn)++;
    h[i] = e;
    while (i > 0) {
        int64_t par = (i - 1) >> 1;
        if (!ev_lt(h[i], h[par])) break;
        Ev tmp = h[i];
        h[i] = h[par];
        h[par] = tmp;
        i = par;
    }
}

static inline Ev heap_pop(Ev *h, int64_t *hn) {
    Ev top = h[0];
    int64_t n = --(*hn);
    if (n > 0) {
        h[0] = h[n];
        int64_t i = 0;
        for (;;) {
            int64_t l = 2 * i + 1, r = l + 1, m = i;
            if (l < n && ev_lt(h[l], h[m])) m = l;
            if (r < n && ev_lt(h[r], h[m])) m = r;
            if (m == i) break;
            Ev tmp = h[i];
            h[i] = h[m];
            h[m] = tmp;
            i = m;
        }
    }
    return top;
}

/* ---------------------------------------------------------- context */

#define NCTR 13
/* per-cluster counter layout (mirrored in repro.native.driver):
 * 0 reads, 1 writes, 2 read_misses, 3 write_misses, 4 upgrade_misses,
 * 5 merges, 6 merge_refetches, 7 prefetch_hits,
 * 8 cold, 9 coherence, 10 capacity (by_cause tallies, in MissCause
 * declaration order), indexed 8 + the cause a miss history stores,
 * 11 evictions, 12 inserts */

typedef struct {
    int64_t ncl, cap, lpp, rr_next;
    int touch; /* finite capacity: keep recency order, evict when full */
    int64_t l_lc, l_rc, l_ldr, l_rd3;
    Cache *ca;  /* ncl */
    Map dir;    /* line -> (state, mask) */
    Map pages;  /* page -> home (the allocator's bindings + first touches) */
    Map *hist;  /* ncl: line -> cause (1 COHERENCE, 2 CAPACITY) */
    int64_t *ctr; /* out: ncl * NCTR */
    int64_t inv_sent, repl_hints, writebacks, first_touch;
    int64_t *bd; /* out: 4n (cpu, load, merge, sync) */
} Ctx;

/* Home cluster of a line; binds the page round-robin on first touch
 * (allocation.PageAllocator.home_of_line, verbatim semantics). */
static int home_of(Ctx *x, int64_t line, int64_t *home_out) {
    int64_t page = fdiv(line, x->lpp);
    if (!map_get(&x->pages, page, home_out, NULL)) {
        *home_out = x->rr_next;
        if (map_put(&x->pages, page, x->rr_next, 0)) return ST_NOMEM;
        x->rr_next = (x->rr_next + 1) % x->ncl;
        x->first_touch++;
    }
    return 0;
}

/* Victim retirement: replacement hint for SHARED, writeback for a line
 * this cluster holds EXCLUSIVE (exact packed comparison, as in python). */
static int retire(Ctx *x, int cl, int64_t vline, int64_t vstate) {
    int64_t ds, dm;
    if (!map_get(&x->dir, vline, &ds, &dm)) return 0;
    if (vstate == 2) { /* EXCLUSIVE */
        if (ds == 2 && dm == (int64_t)(1ULL << cl)) {
            map_del(&x->dir, vline, NULL);
            x->writebacks++;
        }
    } else {
        dm &= (int64_t)~(1ULL << cl);
        x->repl_hints++;
        if (dm) {
            if (map_put(&x->dir, vline, ds, dm)) return ST_NOMEM;
        } else {
            map_del(&x->dir, vline, NULL);
        }
    }
    return 0;
}

/* Install `line` into cluster cl's cache (state_new 1=SHARED on a read
 * miss, 2=EXCLUSIVE on a write miss).  A full cache first evicts its
 * least recently touched line, recycling the slot and retiring the
 * victim at the directory. */
static int install(Ctx *x, int cl, int64_t pid, int64_t line, int64_t ready,
                   int64_t state_new) {
    Cache *c = &x->ca[cl];
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    int64_t slot, vline = 0, vstate = 0;
    int evict = x->touch && (int64_t)c->slot_of.live >= x->cap;
    if (evict) {
        slot = c->head;
        vline = c->ln[slot].tag;
        vstate = c->ln[slot].state;
        map_del(&c->slot_of, vline, NULL);
        lru_unlink(c, slot);
        ct[11]++; /* evictions */
    } else if (cache_slot(c, &slot)) {
        return ST_NOMEM;
    }
    Line *ln = &c->ln[slot];
    ln->tag = line;
    ln->state = state_new;
    ln->pending = ready;
    ln->fetcher = pid;
    if (map_put(&c->slot_of, line, slot, 0)) return ST_NOMEM;
    if (x->touch) lru_push_tail(c, slot);
    ct[12]++; /* inserts */
    if (evict) {
        if (map_put(&x->hist[cl], vline, 2 /*CAPACITY*/, 0)) return ST_NOMEM;
        return retire(x, cl, vline, vstate);
    }
    return 0;
}

/* Invalidate `line` in every cluster of `bits`. */
static int invalidate(Ctx *x, uint64_t bits, int64_t line) {
    while (bits) {
        int vcl = ctz64(bits);
        bits &= bits - 1;
        Cache *c = &x->ca[vcl];
        int64_t s2;
        if (map_del(&c->slot_of, line, &s2)) {
            if (x->touch) lru_unlink(c, s2);
            cache_slot_free(c, s2);
            if (map_put(&x->hist[vcl], line, 1 /*COHERENCE*/, 0))
                return ST_NOMEM;
        }
    }
    return 0;
}

/* Full read miss (fresh miss and invalidated-while-pending refetch):
 * classify, directory transaction (owner downgrade on dirty-remote),
 * SHARED install, counters, load stall. */
static int read_miss(Ctx *x, int cl, int64_t pid, int64_t line, int64_t t,
                     int64_t *stall_out) {
    int64_t cause = 0, home, stall;
    map_get(&x->hist[cl], line, &cause, NULL);
    int rc = home_of(x, line, &home);
    if (rc) return rc;
    int64_t ds = 0, dm = 0;
    map_get(&x->dir, line, &ds, &dm);
    if (ds == 2) { /* dirty remote owner */
        int owner = ctz64((uint64_t)dm);
        if (owner == cl) return ST_FAULT;
        stall = (cl == home) ? x->l_ldr
                             : (owner == home ? x->l_rc : x->l_rd3);
        /* owner keeps the data but downgrades; the reader joins */
        Cache *oc = &x->ca[owner];
        int64_t s;
        if (map_get(&oc->slot_of, line, &s, NULL)) oc->ln[s].state = 1;
    } else {
        stall = (cl == home) ? x->l_lc : x->l_rc;
    }
    if (map_put(&x->dir, line, 1, dm | (int64_t)(1ULL << cl)))
        return ST_NOMEM;
    rc = install(x, cl, pid, line, t + stall, 1);
    if (rc) return rc;
    int64_t *ct = x->ctr + (size_t)cl * NCTR;
    ct[2]++;            /* read_misses */
    ct[8 + cause]++;    /* by_cause */
    x->bd[4 * pid + 1] += stall; /* load */
    *stall_out = stall;
    return 0;
}

/* Write miss: fetch exclusive (latency hidden, line left pending),
 * invalidating every other sharer; invalidations_sent counts the whole
 * `others` mask unconditionally, exactly as the python kernel does. */
static int write_miss(Ctx *x, int cl, int64_t pid, int64_t line, int64_t t) {
    int64_t cause = 0, home, latency;
    map_get(&x->hist[cl], line, &cause, NULL);
    int rc = home_of(x, line, &home);
    if (rc) return rc;
    int64_t ds = 0, dm = 0;
    map_get(&x->dir, line, &ds, &dm);
    if (ds == 2) { /* dirty remote owner */
        int owner = ctz64((uint64_t)dm);
        if (owner == cl) return ST_FAULT;
        latency = (cl == home) ? x->l_ldr
                               : (owner == home ? x->l_rc : x->l_rd3);
    } else {
        latency = (cl == home) ? x->l_lc : x->l_rc;
    }
    uint64_t others = (uint64_t)dm & ~(1ULL << cl);
    if (others) {
        rc = invalidate(x, others, line);
        if (rc) return rc;
    }
    x->inv_sent += popcount64(others);
    if (map_put(&x->dir, line, 2, (int64_t)(1ULL << cl))) return ST_NOMEM;
    rc = install(x, cl, pid, line, t + latency, 2);
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
    if (map_get(&bs->ix, id, &i, NULL)) {
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
    if (map_put(&bs->ix, id, bs->n - 1, 0)) return ST_NOMEM;
    *out = b;
    return 0;
}

static int lock_of(Locks *ls, int64_t id, Lock **out) {
    int64_t i;
    if (map_get(&ls->ix, id, &i, NULL)) {
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
    if (map_put(&ls->ix, id, ls->n, 0)) return ST_NOMEM;
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
 * OS via MADV_SEQUENTIAL. */
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
    Ev *heap = NULL;
    int64_t hn = 0;
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

    x.ca = (Cache *)calloc(ncl, sizeof(Cache));
    x.hist = (Map *)calloc(ncl, sizeof(Map));
    heap = (Ev *)malloc((n + 4) * sizeof(Ev));
    ipos = (int64_t *)calloc(n, sizeof(int64_t));
    retry = (int64_t *)malloc(n * sizeof(int64_t));
    finish = (int64_t *)malloc(n * sizeof(int64_t));
    if (!x.ca || !x.hist || !heap || !ipos || !retry || !finish) {
        st = ST_NOMEM;
        goto done;
    }
    if ((st = map_init(&x.dir, 1024, 1))) goto done;
    if ((st = map_init(&x.pages, (size_t)n_ph * 2, 0))) goto done;
    if ((st = map_init(&bars.ix, 16, 0))) goto done;
    if ((st = map_init(&locks.ix, 16, 0))) goto done;
    for (int64_t i = 0; i < ncl; i++) {
        Cache *c = &x.ca[i];
        c->head = c->tail = c->free_head = -1;
        if ((st = map_init(&c->slot_of, 1024, 0))) goto done;
        if ((st = map_init(&x.hist[i], 256, 0))) goto done;
    }
    for (int64_t i = 0; i < n_ph; i++)
        if ((st = map_put(&x.pages, ph_pages[i], ph_homes[i], 0))) goto done;
    for (int64_t p = 0; p < n; p++) {
        finish[p] = -1;
        retry[p] = NO_LINE;
    }

    /* initial events: every processor at time 0, pid order == seq order */
    {
        int64_t seq0 = 0;
        for (int64_t p = 0; p < n; p++) {
            Ev e = {0, seq0++, p};
            heap_push(heap, &hn, e);
        }
    }
    int64_t seq = n;
    int64_t n_running = n;

    Ev e0 = heap_pop(heap, &hn);
    int64_t t = e0.t;
    int64_t pid = e0.pid;
    int64_t hz = hn ? heap[0].t : T_INF;
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
            int found = map_get(&c->slot_of, pending, &slot, NULL);
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
                int64_t op = po[ip];
                int64_t arg = pa[ip];
                ip++;
                if (op == 1) { /* READ */
                    bd[4 * pid] += 1;
                    ct[0]++;
                    int64_t slot;
                    int found = map_get(&c->slot_of, arg, &slot, NULL);
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
                    bd[4 * pid] += arg;
                    tn = t + arg;
                } else if (op == 2) { /* WRITE (never stalls) */
                    bd[4 * pid] += 1;
                    ct[1]++;
                    int64_t slot;
                    int found = map_get(&c->slot_of, arg, &slot, NULL);
                    if (found) {
                        if (x.touch) lru_touch(c, slot);
                        if (c->ln[slot].state != 2) {
                            /* upgrade: invalidate the other sharers */
                            ct[4]++;
                            int64_t ds = 0, dm = 0;
                            map_get(&x.dir, arg, &ds, &dm);
                            uint64_t others =
                                (uint64_t)dm & ~(1ULL << cl);
                            if (others) {
                                int rc = invalidate(&x, others, arg);
                                if (rc) {
                                    st = rc;
                                    goto done;
                                }
                                x.inv_sent += popcount64(others);
                            }
                            if (map_put(&x.dir, arg, 2,
                                        (int64_t)(1ULL << cl))) {
                                st = ST_NOMEM;
                                goto done;
                            }
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
                            Ev e = {t, seq++, b->wpid[w]};
                            heap_push(heap, &hn, e);
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
                } else { /* UNLOCK */
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
                        /* enqueue order (self, then next holder) fixes
                         * the tie-break at t+1 */
                        Ev e1 = {t + 1, seq++, pid};
                        heap_push(heap, &hn, e1);
                        bd[4 * np + 3] += t - arr;
                        Ev e2 = {t + 1, seq++, np};
                        heap_push(heap, &hn, e2);
                        noevent = 1;
                        break;
                    }
                    lk->holder = -1;
                    tn = t + 1;
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
            if (hn == 0) break;
        } else if (tn < hz) { /* retry arm / fresh merge only */
            t = tn;
            continue;
        } else {
            Ev e = {tn, seq++, pid};
            heap_push(heap, &hn, e);
        }
        Ev nx = heap_pop(heap, &hn);
        t = nx.t;
        pid = nx.pid;
        hz = hn ? heap[0].t : T_INF;
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
    if (x.hist) {
        for (int64_t i = 0; i < ncl; i++) map_free(&x.hist[i]);
        free(x.hist);
    }
    map_free(&x.dir);
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
    free(heap);
    free(ipos);
    free(retry);
    free(finish);
    return st;
}
