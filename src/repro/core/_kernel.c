/*
 * Compiled counted-update kernel for repro.core.columnar.ColumnarRapTree.
 *
 * A line-for-line port of RapTree's update path (tree.py: the inline
 * fast loop of add_counted, _absorb and _split) onto the tree's
 * existing numpy columns. Python owns the columns, the merge
 * pass and column growth: the kernel returns K_MERGE when a merge is
 * due and K_GROW when a split needs more free slots than the columns
 * hold, and the caller resumes it at the saved (item, remaining, slot)
 * point. Arithmetic is CPython's: every int-vs-double comparison is
 * exact at any magnitude (counters past 2**53 included), int-to-double
 * conversions round to nearest, and the root's 2**64 width is held in
 * unsigned __int128. Build with -ffp-contract=off (no fused multiply-add).
 * rap_bootstrap builds a fresh tree's first frame offline (the cold-start
 * bulk build of ColumnarRapTree.bootstrap_counted_arrays).
 */
#include <math.h>
#include <stdint.h>

typedef __int128 i128;
typedef unsigned __int128 u128;

#define NO_SLOT (-1)

enum { K_DONE = 0, K_MERGE = 1, K_GROW = 2, K_BAD = 3, K_OVERFLOW = 4,
       K_TIMELINE = 5, K_UNCOVERED = 6 };

/* Resume phases: start the item, re-enter _absorb at `slot`, or finish
 * the item after the caller ran the merge that stopped it. */
enum { P_ITEM = 0, P_ABSORB = 1, P_MERGED = 2 };

/* Field order and types are mirrored by native.KernelState. */
typedef struct {
    int64_t *counts;
    uint64_t *los, *his;
    int32_t *parents, *first_child, *next_sibling, *n_children, *depth;
    uint8_t *live;
    int32_t *free_slots;
    int64_t capacity, size, free_top, node_count, events, cached_slot;
    uint64_t root_hi;
    int64_t branching;
    double eps_h, min_th, next_at;
    /* TreeStats fields the update path writes. */
    int64_t st_events, st_updates, st_splits, st_max_nodes;
    double st_node_seconds;
    int64_t sample_every, next_sample;
    int64_t *timeline, timeline_len, timeline_cap;
    /* Resume point, and the slot count a K_GROW asks for. */
    int64_t item, remaining, slot, phase, need;
} rap_tree;

int64_t rap_state_size(void) { return (int64_t)sizeof(rap_tree); }

/* ---- CPython-exact integer/double arithmetic ------------------------ */

static const double TWO_62 = 4611686018427387904.0;
static const double TWO_126 = 85070591730234615865843651857942052864.0;

/* floor and ceil as integers. Below 2**62 in magnitude a truncating
 * conversion is exact (every double from 2**52 up is integral), which
 * keeps the hot comparisons off libm; values past +-2**126 clamp, far
 * beyond any integer this kernel compares against them. */
static i128 floor_i(double d)
{
    if (d > -TWO_62 && d < TWO_62) {
        int64_t i = (int64_t)d;
        return i - ((double)i > d);
    }
    if (d >= TWO_126) return (i128)1 << 126;
    if (d <= -TWO_126) return -((i128)1 << 126);
    return (i128)floor(d);
}

static i128 ceil_i(double d)
{
    if (d > -TWO_62 && d < TWO_62) {
        int64_t i = (int64_t)d;
        return i + ((double)i < d);
    }
    if (d >= TWO_126) return (i128)1 << 126;
    if (d <= -TWO_126) return -((i128)1 << 126);
    return (i128)ceil(d);
}

/* For integral x: x <= d iff x <= floor(d), x >= d iff x >= ceil(d). */
#define LE(x, d) ((x) <= floor_i(d))
#define GT(x, d) ((x) > floor_i(d))
#define GE(x, d) ((x) >= ceil_i(d))

/* float(x): correctly rounded, like PyLong_AsDouble. */
static double to_d(i128 x)
{
    if (x >= INT64_MIN && x <= INT64_MAX) return (double)(int64_t)x;
    return (double)x;
}

/* max(eps / H * n, floor): the split threshold at event total n. */
static double threshold(const rap_tree *t, i128 n)
{
    double th = t->eps_h * to_d(n);
    return th < t->min_th ? t->min_th : th;
}

/* config.split_crossing_point: smallest m >= 1 with
 * count + m > threshold(events + m), or 0 if none exists. */
static i128 crossing(const rap_tree *t, int64_t count, int64_t events)
{
    double eps_h = t->eps_h;
    if (eps_h >= 1.0) return 0;
    i128 guess = (i128)((eps_h * (double)events - (double)count)
                        / (1.0 - eps_h)) + 1;
    i128 floor_guess = floor_i(t->min_th) + 1 - count;
    if (floor_guess > guess) guess = floor_guess;
    if (guess < 1) guess = 1;
    while (guess > 1
           && GT((i128)count + guess - 1, threshold(t, (i128)events + guess - 1)))
        guess--;
    while (!GT((i128)count + guess, threshold(t, (i128)events + guess)))
        guess++;
    return guess;
}

/* ---- TreeStats ----------------------------------------------------- */

/* observe_weight (sample = 1) and observe_batch (sample = 0). */
static void observe(rap_tree *t, int64_t weight, int64_t updates, int sample)
{
    t->st_events += weight;
    t->st_updates += updates;
    if (t->node_count > t->st_max_nodes) t->st_max_nodes = t->node_count;
    t->st_node_seconds += to_d((i128)weight * t->node_count);
    if (sample && t->sample_every > 0 && t->st_events >= t->next_sample) {
        t->timeline[2 * t->timeline_len] = t->st_events;
        t->timeline[2 * t->timeline_len + 1] = t->node_count;
        t->timeline_len++;
        t->next_sample = t->st_events + t->sample_every;
    }
}

/* ---- Structure ----------------------------------------------------- */

/* RapTree._locate: finger search up from the cached slot, then down
 * the sorted sibling chains. */
static int64_t descend(rap_tree *t, uint64_t value)
{
    int64_t slot = t->cached_slot;
    if (value < t->los[slot] || value > t->his[slot]) {
        slot = t->parents[slot];
        while (slot != NO_SLOT
               && (value < t->los[slot] || value > t->his[slot]))
            slot = t->parents[slot];
        if (slot == NO_SLOT) slot = 0;
    }
    for (;;) {
        int64_t child = t->first_child[slot];
        while (child != NO_SLOT && value > t->his[child])
            child = t->next_sibling[child];
        if (child == NO_SLOT || t->los[child] > value) {
            t->cached_slot = slot;
            return slot;
        }
        slot = child;
    }
}

static int64_t child_covering(const rap_tree *t, int64_t slot, uint64_t value)
{
    int64_t child = t->first_child[slot];
    while (child != NO_SLOT
           && !(t->los[child] <= value && value <= t->his[child]))
        child = t->next_sibling[child];
    return child;
}

/* partition_range cell count of a slot's range. */
static int64_t cell_count(const rap_tree *t, int64_t slot)
{
    u128 width = (u128)t->his[slot] - t->los[slot] + 1;
    return width < (u128)t->branching ? (int64_t)width : t->branching;
}

/* True when splitting `slot` fits the free slots; else sets `need`. */
static int room_to_split(rap_tree *t, int64_t slot)
{
    int64_t need = cell_count(t, slot) - t->n_children[slot];
    if (t->free_top + t->capacity - t->size >= need) return 1;
    t->need = need;
    return 0;
}

/* RapTree._split: every partition cell of the slot's range that has no
 * surviving child gets a fresh zero-count child (allocated in cell
 * order, free stack first), and the chain is relinked in lo order. */
static void split(rap_tree *t, int64_t slot)
{
    uint64_t lo = t->los[slot];
    u128 width = (u128)t->his[slot] - lo + 1;
    int64_t cells = cell_count(t, slot);
    u128 base = width / (u128)cells;
    int64_t extra = (int64_t)(width % (u128)cells);
    int32_t kid_depth = t->depth[slot] + 1;
    int64_t existing = t->first_child[slot];
    int64_t prev = NO_SLOT;
    int64_t created = 0;
    u128 cell_lo = lo;
    for (int64_t index = 0; index < cells; index++) {
        u128 cell_w = base + (index < extra ? 1 : 0);
        uint64_t kid_lo = (uint64_t)cell_lo;
        uint64_t kid_hi = (uint64_t)(cell_lo + cell_w - 1);
        int64_t kid;
        if (existing != NO_SLOT && t->los[existing] == kid_lo) {
            kid = existing;
            existing = t->next_sibling[existing];
        } else {
            if (t->free_top) {
                kid = t->free_slots[--t->free_top];
                t->live[kid] = 1;
            } else {
                kid = t->size++;
            }
            t->los[kid] = kid_lo;
            t->his[kid] = kid_hi;
            t->depth[kid] = kid_depth;
            created++;
        }
        t->parents[kid] = (int32_t)slot;
        if (prev == NO_SLOT)
            t->first_child[slot] = (int32_t)kid;
        else
            t->next_sibling[prev] = (int32_t)kid;
        prev = kid;
        cell_lo += cell_w;
    }
    t->next_sibling[prev] = NO_SLOT;
    t->n_children[slot] = (int32_t)cells;
    t->node_count += created;
    t->st_splits++;
}

/* ---- Update -------------------------------------------------------- */

/* RapTree._absorb: deposit t->remaining units of `value` from t->slot,
 * one run per split or merge boundary (closed-form crossing points). */
static int absorb(rap_tree *t, uint64_t value)
{
    int64_t slot = t->slot;
    int64_t remaining = t->remaining;
    if (t->phase == P_MERGED) {
        t->phase = P_ITEM;
        if (!remaining) return K_DONE;
        /* The merge may have recycled the slot: re-descend. */
        slot = descend(t, value);
    }
    t->phase = P_ITEM;
    for (;;) {
        if (t->sample_every > 0 && t->timeline_len == t->timeline_cap) {
            t->slot = slot;
            t->remaining = remaining;
            t->phase = P_ABSORB;
            return K_TIMELINE;
        }
        double next_at = t->next_at;
        int64_t events = t->events;
        /* Units until the merge trigger (exact), guarded to 1. */
        i128 m_merge = ceil_i(next_at) - events;
        if (m_merge < 1) m_merge = 1;
        int64_t m = (i128)remaining < m_merge ? remaining : (int64_t)m_merge;

        i128 m_split = 0;
        int64_t c0 = t->counts[slot];
        if (t->los[slot] != t->his[slot]
            && GT((i128)c0 + m, threshold(t, (i128)events + m))) {
            if (GT((i128)c0, threshold(t, (i128)events + 1))) {
                /* Already over threshold before absorbing (merge churn
                 * re-deposited weight): split dry, push the run down. */
                if (!room_to_split(t, slot)) goto grow;
                split(t, slot);
                slot = child_covering(t, slot, value);
                if (slot == NO_SLOT) return K_UNCOVERED;
                continue;
            }
            m_split = crossing(t, c0, events);
            if (0 < m_split && m_split < m) m = (int64_t)m_split;
        }
        int split_now = m_split != 0 && m == m_split;
        if (split_now && !room_to_split(t, slot)) goto grow;

        t->counts[slot] = c0 + m;
        t->events = events + m;
        remaining -= m;
        if (split_now) split(t, slot);
        observe(t, m, 0, 1);

        if (GE((i128)t->events, next_at)) {
            t->remaining = remaining;
            t->phase = P_MERGED;
            return K_MERGE;
        }
        if (!remaining) {
            t->cached_slot = slot;
            return K_DONE;
        }
        slot = child_covering(t, slot, value);
        if (slot == NO_SLOT) return K_UNCOVERED;
        continue;
    grow:
        t->slot = slot;
        t->remaining = remaining;
        t->phase = P_ABSORB;
        return K_GROW;
    }
}

/*
 * Feed items [t->item, n): `counts` NULL means one unit each. With
 * `direct` every item takes _absorb (RapTree.add); otherwise an item
 * that lands below its node's threshold and the merge trigger is
 * deposited inline (the add_counted fast loop), with its stats
 * batched until the next slow item. Returns K_DONE with t->item == n,
 * or stops at t->item: K_MERGE / K_GROW / K_TIMELINE (the caller acts,
 * then calls again), K_BAD (count <= 0 or value past the universe),
 * K_OVERFLOW (the event total would pass int64); K_UNCOVERED means a
 * split left the value without a covering child (a corrupted tree).
 */
int rap_ingest(rap_tree *t, const uint64_t *values, const int64_t *counts,
               int64_t n, int direct)
{
    int64_t pending_weight = 0, pending_updates = 0;
    /* First event total at the merge trigger; merges return to Python,
     * so it holds for the whole call. */
    i128 merge_at = ceil_i(t->next_at);
    int64_t i = t->item;
    uint64_t value;
    int code = K_DONE;
    if (t->phase != P_ITEM) {
        value = values[i];
        goto resume;
    }
    for (; i < n; i++) {
        value = values[i];
        int64_t count = counts ? counts[i] : 1;
        if (count <= 0 || value > t->root_hi) {
            code = K_BAD;
            break;
        }
        if ((i128)t->events + count > INT64_MAX) {
            code = K_OVERFLOW;
            break;
        }
        int64_t slot = descend(t, value);
        if (!direct) {
            i128 landed = (i128)t->events + count;
            if (landed < merge_at
                && (t->los[slot] == t->his[slot]
                    || LE((i128)t->counts[slot] + count,
                          threshold(t, landed)))) {
                t->counts[slot] += count;
                t->events += count;
                pending_weight += count;
                pending_updates++;
                continue;
            }
            if (pending_weight) {
                observe(t, pending_weight, pending_updates, 0);
                pending_weight = pending_updates = 0;
            }
        }
        t->slot = slot;
        t->remaining = count;
    resume:
        code = absorb(t, value);
        if (code != K_DONE) break;
        t->st_updates++;
    }
    if (pending_weight) observe(t, pending_weight, pending_updates, 0);
    t->item = i;
    return code;
}

/* ---- Cold-start bootstrap ------------------------------------------ */

/* The sorted frame, its prefix masses (slice [a, z) weighs cum[z] -
 * cum[a]), the leaf threshold, the fill pass's fifo and the tallies. */
typedef struct {
    rap_tree *t;
    const uint64_t *values;
    const int64_t *cum;
    int64_t floor_t, *fifo, tail, created, bursts;
} boot;

/* Burst [lo, hi], whose mass is the frame slice [a, z): its nonzero-mass
 * cells of split()'s geometry, in ascending lo. A cell is a leaf when
 * lo == hi or its mass is at most floor_t; any other cell bursts in
 * turn. The counting pass (no fifo) recurses and writes nothing; the
 * fill pass gives each cell the next slot (leaves hold their mass,
 * bursts 0), links it under `slot` and queues the bursts. */
static void burst(boot *b, int64_t slot, uint64_t lo, uint64_t hi,
                  int64_t a, int64_t z)
{
    rap_tree *t = b->t;
    u128 width = (u128)hi - lo + 1;
    int64_t cells = width < (u128)t->branching ? (int64_t)width : t->branching;
    u128 base = width / (u128)cells;
    int64_t extra = (int64_t)(width % (u128)cells);
    u128 cell_lo = lo;
    int64_t prev = NO_SLOT;
    b->bursts++;
    for (int64_t index = 0; index < cells; index++) {
        uint64_t kid_lo = (uint64_t)cell_lo;
        cell_lo += base + (index < extra ? 1 : 0);
        uint64_t kid_hi = (uint64_t)(cell_lo - 1);
        int64_t start = a;
        if (index + 1 == cells)
            a = z;
        else  /* a = first value past kid_hi */
            for (int64_t stop = z; a < stop;) {
                int64_t mid = a + (stop - a) / 2;
                if (b->values[mid] <= kid_hi) a = mid + 1;
                else stop = mid;
            }
        int64_t mass = b->cum[a] - b->cum[start];
        int leaf = kid_lo == kid_hi || mass <= b->floor_t;
        if (!mass) continue;
        b->created++;
        if (!b->fifo) {
            if (!leaf) burst(b, NO_SLOT, kid_lo, kid_hi, start, a);
            continue;
        }
        int64_t kid = t->size++;
        t->los[kid] = kid_lo;
        t->his[kid] = kid_hi;
        t->depth[kid] = t->depth[slot] + 1;
        t->parents[kid] = (int32_t)slot;
        t->counts[kid] = leaf ? mass : 0;
        if (prev == NO_SLOT)
            t->first_child[slot] = (int32_t)kid;
        else
            t->next_sibling[prev] = (int32_t)kid;
        prev = kid;
        t->n_children[slot]++;
        if (!leaf) {
            b->fifo[b->tail++] = kid;
            b->fifo[b->tail++] = start;
            b->fifo[b->tail++] = a;
        }
    }
    if (b->fifo) t->next_sibling[prev] = NO_SLOT;
}

/*
 * Build a fresh tree (the root alone) from the sorted frame values[0, n)
 * with prefix masses cum[0, n]: burst every range whose mass exceeds
 * floor_t, breadth first, so slots are handed out in (parent, ascending
 * lo) order. With fifo NULL this is the counting pass: it writes
 * nothing and returns the slots the build creates, with the burst count
 * in *bursts. The fill pass needs the columns to hold that many more
 * slots and a fifo of 3 * bursts entries, (slot, a, z) per queued burst.
 */
int64_t rap_bootstrap(rap_tree *t, const uint64_t *values, const int64_t *cum,
                      int64_t n, int64_t floor_t, int64_t *fifo,
                      int64_t *bursts)
{
    boot b = { t, values, cum, floor_t, fifo, 0, 0, 0 };
    if (t->root_hi == 0 || cum[n] <= floor_t) {
        if (fifo) t->counts[0] = cum[n];
    } else if (!fifo) {
        burst(&b, NO_SLOT, 0, t->root_hi, 0, n);
    } else {
        fifo[b.tail++] = 0;
        fifo[b.tail++] = 0;
        fifo[b.tail++] = n;
        for (int64_t head = 0; head < b.tail; head += 3)
            burst(&b, fifo[head], t->los[fifo[head]], t->his[fifo[head]],
                  fifo[head + 1], fifo[head + 2]);
    }
    if (fifo) t->node_count += b.created;
    *bursts = b.bursts;
    return b.created;
}
