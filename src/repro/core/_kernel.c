/*
 * Compiled counted-update kernel for repro.core.columnar.ColumnarRapTree.
 *
 * A line-for-line port of RapTree's update path (tree.py: the inline
 * fast loop of add_counted, _absorb and _split) onto the tree's
 * existing numpy columns. Python owns the columns and their growth,
 * and decides when to merge: the kernel returns K_MERGE when a merge is
 * due and K_GROW when a split needs more free slots than the columns
 * hold, and the caller runs rap_merge or grows the columns, then
 * resumes it at the saved (item, remaining, slot) point. Arithmetic is CPython's: every int-vs-double comparison is
 * exact at any magnitude (counters past 2**53 included), int-to-double
 * conversions round to nearest, and the root's 2**64 width is held in
 * unsigned __int128. Build with -ffp-contract=off (no fused multiply-add).
 * rap_bootstrap builds a fresh tree's first frame offline (the cold-start
 * bulk build of ColumnarRapTree.bootstrap_counted_arrays), rap_merge is
 * RapTree.merge_now's post-order pass, and rap_fold lays out the pruned
 * snapshot fold of shard counter rows (combine.py's _fold_columns). The
 * report path's two walks follow: rap_check (check_invariants) and
 * rap_hot (find_hot_ranges' post-order walk).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* partition_range geometry: [lo, hi] has n = min(b, width) cells, and
 * cell i starts at lo + i * base + min(i, extra). */
typedef struct { u128 base, lo; int64_t n, extra, i; } cells;

static int64_t cells_of(cells *c, const rap_tree *t, uint64_t lo, uint64_t hi)
{
    u128 width = (u128)hi - lo + 1;
    c->n = width < (u128)t->branching ? (int64_t)width : t->branching;
    c->base = width / (u128)c->n;
    c->extra = (int64_t)(width % (u128)c->n);
    c->lo = lo;
    c->i = 0;
    return c->n;
}

/* The next cell's bounds, in ascending lo; 0 past the last one. */
static int next_cell(cells *c, uint64_t *lo, uint64_t *hi)
{
    if (c->i == c->n) return 0;
    *lo = (uint64_t)c->lo;
    c->lo += c->base + (c->i++ < c->extra ? 1 : 0);
    *hi = (uint64_t)(c->lo - 1);
    return 1;
}

/* Link `kid` into `slot`'s chain after `prev` (NO_SLOT: as its head);
 * a kid of NO_SLOT ends the chain. */
static void link_after(rap_tree *t, int64_t slot, int64_t prev, int64_t kid)
{
    if (prev == NO_SLOT)
        t->first_child[slot] = (int32_t)kid;
    else
        t->next_sibling[prev] = (int32_t)kid;
}

/* First index of the sorted keys[a, z) past `hi`. */
static int64_t first_past(const uint64_t *keys, uint64_t hi, int64_t a,
                          int64_t z)
{
    while (a < z) {
        int64_t mid = a + (z - a) / 2;
        if (keys[mid] <= hi) a = mid + 1;
        else z = mid;
    }
    return a;
}

/* True when splitting `slot` fits the free slots; else sets `need`. */
static int room_to_split(rap_tree *t, int64_t slot)
{
    cells c;
    int64_t need = cells_of(&c, t, t->los[slot], t->his[slot])
                   - t->n_children[slot];
    if (t->free_top + t->capacity - t->size >= need) return 1;
    t->need = need;
    return 0;
}

/* RapTree._split: every partition cell of the slot's range that has no
 * surviving child gets a fresh zero-count child (allocated in cell
 * order, free stack first), and the chain is relinked in lo order. */
static void split(rap_tree *t, int64_t slot)
{
    cells c;
    int64_t n = cells_of(&c, t, t->los[slot], t->his[slot]);
    int32_t kid_depth = t->depth[slot] + 1;
    int64_t existing = t->first_child[slot];
    int64_t prev = NO_SLOT;
    int64_t created = 0;
    uint64_t kid_lo, kid_hi;
    while (next_cell(&c, &kid_lo, &kid_hi)) {
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
        link_after(t, slot, prev, kid);
        prev = kid;
    }
    link_after(t, slot, prev, NO_SLOT);
    t->n_children[slot] = (int32_t)n;
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
    cells c;
    int64_t prev = NO_SLOT;
    uint64_t kid_lo, kid_hi;
    cells_of(&c, t, lo, hi);
    b->bursts++;
    while (next_cell(&c, &kid_lo, &kid_hi)) {
        int64_t start = a;
        a = c.i == c.n ? z : first_past(b->values, kid_hi, a, z);
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
        link_after(t, slot, prev, kid);
        prev = kid;
        t->n_children[slot]++;
        if (!leaf) {
            b->fifo[b->tail++] = kid;
            b->fifo[b->tail++] = start;
            b->fifo[b->tail++] = a;
        }
    }
    if (b->fifo) link_after(t, slot, prev, NO_SLOT);
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

/* ---- Merge pass ---------------------------------------------------- */

/* RapTree.merge_now's post-order walk: collapse every child subtree of
 * `slot` weighing at most floor_t into it and return the subtree's
 * weight. A collapsible child is a leaf by then (its own children weigh
 * no more than it does), so its count is its weight. It is unlinked,
 * the chain keeping its lo order, and marked with count -1 for the
 * sweep. The recursion is as deep as the tree (64 levels at most). */
static int64_t merge_walk(rap_tree *t, int64_t slot, i128 floor_t)
{
    int64_t total = t->counts[slot];
    int64_t prev = NO_SLOT, kept = 0;
    for (int64_t kid = t->first_child[slot]; kid != NO_SLOT;
         kid = t->next_sibling[kid]) {
        int64_t weight = merge_walk(t, kid, floor_t);
        total += weight;
        if (weight <= floor_t) {
            t->counts[slot] += weight;
            t->counts[kid] = -1;
            continue;
        }
        link_after(t, slot, prev, kid);
        prev = kid;
        kept++;
    }
    link_after(t, slot, prev, NO_SLOT);
    t->n_children[slot] = (int32_t)kept;
    return total;
}

/*
 * One merge pass: collapse every non-root subtree of weight at most
 * `threshold` into its surviving parent, then free the removed slots
 * in one ascending sweep (count 0, leaf chain head, no children, not
 * live, pushed onto the free stack in slot order). Their other columns
 * keep their last values. Returns the number of nodes removed.
 */
int64_t rap_merge(rap_tree *t, double threshold)
{
    int64_t removed = 0;
    merge_walk(t, 0, floor_i(threshold));
    for (int64_t slot = 1; slot < t->size; slot++) {
        if (t->counts[slot] >= 0) continue;
        t->counts[slot] = 0;
        t->first_child[slot] = NO_SLOT;
        t->n_children[slot] = 0;
        t->live[slot] = 0;
        t->free_slots[t->free_top++] = (int32_t)slot;
        removed++;
    }
    t->node_count -= removed;
    return removed;
}

/* ---- Snapshot fold ------------------------------------------------- */

/* rap_fold's error returns. */
enum { F_OFF_PARTITION = -1, F_BELOW_ITEM = -2 };

/* The shards' counter rows sorted by (lo, depth), their prefix masses
 * (rows [a, z) weigh cum[z] - cum[a]), the merge threshold's floor, the
 * fill pass's per-slot row spans and the tallies. */
typedef struct {
    rap_tree *t;
    const uint64_t *los, *his;
    const int64_t *depth, *cum;
    i128 floor_t;
    int64_t *spans, survivors, complete;
} fold;

/* The node [lo, hi] at depth d over rows [a, z). Its own rows are the
 * head rows at its lo, which must sit at its depth with its hi, and no
 * rows may be left below an item range. Any other rows give it every
 * partition cell, and a cell survives the merge iff the node does and
 * the cell's rows outweigh the threshold. The counting pass (slot
 * NO_SLOT) tallies the cells and the survivors and recurses into every
 * cell with rows (as deep as the partition, 64 levels at most); the fill
 * pass gives each surviving cell the next slot, linked under `slot`, and
 * keeps the other cells' mass in the node's count. Returns 0 or an F_
 * code. */
static int64_t fold_node(fold *f, int64_t slot, uint64_t lo, uint64_t hi,
                         int64_t d, int64_t a, int64_t z, int survives)
{
    rap_tree *t = f->t;
    int64_t own = a, prev = NO_SLOT, kids = 0;
    for (; a < z && f->los[a] == lo && f->depth[a] <= d; a++)
        if (f->depth[a] != d || f->his[a] != hi) return F_OFF_PARTITION;
    if (a < z && lo == hi) return F_BELOW_ITEM;
    int64_t count = f->cum[a] - f->cum[own];
    int expand = a < z;
    cells c;
    uint64_t kid_lo, kid_hi;
    if (expand) f->complete += cells_of(&c, t, lo, hi);
    while (expand && next_cell(&c, &kid_lo, &kid_hi)) {
        int64_t start = a;
        a = c.i == c.n ? z : first_past(f->los, kid_hi, a, z);
        int64_t mass = f->cum[a] - f->cum[start];
        int kid_survives = survives && mass > f->floor_t;
        if (slot == NO_SLOT) {
            f->survivors += kid_survives;
            int64_t code = start < a ? fold_node(f, NO_SLOT, kid_lo, kid_hi,
                                                 d + 1, start, a, kid_survives)
                                     : 0;
            if (code) return code;
        } else if (!kid_survives) {
            count += mass;
        } else {
            int64_t kid = t->size++;
            t->los[kid] = kid_lo;
            t->his[kid] = kid_hi;
            t->depth[kid] = (int32_t)(d + 1);
            t->parents[kid] = (int32_t)slot;
            f->spans[2 * kid] = start;
            f->spans[2 * kid + 1] = a;
            link_after(t, slot, prev, kid);
            prev = kid;
            kids++;
        }
    }
    if (slot == NO_SLOT) return 0;
    link_after(t, slot, prev, NO_SLOT);
    t->counts[slot] = count;
    t->n_children[slot] = (int32_t)kids;
    t->live[slot] = 1;
    return 0;
}

/*
 * The snapshot fold, already pruned: the complete partition the rows
 * los/his/depth[0, n) (sorted by (lo, depth), prefix masses cum[0, n])
 * sit on, after one merge pass at `threshold`. With spans NULL this is
 * the counting pass: it writes nothing and returns the survivor count, with
 * the complete partition's size in *complete, or an F_ code. The fill
 * pass lays the survivors out breadth first from slot 0, so slots go in
 * (parent, ascending lo) order; it needs the columns and spans (2
 * entries a slot) to hold that many slots.
 */
int64_t rap_fold(rap_tree *t, const uint64_t *los, const uint64_t *his,
                 const int64_t *depth, const int64_t *cum, int64_t n,
                 double threshold, int64_t *spans, int64_t *complete)
{
    fold f = { t, los, his, depth, cum, floor_i(threshold), spans, 1, 1 };
    if (!spans) {
        int64_t code = n && los[n - 1] > t->root_hi
            ? F_OFF_PARTITION : fold_node(&f, NO_SLOT, 0, t->root_hi, 0, 0, n, 1);
        *complete = f.complete;
        return code ? code : f.survivors;
    }
    t->los[0] = 0;
    t->his[0] = t->root_hi;
    t->depth[0] = 0;
    t->parents[0] = NO_SLOT;
    t->next_sibling[0] = NO_SLOT;
    spans[0] = 0;
    spans[1] = n;
    t->size = 1;
    for (int64_t slot = 0; slot < t->size; slot++)
        fold_node(&f, slot, t->los[slot], t->his[slot], t->depth[slot],
                  spans[2 * slot], spans[2 * slot + 1], 1);
    t->node_count = t->size;
    t->free_top = 0;
    return t->size;
}

/* ---- Report path --------------------------------------------------- */

/* rap_check's findings, in the order it checks them (native.py's
 * CHECK_MESSAGES holds the message for each). */
enum { C_OK = 0, C_CAPACITY, C_NODE_COUNT, C_ROOT_DEAD, C_FREE_RANGE,
       C_FREE_DUP, C_FREE_LIVE, C_ACCOUNTING, C_FREE_DIRTY, C_NEGATIVE,
       C_WEIGHT, C_EMPTY, C_ROOT, C_PARENT, C_DEPTH, C_CHAIN,
       C_N_CHILDREN, C_OVERLAP, C_ROOT_CELL, C_CELL, C_NO_MEMORY };

/* Whether [lo, hi] is a partition cell of the splittable range
 * [plo, phi]: the cell formula (the first `extra` cells are base + 1
 * wide) inverted at lo, then re-applied. Deliberately not cells_of,
 * the code that made the cells. */
static int is_cell(const rap_tree *t, uint64_t plo, uint64_t phi,
                   uint64_t lo, uint64_t hi)
{
    if (phi <= plo || lo < plo) return 0;
    u128 width = (u128)phi - plo + 1;
    u128 n = width < (u128)t->branching ? width : (u128)t->branching;
    u128 base = width / n, extra = width % n;
    u128 offset = (u128)lo - plo, wide = extra * (base + 1);
    u128 cell = offset < wide ? offset / (base + 1)
                              : extra + (offset - wide) / base;
    u128 start = plo + cell * base + (cell < extra ? cell : extra);
    u128 end = start + base - (cell >= extra);
    return cell < n && start == lo && end == hi;
}

#define FAIL(code, where) do { *at = (where); return (code); } while (0)

/* rap_check's passes; kids[size] is zeroed scratch. Every index read
 * from a column is range-checked before it is used, and each chain
 * walk stops after the children that name its parent. */
static int check_tree(const rap_tree *t, int64_t *kids, int64_t *at)
{
    int64_t size = t->size, top = t->free_top, live_n = 0;
    const int32_t *stack = t->free_slots, *parents = t->parents;
    const int32_t *first = t->first_child, *next = t->next_sibling;
    const uint64_t *los = t->los, *his = t->his;
    const uint8_t *live = t->live;
    for (int64_t s = 0; s < size; s++) live_n += live[s] != 0;
    if (live_n != t->node_count) FAIL(C_NODE_COUNT, live_n);
    if (!size || !live[0]) FAIL(C_ROOT_DEAD, 0);

    /* Slot accounting: the free stack holds exactly the dead slots,
     * each restored to the allocation defaults a split relies on. */
    for (int64_t i = 0; i < top; i++)
        if (stack[i] < 0 || stack[i] >= size) FAIL(C_FREE_RANGE, i);
    for (int64_t i = 0; i < top; i++) {
        if (kids[stack[i]]) FAIL(C_FREE_DUP, stack[i]);
        kids[stack[i]] = 1;
    }
    for (int64_t i = 0; i < top; i++)
        if (live[stack[i]]) FAIL(C_FREE_LIVE, stack[i]);
    if (top + live_n != size) FAIL(C_ACCOUNTING, NO_SLOT);
    for (int64_t i = 0; i < top; i++) {
        int64_t s = stack[i];
        if (t->counts[s] || first[s] != NO_SLOT || t->n_children[s])
            FAIL(C_FREE_DIRTY, s);
    }

    /* Counts: non-negative, summed exactly to the event total. */
    i128 weight = 0;
    for (int64_t s = 0; s < size; s++) {
        if (!live[s]) continue;
        if (t->counts[s] < 0) FAIL(C_NEGATIVE, s);
        weight += t->counts[s];
    }
    if (weight != t->events) FAIL(C_WEIGHT, NO_SLOT);
    for (int64_t s = 0; s < size; s++)
        if (live[s] && los[s] > his[s]) FAIL(C_EMPTY, s);

    /* Pointers: every non-root live slot hangs one level below a live
     * parent, so the parent graph is a tree rooted at slot 0. */
    if (los[0] != 0 || his[0] != t->root_hi || t->depth[0] != 0
        || parents[0] != NO_SLOT)
        FAIL(C_ROOT, 0);
    memset(kids, 0, (size_t)size * sizeof *kids);
    for (int64_t s = 1; s < size; s++) {
        if (!live[s]) continue;
        int64_t p = parents[s];
        if (p < 0 || p >= size || !live[p]) FAIL(C_PARENT, s);
        kids[p]++;
    }
    for (int64_t s = 1; s < size; s++)
        if (live[s] && t->depth[s] != (int64_t)t->depth[parents[s]] + 1)
            FAIL(C_DEPTH, s);

    /* Chains: slot p's chain is its kids[p] children, strictly
     * ascending in (lo, slot), then the end; so every live slot is on
     * exactly one chain, its parent's. */
    if (next[0] != NO_SLOT) FAIL(C_CHAIN, 0);
    for (int64_t p = 0; p < size; p++) {
        if (!live[p]) continue;
        int64_t kid = first[p], prev = NO_SLOT;
        for (int64_t k = 0; k < kids[p]; k++) {
            if (kid < 0 || kid >= size || !live[kid] || parents[kid] != p
                || (prev != NO_SLOT
                    && (los[prev] > los[kid]
                        || (los[prev] == los[kid] && prev > kid))))
                FAIL(C_CHAIN, p);
            prev = kid;
            kid = next[kid];
        }
        if (kid != NO_SLOT) FAIL(C_CHAIN, p);
    }
    for (int64_t p = 0; p < size; p++)
        if (live[p] && t->n_children[p] != kids[p]) FAIL(C_N_CHILDREN, p);

    /* Geometry: siblings sorted and disjoint; each child one of its
     * parent's partition cells, the root's first. */
    for (int64_t p = 0; p < size; p++) {
        if (!live[p]) continue;
        for (int64_t kid = first[p]; kid != NO_SLOT && next[kid] != NO_SLOT;
             kid = next[kid])
            if (his[kid] >= los[next[kid]]) FAIL(C_OVERLAP, next[kid]);
    }
    for (int64_t p = 0; p < size; p++) {
        if (!live[p]) continue;
        for (int64_t kid = first[p]; kid != NO_SLOT; kid = next[kid])
            if (!is_cell(t, los[p], his[p], los[kid], his[kid]))
                FAIL(p ? C_CELL : C_ROOT_CELL, kid);
    }
    return C_OK;
}

/*
 * ColumnarRapTree.check_invariants: returns C_OK, or the first broken
 * invariant's C_ code with the slot (or free stack entry) it found in
 * *at. Reads columns that may be corrupt: indices are range-checked and
 * the walks are bounded, so a bad tree costs O(size) and no stray read.
 */
int rap_check(const rap_tree *t, int64_t *at)
{
    *at = NO_SLOT;
    if (t->size < 0 || t->size > t->capacity || t->free_top < 0
        || t->free_top > t->capacity)
        return C_CAPACITY;
    int64_t *kids = calloc((size_t)t->size + 1, sizeof *kids);
    if (!kids) return C_NO_MEMORY;
    int code = check_tree(t, kids, at);
    free(kids);
    return code;
}

/* Deepest walk rap_hot follows: a 2**64 universe split in two is 65
 * levels deep. */
#define HOT_DEPTH 66

/*
 * find_hot_ranges' post-order walk (hot_ranges._walk) over the sibling
 * chains, in any slot layout: a node's inclusive weight is its subtree's,
 * its exclusive weight folds in only the children at or below cut_m1
 * (ceil(cutoff) - 1), and a node whose exclusive weight passes cut_m1
 * is hot. Writes the hot nodes as (slot, exclusive, inclusive, depth)
 * rows to out (room for t->size rows), in the order the reference walk
 * appends them, and returns their count; -1 when the size passes the
 * capacity, or the chains reach past the slots, visit more than t->size
 * slots or nest past HOT_DEPTH.
 */
int64_t rap_hot(const rap_tree *t, int64_t cut_m1, int64_t *out)
{
    struct { int64_t slot, kid, exclusive, inclusive; } stack[HOT_DEPTH];
    int64_t top = 0, found = 0, visits = 1;
    if (t->size < 1 || t->size > t->capacity) return -1;
    stack[0].slot = 0;
    stack[0].kid = t->first_child[0];
    stack[0].exclusive = stack[0].inclusive = t->counts[0];
    for (;;) {
        int64_t kid = stack[top].kid;
        if (kid != NO_SLOT) {
            if (kid < 0 || kid >= t->size || ++visits > t->size
                || top + 1 == HOT_DEPTH)
                return -1;
            stack[top].kid = t->next_sibling[kid];
            top++;
            stack[top].slot = kid;
            stack[top].kid = t->first_child[kid];
            stack[top].exclusive = stack[top].inclusive = t->counts[kid];
            continue;
        }
        int64_t exclusive = stack[top].exclusive;
        if (exclusive > cut_m1) {
            out[4 * found] = stack[top].slot;
            out[4 * found + 1] = exclusive;
            out[4 * found + 2] = stack[top].inclusive;
            out[4 * found + 3] = top;
            found++;
        }
        if (!top) return found;
        stack[top - 1].inclusive += stack[top].inclusive;
        if (exclusive <= cut_m1) stack[top - 1].exclusive += exclusive;
        top--;
    }
}
