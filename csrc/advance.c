/* The two mode engines' run loops, in C.
 *
 * This is the native backend's half of the contract declared in
 * src/repro/network/backends/: bit-identical implementations of
 * repro.network.kernel._SfEngine.run and _FlowEngine.run -- each
 * engine's step and its own clock -- operating in place on the exact
 * arrays those classes build (int64 throughout, except the flow
 * engine's two NumPy bool arrays, read as bytes; the binder checks
 * every array's dtype, contiguity and length before the call).  The
 * Python side prepares the batch, hands the raw pointers over through
 * ctypes in one call per batch, and reads the same arrays back for the
 * outcomes -- so the only thing that moves into C is the cycle loop.
 *
 * Layout (kernel._Engine builds it once, for both engines).  A channel
 * is one (link, VC) buffer; store-and-forward is the one-VC case, where
 * a channel is simply a link.  Run k's channels live in
 * [ext_base[k], ext_base[k+1]) and run_of_ext[e] is channel e's run, so
 * shared arrays never leak packets, credits or buffers between runs.
 * Packets are numbered globally by (inject cycle, run, local pid) and
 * run_of[p] is packet p's run.  Runs that share a route table and VC
 * count share one copy of its channel sequence: the channel of hop i
 * (0-based) of packet p is ext_seq[gfirst[p] + i] + ext_base[run_of[p]].
 * dead_at_ext[e] is channel e's fault cycle (read only when has_dead),
 * and the *_r arrays (dropped_r, maxq_r, last_busy_r, ...) are per-run
 * accounting.
 *
 * Store-and-forward (repro_sf_run).  Every channel is an unbounded FIFO
 * (qhead/qtail/qlen per channel, a succ pointer per packet) and pos[p]
 * counts the hops packet p has made.  The rules this engine must (and
 * does) preserve, in the order the NumPy engine applies them each
 * cycle:
 *
 *   1. inject every packet whose cycle has come, in ascending pid
 *      order: zero-hop packets deliver at their injection cycle, the
 *      rest append to their first link's FIFO; injecting marks the
 *      run busy this cycle;
 *   2. a run with packets in flight is busy this cycle even if a fault
 *      empties it below;
 *   3. per-link queue depth high-water marks are measured before any
 *      fault drop;
 *   4. a dead link drops its entire queue this cycle;
 *   5. every surviving busy link serves exactly its head-of-queue
 *      packet; arrivals append behind everything already queued, in
 *      ascending pid order within the cycle (the _fifo_append
 *      (link, pid) lexsort discipline) -- realised here by collecting
 *      each target link's arrivals into a pid-sorted pending list
 *      during the serve scan (a target link receives at most the
 *      in-degree of its tail node per cycle, so sorted insertion into
 *      these tiny lists beats any global per-cycle sort) and flushing
 *      the lists after the scan;
 *   6. when nothing moved, the clock jumps straight to the next
 *      injection; it stops when there is none or the cap is reached
 *      (the engine owns its clock: runs never interact, so no other
 *      engine's cycles matter to it).
 *
 * Flow control (repro_flow_run: wormhole and virtual cut-through).
 * holder/occ/hopb describe each channel (holding pid or -1, flits
 * buffered, the holder's 1-based hop there); head/srcf/tailb each
 * packet (hop of its head flit, flits still at the source, hop of its
 * rearmost in-network flit).  The rules, in the order _FlowEngine._step
 * applies them each cycle:
 *
 *   F1. a dying link kills every packet holding one of its channels --
 *       through an empty held channel too (the test is holder >= 0, not
 *       occ > 0): all the victim's channels are freed, its source flits
 *       discarded, it counts as dropped and its run is busy this cycle;
 *   F2. every packet whose injection cycle has come arrives, in pid
 *       order; a zero-hop packet delivers at its injection cycle and
 *       marks its run busy, but an arrival alone does not: it joins the
 *       pid-ordered FIFO of its first channel;
 *   F3. network candidates, read from start-of-cycle state (after F1
 *       and F2): an occupied channel's front flit is movable when it is
 *       at its last hop (it exits), when it is the head and the next
 *       channel is free, or when it is a body flit and the next channel
 *       (its own) has space; each physical link moves at most one flit:
 *       the smallest holder pid wins, a tie goes to the smallest channel
 *       id (the NumPy lexsort is stable over ascending channel ids);
 *       whether the mover is its packet's tail flit is read here too;
 *   F4. injection candidates: only the oldest live packet (srcf > 0)
 *       of each first channel's FIFO can move -- a younger waiter could
 *       only claim the channel the older one already holds, or lose the
 *       claim to it; its head needs the channel free, a body flit needs
 *       space in it (vct's whole-packet fit is checked up front, by
 *       buffer_depth >= every packet);
 *   F5. head flits (network or injection) claiming the same free
 *       channel: the smallest pid wins, losers stall in place;
 *   F6. every surviving move applies simultaneously; max_queue is then
 *       read on the receiving channels, after every move of the cycle;
 *   F7. per run: moving makes it busy this cycle; nothing live and
 *       nothing pending retires it; a live run that did not move, with
 *       no injection pending and no fault left (max_death <= cycle), is
 *       deadlocked -- the reference engine's exact predicate -- frozen
 *       at this cycle, its source flits dropped and its channels
 *       recycled;
 *   F8. the clock: one cycle after any movement, else a jump to the
 *       next event -- the next injection, or the next fault cycle of an
 *       active run with live packets -- and a stop when there is none or
 *       the cap is reached.  The engine owns its clock.
 *
 * The flow loop is work-proportional: per cycle it visits the held
 * channels (a worklist: a channel joins when a head flit claims it and
 * is dropped at the next scan after its release, fault or recycling),
 * the first channels with waiting packets (a worklist of FIFO heads)
 * and the K runs -- never every channel of every run.
 *
 * Scalars that the NumPy sf class keeps as Python ints (next_pid,
 * in_flight) travel in the two-slot `state` array.  No allocation
 * happens here: all scratch is caller-owned (see each entry point).
 *
 * Keep this file dependency-free (stdint only): it is compiled on
 * demand by src/repro/network/backends/native.py with the system cc,
 * content-addressed by its own source hash.
 */

#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

#define STATE_NEXT_PID 0
#define STATE_IN_FLIGHT 1

/* Bump when the exported ABI below changes shape: the Python binder
 * refuses a library whose ABI it does not recognise instead of
 * calling into it with the wrong argument layout. */
#define REPRO_ADVANCE_ABI 5

i64 repro_abi_version(void) { return REPRO_ADVANCE_ABI; }

/* Append one packet to a per-link FIFO kept as an intrusive linked
 * list (qhead/qtail/qlen per link, a succ pointer per packet) -- the
 * same queue discipline as kernel._fifo_append; callers guarantee
 * ascending pid order within a cycle, which is all the lexsort there
 * ever established. */
static void fifo_append(
    i64 p, i64 ln, i64 *succ, i64 *qhead, i64 *qtail, i64 *qlen)
{
    succ[p] = -1;
    if (qhead[ln] == -1) {
        qhead[ln] = p;
    } else {
        succ[qtail[ln]] = p;
    }
    qtail[ln] = p;
    qlen[ln] += 1;
}

/* One store-and-forward cycle over the whole prepared batch; returns
 * 1 when anything moved (injection, fault drop or queue advance). */
static i64 sf_step(
    i64 cycle,
    i64 num, i64 K, i64 num_ext, i64 has_dead,
    const i64 *inject, const i64 *nhops, const i64 *gfirst,
    const i64 *run_of, const i64 *ext_seq, const i64 *ext_base,
    const i64 *run_of_ext, const i64 *dead_at_ext,
    i64 *delivered_at, i64 *pos, i64 *succ,
    i64 *qhead, i64 *qtail, i64 *qlen,
    i64 *in_flight_r, i64 *last_busy_r, i64 *maxq_r, i64 *dropped_r,
    i64 *touched, i64 *pend, i64 *state)
{
    i64 moved = 0;
    i64 next_pid = state[STATE_NEXT_PID];
    i64 in_flight = state[STATE_IN_FLIGHT];

    /* 1. inject every packet whose cycle has come (pids ascending) */
    if (next_pid < num && inject[next_pid] <= cycle) {
        while (next_pid < num && inject[next_pid] <= cycle) {
            const i64 p = next_pid++;
            last_busy_r[run_of[p]] = cycle;
            if (nhops[p] == 0) {
                delivered_at[p] = inject[p];
            } else {
                fifo_append(p, ext_seq[gfirst[p]] + ext_base[run_of[p]],
                            succ, qhead, qtail, qlen);
                in_flight_r[run_of[p]] += 1;
                in_flight += 1;
            }
        }
        moved = 1;
    }

    if (in_flight > 0) {
        /* 2. a run with packets in flight is busy this cycle even if a
         *    fault empties it below */
        for (i64 k = 0; k < K; k++) {
            if (in_flight_r[k] > 0) {
                last_busy_r[k] = cycle;
            }
        }
        i64 ntouch = 0;
        for (i64 e = 0; e < num_ext; e++) {
            const i64 len = qlen[e];
            if (len == 0) {
                continue;
            }
            const i64 rk = run_of_ext[e];
            /* 3. queue depth per run, measured before any fault drop */
            if (len > maxq_r[rk]) {
                maxq_r[rk] = len;
            }
            /* 4. a dead link loses its whole queue this cycle */
            if (has_dead && dead_at_ext[e] <= cycle) {
                dropped_r[rk] += len;
                in_flight_r[rk] -= len;
                in_flight -= len;
                qhead[e] = -1;
                qtail[e] = -1;
                qlen[e] = 0;
                continue;
            }
            /* 5. serve the head-of-queue packet */
            const i64 p = qhead[e];
            qhead[e] = succ[p];
            qlen[e] = len - 1;
            pos[p] += 1;
            if (pos[p] == nhops[p]) {
                delivered_at[p] = cycle + 1;
                in_flight_r[run_of[p]] -= 1;
                in_flight -= 1;
            } else {
                /* park the mover on its target link's pending list,
                 * kept pid-sorted by insertion (succ doubles as the
                 * next pointer: p left its queue, nothing reads
                 * succ[p] until the flush below rewrites it) */
                const i64 t =
                    ext_seq[gfirst[p] + pos[p]] + ext_base[run_of[p]];
                i64 prev = -1;
                i64 cur = pend[t];
                if (cur < 0) {
                    touched[ntouch++] = t;
                }
                while (cur >= 0 && cur < p) {
                    prev = cur;
                    cur = succ[cur];
                }
                succ[p] = cur;
                if (prev < 0) {
                    pend[t] = p;
                } else {
                    succ[prev] = p;
                }
            }
        }
        /* flush: arrivals join behind this cycle's injections, in
         * (link, pid) order within each target link */
        for (i64 j = 0; j < ntouch; j++) {
            const i64 t = touched[j];
            i64 p = pend[t];
            pend[t] = -1;
            while (p >= 0) {
                const i64 nx = succ[p];
                fifo_append(p, t, succ, qhead, qtail, qlen);
                p = nx;
            }
        }
        moved = 1;
    }

    state[STATE_NEXT_PID] = next_pid;
    state[STATE_IN_FLIGHT] = in_flight;
    return moved;
}

/* The engine's whole run, replicating kernel._clock exactly -- advance
 * one cycle after any movement, jump to the next injection when
 * quiescent (store-and-forward always progresses while anything is
 * queued, so the next injection is the only event worth waking for),
 * stop when the work or the cycle cap runs out.  Returns the final
 * cycle (the outcome code only reads the arrays, but the value is
 * handy for debugging). */
i64 repro_sf_run(
    i64 max_cycles,
    i64 num, i64 K, i64 num_ext, i64 has_dead,
    const i64 *inject, const i64 *nhops, const i64 *gfirst,
    const i64 *run_of, const i64 *ext_seq, const i64 *ext_base,
    const i64 *run_of_ext, const i64 *dead_at_ext,
    i64 *delivered_at, i64 *pos, i64 *succ,
    i64 *qhead, i64 *qtail, i64 *qlen,
    i64 *in_flight_r, i64 *last_busy_r, i64 *maxq_r, i64 *dropped_r,
    i64 *touched, i64 *pend, i64 *state)
{
    i64 cycle = 0;
    while (cycle < max_cycles) {
        const i64 moved = sf_step(
            cycle, num, K, num_ext, has_dead,
            inject, nhops, gfirst, run_of, ext_seq, ext_base,
            run_of_ext, dead_at_ext, delivered_at, pos, succ, qhead, qtail, qlen,
            in_flight_r, last_busy_r, maxq_r, dropped_r, touched, pend,
            state);
        if (moved) {
            cycle += 1;
            continue;
        }
        if (state[STATE_NEXT_PID] < num) {
            const i64 ev = inject[state[STATE_NEXT_PID]];
            cycle = ev < max_cycles ? ev : max_cycles;
            continue;
        }
        break;
    }
    return cycle;
}

/* ------------------------------------------------------------------ */
/* Flow-control engine (rules F1-F8 in the header)                     */
/* ------------------------------------------------------------------ */

/* Move flags: the mover's flit is its packet's head / at its last hop
 * / its tail, and the move survived the claims of F5. */
#define MV_HEAD 1
#define MV_LAST 2
#define MV_TAIL 4
#define MV_KEEP 8

/* The batch, its state and the scratch worklists of one flow run. */
typedef struct {
    i64 num, K, has_dead;
    const i64 *inject, *nhops, *gfirst, *run_of, *ext_seq, *ext_base;
    const i64 *phys_of_ext, *cap_ext, *run_of_ext, *dead_at_ext;
    const i64 *totals, *max_death, *death, *death_off;
    i64 *holder, *occ, *hopb, *head, *srcf, *tailb, *delivered_at;
    i64 *arrived, *delivered_r, *dropped_r, *maxq_r, *last_busy_r;
    u8 *deadlocked_r, *active;
    /* per channel */
    i64 *held;        /* worklist of held channels; may keep released
                         ones until the next F3 scan drops them */
    i64 *fifo_head;   /* oldest waiting packet per first channel, -1 */
    i64 *fifo_tail;   /* youngest waiting packet per first channel, -1 */
    i64 *waiting;     /* worklist of first channels with a FIFO */
    i64 *claim;       /* smallest claiming pid per free channel, -1 */
    i64 *inj_p, *inj_e, *inj_flags;  /* F4 candidates */
    i64 *victims;     /* F1 */
    /* per physical link */
    i64 *best;        /* the winning channel of F3, -1 */
    i64 *mv_e, *mv_to, *mv_flags;    /* F3 movers (mv_e first lists
                                         the links with a candidate) */
    /* per packet / per run */
    i64 *fifo_next;
    i64 *moved;
    i64 nheld, nwaiting, next_pid, nactive;
} flow_t;

/* The channel of hop i (0-based) of packet p. */
static i64 channel_at(const flow_t *f, i64 p, i64 i)
{
    return f->ext_seq[f->gfirst[p] + i] + f->ext_base[f->run_of[p]];
}

static void claim_for(flow_t *f, i64 t, i64 p)
{
    if (f->claim[t] < 0 || p < f->claim[t]) {
        f->claim[t] = p;
    }
}

/* F1: kill every holder of a channel dead by this cycle.  A victim is
 * marked srcf = -1 while its channels are freed (the mark becomes the
 * 0 every victim ends with). */
static void flow_faults(flow_t *f, i64 cycle)
{
    i64 nv = 0;
    for (i64 x = 0; x < f->nheld; x++) {
        const i64 e = f->held[x];
        const i64 p = f->holder[e];
        if (p >= 0 && f->dead_at_ext[e] <= cycle && f->srcf[p] != -1) {
            f->srcf[p] = -1;
            f->victims[nv++] = p;
        }
    }
    if (nv == 0) {
        return;
    }
    for (i64 x = 0; x < f->nheld; x++) {
        const i64 e = f->held[x];
        const i64 p = f->holder[e];
        if (p >= 0 && f->srcf[p] == -1) {
            f->holder[e] = -1;
            f->occ[e] = 0;
        }
    }
    for (i64 v = 0; v < nv; v++) {
        const i64 p = f->victims[v];
        f->srcf[p] = 0;
        f->dropped_r[f->run_of[p]] += 1;
        f->moved[f->run_of[p]] = 1;
    }
}

/* F2: arrivals, in pid order, onto their first channel's FIFO. */
static void flow_arrivals(flow_t *f, i64 cycle)
{
    while (f->next_pid < f->num && f->inject[f->next_pid] <= cycle) {
        const i64 p = f->next_pid++;
        const i64 k = f->run_of[p];
        f->arrived[k] += 1;
        if (f->nhops[p] == 0) {
            f->delivered_at[p] = f->inject[p];
            f->delivered_r[k] += 1;
            f->moved[k] = 1;
            continue;
        }
        const i64 w = channel_at(f, p, 0);
        f->fifo_next[p] = -1;
        if (f->fifo_head[w] < 0) {
            f->fifo_head[w] = p;
            f->waiting[f->nwaiting++] = w;
        } else {
            f->fifo_next[f->fifo_tail[w]] = p;
        }
        f->fifo_tail[w] = p;
    }
}

/* F3: scan the held channels (dropping released ones from the
 * worklist), pick each physical link's mover and record its move.
 * Returns the number of movers. */
static i64 flow_network_candidates(flow_t *f)
{
    i64 nlinks = 0;
    i64 kept = 0;
    for (i64 x = 0; x < f->nheld; x++) {
        const i64 e = f->held[x];
        const i64 p = f->holder[e];
        if (p < 0) {
            continue;
        }
        f->held[kept++] = e;
        if (f->occ[e] == 0) {
            continue;
        }
        const i64 i = f->hopb[e];
        if (i != f->nhops[p]) {
            const i64 to = channel_at(f, p, i);
            const i64 ok = f->head[p] == i ? f->holder[to] < 0
                                           : f->occ[to] < f->cap_ext[to];
            if (!ok) {
                continue;
            }
        }
        const i64 ph = f->phys_of_ext[e];
        const i64 b = f->best[ph];
        if (b < 0) {
            f->best[ph] = e;
            f->mv_e[nlinks++] = ph;
        } else if (p < f->holder[b] || (p == f->holder[b] && e < b)) {
            f->best[ph] = e;
        }
    }
    f->nheld = kept;
    for (i64 x = 0; x < nlinks; x++) {
        const i64 ph = f->mv_e[x];
        const i64 e = f->best[ph];
        f->best[ph] = -1;
        const i64 p = f->holder[e];
        const i64 i = f->hopb[e];
        i64 flags = f->head[p] == i ? MV_HEAD : 0;
        i64 to = -1;
        if (i == f->nhops[p]) {
            flags |= MV_LAST;
        } else {
            to = channel_at(f, p, i);
        }
        if (f->srcf[p] == 0 && f->tailb[p] == i && f->occ[e] == 1) {
            flags |= MV_TAIL;
        }
        f->mv_e[x] = e;
        f->mv_to[x] = to;
        f->mv_flags[x] = flags;
        if ((flags & (MV_HEAD | MV_LAST)) == MV_HEAD) {
            claim_for(f, to, p);
        }
    }
    return nlinks;
}

/* F4: the oldest live packet of each first channel's FIFO (dropping
 * finished, killed and frozen packets from the FIFO heads, and empty
 * FIFOs from the worklist).  Returns the number of candidates. */
static i64 flow_injection_candidates(flow_t *f)
{
    i64 ninj = 0;
    i64 kept = 0;
    for (i64 x = 0; x < f->nwaiting; x++) {
        const i64 w = f->waiting[x];
        i64 q = f->fifo_head[w];
        while (q >= 0 && f->srcf[q] == 0) {
            q = f->fifo_next[q];
        }
        f->fifo_head[w] = q;
        if (q < 0) {
            f->fifo_tail[w] = -1;
            continue;
        }
        f->waiting[kept++] = w;
        if (f->head[q] == 0) {
            if (f->holder[w] < 0) {
                f->inj_p[ninj] = q;
                f->inj_e[ninj] = w;
                f->inj_flags[ninj++] = MV_HEAD;
                claim_for(f, w, q);
            }
        } else if (f->occ[w] < f->cap_ext[w]) {
            f->inj_p[ninj] = q;
            f->inj_e[ninj] = w;
            f->inj_flags[ninj++] = 0;
        }
    }
    f->nwaiting = kept;
    return ninj;
}

/* F5-F6: settle the claims, apply every surviving move, then read the
 * receiving channels' occupancy.  The holder and hop of a mover's own
 * channel change only in its own move, so they are read at apply
 * time. */
static void flow_apply(flow_t *f, i64 cycle, i64 nmv, i64 ninj)
{
    for (i64 x = 0; x < nmv; x++) {
        const i64 claims = (f->mv_flags[x] & (MV_HEAD | MV_LAST)) == MV_HEAD;
        if (!claims || f->claim[f->mv_to[x]] == f->holder[f->mv_e[x]]) {
            f->mv_flags[x] |= MV_KEEP;
        }
    }
    for (i64 y = 0; y < ninj; y++) {
        if (!(f->inj_flags[y] & MV_HEAD) || f->claim[f->inj_e[y]] == f->inj_p[y]) {
            f->inj_flags[y] |= MV_KEEP;
        }
    }
    for (i64 x = 0; x < nmv; x++) {
        const i64 e = f->mv_e[x];
        const i64 to = f->mv_to[x];
        const i64 flags = f->mv_flags[x];
        if ((flags & (MV_HEAD | MV_LAST)) == MV_HEAD) {
            f->claim[to] = -1;
        }
        if (!(flags & MV_KEEP)) {
            continue;
        }
        const i64 p = f->holder[e];
        const i64 i = f->hopb[e];
        f->occ[e] -= 1;
        if (flags & MV_TAIL) {
            f->holder[e] = -1;
            if (!(flags & MV_LAST)) {
                f->tailb[p] = i + 1;
            }
        }
        if (flags & MV_HEAD) {
            if (flags & MV_LAST) {
                f->head[p] = f->nhops[p] + 1;
            } else {
                f->holder[to] = p;
                f->hopb[to] = i + 1;
                f->head[p] = i + 1;
                f->held[f->nheld++] = to;
            }
        }
        if (!(flags & MV_LAST)) {
            f->occ[to] += 1;
        } else if (flags & MV_TAIL) {
            f->delivered_at[p] = cycle + 1;
            f->delivered_r[f->run_of[p]] += 1;
        }
        f->moved[f->run_of[p]] = 1;
    }
    for (i64 y = 0; y < ninj; y++) {
        const i64 q = f->inj_p[y];
        const i64 w = f->inj_e[y];
        const i64 flags = f->inj_flags[y];
        if (flags & MV_HEAD) {
            f->claim[w] = -1;
        }
        if (!(flags & MV_KEEP)) {
            continue;
        }
        f->srcf[q] -= 1;
        f->occ[w] += 1;
        if (flags & MV_HEAD) {
            f->holder[w] = q;
            f->hopb[w] = 1;
            f->head[q] = 1;
            f->held[f->nheld++] = w;
        }
        if (f->srcf[q] == 0) {
            f->tailb[q] = 1;
        }
        f->moved[f->run_of[q]] = 1;
    }
    /* max_queue on every receiving channel, after all moves */
    for (i64 x = 0; x < nmv; x++) {
        if ((f->mv_flags[x] & (MV_KEEP | MV_LAST)) == MV_KEEP) {
            const i64 t = f->mv_to[x];
            const i64 k = f->run_of_ext[t];
            if (f->occ[t] > f->maxq_r[k]) {
                f->maxq_r[k] = f->occ[t];
            }
        }
    }
    for (i64 y = 0; y < ninj; y++) {
        if (f->inj_flags[y] & MV_KEEP) {
            const i64 t = f->inj_e[y];
            const i64 k = f->run_of_ext[t];
            if (f->occ[t] > f->maxq_r[k]) {
                f->maxq_r[k] = f->occ[t];
            }
        }
    }
}

/* F7: per-run verdicts; returns 1 when any run moved. */
static i64 flow_verdicts(flow_t *f, i64 cycle)
{
    i64 any = 0;
    i64 convicted = 0;
    for (i64 k = 0; k < f->K; k++) {
        if (f->moved[k]) {
            f->last_busy_r[k] = cycle;
            any = 1;
        }
        if (!f->active[k]) {
            continue;
        }
        const i64 live = f->arrived[k] - f->delivered_r[k] - f->dropped_r[k];
        const i64 pending = f->arrived[k] < f->totals[k];
        if (live == 0 && !pending) {
            f->active[k] = 0;
            f->nactive -= 1;
        } else if (!f->moved[k] && live > 0 && !pending
                   && f->max_death[k] <= cycle) {
            f->deadlocked_r[k] = 1;
            f->active[k] = 0;
            f->nactive -= 1;
            convicted = 1;
        }
    }
    if (convicted) {
        /* a frozen run drops its source flits and recycles its channels
         * (earlier frozen runs have none left, so touching them again
         * is a no-op) */
        for (i64 p = 0; p < f->next_pid; p++) {
            if (f->deadlocked_r[f->run_of[p]]) {
                f->srcf[p] = 0;
            }
        }
        for (i64 x = 0; x < f->nheld; x++) {
            const i64 e = f->held[x];
            if (f->deadlocked_r[f->run_of_ext[e]]) {
                f->holder[e] = -1;
                f->occ[e] = 0;
            }
        }
    }
    return any;
}

/* One flow-control cycle over the whole batch (rules F1-F7); returns 1
 * when any run moved. */
static i64 flow_step(flow_t *f, i64 cycle)
{
    if (f->nactive == 0) {
        return 0;
    }
    for (i64 k = 0; k < f->K; k++) {
        f->moved[k] = 0;
    }
    if (f->has_dead) {
        flow_faults(f, cycle);
    }
    flow_arrivals(f, cycle);
    const i64 nmv = flow_network_candidates(f);
    const i64 ninj = flow_injection_candidates(f);
    flow_apply(f, cycle, nmv, ninj);
    return flow_verdicts(f, cycle);
}

/* F8's next event after a quiet cycle: the next injection anywhere, or
 * the next fault cycle of an active run with live packets; -1 when
 * there is none. */
static i64 flow_next_event(const flow_t *f, i64 cycle)
{
    i64 ev = f->next_pid < f->num ? f->inject[f->next_pid] : -1;
    for (i64 k = 0; k < f->K; k++) {
        const i64 live = f->arrived[k] - f->delivered_r[k] - f->dropped_r[k];
        if (!f->active[k] || live <= 0) {
            continue;
        }
        /* first death cycle > cycle (the run's list is sorted) */
        i64 lo = f->death_off[k];
        i64 hi = f->death_off[k + 1];
        while (lo < hi) {
            const i64 mid = lo + (hi - lo) / 2;
            if (f->death[mid] <= cycle) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if (lo < f->death_off[k + 1] && (ev < 0 || f->death[lo] < ev)) {
            ev = f->death[lo];
        }
    }
    return ev;
}

/* The flow engine's whole run, replicating _FlowEngine.run (its _step
 * under kernel._clock) exactly.  `scratch` is caller-owned, of
 * `scratch_len` >= 9 * num_ext + 4 * num_phys + num + K slots (no
 * initialisation needed); a shorter one returns -1 before touching
 * anything.  Otherwise returns the final cycle. */
i64 repro_flow_run(
    i64 max_cycles,
    i64 num, i64 K, i64 num_ext, i64 num_phys, i64 has_dead,
    const i64 *inject, const i64 *nhops, const i64 *gfirst,
    const i64 *run_of, const i64 *ext_seq, const i64 *ext_base,
    const i64 *phys_of_ext, const i64 *cap_ext, const i64 *run_of_ext,
    const i64 *dead_at_ext, const i64 *totals, const i64 *max_death,
    const i64 *death, const i64 *death_off,
    i64 *holder, i64 *occ, i64 *hopb,
    i64 *head, i64 *srcf, i64 *tailb, i64 *delivered_at,
    i64 *arrived, i64 *delivered_r, i64 *dropped_r, i64 *maxq_r,
    i64 *last_busy_r, u8 *deadlocked_r, u8 *active,
    i64 *scratch, i64 scratch_len)
{
    if (scratch_len < 9 * num_ext + 4 * num_phys + num + K) {
        return -1;
    }
    flow_t f = {
        .num = num, .K = K, .has_dead = has_dead,
        .inject = inject, .nhops = nhops, .gfirst = gfirst,
        .run_of = run_of, .ext_seq = ext_seq, .ext_base = ext_base,
        .phys_of_ext = phys_of_ext, .cap_ext = cap_ext,
        .run_of_ext = run_of_ext, .dead_at_ext = dead_at_ext,
        .totals = totals, .max_death = max_death,
        .death = death, .death_off = death_off,
        .holder = holder, .occ = occ, .hopb = hopb,
        .head = head, .srcf = srcf, .tailb = tailb,
        .delivered_at = delivered_at,
        .arrived = arrived, .delivered_r = delivered_r,
        .dropped_r = dropped_r, .maxq_r = maxq_r,
        .last_busy_r = last_busy_r,
        .deadlocked_r = deadlocked_r, .active = active,
    };
    i64 *s = scratch;
    f.held = s; s += num_ext;
    f.fifo_head = s; s += num_ext;
    f.fifo_tail = s; s += num_ext;
    f.waiting = s; s += num_ext;
    f.claim = s; s += num_ext;
    f.inj_p = s; s += num_ext;
    f.inj_e = s; s += num_ext;
    f.inj_flags = s; s += num_ext;
    f.victims = s; s += num_ext;
    f.best = s; s += num_phys;
    f.mv_e = s; s += num_phys;
    f.mv_to = s; s += num_phys;
    f.mv_flags = s; s += num_phys;
    f.fifo_next = s; s += num;
    f.moved = s;
    for (i64 e = 0; e < num_ext; e++) {
        f.fifo_head[e] = -1;
        f.fifo_tail[e] = -1;
        f.claim[e] = -1;
    }
    for (i64 ph = 0; ph < num_phys; ph++) {
        f.best[ph] = -1;
    }
    for (i64 k = 0; k < K; k++) {
        f.nactive += active[k] != 0;
    }

    i64 cycle = 0;
    while (cycle < max_cycles) {
        if (flow_step(&f, cycle)) {
            cycle += 1;
            continue;
        }
        const i64 ev = flow_next_event(&f, cycle);
        if (ev < 0) {
            break;
        }
        cycle = ev < max_cycles ? ev : max_cycles;
    }
    return cycle;
}
