/* The store-and-forward mode engine's run loop, in C.
 *
 * This is the native backend's half of the contract declared in
 * src/repro/network/backends/: a bit-identical implementation of
 * repro.network.kernel._SfEngine.run -- the engine's step and its own
 * clock -- operating in place on the exact arrays that class builds
 * (int64 throughout).  Runs that share a route table share one copy of its
 * link sequence: a packet's next link is
 * link_seq[first_link_at[p] + pos[p]] + link_base[run_of[p]].  The
 * Python side prepares the batch (disjoint link-id
 * spaces, global pid order, per-run accounting arrays), hands the raw
 * pointers over through ctypes in one call per batch, and reads the
 * same arrays back for the outcomes -- so the only thing that moves
 * into C is the cycle loop: link arbitration, FIFO queue advance, fault
 * drops, the per-run bookkeeping scatter-adds and the clock.
 *
 * Bit-identity rules this file must (and does) preserve, in the order
 * the NumPy engine applies them each cycle:
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
 * Scalars that the NumPy class keeps as Python ints (next_pid,
 * in_flight) travel in the two-slot `state` array.  No allocation
 * happens here: `touched` is caller-owned scratch of at least `num`
 * slots, `pend` of `num_links` slots initialised to -1 (both return to
 * that state after every cycle).
 *
 * Keep this file dependency-free (stdint only): it is compiled on
 * demand by src/repro/network/backends/native.py with the system cc,
 * content-addressed by its own source hash.
 */

#include <stdint.h>

typedef int64_t i64;

#define STATE_NEXT_PID 0
#define STATE_IN_FLIGHT 1

/* Bump when the exported ABI below changes shape: the Python binder
 * refuses a library whose ABI it does not recognise instead of
 * calling into it with the wrong argument layout. */
#define REPRO_ADVANCE_ABI 4

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
    i64 num, i64 K, i64 num_links, i64 has_dead,
    const i64 *inject, const i64 *nhops, const i64 *first_link_at,
    const i64 *run_of, const i64 *link_seq, const i64 *link_base,
    const i64 *run_of_link, const i64 *dead_at,
    i64 *delivered_at, i64 *pos, i64 *succ,
    i64 *qhead, i64 *qtail, i64 *qlen,
    i64 *in_flight_r, i64 *last_busy_r, i64 *maxq_r, i64 *drop_r,
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
                fifo_append(p, link_seq[first_link_at[p]] + link_base[run_of[p]],
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
        for (i64 ln = 0; ln < num_links; ln++) {
            const i64 len = qlen[ln];
            if (len == 0) {
                continue;
            }
            const i64 rk = run_of_link[ln];
            /* 3. queue depth per run, measured before any fault drop */
            if (len > maxq_r[rk]) {
                maxq_r[rk] = len;
            }
            /* 4. a dead link loses its whole queue this cycle */
            if (has_dead && dead_at[ln] <= cycle) {
                drop_r[rk] += len;
                in_flight_r[rk] -= len;
                in_flight -= len;
                qhead[ln] = -1;
                qtail[ln] = -1;
                qlen[ln] = 0;
                continue;
            }
            /* 5. serve the head-of-queue packet */
            const i64 p = qhead[ln];
            qhead[ln] = succ[p];
            qlen[ln] = len - 1;
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
                    link_seq[first_link_at[p] + pos[p]] + link_base[run_of[p]];
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
    i64 num, i64 K, i64 num_links, i64 has_dead,
    const i64 *inject, const i64 *nhops, const i64 *first_link_at,
    const i64 *run_of, const i64 *link_seq, const i64 *link_base,
    const i64 *run_of_link, const i64 *dead_at,
    i64 *delivered_at, i64 *pos, i64 *succ,
    i64 *qhead, i64 *qtail, i64 *qlen,
    i64 *in_flight_r, i64 *last_busy_r, i64 *maxq_r, i64 *drop_r,
    i64 *touched, i64 *pend, i64 *state)
{
    i64 cycle = 0;
    while (cycle < max_cycles) {
        const i64 moved = sf_step(
            cycle, num, K, num_links, has_dead,
            inject, nhops, first_link_at, run_of, link_seq, link_base,
            run_of_link, dead_at, delivered_at, pos, succ, qhead, qtail, qlen,
            in_flight_r, last_busy_r, maxq_r, drop_r, touched, pend,
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
