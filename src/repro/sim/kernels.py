"""Allocation-free slot kernels for the vectorized engine.

Every kernel works on :class:`repro.sim.network.LinkedVoqState` and the
engine's flat cell tables.  A VOQ is one flat key: ``k = u * K + r``
for node ``u`` and neighbor rank ``r`` (``K`` ranks per node) indexes
``qlen``, and ``lane * N * K + k`` indexes the flattened ``head`` and
``tail`` arrays, so no kernel mixes slices with fancy indexing and none
maps a node pair to a rank — a cell's route row carries each hop's
rank, and a plane's rank row comes from the engine's ``kcol`` table.

The kernels come in two kinds.  The array kernels pay a fixed cost of
NumPy calls and then little per cell, so they serve large planes and
batches:

- :func:`append_cells` enqueues a whole batch with one stable sort:
  cells are grouped by (VOQ, lane), linked intra-group through the
  shared ``nxt`` array, and spliced onto the per-group tails — FIFO
  order within every strict-priority lane is the input (circuit-major)
  order, exactly what the reference engine's per-cell appends produce.
  The per-VOQ ``qlen`` update indexes *unique* keys (a by-product of
  the grouping sort), so it needs no duplicate-safe scatter.
- :func:`walk_candidates` runs the per-plane drain optimistically: it
  pops the head of the first nonempty lane of every active circuit
  simultaneously (a circuit carries one cell per slot), advancing
  through ``nxt`` — no mutation happens until the caller commits, so
  the walk doubles as a dry run the engine can discard when a same-slot
  multi-hop cascade (a later circuit of the same plane draining a cell
  forwarded by an earlier one) makes simultaneous pops inexact.
- :func:`commit_pops` applies a validated walk: heads scatter to the
  post-walk cursors, emptied lanes reset their tails, and each popping
  circuit's cell leaves ``qlen`` — again via unique-key indexing.

The sequential kernels loop in Python over flat memoryviews of the same
tables (a memoryview read returns a Python int in about half the time of
NumPy scalar indexing), so their cost is per cell and per circuit with
almost nothing fixed.  The engine picks them for planes and batches at
or under its size cutoff (``repro.sim.vectorized.SEQ_CUTOFF``):

- :func:`drain_plane_seq` drains one plane with the reference drain
  semantics verbatim — circuits in source order, lane priority,
  immediate forwarding, same-plane cascades — walking the plane's
  ``(src, VOQ key)`` pairs, a Python list the engine builds once per
  bank row, and writing delivered cell ids straight into the span's
  delivery buffer.  It also replays the cascade planes the optimistic
  walk cannot commit.
- :func:`enqueue_seq` splices a small batch onto the VOQ tails one cell
  at a time, as :func:`drain_plane_seq` does for a forwarded cell.

All kernels are allocation-conscious: scratch buffers (the walk's
index buffer, the span delivery buffer both drains write) are
preallocated per session and passed in; dtypes are int32 throughout
the cell tables (cell ids, route rows and ranks, hop cursors) *and*
the ``qlen`` counter — a single VOQ can never accumulate 2**31 cells
before the cell tables exhaust memory.
Per-slot group sums that could overflow int32 in principle (``pcounts``
in :func:`append_cells`) stay int64 before the in-place scatter.

Cell ids are **1-based** throughout, and a cell's id is its row in every
per-cell table (``nxt``, ``rhop``, ``rfid``, ``rowlen``, and the route
and rank rows): no table maps a cell to its route.  Row 0 is never a
cell, so ``0`` is the universal empty sentinel for ``head``/``tail``
cursors, ``nxt`` links, and candidates.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "append_cells",
    "walk_candidates",
    "commit_pops",
    "enqueue_seq",
    "drain_plane_seq",
]

_EMPTY64 = np.empty(0, dtype=np.int64)


def append_cells(
    head: np.ndarray,
    tail: np.ndarray,
    nxt: np.ndarray,
    qlen: np.ndarray,
    cids: np.ndarray,
    keys: np.ndarray,
    lanes: np.ndarray,
    num_lanes: int,
) -> np.ndarray:
    """Enqueue ``cids[i]`` at VOQ ``keys[i]`` lane ``lanes[i]``.

    ``head``/``tail`` are the flat lane-major cursor arrays and ``qlen``
    the flat counters (module docstring).  Input order is enqueue order:
    within every (VOQ, lane) group the cells are linked in the order
    given, matching the reference engine's sequential appends.  Returns
    the *unique* VOQ keys touched (for incremental max-VOQ tracking);
    ``qlen`` is updated in place.
    """
    k = cids.shape[0]
    if k == 0:
        return _EMPTY64
    # Sort key VOQ-major, lane-minor: groups (one splice each) are
    # (VOQ, lane)-unique and VOQ runs are contiguous, so the qlen
    # update needs no duplicate-safe scatter at all.
    key = keys.astype(np.int64) * num_lanes + lanes
    order = np.argsort(key, kind="stable")
    sc = cids[order]
    sk = key[order]
    newg = np.empty(k, dtype=bool)
    newg[0] = True
    np.not_equal(sk[1:], sk[:-1], out=newg[1:])
    starts = np.flatnonzero(newg)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = k - 1
    # Intra-group chain: each non-start position links from its
    # predecessor; group tails terminate.
    inner = np.flatnonzero(~newg)
    nxt[sc[inner - 1]] = sc[inner]
    nxt[sc[ends]] = 0
    gkey = sk[starts]
    gslot = (gkey % num_lanes) * qlen.shape[0] + gkey // num_lanes
    gh = sc[starts]
    told = tail[gslot]
    has = told > 0
    nxt[told[has]] = gh[has]
    empty = ~has
    head[gslot[empty]] = gh[empty]
    tail[gslot] = sc[ends]
    # VOQ-level run lengths over the sorted array (VOQs contiguous).
    pk = sk // num_lanes
    pnew = np.empty(k, dtype=bool)
    pnew[0] = True
    np.not_equal(pk[1:], pk[:-1], out=pnew[1:])
    pstarts = np.flatnonzero(pnew)
    pcounts = np.empty(pstarts.shape[0], dtype=np.int64)
    pcounts[:-1] = pstarts[1:] - pstarts[:-1]
    pcounts[-1] = k - pstarts[-1]
    touched = pk[pstarts]
    qlen[touched] += pcounts
    return touched


def walk_candidates(
    head: np.ndarray,
    nxt: np.ndarray,
    keys: np.ndarray,
    num_lanes: int,
    arange_buf: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimistic per-plane candidate walk (no mutation).

    Returns the cell id each active circuit — VOQ ``keys[c]`` — would
    pop (0 = none) assuming no same-plane cascade, plus the post-walk
    per-lane head cursors ``(L, C)`` and their flat ``head`` indices,
    for :func:`commit_pops`.  ``arange_buf`` is preallocated scratch.
    """
    num_circuits = keys.shape[0]
    lane_base = np.arange(num_lanes, dtype=np.int64) * (head.shape[0] // num_lanes)
    slots = np.add.outer(lane_base, keys)
    cur = head[slots]  # (L, C) gather — a copy, safe to advance
    lane_sel = (cur > 0).argmax(axis=0)
    ar = arange_buf[:num_circuits]
    # The first nonempty lane's head, or lane 0's 0 when all are empty.
    cand = cur[lane_sel, ar]
    idx = np.flatnonzero(cand)
    cur[lane_sel[idx], idx] = nxt[cand[idx]]
    return cand, cur, slots


def commit_pops(
    head: np.ndarray,
    tail: np.ndarray,
    qlen: np.ndarray,
    keys: np.ndarray,
    slots: np.ndarray,
    cur: np.ndarray,
    popped: np.ndarray,
) -> None:
    """Apply a validated candidate walk: scatter the advanced heads back
    to their flat *slots*, reset tails of emptied lanes, and take one
    cell from ``qlen`` per circuit the boolean *popped* marks (a plane's
    VOQ keys are unique)."""
    head[slots] = cur
    tail[slots[cur == 0]] = 0
    qlen[keys] -= popped


def enqueue_seq(head, tail, qlen, nxt, cid0, keys, lanes, lo, hi, touched):
    """Enqueue cells ``lo..hi-1`` of a small batch one at a time.

    The scalar counterpart of :func:`append_cells`, over flat
    memoryviews of the same arrays.  Cell ``i`` has id ``cid0 + i``, its
    ``nxt`` link already 0, and joins the tail of VOQ ``keys[i]`` lane
    ``lanes[i]``; input order is enqueue order, as in
    :func:`append_cells`.  Appends every touched VOQ key to *touched*
    (for max-VOQ tracking).  This is the same tail splice
    :func:`drain_plane_seq` does for a forwarded cell.
    """
    nk = len(qlen)
    append = touched.append
    cid = cid0 + lo
    for k, lane in zip(keys[lo:hi], lanes[lo:hi]):
        t = lane * nk + k
        told = tail[t]
        if told:
            nxt[told] = cid
        else:
            head[t] = cid
        tail[t] = cid
        qlen[k] += 1
        append(k)
        cid += 1


def drain_plane_seq(
    head,
    tail,
    qlen,
    nxt,
    rhop,
    rfid,
    routes,
    rranks,
    width,
    rowlen,
    fwd_lane,
    pairs,
    ranks_per_node,
    delivered,
    dpos,
    touched,
    events,
):
    """Exact sequential drain of one plane over flat memoryviews.

    *pairs* yields the plane's circuits in source order as ``(src, VOQ
    key)``, the key of the queue at ``src`` toward the node it transmits
    to; ``routes`` and ``rranks`` are the route table and its per-hop
    ranks, flattened with row width *width*, and like every per-cell
    table indexed by cell id; the VOQ views index as in
    :func:`enqueue_seq`.
    Reference semantics verbatim: circuits in source order, strict lane
    priority, one pop per circuit, forwarded cells appended immediately
    — so a later circuit of the same plane drains them (the same-slot
    multi-hop cascade).  A circuit's ``qlen`` is read when the scan
    reaches it, so a circuit that started the slot empty still drains
    what an earlier circuit forwarded to it.

    Writes every delivered cell id, in delivery order, to *delivered*
    from position *dpos* on and returns the position one past the last;
    appends each forward's VOQ key to *touched*.  When *events* is a
    list (event consumers are attached), appends one ``(src, cell id,
    delivered)`` record per pop, in pop order; ``None`` skips them.
    """
    kk = ranks_per_node
    nk = len(qlen)
    append = touched.append
    for s, k in pairs:
        q = qlen[k]
        if q == 0:
            continue
        qlen[k] = q - 1
        t = k
        cid = head[t]
        while cid == 0:  # strict lane priority: first nonempty lane
            t += nk
            cid = head[t]
        nx = nxt[cid]
        head[t] = nx
        if nx == 0:
            tail[t] = 0
        h = rhop[cid] + 1
        if h == rowlen[cid] - 1:
            delivered[dpos] = cid
            dpos += 1
            if events is not None:
                events.append((s, cid, True))
            continue
        rhop[cid] = h
        b = cid * width + h
        fk = routes[b] * kk + rranks[b]
        ft = fwd_lane[rfid[cid]] * nk + fk
        nxt[cid] = 0
        told = tail[ft]
        if told:
            nxt[told] = cid
        else:
            head[ft] = cid
        tail[ft] = cid
        qlen[fk] += 1
        append(fk)
        if events is not None:
            events.append((s, cid, False))
    return dpos
