"""Allocation-free slot kernels for the vectorized engine.

Every kernel works on :class:`repro.sim.network.LinkedVoqState` and the
engine's flat cell tables, in two kinds.  The array kernels pay a fixed
cost of NumPy calls and then little per cell, so they serve large planes
and batches:

- :func:`append_cells` enqueues a whole batch with one stable sort:
  cells are grouped by (VOQ pair, lane), linked intra-group through the
  shared ``nxt`` array, and spliced onto the per-group tails — FIFO
  order within every strict-priority lane is the input (circuit-major)
  order, exactly what the reference engine's per-cell appends produce.
  The per-pair ``qlen`` update indexes *unique* pairs (a by-product of
  the grouping sort), so the old large-batch ``np.add.at`` scatter
  becomes a plain fancy-index add.
- :func:`walk_candidates` runs the per-plane drain optimistically: a
  ``budget``-round candidate walk pops the head of the first nonempty
  lane of every active circuit simultaneously, advancing through ``nxt``
  — no mutation happens until the caller commits, so the walk doubles
  as a dry run the engine can discard when a same-slot multi-hop
  cascade (a later circuit of the same plane draining a cell forwarded
  by an earlier one) makes simultaneous pops inexact.
- :func:`commit_pops` applies a validated walk: heads scatter to the
  post-walk cursors, emptied lanes reset their tails, and the drained
  counts leave ``qlen`` — again via unique-pair indexing.

The sequential kernels loop in Python over flat memoryviews of the same
tables (a memoryview read returns a Python int in about half the time of
NumPy scalar indexing), so their cost is per cell and per circuit with
almost nothing fixed.  The engine picks them for planes and batches at
or under its size cutoff (``repro.sim.vectorized.SEQ_CUTOFF``):

- :func:`drain_plane_seq` drains one plane with the reference drain
  semantics verbatim — circuits in source order, lane priority,
  immediate forwarding, same-plane cascades.  It also replays the
  cascade planes the optimistic walk cannot commit.
- :func:`enqueue_seq` splices a small batch onto the VOQ tails one cell
  at a time, as :func:`drain_plane_seq` does for a forwarded cell.

All kernels are allocation-conscious: scratch buffers (candidate
matrices, pop/delivery staging) are preallocated once per session and
passed in; dtypes are int32 throughout the cell tables (cell ids, route
rows, hop cursors) *and* the dense ``qlen`` counter — a single VOQ can
never accumulate 2**31 cells before the cell tables exhaust memory, and
the narrow counter matters at paper scale (N=4096).  Per-slot group
sums that could overflow int32 in principle (``pcounts`` in
:func:`append_cells`) stay int64 before the in-place scatter.

Cell ids are **1-based** throughout: the engine reserves table row 0 as
a dummy, so ``0`` is the universal empty sentinel for ``head``/``tail``
cursors, ``nxt`` links, and candidate slots.  The zero sentinel lets the
big per-lane ``(L, N, N)`` cursor cubes come from ``np.zeros`` (calloc —
no page is touched until first use) instead of an eagerly written
``np.full(-1)``, which at N=4096 removes over a second of cold-start
page-fault cost from every session construction.
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

_EMPTY32 = np.empty(0, dtype=np.int32)


def append_cells(
    head: np.ndarray,
    tail: np.ndarray,
    nxt: np.ndarray,
    qlen: np.ndarray,
    cids: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    lanes: np.ndarray,
    num_lanes: int,
    num_nodes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Enqueue ``cids[i]`` at VOQ ``(us[i], vs[i])`` lane ``lanes[i]``.

    Input order is enqueue order: within every (pair, lane) group the
    cells are linked in the order given, matching the reference engine's
    sequential appends.  Returns the *unique* ``(u, v)`` pairs touched
    (for incremental max-VOQ tracking); ``qlen`` is updated in place.
    """
    k = cids.shape[0]
    if k == 0:
        return _EMPTY32, _EMPTY32
    # Sort key pair-major, lane-minor: groups (one splice each) are
    # (pair, lane)-unique and pair runs are contiguous, so the qlen
    # update needs no duplicate-safe scatter at all.
    pkey = us.astype(np.int64) * num_nodes + vs
    key = pkey * num_lanes + lanes
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
    gl = gkey % num_lanes
    gpair = gkey // num_lanes
    gu = gpair // num_nodes
    gv = gpair % num_nodes
    gh = sc[starts]
    gt = sc[ends]
    told = tail[gl, gu, gv]
    has = told > 0
    nxt[told[has]] = gh[has]
    empty = ~has
    head[gl[empty], gu[empty], gv[empty]] = gh[empty]
    tail[gl, gu, gv] = gt
    # Pair-level run lengths over the sorted array (pairs contiguous).
    pk = sk // num_lanes
    pnew = np.empty(k, dtype=bool)
    pnew[0] = True
    np.not_equal(pk[1:], pk[:-1], out=pnew[1:])
    pstarts = np.flatnonzero(pnew)
    pcounts = np.empty(pstarts.shape[0], dtype=np.int64)
    pcounts[:-1] = pstarts[1:] - pstarts[:-1]
    pcounts[-1] = k - pstarts[-1]
    ppair = pk[pstarts]
    pu = ppair // num_nodes
    pv = ppair % num_nodes
    qlen[pu, pv] += pcounts
    return pu, pv


def walk_candidates(
    head: np.ndarray,
    nxt: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    budget: int,
    cand: np.ndarray,
    arange_buf: np.ndarray,
) -> np.ndarray:
    """Optimistic per-plane candidate walk (no mutation).

    Fills ``cand[:budget, :C]`` with the cell ids each active circuit
    would pop per budget round (0 = none) assuming no same-plane
    cascade, and returns the post-walk per-lane head cursors ``(L, C)``
    for :func:`commit_pops`.  ``cand`` and ``arange_buf`` are
    preallocated scratch.
    """
    num_circuits = srcs.shape[0]
    cur = head[:, srcs, dsts]  # (L, C) gather — a copy, safe to advance
    sub = cand[:budget, :num_circuits]
    sub.fill(0)
    ar = arange_buf[:num_circuits]
    for rnd in range(budget):
        nonempty = cur > 0
        lane_sel = nonempty.argmax(axis=0)
        live = nonempty[lane_sel, ar]
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        picked = cur[lane_sel[idx], idx]
        sub[rnd, idx] = picked
        cur[lane_sel[idx], idx] = nxt[picked]
    return cur


def commit_pops(
    head: np.ndarray,
    tail: np.ndarray,
    qlen: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    cur: np.ndarray,
    got: np.ndarray,
) -> None:
    """Apply a validated candidate walk: scatter the advanced heads
    back, reset tails of emptied lanes, and drain ``got`` per pair from
    ``qlen`` (active pairs are unique within a plane matching)."""
    head[:, srcs, dsts] = cur
    tl = tail[:, srcs, dsts]
    tl[cur == 0] = 0
    tail[:, srcs, dsts] = tl
    qlen[srcs, dsts] -= got


def enqueue_seq(
    head,
    tail,
    qlen,
    nxt,
    cid0,
    us,
    vs,
    lanes,
    lo,
    hi,
    num_nodes,
    keys,
):
    """Enqueue cells ``lo..hi-1`` of a small batch one at a time.

    The scalar counterpart of :func:`append_cells`, over flat
    memoryviews (``head``/``tail`` index ``lane * N * N + u * N + v``,
    ``qlen`` indexes ``u * N + v``).  Cell ``i`` has id ``cid0 + i``,
    its ``nxt`` link already 0, and joins the tail of VOQ
    ``(us[i], vs[i])`` lane ``lanes[i]``; input order is enqueue order,
    as in :func:`append_cells`.  Appends every touched pair key
    ``u * N + v`` to *keys* (for max-VOQ tracking).  This is the same
    tail splice :func:`drain_plane_seq` does for a forwarded cell.
    """
    n = num_nodes
    nn = n * n
    append = keys.append
    cid = cid0 + lo
    for u, v, lane in zip(us[lo:hi], vs[lo:hi], lanes[lo:hi]):
        k = u * n + v
        t = lane * nn + k
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
    ridx,
    rhop,
    rfid,
    routes,
    width,
    rowlen,
    fwd_lane,
    row,
    num_nodes,
    budget,
    out_cids,
    out_del,
    out_got,
    keys,
):
    """Exact sequential drain of one plane over flat memoryviews.

    *row* is the plane's destination row (``row[s]`` is the node source
    ``s`` transmits to, ``-1`` when idle); ``routes`` is the route table
    flattened with row width *width*; the cube and ``qlen`` views index
    as in :func:`enqueue_seq`.  Reference semantics verbatim: circuits
    in source order, strict lane priority, up to *budget* pops per
    circuit, forwarded cells appended immediately — so a later circuit
    of the same plane drains them (the same-slot multi-hop cascade).
    A circuit's ``qlen`` is read when the scan reaches it, so a circuit
    that started the slot empty still drains what an earlier circuit
    forwarded to it.

    Records every popped cell id in pop order (``out_cids``), whether it
    delivered (``out_del``), each popping circuit's count at its source
    (``out_got[s]``; other entries are left as they were) and each
    forward's pair key in *keys*; returns ``(popped, delivered)``.
    """
    n = num_nodes
    nn = n * n
    append = keys.append
    pos = 0
    ndel = 0
    for s, d in enumerate(row):
        if d < 0:
            continue
        k = s * n + d
        q = qlen[k]
        if q == 0:
            continue
        # A forward leaves node d, never s, so it cannot land in this
        # VOQ: the pops are known up front and qlen drops once.
        got = q if q < budget else budget
        qlen[k] = q - got
        out_got[s] = got
        t = k
        for _ in range(got):
            cid = head[t]
            while cid == 0:  # strict lane priority: first nonempty lane
                t += nn
                cid = head[t]
            nx = nxt[cid]
            head[t] = nx
            if nx == 0:
                tail[t] = 0
            out_cids[pos] = cid
            r = ridx[cid]
            h = rhop[cid] + 1
            if h == rowlen[r] - 1:
                out_del[pos] = 1
                ndel += 1
            else:
                out_del[pos] = 0
                rhop[cid] = h
                b = r * width + h
                fk = routes[b] * n + routes[b + 1]
                ft = fwd_lane[rfid[cid]] * nn + fk
                nxt[cid] = 0
                told = tail[ft]
                if told:
                    nxt[told] = cid
                else:
                    head[ft] = cid
                tail[ft] = cid
                qlen[fk] += 1
                append(fk)
            pos += 1
    return pos, ndel
