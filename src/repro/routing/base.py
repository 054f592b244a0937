"""Router interfaces and the immutable Path value type."""

from __future__ import annotations

import abc
import dataclasses
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RoutingError
from ..util import ensure_rng, RngLike

__all__ = ["DrawRouter", "Path", "Router"]


@dataclasses.dataclass(frozen=True)
class Path:
    """A loop-free node sequence from source to destination.

    Attributes
    ----------
    nodes:
        The node sequence including both endpoints.  A degenerate
        single-node path (src == dst) has zero hops and is rejected.
    """

    nodes: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise RoutingError("a path needs at least two nodes (src and dst)")
        for a, b in zip(self.nodes, self.nodes[1:]):
            if a == b:
                raise RoutingError(f"degenerate hop {a} -> {b} in path {self.nodes}")

    @property
    def src(self) -> int:
        return self.nodes[0]

    @property
    def dst(self) -> int:
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        """Number of links traversed."""
        return len(self.nodes) - 1

    def links(self) -> List[Tuple[int, int]]:
        """The (u, v) links traversed, in order."""
        return list(zip(self.nodes, self.nodes[1:]))

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def pad_walks(rows: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """Node sequences as a ``(k, width)`` walk array: each row is padded by
    repeating its last node, i.e. with skipped hops."""
    walks = np.empty((len(rows), width), dtype=np.int64)
    for i, nodes in enumerate(rows):
        walks[i, : len(nodes)] = nodes
        walks[i, len(nodes):] = nodes[-1]
    return walks


def _compact(walks: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Drop the skipped hops of *walks* into ``(paths, lengths)``.

    Works column by column: every row writes its next free slot, with
    the walk's node if it differs from its predecessor and with the
    ``-1`` padding if it repeats it (a skipped hop).
    """
    k, w = walks.shape
    out = np.full((k, max(w, width)), -1, dtype=np.int64)
    flat = out.reshape(-1)
    out[:, 0] = walks[:, 0]
    lengths = np.ones(k, dtype=np.int64)
    start = np.arange(0, out.size, out.shape[1])
    for j in range(1, w):
        step = walks[:, j] != walks[:, j - 1]
        flat[start + lengths] = np.where(step, walks[:, j], -1)
        lengths += step
    return out[:, :width], lengths


class Router(abc.ABC):
    """An oblivious routing scheme: a fixed path distribution per pair.

    Implementations provide :meth:`path_options` — the exact distribution —
    and inherit sampling (:meth:`path`, :meth:`paths_batch`), array
    enumeration (:meth:`options_batch`) and hop accounting.
    """

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes the router covers."""

    @property
    @abc.abstractmethod
    def max_hops(self) -> int:
        """Worst-case hop count over all pairs and random choices."""

    @abc.abstractmethod
    def path_options(self, src: int, dst: int) -> List[Tuple[float, Path]]:
        """The full path distribution for (src, dst): (probability, path)
        pairs summing to 1.  Samplers draw from the same distribution.
        """

    def _check_pair(self, src: int, dst: int) -> None:
        n = self.num_nodes
        if not (0 <= src < n and 0 <= dst < n):
            raise RoutingError(f"pair ({src}, {dst}) out of range [0, {n})")
        if src == dst:
            raise RoutingError("src and dst must differ")

    def _pair_arrays(self, srcs, dsts) -> Tuple[np.ndarray, np.ndarray]:
        """*srcs* and *dsts* as int64 arrays, checked like :meth:`_check_pair`."""
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.shape != dsts.shape or srcs.ndim != 1:
            raise RoutingError("srcs and dsts must be 1-D arrays of equal length")
        n = self.num_nodes
        if srcs.size and (
            min(srcs.min(), dsts.min()) < 0 or max(srcs.max(), dsts.max()) >= n
        ):
            raise RoutingError(f"pair batch references nodes outside [0, {n})")
        if (srcs == dsts).any():
            raise RoutingError("src and dst must differ")
        return srcs, dsts

    def path(self, src: int, dst: int, rng: RngLike = None) -> Path:
        """Sample one path from the scheme's distribution."""
        options = self.path_options(src, dst)
        if len(options) == 1:
            return options[0][1]
        gen = ensure_rng(rng)
        probs = np.array([p for p, _ in options])
        index = gen.choice(len(options), p=probs / probs.sum())
        return options[index][1]

    def paths_batch(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        rng: RngLike = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample one path per ``(srcs[i], dsts[i])`` pair, batched.

        Returns ``(paths, lengths)``: ``paths`` is an int64 array of shape
        ``(k, max_hops + 1)`` holding node sequences padded with ``-1``,
        and ``lengths[i]`` is the number of valid nodes in row ``i``.

        The contract every implementation must honor: calling
        ``paths_batch(srcs, dsts, gen)`` consumes the generator stream
        exactly as ``k`` successive ``path(srcs[i], dsts[i], gen)`` calls
        would, and yields the identical paths.  This is what lets the
        vectorized simulator engine reproduce the reference engine's
        behavior bit-for-bit (see :mod:`repro.sim.vectorized`).  This
        implementation simply loops :meth:`path`; :class:`DrawRouter`
        draws the whole batch in one call (NumPy draws a batched
        ``integers`` identically to repeated scalar draws).
        """
        srcs, dsts = self._pair_arrays(srcs, dsts)
        gen = ensure_rng(rng)
        rows = [self.path(s, d, gen).nodes for s, d in zip(srcs.tolist(), dsts.tolist())]
        return _compact(pad_walks(rows, self.max_hops + 1), self.max_hops + 1)

    def options_batch(self, srcs, dsts) -> Tuple[np.ndarray, ...]:
        """Every path of every pair: ``(pair, prob, paths, lengths)``.

        Row ``r`` is path ``paths[r, :lengths[r]]`` of pair ``pair[r]`` (an
        index into *srcs*/*dsts*) with probability ``prob[r]``; rows are
        pair-major.  This implementation packs :meth:`path_options`.
        """
        srcs, dsts = self._pair_arrays(srcs, dsts)
        pair, prob, rows = [], [], []
        for i, (src, dst) in enumerate(zip(srcs.tolist(), dsts.tolist())):
            for p, path in self.path_options(src, dst):
                pair.append(i)
                prob.append(p)
                rows.append(path.nodes)
        paths = _compact(pad_walks(rows, self.max_hops + 1), self.max_hops + 1)
        return (np.array(pair, dtype=np.int64), np.array(prob, dtype=float)) + paths

    def options_by_source(self, mask: Optional[np.ndarray] = None) -> Iterator[tuple]:
        """Yield ``(src, dsts, pair, prob, paths, lengths)`` for each source:
        its destinations (every other node, or where ``mask[src]`` is true)
        and their :meth:`options_batch`.  One source at a time keeps the
        enumeration's memory at one row of pairs."""
        n = self.num_nodes
        for src in range(n):
            keep = np.ones(n, dtype=bool) if mask is None else np.array(mask[src], dtype=bool)
            keep[src] = False
            dsts = np.flatnonzero(keep)
            if dsts.size:
                yield (src, dsts) + self.options_batch(np.full(dsts.size, src), dsts)

    def expected_hops(self, src: int, dst: int) -> float:
        """Mean hop count for the pair under the path distribution."""
        _, prob, _, lengths = self.options_batch([src], [dst])
        return float(prob @ (lengths - 1))

    def mean_hops_uniform(self) -> float:
        """Mean hop count under uniform all-to-all demand.

        This is the scheme's *bandwidth tax*: routing at mean hop count H
        multiplies the offered traffic volume by H, so worst-case
        throughput cannot exceed 1/H (paper's normalized bandwidth cost).
        """
        n = self.num_nodes
        total = sum(
            float(prob @ (lengths - 1))
            for _, _, _, prob, _, lengths in self.options_by_source()
        )
        return total / (n * (n - 1))

    def validate_distribution(self, src: int, dst: int, tol: float = 1e-9) -> None:
        """Check probabilities sum to 1 and every path connects the pair."""
        options = self.path_options(src, dst)
        mass = sum(p for p, _ in options)
        if abs(mass - 1.0) > tol:
            raise RoutingError(f"path probabilities sum to {mass}, expected 1")
        for p, path in options:
            if p < 0:
                raise RoutingError("negative path probability")
            if path.src != src or path.dst != dst:
                raise RoutingError(
                    f"path {path.nodes} does not connect {src} -> {dst}"
                )
            if path.hops > self.max_hops:
                raise RoutingError(
                    f"path {path.nodes} exceeds max_hops={self.max_hops}"
                )


class DrawRouter(Router):
    """A scheme that is a fixed function of a few uniform integer draws.

    A subclass states it once, as an array kernel: :meth:`draw_bounds`
    and :meth:`walks`.  Batched sampling, exact enumeration and
    :meth:`path_options` derive from the kernel.  :meth:`path` stays a
    scalar sampler making the same draws in the same order: the
    reference engine calls it once per cell, where a one-row kernel
    call costs ten times as much, and it is the kernel's test oracle.
    """

    #: Refuse to enumerate a pair with more draw combinations than this.
    MAX_ENUMERATION = 65536

    @abc.abstractmethod
    def draw_bounds(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """``(k, D)`` int64 bounds, each one uniform draw in ``[0, b)``.

        :meth:`path` draws a pair's values in column order.  A bound of
        1 has one outcome, for which NumPy consumes no randomness, so it
        pads the rows of pairs that draw fewer values.
        """

    @abc.abstractmethod
    def walks(self, srcs: np.ndarray, dsts: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """``(k, W)`` node walks from each src to its dst for the given
        draws.  A node equal to its predecessor marks a skipped hop."""

    @abc.abstractmethod
    def path(self, src: int, dst: int, rng: RngLike = None) -> Path:
        """Sample one path, drawing as :meth:`draw_bounds` states (never
        :meth:`Router.path`, whose ``gen.choice`` draws differently)."""

    def paths_batch(self, srcs, dsts, rng: RngLike = None):
        """One ``integers`` call over the batch's draws, pair-major — the
        stream ``k`` scalar :meth:`path` calls consume — then the kernel."""
        srcs, dsts = self._pair_arrays(srcs, dsts)
        draws = ensure_rng(rng).integers(0, self.draw_bounds(srcs, dsts))
        return _compact(self.walks(srcs, dsts, draws), self.max_hops + 1)

    def options_batch(self, srcs, dsts):
        """Every draw combination of every pair, each with probability
        ``1 / prod(bounds)``; within a pair the last draw varies fastest."""
        srcs, dsts = self._pair_arrays(srcs, dsts)
        sizes = self.draw_bounds(srcs, dsts)
        counts = sizes.prod(axis=1)
        if counts.size and counts.max() > self.MAX_ENUMERATION:
            raise RoutingError(
                f"exact enumeration of {counts.max()} paths refused; "
                f"use path() sampling at this scale"
            )
        pair = np.repeat(np.arange(srcs.size), counts)
        rank = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
        draws = np.empty((pair.size, sizes.shape[1]), dtype=np.int64)
        for col in range(sizes.shape[1] - 1, -1, -1):
            size = sizes[pair, col]
            draws[:, col] = rank % size
            rank //= size
        paths, lengths = _compact(
            self.walks(srcs[pair], dsts[pair], draws), self.max_hops + 1
        )
        return pair, 1.0 / counts[pair], paths, lengths

    def path_options(self, src: int, dst: int) -> List[Tuple[float, Path]]:
        """The pair's :meth:`options_batch` merged by node sequence.

        Shortest paths come first, then draw order.  The order is part
        of the scheme wherever a list is sampled: ``OperaRouter`` merges
        ``VlbRouter``'s list into its own and draws from it with
        ``gen.choice``.
        """
        self._check_pair(src, dst)
        _, prob, paths, lengths = self.options_batch([src], [dst])
        merged = {}
        for p, row, length in zip(prob.tolist(), paths.tolist(), lengths.tolist()):
            nodes = tuple(row[:length])
            merged[nodes] = merged.get(nodes, 0.0) + p
        options = [(p, Path(nodes)) for nodes, p in merged.items()]
        return sorted(options, key=lambda option: option[1].hops)
