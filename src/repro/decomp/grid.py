"""Block decompositions and their exact external-communication combinatorics."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add
from typing import Dict, List, Optional, Tuple

from repro.decomp.stencil import Stencil
from repro.errors import ConfigurationError

Coord = Tuple[int, ...]
Pair = Tuple[Coord, Coord]


@dataclass(frozen=True)
class DecompositionCounts:
    """The combinatorial columns of Table 1."""

    receiving_threads: int  # tr
    sending_threads: int  # ts
    list_length: int  # messages == match-list entries


class BlockDecomposition:
    """A process decomposed into a dense block of threads.

    The process's threads occupy the cells of ``dims`` (e.g. 32x32 or
    8x8x4); the surrounding space belongs to identically-decomposed
    neighbouring processes, so any stencil neighbour outside the block is an
    *external* cell whose message must cross the matching engine.
    """

    def __init__(self, dims: Tuple[int, ...]) -> None:
        if not dims or any(d < 1 for d in dims):
            raise ConfigurationError(f"invalid decomposition dims {dims}")
        self.dims = tuple(int(d) for d in dims)

    @property
    def ndim(self) -> int:
        """Dimensionality of the block."""
        return len(self.dims)

    @property
    def nthreads(self) -> int:
        """Total threads in the block."""
        out = 1
        for d in self.dims:
            out *= d
        return out

    def threads(self) -> List[Coord]:
        """All thread coordinates in the block."""
        return list(product(*(range(d) for d in self.dims)))

    def external_pairs(self, stencil: Stencil) -> List[Pair]:
        """All (thread, external neighbour cell) pairs — one message each."""
        if stencil.ndim != self.ndim:
            raise ConfigurationError(
                f"{stencil.name} is {stencil.ndim}-D but decomposition is "
                f"{self.ndim}-D"
            )
        dims = self.dims
        offsets = stencil.offsets
        pairs: List[Pair] = []
        for thread in self.threads():
            for off in offsets:
                neighbour = tuple(map(add, thread, off))
                for c, d in zip(neighbour, dims):
                    if c < 0 or c >= d:
                        pairs.append((thread, neighbour))
                        break
        return pairs

    def counts(
        self, stencil: Stencil, pairs: Optional[List[Pair]] = None
    ) -> DecompositionCounts:
        """Exact tr / ts / length for Table 1.

        *pairs*, when given, is this block's :meth:`external_pairs` for
        *stencil*, enumerated once by the caller and shared.
        """
        if pairs is None:
            pairs = self.external_pairs(stencil)
        receiving = {thread for thread, _ in pairs}
        sending = {cell for _, cell in pairs}
        return DecompositionCounts(
            receiving_threads=len(receiving),
            sending_threads=len(sending),
            list_length=len(pairs),
        )

    def pairs_by_thread(
        self, stencil: Stencil, pairs: Optional[List[Pair]] = None
    ) -> Dict[Coord, List[Coord]]:
        """External neighbour cells grouped per receiving thread, in a
        deterministic order (a thread posts its receives in program order).
        *pairs* as for :meth:`counts`."""
        if pairs is None:
            pairs = self.external_pairs(stencil)
        grouped: Dict[Coord, List[Coord]] = {}
        for thread, cell in pairs:
            grouped.setdefault(thread, []).append(cell)
        return grouped

    def pairs_by_sender(
        self, stencil: Stencil, pairs: Optional[List[Pair]] = None
    ) -> Dict[Coord, List[Coord]]:
        """Receiving threads grouped per external sending cell. *pairs* as
        for :meth:`counts`."""
        if pairs is None:
            pairs = self.external_pairs(stencil)
        grouped: Dict[Coord, List[Coord]] = {}
        for thread, cell in pairs:
            grouped.setdefault(cell, []).append(thread)
        return grouped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "x".join(str(d) for d in self.dims)
