"""The Table 1 benchmark: multithreaded posting + scrambled sends.

Protocol (paper section 2.3): every receiving thread posts one receive per
external neighbour cell during a BSP communication phase; posting order
across threads is nondeterministic (scheduling/lock contention). The proxy
process then issues the matching sends, also from concurrent threads, so
arrival order is a second random interleaving. Each message must search the
receiver's single match list; Table 1 reports the mean search depth over ten
trials.

Messages are identified as in the real benchmark: the source rank is the
proxy process, and the tag encodes the (thread, neighbour-cell) pair, so
matching is by tag within one source — forcing genuine list traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.decomp.grid import BlockDecomposition, DecompositionCounts, Pair
from repro.decomp.stencil import get_stencil
from repro.matching.factory import make_queue
from repro.mpi.process import MpiProcess
from repro.mpi.message import Message
from repro.matching.envelope import Envelope
from repro.mpi.threads import interleave_streams, shuffled

#: The exact decomposition/stencil rows of Table 1.
TABLE1_ROWS: Tuple[Tuple[Tuple[int, ...], str], ...] = (
    ((32, 32), "5pt"),
    ((64, 32), "5pt"),
    ((32, 32), "9pt"),
    ((64, 32), "9pt"),
    ((8, 8, 4), "7pt"),
    ((1, 1, 128), "7pt"),
    ((1, 1, 256), "7pt"),
    ((8, 8, 4), "27pt"),
    ((1, 1, 128), "27pt"),
    ((1, 1, 256), "27pt"),
)

#: Rank of the proxy sending process in the benchmark's 2-process world.
PROXY_RANK = 1


@dataclass
class DecompResult:
    """One Table 1 row: exact combinatorics + measured mean search depth."""

    dims: Tuple[int, ...]
    stencil: str
    counts: DecompositionCounts
    mean_search_depth: float
    depth_std: float
    trials: int

    def as_row(self) -> Tuple[str, str, int, int, int, float]:
        """The Table 1 row tuple (decomp, stencil, tr, ts, length, depth)."""
        return (
            "x".join(str(d) for d in self.dims),
            self.stencil,
            self.counts.receiving_threads,
            self.counts.sending_threads,
            self.counts.list_length,
            self.mean_search_depth,
        )


def _pair_tag(pair_index: int) -> int:
    return 1000 + pair_index


def run_decomposition(
    dims: Sequence[int],
    stencil_name: str,
    rng: np.random.Generator,
    *,
    queue_family: str = "baseline",
    pairs: Optional[List[Pair]] = None,
) -> float:
    """One trial: returns the mean PRQ search depth over all messages.

    *pairs* is the block's external-pair enumeration for the stencil, when
    the caller already has it (:func:`run_trials` shares one across trials).
    """
    block = BlockDecomposition(tuple(dims))
    stencil = get_stencil(stencil_name)
    if pairs is None:
        pairs = block.external_pairs(stencil)
    by_thread = block.pairs_by_thread(stencil, pairs)
    # Assign every (thread, cell) pair a unique tag.
    pair_ids: Dict[Tuple, int] = {}
    for thread, cells in sorted(by_thread.items()):
        for cell in cells:
            pair_ids[(thread, cell)] = len(pair_ids)

    proc = MpiProcess(0, make_queue(queue_family), make_queue(queue_family, entry_bytes=16))

    # Phase 1: threads post receives concurrently (random interleaving).
    post_streams: List[List[int]] = [
        [pair_ids[(thread, cell)] for cell in cells]
        for thread, cells in sorted(by_thread.items())
    ]
    for pair_index in interleave_streams(post_streams, rng):
        proc.post_recv(src=PROXY_RANK, tag=_pair_tag(pair_index), cid=0)

    # Phase 2: the proxy's sending threads issue the messages, one sending
    # thread per distinct external cell, again randomly interleaved.
    by_sender = block.pairs_by_sender(stencil, pairs)
    send_streams: List[List[int]] = [
        shuffled([pair_ids[(thread, cell)] for thread in threads], rng)
        for cell, threads in sorted(by_sender.items())
    ]
    matched = 0
    for pair_index in interleave_streams(send_streams, rng):
        env = Envelope(src=PROXY_RANK, tag=_pair_tag(pair_index), cid=0)
        req = proc.handle_arrival(Message(env, nbytes=8))
        assert req is not None, "benchmark message must match a posted receive"
        matched += 1
    assert matched == len(pair_ids)
    return proc.mean_prq_search_depth


def run_trials(
    dims: Sequence[int],
    stencil_name: str,
    *,
    trials: int = 10,
    seed: int = 0,
    queue_family: str = "baseline",
) -> DecompResult:
    """Table 1 protocol: average search depth over *trials* runs."""
    block = BlockDecomposition(tuple(dims))
    stencil = get_stencil(stencil_name)
    pairs = block.external_pairs(stencil)
    counts = block.counts(stencil, pairs)
    depths = []
    for trial in range(trials):
        rng = np.random.default_rng(seed * 10_007 + trial)
        depths.append(
            run_decomposition(
                dims, stencil_name, rng, queue_family=queue_family, pairs=pairs
            )
        )
    arr = np.asarray(depths)
    return DecompResult(
        dims=tuple(dims),
        stencil=stencil.name,
        counts=counts,
        mean_search_depth=float(arr.mean()),
        depth_std=float(arr.std()),
        trials=trials,
    )


def table1(
    *,
    trials: int = 10,
    seed: int = 0,
    rows: Optional[Sequence[Tuple[Tuple[int, ...], str]]] = None,
) -> List[DecompResult]:
    """Reproduce all of Table 1 (or a subset of its rows)."""
    out = []
    for dims, stencil in (rows if rows is not None else TABLE1_ROWS):
        out.append(run_trials(dims, stencil, trials=trials, seed=seed))
    return out
