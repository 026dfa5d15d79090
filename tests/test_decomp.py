"""Tests for the Table 1 substrate: exact combinatorics + measured depths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.decomp import (
    BlockDecomposition,
    STENCILS,
    get_stencil,
    run_decomposition,
    run_trials,
)
from repro.decomp.bench import TABLE1_ROWS, table1
from repro.errors import ConfigurationError

#: Every row of the paper's Table 1 (tr, ts, length, paper's search depth).
PAPER_TABLE1 = {
    ((32, 32), "5pt"): (124, 128, 128, 32.51),
    ((64, 32), "5pt"): (188, 192, 192, 48.22),
    ((32, 32), "9pt"): (124, 132, 380, 85.18),
    ((64, 32), "9pt"): (188, 196, 572, 127.24),
    ((8, 8, 4), "7pt"): (184, 256, 256, 65.85),
    ((1, 1, 128), "7pt"): (128, 514, 514, 132.27),
    ((1, 1, 256), "7pt"): (256, 1026, 1026, 259.08),
    ((8, 8, 4), "27pt"): (184, 344, 2072, 410.02),
    ((1, 1, 128), "27pt"): (128, 1042, 3074, 596.85),
    ((1, 1, 256), "27pt"): (256, 2066, 6146, 1294.49),
}


class TestStencils:
    def test_point_counts(self):
        assert STENCILS["5pt"].npoints == 5
        assert STENCILS["9pt"].npoints == 9
        assert STENCILS["7pt"].npoints == 7
        assert STENCILS["27pt"].npoints == 27

    def test_offsets_exclude_origin(self):
        for stencil in STENCILS.values():
            assert all(any(o) for o in stencil.offsets)

    def test_offsets_unique(self):
        for stencil in STENCILS.values():
            assert len(set(stencil.offsets)) == len(stencil.offsets)

    def test_unknown_stencil(self):
        with pytest.raises(ConfigurationError):
            get_stencil("13pt")


class TestCombinatorics:
    @pytest.mark.parametrize("dims,stencil", list(PAPER_TABLE1))
    def test_table1_counts_exact(self, dims, stencil):
        """tr / ts / length must equal the paper's Table 1 exactly."""
        counts = BlockDecomposition(dims).counts(get_stencil(stencil))
        tr, ts, length, _ = PAPER_TABLE1[(dims, stencil)]
        assert counts.receiving_threads == tr
        assert counts.sending_threads == ts
        assert counts.list_length == length

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockDecomposition((4, 4)).counts(get_stencil("7pt"))

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            BlockDecomposition((0, 4))

    @given(st.integers(2, 8), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_5pt_closed_forms(self, nx, ny):
        counts = BlockDecomposition((nx, ny)).counts(get_stencil("5pt"))
        assert counts.list_length == 2 * (nx + ny)
        assert counts.sending_threads == 2 * (nx + ny)
        assert counts.receiving_threads == nx * ny - max(0, (nx - 2)) * max(0, (ny - 2))

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_7pt_closed_forms(self, nx, ny, nz):
        counts = BlockDecomposition((nx, ny, nz)).counts(get_stencil("7pt"))
        assert counts.list_length == 2 * (nx * ny + ny * nz + nx * nz)

    @given(st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_9pt_sender_ring(self, nx, ny):
        counts = BlockDecomposition((nx, ny)).counts(get_stencil("9pt"))
        # Distinct external cells form the one-cell ring around the block.
        assert counts.sending_threads == (nx + 2) * (ny + 2) - nx * ny

    def test_pairs_by_thread_consistency(self):
        block = BlockDecomposition((4, 4))
        stencil = get_stencil("9pt")
        grouped = block.pairs_by_thread(stencil)
        total = sum(len(v) for v in grouped.values())
        assert total == block.counts(stencil).list_length


class TestMeasuredDepths:
    def test_every_message_matches(self):
        depth = run_decomposition((8, 8), "5pt", np.random.default_rng(0))
        assert depth > 0

    @pytest.mark.parametrize("dims,stencil", [((32, 32), "5pt"), ((8, 8, 4), "7pt")])
    def test_depth_in_paper_band(self, dims, stencil):
        """Measured mean search depth within 30% of the paper's value."""
        result = run_trials(dims, stencil, trials=3, seed=0)
        paper_depth = PAPER_TABLE1[(dims, stencil)][3]
        assert result.mean_search_depth == pytest.approx(paper_depth, rel=0.30)

    def test_depth_scales_with_length(self):
        small = run_trials((8, 8), "5pt", trials=2).mean_search_depth
        large = run_trials((16, 16), "5pt", trials=2).mean_search_depth
        assert large > small

    def test_depth_fraction_band(self):
        """Random interleaving puts mean depth at ~0.2-0.3x list length."""
        result = run_trials((32, 32), "9pt", trials=3)
        frac = result.mean_search_depth / result.counts.list_length
        assert 0.15 < frac < 0.35

    def test_trials_reduce_to_mean_std(self):
        result = run_trials((8, 8), "5pt", trials=4, seed=1)
        assert result.trials == 4
        assert result.depth_std >= 0

    def test_deterministic_given_seed(self):
        a = run_trials((8, 8), "5pt", trials=2, seed=3).mean_search_depth
        b = run_trials((8, 8), "5pt", trials=2, seed=3).mean_search_depth
        assert a == b

    def test_as_row(self):
        result = run_trials((8, 8), "5pt", trials=1)
        row = result.as_row()
        assert row[0] == "8x8" and row[1] == "5pt"


#: ``repr`` of (mean_search_depth, depth_std) per row of
#: ``table1(trials=3, seed=0)``, recorded from the linear-walk list: the
#: search index and the shared pair enumeration must reproduce them bit for
#: bit.
GOLDEN_TABLE1_SEED0_TRIALS3 = {
    ((32, 32), "5pt"): ("33.578125", "0.6638633279743404"),
    ((64, 32), "5pt"): ("47.62152777777778", "0.8703822983569987"),
    ((32, 32), "9pt"): ("97.70175438596492", "1.274318990241019"),
    ((64, 32), "9pt"): ("145.40675990675993", "2.926789368195349"),
    ((8, 8, 4), "7pt"): ("64.11067708333333", "1.3775660143582704"),
    ((1, 1, 128), "7pt"): ("121.93060959792479", "3.034245026297804"),
    ((1, 1, 256), "7pt"): ("253.16666666666666", "5.010036576078783"),
    ((8, 8, 4), "27pt"): ("537.2385778635779", "4.021374505035469"),
    ((1, 1, 128), "27pt"): ("766.2925612665364", "9.959469279194378"),
    ((1, 1, 256), "27pt"): ("1528.8539429439204", "19.297619732312633"),
}


class TestTable1Driver:
    def test_row_list_matches_paper(self):
        assert set(TABLE1_ROWS) == set(PAPER_TABLE1)

    def test_golden_depths_all_rows(self):
        rows = table1(trials=3, seed=0)
        got = {
            (res.dims, res.stencil): (repr(res.mean_search_depth), repr(res.depth_std))
            for res in rows
        }
        assert got == GOLDEN_TABLE1_SEED0_TRIALS3

    def test_subset_run(self):
        rows = table1(trials=1, rows=[((8, 8), "5pt")])
        assert len(rows) == 1
