import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsys import GridError, Realization, ShapeError, Signal, TimeGrid, io_map, min_norm_control


def _control_then_io_map(g: TimeGrid) -> None:
    """A minimum-norm control on the full horizon drives io_map on g."""
    r = Realization([[-1.0, 1.0], [0.0, -2.0]], np.eye(2), [[1.0, 0.0]], np.zeros((1, 2)))
    u = min_norm_control(r, g, g.t_end, np.array([1.0, -1.0]))
    assert io_map(r, g, u).grid == g


class TestTimeGrid:
    def test_nodes_and_spacing(self):
        g = TimeGrid(2.0, 4)
        assert g.dt == 0.5
        assert len(g) == 5
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_index_of_exact_and_rounded(self):
        g = TimeGrid(1.0, 10)
        assert g.index_of(0.3) == 3
        assert g.index_of(0.3 + 1e-12) == 3
        assert g.index_of(1.0) == 10

    def test_index_of_refuses_off_grid(self):
        g = TimeGrid(1.0, 10)
        with pytest.raises(GridError):
            g.index_of(0.35)
        with pytest.raises(GridError):
            g.index_of(-0.1)
        with pytest.raises(GridError):
            g.index_of(1.1)

    def test_prefix(self):
        g = TimeGrid(1.0, 10)
        sub = g.prefix(4)
        assert sub.n_steps == 4
        assert sub.dt == g.dt
        assert sub.t_end == pytest.approx(0.4)
        with pytest.raises(GridError):
            g.prefix(0)
        with pytest.raises(GridError):
            g.prefix(11)

    def test_full_prefix_is_the_grid(self):
        # 26 * (t_end / 26) rounds one ulp below t_end here
        g = TimeGrid(0.9646419039557509, 26)
        assert g.prefix(26) == g
        _control_then_io_map(g)

    @given(
        t_end=st.floats(min_value=0.1, max_value=5.0, exclude_max=True),
        n_steps=st.integers(min_value=1, max_value=199),
    )
    @settings(max_examples=60)
    def test_full_prefix_property(self, t_end, n_steps):
        g = TimeGrid(t_end, n_steps)
        assert g.prefix(n_steps) == g
        _control_then_io_map(g)

    @pytest.mark.parametrize("t_end,n_steps", [(0.0, 4), (-1.0, 4), (np.inf, 4), (1.0, 0), (1.0, -3)])
    def test_invalid_parameters(self, t_end, n_steps):
        with pytest.raises(GridError):
            TimeGrid(t_end, n_steps)


class TestSignal:
    def test_constant_norm_matches_closed_form(self):
        # trapezoid weights integrate a constant exactly
        g = TimeGrid(2.0, 7)
        s = Signal.constant(g, [3.0, 4.0])
        assert s.norm() == pytest.approx(5.0 * np.sqrt(2.0), rel=1e-13)

    def test_zero_and_arithmetic(self):
        g = TimeGrid(1.0, 3)
        a = Signal.constant(g, [1.0])
        z = Signal.zero(g, 1)
        assert (a + z).values == pytest.approx(a.values)
        assert np.all((a - a).values == 0.0)

    def test_one_dimensional_values_are_promoted(self):
        g = TimeGrid(1.0, 2)
        s = Signal(g, np.array([1.0, 2.0, 3.0]))
        assert s.values.shape == (3, 1)
        assert s.dim == 1

    def test_shape_mismatch_refused(self):
        g = TimeGrid(1.0, 2)
        with pytest.raises(ShapeError):
            Signal(g, np.zeros((2, 1)))
        with pytest.raises(ShapeError):
            Signal(g, np.array([[1.0], [np.nan], [0.0]]))

    def test_incompatible_arithmetic_refused(self):
        a = Signal.constant(TimeGrid(1.0, 2), [1.0])
        b = Signal.constant(TimeGrid(1.0, 3), [1.0])
        c = Signal.constant(TimeGrid(1.0, 2), [1.0, 2.0])
        with pytest.raises(ShapeError):
            a + b
        with pytest.raises(ShapeError):
            a - c

    def test_values_are_frozen(self):
        s = Signal.constant(TimeGrid(1.0, 2), [1.0])
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0

    def test_csv_round_trip_real(self, tmp_path):
        g = TimeGrid(1.5, 6)
        rng = np.random.default_rng(3)
        s = Signal(g, rng.standard_normal((7, 2)))
        path = tmp_path / "sig.csv"
        s.to_csv(path)
        back = Signal.from_csv(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, s.values)

    def test_csv_round_trip_complex(self, tmp_path):
        g = TimeGrid(1.0, 3)
        vals = np.array([[1 + 2j], [0.5 - 1j], [0j], [3.25j]])
        s = Signal(g, vals)
        path = tmp_path / "sig.csv"
        s.to_csv(path)
        back = Signal.from_csv(path)
        np.testing.assert_array_equal(back.values, vals)

    def test_csv_malformed_refused(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,v0_re\n0.0,1.0\n")  # odd column count after t
        with pytest.raises(ShapeError):
            Signal.from_csv(path)
        path.write_text("t,v0_re,v0_im\n0.0,1.0,0.0\n")  # single sample
        with pytest.raises(ShapeError):
            Signal.from_csv(path)

    @given(
        t_end=st.floats(min_value=0.1, max_value=5.0, exclude_max=True),
        n_steps=st.integers(min_value=1, max_value=199),
        dim=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_csv_round_trip_is_exact(self, tmp_path_factory, t_end, n_steps, dim, seed):
        # repr-formatted floats must survive the trip bit for bit, and the
        # grid read back from the time column must equal the one written
        g = TimeGrid(t_end, n_steps)
        rng = np.random.default_rng(seed)
        s = Signal(g, rng.standard_normal((len(g), dim)))
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        s.to_csv(path)
        back = Signal.from_csv(path)
        assert back.grid == g
        np.testing.assert_array_equal(back.values, s.values)

    def test_norm_triangle_inequality(self):
        g = TimeGrid(1.0, 8)
        rng = np.random.default_rng(11)
        a = Signal(g, rng.standard_normal((9, 2)))
        b = Signal(g, rng.standard_normal((9, 2)))
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-12
