"""The three records, `ModelParams`, `Grid` and `Horizon`, are immutable
named tuples built positionally: by `cli.resolve_horizons` (the first
two) and `hilbert.horizon`.  Their field order is part of that contract."""
import math

import pytest

from fou.cli import parse_args, resolve_horizons
from fou.constants import ModelParams
from fou.fgn import Grid
from fou.hilbert import Horizon, horizon, kernel_f, kernel_g


def _records():
    ((params, grid),) = resolve_horizons(parse_args(
        ["bounds", "--theta", "0.5", "--hurst", "0.6", "--t", "10", "--n", "4"]))
    return params, grid, horizon(params, grid)


def test_fields_are_in_the_order_of_the_positional_builders():
    assert ModelParams._fields == ("theta", "hurst", "horizon")
    assert Grid._fields == ("horizon", "n")
    assert Horizon._fields == ("rho", "lam", "f_row", "c1", "c2", "b_t", "w", "m_apply",
                               "m_ends", "vwv")
    params, grid, rec = _records()
    assert params == ModelParams(theta=0.5, hurst=0.6, horizon=10.0)
    assert grid == Grid(horizon=10.0, n=4)
    x = params.theta * grid.step
    assert (rec.rho, rec.lam) == (math.exp(-x), -math.expm1(-x))
    assert list(rec.f_row) == list(kernel_f(params, grid))
    assert (rec.c1, rec.c2) == kernel_g(params, grid)
    assert rec.b_t > 0 and rec.w.shape == (4,) and rec.m_ends.shape == (4, 2)
    assert rec.vwv == rec.rho * rec.m_ends[-1, 1]


@pytest.mark.parametrize("index", [0, 1, 2])
def test_records_reject_attribute_assignment(index):
    record = _records()[index]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0


def test_grid_step_and_nodes():
    grid = Grid(10.0, 4)
    assert grid.step == 2.5
    assert list(grid.nodes) == [0.0, 2.5, 5.0, 7.5, 10.0]
