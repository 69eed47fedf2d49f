import numpy as np
import pytest

from roughwave.errors import ParameterError
from roughwave.smooth import (AnalyticField1D, AnalyticField2D, Interval,
                             simpson_weights)


def test_simpson_weights_pattern_and_guard():
    np.testing.assert_array_equal(simpson_weights(5), [1.0, 4.0, 2.0, 4.0, 1.0])
    with pytest.raises(ParameterError, match="odd"):
        simpson_weights(4)
    with pytest.raises(ParameterError):
        simpson_weights(1)


@pytest.mark.parametrize("order", [-1, -2, 2])
def test_analytic_field_refuses_orders_it_does_not_provide(order):
    # a negative order once indexed the callables from the end: -1 gave cos
    f = AnalyticField1D([np.sin, np.cos])
    x = np.array([0.3])
    with pytest.raises(ParameterError):
        f.values(x, order)


@pytest.mark.parametrize("field", [
    AnalyticField1D([lambda x: x]),
    AnalyticField2D(lambda x, t: x),
], ids=["1d", "2d"])
def test_values_never_hand_back_the_query_array(field):
    # an identity callable returns its argument; the field must copy it
    x = np.linspace(0.0, 1.0, 5)
    args = (x,) if isinstance(field, AnalyticField1D) else (x, np.zeros_like(x))
    out = field.values(*args)
    assert not np.may_share_memory(out, x)
    np.testing.assert_array_equal(out, x)


def test_values_keep_a_fresh_result_of_the_query_shape():
    # no copy when the callable already returns a new array of that shape,
    # and a writable copy when it returns a scalar or a read-only array
    made = []

    def add(x, t):
        made.append(x + t)
        return made[-1]

    x = np.linspace(0.0, 1.0, 5)
    assert AnalyticField2D(add).values(x, x) is made[-1]
    scalar = AnalyticField2D(lambda x, t: 2.0)
    np.testing.assert_array_equal(scalar.values(x, x), np.full(5, 2.0))
    read_only = AnalyticField2D(lambda x, t: np.broadcast_to(3.0, x.shape))
    assert read_only.values(x, x).flags.writeable


def test_interval_contains_keeps_its_edge_answers():
    iv = Interval(-1.0, 1.0)
    assert iv.contains(np.array([]))
    assert not iv.contains(np.array([0.0, np.nan]))
    assert not iv.contains(np.nan)
    assert iv.contains(np.array([-1.0 - 1e-9, 1.0 + 1e-9]))
    assert not iv.contains(np.array([0.0, 1.0 + 2e-9]))
    assert not iv.contains(-1.0 - 2e-9)
    assert iv.contains([[0.5], [-0.5]]) and iv.contains(0.25)
    assert iv.contains(np.array([2.0]), tol=1.0)
