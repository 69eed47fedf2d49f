import numpy as np
import pytest

from roughwave.errors import ParameterError
from roughwave.smooth import AnalyticField1D, AnalyticField2D, FromX, simpson_weights


def test_integral_simpson_fallback_without_antiderivative():
    assert abs(AnalyticField1D([np.cos]).integral(0.0, 1.0) - np.sin(1.0)) <= 1e-9


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
    with pytest.raises(ParameterError):
        FromX(f).values(x, np.zeros_like(x), dx=order)


@pytest.mark.parametrize("orders", [{"dt": -1}, {"dx": -1, "dt": 1}])
def test_lifted_field_refuses_negative_orders(orders):
    # dt=-1 once fell through to the order-0 values, sin(0.3), and dt > 0
    # to zeros whatever dx was
    f = FromX(AnalyticField1D([np.sin, np.cos]))
    x = np.array([0.3])
    with pytest.raises(ParameterError, match="must be >= 0"):
        f.values(x, x, **orders)



@pytest.mark.parametrize("field", [
    AnalyticField1D([lambda x: x]),
    FromX(AnalyticField1D([lambda x: x])),
    AnalyticField2D({(0, 0): lambda x, t: x}),
], ids=["1d", "lifted", "2d"])
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

    f = AnalyticField2D({(0, 0): add, (1, 0): lambda x, t: 2.0,
                         (0, 1): lambda x, t: np.broadcast_to(3.0, x.shape)})
    x = np.linspace(0.0, 1.0, 5)
    assert f.values(x, x) is made[-1]
    np.testing.assert_array_equal(f.values(x, x, dx=1), np.full(5, 2.0))
    assert f.values(x, x, dt=1).flags.writeable
