import numpy as np
import pytest

from roughwave.errors import ParameterError
from roughwave.smooth import AnalyticField1D, FromX, simpson_weights


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
