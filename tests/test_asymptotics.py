import numpy as np
import pytest

from roughwave.asymptotics import (
    Classification,
    EpsSeries,
    ExponentialTailFamily,
    NormDescriptor,
    SlidingSpikeFamily,
    classify,
    format_classification,
    measure_series,
    norm_interchange,
)
from roughwave.errors import DomainError, ParameterError
from roughwave.fields import sample_brownian_1d
from roughwave.grids import Grid1D
from roughwave.mollify import EmbeddedField1D, EpsLadder, build_mollifier
from roughwave.smooth import AnalyticField1D, ConstantField1D, Interval

LADDER = EpsLadder(0.5, 0.5, 8)
DESC = NormDescriptor(Interval(0.0, 1.0), 0, 0.0, 1)


# ------------------------------------------------------------- measuring


def test_measure_constant_field_is_one():
    ser = measure_series(
        lambda eps, seed: ConstantField1D(1.0),
        Interval(-1.0, 1.0), 0, 0.0, LADDER,
    )
    assert np.all(ser.measurements == 1.0)
    assert ser.descriptor.p == 0.0
    assert len(ser) == 8


def test_measure_brownian_derivative_grows_pathwise():
    # rough path: the derivative sup must climb as the smoothing shrinks
    step = 0.25 * 0.5**5 / 8.0
    g = Grid1D(-2.0, step, int(round(5.0 / step)) + 1)
    w = sample_brownian_1d(g, seed=21)
    mol = build_mollifier(moments=2)
    ser = measure_series(
        lambda eps, seed: EmbeddedField1D(w, mol, eps),
        Interval(0.0, 1.0), 1, 0.0, EpsLadder(0.25, 0.5, 6),
    )
    assert np.all(np.diff(ser.measurements) > 0.0)


def test_measure_lp_norm_of_seeded_family():
    def factory(eps, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal()
        return AnalyticField1D([lambda x, a=a: np.full_like(x, a)])

    ser = measure_series(factory, Interval(0.0, 1.0), 0, 2.0,
                         EpsLadder(0.5, 0.5, 5), n_samples=400)
    # sup_x |a| = |a|, so the L2 norm estimates E(a^2)^(1/2) = 1
    assert np.all(np.abs(ser.measurements - 1.0) < 0.2)
    assert ser.descriptor.n_samples == 400


def test_measure_domain_violation_propagates():
    step = 0.05 / 8.0
    g = Grid1D(-2.0, step, int(round(4.0 / step)) + 1)
    w = sample_brownian_1d(g, seed=3)
    mol = build_mollifier(moments=2)
    with pytest.raises(DomainError):
        measure_series(
            lambda eps, seed: EmbeddedField1D(w, mol, eps),
            Interval(-2.0, 2.0), 0, 0.0, EpsLadder(0.5, 0.5, 5),
        )


# ----------------------------------------------------- norm interchange


def test_interchange_on_random_smooth_field():
    xs = np.linspace(-2.0, 2.0, 321)
    samples = np.empty((100, xs.size))
    for seed in range(100):
        a, b = np.random.default_rng(seed).standard_normal(2)
        samples[seed] = a * np.sin(xs) + b * np.cos(xs)
    lhs, rhs = norm_interchange(samples, 2.0)
    # computed from the same draws the ordering is exact, and for this
    # family genuinely strict (the argmax moves with the sample)
    assert lhs <= rhs
    assert lhs < rhs - 0.1


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_interchange_matrix_inequality(p):
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((200, 50))
    lhs, rhs = norm_interchange(samples, p)
    assert lhs <= rhs + 1e-12


def test_interchange_sup_norm_degenerates():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((50, 20))
    lhs, rhs = norm_interchange(samples, np.inf)
    assert lhs == rhs


def test_interchange_validation():
    with pytest.raises(ParameterError):
        norm_interchange(np.ones((10, 4)), 0.5)
    with pytest.raises(ParameterError):
        norm_interchange(np.ones(10), 2.0)


# ----------------------------------------------------------- classifier


def test_classify_power_law():
    eps = LADDER.levels()
    c = classify(EpsSeries(LADDER, eps**-2.0, DESC))
    assert c.verdict == "moderate"
    assert abs(c.value - 2.0) <= 0.05
    assert c.residual <= 1e-10


def test_classify_log_type():
    eps = LADDER.levels()
    c = classify(EpsSeries(LADDER, 3.0 * np.abs(np.log(eps)), DESC))
    assert c.verdict == "log-type"
    assert abs(c.value - 3.0) <= 0.1


def test_classify_bounded():
    c = classify(EpsSeries(LADDER, np.full(8, 2.5), DESC))
    assert c.verdict == "bounded"
    assert abs(c.value - 2.5) <= 0.05 * 2.5
    assert c.residual == 0.0


def test_classify_polynomial_decay():
    eps = LADDER.levels()
    c = classify(EpsSeries(LADDER, eps**3.0, DESC))
    assert c.verdict == "negligible-to-order"
    assert c.value == 3.0


def test_classify_superpolynomial_decay_hits_cap():
    eps = LADDER.levels()
    c = classify(EpsSeries(LADDER, np.exp(-1.0 / eps), DESC))
    assert c.verdict == "negligible-to-order"
    assert c.value == 8.0  # default cap
    assert abs(c.exp_rate + 1.0) <= 1e-9
    assert c.residual <= 1e-12


def test_classify_noisy_power_law():
    eps = LADDER.levels()
    rng = np.random.default_rng(5)
    m = eps**-1.5 * (1.0 + 0.01 * rng.standard_normal(8))
    c = classify(EpsSeries(LADDER, m, DESC))
    assert c.verdict == "moderate"
    assert abs(c.value - 1.5) <= 0.05


def test_classify_nonpositive_is_inconclusive():
    m = np.array([1.0, 0.5, 0.0, 0.1, 0.05, 0.02, 0.01, 0.005])
    c = classify(EpsSeries(LADDER, m, DESC))
    assert c.verdict == "inconclusive"


def test_classify_needs_five_levels():
    lad = EpsLadder(0.5, 0.5, 4)
    with pytest.raises(ParameterError):
        classify(EpsSeries(lad, np.ones(4), DESC))


# --------------------------------------------------------- counterexamples


def test_family_a_moment_identities():
    fam_a = ExponentialTailFamily(2.0)
    for eps in LADDER.levels()[:4]:
        assert fam_a.moment(2.0, eps) == 1.0
        assert fam_a.moment(1.0, eps) == pytest.approx(np.exp(-1.0 / eps), rel=1e-12)


def test_family_a_monte_carlo_matches_closed_form():
    fam_a = ExponentialTailFamily(2.0)
    rng = np.random.default_rng(123)
    draws = fam_a.sample(0.5, 40000, rng)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - fam_a.moment(1.0, 0.5)) <= 5.0 * se


def test_family_a_classification():
    fam_a = ExponentialTailFamily(2.0)
    c = classify(fam_a.moment_series(1.0, LADDER))
    assert c.verdict == "negligible-to-order"
    assert c.value == 8.0
    assert abs(c.exp_rate - (1.0 - 2.0)) <= 1e-9
    c_eq = classify(fam_a.moment_series(2.0, LADDER))
    assert c_eq.verdict == "bounded"
    assert c_eq.value == 1.0


def test_family_b_l1_bounded():
    fam_b = SlidingSpikeFamily()
    for eps in EpsLadder(0.5, 0.5, 8).levels():
        assert fam_b.l1_moment(eps) <= 1.0 + 1e-12
    ser = fam_b.l1_series(EpsLadder(0.25, 0.5, 8))
    assert np.all(ser.measurements == 1.0)
    c = classify(ser)
    assert c.verdict == "L1-type"
    assert c.value == 1.0


def test_family_b_planted_blowup():
    fam_b = SlidingSpikeFamily()
    omega = 0.37
    # the float indicator is honest at shallow depths
    for k in range(1, 5):
        eps = fam_b.blowup_levels(omega, 1, k0=k)[0]
        assert float(fam_b.value(omega, eps)) == np.exp(1.0 / eps)
    ser = fam_b.pathwise_series(omega, 8)
    assert np.array_equal(ser.measurements, np.exp(1.0 / ser.epsilons))
    assert np.all(np.diff(ser.measurements) > 0.0)
    c = classify(ser)
    assert c.verdict == "inconclusive"  # in particular not moderate


def test_family_b_validation():
    fam_b = SlidingSpikeFamily()
    with pytest.raises(DomainError):
        fam_b.blowup_levels(1.5, 4)
    with pytest.raises(ParameterError):
        fam_b.pathwise_series(0.0, 200)  # overflows e^(1/level)


# ------------------------------------------------------------- plumbing


def test_series_validation():
    with pytest.raises(ParameterError):
        EpsSeries(LADDER, np.ones(5), DESC)
    with pytest.raises(ParameterError):
        EpsSeries(LADDER, -np.ones(8), DESC)
    with pytest.raises(ParameterError):
        EpsSeries(np.array([0.1, 0.2, 0.3]), np.ones(3), DESC)
    ser = EpsSeries(np.array([0.5, 0.25, 0.1]), np.ones(3), DESC)
    assert ser.epsilons.tolist() == [0.5, 0.25, 0.1]


def test_descriptor_validation():
    with pytest.raises(ParameterError):
        NormDescriptor(Interval(0, 1), -1, 0.0, 1)
    with pytest.raises(ParameterError):
        NormDescriptor(Interval(0, 1), 0, 0.5, 1)
    with pytest.raises(ParameterError):
        NormDescriptor(Interval(0, 1), 0, 2.0, 0)


def test_report_helpers():
    eps = LADDER.levels()
    ser = EpsSeries(LADDER, eps**-1.0, DESC)
    line = format_classification(classify(ser))
    assert "moderate" in line and "residual=" in line
    assert "inconclusive" == format_classification(
        Classification("inconclusive", None, 0.5)
    ).split()[0]
