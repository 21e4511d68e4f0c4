"""The objective kernels and their helpers give the bytes of reference copies.

The reference functions below are verbatim copies of the kernels as they
were before their temporaries were computed in place; every test compares
the library's output with theirs by `tobytes()`, NaNs and signed zeros
included.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scalefit.numerics import HuberParams, _huber_parts, _logaddexp
from scalefit.scaling import _power_fg, _shifted_fg


def reference_huber_parts(r, delta: float):
    dh = np.clip(r, -delta, delta)
    return np.abs(dh * (r - 0.5 * dh)), dh


def reference_logaddexp(x, y):
    t = np.subtract(x, y)
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    # x - y is NaN only for a NaN, which the max carries, or for equal
    # infinities, whose sum is the max itself.
    np.fmax(t, 0.0, out=t)
    t += np.maximum(x, y)
    return t


def reference_power_fg(P, logX, logL, hp, need_grad):
    e, a, al = P[:, 0:1], P[:, 1:2], P[:, 2:3]
    t = a - al * logX
    s = reference_logaddexp(t, e)
    h, dh = reference_huber_parts(s - logL, hp.delta)
    fv = np.sum(h, axis=1)
    if not need_grad:
        return fv
    w = np.exp(t - s)
    we = np.exp(e - s)
    dhw = dh * w
    ge = np.sum(dh * we, axis=1)
    ga = np.sum(dhw, axis=1)
    gal = -np.sum(dhw * logX, axis=1)
    return fv, np.stack([ge, ga, gal], axis=1)


_LN10 = np.log(10.0)


def reference_shifted_fg(P, X, logL, hp, need_grad, freeze_lambda=False):
    e, a, al, lam = P[:, 0:1], P[:, 1:2], P[:, 2:3], P[:, 3:4]
    shift = np.power(10.0, lam)
    Xs = X + shift
    logXs = np.log(Xs)
    t = a - al * logXs
    s = reference_logaddexp(t, e)
    h, dh = reference_huber_parts(s - logL, hp.delta)
    fv = np.sum(h, axis=1)
    if not need_grad:
        return fv
    w = np.exp(t - s)
    we = np.exp(e - s)
    dhw = dh * w
    ge = np.sum(dh * we, axis=1)
    ga = np.sum(dhw, axis=1)
    gal = -np.sum(dhw * logXs, axis=1)
    if freeze_lambda:
        glam = np.zeros_like(ge)
    else:
        glam = -np.sum(dhw * al * (shift * _LN10) / Xs, axis=1)
    return fv, np.stack([ge, ga, gal, glam], axis=1)


def reference_joint_fg(P, logN, logD, logL, hp, need_grad):
    e, a, al, b, be = (P[:, i : i + 1] for i in range(5))
    tn = a - al * logN
    td = b - be * logD
    s = reference_logaddexp(reference_logaddexp(tn, td), e)
    h, dh = reference_huber_parts(s - logL, hp.delta)
    fv = np.sum(h, axis=1)
    if not need_grad:
        return fv
    dhn = dh * np.exp(tn - s)
    dhd = dh * np.exp(td - s)
    we = np.exp(e - s)
    g = np.stack(
        [
            np.sum(dh * we, axis=1),
            np.sum(dhn, axis=1),
            -np.sum(dhn * logN, axis=1),
            np.sum(dhd, axis=1),
            -np.sum(dhd * logD, axis=1),
        ],
        axis=1,
    )
    return fv, g


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 5e-324, 709.8, -745.2]
DELTAS = [1e-3, 0.5, 2.0]


def floats(lo, hi, specials=SPECIALS):
    """Finite floats in [lo, hi], with the special values mixed in."""
    return st.one_of(st.sampled_from(specials), st.floats(lo, hi))


class TestHuberParts:
    @given(
        st.lists(floats(-1e3, 1e3), min_size=1, max_size=40),
        st.sampled_from(DELTAS),
    )
    @settings(max_examples=300)
    def test_matches_reference(self, values, delta):
        # The exact knees, and values a rounding away from them.
        knees = [delta, -delta, np.nextafter(delta, 0), np.nextafter(-delta, 0)]
        r = np.array(values + knees)
        with np.errstate(all="ignore"):
            for got, want in zip(_huber_parts(r, delta), reference_huber_parts(r, delta)):
                assert_same_bytes(got, want)

    def test_two_dimensional(self):
        r = np.array([[-0.0, 1e-3, -1e-3], [np.nan, -np.inf, 2.5]])
        with np.errstate(all="ignore"):
            for got, want in zip(_huber_parts(r, 1e-3), reference_huber_parts(r, 1e-3)):
                assert_same_bytes(got, want)


class TestLogaddexp:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_reference(self, data):
        K = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(1, 8))
        x = np.array(data.draw(st.lists(floats(-800, 800), min_size=K * n, max_size=K * n)))
        x = x.reshape(K, n)
        # y is a column, as the kernels' e, or a full array; some pairs are equal.
        y_cols = data.draw(st.sampled_from([1, n]))
        y = np.array(data.draw(st.lists(floats(-800, 800), min_size=K * y_cols, max_size=K * y_cols)))
        y = y.reshape(K, y_cols)
        if data.draw(st.booleans()):
            y = np.broadcast_to(y, (K, n)).copy()
            same = np.array(data.draw(st.lists(st.booleans(), min_size=K * n, max_size=K * n)))
            y[same.reshape(K, n)] = x[same.reshape(K, n)]
        x0, y0 = x.copy(), y.copy()
        with np.errstate(all="ignore"):
            assert_same_bytes(_logaddexp(x, y), reference_logaddexp(x, y))
        assert_same_bytes(x, x0)
        assert_same_bytes(y, y0)

    def test_special_pairs(self):
        x, y = np.meshgrid(SPECIALS, SPECIALS)
        with np.errstate(all="ignore"):
            assert_same_bytes(_logaddexp(x, y), reference_logaddexp(x, y))


# Each kernel, its reference, its parameter count and how its data arrays
# are drawn: "log" arrays may hold any finite value, "pos" arrays (the
# shifted form's X) only positive ones, "logl" the logarithm of L.
KERNELS = {
    "power": (_power_fg, reference_power_fg, 3, ("log", "logl"), {}),
    "shifted": (_shifted_fg, reference_shifted_fg, 4, ("pos", "logl"), {}),
    "shifted-frozen": (
        _shifted_fg, reference_shifted_fg, 4, ("pos", "logl"), {"freeze_lambda": True}
    ),
    "joint": (_power_fg, reference_joint_fg, 5, ("log", "log", "logl"), {}),
}
PARAM_SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300]
DATA_DRAWS = {
    "log": floats(-12.0, 12.0, [0.0, -0.0, -700.0, 700.0]),
    "pos": floats(1e-6, 1e6, [5e-324, 1e-300, 1e300, 1.0]),
    "logl": floats(-14.0, 0.0, [0.0, -0.0, -13.8]),
}


def draw_case(data, kind):
    """(P, data arrays) of one kernel call: K parameter rows against (1, n)
    shared or (K, n) stacked data arrays."""
    _, _, d, columns, _ = KERNELS[kind]
    K = data.draw(st.integers(1, 6), label="K")
    n = data.draw(st.integers(1, 12), label="n")
    rows = data.draw(st.sampled_from([1, K]), label="data rows")
    P = data.draw(
        st.lists(
            st.one_of(st.sampled_from(PARAM_SPECIALS), st.floats(-4.0, 4.0), st.floats(-40.0, 40.0)),
            min_size=K * d,
            max_size=K * d,
        )
    )
    arrays = [
        np.array(data.draw(st.lists(DATA_DRAWS[c], min_size=rows * n, max_size=rows * n))).reshape(
            rows, n
        )
        for c in columns
    ]
    return np.array(P).reshape(K, d), arrays


def run_both(kind, P, arrays, delta, need_grad):
    fg, ref, _, _, kw = KERNELS[kind]
    hp = HuberParams(delta)
    inputs = [P.copy()] + [a.copy() for a in arrays]
    with np.errstate(all="ignore"):
        got = fg(P, *arrays, hp, need_grad, **kw)
        want = ref(P, *arrays, hp, need_grad, **kw)
    for before, after in zip(inputs, [P] + arrays):  # inputs are not written to
        assert_same_bytes(after, before)
    return got, want


def assert_kernel_matches(kind, P, arrays, delta):
    for need_grad in (True, False):
        got, want = run_both(kind, P, arrays, delta, need_grad)
        if need_grad:
            assert isinstance(got, tuple) and len(got) == 2
            assert_same_bytes(got[0], want[0])
            assert_same_bytes(got[1], want[1])
        else:
            assert_same_bytes(got, want)


def knee_logl(kind, P, arrays, delta, sign):
    """logL at which the residuals s - logL are sign * delta, up to one rounding."""
    with np.errstate(all="ignore"):
        if kind == "joint":
            tn = P[:, 1:2] - P[:, 2:3] * arrays[0]
            td = P[:, 3:4] - P[:, 4:5] * arrays[1]
            t = reference_logaddexp(tn, td)
        else:
            logX = arrays[0] if kind == "power" else np.log(arrays[0] + np.power(10.0, P[:, 3:4]))
            t = P[:, 1:2] - P[:, 2:3] * logX
        return reference_logaddexp(t, P[:, 0:1]) - sign * delta


class TestKernelsMatchReference:
    @given(st.sampled_from(sorted(KERNELS)), st.sampled_from(DELTAS), st.data())
    @settings(max_examples=400, deadline=None)
    def test_random_batches(self, kind, delta, data):
        P, arrays = draw_case(data, kind)
        assert_kernel_matches(kind, P, arrays, delta)

    @given(
        st.sampled_from(sorted(KERNELS)),
        st.sampled_from(DELTAS),
        st.sampled_from([1.0, -1.0]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_residuals_at_the_knees(self, kind, delta, sign, data):
        # Stacked data, one row per parameter row, whose residuals are +-delta.
        P, arrays = draw_case(data, kind)
        K, n = len(P), arrays[0].shape[1]
        arrays = [np.broadcast_to(a, (K, n)).copy() for a in arrays]
        arrays[-1] = knee_logl(kind, P, arrays, delta, sign)
        assert_kernel_matches(kind, P, arrays, delta)

    def test_wide_batch(self):
        # Enough rows and points for whole SIMD lanes, on shared and stacked data.
        rng = np.random.default_rng(0)
        for kind, (_, _, d, columns, _) in KERNELS.items():
            for rows in (1, 40):
                P = rng.normal(0.0, 2.0, (40, d))
                P[::7, 0] = np.nan
                P[3::11, 1] = 1e300
                P[5::13, 2] = -np.inf
                arrays = [
                    rng.uniform(1e-3, 1e3, (rows, 60)) if c == "pos"
                    else rng.normal(0.0, 3.0, (rows, 60)) if c == "log"
                    else np.log(rng.uniform(0.05, 1.0, (rows, 60)))
                    for c in columns
                ]
                assert_kernel_matches(kind, P, arrays, 1e-3)
