import warnings

import numpy as np
import pytest

from scalefit.alignment import (
    BehaviorData,
    BenchmarkData,
    behavior_score,
    ceiling_normalize,
    confusion_pattern,
    fit_logistic,
    neural_score,
    pearson,
)
from scalefit.synth import BenchmarkGenerator, gen_behavior_task, gen_benchmark


def bench(noise_sigma=0.0, seed=0, ceiling=1.0, **kw):
    g = BenchmarkGenerator(noise_sigma=noise_sigma, seed=seed, **kw)
    return gen_benchmark(g, ceiling=ceiling)


def benchmark_data(acts, recs):
    return BenchmarkData(
        stimulus_ids=list(range(acts.shape[0])), activations=acts, recordings=recs,
        ceiling=1.0, region="IT",
    )


def reference_neural_score(data, repeats=10, train_fraction=0.9, seed=0, ridge=0.0):
    """(raw, per_neuroid) from a per-split fit on the training rows and a per-neuroid pearson."""
    n, q = data.recordings.shape
    n_train = round(train_fraction * n)
    rng = np.random.default_rng(seed)
    scores, sums, counts = [], np.zeros(q), np.zeros(q)
    for _ in range(repeats):
        perm = rng.permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        Xtr = np.hstack([data.activations[tr], np.ones((n_train, 1))])
        Ytr = data.recordings[tr]
        if ridge > 0:
            reg = ridge * np.eye(Xtr.shape[1])
            reg[-1, -1] = 0.0
            W = np.linalg.solve(Xtr.T @ Xtr + reg, Xtr.T @ Ytr)
        else:
            W = np.linalg.lstsq(Xtr, Ytr, rcond=None)[0]
        pred = np.hstack([data.activations[te], np.ones((len(te), 1))]) @ W
        actual = data.recordings[te]
        rs = np.full(q, np.nan)
        for j in range(q):
            if np.ptp(actual[:, j]) > 0.0:
                r = pearson(pred[:, j], actual[:, j])
                rs[j] = 0.0 if np.isnan(r) else r
        ok = ~np.isnan(rs)
        sums[ok] += rs[ok]
        counts[ok] += 1
        scores.append(np.median(rs[ok]))
    with np.errstate(invalid="ignore"):
        return float(np.mean(scores)), np.where(counts > 0, sums / counts, np.nan)


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Count the np.linalg.lstsq calls made while the test runs."""
    calls = []
    real = np.linalg.lstsq

    def counted(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


class TestPearson:
    def test_identical_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(50)
            assert pearson(x, x) == 1.0

    def test_negated_exactly_minus_one(self):
        x = np.random.default_rng(1).standard_normal(40)
        assert pearson(x, -x) == -1.0

    def test_affine_copy_near_one(self):
        x = np.linspace(0, 1, 30)
        assert pearson(x, 3.0 * x) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, x + 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_uncorrelated_near_zero(self):
        rng = np.random.default_rng(2)
        rs = [pearson(rng.standard_normal(2000), rng.standard_normal(2000)) for _ in range(5)]
        assert all(abs(r) < 0.1 for r in rs)

    def test_constant_input_nan(self):
        assert np.isnan(pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]))

    def test_hand_value(self):
        r = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert r == pytest.approx(0.9819805060619659, rel=1e-12)


class TestCeilingNormalize:
    def test_examples(self):
        assert ceiling_normalize(0.45, 0.9) == pytest.approx(0.5, rel=1e-15)
        assert ceiling_normalize(0.0, 0.8) == 0.0

    def test_supra_ceiling_warns(self):
        with pytest.warns(UserWarning, match="exceeds 1"):
            out = ceiling_normalize(0.9, 0.8)
        assert out == pytest.approx(1.125, rel=1e-15)

    def test_invalid_ceiling(self):
        with pytest.raises(ValueError):
            ceiling_normalize(0.5, 0.0)


class TestNeuralScore:
    def test_noiseless_linear_map_near_one(self):
        rep = neural_score(bench().data, seed=0)
        assert rep.raw >= 0.99
        assert rep.ceiled >= 0.99

    def test_attenuation_matches_theory(self):
        g = BenchmarkGenerator(
            n_stimuli=600, n_features=10, n_neuroids=8,
            noise_sigma=BenchmarkGenerator.sigma_for_pearson(0.8), seed=3,
        )
        sb = gen_benchmark(g)
        rep = neural_score(sb.data, repeats=10, seed=0)
        assert sb.theoretical_r == pytest.approx(0.8, rel=1e-12)
        assert rep.raw == pytest.approx(0.8, abs=0.05)

    def test_affine_invariance(self):
        sb = bench(noise_sigma=0.5, seed=4)
        base = neural_score(sb.data, seed=0)
        shifted = BenchmarkData(
            stimulus_ids=sb.data.stimulus_ids,
            activations=2.5 * sb.data.activations + 1.0,
            recordings=sb.data.recordings,
            ceiling=1.0,
            region="IT",
        )
        rep = neural_score(shifted, seed=0)
        assert rep.raw == pytest.approx(base.raw, abs=1e-6)

    def test_neuroid_permutation_invariance(self):
        sb = bench(noise_sigma=0.5, seed=5)
        perm = np.random.default_rng(0).permutation(sb.data.recordings.shape[1])
        permuted = BenchmarkData(
            stimulus_ids=sb.data.stimulus_ids,
            activations=sb.data.activations,
            recordings=sb.data.recordings[:, perm],
            ceiling=1.0,
            region="IT",
        )
        base = neural_score(sb.data, seed=0)
        rep = neural_score(permuted, seed=0)
        assert rep.raw == pytest.approx(base.raw, abs=1e-9)

    def test_pure_noise_neuroid_low(self):
        rng = np.random.default_rng(6)
        acts = rng.standard_normal((200, 5))
        rec = rng.standard_normal((200, 3))  # unrelated to activations
        data = BenchmarkData(
            stimulus_ids=list(range(200)), activations=acts, recordings=rec,
            ceiling=1.0, region="V1",
        )
        rep = neural_score(data, seed=0)
        assert abs(rep.raw) < 0.3

    def test_deterministic(self):
        sb = bench(noise_sigma=0.7, seed=7)
        r1 = neural_score(sb.data, seed=11)
        r2 = neural_score(sb.data, seed=11)
        assert r1.raw == r2.raw
        assert np.array_equal(r1.per_neuroid, r2.per_neuroid, equal_nan=True)

    def test_seed_matters(self):
        sb = bench(noise_sigma=0.7, seed=7)
        assert neural_score(sb.data, seed=1).raw != neural_score(sb.data, seed=2).raw

    def test_zero_variance_neuroid_warned(self):
        sb = bench(seed=8)
        rec = sb.data.recordings.copy()
        rec[:, 0] = 0.42
        data = BenchmarkData(
            stimulus_ids=sb.data.stimulus_ids, activations=sb.data.activations,
            recordings=rec, ceiling=1.0, region="IT",
        )
        with pytest.warns(UserWarning, match="zero variance"):
            rep = neural_score(data, seed=0)
        assert np.isnan(rep.per_neuroid[0])

    def test_ridge_close_to_lstsq_when_small(self):
        sb = bench(noise_sigma=0.3, seed=9)
        a = neural_score(sb.data, seed=0, ridge=0.0)
        b = neural_score(sb.data, seed=0, ridge=1e-8)
        assert a.raw == pytest.approx(b.raw, abs=1e-6)

    def test_validation_errors(self):
        sb = bench()
        with pytest.raises(ValueError, match="repeats"):
            neural_score(sb.data, repeats=0)
        with pytest.raises(ValueError, match="train_fraction"):
            neural_score(sb.data, train_fraction=0.3)
        with pytest.raises(ValueError, match="aggregate"):
            neural_score(sb.data, aggregate="max")
        with pytest.raises(ValueError, match="20 stimuli"):
            small = BenchmarkData(
                stimulus_ids=list(range(10)),
                activations=np.ones((10, 2)) + np.arange(10)[:, None],
                recordings=np.ones((10, 2)),
                ceiling=1.0,
                region="IT",
            )
            neural_score(small)


class TestNeuralScoreSolvePaths:
    """Each way a split is solved matches a per-split fit on its training rows."""

    def check(self, data, lstsq_calls, **kw):
        """The score of `data` and the lstsq calls it made, checked against the reference."""
        rep = neural_score(data, **kw)
        n_lstsq = len(lstsq_calls)
        raw, per_neuroid = reference_neural_score(data, **kw)
        assert rep.raw == pytest.approx(raw, abs=1e-12)
        np.testing.assert_allclose(rep.per_neuroid, per_neuroid, rtol=0, atol=1e-12)
        return rep, n_lstsq

    def test_well_conditioned_takes_gram_path(self, lstsq_calls):
        g = BenchmarkGenerator(n_stimuli=300, n_features=20, n_neuroids=12,
                               noise_sigma=0.75, seed=21)
        assert self.check(gen_benchmark(g).data, lstsq_calls, seed=3)[1] == 0

    def test_rank_deficient_falls_back(self, lstsq_calls):
        g = BenchmarkGenerator(n_stimuli=30, n_features=40, n_neuroids=6,
                               noise_sigma=0.3, seed=22)
        assert self.check(gen_benchmark(g).data, lstsq_calls, seed=4)[1] == 10

    def test_ill_conditioned_falls_back(self, lstsq_calls):
        rng = np.random.default_rng(23)
        acts = rng.standard_normal((200, 6))
        acts[:, 5] = acts[:, 4] + 1e-7 * rng.standard_normal(200)
        recs = acts @ rng.standard_normal((6, 5)) + 0.5 * rng.standard_normal((200, 5))
        X = np.hstack([acts, np.ones((200, 1))])
        eig = np.linalg.eigvalsh(X.T @ X)
        assert eig[0] < 1e-8 * eig[-1]
        assert self.check(benchmark_data(acts, recs), lstsq_calls, seed=5)[1] == 10

    @pytest.mark.parametrize("offset", [10.0, 100.0])
    def test_offset_features_stay_on_gram_path(self, lstsq_calls, offset):
        # Nonnegative activations with a large mean, as after a ReLU: the
        # uncentered XᵀX looks ill-conditioned, the centered one does not.
        g = BenchmarkGenerator(n_stimuli=300, n_features=100, n_neuroids=12,
                               noise_sigma=0.75, seed=21)
        data = gen_benchmark(g).data
        shifted = benchmark_data(data.activations + offset, data.recordings)
        assert self.check(shifted, lstsq_calls, seed=3)[1] == 0

    def test_ridge_matches_training_normal_equations(self, lstsq_calls):
        sb = bench(noise_sigma=0.6, seed=24, n_stimuli=150, n_features=12, n_neuroids=9)
        assert self.check(sb.data, lstsq_calls, seed=6, ridge=0.1)[1] == 0

    @pytest.mark.parametrize("ridge", [0.0, 0.1])
    def test_zero_variance_and_constant_prediction(self, lstsq_calls, ridge):
        # Zero activations: every prediction is the intercept, a constant.
        rng = np.random.default_rng(25)
        recs = rng.standard_normal((40, 4))
        recs[:, 0] = 0.42
        recs[:, 2] = -1.0
        data = benchmark_data(np.zeros((40, 3)), recs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep, _ = self.check(data, lstsq_calls, repeats=3, seed=7, ridge=ridge)
        assert [str(w.message) for w in caught] == [
            f"neuroid {j}: zero variance on held-out split, excluded" for j in (0, 2)
        ] * 3
        assert np.isnan(rep.per_neuroid[[0, 2]]).all()
        assert np.array_equal(rep.per_neuroid[[1, 3]], [0.0, 0.0])
        assert rep.raw == 0.0


class TestBenchmarkDataInvariants:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="stimulus axis"):
            BenchmarkData(
                stimulus_ids=list(range(5)),
                activations=np.zeros((5, 2)),
                recordings=np.zeros((4, 2)),
                ceiling=1.0,
                region="IT",
            )

    def test_nan_rejected(self):
        acts = np.zeros((5, 2))
        acts[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            BenchmarkData(
                stimulus_ids=list(range(5)), activations=acts,
                recordings=np.zeros((5, 2)), ceiling=1.0, region="IT",
            )

    def test_bad_region_and_ceiling(self):
        with pytest.raises(ValueError, match="region"):
            BenchmarkData([0], np.zeros((1, 1)), np.zeros((1, 1)), 1.0, "MT")
        with pytest.raises(ValueError, match="ceiling"):
            BenchmarkData([0], np.zeros((1, 1)), np.zeros((1, 1)), 1.5, "IT")


class TestConfusionPattern:
    def test_hand_example(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        classes = np.array([0, 1, 2])
        pat = confusion_pattern(probs, np.array([0, 2]), classes)
        assert np.allclose(pat, [0.2, 0.1, 0.1, 0.3])

    def test_length(self):
        probs = np.full((5, 4), 0.25)
        pat = confusion_pattern(probs, np.zeros(5, dtype=int), np.arange(4))
        assert pat.shape == (15,)

    def test_matches_loop_with_string_labels(self):
        rng = np.random.default_rng(26)
        names = np.array(["ant", "bee", "cat", "dog"])
        labels = [str(x) for x in rng.choice(names, size=25)]  # as the CLI reads them
        classes = np.unique(labels)
        probs = rng.random((25, classes.size))
        expected = np.array([
            probs[i, j]
            for i in range(probs.shape[0])
            for j, c in enumerate(classes)
            if c != labels[i]
        ])
        pat = confusion_pattern(probs, labels, classes)
        assert pat.dtype == expected.dtype
        assert np.array_equal(pat, expected)


class TestBehaviorScore:
    def setup_method(self):
        self.task = gen_behavior_task(seed=0)

    def data(self, pattern, ceiling=1.0):
        Xtr, ytr, Xte, yte, _ = self.task
        return BehaviorData(
            train_features=Xtr, train_labels=ytr,
            test_features=Xte, test_labels=yte,
            primate_pattern=pattern, ceiling=ceiling,
        )

    def test_self_pattern_exactly_one(self):
        Xtr, ytr, Xte, yte, _ = self.task
        classes, W = fit_logistic(Xtr, ytr)
        Xa = np.hstack([Xte, np.ones((Xte.shape[0], 1))])
        from scalefit.alignment import _softmax

        own = confusion_pattern(_softmax(Xa @ W), yte, classes)
        rep = behavior_score(self.data(own))
        assert rep.raw == 1.0
        assert rep.ceiled == 1.0

    def test_bayes_pattern_high(self):
        _, _, _, _, bayes = self.task
        rep = behavior_score(self.data(bayes))
        assert rep.raw > 0.95

    def test_deterministic(self):
        _, _, _, _, bayes = self.task
        r1 = behavior_score(self.data(bayes))
        r2 = behavior_score(self.data(bayes))
        assert r1.raw == r2.raw

    def test_pattern_length_mismatch(self):
        _, _, _, _, bayes = self.task
        with pytest.raises(ValueError, match="pattern length"):
            self.data(bayes[:-1])

    def test_unseen_test_label(self):
        Xtr, ytr, Xte, yte, bayes = self.task
        bad = yte.copy()
        bad[0] = 99
        with pytest.raises(ValueError, match="absent from training"):
            BehaviorData(
                train_features=Xtr, train_labels=ytr,
                test_features=Xte, test_labels=bad,
                primate_pattern=bayes, ceiling=1.0,
            )


def logistic_grad(X, labels, W, l2=1e-4):
    """Gradient of fit_logistic's objective at W: mean cross-entropy plus
    0.5·l2·‖W‖², the intercept row (last) not penalized."""
    _, y = np.unique(labels, return_inverse=True)
    n = X.shape[0]
    Xa = np.hstack([X, np.ones((n, 1))])
    Z = Xa @ W
    P = np.exp(Z - Z.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    P[np.arange(n), y] -= 1.0
    pen = W.copy()
    pen[-1] = 0.0
    return Xa.T @ P / n + l2 * pen


def logistic_case(name):
    """(features, labels) of a named fit_logistic case."""
    X, y, *_ = gen_behavior_task(
        seed=int(name[-1]) if name.startswith("seed") else 0,
        separation=8.0 if name == "separation8" else 2.0,
        n_classes=2 if name == "two_classes" else 4,
    )
    if name == "duplicated_column":
        X = np.hstack([X, X[:, :1]])
    elif name == "features_x1e3":
        X = X * 1e3
    elif name == "features_plus100":
        X = X + 100.0
    return X, y


class TestFitLogistic:
    @pytest.mark.parametrize("name", [
        "seed0", "seed1", "seed2", "separation8", "duplicated_column",
        "two_classes", "features_x1e3", "features_plus100",
    ])
    def test_gradient_below_default_tolerance(self, name):
        X, y = logistic_case(name)
        _, W = fit_logistic(X, y)
        assert np.max(np.abs(logistic_grad(X, y, W))) <= 1e-10

    @pytest.mark.parametrize("name", ["seed0", "seed1", "seed2", "separation8"])
    def test_intercepts_sum_to_zero(self, name):
        # Adding one constant to every class's intercept leaves the objective
        # unchanged; the min-norm Newton steps keep the intercepts centered.
        _, W = fit_logistic(*logistic_case(name))
        assert abs(W[-1].sum()) <= 1e-12

    def test_zero_tolerance_ends_without_raising(self):
        X, y = logistic_case("seed1")
        _, W = fit_logistic(X, y, grad_tol=0.0)
        assert np.all(np.isfinite(W))
        assert np.max(np.abs(logistic_grad(X, y, W))) <= 1e-10

    def test_zero_tolerance_stops_at_rounding_floor(self):
        # With grad_tol=0 the loop ends on the first accepted step that leaves
        # the objective unchanged, well before 30 steps, so a larger budget
        # changes nothing.
        X, y = logistic_case("seed0")
        _, W100 = fit_logistic(X, y, grad_tol=0.0, max_iters=100)
        _, W30 = fit_logistic(X, y, grad_tol=0.0, max_iters=30)
        assert np.array_equal(W100, W30)

    def test_separable_blobs_high_accuracy(self):
        Xtr, ytr, Xte, yte, _ = gen_behavior_task(separation=4.0, seed=1)
        classes, W = fit_logistic(Xtr, ytr)
        Xa = np.hstack([Xte, np.ones((Xte.shape[0], 1))])
        pred = classes[np.argmax(Xa @ W, axis=1)]
        assert np.mean(pred == yte) > 0.95

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            fit_logistic(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_deterministic(self):
        Xtr, ytr, *_ = gen_behavior_task(seed=2)
        _, W1 = fit_logistic(Xtr, ytr)
        _, W2 = fit_logistic(Xtr, ytr)
        assert np.array_equal(W1, W2)
