import numpy as np
import pytest

from commutant import ArgumentError, Permutation, verify
from commutant.preserver import VerificationReport, rank_preserver
from commutant.verify import (
    DEFAULT_SIZES,
    SUITES,
    RunConfig,
    _judge,
    run_suites,
)

SMALL = RunConfig(sizes=((2, 2), (2, 3)), trials=4, tol=1e-12, seed=7)


class TestRunConfig:
    def test_defaults_are_sane(self):
        cfg = RunConfig()
        assert cfg.sizes == DEFAULT_SIZES
        assert cfg.trials > 0 and cfg.tol > 0

    def test_validation(self):
        with pytest.raises(ArgumentError):
            RunConfig(trials=0)
        with pytest.raises(ArgumentError):
            RunConfig(tol=0.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ArgumentError):
                RunConfig(tol=tol)
        with pytest.raises(ArgumentError):
            RunConfig(sizes=((0, 2),))
        with pytest.raises(ArgumentError):
            RunConfig(sizes=())
        with pytest.raises(ArgumentError):
            RunConfig(seed=-1)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_each_suite_passes(self, name):
        results = run_suites(SMALL, [name])
        assert len(results) == 1
        res = results[0]
        assert res.name == name
        assert res.checks > 0
        assert res.passed and not res.failures

    def test_all_suites_registry_order(self):
        results = run_suites(SMALL, None)
        assert [r.name for r in results] == list(SUITES)
        assert all(r.passed for r in results)

    def test_unknown_suite(self):
        with pytest.raises(ArgumentError):
            run_suites(SMALL, ["no-such-suite"])

    def test_deterministic_given_seed(self):
        a = run_suites(SMALL, ["vec-identity", "powers"])
        b = run_suites(SMALL, ["vec-identity", "powers"])
        assert [(r.name, r.checks, r.failures) for r in a] == [
            (r.name, r.checks, r.failures) for r in b
        ]

    def test_the_inverse_law_is_decided_by_tol_alone(self, monkeypatch):
        # an inverse off by 1e-7 on its diagonal is within np.allclose's
        # default rtol of 1e-5, but not within --tol 1e-12
        from commutant.commutation_tensor import gct_inverse, gct_multiply

        def drifted(g):
            drift = rank_preserver([(1 + 1e-7) * np.eye(g.n)] * g.m, Permutation.identity(g.m))
            return gct_multiply(gct_inverse(g), drift)

        monkeypatch.setattr(verify, "gct_inverse", drifted)
        [res] = run_suites(RunConfig(sizes=((2, 2),), tol=1e-12), ["group-axioms"])
        assert res.failures == [f"(2,2): inverse law fails for {pi}" for pi in Permutation.all(2)]
        [loose] = run_suites(RunConfig(sizes=((2, 2),), tol=1e-6), ["group-axioms"])
        assert loose.passed

    def test_group_axioms_guards_size(self):
        with pytest.raises(ArgumentError):
            run_suites(RunConfig(sizes=((4, 2),)), ["group-axioms"])
        with pytest.raises(ArgumentError):
            run_suites(RunConfig(sizes=((2, 6),)), ["group-axioms"])


class TestFaultInjection:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_injected_fault_is_caught(self, name):
        results = run_suites(SMALL, [name], inject_fault=True)
        res = results[0]
        assert res.failures, f"suite {name} missed the injected fault"

    def test_failure_message_names_the_check(self):
        res = run_suites(SMALL, ["powers"], inject_fault=True)[0]
        assert len(res.failures) == 1
        assert "power" in res.failures[0]

    def test_fault_hits_only_first_selected_suite(self):
        # once per run, not once per suite
        results = run_suites(SMALL, list(SUITES), inject_fault=True)
        assert [len(r.failures) for r in results] == [1] + [0] * (len(SUITES) - 1)

    @pytest.mark.parametrize(
        "name,sizes",
        [(name, ((1, 1), (2, 3))) for name in sorted(SUITES)]
        + [
            ("preserver-suite", ((3, 3),)),
            ("preserver-suite", ((1, 4), (3, 2))),
            ("preserver-suite", ((4, 2), (2, 5))),
            ("group-axioms", ((3, 5),)),
            ("group-axioms", ((3, 5), (2, 2))),
        ],
    )
    def test_fault_lands_on_the_first_comparison(self, monkeypatch, name, sizes):
        # every comparison but the run's first passes; the first fails
        verdicts = []

        def spy(check, fault):
            failure = _judge(check, fault)
            if len(check) == 4:
                verdicts.append(failure is not None)
            return failure

        monkeypatch.setattr(verify, "_judge", spy)
        cfg = RunConfig(sizes=sizes, trials=2, seed=5)
        [res] = run_suites(cfg, [name], inject_fault=True)
        assert verdicts[0] and not any(verdicts[1:])
        assert len(res.failures) == 1


def _comparison(got, want, tol, message, fault=False):
    return _judge((got, want, tol, message), fault)


class TestJudge:
    def test_exact_rule(self):
        assert _comparison(np.arange(3.0), np.arange(3.0), None, lambda err: "a") is None
        got = np.arange(3.0) + 1e-15
        assert _comparison(got, np.arange(3.0), None, lambda err: f"b {err}") == "b None"

    def test_tolerance_rule(self):
        want = np.zeros(4)
        assert _comparison(np.array([0.0, -0.5, 0.25, 0.0]), want, 0.5, lambda err: "in") is None
        got = np.array([0.0, 0.0, -0.75, 0.0])
        assert _comparison(got, want, 0.5, lambda err: f"{err:g}") == "0.75"

    @pytest.mark.parametrize("tol", [None, 1e-12, 1e300])
    def test_nan_fails(self, tol):
        got = np.array([0.0, np.nan])
        assert _comparison(got, np.zeros(2), tol, lambda err: "nan") == "nan"
        assert _comparison(got, got.copy(), tol, lambda err: "both") == "both"

    def test_message_is_formatted_only_on_failure(self):
        def refuse(*err):
            raise AssertionError("formatted for a passing check")

        assert _comparison(np.ones(2), np.ones(2), None, refuse) is None
        assert _comparison(np.ones(2), np.ones(2), 1e-12, refuse) is None
        assert _judge((True, refuse), False) is None
        assert _judge((False, lambda: "verdict"), False) == "verdict"

    @pytest.mark.parametrize("tol", [None, 1e-12, 0.6, 1.0, 1e300])
    def test_armed_fault_fails_the_check_and_never_writes_got(self, tol):
        got = np.arange(4.0)
        got.flags.writeable = False  # a write to the caller's array raises
        assert _comparison(got, np.arange(4.0), tol, lambda err: "fault", fault=True) == "fault"
        assert _comparison(got, np.arange(4.0), tol, lambda err: "fault") is None
        assert np.array_equal(got, np.arange(4.0))


class TestDeterminantBound:
    # the check's bound scales with n * eps * cond_2(P x Q); at small n it
    # must still see a determinant that is off by one part in a million

    @pytest.mark.parametrize("seed", range(5))
    def test_relative_error_of_1e_6_fails_at_small_n(self, monkeypatch, seed):
        from types import SimpleNamespace

        from commutant import linalg, verify

        calls = []

        def skewed_det(a):
            calls.append(a)
            d = linalg.det(a)
            return d * (1 + 1e-6) if len(calls) % 2 == 0 else d  # det x, then det(P x Q)

        fake = SimpleNamespace(det=skewed_det, _slogdet=linalg._slogdet)
        monkeypatch.setattr(verify, "linalg", fake)
        sizes = tuple((2, n) for n in range(1, 9))
        [res] = run_suites(RunConfig(sizes=sizes, trials=1, seed=seed), ["preserver-suite"])
        assert len(calls) == 2 * len(sizes)
        caught = {f.split(":")[0] for f in res.failures if "determinant not preserved" in f}
        assert caught == {f"(2,{n})" for n in range(1, 9)}
        assert len(res.failures) == len(sizes)


class TestRankTrials:
    def test_a_failed_rank1_trial_is_counted_once_and_reported_in_order(self, monkeypatch):
        # each rank-1 trial is one verdict; the report's failures keep their text and order
        cfg = RunConfig(sizes=((2, 2), (3, 2)), trials=4, seed=1)
        [clean] = run_suites(cfg, ["preserver-suite"])

        def failing(phi, trials, seed):
            failed = [f"trial {t}: image is not rank 1" for t in range(phi.m - 1, trials, 2)]
            return VerificationReport(trials, trials - len(failed), tuple(failed))

        monkeypatch.setattr(verify, "verify_rank_preservation", failing)
        [res] = run_suites(cfg, ["preserver-suite"])
        assert clean.passed and res.checks == clean.checks
        assert res.failures == [
            "(2,2) rank preservation: trial 1: image is not rank 1",
            "(2,2) rank preservation: trial 3: image is not rank 1",
            "(3,2) rank preservation: trial 2: image is not rank 1",
        ]


#: the public routine each trial-drawing suite hands its drawn inputs to, and
#: how to read a call: a key naming the size (and tau), and the inputs flat
DRAWN = {
    "vec-identity": ("kapply", lambda k, v: ((k.p, k.q), v)),
    "swap-law": ("kapply", lambda k, v: ((k.p, k.q), v)),
    "kron-conjugation": (
        "conjugate_kron",
        lambda a, b: ((a.shape, b.shape), np.concatenate((a.ravel(), b.ravel()))),
    ),
    "mode-perm-lemma": ("permute_modes", lambda a, tau: ((a.shape, tau.images), a.ravel())),
}


def _drawn_inputs(monkeypatch, name, cfg):
    """Per key of DRAWN[name], the inputs the suite's trials drew, in order."""
    routine, read = DRAWN[name]
    original = getattr(verify, routine)
    seen = {}

    def recording(*args):
        key, flat = read(*args)
        seen.setdefault(key, []).append(flat.copy())
        return original(*args)

    with monkeypatch.context() as mp:
        mp.setattr(verify, routine, recording)
        [res] = run_suites(cfg, [name])
    assert res.passed
    return seen


def _rng_keys(monkeypatch, cfg, names=None):
    """Every key ``verify._rng`` receives in one run."""
    keys = []
    original = verify._rng

    def recording(cfg, suite, index):
        keys.append((cfg.seed, suite, index))
        return original(cfg, suite, index)

    with monkeypatch.context() as mp:
        mp.setattr(verify, "_rng", recording)
        results = run_suites(cfg, names)
    assert all(r.passed for r in results)
    return keys


class TestStreams:
    # one seeded stream per (suite, size), read trial by trial

    SIZES = ((2, 3), (3, 2))

    @pytest.mark.parametrize("name", sorted(DRAWN))
    def test_fewer_trials_read_a_prefix_of_the_inputs(self, monkeypatch, name):
        short = _drawn_inputs(monkeypatch, name, RunConfig(sizes=self.SIZES, trials=10, seed=3))
        full = _drawn_inputs(monkeypatch, name, RunConfig(sizes=self.SIZES, trials=20, seed=3))
        assert short.keys() == full.keys()
        for key, inputs in full.items():
            assert len(inputs) == 20 and len(short[key]) == 10
            assert all(np.array_equal(a, b) for a, b in zip(short[key], inputs))

    @pytest.mark.parametrize("name", sorted(DRAWN))
    def test_chunked_draws_equal_one_draw(self, monkeypatch, name):
        cfg = RunConfig(sizes=self.SIZES, trials=7, seed=4)
        whole = _drawn_inputs(monkeypatch, name, cfg)
        monkeypatch.setattr(verify, "DRAW_CHUNK", 1)  # one trial a draw
        chunked = _drawn_inputs(monkeypatch, name, cfg)
        assert whole.keys() == chunked.keys()
        for key, inputs in whole.items():
            assert all(np.array_equal(a, b) for a, b in zip(chunked[key], inputs, strict=True))

    @pytest.mark.parametrize("chunk", [1, 6, 7, 59, 60, 2**16])
    def test_trial_draws_do_not_depend_on_the_chunking(self, monkeypatch, chunk):
        monkeypatch.setattr(verify, "DRAW_CHUNK", chunk)
        rng = np.random.Generator(np.random.PCG64(5))
        got = list(verify._trial_draws(rng, 10, (2, 3)))
        want = np.random.Generator(np.random.PCG64(5)).standard_normal((10, 2, 3))
        assert len(got) == 10
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_stream_keys_are_distinct_across_sizes(self, monkeypatch):
        # m! * trials = 1200 draws of mode-perm-lemma at each size: a key
        # counted per draw would repeat across the two sizes
        names = [n for n in SUITES if n != "group-axioms"]  # exhaustive to m <= 3
        keys = _rng_keys(monkeypatch, RunConfig(sizes=((4, 2), (4, 3)), trials=50), names)
        assert len(keys) == len(set(keys))

    def test_a_default_run_makes_one_stream_per_drawing_suite_and_size(self, monkeypatch):
        keys = _rng_keys(monkeypatch, RunConfig())
        assert len(keys) <= 20 and len(keys) == len(set(keys))

    @pytest.mark.parametrize("name", ["group-axioms", "mode-perm-lemma"])
    def test_a_passing_check_formats_no_message(self, monkeypatch, name):
        def refuse(self):
            raise AssertionError("a message was formatted for a passing check")

        monkeypatch.setattr(Permutation, "__repr__", refuse)
        [res] = run_suites(SMALL, [name])
        assert res.passed and res.checks > 0
