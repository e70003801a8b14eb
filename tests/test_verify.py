import numpy as np
import pytest

from commutant import ArgumentError, Permutation, verify
from commutant.verify import (
    DEFAULT_SIZES,
    SUITES,
    FaultInjector,
    RunConfig,
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
        results = run_suites(SMALL, ["vec-identity", "powers"], inject_fault=True)
        assert results[0].failures and not results[1].failures

    def test_injector_corrupts_once(self):
        inj = FaultInjector(armed=True)
        outs = [inj.corrupt(np.zeros(3)) for _ in range(4)]
        corrupted = [k for k, out in enumerate(outs) if np.any(out != 0.0)]
        assert corrupted == [0]

    def test_disarmed_injector_is_identity(self):
        inj = FaultInjector()
        arr = np.arange(4.0)
        assert np.array_equal(inj.corrupt(arr), arr)


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


#: the public routine each trial-drawing suite hands its drawn inputs to, and
#: how to read a call: a key naming the size (and tau), and the inputs flat
DRAWN = {
    "vec-identity": ("kapply", lambda k, v: ((k.p, k.q), v)),
    "swap-law": ("kapply", lambda k, v: ((k.p, k.q), v)),
    "kron-conjugation": (
        "conjugate_kron",
        lambda a, b: ((a.shape, b.shape), np.concatenate((a.ravel(), b.ravel()))),
    ),
    "mode-perm-lemma": ("permute_modes", lambda a, tau: ((a.shape, tau.images), a.array.ravel())),
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
