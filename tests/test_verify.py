import numpy as np
import pytest

from commutant import ArgumentError
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
