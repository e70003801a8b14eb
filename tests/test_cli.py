import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from commutant import (
    DenseTensor,
    Permutation,
    apply_rank_preserver,
    build_commutation,
    rank_preserver,
)
from commutant import cli
from commutant import serialize as ser
from commutant.cli import main

K23_TEXT = (
    "1 0 0 0 0 0\n"
    "0 0 1 0 0 0\n"
    "0 0 0 0 1 0\n"
    "0 1 0 0 0 0\n"
    "0 0 0 1 0 0\n"
    "0 0 0 0 0 1\n"
)


# Output bytes of the commands below, pinned so that no change of internal
# representation can move them.
KMAT34_TEXT = (
    "1 0 0 0 0 0 0 0 0 0 0 0\n"
    "0 0 0 1 0 0 0 0 0 0 0 0\n"
    "0 0 0 0 0 0 1 0 0 0 0 0\n"
    "0 0 0 0 0 0 0 0 0 1 0 0\n"
    "0 1 0 0 0 0 0 0 0 0 0 0\n"
    "0 0 0 0 1 0 0 0 0 0 0 0\n"
    "0 0 0 0 0 0 0 1 0 0 0 0\n"
    "0 0 0 0 0 0 0 0 0 0 1 0\n"
    "0 0 1 0 0 0 0 0 0 0 0 0\n"
    "0 0 0 0 0 1 0 0 0 0 0 0\n"
    "0 0 0 0 0 0 0 0 1 0 0 0\n"
    "0 0 0 0 0 0 0 0 0 0 0 1\n"
)
KMAT34_JSON = '{"p":3,"q":4,"perm":[1,4,7,10,2,5,8,11,3,6,9,12]}\n'
KTENSOR23_JSON = (
    '{"shape":[3,2,2,3],"values":[1,0,0,0,0,0,0,0,0,1,0,0,0,1,0,0'
    ',0,0,0,0,0,0,1,0,0,0,1,0,0,0,0,0,0,0,0,1]}\n'
)
VERIFY_TEXT = (
    "vec-identity: PASS (84 checks)\n"
    "swap-law: PASS (84 checks)\n"
    "kron-conjugation: PASS (80 checks)\n"
    "powers: PASS (10 checks)\n"
    "group-axioms: PASS (192 checks)\n"
    "mode-perm-lemma: PASS (320 checks)\n"
    "preserver-suite: PASS (98 checks)\n"
)
VERIFY_FAULT_S3_TEXT = (
    "vec-identity: FAIL (1/84 checks failed)\n"
    "  FAIL size 2x2 trial 0: K vec(X) != vec(X^T)\n"
    "swap-law: PASS (84 checks)\n"
    "kron-conjugation: PASS (80 checks)\n"
    "powers: PASS (10 checks)\n"
    "group-axioms: PASS (192 checks)\n"
    "mode-perm-lemma: PASS (320 checks)\n"
    "preserver-suite: PASS (98 checks)\n"
)
VERIFY_KRON_FAULT_S5_TEXT = (
    "kron-conjugation: FAIL (1/80 checks failed)\n"
    "  FAIL size 2x2 trial 0: conjugation error 1.000e+00 > 1e-12\n"
)
VERIFY_GROUP_FAULT_2X2_TEXT = (
    "group-axioms: FAIL (1/12 checks failed)\n"
    "  FAIL (2,2): dense product disagrees for Permutation([1, 2])∘Permutation([1, 2])\n"
)
VERIFY_PRESERVER_FAULT_2X2_TEXT = (
    "preserver-suite: FAIL (1/26 checks failed)\n"
    "  FAIL (2,2): order-2 reduction differs by 1.000e+00\n"
)
VERIFY_JSON_T10_S7 = (
    '{"seed":7,"suites":[{"name":"vec-identity","checks":44,"failures":[]},{'
    '"name":"swap-law","checks":44,"failures":[]},{'
    '"name":"kron-conjugation","checks":40,"failures":[]},{'
    '"name":"powers","checks":10,"failures":[]},{'
    '"name":"group-axioms","checks":192,"failures":[]},{'
    '"name":"mode-perm-lemma","checks":160,"failures":[]},{'
    '"name":"preserver-suite","checks":58,"failures":[]}],"passed":true}'
    "\n"
)


# `apply` inputs with a non-identity tau at orders 2 (matrix text), 3 and 4
# (tensor JSON), and their output bytes.
APPLY_CASES = [
    (
        (
            '{"m":2,"n":3,"tau":[2,1],"matrices":[[[1.5,0.25,-1],[0.1,2,0.3],'
            '[-0.7,0.2,1.1]],[[0.9,-0.4,0],[0.35,1.2,-0.15],[0,0.6,1.3]]]}'
        ),
        "a.txt",
        "0.3 -1.2 2.5\n1.7 0.05 -0.9\n-2.2 0.8 1.1\n",
        (
            '{"shape":[3,3],"values":[-3.5000000000000004,'
            '-1.4580000000000002,2.9380000000000002,3.9624999999999995,'
            '-0.82350000000000001,-2.2354999999999996,-3.3825000000000007,'
            '2.2230000000000003,2.4810000000000003]}\n'
        ),
    ),
    (
        (
            '{"m":3,"n":2,"tau":[2,3,1],"matrices":[[[1.1,-0.3],[0.2,0.9]],'
            '[[0.7,0.45],[-0.6,1.3]],[[2,0.1],[0.35,-1.4]]]}'
        ),
        "a.json",
        '{"shape":[2,2,2],"values":[0.5,-1.25,2,0.1,-0.3,1.7,0.9,-2.2]}',
        (
            '{"shape":[2,2,2],"values":[-0.59449999999999981,3.25,-1.0868,'
            '-0.53360000000000019,-0.32375000000000026,1.773625,'
            '-6.0473000000000008,2.7926499999999996]}\n'
        ),
    ),
    (
        (
            '{"m":4,"n":2,"tau":[3,1,4,2],"matrices":[[[1.2,0.4],[-0.5,0.8]],'
            '[[0.3,1.1],[1.6,-0.2]],[[0.9,-0.7],[0.25,1.05]],[[-1.3,0.6],'
            '[0.15,0.95]]]}'
        ),
        "a.json",
        (
            '{"shape":[2,2,2,2],"values":[0.1,0.2,-0.3,0.4,0.5,-0.6,0.7,0.8,'
            '-0.9,1.1,1.2,-1.3,1.4,1.5,-1.6,1.7]}'
        ),
        (
            '{"shape":[2,2,2,2],"values":[2.4356400000000002,1.38751,'
            '-2.4726400000000002,3.3748200000000002,-3.0313800000000009,'
            '-0.30350500000000008,2.3675200000000007,-5.4622300000000017,'
            '1.0235800000000002,-0.69580500000000012,-1.0176799999999997,'
            '3.0048399999999997,-0.21121000000000012,1.9752275000000006,'
            '1.2116399999999998,-2.7520600000000006]}\n'
        ),
    ),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.getenv("PYTHONPATH")]))}

# the process's own peak RSS, VmHWM: ru_maxrss would start from the peak of
# the process that started it, since Linux carries it across exec
PEAK = """
import re, sys
from commutant import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as fh:
    print(code, re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1), file=sys.stderr)
"""


def _peak_kib(*argv) -> int:
    """Peak RSS, in KiB, of a fresh process that runs ``main(argv)`` and
    exits 0, its stdout discarded."""
    done = subprocess.run(
        [sys.executable, "-c", PEAK, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=ENV,
        check=True,
        timeout=120,
    )
    code, peak = map(int, done.stderr.split())
    assert code == 0
    return peak


class TestGenKmat:
    def test_golden_2x3(self, capsys):
        code, out, err = run(capsys, "gen-kmat", "2", "3")
        assert code == 0 and err == ""
        assert out == K23_TEXT

    def test_degenerate_1x1(self, capsys):
        code, out, _ = run(capsys, "gen-kmat", "1", "1")
        assert code == 0
        assert out == "1\n"

    def test_json_3x2(self, capsys):
        code, out, _ = run(capsys, "gen-kmat", "3", "2", "--format", "json")
        assert code == 0
        assert out == '{"p":3,"q":2,"perm":[1,4,2,5,3,6]}\n'

    def test_rejects_zero(self, capsys):
        code, _, _ = run(capsys, "gen-kmat", "0", "3")
        assert code == 2

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 12, 30])
    @pytest.mark.parametrize("q", [1, 2, 5, 9, 20])
    def test_text_is_the_dense_matrix_text(self, capsys, p, q):
        # written from K's index, byte for byte the text of its dense form
        code, out, err = run(capsys, "gen-kmat", str(p), str(q))
        assert code == 0 and err == ""
        assert out == ser.matrix_to_text(build_commutation(p, q).dense())


class TestGenKtensor:
    def test_3x2_has_six_unit_entries(self, capsys):
        code, out, _ = run(capsys, "gen-ktensor", "3", "2")
        assert code == 0
        t = ser.tensor_from_json(out)
        assert t.shape == (2, 3, 3, 2)
        assert float(np.sum(t.array)) == 6.0
        assert set(np.unique(t.array)) == {0.0, 1.0}
        for i in range(3):
            for j in range(2):
                assert t.array[j, i, i, j] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [["gen-ktensor", "2", "2"], ["gen-gct", "2", "2"], ["apply", "phi.json", "a.txt"]],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_json_only_subcommands_refuse_the_format_flag(self, capsys, argv, fmt):
        # they always write JSON, so a --format they would ignore is refused
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2 and out == "" and "--format" in err


class TestGenGct:
    def test_identity_default(self, capsys):
        code, out, _ = run(capsys, "gen-gct", "2", "2")
        assert code == 0
        assert _strict_json(out) == {"m": 2, "n": 2, "generators": [[[1, 0], [0, 1]]] * 2}

    def test_cycle_perm(self, capsys):
        code, out, _ = run(capsys, "gen-gct", "2", "3", "--perm", "2,3,1")
        assert code == 0
        # P e_j = e_perm(j): column j holds its 1 in row perm(j)
        want = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        assert _strict_json(out) == {"m": 2, "n": 3, "generators": [want] * 2}

    def test_bad_perm_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen-gct", "2", "3", "--perm", "1,1,2")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "gen-gct", "2", "3", "--perm", "1,2")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "gen-gct", "2", "3", "--perm", "a,b")
        assert code == 2 and "bad permutation" in err

    @pytest.mark.parametrize(
        "argv,sha256",
        [
            (
                ["gen-gct", "3", "4", "--perm", "2,4,1,3"],
                "b74b7540d4c67cfdc1d58088a909b837a6967f2c7a94c04ad2ab3f43bfa5fc5e",
            ),
            (
                ["gen-gct", "8", "64"],
                "6f4f1738ba7f99fa58da6ea3be7226fef929bad079952caf247df0c17a340fd4",
            ),
        ],
    )
    def test_pinned_bytes(self, capsys, argv, sha256):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_holds_one_copy_of_its_generator(self):
        # the 8 MiB generator is written once per mode, not joined into one
        # string of every mode
        peaks = {m: _peak_kib("gen-gct", m, "2048") for m in ("1", "8")}
        assert peaks["8"] - peaks["1"] <= 16 * 1024, peaks


class TestVerify:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--sizes", "2x2", "--trials", "3")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 7
        assert all("PASS" in ln for ln in lines)

    def test_single_suite_json(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "vec-identity",
            "--sizes",
            "2x3",
            "--trials",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["seed"] == 0
        assert [s["name"] for s in report["suites"]] == ["vec-identity"]
        assert report["suites"][0]["failures"] == []

    def test_inject_fault_exits_4(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "powers",
            "--sizes",
            "2x2",
            "--inject-fault",
        )
        assert code == 4
        assert "powers: FAIL" in out
        assert "  FAIL " in out

    @pytest.mark.parametrize(
        "suite,sizes,first",
        [
            ("preserver-suite", "1x1", "(1,1): symmetric preserver does not push through"),
            ("preserver-suite", "3x3", "(3,3): symmetric preserver does not push through"),
            (
                "group-axioms",
                "3x5",
                "(3,5): closure fails for "
                "Permutation([1, 2, 3, 4, 5])∘Permutation([1, 2, 3, 4, 5])",
            ),
        ],
    )
    def test_inject_fault_lands_where_no_fault_site_was(self, capsys, suite, sizes, first):
        # the fault lands on the run's first comparison, whichever check that is
        code, out, _ = run(capsys, "verify", "--suite", suite, "--sizes", sizes, "--inject-fault")
        assert code == 4
        fails = [ln for ln in out.splitlines() if ln.startswith("  FAIL ")]
        assert len(fails) == 1 and fails[0].startswith(f"  FAIL {first}")

    @pytest.mark.parametrize("suite", ["kron-conjugation", "mode-perm-lemma", "preserver-suite"])
    def test_inject_fault_lands_under_a_loose_tol(self, capsys, suite):
        # a tolerance of 1 or more would absorb a fault of 1.0
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--sizes", "2x2", "--tol", "2", "--inject-fault"
        )
        assert code == 4 and out.count("  FAIL ") == 1

    def test_a_valid_tol_reaches_the_run(self, capsys, monkeypatch):
        from commutant import verify

        seen, real = [], verify.run_suites

        def spy(cfg, *args, **kwargs):
            seen.append(cfg.tol)
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(verify, "run_suites", spy)
        code, out, err = run(
            capsys, "verify", "--suite", "kron-conjugation", "--sizes", "2x3", "--trials", "2",
            "--tol", "1e-9",
        )
        assert code == 0 and err == "" and out.startswith("kron-conjugation: PASS")
        assert seen == [1e-9]

    def test_unknown_suite_exits_3(self, capsys):
        from commutant.verify import SUITES

        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 3 and "unknown suite" in err
        # --help does not list the suites, so the refusal names them
        assert err.endswith(f"the suites are {', '.join(SUITES)}\n")

    @pytest.mark.parametrize("trials", ["65537", "1000000000000", str(10**30)])
    def test_a_trial_count_over_its_bound_exits_3_before_any_trial(
        self, capsys, monkeypatch, trials
    ):
        from commutant import verify

        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verify, "run_suites", refuse)
        code, out, err = run(
            capsys, "verify", "--suite", "vec-identity", "--sizes", "2x2", "--trials", trials
        )
        assert code == 3 and out == ""
        assert f"trials={trials} is over the bound MAX_TRIALS=65536" in err

    def test_mode_perm_lemma_past_its_exhaustive_degree_exits_3(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "mode-perm-lemma", "--sizes", "5x2")
        assert code == 3 and out == ""
        assert "m=5 > 4" in err

    def test_bad_sizes_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--sizes", "2x")
        assert code == 2

    @pytest.mark.parametrize("sizes", ["0x2", "2x0", "2x3,-1x2"])
    def test_non_positive_sizes_exits_2(self, capsys, sizes):
        code, out, _ = run(capsys, "verify", "--sizes", sizes)
        assert code == 2 and out == ""

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMUTANT_SEED", "99")
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "powers",
            "--sizes",
            "2x2",
            "--seed",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_bad_seed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMUTANT_SEED", "abc")
        code, _, _ = run(capsys, "verify", "--suite", "powers", "--sizes", "2x2")
        assert code == 2

    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed=-7"]])
    def test_negative_seed_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--suite", "powers", *argv)
        assert code == 2 and out == "" and "non-negative" in err

    def test_negative_seed_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMUTANT_SEED", "-5")
        code, out, err = run(capsys, "verify", "--suite", "powers", "--sizes", "2x2")
        assert code == 2 and out == "" and "non-negative" in err

    @pytest.mark.parametrize("sizes", ["2x200", "2x320"])
    def test_preserver_suite_normalizes_without_overflow(self, capsys, sizes):
        # det(PQ), and at n = 320 det(P) alone, is beyond float range
        code, out, err = run(
            capsys, "verify", "--suite", "preserver-suite", "--sizes", sizes, "--trials", "1"
        )
        assert code == 0 and err == "" and "PASS" in out

    @pytest.mark.parametrize("sizes", ["2x12", "12x2"])
    def test_preserver_suite_draws_its_permutations(self, capsys, sizes):
        # listing S_12 to pick one element would hold 479 million objects
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "verify", "--suite", "preserver-suite", "--sizes", sizes, "--trials", "1"
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and err == "" and "PASS" in out
        assert peak < 8 * 2**20


class TestApply:
    @staticmethod
    def _write(tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_identity_preserver_returns_input(self, capsys, tmp_path):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([1, 2]))
        pfile = self._write(tmp_path, "phi.json", ser.preserver_to_json(phi))
        tfile = self._write(
            tmp_path, "t.json", ser.tensor_to_json(DenseTensor([[1.0, 2.0], [3.0, 4.0]]))
        )
        code, out, _ = run(capsys, "apply", pfile, tfile)
        assert code == 0
        assert out == '{"shape":[2,2],"values":[1,3,2,4]}\n'

    def test_swap_preserver_transposes_matrix_text(self, capsys, tmp_path):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        pfile = self._write(tmp_path, "phi.json", ser.preserver_to_json(phi))
        tfile = self._write(tmp_path, "a.txt", "1 2\n3 4\n")
        code, out, _ = run(capsys, "apply", pfile, tfile)
        assert code == 0
        assert out == '{"shape":[2,2],"values":[1,2,3,4]}\n'

    def test_matches_library_route(self, capsys, tmp_path):
        rng = np.random.default_rng(42)
        mats = [rng.standard_normal((3, 3)) + 2 * np.eye(3) for _ in range(2)]
        phi = rank_preserver(mats, Permutation([2, 1]))
        a = DenseTensor(rng.standard_normal((3, 3)))
        pfile = self._write(tmp_path, "phi.json", ser.preserver_to_json(phi))
        tfile = self._write(tmp_path, "a.json", ser.tensor_to_json(a))
        code, out, _ = run(capsys, "apply", pfile, tfile)
        assert code == 0
        assert out == ser.tensor_to_json(apply_rank_preserver(phi, a)) + "\n"

    def test_matches_library_route_over_several_parts(self, capsys, tmp_path):
        # 90,000 values, more than one part of the streamed writer
        rng = np.random.default_rng(43)
        mats = [rng.standard_normal((300, 300)) + 20 * np.eye(300) for _ in range(2)]
        phi = rank_preserver(mats, Permutation([2, 1]))
        a = rng.standard_normal((300, 300))
        pfile = self._write(tmp_path, "phi.json", ser.preserver_to_json(phi))
        tfile = self._write(tmp_path, "a.json", ser.tensor_to_json(a))
        code, out, _ = run(capsys, "apply", pfile, tfile)
        assert code == 0
        result = apply_rank_preserver(phi, a).array
        want = {"shape": [300, 300], "values": result.ravel(order="F").tolist()}
        assert out == ser.canonical_json(want) + "\n"

    @pytest.mark.parametrize("tau", [[1, 2], [2, 1]])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 18, 19, 20, 25, 26, 27, 28, 32, 33, 34, 35, 36])
    def test_one_matrix_gives_the_same_bytes_in_either_format(self, capsys, tmp_path, n, tau):
        # the sizes at which apply_rank_preserver gives a C-ordered and an
        # F-ordered copy of one matrix other bits; both readers build F order
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        mats = [(rng.standard_normal((n, n)) + 6 * np.eye(n)).tolist() for _ in range(2)]
        phi = {"m": 2, "n": n, "tau": tau, "matrices": mats}
        pfile = self._write(tmp_path, "phi.json", json.dumps(phi))
        as_json = {"shape": [n, n], "values": a.ravel(order="F").tolist()}
        as_text = "".join(" ".join(map(repr, row)) + "\n" for row in a.tolist())
        outs = [
            run(capsys, "apply", pfile, self._write(tmp_path, name, text))
            for name, text in (("a.json", json.dumps(as_json)), ("a.txt", as_text))
        ]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    def test_writes_its_result_in_parts(self, tmp_path):
        # an order-4, n = 30 result is 810,000 values; written as one string
        # of them all, they took ~170 MiB over the peak of an n = 2 apply
        rng = np.random.default_rng(44)
        files = {}
        for n in (2, 30):
            mats = [(rng.standard_normal((n, n)) + 6 * np.eye(n)).tolist() for _ in range(4)]
            phi = {"m": 4, "n": n, "tau": [2, 3, 4, 1], "matrices": mats}
            a = {"shape": [n] * 4, "values": rng.standard_normal(n**4).tolist()}
            files[n] = [
                self._write(tmp_path, f"{k}{n}.json", json.dumps(doc))
                for k, doc in (("phi", phi), ("a", a))
            ]
        peaks = {n: _peak_kib("apply", *paths) for n, paths in files.items()}
        assert peaks[30] - peaks[2] <= 96 * 1024, peaks

    def test_shape_mismatch_exits_3(self, capsys, tmp_path):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([1, 2]))
        pfile = self._write(tmp_path, "phi.json", ser.preserver_to_json(phi))
        tfile = self._write(
            tmp_path, "t.json", ser.tensor_to_json(DenseTensor(np.ones((3, 3))))
        )
        code, _, err = run(capsys, "apply", pfile, tfile)
        assert code == 3 and "error:" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        pfile = self._write(tmp_path, "phi.json", "{not json")
        tfile = self._write(tmp_path, "t.json", '{"shape":[2,2],"values":[1,2,3,4]}')
        code, _, _ = run(capsys, "apply", pfile, tfile)
        assert code == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        tfile = self._write(tmp_path, "t.json", '{"shape":[2,2],"values":[1,2,3,4]}')
        code, _, _ = run(capsys, "apply", str(tmp_path / "nope.json"), tfile)
        assert code == 2

    def test_non_integer_header_exits_2(self, capsys, tmp_path):
        pfile = self._write(
            tmp_path,
            "phi.json",
            '{"m":"x","n":2,"tau":[1],"matrices":[[[1,0],[0,1]]]}',
        )
        tfile = self._write(tmp_path, "t.json", '{"shape":[2],"values":[1,2]}')
        code, out, err = run(capsys, "apply", pfile, tfile)
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err

    def test_singular_preserver_exits_3(self, capsys, tmp_path):
        pfile = self._write(
            tmp_path,
            "phi.json",
            '{"m":1,"n":2,"tau":[1],"matrices":[[[1,2],[2,4]]]}',
        )
        tfile = self._write(tmp_path, "t.json", '{"shape":[2],"values":[1,2]}')
        code, _, _ = run(capsys, "apply", pfile, tfile)
        assert code == 3

    @pytest.mark.parametrize("tau", ["[1,2]", "[2,1]"])
    def test_a_preserver_whose_pivot_overflows_exits_3_before_any_product(
        self, capsys, tmp_path, tau
    ):
        # the gate refuses the generator, so no NaN product is ever written
        pfile = self._write(
            tmp_path,
            "phi.json",
            '{"m":2,"n":2,"tau":' + tau + ',"matrices":[[[1e308,1e308],[-1e308,1e308]],'
            "[[1,0],[0,1]]]}",
        )
        tfile = self._write(tmp_path, "t.json", '{"shape":[2,2],"values":[1,2,3,4]}')
        code, out, err = run(capsys, "apply", pfile, tfile)
        assert (code, out, err) == (3, "", "error: a pivot overflows in elimination\n")


class TestUnfold:
    def test_matrix_text_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1 2\n3 4\n", encoding="utf-8")
        code, out, _ = run(capsys, "unfold", str(path))
        assert code == 0
        assert out == "1 2\n3 4\n"

    def test_order4_json(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        t = DenseTensor(rng.standard_normal((3, 3, 3, 3)))
        path = tmp_path / "t.json"
        path.write_text(ser.tensor_to_json(t), encoding="utf-8")
        code, out, _ = run(capsys, "unfold", str(path), "--format", "json")
        assert code == 0
        got = ser.tensor_from_json(out)
        assert got.shape == (9, 9)
        assert np.array_equal(got.array, t.array.reshape((9, 9), order="F"))

    def test_order4_json_bytes(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        values = "1,-0,3,4,5,6,7,8,9,10,11,12,13,14,15,0.1"
        path.write_text('{"shape":[2,2,2,2],"values":[%s]}' % values, encoding="utf-8")
        code, out, _ = run(capsys, "unfold", str(path), "--format", "json")
        assert code == 0
        assert out == (
            '{"shape":[4,4],"values":[1,-0,3,4,5,6,7,8,9,10,11,12,13,14,15,'
            '0.10000000000000001]}\n'
        )

    def test_unequal_extents_exit_3(self, capsys, tmp_path):
        t = DenseTensor(np.ones((2, 3, 2, 3)))
        path = tmp_path / "t.json"
        path.write_text(ser.tensor_to_json(t), encoding="utf-8")
        code, _, _ = run(capsys, "unfold", str(path))
        assert code == 3

    def test_odd_order_exits_3(self, capsys, tmp_path):
        t = DenseTensor(np.ones((2, 2, 2)))
        path = tmp_path / "t.json"
        path.write_text(ser.tensor_to_json(t), encoding="utf-8")
        code, _, _ = run(capsys, "unfold", str(path))
        assert code == 3


class TestHarness:
    def test_no_command_exits_2(self, capsys):
        assert run(capsys, )[0] == 2

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_same_argv_same_bytes(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "powers", "--sizes", "3x3",
                          "--format", "json")
        _, second, _ = run(capsys, "verify", "--suite", "powers", "--sizes", "3x3",
                           "--format", "json")
        assert first == second


class TestProcessEntry:
    """``run`` is the process entry: ``main``, then a frozen heap, so that
    interpreter exit frees it by reference counts; ``main`` leaves the
    collector alone."""

    def test_run_returns_mains_exit_code_and_freezes_the_heap(self, capsys):
        try:
            assert cli.run(["gen-kmat", "7", "x"]) == 2
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert "error:" in capsys.readouterr().err

    def test_main_leaves_the_collector_as_it_was(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert run(capsys, "gen-kmat", "2", "3") == (0, K23_TEXT, "")
        assert run(capsys, "verify", "--suite", "powers", "--sizes", "2x2")[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_a_closed_stdout_exits_1_with_nothing_on_stderr(self):
        # ~16 MB of output, far more than a pipe holds, so the writer is
        # still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "commutant.cli", "gen-gct", "2", "2000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=ENV,
        )
        try:
            assert proc.stdout.read(5) == b'{"m":'
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert (code, err) == (1, b"")


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "argv,want",
        [
            (["gen-kmat", "3", "4"], KMAT34_TEXT),
            (["gen-kmat", "3", "4", "--format", "json"], KMAT34_JSON),
            (["gen-ktensor", "2", "3"], KTENSOR23_JSON),
            (["verify"], VERIFY_TEXT),
            (["verify", "--format", "json", "--trials", "10", "--seed", "7"], VERIFY_JSON_T10_S7),
        ],
    )
    def test_stdout_bytes(self, capsys, monkeypatch, argv, want):
        monkeypatch.delenv("COMMUTANT_SEED", raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == want

    @pytest.mark.parametrize(
        "argv,want",
        [
            (["verify", "--inject-fault", "--seed", "3"], VERIFY_FAULT_S3_TEXT),
            (
                ["verify", "--suite", "kron-conjugation", "--inject-fault", "--seed", "5"],
                VERIFY_KRON_FAULT_S5_TEXT,
            ),
            (
                ["verify", "--suite", "group-axioms", "--sizes", "2x2", "--inject-fault"],
                VERIFY_GROUP_FAULT_2X2_TEXT,
            ),
            (
                ["verify", "--suite", "preserver-suite", "--sizes", "2x2", "--inject-fault"],
                VERIFY_PRESERVER_FAULT_2X2_TEXT,
            ),
        ],
    )
    def test_injected_fault_bytes_and_exit_4(self, capsys, monkeypatch, argv, want):
        monkeypatch.delenv("COMMUTANT_SEED", raising=False)
        code, out, err = run(capsys, *argv)
        assert code == 4 and err == ""
        assert out == want

    @pytest.mark.parametrize("phi,name,tensor,want", APPLY_CASES)
    def test_apply_stdout_bytes(self, capsys, tmp_path, phi, name, tensor, want):
        pfile, tfile = tmp_path / "phi.json", tmp_path / name
        pfile.write_text(phi, encoding="utf-8")
        tfile.write_text(tensor, encoding="utf-8")
        code, out, err = run(capsys, "apply", str(pfile), str(tfile))
        assert code == 0 and err == ""
        assert out == want


def _strict_json(text):
    """json.loads that refuses the NaN/Infinity tokens real JSON lacks."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


PHI22 = '{"m":2,"n":2,"tau":[2,1],"matrices":[[[1,0],[0,1]],[[2,1],[1,1]]]}'
A22_JSON = '{"shape":[2,2],"values":[1,2,3,4]}'


class TestRefusedInputs:
    """Non-finite values, non-integral header fields and bad tolerances end
    in exit 2 or 3, with nothing on stdout that is not strict JSON."""

    @pytest.mark.parametrize(
        "phi,tensor",
        [
            (PHI22.replace("[2,1],[1,1]", "[NaN,1],[1,1]"), A22_JSON),
            (PHI22.replace("[2,1],[1,1]", "[Infinity,1],[1,1]"), A22_JSON),
            (PHI22.replace("[2,1],[1,1]", "[1e999,1],[1,1]"), A22_JSON),
            (PHI22, "1 2\ninf 4\n"),
            (PHI22, "nan 2\n3 4\n"),
            (PHI22, '{"shape":[2,2],"values":[1,NaN,3,4]}'),
            (PHI22, '{"shape":[2,2],"values":[1,-Infinity,3,4]}'),
            (PHI22.replace('"m":2', '"m":2.5'), A22_JSON),
            (PHI22.replace('"n":2', '"n":"2"'), A22_JSON),
        ],
    )
    def test_apply(self, capsys, tmp_path, phi, tensor):
        pfile, tfile = tmp_path / "phi.json", tmp_path / "t"
        pfile.write_text(phi, encoding="utf-8")
        tfile.write_text(tensor, encoding="utf-8")
        code, out, err = run(capsys, "apply", str(pfile), str(tfile))
        assert code in (2, 3) and "Traceback" not in err
        for line in out.splitlines():
            _strict_json(line)

    @pytest.mark.parametrize(
        "tensor",
        [
            '{"shape":[2,2],"values":["1","0","0","1"]}',
            '{"shape":[2,2],"values":[true,false,false,true]}',
            '{"shape":[true,1,1,1],"values":[1]}',
        ],
    )
    def test_unfold_non_numeric_tensor_json(self, capsys, tmp_path, tensor):
        tfile = tmp_path / "t.json"
        tfile.write_text(tensor, encoding="utf-8")
        code, out, err = run(capsys, "unfold", str(tfile))
        assert code == 2 and out == "" and "Traceback" not in err

    @pytest.mark.parametrize("command", ["unfold", "apply"])
    def test_tensor_over_numpys_order(self, capsys, tmp_path, command):
        # 70 modes of extent 1: one value, but numpy arrays have at most 64 modes
        tfile, pfile = tmp_path / "t.json", tmp_path / "phi.json"
        tfile.write_text(json.dumps({"shape": [1] * 70, "values": [1.0]}), encoding="utf-8")
        phi = {"m": 70, "n": 1, "tau": list(range(1, 71)), "matrices": [[[1.0]]] * 70}
        pfile.write_text(json.dumps(phi), encoding="utf-8")
        argv = [str(pfile), str(tfile)] if command == "apply" else [str(tfile)]
        code, out, err = run(capsys, command, *argv)
        assert code == 2 and out == ""
        assert "order 70" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["unfold", "apply"])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, command, *[str(bad)] * (2 if command == "apply" else 1))
        assert code == 2 and out == ""
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "phi",
        [
            PHI22.replace("[2,1],[1,1]", '["2",1],[1,1]'),
            PHI22.replace("[2,1],[1,1]", "[2,true],[false,1]"),
            PHI22.replace("[2,1],[1,1]", "[2,1],[1,null]"),
            pytest.param(
                PHI22.replace("[2,1]", "[1%s,1]" % ("0" * 400)), id="int-beyond-float"
            ),
        ],
    )
    def test_apply_non_numeric_preserver_matrix(self, capsys, tmp_path, phi):
        pfile, tfile = tmp_path / "phi.json", tmp_path / "t.json"
        pfile.write_text(phi, encoding="utf-8")
        tfile.write_text(A22_JSON, encoding="utf-8")
        code, out, err = run(capsys, "apply", str(pfile), str(tfile))
        assert code == 2 and out == "" and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
    def test_tol(self, capsys, tol):
        argv = ["verify", "--suite", "powers", "--sizes", "2x2", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--tol", tol)
        assert code == 2
        for line in out.splitlines():
            _strict_json(line)

    @pytest.mark.parametrize("suite", ["vec-identity", "swap-law"])
    def test_reconstruction_oracles_check_the_dense_budget_first(self, capsys, suite):
        # refused before either pq x pq matrix is allocated
        code, out, err = run(capsys, "verify", "--suite", suite, "--sizes", "5000x5000")
        assert code == 3 and out == ""
        assert "MAX_DENSE_ENTRIES" in err


class TestBooleanPermutations:
    def test_apply_refuses_a_boolean_tau(self, capsys, tmp_path):
        pfile, tfile = tmp_path / "phi.json", tmp_path / "t.json"
        pfile.write_text(PHI22.replace('"tau":[2,1]', '"tau":[true,2]'), encoding="utf-8")
        tfile.write_text(A22_JSON, encoding="utf-8")
        code, out, err = run(capsys, "apply", str(pfile), str(tfile))
        assert code == 2 and out == ""
        assert "tau" in err and "Traceback" not in err

    @pytest.mark.parametrize("tau", ["[2.0,1.0]", "[2,1.0]"])
    def test_apply_refuses_a_tau_of_integral_floats(self, capsys, tmp_path, tau):
        # tau's images are JSON integers, as the header fields m and n are;
        # the same file with [2,1] applies
        pfile, tfile = tmp_path / "phi.json", tmp_path / "t.json"
        tfile.write_text(A22_JSON, encoding="utf-8")
        pfile.write_text(PHI22, encoding="utf-8")
        assert run(capsys, "apply", str(pfile), str(tfile))[0] == 0
        pfile.write_text(PHI22.replace('"tau":[2,1]', f'"tau":{tau}'), encoding="utf-8")
        code, out, err = run(capsys, "apply", str(pfile), str(tfile))
        assert code == 2 and out == ""
        assert err == "error: preserver: tau must be a list of integers\n"


class TestBooleanHeaderFields:
    @pytest.mark.parametrize(
        "phi,tensor",
        [
            (
                '{"m":true,"n":2,"tau":[1],"matrices":[[[1,0],[0,1]]]}',
                '{"shape":[2],"values":[1,2]}',
            ),
            ('{"m":1,"n":true,"tau":[1],"matrices":[[[2]]]}', '{"shape":[1],"values":[3]}'),
        ],
    )
    def test_apply_refuses_a_boolean_header_field(self, capsys, tmp_path, phi, tensor):
        # json loads true as a bool, which equals 1; the same file with 1 applies
        pfile, tfile = tmp_path / "phi.json", tmp_path / "t.json"
        tfile.write_text(tensor, encoding="utf-8")
        pfile.write_text(phi.replace("true", "1"), encoding="utf-8")
        assert run(capsys, "apply", str(pfile), str(tfile))[0] == 0
        pfile.write_text(phi, encoding="utf-8")
        code, out, err = run(capsys, "apply", str(pfile), str(tfile))
        assert code == 2 and out == ""
        assert "must be integers" in err and "Traceback" not in err


class TestVerifyOnlyOptions:
    """--tol, --seed and --trials belong to verify, the one subcommand that
    reads them; every other subcommand refuses them as a usage error."""

    @pytest.mark.parametrize("option", [["--tol", "5"], ["--seed", "3"], ["--trials", "9"]])
    @pytest.mark.parametrize(
        "command",
        [
            ["gen-kmat", "2", "2"],
            ["gen-ktensor", "2", "2"],
            ["gen-gct", "2", "3"],
            ["apply", "phi.json", "t.json"],
            ["unfold", "t.json"],
        ],
    )
    def test_other_subcommands_refuse_them(self, capsys, command, option):
        code, out, err = run(capsys, *command, *option)
        assert code == 2 and out == ""
        assert "usage:" in err and "unrecognized arguments" in err


class TestDenseBudget:
    # every request is refused before anything of its size is allocated

    def test_gen_kmat_over_budget_exits_3(self, capsys):
        code, out, err = run(capsys, "gen-kmat", "5000", "5000")
        assert code == 3 and out == ""
        assert "K_{5000,5000}: (25000000, 25000000) is over MAX_DENSE_ENTRIES" in err

    def test_mode_perm_lemma_over_budget_exits_3(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "mode-perm-lemma", "--sizes", "4x12"
        )
        assert code == 3 and out == ""
        # the size is named as the N x N matrix, N = 12^4, not as the order-8 shape
        assert "(20736, 20736) is over MAX_DENSE_ENTRIES" in err

    def test_kron_conjugation_over_budget_exits_3(self, capsys):
        # each 10^6 x 10^6 Kronecker product is 7 TiB
        code, out, err = run(
            capsys, "verify", "--suite", "kron-conjugation", "--sizes", "1000x1000", "--trials", "1"
        )
        assert code == 3 and out == ""
        assert "MAX_DENSE_ENTRIES" in err and "Traceback" not in err

    def test_kron_conjugation_refuses_before_drawing(self, capsys):
        # A alone would be 4100^2 entries (134 MB); A ⊗ B is just over the budget
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "verify", "--suite", "kron-conjugation", "--sizes", "4100x1",
                "--trials", "1",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and "MAX_DENSE_ENTRIES" in err
        assert peak < 8 * 2**20

    def test_preserver_suite_over_budget_exits_3(self, capsys):
        # its 16^7 rank-1 input is 2 GiB
        code, out, err = run(
            capsys, "verify", "--suite", "preserver-suite", "--sizes", "7x16", "--trials", "1"
        )
        assert code == 3 and out == ""
        assert "MAX_DENSE_ENTRIES" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["gen-gct", "1", "5000"], "(5000, 5000)"),
            (["verify", "--suite", "mode-perm-lemma", "--sizes", "2x5000"], "(25000000, 25000000)"),
        ],
    )
    def test_square_generators_are_refused_before_allocating(self, capsys, argv, size):
        # the 5000 x 5000 generator alone would be 200 MB
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert f"{size} is over MAX_DENSE_ENTRIES" in err
        assert peak < 8 * 2**20

    def test_gen_gct_refuses_before_building_the_identity_images(self, capsys):
        # the n identity images alone, as Python ints, were 18 MiB at n = 200000
        import commutant.commutation_tensor  # noqa: F401

        run(capsys, "gen-gct", "65", "1")  # loads what the refusal path imports
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "gen-gct", "2", "200000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want = "error: permutation matrix: (200000, 200000) is over MAX_DENSE_ENTRIES=16777216\n"
        assert (code, out, err) == (3, "", want)
        assert peak < 2**20

    def test_gen_gct_refusal_precedence(self, capsys):
        # a bad --perm first, then the order, then the generators' budget
        want = "error: --perm must permute 1..3: not a permutation of 1..3: (1, 1, 2)\n"
        assert run(capsys, "gen-gct", "65", "3", "--perm", "1,1,2") == (2, "", want)
        want = "error: group-case tensor: order 65 is over numpy's 64 modes\n"
        assert run(capsys, "gen-gct", "65", "200000") == (3, "", want)

    def test_preserver_suite_over_numpys_order_exits_3(self, capsys):
        # 1^70 entries fit the budget, but numpy arrays have at most 64 modes
        code, out, err = run(
            capsys, "verify", "--suite", "preserver-suite", "--sizes", "70x1", "--trials", "1"
        )
        assert code == 3 and out == ""
        assert "order 70" in err and "Traceback" not in err


class TestPowersBound:
    def test_kmax_over_the_bound_exits_3_before_any_product(self, capsys, monkeypatch):
        from commutant import verify

        def refuse(*args):
            raise AssertionError("a power was built")

        monkeypatch.setattr(verify, "build_ctensor", refuse)
        monkeypatch.setattr(verify, "mul_2m", refuse)
        code, out, err = run(
            capsys, "verify", "--suite", "powers", "--sizes", "2x2,100000x2"
        )
        assert code == 3 and out == ""
        assert "kmax=100000" in err and f"MAX_POWER={verify.MAX_POWER}" in err

    @pytest.mark.parametrize("sizes", ["2x64", "3x8,2x64"])
    def test_product_work_over_the_bound_exits_3_before_any_product(
        self, capsys, monkeypatch, sizes
    ):
        # 3 * 64^6 multiply-adds: three 4096 x 4096 matrix products, and the
        # 64 x 64 transpose tensor alone is 128 MiB
        from commutant import verify

        def refuse(*args):
            raise AssertionError("a power was formed")

        monkeypatch.setattr(verify, "mul_2m", refuse)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify", "--suite", "powers", "--sizes", sizes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and peak < 8 * 2**20
        assert "kmax=2, n=64" in err and f"MAX_POWER_WORK={verify.MAX_POWER_WORK}" in err
        assert "Traceback" not in err

    def test_product_work_at_the_bound_runs(self, capsys, monkeypatch):
        from commutant import verify

        monkeypatch.setattr(verify, "MAX_POWER_WORK", 3 * 3**6)
        code, out, _ = run(capsys, "verify", "--suite", "powers", "--sizes", "2x3")
        assert code == 0 and out == "powers: PASS (2 checks)\n"
        code, out, err = run(capsys, "verify", "--suite", "powers", "--sizes", "3x3")
        assert code == 3 and out == "" and "kmax=3, n=3" in err

    def test_the_largest_sizes_in_use_fit_the_work_bound(self):
        # 64x2, 3x8 and 3x48 run; 3x48 forms three 2304 x 2304 products
        from commutant.verify import MAX_POWER_WORK

        assert all((k + 1) * n**6 <= MAX_POWER_WORK for k, n in [(64, 2), (3, 8), (3, 48)])

    def test_the_transpose_tensor_budget_is_checked_first(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "powers", "--sizes", "2x5000")
        assert code == 3 and out == ""
        assert err == (
            "error: transpose tensor: (25000000, 25000000) is over "
            "MAX_DENSE_ENTRIES=16777216\n"
        )

    def test_kmax_at_the_bound_runs(self, capsys):
        from commutant.verify import MAX_POWER

        code, out, _ = run(capsys, "verify", "--suite", "powers", "--sizes", f"{MAX_POWER}x2")
        assert code == 0 and out == f"powers: PASS ({MAX_POWER} checks)\n"


#: a tensor file cut off inside a key, as a partial write leaves it
TRUNCATED = json.dumps({"shape": [3, 3], "values": [1.0] * 9})[:20]
TRUNCATED_ERR = "error: invalid JSON: Unterminated string starting at: line 1 column 19 (char 18)\n"


class TestParseRefusalBytes:
    """The refusals the readers' parse stage makes before numpy loads keep
    the exit code and stderr bytes they had when numpy loaded first."""

    @pytest.mark.parametrize(
        "phi,tensor,want",
        [
            pytest.param(
                PHI22.replace("[2,1],[1,1]", "[NaN,1],[1,1]"),
                A22_JSON,
                "error: preserver matrix: values must be finite\n",
                id="nan-preserver",
            ),
            pytest.param(
                PHI22, "1 2\ninf 4\n", "error: matrix text: values must be finite\n", id="inf-text"
            ),
            pytest.param(
                PHI22.replace('"m":2', '"m":"x"'),
                A22_JSON,
                "error: preserver: fields ['m', 'n'] must be integers\n",
                id="non-integer-m",
            ),
            pytest.param(PHI22, TRUNCATED, TRUNCATED_ERR, id="truncated-tensor"),
        ],
    )
    def test_apply(self, capsys, tmp_path, phi, tensor, want):
        pfile, tfile = tmp_path / "phi.json", tmp_path / "t"
        pfile.write_text(phi, encoding="utf-8")
        tfile.write_text(tensor, encoding="utf-8")
        assert run(capsys, "apply", str(pfile), str(tfile)) == (2, "", want)

    def test_apply_missing_file(self, capsys, tmp_path):
        tfile, missing = tmp_path / "t.json", tmp_path / "nope.json"
        tfile.write_text(A22_JSON, encoding="utf-8")
        want = f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n"
        assert run(capsys, "apply", str(missing), str(tfile)) == (2, "", want)

    def test_gen_gct_bad_perm(self, capsys):
        want = "error: --perm must permute 1..3: not a permutation of 1..3: (1, 1, 2)\n"
        assert run(capsys, "gen-gct", "2", "3", "--perm", "1,1,2") == (2, "", want)

    def test_unfold_truncated_tensor(self, capsys, tmp_path):
        tfile = tmp_path / "t.json"
        tfile.write_text(TRUNCATED, encoding="utf-8")
        assert run(capsys, "unfold", str(tfile)) == (2, "", TRUNCATED_ERR)

    def test_verify_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMUTANT_SEED", "x")
        want = "error: COMMUTANT_SEED is not a non-negative integer: 'x'\n"
        assert run(capsys, "verify") == (2, "", want)


class TestApplyParsesBothFilesFirst:
    """``apply`` reads both files before it builds the preserver, so every
    refusal of the tensor file, its value count and its non-finite values
    among them, comes ahead of whatever building the preserver refuses:
    a singular matrix (exit 3) or ragged rows (numpy's message)."""

    SINGULAR = '{"m":1,"n":2,"tau":[1],"matrices":[[[0,0],[0,0]]]}'
    # ragged rows are refused by numpy's conversion, so in the build stage
    RAGGED = '{"m":1,"n":2,"tau":[1],"matrices":[[[1,0],[0]]]}'
    #: tensor files refused after their JSON parses, with their messages
    TENSOR_REFUSALS = [
        pytest.param(
            '{"shape":[2],"values":[1,2,3]}',
            "error: tensor: 3 values for shape (2,) (need 2)\n",
            id="count",
        ),
        pytest.param(
            '{"shape":[2],"values":[1,NaN]}', "error: tensor: values must be finite\n", id="nan"
        ),
        pytest.param(TRUNCATED, TRUNCATED_ERR, id="truncated"),
    ]

    @staticmethod
    def _apply(capsys, tmp_path, phi, tensor):
        pfile, tfile = tmp_path / "phi.json", tmp_path / "t.json"
        pfile.write_text(phi, encoding="utf-8")
        tfile.write_text(tensor, encoding="utf-8")
        return run(capsys, "apply", str(pfile), str(tfile))

    @pytest.mark.parametrize("tensor,err", TENSOR_REFUSALS)
    def test_a_singular_preserver_gives_way_to_the_tensor_parse_error(
        self, capsys, tmp_path, tensor, err
    ):
        alone = self._apply(capsys, tmp_path, self.SINGULAR, '{"shape":[2],"values":[1,2]}')
        assert alone == (3, "", "error: pivot 0.000e+00 below threshold 1e-10\n")
        assert self._apply(capsys, tmp_path, self.SINGULAR, tensor) == (2, "", err)

    @pytest.mark.parametrize("tensor,err", TENSOR_REFUSALS)
    def test_a_conversion_refusal_gives_way_to_the_tensor_parse_error(
        self, capsys, tmp_path, tensor, err
    ):
        code, out, alone = self._apply(capsys, tmp_path, self.RAGGED, '{"shape":[2],"values":[1,2]}')
        assert (code, out) == (2, "")
        assert alone.startswith("error: preserver matrix: not a regular array of numbers")
        assert self._apply(capsys, tmp_path, self.RAGGED, tensor) == (2, "", err)
