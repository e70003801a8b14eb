"""``cli`` workload: one ``commutant`` process per request, files made beforehand.

Chosen because this is what a CLI user waits for: interpreter start and
``import commutant`` are most of a default ``verify``, so import cost shows
here and caps every other gain.  The verify suites call the structured layer
thousands of times at sizes 2x2 to 3x3, where per-call overhead dominates, so
a vectorisation that adds a fixed cost per call shows here as a loss.

The mix: ``verify`` in its default, ``--suite/--sizes/--trials``,
``--format json`` and ``--inject-fault`` forms; ``gen-kmat`` text and json,
``gen-ktensor`` and ``gen-gct``, which write through ``serialize``; ``apply``
and ``unfold``, which read through it; and a fixed share of malformed inputs
scored against the documented exit codes (0 ok, 2 usage or parse error,
3 domain error, 4 verification failure).

Left out on purpose: ``verify --suite mode-perm-lemma --sizes 4x12``, which
tries to allocate 3.2 GiB and would exhaust a small machine.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from harness import Request
from oracles import close, k_dense, k_index, outer, well_conditioned

PASSES_PER_SECOND = 0.15
#: a request that runs longer than this is killed and counts as failed
REQUEST_TIMEOUT_S = 30

SUITES = (
    "vec-identity",
    "swap-law",
    "kron-conjugation",
    "powers",
    "group-axioms",
    "mode-perm-lemma",
    "preserver-suite",
)
PASS_LINE = re.compile(r"^(\S+): PASS \((\d+) checks\)$")


class SubprocessRunner:
    """Runs ``commutant`` as a child process, the way a shell user does.  The
    child inherits this process's environment, thread pins included."""

    def __init__(self, cwd: str):
        self.cwd = cwd

    def __call__(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "commutant.cli", *argv],
            capture_output=True,
            text=True,
            cwd=self.cwd,
            timeout=REQUEST_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr


class InProcessRunner:
    """Runs ``commutant.cli.main`` in this process with stdout and stderr
    captured, so that a tracer installed here sees its spans.  An exception
    escaping ``main`` becomes exit code 1 with the traceback on stderr, as
    the interpreter would report it."""

    def __init__(self):
        import commutant.cli  # noqa: F401  (looked up per call, so tracing applies)

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = sys.modules["commutant.cli"].main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()


def strict_json(text: str):
    """json.loads that refuses the NaN/Infinity tokens real JSON lacks."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def _tensor_json(arr: np.ndarray) -> str:
    values = arr.ravel(order="F").tolist()
    return json.dumps({"shape": list(arr.shape), "values": values})


def _preserver_json(mats, tau) -> str:
    return json.dumps(
        {
            "m": len(mats),
            "n": mats[0].shape[0],
            "tau": [int(t) for t in tau],
            "matrices": [m.tolist() for m in mats],
        }
    )


def _matrix_text(mat) -> str:
    return "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in mat)


def _read_matrix(text: str) -> np.ndarray:
    return np.array([[float(t) for t in line.split()] for line in text.splitlines() if line.strip()])


def _tensor_from(text: str) -> np.ndarray:
    data = strict_json(text)
    return np.array(data["values"], dtype=float).reshape(data["shape"], order="F")


# ------------------------------------------------------------------ oracles


def _passes(suites):
    """verify text output: one PASS line per suite, in order, exit 0."""

    def check(out):
        code, stdout, _ = out
        names = [PASS_LINE.match(line).group(1) for line in stdout.splitlines()]
        return code == 0 and names == list(suites)

    return check


def _json_passes(seed, suites):
    def check(out):
        code, stdout, _ = out
        report = strict_json(stdout)
        return (
            code == 0
            and report["seed"] == seed
            and report["passed"] is True
            and [s["name"] for s in report["suites"]] == list(suites)
            and all(s["checks"] > 0 and not s["failures"] for s in report["suites"])
        )

    return check


def _one_fault(suite):
    """--inject-fault: exit 4 and exactly one failed check, in ``suite``."""

    def check(out):
        code, stdout, _ = out
        return code == 4 and re.match(rf"^{suite}: FAIL \(1/\d+ checks failed\)$", stdout.splitlines()[0])

    return check


def _kmat_text(p, q):
    want = k_dense(p, q)
    return lambda out: out[0] == 0 and np.array_equal(_read_matrix(out[1]), want)


def _kmat_json(p, q):
    want = {"p": p, "q": q, "perm": (k_index(p, q) + 1).tolist()}
    return lambda out: out[0] == 0 and strict_json(out[1]) == want


def _ktensor(m, n):
    want = np.zeros((n, m, m, n))
    for i in range(n):
        want[i, :, :, i] = np.eye(m)
    return lambda out: out[0] == 0 and np.array_equal(_tensor_from(out[1]), want)


def _gct(m, perm):
    n = len(perm)
    gen = np.zeros((n, n))
    gen[np.array(perm) - 1, np.arange(n)] = 1.0  # P e_j = e_perm(j)
    want = {"m": m, "n": n, "generators": [gen.tolist()] * m}
    return lambda out: out[0] == 0 and strict_json(out[1]) == want


def _applied(want):
    return lambda out: out[0] == 0 and close(_tensor_from(out[1]), want, 1e-10)


def _unfolded(arr, as_json):
    side = int(round(arr.size**0.5))
    want = arr.reshape(side, side, order="F")

    def check(out):
        code, stdout, _ = out
        got = _tensor_from(stdout) if as_json else _read_matrix(stdout)
        return code == 0 and np.array_equal(got, want)

    return check


def _refused(*codes):
    """Malformed input: one of the documented exit codes and no result."""

    def check(out):
        code, stdout, stderr = out
        return code in codes and not stdout and "Traceback" not in stderr

    return check


def _prints_non_finite(out, exc):
    """Exit 0 with a nan or inf token in what should be JSON."""
    return exc is None and out[0] == 0 and re.search(r"\b(nan|inf)\b", out[1]) is not None


# ------------------------------------------------------------------ the mix


def build(rng, workdir: str, runner) -> list[Request]:
    """Write the input files into ``workdir`` and return one pass of requests."""

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    reqs = []

    def add(kind, argv, check, **defect):
        size = " ".join(a if not os.path.isabs(a) else os.path.basename(a) for a in argv)
        reqs.append(Request(kind, size, lambda: runner(argv), check, **defect))

    seeds = [int(s) for s in rng.integers(0, 10_000, size=4)]
    add("verify", ["verify"], _passes(SUITES))
    add("verify", ["verify", "--seed", str(seeds[0])], _passes(SUITES))
    add("verify", ["verify", "--trials", "10", "--seed", str(seeds[2])], _passes(SUITES))
    add(
        "verify",
        ["verify", "--suite", "powers", "--suite", "group-axioms", "--sizes", "2x2,2x3"],
        _passes(("powers", "group-axioms")),
    )
    add(
        "verify",
        ["verify", "--suite", "vec-identity", "--suite", "swap-law", "--sizes", "3x4,4x3",
         "--trials", "10", "--seed", str(seeds[1])],
        _passes(("vec-identity", "swap-law")),
    )
    add(
        "verify",
        ["verify", "--suite", "preserver-suite", "--sizes", "2x3,3x3", "--trials", "5",
         "--format", "json", "--seed", str(seeds[2])],
        _json_passes(seeds[2], ("preserver-suite",)),
    )
    add("verify", ["verify", "--format", "json", "--seed", str(seeds[3])], _json_passes(seeds[3], SUITES))
    add(
        "verify",
        ["verify", "--suite", "kron-conjugation", "--inject-fault", "--seed", str(seeds[0])],
        _one_fault("kron-conjugation"),
    )
    add(
        "verify",
        ["verify", "--suite", "swap-law", "--inject-fault", "--seed", str(seeds[1])],
        _one_fault("swap-law"),
    )

    add("gen-kmat", ["gen-kmat", "30", "30"], _kmat_text(30, 30))
    for p, q in ((7, 5), (12, 9), (3, 20)):
        add("gen-kmat", ["gen-kmat", str(p), str(q)], _kmat_text(p, q))
    for p, q in ((30, 30), (100, 40)):
        add("gen-kmat", ["gen-kmat", str(p), str(q), "--format", "json"], _kmat_json(p, q))
    for m, n in ((6, 5), (4, 8)):
        add("gen-ktensor", ["gen-ktensor", str(m), str(n)], _ktensor(m, n))
    for m, n in ((3, 4), (2, 6)):
        perm = [int(v) + 1 for v in rng.permutation(n)]
        add("gen-gct", ["gen-gct", str(m), str(n), "--perm", ",".join(map(str, perm))], _gct(m, perm))

    files = {}
    for m, n in ((3, 4), (4, 3), (2, 5)):
        mats = [well_conditioned(rng, n) for _ in range(m)]
        tau = rng.permutation(m) + 1
        alpha = [rng.standard_normal(n) for _ in range(m)]
        # factor k of the image of rank1(alpha) is mats[k] @ alpha[tau(k)]
        want = outer(mats[k] @ alpha[tau[k] - 1] for k in range(m))
        phi = write(f"phi{m}{n}.json", _preserver_json(mats, tau))
        x = outer(alpha)
        if m == 2:
            a = write(f"a{m}{n}.txt", _matrix_text(x))
        else:
            a = write(f"a{m}{n}.json", _tensor_json(x))
        files[m, n] = phi, a, mats, tau
        add("apply", ["apply", phi, a], _applied(want))
    for order, n, as_json in ((4, 3, False), (4, 5, True), (6, 3, True)):
        arr = rng.standard_normal((n,) * order)
        t = write(f"t{order}{n}.json", _tensor_json(arr))
        argv = ["unfold", t] + (["--format", "json"] if as_json else [])
        add("unfold", argv, _unfolded(arr, as_json))

    # malformed inputs, scored against the documented exit codes
    phi3, a3, mats3, tau3 = files[3, 4]
    phi2 = files[2, 5][0]
    bad = [m.copy() for m in mats3]
    bad[1][0, 0] = float("nan")
    nan_phi = write("phi_nan.json", _preserver_json(bad, tau3))
    add(
        "malformed",
        ["apply", nan_phi, a3],
        _refused(2, 3),
        defect="NaN preserver exits 0 and prints nan into JSON",
        seen=_prints_non_finite,
    )
    with_inf = outer([rng.standard_normal(5), rng.standard_normal(5)])
    with_inf[2, 0] = np.inf
    inf_a = write("a_inf.txt", _matrix_text(with_inf))
    add(
        "malformed",
        ["apply", phi2, inf_a],
        _refused(2, 3),
        defect="inf in matrix text exits 0 and prints inf/nan into JSON",
        seen=_prints_non_finite,
    )
    bad_m = json.loads(_preserver_json(mats3, tau3))
    bad_m["m"] = "x"
    bad_m_phi = write("phi_bad_m.json", json.dumps(bad_m))
    add(
        "malformed",
        ["apply", bad_m_phi, a3],
        _refused(2),
        defect='{"m":"x"} exits 1 with a ValueError traceback',
        seen=lambda out, exc: exc is None and out[0] == 1 and "Traceback" in out[2],
    )
    add(
        "malformed",
        ["verify", "--sizes", "0x2"],
        _refused(2),
        defect="verify --sizes 0x2 exits 3 where usage errors are documented as 2",
        seen=lambda out, exc: exc is None and out[0] == 3,
    )
    truncated = write("truncated.json", _tensor_json(np.ones((3, 3)))[:20])
    add("malformed", ["apply", phi3, truncated], _refused(2))
    add("malformed", ["gen-gct", "2", "3", "--perm", "1,1,2"], _refused(2))
    return reqs
