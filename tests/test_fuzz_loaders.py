"""Fuzz the two JSON loaders and the CLI's external inputs.

Each document either loads to an object whose writer output reloads to the
same bytes, or is refused with a CommutantError; a tensor it loads holds the
bits that ``json`` and ``DenseTensor.from_flat`` read from it.  `apply` and `unfold` on
such files exit 0, 2 or 3 and never raise.  On exit 0 their stdout is
strict JSON, with no NaN or Infinity token.  The documents are random JSON
(NaN/Infinity tokens, booleans, strings, nested lists, huge integers) and
valid documents with one field replaced, removed or nudged.  `verify` with
random `COMMUTANT_SEED`, `--seed` and `--sizes` text exits 0, 2, 3 or 4.
`gen-kmat`, `gen-ktensor` and `gen-gct`, which write from closed forms, write
the bytes of the numpy objects they stand for at random sizes, and their
random argument text exits 0, 2 or 3.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutant import (
    CommutantError,
    DenseTensor,
    Permutation,
    build_commutation,
    build_ctensor,
    gct_from_permutation,
)
from commutant import errors as errors_mod
from commutant import serialize as ser
from commutant.cli import main

LOADERS = {
    "tensor": (ser.tensor_from_json, ser.tensor_to_json),
    "preserver": (ser.preserver_from_json, ser.preserver_to_json),
}
KEYS = {
    "tensor": ["shape", "values"],
    "preserver": ["m", "n", "tau", "matrices"],
}

# a string that _render swaps for an integer literal too long for int()
HUGE = "\x00huge"
HUGE_LITERAL = "9" * 5000

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-4, 4),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 2**64, 10**400, -(10**400), HUGE]),
    st.floats(),  # NaN and +-inf included, written as NaN / Infinity tokens
    st.sampled_from([-0.0, 0.5, 1.0, 1e308, -1e308, 5e-324]),
    st.text(max_size=3),
)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=12,
)

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([1e308, -0.0, 5e-324])


def _render(doc) -> str:
    return json.dumps(doc).replace(json.dumps(HUGE), HUGE_LITERAL)


def _valid(kind: str, seed: int) -> dict:
    """A small valid document of ``kind``."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    if kind == "tensor":
        shape = rng.integers(1, 4, int(rng.integers(1, 5))).tolist()
        return {"shape": shape, "values": rng.uniform(-2, 2, int(np.prod(shape))).tolist()}
    return {
        "m": m,
        "n": n,
        "tau": (rng.permutation(m) + 1).tolist(),
        "matrices": [(rng.uniform(-2, 2, (n, n)) + 5 * np.eye(n)).tolist() for _ in range(m)],
    }


@st.composite
def _mutated(draw, doc: dict):
    """``doc`` with one field replaced or removed, one integer header field
    replaced by a boolean, or one entry somewhere inside it replaced by any
    JSON value or by a finite number."""
    doc = json.loads(json.dumps(doc))
    key = draw(st.sampled_from(sorted(doc)))
    header = sorted(k for k, v in doc.items() if type(v) is int)
    hows = ["replace", "remove", "nudge", "number"] + ["boolean"] * bool(header)
    how = draw(st.sampled_from(hows))
    if how == "boolean":
        doc[draw(st.sampled_from(header))] = draw(st.booleans())
    elif how == "replace":
        doc[key] = draw(VALUES)
    elif how == "remove":
        del doc[key]
    else:
        holder, slot = doc, key
        while isinstance(holder[slot], list) and holder[slot]:
            holder, slot = holder[slot], draw(st.integers(0, len(holder[slot]) - 1))
        holder[slot] = draw(VALUES if how == "nudge" else FLOATS)
    return doc


@st.composite
def documents(draw, kind: str) -> str:
    """Random JSON, a random object over the schema's keys, or a valid
    document, as it is or with one mutation."""
    which = draw(st.sampled_from(["any", "keys", "valid", "mutated"]))
    if which == "any":
        doc = draw(VALUES)
    elif which == "keys":
        doc = draw(st.fixed_dictionaries({k: VALUES for k in KEYS[kind]}))
    else:
        doc = _valid(kind, draw(st.integers(0, 2**32 - 1)))
        if which == "mutated":
            doc = draw(_mutated(doc))
    return _render(doc)


def _strict_json(text: str):
    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _tensor_oracle(text: str) -> np.ndarray:
    """An accepted tensor document read without serialize's reader: ``json``
    (a ``-0`` is -0.0, the format's rule) and ``DenseTensor.from_flat``."""
    data = json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t))
    return DenseTensor.from_flat(data["shape"], data["values"]).array


def _check_loader(kind: str, text: str) -> None:
    load, dump = LOADERS[kind]
    try:
        obj = load(text)
    except CommutantError:
        return
    if kind == "tensor":
        want = _tensor_oracle(text)
        assert obj.shape == want.shape and obj.array.tobytes() == want.tobytes()
    out = dump(obj)
    given = json.loads(text)
    # json loads true as a bool, which equals 1: a field written as an
    # integer was not a boolean in the input
    for key, value in _strict_json(out).items():
        assert not (type(value) is int and isinstance(given[key], bool)), key
    assert dump(load(out)) == out


TAU_OVERFLOW = '{"m":1,"n":2,"tau":[1e400],"matrices":[[[2,0],[0,3]]]}'
CASES = st.sampled_from(sorted(LOADERS)).flatmap(lambda k: st.tuples(st.just(k), documents(k)))


@given(CASES)
@settings(max_examples=400, deadline=None)
@example(("preserver", TAU_OVERFLOW))
@example(("preserver", '{"m":true,"n":2,"tau":[1],"matrices":[[[1,0],[0,1]]]}'))
@example(("tensor", '{"shape":[2],"values":[-0.0,1]}'))
@example(("tensor", '{"shape":[1],"values":[%s]}' % HUGE_LITERAL))
@example(("preserver", '{"m":1,"n":1,"tau":[1],"matrices":%s}' % ("[" * 5000 + "]" * 5000)))
def test_loaders_return_round_trips_or_refuse(case):
    kind, text = case
    _check_loader(kind, text)


def test_the_valid_documents_load():
    for kind, (load, dump) in LOADERS.items():
        for seed in range(20):
            out = dump(load(_render(_valid(kind, seed))))
            assert dump(load(out)) == out


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def apply_inputs(draw):
    """A preserver file and a tensor file, each valid and matching the
    other, or mutated, or random JSON; the tensor sometimes as matrix text."""
    phi = _valid("preserver", draw(st.integers(0, 2**32 - 1)))
    shape = [phi["n"]] * phi["m"]
    size = int(np.prod(shape))
    values = draw(st.lists(FLOATS, min_size=size, max_size=size))
    tensor = {"shape": shape, "values": values}
    phi_text = draw(
        st.one_of(st.just(_render(phi)), _mutated(phi).map(_render), documents("preserver"))
    )
    tensor_texts = [st.just(_render(tensor)), _mutated(tensor).map(_render), documents("tensor")]
    if len(shape) == 2:
        rows = np.reshape(values, shape, order="F")
        tensor_texts.append(st.just("".join(" ".join(map(repr, r)) + "\n" for r in rows)))
    return phi_text, draw(st.one_of(tensor_texts))


def _check_cli_run(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(files):
            paths.append(os.path.join(tmp, f"in{i}"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        code, out, err = _run(*argv, *paths)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        _strict_json(out)
    else:
        assert out == ""
    return code


@given(apply_inputs())
@settings(max_examples=200, deadline=None)
@example((TAU_OVERFLOW, '{"shape":[2],"values":[1,2]}'))
@example(('{"m":1,"n":1,"tau":[1],"matrices":[[[1e300]]]}', '{"shape":[1],"values":[1e300]}'))
def test_cli_apply_exits_0_2_or_3(files):
    _check_cli_run(["apply"], files)


@given(documents("tensor"))
@settings(max_examples=200, deadline=None)
def test_cli_unfold_exits_0_2_or_3(text):
    _check_cli_run(["unfold", "--format", "json"], [text])


def test_apply_with_tau_beyond_float_range_exits_2():
    # 1e400 loads as inf, which int() cannot convert
    code = _check_cli_run(["apply"], [TAU_OVERFLOW, '{"shape":[2],"values":[1,2]}'])
    assert code == 2


# junk without digits, so that no text reaches a size beyond the bound below
JUNK = st.text(alphabet="xX,-+ ._eE\t\u00a0abc", max_size=4)
SEEDS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["-0", "+3", " 7 ", "0x10", "1e3", "1_000", "07", "", "9" * 5000]),
    # any text an environment variable can hold: no NUL, no lone surrogate
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6),
)
# at most 9x9 on a cheap suite keeps each run to milliseconds; most chunks parse
SIDES = st.one_of(
    st.integers(1, 9).map(str),
    st.integers(-2, 9).map(str),
    st.sampled_from(["+2", " 3", "03", "2.0", "1e1"]),
    JUNK,
)
CHUNKS = st.tuples(SIDES, st.sampled_from(["x", "x", "X", "*", "xx", ""]), SIDES)
SIZES = st.lists(CHUNKS.map("".join), max_size=3).map(",".join) | JUNK
CHEAP = ["--suite", "kron-conjugation", "--trials", "1", "--format", "json"]


def _check_verify(argv, env_seed=None):
    """Exit code and, on exit 0 or 4, the strict-JSON report of one run."""
    with mock.patch.dict(os.environ):
        os.environ.pop("COMMUTANT_SEED", None)
        if env_seed is not None:
            os.environ["COMMUTANT_SEED"] = env_seed
        code, out, err = _run("verify", *argv)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == ""
        return code, None
    report = _strict_json(out)
    assert report["passed"] is (code == 0)
    return code, report


@given(SEEDS)
@settings(max_examples=150, deadline=None)
@example("-5")
def test_verify_seed_env_exits_0_or_2(seed):
    code, report = _check_verify([*CHEAP, "--sizes", "2x2"], env_seed=seed)
    assert code in (0, 2)
    assert code == 2 or report["seed"] == int(seed) >= 0


@given(SEEDS)
@settings(max_examples=150, deadline=None)
@example("-1")
def test_verify_seed_arg_exits_0_or_2(seed):
    code, report = _check_verify([*CHEAP, "--sizes", "2x2", f"--seed={seed}"])
    assert code in (0, 2)
    assert code == 2 or report["seed"] == int(seed) >= 0


@given(SIZES)
@settings(max_examples=200, deadline=None)
def test_verify_sizes_exit_0_2_3_or_4(sizes):
    _check_verify([*CHEAP, f"--sizes={sizes}"])


# The gen-* writers against the numpy objects they stand for.  Every size
# whose output fits the dense budget can be drawn; one example writes at
# most WRITE_CAP entries, so that its numpy oracle runs in milliseconds.
WRITE_CAP = 2**14


@st.composite
def _two_sides(draw, cap):
    """(a, b) with a * b <= cap, either of which can reach cap."""
    a = draw(st.integers(1, cap))
    b = draw(st.integers(1, cap // a))
    return (a, b) if draw(st.booleans()) else (b, a)


@given(_two_sides(math.isqrt(WRITE_CAP)))
@settings(max_examples=100, deadline=None)
@example((1, 1))
def test_gen_kmat_text_writes_the_dense_k(sides):
    p, q = sides
    want = ser.matrix_to_text(build_commutation(p, q).dense())
    assert _run("gen-kmat", str(p), str(q)) == (0, want, "")


@given(_two_sides(WRITE_CAP))
@settings(max_examples=100, deadline=None)
@example((64, 64))
@example((4096, 1))
@example((1, 4096))
def test_gen_kmat_json_writes_ks_index(sides):
    p, q = sides
    perm = (build_commutation(p, q).idx + 1).tolist()
    want = ser.canonical_json({"p": p, "q": q, "perm": perm})
    assert _run("gen-kmat", str(p), str(q), "--format", "json") == (0, want + "\n", "")


@given(_two_sides(math.isqrt(WRITE_CAP)))
@settings(max_examples=100, deadline=None)
@example((1, 64))
def test_gen_ktensor_writes_the_backing(sides):
    m, n = sides
    want = ser.tensor_to_json(build_ctensor(m, n).backing)
    assert _run("gen-ktensor", str(m), str(n)) == (0, want + "\n", "")


@st.composite
def _group_cases(draw):
    """(m, images, given): m copies of an n x n permutation matrix, at most
    WRITE_CAP entries in all, its images given by --perm or the default
    identity."""
    m = draw(st.integers(1, errors_mod.MAX_ORDER))
    n = draw(st.integers(1, math.isqrt(WRITE_CAP // m)))
    if draw(st.booleans()):
        return m, tuple(range(1, n + 1)), False
    return m, tuple(draw(st.permutations(range(1, n + 1)))), True


@given(_group_cases())
@settings(max_examples=100, deadline=None)
@example((1, (1,), False))
@example((3, (2, 3, 1), True))
def test_gen_gct_writes_the_group_case_tensor(case):
    m, images, given_perm = case
    argv = ["gen-gct", str(m), str(len(images))]
    if given_perm:
        argv += ["--perm", ",".join(map(str, images))]
    want = ser.gct_to_json(gct_from_permutation(Permutation(images), m))
    assert _run(*argv) == (0, want + "\n", "")


@pytest.mark.parametrize("p,q", [(1, 64), (64, 1)])
def test_gen_kmat_with_a_unit_side_writes_the_identity(p, q):
    assert _run("gen-kmat", str(p), str(q)) == (0, ser.matrix_to_text(np.eye(p * q)), "")


#: (length, sha256) of stdout at the budget's edge, as the numpy writers
#: wrote it; the dense oracles take seconds at this size
AT_THE_BUDGET = {
    ("gen-kmat", "64", "64"): (
        33554432,
        "949f1cf8b6b8dbc79b52cd91cc64bfbae0eda0257a494d9fd6e490121de08ad2",
    ),
    ("gen-ktensor", "64", "64"): (
        33554467,
        "aefb29299f69dfb091fb155d07ac7558b2420aa59c27a355c3d7ee978a82afaf",
    ),
}


@pytest.mark.parametrize("argv", sorted(AT_THE_BUDGET), ids=" ".join)
def test_gen_writes_the_pinned_bytes_at_the_budget(argv):
    code, out, err = _run(*argv)
    data = out.encode()
    assert (code, err) == (0, "")
    assert (len(data), hashlib.sha256(data).hexdigest()) == AT_THE_BUDGET[argv]


@pytest.mark.parametrize(
    "argv,err",
    [
        (["gen-kmat", "4097", "1"], "K_{4097,1}: (4097, 4097)"),
        (["gen-ktensor", "65", "65"], "transpose tensor: (4225, 4225)"),
        (
            ["gen-kmat", "100000", "100000", "--format", "json"],
            "K_{100000,100000} index: (10000000000,)",
        ),
    ],
    ids=["gen-kmat", "gen-ktensor", "gen-kmat-json"],
)
def test_gen_refuses_one_past_the_budget(argv, err):
    want = f"error: {err} is over MAX_DENSE_ENTRIES=16777216\n"
    assert _run(*argv) == (3, "", want)


# gen-* argument text: small sides, text int() reads or refuses, and sides
# over every budget, which each command refuses before it builds or writes
# anything; no side between them, so no example writes more than a few
# thousand entries
GEN_SIDES = st.one_of(
    st.integers(1, 9).map(str),
    st.sampled_from(["0", "-0", "-2", "+3", " 4", "07", "1e3", "2.0", "0x10", "", "9" * 5000]),
    st.sampled_from([2**24 + 1, 10**10, 10**30]).map(str),
    JUNK,
)


@st.composite
def gen_argvs(draw):
    command = draw(st.sampled_from(["gen-kmat", "gen-ktensor", "gen-gct"]))
    argv = [command, draw(GEN_SIDES), draw(GEN_SIDES)]
    if command == "gen-kmat" and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text"]))]
    if command == "gen-gct" and draw(st.booleans()):
        argv += ["--perm", ",".join(draw(st.lists(GEN_SIDES, max_size=4)))]
    return argv


def _matrix_text_rows(text: str) -> list[list[float]]:
    rows = [list(map(float, line.split())) for line in text.splitlines()]
    assert rows and all(len(row) == len(rows[0]) > 0 for row in rows), text
    return rows


@given(gen_argvs())
@settings(max_examples=300, deadline=None)
@example(["gen-kmat", "+3", "07"])
@example(["gen-kmat", "0", "2"])
@example(["gen-kmat", "1e3", "2", "--format", "json"])
@example(["gen-kmat", str(2**24 + 1), "1", "--format", "json"])
@example(["gen-ktensor", "-2", "3"])
@example(["gen-gct", "65", "2"])
@example(["gen-gct", "2", str(10**10)])
@example(["gen-gct", "2", "3", "--perm", "+2, 3,1"])
def test_gen_argument_text_exits_0_2_or_3(argv):
    code, out, err = _run(*argv)
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and err
    elif argv[0] == "gen-kmat" and "json" not in argv:
        rows = _matrix_text_rows(out)
        assert len(rows) == len(rows[0])
    else:
        assert out.endswith("\n")
        _strict_json(out)
