"""Fuzz the four JSON loaders and the CLI's external inputs.

Each document either loads to an object whose writer output reloads to the
same bytes, or is refused with a CommutantError.  `apply` and `unfold` on
such files exit 0, 2 or 3 and never raise.  On exit 0 their stdout is
strict JSON, with no NaN or Infinity token.  The documents are random JSON
(NaN/Infinity tokens, booleans, strings, nested lists, huge integers) and
valid documents with one field replaced, removed or nudged.  `verify` with
random `COMMUTANT_SEED`, `--seed` and `--sizes` text exits 0, 2, 3 or 4.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutant import CommutantError
from commutant import serialize as ser
from commutant.cli import main

LOADERS = {
    "tensor": (ser.tensor_from_json, ser.tensor_to_json),
    "commutation": (ser.commutation_from_json, ser.commutation_to_json),
    "gct": (ser.gct_from_json, ser.gct_to_json),
    "preserver": (ser.preserver_from_json, ser.preserver_to_json),
}
KEYS = {
    "tensor": ["shape", "values"],
    "commutation": ["p", "q", "perm"],
    "gct": ["m", "n", "generators"],
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


def _matrix(rng, rows, cols, shift=0.0):
    return (rng.uniform(-2, 2, (rows, cols)) + shift * np.eye(rows, cols)).tolist()


def _valid(kind: str, seed: int) -> dict:
    """A small valid document of ``kind``."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    if kind == "tensor":
        shape = rng.integers(1, 4, int(rng.integers(1, 5))).tolist()
        return {"shape": shape, "values": rng.uniform(-2, 2, int(np.prod(shape))).tolist()}
    if kind == "commutation":
        s = np.arange(m * n)
        return {"p": m, "q": n, "perm": ((s % n) * m + s // n + 1).tolist()}
    if kind == "gct":
        return {"m": m, "n": n, "generators": [_matrix(rng, n, n) for _ in range(m)]}
    return {
        "m": m,
        "n": n,
        "tau": (rng.permutation(m) + 1).tolist(),
        "matrices": [_matrix(rng, n, n, 5.0) for _ in range(m)],
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


def _check_loader(kind: str, text: str) -> None:
    load, dump = LOADERS[kind]
    try:
        obj = load(text)
    except CommutantError:
        return
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
@example(("commutation", '{"p":true,"q":2,"perm":[1,2]}'))
@example(("preserver", '{"m":true,"n":2,"tau":[1],"matrices":[[[1,0],[0,1]]]}'))
@example(("tensor", '{"shape":[2],"values":[-0.0,1]}'))
@example(("tensor", '{"shape":[1],"values":[%s]}' % HUGE_LITERAL))
@example(("gct", '{"m":1,"n":1,"generators":%s}' % ("[" * 5000 + "]" * 5000)))
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
