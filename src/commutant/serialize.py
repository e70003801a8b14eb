"""Byte-reproducible serialization.

Canonical JSON: keys in fixed schema order, no whitespace padding, floats
rendered with repr-faithful ``%.17g`` (so parsing returns the identical
float64), ints as ints.  Two equal objects always serialize to identical
bytes, which the CLI relies on for deterministic output.

Schemas
-------
* tensor:        ``{"shape": [...], "values": [...]}`` — values in canonical
  flat order (first mode fastest).
* commutation:   ``{"p": p, "q": q, "perm": [...]}`` — K_{p,q}'s 1-based row
  images, written from its row index as ``idx + 1``.
* gct:           ``{"m": m, "n": n, "generators": [[[...]]]}`` — matrices as
  lists of rows; tau = id only.
* cp form:       ``{"m": m, "n": n, "rank": r, "factors": [[[...]]]}``.
* preserver:     ``{"m": m, "n": n, "tau": [...], "matrices": [[[...]]]}`` —
  any operator, its generators as ``matrices``.
* matrix text:   one row per line, entries space-separated.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import CommutantError, DimensionError, DomainError
from .tensor import DenseTensor, TensorLike, _check_dense_budget, _tensor_entries, as_matrix

if TYPE_CHECKING:  # annotations only; each loader imports the layer it builds with
    from .commutation_matrix import CommutationMatrix
    from .commutation_tensor import Gct
    from .cp import CpForm


class ParseError(CommutantError):
    """Input text does not parse as the expected format."""


def format_float(v: float) -> str:
    """Shortest-but-exact decimal for a float64 (1.0 -> "1")."""
    return format(float(v), ".17g")


def canonical_json(obj: Any) -> str:
    """Serialize nested dict/list/scalar data with deterministic bytes.
    Dict keys keep their insertion order: schema builders fix it."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj: Any, parts: list[str]) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(k)))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise DomainError(f"cannot write the non-finite float {obj} as JSON")
        parts.append(format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _loads(text: str) -> Any:
    try:
        # format_float writes -0.0 as "-0", which int() would load as +0
        return json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t))
    except (ValueError, RecursionError) as exc:  # bad JSON, an int over 4300 digits, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc


def _ints(data: dict, keys: tuple[str, ...], what: str) -> tuple[int, ...]:
    """The fields ``keys``, each a JSON integer: not 2.0, "2" or true."""
    ints = tuple(data[k] for k in keys)
    if not all(map(_is_json_int, ints)):
        raise ParseError(f"{what}: fields {list(keys)} must be integers")
    return ints


def _is_json_int(v: Any) -> bool:
    """Whether a parsed JSON value is an integer; json loads true/false as
    bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_json_number(v: Any) -> bool:
    """Whether a parsed JSON value is a number: not a string, not a bool."""
    return _is_json_int(v) or isinstance(v, float)


def _finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ParseError(f"{what}: values must be finite")
    return arr


def _require(data: Any, keys: list[str], what: str) -> dict:
    if not isinstance(data, dict):
        raise ParseError(f"{what}: expected a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ParseError(f"{what}: missing keys {missing}")
    return data


# ---------------------------------------------------------------- tensors


def tensor_to_json(t: TensorLike) -> str:
    """A DenseTensor or array, read in place, in the tensor schema."""
    arr = _tensor_entries(t)
    return canonical_json(
        {"shape": list(arr.shape), "values": arr.ravel(order="F").tolist()}
    )


def tensor_from_json(text: str) -> DenseTensor:
    data = _require(_loads(text), ["shape", "values"], "tensor")
    shape = data["shape"]
    values = data["values"]
    if not isinstance(shape, list) or not all(_is_json_int(d) for d in shape):
        raise ParseError("tensor: shape must be a list of integers")
    if not isinstance(values, list) or not all(map(_is_json_number, values)):
        raise ParseError("tensor: values must be a list of numbers")
    try:
        t = DenseTensor.from_flat(shape, values)
    except CommutantError as exc:  # a value beyond float range; a bad shape
        raise ParseError(f"tensor: {exc}") from exc
    _finite(t.array, "tensor")
    return t


# ---------------------------------------------------------------- matrices


def matrix_to_text(mat) -> str:
    m = as_matrix(mat)
    return "\n".join(" ".join(format_float(v) for v in row) for row in m) + "\n"


def _commutation_to_text(k: CommutationMatrix) -> str:
    """``matrix_to_text(k.dense())`` written from K's index: row s is a 1 at
    column ``idx[s]`` among zeros, and format_float writes 0.0 as "0" and
    1.0 as "1".  Refused as ``k.dense()`` refuses an over-budget K."""
    size = k.p * k.q
    _check_dense_budget((size, size), f"K_{{{k.p},{k.q}}}")
    return "".join("0 " * s + "1" + " 0" * (size - 1 - s) + "\n" for s in k.idx.tolist())


def matrix_from_text(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(tok) for tok in line.split()])
        except ValueError as exc:
            raise ParseError(f"matrix text line {lineno}: {exc}") from exc
    if not rows:
        raise ParseError("matrix text: no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("matrix text: ragged rows")
    return _finite(as_matrix(rows), "matrix text")


def _matrix_lists(mat: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in mat]


def _matrix_from_lists(data: Any, what: str) -> np.ndarray:
    """A matrix from a JSON list of rows whose entries are JSON numbers;
    strings and booleans are refused, not converted."""
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(map(_is_json_number, row)) for row in data
    ):
        raise ParseError(f"{what}: expected a list of rows of numbers")
    try:
        arr = as_matrix(data)
    except CommutantError as exc:  # ragged rows, an int beyond float range, not 2-D
        raise ParseError(f"{what}: {exc}") from exc
    return _finite(arr, what)


# ------------------------------------------------- structured objects


def commutation_to_json(k: CommutationMatrix) -> str:
    return canonical_json({"p": k.p, "q": k.q, "perm": (k.idx + 1).tolist()})


def commutation_from_json(text: str) -> CommutationMatrix:
    from .commutation_matrix import build_commutation

    data = _require(_loads(text), ["p", "q", "perm"], "commutation matrix")
    p, q = _ints(data, ("p", "q"), "commutation matrix")
    perm = data["perm"]
    # the length test comes first, so a huge p*q never builds its index
    if min(p, q) >= 1 and isinstance(perm, list) and len(perm) == p * q:
        k = build_commutation(p, q)
        # true == 1 in Python, so the images must be JSON integers first
        if all(map(_is_json_int, perm)) and perm == (k.idx + 1).tolist():
            return k
    raise ParseError(f"commutation matrix: no K_{{{p},{q}}} has this perm")


def gct_to_json(g: Gct) -> str:
    """The GCT schema has no tau: an operator with tau != id is refused
    with DomainError and written by :func:`preserver_to_json` instead."""
    if not g.tau.is_identity():
        raise DomainError(f"gct: the schema has no tau, and this tau is {list(g.tau.images)}")
    return canonical_json(
        {"m": g.m, "n": g.n, "generators": [_matrix_lists(gen) for gen in g.generators]}
    )


def gct_from_json(text: str) -> Gct:
    from .commutation_tensor import build_gct

    data = _require(_loads(text), ["m", "n", "generators"], "gct")
    gens = data["generators"]
    if not isinstance(gens, list):
        raise ParseError("gct: generators must be a list")
    mats = [_matrix_from_lists(g, "gct generator") for g in gens]
    try:
        g = build_gct(mats)
    except CommutantError as exc:
        raise ParseError(f"gct: {exc}") from exc
    if (g.m, g.n) != _ints(data, ("m", "n"), "gct"):
        raise ParseError("gct: m/n fields disagree with the generators")
    return g


def cp_to_json(cp: CpForm) -> str:
    if len(set(cp.extents)) != 1:
        raise DimensionError("only cubical CP forms serialize to this schema")
    return canonical_json(
        {
            "m": cp.m,
            "n": cp.extents[0],
            "rank": cp.rank,
            "factors": [_matrix_lists(f) for f in cp.factors],
        }
    )


def cp_from_json(text: str) -> CpForm:
    from .cp import cp_form

    data = _require(_loads(text), ["m", "n", "rank", "factors"], "cp form")
    factors = data["factors"]
    if not isinstance(factors, list):
        raise ParseError("cp form: factors must be a list")
    mats = [_matrix_from_lists(f, "cp factor") for f in factors]
    try:
        cp = cp_form(mats)
    except CommutantError as exc:
        raise ParseError(f"cp form: {exc}") from exc
    m, n, rank = _ints(data, ("m", "n", "rank"), "cp form")
    if (cp.m, cp.rank) != (m, rank) or any(e != n for e in cp.extents):
        raise ParseError("cp form: m/n/rank fields disagree with the factors")
    return cp


def preserver_to_json(phi: Gct) -> str:
    return canonical_json(
        {
            "m": phi.m,
            "n": phi.n,
            "tau": list(phi.tau.images),
            "matrices": [_matrix_lists(m) for m in phi.generators],
        }
    )


def preserver_from_json(text: str) -> Gct:
    from .permutation import Permutation
    from .preserver import rank_preserver

    data = _require(_loads(text), ["m", "n", "tau", "matrices"], "preserver")
    mats_data = data["matrices"]
    if not isinstance(mats_data, list):
        raise ParseError("preserver: matrices must be a list")
    mats = [_matrix_from_lists(m, "preserver matrix") for m in mats_data]
    images = data["tau"]
    if not isinstance(images, list) or not all(map(_is_json_int, images)):
        raise ParseError("preserver: tau must be a list of integers")
    try:
        tau = Permutation(images)
    except CommutantError as exc:
        raise ParseError(f"preserver: bad tau: {exc}") from exc
    m, n = _ints(data, ("m", "n"), "preserver")
    if len(mats) != m or (mats and mats[0].shape[0] != n):
        raise ParseError("preserver: m/n fields disagree with the matrices")
    return rank_preserver(mats, tau)

