import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutant import (
    CommutantError,
    DenseTensor,
    DimensionError,
    DomainError,
    Permutation,
    build_commutation,
    build_gct,
    build_mode_perm_tensor,
    rank_preserver,
)
from commutant import cli
from commutant import errors as errors_mod
from commutant import serialize as ser
from commutant import tensor as tensor_mod


class TestCanonicalJson:
    def test_fixed_bytes(self):
        payload = {"shape": [2, 2], "values": [1.0, 0.5, -3.0, 2.0]}
        assert ser.canonical_json(payload) == '{"shape":[2,2],"values":[1,0.5,-3,2]}'

    def test_float_formatting(self):
        assert ser.format_float(1.0) == "1"
        assert ser.format_float(0.0) == "0"
        assert ser.format_float(-2.5) == "-2.5"
        assert ser.format_float(1e-05) == "1.0000000000000001e-05"

    def test_floats_roundtrip_exactly(self):
        rng = np.random.default_rng(200)
        for v in rng.standard_normal(200):
            assert float(ser.format_float(float(v))) == float(v)
        third = 1.0 / 3.0
        assert float(ser.format_float(third)) == third

    def test_scalar_kinds(self):
        out = ser.canonical_json(
            {"i": np.int64(3), "f": np.float64(0.5), "b": True, "s": "x", "n": None}
        )
        assert out == '{"i":3,"f":0.5,"b":true,"s":"x","n":null}'

    def test_same_object_same_bytes(self):
        t = DenseTensor(np.random.default_rng(1).standard_normal((2, 3)))
        assert ser.tensor_to_json(t) == ser.tensor_to_json(t)


class TestTensorJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(201)
        t = DenseTensor(rng.standard_normal((2, 3, 2)))
        back = ser.tensor_from_json(ser.tensor_to_json(t))
        assert back.shape == t.shape
        assert np.array_equal(back.array, t.array)

    def test_values_in_canonical_order(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        assert ser.tensor_to_json(t) == '{"shape":[2,2],"values":[1,3,2,4]}'

    @pytest.mark.parametrize("layout", ["c", "f", "strided"])
    def test_an_array_writes_as_its_dense_tensor(self, layout):
        x = np.random.default_rng(202).standard_normal((3, 4, 2))
        x = {"c": x, "f": np.asfortranarray(x), "strided": x[::2, ::-1]}[layout]
        assert ser.tensor_to_json(x) == ser.tensor_to_json(DenseTensor(x))

    @pytest.mark.parametrize("bad", [np.float64(1.0), np.ones((2, 0)), [["a"]]])
    def test_an_array_is_refused_as_its_dense_tensor(self, bad):
        with pytest.raises(CommutantError) as want:
            DenseTensor(bad)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            ser.tensor_to_json(bad)

    def test_parse_errors(self):
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json("not json")
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json('{"shape":[2,2]}')
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json('{"shape":[2,2],"values":[1,2,3]}')
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json('{"shape":[2,"x"],"values":[1,2]}')
        for bad in ("NaN", "Infinity", "-Infinity", "1e999", '"nan"'):
            with pytest.raises(ser.ParseError):
                ser.tensor_from_json('{"shape":[2],"values":[1,%s]}' % bad)

    @pytest.mark.parametrize(
        "text",
        [
            '{"shape":[2],"values":["1.5","2"]}',
            '{"shape":[2],"values":[true,2]}',
            '{"shape":[2],"values":[null,2]}',
            '{"shape":[2],"values":[[1],2]}',
            '{"shape":[true,2],"values":[1,2]}',
            '{"shape":[2,false],"values":[1,2]}',
            pytest.param('{"shape":[1],"values":[1%s]}' % ("0" * 400), id="int-beyond-float"),
        ],
    )
    def test_values_and_extents_must_be_json_numbers(self, text):
        with pytest.raises(ser.ParseError):
            ser.tensor_from_json(text)

    def test_json_ints_and_floats_load(self):
        t = ser.tensor_from_json('{"shape":[1,2],"values":[1,2.5]}')
        assert t.shape == (1, 2) and t.values.tolist() == [1.0, 2.5]

    @pytest.mark.parametrize(
        "shape,values",
        [
            ([2, 3, 2], list(range(12))),
            ([3], [-0.0, 2**53 + 1, 2**64 + 1]),
            ([1, 2, 1], [5e-324, -1e308]),
        ],
    )
    def test_loads_what_from_flat_builds(self, shape, values):
        text = json.dumps({"shape": shape, "values": values})
        got, want = ser.tensor_from_json(text), DenseTensor.from_flat(shape, values)
        assert got.shape == want.shape and got.array.flags.f_contiguous
        assert got.array.tobytes(order="F") == want.array.tobytes(order="F")

    @pytest.mark.parametrize(
        "size", [1, ser._PART - 1, ser._PART, ser._PART + 1, 2 * ser._PART + 3]
    )
    def test_the_parts_join_to_canonical_json(self, size):
        x = np.random.default_rng(203).standard_normal(size)
        want = ser.canonical_json({"shape": [size], "values": x.tolist()})
        assert ser.tensor_to_json(x) == want
        assert "".join(ser._tensor_json((size,), x.tolist(), "\n")) == want + "\n"

    def test_the_first_non_finite_value_is_refused_as_canonical_json_refuses(self):
        # nan comes before inf in the first-mode-fastest order
        x = np.array([[1.0, np.inf], [np.nan, 2.0]])
        with pytest.raises(DomainError) as want:
            ser.canonical_json({"shape": [2, 2], "values": x.ravel(order="F").tolist()})
        assert str(want.value) == "cannot write the non-finite float nan as JSON"
        with pytest.raises(DomainError, match=re.escape(str(want.value))):
            ser.tensor_to_json(x)


#: matrix entries: any float, and the edges of the float64 range
MATRIX_ENTRIES = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072e-308, 2.2250738585072014e-308, 1e308, -1e308]
)


@st.composite
def _matrices(draw):
    """Matrices of 0 to 4 rows and columns of MATRIX_ENTRIES."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cells = draw(st.lists(MATRIX_ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=float).reshape(rows, cols)


class TestMatrixText:
    def test_emit(self):
        mat = np.array([[1.0, 0.0], [0.5, -2.0]])
        assert ser.matrix_to_text(mat) == "1 0\n0.5 -2\n"

    def test_roundtrip(self):
        rng = np.random.default_rng(202)
        mat = rng.standard_normal((3, 4))
        back = ser.matrix_from_text(ser.matrix_to_text(mat))
        assert np.array_equal(back, mat)

    def test_blank_lines_ignored(self):
        back = ser.matrix_from_text("1 2\n\n3 4\n")
        assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_errors(self):
        with pytest.raises(ser.ParseError):
            ser.matrix_from_text("")
        with pytest.raises(ser.ParseError):
            ser.matrix_from_text("1 2\n3\n")
        with pytest.raises(ser.ParseError):
            ser.matrix_from_text("1 x\n")
        for bad in ("nan", "inf", "-inf", "1e999"):
            with pytest.raises(ser.ParseError):
                ser.matrix_from_text(f"1 2\n{bad} 4\n")

    @pytest.mark.parametrize(
        "mat,message",
        [
            ([[1, np.nan], [np.inf, 2]], "cannot write the non-finite float inf as matrix text"),
            ([[1, np.nan], [3, 2]], "cannot write the non-finite float nan as matrix text"),
            (np.zeros((0, 3)), "cannot write the empty (0, 3) matrix as matrix text"),
            (np.zeros((3, 0)), "cannot write the empty (3, 0) matrix as matrix text"),
        ],
        ids=["inf-first", "nan", "0x3", "3x0"],
    )
    def test_refuses_what_its_reader_refuses(self, mat, message):
        # the first non-finite entry in the column-by-column order is named
        with pytest.raises(DomainError, match=re.escape(message)):
            ser.matrix_to_text(mat)

    @given(_matrices())
    @settings(max_examples=300, deadline=None)
    @example(np.array([[-0.0, 5e-324], [1e308, -2.2250738585072e-308]]))
    def test_what_it_writes_reads_back_bit_for_bit(self, mat):
        try:
            text = ser.matrix_to_text(mat)
        except DomainError:
            assert mat.size == 0 or not np.isfinite(mat).all()
            return
        back = ser.matrix_from_text(text)
        assert back.shape == mat.shape and back.tobytes() == mat.tobytes()


class TestDenseBudget:
    """One dense budget, in ``errors``: the builders in ``tensor`` and the
    closed-form writers here, which never load numpy, refuse with it."""

    def test_the_constants_live_in_errors(self):
        assert errors_mod.MAX_DENSE_ENTRIES == 2**24 and errors_mod.MAX_ORDER == 64
        assert tensor_mod.MAX_DENSE_ENTRIES is errors_mod.MAX_DENSE_ENTRIES
        assert not hasattr(ser, "MAX_DENSE_ENTRIES") and not hasattr(ser, "MAX_ORDER")

    @pytest.mark.parametrize(
        "shape,refusal",
        [
            ((2**24 - 1,), None),
            ((2**24,), None),
            ((2**24 + 1,), (DomainError, "x: (16777217,) is over MAX_DENSE_ENTRIES=16777216")),
            ((4095, 4096), None),
            ((4096, 4096), None),
            ((4096, 4097), (DomainError, "x: (4096, 4097) is over MAX_DENSE_ENTRIES=16777216")),
            ((1,) * 64, None),
            ((1,) * 65, (DimensionError, "x: order 65 is over numpy's 64 modes")),
            ((2,) * 65, (DimensionError, "x: order 65 is over numpy's 64 modes")),
            ((10**10,), (DomainError, "x: (10000000000,) is over MAX_DENSE_ENTRIES=16777216")),
        ],
        ids=[f"shape{i}" for i in range(10)],
    )
    def test_the_budget_refuses_over_it(self, shape, refusal):
        # under the budget, at it, one over it, and over numpy's order
        try:
            errors_mod._check_dense_budget(shape, "x")
            outcome = None
        except CommutantError as exc:
            outcome = (type(exc), str(exc))
        assert outcome == refusal

    @pytest.mark.parametrize(
        "order,refusal",
        [
            (1, None),
            (64, None),
            (65, "x: order 65 is over numpy's 64 modes"),
            (1000, "x: order 1000 is over numpy's 64 modes"),
        ],
        ids=["1", "64", "65", "1000"],
    )
    def test_the_order_check_refuses_over_numpys_modes(self, order, refusal):
        try:
            errors_mod._check_order(order, "x")
            outcome = None
        except DimensionError as exc:
            outcome = str(exc)
        assert outcome == refusal

    def test_a_patched_budget_governs_the_writer_and_the_builder(self, monkeypatch, capsys):
        # K_{2,4} is 8 x 8 = 64 entries, over a budget of 36
        monkeypatch.setattr(errors_mod, "MAX_DENSE_ENTRIES", 36)
        assert cli.main(["gen-kmat", "2", "4"]) == 3
        out, err = capsys.readouterr()
        want = "K_{2,4}: (8, 8) is over MAX_DENSE_ENTRIES=36"
        assert out == "" and err == f"error: {want}\n"
        with pytest.raises(DomainError) as exc:
            build_commutation(2, 4).dense()
        assert str(exc.value) == want

    def test_a_k_index_over_the_budget_is_refused_before_it_is_built(self):
        with pytest.raises(DomainError) as err:
            ser.commutation_to_json(build_commutation(100000, 100000))
        assert str(err.value) == (
            "K_{100000,100000} index: (10000000000,) is over MAX_DENSE_ENTRIES=16777216"
        )


class TestStructuredObjects:
    def test_commutation_json(self):
        # K and GCT documents are written, never read
        k = build_commutation(3, 2)
        text = ser.commutation_to_json(k)
        assert text == '{"p":3,"q":2,"perm":[1,4,2,5,3,6]}'
        assert json.loads(text)["perm"] == (k.idx + 1).tolist()

    def test_gct_json(self):
        g = build_gct([np.array([[0.0, 1.0], [1.0, 0.5]]), np.eye(2)])
        assert ser.gct_to_json(g) == '{"m":2,"n":2,"generators":[[[0,1],[1,0.5]],[[1,0],[0,1]]]}'

    def test_gct_schema_refuses_a_mode_permutation(self):
        # the GCT schema has no tau, so an operator with tau != id is not
        # written there with its tau dropped; the preserver schema holds it
        op = build_mode_perm_tensor(Permutation([2, 3, 1]), 2)
        with pytest.raises(CommutantError, match="tau"):
            ser.gct_to_json(op)
        back = ser.preserver_from_json(ser.preserver_to_json(op))
        assert back.tau == op.tau == Permutation([3, 1, 2])
        assert all(np.array_equal(g, np.eye(2)) for g in back.generators)
        same = rank_preserver(op.generators, Permutation.identity(3))
        assert ser.gct_to_json(same) == ser.gct_to_json(build_gct([np.eye(2)] * 3))

    def test_preserver_inconsistent_header(self):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        for old, new in (('"m":2', '"m":3'), ('"n":2', '"n":3')):
            text = ser.preserver_to_json(phi).replace(old, new)
            with pytest.raises(ser.ParseError, match="m/n fields disagree with the matrices"):
                ser.preserver_from_json(text)

    @pytest.mark.parametrize(
        "data,message",
        [
            ([1, 2], "preserver: expected a JSON object"),
            ({"m": 1, "n": 1, "tau": [1]}, r"preserver: missing keys \['matrices'\]"),
            ({"n": 1, "matrices": [[[1]]]}, r"preserver: missing keys \['m', 'tau'\]"),
        ],
        ids=["not-an-object", "one-key-missing", "two-keys-missing"],
    )
    def test_preserver_requires_an_object_with_its_keys(self, data, message):
        with pytest.raises(ser.ParseError, match=message):
            ser.preserver_from_json(json.dumps(data))

    @pytest.mark.parametrize("bad", ["x", None, [2], float("inf")])
    def test_non_integer_header_fields(self, bad):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        text = ser.preserver_to_json(phi)
        for key in ("m", "n"):
            data = json.loads(text)
            data[key] = bad
            with pytest.raises(ser.ParseError):
                ser.preserver_from_json(json.dumps(data))

    def test_non_integral_header_fields(self):
        # a header field is a JSON integer: 2.5, "2" and an integral 2.0 are refused
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        text = ser.preserver_to_json(phi)
        for key in ("m", "n"):
            for bad in (2.5, "2", 2.0):
                data = json.loads(text)
                data[key] = bad
                with pytest.raises(ser.ParseError, match=r"fields \['m', 'n'\] must be integers"):
                    ser.preserver_from_json(json.dumps(data))
        ser.preserver_from_json(text)

    @pytest.mark.parametrize(
        "parse,text",
        [
            (ser.preserver_from_json, '{"m":true,"n":2,"tau":[1],"matrices":[[[1,0],[0,1]]]}'),
            (ser.preserver_from_json, '{"m":1,"n":true,"tau":[1],"matrices":[[[3]]]}'),
        ],
    )
    def test_boolean_header_fields(self, parse, text):
        # json loads true as a bool, which equals 1, and 1.0 as a float; 1 loads,
        # true and 1.0 do not
        parse(text.replace("true", "1"))
        for one in ("true", "1.0"):
            with pytest.raises(ser.ParseError, match="must be integers"):
                parse(text.replace("true", one))

    def test_non_finite_matrix_entries(self):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        text = ser.preserver_to_json(phi)
        for bad in ("NaN", "Infinity", "-Infinity", "1e999"):
            with pytest.raises(ser.ParseError, match="preserver matrix: values must be finite"):
                ser.preserver_from_json(text.replace("[[1,0]", f"[[{bad},0]", 1))

    @pytest.mark.parametrize(
        "bad",
        [
            '"1.5"',
            "true",
            "false",
            "null",
            "[1]",
            pytest.param("1" + "0" * 400, id="int-beyond-float"),
        ],
    )
    def test_matrix_entries_must_be_json_numbers(self, bad):
        phi = rank_preserver([np.eye(2), np.eye(2)], Permutation([2, 1]))
        text = ser.preserver_to_json(phi)
        with pytest.raises(ser.ParseError):
            ser.preserver_from_json(text.replace("[[1,0]", f"[[{bad},0]", 1))

    def test_preserver_strings_and_booleans_do_not_load(self):
        text = '{"m":1,"n":2,"tau":[1],"matrices":[%s]}'
        with pytest.raises(ser.ParseError, match="expected a list of rows of numbers"):
            ser.preserver_from_json(text % '[["1.5",true],[false,"2"]]')
        phi = ser.preserver_from_json(text % "[[1.5,1],[0,2]]")
        assert np.array_equal(phi.generators[0], [[1.5, 1.0], [0.0, 2.0]])

    @pytest.mark.parametrize(
        "bad", ["3", '["1", "0"]', "[[1, 0], 2]", "[[[1]]]", "[[1, 2], [3]]"]
    )
    def test_matrix_shape_errors(self, bad):
        with pytest.raises(ser.ParseError):
            ser.preserver_from_json('{"m":1,"n":2,"tau":[1],"matrices":[%s]}' % bad)

    def test_preserver_roundtrip(self):
        rng = np.random.default_rng(204)
        mats = [rng.standard_normal((2, 2)) + 2 * np.eye(2) for _ in range(3)]
        phi = rank_preserver(mats, Permutation([3, 1, 2]))
        back = ser.preserver_from_json(ser.preserver_to_json(phi))
        assert back.tau.images == (3, 1, 2)
        for a, b in zip(back.generators, phi.generators):
            assert np.array_equal(a, b)

    def test_preserver_rejects_boolean_tau(self):
        text = '{"m":2,"n":2,"tau":[true,2],"matrices":[[[1,0],[0,1]],[[1,0],[0,1]]]}'
        with pytest.raises(ser.ParseError):
            ser.preserver_from_json(text)

    @pytest.mark.parametrize("tau", ["[2.0,1.0]", "[2,1.0]", '"21"', "2", "null"])
    def test_preserver_tau_follows_the_json_integer_rule(self, tau):
        # a float image, even an integral one, is refused as 2.0 in m or n is
        text = '{"m":2,"n":2,"tau":%s,"matrices":[[[1,0],[0,1]],[[1,0],[0,1]]]}'
        assert ser.preserver_from_json(text % "[2,1]").tau == Permutation([2, 1])
        with pytest.raises(ser.ParseError, match="preserver: tau must be a list of integers"):
            ser.preserver_from_json(text % tau)

    def test_preserver_rejects_singular(self):
        from commutant import SingularMatrixError

        text = (
            '{"m":1,"n":2,"tau":[1],"matrices":[[[1,2],[2,4]]]}'
        )
        with pytest.raises(SingularMatrixError):
            ser.preserver_from_json(text)
