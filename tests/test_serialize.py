import json
import re

import numpy as np
import pytest

from finetti.cpmaps import (
    HEISENBERG,
    SCHRODINGER,
    choi_from_function,
    depolarizing_map,
    maps_close,
)
from finetti.classical import encode_seq
from finetti.cstar import Algebra, make_state, state_distance
from finetti.definetti import Mixture, check_cone, default_atoms
from finetti.fixtures import (
    QUBIT,
    circuit1_sequence,
    coin_grid,
    coin_sequence,
    measure_prepare_cone,
    qubit_state,
)
from finetti.exchange import check_exchangeable, iid_extend
from finetti.serialize import (
    SchemaError,
    decode_atoms,
    decode_choi,
    decode_complex,
    decode_cone,
    decode_matrix,
    decode_mixture,
    decode_state,
    detect_sequence,
    dump_document,
    encode_atoms,
    encode_choi,
    encode_complex,
    encode_cone,
    encode_exch_seq,
    encode_matrix,
    encode_mixture,
    encode_report,
    encode_state,
    load_document,
)


def json_round(doc):
    """Force the document through actual JSON text."""
    return json.loads(json.dumps(doc))


def test_complex_encoding():
    assert encode_complex(1.5 - 2j) == [1.5, -2.0]
    assert decode_complex([1.5, -2.0]) == 1.5 - 2j
    assert decode_complex(3) == 3 + 0j  # bare reals are accepted
    assert decode_complex(0.25) == 0.25 + 0j
    with pytest.raises(SchemaError):
        decode_complex("nope")
    with pytest.raises(SchemaError):
        decode_complex([1.0])


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = decode_matrix(json_round(encode_matrix(m)))
    assert np.array_equal(back, m)  # repr round-trip is exact for doubles
    with pytest.raises(SchemaError, match="row 1"):
        decode_matrix([[1, 2], [3]])
    with pytest.raises(SchemaError):
        decode_matrix([])


def test_matrix_decodes_real_rows_and_mixed_number_kinds():
    assert np.array_equal(decode_matrix([[1, 0.5], [0.5, 2]]), np.array([[1, 0.5], [0.5, 2]]))
    assert np.array_equal(decode_matrix([[[1, 0], [0, -0.5]]]), np.array([[1, -0.5j]]))
    mixed = decode_matrix([[1, [0.5, 1]], [[0.5, -1], 2]])  # bare and paired entries
    assert np.array_equal(mixed, np.array([[1, 0.5 + 1j], [0.5 - 1j, 2]]))


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1.5", "expected number"),
        (["1.5", 0.0], "expected number"),
        (None, "expected number"),
        ([0.5, 0.0, 0.0], "expected number"),
        ([float("nan"), 0.0], "non-finite"),
        (float("inf"), "non-finite"),
        (10**400, "non-finite"),
        (True, "expected number"),
        ([0.5, False], "expected number"),
    ],
    ids=[
        "numeric-string",
        "numeric-string-in-pair",
        "null",
        "three-parts",
        "nan-pair",
        "inf",
        "beyond-float-range",
        "bool",
        "bool-in-pair",
    ],
)
def test_matrix_entry_errors_name_the_entry(entry, message):
    rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    rows[1][0] = entry
    with pytest.raises(SchemaError, match=rf"^m\[1\]\[0\]: {message}"):
        decode_matrix(json_round(rows), "m")
    with pytest.raises(SchemaError, match=r"^m: row 1 has length 1, expected 2"):
        decode_matrix([[[1.0, 0.0], [0.0, 0.0]], [entry]], "m")


@pytest.mark.parametrize("pairs", [False, True], ids=["bare", "paired"])
def test_a_lone_boolean_is_named(pairs):
    # The boolean is the only entry that reads 0 or 1, so numpy converts the
    # matrix and only the boolean check can refuse it.
    x, b = ([0.5, 0.25], [0.5, True]) if pairs else (0.5, True)
    rows = [[x] * 3 for _ in range(3)]
    rows[2][1] = b
    with pytest.raises(SchemaError, match=r"^m\[2\]\[1\]: expected number"):
        decode_matrix(json_round(rows), "m")


@pytest.mark.parametrize("pairs", [False, True], ids=["bare", "paired"])
def test_a_boolean_among_zeros_and_ones_is_named(pairs):
    # Every entry of a diagonal matrix reads 0 or 1 except its diagonal, so
    # each one is a candidate; only the boolean among them is refused.
    zero, one = ([0, 0], [1, 0.0]) if pairs else (0, 1)
    rows = [[one if i == j else zero for j in range(4)] for i in range(4)]
    assert np.array_equal(decode_matrix(json_round(rows), "m"), np.eye(4))
    rows[2][2] = [True, 0.0] if pairs else True
    with pytest.raises(SchemaError, match=r"^m\[2\]\[2\]: expected number"):
        decode_matrix(json_round(rows), "m")


def test_state_round_trip():
    s = make_state(QUBIT, (np.array([[0.5, 0.25j], [-0.25j, 0.5]]),))
    back = decode_state(json_round(encode_state(s)))
    assert back.algebra == QUBIT
    assert state_distance(back, s) == 0.0
    with pytest.raises(SchemaError, match="dens"):
        decode_state({"blocks": [2]})
    with pytest.raises(SchemaError):
        decode_state({"blocks": [2, 0], "dens": []})


def test_choi_round_trip():
    f = depolarizing_map(2, direction=SCHRODINGER)
    back = decode_choi(json_round(encode_choi(f)))
    assert maps_close(back, f, tol=0.0)
    doc = encode_choi(f)
    doc["direction"] = "Q"
    with pytest.raises(SchemaError, match="direction"):
        decode_choi(doc)
    doc = encode_choi(f)
    doc["choi"] = [[0.0]]  # wrong side length
    with pytest.raises(SchemaError):
        decode_choi(doc)


def test_decoded_maps_must_be_channels():
    # The transpose is positive and trace preserving, not completely positive.
    transpose = choi_from_function(QUBIT, QUBIT, lambda x: x.T, SCHRODINGER)
    doubled = choi_from_function(QUBIT, QUBIT, lambda x: 2 * x, SCHRODINGER)
    halved = choi_from_function(QUBIT, QUBIT, lambda x: x / 2, HEISENBERG)
    for f, message in [
        (transpose, "not completely positive"),
        (doubled, "not trace preserving"),
        (halved, "not unital"),
    ]:
        with pytest.raises(SchemaError, match=rf"^map: map is {message}"):
            decode_choi(json_round(encode_choi(f)))
    doc = encode_cone(measure_prepare_cone(2))
    doc["channels"][1]["choi"] = encode_matrix(2 * measure_prepare_cone(2).channels[1].choi)
    with pytest.raises(SchemaError, match=r"^cone\.channels\[1\]: map is not trace preserving"):
        decode_cone(json_round(doc))


def test_integer_fields_refuse_booleans():
    docs = [
        (detect_sequence, encode_exch_seq(circuit1_sequence(1))),
        (detect_sequence, encode_exch_seq(encode_seq(coin_sequence(depth=1)))),
        (decode_cone, encode_cone(measure_prepare_cone(1))),
    ]
    for decode, doc in docs:
        # True == 1, the depth of each document
        with pytest.raises(SchemaError, match=r"\.depth: expected an integer, got True"):
            decode(dict(json_round(doc), depth=True))
    doc = encode_exch_seq(circuit1_sequence(1))
    with pytest.raises(SchemaError, match=r"\.base_dim: expected an integer, got True"):
        detect_sequence(dict(json_round(doc), base_dim=True))
    with pytest.raises(SchemaError, match="positive integers"):
        decode_state({"blocks": [True], "dens": [[[1.0]]]})


def test_exch_seq_round_trip():
    seq = circuit1_sequence(3)
    back = detect_sequence(json_round(encode_exch_seq(seq)))
    assert back.depth == 3
    assert back.base == QUBIT
    assert back.tolerance == seq.tolerance
    for n in (1, 2, 3):
        assert state_distance(back.level(n), seq.level(n)) < 1e-15
    assert check_exchangeable(back).ok


def test_exch_seq_schema_errors():
    with pytest.raises(SchemaError, match="base_dim"):
        detect_sequence({"depth": 1, "states": []})
    with pytest.raises(SchemaError, match="states"):
        detect_sequence({"base_dim": 2, "depth": 2, "states": [[[1, 0], [0, 0]]]})


def test_sequences_need_at_least_one_level():
    with pytest.raises(SchemaError, match="at least one level"):
        detect_sequence({"base_dim": 2, "depth": 0, "states": []})
    with pytest.raises(SchemaError, match="at least one level"):
        detect_sequence({"space": ["H", "T"], "depth": 0, "measures": []})


def test_classical_seq_round_trip():
    seq = coin_sequence(depth=3)
    doc = json_round(encode_exch_seq(encode_seq(seq)))
    assert doc["space"] == [0, 1]  # a tower keeps no labels
    back = detect_sequence(doc)
    assert back.base == Algebra((1, 1))
    assert back.depth == 3
    assert back.tolerance == seq.tolerance
    for a, b in zip(back.levels, seq.measures):
        assert np.array_equal(a, b.probs)


def test_detect_sequence_dispatch():
    q = detect_sequence(encode_exch_seq(circuit1_sequence(2)))
    assert q.base == QUBIT
    c = detect_sequence({"space": ["H", "T"], "depth": 1, "measures": [[0.25, 0.75]]})
    assert c.base == Algebra((1, 1))
    assert np.array_equal(c.levels[0], [0.25, 0.75])
    with pytest.raises(SchemaError):
        detect_sequence({"neither": 1})


def test_atoms_round_trip_quantum_and_classical():
    atoms = default_atoms(2, 5, seed=0)
    back = decode_atoms(json_round(encode_atoms(atoms)))
    assert back.base == QUBIT
    assert len(back.atoms) == 5
    for a, b in zip(back.atoms, atoms.atoms):
        assert state_distance(a, b) == 0.0

    from finetti.classical import grid_atoms

    grid = grid_atoms(coin_grid((0.0, 0.5, 1.0)))
    doc = json_round(encode_atoms(grid))
    assert "grid" in doc  # commutative bases use the probability-row format
    back = decode_atoms(doc)
    assert back.base.blocks == (1, 1)
    for a, b in zip(back.atoms, grid.atoms):
        assert state_distance(a, b) == 0.0
    with pytest.raises(SchemaError, match=r"^atoms\.grid\[0\]: \(1,\) probabilities for 2 points"):
        decode_atoms({"space": [0, 1], "grid": [[0.5]]})


def test_grid_rows_are_numbers_on_distinct_labels():
    # An [re, im] pair is refused in a grid row as it is under 'measures'.
    with pytest.raises(SchemaError, match=r"^atoms\.grid\[0\]\[0\]: expected a number"):
        decode_atoms({"space": [0, 1], "grid": [[[0.5, 0.0], 0.5], [0.2, 0.8]]})
    # Labels are matched, so a space may not repeat one.
    with pytest.raises(SchemaError, match=r"^input\.space: repeated labels in \['H', 'H'\]"):
        detect_sequence({"space": ["H", "H"], "depth": 1, "measures": [[0.5, 0.5]]})
    with pytest.raises(SchemaError, match=r"^atoms\.space: repeated labels"):
        decode_atoms({"space": [0, 1, 0], "grid": [[0.2, 0.3, 0.5]]})


def test_grid_documents_are_read_in_the_given_label_order():
    def rows(atoms):
        return [[m[0, 0].real for m in s.dens] for s in atoms.atoms]

    doc = {"space": ["T", "H"], "grid": [[0.8, 0.2], [0.1, 0.9]]}
    assert rows(decode_atoms(doc)) == rows(decode_atoms(doc, space=["T", "H"])) == doc["grid"]
    assert rows(decode_atoms(doc, space=["H", "T"])) == [[0.2, 0.8], [0.9, 0.1]]
    message = "atoms: labels ['T', 'H'] are not a reordering of ['A', 'B']"
    with pytest.raises(SchemaError, match=re.escape(message)):
        decode_atoms(doc, space=["A", "B"])


def test_a_boolean_label_is_never_a_number():
    # JSON's true is not its 1, while 1 and 1.0 stay one number.
    seq = detect_sequence({"space": [1, True], "depth": 1, "measures": [[0.5, 0.5]]})
    assert seq.base == Algebra((1, 1))
    with pytest.raises(SchemaError, match=r"^input\.space: repeated labels"):
        detect_sequence({"space": [1, 1.0], "depth": 1, "measures": [[0.5, 0.5]]})
    grid = {"space": [True, False], "grid": [[0.2, 0.8]]}
    with pytest.raises(SchemaError, match="are not a reordering of \\[1, 0\\]"):
        decode_atoms(grid, space=[1, 0])
    (atom,) = decode_atoms({"space": [1.0, 0], "grid": [[0.2, 0.8]]}, space=[0, 1]).atoms
    assert [m[0, 0].real for m in atom.dens] == [0.8, 0.2]


def test_mixture_round_trip():
    atoms = default_atoms(2, 4, seed=1)
    mix = Mixture(atoms, np.array([0.1, 0.2, 0.3, 0.4]))
    back = decode_mixture(json_round(encode_mixture(mix)))
    assert np.allclose(back.weights, mix.weights, atol=0)
    doc = encode_mixture(mix)
    doc["weights"] = [0.5, 0.5]
    with pytest.raises(SchemaError):
        decode_mixture(doc)


def test_cone_round_trip():
    cone = measure_prepare_cone(3)
    back = decode_cone(json_round(encode_cone(cone)))
    assert back.depth == 3
    assert back.apex == cone.apex
    assert check_cone(back).ok
    for f, g in zip(back.channels, cone.channels):
        assert maps_close(f, g, tol=0.0)


def test_report_encoding_is_json_safe():
    report = check_exchangeable(circuit1_sequence(3))
    doc = encode_report(report, "exchangeability")
    assert json_round(doc) == doc  # JSON text is a lossless fixed point
    assert doc["kind"] == "exchangeability"
    assert doc["ok"] is True
    assert len(doc["levels"]) == 3
    assert isinstance(doc["max_violation"], float)


def test_dump_and_load_document(tmp_path):
    doc = encode_state(qubit_state(np.eye(2) / 2))
    path = tmp_path / "state.json"
    text = dump_document(doc, str(path))
    assert json.loads(text) == doc
    assert load_document(str(path)) == doc
    # dump with no filename only returns the text
    assert json.loads(dump_document(doc, None)) == doc


def test_float_values_survive_shortest_repr():
    # JSON text of a double must parse back to the identical double.
    vals = [0.1, 1 / 3, 0.8661890518199231, 2**-52]
    for v in vals:
        assert json.loads(json.dumps(v)) == v


def test_non_finite_numbers_are_schema_errors():
    for bad in (float("nan"), float("inf"), [0.5, float("-inf")], [float("nan"), 0.0]):
        with pytest.raises(SchemaError, match="non-finite"):
            decode_complex(bad, "x")
    seq = {"space": ["H", "T"], "depth": 1, "measures": [[float("nan"), 1.0]]}
    with pytest.raises(SchemaError, match="finite"):
        detect_sequence(seq)
    with pytest.raises(SchemaError, match="finite"):
        decode_atoms({"space": [0, 1], "grid": [[float("nan"), 1.0]]})
    seq["measures"] = [[10**400, 1.0]]
    with pytest.raises(SchemaError, match="non-finite"):
        detect_sequence(json_round(seq))


@pytest.mark.parametrize(
    "entry", ["0.5", None, True, [0.5]], ids=["numeric-string", "null", "bool", "list"]
)
def test_real_entries_must_be_numbers(entry):
    seq = {"space": ["H", "T"], "depth": 1, "measures": [[entry, 0.5]]}
    with pytest.raises(SchemaError, match=r"^sequence\.measures\[0\]\[0\]: expected a number"):
        detect_sequence(seq, "sequence")
    doc = encode_mixture(Mixture(default_atoms(2, 2, seed=1), np.array([0.5, 0.5])))
    doc["weights"] = [0.5, entry]
    with pytest.raises(SchemaError, match=r"^mixture\.weights\[1\]: expected a number"):
        decode_mixture(json_round(doc))


def test_tol_must_be_a_finite_number_at_least_0():
    docs = [
        (detect_sequence, encode_exch_seq(circuit1_sequence(2))),
        (detect_sequence, encode_exch_seq(encode_seq(coin_sequence(depth=2)))),
        (decode_cone, encode_cone(measure_prepare_cone(2))),
    ]
    for decode, doc in docs:
        for bad in (None, True, "inf", "1e-9", -1, -1e-12, float("nan"), float("inf"), 10**400):
            with pytest.raises(SchemaError, match=r"\.tol: tolerance must be a finite number"):
                decode(dict(json_round(doc), tol=bad))
        for good in (0, 0.0, 1, 1e-6):
            assert decode(dict(json_round(doc), tol=good)).tolerance == good


def test_decoded_levels_and_atoms_must_be_states():
    doc = encode_exch_seq(iid_extend(qubit_state(np.diag([0.25, 0.75])), 2))
    bad = json_round(doc)
    bad["states"][0] = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    with pytest.raises(SchemaError, match=r"states\[0\].*not positive"):
        detect_sequence(bad)
    bad = json_round(doc)
    bad["states"][0][0][1] = [0.3, 0.0]
    with pytest.raises(SchemaError, match="not Hermitian"):
        detect_sequence(bad)
    bad = json_round(doc)
    bad["states"][1][0][0] = [1.0, 0.0]
    with pytest.raises(SchemaError, match=r"states\[1\].*trace"):
        detect_sequence(bad)
    with pytest.raises(SchemaError, match=r"atoms\[0\].*trace"):
        decode_atoms({"atoms": [[[1, 0], [0, 1]]]})
    with pytest.raises(SchemaError, match=r"grid\[0\].*nonnegative"):
        decode_atoms({"space": [0, 1], "grid": [[1.5, -0.5]]})
