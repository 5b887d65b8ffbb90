import functools
import json
import operator
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finetti
from finetti.cli import (
    EXIT_INVARIANT,
    EXIT_NOT_REPRESENTABLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOLVER,
    main,
)
from finetti.classical import (
    FinDist,
    bernoulli,
    check_exchangeable_measures,
    classical_moment_rank,
    encode_seq,
    grid_atoms,
    hs_reconstruct,
    synthesize_measures,
)
from finetti.cpmaps import SCHRODINGER, choi_from_function
from finetti.cstar import Algebra
from finetti.definetti import Cone
from finetti.fixtures import (
    COIN_SPACE,
    QUBIT,
    broken_cone,
    circuit1_atoms,
    circuit1_sequence,
    coin_grid,
    coin_sequence,
    constant_cone,
    equator_atoms,
    measure_prepare_cone,
    qubit_state,
    singlet_sequence,
)
from finetti.serialize import (
    dump_document,
    encode_atoms,
    encode_cone,
    encode_exch_seq,
    encode_report,
)


def classical_doc(seq) -> dict:
    """The classical document of a family of measures, labels included."""
    return dict(encode_exch_seq(encode_seq(seq)), space=seq.space)


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.json"
    dump_document(encode_exch_seq(circuit1_sequence(3)), str(path))
    return str(path)


@pytest.fixture
def singlet_file(tmp_path):
    path = tmp_path / "singlet.json"
    dump_document(encode_exch_seq(singlet_sequence()), str(path))
    return str(path)


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.json"
    dump_document(classical_doc(coin_sequence(depth=5)), str(path))
    return str(path)


@pytest.fixture
def cone_file(tmp_path):
    path = tmp_path / "cone.json"
    dump_document(encode_cone(measure_prepare_cone(3)), str(path))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _assert_verdict_from_bounds(doc):
    tol = doc["tolerance"]
    for lv in doc["levels"]:
        assert lv["symmetry_bound"] >= lv["symmetry"]
    assert doc["ok"] is all(
        lv["symmetry_bound"] <= tol and lv["consistency"] <= tol for lv in doc["levels"]
    )
    assert doc["max_violation"] == max(
        max(lv["symmetry_bound"], lv["consistency"]) for lv in doc["levels"]
    )


def test_check_ok(capsys, seq_file):
    code, doc = run_json(capsys, ["check", "--input", seq_file, "--format", "json"])
    assert code == EXIT_OK
    assert doc["ok"] is True
    assert len(doc["levels"]) == 3
    _assert_verdict_from_bounds(doc)


def test_check_text_output(capsys, seq_file):
    assert main(["check", "--input", seq_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict: exchangeable" in out
    assert "level 3" in out
    assert "(bound " in out


def test_check_fails_on_asymmetric_sequence(capsys, tmp_path):
    doc = encode_exch_seq(circuit1_sequence(2))
    doc["states"][1] = [
        [[0, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0], [1, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [0, 0]],
    ]  # |01><01|: symmetric marginals, ordered pair
    path = tmp_path / "bad.json"
    dump_document(doc, str(path))
    code, report = run_json(capsys, ["check", "--input", str(path), "--format", "json"])
    assert code == EXIT_INVARIANT
    assert report["ok"] is False
    _assert_verdict_from_bounds(report)


def _near_exchangeable(tmp_path, tol):
    """circuit1 at depth 3 with level 3 pulled 1e-10 toward |001><001|: every
    permutation moves level 3 by at most 2e-10, its twirl distance is 4e-10/3
    and the factor-2 bound 8e-10/3."""
    seq = circuit1_sequence(3)
    doc = encode_exch_seq(seq)
    e = np.zeros((8, 8))
    e[1, 1] = 1.0
    level3 = (1 - 1e-10) * seq.level(3).dens[0] + 1e-10 * e
    doc["states"][2] = [[[z.real, z.imag] for z in row] for row in level3.tolist()]
    doc["tol"] = tol
    path = tmp_path / "near.json"
    dump_document(doc, str(path))
    return str(path)


def test_check_verdict_uses_the_symmetry_bound(capsys, tmp_path):
    # The twirl distance stays within the tolerance, but its bound over all of
    # S_3 does not.
    path = _near_exchangeable(tmp_path, 2e-10)
    code, report = run_json(capsys, ["check", "--input", path, "--format", "json"])
    level = report["levels"][2]
    assert level["symmetry"] <= report["tolerance"] < level["symmetry_bound"]
    assert all(lv["consistency"] <= report["tolerance"] for lv in report["levels"])
    assert code == EXIT_INVARIANT
    _assert_verdict_from_bounds(report)


def test_check_passes_a_level_within_tolerance_of_every_permutation(capsys, tmp_path):
    # At tolerance 3e-10 every permutation gap (at most 2e-10) passes, and so
    # does the bound.
    path = _near_exchangeable(tmp_path, 3e-10)
    code, report = run_json(capsys, ["check", "--input", path, "--format", "json"])
    level = report["levels"][2]
    assert level["symmetry"] == pytest.approx(4e-10 / 3, rel=1e-4)
    assert level["symmetry_bound"] == pytest.approx(8e-10 / 3, rel=1e-4)
    assert code == EXIT_OK
    _assert_verdict_from_bounds(report)
    assert "worst_permutation" not in level


def test_check_depth_truncation(capsys, seq_file):
    code, doc = run_json(
        capsys, ["check", "--input", seq_file, "--format", "json", "--depth", "2"]
    )
    assert code == EXIT_OK
    assert len(doc["levels"]) == 2


def test_parse_error_on_corrupt_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"base_dim": 2, "depth": }')
    assert main(["check", "--input", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line" in err  # json decoder location is surfaced


def test_parse_error_on_schema_violation(capsys, tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"base_dim": 2, "depth": 1, "states": "zzz"}))
    assert main(["check", "--input", str(path)]) == EXIT_PARSE
    assert "states" in capsys.readouterr().err


def test_parse_error_on_missing_file(capsys):
    assert main(["check", "--input", "/nonexistent/nope.json"]) == EXIT_PARSE


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unwritable_output_exits_2(capsys, tmp_path, seq_file, fmt):
    # The input reads fine: the error names the output it could not write.
    out = tmp_path / "missing" / "out.txt"
    argv = ["check", "--input", seq_file, "--format", fmt, "--output", str(out)]
    assert main(argv) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1
    assert str(out) in err


def test_main_reuses_the_parser_built_at_import(capsys, monkeypatch, seq_file):
    import finetti.cli as cli

    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["check", "--input", seq_file]) == EXIT_OK
    assert main(["check", "--input", seq_file, "--depth", "2"]) == EXIT_OK


def test_reconstruct_with_default_atoms(capsys, seq_file):
    # Random dictionaries approximate but rarely contain the generating
    # atoms, so only the structure of the answer is pinned here.
    code, doc = run_json(
        capsys, ["reconstruct", "--input", seq_file, "--format", "json"]
    )
    assert code == EXIT_OK
    assert 0 <= doc["residual"] < 0.5
    assert doc["moment_rank"] >= 1
    assert len(doc["weights"]) == 200  # default atom count
    assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_with_atom_file(capsys, seq_file, tmp_path):
    atoms_doc = {
        "atoms": [
            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        ]
    }
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps(atoms_doc))
    code, doc = run_json(
        capsys,
        [
            "reconstruct",
            "--input",
            seq_file,
            "--atoms",
            str(atoms),
            "--format",
            "json",
        ],
    )
    assert code == EXIT_OK
    assert doc["residual"] < 1e-10
    assert np.allclose(doc["weights"], [0.5, 0.5], atol=1e-8)
    assert doc["moment_rank"] == 2
    assert doc["degenerate"] is False


def test_reconstruct_classical_default_grid(capsys, coin_file):
    # The default bias grid is evenly spaced, so the 1/2 component of the
    # coin mixture is matched exactly and the others to grid resolution.
    code, doc = run_json(
        capsys, ["reconstruct", "--input", coin_file, "--format", "json"]
    )
    assert code == EXIT_OK
    assert doc["residual"] < 1e-3
    assert len(doc["weights"]) == 200


def test_reconstruct_classical_exact_grid(capsys, coin_file, tmp_path):
    atoms = tmp_path / "grid.json"
    atoms.write_text(json.dumps({"space": ["H", "T"], "grid": [[0, 1], [0.5, 0.5], [1, 0]]}))
    code, doc = run_json(
        capsys,
        ["reconstruct", "--input", coin_file, "--atoms", str(atoms), "--format", "json"],
    )
    assert code == EXIT_OK
    assert doc["residual"] < 1e-10
    assert np.allclose(doc["weights"], [1 / 3, 1 / 3, 1 / 3], atol=1e-8)


def _classical_case(case):
    """A classical sequence, a grid over its space, and whether the grid goes
    to ``reconstruct`` in an ``--atoms`` file (else it is the default one)."""
    if case == "six-point-atoms-grid":
        rng = np.random.default_rng(6)
        space = [f"x{i}" for i in range(6)]
        grid = [FinDist(space, p) for p in rng.dirichlet(np.ones(6), size=8)]
        return synthesize_measures(grid[:3], rng.dirichlet(np.ones(3)), 4), grid, True
    seq = coin_sequence(depth=5)
    if case == "coin-default-grid":
        return seq, [bernoulli(COIN_SPACE, j / 199) for j in range(200)], False
    return seq, coin_grid((0.0, 0.25, 0.5, 0.75, 1.0)), True


@pytest.mark.parametrize(
    "case", ["coin-default-grid", "coin-atoms-grid", "six-point-atoms-grid"]
)
def test_classical_documents_match_the_classical_route(capsys, tmp_path, case):
    # The tower on the commutative base gives, bit for bit, what the
    # measure-level routines give, and the labels come back from the input.
    seq, grid, grid_file = _classical_case(case)
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(classical_doc(seq)))
    code, doc = run_json(capsys, ["check", "--input", str(path), "--format", "json"])
    assert code == EXIT_OK
    report = check_exchangeable_measures(seq)
    assert doc == json.loads(json.dumps(encode_report(report, "classical")))

    argv = ["reconstruct", "--input", str(path), "--format", "json"]
    rows = [g.probs.tolist() for g in grid]
    if grid_file:
        atoms = tmp_path / "grid.json"
        atoms.write_text(json.dumps({"space": seq.space, "grid": rows}))
        argv += ["--atoms", str(atoms)]
    code, doc = run_json(capsys, argv)
    weights, residual = hs_reconstruct(seq, grid)
    rank = classical_moment_rank(grid, seq.depth)
    assert code == EXIT_OK
    assert doc == {
        "space": seq.space,
        "grid": rows,
        "weights": weights.tolist(),
        "residual": residual,
        "moment_rank": rank,
        "degenerate": rank < len(grid),
    }


def test_an_atoms_grid_is_read_in_the_label_order_of_the_input(capsys, tmp_path):
    # An even mixture of coins of bias 0.2 and 0.9 on H.  A grid on ["T", "H"]
    # is the grid of its rows reordered to ["H", "T"]; one on other labels is
    # refused.
    family = synthesize_measures(coin_grid((0.2, 0.9)), [0.5, 0.5], 4)
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(classical_doc(family)))
    outputs = []
    for name, grid in [
        ("flipped", {"space": ["T", "H"], "grid": [[0.2, 0.8], [0.9, 0.1]]}),
        ("reordered", {"space": ["H", "T"], "grid": [[0.8, 0.2], [0.1, 0.9]]}),
    ]:
        atoms = tmp_path / f"{name}.json"
        atoms.write_text(json.dumps(grid))
        argv = ["reconstruct", "--input", str(path), "--atoms", str(atoms), "--format", "json"]
        outputs.append(run_json(capsys, argv))
    assert outputs[0] == outputs[1]
    code, doc = outputs[0]
    assert code == EXIT_OK and doc["residual"] > 0.1
    assert doc["space"] == ["H", "T"] and doc["grid"] == [[0.8, 0.2], [0.1, 0.9]]
    atoms = tmp_path / "foreign.json"
    atoms.write_text(json.dumps({"space": ["A", "B"], "grid": [[0.2, 0.8], [0.9, 0.1]]}))
    code = main(["reconstruct", "--input", str(path), "--atoms", str(atoms)])
    _assert_invalid_input(capsys, code, "labels ['A', 'B'] are not a reordering of ['H', 'T']")


def test_reconstruct_echoes_the_labels_of_the_input(capsys, coin_file):
    code, doc = run_json(capsys, ["reconstruct", "--input", coin_file, "--format", "json"])
    assert code == EXIT_OK
    assert doc["space"] == ["H", "T"]


@pytest.mark.parametrize(
    "command, tower, atoms",
    [
        ("reconstruct", "coin", {"space": 5, "grid": [[0.5, 0.5]]}),
        ("reconstruct", "coin", {"space": [0, 1], "grid": 3}),
        ("reconstruct", "coin", {"space": [0, 1], "grid": []}),
        ("reconstruct", "coin", {"space": [0, 1, 2], "grid": [[0.2, 0.3, 0.5]]}),
        ("reconstruct", "seq", {"space": [0, 1], "grid": [[0.5, 0.5]]}),
        ("factor", "cone", {"space": [0, 1], "grid": [[0.5, 0.5]]}),
    ],
    ids=["space-not-list", "grid-not-list", "grid-empty", "grid-3pt", "grid-on-qubit", "grid-on-cone"],
)
def test_atom_documents_that_do_not_fit_exit_2(
    capsys, tmp_path, coin_file, seq_file, cone_file, command, tower, atoms
):
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(atoms))
    tower = {"coin": coin_file, "seq": seq_file, "cone": cone_file}[tower]
    code = main([command, "--input", tower, "--atoms", str(path)])
    _assert_invalid_input(capsys, code)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["reconstruct", "--input", "singlet", "--max-residual", "nan"], "--max-residual"),
        (["reconstruct", "--input", "singlet", "--max-residual", "-1"], "--max-residual"),
        (["factor", "--input", "cone", "--atom-count", "40", "--max-residual", "nan"], "--max-residual"),
        (["reconstruct", "--input", "singlet", "--seed", "-1"], "--seed"),
        (["factor", "--input", "cone", "--seed", "-1"], "--seed"),
        (["factor", "--input", "cone", "--trials", "-1"], "--trials"),
        (["factor", "--input", "cone", "--trials", "0"], "--trials"),
        (["factor", "--input", "cone", "--trials", "1"], "--trials"),
        (["demo", "coin", "--depth", "-1"], "--depth"),
        (["demo", "coin", "--depth", "0"], "--depth"),
    ],
    ids=[
        "max-residual-nan",
        "max-residual-negative",
        "factor-max-residual-nan",
        "seed-negative",
        "factor-seed-negative",
        "trials-negative",
        "trials-0",
        "trials-1",
        "demo-depth-negative",
        "demo-depth-0",
    ],
)
def test_numeric_options_out_of_range_exit_2(capsys, singlet_file, cone_file, argv, option):
    files = {"singlet": singlet_file, "cone": cone_file}
    code = main([files.get(a, a) for a in argv])
    _assert_invalid_input(capsys, code, f"invalid input: {option}")


def test_reconstruct_not_representable_exit(capsys, singlet_file):
    code = main(
        [
            "reconstruct",
            "--input",
            singlet_file,
            "--max-residual",
            "0.5",
            "--atom-count",
            "50",
        ]
    )
    assert code == EXIT_NOT_REPRESENTABLE


def test_reconstruct_non_exchangeable_exit(capsys, tmp_path):
    doc = encode_exch_seq(circuit1_sequence(2))
    doc["states"][1] = [
        [[0, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0], [1, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [0, 0], [0, 0]],
    ]
    path = tmp_path / "bad.json"
    dump_document(doc, str(path))
    assert main(["reconstruct", "--input", str(path)]) == EXIT_INVARIANT


def test_factor_cone_with_adapted_atoms(capsys, cone_file, tmp_path):
    atoms_doc = {
        "atoms": [
            [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        ]
    }
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps(atoms_doc))
    code, doc = run_json(
        capsys,
        ["factor", "--input", cone_file, "--atoms", str(atoms), "--format", "json"],
    )
    assert code == EXIT_OK
    assert doc["factorization_error"] < 1e-7
    assert doc["uniqueness"]["independent"] is True
    assert doc["uniqueness"]["max_weight_spread"] <= 1e-8
    assert len(doc["weights"]) == 4  # one row per probe state
    assert len(doc["probes"]) == 4
    # Every probe weighs both atoms: no atom off the support, no margin to bound.
    assert doc["uniqueness"]["unique"] is True and doc["uniqueness"]["margin"] is None
    assert doc["uniqueness"]["support"] == [2, 2, 2, 2]
    assert doc["uniqueness"]["restarts"] == 0


def test_factor_prints_the_certificate_and_restarts_only_where_it_is_open(
    capsys, cone_file, tmp_path
):
    # Over 50 default atoms (moment rank 20) the measure-prepare cone's map
    # is certified unique, so no restart runs; I/2 over equator atoms has
    # many best mixtures (none exact), so every probe restarts.
    code = main(["factor", "--input", cone_file, "--atom-count", "50", "--max-residual", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "moment rank: 20/50\n" in out
    assert "mediating map: unique (certified at 4/4 probes; least margin" in out
    assert "restarts" not in out
    cone = tmp_path / "half.json"
    dump_document(encode_cone(constant_cone(qubit_state(np.eye(2) / 2), 2)), str(cone))
    atoms = tmp_path / "equator.json"
    dump_document(encode_atoms(equator_atoms(16)), str(atoms))
    argv = ["factor", "--input", str(cone), "--atoms", str(atoms), "--trials", "3"]
    argv += ["--max-residual", "1"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "mediating map: not certified unique (certified at 0/4 probes;" in out
    assert "weight spread over 3 restarts at each of 4 uncertified probes:" in out


def test_factor_cone_random_atoms_not_representable(capsys, cone_file):
    # A generic dictionary misses the computational pair the cone mixes
    # over, so no probe mixture reaches the default residual threshold.
    code = main(["factor", "--input", cone_file, "--atom-count", "40"])
    assert code == EXIT_NOT_REPRESENTABLE
    assert "residual" in capsys.readouterr().err


def test_factor_broken_cone(capsys, tmp_path):
    path = tmp_path / "broken_cone.json"
    dump_document(encode_cone(broken_cone()), str(path))
    assert main(["factor", "--input", str(path)]) == EXIT_INVARIANT


def test_factor_tol_overrides_the_cone_tolerance(capsys, tmp_path):
    # The broken cone's law bound is 0.8: it fails the tolerance stored in
    # its file, and passes the laws under a --tol above 0.8, where no mixture
    # fits its inconsistent levels.
    path = tmp_path / "broken_cone.json"
    dump_document(encode_cone(broken_cone()), str(path))
    assert main(["factor", "--input", str(path)]) == EXIT_INVARIANT
    assert "exceeds tolerance 1.0e-09" in capsys.readouterr().err
    code = main(["factor", "--input", str(path), "--tol", "0.9"])
    assert code == EXIT_NOT_REPRESENTABLE
    assert "residual" in capsys.readouterr().err
    code, doc = run_json(
        capsys,
        ["factor", "--input", str(path), "--tol", "0.9", "--max-residual", "10", "--format", "json"],
    )
    assert code == EXIT_OK
    assert len(doc["weights"]) == 4


def test_demo_all_scenarios(capsys):
    for name in ("circuit1", "circuit2", "equator", "unknown-qubit", "coin"):
        assert main(["demo", name]) == EXIT_OK, name
        out = capsys.readouterr().out
        assert "residual" in out.lower(), name


def test_demo_json_format(capsys):
    for name in ("circuit1", "circuit2", "equator", "unknown-qubit", "coin"):
        code, doc = run_json(capsys, ["demo", name, "--format", "json"])
        assert code == EXIT_OK
        assert doc["demo"] == name
        assert doc["report"]["ok"] is True
        assert doc["residual"] < 1e-8, name
        assert doc["barycenter_gap"] < 1e-8, name


def test_solver_cap_exits_with_its_own_code(capsys, monkeypatch, seq_file, cone_file):
    # A solve stopped by its iteration cap has no certified optimum: the CLI
    # reports it on one line with a code of its own, not a traceback.
    monkeypatch.setattr("finetti.solvers._max_iter", lambda n: 1)
    for argv in (
        ["reconstruct", "--input", seq_file],
        ["factor", "--input", cone_file, "--atom-count", "40"],
        ["demo", "unknown-qubit"],
        ["demo", "coin"],
    ):
        assert main(argv) == EXIT_SOLVER, argv
        err = capsys.readouterr().err
        assert err.startswith("solver failure:") and err.count("\n") == 1, argv


def test_output_file_and_determinism(tmp_path, capsys, seq_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(
            [
                "reconstruct",
                "--input",
                seq_file,
                "--format",
                "json",
                "--output",
                str(out),
                "--atom-count",
                "30",
            ]
        )
        assert code == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entry_point_runs():
    # The child imports the same finetti as this process, however it was found.
    src = os.path.dirname(os.path.dirname(finetti.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "finetti.cli", "demo", "coin"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "residual" in proc.stdout.lower()


def _iid_tower_doc(level1: np.ndarray, depth: int) -> dict:
    levels, cur = [], level1
    for _ in range(depth):
        levels.append(cur)
        cur = np.kron(cur, level1)
    return {
        "base_dim": level1.shape[0],
        "depth": depth,
        "states": [[[[z.real, z.imag] for z in row] for row in m.tolist()] for m in levels],
        "tol": 1e-9,
    }


def _malformed_docs():
    nan = _iid_tower_doc(np.eye(2) / 2, 3)
    nan["states"][1][0][0] = [float("nan"), 0.0]
    inf = _iid_tower_doc(np.eye(2) / 2, 3)
    inf["states"][0][1][1] = float("inf")
    non_positive = _iid_tower_doc(np.diag([1.5, -0.5]), 3)
    coin_nan = {"space": ["H", "T"], "depth": 1, "measures": [[float("nan"), 1.0]]}
    coin_string = {"space": ["H", "T"], "depth": 1, "measures": [["0.5", "0.5"]]}
    docs = {
        "nan": nan,
        "inf": inf,
        "non-positive": non_positive,
        "coin-nan": coin_nan,
        "coin-numeric-string": coin_string,
    }
    # A malformed tolerance, on a quantum tower and on a classical one whose
    # consistency gap (0.8) only an infinite tolerance would let through.
    gap = {"space": ["H", "T"], "depth": 2, "measures": [[0.9, 0.1], [0.25, 0.25, 0.25, 0.25]]}
    for name, tol in [("null", None), ("bool", True), ("string", "inf"), ("negative", -1)]:
        docs[f"tol-{name}"] = dict(_iid_tower_doc(np.eye(2) / 2, 2), tol=tol)
        docs[f"coin-tol-{name}"] = dict(gap, tol=tol)
    return docs


@pytest.mark.parametrize("name", sorted(_malformed_docs()))
@pytest.mark.parametrize("command", ["check", "reconstruct"])
def test_malformed_numbers_exit_2_with_one_line(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_malformed_docs()[name]))
    assert main([command, "--input", str(path)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_tol_option_out_of_range_exits_2(capsys, seq_file, coin_file, cone_file):
    for path, command in ((seq_file, "check"), (coin_file, "reconstruct"), (cone_file, "factor")):
        for tol in ("-1", "nan", "inf"):
            assert main([command, "--input", path, "--tol", tol]) == EXIT_PARSE, (command, tol)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("invalid input: --tol") and captured.err.count("\n") == 1
    assert main(["check", "--input", seq_file, "--tol", "0"]) == EXIT_OK


def test_atom_count_out_of_range_exits_2(capsys, seq_file, coin_file, cone_file):
    for argv in (
        ["reconstruct", "--input", seq_file, "--atom-count", "0"],
        ["reconstruct", "--input", coin_file, "--atom-count", "1"],
        ["factor", "--input", cone_file, "--atom-count", "0"],
    ):
        assert main(argv) == EXIT_PARSE, argv
        err = capsys.readouterr().err
        assert err.startswith("invalid input: --atom-count") and err.count("\n") == 1, argv


def test_depth_out_of_range_exits_2(capsys, seq_file, coin_file):
    for path in (seq_file, coin_file):
        assert main(["check", "--input", path, "--depth", "9"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("invalid input: --depth 9") and err.count("\n") == 1


def _assert_invalid_input(capsys, code, name=""):
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input:") and captured.err.count("\n") == 1
    assert name in captured.err


@pytest.mark.parametrize(
    "doc, name",
    [
        ({"base_dim": 2, "depth": 1, "states": [[[True, 0], [0, False]]]}, "states[0][0][0]"),
        (
            {"base_dim": 2, "depth": 1, "states": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, False]]]]},
            "states[0][1][1]",
        ),
        ({"base_dim": 2, "depth": True, "states": [[[1, 0], [0, 0]]]}, ".depth"),
        ({"base_dim": True, "depth": 1, "states": [[[1]]]}, ".base_dim"),
        ({"space": ["H", "T"], "depth": True, "measures": [[0.5, 0.5]]}, ".depth"),
    ],
    ids=["bool-entries", "bool-pair-part", "bool-depth", "bool-base-dim", "coin-bool-depth"],
)
def test_booleans_are_not_numbers(capsys, tmp_path, doc, name):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    _assert_invalid_input(capsys, main(["check", "--input", str(path)]), name)


def test_demo_takes_no_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "coin", "--tol", "0.5"])
    assert exc.value.code == EXIT_PARSE


def test_demo_takes_no_seed(capsys):
    # Every demo's atoms are fixed: a seed would have nothing to draw.
    with pytest.raises(SystemExit) as exc:
        main(["demo", "circuit1", "--seed", "0"])
    assert exc.value.code == EXIT_PARSE


def test_factor_refuses_a_cone_that_is_not_completely_positive(capsys, tmp_path):
    # Level 1 is the transpose: positive and trace preserving, not CP.
    channels = [
        choi_from_function(QUBIT, QUBIT, lambda x: x.T, SCHRODINGER),
        choi_from_function(
            QUBIT, Algebra((4,)), lambda x: np.trace(x) * np.eye(4) / 4, SCHRODINGER
        ),
    ]
    path = tmp_path / "transpose_cone.json"
    dump_document(encode_cone(Cone(QUBIT, 2, channels)), str(path))
    code = main(["factor", "--input", str(path)])
    _assert_invalid_input(capsys, code, "channels[0]: map is not completely positive")


# --- the exit-code contract on malformed documents -----------------------------

# kind -> (valid document, command, the tower an atom document is fitted to)
VALID_DOCS = {
    "quantum": (encode_exch_seq(circuit1_sequence(2)), "check", None),
    "classical": (classical_doc(coin_sequence(depth=2)), "check", None),
    "cone": (encode_cone(measure_prepare_cone(2)), "factor", None),
    "atoms": (encode_atoms(circuit1_atoms()), "reconstruct", encode_exch_seq(circuit1_sequence(2))),
    "grid": (
        dict(encode_atoms(grid_atoms(coin_grid())), space=COIN_SPACE),
        "reconstruct",
        classical_doc(coin_sequence(depth=2)),
    ),
}
# No value here is a number or a valid direction ('H' or 'S'), so none can
# stand in for the value it replaces.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4).filter(lambda t: t not in ("H", "S")),
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)


def _paths(node, prefix=()):
    """Every location in a JSON document, the root first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@pytest.mark.parametrize("kind", sorted(VALID_DOCS))
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_malformed_documents_exit_2_with_one_line(capsys, tmp_path, kind, data):
    # One location of a valid document is replaced by a value of the wrong
    # kind, or deleted.  Labels of a classical space may be anything, and the
    # tolerance is optional, so neither is touched that way; an atom
    # dictionary less one atom is still valid, so no atom is deleted.
    valid, command, tower = VALID_DOCS[kind]
    doc = json.loads(json.dumps(valid))
    paths = [p for p in _paths(doc) if p[:1] != ("space",)]
    where = data.draw(st.sampled_from(paths), label="where")
    if not where:
        doc = data.draw(JUNK, label="document")
    else:
        parent = functools.reduce(operator.getitem, where[:-1], doc)
        whole_atom = len(where) == 2 and where[0] in ("atoms", "grid")
        if where[-1] != "tol" and not whole_atom and data.draw(st.booleans(), label="delete"):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(JUNK, label="value")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if tower is None:
        argv = [command, "--input", str(path)]
    else:
        tower_path = tmp_path / "tower.json"
        tower_path.write_text(json.dumps(tower))
        argv = [command, "--input", str(tower_path), "--atoms", str(path)]
    _assert_invalid_input(capsys, main(argv))
