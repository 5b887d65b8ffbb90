"""Command-line front end.

Four commands: ``check`` (exchangeability report), ``reconstruct`` (mixture
recovery), ``factor`` (cone factorization through an atom set), and ``demo``
(canned end-to-end scenarios).

Exit codes: 0 success, 1 invariant failure, 2 unreadable/invalid input or
an unwritable ``--output``, 3 not representable over the given atoms
(residual above ``--max-residual``), 4 a solve reached its iteration cap
before its optimality test passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import classical, fixtures, serialize
from .cstar import state_distance
from .definetti import (
    AtomSet,
    ConeLawViolation,
    NotExchangeable,
    NotRepresentable,
    default_atoms,
    factorization_error,
    mediating_map,
    moment_rank,
    reconstruct,
    uniqueness_check,
)
from .exchange import check_exchangeable
from .serialize import SchemaError
from .solvers import SolverDidNotConverge

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARSE = 2
EXIT_NOT_REPRESENTABLE = 3
EXIT_SOLVER = 4


class OutputError(Exception):
    """The report could not be written to ``--output``."""


def _emit(args, text_lines, doc) -> None:
    try:
        if args.format == "json":
            out = serialize.dump_document(doc, args.output)
            if not args.output:
                print(out)
        else:
            body = "\n".join(text_lines)
            if args.output:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(body + "\n")
            else:
                print(body)
    except OSError as e:
        raise OutputError(e) from e


def _report_lines(report, kind: str) -> list[str]:
    lines = [f"kind: {kind}", f"tolerance: {report.tolerance:g}"]
    for lv in report.levels:
        line = (
            f"level {lv.level}: symmetry {lv.symmetry:.3e} (bound {lv.symmetry_bound:.3e}), "
            f"consistency {lv.consistency:.3e}"
        )
        if lv.worst_source is not None:
            line += f" (vs level {lv.worst_source})"
        lines.append(line)
    lines.append("verdict: " + ("exchangeable" if report.ok else "NOT exchangeable"))
    return lines


def _kind(seq) -> str:
    return "classical" if seq.base.is_commutative else "quantum"


def _load_sequence(args):
    """The input document and the tower it holds, ``--tol`` and ``--depth``
    applied."""
    doc = serialize.load_document(args.input)
    seq = serialize.detect_sequence(doc, args.input)
    if args.tol is not None:
        seq = dataclasses.replace(seq, tolerance=args.tol)
    if args.depth is not None:
        if args.depth > seq.depth:
            raise SchemaError(f"--depth {args.depth} outside 1..{seq.depth}")
        seq = seq.truncate(args.depth)
    return doc, seq


def _atom_count(args, least: int) -> int:
    if args.atom_count < least:
        raise SchemaError(f"--atom-count {args.atom_count} must be at least {least}")
    return args.atom_count


def _load_atoms(args, base, space=None) -> AtomSet:
    """The ``--atoms`` dictionary, a grid read in the label order of
    ``space`` when given, else a default one on ``base``: seeded random
    states on a matrix block, evenly spaced biases on two points."""
    if args.atoms:
        atoms = serialize.decode_atoms(serialize.load_document(args.atoms), args.atoms, space)
        if atoms.base != base:
            raise SchemaError(f"atoms on {atoms.base} do not match base {base}")
        return atoms
    if not base.is_commutative:
        return default_atoms(base.blocks[0], _atom_count(args, 1), args.seed)
    if base.n_blocks != 2:
        raise SchemaError("no default grid beyond two-point spaces; pass --atoms")
    count = _atom_count(args, 2)
    return classical.grid_atoms(
        [classical.bernoulli((0, 1), j / (count - 1)) for j in range(count)]
    )


def cmd_check(args) -> int:
    _, seq = _load_sequence(args)
    report = check_exchangeable(seq)
    kind = _kind(seq)
    _emit(args, _report_lines(report, kind), serialize.encode_report(report, kind))
    return EXIT_OK if report.ok else EXIT_INVARIANT


def _weight_lines(weights) -> list[str]:
    order = np.argsort(weights)[::-1]
    shown = [i for i in order if weights[i] > 1e-12][:12]
    lines = [f"  atom {i}: {weights[i]:.8f}" for i in shown]
    if len(shown) < int(np.count_nonzero(weights > 1e-12)):
        lines.append(f"  ... ({np.count_nonzero(weights > 1e-12)} atoms carry weight)")
    return lines


def cmd_reconstruct(args) -> int:
    doc, seq = _load_sequence(args)
    # The point labels live in the input alone.
    space = doc["space"] if seq.base.is_commutative else None
    atoms = _load_atoms(args, seq.base, space)
    mixture, residual = reconstruct(seq, atoms)
    rank = moment_rank(atoms, seq.depth)
    out = serialize.encode_mixture(mixture)
    if space is not None:
        out["space"] = space
    degenerate = rank < len(atoms)
    out.update({"residual": residual, "moment_rank": rank, "degenerate": degenerate})
    lines = [f"atoms: {len(atoms)}", f"residual: {residual:.6e}"]
    lines += _weight_lines(mixture.weights)
    lines.append(
        f"moment rank: {rank}/{len(atoms)}"
        + (" (degenerate: weights not unique at this depth)" if degenerate else "")
    )
    if args.max_residual is not None and residual > args.max_residual:
        lines.append(
            f"NOT REPRESENTABLE: residual {residual:.6e} > bound {args.max_residual:g}"
        )
        _emit(args, lines, out)
        return EXIT_NOT_REPRESENTABLE
    _emit(args, lines, out)
    return EXIT_OK


def _certificate_line(unique) -> str:
    """The uniqueness certificate of a ``factor`` run, in one line."""
    probes = len(unique.support)
    settled = probes - unique.restarts // unique.trials
    verdict = "unique" if unique.unique else "not certified unique"
    return (
        f"mediating map: {verdict} (certified at {settled}/{probes} probes; least "
        f"margin {unique.margin:.3e}, threshold {unique.margin_tol:.1e}; support sizes "
        + " ".join(str(n) for n in unique.support)
        + ")"
    )


def cmd_factor(args) -> int:
    doc = serialize.load_document(args.input)
    cone = serialize.decode_cone(doc, args.input)
    if args.tol is not None:
        cone = dataclasses.replace(cone, tolerance=args.tol)
    atoms = _load_atoms(args, cone.base)
    med = mediating_map(cone, atoms, max_residual=args.max_residual)
    err = factorization_error(cone, med)
    unique = uniqueness_check(cone, atoms, trials=args.trials, seed=args.seed)
    out = serialize.encode_mediating(med)
    out["factorization_error"] = err
    out["uniqueness"] = serialize.encode_uniqueness(unique)
    lines = [
        f"probes: {len(med.probes)}",
        f"max reconstruction residual: {med.residuals.max():.6e}",
        f"factorization error: {err:.6e}",
        f"moment rank: {unique.moment_rank}/{unique.n_atoms}",
        _certificate_line(unique),
    ]
    if unique.restarts:
        lines.append(
            f"weight spread over {unique.trials} restarts at each of "
            f"{unique.restarts // unique.trials} uncertified probes: "
            f"{unique.max_weight_spread:.3e}"
        )
    _emit(args, lines, out)
    return EXIT_OK


# name -> (default depth, tower at a depth, atom set)
DEMOS = {
    "circuit1": (3, fixtures.circuit1_sequence, fixtures.circuit1_atoms),
    "circuit2": (3, fixtures.circuit2_sequence, fixtures.circuit2_atoms),
    "equator": (4, fixtures.equator_sequence, fixtures.equator_atoms),
    "unknown-qubit": (4, fixtures.unknown_qubit_sequence, fixtures.bloch_grid_atoms),
    "coin": (
        5,
        lambda depth: classical.encode_seq(fixtures.coin_sequence(depth)),
        lambda: classical.grid_atoms(fixtures.coin_grid()),
    ),
}


def cmd_demo(args) -> int:
    default_depth, tower, atom_set = DEMOS[args.name]
    seq = tower(default_depth if args.depth is None else args.depth)
    atoms = atom_set()
    kind = _kind(seq)
    report = check_exchangeable(seq)
    mixture, residual = reconstruct(seq, atoms)
    rank = moment_rank(atoms, seq.depth)
    rows = [f"demo: {args.name}"] + _report_lines(report, kind)
    rows.append(f"residual: {residual:.3e}")
    rows += _weight_lines(mixture.weights)
    rows.append(
        f"moment rank: {rank}/{len(atoms)}"
        + ("" if rank == len(atoms) else " (degenerate: weights not unique at this depth)")
    )
    bary_gap = state_distance(mixture.barycenter(), seq.level(1))
    rows.append(f"level-1 barycenter gap: {bary_gap:.3e}")
    doc = {
        "demo": args.name,
        "report": serialize.encode_report(report, kind),
        "mixture": serialize.encode_mixture(mixture),
        "residual": residual,
        "moment_rank": rank,
        "barycenter_gap": bary_gap,
    }
    _emit(args, rows, doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="finetti",
        description="Exchangeable state sequences: check, reconstruct, factor, demo.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:  # a tolerance only overrides the input's own
            sp.add_argument("--input", required=True, help="input JSON file")
            sp.add_argument("--tol", type=float, default=None, help="override tolerance")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--output", help="write the report here instead of stdout")

    sp = sub.add_parser("check", help="verify symmetry and consistency")
    common(sp)
    sp.add_argument("--depth", type=int, default=None, help="truncate to this depth")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("reconstruct", help="recover a mixture over atoms")
    common(sp)
    sp.add_argument("--atoms", help="atom dictionary JSON file")
    sp.add_argument("--atom-count", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--max-residual", type=float, default=None)
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("factor", help="factor a cone through an atom set")
    common(sp)
    sp.add_argument("--atoms", help="atom dictionary JSON file")
    sp.add_argument("--atom-count", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-residual", type=float, default=1e-6)
    sp.add_argument(
        "--trials",
        type=int,
        default=10,
        help="uniqueness restarts per probe state the exact certificate "
        "cannot settle, each from a random point of a random face of the simplex",
    )
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("demo", help="run a canned scenario end to end")
    sp.add_argument("name", choices=tuple(DEMOS))
    common(sp, needs_input=False)
    sp.add_argument("--depth", type=int, default=None)
    sp.set_defaults(func=cmd_demo)
    return p


def _check_options(args) -> None:
    """Refuse an out-of-range numeric option before any work starts."""
    for name in ("tol", "max_residual"):
        if getattr(args, name, None) is not None:
            serialize.decode_tol(getattr(args, name), "--" + name.replace("_", "-"))
    for name, least in (("seed", 0), ("trials", 2), ("depth", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise SchemaError(f"--{name} {value} must be at least {least}")


# Built once: every in-process call of main parses with the same tree.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except json.JSONDecodeError as e:
        print(f"parse error: {e.msg} at line {e.lineno} column {e.colno}", file=sys.stderr)
        return EXIT_PARSE
    except SchemaError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OutputError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"cannot read input: {e}", file=sys.stderr)
        return EXIT_PARSE
    except NotExchangeable as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except ConeLawViolation as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except NotRepresentable as e:
        print(f"{e}", file=sys.stderr)
        return EXIT_NOT_REPRESENTABLE
    except SolverDidNotConverge as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
