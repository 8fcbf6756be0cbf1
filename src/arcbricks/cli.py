"""Command-line surface.

Subcommands: map, mutate, hasse, count, check, render.  Exit codes form a
scriptable contract: 0 success, 2 usage error (argparse errors included),
3 failed precondition (a position out of range, or a ``--dir`` that
disagrees with the pivot's color, which alone fixes the direction of
``mutation.mutate_dad``), 4 size cap exceeded; check returns 1 when a suite
fails.  ``count --family custom --ideal`` passes the parsed ideal itself as
the family.  All output is byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arcs import ARC_ENUM_CAP, GREEN, RED, double_diagram
from .checks import SUITES, run_suite
from .mutation import HASSE_CAP, hasse_dot, hasse_json, mutate_dad, psi
from .permutations import Permutation, left_multiply_simple, parse_permutation
from .quotients import FAMILIES, family_count, parse_ideal
from .render import render_svg, render_tikz

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4

CHECK_CAP = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_permutation(args) -> Permutation:
    try:
        w = parse_permutation(args.perm)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad permutation: {exc}")
    if w.rank != args.n:
        raise CliError(
            EXIT_USAGE, f"permutation {args.perm} has rank {w.rank}, expected {args.n}"
        )
    return w


def _emit(text: str, out_path: str | None):
    if out_path is not None:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(
                EXIT_USAGE, f"cannot write {out_path}: {exc.strerror or exc}"
            )
    else:
        sys.stdout.write(text)


def _diagram_json(w: Permutation) -> dict:
    diagram = double_diagram(w)
    data = diagram.to_json()
    data["permutation"] = str(w)
    for entry, (module, shift) in zip(data["arcs"], psi(diagram)):
        entry["shift"] = shift
        entry["module"] = module.to_json()
    return data


def _diagram_text(w: Permutation) -> str:
    diagram = double_diagram(w)
    lines = [f"w = {w}"]
    for i, ((arc, color), (module, shift)) in enumerate(
        zip(diagram.entries, psi(diagram)), start=1
    ):
        dims = "".join(str(d) for d in module.dims)
        lines.append(f"  {i}: {color:5s} {arc} dims={dims} shift={shift}")
    return "\n".join(lines) + "\n"


def cmd_map(args) -> int:
    w = _load_permutation(args)
    if args.format == "json":
        _emit(json.dumps(_diagram_json(w), indent=2) + "\n", args.out)
    else:
        _emit(_diagram_text(w), args.out)
    return EXIT_OK


def cmd_mutate(args) -> int:
    w = _load_permutation(args)
    diagram = double_diagram(w)
    try:  # a bad position exits 3 naming the range 1..n
        color = diagram.color(args.i)
    except IndexError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc))
    # the pivot's color fixes the direction, so --dir is checked against it
    needed = GREEN if args.dir == "left" else RED
    if color != needed:
        raise CliError(
            EXIT_PRECONDITION,
            f"{args.dir} mutation needs {needed} at position {args.i}, found {color}",
        )
    try:
        mutated = mutate_dad(diagram, args.i)
    except ValueError:  # the half twists spelled no diagram D_w at all
        mutated = None
    moved = left_multiply_simple(args.i, w)
    if mutated != double_diagram(moved):
        raise CliError(
            EXIT_PRECONDITION,
            f"internal cross-check failed: mutation at {args.i} does not match "
            f"the diagram of {moved}",
        )
    data = mutated.to_json()
    data["permutation"] = str(moved)
    if args.format == "json":
        _emit(json.dumps(data, indent=2) + "\n", args.out)
    else:
        _emit(_diagram_text(moved), args.out)
    return EXIT_OK


def cmd_hasse(args) -> int:
    if args.n > HASSE_CAP:
        raise CliError(EXIT_CAP, f"hasse cap is n <= {HASSE_CAP}")
    if args.format == "dot":
        _emit(hasse_dot(args.n), args.out)
    else:
        _emit(json.dumps(hasse_json(args.n), indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    if args.n > ARC_ENUM_CAP:
        raise CliError(EXIT_CAP, f"count cap is n <= {ARC_ENUM_CAP}")
    if args.ideal is not None and args.family != "custom":
        raise CliError(EXIT_USAGE, "--ideal needs --family custom")
    family = args.family
    if family == "custom":
        if not args.ideal:
            raise CliError(EXIT_USAGE, "custom family needs --ideal")
        try:
            tokens = json.loads(args.ideal)
            if not isinstance(tokens, list) or not all(
                isinstance(t, str) for t in tokens
            ):
                raise ValueError("need a JSON list of strings")
            family = parse_ideal(tokens)
        except ValueError as exc:
            raise CliError(EXIT_USAGE, f"bad ideal: {exc}")
    try:
        count = family_count(args.n, family)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"bad ideal: {exc}")
    if args.format == "json":
        _emit(
            json.dumps({"family": args.family, "n": args.n, "count": count}) + "\n",
            args.out,
        )
    else:
        _emit(f"{count}\n", args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.max_n > CHECK_CAP:
        raise CliError(EXIT_CAP, f"check cap is 1 <= max-n <= {CHECK_CAP}")
    results = run_suite(args.suite, args.max_n)
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(
        f"{'all checks passed' if ok else 'CHECK FAILURES'} "
        f"({sum(r.passed for r in results)}/{len(results)})"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else 1


def cmd_render(args) -> int:
    w = _load_permutation(args)
    diagram = double_diagram(w)
    if args.format == "svg":
        _emit(render_svg(diagram), args.out)
    else:
        _emit(render_tikz(diagram), args.out)
    return EXIT_OK


def ascii_int(text: str) -> int:
    """An optional ``-`` and ASCII digits, as ``parse_permutation`` and
    ``parse_arrow`` read numbers; ``int`` alone would also take other
    scripts' digits, underscores and surrounding spaces."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"need an integer, got {text!r}")
    return int(text)


def positive_int(text: str) -> int:
    n = ascii_int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need n >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcbricks",
        description="Arc diagrams, the weak order, and their module-theoretic mirrors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, perm=False):
        p.add_argument(
            "--n", type=positive_int, required=True, help="rank (points are 1..n+1)"
        )
        if perm:
            p.add_argument("--perm", required=True, help='one-line word, e.g. "4312"')
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("map", help="diagram and modules of a permutation")
    common(p, perm=True)
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("mutate", help="mutate the diagram at a position")
    common(p, perm=True)
    p.add_argument("--i", type=ascii_int, required=True, help="position 1..n")
    p.add_argument("--dir", required=True, choices=["left", "right"])
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser("hasse", help="left-mutation graph")
    common(p)
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.set_defaults(fn=cmd_hasse)

    p = sub.add_parser("count", help="diagram family sizes")
    common(p)
    p.add_argument("--family", default="nad", choices=[*FAMILIES, "custom"])
    p.add_argument("--ideal", default=None, help='JSON list like ["a1-","a2 a3"]')
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("--suite", default="all", choices=SUITES)
    p.add_argument("--max-n", type=positive_int, default=4, dest="max_n")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("render", help="draw a diagram")
    common(p, perm=True)
    p.add_argument("--format", default="svg", choices=["svg", "tikz"])
    p.set_defaults(fn=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
