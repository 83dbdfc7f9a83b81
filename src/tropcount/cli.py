"""Command-line surface: recursion tables, fiber reports, experiments, SVG.

Exit codes: 0 success, 2 usage or input-file problems, 3 no general-position
sample within the retry cap or a degenerate --points file, 4 invariance
violation, 5 non-transverse intersection input, 6 census bookkeeping
violation.  Output is byte-stable for a fixed (command, flags, seed) triple.
Each subparser names its handler (`run`), which reads the parsed arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from typing import List

from .enumeration import (
    EV,
    GeneralPositionViolation,
    InvarianceViolation,
    PointConfig,
    fiber,
    invariance_check,
    sampled_fiber,
)
from .graph import fraction_str
from .kontsevich import NonTransverse, StructuralViolation, _recursion_terms, tropical_intersection
from .plane import (
    canonical_plane_form,
    image_positions,
    image_segments,
    plane_curve_from_json,
    plane_curve_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NOT_INVARIANT = 4
EXIT_NON_TRANSVERSE = 5
EXIT_CENSUS = 6


class _BadInput(Exception):
    """An input file whose content does not describe what was asked for."""


def _read_json(path: str, parse):
    """parse(data) for the JSON document in path; malformed content raises
    _BadInput, which main reports as a usage error."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        # json.JSONDecodeError is a ValueError; a deeply nested document
        # raises RecursionError
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            kind = type(exc).__name__
            raise _BadInput(f"{path}: malformed input ({kind}: {exc})") from exc


def _too_long(source: str) -> _BadInput:
    """The error for a number of a result past str()'s digit limit, which guards the reader."""
    digits = sys.get_int_max_str_digits()
    return _BadInput(f"{source}: a number in the result has more than {digits} digits")


def _usage(msg: str) -> SystemExit:
    sys.stderr.write(f"error: {msg}\n")
    return SystemExit(EXIT_USAGE)


def _seed(ns: argparse.Namespace) -> int:
    """--seed, else TROPICAL_SEED, else 0; read only by commands that sample."""
    if ns.seed is not None:
        return ns.seed
    env = os.environ.get("TROPICAL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _usage(f"TROPICAL_SEED must be an integer, got {env!r}")


def _emit(out, text: str) -> None:
    """Write text, newline-terminated, to the file out, or to stdout if None."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


_encode_str = json.encoder.encode_basestring_ascii


def _json_parts(o, parts: list, pad: str) -> None:
    """Append to parts the text json.dumps writes for o with sorted keys
    and an indent of 2, for a value of dicts (string keys), lists, strings,
    ints and None, nested at indent pad.  The json module encodes any
    indent in pure Python; this writes the same bytes directly."""
    t = type(o)
    if t is str:
        parts.append(_encode_str(o))
    elif t is int:
        parts.append(int.__repr__(o))
    elif o is None:
        parts.append("null")
    elif t is list or t is dict:
        if not o:
            parts.append("[]" if t is list else "{}")
            return
        inner = pad + "  "
        sep = "\n" + inner
        if t is list:
            parts.append("[")
            for x in o:
                parts.append(sep)
                _json_parts(x, parts, inner)
                sep = ",\n" + inner
            parts.append("\n" + pad + "]")
        else:
            parts.append("{")
            for k in sorted(o):
                parts.append(sep)
                parts.append(_encode_str(k))
                parts.append(": ")
                _json_parts(o[k], parts, inner)
                sep = ",\n" + inner
            parts.append("\n" + pad + "}")
    else:
        raise TypeError(f"{t.__name__} is not written as JSON here")


def _json_text(o) -> str:
    """The text json.dumps writes for o with sorted keys and an indent of
    2, for the values _json_parts writes."""
    parts: list = []
    _json_parts(o, parts, "")
    return "".join(parts)


def cmd_nd(ns: argparse.Namespace) -> int:
    if ns.dmax < 1:
        raise _usage("--dmax must be at least 1")
    # stop at the first N_d that str() would refuse, past the digit limit
    digits = sys.get_int_max_str_digits()
    nd = {}
    for d, n in _recursion_terms(ns.dmax):
        if digits and n >= 10**digits:
            raise _usage(f"--dmax {ns.dmax} gives an N_d of more than {digits} digits")
        nd[d] = n
    if ns.json:
        text = json.dumps({str(d): n for d, n in nd.items()}, sort_keys=True)
    else:
        text = "\n".join(f"{d}: {n}" for d, n in nd.items())
    _emit(ns.out, text)
    return EXIT_OK


def _type_digest(t) -> str:
    return hashlib.sha1(repr(canonical_plane_form(t)).encode()).hexdigest()[:12]


def _solution_json(s) -> dict:
    return {
        "type": _type_digest(s.type),
        "codim": s.type.codim(),
        "coordinates": [fraction_str(x) for x in s.coords],
        "mult": s.mult,
        "curve": plane_curve_to_json(s.curve()),
    }


def cmd_count(ns: argparse.Namespace) -> int:
    if ns.d < 1:
        raise _usage("--d must be at least 1")
    if ns.points is None:
        if ns.d > 3:
            raise _usage("direct enumeration is limited to --d 3")
        pc, sols = sampled_fiber(EV, ns.d, _seed(ns))
    else:
        pc = _read_json(ns.points, PointConfig.from_json)
        if len(pc.points) != 3 * ns.d - 1:
            raise _BadInput(
                f"degree {ns.d} needs {3 * ns.d - 1} points, file has {len(pc.points)}"
            )
        sols = fiber(EV, ns.d, pc)
    try:
        report = {
            "map": "ev",
            "d": ns.d,
            "points": pc.to_json()["points"],
            "solutions": [_solution_json(s) for s in sols],
            "total": sum(s.mult for s in sols),
        }
    except ValueError as exc:  # str() of an int past the digit limit
        raise _too_long(ns.points) from exc
    _emit(ns.out, _json_text(report))
    return EXIT_OK


def cmd_invariance(ns: argparse.Namespace) -> int:
    if ns.d < 2:
        raise _usage("--d must be at least 2")
    if ns.d > 3:
        raise _usage("the combined-map fiber is limited to --d 3")
    if ns.trials < 1:
        raise _usage("--trials must be at least 1")
    report = invariance_check(ns.d, ns.trials, _seed(ns))
    _emit(ns.out, f"degree = {report.degree}, invariant: yes")
    return EXIT_OK


def _curve_from_json(data):
    # a fiber report stands for its first solution's curve
    if "solutions" in data:
        if not data["solutions"]:
            raise ValueError("fiber report contains no solutions")
        data = data["solutions"][0]["curve"]
    return plane_curve_from_json(data)


def cmd_intersect(ns: argparse.Namespace) -> int:
    c1, c2 = [_read_json(path, _curve_from_json) for path in ns.files]
    hits = tropical_intersection(c1, c2)
    try:
        lines = [f"{fraction_str(p[0])}, {fraction_str(p[1])}: {m}" for p, m in hits]
    except ValueError as exc:
        raise _too_long(" and ".join(ns.files)) from exc
    lines.append(f"total = {sum(m for _, m in hits)}")
    _emit(ns.out, "\n".join(lines))
    return EXIT_OK


def _svg_render(c) -> str:
    segs = image_segments(c)
    pos = image_positions(c)
    marks = [pos[c.mark_vertex(i)] for i in range(len(c.marks))]
    xs: List[Fraction] = []
    ys: List[Fraction] = []
    for p, v, ln in segs:
        xs.append(p[0])
        ys.append(p[1])
        if ln is not None:
            xs.append(p[0] + ln * v[0])
            ys.append(p[1] + ln * v[1])
    for p in marks:
        xs.append(p[0])
        ys.append(p[1])
    if not xs:
        xs = ys = [Fraction(0)]
    lox, hix = min(xs), max(xs)
    loy, hiy = min(ys), max(ys)
    span = max(hix - lox, hiy - loy, Fraction(1))
    pad = span / 10
    reach = 2 * span  # rays drawn this far; they leave the padded viewport

    def fmt(x) -> str:
        return f"{float(x):.6f}"

    parts = []
    for p, v, ln in segs:
        if ln is None:
            scale = reach / max(abs(v[0]), abs(v[1]))
            q = (p[0] + scale * v[0], p[1] + scale * v[1])
            cls = "ray"
        else:
            q = (p[0] + ln * v[0], p[1] + ln * v[1])
            cls = "edge"
        parts.append(
            f'<line class="{cls}" x1="{fmt(p[0])}" y1="{fmt(-p[1])}" '
            f'x2="{fmt(q[0])}" y2="{fmt(-q[1])}"/>'
        )
    r = span / 80
    for p in marks:
        parts.append(
            f'<circle class="mark" cx="{fmt(p[0])}" cy="{fmt(-p[1])}" r="{fmt(r)}"/>'
        )
    vb = (
        f"{fmt(lox - pad)} {fmt(-hiy - pad)} "
        f"{fmt(hix - lox + 2 * pad)} {fmt(hiy - loy + 2 * pad)}"
    )
    body = "\n  ".join(parts)
    sw = fmt(span / 200)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">\n'
        f'  <g fill="black" stroke="black" stroke-width="{sw}">\n  {body}\n  </g>\n'
        f"</svg>"
    )


def cmd_render(ns: argparse.Namespace) -> int:
    curve = _read_json(ns.file, _curve_from_json)
    try:
        svg = _svg_render(curve)
    except OverflowError as exc:  # beyond float range
        raise _BadInput(f"{ns.file}: coordinates too large to draw") from exc
    _emit(ns.svg, svg)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tropcount",
        description="Count rational plane tropical curves and check the books.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    nd = sub.add_parser("nd", help="print the degree-count table")
    nd.add_argument("--dmax", type=int, required=True)
    nd.add_argument("--json", action="store_true")
    nd.add_argument("--out")
    nd.set_defaults(run=cmd_nd)

    count = sub.add_parser("count", help="evaluation fiber through sampled points")
    count.add_argument("--d", type=int, required=True)
    count.add_argument("--seed", type=int, default=None)
    count.add_argument("--points", metavar="FILE",
                       help="JSON point configuration instead of sampling")
    count.add_argument("--out")
    count.set_defaults(run=cmd_count)

    inv = sub.add_parser("invariance", help="fiber degree across rays and lengths")
    inv.add_argument("--d", type=int, required=True)
    inv.add_argument("--trials", type=int, default=3)
    inv.add_argument("--seed", type=int, default=None)
    inv.add_argument("--out")
    inv.set_defaults(run=cmd_invariance)

    itx = sub.add_parser("intersect", help="stable intersection of two curve files")
    itx.add_argument("files", nargs=2, metavar="FILE")
    itx.add_argument("--out")
    itx.set_defaults(run=cmd_intersect)

    ren = sub.add_parser("render", help="draw a curve file as SVG")
    ren.add_argument("file", metavar="FILE")
    ren.add_argument("--svg", metavar="OUT", help="output path (default stdout)")
    ren.set_defaults(run=cmd_render)

    return p


# built once per process: nothing in it depends on the call
_PARSER = _build_parser()


def main(argv=None) -> int:
    ns = _PARSER.parse_args(argv)
    try:
        return ns.run(ns)
    except GeneralPositionViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DEGENERATE
    except InvarianceViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stdout.write("invariant: no\n")
        return EXIT_NOT_INVARIANT
    except NonTransverse as exc:
        sys.stderr.write(f"error: non-transverse input: {exc}\n")
        return EXIT_NON_TRANSVERSE
    except StructuralViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CENSUS
    except (OSError, _BadInput) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
