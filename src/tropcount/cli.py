"""Command-line surface: recursion tables, fiber reports, experiments, SVG.

Exit codes: 0 success, 2 usage or input-file problems, 3 no general-position
sample within the retry cap, 4 invariance violation, 5 non-transverse
intersection input, 6 census bookkeeping violation.  Output is byte-stable
for a fixed (command, flags, seed) triple.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

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
from .kontsevich import NonTransverse, StructuralViolation, recursion_nd, tropical_intersection
from .plane import (
    canonical_plane_form,
    image_position,
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


@dataclass
class RunConfig:
    """Parsed invocation: everything a command needs, seed resolved."""

    command: str
    d: int = 0
    seed: int = 0
    trials: int = 0
    out: Optional[str] = None
    format: str = "text"
    inputs: tuple = ()
    points_file: Optional[str] = None
    dmax: int = 0


class _BadInput(Exception):
    """An input file whose content does not describe what was asked for."""


def _read_json(path: str, parse):
    """parse(data) for the JSON document in path; malformed content raises
    _BadInput, which main reports as a usage error."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        # json.JSONDecodeError is a ValueError
        except (ValueError, KeyError, TypeError) as exc:
            kind = type(exc).__name__
            raise _BadInput(f"{path}: malformed input ({kind}: {exc})") from exc


def _usage(msg: str) -> SystemExit:
    sys.stderr.write(f"error: {msg}\n")
    return SystemExit(EXIT_USAGE)


def _default_seed() -> int:
    env = os.environ.get("TROPICAL_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _usage(f"TROPICAL_SEED must be an integer, got {env!r}")


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(cfg.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def cmd_nd(cfg: RunConfig) -> int:
    nd = recursion_nd(cfg.dmax)
    if cfg.format == "json":
        _emit(cfg, json.dumps({str(d): n for d, n in nd.items()}, sort_keys=True))
    else:
        _emit(cfg, "\n".join(f"{d}: {n}" for d, n in nd.items()))
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


def cmd_count(cfg: RunConfig) -> int:
    if cfg.points_file is not None:
        pc = _read_json(cfg.points_file, PointConfig.from_json)
        if len(pc.points) != 3 * cfg.d - 1:
            sys.stderr.write(
                f"error: degree {cfg.d} needs {3 * cfg.d - 1} points, "
                f"file has {len(pc.points)}\n"
            )
            return EXIT_USAGE
        sols = fiber(EV, cfg.d, pc)
    else:
        pc, sols = sampled_fiber(EV, cfg.d, cfg.seed)
    report = {
        "map": "ev",
        "d": cfg.d,
        "points": [[fraction_str(x), fraction_str(y)] for x, y in pc.points],
        "solutions": [_solution_json(s) for s in sols],
        "total": sum(s.mult for s in sols),
    }
    _emit(cfg, json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_invariance(cfg: RunConfig) -> int:
    report = invariance_check(cfg.d, cfg.trials, cfg.seed)
    _emit(cfg, f"degree = {report.degree}, invariant: yes")
    return EXIT_OK


def _curve_from_json(data):
    # a fiber report stands for its first solution's curve
    if "solutions" in data:
        if not data["solutions"]:
            raise ValueError("fiber report contains no solutions")
        data = data["solutions"][0]["curve"]
    return plane_curve_from_json(data)


def _load_curve(path: str):
    return _read_json(path, _curve_from_json)


def cmd_intersect(cfg: RunConfig) -> int:
    c1 = _load_curve(cfg.inputs[0])
    c2 = _load_curve(cfg.inputs[1])
    hits = tropical_intersection(c1, c2)
    total = sum(m for _, m in hits)
    lines = [
        f"{fraction_str(p[0])}, {fraction_str(p[1])}: {m}" for p, m in hits
    ]
    lines.append(f"total = {total}")
    _emit(cfg, "\n".join(lines))
    return EXIT_OK


def _svg_render(c) -> str:
    segs = image_segments(c)
    marks = [
        image_position(c, c.mark_vertex(i)) for i in range(len(c.marks))
    ]
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


def cmd_render(cfg: RunConfig) -> int:
    c = _load_curve(cfg.inputs[0])
    _emit(cfg, _svg_render(c))
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

    count = sub.add_parser("count", help="evaluation fiber through sampled points")
    count.add_argument("--d", type=int, required=True)
    count.add_argument("--seed", type=int, default=None)
    count.add_argument("--points", metavar="FILE",
                       help="JSON point configuration instead of sampling")
    count.add_argument("--out")

    inv = sub.add_parser("invariance", help="fiber degree across rays and lengths")
    inv.add_argument("--d", type=int, required=True)
    inv.add_argument("--trials", type=int, default=3)
    inv.add_argument("--seed", type=int, default=None)
    inv.add_argument("--out")

    itx = sub.add_parser("intersect", help="stable intersection of two curve files")
    itx.add_argument("files", nargs=2, metavar="FILE")
    itx.add_argument("--out")

    ren = sub.add_parser("render", help="draw a curve file as SVG")
    ren.add_argument("file", metavar="FILE")
    ren.add_argument("--svg", metavar="OUT", help="output path (default stdout)")

    return p


def _run_config(ns: argparse.Namespace) -> RunConfig:
    seed = getattr(ns, "seed", None)
    if seed is None:
        seed = _default_seed()
    cfg = RunConfig(command=ns.command, seed=seed)
    if ns.command == "nd":
        if ns.dmax < 1:
            raise _usage("--dmax must be at least 1")
        cfg.dmax = ns.dmax
        cfg.format = "json" if ns.json else "text"
        cfg.out = ns.out
    elif ns.command == "count":
        if ns.d < 1:
            raise _usage("--d must be at least 1")
        if ns.d > 3 and ns.points is None:
            raise _usage("direct enumeration is limited to --d 3")
        cfg.d = ns.d
        cfg.points_file = ns.points
        cfg.out = ns.out
    elif ns.command == "invariance":
        if ns.d < 2:
            raise _usage("--d must be at least 2")
        if ns.trials < 1:
            raise _usage("--trials must be at least 1")
        cfg.d = ns.d
        cfg.trials = ns.trials
        cfg.out = ns.out
    elif ns.command == "intersect":
        cfg.inputs = tuple(ns.files)
        cfg.out = ns.out
    elif ns.command == "render":
        cfg.inputs = (ns.file,)
        cfg.out = ns.svg
    return cfg


_DISPATCH = {
    "nd": cmd_nd,
    "count": cmd_count,
    "invariance": cmd_invariance,
    "intersect": cmd_intersect,
    "render": cmd_render,
}


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    cfg = _run_config(ns)
    try:
        return _DISPATCH[cfg.command](cfg)
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
