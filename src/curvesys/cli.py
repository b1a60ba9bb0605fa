"""Command line interface.

Subcommands mirror the library layers::

    curvesys torus mul 1,0 0,1
    curvesys torus int 2,1 1,1
    curvesys torus twist --along 1,0 --on 0,1 [--neg]
    curvesys torus profile --alpha 1,0 --beta 0,1 --gamma 1,2 --range -2..2
    curvesys scene validate|faces|resolve|census|bigons FILE [--from A --to B]
    curvesys dt validate FILE
    curvesys dt twist FILE --k 2,0,0
    curvesys dt solve FILE OTHER
    curvesys verify [--suite NAME] [--bound N] [--range a..b] [--trials N]
                    [--seed N] [--out PATH]

Exit status: 0 on success, 1 when verification found failures, 2 on usage or
data errors and when a verify worker process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Optional, Sequence, Tuple

from . import harness
from .dtcoords import (
    dt_to_dict,
    load_dt,
    solve_twists,
    twist_multiply,
    validate_coords,
    validate_decomposition,
)
from .errors import CurveSysError
from .scene import (
    components,
    find_bigons,
    resolve,
    trace_faces,
    validate,
)
from .sceneio import load_scene, save_scene, scene_to_dict
from .torus import convexity_profile, dehn_twist, intersection, multiply, normalize

__all__ = ["main"]


def _parse_vec(text: str) -> Tuple[int, int]:
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'X,Y', got {text!r}")


def _parse_range(text: str) -> Tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'a..b', got {text!r}")


def _parse_ints(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="curvesys", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_torus = sub.add_parser("torus", help="torus class arithmetic")
    t_sub = p_torus.add_subparsers(dest="op", required=True)
    for op in ("mul", "int"):
        sp = t_sub.add_parser(op)
        sp.add_argument("a", type=_parse_vec)
        sp.add_argument("b", type=_parse_vec)
    sp = t_sub.add_parser("twist")
    sp.add_argument("--along", type=_parse_vec, required=True)
    sp.add_argument("--on", type=_parse_vec, required=True)
    sp.add_argument("--neg", action="store_true")
    sp = t_sub.add_parser("profile")
    sp.add_argument("--alpha", type=_parse_vec, required=True)
    sp.add_argument("--beta", type=_parse_vec, required=True)
    sp.add_argument("--gamma", type=_parse_vec, required=True)
    sp.add_argument("--range", type=_parse_range, required=True, dest="n_range")

    p_scene = sub.add_parser("scene", help="scene inspection and resolution")
    p_scene.add_argument("op", choices=("validate", "faces", "resolve", "census", "bigons"))
    p_scene.add_argument("file")
    p_scene.add_argument("--from", dest="from_curve")
    p_scene.add_argument("--to", dest="to_curve")
    p_scene.add_argument("--out", help="write resolved scene here instead of stdout")

    p_dt = sub.add_parser("dt", help="twist coordinate operations")
    p_dt.add_argument("op", choices=("validate", "twist", "solve"))
    p_dt.add_argument("file")
    p_dt.add_argument("other", nargs="?", help="second coordinate file (solve)")
    p_dt.add_argument("--k", type=_parse_ints, help="twist exponents (twist)")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", action="append", choices=sorted(harness.SUITES))
    p_verify.add_argument("--bound", type=int, default=4)
    p_verify.add_argument("--range", type=_parse_range, default=(-6, 6), dest="n_range")
    p_verify.add_argument("--gamma-bound", type=int, default=6)
    p_verify.add_argument("--m-max", type=int, default=3)
    p_verify.add_argument(
        "--conv-bound",
        type=int,
        default=None,
        help="class window for the cubic-cost suites (default min(bound, 3))",
    )
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--out", help="write the JSON report here")
    return parser


def _cmd_torus(args: argparse.Namespace) -> int:
    if args.op == "mul":
        print(multiply(normalize(*args.a), normalize(*args.b)))
    elif args.op == "int":
        print(intersection(normalize(*args.a), normalize(*args.b)))
    elif args.op == "twist":
        direction = "negative" if args.neg else "positive"
        print(dehn_twist(normalize(*args.along), normalize(*args.on), direction))
    else:  # profile
        lo, hi = args.n_range
        profile = convexity_profile(
            normalize(*args.alpha), normalize(*args.beta), normalize(*args.gamma), lo, hi
        )
        print("n,value")
        for n in range(lo, hi + 1):
            print(f"{n},{profile.value_at(n)}")
    return 0


def _cmd_scene(args: argparse.Namespace) -> int:
    scene = load_scene(args.file)
    if args.op == "validate":
        diag = validate(scene, require_cellular=False)
        print(f"name: {scene.name}")
        print(f"V={diag.v} E={diag.e} F={diag.f} chi={diag.chi} genus={diag.genus}")
        print(f"connected: {diag.connected}  cellular: {diag.cellular}")
        print(f"face degrees: {list(diag.face_degrees)}")
        for cid, n in sorted(diag.components_per_curve.items()):
            print(f"curve {cid}: {n} component(s)")
        # structurally valid but not a cellular embedding -> exit 1
        return 0 if diag.cellular else 1
    if args.op == "faces":
        for i, face in enumerate(trace_faces(scene)):
            sides = " ".join(f"{h}:{c}" for h, c in face.sides)
            print(f"face {i} degree {face.degree}: {sides}")
        return 0
    if args.op == "census":
        census = components(scene)
        for comp in census.components:
            cls = comp.homology()
            extra = "" if comp.marker_sum is None else f" class={cls or '(0,0)'}"
            print(f"curve {comp.curve}: edges {list(comp.edges)}{extra}")
        return 0
    if not args.from_curve or not args.to_curve:
        print("scene resolve/bigons need --from and --to", file=sys.stderr)
        return 2
    if args.op == "bigons":
        faces = find_bigons(scene, args.from_curve, args.to_curve)
        print(f"{len(faces)} bigon(s)")
        for face in faces:
            print("  sides:", " ".join(f"{h}:{c}" for h, c in face.sides))
        return 0
    resolved = resolve(scene, args.from_curve, args.to_curve)
    if args.out:
        save_scene(resolved, args.out)
    else:
        print(json.dumps(scene_to_dict(resolved)))
    return 0


def _cmd_dt(args: argparse.Namespace) -> int:
    d, x = load_dt(args.file)
    if args.op == "validate":
        shape = validate_decomposition(d)
        validate_coords(d, x)
        print(
            f"genus {shape.genus}, {shape.boundary} boundary component(s), "
            f"{shape.curves} pants curve(s): coordinates valid"
        )
        return 0
    if args.op == "twist":
        if args.k is None:
            print("dt twist needs --k", file=sys.stderr)
            return 2
        print(json.dumps(dt_to_dict(d, twist_multiply(x, args.k))))
        return 0
    if not args.other:
        print("dt solve needs a second file", file=sys.stderr)
        return 2
    d2, x2 = load_dt(args.other)
    if d2 != d:
        print("coordinate files use different decompositions", file=sys.stderr)
        return 2
    print(",".join(str(v) for v in solve_twists(x, x2)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    lo, hi = args.n_range
    # The report goes to a new file beside --out, made before any suite runs so a
    # bad path fails at once.  It replaces --out only once complete, so a failed
    # run leaves --out as it was.
    if args.out and os.path.isdir(args.out):
        raise IsADirectoryError(f"--out {args.out!r} is a directory")
    tmp = f"{args.out}.{os.getpid()}.tmp" if args.out else None
    try:
        report_file = open(tmp, "x") if tmp else nullcontext()
    except OSError as exc:
        # Name the path the user gave, not the temporary file beside it.
        raise OSError(exc.errno, exc.strerror, args.out) from exc
    try:
        with report_file as fh:
            reports = harness.run_all(
                bound=args.bound,
                n_min=lo,
                n_max=hi,
                gamma_bound=args.gamma_bound,
                m_max=args.m_max,
                trials=args.trials,
                seed=args.seed,
                conv_bound=args.conv_bound,
                suites=args.suite,
            )
            for r in reports:
                status = "ok" if r.ok else f"{len(r.failures)} FAILURE(S)"
                print(f"{r.suite:20s} {r.cases:8d} cases  {r.millis:6d} ms  {status}")
                for f in r.failures[:5]:
                    print(f"    {f.clause}: {f.inputs} -> {f.lhs} vs {f.rhs}")
            total = sum(len(r.failures) for r in reports)
            if fh is not None:
                json.dump(harness.report_to_dict(reports), fh, indent=2, sort_keys=True)
                fh.write("\n")
        if tmp:
            os.replace(tmp, args.out)
    finally:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)
    print(f"total: {total} failure(s)")
    return 0 if total == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "torus": _cmd_torus,
        "scene": _cmd_scene,
        "dt": _cmd_dt,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except CurveSysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
