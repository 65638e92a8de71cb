"""Command-line front end: exact inputs (rationals as NUM/DEN), deterministic
CSV/SVG/JSON artifacts, and reproducible run manifests.

Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import chain, groupby

from .basischange import (_validated_ratio, admissible_matrices,
                          combinatorial_identity_check, jacobian, poly_str,
                          validate_basis, verify_det_identity)
from .cartier import (CartierAlgebraSpec, MixedPair, RelativeChart, sigma,
                      tau_mixed, theorem_b_sides)
from .frobenius import bracket_root, decompose
from .ideals import Ideal, ideal_eq
from .regions import boundary_length, constancy_raster, raster_csv_pieces, \
    three_lines_staircase, staircase_partial_sum
from .rings import PrimeModulus, RingCtx
from .thresholds import fpt_search, jumping_numbers


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fraction(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _ring(args, names=None) -> RingCtx:
    names = tuple(names if names is not None else args.vars.split(","))
    return RingCtx(names, PrimeModulus(args.p),
                   laurent=getattr(args, "laurent", False))


def _parse_pairs(ring, specs):
    pairs = []
    for item in specs:
        gens, _, t = item.rpartition(":")
        if not gens:
            raise UsageError(f"pair {item!r} must look like EXPR,...:NUM/DEN")
        pairs.append((Ideal(ring, [ring.poly(g) for g in gens.split(",")]),
                      _fraction(t)))
    return pairs


def _parse_algebra(ring, text):
    if text is None or text == "full":
        return CartierAlgebraSpec.full_algebra(ring)
    level, _, exprs = text.partition(":")
    if not exprs:
        raise UsageError("algebra must be 'full' or 'e:EXPR[,EXPR...]'")
    e = int(level)
    return CartierAlgebraSpec.from_twists(
        ring, [(e, ring.poly(s)) for s in exprs.split(",")])


def _hash_text(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _write_artifact(path, pieces) -> str:
    """Write the text ``pieces`` to ``path`` one at a time, UTF-8 encoded in
    binary mode, and return the ``_hash_text`` hash of the bytes written:
    the hash of the file itself, with no copy of its whole text."""
    digest = hashlib.blake2b(digest_size=8)
    with open(path, "wb") as fh:
        for piece in pieces:
            data = piece.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _emit(args, command, payload, human_lines):
    if getattr(args, "json", False):
        doc = {"p": args.p, "vars": getattr(args, "vars", "").split(",")
               if getattr(args, "vars", "") else [],
               "command": command, "result": payload,
               "hash": _hash_text(json.dumps(payload, sort_keys=True, default=str))}
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)


def _manifest_path(args, first):
    """Where the run manifest goes: ``--manifest``, or the first artifact's
    path with ``.manifest.json`` appended, or nowhere without either."""
    return args.manifest or (first + ".manifest.json" if first else None)


def _check_outputs(args, *artifacts):
    """Refuse a command whose files (the artifact paths given, in order,
    and the manifest) resolve to one file, before any work: the second
    write would replace the first."""
    paths = [path for path in artifacts if path]
    paths.append(_manifest_path(args, paths[0] if paths else None))
    seen = {}
    for path in filter(None, paths):
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(f"{seen[real]} and {path} are the same file")
        seen[real] = path


def _write_manifest(args, artifacts):
    core = {
        "command": " ".join(args._argv),
        "p": args.p,
        "ring": {"vars": getattr(args, "vars", ""),
                 "laurent": getattr(args, "laurent", False)},
        "budgets": {"depth": getattr(args, "depth", None),
                    "seed": getattr(args, "seed", 0)},
        "artifacts": artifacts,
    }
    manifest = dict(core)
    manifest["manifest_hash"] = _hash_text(json.dumps(core, sort_keys=True))
    manifest["wall_clock_s"] = round(time.time() - args._started, 3)
    path = _manifest_path(args, next(iter(artifacts), None))
    if path:
        with open(path, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
    return manifest


# --- subcommands -------------------------------------------------------------------


def _cmd_tau(args):
    ring = _ring(args)
    pairs = _parse_pairs(ring, args.pair)
    C = _parse_algebra(ring, args.alg)
    tau = tau_mixed(MixedPair.of(pairs), C)
    _emit(args, "tau",
          {"basis": list(tau.basis_strings()), "hash": tau.content_hash()},
          [f"tau = {tau.canonical_str()}", f"hash = {tau.content_hash()}"])
    return 0


def _cmd_fpt(args):
    ring = _ring(args)
    fixed = _parse_pairs(ring, args.fixed or [])
    free = Ideal(ring, [ring.poly(g) for g in args.free.split(",")])
    res = fpt_search(fixed, free, args.depth)
    _emit(args, "fpt",
          {"lo": str(res.lo), "hi": str(res.hi),
           "candidate": str(res.candidate), "evaluations": len(res.transcript)},
          [f"interval = [{res.lo}, {res.hi}]",
           f"candidate = {res.candidate}",
           f"evaluations = {len(res.transcript)}"])
    return 0


def _cmd_jumps(args):
    ring = _ring(args)
    free = Ideal(ring, [ring.poly(g) for g in args.free.split(",")])
    fixed = _parse_pairs(ring, args.fixed or [])
    _check_outputs(args, args.out)
    runs = jumping_numbers(fixed, free, _fraction(args.T), args.depth)
    lines = ["t_start,t_end,class_hash"]
    lines += [f"{a},{b},{h}" for a, b, h in runs]
    artifacts = {}
    if args.out:
        artifacts[args.out] = _write_artifact(
            args.out, (line + "\n" for line in lines))
    _emit(args, "jumps", {"runs": [[str(a), str(b), h] for a, b, h in runs]},
          lines if not args.out else [f"wrote {args.out}"])
    _write_manifest(args, artifacts)
    return 0


def _cmd_raster(args):
    ring = _ring(args)
    pairs = _parse_pairs(ring, args.pair)
    if args.svg and len(pairs) != 2:
        raise UsageError("--svg requires a two-parameter raster")
    _check_outputs(args, args.out, args.svg)
    ideals = [I for I, _ in pairs]
    if args.staircase:
        _check_staircase(args, ring, ideals)
    ras = constancy_raster(ideals, _fraction(args.T), args.depth,
                           C=_parse_algebra(ring, args.alg))
    artifacts = {args.out: _write_artifact(args.out, raster_csv_pieces(ras))}
    if args.svg:
        artifacts[args.svg] = _write_artifact(
            args.svg, _raster_svg(ras, overlay=args.staircase))
    _emit(args, "raster",
          {"cells": len(ras.cells), "classes": ras.class_count(),
           "artifacts": artifacts},
          [f"cells = {len(ras.cells)}", f"classes = {ras.class_count()}",
           f"wrote {args.out}" + (f" and {args.svg}" if args.svg else "")])
    _write_manifest(args, artifacts)
    return 0


def _check_staircase(args, ring, ideals):
    """--staircase overlays the three-lines boundary on the SVG, so it needs
    --svg, an odd p and the pairs x+y, x*y in a polynomial ring of two
    variables (in a Laurent ring x*y is a unit)."""
    if not args.svg:
        raise UsageError("--staircase requires --svg")
    if ring.p % 2 == 0:
        raise UsageError("--staircase requires an odd prime")
    if ring.nvars == 2 and not ring.laurent:
        x, y = ring.gens()
        lines = [Ideal(ring, [x + y]), Ideal(ring, [x * y])]
        if all(map(ideal_eq, ideals, lines)):
            return
    raise UsageError("--staircase requires the pairs x+y and x*y in a "
                     "polynomial ring of two variables")


def _raster_svg(ras, overlay=False, size=600):
    """Cells colored by class hash over a size x size viewport, as pieces of
    text, one per column of cells; the unit box maps to the full viewport
    with t2 pointing up.  Each maximal run of n cells of one class up column
    i, from cell (i, j), is one rect of height n steps, so a one-cell run is
    the rect of that cell alone; the rects come in the order of ``cells``."""
    w = ras.side + 1
    step = size / w
    width = f'" width="{step:.2f}" height="'
    cells = ras.cells

    def columns():
        for i in range(w):
            lead = f'<rect x="{i * step:.2f}" y="'
            parts, top = [], 0
            for h, run in groupby(cells[i * w:(i + 1) * w]):
                n = len(list(run))
                top += n
                parts.append(f'{lead}{size - top * step:.2f}{width}'
                             f'{n * step:.2f}" fill="#{h[:6]}"/>\n')
            yield "".join(parts)

    body = columns()
    if overlay:
        body = chain(body, [_polyline(three_lines_staircase(ras.p, ras.k),
                                      size / float(ras.T), size)])
    return _svg(body, size)


def _svg(body, size=600):
    """A size x size SVG document around ``body``, pieces of text that each
    end in a newline, as an iterator of pieces."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">\n')
    return chain([head], body, ["</svg>\n"])


def _polyline(verts, scale, size=600):
    """The black polyline through ``verts``, y up, scaled by ``scale``, as
    one line of text."""
    pts = " ".join(f"{float(a) * scale:.2f},{size - float(b) * scale:.2f}"
                   for a, b in verts)
    return (f'<polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-width="2"/>\n')


def _cmd_decompose(args):
    base = tuple(args.base.split(",")) if args.base else ()
    names = tuple(args.vars.split(","))
    for b in base:
        if b not in names:
            raise UsageError(f"base variable {b!r} not among --vars")
    ordered = base + tuple(n for n in names if n not in base)
    ring = RingCtx(ordered, PrimeModulus(args.p), laurent=args.laurent,
                   n_base=len(base))
    f = ring.poly(args.poly)
    dec = decompose(f, args.e)
    lines = []
    payload = {}
    for idx in sorted(dec.components):
        label = "(" + ",".join(map(str, idx)) + ")"
        comp = dec.component(idx)
        if base:
            text = " + ".join(f"({poly_str(s)}) (x) F*({poly_str(r)})"
                              for s, r in comp)
        else:
            text = poly_str(comp)
        lines.append(f"{label}: {text}")
        payload[label] = text
    _emit(args, "decompose", payload, lines)
    return 0


def _cmd_bracket_root(args):
    ring = _ring(args)
    I = Ideal(ring, [ring.poly(s) for s in args.ideal.split(";")])
    out = bracket_root(I, args.e)
    _emit(args, "bracket-root",
          {"basis": list(out.basis_strings()), "hash": out.content_hash()},
          [f"root = {out.canonical_str()}", f"hash = {out.content_hash()}"])
    return 0


def _cmd_sigma(args):
    ring = _ring(args)
    C = _parse_algebra(ring, args.alg)
    start = Ideal(ring, [ring.poly(s) for s in args.start.split(";")]) \
        if args.start else Ideal(ring, [ring.one()])
    out = sigma(C, start)
    _emit(args, "sigma",
          {"basis": list(out.basis_strings()), "hash": out.content_hash()},
          [f"sigma = {out.canonical_str()}", f"hash = {out.content_hash()}"])
    return 0


def _cmd_pullback_check(args):
    chart = RelativeChart.build(args.base.split(","), args.fiber.split(","),
                                args.p)
    pairs = _parse_pairs(chart.base_ring, args.pair)
    C = _parse_algebra(chart.base_ring, args.alg)
    lhs, rhs = theorem_b_sides(C, MixedPair.of(pairs), chart)
    ok = ideal_eq(lhs, rhs)
    _emit(args, "pullback-check",
          {"base_extended": list(lhs.basis_strings()),
           "pulled_back": list(rhs.basis_strings()), "agree": ok},
          [f"extended tau  = {lhs.canonical_str()}",
           f"pulled-back tau = {rhs.canonical_str()}",
           f"verdict = {'AGREE' if ok else 'MISMATCH'}"])
    return 0 if ok else 2


def _cmd_xi(args):
    mode = "exhaustive" if args.exhaustive else "random"
    rep = verify_det_identity(args.p, args.n, mode, count=args.random or 0,
                              seed=args.seed)
    msg = (f"{rep.checked}/{rep.checked} pass, "
           f"{rep.pairs_checked} pairs multiplicative, "
           f"xi evaluated on {rep.distinct} distinct matrices")
    _emit(args, "xi",
          {"checked": rep.checked, "pairs": rep.pairs_checked,
           "distinct": rep.distinct, "ok": rep.ok},
          [msg if rep.ok else f"FAILED: {len(rep.counterexamples)} "
           f"counterexamples, first {rep.counterexamples[:3]}"])
    return 0 if rep.ok else 2


def _cmd_xi_comb(args):
    p, n = args.p, args.n
    if args.matrix:
        flat = [int(x) for x in args.matrix.split(",")]
        if len(flat) != n * n:
            raise UsageError(f"--matrix needs {n*n} entries")
        mats = [tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))]
    else:
        mats = list(admissible_matrices(p, n))
    bad = []
    for a in mats:
        lhs, rhs, equal = combinatorial_identity_check(p, n, a)
        if not equal:
            bad.append((a, lhs, rhs))
    _emit(args, "xi-comb",
          {"checked": len(mats), "failures": len(bad)},
          [f"{len(mats) - len(bad)}/{len(mats)} congruences hold"])
    return 0 if not bad else 2


def _cmd_basis_change(args):
    names = tuple(args.old.split(","))
    ring = RingCtx(names, PrimeModulus(args.p), laurent=args.laurent)
    new = [ring.poly(s) for s in args.new.split(",")]
    J = jacobian(new, ring)
    det = J.det()
    is_d, is_p = validate_basis(new, ring)
    lines = ["J = " + "; ".join(", ".join(poly_str(v) for v in row)
                                for row in J.rows),
             f"det J = {poly_str(det)}",
             f"d-basis = {is_d}, p-basis = {is_p}"]
    payload = {"det": poly_str(det), "d_basis": is_d, "p_basis": is_p}
    if is_d:
        # the basis is validated once, above; xi needs only level 1, and
        # the q^n x q^n Frobenius jacobian at level e is not built just to
        # print its size
        xi = _validated_ratio(new, ring, args.e)
        size = (args.p ** args.e) ** len(new)
        lines.append(f"Xi is {size}x{size}")
        lines.append(f"xi = {poly_str(xi)}")
        payload["xi"] = poly_str(xi)
        payload["xi_size"] = size
        lines.append("verdict = xi equals det(J)^(q-1)")
    else:
        lines.append("verdict = not a d/p-basis")
    _emit(args, "basis-change", payload, lines)
    return 0


def _cmd_staircase(args):
    _check_outputs(args, args.svg)
    verts = three_lines_staircase(args.p, args.depth)
    bl = boundary_length(verts)
    partial = staircase_partial_sum(args.p, args.terms)
    lines = [f"({a}, {b})" for a, b in verts]
    lines.append(f"axis length = {bl.axis}, diagonal length = {bl.diagonal:.6f}, "
                 f"total = {bl.total:.6f}")
    lines.append(f"partial flat-series sum ({args.terms} terms) = {partial} "
                 f"= {float(partial):.6f}")
    artifacts = {}
    if args.svg:
        artifacts[args.svg] = _write_artifact(args.svg,
                                              _svg([_polyline(verts, 600)]))
        lines.append(f"wrote {args.svg}")
    _emit(args, "staircase",
          {"vertices": [[str(a), str(b)] for a, b in verts],
           "axis_length": str(bl.axis), "diagonal_length": bl.diagonal,
           "partial_sum": str(partial)},
          lines)
    _write_manifest(args, artifacts)
    return 0


COMMANDS = ("tau", "fpt", "jumps", "raster", "decompose", "bracket-root",
            "sigma", "pullback-check", "xi", "xi-comb", "basis-change",
            "staircase")


def build_parser(only=None) -> _Parser:
    """The charp parser.  Every name in COMMANDS is a subcommand; given
    ``only``, just that one is registered, which leaves the help and the
    errors of a run whose first argument is ``only`` as they are and skips
    the rest."""
    # argparse builds a HelpFormatter for every add_argument, and each asks
    # the terminal for its size unless given a width: ask once, as it does
    fmt = partial(argparse.HelpFormatter,
                  width=shutil.get_terminal_size().columns - 2)
    top = _Parser(prog="charp", description=__doc__, formatter_class=fmt)
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, formatter_class=fmt)
               for name in (COMMANDS if only is None else (only,))}
    command = parsers.get

    def common(sp, vars_flag=True, laurent=True, manifest=False):
        sp.add_argument("--p", type=int, required=True)
        if vars_flag:
            sp.add_argument("--vars", required=True, help="comma-separated")
        if laurent:
            sp.add_argument("--laurent", action="store_true")
        sp.add_argument("--json", action="store_true")
        if manifest:
            sp.add_argument("--manifest", default=None)

    if sp := command("tau"):
        common(sp)
        sp.add_argument("--pair", action="append", required=True,
                        metavar="EXPR,...:NUM/DEN")
        sp.add_argument("--alg", default="full")
        sp.set_defaults(func=_cmd_tau)

    if sp := command("fpt"):
        common(sp)
        sp.add_argument("--fixed", action="append", metavar="EXPR,...:NUM/DEN")
        sp.add_argument("--free", required=True, help="comma-separated")
        sp.add_argument("--depth", type=int, default=6)
        sp.set_defaults(func=_cmd_fpt)

    if sp := command("jumps"):
        common(sp, manifest=True)
        sp.add_argument("--fixed", action="append", metavar="EXPR,...:NUM/DEN")
        sp.add_argument("--free", required=True, help="comma-separated")
        sp.add_argument("--T", required=True)
        sp.add_argument("--depth", type=int, default=3)
        sp.add_argument("--out", default=None)
        sp.set_defaults(func=_cmd_jumps)

    if sp := command("raster"):
        common(sp, manifest=True)
        sp.add_argument("--pair", action="append", required=True)
        sp.add_argument("--alg", default="full")
        sp.add_argument("--T", required=True)
        sp.add_argument("--depth", type=int, required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--svg", default=None)
        sp.add_argument("--staircase", action="store_true")
        sp.set_defaults(func=_cmd_raster)

    if sp := command("decompose"):
        common(sp)
        sp.add_argument("--e", type=int, default=1)
        sp.add_argument("--poly", required=True)
        sp.add_argument("--base", default=None)
        sp.set_defaults(func=_cmd_decompose)

    if sp := command("bracket-root"):
        common(sp)
        sp.add_argument("--e", type=int, default=1)
        sp.add_argument("--ideal", required=True, help="semicolon-separated")
        sp.set_defaults(func=_cmd_bracket_root)

    if sp := command("sigma"):
        common(sp)
        sp.add_argument("--alg", required=True)
        sp.add_argument("--start", default=None)
        sp.set_defaults(func=_cmd_sigma)

    if sp := command("pullback-check"):
        common(sp, vars_flag=False, laurent=False)
        sp.add_argument("--base", required=True)
        sp.add_argument("--fiber", required=True)
        sp.add_argument("--pair", action="append", required=True)
        sp.add_argument("--alg", default="full")
        sp.set_defaults(func=_cmd_pullback_check)

    if sp := command("xi"):
        common(sp, vars_flag=False, laurent=False)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--n", type=int, required=True)
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--exhaustive", action="store_true")
        group.add_argument("--random", type=int, metavar="COUNT")
        sp.set_defaults(func=_cmd_xi)

    if sp := command("xi-comb"):
        common(sp, vars_flag=False, laurent=False)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--matrix", default=None, metavar="a11,a12,...")
        sp.set_defaults(func=_cmd_xi_comb)

    if sp := command("basis-change"):
        common(sp, vars_flag=False)
        sp.add_argument("--old", required=True, help="variable names")
        sp.add_argument("--new", required=True, help="expressions")
        sp.add_argument("--e", type=int, default=1)
        sp.set_defaults(func=_cmd_basis_change)

    if sp := command("staircase"):
        common(sp, vars_flag=False, laurent=False, manifest=True)
        sp.add_argument("--depth", type=int, default=3)
        sp.add_argument("--terms", type=int, default=12)
        sp.add_argument("--svg", default=None)
        sp.set_defaults(func=_cmd_staircase)

    return top


def main(argv=None) -> int:
    from .ideals import BudgetExceeded, VerificationError
    from .thresholds import ThresholdError
    started = time.time()
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        args._started, args._argv = started, argv
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, ZeroDivisionError, OverflowError,
            BudgetExceeded, ThresholdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
