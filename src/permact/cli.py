"""Command-line interface.

Exit codes: 0 success, 1 verification failure or internal inconsistency,
2 usage or input error (including input outside a theorem's hypotheses),
3 conjecture counterexample, 141 the reader of standard output stopped early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from functools import lru_cache, partial

from . import action, harness, mahonian, patterns, posets, stacksort, trees, words
from .polynomials import dense, latex_gamma_form, uni
from .words import Boundary, des, descent_poly, maj


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _size(command: str, n: int, least: int) -> int:
    """n, or ValueError (exit 2) when it is below the command's smallest size."""
    if n < least:
        raise ValueError(f"{command} needs --n of at least {least}, got {n}")
    return n


def cmd_stats(args) -> int:
    w = words.parse_word(args.word)
    count_13_2, count_2_31 = patterns.pattern_pair(w)
    letters = sorted(w)
    rank = {a: r for r, a in enumerate(letters, 1)}
    masks = trees.edge_masks([rank[a] for a in w])
    odd, right = ([a for r, a in enumerate(letters, 1) if mask >> r & 1] for mask in masks)
    classes = Counter(words.classify(w))
    stats = {
        "word": list(w),
        "n": len(w),
        "des": des(w),
        "descent_set": sorted(words.descent_set(w)),
        "maj": maj(w),
        **{cls.value: classes[cls] for cls in words.LetterClass},
        "count_2_31": count_2_31,
        "count_13_2": count_13_2,
        "avoids_231": patterns.avoids_231(w),
        "veh": trees.veh(w),
        "odd": odd,
        "redge": right,
    }
    if words.is_permutation(w):
        stats["sort_depth"] = stacksort.sort_depth(w)
        stats["veh_prime"] = mahonian.veh_prime(w)
        stats["siveh"] = mahonian.siveh(w)
        stats["ev"] = sorted(mahonian.ev_set(w))
    _emit_json(stats)
    return 0


def cmd_orbit(args) -> int:
    w = words.parse_word(args.word)
    report = action.orbit(w, Boundary(args.boundary))
    _emit_json(report.to_json_dict())
    return 0


def cmd_sort(args) -> int:
    w = words.parse_word(args.word)
    if args.iterate < 0:
        raise ValueError(f"--iterate must be nonnegative, got {args.iterate}")
    op = stacksort.stack_sort if args.method == "recursive" else stacksort.stack_sort_via_slides
    done = tuple(sorted(w))  # S fixes the increasing word, which it reaches within len(w) passes
    for _ in range(args.iterate):
        if w == done:
            break
        w = op(w)
    print(words.format_word(w))
    return 0


def cmd_class(args) -> int:
    members = stacksort.enumerate_r_sortable(_size("class rsortable", args.n, 0), args.r)
    out = {
        "n": args.n,
        "r": args.r,
        "count": len(members),
        "words": [list(w) for w in members],
    }
    if args.poly == "des":
        out["poly"] = uni(descent_poly(members)).to_json_dict()
    elif args.poly == "peak":
        out["poly"] = uni(dense(Counter(map(words.peak, members)))).to_json_dict()
    elif args.poly == "gamma":
        # {identity} is an orbit in S_1 only: input outside the theorem, not a broken identity
        if _size("class rsortable --poly gamma", args.n, 1) > 1 and args.r == 0:
            raise ValueError("class rsortable --poly gamma needs --r of at least 1 for --n above 1: "
                             "the r-sortable classes are action-invariant for r >= 1")
        cp = action.class_polys(members)
        out["poly"] = {"d": args.n - 1, "gamma": list(cp.b)}
    _emit_json(out)
    return 0


def cmd_apq(args) -> int:
    n = _size("apq", args.n, 1)
    poly = patterns.apq_polynomial(n)
    bs = [patterns.bni_polynomial(n, i) for i in range((n - 1) // 2 + 1)]
    if args.out == "latex":
        print(latex_gamma_form(bs, n - 1))
    else:
        _emit_json({
            "n": n,
            "polynomial": poly.to_json_dict(),
            "b": [b.to_json_dict() for b in bs],
        })
    return 0


# json.dumps with an indent recurses once per nesting level, and a level
# of an unordered tree is two (a dict and its children list): about 490
# levels fit under the default recursion limit
MAX_TREE_DEPTH = 400


def _too_deep(depth: int) -> None:
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"the tree is deeper than {MAX_TREE_DEPTH} levels, too deep to print as JSON")


def _binary_json(root):
    if root is None:
        return None
    out = {"label": root.label, "left": None, "right": None}
    todo = [(root, out, 1)]
    while todo:
        node, into, depth = todo.pop()
        _too_deep(depth)
        for side, child in (("left", node.left), ("right", node.right)):
            if child is not None:
                into[side] = {"label": child.label, "left": None, "right": None}
                todo.append((child, into[side], depth + 1))
    return out


def _unordered_json(tree):
    out = {"label": tree.label, "children": []}
    todo = [(tree, out, 0)]
    while todo:
        node, into, depth = todo.pop()
        _too_deep(depth)
        for child in sorted(node.children, key=lambda c: c.label):
            into["children"].append({"label": child.label, "children": []})
            todo.append((child, into["children"][-1], depth + 1))
    return out


def cmd_tree(args) -> int:
    w = words.parse_word(args.word)
    if args.kind == "binary":
        _emit_json(_binary_json(trees.binary_tree(w)))
    elif args.kind == "unordered":
        _emit_json(_unordered_json(trees.unordered_tree(w)))
    else:
        _emit_json(_unordered_json(mahonian.increasing_tree(w)))
    return 0


def cmd_dyck(args) -> int:
    w = words.parse_word(args.word)
    print(trees.dyck_path(w))
    return 0


def cmd_mahonian(args) -> int:
    n = _size("mahonian", args.n, 0)
    lhs, rhs = mahonian.joint_distributions(n)
    equal = lhs == rhs
    _emit_json({
        "n": n,
        "veh_prime_siveh": [[k[0], k[1], v] for k, v in sorted(lhs.items())],
        "des_maj": [[k[0], k[1], v] for k, v in sorted(rhs.items())],
        "equal": equal,
    })
    return 0 if equal else 1


def cmd_poset(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        P = posets.LabeledPoset.from_json_dict(json.load(fh))
    if args.orbits:
        d = posets.orbit_degree(P)
        hop = partial(posets.psi_x_poset, P)
        reports = [action.verified_orbit(sorted(members), d, Boundary.ZERO).to_json_dict()
                   for members in action.orbits(posets.linear_extensions(P), hop)]
        _emit_json({"poset": P.to_json_dict(), "orbits": reports})
        return 0
    if args.poly:
        _emit_json({"poset": P.to_json_dict(), **posets.wp_polynomial(P).to_json_dict()})
        return 0
    info: dict = {"poset": P.to_json_dict()}
    try:
        grading = posets.sign_grading(P)
        info["sign_graded"] = True
        info["r"] = grading.r
        info["rho"] = {str(e): rank for e, rank in sorted(
            grading.rho.items(), key=lambda kv: str(kv[0])
        )}
    except posets.NotSignGradedError as exc:
        info["sign_graded"] = False
        info["witness"] = [list(map(str, chain)) for chain in exc.witness]
    info["canonical"] = posets.is_canonical(P)
    _emit_json(info)
    return 0


def cmd_table(args) -> int:
    header, rows = harness.build_table(args.kind, _size("table", args.n, 1))
    sys.stdout.write(harness.emit_table(header, rows, args.format).decode("utf-8"))
    sys.stdout.flush()
    return 0


def cmd_verify(args) -> int:
    report = harness.run_suite(args.suite, args.max_n, jobs=args.jobs)
    payload = harness.report_emit(report, args.format, include_timing=args.timing)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
        sys.stdout.flush()
    print(report.summary_line(), file=sys.stderr)
    return report.exit_code()


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The permact argument parser, built once per process: parsing leaves
    it unchanged and returns a fresh namespace each call."""
    parser = argparse.ArgumentParser(
        prog="permact",
        description="Exact verification of hop-action identities on permutations, "
        "stack sorting, vincular patterns, trees, and sign-graded posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="statistics of one word")
    p.add_argument("word")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("orbit", help="orbit of a word under the hops")
    p.add_argument("word")
    p.add_argument("--boundary", choices=["top", "zero"], default="top")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("sort", help="stack sort a word")
    p.add_argument("word")
    p.add_argument("--method", choices=["recursive", "slides"], default="recursive")
    p.add_argument("--iterate", type=int, default=1, metavar="R")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("class", help="enumerate classes of permutations")
    csub = p.add_subparsers(dest="class_kind", required=True)
    c = csub.add_parser("rsortable", help="r-stack-sortable permutations")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--r", type=int, required=True)
    c.add_argument("--poly", choices=["des", "peak", "gamma"])
    c.set_defaults(func=cmd_class)

    p = sub.add_parser("apq", help="refined Eulerian polynomial A_n(p,q,t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", choices=["json", "latex"], default="json")
    p.set_defaults(func=cmd_apq)

    p = sub.add_parser("tree", help="tree of a word as JSON")
    p.add_argument("word")
    p.add_argument("--kind", choices=["binary", "unordered", "increasing"], default="binary")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("dyck", help="pre-order Dyck path of a 231-avoiding word")
    p.add_argument("word")
    p.set_defaults(func=cmd_dyck)

    p = sub.add_parser("mahonian", help="joint distribution report for one n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_mahonian)

    p = sub.add_parser("poset", help="inspect a labeled poset from a JSON file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--orbits", action="store_true")
    group.add_argument("--poly", action="store_true")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("table", help="polynomial tables for a family")
    p.add_argument("kind", choices=["eulerian", "apq", "narayana", "involution"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv", "latex"], default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(harness.SUITES))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--format", choices=["json", "csv", "latex"], default="json")
    p.add_argument("--timing", action="store_true", help="include wall-clock seconds")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that stopped early shows here, not at exit
        return code
    except BrokenPipeError:
        # quiet the interpreter's last flush of stdout and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
