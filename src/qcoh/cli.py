"""The ``qcoh`` command line.

Subcommands: series, cohomology, pairing, duality-check, theorem-d,
free-model, reconstruct, verify.  Groups come from ``--preset name --params
k=v ...`` or from a JSON document via ``--group path`` (one of ``preset`` /
``permutations`` / ``table``).  Reports render as markdown or JSON; exit
codes: 0 all checks pass, 1 at least one failed, 2 usage or input error,
3 only hypothesis-not-met outcomes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Optional, Sequence

import numpy as np

from .cohomology import H2_CAP, h1, h2, h2_dec, hat_ring, img_bockstein
from .duality import (
    DualityTriple,
    Reconstruction,
    dual_basis_check,
    duality_conditions,
    galois_relation_type,
    inflation_kernel_symbolic,
    level2_frame,
    local_global_check,
    lower3_intersection_check,
    reconstruct_quotient,
    substitution_pairing,
    triple_of,
    TRIPLE_KINDS,
    Lower3Report,
    NotFreeLevel2,
    _identify_small,
)
from .errors import VerificationError
from .freemodel import canonical_basis, free_level3, normal_form_roundtrip
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    is_isomorphic,
    order_profile,
    preset,
    q_central_series,
    quotient,
)
from .report import (
    FAIL,
    HYPOTHESIS_NOT_MET,
    PASS,
    SKIPPED,
    GroupSpecError,
    Report,
    group_to_document,
    load_group_document,
)
from .zqlin import ZqMatrix, factor_prime_power, howell_form, kernel, row_span_contains, solve

# parameter names accepted as --params k=v for each preset
_PRESET_KEYS = {
    "cyclic": ("n",),
    "elementary_abelian": ("p", "d"),
    "heisenberg": ("p",),
    "modular": ("p",),
    "dihedral4": (),
    "quaternion8": (),
}


class UsageError(Exception):
    pass


def _parse_params(name: str, tokens: Sequence[str]) -> list[int]:
    keys = _PRESET_KEYS.get(name)
    if keys is None:
        raise UsageError(
            f"unknown preset {name!r}; expected one of {sorted(_PRESET_KEYS)}"
        )
    named: dict[str, int] = {}
    positional: list[int] = []
    for tok in tokens:
        if "=" in tok:
            key, _, val = tok.partition("=")
            if key not in keys:
                raise UsageError(f"preset {name!r} takes {list(keys)}, not {key!r}")
            named[key] = int(val)
        else:
            positional.append(int(tok))
    if named and positional:
        raise UsageError("mix of named and positional --params values")
    if named:
        missing = [k for k in keys if k not in named]
        if missing:
            raise UsageError(f"missing --params values for {missing}")
        return [named[k] for k in keys]
    if len(positional) != len(keys):
        raise UsageError(f"preset {name!r} takes {len(keys)} parameter(s): {list(keys)}")
    return positional


def _resolve_group(args: argparse.Namespace) -> FiniteGroup:
    if bool(args.group) == bool(args.preset):
        raise UsageError("exactly one of --group or --preset is required")
    if args.preset:
        params = _parse_params(args.preset, args.params or [])
        group = preset(args.preset, params) if params else preset(args.preset)
    else:
        group = load_group_document(args.group)
    if group.order > args.max_order:
        raise UsageError(
            f"group order {group.order} exceeds --max-order {args.max_order}"
        )
    return group


def _resolve_q(args: argparse.Namespace) -> int:
    q = getattr(args, "q", None)
    if q is None:
        raise UsageError("--q is required for this command")
    try:
        factor_prime_power(q)
    except ValueError as exc:
        raise UsageError(str(exc))
    return q


def _theorem_d_status(rep: Lower3Report) -> str:
    """PASS if the intersection is the lower-3 subgroup; a mismatch is a FAIL only under the relation type."""
    if rep.equal:
        return PASS
    return FAIL if rep.relation_type.passes else HYPOTHESIS_NOT_MET


def _timed(record_adder, name: str, fn: Callable[[], tuple[str, str, Optional[dict]]]):
    """Run one check, catching cap/hypothesis errors into the record."""
    start = time.perf_counter()
    try:
        status, details, machine = fn()
    except ValueError as exc:
        status, details, machine = SKIPPED, str(exc), None
    record_adder(name, status, details, time.perf_counter() - start, machine)


# ---------------------------------------------------------------------------
# subcommands


def cmd_series(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)
    try:
        series = q_central_series(group, q, depth=args.depth)
    except ValueError as exc:
        raise UsageError(str(exc))
    orders = [t.order for t in series.terms[: series.stabilized_at]]
    report.add(
        "series-terms",
        PASS,
        f"orders {orders}, stabilized at depth {series.stabilized_at}",
        machine={"orders": orders, "stabilized_at": series.stabilized_at},
    )
    report.add(
        "level3-refinement",
        PASS,
        f"order {series.lower3.order}",
        machine={"order": series.lower3.order, "members": list(series.lower3.members)},
    )
    for label, sub in (
        ("quotient-level2", series.term(2)),
        ("quotient-level3", series.term(3)),
        ("quotient-refined3", series.lower3),
    ):
        qd = quotient(group, sub)
        profile = order_profile(qd.quotient)
        report.add(
            label,
            PASS,
            f"order {qd.quotient.order}, element orders {profile}",
            machine={"order": qd.quotient.order, "profile": profile},
        )
    return report


def cmd_cohomology(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)
    degrees = (1, 2) if args.deg == "both" else (int(args.deg),)
    if 1 in degrees:
        h1s = h1(group, q)
        report.add(
            "h1-basis",
            PASS,
            f"invariant factors {h1s.invariant_factors}",
            machine={
                "invariant_factors": list(h1s.invariant_factors),
                "basis_values": [chi.values for chi in h1s.basis],
            },
        )
    if 2 in degrees:
        space = None

        def _h2():
            nonlocal space
            space = h2(group, q, cap=args.h2_cap)
            return (
                PASS,
                f"invariant factors {space.invariant_factors}",
                {"invariant_factors": list(space.invariant_factors)},
            )

        _timed(report.add, "h2-basis", _h2)
        if space is not None:
            dec = h2_dec(space)
            bock = img_bockstein(space)
            report.add(
                "h2-decomposable",
                PASS,
                f"order {dec.order} of {space.order}",
                machine={"order": dec.order},
            )
            report.add(
                "img-bockstein",
                PASS,
                f"order {bock.order}",
                machine={"order": bock.order},
            )
            ring = hat_ring(group, q, cap=args.h2_cap)
            verdict = ring.quadratic2
            report.add(
                "quadratic-degree2",
                PASS,
                "cup map identifies the degree-2 tensor quotient with the "
                f"decomposable part: {str(verdict).lower()}",
                machine={"quadratic": verdict, "dec_order": ring.dec_order},
            )
    return report


def cmd_pairing(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)
    top = q_central_series(group, q).term(2)
    floor = triple_of(args.triple).floor(group, q) if args.triple else None
    sp = substitution_pairing(group, q, top, floor)
    rep = sp.report
    report.add(
        "substitution-pairing",
        PASS if sp.perfect else FAIL,
        f"left order {rep.left_order}, right order {rep.right_order}, "
        f"perfect: {sp.perfect}",
        machine={
            "matrix": rep.matrix.entries,
            "left_order": rep.left_order,
            "right_order": rep.right_order,
            "perfect": sp.perfect,
            "floor_members": list(sp.module.floor.members),
        },
    )
    return report


def cmd_duality_check(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)
    tri = triple_of(args.triple or "dec-cup")
    top = tri.top(group, q)
    floor = tri.floor(group, q)
    names = (
        "kernel-matches-preimage",
        "exact-through-coefficients",
        "quotient-kernel-matches",
        "pairing-perfect",
        "annihilator-is-floor",
        "lift-kernels-meet-floor",
    )
    start = time.perf_counter()
    try:
        rep = duality_conditions(group, q, top, floor, tri.alpha_image)
    except ValueError as exc:
        elapsed = time.perf_counter() - start
        for name in names:
            report.add(name, SKIPPED, str(exc), timing=elapsed / 6)
        return report
    except VerificationError as exc:
        elapsed = time.perf_counter() - start
        for name in names:
            report.add(name, FAIL, str(exc), elapsed / 6, exc.evidence)
        return report
    elapsed = time.perf_counter() - start
    for name, verdict in zip(names, rep.as_tuple()):
        report.add(name, PASS if verdict else FAIL, str(verdict), timing=elapsed / 6)
    report.extras["duality"] = {
        "triple": tri.kind,
        "top_order": top.order,
        "floor_order": floor.order,
        "annihilator_members": list(rep.annihilator.members),
        "substituted": rep.substituted,
    }
    return report


def cmd_theorem_d(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    if args.p is None:
        raise UsageError("--p is required for theorem-d")
    try:
        if factor_prime_power(args.p)[1] != 1:
            raise ValueError(f"--p must be a prime, got {args.p}")
    except ValueError as exc:
        raise UsageError(str(exc))
    report = Report(tuple(argv), q=args.p)
    start = time.perf_counter()
    try:
        grt = galois_relation_type(group, args.p)
    except ValueError as exc:
        for name in ("relation-type", "intersection-equals-refined3"):
            report.add(name, SKIPPED, str(exc))
        return report
    split = time.perf_counter()
    report.add(
        "relation-type",
        PASS if grt.passes else HYPOTHESIS_NOT_MET,
        f"free level-2: {grt.free_level2}, Bockstein-by-cup: {grt.bockstein_by_cup}, "
        f"kernel cup-generated: {grt.kernel_cup_generated}",
        timing=split - start,
        machine={
            "free_level2": grt.free_level2,
            "bockstein_by_cup": grt.bockstein_by_cup,
            "kernel_cup_generated": grt.kernel_cup_generated,
        },
    )
    # the relation type is kept on the group, so the check reuses it
    try:
        rep = lower3_intersection_check(group, args.p)
    except ValueError as exc:
        report.add("intersection-equals-refined3", SKIPPED, str(exc))
        return report
    except VerificationError as exc:
        report.add("intersection-equals-refined3", FAIL, str(exc), time.perf_counter() - split, exc.evidence)
        return report
    report.add(
        "intersection-equals-refined3",
        _theorem_d_status(rep),
        f"refined level-3 order {rep.lower3.order}, intersection order "
        f"{rep.intersection.order}, equal: {rep.equal}",
        timing=time.perf_counter() - split,
        machine={
            "lower3_members": list(rep.lower3.members),
            "intersection_members": list(rep.intersection.members),
            "equal": rep.equal,
        },
    )
    return report


def _reconstruction(
    group: FiniteGroup, q: int, tri: DualityTriple
) -> tuple[np.ndarray, Reconstruction, FiniteGroup, bool]:
    """G/T₀ rebuilt from the kernel data: (kernel rows, reconstruction, G/T₀, isomorphic)."""
    rows = inflation_kernel_symbolic(group, q, tri)
    rec = reconstruct_quotient(level2_frame(group, q).d, q, tri, rows)
    target = quotient(group, tri.floor(group, q)).quotient
    return rows, rec, target, is_isomorphic(rec.group, target)


def cmd_reconstruct(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)
    tri = triple_of(args.triple or "dec-cup")
    try:
        rows, rec, target, ok = _reconstruction(group, q, tri)
    except NotFreeLevel2 as exc:
        report.add("level2-frame", HYPOTHESIS_NOT_MET, str(exc))
        return report
    except ValueError as exc:
        report.add("reconstruction-isomorphic", SKIPPED, str(exc))
        return report
    report.add(
        "reconstruction-isomorphic",
        PASS if ok else FAIL,
        f"reconstruction isomorphic: {str(ok).lower()} "
        f"(rebuilt order {rec.group.order}, expected order {target.order})",
        machine={
            "kernel_rows": rows,
            "model_order": rec.model_group.order,
            "annihilator_order": rec.annihilator.order,
            "rebuilt_order": rec.group.order,
            "target_order": target.order,
            "isomorphic": ok,
        },
    )
    return report


def cmd_free_model(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    if args.d is None or args.q is None:
        raise UsageError("free-model needs --d and --q")
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)
    try:
        model = free_level3(args.d, q, args.variant)
    except ValueError as exc:
        raise UsageError(str(exc))
    report.add(
        "model",
        PASS,
        f"{args.variant} model on {args.d} generator(s): order {model.group.order}",
        machine={
            "order": model.group.order,
            "power_labels": list(model.power_labels),
            "commutator_labels": list(model.commutator_labels),
        },
    )
    for x in model.group.elements():
        normal_form_roundtrip(model, x)  # raises if reassembly drifts
    report.add(
        "normal-form-roundtrip",
        PASS,
        f"coordinates reproduce all {model.group.order} elements",
    )

    def _basis():
        basis = canonical_basis(model)
        return (
            PASS,
            f"{len(basis.elements)} central basis elements: {list(basis.labels)}",
            {"elements": list(basis.elements), "labels": list(basis.labels)},
        )

    _timed(report.add, "canonical-basis", _basis)
    if model.group.order <= 512:
        name = _identify_small(model.group, q)
        if name is not None:
            report.add(
                "isomorphism-type",
                PASS,
                f"isomorphic to {name}: true",
                machine={"name": name},
            )
    if args.emit:
        doc = group_to_document(model.group)
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        report.add("emitted", PASS, f"group document written to {args.emit}")
    return report


# ---------------------------------------------------------------------------
# verify suites


# the groups of the duality, theorem-d and reconstruction suites, by name
_VERIFY_GROUPS = {
    "dihedral4": lambda: preset("dihedral4"),
    "quaternion8": lambda: preset("quaternion8"),
    "cyclic4": lambda: preset("cyclic", [4]),
    "cyclic16": lambda: preset("cyclic", [16]),
    "heisenberg3": lambda: preset("heisenberg", [3]),
    "modular3": lambda: preset("modular", [3]),
    "el33": lambda: preset("elementary_abelian", [3, 2]),
    "sharp22": lambda: free_level3(2, 2, "sharp").group,
    "sharp23": lambda: free_level3(2, 3, "sharp").group,
    "flat23": lambda: free_level3(2, 3, "flat").group,
}


class _GroupTable(dict):
    """The verify groups of one run by name, each built on first use, so the
    suites share each group and the facts kept on it."""

    def __missing__(self, name: str) -> FiniteGroup:
        self[name] = group = _VERIFY_GROUPS[name]()
        return group


def _suite_linalg(report: Report, groups: _GroupTable) -> None:
    rng = np.random.default_rng(20260816)
    bad = 0
    total = 0
    for q in (2, 3, 4, 8, 9):
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 5))
            m = ZqMatrix(rng.integers(0, q, size=(rows, cols)), q)
            x = rng.integers(0, q, size=cols)
            b = (m.entries @ x) % q
            total += 1
            sol = solve(m, b)
            if sol is None or ((m.entries @ sol) % q != b).any():
                bad += 1
                continue
            null = kernel(m)
            if ((m.entries @ null.entries.T) % q).any():
                bad += 1
                continue
            h = howell_form(m)
            if not all(row_span_contains(h, r) for r in m.entries):
                bad += 1
    report.add(
        "linalg-selfchecks",
        PASS if bad == 0 else FAIL,
        f"{total - bad}/{total} random solvable systems verified "
        "(solve residual, kernel annihilation, span preservation)",
        machine={"total": total, "failures": bad},
    )


def _suite_dual_basis(report: Report, groups: _GroupTable) -> None:
    for d, q in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2)):
        rep = dual_basis_check(d, q)
        ok = rep.identity and rep.formulas_match
        report.add(
            f"dual-basis-{d}-{q}",
            PASS if ok else FAIL,
            f"identity: {rep.identity}, closed formulas agree: {rep.formulas_match}",
        )


def _suite_local_global(report: Report, groups: _GroupTable) -> None:
    for d, q in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4), (2, 4)):
        rep = local_global_check(d, q)
        ok = rep.matches and rep.coefficient_route
        report.add(
            f"local-global-{d}-{q}",
            PASS if ok else FAIL,
            f"{rep.checked} classes checked, equivalence holds: {rep.matches}",
        )


def _suite_duality(report: Report, groups: _GroupTable) -> None:
    cases = [
        ("dihedral4", "dihedral4", 2),
        ("quaternion8", "quaternion8", 2),
        ("cyclic4", "cyclic4", 2),
        ("cyclic16-q4", "cyclic16", 4),
        ("heisenberg3", "heisenberg3", 3),
        ("modular3", "modular3", 3),
        ("sharp22", "sharp22", 2),
        ("sharp23", "sharp23", 3),
        ("flat23", "flat23", 3),
    ]
    for label, name, q in cases:
        group = groups[name]
        for kind in TRIPLE_KINDS:
            tri = triple_of(kind)
            try:
                rep = duality_conditions(
                    group, q, tri.top(group, q), tri.floor(group, q), tri.alpha_image
                )
            except VerificationError as exc:
                report.add(f"duality-{label}-{kind}", FAIL, str(exc), machine=exc.evidence)
                continue
            ok = rep.as_tuple() == (True,) * 6
            report.add(
                f"duality-{label}-{kind}",
                PASS if ok else FAIL,
                f"six conditions: {rep.as_tuple()}",
            )


def _suite_theorem_d(report: Report, groups: _GroupTable) -> None:
    cases = [
        ("heisenberg3", 3),
        ("modular3", 3),
        ("el33", 3),
        ("flat23", 3),
        ("sharp23", 3),
        ("cyclic4", 2),
        ("cyclic16", 2),
        ("dihedral4", 2),
        ("quaternion8", 2),
        ("sharp22", 2),
    ]
    for label, p in cases:
        start = time.perf_counter()
        try:
            rep = lower3_intersection_check(groups[label], p)
        except VerificationError as exc:
            report.add(f"theorem-d-{label}", FAIL, str(exc), time.perf_counter() - start, exc.evidence)
            continue
        report.add(
            f"theorem-d-{label}",
            _theorem_d_status(rep),
            f"equal: {rep.equal}, relation type passes: {rep.relation_type.passes}",
            timing=time.perf_counter() - start,
        )


def _suite_reconstruction(report: Report, groups: _GroupTable) -> None:
    cases = [
        ("heisenberg3", 3),
        ("modular3", 3),
        ("el33", 3),
        ("dihedral4", 2),
        ("cyclic4", 2),
        ("quaternion8", 2),
    ]
    for label, q in cases:
        for kind in TRIPLE_KINDS:
            ok = _reconstruction(groups[label], q, triple_of(kind))[3]
            report.add(
                f"reconstruct-{label}-{kind}",
                PASS if ok else FAIL,
                f"isomorphic: {ok}",
            )


_SUITES = {
    "linalg": (_suite_linalg,),
    "dual-basis": (_suite_dual_basis,),
    "local-global": (_suite_local_global,),
    "duality": (_suite_duality,),
    "theorem-d": (_suite_theorem_d,),
    "reconstruction": (_suite_reconstruction,),
    "all": (
        _suite_linalg,
        _suite_dual_basis,
        _suite_local_global,
        _suite_duality,
        _suite_theorem_d,
        _suite_reconstruction,
    ),
}


def cmd_verify(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    suite = args.suite
    if suite not in _SUITES:
        raise UsageError(f"unknown suite {suite!r}; expected one of {sorted(_SUITES)}")
    report = Report(tuple(argv), q=None)
    groups = _GroupTable()
    for fn in _SUITES[suite]:
        start = time.perf_counter()
        before = len(report.records)
        fn(report, groups)
        elapsed = time.perf_counter() - start
        # what the records did not time themselves is spread over the others
        added = report.records[before:]
        untimed = [rec for rec in added if not rec.timing]
        if untimed:
            per = max(elapsed - sum(rec.timing for rec in added), 0.0) / len(untimed)
            for rec in untimed:
                rec.timing = per
    return report


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoh",
        description="Exact mod-q cohomology workbench for finite p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", help="path to a JSON group document")
    common.add_argument("--preset", help="named group constructor")
    common.add_argument(
        "--params",
        nargs="*",
        help="preset parameters, as k=v pairs or bare integers in order",
    )
    common.add_argument("--q", type=int, help="coefficient modulus (prime power)")
    common.add_argument("--p", type=int, help="prime (theorem-d)")
    common.add_argument("--triple", choices=TRIPLE_KINDS, help="duality triple kind")
    common.add_argument("--format", choices=("md", "json"), default="md")
    common.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    common.add_argument("--emit", help="also write the report (or emitted table) here")

    sp = sub.add_parser("series", parents=[common], help="q-central series data")
    sp.add_argument("--depth", type=int, default=None)
    sp.set_defaults(fn=cmd_series)

    cp = sub.add_parser("cohomology", parents=[common], help="H¹/H² structure")
    cp.add_argument("--deg", choices=("1", "2", "both"), default="both")
    cp.add_argument("--h2-cap", type=int, default=H2_CAP)
    cp.set_defaults(fn=cmd_cohomology)

    pp = sub.add_parser("pairing", parents=[common], help="substitution pairing")
    pp.set_defaults(fn=cmd_pairing)

    dp = sub.add_parser(
        "duality-check", parents=[common], help="the six duality conditions"
    )
    dp.set_defaults(fn=cmd_duality_check)

    tp = sub.add_parser(
        "theorem-d", parents=[common], help="refined level-3 intersection formula"
    )
    tp.set_defaults(fn=cmd_theorem_d)

    fp = sub.add_parser("free-model", parents=[common], help="free level-3 models")
    fp.add_argument("--d", type=int, help="number of generators")
    fp.add_argument("--variant", choices=("sharp", "flat"), default="sharp")
    fp.set_defaults(fn=cmd_free_model)

    rp = sub.add_parser(
        "reconstruct", parents=[common], help="rebuild G/T₀ from kernel data"
    )
    rp.set_defaults(fn=cmd_reconstruct)

    vp = sub.add_parser("verify", parents=[common], help="packaged check suites")
    vp.add_argument("suite", nargs="?", default="all")
    vp.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.fn(args, argv)
    except (UsageError, GroupSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = report.render(args.format)
    sys.stdout.write(rendered)
    if args.emit and args.command != "free-model":
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
