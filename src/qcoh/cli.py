"""The ``qcoh`` command line.

Subcommands: series, cohomology, pairing, duality-check, theorem-d,
free-model, reconstruct, verify.  Groups come from ``--preset name --params
k=v ...`` or from a JSON document via ``--group path`` (one of ``preset`` /
``permutations`` / ``table``).  Reports render as markdown or JSON; exit
codes: 0 all checks pass, 1 at least one failed, 2 usage or input error,
3 only hypothesis-not-met outcomes.  Every record comes from one runner,
``_check``, which times its check and turns a cap into SKIPPED, a level-2
quotient that is not free into HYPOTHESIS_NOT_MET and a failed internal
cross-check into FAIL.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Iterator, Optional, Sequence, Union

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


def _check(report: Report, names: Union[str, tuple[str, ...]], fn: Callable[[], Any]) -> bool:
    """Run one check body, time it and add its records; True if the body finished.

    For a single name ``fn`` returns one (status, details, machine) outcome,
    or None for no record; for a tuple of names it returns one outcome per
    name, and the records share the measured time evenly.  An exception
    gives every name the same record: an AssertionError (any failed internal
    cross-check, VerificationError included) is FAIL with the exception's
    ``evidence`` as machine data; NotFreeLevel2 is a single HYPOTHESIS_NOT_MET
    record named after the hypothesis, ``level2-frame``; any other ValueError
    (a cap) is SKIPPED.
    """
    single = isinstance(names, str)
    names = (names,) if single else names
    finished = False
    start = time.perf_counter()
    try:
        outcomes = [fn()] if single else fn()
        finished = True
    except NotFreeLevel2 as exc:
        names, outcomes = ("level2-frame",), [(HYPOTHESIS_NOT_MET, str(exc), None)]
    except ValueError as exc:
        outcomes = [(SKIPPED, str(exc), None)] * len(names)
    except AssertionError as exc:
        outcomes = [(FAIL, str(exc), getattr(exc, "evidence", None))] * len(names)
    share = (time.perf_counter() - start) / len(names)
    for name, outcome in zip(names, outcomes):
        if outcome is not None:
            status, details, machine = outcome
            report.add(name, status, details, share, machine)
    return finished


def _verdict(ok: bool, details: str) -> tuple[str, str, None]:
    return PASS if ok else FAIL, details, None


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
    _check(report, "series-terms", lambda: (
        PASS,
        f"orders {orders}, stabilized at depth {series.stabilized_at}",
        {"orders": orders, "stabilized_at": series.stabilized_at},
    ))
    _check(report, "level3-refinement", lambda: (
        PASS,
        f"order {series.lower3.order}",
        {"order": series.lower3.order, "members": list(series.lower3.members)},
    ))

    def quotient_profile(sub):
        quo = quotient(group, sub).quotient
        profile = order_profile(quo)
        return PASS, f"order {quo.order}, element orders {profile}", {"order": quo.order, "profile": profile}

    for label, sub in (
        ("quotient-level2", series.term(2)),
        ("quotient-level3", series.term(3)),
        ("quotient-refined3", series.lower3),
    ):
        _check(report, label, lambda: quotient_profile(sub))
    return report


def cmd_cohomology(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)
    cap = args.h2_cap

    def h1_basis():
        h1s = h1(group, q)
        return PASS, f"invariant factors {h1s.invariant_factors}", {
            "invariant_factors": list(h1s.invariant_factors),
            "basis_values": [chi.values for chi in h1s.basis],
        }

    # H² is kept on the group, so each check below reads the same space
    def h2_basis():
        space = h2(group, q, cap=cap)
        return PASS, f"invariant factors {space.invariant_factors}", {"invariant_factors": list(space.invariant_factors)}

    def decomposable():
        space = h2(group, q, cap=cap)
        dec = h2_dec(space)
        return PASS, f"order {dec.order} of {space.order}", {"order": dec.order}

    def bockstein():
        bock = img_bockstein(h2(group, q, cap=cap))
        return PASS, f"order {bock.order}", {"order": bock.order}

    def quadratic():
        ring = hat_ring(group, q, cap=cap)
        verdict = ring.quadratic2
        return (
            PASS,
            "cup map identifies the degree-2 tensor quotient with the "
            f"decomposable part: {str(verdict).lower()}",
            {"quadratic": verdict, "dec_order": ring.dec_order},
        )

    if args.deg in ("1", "both"):
        _check(report, "h1-basis", h1_basis)
    if args.deg in ("2", "both") and _check(report, "h2-basis", h2_basis):
        _check(report, "h2-decomposable", decomposable)
        _check(report, "img-bockstein", bockstein)
        _check(report, "quadratic-degree2", quadratic)
    return report


def cmd_pairing(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)

    def pairing():
        top = q_central_series(group, q).term(2)
        floor = triple_of(args.triple).floor(group, q) if args.triple else None
        sp = substitution_pairing(group, q, top, floor)
        rep = sp.report
        return (
            PASS if sp.perfect else FAIL,
            f"left order {rep.left_order}, right order {rep.right_order}, perfect: {sp.perfect}",
            {
                "matrix": rep.matrix.entries,
                "left_order": rep.left_order,
                "right_order": rep.right_order,
                "perfect": sp.perfect,
                "floor_members": list(sp.module.floor.members),
            },
        )

    _check(report, "substitution-pairing", pairing)
    return report


def cmd_duality_check(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    q = _resolve_q(args)
    report = Report(tuple(argv), q=q)
    tri = triple_of(args.triple or "dec-cup")

    def conditions():
        top = tri.top(group, q)
        floor = tri.floor(group, q)
        rep = duality_conditions(group, q, top, floor, tri.alpha_image)
        report.extras["duality"] = {
            "triple": tri.kind,
            "top_order": top.order,
            "floor_order": floor.order,
            "annihilator_members": list(rep.annihilator.members),
            "substituted": rep.substituted,
        }
        return [_verdict(verdict, str(verdict)) for verdict in rep.as_tuple()]

    names = (
        "kernel-matches-preimage",
        "exact-through-coefficients",
        "quotient-kernel-matches",
        "pairing-perfect",
        "annihilator-is-floor",
        "lift-kernels-meet-floor",
    )
    _check(report, names, conditions)
    return report


def cmd_theorem_d(args: argparse.Namespace, argv: Sequence[str]) -> Report:
    group = _resolve_group(args)
    p = args.p
    if p is None:
        raise UsageError("--p is required for theorem-d")
    try:
        if factor_prime_power(p)[1] != 1:
            raise ValueError(f"--p must be a prime, got {p}")
    except ValueError as exc:
        raise UsageError(str(exc))
    report = Report(tuple(argv), q=p)

    def relation_type():
        grt = galois_relation_type(group, p)
        return (
            PASS if grt.passes else HYPOTHESIS_NOT_MET,
            f"free level-2: {grt.free_level2}, Bockstein-by-cup: {grt.bockstein_by_cup}, "
            f"kernel cup-generated: {grt.kernel_cup_generated}",
            {
                "free_level2": grt.free_level2,
                "bockstein_by_cup": grt.bockstein_by_cup,
                "kernel_cup_generated": grt.kernel_cup_generated,
            },
        )

    # the relation type is kept on the group, so the check reuses it
    def intersection():
        rep = lower3_intersection_check(group, p)
        return (
            _theorem_d_status(rep),
            f"refined level-3 order {rep.lower3.order}, intersection order "
            f"{rep.intersection.order}, equal: {rep.equal}",
            {
                "lower3_members": list(rep.lower3.members),
                "intersection_members": list(rep.intersection.members),
                "equal": rep.equal,
            },
        )

    _check(report, "relation-type", relation_type)
    _check(report, "intersection-equals-refined3", intersection)
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

    def reconstruction():
        rows, rec, target, ok = _reconstruction(group, q, tri)
        return (
            PASS if ok else FAIL,
            f"reconstruction isomorphic: {str(ok).lower()} "
            f"(rebuilt order {rec.group.order}, expected order {target.order})",
            {
                "kernel_rows": rows,
                "model_order": rec.model_group.order,
                "annihilator_order": rec.annihilator.order,
                "rebuilt_order": rec.group.order,
                "target_order": target.order,
                "isomorphic": ok,
            },
        )

    _check(report, "reconstruction-isomorphic", reconstruction)
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
    group = model.group
    _check(report, "model", lambda: (
        PASS,
        f"{args.variant} model on {args.d} generator(s): order {group.order}",
        {
            "order": group.order,
            "power_labels": list(model.power_labels),
            "commutator_labels": list(model.commutator_labels),
        },
    ))

    def roundtrip():
        for x in group.elements():
            normal_form_roundtrip(model, x)  # raises if reassembly drifts
        return PASS, f"coordinates reproduce all {group.order} elements", None

    def basis():
        basis = canonical_basis(model)
        return (
            PASS,
            f"{len(basis.elements)} central basis elements: {list(basis.labels)}",
            {"elements": list(basis.elements), "labels": list(basis.labels)},
        )

    def named():
        name = _identify_small(group, q) if group.order <= 512 else None
        return None if name is None else (PASS, f"isomorphic to {name}: true", {"name": name})

    def emit():
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(group_to_document(group), fh, sort_keys=True)
            fh.write("\n")
        return PASS, f"group document written to {args.emit}", None

    _check(report, "normal-form-roundtrip", roundtrip)
    _check(report, "canonical-basis", basis)
    _check(report, "isomorphism-type", named)
    if args.emit:
        _check(report, "emitted", emit)
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


# A suite yields (record name, check body) pairs.  ``cmd_verify`` runs each
# body before the suite resumes, so a body may read the loop variables, and
# a group first built inside a body counts towards that body's time.
_Case = tuple[str, Callable[[], Any]]


def _linalg_selfchecks() -> tuple[str, str, dict]:
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
    return (
        PASS if bad == 0 else FAIL,
        f"{total - bad}/{total} random solvable systems verified "
        "(solve residual, kernel annihilation, span preservation)",
        {"total": total, "failures": bad},
    )


def _suite_linalg(groups: _GroupTable) -> Iterator[_Case]:
    yield "linalg-selfchecks", _linalg_selfchecks


def _dual_basis_case(d: int, q: int) -> tuple[str, str, None]:
    rep = dual_basis_check(d, q)
    return _verdict(
        rep.identity and rep.formulas_match,
        f"identity: {rep.identity}, closed formulas agree: {rep.formulas_match}",
    )


def _suite_dual_basis(groups: _GroupTable) -> Iterator[_Case]:
    for d, q in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2)):
        yield f"dual-basis-{d}-{q}", lambda: _dual_basis_case(d, q)


def _local_global_case(d: int, q: int) -> tuple[str, str, None]:
    rep = local_global_check(d, q)
    return _verdict(
        rep.matches and rep.coefficient_route,
        f"{rep.checked} classes checked, equivalence holds: {rep.matches}",
    )


def _suite_local_global(groups: _GroupTable) -> Iterator[_Case]:
    for d, q in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4), (2, 4)):
        yield f"local-global-{d}-{q}", lambda: _local_global_case(d, q)


def _duality_case(group: FiniteGroup, q: int, tri: DualityTriple) -> tuple[str, str, None]:
    rep = duality_conditions(group, q, tri.top(group, q), tri.floor(group, q), tri.alpha_image)
    return _verdict(rep.as_tuple() == (True,) * 6, f"six conditions: {rep.as_tuple()}")


def _suite_duality(groups: _GroupTable) -> Iterator[_Case]:
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
        for kind in TRIPLE_KINDS:
            yield f"duality-{label}-{kind}", lambda: _duality_case(groups[name], q, triple_of(kind))


def _theorem_d_case(group: FiniteGroup, p: int) -> tuple[str, str, None]:
    rep = lower3_intersection_check(group, p)
    return (
        _theorem_d_status(rep),
        f"equal: {rep.equal}, relation type passes: {rep.relation_type.passes}",
        None,
    )


def _suite_theorem_d(groups: _GroupTable) -> Iterator[_Case]:
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
        yield f"theorem-d-{label}", lambda: _theorem_d_case(groups[label], p)


def _reconstruction_case(group: FiniteGroup, q: int, tri: DualityTriple) -> tuple[str, str, None]:
    ok = _reconstruction(group, q, tri)[3]
    return _verdict(ok, f"isomorphic: {ok}")


def _suite_reconstruction(groups: _GroupTable) -> Iterator[_Case]:
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
            yield f"reconstruct-{label}-{kind}", lambda: _reconstruction_case(groups[label], q, triple_of(kind))


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
    for cases in _SUITES[suite]:
        for name, body in cases(groups):
            _check(report, name, body)
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
