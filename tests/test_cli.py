"""Command-line and report-layer tests.

Group documents exercise all three ingestion forms (preset, permutations,
table).  End-to-end runs go through ``main(argv)`` with captured stdout, so
the exit-code contract (0 pass / 1 fail / 2 usage / 3 hypothesis-not-met)
and the determinism guarantee are checked exactly as a shell user sees them.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qcoh.cli as cli_mod
import qcoh.duality as duality_mod
from qcoh.cli import main
from qcoh.groups import is_isomorphic, preset, whole_group, FiniteGroup
from qcoh.report import (
    FAIL,
    HYPOTHESIS_NOT_MET,
    PASS,
    SKIPPED,
    GroupSpecError,
    Report,
    group_to_document,
    load_group_document,
    parse_group_document,
)


# ---------------------------------------------------------------------------
# group documents


def test_document_preset():
    g = parse_group_document({"preset": {"name": "heisenberg", "params": [3]}})
    assert g.order == 27
    assert is_isomorphic(g, preset("heisenberg", [3]))


def test_document_preset_no_params():
    g = parse_group_document({"preset": {"name": "quaternion8"}})
    assert g.order == 8


def test_document_preset_direct_product():
    doc = {"preset": {"name": "direct_product",
                      "params": [["cyclic", [4]], ["cyclic", [2]]]}}
    g = parse_group_document(doc)
    assert g.order == 8
    assert is_isomorphic(g, preset("direct_product", [("cyclic", [4]), ("cyclic", [2])]))


def test_document_permutations_cycle():
    g = parse_group_document({"permutations": {"degree": 3, "generators": [[2, 3, 1]]}})
    assert g.order == 3
    assert is_isomorphic(g, preset("cyclic", [3]))


def test_document_permutations_dihedral():
    doc = {"permutations": {"degree": 4, "generators": [[2, 3, 4, 1], [1, 4, 3, 2]]}}
    g = parse_group_document(doc)
    assert g.order == 8
    assert is_isomorphic(g, preset("dihedral4"))


@pytest.mark.parametrize(
    "gens",
    [[[1, 2]], [[2, 2, 1]], [[0, 1, 2]], [[2, 3, 4]]],
    ids=["short", "not-a-bijection", "zero-based", "out-of-range"],
)
def test_document_permutations_rejects(gens):
    with pytest.raises(GroupSpecError) as exc:
        parse_group_document({"permutations": {"degree": 3, "generators": gens}})
    assert "$.permutations" in exc.value.location


def test_document_table_roundtrip():
    doc = group_to_document(preset("cyclic", [4]))
    assert set(doc) <= {"table", "labels", "name"}
    g = parse_group_document(doc)
    assert is_isomorphic(g, preset("cyclic", [4]))


def test_document_table_identity_not_first():
    with pytest.raises(GroupSpecError) as exc:
        parse_group_document({"table": [[1, 0], [0, 1]]})
    assert exc.value.location == "$.table"


def test_document_table_not_square():
    with pytest.raises(GroupSpecError):
        parse_group_document({"table": [[0, 1], [1]]})


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"preset": {"name": "cyclic", "params": [2]}, "table": [[0]]},
        {"tabel": [[0]]},
    ],
    ids=["empty", "two-keys", "typo-key"],
)
def test_document_exactly_one_form(doc):
    with pytest.raises(GroupSpecError) as exc:
        parse_group_document(doc)
    assert exc.value.location == "$"


def test_document_labels_applied():
    doc = {"table": [[0, 1], [1, 0]], "labels": ["e", "t"]}
    g = parse_group_document(doc)
    assert g.label(1) == "t"


def test_labeled_table_document_verified_once(monkeypatch):
    """A labeled table document is built and Light-tested once; its labels
    and name round-trip through group_to_document."""
    import qcoh.groups as groups_mod

    base = group_to_document(preset("cyclic", [4]))
    calls = []
    real = groups_mod._check_associative
    monkeypatch.setattr(groups_mod, "_check_associative", lambda *a: calls.append(1) or real(*a))
    doc = {"name": "Z4", "table": base["table"], "labels": ["e", "x", "x2", "x3"]}
    g = parse_group_document(doc)
    assert len(calls) == 1
    assert g.labels == ("e", "x", "x2", "x3") and g.name == "Z4"
    assert group_to_document(g) == doc


@pytest.mark.parametrize(
    "body",
    [{"preset": {"name": "cyclic", "params": [4]}}, {"permutations": {"degree": 4, "generators": [[2, 3, 4, 1]]}}],
    ids=["preset", "permutations"],
)
@pytest.mark.optimized
def test_labeled_preset_and_permutation_documents_verified_once(body, monkeypatch):
    """A labeled preset or permutations document is Light-tested once: the
    labels and name are attached to the group as built, not by a second
    build.  Explicit raises, so it also checks under ``python -O``."""
    import qcoh.groups as groups_mod

    calls = []
    real = groups_mod._check_associative
    monkeypatch.setattr(groups_mod, "_check_associative", lambda *a: calls.append(1) or real(*a))
    g = parse_group_document({**body, "name": "C4", "labels": ["e", "x", "x2", "x3"]})
    if len(calls) != 1:
        raise AssertionError(f"Light's test ran {len(calls)} times")
    if g.labels != ("e", "x", "x2", "x3") or g.name != "C4" or g.table.flags.writeable:
        raise AssertionError(f"labels {g.labels}, name {g.name!r}")
    if not is_isomorphic(g, preset("cyclic", [4])):
        raise AssertionError("the labeled document must still be Z/4")


def test_labeled_non_associative_table_rejected_at_table():
    # a Latin square with identity 0 and self-inverse rows: a loop, not a group
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupSpecError, match="not associative") as exc:
        parse_group_document({"table": loop, "labels": list("abcde")})
    assert exc.value.location == "$.table"


def test_document_reindexes_identity_on_emit():
    base = preset("cyclic", [3])
    # relabel so the identity sits at index 1
    perm = [1, 0, 2]
    inv = [perm.index(k) for k in range(3)]
    table = [
        [perm[base.mul(inv[a], inv[b])] for b in range(3)] for a in range(3)
    ]
    moved = FiniteGroup.from_table(table)
    assert moved.identity == 1
    doc = group_to_document(moved)
    rebuilt = parse_group_document(doc)
    assert rebuilt.identity == 0
    assert is_isomorphic(rebuilt, base)


def test_document_permutations_order_cap():
    # the closure of S7 (order 5040) stops at the 4096-element cap
    doc = {"permutations": {"degree": 7, "generators": [[2, 3, 4, 5, 6, 7, 1], [2, 1, 3, 4, 5, 6, 7]]}}
    with pytest.raises(GroupSpecError, match="order cap"):
        parse_group_document(doc)


def test_load_group_document_missing_file(tmp_path):
    with pytest.raises(GroupSpecError):
        load_group_document(str(tmp_path / "none.json"))


def test_load_group_document_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(GroupSpecError):
        load_group_document(str(path))


# ---------------------------------------------------------------------------
# report object


def _report(*statuses):
    rep = Report(("demo",), q=2)
    for k, status in enumerate(statuses):
        rep.add(f"check-{k}", status, "detail", timing=0.01 * k)
    return rep


@pytest.mark.parametrize(
    "statuses, code",
    [
        ((PASS, PASS), 0),
        ((PASS, FAIL), 1),
        ((FAIL, HYPOTHESIS_NOT_MET), 1),
        ((PASS, HYPOTHESIS_NOT_MET), 0),
        ((HYPOTHESIS_NOT_MET,), 3),
        ((HYPOTHESIS_NOT_MET, HYPOTHESIS_NOT_MET), 3),
        ((SKIPPED, PASS), 0),
        ((SKIPPED,), 0),
        ((), 0),
    ],
)
def test_report_exit_codes(statuses, code):
    assert _report(*statuses).exit_code == code


def test_report_rejects_unknown_status():
    rep = Report(("demo",), q=2)
    with pytest.raises(ValueError):
        rep.add("x", "maybe", "detail")


def test_report_json_roundtrip_and_timings_block():
    rep = _report(PASS, HYPOTHESIS_NOT_MET)
    data = json.loads(rep.render_json())
    assert data["exit_code"] == 0
    assert [r["name"] for r in data["checks"]] == ["check-0", "check-1"]
    assert "timing" not in data["checks"][0]
    assert set(data["timings"]) == {"check-0", "check-1"}
    again = json.loads(rep.render_json())
    assert again == data


def test_report_markdown_mentions_every_record():
    rep = _report(PASS, FAIL, SKIPPED)
    text = rep.render_markdown()
    assert "**PASS** check-0" in text
    assert "**FAIL** check-1" in text
    assert "**SKIPPED** check-2" in text
    assert "exit status: 1" in text
    assert "q = 2" in text


def test_report_modulus_block_prime_power():
    rep = Report(("demo",), q=9)
    data = json.loads(rep.render_json())
    assert data["modulus"] == {"q": 9, "p": 3, "s": 2, "delta": 1}


# ---------------------------------------------------------------------------
# end-to-end command runs


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_series_heisenberg(capsys):
    code, out = _run(capsys, "series", "--preset", "heisenberg", "--params", "3", "--q", "3")
    assert code == 0
    assert "orders [27, 3, 1]" in out
    assert "level3-refinement — order 1" in out


def test_cli_series_cyclic16_q4(capsys):
    code, out = _run(capsys, "series", "--preset", "cyclic", "--params", "16", "--q", "4")
    assert code == 0
    assert "orders [16, 4, 1]" in out
    assert "level3-refinement — order 2" in out


def test_cli_cohomology_klein(capsys):
    code, out = _run(
        capsys, "cohomology", "--preset", "elementary_abelian",
        "--params", "p=2", "d=2", "--q", "2", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["machine"]["h2-basis"]["invariant_factors"] == [2, 2, 2]
    assert data["machine"]["h2-decomposable"]["order"] == 8
    assert data["machine"]["quadratic-degree2"]["dec_order"] == 8


def test_cli_cohomology_rank_one(capsys):
    code, out = _run(capsys, "cohomology", "--preset", "cyclic", "--params", "3",
                     "--q", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["machine"]["h2-basis"]["invariant_factors"] == [3]
    assert data["machine"]["img-bockstein"]["order"] == 3


def test_cli_cohomology_cap_skips(capsys):
    code, out = _run(capsys, "cohomology", "--preset", "heisenberg", "--params", "3",
                     "--q", "3", "--h2-cap", "16")
    assert code == 0
    assert "SKIPPED** h2-basis" in out


def test_cli_cohomology_cap_raised(capsys):
    # order 81 is above the default H² cap; --h2-cap reaches hat_ring too
    code, out = _run(capsys, "cohomology", "--preset", "cyclic", "--params", "81",
                     "--q", "3", "--h2-cap", "81", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["machine"]["h2-basis"]["invariant_factors"] == [3]
    assert data["machine"]["quadratic-degree2"] == {"dec_order": 1, "quadratic": True}


@pytest.mark.parametrize("name", ["heisenberg", "modular"])
@pytest.mark.optimized
def test_cli_cohomology_zero_width_h1_all_pass(capsys, name):
    """At q = 2 a group of order 27 has H¹ = 0, so its tensor quotients have no
    generators; every record still passes.  Explicit raises survive ``python -O``."""
    code, out = _run(capsys, "cohomology", "--preset", name, "--params", "3", "--q", "2",
                     "--format", "json")
    data = json.loads(out)
    statuses = {r["name"]: r["status"] for r in data["checks"]}
    if code != 0 or len(statuses) != 5 or set(statuses.values()) != {PASS}:
        raise AssertionError(f"exit {code}, records {statuses}")
    if data["machine"]["h1-basis"]["invariant_factors"] != [] or data["machine"]["h2-basis"]["invariant_factors"] != []:
        raise AssertionError(f"machine {data['machine']}")


def test_cli_pairing(capsys):
    code, out = _run(capsys, "pairing", "--preset", "dihedral4", "--q", "2")
    assert code == 0
    assert "perfect: True" in out


def test_cli_duality_check(capsys):
    code, out = _run(capsys, "duality-check", "--preset", "modular", "--params", "3",
                     "--q", "3", "--triple", "bock", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(r["status"] == "pass" for r in data["checks"])
    assert data["machine"]["duality"]["triple"] == "bock"


def test_cli_duality_check_cap_skips(capsys):
    # G/T = (Z/2)^7 has order 128, above the H² solver cap
    code, out = _run(capsys, "duality-check", "--preset", "elementary_abelian", "--params", "2", "7",
                     "--q", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [r["status"] for r in data["checks"]] == [SKIPPED] * 6
    assert all("exceeds the H² solver cap 64" in r["details"] for r in data["checks"])


def test_cli_theorem_d_pass(capsys):
    code, out = _run(capsys, "theorem-d", "--preset", "heisenberg", "--params", "3", "--p", "3")
    assert code == 0
    assert "equal: True" in out


def test_cli_theorem_d_cap_skips(capsys):
    # G/T = (Z/2)^7 is free, but its order 128 is above the H² solver cap:
    # the cap must not read as "not free"
    code, out = _run(capsys, "theorem-d", "--preset", "elementary_abelian", "--params", "2", "7",
                     "--p", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [r["status"] for r in data["checks"]] == [SKIPPED] * 2
    assert all("exceeds the H² solver cap 64" in r["details"] for r in data["checks"])


def test_cli_theorem_d_hypothesis_not_met(capsys):
    code, out = _run(capsys, "theorem-d", "--preset", "quaternion8", "--p", "2")
    assert code == 3
    assert "HYPOTHESIS-NOT-MET" in out


def test_cli_theorem_d_times_each_record(capsys):
    code, out = _run(capsys, "theorem-d", "--preset", "heisenberg", "--params", "3", "--p", "3",
                     "--format", "json")
    assert code == 0
    timings = json.loads(out)["timings"]
    assert set(timings) == {"relation-type", "intersection-equals-refined3"}
    assert all(t > 0 for t in timings.values())


@pytest.mark.optimized
def test_fault_theorem_d_meet_mismatch_is_a_fail_record(capsys, monkeypatch):
    """A meet that misses the lower-3 subgroup reads as FAIL records with both member lists, exit 1.

    Checked with explicit raises so it also runs under ``python -O``.
    """
    monkeypatch.setattr(duality_mod, "_named_quotient_meet", lambda group, p: whole_group(group))
    code, out = _run(capsys, "theorem-d", "--preset", "cyclic", "--params", "16", "--p", "2",
                     "--format", "json")
    data = json.loads(out)
    statuses = {r["name"]: r["status"] for r in data["checks"]}
    evidence = data["machine"]["intersection-equals-refined3"]
    if code != 1 or statuses != {"relation-type": PASS, "intersection-equals-refined3": FAIL}:
        raise AssertionError(f"exit {code}, records {statuses}")
    if evidence["lower3_members"] != [0, 4, 8, 12] or evidence["intersection_members"] != list(range(16)):
        raise AssertionError(f"evidence {evidence}")

    code, out = _run(capsys, "verify", "theorem-d", "--format", "json")
    data = json.loads(out)
    failed = [r["name"] for r in data["checks"] if r["status"] == FAIL]
    if code != 1 or "theorem-d-cyclic16" not in failed:
        raise AssertionError(f"exit {code}, failed {failed}")
    if any(set(data["machine"][name]) != {"lower3_members", "intersection_members", "equal"} for name in failed):
        raise AssertionError(f"failed records without both member lists: {data['machine']}")


@pytest.mark.optimized
def test_fault_duality_disagreement_is_a_fail_record(capsys, monkeypatch):
    """Condition (f) flipped by a lift kernel that is the whole group: FAIL records with the six verdicts, exit 1.

    Checked with explicit raises so it also runs under ``python -O``.
    """
    monkeypatch.setattr(duality_mod, "_lift_kernel_mask", lambda group, data, ext: np.ones(group.order, dtype=bool))
    code, out = _run(capsys, "duality-check", "--preset", "heisenberg", "--params", "3", "--q", "3",
                     "--format", "json")
    data = json.loads(out)
    statuses = {r["status"] for r in data["checks"]}
    expected = {"verdicts": [True, True, True, True, True, False]}
    if code != 1 or len(data["checks"]) != 6 or statuses != {FAIL}:
        raise AssertionError(f"exit {code}, records {data['checks']}")
    if any(data["machine"][r["name"]] != expected for r in data["checks"]):
        raise AssertionError(f"evidence {data['machine']}")

    code, out = _run(capsys, "verify", "duality", "--format", "json")
    data = json.loads(out)
    failed = [r["name"] for r in data["checks"] if r["status"] == FAIL]
    if code != 1 or "duality-heisenberg3-dec-cup" not in failed:
        raise AssertionError(f"exit {code}, failed {failed}")
    if any(set(data["machine"][name]) != {"verdicts"} for name in failed):
        raise AssertionError(f"failed records without their verdicts: {data['machine']}")


@pytest.mark.optimized
def test_fault_bare_assertion_is_a_fail_record(capsys, monkeypatch):
    """A bare ``raise AssertionError`` inside a check (no lift found for condition (f))
    reads as FAIL records that carry its message, exit 1; ``verify all`` still
    reports every record of the other suites.

    Checked with explicit raises so it also runs under ``python -O``.
    """
    code, out = _run(capsys, "verify", "all", "--format", "json")
    clean = json.loads(out)["checks"]
    monkeypatch.setattr(duality_mod, "_hom_images", lambda *a, **kw: iter(()))
    message = "no lift exists for a transgressed class"
    code, out = _run(capsys, "duality-check", "--preset", "heisenberg", "--params", "3", "--q", "3",
                     "--format", "json")
    data = json.loads(out)
    if code != 1 or len(data["checks"]) != 6:
        raise AssertionError(f"exit {code}, records {data['checks']}")
    if any(r["status"] != FAIL or r["details"] != message for r in data["checks"]):
        raise AssertionError(f"records {data['checks']}")

    code, out = _run(capsys, "verify", "all", "--format", "json")
    checks = json.loads(out)["checks"]
    failed = {r["name"] for r in checks if r["status"] == FAIL}
    if code != 1 or [r["name"] for r in checks] != [r["name"] for r in clean]:
        raise AssertionError(f"exit {code}, {len(checks)} records")
    if not failed or not all(name.startswith("duality-") for name in failed):
        raise AssertionError(f"failed {sorted(failed)}")
    if any(r["details"] != message for r in checks if r["name"] in failed):
        raise AssertionError("a failed record lost the message")
    if [r for r in checks if r["name"] not in failed] != [r for r in clean if r["name"] not in failed]:
        raise AssertionError("a record outside the failed duality cases changed")


@pytest.mark.optimized
def test_memo_verify_builds_each_group_once(capsys, monkeypatch):
    """One ``verify all`` builds each of its ten groups once; the suites share them."""
    calls = [0]

    def counted(build):
        def wrapper(*a, **kw):
            calls[0] += 1
            return build(*a, **kw)

        return wrapper

    monkeypatch.setattr(cli_mod, "preset", counted(cli_mod.preset))
    monkeypatch.setattr(cli_mod, "free_level3", counted(cli_mod.free_level3))
    code, _ = _run(capsys, "verify", "all", "--format", "json")
    if code != 0 or calls[0] != 10:
        raise AssertionError(f"exit {code}, {calls[0]} group constructions")


def test_cli_every_record_has_its_own_timing(capsys):
    """Every record of ``verify all``, ``theorem-d`` and ``cohomology`` carries a
    positive time, and the timings block has one entry per record."""
    for argv in (
        ("verify", "all"),
        ("theorem-d", "--preset", "heisenberg", "--params", "3", "--p", "3"),
        ("cohomology", "--preset", "dihedral4", "--q", "2"),
    ):
        code, out = _run(capsys, *argv, "--format", "json")
        data = json.loads(out)
        names = [r["name"] for r in data["checks"]]
        assert code == 0
        assert len(set(names)) == len(names) == len(data["timings"])
        assert set(data["timings"]) == set(names)
        assert all(t > 0 for t in data["timings"].values()), data["timings"]


def test_cli_reconstruct(capsys):
    code, out = _run(capsys, "reconstruct", "--preset", "heisenberg", "--params", "3",
                     "--q", "3", "--triple", "dec-cup")
    assert code == 0
    assert "reconstruction isomorphic: true" in out


def test_cli_reconstruct_cap_skips(capsys):
    # G/T = (Z/2)^7 is free, but its order 128 is above the H² solver cap:
    # the cap must not read as a failed hypothesis
    code, out = _run(capsys, "reconstruct", "--preset", "elementary_abelian", "--params", "2", "7",
                     "--q", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [r["status"] for r in data["checks"]] == [SKIPPED]
    assert "exceeds the H² solver cap 64" in data["checks"][0]["details"]


def test_cli_reconstruct_not_free_is_hypothesis_not_met(capsys):
    # G/T = Z/2 is not free over Z/4
    code, out = _run(capsys, "reconstruct", "--preset", "cyclic", "--params", "2", "--q", "4")
    assert code == 3
    assert "HYPOTHESIS-NOT-MET" in out
    assert "not a free module" in out


def test_cli_reconstruct_not_free_beyond_cap_is_hypothesis_not_met(capsys):
    # G/T = (Z/2)^7 is not free over Z/4; that is decided before its order 128 meets the H² cap
    code, out = _run(capsys, "reconstruct", "--preset", "elementary_abelian", "--params", "2", "7", "--q", "4")
    assert code == 3
    assert "not a free module over Z/q" in out


def test_cli_free_model_emit_roundtrip(tmp_path, capsys):
    emitted = tmp_path / "flat23.json"
    code, out = _run(capsys, "free-model", "--d", "2", "--q", "3",
                     "--variant", "flat", "--emit", str(emitted))
    assert code == 0
    assert "order 27" in out
    assert "isomorphic to heisenberg(3): true" in out
    doc = json.loads(emitted.read_text(encoding="utf-8"))
    assert parse_group_document(doc).order == 27
    code, out = _run(capsys, "series", "--group", str(emitted), "--q", "3")
    assert code == 0
    assert "orders [27, 3, 1]" in out


@pytest.mark.parametrize("d", [2, 3])
def test_cli_free_model_flat_q2_emits_the_sharp_document(tmp_path, capsys, d):
    """At q = 2 the δq-th powers of sharp(d,2) are trivial, so the flat group is
    the sharp group itself, and the emitted documents agree byte for byte."""
    paths = {}
    for variant in ("sharp", "flat"):
        paths[variant] = tmp_path / f"{variant}{d}2.json"
        code, _ = _run(capsys, "free-model", "--d", str(d), "--q", "2",
                       "--variant", variant, "--emit", str(paths[variant]))
        assert code == 0
    assert paths["flat"].read_bytes() == paths["sharp"].read_bytes()
    assert json.loads(paths["flat"].read_text(encoding="utf-8"))["name"] == f"sharp({d},2)"


def test_cli_free_model_sharp_has_basis(capsys):
    code, out = _run(capsys, "free-model", "--d", "2", "--q", "2", "--variant", "sharp")
    assert code == 0
    assert "canonical-basis" in out
    assert "SKIPPED" not in out


def test_cli_emit_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = _run(capsys, "series", "--preset", "cyclic", "--params", "4",
                     "--q", "2", "--format", "json", "--emit", str(target))
    assert code == 0
    assert json.loads(target.read_text(encoding="utf-8")) == json.loads(out)


def test_cli_determinism_excluding_timings(capsys):
    argv = ("duality-check", "--preset", "dihedral4", "--q", "2", "--format", "json")
    _, first = _run(capsys, *argv)
    _, second = _run(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--preset", "nosuch", "--q", "2"),
        ("series", "--q", "2"),
        ("series", "--preset", "cyclic", "--params", "4"),
        ("series", "--preset", "cyclic", "--params", "4", "--q", "6"),
        ("series", "--preset", "cyclic", "--params", "4", "--params", "x=1", "--q", "2"),
        ("series", "--preset", "cyclic", "--q", "2"),
        ("series", "--preset", "heisenberg", "--params", "5", "--q", "5",
         "--max-order", "100"),
        ("theorem-d", "--preset", "cyclic", "--params", "4"),
        ("theorem-d", "--preset", "cyclic", "--params", "4", "--p", "4"),
        ("theorem-d", "--preset", "cyclic", "--params", "4", "--p", "6"),
        ("free-model", "--q", "3"),
        ("verify", "nosuite"),
        ("series", "--group", "/nonexistent/g.json", "--q", "2"),
    ],
    ids=[
        "unknown-preset", "no-group", "no-q", "bad-modulus", "bad-param-key",
        "missing-params", "max-order", "theorem-d-no-p", "theorem-d-p-prime-power",
        "theorem-d-p-composite", "free-model-no-d",
        "unknown-suite", "missing-document",
    ],
)
def test_cli_usage_errors_exit_2(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("series", "--preset", "cyclic", "--params", "4", "--q", "2", "--depth", "2"),
         "depth below 3 would truncate the level-3 data"),
        (("free-model", "--d", "0", "--q", "2"), "need at least one generator"),
        (("free-model", "--d", "3", "--q", "4"), "sharp model order 4^9 exceeds the cap 4096"),
    ],
    ids=["series-depth-below-3", "free-model-d-0", "free-model-over-cap"],
)
@pytest.mark.optimized
def test_cli_input_errors_exit_2_with_message(capsys, argv, message):
    """Checked with explicit raises so it also runs under ``python -O``."""
    code = main(list(argv))
    err = capsys.readouterr().err
    if code != 2 or err != f"error: {message}\n":
        raise AssertionError(f"exit {code}, stderr {err!r}")


def test_cli_verify_linalg(capsys):
    code, out = _run(capsys, "verify", "linalg")
    assert code == 0
    assert "200/200" in out


def test_cli_verify_dual_basis(capsys):
    code, out = _run(capsys, "verify", "dual-basis", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["checks"]) == 7
    assert all(r["status"] == "pass" for r in data["checks"])


def test_cli_verify_all_same_under_python_O():
    """Stripping asserts with ``python -O`` changes no verdict and no machine output."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["-m", "qcoh.cli", "verify", "all", "--format", "json"]
    runs = [
        subprocess.Popen([sys.executable, *flags, *argv], env=env, stdout=subprocess.PIPE, text=True)
        for flags in ([], ["-O"])
    ]
    docs = []
    for proc in runs:
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0
        doc = json.loads(out)
        doc.pop("timings")
        docs.append(doc)
    plain, optimized = docs
    assert optimized["machine"] == plain["machine"]
    assert optimized == plain


# ---------------------------------------------------------------------------
# scripts

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
@pytest.mark.optimized
def test_every_script_imports(path):
    """Each script imports against the public API and has a callable ``main``; raises survive ``-O``."""
    spec = importlib.util.spec_from_file_location(f"qcoh_script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not callable(getattr(module, "main", None)):
        raise AssertionError(f"{path.name} has no callable main")
