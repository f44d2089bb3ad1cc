"""End-to-end command line tests driven through main() in process."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import descend_to
from efxkit import (
    Allocation,
    batch_efx_slack,
    cli,
    fixedpoint,
    generate_instance,
    is_efx,
    load_instance,
    lovasz,
    normalize,
    oracle,
    rowwise_round_many,
)
from efxkit.fixedpoint import SelfMapViolation
from efxkit.instance import DEFAULT_EFX_TOL

I0_RAW = [[4.0, 1.0], [2.0, 1.0], [2.0, 2.0]]
I0_NORM = [[0.5, 0.25], [0.25, 0.25], [0.25, 0.5]]
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SHAPES = ["10x5", "6x3", "6x2", "5x3"]


def _write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _instance_file(tmp_path, values, name="instance.json"):
    values = [list(map(float, row)) for row in values]
    doc = {"m": len(values), "n": len(values[0]), "values": values}
    return _write_doc(tmp_path / name, doc)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_gen_emits_schema_and_loadable_instance(capsys):
    code, doc = _run(capsys, ["gen", "--m", "4", "--n", "3", "--seed", "7"])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["config"]["command"] == "gen"
    assert doc["m"] == 4 and doc["n"] == 3
    assert len(doc["values"]) == 4 and all(len(row) == 3 for row in doc["values"])


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["gen", "--m", "5", "--n", "2", "--seed", "3", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # sorted keys and a trailing newline make the byte level reproducible
    text = a.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_gen_identical_distribution(capsys):
    code, doc = _run(capsys, ["gen", "--m", "6", "--n", "3", "--dist", "identical", "--seed", "1"])
    assert code == 0
    values = np.asarray(doc["values"])
    assert np.array_equal(values[:, 0], values[:, 1])
    assert np.array_equal(values[:, 0], values[:, 2])


def test_gen_integer_distribution_respects_kmax(capsys):
    code, doc = _run(
        capsys, ["gen", "--m", "8", "--n", "2", "--dist", "integer", "--kmax", "5", "--seed", "2"]
    )
    assert code == 0
    values = np.asarray(doc["values"])
    assert np.array_equal(values, np.round(values))
    assert values.min() >= 1 and values.max() <= 5


def test_check_reports_efx_with_one_based_owners(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    alloc = _write_doc(tmp_path / "alloc.json", {"owner": [1, 1, 2]})
    code, doc = _run(capsys, ["check", "--instance", inst, "--allocation", alloc])
    assert code == 0
    assert doc["efx"] is True
    assert doc["slack"] == pytest.approx(-1.0)
    assert doc["violations"] == []


def test_check_lists_violating_pairs(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    alloc = _write_doc(tmp_path / "alloc.json", {"owner": [2, 2, 2]})
    code, doc = _run(capsys, ["check", "--instance", inst, "--allocation", alloc])
    assert code == 0
    assert doc["efx"] is False
    assert doc["violations"]
    worst = max(v["slack"] for v in doc["violations"])
    assert doc["slack"] == pytest.approx(worst)
    assert {v["envious"] for v in doc["violations"]} <= {1, 2}


def test_check_rejects_zero_based_owner_document(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    alloc = _write_doc(tmp_path / "alloc.json", {"owner": [0, 1, 1]})
    code = cli.main(["check", "--instance", inst, "--allocation", alloc])
    assert code == 2
    assert "outside 1..2" in capsys.readouterr().err


def test_oracle_lists_witnesses_in_scan_order(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    code, doc = _run(capsys, ["oracle", "--instance", inst, "--all"])
    assert code == 0
    assert doc["exists"] is True
    assert doc["allocations_scanned"] == 8
    assert doc["witness_count"] == 2
    assert doc["witnesses"] == [[1, 1, 2], [1, 2, 2]]


def test_oracle_cap_limits_witness_list(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    code, doc = _run(capsys, ["oracle", "--instance", inst, "--cap", "1"])
    assert code == 0
    assert doc["witness_count"] == 2  # counting continues past the cap
    assert doc["witnesses"] == [[1, 1, 2]]


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_single_item_oracle_and_check(tmp_path, capsys, n):
    inst = _instance_file(tmp_path, [[1.0 + agent for agent in range(n)]])
    code, doc = _run(capsys, ["oracle", "--instance", inst])
    assert code == 0
    assert (doc["exists"], doc["witness_count"], doc["allocations_scanned"]) == (True, n, n)
    assert doc["witnesses"] == [[agent] for agent in range(1, n + 1)]
    alloc = _write_doc(tmp_path / "alloc.json", {"owner": [n]})
    code, doc = _run(capsys, ["check", "--instance", inst, "--allocation", alloc])
    assert code == 0
    assert doc["efx"] is True and doc["slack"] == 0.0 and doc["violations"] == []


def test_lovasz_descends_and_rounds(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    code, doc = _run(capsys, ["lovasz", "--instance", inst])
    assert code == 0
    assert doc["form"] == "monotone" and doc["threshold"] == 1.0
    assert doc["objective"] <= 1.0 + 1e-6  # an EFX allocation exists here
    assert doc["removed_agents"] == []
    rounding = doc["rounding"]
    assert doc["verdict"] == ("efx-found" if rounding["efx"] else "inconclusive")
    assert len(rounding["owner"]) == 3 and set(rounding["owner"]) <= {1, 2}
    assert 0 <= rounding["pick"] < rounding["draws"]
    assert rounding["efx"] == (rounding["slack"] <= DEFAULT_EFX_TOL)
    assert (rounding["efx_draws"] >= 1) == rounding["efx"]


@pytest.mark.parametrize("shape", GOLDEN_SHAPES)
def test_lovasz_picks_the_first_best_of_its_draws(capsys, shape):
    # The document's owner is the first draw with the smallest batch slack
    # among 64 row-wise roundings of the document's own point.
    path = GOLDEN / f"gen-{shape}.json"
    code, doc = _run(capsys, ["lovasz", "--instance", str(path)])
    assert code == 0 and doc["removed_agents"] == []
    owners = rowwise_round_many(np.array(doc["x"]), doc["config"]["seed"], 64)
    slacks = batch_efx_slack(normalize(load_instance(path)), owners)
    rounding = doc["rounding"]
    assert rounding["owner"] == (owners[slacks.argmin()] + 1).tolist()
    assert rounding["efx_draws"] == int((slacks <= DEFAULT_EFX_TOL).sum())
    assert rounding["slack"] == slacks.min()


def _gen(tmp_path, m, n, seed):
    path = str(tmp_path / f"gen-{m}x{n}-{seed}.json")
    assert cli.main(["gen", "--m", str(m), "--n", str(n), "--seed", str(seed), "--output", path]) == 0
    return path


@pytest.mark.parametrize("seed, stop, checkpoints", [(4, 0, 1), (1, 25, 2), (5, 50, 3), (6, 100, 4)])
def test_lovasz_stops_at_a_checkpoint_with_the_point_of_that_many_steps(tmp_path, capsys, seed, stop, checkpoints):
    # (12,4) uniform01 instances whose first EFX draw comes at different checkpoints.
    path = _gen(tmp_path, 12, 4, seed)
    code, doc = _run(capsys, ["lovasz", "--instance", path])
    assert code == 0 and doc["verdict"] == "efx-found"
    assert (doc["stopped_at"], doc["iterations"], doc["checkpoints"]) == (stop, stop, checkpoints)
    x, objective, _ = descend_to(normalize(load_instance(path)), stop, doc["config"]["step0"])
    assert np.array(doc["x"]).tobytes() == x.tobytes()
    assert doc["objective"] == objective


def test_lovasz_budget_cuts_the_ladder_and_rounds_at_the_budget(tmp_path, capsys):
    # The steps at which the builder rounds when no draw is EFX: under a stub
    # descent whose point is its step, each rounding records the step.  The
    # stub ends after 4000 steps, so a builder that misses its budget fails.
    rounded = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lovasz, "descend", lambda inst, step0: ((k, 0.0, np.int64(k), 0.0) for k in range(4000)))
        patch.setattr(cli, "_round_draws", lambda inst, x, seed, tol: rounded.append(x) or {"efx": False})
        for budget, ladder in [
            (2000, [0, 25, 50, 100, 200, 400, 800, 1200, 1600, 2000]),
            (400, [0, 25, 50, 100, 200, 400]),
            (30, [0, 25, 30]),
            (1, [0, 1]),
        ]:
            rounded.clear()
            patch.setattr(cli, "ANYTIME_BUDGET", budget)
            run = cli._lovasz_doc(None, 0, DEFAULT_EFX_TOL)
            assert (rounded, run["iterations"], run["checkpoints"]) == (ladder, budget, len(ladder))
    # This instance's first EFX draw comes at checkpoint 50 under the full
    # budget; a budget of 40 rounds at 0, 25 and 40, and finds one at 40.
    path = _gen(tmp_path, 12, 4, 5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "ANYTIME_BUDGET", 40)
        code, doc = _run(capsys, ["lovasz", "--instance", path])
    assert code == 0 and doc["verdict"] == "efx-found"
    assert doc["config"]["iters"] == 40
    assert (doc["stopped_at"], doc["iterations"], doc["checkpoints"]) == (40, 40, 3)
    inst = normalize(load_instance(path))
    x, objective, _ = descend_to(inst, 40, doc["config"]["step0"])
    assert np.array(doc["x"]).tobytes() == x.tobytes() and doc["objective"] == objective
    owners = rowwise_round_many(x, doc["config"]["seed"], 64)
    assert doc["rounding"]["owner"] == (owners[batch_efx_slack(inst, owners).argmin()] + 1).tolist()


def test_lovasz_takes_a_budget_far_past_memory_without_building_its_ladder(capsys, monkeypatch):
    # The ladder is walked lazily, so a budget of 10**18 steps costs nothing
    # until its checkpoints are due; this instance's first draws find EFX.
    monkeypatch.setattr(cli, "ANYTIME_BUDGET", 10**18)
    code, doc = _run(capsys, ["lovasz", "--instance", str(GOLDEN / "gen-6x3.json")])
    assert code == 0 and doc["verdict"] == "efx-found"
    assert (doc["stopped_at"], doc["iterations"], doc["checkpoints"]) == (0, 0, 1)


def test_lovasz_without_an_efx_draw_spends_its_budget(tmp_path, capsys, monkeypatch):
    # No draw at (24,6) seed 0 is EFX in the first 60 steps, step 0's included.
    path = _gen(tmp_path, 24, 6, 0)
    monkeypatch.setattr(cli, "ANYTIME_BUDGET", 60)
    code, doc = _run(capsys, ["lovasz", "--instance", path])
    assert code == 0 and doc["verdict"] == "inconclusive"
    assert (doc["stopped_at"], doc["iterations"], doc["checkpoints"]) == (None, 60, 4)
    assert doc["rounding"]["efx"] is False and doc["rounding"]["efx_draws"] == 0
    x, objective, _ = descend_to(normalize(load_instance(path)), 60, doc["config"]["step0"])
    assert np.array(doc["x"]).tobytes() == x.tobytes() and doc["objective"] == objective


def test_lovasz_prefilters_zero_value_agents(tmp_path, capsys):
    values = [[4.0, 1.0, 0.0], [2.0, 1.0, 0.0], [2.0, 2.0, 0.0]]
    inst = _instance_file(tmp_path, values)
    code, doc = _run(capsys, ["lovasz", "--instance", inst])
    assert code == 0
    assert doc["removed_agents"] == [3]
    assert len(doc["x"][0]) == 2  # solved on the two agents that remain
    # With the middle agent dropped, the owners still number the loaded agents.
    inst = _instance_file(tmp_path, [[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [1.0, 0.0, 1.0], [2.0, 0.0, 5.0]])
    code, doc = _run(capsys, ["lovasz", "--instance", inst])
    assert code == 0 and doc["removed_agents"] == [2]
    owner = doc["rounding"]["owner"]
    assert set(owner) <= {1, 3}
    assert is_efx(load_instance(inst), Allocation(np.array(owner) - 1)).ok == doc["rounding"]["efx"]


def test_lovasz_needs_two_positive_agents(tmp_path, capsys):
    inst = _instance_file(tmp_path, [[1.0, 0.0], [1.0, 0.0]])
    code = cli.main(["lovasz", "--instance", inst])
    assert code == 2
    assert "fewer than two agents" in capsys.readouterr().err


def test_extension_eval_scores(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    y = _write_doc(tmp_path / "y.json", {"y": [[0.0, -5.0], [-5.0, 0.0], [-5.0, 0.0]]})
    code, doc = _run(
        capsys, ["extension", "eval", "--instance", inst, "--y", y, "--lambdas", "1,10"]
    )
    assert code == 0
    assert doc["f"] == pytest.approx(-0.25)
    assert len(doc["g"]) == 2 and all(np.isfinite(doc["g"]))
    assert doc["bound"] == pytest.approx([np.log(6.0), np.log(6.0) / 10.0])


def test_extension_eval_fractional_point(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    x = _write_doc(tmp_path / "x.json", {"x": [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]})
    code, doc = _run(capsys, ["extension", "eval", "--instance", inst, "--x", x])
    assert code == 0
    assert doc["f"] is None
    assert len(doc["g"]) == len(doc["bound"]) == 4


def test_extension_eval_argument_errors(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    y = _write_doc(tmp_path / "y.json", {"y": [[0.0, -5.0], [-5.0, 0.0], [-5.0, 0.0]]})
    x = _write_doc(tmp_path / "x.json", {"x": [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]})
    assert cli.main(["extension", "eval", "--instance", inst]) == 2
    assert cli.main(["extension", "eval", "--instance", inst, "--y", y, "--x", x]) == 2
    bad = cli.main(["extension", "eval", "--instance", inst, "--y", y, "--lambdas", "10,1"])
    assert bad == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert cli.main(["extension", "eval", "--instance", inst, "--y", y, "--lambdas", "0,1"]) == 2


def test_extension_eval_rejects_off_polytope_point(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    x = _write_doc(tmp_path / "x.json", {"x": [[0.9, 0.0], [0.0, 1.0], [0.0, 1.0]]})
    code = cli.main(["extension", "eval", "--instance", inst, "--x", x])
    assert code == 2
    assert "distributions over agents" in capsys.readouterr().err


def test_extension_eval_rejects_a_negative_entry_within_the_sum_tolerance(tmp_path, capsys):
    # The row sums to one within the tolerance, but the log of its negative entry is NaN.
    inst = _instance_file(tmp_path, I0_RAW)
    x = _write_doc(tmp_path / "x.json", {"x": [[1.00000000001, -0.00000000001], [0.5, 0.5], [0.5, 0.5]]})
    assert cli.main(["extension", "eval", "--instance", inst, "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: x rows must be distributions over agents" in captured.err


def test_extension_eval_scores_whose_objective_overflows_are_an_input_error(tmp_path, capsys):
    # Finite scores whose row maxima sum beyond the float range.
    inst = _instance_file(tmp_path, I0_RAW)
    y = _write_doc(tmp_path / "y.json", {"y": [[-1e308, -1e308]] * 3})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["extension", "eval", "--instance", inst, "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --y:" in captured.err


def test_dca_finds_efx_on_reference_instance(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    code, doc = _run(capsys, ["dca", "--instance", inst])
    assert code == 0
    assert doc["efx"] is True
    assert doc["owner"] == [1, 1, 2]
    assert doc["objective"] <= 1e-9
    assert doc["status"] in ("converged", "max-iters")
    assert doc["selected_start"] == 0
    assert len(doc["starts"]) == 1
    assert doc["trace"][-1]["objective"] == pytest.approx(doc["objective"])


def test_dca_multi_start_is_deterministic(tmp_path):
    inst = _instance_file(tmp_path, I0_RAW)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["dca", "--instance", inst, "--starts", "3", "--seed", "11"]
    for path in (a, b):
        assert cli.main(argv + ["--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert len(doc["starts"]) == 3


def test_dca_descent_check_scales_with_the_values(tmp_path, capsys):
    # At 1.3e7 a start's LP objective rose by 4.8e-7, rounding error at that
    # magnitude, which an absolute 1e-9 slack called a violated descent.
    values = generate_instance(7, 4, "integer", 4).values * 1e6
    inst = _instance_file(tmp_path, values)
    code, doc = _run(capsys, ["dca", "--instance", inst, "--starts", "4"])
    assert code == 0, capsys.readouterr().err
    assert len(doc["starts"]) == 4


def test_fixedpoint_reports_all_starts(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    code, doc = _run(
        capsys,
        ["fixedpoint", "--instance", inst, "--starts", "2", "--seed", "5"],
    )
    assert code == 0
    assert doc["map"] == "Ttilde"
    assert len(doc["starts"]) == 2
    assert doc["selected_start"] in (0, 1)
    assert len(doc["owner"]) == 3 and set(doc["owner"]) <= {1, 2}
    assert isinstance(doc["converged"], bool)
    for row in doc["stuck_rows"]:
        assert row["rowmax"] < 0
        assert 1 <= row["item"] <= 3
    for item in doc["violations"]:
        assert item["slack"] > 0


def test_fixedpoint_internal_check_exits_three(tmp_path, capsys, monkeypatch):
    inst = _instance_file(tmp_path, I0_NORM)

    def escaping_step(yt):
        raise SelfMapViolation("image coordinate (0, 0) = 1.0 left the box")

    monkeypatch.setattr(fixedpoint, "_clamp_step", lambda inst_, map_name, m_const: escaping_step)
    code = cli.main(["fixedpoint", "--instance", inst, "--starts", "1"])
    assert code == 3
    assert "internal check failed" in capsys.readouterr().err


def test_compare_records_a_box_escape_as_a_method_error(tmp_path, capsys, monkeypatch):
    inst = _instance_file(tmp_path, I0_RAW)
    _, clean = _run(capsys, ["compare", "--instance", inst])
    message = "image coordinate (0, 0) = 1.0 left the box"

    def escaping_step(yt):
        raise SelfMapViolation(message)

    monkeypatch.setattr(fixedpoint, "_clamp_step", lambda inst_, map_name, m_const: escaping_step)
    code, doc = _run(capsys, ["compare", "--instance", inst])
    assert code == 0
    *others, row = doc["rows"]
    assert row["method"] == "fixedpoint-Ttilde"
    assert row["flag"] == "method-error" and row["error"] == message
    assert {"method": "fixedpoint-Ttilde", "flag": "method-error"} in doc["findings"]
    for before, after in zip(clean["rows"][:-1], others, strict=True):
        assert {**before, "wall_time_s": 0} == {**after, "wall_time_s": 0}


def test_compare_runs_all_methods(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    csv_path = tmp_path / "rows.csv"
    code, doc = _run(capsys, ["compare", "--instance", inst, "--csv", str(csv_path)])
    assert code == 0
    assert doc["oracle_exists"] is True
    methods = [row["method"] for row in doc["rows"]]
    assert methods == ["oracle", "lovasz", "dca", "fixedpoint-Ttilde"]
    oracle_row = doc["rows"][0]
    assert oracle_row["found_efx"] is True
    assert oracle_row["iterations"] == 8
    assert oracle_row["objective"] == pytest.approx(-0.25)  # smallest EFX slack over the scan
    for row in doc["rows"]:
        assert row["error"] is None
        assert row["wall_time_s"] >= 0.0
    flagged = {f["method"] for f in doc["findings"]}
    assert flagged <= {"lovasz", "dca", "fixedpoint-Ttilde"}
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["method"] for r in rows] == methods
    assert rows[0]["found_efx"] == "True"


def test_compare_csv_header_order(tmp_path):
    inst = _instance_file(tmp_path, I0_RAW)
    csv_path = tmp_path / "rows.csv"
    assert cli.main(["compare", "--instance", inst, "--csv", str(csv_path), "--output", str(tmp_path / "doc.json")]) == 0
    with open(csv_path, newline="") as handle:
        header = next(csv.reader(handle))
    assert header == ["method", "found_efx", "objective", "iterations", "wall_time_s", "flag", "error"]


# Dyadic columns summing to exactly one: normalizing leaves them unchanged,
# so compare's rows see the very instance the commands load.
DYADIC = [[0.5, 0.25, 0.125], [0.25, 0.25, 0.375], [0.125, 0.25, 0.25], [0.125, 0.25, 0.25]]


@pytest.mark.parametrize(
    "seed, starts",
    [
        # Both seeds round to the same EFX allocation, from draws 1 and 2.
        pytest.param("0", (cli.DCA_STARTS, cli.FIXEDPOINT_STARTS), id="0"),
        pytest.param("2", (cli.DCA_STARTS, cli.FIXEDPOINT_STARTS), id="2"),
        # The rows read the commands' start counts, whatever they are.
        pytest.param("0", (2, 3), id="0-starts-2-3"),
    ],
)
def test_compare_rows_run_what_the_commands_run(tmp_path, capsys, monkeypatch, seed, starts):
    dca_starts, fixedpoint_starts = starts
    monkeypatch.setattr(cli, "DCA_STARTS", dca_starts)
    monkeypatch.setattr(cli, "FIXEDPOINT_STARTS", fixedpoint_starts)
    inst = _instance_file(tmp_path, DYADIC)
    code, doc = _run(capsys, ["compare", "--instance", inst, "--seed", seed])
    assert code == 0
    rows = {row["method"]: row for row in doc["rows"]}
    code, lovasz_doc = _run(capsys, ["lovasz", "--instance", inst, "--seed", seed])
    assert code == 0
    assert (rows["lovasz"]["found_efx"], rows["lovasz"]["objective"], rows["lovasz"]["iterations"]) == (
        lovasz_doc["rounding"]["efx"],
        lovasz_doc["objective"],
        lovasz_doc["iterations"],
    )
    code, dca_doc = _run(capsys, ["dca", "--instance", inst, "--seed", seed, "--starts", str(dca_starts)])
    assert code == 0
    assert (rows["dca"]["found_efx"], rows["dca"]["objective"], rows["dca"]["iterations"]) == (
        dca_doc["efx"],
        dca_doc["objective"],
        dca_doc["iterations"],
    )
    code, fixedpoint_doc = _run(
        capsys, ["fixedpoint", "--instance", inst, "--seed", seed, "--starts", str(fixedpoint_starts)]
    )
    assert code == 0
    row = rows["fixedpoint-Ttilde"]
    assert (row["found_efx"], row["objective"], row["iterations"]) == (
        fixedpoint_doc["efx"],
        fixedpoint_doc["constraint_slack"],
        fixedpoint_doc["iterations"],
    )


@pytest.mark.parametrize("shape", GOLDEN_SHAPES)
def test_compare_lovasz_row_runs_the_lovasz_command(capsys, monkeypatch, shape):
    # Both commands normalize, so the row sees the instance the command solves.
    # Only the lovasz row is under test: the table is narrowed to it and the
    # oracle's scan is skipped, since the other rows take over 3 s on 10x5.
    def skipped_scan(inst, cap, tol):
        raise ValueError("scan skipped")

    monkeypatch.setattr(cli, "HUNTERS", [hunter for hunter in cli.HUNTERS if hunter[0] == "lovasz"])
    monkeypatch.setattr(oracle, "enumerate_efx", skipped_scan)
    inst = str(GOLDEN / f"gen-{shape}.json")
    code, doc = _run(capsys, ["compare", "--instance", inst])
    assert code == 0
    [row] = [row for row in doc["rows"] if row["method"] == "lovasz"]
    code, lovasz_doc = _run(capsys, ["lovasz", "--instance", inst])
    assert code == 0
    assert (row["found_efx"], row["objective"], row["iterations"]) == (
        lovasz_doc["rounding"]["efx"],
        lovasz_doc["objective"],
        lovasz_doc["iterations"],
    )


def test_a_compare_row_is_one_hunters_entry(tmp_path, capsys, monkeypatch):
    # Stub hunters placed in the table become rows in its order, read where
    # their entries say, judged against the oracle and written to the CSV.
    calls = []

    def stub(method, found):
        def build(inst, seed, tol):
            calls.append((inst.m, seed, tol))
            return {"verdict": {"ok": found}, "score": 0.5, "iterations": 7}

        return method, build, lambda doc: (doc["verdict"]["ok"], doc["score"])

    lovasz_entry, *others = cli.HUNTERS
    monkeypatch.setattr(cli, "HUNTERS", (lovasz_entry, stub("stub-miss", False), *others, stub("stub-find", True)))
    inst = _instance_file(tmp_path, I0_RAW)
    csv_path = tmp_path / "rows.csv"
    code, doc = _run(capsys, ["compare", "--instance", inst, "--seed", "5", "--tol", "0.25", "--csv", str(csv_path)])
    assert code == 0 and doc["oracle_exists"] is True
    methods = ["oracle", "lovasz", "stub-miss", "dca", "fixedpoint-Ttilde", "stub-find"]
    assert [row["method"] for row in doc["rows"]] == methods
    rows = {row["method"]: row for row in doc["rows"]}
    for method, found, flag in [("stub-miss", False, "stationary-miss"), ("stub-find", True, None)]:
        expected = {"method": method, "found_efx": found, "objective": 0.5, "iterations": 7, "flag": flag, "error": None}
        assert {**rows[method], "wall_time_s": 0} == {**expected, "wall_time_s": 0}
    assert {"method": "stub-miss", "flag": "stationary-miss"} in doc["findings"]
    assert "stub-find" not in {finding["method"] for finding in doc["findings"]}
    assert calls == [(3, 5, 0.25)] * 2
    with open(csv_path, newline="") as handle:
        table = list(csv.DictReader(handle))
    assert [r["method"] for r in table] == methods
    assert [(table[i]["found_efx"], table[i]["flag"]) for i in (2, 5)] == [("False", "stationary-miss"), ("True", "")]


def test_compare_scans_every_allocation_once(tmp_path, capsys, monkeypatch):
    # The oracle row reads its verdict and its objective off one scan.
    inst = _instance_file(tmp_path, I0_RAW)
    scans = []
    scan = oracle._scan

    def counted_scan(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(oracle, "_scan", counted_scan)
    code, doc = _run(capsys, ["compare", "--instance", inst])
    assert code == 0 and doc["oracle_exists"] is True
    assert len(scans) == 1


def test_compare_is_deterministic_up_to_wall_time(tmp_path):
    inst = _instance_file(tmp_path, I0_RAW)
    docs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert cli.main(["compare", "--instance", inst, "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        for row in doc["rows"]:
            row["wall_time_s"] = 0.0
        docs.append(doc)
    assert docs[0] == docs[1]


def test_usage_errors_exit_one(capsys):
    for argv in (
        [],
        ["oracle"],
        ["nope"],
        ["fixedpoint", "--instance", "x", "--map", "Z"],
        # dca and fixedpoint run in the default box; no option sets its radius.
        ["dca", "--instance", "x", "--m-const", "24.5"],
        ["fixedpoint", "--instance", "x", "--m-const", "24.5"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1
    capsys.readouterr()
    # The solvers' step, stop and damping settings are constants, not options.
    for argv in (
        ["dca", "--instance", "x", "--delta", "1e-6"],
        ["dca", "--instance", "x", "--max-iters", "50"],
        ["fixedpoint", "--instance", "x", "--alpha", "0.25"],
        ["fixedpoint", "--instance", "x", "--tol", "1e-6"],
        ["fixedpoint", "--instance", "x", "--max-iters", "50"],
        ["lovasz", "--instance", "x", "--iters", "50"],
        ["lovasz", "--instance", "x", "--step0", "0.5"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1
        assert f"unrecognized arguments: {argv[3]} {argv[4]}" in capsys.readouterr().err
    # Text an option type cannot read names the type it was cast with.
    for argv, message in (
        (["oracle", "--instance", "x", "--cap", "many"], "argument --cap: invalid int value: 'many'"),
        (["check", "--instance", "x", "--allocation", "y", "--tol", "big"], "argument --tol: invalid float value: 'big'"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 1
        assert message in capsys.readouterr().err


def test_input_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert cli.main(["oracle", "--instance", missing]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["check", "--instance", str(garbled), "--allocation", missing]) == 2
    short = _write_doc(tmp_path / "short.json", {"m": 3, "n": 2, "values": [[1.0, 2.0]]})
    assert cli.main(["oracle", "--instance", short]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    inst = _instance_file(tmp_path, I0_NORM)
    x = _write_doc(tmp_path / "x.json", {"x": [[0.5, 0.5]] * 3})
    ragged = _write_doc(tmp_path / "ragged.json", {"m": 2, "n": 2, "values": [[1.0, 2.0], [3.0]]})
    listed = _write_doc(tmp_path / "listed.json", [[1.0, 2.0], [3.0, 4.0]])
    # A (2, 10**9) matrix would take 16 GB: the short rows are read first.
    wide = _write_doc(tmp_path / "wide.json", {"m": 2, "n": 10**9, "values": [[1.0, 2.0], [3.0, 4.0]]})
    for argv, message in (
        (["extension", "eval", "--instance", inst, "--y", x], "y document must be an object with a 'y' key"),
        (["extension", "eval", "--instance", inst, "--x", x, "--lambdas", "1,abc"], "bad temperature list '1,abc'"),
        (["extension", "eval", "--instance", inst, "--x", x, "--lambdas", ","], "temperature list ',' holds no"),
        (["oracle", "--instance", ragged], "values[1] is not a row of n=2 entries"),
        (["oracle", "--instance", listed], "instance document must be a JSON object"),
        (["oracle", "--instance", wide], "values[0] is not a row of n=1000000000 entries"),
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        "check --instance NESTED --allocation allocation",
        "check --instance instance --allocation NESTED",
        "oracle --instance NESTED",
        "lovasz --instance NESTED",
        "extension eval --instance NESTED --x x",
        "extension eval --instance instance --y NESTED",
        "extension eval --instance instance --x NESTED",
        "dca --instance NESTED",
        "fixedpoint --instance NESTED",
        "compare --instance NESTED",
    ],
)
def test_a_document_nested_past_the_recursion_limit_is_an_input_error(tmp_path, capsys, argv):
    # json.loads recurses once per level, so 200 000 levels overflow Python's stack.
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    files = {
        "NESTED": str(nested),
        "instance": _instance_file(tmp_path, I0_NORM),
        "allocation": _write_doc(tmp_path / "allocation.json", {"owner": [1, 2, 1]}),
        "x": _write_doc(tmp_path / "x.json", {"x": [[0.5, 0.5]] * 3}),
    }
    assert cli.main([files.get(word, word) for word in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse ") and str(nested) in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text, reason",
    [
        (b'{"m": 1\xff}', "cannot read instance file"),
        (b'{"m": ' + b"1" * 5000 + b"}", "cannot parse instance file"),
    ],
    ids=["invalid-utf8", "5000-digit-integer"],
)
def test_an_unreadable_document_names_its_file(tmp_path, capsys, text, reason):
    path = tmp_path / "instance.json"
    path.write_bytes(text)
    assert cli.main(["oracle", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {reason} {path}")


def test_extension_eval_rejects_non_finite_scores(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    y = _write_doc(tmp_path / "y.json", {"y": [[0.0, float("nan")], [-5.0, 0.0], [-5.0, 0.0]]})
    assert cli.main(["extension", "eval", "--instance", inst, "--y", y]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "y[0][1] is not a finite number" in captured.err


def test_integer_beyond_the_float_range_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text('{"m": 1, "n": 2, "values": [[1, 1' + "0" * 400 + "]]}")
    assert cli.main(["oracle", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "values[0][1] is beyond the float range" in captured.err


@pytest.mark.parametrize("key", ["m", "n"])
def test_boolean_instance_size_is_an_input_error(tmp_path, capsys, key):
    doc = {"m": 1, "n": 2, "values": [[1.0, 2.0]], key: True}
    path = _write_doc(tmp_path / "instance.json", doc)
    assert cli.main(["oracle", "--instance", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m and n must be integers" in captured.err


@pytest.mark.parametrize("entry", [{"a": 1.0}, "1", True, 10**400], ids=["object", "string", "bool", "huge-int"])
def test_score_and_point_entries_must_be_finite_numbers(tmp_path, capsys, entry):
    # Each document would be valid with the number 1 in place of ``entry``.
    inst = _instance_file(tmp_path, I0_NORM)
    docs = {"y": [[entry, -5.0], [-5.0, 0.0], [-5.0, 0.0]], "x": [[entry, 0.0], [0.0, 1.0], [0.0, 1.0]]}
    for key, rows in docs.items():
        path = _write_doc(tmp_path / f"{key}.json", {key: rows})
        assert cli.main(["extension", "eval", "--instance", inst, f"--{key}", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {key}[0][0] is" in captured.err


def test_unwritable_output_path_is_an_input_error(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    assert cli.main(["oracle", "--instance", inst, "--output", str(tmp_path)]) == 2
    assert cli.main(["compare", "--instance", inst, "--csv", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 2


def test_non_finite_output_exits_three(tmp_path, capsys, monkeypatch):
    inst = _instance_file(tmp_path, I0_NORM)
    y = _write_doc(tmp_path / "y.json", {"y": [[0.0, -5.0], [-5.0, 0.0], [-5.0, 0.0]]})
    monkeypatch.setattr(cli.extension, "dc_objective", lambda inst_, y_: float("nan"))
    assert cli.main(["extension", "eval", "--instance", inst, "--y", y]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_overflowing_column_sum_is_an_input_error(tmp_path, capsys):
    inst = _instance_file(tmp_path, [[1.0, 1e308], [1.0, 1e308], [1.0, 1e308]])
    assert cli.main(["compare", "--instance", inst]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "column 1 sums to inf" in captured.err


def test_dca_zero_starts_is_a_usage_error(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["dca", "--instance", inst, "--starts", "0"])
    assert excinfo.value.code == 1
    assert "positive integer" in capsys.readouterr().err


def test_fixedpoint_zero_starts_is_a_usage_error(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fixedpoint", "--instance", inst, "--starts", "0"])
    assert excinfo.value.code == 1
    assert "positive integer" in capsys.readouterr().err


OVERFLOWING_MASS = [[1e308, 1e308], [0.5, 1e307]]


def test_fixedpoint_overflowing_box_bound_is_an_input_error(tmp_path, capsys):
    inst = _instance_file(tmp_path, OVERFLOWING_MASS)
    assert cli.main(["fixedpoint", "--instance", inst]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows the float range" in captured.err


def test_dca_overflowing_box_bound_is_an_input_error(tmp_path, capsys):
    inst = _instance_file(tmp_path, OVERFLOWING_MASS)
    assert cli.main(["dca", "--instance", inst]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows the float range" in captured.err


def test_fixedpoint_T_skips_stuck_entries_whose_residual_overflows(tmp_path, capsys):
    # Map T is unboxed: the best start's item 2 settles near -747, where
    # exp(-rowmax) is beyond the float range.
    inst = _instance_file(tmp_path, [[3, 9, 1], [10, 1, 3], [6, 10, 3], [1, 8, 8], [9, 8, 4], [2, 2, 8]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = _run(capsys, ["fixedpoint", "--instance", inst, "--map", "T", "--starts", "2"])
    assert code == 0
    rows = {row["item"]: row for row in doc["stuck_rows"]}
    assert rows[2]["rowmax"] < -np.log(np.finfo(float).max)
    assert all(entry == {"agent": j + 1, "skipped": True} for j, entry in enumerate(rows[2]["entries"]))
    assert not any(entry["skipped"] for entry in rows[1]["entries"])


def test_default_radius_that_rounds_back_to_twice_the_mass_is_an_input_error(tmp_path, capsys):
    # Twice the total mass is above 2**53, where adding one rounds back to it.
    inst = _instance_file(tmp_path, [[1e16, 1.0], [2.0, 1.0], [2.0, 2.0]])
    for command in ("dca", "fixedpoint"):
        assert cli.main([command, "--instance", inst]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: the default box radius" in captured.err
        assert "rescale the values" in captured.err


def test_compare_tol_reaches_every_row(tmp_path, capsys):
    # No allocation has EFX slack at or below -1, so no method may report one.
    inst = _instance_file(tmp_path, I0_RAW)
    code, doc = _run(capsys, ["compare", "--instance", inst, "--tol", "-1"])
    assert code == 0
    assert doc["config"]["tol"] == -1.0
    assert [row["found_efx"] for row in doc["rows"]] == [False] * 4
    assert doc["findings"] == []


def test_no_subcommand_loads_scipy(tmp_path):
    inst = _instance_file(tmp_path, I0_RAW)
    alloc = _write_doc(tmp_path / "alloc.json", {"owner": [1, 2, 2]})
    y = _write_doc(tmp_path / "y.json", {"y": [[0.0, -30.0], [-30.0, 0.0], [-30.0, 0.0]]})
    x = _write_doc(tmp_path / "x.json", {"x": [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]})
    out = str(tmp_path / "out.json")
    argvs = [
        ["gen", "--m", "3", "--n", "2"],
        ["check", "--instance", inst, "--allocation", alloc],
        ["oracle", "--instance", inst],
        ["lovasz", "--instance", inst],
        ["extension", "eval", "--instance", inst, "--y", y],
        ["extension", "eval", "--instance", inst, "--x", x],
        ["dca", "--instance", inst, "--starts", "2"],
        ["fixedpoint", "--instance", inst, "--starts", "2"],
        ["compare", "--instance", inst],
    ]
    script = "\n".join(
        [
            "import sys",
            "import efxkit",
            "from efxkit.cli import main",
            f"for argv in {argvs!r}:",
            f"    assert main(argv + ['--output', {out!r}]) == 0, argv",
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
        ]
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "option, value, expected",
    [
        ("--m", "0", "positive integer"),
        ("--n", "1", "at least 2"),
        ("--kmax", "0", "positive integer"),
        ("--kmax", "9223372036854775808", "at most 2**63 - 1"),
        ("--kmax", "99999999999999999999", "at most 2**63 - 1"),
    ],
)
def test_gen_out_of_range_counts_are_usage_errors(capsys, option, value, expected):
    argv = {"--m": "3", "--n": "2", "--dist": "integer", "--kmax": "5"}
    argv[option] = value
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["gen", *(part for item in argv.items() for part in item)])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and expected in err


def test_gen_largest_drawable_kmax_is_accepted(capsys):
    code, doc = _run(capsys, ["gen", "--m", "2", "--n", "2", "--dist", "integer", "--kmax", "9223372036854775807"])
    assert code == 0 and doc["config"]["kmax"] == 2**63 - 1


def test_dca_reports_lp_pivot_counts(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_RAW)
    code, doc = _run(capsys, ["dca", "--instance", inst, "--starts", "3", "--seed", "11"])
    assert code == 0
    # One phase 1 serves every start; each step counts its own phase 2.
    phase1 = doc["lp_phase1_pivots"]
    assert phase1 > 0
    assert [start["lp_phase1_pivots"] for start in doc["starts"]] == [phase1] * 3
    assert all(isinstance(entry["lp_pivots"], int) and entry["lp_pivots"] >= 0 for entry in doc["trace"])
    # Each start sums its steps' phase 2; the top level is the selected start's.
    assert doc["lp_phase2_pivots"] == sum(entry["lp_pivots"] for entry in doc["trace"])
    assert doc["lp_phase2_pivots"] == doc["starts"][doc["selected_start"]]["lp_phase2_pivots"]


def test_compare_gives_no_verdict_when_the_oracle_cannot_run(tmp_path, capsys):
    # 3^15 owner vectors lie beyond the oracle's scan guard.
    inst = str(tmp_path / "big.json")
    assert cli.main(["gen", "--m", "15", "--n", "3", "--seed", "1", "--output", inst]) == 0
    code, doc = _run(capsys, ["compare", "--instance", inst])
    assert code == 0
    assert doc["oracle_exists"] is None
    assert "exceeds the guard" in doc["rows"][0]["error"]
    assert doc["rows"][0]["flag"] == "method-error"
    assert {"method": "oracle", "flag": "method-error"} in doc["findings"]
    assert all(row["flag"] in (None, "method-error") for row in doc["rows"][1:])


NON_FINITE_OPTIONS = [
    ["check", "--allocation", "ALLOCATION", "--tol", "nan"],
    ["check", "--allocation", "ALLOCATION", "--tol", "inf"],
    ["oracle", "--tol", "nan"],
    ["oracle", "--tol=-inf"],
    ["compare", "--tol", "nan"],
]


@pytest.mark.parametrize("argv", NON_FINITE_OPTIONS, ids=" ".join)
def test_non_finite_float_option_is_a_usage_error(tmp_path, capsys, argv):
    inst = _instance_file(tmp_path, I0_NORM)
    allocation = _write_doc(tmp_path / "allocation.json", {"owner": [1, 2, 2]})
    argv = [allocation if part == "ALLOCATION" else part for part in argv]
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--instance", inst])
    assert excinfo.value.code == 1
    assert "finite number" in capsys.readouterr().err


@pytest.mark.parametrize("lambdas", ["nan", "1,inf", "inf"])
def test_non_finite_temperature_is_an_input_error(tmp_path, capsys, lambdas):
    inst = _instance_file(tmp_path, I0_NORM)
    x = _write_doc(tmp_path / "x.json", {"x": [[0.5, 0.5]] * 3})
    code = cli.main(["extension", "eval", "--instance", inst, "--x", x, "--lambdas", lambdas])
    assert code == 2
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["x", "y"])
@pytest.mark.parametrize("lambdas", ["1e-320", "1,1e308"])
def test_temperature_whose_evaluation_overflows_is_an_input_error(tmp_path, capsys, point, lambdas):
    # log(nm) / 1e-320 and g at 1e-320 overflow; at 1e308, lam * v and the
    # softmax products do.
    inst = tmp_path / "instance.json"
    assert cli.main(["gen", "--m", "4", "--n", "3", "--output", str(inst)]) == 0
    doc = {"x": [[1 / 3] * 3] * 4} if point == "x" else {"y": [[-1.0, -2.0, -3.0]] * 4}
    source = _write_doc(tmp_path / "point.json", doc)
    out = tmp_path / "out.json"
    argv = ["extension", "eval", "--instance", str(inst), f"--{point}", source, "--lambdas", lambdas]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*argv, "--output", str(out)]) == 2
    lam = float(lambdas.split(",")[-1])
    assert f"--lambdas: temperature {lam!r} takes the evaluation beyond the float range" in capsys.readouterr().err
    assert not out.exists()


def test_negative_oracle_cap_is_a_usage_error(tmp_path, capsys):
    inst = _instance_file(tmp_path, I0_NORM)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["oracle", "--instance", inst, "--cap", "-1"])
    assert excinfo.value.code == 1
    assert "nonnegative integer" in capsys.readouterr().err
    code, doc = _run(capsys, ["oracle", "--instance", inst, "--cap", "0"])
    assert code == 0
    assert doc["witnesses"] == [] and doc["witness_count"] > 0


@pytest.mark.parametrize("cap", ["0", "64"])
def test_oracle_all_and_cap_are_a_usage_error(tmp_path, capsys, cap):
    # Both set how many witnesses to keep.  64 is the cap an unset --cap
    # resolves to, so it must not pass as unset either.
    inst = _instance_file(tmp_path, I0_NORM)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["oracle", "--instance", inst, "--all", "--cap", cap])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --cap: not allowed with argument --all" in captured.err
    code, doc = _run(capsys, ["oracle", "--instance", inst, "--cap", cap])
    assert code == 0 and doc["config"]["cap"] == int(cap) and doc["config"]["all"] is False


@pytest.mark.parametrize("command", ["gen", "lovasz", "dca", "fixedpoint", "compare"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    inst = _instance_file(tmp_path, I0_RAW)
    argv = ["gen", "--m", "3", "--n", "2"] if command == "gen" else [command, "--instance", inst]
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--seed", "-1"])
    assert excinfo.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected a nonnegative integer, got '-1'" in captured.err


def _invocation(argv):
    """Exit code, standard output and standard error of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_invocation_of_a_process(tmp_path):
    """``main`` parses with one parser per process; a usage error between
    two subcommands leaves it as a fresh parser would be."""
    inst = _instance_file(tmp_path, I0_RAW)
    runs = [
        ["dca", "--instance", inst, "--starts", "2"],
        ["oracle", "--instance", inst, "--cap", "0"],
        ["dca", "--instance", inst, "--delta", "-1"],
        ["fixedpoint", "--instance", inst, "--starts", "2", "--map", "T"],
        ["dca", "--instance", inst, "--starts", "2"],
    ]
    cli.build_parser.cache_clear()
    shared = [_invocation(argv) for argv in runs]
    assert cli.build_parser.cache_info().currsize == 1
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(_invocation(argv))
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0]
    assert "--delta" in shared[2][2]
    assert shared == fresh
