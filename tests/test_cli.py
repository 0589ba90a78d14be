import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amalgam
from amalgam.cli import main
from amalgam.harness import THEOREMS


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


GRID_SMALL = {"dim": 1, "half_width": 4.0, "points_per_axis": 512}
FAMILY_SMALL = {"shape": "ball", "sizes": [0.5, 1.0], "center_stride": 128}


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; importing it costs about a second
    src = str(Path(amalgam.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, amalgam.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_subcommand_and_option_has_help():
    import argparse

    from amalgam.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    listed = {action.dest: action.help for action in sub._choices_actions}
    assert set(listed) == set(sub.choices)
    assert all(listed.values()), [name for name, text in listed.items() if not text]
    for name, parser in sub.choices.items():
        bare = [a.dest for a in parser._actions if a.option_strings and not a.help]
        assert not bare, f"{name}: {bare}"


def test_language_prints_reference(capsys):
    assert main(["language"]) == 0
    out = capsys.readouterr().out
    assert "Expression language" in out
    assert "ind(lo, hi)" in out


def test_norm_command(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "norm.json",
        {
            "grid": GRID_SMALL,
            "family": FAMILY_SMALL,
            "function": "gauss(0.0, 0.5)",
            "space": {"p": 2.0, "alpha": 4.0, "q": 8.0, "variant": "strong"},
            "weights": {"inner": "r**0.5"},
        },
    )
    assert main(["norm", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] > 0
    assert "argmax_size" in payload


def test_norm_q_inf(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "norm.json",
        {
            "grid": GRID_SMALL,
            "family": FAMILY_SMALL,
            "function": "ind(-1.0, 1.0)",
            "space": {"p": 2.0, "alpha": 2.0, "q": "inf"},
        },
    )
    assert main(["norm", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] > 0


def test_unknown_field_rejected(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "bad.json",
        {"grid": dict(GRID_SMALL, styl="fancy"), "function": "x"},
    )
    assert main(["norm", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "unknown field" in err
    assert "styl" in err


def test_missing_function_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {"grid": GRID_SMALL})
    assert main(["norm", "--config", cfg]) == 1
    assert "function" in capsys.readouterr().err


def test_invalid_json_rejected(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["norm", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["norm", "--config", str(tmp_path / "missing.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_weights_command(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "w.json",
        {
            "grid": GRID_SMALL,
            "family": {"sizes": [0.25, 0.5], "center_stride": 64},
            "weight": "r**0.5",
            "p": 2.0,
        },
    )
    assert main(["weights", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["characteristic"] > 1.0
    assert payload["doubling_constant"] > 1.0


def test_weights_command_on_one_size_prints_null_fit(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "w.json",
        {"grid": GRID_SMALL, "family": {"sizes": [1.0], "center_stride": 64}, "weight": "r**0.5", "p": 2.0},
    )
    assert main(["weights", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["doubling_constant"] > 1.0
    assert payload["comparison_exponent"] is None
    assert payload["comparison_constant"] is None


def test_weights_command_rejects_a_fit_on_one_distinct_size(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "w.json",
        {"grid": GRID_SMALL, "family": {"sizes": [0.5, 0.5], "center_stride": 64}, "weight": "r**0.5"},
    )
    assert main(["weights", "--config", cfg]) == 1
    assert "comparison fit needs at least two distinct sizes" in capsys.readouterr().err


def test_holder_command(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "h.json",
        {
            "grid": GRID_SMALL,
            "function": "gauss(0.0, 1.0)",
            "function2": "ind(-1.0, 1.0)",
            "pairing": "llogl_expl",
        },
    )
    assert main(["holder", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["lhs"] <= payload["rhs"]


def test_operator_command_writes_csv(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "op.json",
        {
            "grid": GRID_SMALL,
            "function": "ind(-1.0, 1.0)",
            "operator": {"kernel": "hilbert", "eps_nodes": 4},
        },
    )
    out_dir = tmp_path / "out"
    assert main(["operator", "--config", cfg, "--out", str(out_dir)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_abs"] > 0
    assert (out_dir / "image.csv").exists()


@pytest.mark.parametrize("dim, points, vanishing", [(1, 256, 255), (2, 16, 22)])
def test_operator_command_rejects_a_truncation_past_the_box(tmp_path, capsys, dim, points, vanishing):
    # from (points - 1) sqrt(dim) cells on no node pair survives and the image is zero
    def run(eps_nodes):
        cfg = write_cfg(tmp_path, "op.json", {
            "grid": {"dim": dim, "points_per_axis": points},
            "function": "ind(-1.0, 1.0)" if dim == 1 else "ind2(-1.0, 1.0, -1.0, 1.0)",
            "operator": {"kernel": "hilbert" if dim == 1 else "riesz", "eps_nodes": eps_nodes},
        })
        return main(["operator", "--config", cfg])

    assert run(vanishing) == 1
    assert "longest node displacement" in capsys.readouterr().err
    assert run(vanishing - 1) == 0
    assert json.loads(capsys.readouterr().out)["max_abs"] > 0


def test_bump_command(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "b.json",
        {
            "grid": GRID_SMALL,
            "family": FAMILY_SMALL,
            "weights": {"u": "1.0", "v": "1.0"},
            "bump": {"p": 2.0, "r": 1.5, "mode": "orlicz"},
        },
    )
    assert main(["bump", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 1.0


def test_bmo_command_with_lemma(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "bmo.json",
        {
            "grid": GRID_SMALL,
            "family": {"sizes": [0.125, 0.25], "center_stride": 256},
            "symbol": "logabs",
            "lemma": {"center": [0.0], "size": 0.125, "jmax": 3},
        },
    )
    assert main(["bmo", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oscillation_norm"] > 0
    assert len(payload["lemma"]["diffs"]) == 3


@pytest.mark.parametrize(
    "given, message",
    [({"p": 2.0}, "the weight is missing"), ({"weight": "1.0 + r"}, "p is missing"),
     ({"p": 0, "weight": "1.0"}, "error: the weighted check needs 1 <= p < inf"),
     ({"p": -1, "weight": "1.0"}, "error: the weighted check needs 1 <= p < inf")],
    ids=["p_only", "weight_only", "p_zero", "p_negative"],
)
def test_bmo_lemma_half_set_weighted_check_rejected(tmp_path, capsys, given, message):
    lemma = {"center": [0.0], "size": 0.125, **given}
    cfg = write_cfg(tmp_path, "bmo.json", {"grid": GRID_SMALL, "symbol": "logabs", "lemma": lemma})
    assert main(["bmo", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("r", ["NaN", "Infinity", "1e999"])
def test_bump_non_finite_r_rejected(tmp_path, capsys, r):
    # json reads NaN and Infinity, and 1e999 overflows to inf
    path = tmp_path / "b.json"
    path.write_text(
        '{"grid": {"points_per_axis": 512}, "family": {"sizes": [0.5, 1.0], "center_stride": 128},'
        ' "weights": {"u": "r**0.5", "v": "r**0.5"},'
        f' "bump": {{"r": {r}, "mode": "power"}}}}'
    )
    assert main(["bump", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bump conditions need 1 <= r < inf")


VERIFY_CFG = {
    "experiment": {
        "points": 512,
        "corpus_n": 3,
        "center_stride": 128,
        "sizes": [0.5, 1.0],
    }
}


def test_verify_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "v.json", VERIFY_CFG)
    out_dir = tmp_path / "run"
    code = main(
        [
            "verify",
            "strong",
            "--config",
            cfg,
            "--out",
            str(out_dir),
            "--refine",
            "0",
            "--no-eps-stability",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hypothesis dini_modulus: ok" in out
    assert "experiment strong: max ratio" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["experiment"] == "strong"
    assert len(report["cases"]) == 3
    lines = (out_dir / "cases.csv").read_text().splitlines()
    assert lines[0] == "label,lhs,rhs,ratio,lam,violation"
    assert len(lines) == 4


def test_verify_measure_doubling_gate_on_one_size(tmp_path, capsys):
    experiment = dict(VERIFY_CFG["experiment"], sizes=[0.5], weights={"mu": "1.0 + 0.5 * r"})
    cfg = write_cfg(tmp_path, "v.json", {"experiment": experiment})
    code = main(
        ["verify", "strong", "--config", cfg, "--out", str(tmp_path / "run"), "--refine", "0",
         "--no-eps-stability"]
    )
    assert code == 0
    assert "hypothesis measure_doubling: ok" in capsys.readouterr().out


def test_verify_refine_chains_levels(tmp_path):
    cfg = write_cfg(tmp_path, "v.json", VERIFY_CFG)
    stability = {}
    for levels in ("0", "1", "2"):
        out_dir = tmp_path / f"refine{levels}"
        code = main(
            ["verify", "strong", "--config", cfg, "--out", str(out_dir), "--refine", levels,
             "--no-eps-stability"]
        )
        assert code == 0
        stability[levels] = json.loads((out_dir / "report.json").read_text())["stability"]
    assert stability["0"] == {}
    assert set(stability["2"]) == {"grid_refinement", "grid_refinement_2"}
    assert all(math.isfinite(v) for v in stability["2"].values())
    # the first level is the same pass with or without further levels
    assert stability["2"]["grid_refinement"] == stability["1"]["grid_refinement"]


def test_verify_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path, "v.json", VERIFY_CFG)
    blobs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = main(
            [
                "verify",
                "weak",
                "--config",
                cfg,
                "--out",
                str(out_dir),
                "--refine",
                "0",
                "--no-eps-stability",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        blobs.append(
            (
                (out_dir / "cases.csv").read_bytes(),
                (out_dir / "report.json").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def test_verify_strict_gate_failure(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "v.json",
        {
            "experiment": {
                "points": 512,
                "corpus_n": 2,
                "center_stride": 128,
                "sizes": [0.5, 1.0],
                "weights": {"w": "r**2.0"},
            }
        },
    )
    code = main(
        ["verify", "strong", "--config", cfg, "--refine", "0", "--no-eps-stability", "--strict"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_verify_gate_failure_without_strict(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "v.json",
        {
            "experiment": {
                "points": 512,
                "corpus_n": 2,
                "center_stride": 128,
                "sizes": [0.5, 1.0],
                "weights": {"w": "r**2.0"},
            }
        },
    )
    code = main(
        ["verify", "strong", "--config", cfg, "--refine", "0", "--no-eps-stability"]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "hypothesis weight_class_plateau: FAILED" in out


def test_verify_exits_2_on_violations(tmp_path, capsys):
    # one region, on [-4, -3.75], outside every member's support: every bound
    # side is zero while the operator's image is not
    cfg = write_cfg(tmp_path, "v.json", {"experiment": {"points": 256, "center_stride": 256, "sizes": [0.25]}})
    assert main(["verify", "strong", "--config", cfg]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "violations: bump0, logbump1, ind2, gauss3, steps4, ind5" in out


def test_verify_unknown_theorem_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nope"])


def test_experiment_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "v.json", {"experiment": {"tolerance": 0.1}})
    assert main(["verify", "strong", "--config", cfg]) == 1
    assert "unknown field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, payload, field",
    [
        pytest.param(
            ["norm"], {"grid": {"points_per_axis": "abc"}, "function": "x"},
            "grid.points_per_axis", id="string-for-int",
        ),
        pytest.param(
            ["verify", "strong"], {"experiment": {"seed": "x"}}, "experiment.seed",
            id="string-for-int-experiment",
        ),
        pytest.param(
            ["weights"], {"grid": GRID_SMALL, "family": {"sizes": 0.5}, "weight": "1.0"},
            "family.sizes", id="scalar-for-list",
        ),
        pytest.param(
            ["bump"], {"grid": GRID_SMALL, "bump": 2.0}, "bump", id="non-object-block",
        ),
        pytest.param(
            ["weights"], {"grid": GRID_SMALL, "family": {"center_stride": 1.9}, "weight": "1.0"},
            "family.center_stride", id="fraction-for-int",
        ),
        pytest.param(
            ["verify", "strong"], {"experiment": {"corpus_n": True}}, "experiment.corpus_n",
            id="bool-for-int",
        ),
        pytest.param(
            ["norm"], {"grid": {"half_width": True}, "function": "x"}, "grid.half_width",
            id="bool-for-float",
        ),
        pytest.param(
            ["verify", "weak"], {"experiment": {"p": "x"}}, "experiment.p", id="string-for-p",
        ),
    ],
)
def test_malformed_value_names_field(tmp_path, capsys, argv, payload, field):
    cfg = write_cfg(tmp_path, "bad.json", payload)
    assert main([*argv, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: expected ")


def test_integral_numbers_and_strings_read_as_integers(tmp_path, capsys):
    # read as GRID_SMALL and FAMILY_SMALL
    grid = {"points_per_axis": "512"}
    family = {"sizes": [0.5, 1.0], "center_stride": 128.0}
    outputs = []
    for name, payload in (("typed.json", {"grid": grid, "family": family}),
                          ("plain.json", {"grid": GRID_SMALL, "family": FAMILY_SMALL})):
        cfg = write_cfg(tmp_path, name, dict(payload, weight="1.0"))
        assert main(["weights", "--config", cfg]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_alpha_follows_p_only_by_default(tmp_path, capsys):
    run = ["--refine", "0", "--no-eps-stability"]
    cfg = write_cfg(tmp_path, "v.json", {"experiment": dict(VERIFY_CFG["experiment"], p=3.0)})
    out_dir = tmp_path / "run"
    assert main(["verify", "strong", "--config", cfg, "--out", str(out_dir), *run]) == 0
    assert json.loads((out_dir / "report.json").read_text())["metadata"]["alpha"] == 3.0
    explicit = dict(VERIFY_CFG["experiment"], p=3.0, alpha=2.0)
    cfg = write_cfg(tmp_path, "v2.json", {"experiment": explicit})
    capsys.readouterr()
    assert main(["verify", "strong", "--config", cfg, *run]) == 1
    assert "need 1 <= p <= alpha" in capsys.readouterr().err


TWO_WEIGHT_P1 = {"points": 1024, "p": 1.0, "center_stride": 64,
                 "weights": {"u": "r**0.3", "v": "r**0.3"}}


@pytest.mark.parametrize("theorem", ["strong", "commutator", "two_weight_strong",
                                     "two_weight_commutator"])
def test_verify_strong_type_theorems_need_p_above_one(tmp_path, capsys, theorem):
    # the two-weight forms ran at p = 1 with every gate ok and a max ratio of 0.873
    cfg = write_cfg(tmp_path, "v.json", {"experiment": TWO_WEIGHT_P1})
    assert main(["verify", theorem, "--config", cfg, "--refine", "0", "--no-eps-stability"]) == 1
    assert "requires p > 1, got 1.0" in capsys.readouterr().err


def test_verify_bump_p_must_match_the_theorem_p(tmp_path, capsys):
    # at p = 3 the bump gate runs at 3, so a bump.p of 2 contradicts the theorem
    experiment = dict(TWO_WEIGHT_P1, p=3.0, alpha=4.0, bump={"p": 2.0})
    cfg = write_cfg(tmp_path, "v.json", {"experiment": experiment})
    assert main(["verify", "two_weight_strong", "--config", cfg, "--refine", "0"]) == 1
    assert "bump.p = 2.0 differs from p = 3.0" in capsys.readouterr().err
    experiment["bump"] = {"p": 3.0}
    cfg = write_cfg(tmp_path, "v.json", {"experiment": experiment})
    out_dir = tmp_path / "run"
    run = ["--refine", "0", "--no-eps-stability", "--out", str(out_dir)]
    assert main(["verify", "two_weight_strong", "--config", cfg, *run]) == 0
    gate = json.loads((out_dir / "report.json").read_text())["hypotheses"][1]
    assert gate["name"] == "bump_plateau"
    assert gate["values"][1] == pytest.approx(1.0822, abs=1e-4)  # 1.1697 at p = 2


def test_verify_rejects_points_below_the_half_grid_gate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "v.json", {"experiment": dict(VERIFY_CFG["experiment"], points=8)})
    assert main(["verify", "strong", "--config", cfg, "--refine", "0"]) == 1
    err = capsys.readouterr().err
    assert "points must be at least 16" in err
    assert "got 8" in err


@pytest.mark.parametrize("field, value, message", [
    ("corpus_n", 0, "corpus needs at least one member"),
    ("corpus_margin", 4.0, "corpus margin must lie strictly inside the box"),
    ("seed", -1, "corpus seed must be at least 0"),
], ids=["no-member", "margin", "negative-seed"])
def test_verify_rejects_a_bad_corpus_before_the_gates(tmp_path, capsys, field, value, message):
    # the weight is outside the class, so its plateau gate would fail first
    experiment = dict(VERIFY_CFG["experiment"], weights={"w": "r**-1.5"}, **{field: value})
    cfg = write_cfg(tmp_path, "v.json", {"experiment": experiment})
    assert main(["verify", "strong", "--config", cfg, "--strict"]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("theorem, field, value, message", [
    ("strong", "shape", "triangle", "shape must be 'ball' or 'cube'"),
    ("strong", "sizes", [0.0, 1.0], "every region size positive"),
    ("endpoint", "lambda_factors", [-1.0, 1.0], "need finite lambda_factors > 0"),
    ("endpoint", "lambda_factors", [0.0, 1.0], "need finite lambda_factors > 0"),
    ("endpoint", "lambda_factors", [], "need finite lambda_factors > 0, got ()"),
    ("strong", "eps_nodes", 4096, "eps_nodes must be at least 2 and below (points - 1) sqrt(dim)"),
], ids=["shape", "zero-size", "negative-factor", "zero-factor", "no-factor", "vanishing-operator"])
def test_verify_rejects_bad_regions_and_levels(tmp_path, capsys, theorem, field, value, message):
    experiment = dict(VERIFY_CFG["experiment"], **{field: value})
    cfg = write_cfg(tmp_path, "v.json", {"experiment": experiment})
    assert main(["verify", theorem, "--config", cfg, "--refine", "0", "--no-eps-stability"]) == 1
    assert message in capsys.readouterr().err


def test_verify_rejects_negative_refine(capsys):
    for levels in ("-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "strong", "--refine", levels])
        assert exc.value.code == 2
        assert "--refine" in capsys.readouterr().err


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    for block in section.split("\n### ")[1:]:
        command = block.split()[1]  # "`amalgam norm --config cfg.json`"
        for i, text in enumerate(block.split("```json\n")[1:]):
            yield pytest.param(command, text.split("```")[0], id=f"{command}-{i}")


@pytest.mark.parametrize("command, text", list(_readme_examples()))
def test_readme_example_runs(tmp_path, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "verify":
        argv.insert(1, "strong")
    assert main(argv) == 0


def test_readme_side_table_lists_the_theorems():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n| tag | lhs | rhs |\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[1:]  # below the |---| rule
    assert [row.split("`")[1] for row in rows] == list(THEOREMS)


def test_readme_theorem_table_matches_the_theorem_rows():
    from amalgam.harness import _THEOREMS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n| tag | p | image | estimate shape |\n", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in row.split("|")[1:4]] for row in table.splitlines()[1:]]
    assert rows == [[f"`{theorem}`", f"p {rule}", image]
                    for theorem, (_, _, image, rule) in _THEOREMS.items()]
