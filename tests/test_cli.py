import argparse
import json
from unittest import mock

import numpy as np
import pytest

from refinet import cli, refinement
from refinet.cli import _build, _verify_grid, main, parse_operator_spec, SpecParseError
from refinet.network import load_network
from test_network import _check_exact, _unread_units, _zero_units


SPEC = {"M": 2, "p": 1, "L": 1,
        "mask": [{"j": 0, "A": [[1.0]]}, {"j": 1, "A": [[1.0]]}]}


# M=2 contraction with two forcing curves; the second repeats from stage 1 on
FORCED_SPEC = {"M": 2, "p": 1, "L": 1,
               "mask": [{"j": 0, "A": [[0.6]]}, {"j": 1, "A": [[0.7]]}],
               "forcing": [{"curve": [[0.25, 0.0], [0.5, 0.3], [0.75, 0.0]]},
                           {"curve": [[0.25, 0.0], [0.4, 0.5], [0.75, 0.0]]}]}


def _write_spec(tmp_path, spec):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    return _write_spec(tmp_path, SPEC)


def test_parse_operator_spec():
    op, forcing = parse_operator_spec(SPEC)
    assert (op.M, op.p, op.L) == (2, 1, 1)
    assert forcing is None
    with pytest.raises(SpecParseError):
        parse_operator_spec({"M": 2})


def test_spec_forcing_repeats_last_curve():
    _, forcing = parse_operator_spec(FORCED_SPEC)
    ts = np.linspace(0, 1, 101)
    peaks = [ts[np.argmax(forcing(r)(ts)[:, 0])] for r in range(4)]
    assert peaks == [0.5, 0.4, 0.4, 0.4]


def test_malformed_forcing_is_parse_error():
    with pytest.raises(SpecParseError):
        parse_operator_spec({**SPEC, "forcing": [{"curve": [0.5, 1.0]}]})


def test_forcing_with_extra_columns_is_parse_error(tmp_path, capsys):
    # a p = 1 forcing row [t, y, 9.0] holds a value that no component reads
    rows = [[0.25, 0.0, 9.0], [0.5, 0.3, 9.0], [0.75, 0.0, 9.0]]
    spec = _write_spec(tmp_path, {**FORCED_SPEC, "forcing": [{"curve": rows}]})
    rc = main(["verify", "--spec", spec, "--mode", "affine", "--stage", "2"])
    assert rc == 2
    assert "1 + p = 2 columns" in capsys.readouterr().err


# json writes NaN and infinities as NaN and Infinity, which json.load reads back
@pytest.mark.parametrize("spec, mode, why", [
    ({**SPEC, "mask": [*SPEC["mask"], {"j": 1, "A": [[0.5]]}]}, "homogeneous", "j=1 twice"),
    *[({**SPEC, "mask": [{"j": 0, "A": [[v]]}, {"j": 1, "A": [[1.0]]}]}, "homogeneous",
       "not finite") for v in (float("nan"), float("inf"), -float("inf"))],
    ({**FORCED_SPEC, "forcing": [{"curve": [[0.25, 0.0], [0.5, float("nan")], [0.75, 0.0]]}]},
     "affine", "not finite"),
], ids=["duplicate-j", "nan-mask", "inf-mask", "minus-inf-mask", "nan-forcing"])
def test_ambiguous_spec_is_parse_error(tmp_path, capsys, spec, mode, why):
    # a mask index listed twice is two answers for A_j, not the last one
    rc = main(["verify", "--spec", _write_spec(tmp_path, spec), "--stage", "2",
               "--mode", mode])
    assert rc == 2
    assert why in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["0", "1", "2", "3"])
def test_verify_spec_affine_forcing(tmp_path, stage, capsys):
    spec = _write_spec(tmp_path, FORCED_SPEC)
    rc = main(["verify", "--spec", spec, "--mode", "affine", "--stage", stage,
               "--tol", "1e-10"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("example, mode, honoured", [
    ("hilbert", "homogeneous", "anchored"),
    ("koch", "affine", "anchored or homogeneous"),
    ("gosper", "homogeneous", "anchored"),
    (None, "anchored", "homogeneous or affine"),     # the --spec source
], ids=["hilbert-homogeneous", "koch-affine", "gosper-homogeneous",
        "spec-anchored"])
def test_unhonoured_mode_is_parse_error(spec_file, tmp_path, example, mode,
                                        honoured, capsys):
    source = ["--example", example] if example else ["--spec", spec_file]
    rc = main(["build", *source, "--mode", mode, "--stage", "1",
               "--out", str(tmp_path / "net.json")])
    assert rc == 2
    assert f"honours --mode {honoured}" in capsys.readouterr().err


@pytest.mark.parametrize("example, mode", [(None, "homogeneous"), ("koch", "anchored")],
                         ids=["spec", "koch"])
def test_mode_defaults_to_the_sources_first(spec_file, example, mode, capsys):
    # without --mode a source runs the first mode it honours: a spec's
    # homogeneous, a gallery example's anchored
    source = ["--example", example] if example else ["--spec", spec_file]
    outs = []
    for given in [[], ["--mode", mode]]:
        assert main(["verify", *source, "--stage", "2", *given]) == 0
        outs.append(capsys.readouterr().out)
    assert "PASS" in outs[0] and outs[0] == outs[1]


def test_verify_spec_passes(spec_file, capsys):
    rc = main(["verify", "--spec", spec_file, "--mode", "homogeneous",
               "--stage", "3", "--tol", "1e-7"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_reports_failure(spec_file, capsys):
    rc = main(["verify", "--spec", spec_file, "--mode", "homogeneous",
               "--stage", "3", "--tol", "1e-20"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_example(capsys):
    rc = main(["verify", "--example", "koch", "--stage", "2", "--tol", "1e-6"])
    assert rc == 0


@pytest.mark.parametrize("stage", ["0", "1"])
def test_verify_connector_low_stages(stage, capsys):
    rc = main(["verify", "--example", "hilbert", "--stage", stage, "--tol", "1e-6"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_folds_one_row_bias(capsys):
    # levy's homogeneous stage-1 net holds a one-row block with bias 1.0,
    # which folds into its matmul as every other bias does; the block runs
    # padded with a zero row, as a matrix product
    rc = main(["verify", "--example", "levy", "--mode", "homogeneous", "--stage", "1",
               "--tol", "1e-6"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    ci, _, op = _build(argparse.Namespace(spec=None, example="levy", mode="homogeneous",
                                          stage=1))
    assert any(W.shape[0] == 2 and W[0, -1] == 1.0 and not W[1].any()
               for _, mats, _, _ in ci.net._plan().steps for _, _, W, _ in mats)
    _check_exact(ci.net, _verify_grid(op.M, 1, op.L, 1000)[:, None])


SWEEP_EXAMPLES = ["koch", "levy", "heighway", "hilbert_type", "hilbert", "gosper",
                  "morton2", "morton3", "hilbert_rp2", "hilbert_rp3"]


def test_verify_sweep_passes_and_stores_no_dead_unit(capsys):
    # every gallery example in each mode it honours, at stages 0-3 and the
    # CLI's own --tol; each build's net stores only rows that its outputs
    # read, and no unit that is 0 for every input
    nets = []

    def build(args):
        out = _build(args)
        nets.append(out[0].net)
        return out

    runs = []
    with mock.patch.object(cli, "_build", build):
        for example in SWEEP_EXAMPLES:
            kind = cli._source(argparse.Namespace(spec=None, example=example))[0]
            for mode in cli.MODES[kind]:
                for stage in range(4):
                    run = (example, mode, stage)
                    assert main(["verify", "--example", example, "--mode", mode,
                                 "--stage", str(stage)]) == 0, run
                    assert not any(_unread_units(nets[-1])), run
                    assert not any(_zero_units(nets[-1])), run
                    runs.append(run)
    assert len(runs) == 64
    assert capsys.readouterr().out.count("PASS") == 64


def test_build_writes_network(spec_file, tmp_path):
    out = tmp_path / "net.json"
    rc = main(["build", "--spec", spec_file, "--mode", "homogeneous",
               "--stage", "2", "--out", str(out)])
    assert rc == 0
    net = load_network(str(out))
    ts = np.linspace(0, 1, 50)
    assert net.eval_scalar_input(ts).shape == (50, 1)


def test_render_and_sample(tmp_path):
    svg = tmp_path / "koch.svg"
    rc = main(["render", "--example", "koch", "--stage", "2", "--out", str(svg)])
    assert rc == 0
    assert svg.read_text().startswith("<svg")
    csv = tmp_path / "koch.csv"
    rc = main(["sample", "--example", "koch", "--stage", "1", "--out", str(csv)])
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "t,y0,y1"
    assert len(lines) > 100


@pytest.mark.parametrize("example", ["heighway", "levy", "gosper"])
def test_render_view_box_holds_every_point(tmp_path, example):
    # at stage 3 these curves leave the unit square
    svg = tmp_path / f"{example}.svg"
    assert main(["render", "--example", example, "--stage", "3", "--out", str(svg)]) == 0
    text = svg.read_text()
    x0, y0, w, h = map(float, text.split('viewBox="')[1].split('"')[0].split())
    pts = text.split('points="')[1].split('"')[0].split()
    xy = np.array([p.split(",") for p in pts], dtype=float)
    assert w == h > 0
    assert np.all((xy >= [x0, y0]) & (xy <= [x0 + w, y0 + h]))


@pytest.mark.parametrize("backend", ["oracle", "network"])
def test_sample_covers_the_whole_support(tmp_path, backend):
    # an L = 2 curve lives on [0, 2]: its largest value sits past t = 1
    mask = [{"j": j, "A": [[a]]} for j, a in enumerate([0.5, 1.0, 0.5])]
    spec = _write_spec(tmp_path, {"M": 2, "p": 1, "L": 2, "mask": mask})
    csv = tmp_path / "samples.csv"
    rc = main(["sample", "--spec", spec, "--mode", "homogeneous", "--stage", "2",
               "--backend", backend, "--out", str(csv)])
    assert rc == 0
    t, y = np.loadtxt(csv, delimiter=",", skiprows=1).T
    assert t[0] == 0 and t[-1] == 2 and t.size == 1000
    assert np.max(np.abs(y[t > 1])) > 0.6
    # render draws the same samples, t scaled to the unit box's width
    svg = tmp_path / "curve.svg"
    rc = main(["render", "--spec", spec, "--mode", "homogeneous", "--stage", "2",
               "--backend", backend, "--out", str(svg)])
    assert rc == 0
    pts = svg.read_text().split('points="')[1].split('"')[0].split()
    xy = np.array([p.split(",") for p in pts], dtype=float)
    assert np.allclose(xy, np.column_stack([t / 2, 1 - y]), atol=1e-8)


def test_stats_runs(capsys):
    rc = main(["stats", "--example", "levy", "--stage", "3"])
    assert rc == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.split() == ["n", "depth", "d1", "d2", "width", "nnz", "eval_entries",
                            "eval_calls", "coeff_max"]
    assert len(rows) == 3


@pytest.mark.parametrize("stage", ["0", "-1"])
def test_stats_below_stage_one_is_precondition_error(stage, capsys):
    rc = main(["stats", "--example", "levy", "--stage", stage])
    assert rc == 3
    assert "precondition error" in capsys.readouterr().err


def test_build_past_breakpoint_cap_is_precondition_error(tmp_path, capsys):
    # koch's oracle estimate 2 * 4^n passes 10^7 at stage 12; with the cap
    # scaled down to 2 * 4^6 - 1, stage 6 stands in for it
    out = str(tmp_path / "net.json")
    with mock.patch.object(refinement, "BREAKPOINT_CAP", 2 * 4 ** 6 - 1):
        assert main(["build", "--example", "koch", "--stage", "5", "--out", out]) == 0
        assert main(["build", "--example", "koch", "--stage", "6", "--out", out]) == 3
    assert "precondition error" in capsys.readouterr().err


def test_bad_spec_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    rc = main(["build", "--spec", str(bad), "--mode", "homogeneous"])
    assert rc == 2


def test_unknown_example_is_parse_error(capsys):
    rc = main(["verify", "--example", "nosuch"])
    assert rc == 2


def test_malformed_family_dimension_is_parse_error(capsys):
    rc = main(["verify", "--example", "mortonx"])
    assert rc == 2


def test_zero_family_dimension_is_parse_error(capsys):
    for name in ["morton0", "hilbert_rp0"]:
        assert main(["verify", "--example", name]) == 2


@pytest.mark.parametrize("cmd", ["build", "verify"])
def test_negative_stage_is_precondition_error(cmd, tmp_path, capsys):
    rc = main([cmd, "--example", "koch", "--stage", "-1",
               "--out", str(tmp_path / "out.json")])
    assert rc == 3
    assert "precondition error" in capsys.readouterr().err


def test_dilation_below_two_is_precondition_error(tmp_path, capsys):
    spec = _write_spec(tmp_path, {**SPEC, "M": 1, "mask": [{"j": 0, "A": [[1.0]]}]})
    assert main(["build", "--spec", spec, "--mode", "homogeneous"]) == 3
    assert "dilation factor must be >= 2" in capsys.readouterr().err


def test_missing_source_errors():
    with pytest.raises(SystemExit):
        main(["verify"])
