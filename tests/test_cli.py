"""CLI: grammar parsing, report content, exit statuses, JSON schema."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import jensen_sharp
from jensen_sharp import NumericError
from jensen_sharp.cli import (
    CliParseError,
    RunConfig,
    main,
    paper_report,
    parse_args,
    parse_distribution_text,
    parse_function_text,
    parse_oracle_text,
    render,
    run,
)

SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "report_schema.json").read_text())


def validate_report(report: dict) -> None:
    jsonschema.validate(report, SCHEMA)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def test_parse_function_texts():
    assert parse_function_text("exp:t=0.5").label == "exp:t=0.5"
    assert parse_function_text("power:p=-1").label == "power:p=-1"
    assert parse_function_text("neglog").label == "neglog"
    assert parse_function_text("quad:a=1,b=0,c=0").label == "quad:a=1,b=0,c=0"
    assert parse_function_text("quad:a=2").label == "quad:a=2,b=0,c=0"


@pytest.mark.parametrize(
    "text,needle",
    [
        ("exp:t=zero", "zero"),
        ("exp:t=0", "t"),
        ("gauss:t=1", "gauss"),
        ("power", "p"),
        ("quad:a=1,a=2", "duplicate"),
        ("exp:t", "t"),
        ("exp:t=1,x=2", r"for 'exp': \['x'\]"),
        ("exp:=1", "empty key"),
    ],
)
def test_parse_function_errors_name_the_bad_token(text, needle):
    with pytest.raises(CliParseError, match=needle):
        parse_function_text(text)


def test_parse_distribution_texts(tmp_path):
    d = parse_distribution_text("normal:mu=0,sigma=1")
    assert d.mean() == 0.0 and d.variance() == 1.0
    assert parse_distribution_text("exp:rate=2").mean() == 0.5
    assert parse_distribution_text("uniform:lo=10,hi=100").mean() == 55.0
    p = tmp_path / "xs.txt"
    p.write_text("1.0\n2.0\n3.0\n")
    assert parse_distribution_text(f"file:{p}").mean() == 2.0


@pytest.mark.parametrize(
    "text,needle",
    [
        ("poisson:rate=1", "poisson"),
        ("normal:mu=0", "sigma"),
        ("normal:mu=0,sigma=-1", "sigma"),
        ("file:", "path"),
        ("uniform:lo=2,hi=1", "lo"),
        ("normal:mu=0,sigma=1,foo=3", r"for 'normal': \['foo'\]"),
        ("exp:rate=1,sigma=3", r"for 'exp': \['sigma'\]"),
        ("uniform:lo=1,hi=2,sigma=9", r"for 'uniform': \['sigma'\]"),
    ],
)
def test_parse_distribution_errors(text, needle):
    with pytest.raises(CliParseError, match=needle):
        parse_distribution_text(text)


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_sample_file_is_a_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "xs.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe1.0\n2.0\n")
    argv = ["sample-bound", "--phi", "neglog", "--dist", f"file:{path}"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad distribution spec")
    assert main(argv + ["--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    assert report["error"].startswith("bad distribution spec")


def test_parse_oracle_text():
    assert parse_oracle_text("quad") == ("quad", 1_000_000, 42)
    assert parse_oracle_text("mc:n=1000,seed=7") == ("mc", 1000, 7)
    assert parse_oracle_text("mc") == ("mc", 1_000_000, 42)
    with pytest.raises(CliParseError, match="dice"):
        parse_oracle_text("dice")
    with pytest.raises(CliParseError):
        parse_oracle_text("quad:n=5")


def test_parse_errors_name_an_unknown_mc_key_and_a_cut_at_infinity():
    with pytest.raises(CliParseError, match=r"unexpected oracle parameter\(s\): \['k'\]"):
        parse_oracle_text("mc:n=10,k=2")
    with pytest.raises(CliParseError, match="cut points must be finite, got inf"):
        parse_args(["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1",
                    "--cuts", "inf"])


def test_parse_args_builds_the_config():
    cases = [
        (["bound", "--phi", "exp:t=0.5", "--dist", "exp:rate=1", "--oracle", "quad"],
         RunConfig("bound", phi="exp:t=0.5", dist="exp:rate=1", oracle="quad")),
        (["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1", "--cells", "3"],
         RunConfig("partition", phi="exp:t=1", dist="normal:mu=0,sigma=1", cells=3)),
        (["partition", "--phi", "neglog", "--dist", "uniform:lo=1,hi=9", "--cuts", "2.5,5.0"],
         RunConfig("partition", phi="neglog", dist="uniform:lo=1,hi=9", cuts=(2.5, 5.0))),
        (["power-mean", "--dist", "uniform:lo=10,hi=100", "--r", "1", "--s", "-1"],
         RunConfig("power-mean", dist="uniform:lo=10,hi=100", r=1.0, s=-1.0)),
        (["paper", "--format", "json"], RunConfig("paper", output_format="json")),
    ]
    for argv, expected in cases:
        assert parse_args(argv) == expected


_MC = ["oracle", "--phi", "exp:t=0.5", "--dist", "exp:rate=1", "--oracle"]


@pytest.mark.parametrize(
    "argv",
    [
        _MC + ["mc:n=inf"],
        _MC + ["mc:n=nan"],
        _MC + ["mc:n=-5"],
        _MC + ["mc:n=2.7"],
        _MC + ["mc:n=1000,seed=-1"],
        _MC + ["mc:n=1000,seed=inf"],
        _MC + ["mc:n=1000,seed=2.5"],
    ],
    ids=["n-inf", "n-nan", "n-negative", "n-fraction", "seed-negative", "seed-inf",
         "seed-fraction"],
)
def test_bad_monte_carlo_specs_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "must be a nonnegative integer" in capsys.readouterr().err


def test_integral_monte_carlo_specs_still_parse():
    assert parse_oracle_text("mc:n=1e3,seed=0") == ("mc", 1000, 0)


def test_seed_is_set_only_in_the_monte_carlo_spec(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--phi", "exp:t=1", "--dist", "exp:rate=2", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------


def test_bound_command_reference_run():
    status, report = run(
        parse_args(["bound", "--phi", "exp:t=0.5", "--dist", "exp:rate=1", "--oracle", "quad"])
    )
    assert status == 0
    validate_report(report)
    assert report["bounds"]["lower"] == pytest.approx(0.1756, abs=1e-4)
    assert report["bounds"]["upper"] == "inf"
    assert report["oracle"]["value"] == pytest.approx(0.3513, abs=1e-4)
    assert report["bracket"]["pass"] is True


def test_text_and_json_report_identical_numbers():
    cfg = parse_args(["bound", "--phi", "exp:t=0.5", "--dist", "exp:rate=1", "--oracle", "quad"])
    _, report = run(cfg)
    text = render(report, "text")
    assert repr(report["bounds"]["lower"]) in text
    assert repr(report["oracle"]["value"]) in text
    assert "inf" in text
    blob = json.loads(render(report, "json"))
    assert blob == report


def test_sample_bound_command(tmp_path, pinned_sample):
    data = Path(__file__).parent.parent / "src/jensen_sharp/data/uniform_10_100_seed42.txt"
    status, report = run(
        parse_args(
            ["sample-bound", "--phi", "neglog", "--dist", f"file:{data}", "--oracle", "exact"]
        )
    )
    assert status == 0
    validate_report(report)
    assert report["sample"]["n"] == 100
    assert report["bracket"]["pass"] is True
    assert report["bounds"]["method"] == "sample"


@pytest.mark.parametrize(
    "command",
    [
        lambda data: run(parse_args(["sample-bound", "--phi", "neglog", "--dist", f"file:{data}"])),
        lambda data: paper_report(),
    ],
    ids=["sample-bound", "paper"],
)
def test_each_sample_law_is_built_once(monkeypatch, command):
    data = Path(__file__).parent.parent / "src/jensen_sharp/data/uniform_10_100_seed42.txt"
    built = [0]
    original = jensen_sharp.Empirical.__post_init__

    def counted(self):
        built[0] += 1
        original(self)

    monkeypatch.setattr(jensen_sharp.Empirical, "__post_init__", counted)
    command(data)
    assert built[0] == 1


def test_sample_bound_needs_at_least_two_samples(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    status = main(["sample-bound", "--phi", "neglog", "--dist", f"file:{p}"])
    assert status == 2
    assert "need at least 2 samples" in capsys.readouterr().err


def test_sample_past_the_float_range_exits_three(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text("1e308\n1e308\n")
    status = main(["sample-bound", "--phi", "quad:a=1", "--dist", f"file:{p}"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert captured.err == "error: the atoms sum past the float range\n"


def test_sample_bound_rejects_analytic_distribution():
    status, report = run(
        parse_args(["sample-bound", "--phi", "neglog", "--dist", "uniform:lo=1,hi=2"])
    )
    assert status == 2
    assert "file:PATH" in report["error"]


def test_partition_command_matches_library(tmp_path):
    argv = [
        "partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1",
        "--cells", "3", "--oracle", "quad",
    ]
    status, report = run(parse_args(argv))
    assert status == 0
    validate_report(report)
    cells = report["cells"]
    assert len(cells) == 3
    assert cells[0]["mean"] == pytest.approx(-1.091, abs=1e-3)
    assert cells[1]["variance"] == pytest.approx(0.060, abs=1e-3)
    assert cells[2]["inf_h"] == pytest.approx(1.209, abs=2e-3)
    assert cells[2]["sup_h"] == "inf"
    assert report["bounds"]["lower"] == pytest.approx(0.40604, abs=1e-4)
    assert report["bounds"]["upper"] == "inf"
    assert report["bracket"]["pass"] is True


def _count_partition_h_extrema(monkeypatch) -> list[int]:
    """Count the partition's h extrema searches: ``h_extrema`` for the coarse term, and one
    for each cell that ``cell_h_extrema`` hands to the per-cell search ``_h_extrema_each``."""
    import jensen_sharp.partition as partition_mod

    calls = [0]
    original_one, original_each = partition_mod.h_extrema, partition_mod._h_extrema_each

    def counted_one(*args):
        calls[0] += 1
        return original_one(*args)

    def counted_each(f, intervals):
        intervals = list(intervals)
        calls[0] += len(intervals)
        return original_each(f, intervals)

    monkeypatch.setattr(partition_mod, "h_extrema", counted_one)
    monkeypatch.setattr(partition_mod, "_h_extrema_each", counted_each)
    return calls


@pytest.mark.parametrize("m", [2, 4])
def test_partition_command_finds_each_cell_extremum_once(monkeypatch, m):
    calls = _count_partition_h_extrema(monkeypatch)
    argv = ["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1", "--cells", str(m)]
    status, report = run(parse_args(argv))
    assert status == 0 and len(report["cells"]) == m
    assert calls[0] == m + 1  # the coarse term and one per cell


def test_paper_report_finds_each_cell_extremum_once(monkeypatch):
    calls = _count_partition_h_extrema(monkeypatch)
    paper_report()
    assert calls[0] == 3 + 1  # the three-cell normal refinement


def test_partition_cuts_equivalent_to_cells():
    base = ["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1"]
    _, by_cells = run(parse_args(base + ["--cells", "2"]))
    _, by_cuts = run(parse_args(base + ["--cuts", "0.0"]))
    assert by_cells["bounds"]["lower"] == pytest.approx(by_cuts["bounds"]["lower"], rel=1e-12)


def test_partition_rejects_bad_cuts():
    status, report = run(
        parse_args(
            ["partition", "--phi", "exp:t=1", "--dist", "uniform:lo=0,hi=1", "--cuts", "2.0"]
        )
    )
    assert status == 2
    assert "cut" in report["error"]
    with pytest.raises(CliParseError, match="no cut points"):
        parse_args(["partition", "--phi", "exp:t=1", "--dist", "uniform:lo=0,hi=1", "--cuts", ""])


def test_power_mean_command(pinned_sample):
    data = Path(__file__).parent.parent / "src/jensen_sharp/data/uniform_10_100_seed42.txt"
    argv = [
        "power-mean", "--dist", f"file:{data}", "--r", "1", "--s", "-1",
        "--oracle", "exact",
    ]
    status, report = run(parse_args(argv))
    assert status == 0
    validate_report(report)
    pm = report["power_mean"]
    harmonic = pinned_sample.size / sum(1.0 / x for x in pinned_sample)
    assert pm["mean_lower"] <= harmonic <= pm["mean_upper"]
    assert pm["mean_upper"] < float(pinned_sample.mean())
    assert report["bracket"]["pass"] is True
    assert report["oracle_moment"] == pytest.approx(1.0 / harmonic, rel=1e-9)


def _oracle_moment(argv: list[str]) -> tuple[float, float]:
    status, report = run(parse_args(argv))
    assert status == 0
    validate_report(report)
    assert report["bracket"]["pass"] is True
    return report["oracle_moment"], report["oracle"]["error_bound"]


def test_power_mean_monte_carlo_oracle_measures_the_moment_on_the_source_law():
    """E[X**0.5] for X ~ Exponential(1) is Gamma(1.5).

    Sampling the power-transformed law X**2 misplaces the mass near 0, which
    put this estimate 7 error bounds off.
    """
    moment, err = _oracle_moment([
        "power-mean", "--dist", "exp:rate=1", "--r", "2", "--s", "0.5",
        "--oracle", "mc:n=100000,seed=1",
    ])
    assert abs(moment - math.gamma(1.5)) <= 3.0 * err


def test_power_mean_quadrature_oracle_lands_within_its_error_bound():
    moment, err = _oracle_moment([
        "power-mean", "--dist", "exp:rate=1.3", "--r", "0.5", "--s", "1.5", "--oracle", "quad",
    ])
    assert abs(moment - math.gamma(2.5) / 1.3**1.5) <= err


def test_power_mean_oracle_builds_the_power_transform_once(monkeypatch):
    import jensen_sharp.bounds as bounds_mod
    import jensen_sharp.cli as cli_mod

    calls = [0]
    original = bounds_mod.transform_power

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(bounds_mod, "transform_power", counted)
    # the CLI does not import it; patching it anyway counts a build that comes back
    monkeypatch.setattr(cli_mod, "transform_power", counted, raising=False)
    argv = ["power-mean", "--dist", "exp:rate=1.3", "--r", "0.5", "--s", "1.5", "--oracle", "quad"]
    status, _ = run(parse_args(argv))
    assert status == 0
    assert calls[0] == 1  # the bracket's own Y = X**r; the oracle works on X


def test_oracle_command_mc_reproducible():
    argv = ["oracle", "--phi", "exp:t=0.5", "--dist", "exp:rate=1", "--oracle", "mc:n=5000,seed=3"]
    _, a = run(parse_args(argv))
    _, b = run(parse_args(argv))
    validate_report(a)
    assert a["oracle"]["value"] == b["oracle"]["value"]
    assert a["oracle"]["method"] == "monte-carlo(n=5000,seed=3)"


def test_oracle_command_mc_past_the_float_range_exits_three():
    argv = ["oracle", "--phi", "exp:t=704", "--dist", "uniform:lo=0,hi=1", "--oracle", "mc"]
    status, report = run(parse_args(argv))
    assert status == 3
    assert "non-finite phi values" in report["error"]


def test_power_mean_past_the_float_range_exits_three(capsys):
    status = main(["power-mean", "--dist", "exp:rate=1e-100", "--r", "1", "--s", "4"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == "" and "past the float range" in captured.err


def test_power_mean_of_a_sample_whose_power_is_past_the_float_range_exits_three(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    p.write_text("1e150\n1.1e150\n")
    status = main(["power-mean", "--dist", f"file:{p}", "--r", "3", "--s", "1"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == "" and "X**r = X**3.0 is past the float range" in captured.err


def test_a_normal_whose_variance_is_past_the_float_range_exits_two(capsys):
    argv = ["oracle", "--phi", "quad:a=1", "--dist", "normal:mu=0,sigma=1e200", "--oracle", "quad"]
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == "" and "too large" in captured.err


def test_oracle_command_defaults_to_auto():
    status, report = run(parse_args(["oracle", "--phi", "neglog", "--dist", f"file:{_SAMPLE}"]))
    assert status == 0
    assert report["inputs"]["oracle"] == "auto"
    assert report["oracle"]["method"] == "exact-sum"


def test_paper_command_reports_known_discrepancy(capsys):
    status = main(["paper"])
    out = capsys.readouterr().out
    assert status == 1  # one documented reference-value failure
    assert "FAIL" in out and "refined lower bound" in out
    # every other row passes
    failing = [line for line in out.splitlines() if line.strip().startswith("[FAIL]")]
    assert len(failing) == 1
    assert "0.409" in failing[0] or "refined lower bound" in failing[0]


def test_paper_command_json_schema():
    status, report = run(parse_args(["paper", "--format", "json"]))
    assert status == 1
    validate_report(report)
    assert sorted(report) == ["command", "pass", "rows"]
    rows = report["rows"]
    assert sum(1 for r in rows if not r["pass"]) == 1
    [bad] = [r for r in rows if not r["pass"]]
    assert bad["reference"] == 0.409
    assert bad["computed"] == pytest.approx(0.40604, abs=1e-4)


def test_paper_takes_no_seed(capsys):
    assert main(["paper"]) == 1  # the 0.409 row
    assert "refined lower bound" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        parse_args(["paper", "--seed", "3"])
    assert exc.value.code == 2


_SAMPLE = Path(__file__).parent.parent / "src/jensen_sharp/data/uniform_10_100_seed42.txt"
_BOUNDS_KEYS = ["bounds", "bracket", "command", "inputs", "oracle"]


@pytest.mark.parametrize(
    "argv,top_keys,input_keys",
    [
        (["bound", "--phi", "exp:t=0.5", "--dist", "exp:rate=1"],
         _BOUNDS_KEYS, ["phi", "dist", "oracle"]),
        (["sample-bound", "--phi", "neglog", "--dist", f"file:{_SAMPLE}"],
         sorted(_BOUNDS_KEYS + ["sample"]), ["phi", "dist", "oracle"]),
        (["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1", "--cells", "2"],
         sorted(_BOUNDS_KEYS + ["cells"]), ["phi", "dist", "cells", "cuts", "oracle"]),
        (["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1", "--cuts", "0"],
         sorted(_BOUNDS_KEYS + ["cells"]), ["phi", "dist", "cells", "cuts", "oracle"]),
        (["power-mean", "--dist", "uniform:lo=1,hi=3", "--r", "1", "--s", "2"],
         ["bracket", "command", "inputs", "oracle", "oracle_moment", "power_mean"],
         ["dist", "r", "s", "oracle"]),
        (["oracle", "--phi", "exp:t=0.5", "--dist", "exp:rate=1"],
         ["command", "inputs", "oracle"], ["phi", "dist", "oracle"]),
    ],
    ids=["bound", "sample-bound", "partition-cells", "partition-cuts", "power-mean", "oracle"],
)
def test_report_layout_is_pinned(argv, top_keys, input_keys):
    status, report = run(parse_args(argv + ["--oracle", "mc:n=1000,seed=1"]))
    assert status == 0
    validate_report(report)
    assert sorted(report) == top_keys
    assert list(report["inputs"]) == input_keys
    printed = [key for key in input_keys if report["inputs"][key] is not None]
    lines = render(report, "text").splitlines()[1 : 1 + len(printed)]
    assert [line.split(":")[0] for line in lines] == printed


def test_numeric_errors_exit_three(monkeypatch):
    import jensen_sharp.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli_mod, "jensen_bounds", boom)
    status, report = run(parse_args(["bound", "--phi", "exp:t=1", "--dist", "exp:rate=1"]))
    assert status == 3
    assert "synthetic numeric failure" in report["error"]


def test_main_prints_json(capsys):
    status = main(["bound", "--phi", "quad:a=1", "--dist", "uniform:lo=0,hi=1", "--format", "json"])
    assert status == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["bounds"]["lower"] == pytest.approx(1.0 / 12.0, rel=1e-12)
    validate_report(blob)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        parse_args(["bound", "--phi", "exp:t=1"])  # missing --dist
    assert exc.value.code == 2


def test_divergent_oracle_reports_infinite_value():
    status, report = run(
        parse_args(["oracle", "--phi", "exp:t=1", "--dist", "exp:rate=1", "--oracle", "quad"])
    )
    assert status == 0
    assert report["oracle"]["value"] == "inf"
    validate_report(report)


# ---------------------------------------------------------------------------
# scipy loads only when a command integrates, and then only QUADPACK's extension
# ---------------------------------------------------------------------------

_PACKAGE_DIR = Path(jensen_sharp.__file__).resolve().parent

# prints the exit status, whether any scipy is loaded, then each heavy subpackage loaded
_RUN_MAIN = """
import contextlib, io, sys
from jensen_sharp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
heavy = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse", "scipy.linalg")
print(status, "scipy" in sys.modules, *(name for name in heavy if name in sys.modules))
"""


def _fresh_python(code: str, *argv: str) -> list[str]:
    """Run ``code`` in a new interpreter that imports this package; return its stdout words."""
    path = [str(_PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_leaves_scipy_unloaded():
    assert _fresh_python("import sys, jensen_sharp; print('scipy' in sys.modules)") == ["False"]


@pytest.mark.parametrize(
    "argv,status,loads_scipy",
    [
        (["bound", "--phi", "exp:t=0.5", "--dist", "exp:rate=1"], 0, False),
        (
            ["sample-bound", "--phi", "neglog", "--oracle", "exact",
             "--dist", f"file:{_PACKAGE_DIR / 'data/uniform_10_100_seed42.txt'}"],
            0,
            False,
        ),
        (["oracle", "--phi", "exp:t=0.5", "--dist", "exp:rate=1", "--oracle", "mc:n=1000,seed=1"],
         0, False),
        (["bound", "--phi", "exp:t=0.5", "--dist", "exp:rate=1", "--oracle", "quad"], 0, True),
        # interior cells of an equal-probability normal partition are narrower than 0.1 sd,
        # and integrated, from about 25 cells on
        (["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1", "--cells", "16"],
         0, False),
        (["partition", "--phi", "exp:t=1", "--dist", "normal:mu=0,sigma=1", "--cells", "50"],
         0, True),
        # the moments of X**r are closed-form on exponential and uniform laws
        (["power-mean", "--dist", "exp:rate=1", "--r", "0.5", "--s", "1.5"], 0, False),
        (["power-mean", "--dist", "uniform:lo=1,hi=3", "--r", "3", "--s", "1.5"], 0, False),
        # exit status 1 is the acceptance-2 0.409 row, red by design
        (["paper"], 1, True),
    ],
    ids=["bound", "sample-bound-exact", "oracle-mc", "bound-quad", "partition-16", "partition-50",
         "power-mean-r-half", "power-mean-uniform", "paper"],
)
def test_scipy_loads_only_for_quadrature(argv, status, loads_scipy):
    # no row loads scipy.integrate, .optimize, .special, .sparse or .linalg
    assert _fresh_python(_RUN_MAIN, *argv) == [str(status), str(loads_scipy)]
