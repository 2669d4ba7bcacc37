"""CLI surface tests: synth, register, compare, diff and exit codes."""

import csv
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavereg
from wavereg import load_pgm
from wavereg.cli import METHOD_ALIASES, PATTERN_ALIASES, _build_parser, _make_config, main
from wavereg.fixtures import PATTERNS, REMAP_MODES, FixtureSpec
from wavereg.imageio import save_pgm
from wavereg.pipeline import METHODS


def _synth(out, **kw):
    argv = ["synth", "--size", "128", "-o", str(out)]
    for key, value in kw.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0


def test_synth_produces_files(tmp_path):
    out = tmp_path / "fx"
    _synth(out, pattern="phantom", tx=8, ty=-5, seed=7)
    assert (out / "fixed.pgm").is_file()
    assert (out / "moving.pgm").is_file()
    text = (out / "truth.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    side = json.loads(text)
    assert side["truth"]["tx"] == 8.0
    assert side["truth"]["ty"] == -5.0


def test_synth_missing_size_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "-o", str(tmp_path)])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        _synth(out, pattern="noise", remap="gamma", noise_sigma=0.02, seed=3)
    for name in ("fixed.pgm", "moving.pgm", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_unusable_transform_exit_1(tmp_path, capsys):
    assert main(["synth", "--size", "128", "--tx", "120", "-o", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("option, field", [
    (["--remap", "gamma", "--gamma", "nan"], "gamma"),
    (["--remap", "gamma", "--gamma", "0"], "gamma"),
    (["--noise-sigma", "nan"], "noise_sigma"),
    (["--noise-sigma", "inf"], "noise_sigma"),
    (["--gamma", "nan"], "gamma"),  # the default remap does not use gamma
    (["--theta-deg", "nan"], "theta"),
    (["--tx", "inf"], "tx"),
    (["--sx", "nan"], "sx"),
    (["--shear", "nan"], "k"),
    (["--noise-sigma", "1e308"], "noise_sigma"),  # a finite sigma whose noise overflows
])
def test_synth_non_finite_setting_writes_nothing(tmp_path, capsys, option, field):
    # a NaN gamma used to write a moving.pgm of only 0 and 255, and a NaN
    # noise sigma silently dropped the noise; a NaN gamma with another
    # remap was written to truth.json as NaN, which is not JSON; a
    # non-finite transform was reported as pushing the image out of bounds
    out = tmp_path / "g"
    assert main(["synth", "--size", "64", *option, "-o", str(out)]) == 1
    assert f"error: {field} must be" in capsys.readouterr().err
    assert not (out / "moving.pgm").exists()
    assert not (out / "truth.json").exists()


@pytest.mark.parametrize("option, message", [
    (["--pattern", "noise", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["--pattern", "phantom", "--noise-sigma", "0.01", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["--sx", "1e-320"], "singular affine matrix"),
])
def test_synth_refused_spec_writes_nothing(tmp_path, capsys, option, message):
    # a negative seed failed in NumPy for noise and was written to truth.json
    # for a phantom; sx=1e-320 wrote the inverse's NaN into truth.json
    out = tmp_path / "d"
    assert main(["synth", "--size", "64", *option, "-o", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_aliases_name_the_library_patterns_and_methods():
    # the values are the library's names; the keys are what users type
    assert tuple(PATTERN_ALIASES.values()) == PATTERNS
    assert tuple(METHOD_ALIASES.values()) == METHODS
    assert list(PATTERN_ALIASES) == ["phantom", "checker", "noise"]
    assert list(METHOD_ALIASES) == ["pyramid", "wavelet", "dwt-pyramid"]
    # --remap offers "none" and then the library's modes, in their order
    synth = _build_parser()._subparsers._group_actions[0].choices["synth"]
    (remap,) = [action for action in synth._actions if action.dest == "remap"]
    assert remap.choices == ["none", *REMAP_MODES]
    assert REMAP_MODES == ("invert", "gamma", "neglog")


def test_synth_defaults_are_the_fixture_spec_defaults(tmp_path, monkeypatch):
    specs = []
    monkeypatch.setattr("wavereg.cli.write_fixture", lambda spec, out: specs.append(spec))
    assert main(["synth", "--size", "96", "-o", str(tmp_path / "fx")]) == 0
    assert [dict(_leaves(spec)) for spec in specs] == [dict(_leaves(FixtureSpec(size=96)))]


def test_synth_default_truth_is_strict_json(tmp_path):
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    out = tmp_path / "fx"
    assert main(["synth", "--size", "64", "-o", str(out)]) == 0
    side = json.loads((out / "truth.json").read_text(), parse_constant=refuse)
    assert side["spec"]["gamma"] == 2.0


def test_register_identity_pair(tmp_path):
    fx = tmp_path / "fx"
    _synth(fx, seed=1)
    out = tmp_path / "reg"
    rc = main([
        "register", "--method", "pyramid", str(fx / "fixed.pgm"),
        str(fx / "moving.pgm"), "--seed", "0", "-o", str(out),
    ])
    assert rc == 0
    for name in ("params.json", "metrics.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["cc"] >= 0.99
    assert metrics["method"] == "pyramid"
    registered = load_pgm(out / "registered.pgm")
    mask = load_pgm(out / "mask.pgm")
    assert registered.shape == (128, 128)
    assert set(np.unique(mask)) <= {0.0, 255.0}
    params = json.loads((out / "params.json").read_text())
    assert params["center"] == [63.5, 63.5]
    assert abs(params["tx"]) < 0.5
    # one trace per pyramid level, finest is level 0
    assert (out / "trace_level0.csv").is_file()
    assert (out / "trace_level2.csv").is_file()


def test_register_unknown_method_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["register", "--method", "icp", "a.pgm", "b.pgm", "-o", str(tmp_path)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_register_missing_input_exit_1(tmp_path, capsys):
    rc = main([
        "register", "--method", "pyramid", str(tmp_path / "nope.pgm"),
        str(tmp_path / "nope.pgm"), "-o", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "nope.pgm" in capsys.readouterr().err


def _register_spy(monkeypatch):
    calls = []
    monkeypatch.setattr("wavereg.cli.register", lambda *args: calls.append(args))
    return calls


def test_register_unwritable_output_exit_1(tmp_path, capsys, monkeypatch):
    # -o is created before registering, so a bad one fails before the run
    fx = tmp_path / "fx"
    _synth(fx, seed=1)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    calls = _register_spy(monkeypatch)
    rc = main([
        "register", "--method", "pyramid", str(fx / "fixed.pgm"),
        str(fx / "moving.pgm"), "-o", str(blocker / "out"),
    ])
    assert rc == 1
    assert calls == []
    capsys.readouterr()


def test_compare_unwritable_output_fails_before_registering(tmp_path, capsys,
                                                             monkeypatch):
    root = _make_pairs(tmp_path, 1)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    calls = _register_spy(monkeypatch)
    assert main(["compare", str(root), "-o", str(blocker / "out")]) == 1
    assert calls == []
    capsys.readouterr()


def test_register_negative_seed_fails_before_any_level(tmp_path, capsys, monkeypatch):
    # seed -1 used to run levels 2 and 1 (seeds 1 and 0), then fail at level 0
    fx = tmp_path / "fx"
    _synth(fx, seed=1)
    calls = []
    monkeypatch.setattr("wavereg.pipeline.optimize", lambda *args: calls.append(args))
    rc = main([
        "register", "--method", "pyramid", "--seed", "-1",
        str(fx / "fixed.pgm"), str(fx / "moving.pgm"), "-o", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


def test_register_bad_bins_names_the_cause(tmp_path, capsys):
    fx = tmp_path / "fx"
    _synth(fx, seed=1)
    rc = main([
        "register", "--method", "dwt-pyramid", "--bins", "1",
        str(fx / "fixed.pgm"), str(fx / "moving.pgm"), "-o", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "histogram_bins must be >= 2" in capsys.readouterr().err


# NumPy refuses a 10**19-edge histogram outright: unchecked, the run
# registered every level and failed only in its final metric
HUGE_BINS = str(10**19)


def test_register_huge_bins_fails_before_registering(tmp_path, capsys, monkeypatch):
    fx = tmp_path / "fx"
    _synth(fx, seed=1)
    calls = _register_spy(monkeypatch)
    rc = main([
        "register", "--method", "pyramid", "--bins", HUGE_BINS, "--max-iterations", "1",
        str(fx / "fixed.pgm"), str(fx / "moving.pgm"), "-o", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert calls == []
    assert "histogram_bins must be >= 2 and <= 1024" in capsys.readouterr().err


def test_compare_huge_bins_fails_without_a_report(tmp_path, capsys):
    root = _make_pairs(tmp_path, 1)
    rc = main(["compare", str(root), "--bins", HUGE_BINS, "--max-iterations", "1",
               "-o", str(tmp_path / "o")])
    assert rc == 1
    assert "histogram_bins must be >= 2 and <= 1024" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.csv").exists()


def _leaves(config, prefix=""):
    """(dotted name, value) of every field, nested dataclasses flattened."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def test_every_config_field_is_set_by_a_register_flag():
    # a field that no flag sets is a knob no user reaches: with every
    # register flag off its default, every leaf must be off its default too
    args = _build_parser().parse_args([
        "register", "--method", "wavelet", "fixed.pgm", "moving.pgm",
        "--seed", "3", "--levels", "2", "--bins", "20", "--max-iterations", "7",
        "-o", "out"])
    config = _make_config(args, METHOD_ALIASES[args.method])
    default = dict(_leaves(wavereg.RegistrationConfig()))
    assert [name for name, value in _leaves(config) if value == default[name]] == []
    # and with no run flag, register and compare run each method's own defaults
    for argv in (["register", "--method", "pyramid", "fixed.pgm", "moving.pgm", "-o", "out"],
                 ["compare", "pairs", "-o", "out"]):
        args = _build_parser().parse_args(argv)
        for method in METHODS:
            assert (dict(_leaves(_make_config(args, method)))
                    == dict(_leaves(wavereg.RegistrationConfig(method=method))))


def _make_pairs(tmp_path, n):
    root = tmp_path / "pairs"
    for i in range(n):
        _synth(root / f"p{i}", pattern="phantom", tx=2, ty=-1, seed=i,
               remap="invert")
    return root


def test_compare_five_pairs_report(tmp_path):
    root = _make_pairs(tmp_path, 5)
    out = tmp_path / "cmp"
    rc = main(["compare", str(root), "--max-iterations", "5", "-o", str(out)])
    assert rc == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    data = [r for r in rows if r["id"] != "SUMMARY"]
    summary = [r for r in rows if r["id"] == "SUMMARY"]
    assert len(data) == 15  # 5 pairs x 3 methods
    assert len(summary) == 3
    # winner flags are recomputable from the CSV itself
    for pid in {r["id"] for r in data}:
        group = [r for r in data if r["id"] == pid]
        best_mi = max(float(r["final_mi_bits"]) for r in group)
        best_cc = max(float(r["cc"]) for r in group)
        for r in group:
            assert int(r["mi_winner"]) == (float(r["final_mi_bits"]) == best_mi)
            assert int(r["cc_winner"]) == (float(r["cc"]) == best_cc)
    # summary counts match the flags
    for srow in summary:
        flagged = sum(
            int(r["mi_winner"]) for r in data if r["method"] == srow["method"]
        )
        assert int(srow["mi_winner"]) == flagged


def test_compare_manifest_csv(tmp_path):
    root = _make_pairs(tmp_path, 1)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "id,fixed_path,moving_path\n"
        "only,pairs/p0/fixed.pgm,pairs/p0/moving.pgm\n"
    )
    out = tmp_path / "cmp"
    rc = main(["compare", str(manifest), "--max-iterations", "5", "-o", str(out)])
    assert rc == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(r["id"] == "only" for r in rows) == 3


def test_compare_empty_manifest_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["compare", str(empty), "-o", str(tmp_path / "o")]) == 2
    assert "empty manifest" in capsys.readouterr().err


def test_compare_bad_header_exit_1(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("a,b\n1,2\n")
    assert main(["compare", str(manifest), "-o", str(tmp_path / "o")]) == 1
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ("p0,pairs/p0/fixed.pgm\n", "manifest line 2: needs id, fixed_path and moving_path"),
    ("p0,pairs/p0/fixed.pgm,pairs/p0/moving.pgm\n"
     "p0,pairs/p0/moving.pgm,pairs/p0/fixed.pgm\n",
     "manifest line 3: repeated id 'p0', first at manifest line 2"),
    # an empty cell used to join to the manifest's directory: "Is a directory"
    (",,\n", "manifest line 2: empty id, fixed_path, moving_path"),
    (",pairs/p0/fixed.pgm,pairs/p0/moving.pgm\n", "manifest line 2: empty id"),
    ("p0,,pairs/p0/moving.pgm\n", "manifest line 2: empty fixed_path"),
    ("p0,pairs/p0/fixed.pgm,\n", "manifest line 2: empty moving_path"),
    # report.csv's summary rows carry this id
    ("SUMMARY,pairs/p0/fixed.pgm,pairs/p0/moving.pgm\n",
     "manifest line 2: id 'SUMMARY' is reserved for the summary rows"),
])
def test_compare_bad_manifest_row_exit_1(tmp_path, capsys, rows, message):
    manifest = tmp_path / "m.csv"
    manifest.write_text("id,fixed_path,moving_path\n" + rows)
    assert main(["compare", str(manifest), "-o", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_compare_repeated_directory_id_exit_1(tmp_path, capsys):
    # a root holding a pair and a subdirectory of the same name used to
    # report both pairs under one id
    root = tmp_path / "pairs"
    _synth(root, tx=2)
    _synth(root / "pairs", tx=2)
    assert main(["compare", str(root), "-o", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {root / 'pairs'}: repeated id 'pairs', first at {root}\n")
    assert not (tmp_path / "o").exists()


def test_compare_reserved_directory_id_exit_1(tmp_path, capsys):
    # a pair directory named like report.csv's summary rows
    root = tmp_path / "pairs"
    _synth(root / "SUMMARY", tx=2)
    assert main(["compare", str(root), "-o", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {root / 'SUMMARY'}: id 'SUMMARY' is reserved for the summary rows\n")
    assert not (tmp_path / "o").exists()


def _report(out):
    with open(out / "report.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_compare_survives_failed_pairs(tmp_path, capsys):
    root = _make_pairs(tmp_path, 1)
    good = root / "p0"
    flat = tmp_path / "flat"
    flat.mkdir()
    shutil.copy(good / "fixed.pgm", flat / "fixed.pgm")
    save_pgm(np.full((128, 128), 90.0), flat / "moving.pgm")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "id,fixed_path,moving_path\n"
        "good,pairs/p0/fixed.pgm,pairs/p0/moving.pgm\n"
        "flat,flat/fixed.pgm,flat/moving.pgm\n"
        "gone,flat/fixed.pgm,flat/missing.pgm\n"
    )
    rc = main(["compare", str(manifest), "--max-iterations", "5",
               "-o", str(tmp_path / "cmp")])
    assert rc == 3
    assert "6 of 9 registrations failed" in capsys.readouterr().err
    rows = _report(tmp_path / "cmp")
    assert [(r["id"], r["method"]) for r in rows] == [
        (pid, m) for pid in ("flat", "gone", "good", "SUMMARY")
        for m in ("pyramid", "wavelet", "dwt_pyramid")
    ]
    for r in rows[:6]:
        assert r["status"].startswith("error: ")
        assert (r["max_mi_bits"], r["final_mi_bits"], r["cc"]) == ("", "", "")
        assert (r["mi_winner"], r["cc_winner"]) == ("0", "0")
    assert all("moving image is constant" in r["status"] for r in rows[:3])
    assert all("missing.pgm" in r["status"] for r in rows[3:6])
    # error and SUMMARY rows leave their metric cells, and SUMMARY its status, empty
    lines = (tmp_path / "cmp" / "report.csv").read_text().splitlines()
    assert all(line.startswith(f"{r['id']},{r['method']},,,,0,0,")
               for line, r in zip(lines[1:7], rows))
    assert all(re.fullmatch(r"SUMMARY,\w+,,,,\d+,\d+,", line) for line in lines[-3:])

    # the good pair reports exactly what a clean run of it alone reports
    alone = tmp_path / "alone.csv"
    alone.write_text("id,fixed_path,moving_path\n"
                     "good,pairs/p0/fixed.pgm,pairs/p0/moving.pgm\n")
    assert main(["compare", str(alone), "--max-iterations", "5",
                 "-o", str(tmp_path / "clean")]) == 0
    clean = _report(tmp_path / "clean")
    assert all(r["status"] == "ok" for r in clean[:3])
    assert rows[6:] == clean


def test_compare_bad_option_fails_before_registering(tmp_path, capsys):
    root = _make_pairs(tmp_path, 1)
    # a negative seed used to write a report whose every row was an error
    for option, message in ((["--bins", "1"], "histogram_bins must be >= 2"),
                            (["--seed", "-1"], "seed must be >= 0, got -1")):
        rc = main(["compare", str(root), *option, "-o", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_help_documents_exit_codes(capsys):
    for argv in (["--help"], ["compare", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo the wrapping
        assert "3 compare wrote report.csv but some registrations failed" in text


def test_help_explains_max_mi_bits(capsys):
    for command in ("register", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "max_mi_bits is the best value in the method's own objective space" in text
        assert "for dwt_pyramid a sum of band MIs with clamped bins" in text
        assert "compare methods by mi_bits (metrics.json) or final_mi_bits" in text


def test_import_leaves_scipy_unloaded():
    src = str(Path(wavereg.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import wavereg, wavereg.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_diff_identical_greyscale(tmp_path):
    img = np.random.default_rng(0).uniform(0, 255, (32, 32)).round()
    for name in ("a.pgm", "b.pgm"):
        save_pgm(img, tmp_path / name)
    save_pgm(np.full((32, 32), 255.0), tmp_path / "mask.pgm")
    out = tmp_path / "d.ppm"
    rc = main(["diff", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"),
               str(tmp_path / "mask.pgm"), "-o", str(out)])
    assert rc == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n32 32\n255\n")
    rgb = np.frombuffer(data[len(b"P6\n32 32\n255\n"):], dtype=np.uint8)
    rgb = rgb.reshape(32, 32, 3)
    assert np.array_equal(rgb[..., 0], rgb[..., 1])
    assert np.array_equal(rgb[..., 0], rgb[..., 2])


def test_diff_disjoint_stripes_fuchsia(tmp_path):
    fixed = np.zeros((16, 16))
    fixed[:, ::2] = 255.0
    registered = 255.0 - fixed
    save_pgm(fixed, tmp_path / "f.pgm")
    save_pgm(registered, tmp_path / "r.pgm")
    save_pgm(np.full((16, 16), 255.0), tmp_path / "m.pgm")
    out = tmp_path / "d.ppm"
    assert main(["diff", str(tmp_path / "f.pgm"), str(tmp_path / "r.pgm"),
                 str(tmp_path / "m.pgm"), "-o", str(out)]) == 0
    data = out.read_bytes()
    rgb = np.frombuffer(data.split(b"\n", 3)[3], dtype=np.uint8).reshape(16, 16, 3)
    fuchsia = (rgb[..., 0] == 255) & (rgb[..., 2] == 255) & (rgb[..., 1] < 128)
    assert fuchsia.all()


def test_diff_missing_file_exit_1(tmp_path, capsys):
    rc = main(["diff", str(tmp_path / "gone.pgm"), str(tmp_path / "gone.pgm"),
               str(tmp_path / "gone.pgm"), "-o", str(tmp_path / "d.ppm")])
    assert rc == 1
    assert "gone.pgm" in capsys.readouterr().err
