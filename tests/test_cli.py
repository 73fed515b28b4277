"""Command-line surface: ingestion rules, subcommand behavior, exit
codes, determinism, and file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twcm
from twcm import cli
from twcm.cli import ColumnSpec, ingest, main, parse_column_specs
from twcm.errors import DomainError
from twcm.presets import buoy_mixture, independence_like_model, protein_model

TWO_PI = 2.0 * np.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CIRC3 = "a:circular,b:circular,c:circular"
CYL = "wave_dir:circular,wind_dir:circular,height:linear"
BUOY_FAMS = "wrapped_cauchy,wrapped_cauchy,weibull"
LIN3 = "x:linear,y:linear,z:linear"
DEG = "a:circular:degrees,b:circular:degrees,h:linear"
VM3 = "von_mises,von_mises,von_mises"


def write_rows(path, rows):
    """A CSV of ``rows`` under a header, every value written by ``repr``."""
    path.write_text("a,b,c\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows.tolist()))


def _repr_rows():
    """10^4 rows of positive doubles over every exponent, written by ``repr``,
    with the subnormal, normal and finite extremes among them."""
    bits = np.random.default_rng(5).integers(0, 2**63, size=40_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values) & (values > 0.0)][:29_997]
    values = np.concatenate([[5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
                             values])
    assert values.size == 30_000
    rows = values.reshape(-1, 3).tolist()
    return "x,y,z\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in rows)


def _ingest_outcome(path, specs):
    """``ingest``'s data shape and bytes and rejected lines, or its error."""
    try:
        data, rejected = ingest(path, specs)
    except DomainError as exc:
        return f"DomainError: {exc}"
    return data.shape, data.tobytes(), rejected


# (file text, column specs, whether the one-call parse reads it)
INGEST_CASES = {
    "comments": ("# synthetic\n  # indented\na,b,h\n1,2,3\n# between\n4,5,6\n\t#tab\n7,8,-9\n",
                 CYL, True),
    "blank-lines": ("\na,b,h\n\n1,2,3\n\n4,5,6\n\n", CYL, True),
    "whitespace-only-line": ("a,b,h\n1,2,3\n   \n4,5,6\n", CYL, False),
    "crlf": ("a,b,h\r\n1,2,3\r\n4,5,-6\r\n", CYL, False),
    "quoted": ('a,b,h\n1,"2",3\n"4",5,6\n', CYL, False),
    "four-fields": ("a,b,h\n1,2,3,4\n4,5,6,-7\n", CYL, False),
    "two-fields": ("a,b,h\n1,2\n4,5\n", CYL, False),
    "ragged": ("a,b,h\n1,2,3,4\n1,2\n4,5,6\n", CYL, False),
    "underscore": ("a,b,h\n1_000,2,3\n4,5,6\n", CYL, False),
    "non-finite": ("a,b,h\nnan,1,2\n1,-Infinity,2\n1,2,1e400\n4,5,6\n", CYL, True),
    "trailing-comment": ("a,b,h\n1,2,3 # note\n4,5,6\n", CYL, False),
    "separator-as-space": ("a,b,h\n1,2,3\x1c\n4,5,6\n", CYL, False),
    "no-final-newline": ("a,b,h\n1,2,3\n4,5,6", CYL, True),
    "header-only": ("# note\na,b,h\n", CYL, True),
    "degrees": ("a,b,h\n400,-90,2\n-720.5,1e3,3\n 45 , 30.25 ,\t0.5\n", DEG, True),
    "repr-doubles": (_repr_rows(), LIN3, True),
}


def test_import_does_not_load_scipy():
    # every CLI process pays for what `import twcm` loads; scipy is a test
    # dependency only
    src = str(Path(twcm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import twcm\n"
        "print(scipy())\n"
        "import twcm.cli\n"
        "print(scipy())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["[]", "[]"]


class TestColumnSpecs:
    def test_parse_with_units(self):
        specs = parse_column_specs("x:circular:degrees,y:circular,z:linear")
        assert specs[0] == ColumnSpec("x", "circular", "degrees")
        assert specs[1].unit == "radians"
        assert specs[2].domain == "linear"

    def test_wrong_count_rejected(self):
        with pytest.raises(DomainError):
            parse_column_specs("x:circular,y:circular")

    def test_bad_domain_rejected(self):
        with pytest.raises(DomainError):
            parse_column_specs("x:spherical,y:circular,z:linear")

    def test_unit_on_linear_rejected(self):
        with pytest.raises(DomainError):
            ColumnSpec("z", "linear", "degrees")


class TestIngest:
    def test_three_row_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n0.1,0.2,0.3\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        data, rejected = ingest(path, parse_column_specs(CIRC3))
        assert rejected == []
        np.testing.assert_allclose(
            data, [[0.1, 0.2, 0.3], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        )

    def test_degrees_converted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n180,90,1.0\n")
        specs = parse_column_specs(
            "a:circular:degrees,b:circular:degrees,c:linear"
        )
        data, _ = ingest(path, specs)
        np.testing.assert_allclose(data[0, :2], [np.pi, np.pi / 2], rtol=1e-12)

    def test_negative_linear_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("w,v,h\n1.0,2.0,0.5\n1.0,2.0,-3.0\n0.5,0.5,1.0\n")
        data, rejected = ingest(path, parse_column_specs(CYL))
        assert data.shape == (2, 3)
        assert rejected == [(3, "nonpositive value in height")]

    def test_non_numeric_and_short_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1.0,oops,3.0\n1.0,2.0\n0.3,0.4,0.5\n")
        data, rejected = ingest(path, parse_column_specs(CIRC3))
        assert data.shape == (1, 3)
        assert [r[0] for r in rejected] == [2, 3]

    def test_angles_wrapped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n-1.0,7.0,1.0\n")
        data, _ = ingest(path, parse_column_specs(CIRC3))
        assert 0.0 <= data[0, 0] < TWO_PI
        assert data[0, 0] == pytest.approx(TWO_PI - 1.0)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# synthetic\n# seed=1\na,b,c\n1,2,3\n")
        data, _ = ingest(path, parse_column_specs(CIRC3))
        assert data.shape == (1, 3)

    def test_mixed_file_exact_result(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "# synthetic\n"
            "a,b,h\n"
            "\n"
            "400,-0.5,2.0\n"
            "10,7.0\n"
            "# a comment between rows\n"
            "x,1.0,1.0\n"
            "nan,1.0,1.0\n"
            "10,inf,-1.0\n"
            "-90,1.0,0.0\n"
            "-90,6.5,3.5\n"
        )
        specs = parse_column_specs("a:circular:degrees,b:circular,h:linear")
        data, rejected = ingest(path, specs)
        assert rejected == [
            (5, "fewer than 3 fields"),
            (7, "non-numeric value"),
            (8, "non-finite value in a"),
            (9, "non-finite value in b"),
            (10, "nonpositive value in h"),
        ]
        expected = np.array([
            [np.mod(np.deg2rad(400.0), TWO_PI), np.mod(-0.5, TWO_PI), 2.0],
            [np.mod(np.deg2rad(-90.0), TWO_PI), np.mod(6.5, TWO_PI), 3.5],
        ])
        np.testing.assert_array_equal(data, expected)

    def test_all_rows_invalid_is_hard_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("w,v,h\n1.0,2.0,-1.0\n")
        with pytest.raises(DomainError):
            ingest(path, parse_column_specs(CYL))

    def test_rejected_line_is_where_the_row_starts(self, tmp_path):
        # the quoted header field spans lines 1-2, so the rows are on 3 and 4
        path = tmp_path / "d.csv"
        path.write_text('a,"b\nx",h\n1,2,-3\n1,2,3\n')
        data, rejected = ingest(path, parse_column_specs(CYL))
        assert rejected == [(3, "nonpositive value in height")]
        np.testing.assert_array_equal(data, [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("case", list(INGEST_CASES))
    def test_one_call_parse_matches_row_loop(self, tmp_path, monkeypatch, case):
        text, columns, plain = INGEST_CASES[case]
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        specs = parse_column_specs(columns)
        loop_calls = []
        parse_records = cli._parse_records

        def counted_row_loop(text):
            loop_calls.append(text)
            return parse_records(text)

        monkeypatch.setattr(cli, "_parse_records", counted_row_loop)
        fast = _ingest_outcome(path, specs)
        assert loop_calls == ([] if plain else [text])
        monkeypatch.setattr(cli, "_parse_plain", lambda text: None)
        loop = _ingest_outcome(path, specs)
        assert fast == loop

    def test_plain_files_skip_the_row_loop(self, tmp_path, monkeypatch):
        synth = tmp_path / "synth.csv"
        assert main(["synth", "--preset", "buoy", "--n", "50", "--seed", "3",
                     "--out", str(synth)]) == 0
        bench = tmp_path / "bench.csv"
        rows = buoy_mixture().sample(50, seed=4)
        bench.write_text("c1,c2,c3\n" + "".join(f"{a!r},{b!r},{c!r}\n"
                                                for a, b, c in rows.tolist()))

        def row_loop(text):
            raise AssertionError("a plain file took the row loop")

        monkeypatch.setattr(cli, "_parse_records", row_loop)
        for path in (synth, bench):
            data, rejected = ingest(path, parse_column_specs(CYL))
            assert data.shape == (50, 3) and rejected == []


class TestCommands:
    def test_synth_marks_output_synthetic(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "synth", "--preset", "protein", "--n", "20",
                         "--seed", "1", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("# synthetic")
        assert "seed=1" in text
        assert len(text.strip().splitlines()) == 23  # 2 comments + header + 20

    def test_fit_then_reload_round_trips_bit_identically(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        model1 = tmp_path / "m1.json"
        model2 = tmp_path / "m2.json"
        code, _, _ = run(capsys, "synth", "--preset", "protein", "--n", "300",
                         "--seed", "2", "--out", str(data))
        assert code == 0
        code, _, _ = run(capsys, "fit", "--data", str(data), "--marginals",
                         "von_mises,von_mises,von_mises", "--seed", "3",
                         "--out", str(model1))
        assert code == 0
        from twcm import TwcmModel

        TwcmModel.load(model1).save(model2)
        d1 = json.loads(model1.read_text())
        d2 = json.loads(model2.read_text())
        assert d1["rho"] == d2["rho"]
        assert d1["marginals"] == d2["marginals"]

    def test_pipeline_deterministic(self, tmp_path, capsys):
        # header comments embed the (run-specific) file paths, so compare
        # everything below the comment block
        def body(text):
            return "\n".join(
                l for l in text.splitlines() if not l.startswith("#")
            )

        outputs = []
        for run_dir in ("r1", "r2"):
            d = tmp_path / run_dir
            d.mkdir()
            data, model, draws, grid = (
                d / "data.csv", d / "m.json", d / "draws.csv", d / "grid.csv",
            )
            assert run(capsys, "synth", "--preset", "protein", "--n", "200",
                       "--seed", "11", "--out", str(data))[0] == 0
            assert run(capsys, "fit", "--data", str(data), "--marginals",
                       "von_mises,von_mises,von_mises", "--seed", "12",
                       "--out", str(model))[0] == 0
            assert run(capsys, "sample", "--model", str(model), "--n", "50",
                       "--seed", "13", "--out", str(draws))[0] == 0
            code, table, _ = run(capsys, "loglik", "--model", str(model),
                                 "--data", str(data))
            assert code == 0
            assert run(capsys, "grid", "--model", str(model), "--pair", "1,2",
                       "--res", "24", "--out", str(grid))[0] == 0
            outputs.append(
                (data.read_text(), model.read_text(), body(draws.read_text()),
                 body(table).replace(str(d), ""), body(grid.read_text()))
            )
        assert outputs[0] == outputs[1]

    def test_loglik_reproduces_uniform_baseline(self, tmp_path, capsys):
        model = tmp_path / "indep.json"
        independence_like_model().save(model)
        data = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        rows = "\n".join(
            ",".join(f"{v}" for v in row)
            for row in TWO_PI * rng.random((2000, 3))
        )
        data.write_text("a,b,c\n" + rows + "\n")
        code, out, _ = run(capsys, "loglik", "--model", str(model),
                           "--data", str(data))
        assert code == 0
        row = out.strip().splitlines()[-1].split(",")
        assert float(row[1]) == pytest.approx(-2000 * 3 * np.log(TWO_PI),
                                              abs=1e-6)
        assert float(row[1]) == pytest.approx(-11027.26, abs=0.01)

    def test_loglik_scores_single_and_mixture_models(self, tmp_path, capsys):
        from twcm.presets import buoy_mixture

        mix = buoy_mixture()
        models = {"single.json": mix.components[0], "mix.json": mix}
        for name, m in models.items():
            m.save(tmp_path / name)
        data = tmp_path / "d.csv"
        assert run(capsys, "synth", "--preset", "buoy", "--n", "300",
                   "--seed", "51", "--out", str(data))[0] == 0
        rows_in, _ = ingest(data, [ColumnSpec(c, d) for c, d in
                                   zip("abc", mix.domains)])
        paths = ",".join(str(tmp_path / name) for name in models)
        code, out, _ = run(capsys, "loglik", "--models", paths, "--data", str(data))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "model,loglik,aic,bic,p,n"
        for line, (name, m) in zip(lines[1:], models.items()):
            path, ll, _, _, p, n = line.split(",")
            assert path == str(tmp_path / name)
            assert float(ll) == m.loglik(rows_in)
            assert int(p) == m.n_free_params
            assert int(n) == 300
        assert len(lines) == 3

    def test_grid_res_two_emits_four_rows(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        independence_like_model().save(model)
        code, out, _ = run(capsys, "grid", "--model", str(model),
                           "--pair", "1,2", "--res", "2")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "x,y,density"
        assert len(lines) == 1 + 4

    def test_grid_circular_mass_near_one(self, tmp_path, capsys):
        from twcm.presets import protein_model

        model = tmp_path / "m.json"
        protein_model().save(model)
        code, out, _ = run(capsys, "grid", "--model", str(model),
                           "--pair", "1,2", "--res", "200")
        assert code == 0
        rows = np.array(
            [l.split(",") for l in out.splitlines()[2:]], dtype=float
        )
        assert np.all(rows[:, 2] >= 0.0)
        cell = (TWO_PI / 200) ** 2
        assert rows[:, 2].sum() * cell == pytest.approx(1.0, abs=1e-3)

    def test_grid_conditional_given_third(self, tmp_path, capsys):
        from twcm.presets import protein_model

        model = tmp_path / "m.json"
        protein_model().save(model)
        code, out, _ = run(capsys, "grid", "--model", str(model),
                           "--pair", "1,2", "--given", "3=6.23",
                           "--res", "100")
        assert code == 0
        rows = np.array(
            [l.split(",") for l in out.splitlines()[2:]], dtype=float
        )
        cell = (TWO_PI / 100) ** 2
        assert rows[:, 2].sum() * cell == pytest.approx(1.0, abs=1e-3)

    def test_ar2_chain_with_header_comment(self, tmp_path, capsys):
        code, out, _ = run(capsys, "ar2", "--rho", "2,0.25,2", "--marginal",
                           "wrapped_cauchy:mu=3.0,xi=0.5", "--n", "40",
                           "--seed", "21")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#") and "seed=21" in lines[0]
        assert lines[1] == "theta"
        params = twcm.Ar2Params(2.0, 0.25, 2.0, marginal=twcm.WrappedCauchy(3.0, 0.5))
        chain = twcm.simulate(params, 40, seed=21)
        assert lines[2:] == [repr(float(v)) for v in chain]

    def test_mixture_command_writes_artifacts(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(capsys, "synth", "--preset", "buoy", "--n", "400",
                   "--seed", "31", "--out", str(data))[0] == 0
        prefix = str(tmp_path / "clu")
        code, out, _ = run(
            capsys, "mixture", "--data", str(data), "--columns", CYL,
            "--marginals", "wrapped_cauchy,wrapped_cauchy,weibull",
            "--k", "1,2", "--restarts", "1", "--seed", "32",
            "--out-prefix", prefix,
        )
        assert code == 0
        assert out.splitlines()[1] == "k,loglik,p,aic,bic"
        mix = json.loads((tmp_path / "clu_model.json").read_text())
        assert "weights" in mix and "components" in mix
        assign = (tmp_path / "clu_assignments.csv").read_text().splitlines()
        assert assign[0] == "row,component"
        assert len(assign) == 1 + 400

    def test_bootstrap_command(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run(capsys, "synth", "--preset", "protein", "--n", "120",
                   "--seed", "41", "--out", str(data))[0] == 0
        code, out, _ = run(
            capsys, "bootstrap", "--data", str(data), "--marginals",
            "von_mises,von_mises,von_mises", "--B", "3", "--seed", "42",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "parameter,estimate,se"
        assert len(lines) == 2 + 9  # 3 rho + 6 marginal parameters

    @pytest.mark.parametrize("argv", [
        ["synth", "--preset", "buoy", "--n", "40", "--seed", "1"],
        ["fit", "--data", "{data}", "--marginals", VM3],
        ["sample", "--model", "{model}", "--n", "40", "--seed", "2"],
        ["loglik", "--model", "{model}", "--data", "{data}"],
        ["grid", "--model", "{model}", "--pair", "1,2", "--res", "6"],
        ["grid", "--model", "{model}", "--pair", "1,3", "--given", "2=1.5", "--res", "6"],
        ["bootstrap", "--data", "{data}", "--marginals", VM3, "--B", "3", "--seed", "3"],
        ["ar2", "--rho", "2,0.25,2", "--marginal", "wrapped_cauchy:mu=3.1,xi=0.5",
         "--n", "40", "--seed", "4"],
    ], ids=["synth", "fit", "sample", "loglik", "grid", "grid-given", "bootstrap", "ar2"])
    def test_stdout_equals_out_file(self, tmp_path, capsys, argv):
        model, data, out = tmp_path / "m.json", tmp_path / "d.csv", tmp_path / "out"
        protein_model().save(model)
        write_rows(data, protein_model().sample(100, seed=1))
        argv = [a.format(model=model, data=data) for a in argv]
        code, printed, _ = run(capsys, *argv)
        assert code == 0
        code, nothing, _ = run(capsys, *argv, "--out", str(out))
        assert code == 0 and nothing == ""
        assert printed.encode() == out.read_bytes()

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        model = tmp_path / "m.json"
        independence_like_model().save(model)
        monkeypatch.setenv("TWCM_SEED", "77")
        _, out1, _ = run(capsys, "sample", "--model", str(model), "--n", "5")
        _, out2, _ = run(capsys, "sample", "--model", str(model), "--n", "5")
        assert out1 == out2 and "seed=77" in out1


class TestExitCodes:
    def test_missing_file_is_domain_exit(self, capsys):
        code, _, err = run(capsys, "loglik", "--model", "nope.json",
                           "--data", "nope.csv")
        assert code == 1 and "error" in err

    def test_no_valid_rows_is_domain_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("w,v,h\n1.0,1.0,-1.0\n")
        code, _, err = run(capsys, "fit", "--data", str(bad), "--columns", CYL,
                           "--marginals", "wrapped_cauchy,wrapped_cauchy,weibull")
        assert code == 1 and "error" in err

    def test_unknown_family_is_domain_exit(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,c\n1,2,3\n")
        code, _, err = run(capsys, "fit", "--data", str(data),
                           "--marginals", "kato_jones,uniform,uniform")
        assert code == 1
        assert err.startswith("error: unknown marginal family 'kato_jones'; choose from")

    def test_models_with_different_domains_rejected(self, tmp_path, capsys):
        from twcm.presets import buoy_mixture, protein_model

        torus, cylinder = tmp_path / "torus.json", tmp_path / "cyl.json"
        protein_model().save(torus)
        buoy_mixture().save(cylinder)
        data = tmp_path / "d.csv"
        data.write_text("a,b,c\n1,2,3\n")
        code, out, err = run(capsys, "loglik", "--models", f"{torus},{cylinder}",
                             "--data", str(data))
        assert code == 1
        assert "share the same coordinate domains" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["fit", "loglik"])
    def test_undecodable_file_is_one_error_line(self, tmp_path, capsys, command):
        model, data = tmp_path / "m.json", tmp_path / "d.csv"
        independence_like_model().save(model)
        data.write_bytes(b"a,b,c\n1,2,3\xff\n")
        extra = (["--marginals", "uniform,uniform,uniform"] if command == "fit"
                 else ["--model", str(model)])
        code, out, err = run(capsys, command, "--data", str(data), *extra)
        assert code == 1
        assert err.startswith(f"error: {data}: ") and err.count("\n") == 1
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("text, reason", [
        ('{"rho": [1, 2', "not JSON: Expecting ',' delimiter: line 1 column 14 (char 13)"),
        ('{"rho": [3,3,0.111]}', "model file has no key 'marginals'"),
    ], ids=["truncated", "no_marginals"])
    @pytest.mark.parametrize("argv", [
        ["loglik", "--data", "{data}"],
        ["sample", "--n", "3"],
        ["grid", "--pair", "1,2", "--res", "3"],
    ], ids=["loglik", "sample", "grid"])
    def test_malformed_model_file_is_one_error_line(self, tmp_path, capsys, text, reason,
                                                    argv):
        model, data = tmp_path / "m.json", tmp_path / "d.csv"
        model.write_text(text)
        write_rows(data, protein_model().sample(5, seed=1))
        code, out, err = run(capsys, *(a.format(data=data) for a in argv), "--model", str(model))
        assert code == 1 and out == ""
        assert err == f"error: {model}: {reason}\n"

    @pytest.mark.parametrize("text", ['[1, 2]', '{"rho": [3, 3], "marginals": []}',
                                      '{"rho": ["a", 1, 1], "marginals": []}'],
                             ids=["list", "short_rho", "text_rho"])
    def test_misshapen_model_file_is_one_error_line(self, tmp_path, capsys, text):
        model = tmp_path / "m.json"
        model.write_text(text)
        code, out, err = run(capsys, "sample", "--n", "3", "--model", str(model))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {model}: malformed model file: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra", [
        ["fit", "--marginals", BUOY_FAMS],
        ["mixture", "--marginals", BUOY_FAMS, "--k", "2"],
        ["bootstrap", "--marginals", BUOY_FAMS, "--B", "2"],
        ["loglik", "--model", "{model}"],
    ], ids=["fit", "mixture", "bootstrap", "loglik"])
    def test_columns_must_match_the_marginals(self, tmp_path, capsys, extra):
        # read as an angle, each wave height would be wrapped mod 2 pi
        model, data = tmp_path / "m.json", tmp_path / "d.csv"
        buoy_mixture().save(model)
        write_rows(data, buoy_mixture().sample(60, seed=1))
        code, out, err = run(capsys, *(a.format(model=model) for a in extra),
                             "--data", str(data), "--columns", "a:circular,b:circular,h:circular")
        assert code == 1 and out == ""
        assert err == "error: --columns makes 'h' circular, but its marginal is linear\n"

    def test_warning_is_one_line_without_path(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,h\n1,2,3\n4,5,6\n")
        code, _, err = run(capsys, "fit", "--data", str(data), "--marginals", BUOY_FAMS)
        assert code == 0
        lines = err.splitlines()
        assert "warning: degenerate circular data: wrapped Cauchy xi capped" in lines
        assert all(line.startswith("warning: ") for line in lines)
        assert ".py" not in err and os.sep not in err

    def test_bad_pair_rejected(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        independence_like_model().save(model)
        code, _, _ = run(capsys, "grid", "--model", str(model), "--pair", "1,1")
        assert code == 1

    @pytest.mark.parametrize("argv, seed_env", [
        (["ar2", "--rho", "2,0.25,2", "--marginal", "foo", "--n", "5"], None),
        (["ar2", "--rho", "2,0.25,2", "--marginal", "wrapped_cauchy:mu=3", "--n", "5"], None),
        (["ar2", "--rho", "2,0.25,2", "--marginal", "wrapped_cauchy:mu", "--n", "5"], None),
        (["ar2", "--rho", "2,x,2", "--marginal", "wrapped_cauchy:mu=3,xi=0.5", "--n", "5"],
         None),
        (["synth", "--preset", "protein", "--n", "5"], "abc"),
        (["grid", "--model", "{model}", "--pair", "1,x"], None),
        (["grid", "--model", "{model}", "--pair", "1,2", "--given", "3"], None),
        (["mixture", "--data", "{data}", "--marginals", BUOY_FAMS, "--k", "1..x"], None),
        (["mixture", "--data", "{data}", "--marginals", BUOY_FAMS, "--k", "2",
          "--restarts", "0"], None),
        (["synth", "--preset", "protein", "--n", "3", "--seed", "-1"], None),
        (["synth", "--preset", "buoy", "--n", "2"], "-3"),
        (["synth", "--preset", "protein", "--n", "-1"], None),
        (["synth", "--preset", "buoy", "--n", "-1"], None),
    ], ids=["unknown-family", "missing-param", "param-without-value", "rho", "env-seed",
            "pair", "given", "k-range", "restarts", "negative-seed", "negative-env-seed",
            "protein-negative-n", "buoy-negative-n"])
    def test_malformed_argument_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                  argv, seed_env):
        model, data = tmp_path / "m.json", tmp_path / "d.csv"
        independence_like_model().save(model)
        write_rows(data, buoy_mixture().sample(60, seed=1))
        if seed_env is None:
            monkeypatch.delenv("TWCM_SEED", raising=False)
        else:
            monkeypatch.setenv("TWCM_SEED", seed_env)
        code, out, err = run(capsys, *(a.format(model=model, data=data) for a in argv))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and out == ""
