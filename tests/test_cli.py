import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfdual as sd
from selfdual import cli, conjugacy, domain, dual_solver, factorize, fields, primal_solver
from selfdual.domain import write_field_csv

from conftest import BAD_PERMUTATIONS, closed_form_primal


# the former pipeline settings, each with its former flag and a value it
# once took
REMOVED_SETTINGS = {
    "radius_margin": ("--radius-margin", "0.1"),
    "sphere_points": ("--pset-m", "5"),
    "seed": ("--seed", "9"),
    "fd_step_rel": ("--fd-step-rel", "0.001"),
    "eps_primal": ("--eps-primal", "1e-05"),
}


def run_cli(argv):
    return cli.run(argv)


class TestParseConfig:
    def test_builtin_defaults(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["dual", "--builtin", "monotone1d", "--n", "8", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sigma"] == list(range(8))
        assert "method" not in payload  # the one path needs no name
        assert payload["certificate"] == "assignment-bound-tight"
        assert payload["bound"] == pytest.approx(payload["D"], rel=1e-12)

    def test_zero_cells_exits_2(self):
        assert run_cli(["decompose", "--builtin", "sincos", "--n", "0"]) == 2

    def test_missing_field_choice_exits_2(self):
        assert run_cli(["decompose", "--n", "8"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "sincos", "n": 8, "mystery": 1}))
        assert run_cli(["dual", "--config", str(cfg)]) == 2

    def test_unreadable_config_exits_3(self):
        assert run_cli(["dual", "--config", "/nonexistent/cfg.json"]) == 3

    def test_unreadable_field_exits_3(self, tmp_path):
        dom_spec = tmp_path / "dom.json"
        dom_spec.write_text(json.dumps({"kind": "interval", "bounds": [0, 1], "cells": 4}))
        code = run_cli(
            ["dual", "--field", "/nonexistent/f.csv", "--domain", str(dom_spec)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flags, key, message",
        [
            (["--solver", "matching"], {"solver": "matching"}, "solver"),
            (
                ["--primal-method", "subgradient"],
                {"primal_method": "subgradient"},
                "primal",
            ),
            (["--tol-reg", "0.1"], {"tol_reg": 0.1}, "tol"),
        ],
    )
    def test_removed_options_exit_2(self, tmp_path, capsys, flags, key, message):
        base = ["decompose", "--builtin", "sincos", "--n", "8"]
        with pytest.raises(SystemExit) as exc:
            run_cli(base + flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "sincos", "n": 8, **key}))
        assert run_cli(["decompose", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("--fd-step-rel", "fd_step_rel", "nan"),
            ("--fd-step-rel", "fd_step_rel", "inf"),
            ("--radius-margin", "radius_margin", "nan"),
            ("--radius-margin", "radius_margin", "inf"),
            ("--eps-primal", "eps_primal", "nan"),
        ],
    )
    def test_non_finite_options_exit_2(self, tmp_path, capsys, flag, key, value):
        # a non-finite step, margin or tolerance still exits 2: no flag or
        # config key sets one
        base = ["decompose", "--builtin", "sincos", "--n", "8"]
        with pytest.raises(SystemExit) as exc:
            run_cli(base + [flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "sincos", "n": 8, key: float(value)}))
        assert run_cli(["decompose", "--config", str(cfg)]) == 2
        assert f"decompose does not read config keys {[key]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [pytest.param(c, k, id=f"{c}-{k}") for c in cli._COMMAND_KEYS for k in REMOVED_SETTINGS],
    )
    def test_removed_setting_exits_2(self, tmp_path, monkeypatch, capsys, command, key):
        # the pipeline takes no settings: each former flag is unrecognized
        # and each former config key unread
        monkeypatch.chdir(tmp_path)
        flag, text = REMOVED_SETTINGS[key]
        base = [] if command == "gallery" else ["--builtin", "sincos", "--n", "16"]
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *base, flag, text, "--out", "r.json"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {text}" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        problem = {} if command == "gallery" else {"builtin": "sincos", "n": 16}
        cfg.write_text(json.dumps({**problem, key: json.loads(text)}))
        assert run_cli([command, "--config", str(cfg), "--out", "r.json"]) == 2
        assert f"{command} does not read config keys {[key]}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "key",
        [
            {"n": "8"},
            {"n": True},
            {"n": 8.0},
            {"seed": "x"},
            {"fd_step_rel": "x"},
            {"radius_margin": None},
            {"sphere_points": 2.5},
        ],
        ids=str,
    )
    def test_wrong_typed_config_values_exit_2(self, tmp_path, capsys, key):
        # a former pipeline setting is refused as unread, whatever its value
        name = next(iter(key))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "sincos", "n": 8, **key}))
        assert run_cli(["decompose", "--config", str(cfg)]) == 2
        if name in REMOVED_SETTINGS:
            expected = f"decompose does not read config keys {[name]}"
        else:
            expected = f"config value {name}="
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("decompose", ["--kernel", "k.csv"]),
            ("dual", ["--dump", "x.csv"]),
            ("primal", ["--fd-step-rel", "0.5"]),
            ("verify", ["--eps-primal", "1e-6"]),
            ("dual", ["--seed", "9"]),
            ("gallery", ["--builtin", "sincos"]),
            ("gallery", ["--pset-m", "5"]),
        ],
    )
    def test_unread_flag_exits_2(self, capsys, command, flag):
        base = [] if command == "gallery" else ["--builtin", "sincos", "--n", "16"]
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *base, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("decompose", {"kernel": "k.csv"}),
            ("dual", {"dump": "x.csv", "seed": 9}),
            ("primal", {"fd_step_rel": 0.5}),
            ("verify", {"eps_primal": 1e-6}),
            ("primal", {"dump": "x.csv"}),
            ("gallery", {"builtin": "sincos"}),
        ],
    )
    def test_unread_config_key_exits_2(self, tmp_path, monkeypatch, capsys, command, keys):
        monkeypatch.chdir(tmp_path)
        base = {} if command == "gallery" else {"builtin": "sincos", "n": 16}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, **keys}))
        assert run_cli([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{command} does not read config keys {sorted(keys)}" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "command, problem, key, text",
        [
            ("dual", "builtin", "domain", '{"kind": "interval", "bounds": [0, 9], "cells": 3}'),
            ("decompose", "field", "params", "{}"),
            ("dual", "field", "n", "2"),
            ("verify", "field", "n", "64"),
        ],
        ids=["builtin-domain", "field-params", "field-n", "field-default-n"],
    )
    def test_problem_key_the_problem_does_not_read_exits_2(
        self, tmp_path, monkeypatch, capsys, command, problem, key, text
    ):
        # a builtin sets its own grid and a field file takes its grid from
        # --domain, so the other kind's keys would be ignored; they are
        # refused, as a flag and as a config key, even at the default n
        monkeypatch.chdir(tmp_path)
        spec = {"kind": "interval", "bounds": [0, 1], "cells": 2}
        write_field_csv("f.csv", sd.interval_grid(0.0, 1.0, 2), sd.SampledField([[0.5], [0.25]]))
        if problem == "builtin":
            cfg = {"builtin": "sincos", "n": 4}
            base = ["--builtin", "sincos", "--n", "4"]
        else:
            cfg = {"field_csv": "f.csv", "domain": spec}
            base = ["--field", "f.csv", "--domain", json.dumps(spec)]
        assert run_cli([command, *base, "--out", "r.json"]) == 0
        Path("r.json").unlink()
        message = f"a --{problem} problem does not read {[key]}"
        assert run_cli([command, *base, f"--{key}", text, "--out", "r.json"]) == 2
        assert message in capsys.readouterr().err
        Path("cfg.json").write_text(json.dumps({**cfg, key: json.loads(text)}))
        assert run_cli([command, "--config", "cfg.json", "--out", "r.json"]) == 2
        assert message in capsys.readouterr().err
        assert not Path("r.json").exists()

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c, keys in cli._COMMAND_KEYS.items() for k in (*keys, "out")],
    )
    def test_every_flag_parses_to_its_field_type(self, command, key):
        domain = {"kind": "interval", "bounds": [0, 1], "cells": 4}
        flag, text, value = {
            "builtin": ("--builtin", "tent", "tent"),
            "params": ("--params", '{"A": [[1, 0], [0, 1]]}', {"A": [[1, 0], [0, 1]]}),
            "field_csv": ("--field", "f.csv", "f.csv"),
            "domain": ("--domain", json.dumps(domain), domain),
            "n": ("--n", "12", 12),
            "dump": ("--dump", "x.csv", "x.csv"),
            "sigma": ("--sigma", "s.json", "s.json"),
            "kernel": ("--kernel", "k.csv", "k.csv"),
            "out": ("--out", "r.json", "r.json"),
        }[key]
        if command == "gallery" or key == "builtin":
            base = []
        elif key == "field_csv":
            base = ["--domain", json.dumps(domain)]
        elif key == "domain":
            base = ["--field", "f.csv"]
        else:
            base = ["--builtin", "sincos"]
        cfg = cli.parse_config(cli.build_parser().parse_args([command, flag, text, *base]))
        parsed = getattr(cfg, key)
        assert parsed == value
        assert type(parsed) is type(value)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "interval", "bounds": 5, "cells": 4},
            {"kind": "box", "bounds": 5, "cells": [4]},
            {"kind": "box", "bounds": [[0, 1]], "cells": 4},
            {"kind": "interval", "bounds": [0, 1], "cells": 4.7},
            {"kind": "interval", "bounds": [0, 1], "cells": True},
            {"kind": "interval", "bounds": [0, 1], "cells": 4, "extra": 5},
        ],
        ids=str,
    )
    def test_malformed_domain_spec_exits_2(self, capsys, spec):
        argv = ["dual", "--field", "f.csv", "--domain", json.dumps(spec)]
        assert run_cli(argv) == 2
        assert "domain spec" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["config", "domain", "field", "sigma", "kernel"])
    def test_directory_input_exits_3(self, tmp_path, capsys, what):
        spec = tmp_path / "dom.json"
        spec.write_text(json.dumps({"kind": "interval", "bounds": [0, 1], "cells": 4}))
        fcsv = tmp_path / "f.csv"
        dom = sd.interval_grid(0.0, 1.0, 4)
        write_field_csv(fcsv, dom, sd.sample_field(dom, lambda x: x))
        # a repeated flag takes its last value
        argv = ["verify", "--domain", str(spec), "--field", str(fcsv)]
        argv += [f"--{what}", str(tmp_path)]
        assert run_cli(argv) == 3
        assert f"cannot read {what} file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [("dual", "--out"), ("decompose", "--dump")],
    )
    @pytest.mark.parametrize("target", ["dir", "missing-dir"])
    def test_unwritable_output_exits_3(self, tmp_path, capsys, command, flag, target):
        path = tmp_path if target == "dir" else tmp_path / "missing" / "x.out"
        argv = [command, "--builtin", "sincos", "--n", "8", flag, str(path)]
        if flag != "--out":
            argv += ["--out", str(tmp_path / "report.json")]
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        # the paths are checked before the pipeline runs: no report is left
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("target", ["dir", "missing-dir"])
    def test_gallery_refuses_its_output_before_running(self, tmp_path, capsys, target):
        path = tmp_path if target == "dir" else tmp_path / "missing" / "g.json"
        assert run_cli(["gallery", "--out", str(path)]) == 3
        out, err = capsys.readouterr()
        # no decomposition ran: the table is printed after all 18
        assert out == "" and str(path) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "builtin, params",
        [
            ("sincos", {"A": 1}),
            ("matrix", {"B": 1}),
            ("gradskew", {"A": [[0, 1], [-1, 0]], "q": 1}),
        ],
        ids=str,
    )
    def test_unread_params_exit_2(self, capsys, builtin, params):
        argv = ["dual", "--builtin", builtin, "--n", "16", "--params", json.dumps(params)]
        assert run_cli(argv) == 2
        assert f"builtin {builtin} does not read params" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"builtin": "monotone1d", "n": 4}))
        out = tmp_path / "r.json"
        code = run_cli(["dual", "--config", str(cfg), "--n", "6", "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())["sigma"]) == 6


class TestBuiltinFields:
    def test_sincos_value(self):
        bf = fields.builtin_field("sincos", 16)
        assert bf.rule(math.pi / 2) == pytest.approx(1.0)

    def test_tent_value(self):
        bf = fields.builtin_field("tent", 16)
        assert bf.rule(0.75) == 1.5

    def test_matrix_values(self):
        bf = fields.builtin_field("matrix", 16, {"A": [[0, 1], [0, 0]]})
        np.testing.assert_array_equal(bf.rule(np.array([1.0, 0.0])), [0.0, 0.0])
        np.testing.assert_array_equal(bf.rule(np.array([0.0, 1.0])), [1.0, 0.0])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fields.builtin_field("mystery", 8)

    def test_params_each_builtin_reads(self):
        params = {"Q": [[1, 0], [0, 1]], "A": [[0, 0], [0, 0]], "b": [1, 0]}
        bf = fields.builtin_field("gradskew", 16, params)
        np.testing.assert_array_equal(bf.rule(np.array([1.0, 2.0])), [2.0, 2.0])
        for name in fields.builtin_names():
            with pytest.raises(ValueError, match="does not read params"):
                fields.builtin_field(name, 16, {"z": 1})

    def test_planar_cell_budget(self):
        bf = fields.builtin_field("matrix", 144)
        assert bf.domain_spec["cells"] == 12
        assert sd.build_grid(bf.domain_spec).n == 144


class TestRunDecompose:
    def test_monotone_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["decompose", "--builtin", "monotone1d", "--n", "8", "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["sigma"] == list(range(8))
        assert rep["gap"] <= 1e-9
        assert rep["monotone"] == "strictly-monotone"
        for key in ("P", "D", "residual1", "residual2", "complementarity", "config"):
            assert key in rep

    def test_report_roundtrip_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["decompose", "--builtin", "sincos", "--n", "24"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rep = json.loads(out1.read_text())
        assert json.loads(json.dumps(rep)) == rep

    def test_dump_csv(self, tmp_path):
        out = tmp_path / "r.json"
        dump = tmp_path / "cells.csv"
        code = run_cli(
            [
                "decompose",
                "--builtin",
                "tent",
                "--n",
                "16",
                "--out",
                str(out),
                "--dump",
                str(dump),
            ]
        )
        assert code == 0
        rows = dump.read_text().strip().splitlines()
        assert rows[0] == "x0,u0,sx0,residual1"
        assert rows[1] == "0.03125,0.0625,0.03125,0.03124999999999993"
        assert len(rows) == 17

    def test_field_out_of_scale_exits_2(self, tmp_path, capsys):
        # sincos scaled by 2^600: its pairing is finite, but R^2 is not
        bf = fields.builtin_field("sincos", 16)
        dom = sd.build_grid(bf.domain_spec)
        fcsv = tmp_path / "f.csv"
        huge = np.ldexp(sd.sample_field(dom, bf.rule).values, 600)
        write_field_csv(fcsv, dom, sd.SampledField(huge))
        out = tmp_path / "r.json"
        argv = ["decompose", "--field", str(fcsv), "--domain", json.dumps(bf.domain_spec)]
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert "field radius 1.216e+181" in capsys.readouterr().err
        assert not out.exists()

    def test_file_backed_run(self, tmp_path):
        dom = sd.interval_grid(0.0, 1.0, 12)
        fld = sd.sample_field(dom, lambda x: x)
        fcsv = tmp_path / "f.csv"
        write_field_csv(fcsv, dom, fld)
        dspec = tmp_path / "dom.json"
        dspec.write_text(json.dumps({"kind": "interval", "bounds": [0, 1], "cells": 12}))
        out = tmp_path / "r.json"
        code = run_cli(
            [
                "decompose",
                "--field",
                str(fcsv),
                "--domain",
                str(dspec),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["sigma"] == list(range(12))

    def test_long_inline_domain_spec(self, tmp_path):
        dom = sd.interval_grid(0.0, 1.0, 12)
        fcsv = tmp_path / "f.csv"
        write_field_csv(fcsv, dom, sd.sample_field(dom, lambda x: x))
        # longer than a file name may be
        spec = '{"kind": "interval",' + " " * 300 + '"bounds": [0, 1], "cells": 12}'
        assert run_cli(["dual", "--field", str(fcsv), "--domain", spec]) == 0

    @pytest.mark.parametrize("command", ["decompose", "dual", "primal", "verify"])
    def test_empty_field_csv_exits_2(self, tmp_path, capsys, command):
        # an empty file is bad input (2), not a solver that failed to converge (1)
        fcsv = tmp_path / "empty.csv"
        fcsv.write_text("")
        spec = '{"kind": "interval", "bounds": [0, 1], "cells": 2}'
        out = tmp_path / "r.json"
        assert run_cli([command, "--field", str(fcsv), "--domain", spec, "--out", str(out)]) == 2
        assert f"field csv {fcsv} is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("coordinate", ["nan", "inf"])
    def test_non_finite_field_point_exits_2(self, tmp_path, capsys, coordinate):
        # a NaN point passed the comparison with the grid, and dual printed
        # a D for it
        fcsv = tmp_path / "f.csv"
        fcsv.write_text(f"x0,u0\n{coordinate},0.5\n0.75,0.25\n")
        spec = '{"kind": "interval", "bounds": [0, 1], "cells": 2}'
        out = tmp_path / "r.json"
        assert run_cli(["dual", "--field", str(fcsv), "--domain", spec, "--out", str(out)]) == 2
        assert f"field file {fcsv} has a non-finite point coordinate" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_field_value_exits_2(self, tmp_path, capsys):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("x0,u0\n0.25,nan\n0.75,0.25\n")
        spec = '{"kind": "interval", "bounds": [0, 1], "cells": 2}'
        out = tmp_path / "r.json"
        assert run_cli(["dual", "--field", str(fcsv), "--domain", spec, "--out", str(out)]) == 2
        assert f"field file {fcsv} has a non-finite field value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, line, reason",
        [
            ("0.25,0.5\n0.75\n", 3, "1 columns where the header has 2"),
            ("0.25,0.5,1.0\n0.75,0.25\n", 2, "3 columns where the header has 2"),
            ("0.25,abc\n0.75,0.25\n", 2, "could not convert"),
        ],
        ids=["short-row", "long-row", "not-a-number"],
    )
    def test_ragged_field_csv_names_file_and_line(self, tmp_path, capsys, body, line, reason):
        fcsv = tmp_path / "f.csv"
        fcsv.write_text("x0,u0\n" + body)
        spec = '{"kind": "interval", "bounds": [0, 1], "cells": 2}'
        assert run_cli(["dual", "--field", str(fcsv), "--domain", spec]) == 2
        err = capsys.readouterr().err
        assert f"malformed field csv {fcsv}, line {line}: {reason}" in err

    def test_grid_mismatch_exits_2(self, tmp_path):
        dom = sd.interval_grid(0.0, 1.0, 12)
        fld = sd.sample_field(dom, lambda x: x)
        fcsv = tmp_path / "f.csv"
        write_field_csv(fcsv, dom, fld)
        dspec = tmp_path / "dom.json"
        dspec.write_text(json.dumps({"kind": "interval", "bounds": [0, 1], "cells": 10}))
        assert run_cli(["dual", "--field", str(fcsv), "--domain", str(dspec)]) == 2


class TestVerify:
    def test_large_non_monotone_field_stays_non_monotone(self, tmp_path):
        # u = -(swap(x) + x) 1e155 pairs to -1e155 (dx_1 + dx_2)^2; squaring
        # its entries overflows, so check_monotone's allowance reads the
        # overflow-safe radii, and verify reports the verdict
        dom = domain.box_grid([(0, 1), (0, 1)], [2, 2])
        fcsv, out = tmp_path / "f.csv", tmp_path / "v.json"
        write_field_csv(fcsv, dom, sd.SampledField(-(dom.points[:, ::-1] + dom.points) * 1e155))
        spec = {"kind": "box", "bounds": [[0, 1], [0, 1]], "cells": [2, 2]}
        argv = ["verify", "--field", str(fcsv), "--domain", json.dumps(spec), "--out", str(out)]
        assert run_cli(argv) == 0
        assert json.loads(out.read_text())["monotone"] == "non-monotone"

    @pytest.mark.parametrize(
        "bounds, cells, scale, message",
        [
            # the cell measure 2.5e399 overflows to inf
            ([[0, 1e200]] * 2, [2, 2], 1e-200, "cell_measure inf"),
            # mu = 1.25e308 is finite, D = mu sum_i <u_i, x_i> is not
            ([[0, 1e103]] * 3, [2, 2, 2], 1e-103, "measure-weighted sums overflow"),
        ],
        ids=["box-2d", "box-3d"],
    )
    def test_overflowing_measure_exits_2(self, tmp_path, capsys, bounds, cells, scale, message):
        spec = {"kind": "box", "bounds": bounds, "cells": cells}
        axes = [np.array([0.25, 0.75]) * b for _, b in bounds]
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        fcsv = tmp_path / "f.csv"
        grid = sd.DiscreteDomain(pts, 1.0, len(bounds), 0.0)  # the box's points, mu = 1
        write_field_csv(fcsv, grid, sd.SampledField(pts * scale))
        out = tmp_path / "r.json"
        for command in ("dual", "primal", "verify", "decompose"):
            argv = [command, "--field", str(fcsv), "--domain", json.dumps(spec)]
            assert run_cli(argv + ["--out", str(out)]) == 2, command
            assert message in capsys.readouterr().err, command
            assert not out.exists()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_pairings_exit_2(self, tmp_path, capsys, sign):
        # u = +-x 1e290 on a box of side 1e10: the pairings pass the largest
        # float, so neither sign (u = x 1e290 is strictly monotone) has a
        # verdict that could be read, nor an assignment that could be solved
        spec = {"kind": "box", "bounds": [[0, 1e10], [0, 1e10]], "cells": [2, 2]}
        dom = sd.build_grid(spec)
        fcsv = tmp_path / "f.csv"
        write_field_csv(fcsv, dom, sd.SampledField(sign * dom.points * 1e290))
        out = tmp_path / "v.json"
        for command in ("verify", "decompose", "dual"):
            argv = [command, "--field", str(fcsv), "--domain", json.dumps(spec)]
            assert run_cli(argv + ["--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert "pairings overflow" in err, command
            assert "field radius 1.061e+300 and domain radius 1.061e+10" in err, command
            assert not out.exists()

    def test_checks_without_solving(self, tmp_path):
        sigma_file = tmp_path / "refl.json"
        sigma_file.write_text(json.dumps({"sigma": list(range(63, -1, -1))}))
        out = tmp_path / "v.json"
        code = run_cli(
            [
                "verify",
                "--builtin",
                "sincos",
                "--n",
                "64",
                "--sigma",
                str(sigma_file),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["D"] == pytest.approx(math.pi, rel=0.02)
        assert sorted(payload) == [
            "D",
            "P",
            "complementarity",
            "kernel_source",
            "monotone",
            "residual2",
            "selfdual_sum",
            "selfdual_verdict",
            "weak_duality_gap",
        ]
        assert payload["monotone"] == "non-monotone"
        # sincos carries a closed-form Hamiltonian, so the complementarity
        # and residual sections appear without any solving
        assert payload["kernel_source"] == "builtin-analytic"
        assert payload["complementarity"]["min"] >= 0
        assert payload["weak_duality_gap"] <= 0.02 * payload["P"]
        assert payload["residual2"]["median"] <= 0.1

    def test_kernel_and_sigma_checks(self, tmp_path):
        dom = sd.interval_grid(0.0, math.pi, 16)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        kcsv = tmp_path / "k.csv"
        np.savetxt(kcsv, kernel.matrix, delimiter=",")
        sigma_file = tmp_path / "s.json"
        sigma_file.write_text(json.dumps(list(range(15, -1, -1))))
        out = tmp_path / "v.json"
        code = run_cli(
            [
                "verify",
                "--builtin",
                "sincos",
                "--n",
                "16",
                "--sigma",
                str(sigma_file),
                "--kernel",
                str(kcsv),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["selfdual_sum"] == 0.0
        assert payload["selfdual_verdict"] == "self-dual-consistent"
        assert payload["weak_duality_gap"] >= 0
        assert payload["complementarity"]["min"] >= 0
        assert "residual2" in payload

    def test_sigma_and_kernel_config_keys_match_flags(self, tmp_path):
        dom = sd.interval_grid(0.0, math.pi, 16)
        kernel = sd.make_kernel(dom, lambda x, y: x * np.sin(y) - y * np.sin(x))
        kcsv = tmp_path / "k.csv"
        np.savetxt(kcsv, kernel.matrix, delimiter=",")
        sigma_file = tmp_path / "s.json"
        sigma_file.write_text(json.dumps(list(range(15, -1, -1))))
        base = ["verify", "--builtin", "sincos", "--n", "16"]
        by_flags, by_file = tmp_path / "flags.json", tmp_path / "file.json"
        argv = [*base, "--sigma", str(sigma_file), "--kernel", str(kcsv)]
        assert run_cli([*argv, "--out", str(by_flags)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sigma": str(sigma_file), "kernel": str(kcsv)}))
        assert run_cli([*base, "--config", str(cfg), "--out", str(by_file)]) == 0
        assert by_file.read_bytes() == by_flags.read_bytes()
        assert "selfdual_verdict" in json.loads(by_file.read_text())

    def test_fd_step_rel_sets_residual_step(self, tmp_path):
        # verify's step is the Hamiltonian's fd_step, conjugacy.FD_STEP_REL
        # times the dual ball's radius; another step, set on the Hamiltonian,
        # moves the residuals
        sigma_file = tmp_path / "refl.json"
        sigma_file.write_text(json.dumps(list(range(15, -1, -1))))
        out = tmp_path / "v.json"
        argv = ["verify", "--builtin", "sincos", "--n", "16", "--sigma", str(sigma_file)]
        assert run_cli([*argv, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        bf = fields.builtin_field("sincos", 16)
        dom = sd.build_grid(bf.domain_spec)
        fld = sd.sample_field(dom, bf.rule)
        pset = sd.build_dual_points(dom, fld)
        hreg = sd.regularize(sd.make_kernel(dom, bf.hamiltonian), dom, pset)
        reversal = sd.Involution.reversal(16)
        assert hreg.fd_step == conjugacy.FD_STEP_REL * pset.radius
        for h in (hreg.fd_step, 0.05 * pset.radius):
            hreg.fd_step = h
            res2 = sd.second_identity_check(dom, fld, hreg, reversal)
            same = payload["residual2"] == {"median": res2.median, "max": res2.max}
            assert same == (h < 0.05 * pset.radius)

    def test_d_and_p_from_one_certificate(self, tmp_path, monkeypatch):
        # with an involution and a kernel, D and P come off the weak-duality
        # certificate: the pairing is formed there and by check_monotone only
        bf = fields.builtin_field("matrix", 16)
        dom = sd.build_grid(bf.domain_spec)
        fld = sd.sample_field(dom, bf.rule)
        kernel = sd.make_kernel(dom, bf.hamiltonian)
        identity = sd.Involution.identity(dom.n)
        d = sd.dual_objective(dom, fld, identity)
        p = float((sd.pairing(dom, fld).T - kernel.matrix).max(axis=0).sum() * dom.cell_measure)
        sigma_file = tmp_path / "identity.json"
        sigma_file.write_text(json.dumps(list(range(dom.n))))
        calls = []

        def spy(*args):
            calls.append(1)
            return sd.pairing(*args)

        for module in (dual_solver, factorize, primal_solver):
            monkeypatch.setattr(module, "pairing", spy)
        out = tmp_path / "v.json"
        argv = ["verify", "--builtin", "matrix", "--n", "16", "--sigma", str(sigma_file)]
        assert run_cli([*argv, "--out", str(out)]) == 0
        assert len(calls) == 2
        payload = json.loads(out.read_text())
        assert payload["kernel_source"] == "builtin-analytic"
        # the JSON text of D and P is that of dual_objective and of P's formula
        assert (repr(payload["D"]), repr(payload["P"])) == (repr(d), repr(p))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_kernel_csv_not_square_exits_2(self, tmp_path, capsys, shape):
        kcsv = tmp_path / "k.csv"
        np.savetxt(kcsv, np.ones(shape), delimiter=",")
        out = tmp_path / "v.json"
        argv = ["verify", "--builtin", "sincos", "--n", "2", "--kernel", str(kcsv)]
        assert run_cli([*argv, "--out", str(out)]) == 2
        assert "kernel table must be square" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", BAD_PERMUTATIONS, ids=str)
    def test_bad_sigma_exits_2(self, tmp_path, capsys, bad):
        sigma_file = tmp_path / "s.json"
        sigma_file.write_text(json.dumps(bad))
        argv = ["verify", "--builtin", "sincos", "--n", str(len(bad)), "--sigma", str(sigma_file)]
        assert run_cli(argv) == 2
        assert "permutation of range" in capsys.readouterr().err


class TestOtherCommands:
    def test_primal_command(self, tmp_path):
        out = tmp_path / "p.json"
        code = run_cli(
            ["primal", "--builtin", "monotone1d", "--n", "12", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["converged"]
        assert payload["P"] >= payload["lower_bound"] - 1e-9
        assert payload["gap_vs_bound"] == payload["P"] - payload["lower_bound"]
        bf = fields.builtin_field("monotone1d", 12)
        dom = sd.build_grid(bf.domain_spec)
        fld = sd.sample_field(dom, bf.rule)
        kernel, value, _ = closed_form_primal(dom, fld)
        argmax = (sd.pairing(dom, fld).T - kernel.matrix).argmax(axis=0)
        assert payload["argmax"] == argmax.tolist()
        # P is the primal value to the bit, and nothing iterates
        assert payload["P"] == value
        assert "iterations" not in payload

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_pset_m_in_d_1_exits_2(self, tmp_path, capsys, command):
        # --pset-m sets no shell in any dimension now, so it is unrecognized
        sig = tmp_path / "s.json"
        assert run_cli(["dual", "--builtin", "sincos", "--n", "16", "--out", str(sig)]) == 0
        argv = [command, "--builtin", "sincos", "--n", "16", "--pset-m", "5"]
        argv += ["--sigma", str(sig)] if command == "verify" else []
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pset-m 5" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_primal_and_decompose_print_the_same_p(self, tmp_path):
        # the primal subcommand and the report read the same kernel and sum
        for name, n in (("sincos", "16"), ("rotationJ", "128")):
            base = ["--builtin", name, "--n", n]
            assert run_cli(["primal", *base, "--out", str(tmp_path / "p.json")]) == 0
            assert run_cli(["decompose", *base, "--out", str(tmp_path / "r.json")]) == 0
            p = json.loads((tmp_path / "p.json").read_text())
            r = json.loads((tmp_path / "r.json").read_text())
            assert p["P"] == r["P"] and p["converged"] is r["config"]["primal_converged"]

    @pytest.mark.parametrize("command, products", [("decompose", 6), ("primal", 3)])
    def test_pairings_per_command(self, tmp_path, monkeypatch, command, products):
        # the kernel is scored once, by weak_duality, whose certificate also
        # holds the argmax and the convergence floor: decompose forms the
        # pairing in the dual (2), the two kernels, the certificate and
        # check_monotone; primal in the relaxation, the kernel and the certificate
        calls = []

        def spy(*args):
            calls.append(1)
            return sd.pairing(*args)

        for module in (domain, dual_solver, factorize, primal_solver):
            monkeypatch.setattr(module, "pairing", spy)
        argv = [command, "--builtin", "matrix", "--n", "16", "--out", str(tmp_path / "r.json")]
        assert run_cli(argv) == 0
        assert len(calls) == products

    def test_zero_optimum_converges(self, tmp_path):
        # rotationJ's optimum is 0: P - bound is rounding noise (1.3e-16)
        out = tmp_path / "r.json"
        argv = ["decompose", "--builtin", "rotationJ", "--n", "128", "--out", str(out)]
        assert run_cli(argv) == 0
        assert json.loads(out.read_text())["config"]["primal_converged"]

    def test_removed_transport_command_exits_2(self, capsys):
        # the transport view is the dual shifted by a constant: no command
        with pytest.raises(SystemExit) as exc:
            run_cli(["transport", "--builtin", "sincos", "--n", "16"])
        assert exc.value.code == 2
        assert "invalid choice: 'transport'" in capsys.readouterr().err

    def test_entry_point_help(self):
        res = subprocess.run(
            [sys.executable, "-m", "selfdual.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0
        assert "decompose" in res.stdout


@pytest.mark.slow
class TestGallery:
    def test_gallery_table(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run_cli(["gallery", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "builtin" in text
        rows = json.loads(out.read_text())["gallery"]
        names = {r["builtin"] for r in rows}
        assert names == set(fields.builtin_names())
        tent64 = next(
            r for r in rows if r["builtin"] == "tent" and r["cells"] == 64
        )
        refl = tent64["known_involutions"]["reflection"]
        shift = tent64["known_involutions"]["half-shift"]
        assert refl == pytest.approx(0.375, rel=0.02)
        assert shift == pytest.approx(0.375, rel=0.02)
        assert refl == pytest.approx(shift, rel=1e-12)
        # the optimal involution is listed too, at the dual's value
        assert tent64["known_involutions"]["optimum"] == tent64["D"] == 2 / 3 - 1 / (6 * 64**2)
        for r in rows:
            assert r["P"] >= r["D"] - 1e-9 * max(1, abs(r["P"]))
