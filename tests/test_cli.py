import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import etamix.construction as construction
import etamix.measures
import etamix.mixing
from etamix import (
    MixingMatrix,
    ProductMeasure,
    factored_mixing_matrix,
    materialize,
    mixing_matrix,
    uniform,
)
from etamix.cli import main
from etamix.fileio import (
    FORMAT_VERSION,
    atomic_write,
    read_matrix,
    read_product,
    write_matrix,
    write_measure,
    write_product,
)

from helpers import copy_chain, random_full_support, random_valid_target


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "etamix", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def target_file(tmp_path):
    h = MixingMatrix([[0.0, 0.6, 0.4], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
    p = str(tmp_path / "target.json")
    write_matrix(p, h)
    return p


class TestMix:
    def test_copy_chain_golden(self, tmp_path):
        m = str(tmp_path / "m.json")
        out = str(tmp_path / "h.json")
        write_measure(m, copy_chain(3))
        r = run_cli("mix", m, "-o", out)
        assert r.returncode == 0, r.stderr
        got = read_matrix(out).entries
        assert np.array_equal(got, [[0, 1, 1], [0, 0, 0], [0, 0, 0]])

    def test_state_cap_exit_code(self, tmp_path):
        m = str(tmp_path / "m.json")
        out = str(tmp_path / "h.json")
        write_measure(m, uniform(4, 3))
        r = run_cli("mix", m, "-o", out, "--state-cap", "10")
        assert r.returncode == 3
        assert "state cap" in r.stderr

    def test_garbage_input_exit_code(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        atomic_write(bad, "{broken")
        r = run_cli("mix", bad, "-o", str(tmp_path / "out.json"))
        assert r.returncode == 2

    def test_missing_file_exit_code(self, tmp_path):
        r = run_cli("mix", str(tmp_path / "nope.json"), "-o", str(tmp_path / "h.json"))
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "obj",
        [{"q": 2, "n": True, "probs": [0.5, 0.5]}, {"q": 2, "n": 1.5, "probs": [0.5, 0.5]}],
    )
    def test_non_integer_n_exit_code(self, tmp_path, obj, capsys):
        # int() used to read "n": true as n=1 and write its matrix
        m = str(tmp_path / "m.json")
        atomic_write(m, json.dumps(obj))
        out = tmp_path / "h.json"
        assert main(["mix", m, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be an integer" in err
        assert not out.exists()

    def test_measure_file_matches_mixing_matrix(self, tmp_path):
        m, out, want = (str(tmp_path / f) for f in ("m.json", "h.json", "want.json"))
        write_measure(m, random_full_support(3, 4, np.random.default_rng(6)))
        assert main(["mix", m, "-o", out]) == 0
        write_matrix(want, mixing_matrix(read_product(m).components[0]))
        assert Path(out).read_bytes() == Path(want).read_bytes()

    @pytest.mark.parametrize("n", [14, 16])
    def test_construct_output_reads_back(self, tmp_path, n):
        h = random_valid_target(n, np.random.default_rng(n))
        target, pm, out = (str(tmp_path / f) for f in ("h.json", "pm.json", "back.json"))
        write_matrix(target, h)
        assert main(["construct", target, "-o", pm]) == 0
        assert main(["mix", pm, "-o", out]) == 0
        assert np.abs(read_matrix(out).entries - h.entries).max() <= 1e-12

    @pytest.fixture
    def overlapping_file(self, tmp_path):
        # two full-support measures: every row is shared, so mix needs the joint
        rng = np.random.default_rng(7)
        p = str(tmp_path / "pm.json")
        write_product(p, ProductMeasure(tuple(random_full_support(2, 4, rng) for _ in range(2))))
        return p

    def test_overlapping_product_rows_read_the_joint(self, tmp_path, overlapping_file):
        joint, out, want = (str(tmp_path / f) for f in ("joint.json", "h.json", "want.json"))
        assert main(["mix", overlapping_file, "-o", out]) == 0
        assert main(["product", overlapping_file, "-o", joint]) == 0
        assert main(["mix", joint, "-o", want]) == 0
        assert np.abs(read_matrix(out).entries - read_matrix(want).entries).max() <= 1e-12

    def test_overlapping_product_past_the_cap(self, tmp_path, overlapping_file, capsys):
        # each component has 16 atoms and the joint 256
        out = tmp_path / "h.json"
        assert main(["mix", overlapping_file, "-o", str(out), "--state-cap", "100"]) == 3
        err = capsys.readouterr().err
        assert err == ("error: components share row 1, whose cells need their joint, "
                       "and q**n = 4**4 exceeds the state cap 100\n")
        assert not out.exists()


class TestConstructRoundTrip:
    def test_target_realized_end_to_end(self, tmp_path, target_file):
        pm = str(tmp_path / "pm.json")
        joint = str(tmp_path / "joint.json")
        back = str(tmp_path / "back.json")
        trace = str(tmp_path / "trace.json")

        r = run_cli("construct", target_file, "-o", pm, "--trace", trace)
        assert r.returncode == 0, r.stderr
        r = run_cli("product", pm, "-o", joint)
        assert r.returncode == 0, r.stderr
        r = run_cli("mix", joint, "-o", back)
        assert r.returncode == 0, r.stderr

        want = read_matrix(target_file).entries
        got = read_matrix(back).entries
        assert np.abs(got - want).max() <= 1e-9

        obj = json.loads(Path(trace).read_text())
        assert [c["k"] for c in obj["components"]] == [1, 2]

    def test_invalid_target_exit_code(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        write_matrix(bad, MixingMatrix([[0.0, 0.2, 0.4], [0.0] * 3, [0.0] * 3]))
        r = run_cli("construct", bad, "-o", str(tmp_path / "pm.json"))
        assert r.returncode == 4
        assert "row-increase" in r.stderr

    def test_reports_achieved_deviation(self, tmp_path, target_file):
        r = run_cli("construct", target_file, "-o", str(tmp_path / "pm.json"))
        assert "max |achieved - target|" in r.stdout

    FLAT_TARGET = [[0.0, 0.7, 0.3, 0.3], [0.0, 0.0, 0.6, 0.6], [0.0, 0.0, 0.0, 0.3],
                   [0.0] * 4]

    def test_flat_rows_at_tiny_tolerance(self, tmp_path):
        # Equal neighbours take v = 1/2 exactly, so float noise in f(1/2)
        # cannot move them, and every other cell is solved to rounding.
        h = str(tmp_path / "h.json")
        trace = tmp_path / "trace.json"
        write_matrix(h, MixingMatrix(self.FLAT_TARGET))
        r = run_cli("construct", h, "-o", str(tmp_path / "pm.json"), "--trace", str(trace))
        assert r.returncode == 0, r.stderr
        comps = json.loads(trace.read_text())["components"]
        steps = {(c["k"], s["t"]): s for c in comps for s in c["steps"]}
        assert steps[1, 3]["v_star"] == steps[2, 3]["v_star"] == 0.5
        assert max(abs(s["residual"]) for s in steps.values()) <= 1e-15

    def test_reported_deviation_is_the_worst_trace_residual(self, tmp_path):
        # construct prints the worst residual of its own trace; the dense
        # matrix of the product read back from disk is the independent check
        h = random_valid_target(8, np.random.default_rng(8)).entries.copy()
        h[1, 3:5] = h[1, 2]  # cells (2, 3..5) tie: the steps at t = 4, 3 keep v = 1/2
        target, pm, trace = (str(tmp_path / f) for f in ("h.json", "pm.json", "trace.json"))
        write_matrix(target, MixingMatrix(h))
        r = run_cli("construct", target, "-o", pm, "--trace", trace)
        assert r.returncode == 0, r.stderr
        comps = json.loads(Path(trace).read_text())["components"]
        steps = {(c["k"], s["t"]): s for c in comps for s in c["steps"]}
        assert steps[2, 3]["v_star"] == steps[2, 4]["v_star"] == 0.5
        worst = max(abs(s["residual"]) for s in steps.values())
        assert r.stdout.rstrip().endswith(f"max |achieved - target| = {worst:.3e}")
        fm = factored_mixing_matrix(read_product(pm), state_cap=1)  # the fold, no joint
        assert np.abs(fm.entries - h).max() <= 1e-9

    def test_solver_failure_exit_code(self, tmp_path, target_file, monkeypatch, capsys):
        # a wrong flip probability: the audit in solve_row catches the miss
        monkeypatch.setattr(construction, "_flip_solve", lambda tail, target: 1.0)
        pm = tmp_path / "pm.json"
        assert main(["construct", target_file, "-o", str(pm)]) == 6
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missed its target" in err
        assert not pm.exists()

    def test_state_cap_refused_before_solving(self, tmp_path, monkeypatch, capsys):
        # the product file needs 2^25 atoms per component: exit 3 at once,
        # not after a solve whose tail laws grow toward 2^24 atoms
        def refuse(row):
            raise AssertionError("solve_row called on a target past the state cap")

        monkeypatch.setattr(construction, "solve_row", refuse)
        target, pm = str(tmp_path / "h.json"), tmp_path / "pm.json"
        write_matrix(target, MixingMatrix.zeros(25))
        assert main(["construct", target, "-o", str(pm)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2**25 exceeds the state cap" in err
        assert not pm.exists()


class TestProduct:
    def test_multiple_measure_files(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        out = str(tmp_path / "joint.json")
        write_measure(a, uniform(2, 2))
        write_measure(b, copy_chain(2))
        r = run_cli("product", a, b, "-o", out)
        assert r.returncode == 0, r.stderr
        joint = read_product(out).components[0]
        assert joint.q == 4 and joint.n == 2
        e = mixing_matrix(joint).entries
        assert e[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_product_file_among_measure_files(self, tmp_path, target_file):
        # a product file's components join the product one by one
        pm, m, out = (str(tmp_path / f) for f in ("pm.json", "m.json", "joint.json"))
        assert main(["construct", target_file, "-o", pm]) == 0
        write_measure(m, copy_chain(3))
        assert main(["product", pm, m, "-o", out]) == 0
        comps = (*read_product(pm).components, copy_chain(3))
        want = materialize(ProductMeasure(comps))
        assert np.array_equal(read_product(out).components[0].probs, want.probs)

    def test_length_mismatch_exits_2(self, tmp_path, target_file, capsys):
        pm, m, out = (str(tmp_path / f) for f in ("pm.json", "m.json", "joint.json"))
        assert main(["construct", target_file, "-o", pm]) == 0
        write_measure(m, uniform(2, 2))
        capsys.readouterr()
        assert main(["product", pm, m, "-o", out]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "components must share the same length n" in err
        assert not Path(out).exists()


class TestValidate:
    def test_valid_target(self, target_file):
        r = run_cli("validate", target_file)
        assert r.returncode == 0
        assert "valid mixing target" in r.stdout

    def test_invalid_target_lists_violations(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        write_matrix(bad, MixingMatrix([[0.5, 0.2], [0.0, 0.0]]))
        r = run_cli("validate", bad)
        assert r.returncode == 4
        assert "lower-triangle" in r.stdout

    @pytest.mark.parametrize("n", [3.9, True])
    def test_non_integer_n_exit_code(self, tmp_path, n, capsys):
        # int() used to truncate 3.9 to 3 and report "valid (n=3)"
        bad = str(tmp_path / "bad.json")
        atomic_write(bad, json.dumps({"n": n, "entries": [[0.0] * 3] * 3}))
        assert main(["validate", bad]) == 2
        cap = capsys.readouterr()
        assert cap.err.count("\n") == 1 and "must be an integer" in cap.err
        assert "valid" not in cap.out

    @pytest.mark.parametrize("entry", ["0.5", True, None, [0.5]])
    def test_non_number_entry_exit_code(self, tmp_path, entry, capsys):
        # np.asarray used to read "0.5" and true as numbers and exit 0
        bad = str(tmp_path / "bad.json")
        atomic_write(bad, json.dumps({"n": 2, "entries": [[0.0, entry], [0.0, 0.0]]}))
        assert main(["validate", bad]) == 2
        cap = capsys.readouterr()
        assert cap.err.count("\n") == 1 and "must be a list of numbers" in cap.err
        assert "valid" not in cap.out


class TestBounds:
    def test_report_written(self, tmp_path, target_file):
        # The second target's Delta has two nearly equal singular values.
        near = str(tmp_path / "near.json")
        write_matrix(near, MixingMatrix(
            [[0.0, 0.5, 0.0, 0.0], [0.0] * 4, [0.0, 0.0, 0.0, 0.4999], [0.0] * 4]
        ))
        for path, norm_inf in ((target_file, 2.0), (near, 1.5)):
            out = str(tmp_path / "b.json")
            r = run_cli("bounds", path, "--t", "1.0", "-o", out)
            assert r.returncode == 0, r.stderr
            obj = json.loads(Path(out).read_text())
            assert obj["version"] == FORMAT_VERSION
            assert 0.0 < obj["samson"] < 2.0
            assert obj["norm_inf"] == norm_inf

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_t_exit_code(self, tmp_path, target_file, t, capsys):
        # nan and inf used to exit 0 and write "t": nan, which is not JSON
        out = tmp_path / "b.json"
        assert main(["bounds", target_file, f"--t={t}", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err
        assert not out.exists()


class TestRate:
    def _spec(self, tmp_path, obj):
        p = str(tmp_path / "spec.json")
        atomic_write(p, json.dumps(obj))
        return p

    def test_sqrt_process_passes(self, tmp_path):
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": 3, "n_max": 12},
        )
        out = str(tmp_path / "cp.csv")
        r = run_cli("rate", spec, "-o", out)
        assert r.returncode == 0, r.stderr
        lines = Path(out).read_text().splitlines()
        assert lines[1] == "k,eps_k,n_k,h_k,ratio,pass"
        assert all(line.endswith(",true") for line in lines[2:])

    def test_horizon_exit_code(self, tmp_path):
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "linear"},
             "k_max": 2, "n_max": 6, "eps": [0.5, 0.25]},
        )
        r = run_cli("rate", spec, "-o", str(tmp_path / "cp.csv"))
        assert r.returncode == 5
        assert "n_max >= 8" in r.stderr

    def test_bad_spec_exit_code(self, tmp_path):
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": 0, "n_max": 6},
        )
        r = run_cli("rate", spec, "-o", str(tmp_path / "cp.csv"))
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {"rate": {"kind": "table", "values": [1, 2, 2, 3, 3, 3, 4, 4]},
             "k_max": 2.7, "n_max": 8},
            {"rate": {"kind": "table", "values": [1, 1.9, 2, 3, 3, 3, 4, 4]},
             "k_max": 2, "n_max": 8},
            {"rate": {"kind": "table", "values": [1, 2, True, 3, 3, 3, 4, 4]},
             "k_max": 2, "n_max": 8},
            {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": 2, "n_max": True},
            {"rate": {"kind": "builtin", "name": "const", "value": 2.5},
             "k_max": 1, "n_max": 8},
        ],
    )
    def test_non_integer_spec_exit_code(self, tmp_path, obj, capsys):
        # int() used to truncate these to a spec that passed its checkpoints
        out = tmp_path / "cp.csv"
        assert main(["rate", self._spec(tmp_path, obj), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be an integer" in err
        assert not out.exists()

    def test_invalid_rate_table_message_stays_short(self, tmp_path, capsys):
        # one message per bad entry used to make a 637,808-byte stderr line
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "table", "values": [0] * 20000}, "k_max": 1, "n_max": 20000},
        )
        out = tmp_path / "cp.csv"
        assert main(["rate", spec, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 400
        assert err.rstrip().endswith("(+19992 more)")
        assert not out.exists()

    def test_linear_rate_beyond_the_dense_state_cap(self, tmp_path):
        # n_7 = 56: the closed-form components never build a 2^56 measure,
        # so `rate` cannot run into the state cap
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 7, "n_max": 64},
        )
        out = str(tmp_path / "cp.csv")
        r = run_cli("rate", spec, "-o", out)
        assert r.returncode == 0, r.stderr
        assert "7/7 checkpoints pass" in r.stdout
        last = Path(out).read_text().splitlines()[-1].split(",")
        assert (last[0], last[2], last[-1]) == ("7", "56", "true")

    def test_linear_rate_horizon_fix_past_the_state_cap(self, tmp_path):
        # checkpoint 8 fails first, but checkpoint 10 needs
        # (n - 10) / n >= 10/11, so n >= 110
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 10, "n_max": 64},
        )
        r = run_cli("rate", spec, "-o", str(tmp_path / "cp.csv"))
        assert r.returncode == 5
        assert "n_max >= 110 suffices" in r.stderr

    def test_horizon_past_the_old_rate_table_cap_names_a_rerun(self, tmp_path, capsys):
        # checkpoint 5000 needs n_max >= 25005000, past the 2^24 entries a
        # builtin rate once tabulated; a builtin holds no table, so the hint
        # names that n_max and a rerun there passes
        spec = {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 5000, "n_max": 64}
        out = str(tmp_path / "cp.csv")
        assert main(["rate", self._spec(tmp_path, spec), "-o", out]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.rstrip().endswith("; n_max >= 25005000 suffices")
        spec["n_max"] = 25005000
        assert main(["rate", self._spec(tmp_path, spec), "-o", out]) == 0
        assert "5000/5000 checkpoints pass" in capsys.readouterr().out

    def test_default_eps_is_built_one_checkpoint_at_a_time(self, tmp_path, capsys):
        # a tuple of min(k_max, n_max) = 10^8 default eps values would take
        # gigabytes; checkpoint 10000 needs n >= 10000 * 10001 > n_max
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 10**12, "n_max": 10**8},
        )
        start = time.perf_counter()
        assert main(["rate", spec, "-o", str(tmp_path / "cp.csv")]) == 5
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert err.startswith("error: no horizon <= 100000000 admits checkpoint k=10000 at ")
        assert err.count("\n") == 1 and "; n_max >= " in err
        assert elapsed < 1.0, f"rate took {elapsed:.2f} s"

    def test_linear_rate_at_k_max_100(self, tmp_path):
        # checkpoint k of the linear rate needs (n - k) / n >= 1 - 1 / (k + 1),
        # so n_k = k (k + 1), one more where float rounding puts the exact
        # ratio k / (k + 1) below 1 - eps_k (k = 2, 6, 18, 26, 62)
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 100, "n_max": 10100},
        )
        out = str(tmp_path / "cp.csv")
        r = run_cli("rate", spec, "-o", out)
        assert r.returncode == 0, r.stderr
        assert "100/100 checkpoints pass" in r.stdout
        rows = [line.split(",") for line in Path(out).read_text().splitlines()[2:]]

        def n_k(k):
            n = k * (k + 1)
            return n if (n - k) / n >= 1.0 - 1.0 / (k + 1) else n + 1

        assert [(int(row[0]), int(row[2]), row[-1]) for row in rows] == [
            (k, n_k(k), "true") for k in range(1, 101)
        ]

    def test_linear_rate_at_k_max_1000(self, tmp_path):
        # the audit reads the horizons alone, so no checkpoint builds its
        # component: the flip vectors would hold ~3.3e8 probabilities
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 1000, "n_max": 1001001},
        )
        out = str(tmp_path / "cp.csv")
        r = run_cli("rate", spec, "-o", out)
        assert r.returncode == 0, r.stderr
        assert "1000/1000 checkpoints pass" in r.stdout
        last = Path(out).read_text().splitlines()[-1].split(",")
        assert (last[0], last[2], last[3], last[-1]) == ("1000", "1001000", "1", "true")

    @pytest.mark.parametrize("n_max", [6, 30, 42])
    def test_rerun_at_the_hinted_horizon_passes(self, tmp_path, n_max, capsys):
        # the hint covers every checkpoint, not just the first that fails;
        # for the linear rate, the worst case, it is also the least that works
        def rate(n_max):
            spec = {"rate": {"kind": "builtin", "name": "linear"}, "k_max": 10, "n_max": n_max}
            code = main(["rate", self._spec(tmp_path, spec), "-o", str(tmp_path / "cp.csv")])
            return code, capsys.readouterr().err

        code, err = rate(n_max)
        assert code == 5
        hint = int(re.search(r"n_max >= (\d+) suffices", err).group(1))
        assert rate(hint)[0] == 0
        assert rate(hint - 1)[0] == 5

    @pytest.mark.parametrize("eps", [[None], [0.5, [0.3]], ["0.5"], [True], [10**400]])
    def test_non_number_eps_exit_code(self, tmp_path, eps, capsys):
        # float() used to raise TypeError (a traceback and exit 1) or read "0.5"
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": len(eps),
             "n_max": 12, "eps": eps},
        )
        out = tmp_path / "cp.csv"
        assert main(["rate", spec, "-o", str(out)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_integral_floats_accepted(self, tmp_path, capsys):
        spec = self._spec(
            tmp_path,
            {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": 3.0, "n_max": 12.0},
        )
        assert main(["rate", spec, "-o", str(tmp_path / "cp.csv")]) == 0


class TestScan:
    def test_deterministic_output(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            r = run_cli("scan", "--count", "5", "--n", "3", "--seed", "7", "-o", out)
            assert r.returncode == 0, r.stderr
        assert Path(a).read_text() == Path(b).read_text()

    def test_row_count(self, tmp_path):
        out = str(tmp_path / "s.csv")
        r = run_cli("scan", "--count", "4", "--n", "2", "--seed", "1", "-o", out)
        assert r.returncode == 0
        assert len(Path(out).read_text().splitlines()) == 6  # comment + header + 4 rows

    def test_bad_count_exit_code(self, tmp_path):
        r = run_cli("scan", "--count", "0", "-o", str(tmp_path / "s.csv"))
        assert r.returncode == 2

    def test_one_measure_at_a_time(self, tmp_path, monkeypatch):
        # the k-th row is computed after exactly k draws, so no draw waits in a list
        draws, seen = [], []
        real_draw, real_sweep = etamix.measures.random_measure, etamix.mixing._sweep
        monkeypatch.setattr(etamix.measures, "random_measure",
                            lambda *a, **kw: draws.append(1) or real_draw(*a, **kw))
        monkeypatch.setattr(etamix.mixing, "_sweep",
                            lambda mu, *cells: seen.append(len(draws)) or real_sweep(mu, *cells))
        out = str(tmp_path / "s.csv")
        assert main(["scan", "--count", "4", "--n", "3", "-o", out]) == 0
        assert seen == [1, 2, 3, 4]


class TestUnwritableOutput:
    COMMANDS = {
        "construct -o": lambda d, bad: ["construct", d["target"], "-o", bad],
        "construct --trace": lambda d, bad: [
            "construct", d["target"], "-o", d["product"], "--trace", bad],
        "rate": lambda d, bad: ["rate", d["spec"], "-o", bad],
        "bounds": lambda d, bad: ["bounds", d["target"], "--t", "1", "-o", bad],
        "mix": lambda d, bad: ["mix", d["measure"], "-o", bad],
        "product": lambda d, bad: ["product", d["measure"], "-o", bad],
        "scan": lambda d, bad: ["scan", "--count", "2", "--n", "2", "-o", bad],
    }

    @pytest.mark.parametrize("target", ["missing/out", "directory", "directory/"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_exit_code(self, tmp_path, target_file, command, target, capsys):
        # an OSError from the write used to escape as a traceback and exit 1
        d = {"target": target_file, "product": str(tmp_path / "pm.json"),
             "spec": str(tmp_path / "spec.json"), "measure": str(tmp_path / "m.json")}
        atomic_write(d["spec"], json.dumps(
            {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": 2, "n_max": 8}))
        write_measure(d["measure"], copy_chain(2))
        (tmp_path / "directory").mkdir()
        bad = f"{tmp_path}/{target}"
        assert main(self.COMMANDS[command](d, bad)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: cannot write {bad}: ")
        assert not list(tmp_path.rglob(".tmp-*.part"))


class TestTopLevel:
    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert r.stdout.strip() == FORMAT_VERSION

    def test_help_lists_subcommands(self):
        r = run_cli("--help")
        assert r.returncode == 0
        for name in ("mix", "construct", "rate", "bounds", "validate", "product",
                     "scan"):
            assert name in r.stdout


class TestExitLines:
    """Each exception ``main`` maps to an exit code, raised by an engine that
    ``cli`` imports only inside the command, gives its code and stderr line."""

    LINEAR = {"kind": "builtin", "name": "linear"}
    RATE = {
        "eps huge int": ({"rate": LINEAR, "k_max": 2, "n_max": 40, "eps": [10**400, 0.2]},
                         2, "error: eps: int too large to convert to float\n"),
        "eps null": ({"rate": LINEAR, "k_max": 2, "n_max": 40, "eps": [0.5, None]},
                     2, "error: eps must be a list of numbers\n"),
        "eps string": ({"rate": LINEAR, "k_max": 2, "n_max": 40, "eps": ["0.5", 0.2]},
                       2, "error: eps must be a list of numbers\n"),
        "eps not decreasing": ({"rate": LINEAR, "k_max": 2, "n_max": 40, "eps": [0.2, 0.5]},
                               2, "error: eps values must be strictly decreasing, "
                                  "got (0.2, 0.5)\n"),
        "invalid table": ({"rate": {"kind": "table", "values": [1, 2, 0, 4, 5]},
                           "k_max": 1, "n_max": 5},
                          2, "error: invalid rate: r(3) = 0 outside [1, 3]; "
                             "r(3) = 0 < r(2) = 2\n"),
        # a builtin rate holds no table, so n_max past the 2^24 state cap is no breach
        "table past the cap": ({"rate": LINEAR, "k_max": 1, "n_max": (1 << 24) + 1}, 0, ""),
        "const zero": ({"rate": {"kind": "builtin", "name": "const", "value": 0},
                        "k_max": 1, "n_max": 8},
                       2, "error: const rate value must be >= 1, got 0\n"),
        "horizon": ({"rate": LINEAR, "k_max": 10, "n_max": 20},
                    5, "error: no horizon <= 20 admits checkpoint k=5 at "
                       "eps=0.16666666666666666; n_max >= 110 suffices\n"),
        # checkpoint 1 needs n_max >= 2e7, past the 2^24 state cap: the line
        # names it all the same, as every exit-5 line does
        "table horizon past the cap": (
            {"rate": {"kind": "table", "values": list(range(1, 101))}, "k_max": 1,
             "n_max": 100, "eps": [5e-8]},
            5, "error: no horizon <= 100 admits checkpoint k=1 at eps=5e-08; "
               "n_max >= 20000000 suffices\n"),
    }

    @pytest.mark.parametrize("case", list(RATE))
    def test_rate(self, tmp_path, case, capsys):
        spec, code, line = self.RATE[case]
        path, out = tmp_path / "spec.json", tmp_path / "cp.csv"
        path.write_text(json.dumps(spec))
        assert main(["rate", str(path), "-o", str(out)]) == code
        assert capsys.readouterr().err == line
        assert out.exists() == (code == 0)

    MATRIX = {
        "true entry": ([[0, True], [0, 0]],
                       "error: each matrix row must be a list of numbers\n"),
        "huge int": ([[0, 10**400], [0, 0]],
                     "error: each matrix row: int too large to convert to float\n"),
        "empty": ([], "error: entries must be square, got shape (0,)\n"),
    }

    @pytest.mark.parametrize("case", list(MATRIX))
    def test_matrix(self, tmp_path, case, capsys):
        entries, line = self.MATRIX[case]
        path, out = tmp_path / "h.json", tmp_path / "b.json"
        path.write_text(json.dumps({"n": len(entries), "entries": entries}))
        assert main(["bounds", str(path), "--t", "1", "-o", str(out)]) == 2
        assert capsys.readouterr().err == line
        assert not out.exists()

    def test_product_component_reads_as_a_measure(self, tmp_path, capsys):
        # a component's own error is not a product inconsistency
        bad = {"q": 1, "n": 2, "probs": [1.0]}
        m, pm = tmp_path / "m.json", tmp_path / "pm.json"
        m.write_text(json.dumps(bad))
        pm.write_text(json.dumps({"components": [bad]}))
        errs = []
        for path in (m, pm):
            assert main(["mix", str(path), "-o", str(tmp_path / "h.json")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs == ["error: need q >= 2 and n >= 1, got q=1 n=2\n"] * 2

    def test_state_cap(self, tmp_path, capsys):
        m = str(tmp_path / "m.json")
        write_measure(m, copy_chain(3))
        assert main(["mix", m, "-o", str(tmp_path / "h.json"), "--state-cap", "4"]) == 3
        assert capsys.readouterr().err == "error: q**n = 2**3 exceeds the state cap 4\n"

    def test_invalid_target(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        write_matrix(bad, MixingMatrix([[0.0, 0.2, 0.5], [0.0, 0.0, 0.1], [0.0] * 3]))
        assert main(["construct", bad, "-o", str(tmp_path / "pm.json")]) == 4
        violation = "row-increase at (1,3): 0.5 exceeds 0.2 at (1,2)"
        assert capsys.readouterr().err == f"error: invalid mixing target: {violation}\n"

    def test_solve_error(self, tmp_path, target_file, monkeypatch, capsys):
        monkeypatch.setattr(construction, "_flip_solve", lambda tail, target: 1.0)
        assert main(["construct", target_file, "-o", str(tmp_path / "pm.json")]) == 6
        assert capsys.readouterr().err == "error: cell (1,3) missed its target by 6.000e-01\n"
