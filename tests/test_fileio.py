import json
import os

import numpy as np
import pytest

from etamix import (
    MixingMatrix,
    ProductMeasure,
    RateFunction,
    SeqSpace,
    StateCapExceeded,
    ValidRow,
    bounds_report,
    check_checkpoints,
    build_process,
    conjecture_scan,
    from_weights,
    pure_row_measure,
    random_measure,
    uniform,
)
from etamix.cli import main
from etamix.construction import SOLVE_TOL
from etamix.fileio import (
    FORMAT_VERSION,
    FileFormatError,
    _float_list,
    atomic_write,
    bounds_to_json,
    checkpoint_csv,
    matrix_to_json,
    measure_to_json,
    read_matrix,
    read_measure,
    read_process_spec,
    read_product,
    scan_csv,
    traces_to_json,
    write_matrix,
    write_measure,
    write_product,
)

from helpers import copy_chain


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        p = str(tmp_path / "out.txt")
        atomic_write(p, "one\n")
        atomic_write(p, "two\n")
        with open(p) as fh:
            assert fh.read() == "two\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        atomic_write(str(tmp_path / "out.txt"), "x\n")
        assert os.listdir(tmp_path) == ["out.txt"]


class TestMeasureRoundTrip:
    def test_probs_survive_bit_for_bit(self, tmp_path):
        mu = random_measure(3, 3, rng=np.random.default_rng(2))
        p = str(tmp_path / "m.json")
        write_measure(p, mu)
        back = read_measure(p)
        assert back.space == mu.space
        assert np.allclose(back.probs, mu.probs, atol=1e-15)

    def test_serialization_is_deterministic(self):
        mu = copy_chain(3)
        assert measure_to_json(mu) == measure_to_json(mu)

    def test_seventeen_digit_floats(self):
        mu = from_weights(SeqSpace(2, 1), [1.0, 2.0])
        assert "0.33333333333333331" in measure_to_json(mu)

    def test_float_list_formats_every_value(self):
        xs = np.array([0.1, -0.0, 0.0, 0.1, 1 / 3, 5e-324, 1 / 3, 1e22, -0.0])
        for v in (xs, xs[::2], np.random.default_rng(4).random(50)):
            assert _float_list(v) == "[" + ", ".join(format(float(x), ".17g") for x in v) + "]"

    def test_version_tag_present(self):
        obj = json.loads(measure_to_json(uniform(2, 2)))
        assert obj["version"] == FORMAT_VERSION

    def test_small_drift_renormalized(self, tmp_path):
        p = str(tmp_path / "m.json")
        drifted = [0.25 * (1 + 5e-10)] * 4
        atomic_write(p, json.dumps({"q": 2, "n": 2, "probs": drifted}))
        mu = read_measure(p)
        assert abs(float(mu.probs.sum()) - 1.0) < 1e-12

    def test_large_drift_rejected(self, tmp_path):
        p = str(tmp_path / "m.json")
        drifted = [0.25 * (1 + 2e-9)] * 4
        atomic_write(p, json.dumps({"q": 2, "n": 2, "probs": drifted}))
        with pytest.raises(FileFormatError):
            read_measure(p)

    def test_negative_prob_rejected(self, tmp_path):
        p = str(tmp_path / "m.json")
        atomic_write(p, json.dumps({"q": 2, "n": 1, "probs": [1.5, -0.5]}))
        with pytest.raises(FileFormatError):
            read_measure(p)

    def test_wrong_length_rejected(self, tmp_path):
        p = str(tmp_path / "m.json")
        atomic_write(p, json.dumps({"q": 2, "n": 2, "probs": [0.5, 0.5]}))
        with pytest.raises(FileFormatError):
            read_measure(p)

    def test_missing_field_rejected(self, tmp_path):
        p = str(tmp_path / "m.json")
        atomic_write(p, json.dumps({"q": 2, "probs": [0.5, 0.5]}))
        with pytest.raises(FileFormatError):
            read_measure(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = str(tmp_path / "m.json")
        atomic_write(p, "{not json")
        with pytest.raises(FileFormatError):
            read_measure(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_measure(str(tmp_path / "absent.json"))

    def test_state_cap_respected(self, tmp_path):
        p = str(tmp_path / "m.json")
        write_measure(p, uniform(4, 3))
        with pytest.raises(StateCapExceeded):
            read_measure(p, state_cap=10)

    @pytest.mark.parametrize(
        "obj",
        [
            {"q": 2, "n": 1.5, "probs": [0.5, 0.5]},
            {"q": 2, "n": True, "probs": [0.5, 0.5]},
            {"q": 2.5, "n": 1, "probs": [0.5, 0.5]},
            {"q": "2", "n": 1, "probs": [0.5, 0.5]},
        ],
    )
    def test_non_integer_fields_rejected(self, tmp_path, obj):
        p = str(tmp_path / "m.json")
        atomic_write(p, json.dumps(obj))
        with pytest.raises(FileFormatError, match="must be an integer"):
            read_measure(p)

    def test_integral_float_fields_accepted(self, tmp_path):
        p = str(tmp_path / "m.json")
        atomic_write(p, json.dumps({"q": 2.0, "n": 1.0, "probs": [0.5, 0.5]}))
        assert (read_measure(p).q, read_measure(p).n) == (2, 1)


class TestMatrixRoundTrip:
    def test_round_trip(self, tmp_path):
        h = MixingMatrix([[0.0, 0.6, 0.4], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
        p = str(tmp_path / "h.json")
        write_matrix(p, h)
        assert np.array_equal(read_matrix(p).entries, h.entries)

    def test_shape_mismatch_rejected(self, tmp_path):
        p = str(tmp_path / "h.json")
        atomic_write(p, json.dumps({"n": 2, "entries": [[0.0, 1.0]]}))
        with pytest.raises(FileFormatError):
            read_matrix(p)

    def test_non_finite_rejected(self, tmp_path):
        p = str(tmp_path / "h.json")
        atomic_write(p, '{"n": 1, "entries": [[NaN]]}')
        with pytest.raises(FileFormatError):
            read_matrix(p)

    @pytest.mark.parametrize("n", [3.9, True, "3", None])
    def test_non_integer_n_rejected(self, tmp_path, n):
        # int() used to truncate 3.9 to 3 and read True as 1
        p = str(tmp_path / "h.json")
        atomic_write(p, json.dumps({"n": n, "entries": [[0.0] * 3] * 3}))
        with pytest.raises(FileFormatError, match="must be an integer"):
            read_matrix(p)

    def test_version_tag_present(self):
        obj = json.loads(matrix_to_json(MixingMatrix.zeros(2)))
        assert obj["version"] == FORMAT_VERSION


class TestProductRoundTrip:
    def test_components_survive(self, tmp_path):
        mu1, _ = pure_row_measure(3, ValidRow(3, 1, (0.8, 0.3)))
        mu2, _ = pure_row_measure(3, ValidRow(3, 2, (0.6,)))
        pm = ProductMeasure((mu1, mu2))
        p = str(tmp_path / "pm.json")
        write_product(p, pm)
        back = read_product(p)
        assert len(back.components) == 2
        for a, b in zip(back.components, pm.components):
            assert np.allclose(a.probs, b.probs, atol=1e-15)

    def test_component_length_mismatch_rejected(self, tmp_path):
        p = str(tmp_path / "pm.json")
        obj = {
            "n": 3,
            "components": [
                {"q": 2, "n": 2, "probs": [0.25] * 4},
                {"q": 2, "n": 3, "probs": [0.125] * 8},
            ],
        }
        atomic_write(p, json.dumps(obj))
        with pytest.raises(FileFormatError):
            read_product(p)

    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integer_declared_n_rejected(self, tmp_path, n):
        p = str(tmp_path / "pm.json")
        obj = {"n": n, "components": [{"q": 2, "n": 2, "probs": [0.25] * 4}]}
        atomic_write(p, json.dumps(obj))
        with pytest.raises(FileFormatError, match="must be an integer"):
            read_product(p)


class TestProcessSpec:
    def _write(self, tmp_path, obj):
        p = str(tmp_path / "spec.json")
        atomic_write(p, json.dumps(obj))
        return p

    def _rate_exits_2(self, tmp_path, capsys, obj, message):
        """The spec reads, and build_process refuses it: `rate` exits 2 with
        one stderr line and writes no report."""
        out = tmp_path / "cp.csv"
        assert main(["rate", self._write(tmp_path, obj), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_builtin_sqrt(self, tmp_path):
        p = self._write(
            tmp_path, {"rate": {"kind": "builtin", "name": "sqrt"},
                       "k_max": 3, "n_max": 12}
        )
        r, k_max, n_max, eps = read_process_spec(p)
        assert r.values == RateFunction.sqrt(12).values
        assert (k_max, n_max, eps) == (3, 12, None)

    def test_builtin_const_needs_value(self, tmp_path):
        p = self._write(
            tmp_path, {"rate": {"kind": "builtin", "name": "const"},
                       "k_max": 1, "n_max": 4}
        )
        with pytest.raises(FileFormatError):
            read_process_spec(p)

    def test_table_rate_with_eps(self, tmp_path):
        p = self._write(
            tmp_path,
            {"rate": {"kind": "table", "values": [1, 2, 2, 3]},
             "k_max": 2, "n_max": 4, "eps": [0.5, 0.25]},
        )
        r, k_max, n_max, eps = read_process_spec(p)
        assert r.values == (1, 2, 2, 3)
        assert eps == (0.5, 0.25)

    def test_table_shorter_than_horizon_rejected(self, tmp_path, capsys):
        self._rate_exits_2(
            tmp_path, capsys,
            {"rate": {"kind": "table", "values": [1, 2]}, "k_max": 1, "n_max": 4},
            "rate table covers 1..2, need 1..4",
        )

    def test_unknown_kind_rejected(self, tmp_path):
        p = self._write(
            tmp_path, {"rate": {"kind": "magic"}, "k_max": 1, "n_max": 4}
        )
        with pytest.raises(FileFormatError):
            read_process_spec(p)

    def test_bad_k_max_rejected(self, tmp_path, capsys):
        self._rate_exits_2(
            tmp_path, capsys,
            {"rate": {"kind": "builtin", "name": "sqrt"}, "k_max": 0, "n_max": 4},
            "k_max must be >= 1, got 0",
        )

    def test_eps_length_mismatch_rejected(self, tmp_path, capsys):
        self._rate_exits_2(
            tmp_path, capsys,
            {"rate": {"kind": "builtin", "name": "sqrt"},
             "k_max": 2, "n_max": 6, "eps": [0.5]},
            "need 2 eps values, got 1",
        )


class TestReports:
    def test_traces_json_shape(self):
        from etamix import construct_from_target

        h = MixingMatrix([[0.0, 0.5], [0.0, 0.0]])
        _, traces = construct_from_target(h)
        obj = json.loads(traces_to_json(traces))
        assert set(obj) == {"version", "components"}
        assert obj["version"] == FORMAT_VERSION
        (comp,) = obj["components"]
        assert comp["k"] == 1
        (step,) = comp["steps"]
        assert set(step) == {"t", "v_star", "achieved", "residual"}
        assert step["v_star"] == 0.75
        assert step["residual"] == step["achieved"] - 0.5
        assert abs(step["residual"]) <= SOLVE_TOL

    def test_bounds_json_key_order(self):
        rep = bounds_report(MixingMatrix.zeros(2), 1.0)
        text = bounds_to_json(rep)
        obj = json.loads(text)
        assert list(obj) == ["version", "t", "norm_inf", "norm_2", "samson",
                             "kontram_inf", "kontram_2"]

    def test_checkpoint_csv_layout(self):
        p = build_process(RateFunction.sqrt(12), k_max=2, n_max=12)
        text = checkpoint_csv(check_checkpoints(p))
        lines = text.splitlines()
        assert lines[0] == f"# {FORMAT_VERSION}"
        assert lines[1] == "k,eps_k,n_k,h_k,ratio,pass"
        assert lines[2] == "1,0.5,2,1,0.5,true"

    def test_scan_csv_layout(self):
        text = scan_csv(conjecture_scan([uniform(2, 2)]))
        lines = text.splitlines()
        assert lines[1] == "measure_id,n,q,lhs,rhs,satisfied"
        assert lines[2] == "0,2,2,0,1,true"
