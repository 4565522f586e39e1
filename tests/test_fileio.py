import json
import os
import weakref

import numpy as np
import pytest

from etamix import (
    MixingMatrix,
    ProductMeasure,
    PureRow,
    RateFunction,
    SeqSpace,
    StateCapExceeded,
    ValidRow,
    bounds_report,
    check_checkpoints,
    build_process,
    conjecture_scan,
    construct_from_target,
    from_weights,
    pure_row_measure,
    random_measure,
    uniform,
)
from etamix import fileio
from etamix.cli import main
from etamix.construction import SOLVE_TOL, ConstructionTrace, TraceStep
from etamix.fileio import (
    FORMAT_VERSION,
    FileFormatError,
    _float_list,
    atomic_write,
    read_matrix,
    read_measure,
    read_process_spec,
    read_product,
    write_bounds,
    write_checkpoints,
    write_matrix,
    write_measure,
    write_product,
    write_scan,
    write_traces,
)
from etamix.mixing import ConjectureRow
from etamix.process import CheckpointReport

from helpers import copy_chain, random_valid_target


def _written(tmp_path, write, obj) -> str:
    """The text write(path, obj) leaves in a file."""
    p = tmp_path / "written"
    write(str(p), obj)
    return p.read_text()


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

    def test_mode_follows_umask(self, tmp_path):
        # a fresh file and one written over both get 0o666 less the umask
        p = str(tmp_path / "m.json")
        old = os.umask(0o022)
        try:
            write_measure(p, uniform(2, 1))
            fresh = os.stat(p).st_mode & 0o777
            write_measure(p, uniform(2, 2))
            overwritten = os.stat(p).st_mode & 0o777
        finally:
            os.umask(old)
        assert (fresh, overwritten) == (0o644, 0o644)


class TestMeasureRoundTrip:
    def test_probs_survive_bit_for_bit(self, tmp_path):
        mu = random_measure(3, 3, rng=np.random.default_rng(2))
        p = str(tmp_path / "m.json")
        write_measure(p, mu)
        back = read_measure(p)
        assert back.space == mu.space
        assert np.allclose(back.probs, mu.probs, atol=1e-15)

    def test_serialization_is_deterministic(self, tmp_path):
        mu = copy_chain(3)
        assert _written(tmp_path, write_measure, mu) == _written(tmp_path, write_measure, mu)

    def test_seventeen_digit_floats(self, tmp_path):
        mu = from_weights(SeqSpace(2, 1), [1.0, 2.0])
        assert "0.33333333333333331" in _written(tmp_path, write_measure, mu)

    def test_float_list_formats_every_value(self):
        xs = np.array([0.1, -0.0, 0.0, 0.1, 1 / 3, 5e-324, 1 / 3, 1e22, -0.0])
        for v in (xs, xs[::2], np.random.default_rng(4).random(50)):
            assert _float_list(v) == "[" + ", ".join(format(float(x), ".17g") for x in v) + "]"

    def test_version_tag_present(self, tmp_path):
        obj = json.loads(_written(tmp_path, write_measure, uniform(2, 2)))
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

    def test_version_tag_present(self, tmp_path):
        obj = json.loads(_written(tmp_path, write_matrix, MixingMatrix.zeros(2)))
        assert obj["version"] == FORMAT_VERSION


def _constructed(n: int, seed: int) -> ProductMeasure:
    return construct_from_target(random_valid_target(n, np.random.default_rng(seed)))[0]


class TestProductRoundTrip:
    def test_one_component_of_atoms_alive_while_writing(self, tmp_path, monkeypatch):
        pm = _constructed(10, seed=4)
        arrays, earlier, alive = [], [], []
        dense = PureRow.dense

        def live():
            return sum(r() is not None for r in arrays)

        def tracked_dense(self):
            earlier.append(live())  # no earlier component's atoms while this one's are built
            mu = dense(self)
            arrays.append(weakref.ref(mu.probs))
            return mu

        def counted_float_list(xs):
            alive.append(live())
            return _float_list(xs)

        monkeypatch.setattr(PureRow, "dense", tracked_dense)
        monkeypatch.setattr(fileio, "_float_list", counted_float_list)
        write_product(str(tmp_path / "pm.json"), pm)
        assert len(alive) == 9
        assert max(alive) <= 1
        assert earlier == [0] * 9

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        pm = _constructed(4, seed=5)
        p = tmp_path / "pm.json"
        p.write_text("old\n")
        partial = []
        dense = PureRow.dense

        def failing_dense(self):
            if self.k == 2:
                partial.extend(tmp_path.glob(".tmp-*.part"))
                raise RuntimeError("component 2 failed")
            return dense(self)

        monkeypatch.setattr(PureRow, "dense", failing_dense)
        with pytest.raises(RuntimeError, match="component 2 failed"):
            write_product(str(p), pm)
        assert partial  # the stream failed after the temp file was opened
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["pm.json"]

    def test_components_survive(self, tmp_path):
        mu1, _ = pure_row_measure(ValidRow(3, 1, (0.8, 0.3)))
        mu2, _ = pure_row_measure(ValidRow(3, 2, (0.6,)))
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
    def test_traces_json_shape(self, tmp_path):
        from etamix import construct_from_target

        h = MixingMatrix([[0.0, 0.5], [0.0, 0.0]])
        _, traces = construct_from_target(h)
        obj = json.loads(_written(tmp_path, write_traces, traces))
        assert set(obj) == {"version", "components"}
        assert obj["version"] == FORMAT_VERSION
        (comp,) = obj["components"]
        assert comp["k"] == 1
        (step,) = comp["steps"]
        assert set(step) == {"t", "v_star", "achieved", "residual"}
        assert step["v_star"] == 0.75
        assert step["residual"] == step["achieved"] - 0.5
        assert abs(step["residual"]) <= SOLVE_TOL

    def test_bounds_json_key_order(self, tmp_path):
        rep = bounds_report(MixingMatrix.zeros(2), 1.0)
        text = _written(tmp_path, write_bounds, rep)
        obj = json.loads(text)
        assert list(obj) == ["version", "t", "norm_inf", "norm_2", "samson",
                             "kontram_inf", "kontram_2"]

    def test_checkpoint_csv_layout(self, tmp_path):
        p = build_process(RateFunction.sqrt(12), k_max=2, n_max=12)
        text = _written(tmp_path, write_checkpoints, check_checkpoints(p))
        lines = text.splitlines()
        assert lines[0] == f"# {FORMAT_VERSION}"
        assert lines[1] == "k,eps_k,n_k,h_k,ratio,pass"
        assert lines[2] == "1,0.5,2,1,0.5,true"

    def test_scan_csv_layout(self, tmp_path):
        text = _written(tmp_path, write_scan, conjecture_scan([uniform(2, 2)]))
        lines = text.splitlines()
        assert lines[1] == "measure_id,n,q,lhs,rhs,satisfied"
        assert lines[2] == "0,2,2,0,1,true"


def _construct_n1():
    from etamix import construct_from_target

    return construct_from_target(MixingMatrix.zeros(1))


#: (file kind, writer of small fixed inputs, the file's whole text with
#: <version> for FORMAT_VERSION): every byte of each layout, including
#: -0.0, 17-digit floats, a 2-D matrix and construct's empty n = 1 trace list.
LAYOUTS = [
    ("measure", lambda p: write_measure(p, from_weights(SeqSpace(3, 1), [-0.0, 1.0, 2.0])),
     """{
  "version": "<version>",
  "q": 3,
  "n": 1,
  "probs": [-0, 0.33333333333333331, 0.66666666666666663]
}
"""),
    ("matrix", lambda p: write_matrix(p, MixingMatrix(
        [[-0.0, 0.5, 1 / 3], [0.0, 0.0, 0.25], [0.0, 0.0, 0.0]])),
     """{
  "version": "<version>",
  "n": 3,
  "entries": [
    [-0, 0.5, 0.33333333333333331],
    [0, 0, 0.25],
    [0, 0, 0]
  ]
}
"""),
    ("product", lambda p: write_product(p, ProductMeasure(
        (from_weights(SeqSpace(2, 1), [1.0, 2.0]), uniform(3, 1)))),
     """{
  "version": "<version>",
  "n": 1,
  "components": [
    {
      "q": 2,
      "n": 1,
      "probs": [0.33333333333333331, 0.66666666666666663]
    },
    {
      "q": 3,
      "n": 1,
      "probs": [0.33333333333333331, 0.33333333333333331, 0.33333333333333331]
    }
  ]
}
"""),
    ("product_n1", lambda p: write_product(p, _construct_n1()[0]),
     """{
  "version": "<version>",
  "n": 1,
  "components": [
    {
      "q": 2,
      "n": 1,
      "probs": [0.5, 0.5]
    }
  ]
}
"""),
    ("traces", lambda p: write_traces(p, [
        ConstructionTrace(1, (TraceStep(2, 0.75, 0.5, -0.0),
                              TraceStep(3, 1 / 3, 0.25, 5e-17))),
        ConstructionTrace(2, (TraceStep(3, 1.0, 0.0, 0.0),)),
    ]),
     """{
  "version": "<version>",
  "components": [
    {
      "k": 1,
      "steps": [
        {"t": 2, "v_star": 0.75, "achieved": 0.5, "residual": -0},
        {"t": 3, "v_star": 0.33333333333333331, "achieved": 0.25, "residual": 4.9999999999999999e-17}
      ]
    },
    {
      "k": 2,
      "steps": [
        {"t": 3, "v_star": 1, "achieved": 0, "residual": 0}
      ]
    }
  ]
}
"""),
    ("traces_n1", lambda p: write_traces(p, _construct_n1()[1]),
     """{
  "version": "<version>",
  "components": [

  ]
}
"""),
    ("bounds", lambda p: write_bounds(p, {
        "t": 1 / 3, "norm_inf": 1.0, "norm_2": 0.5, "samson": -0.0,
        "kontram_inf": 2e-300, "kontram_2": 1.0}),
     """{
  "version": "<version>",
  "t": 0.33333333333333331,
  "norm_inf": 1,
  "norm_2": 0.5,
  "samson": -0,
  "kontram_inf": 2.0000000000000001e-300,
  "kontram_2": 1
}
"""),
    ("checkpoints", lambda p: write_checkpoints(p, [
        CheckpointReport(1, 0.5, 2, 0.5, True),
        CheckpointReport(2, 1 / 3, 5, 0.25, False),
    ]),
     """# <version>
k,eps_k,n_k,h_k,ratio,pass
1,0.5,2,1,0.5,true
2,0.33333333333333331,5,1,0.25,false
"""),
    ("scan", lambda p: write_scan(p, [
        ConjectureRow(0, 2, 2, 0.0, 1.0, True),
        ConjectureRow(1, 3, 3, 4 / 3, 1 / 3, False),
    ]),
     """# <version>
measure_id,n,q,lhs,rhs,satisfied
0,2,2,0,1,true
1,3,3,1.3333333333333333,0.33333333333333331,false
"""),
]


@pytest.mark.parametrize(
    "write, expected", [pytest.param(w, e, id=kind) for kind, w, e in LAYOUTS]
)
def test_file_layout(tmp_path, write, expected):
    p = tmp_path / "out"
    write(str(p))
    assert p.read_bytes() == expected.replace("<version>", FORMAT_VERSION).encode()
