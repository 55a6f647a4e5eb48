import json
import os
import time

import numpy as np
import pytest

import dfm_em
from dfm_em import (
    CellAbortError,
    McCell,
    McGrid,
    run_cell,
    run_grid,
    write_report,
)
from dfm_em.em import AscentViolationError
from dfm_em.model import ShapeError
from dfm_em.montecarlo import _EM_STATS, _cell_key, _rep_seed, _run_replication


def _small_cell(label="c", mode="em", **kw):
    base = dict(label=label, n=12, T=25, r=2, q=2, mode=mode)
    base.update(kw)
    return McCell(**base)


class TestCells:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            McCell(label="x", n=5, T=5, r=1, q=1, mode="bogus")

    def test_seed_depends_on_contents_not_position(self):
        a = _small_cell("a")
        b = _small_cell("b")
        assert _cell_key(a) != _cell_key(b)
        assert _cell_key(a) == _cell_key(_small_cell("a"))
        assert _rep_seed(0, _cell_key(a), 0) != _rep_seed(0, _cell_key(a), 1)

    @pytest.mark.parametrize("label", ["", ".", "..", "a/b", "/abs", "dir/"])
    def test_label_must_be_plain_file_name(self, label):
        """A label names the cell's zhist_<label>.csv."""
        with pytest.raises(ValueError, match="plain file name"):
            _small_cell(label)

    @pytest.mark.parametrize("name,value", [
        ("tau", True), ("delta", "0.1"), ("theta", None), ("mu", float("nan")),
        ("theta", float("inf")),
    ])
    def test_float_fields_must_be_finite_reals(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite real"):
            _small_cell(**{name: value})

    @pytest.mark.parametrize("kw,message", [
        ({"tau": 1.5}, "tau must lie"),
        ({"q": 3}, "q <= r"),
        ({"n": 12.0}, "n must be an integer"),
        ({"T": True}, "T must be an integer"),
        ({"innovation": "cauchy"}, "cauchy"),
        ({"T": 3}, "T >= r \\+ 2"),
    ])
    def test_invalid_cell_refused_when_built(self, kw, message):
        with pytest.raises(ValueError, match=message):
            _small_cell(**kw)

    def test_short_panel_allowed_in_filter_only_mode(self):
        """Only the "em" mode fits the principal-components VAR."""
        assert _small_cell(mode="filter_only", T=3).T == 3

    def test_em_cell_as_long_as_the_burn_in_allowed(self):
        assert _small_cell(T=5).T == 5  # T = BURN_IN_T

    def test_numbers_normalised(self):
        cell = _small_cell(n=np.int64(12), theta=1, tau=np.float64(0.3))
        assert type(cell.theta) is float and type(cell.tau) is float
        assert _cell_key(_small_cell(theta=1)) == _cell_key(_small_cell(theta=1.0))

    def test_bundled_cell_keys_pinned(self):
        """Replication seeds derive from repr(cell): an edit to McCell that
        changes it moves every seed of every study."""
        import dfm_em.montecarlo as mc

        path = os.path.join(os.path.dirname(mc.__file__), "experiments",
                            "table4_small.json")
        grid = McGrid.from_json(path)
        assert (grid.B, grid.base_seed) == (25, 20260823)
        assert [_cell_key(c) for c in grid.cells] == [1136014998, 1792050130, 119473662]

    def test_grid_from_json_refuses_an_unknown_key(self, tmp_path):
        """The file's keys are McGrid's: a misspelt one is not skipped."""
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"B": 2, "base_sed": 7, "cells": [
            {"label": "x", "n": 10, "T": 20, "r": 2, "q": 1}]}))
        with pytest.raises(ValueError, match="'base_sed'") as exc:
            McGrid.from_json(path)
        assert str(exc.value).startswith(f"{path}: invalid experiment file: ")

    @pytest.mark.parametrize("data, message", [
        ('{"B": 2, "cells": []}'.encode("utf-16"),
         "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'[{"B": 2, "cells": []}]', "not a JSON object"),
    ], ids=["utf16", "array"])
    def test_grid_from_json_names_an_unreadable_file(self, tmp_path, data,
                                                      message):
        """A UTF-16 file or a JSON array is refused naming the file, as a
        panel or a params.json is."""
        path = tmp_path / "grid.json"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            McGrid.from_json(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_grid_from_json(self, tmp_path):
        doc = {
            "B": 3,
            "base_seed": 7,
            "cells": [{"label": "one", "n": 10, "T": 20, "r": 2, "q": 1}],
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        grid = McGrid.from_json(path)
        assert grid.B == 3 and grid.base_seed == 7
        assert grid.cells[0].label == "one"
        assert grid.cells[0].mode == "em"

    def test_grid_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "B": 3,\n  "cells": [\n')
        with pytest.raises(ValueError, match="line"):
            McGrid.from_json(path)

    def test_grid_from_json_rejects_non_integer_size(self, tmp_path):
        path = tmp_path / "float_n.json"
        path.write_text(json.dumps({"cells": [
            {"label": "x", "n": 12.0, "T": 25, "r": 2, "q": 2}]}))
        with pytest.raises(ValueError, match="invalid experiment file: n must"):
            McGrid.from_json(path)

    def test_grid_missing_cells_key(self, tmp_path):
        path = tmp_path / "nocells.json"
        path.write_text('{"B": 2}')
        with pytest.raises(ValueError):
            McGrid.from_json(path)

    def test_grid_B_validated(self):
        with pytest.raises(ValueError):
            McGrid(cells=(), B=0)

    @pytest.mark.parametrize("kw,message", [
        ({"B": 2.5}, "B must be an integer, got 2.5"),
        ({"B": True}, "B must be an integer, got True"),
        ({"base_seed": 1.9}, "base_seed must be an integer, got 1.9"),
    ])
    def test_grid_rejects_non_integer_count_and_seed(self, kw, message):
        """A float B would otherwise fail later, in range(B)."""
        with pytest.raises(ValueError, match=message):
            McGrid(cells=(_small_cell(),), **kw)

    def test_grid_refuses_a_negative_seed_when_built(self):
        """A negative base seed used to build and then fail in
        SeedSequence once the first cell ran."""
        with pytest.raises(ValueError, match="^base_seed must be >= 0, got -1$"):
            McGrid(cells=(_small_cell(),), base_seed=-1)

    def test_grid_accepts_numpy_integers(self):
        grid = McGrid(cells=(), B=np.int64(3), base_seed=np.int32(7))
        assert grid.B == 3 and grid.base_seed == 7

    @pytest.mark.parametrize("key,value", [
        ("B", 2.7), ("B", True), ("base_seed", 1.9)])
    def test_grid_from_json_rejects_non_integer_count_and_seed(
            self, tmp_path, key, value):
        """The file's B and base_seed are not truncated: 2.7 is not 2."""
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({key: value, "cells": [
            {"label": "x", "n": 10, "T": 20, "r": 2, "q": 1}]}))
        with pytest.raises(ValueError,
                           match=f"invalid experiment file: {key} must be an integer"):
            McGrid.from_json(path)

    def test_grid_rejects_duplicate_labels(self):
        """Two cells with one label would write one zhist_<label>.csv."""
        with pytest.raises(ValueError, match="duplicate cell label 'same'"):
            McGrid(cells=(_small_cell("same"), _small_cell("other"),
                          _small_cell("same", T=30)))

    def test_grid_from_json_rejects_duplicate_labels(self, tmp_path):
        cell = {"label": "same", "n": 10, "T": 20, "r": 2, "q": 1}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"B": 2, "cells": [cell, dict(cell, T=30)]}))
        with pytest.raises(ValueError, match="duplicate cell label"):
            McGrid.from_json(path)


class TestRunCell:
    def test_em_mode_report_fields(self):
        rep = run_cell(_small_cell(), B=2, base_seed=0)
        assert rep.B == 2 and rep.failures == 0
        for k in ("tr_f_em", "tr_lam_em", "tr_f_pc", "tr_lam_pc",
                  "rel_tr_f", "rel_tr_lam", "mse_em", "mse_pc", "rel_mse"):
            assert np.isfinite(rep.stats[k])
        assert rep.coverage is not None
        assert rep.coverage.count > 0
        assert rep.hist.sum() <= rep.coverage.count

    def test_filter_only_mode(self):
        rep = run_cell(_small_cell(mode="filter_only"), B=2, base_seed=0)
        assert rep.coverage is None
        assert rep.stats["tr_pred"].shape == (5,)
        assert np.all(rep.stats["tr_pred"] > 0)
        assert np.all(np.isfinite(rep.stats["tr_filt"]))

    @pytest.mark.parametrize("mode", ["em", "filter_only"])
    def test_report_pools_the_replications(self, mode):
        """Each statistic is the mean over the replications, the trace
        ratios are ratios of means, the Z table pools every replication,
        and the seconds are the call's own."""
        cell = _small_cell(mode=mode)
        reps = [_run_replication((cell, _rep_seed(0, _cell_key(cell), b))) for b in range(3)]
        start = time.perf_counter()
        rep = run_cell(cell, B=3, base_seed=0)
        assert 0.0 < rep.seconds <= time.perf_counter() - start
        if mode == "filter_only":
            t_bars = [r["t_bar"] for r in reps]
            assert None not in t_bars and rep.stats["t_bar_mean"] == np.mean(t_bars)
            return
        means = np.mean([r["stats"] for r in reps], axis=0)
        assert np.allclose([rep.stats[k] for k in _EM_STATS], means, rtol=1e-12, atol=0.0)
        assert np.isclose(rep.stats["rel_tr_f"], means[0] / means[3], rtol=1e-12)
        assert np.isclose(rep.stats["rel_tr_lam"], means[1] / means[4], rtol=1e-12)
        assert rep.coverage.count == sum(r["acc"].count for r in reps)

    def test_deterministic_across_reruns(self):
        a = run_cell(_small_cell(), B=2, base_seed=5)
        b = run_cell(_small_cell(), B=2, base_seed=5)
        assert a.stats == b.stats
        assert np.array_equal(a.hist, b.hist)

    def test_base_seed_changes_results(self):
        a = run_cell(_small_cell(), B=1, base_seed=5)
        b = run_cell(_small_cell(), B=1, base_seed=6)
        assert a.stats["mse_em"] != b.stats["mse_em"]

    def test_parallelism_does_not_change_results(self):
        serial = run_cell(_small_cell(), B=4, base_seed=1, parallelism=1)
        parallel = run_cell(_small_cell(), B=4, base_seed=1, parallelism=2)
        assert serial.stats == parallel.stats
        assert np.array_equal(serial.hist, parallel.hist)
        assert serial.coverage.C.tolist() == parallel.coverage.C.tolist()

    @pytest.mark.parametrize("kw,message", [
        ({"B": 0}, "B must be >= 1, got 0"),
        ({"B": -1}, "B must be >= 1, got -1"),
        ({"B": 2.0}, "B must be an integer, got 2.0"),
        ({"base_seed": -1}, "base_seed must be >= 0, got -1"),
        ({"base_seed": 1.5}, "base_seed must be an integer, got 1.5"),
        ({"parallelism": 0}, "parallelism must be >= 1, got 0"),
        ({"parallelism": -1}, "parallelism must be >= 1, got -1"),
        ({"parallelism": True}, "parallelism must be an integer, got True"),
        ({"parallelism": 2.5}, "parallelism must be an integer, got 2.5"),
    ])
    def test_bad_counts_refused_before_any_replication(self, monkeypatch, kw,
                                                       message):
        """B = 0 used to raise IndexError, B = -1 a CellAbortError "0/-1
        replications failed", parallelism <= 0 or True ran serially and 2.5
        raised an untyped TypeError."""
        import dfm_em.montecarlo as mc

        ran = []
        monkeypatch.setattr(mc, "_run_replication", ran.append)
        args = {"B": 2, "base_seed": 0, "parallelism": 1, **kw}
        with pytest.raises(ValueError, match=f"^{message}$"):
            mc.run_cell(_small_cell(), **args)
        assert ran == []

    def test_failure_policy_aborts(self, monkeypatch):
        import dfm_em.montecarlo as mc

        def always_fail(args):
            return {"failed": True, "error": "boom"}

        monkeypatch.setattr(mc, "_run_replication", always_fail)
        with pytest.raises(CellAbortError) as err:
            mc.run_cell(_small_cell("doomed"), B=5, base_seed=0)
        assert err.value.label == "doomed"

    def test_failures_below_limit_are_counted(self, monkeypatch):
        import dfm_em.montecarlo as mc

        real = mc._run_replication.__wrapped__ if hasattr(
            mc._run_replication, "__wrapped__") else _run_replication
        calls = {"k": 0}

        def sometimes_fail(args):
            calls["k"] += 1
            if calls["k"] == 1:
                return {"failed": True, "error": "boom"}
            return real(args)

        monkeypatch.setattr(mc, "_run_replication", sometimes_fail)
        rep = mc.run_cell(_small_cell(), B=10, base_seed=0)
        assert rep.failures == 1
        assert rep.coverage.count > 0


    @pytest.mark.parametrize("failing", [2, 3])
    def test_abort_boundary(self, monkeypatch, failing):
        """A cell aborts when more than 20% of its replications fail: at
        B = 10, 2 failures run and are counted, and 3 abort the cell."""
        import dfm_em.montecarlo as mc

        cell = _small_cell("edge")
        doomed = {_rep_seed(0, _cell_key(cell), b) for b in (1, 4, 7)[:failing]}

        def chosen_fail(args):
            if args[1] in doomed:
                return {"failed": True, "error": "boom"}
            return _run_replication(args)

        monkeypatch.setattr(mc, "_run_replication", chosen_fail)
        if failing == 3:
            with pytest.raises(CellAbortError, match="3/10 replications failed"):
                mc.run_cell(cell, B=10, base_seed=0)
        else:
            assert mc.run_cell(cell, B=10, base_seed=0).failures == 2

    def test_typed_replication_failure_is_counted(self, monkeypatch):
        """A typed error inside one replication is one counted failure."""
        import dfm_em.montecarlo as mc

        real, calls = mc.em_fit, []

        def em_fit_failing_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise AscentViolationError("log-likelihood decreased", 1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mc, "em_fit", em_fit_failing_once)
        rep = mc.run_cell(_small_cell(), B=5, base_seed=0)
        assert len(calls) == 5
        assert rep.failures == 1
        assert all(np.isfinite(v) for v in rep.stats.values())
        assert rep.coverage.count > 0

    def test_untyped_replication_error_stops_the_cell(self, monkeypatch):
        """A ShapeError (a ValueError) inside one replication is a defect,
        not a counted failure: run_cell raises it."""
        import dfm_em.montecarlo as mc

        real, calls = mc.em_fit, []

        def em_fit_broken_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ShapeError("broken shape")
            return real(*args, **kwargs)

        monkeypatch.setattr(mc, "em_fit", em_fit_broken_once)
        with pytest.raises(ShapeError, match="broken shape"):
            mc.run_cell(_small_cell(), B=5, base_seed=0)


class TestRunGrid:
    def test_counts_and_labels(self):
        grid = McGrid(cells=(_small_cell("a"), _small_cell("b", T=30)),
                      B=2, base_seed=3)
        start = time.perf_counter()
        report = run_grid(grid)
        assert [c.cell.label for c in report.cells] == ["a", "b"]
        assert report.B == 2 and report.base_seed == 3
        assert sum(c.seconds for c in report.cells) <= report.seconds
        assert report.seconds <= time.perf_counter() - start

    def test_cell_order_does_not_change_cell_results(self):
        a, b = _small_cell("a"), _small_cell("b", T=30)
        fwd = run_grid(McGrid(cells=(a, b), B=2, base_seed=3))
        rev = run_grid(McGrid(cells=(b, a), B=2, base_seed=3))
        assert fwd.cells[0].stats == rev.cells[1].stats
        assert fwd.cells[1].stats == rev.cells[0].stats

    def test_empty_grid(self):
        report = run_grid(McGrid(cells=(), B=1))
        assert report.cells == []


class TestWriteReport:
    def _report(self, **kw):
        grid = McGrid(cells=(_small_cell("em_cell"),
                             _small_cell("ss_cell", mode="filter_only")),
                      B=2, base_seed=11)
        return run_grid(grid, **kw)

    def test_files_written(self, tmp_path):
        report = self._report()
        write_report(report, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "cells.csv").exists()
        assert (out / "zhist_em_cell.csv").exists()
        assert not (out / "zhist_ss_cell.csv").exists()  # no Z in filter mode
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["B"] == 2
        assert manifest["cells"] == ["em_cell", "ss_cell"]

    def test_csv_shape_and_header(self, tmp_path):
        report = self._report()
        write_report(report, tmp_path / "out")
        lines = (tmp_path / "out" / "cells.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 cells
        header = lines[0].split(",")
        assert header[0] == "label" and "rel_mse" in header and "tr_pred_5" in header
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_histogram_counts_integer(self, tmp_path):
        report = self._report()
        write_report(report, tmp_path / "out")
        lines = (tmp_path / "out" / "zhist_em_cell.csv").read_text().strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count"
        total = sum(int(ln.split(",")[2]) for ln in lines[1:])
        assert total >= 0
        assert len(lines) == 1 + 100  # 100 bins over [-5, 5]

    def test_refuses_overwrite(self, tmp_path):
        report = self._report()
        write_report(report, tmp_path / "out")
        with pytest.raises(FileExistsError):
            write_report(report, tmp_path / "out")
        write_report(report, tmp_path / "out", overwrite=True)

    @pytest.mark.parametrize("stale", ["zhist_em_cell.csv", "manifest.json"])
    def test_refuses_before_writing(self, tmp_path, stale):
        """A stale histogram or manifest alone blocks the report, and no
        other file is written."""
        report = self._report()
        out = tmp_path / "out"
        out.mkdir()
        (out / stale).write_text("stale\n")
        with pytest.raises(FileExistsError, match=stale):
            write_report(report, out)
        assert [p.name for p in out.iterdir()] == [stale]

    def test_manifest_records_the_package_version(self, tmp_path):
        write_report(self._report(), tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["package_version"] == dfm_em.__version__

    def test_byte_identical_across_parallelism(self, tmp_path):
        """The deterministic outputs (cells.csv, Z histograms) must be
        byte-identical across reruns and parallelism levels; only
        manifest.json may differ (timings)."""
        write_report(self._report(parallelism=1), tmp_path / "p1")
        write_report(self._report(parallelism=2), tmp_path / "p2")
        for name in ("cells.csv", "zhist_em_cell.csv"):
            b1 = (tmp_path / "p1" / name).read_bytes()
            b2 = (tmp_path / "p2" / name).read_bytes()
            assert b1 == b2
