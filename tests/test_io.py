import json

import numpy as np
import pytest

from dfm_em import DgpConfig, EmConfig, ModelDims, Panel, draw_dgp, em_fit
from dfm_em.io import (
    _output_paths,
    read_matrix_csv,
    read_panel_csv,
    read_params_json,
    write_dgp_draw,
    write_em_result,
    write_matrix_csv,
    write_panel_csv,
    write_params_json,
)
from conftest import dense_gamma, factored, traced_call


class TestPanelCsv:
    def test_round_trip_bitwise(self, rng, tmp_path):
        X = rng.standard_normal((5, 12))
        panel = Panel(X=X, names=tuple(f"s{i}" for i in range(5)))
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert back.names == panel.names
        assert np.array_equal(back.X, X)  # repr precision: exact

    def test_read_panel_is_c_ordered(self, rng, tmp_path):
        """Every pass over a panel reads it row by row; the reader once
        returned the transpose of its T x n rows, a Fortran-ordered X."""
        path = tmp_path / "panel.csv"
        write_panel_csv(Panel(X=rng.standard_normal((6, 9))), path)
        assert read_panel_csv(path).X.flags.c_contiguous

    def test_read_holds_the_panel_about_twice(self, rng, tmp_path):
        """Rows are parsed straight into float arrays and freed before the
        C-ordered copy: a traced peak of 2.15 X.nbytes at 400 x 250 (1.7
        MB), where lists of Python floats peaked at 5.2 X.nbytes."""
        path = tmp_path / "panel.csv"
        write_panel_csv(Panel(X=rng.standard_normal((400, 250))), path)
        panel, peak, _ = traced_call(read_panel_csv, path)
        assert peak <= 2.5 * panel.X.nbytes

    def test_layout_time_rows(self, rng, tmp_path):
        panel = Panel(X=rng.standard_normal((3, 7)))
        path = tmp_path / "p.csv"
        write_panel_csv(panel, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1 + 7  # header + T rows
        assert len(lines[1].split(",")) == 3  # n columns

    def test_ragged_row_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=":3"):
            read_panel_csv(path)

    def test_non_numeric_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,x\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: .*'x'"):
            read_panel_csv(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_field_names_file_and_line(self, tmp_path, field):
        """A nan or inf field once passed the reader and was refused by
        Panel as "panel contains non-finite entries", naming no file."""
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b\n1.0,2.0\n\n3.0,{field}\n")
        with pytest.raises(ValueError) as err:
            read_panel_csv(path)
        assert str(err.value) == f"{path}:4: not a finite number: {field!r}"

    def test_undecodable_text_names_the_file(self, tmp_path):
        """A UTF-16 file (byte-order mark \\xff\\xfe) once raised the codec's
        UnicodeDecodeError, naming no file."""
        path = tmp_path / "utf16.csv"
        path.write_bytes("a,b\n1.0,2.0\n".encode("utf-16"))
        with pytest.raises(ValueError) as err:
            read_panel_csv(path)
        assert str(err.value).startswith(f"{path}: ")
        assert "can't decode byte 0xff" in str(err.value)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_panel_csv(path)

    def test_header_only_raises(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            read_panel_csv(path)


class TestMatrixCsv:
    def test_round_trip(self, rng, tmp_path):
        M = rng.standard_normal((4, 6))
        path = tmp_path / "m.csv"
        write_matrix_csv(M, path, header=list("abcdef"))
        assert np.array_equal(read_matrix_csv(path), M)
        again = tmp_path / "again.csv"
        write_matrix_csv(read_matrix_csv(path), again, header=list("abcdef"))
        assert again.read_bytes() == path.read_bytes()

    def test_header_skipped(self, rng, tmp_path):
        """The first line is the header even when its fields read as numbers."""
        M = rng.standard_normal((2, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(M, path, header=["1", "2", "3"])
        assert np.array_equal(read_matrix_csv(path), M)

    def test_header_must_match_the_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match="1 header fields for 3 columns"):
            write_matrix_csv(np.ones((2, 3)), path, header=["a"])
        assert not path.exists()

    @pytest.mark.parametrize("text", ["", "a,b\n", "a,b\n\n"],
                             ids=["empty", "header_only", "header_and_blank"])
    def test_no_data_rows_raise_naming_the_file(self, tmp_path, text):
        """Such a file once read as a 1-D array of shape (0,)."""
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            read_matrix_csv(path)
        assert str(err.value) == f"{path}: no data rows"

    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize("bad, message", [
        ("1.0,2.0,3.0\n4.0,5.0\n", "expected 3 columns, got 2"),
        ("1.0,2.0,3.0\n4.0,x,6.0\n", "could not convert string to float: 'x'"),
    ], ids=["ragged", "non_numeric"])
    def test_bad_row_names_file_and_line(self, tmp_path, blank, bad, message):
        """Blank lines are skipped but counted in the line number."""
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n" + ("\n" if blank else "") + bad)
        line = 4 if blank else 3
        with pytest.raises(ValueError) as err:
            read_matrix_csv(path)
        assert str(err.value) == f"{path}:{line}: {message}"


# The keys of a two-series, one-factor document but its Gamma^e.
_TWO_SERIES = {"Lambda": [[1.0], [1.0]], "A": [[0.5]], "H": [[1.0]],
               "rho": [0.0, 0.0]}


class TestParamsJson:
    def test_round_trip_diagonal(self, rng, tmp_path):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=6, T=10, r=2, q=1),
                                  delta=0.2, seed=1))
        path = tmp_path / "params.json"
        write_params_json(draw.params, path)
        back = read_params_json(path)
        assert np.array_equal(back.Lambda, draw.params.Lambda)
        assert np.array_equal(back.A, draw.params.A)
        assert np.array_equal(back.H, draw.params.H)
        assert np.array_equal(back.gamma_e, draw.params.gamma_e)
        assert np.array_equal(back.rho, draw.params.rho)
        assert back.gamma_factors is None

    def test_round_trip_full_covariance(self, rng, tmp_path):
        """A full Gamma, given by its factors factored(G), reads
        back bitwise and still rebuilds G."""
        from dfm_em.model import DfmParams

        B = rng.standard_normal((4, 4))
        G = B @ B.T + 4.0 * np.eye(4)
        p = DfmParams(Lambda=rng.standard_normal((4, 2)),
                      A=0.3 * np.eye(2), H=np.eye(2),
                      gamma_factors=factored(G))
        path = tmp_path / "params.json"
        write_params_json(p, path)
        back = read_params_json(path)
        assert back.gamma_factors[0] == p.gamma_factors[0]
        assert np.array_equal(back.gamma_factors[1], p.gamma_factors[1])
        assert np.max(np.abs(dense_gamma(back) - G)) <= 1e-12 * np.max(np.abs(G))

    def test_legacy_full_gamma_e_is_refused(self, rng, tmp_path):
        """A document with a 2-D gamma_e G, as older versions wrote, is
        refused naming the file and the keys a full Gamma^e is stored as."""
        B = rng.standard_normal((5, 5))
        G = B @ B.T + np.eye(5)
        doc = {"Lambda": rng.standard_normal((5, 2)).tolist(),
               "A": (0.3 * np.eye(2)).tolist(), "H": np.eye(2).tolist(),
               "gamma_e": G.tolist(), "gamma_e_diagonal": False,
               "rho": np.zeros(5).tolist()}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            read_params_json(path)
        assert str(err.value) == (f"{path}: gamma_e must be 1-D (the diagonal); a "
                                  "full Gamma^e is stored as its factors gamma_c/gamma_B")

    @pytest.mark.parametrize("text, why", [
        ("3", "not a JSON object"), ("[1, 2]", "not a JSON object"),
        (json.dumps({"Lambda": [[1.0]], "A": [[0.5]], "H": [[1.0]],
                     "rho": [0.0], "gamma_e": [[1.0, 0.0]]}), "gamma_e must be 1-D"),
        (json.dumps(dict(_TWO_SERIES, gamma_e=[[2.0, 0.5], [0.0, 2.0]])),
         "gamma_e must be 1-D"),
        (json.dumps(dict(_TWO_SERIES, gamma_c=0.0, gamma_B=[[1.0], [0.0]])),
         "c not positive"),
        (json.dumps(dict(_TWO_SERIES, gamma_c=1.0,
                         gamma_B=[[1.0, 1.0], [0.0, 1.0]])), "B'B not diagonal"),
        ("{", "parse error at line 1: Expecting property name"),
        (json.dumps(dict(_TWO_SERIES, gamma_c=[1.0, 2.0], gamma_B=[[1.0], [0.0]])),
         "gamma_factors c must be 0-d, got ndim=1"),
        (json.dumps(dict(_TWO_SERIES, Lambda=[1.0, 1.0], gamma_e=[1.0, 1.0])),
         "Lambda must be a 2-D array, got ndim=1"),
    ], ids=["number", "list", "gamma_e_not_square", "gamma_e_not_symmetric",
            "gamma_c_not_positive", "gamma_B_not_orthogonal", "not_json",
            "gamma_c_not_a_scalar", "Lambda_one_dimensional"])
    def test_malformed_document_raises_naming_the_file(self, tmp_path, text, why):
        path = tmp_path / "params.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"params.json.*{why}"):
            read_params_json(path)

    @pytest.mark.parametrize("key, value", [
        ("Lambda", [[1.0], [1.0, 2.0]]), ("A", "half"), ("gamma_e", [1.0, [2.0]]),
    ], ids=["ragged", "string", "nested"])
    def test_value_not_an_array_names_the_file_and_key(self, tmp_path, key,
                                                       value):
        """A ragged matrix once raised numpy's "setting an array element
        with a sequence", naming neither the file nor the key."""
        doc = dict(_TWO_SERIES, gamma_e=[1.0, 1.0])
        doc[key] = value
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            read_params_json(path)
        assert str(err.value).startswith(f"{path}: key {key!r}: ")

    @pytest.mark.parametrize("key, value, message", [
        ("A", [[0.5, 0.0], [0.0, 0.5]], "A shape (2, 2) != (1, 1)"),
        ("H", [[1.0], [1.0]], "H shape (2, 1) != (1, 1)"),
        ("gamma_B", [[1.0]], "gamma_factors B shape (1, 1) needs n=2 rows"),
        ("gamma_e", [1.0], "gamma_e shape (1,) != (2,)"),
        ("rho", [0.0], "rho shape (1,) != (2,)"),
    ], ids=["A", "H", "gamma_B", "gamma_e", "rho"])
    def test_arrays_that_disagree_name_the_file(self, tmp_path, key, value,
                                                message):
        """Arrays that disagree with Lambda's (n, r) were once read, and
        died in the filter or filtered with no complaint."""
        doc = dict(_TWO_SERIES, **({"gamma_c": 1.0} if key == "gamma_B"
                                   else {"gamma_e": [1.0, 1.0]}))
        doc[key] = value
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            read_params_json(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["Lambda", "gamma_c"])
    def test_non_finite_token_names_the_file_and_key(self, tmp_path, token, key):
        """Python's json reads and writes NaN and +-Infinity; such a value
        was once read, and an eval with it died in an SVD that did not
        converge (exit 3) rather than refusing the file (exit 2)."""
        doc = dict(_TWO_SERIES, gamma_c=1.0, gamma_B=[[1.0], [0.0]])
        doc[key] = [[float(token)], [1.0]] if key == "Lambda" else float(token)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        assert token in path.read_text()
        with pytest.raises(ValueError) as err:
            read_params_json(path)
        assert str(err.value) == f"{path}: key {key!r}: not finite"

    def test_round_trip_factored_covariance(self, rng, tmp_path):
        """Factors write as gamma_c and gamma_B, n m + 1 numbers in place
        of an n x n gamma_e, and read back bitwise."""
        from dfm_em.model import DfmParams

        B = np.linalg.qr(rng.standard_normal((6, 4)))[0] * [2.0, 1.5, 1.0, 0.5]
        p = DfmParams(Lambda=rng.standard_normal((6, 2)), A=0.3 * np.eye(2),
                      H=np.eye(2), gamma_factors=(np.sqrt(3.0), B))
        path = tmp_path / "params.json"
        write_params_json(p, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"Lambda", "A", "H", "gamma_c", "gamma_B", "rho"}
        back = read_params_json(path)
        assert back.gamma_factors[0] == p.gamma_factors[0]
        assert np.array_equal(back.gamma_factors[1], p.gamma_factors[1])
        for name in ("Lambda", "A", "H", "gamma_e", "rho"):
            assert np.array_equal(getattr(back, name), getattr(p, name))

    def test_diagonal_document_has_no_flag_and_reads_diagonal(self, tmp_path):
        """The keys alone say the form: a diagonal Gamma^e writes gamma_e
        and no flag, and reads back diagonal."""
        from dfm_em.model import DfmParams

        p = DfmParams(Lambda=np.ones((3, 1)), A=np.array([[0.5]]),
                      H=np.eye(1), gamma_e=np.ones(3))
        path = tmp_path / "params.json"
        write_params_json(p, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"Lambda", "A", "H", "gamma_e", "rho"}
        back = read_params_json(path)
        assert back.gamma_factors is None
        assert np.array_equal(back.gamma_e, p.gamma_e)


class TestDirectories:
    def test_dgp_draw_directory(self, tmp_path):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=4, T=9, r=2, q=2), seed=2))
        out = tmp_path / "draw"
        write_dgp_draw(draw, out)
        for name in ("panel.csv", "factors.csv", "chi.csv", "params.json"):
            assert (out / name).exists()
        F = read_matrix_csv(out / "factors.csv")
        assert np.array_equal(F, draw.factors.T)
        chi = read_matrix_csv(out / "chi.csv")
        assert np.array_equal(chi, draw.chi.T)

    def test_writers_write_exactly_their_listed_files(self, tmp_path):
        """The list the CLI checks before working is the list written."""
        dims = ModelDims(n=6, T=15, r=1, q=1)
        draw = draw_dgp(DgpConfig(dims=dims, seed=2))
        write_dgp_draw(draw, tmp_path / "draw")
        write_em_result(em_fit(draw.panel, dims, EmConfig(max_iter=2)),
                        tmp_path / "fit")
        for command, out in (("simulate", "draw"), ("fit", "fit")):
            listed = sorted(_output_paths(command, tmp_path / out))
            assert sorted(str(p) for p in (tmp_path / out).iterdir()) == listed

    def test_dgp_draw_refuses_overwrite(self, tmp_path):
        draw = draw_dgp(DgpConfig(dims=ModelDims(n=4, T=9, r=2, q=2), seed=2))
        out = tmp_path / "draw"
        write_dgp_draw(draw, out)
        with pytest.raises(FileExistsError):
            write_dgp_draw(draw, out)
        write_dgp_draw(draw, out, overwrite=True)  # explicit opt-in

    def test_em_result_directory(self, tmp_path):
        dims = ModelDims(n=10, T=30, r=2, q=2)
        draw = draw_dgp(DgpConfig(dims=dims, seed=3))
        res = em_fit(draw.panel, dims, EmConfig(max_iter=3))
        out = tmp_path / "fit"
        write_em_result(res, out)
        for name in ("params.json", "factors.csv", "loglik_trace.csv",
                     "summary.json"):
            assert (out / name).exists()
        trace = read_matrix_csv(out / "loglik_trace.csv")
        assert np.array_equal(trace[:, 0], res.loglik_trace)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iters"] == res.iters
        assert summary["converged"] == res.converged

    def test_em_result_refuses_overwrite(self, tmp_path):
        dims = ModelDims(n=8, T=20, r=1, q=1)
        draw = draw_dgp(DgpConfig(dims=dims, seed=4))
        res = em_fit(draw.panel, dims, EmConfig(max_iter=2))
        out = tmp_path / "fit"
        write_em_result(res, out)
        with pytest.raises(FileExistsError):
            write_em_result(res, out)

    def test_em_result_refuses_a_stale_summary(self, tmp_path):
        """summary.json alone blocks a fit, and nothing is written."""
        dims = ModelDims(n=8, T=20, r=1, q=1)
        draw = draw_dgp(DgpConfig(dims=dims, seed=4))
        res = em_fit(draw.panel, dims, EmConfig(max_iter=2))
        out = tmp_path / "fit"
        out.mkdir()
        (out / "summary.json").write_text("stale\n")
        with pytest.raises(FileExistsError, match="summary.json"):
            write_em_result(res, out)
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
        assert (out / "summary.json").read_text() == "stale\n"
