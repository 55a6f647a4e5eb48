"""File formats: CSV panels and factor paths, JSON parameter documents.

This is the only module that opens a file: the package reads through
``_lines`` and writes through ``_write_text``, the Monte Carlo report and
experiment files and ``dfm-em eval --out`` included, so every reader
names the file it refuses, in one way for every format.

Every matrix CSV has one header row naming its columns, then one row per
matrix row. A panel's header holds the series identifiers and each
subsequent row is one time point, so the file has T data rows and n
columns. All floats are written with shortest round-trip precision
(``repr``), so read(write(x)) == x bitwise.

Parameters are stored as a JSON document with named matrices in row-major
nested-list form. A diagonal Gamma^e is the 1-D ``gamma_e``; a full one,
which is always given by its factors (``DfmParams.gamma_factors``,
Gamma^e = c I + B B'), is stored as the two keys ``gamma_c`` and
``gamma_B`` in place of ``gamma_e``: n m + 1 numbers rather than n^2, and
these keys alone say which form Gamma^e has; a 2-D ``gamma_e`` is refused.
A draw's document also records ``tau``: at tau > 0 its
Gamma^e = toeplitz(tau^|i-j|) is not written out, and ``gamma_e`` holds
the diagonal (ones).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .em import EmResult
from .model import DfmParams, Panel, _factor_violations
from .simulate import DgpDraw

__all__ = [
    "write_panel_csv",
    "read_panel_csv",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_params_json",
    "read_params_json",
    "write_dgp_draw",
    "write_em_result",
]


def _fmt(x) -> str:
    return repr(float(x))


# Files each command writes into its output directory, in writing order.
_OUTPUT_FILES = {
    "simulate": ("panel.csv", "factors.csv", "chi.csv", "params.json"),
    "fit": ("params.json", "factors.csv", "loglik_trace.csv", "summary.json"),
    "pc": ("params.json", "factors.csv"),
}


def _output_paths(command: str, outdir) -> list:
    """Paths of the files ``command`` writes into ``outdir``."""
    return [os.path.join(outdir, name) for name in _OUTPUT_FILES[command]]


def _refuse_existing(paths, overwrite: bool):
    """Unless ``overwrite``, raise FileExistsError naming the first existing path."""
    existing = [p for p in paths if os.path.exists(p)]
    if existing and not overwrite:
        raise FileExistsError(f"{existing[0]} exists; pass overwrite to replace")


def write_panel_csv(panel: Panel, path):
    """Write a panel as CSV: header of series ids, then one row per time point."""
    write_matrix_csv(panel.X.T, path, header=panel.names)


def _lines(path):
    """The lines of the text file ``path``, read one at a time; undecodable
    text raises ValueError naming the file."""
    try:
        with open(path) as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_csv(path):
    """(header fields, float array rows) of a CSV file whose first non-blank
    line is its header, blank lines skipped. A row not as wide as the header,
    or a field that is not a finite number (nan and inf included), raises
    ValueError naming file:line; undecodable text or no data row, naming
    the file."""
    header, rows = None, []
    for lineno, line in enumerate(_lines(path), start=1):
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        if header is None:
            header = fields
            continue
        if len(fields) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} "
                             f"columns, got {len(fields)}")
        try:
            row = np.array(fields, dtype=float)
            if not np.isfinite(row).all():
                raise ValueError("not a finite number: "
                                 f"{fields[np.isfinite(row).argmin()]!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return header, rows


def read_panel_csv(path) -> Panel:
    """Read a panel written by :func:`write_panel_csv`, C-ordered: its
    T x n rows are freed before their one transposed copy is made."""
    header, rows = _read_csv(path)
    XT = np.array(rows)
    del rows
    return Panel(X=np.ascontiguousarray(XT.T), names=tuple(header))


def write_matrix_csv(M: np.ndarray, path, header):
    """Write a 2-D array as CSV: the column names in ``header``, then one
    matrix row per line. A header not as wide as M raises ValueError, as
    :func:`read_matrix_csv` would on the file."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if len(header) != M.shape[1]:
        raise ValueError(f"{len(header)} header fields for {M.shape[1]} columns")
    lines = [",".join(header)]
    for row in M:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines))


def _write_factors_csv(F: np.ndarray, path):
    """Write an r x T factor path as CSV: header F1..Fr, one row per period."""
    write_matrix_csv(F.T, path, header=[f"F{j+1}" for j in range(F.shape[0])])


def read_matrix_csv(path) -> np.ndarray:
    """Read a 2-D array written by :func:`write_matrix_csv`, skipping its
    header row."""
    return np.array(_read_csv(path)[1])


def _params_doc(params: DfmParams) -> dict:
    if params.gamma_factors is None:
        gamma = {"gamma_e": params.gamma_e.tolist()}
    else:
        c, B = params.gamma_factors
        gamma = {"gamma_c": c, "gamma_B": B.tolist()}
    return {
        "Lambda": params.Lambda.tolist(),
        "A": params.A.tolist(),
        "H": params.H.tolist(),
        **gamma,
        "rho": params.rho.tolist(),
    }


def _write_text(path, text: str):
    """Write ``text`` and a closing newline to ``path``."""
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_json(doc: dict, path):
    _write_text(path, json.dumps(doc))


def _read_json(path) -> dict:
    """The JSON object in ``path``; undecodable text, a parse error or a
    document that is not an object raises ValueError naming the file."""
    try:
        doc = json.loads("".join(_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    return doc


def write_params_json(params: DfmParams, path):
    _write_json(_params_doc(params), path)


def read_params_json(path) -> DfmParams:
    """Read the parameters written by :func:`write_params_json` (or in a
    draw's or a fit's ``params.json``). Text that is not a JSON object, a
    missing key, a value that is not a finite number (JSON's NaN and
    Infinity included) or a rectangular array of them, a ``gamma_e`` not
    1-D or ``gamma_c`` not 0-d, arrays whose shapes disagree (which
    :class:`DfmParams` refuses), or factors that break c > 0 or B'B diagonal
    (which the filter relies on) raise ValueError naming the file."""
    doc = _read_json(path)
    try:
        factored = "gamma_c" in doc or "gamma_B" in doc
        fields = {}
        for key in ("Lambda", "A", "H", "rho") + (
                ("gamma_c", "gamma_B") if factored else ("gamma_e",)):
            if key not in doc:
                raise ValueError(f"missing key {key!r}")
            try:
                fields[key] = np.array(doc[key], dtype=float)
                if not np.isfinite(fields[key]).all():
                    raise ValueError("not finite")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"key {key!r}: {exc}") from None
        if factored:
            fields["gamma_factors"] = (fields.pop("gamma_c"), fields.pop("gamma_B"))
        elif fields["gamma_e"].ndim != 1:
            raise ValueError("gamma_e must be 1-D (the diagonal); a full Gamma^e "
                             "is stored as its factors gamma_c/gamma_B")
        params = DfmParams(**fields)
        bad = params.gamma_factors and _factor_violations(*params.gamma_factors)
        if bad:
            raise ValueError("; ".join(bad))
        return params
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_dgp_draw(draw: DgpDraw, outdir, overwrite: bool = False):
    """Emit a draw as a directory: panel.csv, factors.csv, chi.csv, params.json."""
    paths = _output_paths("simulate", outdir)
    _refuse_existing(paths, overwrite)
    panel_csv, factors_csv, chi_csv, params_json = paths
    os.makedirs(outdir, exist_ok=True)
    write_panel_csv(draw.panel, panel_csv)
    _write_factors_csv(draw.factors, factors_csv)
    write_matrix_csv(draw.chi.T, chi_csv, header=list(draw.panel.names))
    _write_json(dict(_params_doc(draw.params), tau=draw.tau), params_json)


def write_em_result(result: EmResult, outdir, overwrite: bool = False):
    """Emit a fit as a directory: params.json, factors.csv, loglik_trace.csv,
    summary.json; without ``overwrite``, refuses before writing if one exists."""
    paths = _output_paths("fit", outdir)
    _refuse_existing(paths, overwrite)
    params, factors, trace, summary = paths
    os.makedirs(outdir, exist_ok=True)
    write_params_json(result.params, params)
    _write_factors_csv(result.factors.F_smooth, factors)
    write_matrix_csv(np.asarray(result.loglik_trace)[:, None], trace,
                     header=["loglik"])
    _write_json({"iters": int(result.iters),
                 "converged": bool(result.converged),
                 "final_loglik": float(result.loglik_trace[-1])}, summary)
