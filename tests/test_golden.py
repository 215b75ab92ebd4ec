"""The golden reduced figures: `metabeam figure` reproduces their recorded outputs.

tests/golden/record.py wrote the expected figure rows, training losses and
checkpoints of each figure: fig6 on golden.cfg, and fig5 on verbatim.cfg,
which runs the verbatim loss, the union ranking pool and non-unit weights.
Both figures get the same tolerances. The learned methods' rows, the losses
and the checkpoints must match to rtol 1e-12: perturbing the initialization
by 4e-16 relative moved the fig6 rows by at most 2.5e-15, so this passes on
another CPU's BLAS kernels and fails on any change of substance. The wmmse
rows get rtol 1e-9, the relative width of the solver's power band, inside
which an equally valid multiplier search moved the rate by up to 3.6e-10
(bisection to Newton) and starting each search at the previous iterate's mu
moved the rows by up to 5.8e-11, both without re-recording.
"""

import csv
import io
from pathlib import Path

import numpy as np

from golden import record
from metabeam import nn

LEARNED_RTOL = 1e-12
WMMSE_RTOL = 1e-9


def _rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _check_rows(got, want):
    got, want = _rows(got), _rows(want)
    cells = ("method", "snr_db", "seed", "slot", "samples")
    assert [[r[c] for c in cells] for r in got] == [[r[c] for c in cells] for r in want]
    for method in {r["method"] for r in want}:
        rtol = WMMSE_RTOL if method == "wmmse" else LEARNED_RTOL
        for column in ("wsr_mean", "wsr_std"):
            np.testing.assert_allclose(
                [float(r[column]) for r in got if r["method"] == method],
                [float(r[column]) for r in want if r["method"] == method],
                rtol=rtol, atol=0, err_msg=f"{method} {column}",
            )


def _check_losses(got, want):
    got, want = _rows(got), _rows(want)
    assert [r["epoch"] for r in got] == [r["epoch"] for r in want]
    for column in ("support_loss", "query_loss"):
        np.testing.assert_allclose([float(r[column]) for r in got],
                                   [float(r[column]) for r in want],
                                   rtol=LEARNED_RTOL, atol=0, err_msg=column)


def _check_checkpoint(got_path, want_path):
    got, want = nn.load_checkpoint(got_path), nn.load_checkpoint(want_path)
    assert [a.shape for a in got.leaves] == [a.shape for a in want.leaves]
    np.testing.assert_allclose(nn.pack(got), nn.pack(want), rtol=LEARNED_RTOL, atol=0)


def _check_figure(golden, tmp_path):
    config, figure, directory = golden
    got = record.run(config, figure, str(tmp_path))
    want = record.kept_names(figure, directory)
    assert sorted(got) == want
    for name in want:
        recorded = Path(directory, name)
        if name == f"{figure}.csv":
            _check_rows(got[name], recorded.read_bytes())
        elif name.endswith("_train.csv"):
            _check_losses(got[name], recorded.read_bytes())
        else:
            _check_checkpoint(str(tmp_path / name), str(recorded))


def test_golden_reduced_figure(tmp_path):
    _check_figure(record.GOLDENS[0], tmp_path)


def test_golden_verbatim_figure(tmp_path):
    _check_figure(record.GOLDENS[1], tmp_path)
