"""Byte identity of the data files: each run below, regenerated in-process,
writes exactly the files stored under tests/data_files/<run>/, and the arrays
behind its CSV files are equal to the last bit (`data_files`).

`manifest.json` is not stored, since it carries a timestamp.  A change that
alters a data file on purpose rewrites the stored copy in the same commit
(`PYTHONPATH=src python tests/test_data_files.py [run ...]`), so the change
shows in the diff.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from exfree import cli

ROOT = Path(__file__).parent.parent
STORED = Path(__file__).parent / "data_files"

#: The device coherence of the open-system runs: T1 and T_phi in us, n_th.
DEVICE = {"t1_us": [265, 300, 314], "tphi_us": 500, "n_th": 0.01}

#: The runs besides the shipped configs, one per path the shipped ones do not take.
EXTRA = {
    "lindblad-qst": {"experiment": "qst", "g_over_2pi_khz": 80, "delta_over_2pi_khz": 475,
                     "dims": [4, 3, 4], "method": "lindblad", "n_samples": 41, **DEVICE},
    # tau_ST is no whole number of 0.3 us steps, nor is any sample but t = 0
    "trotter-qst": {"experiment": "qst", "g_over_2pi_khz": 80, "delta_over_2pi_khz": 475,
                    "dims": [5, 4, 5], "method": "trotter", "trotter_dt_us": 0.3,
                    "n_samples": 41},
    "lindblad-hom": {"experiment": "hom", "g_over_2pi_khz": 80, "delta_over_2pi_khz": 775,
                     "dims": [5, 4, 5], "method": "lindblad", "n_samples": 21, **DEVICE},
    "binomial-loss": {"experiment": "binomial", "g_over_2pi_khz": 80,
                      "delta_over_2pi_khz": 467.39, "dims": [7, 5, 7], "code_label": "0L",
                      "loss_after_transfer": True},
    "lindblad-purified": {"experiment": "purified-qst", "g_over_2pi_khz": 80,
                          "delta_over_2pi_khz": 467.39, "dims": [4, 3, 4],
                          "method": "lindblad", **DEVICE},
    "budget-ablation": {"experiment": "budget", "g_over_2pi_khz": 80,
                        "delta_over_2pi_khz": 475, "dims": [5, 4, 5], "ablate_cavity": True,
                        "rtol": 1e-6},
}

RUNS = {
    **{f"config-{p.stem}": yaml.safe_load(p.read_text())
       for p in sorted((ROOT / "configs").glob("*.yaml"))},
    **EXTRA,
}


def data_files(name: str, out: Path) -> dict[str, bytes]:
    """Run `name` of RUNS into `out` and return its data files by relative path.

    Each run directory also gets `full_precision.txt`: the arrays that the CSV
    files round to 12 digits, one row a line, in repr, which round-trips.
    """
    write = cli.write_artifacts

    def write_with_full_precision(result, cfg):
        dest = write(result, cfg)
        arrays = {"t": result.times, "populations": result.populations, **result.series}
        (dest / "full_precision.txt").write_text("".join(
            f"{key}[{k}] {' '.join(map(repr, np.atleast_1d(row).tolist()))}\n"
            for key, value in arrays.items() if value is not None
            for k, row in enumerate(value)))
        return dest

    cli.write_artifacts = write_with_full_precision
    try:
        cli._dispatch(cli.parse_config(RUNS[name], {"out_dir": str(out)}))
    finally:
        cli.write_artifacts = write
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def describe(path: str, got: bytes, want: bytes) -> str:
    """Where `got` first departs from `want`, their largest numeric difference,
    and the numpy and BLAS this run used."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    line = next((k for k, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                min(len(got_lines), len(want_lines)))
    numbers = [[float(x) for x in _NUMBER.findall(text)] for text in (got, want)]
    if len(numbers[0]) == len(numbers[1]):
        diff = f"{np.max(np.abs(np.subtract(*numbers)), initial=0.0):.3e}"
    else:
        diff = f"n/a ({len(numbers[0])} numbers, {len(numbers[1])} stored)"
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    show = [ln[k].decode() if k < len(ln) else "<end of file>"
            for ln, k in ((got_lines, line), (want_lines, line))]
    return (f"{path} differs from its stored copy at line {line + 1}:\n"
            f"  written: {show[0]}\n  stored:  {show[1]}\n"
            f"  largest numeric difference: {diff}\n"
            f"  numpy {np.__version__}, BLAS {blas['name']} {blas['version']}")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_data_files_match_stored(name, tmp_path):
    written = data_files(name, tmp_path)
    stored = {p.relative_to(STORED / name).as_posix(): p.read_bytes()
              for p in sorted((STORED / name).rglob("*")) if p.is_file()}
    assert sorted(written) == sorted(stored)
    mismatched = [describe(path, written[path], stored[path])
                  for path in sorted(stored) if written[path] != stored[path]]
    assert not mismatched, "\n".join(mismatched)


def test_describe_names_the_file_line_and_difference():
    text = describe("qst/t/trajectory.csv", b"t,n1\n0,1\n1,0.5\n", b"t,n1\n0,1\n1,0.25\n")
    assert "qst/t/trajectory.csv differs from its stored copy at line 3" in text
    assert "written: 1,0.5" in text and "stored:  1,0.25" in text
    assert "largest numeric difference: 2.500e-01" in text
    assert f"numpy {np.__version__}" in text


if __name__ == "__main__":
    # rewrite the stored data files from this tree
    import shutil
    import tempfile

    for name in sys.argv[1:] or sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            files = data_files(name, Path(tmp))
        shutil.rmtree(STORED / name, ignore_errors=True)
        for path, data in files.items():
            (STORED / name / path).parent.mkdir(parents=True, exist_ok=True)
            (STORED / name / path).write_bytes(data)
