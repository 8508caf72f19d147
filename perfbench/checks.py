"""Output checks for every benchmark job, and the corruptions that prove them live.

A check reads the files a job wrote and raises ``CheckFailed`` when they are
wrong. ``corrupt`` damages a copy of those files the way a bug would; the
self-test in run.py requires every check to reject its corrupted copy.

Stream files are parsed here, not through chaosrng, and the generated stream
is compared against ``chaosrng._pykernels``, the reference kernel, whatever
backend is active.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from chaosrng import _pykernels
from chaosrng.density import steady_state, ulam_matrix, uniform_density
from chaosrng.maps import DEFAULT_THRESHOLDS, builtin, uniform_certificate

KOLMOGOROV_TOL = 1e-9
#: refine drops intervals shorter than this; each dropped sliver loses at most
#: its length times the density maximum
SLIVER = 1e-14
#: most pieces one interval can split into at the next level: 3 branches x 2 bits
MAX_PIECES = 6
GEN_PREFIX = 4096
GEN_DENSITY_BINS = 4096
DITHER = 2.0 ** -40
VN_SIGMAS = 6.0
_HEADER = struct.Struct("<Q")


class CheckFailed(Exception):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def read_bits(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    (count,) = _HEADER.unpack_from(raw)
    bits = np.unpackbits(np.frombuffer(raw, np.uint8, offset=_HEADER.size))
    _require(bits.size >= count and bits.size - count < 8,
             f"{path.name}: header says {count} bits, payload holds {bits.size}")
    return bits[:count]


def write_bits(path: Path, bits: np.ndarray) -> None:
    path.write_bytes(_HEADER.pack(bits.size) + np.packbits(bits).tobytes())


def _table_levels(path: Path) -> tuple[list, list]:
    """Probabilities and interval counts per level from sequence_table.csv."""
    probs, counts = [], []
    lines = path.read_text().splitlines()
    _require(lines[0] == "word,interval_count,probability", "sequence_table.csv header")
    for line in lines[1:]:
        word, count, prob = line.split(",")
        n = len(word)
        if n > len(probs):
            probs.append([])
            counts.append(0)
        probs[n - 1].append(float(prob))
        counts[n - 1] += int(count)
    return [np.array(p) for p in probs], counts


def _check_analyze(job, d: Path) -> None:
    depth = job.params["depth"]
    probs, counts = _table_levels(d / "sequence_table.csv")
    _require(len(probs) == depth and all(p.size == 2 ** (n + 1) for n, p in enumerate(probs)),
             "sequence table does not hold 2^n words per level up to the depth")
    defect = max(float(np.max(np.abs(probs[n] - probs[n + 1][0::2] - probs[n + 1][1::2])))
                 for n in range(depth - 1))
    _require(defect <= KOLMOGOROV_TOL, f"kolmogorov defect {defect:.3e} > {KOLMOGOROV_TOL}")
    dens_max = max(1.0, max(float(line.rsplit(",", 1)[1]) for line in
                            (d / "density.csv").read_text().splitlines()[1:]))
    for n in range(depth):
        lost = 1.0 - float(probs[n].sum())
        bound = SLIVER * MAX_PIECES * sum(counts[:n]) * dens_max + KOLMOGOROV_TOL
        _require(-KOLMOGOROV_TOL <= lost <= bound,
                 f"level {n + 1} probabilities sum to 1 - {lost:.3e}; sliver bound {bound:.3e}")
    report = json.loads((d / "entropy_report.json").read_text())
    if job.params["certified_slope2"]:
        _require(report["entropy_rate"] == 1.0,
                 f"entropy rate {report['entropy_rate']!r} on a slope-2 map, expected 1")


def _reference_prefix(job) -> np.ndarray:
    """First GEN_PREFIX bits the reference kernel emits for the job's map and seed."""
    name, seed = job.params["map"], job.params["seed"]
    m = builtin(name)
    f = (uniform_density() if uniform_certificate(m)
         else steady_state(ulam_matrix(m, GEN_DENSITY_BINS)))
    rng = np.random.default_rng(seed)
    x0 = f.sample(rng)
    noise = rng.uniform(-DITHER, DITHER, GEN_PREFIX)
    out = np.empty(GEN_PREFIX, dtype=np.uint8)
    _pykernels.bits_from_trajectory(*m.kernel_spec(), DEFAULT_THRESHOLDS[name], x0, noise, out)
    return out


_REFERENCE: dict = {}


def _check_generate(job, d: Path) -> None:
    bits = read_bits(d / "stream.bin")
    _require(bits.size == job.params["count"], f"stream holds {bits.size} bits")
    key = (job.params["map"], job.params["seed"])
    if key not in _REFERENCE:
        _REFERENCE[key] = _reference_prefix(job)
    ref = _REFERENCE[key]
    bad = np.flatnonzero(bits[:ref.size] != ref)
    _require(bad.size == 0, f"stream differs from the reference kernel at bit {bad[:1]}")


def _check_vn(job, d: Path) -> None:
    report = json.loads((d / "rate_report.json").read_text())
    out = read_bits(d / job.params["out"])
    n_in = report["input_bits"]
    _require(out.size == report["output_bits"], "output file and report disagree")
    rate = out.size / n_in
    q = 2.0 * report["rate_exact"]           # chance that a pair emits a bit
    sigma = math.sqrt((n_in // 2) * q * (1.0 - q)) / n_in
    _require(abs(rate - report["rate_exact"]) <= VN_SIGMAS * sigma,
             f"von neumann rate {rate:.6f} vs exact {report['rate_exact']:.6f} "
             f"(> {VN_SIGMAS:g} sigma = {VN_SIGMAS * sigma:.2e})")


def _check_ts(job, d: Path) -> None:
    report = json.loads((d / "rate_report.json").read_text())
    out = read_bits(d / job.params["out"])
    expected = report["k"] * (report["input_bits"] // report["n"])
    _require(out.size == expected == report["output_bits"],
             f"typical-set output {out.size} bits, expected k*floor(len/n) = {expected}")


def _check_test(job, d: Path) -> None:
    results = json.loads((d / "results.json").read_text())
    _require(len(results) == 4 and all(0.0 <= r["p_value"] <= 1.0 for r in results),
             "battery results malformed")


def _check_montecarlo(job, d: Path) -> None:
    hist = json.loads((d / "histogram.json").read_text())
    done = hist["trials"] - hist["failures"]
    _require(hist["trials"] == job.params["trials"], f"{hist['trials']} trials run")
    _require(sum(hist["counts"]) == done,
             f"histogram counts sum to {sum(hist['counts'])}, {done} trials completed")


CHECKS = {"analyze": _check_analyze, "generate": _check_generate,
          "postprocess-vn": _check_vn, "postprocess-ts": _check_ts,
          "test": _check_test, "montecarlo": _check_montecarlo}


def check(job, d: Path) -> None:
    CHECKS[job.command](job, d)


# ---------------------------------------------------------------------------
# corruptions for the self-test

def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _corrupt_table(job, d: Path) -> None:
    path = d / "sequence_table.csv"
    lines = path.read_text().splitlines()
    word, count, prob = lines[-1].split(",")
    lines[-1] = f"{word},{count},{float(prob) + 1e-6:.12g}"
    path.write_text("\n".join(lines) + "\n")


def _corrupt_stream(job, d: Path) -> None:
    bits = read_bits(d / "stream.bin")
    bits[GEN_PREFIX // 2] ^= 1
    write_bits(d / "stream.bin", bits)


def _truncate_output(job, d: Path) -> None:
    path = d / job.params["out"]
    bits = read_bits(path)
    bits = bits[:bits.size * 9 // 10]
    write_bits(path, bits)

    def edit(r):
        r["output_bits"] = int(bits.size)
        r["rate"] = bits.size / r["input_bits"]
    _edit_json(d / "rate_report.json", edit)


def _corrupt_p_value(job, d: Path) -> None:
    _edit_json(d / "results.json", lambda r: r[0].update(p_value=1.5))


def _corrupt_histogram(job, d: Path) -> None:
    _edit_json(d / "histogram.json", lambda h: h["counts"].__setitem__(0, h["counts"][0] + 1))


CORRUPTIONS = {"analyze": _corrupt_table, "generate": _corrupt_stream,
               "postprocess-vn": _truncate_output, "postprocess-ts": _truncate_output,
               "test": _corrupt_p_value, "montecarlo": _corrupt_histogram}


def corrupt(job, d: Path) -> None:
    CORRUPTIONS[job.command](job, d)
