"""File formats.

Datasets are plain text: a header line ``improperdim v1 m=<m> M=<M>``
followed by one line per snapshot with re/im interleaved per channel at
17 significant digits, which round-trips IEEE doubles exactly. Scenario
configs are line-oriented ``key = value`` text with ``#`` comments and
comma-separated lists.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .simulate import NoiseSpec, ScenarioConfig, SourceSpec
from .stats import as_data_matrix

__all__ = [
    "FormatError",
    "format_scenario_config",
    "load_dataset",
    "load_scenario_config",
    "parse_scenario_config",
    "write_dataset",
]


class FormatError(ValueError):
    """Malformed dataset, config, or plan file."""


# counts of up to 18 digits, so int() never meets its digit limit
_HEADER_RE = re.compile(r"^improperdim v1 m=(\d{1,18}) M=(\d{1,18})$")

# keys shared between scenario configs and experiment plans: sources, then noise
_SCENARIO_KEYS = frozenset(
    {"m", "seed", "angles_deg", "source_variances", "source_circularities"}
    | {"noise_kind", "noise_variance", "ar_coefficients"}
)


def write_dataset(path, samples) -> None:
    """Write a data matrix to ``path`` in the dataset text format: one ``np.savetxt``
    of its snapshot-major float view, for a loaded matrix its parse buffer uncopied."""
    data = as_data_matrix(samples)
    channels, count = data.shape
    rows = np.ascontiguousarray(data.T).view(np.float64)
    header = f"improperdim v1 m={channels} M={count}"
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        np.savetxt(handle, rows, fmt="%.17g", header=header, comments="")


def load_dataset(path) -> np.ndarray:
    """Load a dataset file back into a channels-by-snapshots complex matrix, the
    uncopied transposed view of the (M, 2m) buffer ``np.loadtxt`` parses the
    lines after the ``readline`` header into. A line ends at \\n, \\r\\n or
    \\r; the line loop re-reads a file the one pass refuses."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            match = _HEADER_RE.match(handle.readline().strip())
            # from the first non-blank line on, so loadtxt never meets an empty input
            first = next((line for line in handle if line.strip()), None)
            if match is not None and first is not None:
                lines = itertools.chain([first], handle)
                values = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
                shape = (int(match.group(2)), 2 * int(match.group(1)))
                if values.shape == shape and np.isfinite(values).all():
                    # re/im pairs are complex128's layout; adding 1j * im would turn -0.0 into +0.0
                    return values.view(np.complex128).T
    except ValueError:  # UnicodeDecodeError too: the line loop names it
        pass
    return _parse_snapshot_lines(path)


def _parse_snapshot_lines(path) -> np.ndarray:
    """Every check in order, one line at a time: the FormatError naming what
    is wrong, or the matrix in the same layout when a token only float() reads
    (1_0) refused the one pass. Text mode turns \\r\\n and \\r into \\n."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            lines = handle.read().split("\n")
    except UnicodeDecodeError:
        raise FormatError("dataset file is not ASCII text") from None
    if lines == [""]:
        raise FormatError("empty dataset file")
    match = _HEADER_RE.match(lines[0].strip())
    if match is None:
        raise FormatError("bad dataset header (expected 'improperdim v1 m=<m> M=<M>')")
    channels, count = int(match.group(1)), int(match.group(2))
    if channels < 1 or count < 1:
        raise FormatError("dataset header declares an empty matrix")
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != count:
        raise FormatError(f"expected {count} snapshot lines, found {len(body)}")
    # 2m fields take at least 4m - 1 characters, so a header asking for more
    # than the lines can hold fails before the matrix is allocated
    if sum(map(len, body)) < (4 * channels - 1) * count:
        raise FormatError(f"snapshot lines are too short for {2 * channels} fields each")
    values = np.empty((count, 2 * channels))
    for row, line in enumerate(body):
        fields = line.split()
        if len(fields) != 2 * channels:
            raise FormatError(
                f"snapshot line {row + 1}: expected {2 * channels} fields, found {len(fields)}"
            )
        try:
            values[row] = [float(token) for token in fields]
        except ValueError:
            raise FormatError(f"snapshot line {row + 1}: non-numeric field") from None
        if not np.isfinite(values[row]).all():
            raise FormatError(f"snapshot line {row + 1}: non-finite value")
    return values.view(np.complex128).T


def parse_key_values(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks are skipped."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise FormatError(f"line {lineno}: expected 'key = value'")
        if key in entries:
            raise FormatError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = value.strip()
    return entries


def require_key(entries: dict[str, str], key: str) -> str:
    if key not in entries:
        raise FormatError(f"missing required key '{key}'")
    return entries[key]


def parse_number(key: str, text: str, kind: type) -> int | float:
    """``text`` as ``kind`` (int or float); FormatError naming ``key`` otherwise."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise FormatError(f"key '{key}': expected {expected}, got '{text}'") from None


def parse_numbers(key: str, text: str, kind: type) -> tuple:
    """Comma-separated ``kind`` values, () for a blank ``text``; an empty token is refused."""
    if not text.strip():
        return ()
    try:
        return tuple(kind(token.strip()) for token in text.split(","))
    except ValueError:
        expected = f"comma-separated {'integers' if kind is int else 'numbers'}"
        raise FormatError(f"key '{key}': expected {expected}, got '{text}'") from None


def parse_name_list(key: str, text: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


def scenario_config(entries: dict[str, str], other_keys, snapshot_count: int) -> ScenarioConfig:
    """The ScenarioConfig of a config's or plan's entries, with ``snapshot_count``.
    Raises FormatError for a missing or invalid value, or for a key that is
    not a scenario key, the seed, or one of ``other_keys``."""
    unknown = set(entries) - _SCENARIO_KEYS - set(other_keys)
    if unknown:
        raise FormatError(f"unknown key(s): {', '.join(sorted(unknown))}")
    sensor_count = parse_number("m", require_key(entries, "m"), int)
    angles = parse_numbers("angles_deg", entries.get("angles_deg", ""), float)
    variances = parse_numbers("source_variances", entries.get("source_variances", ""), float)
    circularities = parse_numbers(
        "source_circularities", entries.get("source_circularities", ""), float
    )
    if len(variances) != len(angles) or len(circularities) != len(angles):
        raise FormatError(
            "angles_deg, source_variances and source_circularities must have equal lengths"
        )
    kind = require_key(entries, "noise_kind")
    variance = parse_number("noise_variance", require_key(entries, "noise_variance"), float)
    ar_coefficients = parse_numbers("ar_coefficients", entries.get("ar_coefficients", ""), float)
    seed = parse_number("seed", require_key(entries, "seed"), int)
    try:
        noise = NoiseSpec(kind=kind, variance=variance, ar_coefficients=ar_coefficients)
        sources = tuple(SourceSpec(v, c) for v, c in zip(variances, circularities))
        return ScenarioConfig(sensor_count, angles, sources, noise, snapshot_count, seed)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Parse scenario config text into a ScenarioConfig."""
    entries = parse_key_values(text)
    return scenario_config(entries, {"M"}, parse_number("M", require_key(entries, "M"), int))


def format_scenario_fields(config: ScenarioConfig) -> list[str]:
    """Canonical key = value lines for the scenario part of a config/plan."""
    lines = [
        f"m = {config.sensor_count}",
        f"angles_deg = {_format_floats(config.angles_deg)}",
        f"source_variances = {_format_floats(s.variance for s in config.sources)}",
        f"source_circularities = {_format_floats(s.circularity for s in config.sources)}",
        f"noise_kind = {config.noise.kind}",
        f"noise_variance = {config.noise.variance!r}",
    ]
    if config.noise.ar_coefficients:
        lines.append(f"ar_coefficients = {_format_floats(config.noise.ar_coefficients)}")
    return lines


def format_scenario_config(config: ScenarioConfig) -> str:
    """Serialize a ScenarioConfig; parse_scenario_config round-trips it."""
    lines = format_scenario_fields(config)
    lines.append(f"M = {config.snapshot_count}")
    lines.append(f"seed = {config.seed}")
    return "\n".join(lines) + "\n"


def load_scenario_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_config(handle.read())


def _format_floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)
