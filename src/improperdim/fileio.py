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
    """Write a data matrix to ``path`` in the dataset text format."""
    data = as_data_matrix(samples)
    channels, count = data.shape
    interleaved = np.empty((count, 2 * channels))
    interleaved[:, 0::2] = data.real.T
    interleaved[:, 1::2] = data.imag.T
    # %-formatting shares format()'s float repr, so whole rows format as one
    template = " ".join(["%.17g"] * (2 * channels)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(f"improperdim v1 m={channels} M={count}\n")
        for row in interleaved:
            handle.write(template % tuple(row))


def load_dataset(path) -> np.ndarray:
    """Load a dataset file back into a channels-by-snapshots complex matrix.
    A line ends at \\n, \\r\\n or \\r. The header is read by ``readline`` and
    the rest of the open file by one ``np.loadtxt``, so only numpy's parse
    buffer and the matrix are held; the line loop re-reads a file it refuses."""
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
                    return values.view(np.complex128).T.copy()
    except ValueError:  # UnicodeDecodeError too: the line loop names it
        pass
    return _parse_snapshot_lines(path)


def _parse_snapshot_lines(path) -> np.ndarray:
    """Every check in order, one line at a time: the FormatError naming what
    is wrong, or the matrix when a token only float() reads (1_0) refused
    the one pass. Text mode turns \\r\\n and \\r into \\n, the one line rule."""
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
    data = np.empty((channels, count), dtype=np.complex128)
    for column, line in enumerate(body):
        fields = line.split()
        if len(fields) != 2 * channels:
            raise FormatError(
                f"snapshot line {column + 1}: expected {2 * channels} fields, "
                f"found {len(fields)}"
            )
        try:
            values = np.array([float(token) for token in fields])
        except ValueError:
            raise FormatError(f"snapshot line {column + 1}: non-numeric field") from None
        if not np.all(np.isfinite(values)):
            raise FormatError(f"snapshot line {column + 1}: non-finite value")
        data[:, column] = values.view(np.complex128)
    return data


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


def parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"key '{key}': expected an integer, got '{text}'") from None


def parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"key '{key}': expected a number, got '{text}'") from None


def parse_float_list(key: str, text: str) -> tuple[float, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(float(token.strip()) for token in text.split(","))
    except ValueError:
        raise FormatError(f"key '{key}': expected comma-separated numbers, got '{text}'") from None


def parse_int_list(key: str, text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(token.strip()) for token in text.split(","))
    except ValueError:
        raise FormatError(f"key '{key}': expected comma-separated integers, got '{text}'") from None


def parse_name_list(key: str, text: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


def scenario_config(entries: dict[str, str], other_keys, snapshot_count: int) -> ScenarioConfig:
    """The ScenarioConfig of a config's or plan's entries, with ``snapshot_count``.
    Raises FormatError for a missing or invalid value, or for a key that is
    not a scenario key, the seed, or one of ``other_keys``."""
    unknown = set(entries) - _SCENARIO_KEYS - set(other_keys)
    if unknown:
        raise FormatError(f"unknown key(s): {', '.join(sorted(unknown))}")
    sensor_count = parse_int("m", require_key(entries, "m"))
    angles = parse_float_list("angles_deg", entries.get("angles_deg", ""))
    variances = parse_float_list("source_variances", entries.get("source_variances", ""))
    circularities = parse_float_list(
        "source_circularities", entries.get("source_circularities", "")
    )
    if len(variances) != len(angles) or len(circularities) != len(angles):
        raise FormatError(
            "angles_deg, source_variances and source_circularities must have equal lengths"
        )
    kind = require_key(entries, "noise_kind")
    variance = parse_float("noise_variance", require_key(entries, "noise_variance"))
    ar_coefficients = parse_float_list("ar_coefficients", entries.get("ar_coefficients", ""))
    seed = parse_int("seed", require_key(entries, "seed"))
    try:
        noise = NoiseSpec(kind=kind, variance=variance, ar_coefficients=ar_coefficients)
        sources = tuple(SourceSpec(v, c) for v, c in zip(variances, circularities))
        return ScenarioConfig(sensor_count, angles, sources, noise, snapshot_count, seed)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def parse_scenario_config(text: str) -> ScenarioConfig:
    """Parse scenario config text into a ScenarioConfig."""
    entries = parse_key_values(text)
    return scenario_config(entries, {"M"}, parse_int("M", require_key(entries, "M")))


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
