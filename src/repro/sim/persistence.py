"""Saving and loading simulation results — crash-safely.

Long paper-scale sweeps are expensive; this module persists
:class:`~repro.sim.results.RunMetrics`,
:class:`~repro.experiments.registry.ExperimentResult`, and mid-run
checkpoints so work survives crashes and can be analysed many times.
Formats:

* **JSON** — self-describing, for experiment results (small series);
* **NPZ** — uncompressed (``ZIP_STORED``) ``.npy`` members followed by
  a SHA-256 footer, for per-round run metrics (arrays of up to
  ``2*10^5`` entries) and every checkpoint: engine, runtime and
  replication sweep alike, so one loader, one checksum and one
  rollback walk (:func:`recover_checkpoint`) serve all three.  Members
  are stored, not deflated: a checkpoint write then costs about what
  its bytes cost, where zlib spent most of the write on counts and
  sums that change every round.  ``np.load`` reads stored and deflated
  members alike, so files written compressed by earlier versions still
  load.

Every write is **atomic**: content goes to a temp file in the target
directory which is then :func:`os.replace`-d over the destination, so a
crash mid-write never leaves a half-written file where a reader expects
a complete one.  Atomic writes are also **concurrency-safe**: each
write stages through its own :func:`tempfile.mkstemp` name, so many
processes (the parallel runtime's workers and coordinator) can write
checkpoints into one directory — or even race on the same destination
path — and every reader still sees some complete file.  Every file
carries a ``schema_version`` field, and all read paths convert
truncation / garbage / missing-field / malformed-field failures into
:class:`~repro.exceptions.PersistenceError` instead of leaking raw
``ValueError``/``TypeError``/``KeyError``.

Every save/load entry point is wrapped with the observability layer's
:func:`~repro.obs.timed` decorator: pass ``metrics=<MetricsRegistry>``
and the call's duration lands in the ``persistence.*`` histogram
timers; omit it and the call is untouched.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import zipfile
from collections.abc import Callable, Iterable, Mapping
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.exceptions import PersistenceError
from repro.obs.metrics import MetricsRegistry, timed
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.results import SERIES_FIELDS, RunMetrics

if TYPE_CHECKING:  # runtime import would cycle: experiments imports sim
    from repro.experiments.registry import ExperimentResult

__all__ = [
    "RUN_SCHEMA_VERSION",
    "EXPERIMENT_SCHEMA_VERSION",
    "CHECKPOINT_SCHEMA_VERSION",
    "normalize_json_value",
    "denormalize_json_value",
    "atomic_write_bytes",
    "atomic_write_json",
    "read_field",
    "save_run_metrics",
    "load_run_metrics",
    "experiment_result_to_dict",
    "experiment_result_from_dict",
    "save_experiment_result",
    "load_experiment_result",
    "save_checkpoint",
    "load_checkpoint",
    "generation_paths",
    "quarantine_file",
    "recover_checkpoint",
]

#: Schema version written into every run-metrics NPZ.  Files without the
#: field are accepted as version-1 legacy output.
RUN_SCHEMA_VERSION = 1

#: Schema version written into every experiment-result JSON.
EXPERIMENT_SCHEMA_VERSION = 1

#: Schema version of checkpoints (no legacy grace: checkpoints only
#: ever existed with the field).
CHECKPOINT_SCHEMA_VERSION = 1

#: Prefix of the temp files backing atomic writes; a crash between
#: "temp written" and "replace" leaves one of these behind, which is
#: harmless (never loaded, overwritten-safe) and recognisable.
_TMP_PREFIX = ".tmp-"

#: Magic bytes opening the checksum footer appended to every NPZ this
#: library writes.  ZIP readers locate the archive from its
#: end-of-central-directory record by scanning backwards, so a short
#: trailing footer is invisible to them — but it lets our loader prove
#: the payload is exactly what was written (atomicity guarantees a
#: *complete* file, not an *unmodified* one: bit rot and hostile chaos
#: programs corrupt in place).  Footer layout: 8 magic bytes followed
#: by the 32-byte SHA-256 of everything before the footer.
_CHECKSUM_MAGIC = b"RPRSHA2\n"

_CHECKSUM_FOOTER_LEN = len(_CHECKSUM_MAGIC) + hashlib.sha256().digest_size

#: Suffix of the directory corrupt artefacts are moved into by
#: :func:`quarantine_file`: ``<path>.quarantine/`` next to the file.
QUARANTINE_SUFFIX = ".quarantine"


# -- canonical JSON normalization ------------------------------------------------

#: Spellings used for non-finite floats in every JSON artefact this
#: library writes.  They match both what the stdlib ``json`` module
#: itself reads back and the spellings the trace serializer emits, so
#: persisted results, checkpoints, goldens, and traces all agree.
_NONFINITE_TOKENS = {"NaN": math.nan, "Infinity": math.inf,
                     "-Infinity": -math.inf}


def normalize_json_value(value: Any) -> Any:
    """One value in the library's canonical JSON form.

    The single normalization rule shared by every JSON writer
    (experiment results, the verification golden store), so
    no two serializers can diverge on float formatting or NaN/inf
    handling:

    * numpy scalars become plain Python scalars, numpy arrays become
      (nested) lists;
    * non-finite floats become the sentinel strings ``"NaN"`` /
      ``"Infinity"`` / ``"-Infinity"`` (strict JSON has no spelling for
      them; :func:`denormalize_json_value` restores the floats);
    * finite floats stay Python floats — ``json`` serialises those with
      ``repr``, the shortest exact round-trip form;
    * dict keys are coerced to ``str``; tuples become lists.
    """
    kind = type(value)
    if kind is float:
        return value if math.isfinite(value) else _nonfinite_token(value)
    if kind in (int, str, bool, type(None)):
        return value
    if isinstance(value, dict):
        return {str(key): normalize_json_value(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize_json_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return normalize_json_value(value.tolist())
    if isinstance(value, np.generic):
        return normalize_json_value(value.item())
    if isinstance(value, float):  # float subclass
        value = float(value)
        return value if math.isfinite(value) else _nonfinite_token(value)
    return value


def _nonfinite_token(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def denormalize_json_value(value: Any) -> Any:
    """Invert :func:`normalize_json_value` on a loaded JSON payload.

    Restores the non-finite sentinel strings to their float values.  Any
    other value (including ordinary strings) passes through unchanged,
    so applying this to a payload that never contained non-finite floats
    is the identity.
    """
    if type(value) is str:
        return _NONFINITE_TOKENS.get(value, value)
    if isinstance(value, dict):
        return {key: denormalize_json_value(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [denormalize_json_value(item) for item in value]
    return value


# -- atomic write primitives -----------------------------------------------------


def atomic_write_bytes(path: str | os.PathLike, payload: bytes) -> None:
    """Atomically replace ``path`` with ``payload``.

    The bytes are written to a temp file in the destination directory,
    fsynced, then :func:`os.replace`-d into place — a crash at any point
    leaves either the old complete file or the new complete file, never
    a truncated hybrid.
    """
    _atomic_write(path, (payload,))


def _atomic_write(path: str | os.PathLike, chunks: Iterable[Any]) -> None:
    """:func:`atomic_write_bytes` of the concatenated bytes-like ``chunks``."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    descriptor, temp_path = tempfile.mkstemp(
        prefix=_TMP_PREFIX, suffix=os.path.basename(path), dir=directory
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)
        raise


def atomic_write_json(path: str | os.PathLike, payload: dict) -> None:
    """Atomically write a dict as pretty-printed JSON.

    The payload is passed through :func:`normalize_json_value` first, so
    numpy values serialise as plain scalars/lists and non-finite floats
    take their canonical sentinel spellings; ``allow_nan=False`` then
    guarantees the file is *strict* JSON that any parser can read.
    """
    normalized = normalize_json_value(payload)
    encoded = json.dumps(normalized, indent=2,
                         allow_nan=False).encode("utf-8") + b"\n"
    atomic_write_bytes(path, encoded)


def _atomic_write_npz(path: str | os.PathLike,
                      arrays: dict[str, np.ndarray]) -> None:
    """Atomically write ``arrays`` as stored NPZ members + checksum footer.

    The archive is built in memory, hashed in place, and written as two
    chunks (payload, then footer) without ever copying the payload.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    with buffer.getbuffer() as payload:
        footer = _CHECKSUM_MAGIC + hashlib.sha256(payload).digest()
        _atomic_write(path, (payload, footer))


# -- guarded readers -------------------------------------------------------------


def _load_npz(path: str | os.PathLike, what: str) -> np.lib.npyio.NpzFile:
    """Open an NPZ, translating corruption into :class:`PersistenceError`.

    Files written by this library carry a trailing SHA-256 footer (see
    :data:`_CHECKSUM_MAGIC`), which is verified and stripped here; a
    digest mismatch means in-place corruption and raises.  Footer-less
    files (legacy output, NPZs from other tools) load unchanged.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise
    except OSError as error:
        raise PersistenceError(
            f"{what} {os.fspath(path)!s} is corrupt or unreadable: {error}",
            path=os.fspath(path),
        ) from error
    if (len(raw) >= _CHECKSUM_FOOTER_LEN
            and raw[-_CHECKSUM_FOOTER_LEN:].startswith(_CHECKSUM_MAGIC)):
        payload = raw[:-_CHECKSUM_FOOTER_LEN]
        recorded = raw[len(payload) + len(_CHECKSUM_MAGIC):]
        if hashlib.sha256(payload).digest() != recorded:
            raise PersistenceError(
                f"{what} {os.fspath(path)!s} failed its checksum — the "
                "file was modified or corrupted after it was written",
                path=os.fspath(path),
            )
        raw = payload
    try:
        return np.load(io.BytesIO(raw), allow_pickle=False)
    except (ValueError, OSError, zipfile.BadZipFile, EOFError) as error:
        raise PersistenceError(
            f"{what} {os.fspath(path)!s} is corrupt or unreadable: {error}",
            path=os.fspath(path),
        ) from error


def _load_json(path: str | os.PathLike, what: str) -> dict:
    """Read a JSON dict, translating corruption into :class:`PersistenceError`."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as error:
        raise PersistenceError(
            f"{what} {os.fspath(path)!s} is corrupt or unreadable: {error}",
            path=os.fspath(path),
        ) from error
    if not isinstance(payload, dict):
        raise PersistenceError(
            f"{what} {os.fspath(path)!s} does not hold a JSON object",
            path=os.fspath(path),
        )
    return payload


def read_field(record: Mapping[str, Any], key: str,
               convert: Callable[[Any], Any], path: str | os.PathLike,
               what: str = "checkpoint") -> Any:
    """``convert(record[key])`` for one field of a loaded artefact.

    A missing key, or a value ``convert`` rejects (``"v1"`` or ``None``
    where an integer belongs), raises
    :class:`PersistenceError` naming the field and the file — so
    malformed metadata fails like any other corruption, and the
    quarantine-and-roll-back path can act on it.
    """
    try:
        value = record[key]
    except KeyError as error:
        raise PersistenceError(
            f"{what} {os.fspath(path)!s} is missing field {key!r}",
            path=os.fspath(path),
        ) from error
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise PersistenceError(
            f"{what} {os.fspath(path)!s} has a malformed {key!r}: "
            f"{value!r}",
            path=os.fspath(path),
        ) from error


def _check_schema_version(record: Mapping[str, Any], expected: int,
                          path: str | os.PathLike, what: str) -> None:
    found = read_field(record, "schema_version", int, path, what)
    if found != expected:
        raise PersistenceError(
            f"{what} {os.fspath(path)!s} has schema version {found}, "
            f"but this library reads version {expected}",
            path=os.fspath(path), schema_found=found,
            schema_expected=expected,
        )


# -- run metrics (NPZ) -----------------------------------------------------------


@timed("persistence.save_run_metrics")
def save_run_metrics(run: RunMetrics, path: str | os.PathLike) -> None:
    """Persist one run's per-round series as an ``.npz`` of stored members.

    The write is atomic and stamps :data:`RUN_SCHEMA_VERSION`.
    """
    arrays = {name: getattr(run, name) for name in SERIES_FIELDS}
    _atomic_write_npz(path, {
        "schema_version": np.array(RUN_SCHEMA_VERSION, dtype=np.int64),
        "policy_name": np.array(run.policy_name),
        **arrays,
    })


@timed("persistence.load_run_metrics")
def load_run_metrics(path: str | os.PathLike) -> RunMetrics:
    """Load a run previously saved by :func:`save_run_metrics`.

    Raises
    ------
    PersistenceError
        If the file is corrupt, carries an unsupported schema version,
        or lacks any expected series (the error names the missing
        fields).
    """
    with _load_npz(path, "run file") as data:
        if "schema_version" in data:
            _check_schema_version(data, RUN_SCHEMA_VERSION, path,
                                  "run file")
        missing = [
            name for name in SERIES_FIELDS + ("policy_name",)
            if name not in data
        ]
        if missing:
            raise PersistenceError(
                f"run file {path!s} is missing series: {missing}",
                path=os.fspath(path),
            )
        return RunMetrics(
            policy_name=str(data["policy_name"]),
            **{name: data[name] for name in SERIES_FIELDS},
        )


# -- experiment results (JSON) ---------------------------------------------------


def experiment_result_to_dict(result: "ExperimentResult") -> dict:
    """A JSON-serialisable dict of an experiment result."""
    return {
        "schema_version": EXPERIMENT_SCHEMA_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "x_label": result.x_label,
        "notes": list(result.notes),
        "panels": {
            panel: [
                {
                    "label": series.label,
                    "x": series.x.tolist(),
                    "y": series.y.tolist(),
                }
                for series in series_list
            ]
            for panel, series_list in result.panels.items()
        },
    }


def save_experiment_result(result: "ExperimentResult",
                           path: str | os.PathLike) -> None:
    """Persist an experiment result as pretty-printed JSON (atomically)."""
    atomic_write_json(path, experiment_result_to_dict(result))


def experiment_result_from_dict(payload: dict,
                                what: str = "experiment payload",
                                ) -> "ExperimentResult":
    """Rebuild an :class:`~repro.experiments.registry.ExperimentResult`.

    The inverse of :func:`experiment_result_to_dict` — also the bridge
    the parallel runtime uses to ship experiment results across process
    boundaries as plain JSON-serialisable dicts.

    Raises
    ------
    PersistenceError
        If the payload has an unsupported schema version or lacks the
        expected structure (the error names the missing key).
    """
    from repro.experiments.registry import ExperimentResult, Series

    if "schema_version" in payload:
        found = int(payload["schema_version"])
        if found != EXPERIMENT_SCHEMA_VERSION:
            raise PersistenceError(
                f"{what} has schema version {found}, but this library "
                f"reads version {EXPERIMENT_SCHEMA_VERSION}"
            )
    for key in ("experiment_id", "title", "x_label", "panels"):
        if key not in payload:
            raise PersistenceError(
                f"{what} is missing key {key!r}"
            )
    result = ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        x_label=payload["x_label"],
        notes=list(payload.get("notes", [])),
    )
    try:
        for panel, series_list in payload["panels"].items():
            for series in series_list:
                result.add_series(
                    panel,
                    Series(
                        label=series["label"],
                        x=np.asarray(series["x"], dtype=float),
                        y=np.asarray(series["y"], dtype=float),
                    ),
                )
    except (KeyError, TypeError, ValueError) as error:
        raise PersistenceError(
            f"{what} has a malformed panel series: {error}"
        ) from error
    return result


def load_experiment_result(path: str | os.PathLike) -> "ExperimentResult":
    """Load an experiment result saved by :func:`save_experiment_result`.

    Returns a :class:`~repro.experiments.registry.ExperimentResult`.

    Raises
    ------
    PersistenceError
        If the JSON is corrupt, has an unsupported schema version, or
        lacks the expected structure (the error names the missing key).
    """
    payload = _load_json(path, "experiment file")
    return experiment_result_from_dict(
        payload, what=f"experiment file {os.fspath(path)!s}"
    )


# -- checkpoints -----------------------------------------------------------------


def _generation_path(path: str, generation: int) -> str:
    """Where generation ``k`` of checkpoint ``path`` lives (``k >= 1``)."""
    return f"{path}.gen-{generation}"


def generation_paths(path: str | os.PathLike) -> list[str]:
    """``path`` and every ``.gen-k`` sibling on disk, newest first.

    ``path`` itself is listed even when it is missing: a crash between
    rotation and write leaves only the older generations.  The siblings
    are listed in ascending ``k`` whatever gaps lie between them: a
    crash between two rotation steps, or an earlier quarantine, can
    leave ``.gen-1`` missing while ``.gen-2`` is a valid rollback target.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    prefix = os.path.basename(path) + ".gen-"
    names = os.listdir(directory) if os.path.isdir(directory) else []
    generations = sorted(
        int(name[len(prefix):]) for name in names
        if name.startswith(prefix) and name[len(prefix):].isdecimal()
    )
    return [path] + [_generation_path(path, k) for k in generations]


def _rotate_generations(path: str | os.PathLike, keep: int) -> None:
    """Shift ``path`` and its ``.gen-k`` siblings one generation older.

    After rotation the destination ``path`` is free for a fresh write,
    the previous file survives as ``.gen-1``, and anything older than
    ``keep - 1`` prior generations has been dropped.  Each shift is a
    single :func:`os.replace`, so a crash mid-rotation loses at most
    ordering depth, never the newest checkpoint.
    """
    path = os.fspath(path)
    if keep <= 1 or not os.path.exists(path):
        return
    oldest = _generation_path(path, keep - 1)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(oldest)
    for generation in range(keep - 2, 0, -1):
        source = _generation_path(path, generation)
        if os.path.exists(source):
            os.replace(source, _generation_path(path, generation + 1))
    os.replace(path, _generation_path(path, 1))


@timed("persistence.save_checkpoint")
def save_checkpoint(path: str | os.PathLike, meta: dict,
                    arrays: dict[str, np.ndarray], *,
                    keep_generations: int = 1) -> None:
    """Atomically persist an engine checkpoint (metadata + arrays).

    ``meta`` must be JSON-serialisable; it is stamped with
    :data:`CHECKPOINT_SCHEMA_VERSION` and stored alongside the arrays in
    one NPZ, so a checkpoint is a single crash-safe file.

    With ``keep_generations > 1`` the previous checkpoint is rotated to
    ``<path>.gen-1`` (and older generations shifted down, keeping at
    most ``keep_generations`` files) before the new one lands — the
    rollback targets :func:`recover_checkpoint` falls back to when the
    newest file turns out corrupt.
    """
    if "schema_version" in arrays or "checkpoint_meta" in arrays:
        raise PersistenceError(
            "'schema_version' and 'checkpoint_meta' are reserved "
            "checkpoint field names"
        )
    stamped = dict(meta)
    stamped["schema_version"] = CHECKPOINT_SCHEMA_VERSION
    _rotate_generations(path, keep_generations)
    _atomic_write_npz(path, {
        "checkpoint_meta": np.array(json.dumps(stamped)),
        **arrays,
    })


@timed("persistence.load_checkpoint")
def load_checkpoint(path: str | os.PathLike) -> tuple[dict, dict[str, np.ndarray]]:
    """Load a checkpoint saved by :func:`save_checkpoint`.

    Returns ``(meta, arrays)`` with the schema-version stamp already
    validated and removed from ``meta``.

    Raises
    ------
    PersistenceError
        If the file is corrupt, not a checkpoint, or carries a
        malformed or unsupported schema version.
    """
    with _load_npz(path, "checkpoint") as data:
        if "checkpoint_meta" not in data:
            raise PersistenceError(
                f"checkpoint {os.fspath(path)!s} has no metadata record "
                "(not a checkpoint file?)",
                path=os.fspath(path),
            )
        try:
            meta = json.loads(str(data["checkpoint_meta"]))
        except json.JSONDecodeError as error:
            raise PersistenceError(
                f"checkpoint {os.fspath(path)!s} has corrupt metadata: "
                f"{error}",
                path=os.fspath(path),
            ) from error
        if not isinstance(meta, dict) or "schema_version" not in meta:
            raise PersistenceError(
                f"checkpoint {os.fspath(path)!s} metadata lacks a "
                "schema_version",
                path=os.fspath(path),
            )
        _check_schema_version(meta, CHECKPOINT_SCHEMA_VERSION, path,
                              "checkpoint")
        meta.pop("schema_version")
        arrays = {
            name: data[name] for name in data.files
            if name != "checkpoint_meta"
        }
    return meta, arrays


# -- quarantine & rollback -------------------------------------------------------


def quarantine_file(path: str | os.PathLike) -> str:
    """Move a corrupt artefact into its ``*.quarantine/`` directory.

    The file is preserved for post-mortem under
    ``<path>.quarantine/<basename>`` (a numeric suffix disambiguates
    repeat offenders), clearing the original path so recovery can
    rewrite it.  Returns the quarantine destination.
    """
    path = os.fspath(path)
    quarantine_dir = path + QUARANTINE_SUFFIX
    os.makedirs(quarantine_dir, exist_ok=True)
    base = os.path.basename(path)
    destination = os.path.join(quarantine_dir, base)
    suffix = 0
    while os.path.exists(destination):
        suffix += 1
        destination = os.path.join(quarantine_dir, f"{base}.{suffix}")
    os.replace(path, destination)
    return destination


def recover_checkpoint(
    path: str | os.PathLike,
    *,
    load: Callable[[str], tuple] = load_checkpoint,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple | None:
    """Load the newest valid generation of a checkpoint.

    The resilient counterpart of :func:`load_checkpoint`, and the one
    rollback walk for engine, runtime and sweep checkpoints: it walks
    :func:`generation_paths` newest first, and ``load(candidate)``
    judges each generation.  A driver that also decodes the file passes
    its own ``load``, so a checkpoint that loads but does not decode is
    rolled back past too.  A candidate whose ``load`` raises
    :class:`PersistenceError` is quarantined (with a
    ``checkpoint_quarantined`` trace event and a
    ``resilience.checkpoints_quarantined`` count) and the walk falls
    back to the next-older generation.  Returns ``load``'s tuple
    followed by ``actual_path`` — by default ``(meta, arrays,
    actual_path)``, where ``actual_path`` names the generation that
    satisfied the load — or ``None`` when no valid generation exists
    (resume from scratch).

    (Timed by hand rather than with :func:`~repro.obs.timed`: the
    decorator consumes the ``metrics`` keyword, and this function needs
    the registry itself for the quarantine counter.)
    """
    tr = tracer if tracer is not None else NULL_TRACER
    timer = (metrics.time("persistence.recover_checkpoint")
             if metrics is not None else contextlib.nullcontext())
    with timer:
        for candidate in generation_paths(path):
            try:
                loaded = load(candidate)
            except FileNotFoundError:
                continue
            except PersistenceError as error:
                quarantined_to = quarantine_file(candidate)
                if metrics is not None:
                    metrics.counter(
                        "resilience.checkpoints_quarantined").inc()
                if tr.enabled:
                    tr.emit("checkpoint_quarantined", path=candidate,
                            quarantined_to=quarantined_to,
                            what="checkpoint",
                            error=f"{type(error).__name__}: {error}")
                continue
            return (*loaded, candidate)
    return None
