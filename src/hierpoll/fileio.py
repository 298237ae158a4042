"""File formats: matrices (CSV/JSON), channels, model configs, and
deterministic tabular output.

CSV bodies are byte-stable across runs: floats are written with shortest
round-trip repr and metadata lives in '#'-prefixed header comments (config
hash, seed, library version -- never timestamps).
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from . import __version__
from .channels import (
    Channel,
    HierarchyModel,
    expectation_channel,
    friendship_channel,
    intent_channel,
    make_channel,
)
from .errors import HierPollError, ParseError
from .pomdp import CostSpec, PollingModel
from .stochastic import ConvexPolynomial, validate_stochastic


# ------------------------------------------------------------------- reading
def _is_json(path) -> bool:
    return Path(path).suffix.lower() == ".json"


def _read(path, as_json: bool):
    """The parsed contents of an input file: its JSON value, or its list of
    CSV rows. An unreadable or undecodable file, or malformed JSON or CSV,
    raises ParseError naming the file."""
    # ValueError covers UnicodeDecodeError and JSONDecodeError; RecursionError
    # is JSON nested too deeply to parse
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return json.load(fh) if as_json else list(csv.reader(fh))
    except (OSError, ValueError, RecursionError, csv.Error) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _from_payload(build, payload, path):
    """build(payload), with a missing key or index, or a value of the wrong
    type, form or size, raised as ParseError naming the file; a package error
    keeps its type and attributes and gains the file name in its message."""
    try:
        return build(payload)
    except HierPollError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from None
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


# ----------------------------------------------------------------- matrices
def _matrix_from_rows(rows) -> np.ndarray:
    rows = [r for r in rows if r and not r[0].lstrip().startswith("#")]
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]  # optional header row
    return np.array([[float(x) for x in row] for row in rows])


def _matrix_from_json(data) -> np.ndarray:
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    return np.asarray(data, dtype=float)


def load_matrix(path) -> np.ndarray:
    as_json = _is_json(path)
    return _from_payload(_matrix_from_json if as_json else _matrix_from_rows,
                         _read(path, as_json), path)


def save_matrix(path, matrix) -> None:
    path = Path(path)
    arr = np.asarray(matrix, dtype=float)
    if _is_json(path):
        path.write_text(json.dumps(arr.tolist()))
    else:
        path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                  for row in arr) + "\n")


# ----------------------------------------------------------------- channels
def channel_to_dict(ch: Channel) -> dict:
    return {"inputs": list(ch.input_labels),
            "outputs": list(ch.output_labels),
            "matrix": ch.matrix.entries.tolist()}


def channel_from_dict(payload) -> Channel:
    """A channel from any form a channel file takes: a matrix, bare or labelled, or a recipe."""
    if not isinstance(payload, dict):
        payload = {"matrix": payload}
    kind = payload.get("type", "matrix")
    if kind == "matrix":
        return make_channel(np.asarray(payload["matrix"], dtype=float),
                            payload.get("inputs"), payload.get("outputs"))
    if kind == "intent":
        h = HierarchyModel(validate_stochastic(payload["B"]),
                           payload.get("N", len(payload["beta"]) - 1))
        return intent_channel(h, ConvexPolynomial(payload["beta"]))
    if kind == "expectation":
        h = HierarchyModel(validate_stochastic(payload["B"]),
                           payload.get("N", payload["polled_depth"]))
        return expectation_channel(h, payload["polled_depth"], payload["target_depth"])
    if kind == "friendship":
        return friendship_channel(np.asarray(payload["B_level"], dtype=float),
                                  payload["n_friends"])
    raise ParseError(f"unknown channel recipe type {kind!r}")


def load_channel(path) -> Channel:
    payload = _read(path, as_json=True) if _is_json(path) else load_matrix(path)
    return _from_payload(channel_from_dict, payload, path)


def chain_to_dict(chain) -> dict:
    return {
        "channels": [channel_to_dict(c) for c in chain.channels],
        "garblings": [g.entries.tolist() for g in chain.garblings],
        "deficiencies": list(chain.deficiencies),
    }


# ------------------------------------------------------------- cost / model
def cost_spec_to_dict(costs: CostSpec) -> dict:
    intent = costs.variant == "intent"
    out = {"variant": costs.variant, "measurement": costs.measurement.tolist(),
           ("gamma1" if intent else "error_weights"): costs.weights.tolist()}
    if intent:
        out["gamma2"] = costs.offsets.tolist()
    if costs.ctilde_weight is not None:
        out["ctilde_weight"] = costs.ctilde_weight
    return out


def cost_spec_from_dict(payload: dict) -> CostSpec:
    """Costs as `cost_spec_to_dict` writes them, or an intent spec without
    `measurement` as the recipe `CostSpec.intent` takes."""
    variant, cw = payload["variant"], payload.get("ctilde_weight")
    if variant != "intent":
        return CostSpec(variant, payload["measurement"], payload["error_weights"], ctilde_weight=cw)
    if "measurement" in payload:
        return CostSpec(variant, payload["measurement"], payload["gamma1"], payload["gamma2"], cw)
    return CostSpec.intent(payload["level_costs"], [ConvexPolynomial(b) for b in payload["betas"]],
                           payload["gamma1"], payload["gamma2"], cw)


def model_to_dict(model: PollingModel) -> dict:
    return {
        "P": model.P.entries.tolist(),
        "channels": [channel_to_dict(c) for c in model.channels],
        "costs": cost_spec_to_dict(model.costs),
        "rho": model.rho,
    }


def model_from_dict(payload: dict) -> PollingModel:
    return PollingModel(
        P=validate_stochastic(payload["P"]),
        channels=tuple(channel_from_dict(c) for c in payload["channels"]),
        costs=cost_spec_from_dict(payload["costs"]),
        rho=payload["rho"],
    )


def load_model(path) -> tuple[PollingModel, dict]:
    payload = _read(path, as_json=True)
    return _from_payload(model_from_dict, payload, path), payload


# ------------------------------------------------------------ tabular output
def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def render_table(columns, rows, fmt: str, meta: dict | None = None) -> str:
    """Deterministic CSV (with '#' metadata comments) or JSON rendering."""
    meta = meta or {}
    if fmt == "json":
        return json.dumps({"meta": meta, "columns": list(columns),
                           "rows": [[_fmt(v) for v in row] for row in rows]},
                          indent=2) + "\n"
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}={meta[key]}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def write_output(text: str, out: str | None) -> None:
    if out in (None, "-"):
        print(text, end="")
    else:
        Path(out).write_text(text)


def standard_meta(args_dict: dict, seed) -> dict:
    return {"config_hash": config_hash(args_dict), "seed": seed,
            "version": __version__}
